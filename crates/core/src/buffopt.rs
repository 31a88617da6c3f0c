//! **BuffOpt** — Algorithm 3 of the paper: simultaneous noise and delay
//! optimization (Problem 2), plus the Problem 3 production mode (fewest
//! buffers such that noise *and* timing are satisfied, slack maximized as
//! a secondary objective).
//!
//! Every entry point runs the DP once, through `root_frontier`, and then
//! selects from the root frontier it returns: the noise-clean source
//! solutions that survive the (count, cost, slack) reduce, in ascending
//! count (Lillis' candidate lists indexed by buffer count). Problem 2 is
//! that list's greatest-slack row; Problem 3, the per-count table and the
//! cost objective are other picks from the same kind of list.

use std::sync::Arc;

use buffopt_buffers::BufferLibrary;
use buffopt_memo::MemoTable;
use buffopt_noise::NoiseScenario;
use buffopt_tree::RoutingTree;

use crate::assignment::Assignment;
use crate::budget::RunBudget;
use crate::delayopt::Solution;
use crate::dp::{self, DpConfig, DpStats, SourceCand};
use crate::error::CoreError;
use crate::workspace::DpWorkspace;

/// Options for the BuffOpt optimizers.
///
/// Not `Copy`: the embedded [`RunBudget`] carries a shared
/// [`crate::CancelToken`], so options are cloned explicitly where a run
/// needs its own handle.
#[derive(Debug, Clone, Default)]
pub struct BuffOptOptions {
    /// Hard cap on the number of inserted buffers.
    pub max_buffers: Option<usize>,
    /// Prune only candidates dominated in `(C, q, I, NS)` rather than the
    /// paper's `(C, q)`. Slower but exact when the library violates the
    /// Theorem 5 assumptions (`Cin` not minimal, margins not ordered).
    pub conservative_pruning: bool,
    /// Track signal polarity through inverting buffers (Lillis): sinks
    /// must receive the true signal, so inverters may only appear in
    /// pairs along any source-to-sink path.
    pub polarity_aware: bool,
    /// Resource limits; the default is unlimited. A capped run aborts
    /// with [`CoreError::BudgetExceeded`] / [`CoreError::DeadlineExceeded`]
    /// instead of exhausting the machine.
    pub budget: RunBudget,
    /// Cross-request subtree memo table (`None` = no memoization). Shared
    /// via `Arc` so batch workers reuse each other's frontiers; seeded
    /// runs return solutions bitwise-identical to cold runs. Ignored when
    /// `budget.max_arena_bytes` is set — see
    /// [`buffopt_memo`] and DESIGN §13 for why arena-byte degrade cannot
    /// be memoized.
    pub memo: Option<Arc<MemoTable>>,
}

fn to_solution(tree: &RoutingTree, c: SourceCand, stats: &DpStats) -> Solution {
    Solution {
        assignment: Assignment::from_pairs(tree, c.insertions),
        slack: c.slack,
        buffers: c.count,
        cost: c.cost,
        meets_noise: true,
        peak_candidates: stats.peak_candidates,
        peak_merge_product: stats.peak_merge_product,
        merge_products_enumerated: stats.merge_products_enumerated,
        merge_products_pruned: stats.merge_products_pruned,
        peak_arena_bytes: stats.peak_arena_bytes,
        degraded_by: stats.degraded_by,
    }
}

fn config_of(options: &BuffOptOptions) -> DpConfig {
    DpConfig {
        noise: true,
        max_buffers: options.max_buffers,
        conservative: options.conservative_pruning,
        polarity: options.polarity_aware,
        cost_aware: false,
    }
}

/// The one BuffOpt DP run: every noise-clean source solution that
/// survives the root reduce, in (count ↑, cost ↑, slack ↓) sort order.
/// Never empty — a run with no survivor is
/// [`CoreError::NoFeasibleCandidate`].
fn root_frontier(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    cfg: &DpConfig,
    options: &BuffOptOptions,
) -> Result<(Vec<SourceCand>, DpStats), CoreError> {
    dp::run_with_memo(
        &mut ws.dp,
        tree,
        Some(scenario),
        lib,
        cfg,
        &options.budget,
        options.memo.as_deref(),
    )
}

/// Which root-frontier row an entry point serves.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// Problem 2: the greatest slack.
    MaxSlack,
    /// Problem 3: the fewest buffers meeting timing, then the greatest
    /// slack.
    MinBuffers,
    /// The Lillis power objective: the least total cost meeting timing,
    /// then the greatest slack.
    MinCost,
}

/// Index of the row `pick` serves from a root frontier (rows in
/// ascending count); `None` only for an empty frontier. Tie rules:
///
/// * [`Pick::MaxSlack`]: among rows of greatest slack, the **last** in
///   frontier order — on an exact slack tie the higher count wins;
/// * [`Pick::MinBuffers`]: the first timing-feasible row in
///   (count ↑, slack ↓) order, i.e. the greatest slack within the
///   smallest count that has a feasible row, the first such row on a
///   tie; with no feasible row, the [`Pick::MaxSlack`] row;
/// * [`Pick::MinCost`]: among timing-feasible rows the least cost, then
///   the greatest slack, the first such row on a tie; with no feasible
///   row, the [`Pick::MaxSlack`] row.
fn select(rows: &[SourceCand], pick: Pick) -> Option<usize> {
    debug_assert!(
        rows.windows(2).all(|w| w[0].count <= w[1].count),
        "root frontier must ascend in buffer count"
    );
    let meeting = match pick {
        Pick::MaxSlack => None,
        Pick::MinBuffers => {
            let mut best: Option<usize> = None;
            for (i, r) in rows.iter().enumerate() {
                if let Some(b) = best {
                    if r.count != rows[b].count {
                        break; // past the first count with a feasible row
                    }
                    if r.slack > rows[b].slack {
                        best = Some(i);
                    }
                } else if r.slack >= 0.0 {
                    best = Some(i);
                }
            }
            best
        }
        Pick::MinCost => rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.slack >= 0.0)
            .min_by(|(_, a), (_, b)| {
                a.cost
                    .partial_cmp(&b.cost)
                    .expect("finite costs")
                    .then(b.slack.partial_cmp(&a.slack).expect("finite slack"))
            })
            .map(|(i, _)| i),
    };
    // `max_by` keeps the last of equal maxima.
    meeting.or_else(|| {
        rows.iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.slack.partial_cmp(&b.slack).expect("finite slack"))
            .map(|(i, _)| i)
    })
}

/// One DP run over the BuffOpt configuration, served by `pick`.
fn solve(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    cfg: &DpConfig,
    options: &BuffOptOptions,
    pick: Pick,
) -> Result<Solution, CoreError> {
    let (mut rows, stats) = root_frontier(ws, tree, scenario, lib, cfg, options)?;
    let i = select(&rows, pick).ok_or(CoreError::NoFeasibleCandidate)?;
    Ok(to_solution(tree, rows.swap_remove(i), &stats))
}

/// Problem 2: maximize the source timing slack such that every noise
/// constraint (sinks and inserted buffer inputs) is satisfied.
///
/// Optimal for single-type libraries under the paper's Theorem 5
/// assumptions; within ~2 % of the delay-only upper bound for the
/// 11-buffer library (paper Table IV, reproduced in the bench crate).
///
/// # Errors
///
/// * [`CoreError::EmptyLibrary`] — no buffer types;
/// * [`CoreError::ScenarioMismatch`] — scenario built for another tree;
/// * [`CoreError::NoFeasibleCandidate`] — no insertion satisfies the noise
///   margins (e.g. insufficient wire segmenting).
pub fn optimize(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    optimize_with(&mut DpWorkspace::new(), tree, scenario, lib, options)
}

/// [`optimize`] with a reused [`DpWorkspace`], so batch drivers and server
/// workers amortize the DP scratch across nets.
///
/// # Errors
///
/// Those of [`optimize`].
pub fn optimize_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    solve(
        ws,
        tree,
        scenario,
        lib,
        &config_of(options),
        options,
        Pick::MaxSlack,
    )
}

/// The best noise-clean solution for every buffer count up to
/// `max_buffers`; entry `k` is `None` when no `k`-buffer solution survives
/// (dominated by a smaller count, or noise-infeasible).
///
/// # Errors
///
/// Same as [`optimize`].
pub fn optimize_per_count(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    max_buffers: usize,
    options: &BuffOptOptions,
) -> Result<Vec<Option<Solution>>, CoreError> {
    optimize_per_count_with(
        &mut DpWorkspace::new(),
        tree,
        scenario,
        lib,
        max_buffers,
        options,
    )
}

/// [`optimize_per_count`] with a reused [`DpWorkspace`].
///
/// # Errors
///
/// Same as [`optimize`].
pub fn optimize_per_count_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    max_buffers: usize,
    options: &BuffOptOptions,
) -> Result<Vec<Option<Solution>>, CoreError> {
    let cfg = DpConfig {
        max_buffers: Some(max_buffers),
        ..config_of(options)
    };
    let (rows, stats) = root_frontier(ws, tree, scenario, lib, &cfg, options)?;
    let mut out: Vec<Option<Solution>> = (0..=max_buffers).map(|_| None).collect();
    // The greatest slack per count, the first row on a tie.
    for c in rows {
        let count = c.count;
        let better =
            count <= max_buffers && out[count].as_ref().is_none_or(|prev| c.slack > prev.slack);
        if better {
            out[count] = Some(to_solution(tree, c, &stats));
        }
    }
    Ok(out)
}

/// Problem 3 (the tool's production mode): the solution with the fewest
/// buffers such that **both** noise and timing constraints are satisfied,
/// maximizing slack as a secondary objective. When no buffer count meets
/// timing, returns the noise-clean solution with the best slack (its
/// `slack` will be negative), mirroring how a physical-design flow
/// degrades gracefully.
///
/// # Errors
///
/// Same as [`optimize`].
pub fn min_buffers(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    min_buffers_with(&mut DpWorkspace::new(), tree, scenario, lib, options)
}

/// [`min_buffers`] with a reused [`DpWorkspace`].
///
/// # Errors
///
/// Same as [`optimize`].
pub fn min_buffers_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    solve(
        ws,
        tree,
        scenario,
        lib,
        &config_of(options),
        options,
        Pick::MinBuffers,
    )
}

/// [`min_buffers_with`]'s pick and, when it misses timing,
/// [`optimize_with`]'s pick, both from one DP run.
#[derive(Debug, Clone)]
pub struct LadderPicks {
    /// The Problem 3 solution ([`min_buffers_with`]).
    pub problem3: Solution,
    /// The Problem 2 solution ([`optimize_with`]); `Some` exactly when
    /// `problem3.slack < 0`. Problem 3 then falls back to the
    /// greatest-slack row itself, so both hold the same row.
    pub problem2: Option<Solution>,
}

/// The first two rungs of a degradation ladder from one DP run: Problem 3
/// and, only when no buffer count meets timing, Problem 2. Each pick
/// equals what [`min_buffers_with`] and [`optimize_with`] return on their
/// own, bit for bit.
///
/// # Errors
///
/// Same as [`optimize`]; the error is the one either separate call would
/// return.
pub fn ladder_picks_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<LadderPicks, CoreError> {
    let (mut rows, stats) = root_frontier(ws, tree, scenario, lib, &config_of(options), options)?;
    let p3 = select(&rows, Pick::MinBuffers).ok_or(CoreError::NoFeasibleCandidate)?;
    let problem2 = if rows[p3].slack < 0.0 {
        select(&rows, Pick::MaxSlack).map(|i| to_solution(tree, rows[i].clone(), &stats))
    } else {
        None
    };
    Ok(LadderPicks {
        problem3: to_solution(tree, rows.swap_remove(p3), &stats),
        problem2,
    })
}

/// The Lillis power objective: the solution with the smallest **total
/// buffer cost** (area/power units from [`buffopt_buffers::BufferType::cost`])
/// such that both noise and timing constraints are satisfied; slack is
/// maximized as a secondary objective. Falls back to the best-slack
/// noise-clean solution when no candidate meets timing.
///
/// Unlike [`min_buffers`], two solutions with the same buffer count but
/// different device sizes are distinguished, so the DP runs with cost
/// tracking (pairwise pruning — somewhat slower).
///
/// # Errors
///
/// Same as [`optimize`].
pub fn min_cost(
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    min_cost_with(&mut DpWorkspace::new(), tree, scenario, lib, options)
}

/// [`min_cost`] with a reused [`DpWorkspace`].
///
/// # Errors
///
/// Same as [`optimize`].
pub fn min_cost_with(
    ws: &mut DpWorkspace,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    lib: &BufferLibrary,
    options: &BuffOptOptions,
) -> Result<Solution, CoreError> {
    let cfg = DpConfig {
        cost_aware: true,
        ..config_of(options)
    };
    solve(ws, tree, scenario, lib, &cfg, options, Pick::MinCost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit;
    use crate::delayopt::{self, DelayOptOptions};
    use buffopt_buffers::{catalog, BufferLibrary, BufferType};
    use buffopt_noise::metric::NoiseReport;
    use buffopt_tree::{segment, Driver, SinkSpec, Technology, TreeBuilder};

    fn estimation(tree: &RoutingTree) -> NoiseScenario {
        NoiseScenario::estimation(tree, 0.7, 7.2e9)
    }

    fn two_pin_segmented(len: f64, pieces: usize, rat: f64) -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        b.add_sink(b.source(), tech.wire(len), SinkSpec::new(20e-15, rat, 0.8))
            .expect("sink");
        let t = b.build().expect("tree");
        segment::segment_uniform(&t, pieces).expect("segment").tree
    }

    fn y_net_segmented(trunk: f64, arm: f64, pieces: usize) -> RoutingTree {
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b.add_internal(b.source(), tech.wire(trunk)).expect("j");
        for _ in 0..2 {
            b.add_sink(j, tech.wire(arm), SinkSpec::new(20e-15, 1.5e-9, 0.8))
                .expect("sink");
        }
        let t = b.build().expect("tree");
        segment::segment_uniform(&t, pieces).expect("segment").tree
    }

    fn row(count: usize, cost: f64, slack: f64) -> SourceCand {
        SourceCand {
            slack,
            count,
            cost,
            insertions: Vec::new(),
        }
    }

    /// Nonzero `x` moved `n` representable values towards +∞.
    fn ulps_up(x: f64, n: u64) -> f64 {
        if x < 0.0 {
            f64::from_bits(x.to_bits() - n)
        } else {
            f64::from_bits(x.to_bits() + n)
        }
    }

    /// The selections as they were written before the entry points shared
    /// one root frontier: `optimize`'s `max_by`, `min_buffers`' stable
    /// sort then `position` then `max_by`, and `min_cost`'s `min_by`.
    fn legacy_picks(rows: &[SourceCand]) -> (usize, usize, usize) {
        let by_slack = |&a: &usize, &b: &usize| rows[a].slack.partial_cmp(&rows[b].slack).unwrap();
        let max_slack = (0..rows.len()).max_by(by_slack).unwrap();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            rows[a]
                .count
                .cmp(&rows[b].count)
                .then(rows[b].slack.partial_cmp(&rows[a].slack).unwrap())
        });
        let min_buffers = match order.iter().position(|&i| rows[i].slack >= 0.0) {
            Some(p) => order[p],
            None => order.iter().copied().max_by(by_slack).unwrap(),
        };
        let min_cost = (0..rows.len())
            .filter(|&i| rows[i].slack >= 0.0)
            .min_by(|&a, &b| {
                rows[a]
                    .cost
                    .partial_cmp(&rows[b].cost)
                    .unwrap()
                    .then(rows[b].slack.partial_cmp(&rows[a].slack).unwrap())
            })
            .unwrap_or(max_slack);
        (max_slack, min_buffers, min_cost)
    }

    /// The selection tie rules, on hand-built root frontiers: Problem 2
    /// and Problem 3's fallback pick the same row, the last of the
    /// greatest slack (so an exact tie goes to the higher count), and
    /// every pick equals what the separate selections used to return.
    #[test]
    fn selection_tie_rules_are_pinned() {
        let s = -1e-10;
        // (frontier, expected Problem 2 row, expected Problem 3 row)
        let cases: Vec<(&str, Vec<SourceCand>, usize, usize)> = vec![
            (
                "equal max slack at different counts and costs",
                vec![row(0, 0.0, -5e-10), row(1, 8.0, s), row(2, 4.0, s)],
                2,
                2,
            ),
            (
                "equal max slack, both timing-feasible",
                vec![row(1, 8.0, 1e-10), row(2, 4.0, 1e-10)],
                1,
                0,
            ),
            (
                "feasible at two counts, more slack at the higher",
                vec![row(0, 0.0, -1e-10), row(1, 2.0, 1e-10), row(2, 3.0, 3e-10)],
                2,
                1,
            ),
            (
                "equal feasible slack within one count",
                vec![row(1, 2.0, 1e-10), row(1, 4.0, 1e-10)],
                1,
                0,
            ),
            (
                "every row timing-infeasible",
                vec![
                    row(0, 0.0, -3e-10),
                    row(1, 2.0, -2e-10),
                    row(1, 4.0, -1.5e-10),
                    row(2, 3.0, -1.8e-10),
                ],
                2,
                2,
            ),
            ("a single infeasible row", vec![row(3, 6.0, s)], 0, 0),
            ("a single feasible row", vec![row(3, 6.0, 2e-10)], 0, 0),
            (
                "slacks two ulps apart, higher at the lower count",
                vec![row(1, 8.0, ulps_up(s, 2)), row(2, 4.0, s)],
                0,
                0,
            ),
            (
                "slacks two ulps apart, higher at the higher count",
                vec![row(1, 8.0, s), row(2, 4.0, ulps_up(s, 2))],
                1,
                1,
            ),
            (
                "one ulp either side of zero",
                vec![
                    row(1, 2.0, -f64::from_bits(1)),
                    row(2, 1.0, f64::from_bits(1)),
                ],
                1,
                1,
            ),
        ];
        for (what, rows, want_p2, want_p3) in &cases {
            let (max_slack, min_buffers, min_cost) = legacy_picks(rows);
            let p2 = select(rows, Pick::MaxSlack);
            let p3 = select(rows, Pick::MinBuffers);
            assert_eq!(p2, Some(*want_p2), "{what}: Problem 2");
            assert_eq!(p3, Some(*want_p3), "{what}: Problem 3");
            assert_eq!(p2, Some(max_slack), "{what}: Problem 2 vs legacy");
            assert_eq!(p3, Some(min_buffers), "{what}: Problem 3 vs legacy");
            assert_eq!(
                select(rows, Pick::MinCost),
                Some(min_cost),
                "{what}: min cost vs legacy"
            );
            if rows.iter().all(|r| r.slack < 0.0) {
                assert_eq!(p3, p2, "{what}: Problem 3 falls back to Problem 2's row");
            }
        }
        assert_eq!(select(&[], Pick::MaxSlack), None);
    }

    /// `ladder_picks_with` serves exactly what the separate entry points
    /// return, with a Problem 2 pick only when Problem 3 misses timing.
    #[test]
    fn ladder_picks_match_separate_calls() {
        let lib = catalog::ibm_like();
        let opts = BuffOptOptions::default();
        let mut ws = DpWorkspace::new();
        for rat in [3e-9, 1.5e-9, 1e-12] {
            let t = two_pin_segmented(20_000.0, 16, rat);
            let s = estimation(&t);
            let picks = ladder_picks_with(&mut ws, &t, &s, &lib, &opts).expect("picks");
            let p3 = min_buffers_with(&mut ws, &t, &s, &lib, &opts).expect("p3");
            let same = |a: &Solution, b: &Solution| {
                a.buffers == b.buffers
                    && a.slack.to_bits() == b.slack.to_bits()
                    && a.assignment == b.assignment
            };
            assert!(same(&picks.problem3, &p3), "rat {rat}: Problem 3");
            match &picks.problem2 {
                None => assert!(p3.slack >= 0.0, "rat {rat}: missing Problem 2 pick"),
                Some(p2) => {
                    assert!(p3.slack < 0.0, "rat {rat}: needless Problem 2 pick");
                    let direct = optimize_with(&mut ws, &t, &s, &lib, &opts).expect("p2");
                    assert!(same(p2, &direct), "rat {rat}: Problem 2");
                }
            }
        }
    }

    #[test]
    fn fixes_noise_and_audits_clean() {
        let t = two_pin_segmented(20_000.0, 16, 2e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        assert!(NoiseReport::analyze(&t, &s).has_violation());
        let sol = optimize(&t, &s, &lib, &BuffOptOptions::default()).expect("solve");
        assert!(sol.buffers > 0);
        let na = audit::noise(&t, &s, &lib, &sol.assignment).expect("audit");
        assert!(
            !na.has_violation(),
            "worst headroom {}",
            na.worst_headroom()
        );
        let da = audit::delay(&t, &lib, &sol.assignment).expect("audit");
        assert!((sol.slack - da.slack).abs() < 1e-15);
    }

    #[test]
    fn never_worse_noise_than_unconstrained_never_better_slack() {
        let t = y_net_segmented(8_000.0, 6_000.0, 6);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let noise_sol = optimize(&t, &s, &lib, &BuffOptOptions::default()).expect("buffopt");
        let delay_sol =
            delayopt::optimize(&t, &lib, &DelayOptOptions::default()).expect("delayopt");
        // DelayOpt is an upper bound on BuffOpt's slack (paper Section V-C).
        assert!(noise_sol.slack <= delay_sol.slack + 1e-15);
        // And BuffOpt is noise-clean while DelayOpt need not be.
        assert!(!audit::noise(&t, &s, &lib, &noise_sol.assignment)
            .expect("audit")
            .has_violation());
    }

    #[test]
    fn matches_exhaustive_single_buffer_library() {
        // Theorem 5 setting: one buffer type, Cin below sink caps, margin
        // above sink margins. The DP must find the exhaustive optimum of
        // Problem 2.
        let t = y_net_segmented(6_000.0, 4_000.0, 4);
        let s = estimation(&t);
        let lib = BufferLibrary::single(BufferType::new("b", 8e-15, 220.0, 25e-12, 0.9));
        let sol = optimize(&t, &s, &lib, &BuffOptOptions::default()).expect("solve");

        let sites: Vec<_> = t
            .node_ids()
            .filter(|&v| t.node(v).kind.is_feasible_site())
            .collect();
        assert!(sites.len() <= 16);
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << sites.len()) {
            let mut a = Assignment::empty(&t);
            for (i, &site) in sites.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    a.insert(site, buffopt_buffers::BufferId::from_index(0));
                }
            }
            if audit::noise(&t, &s, &lib, &a)
                .expect("audit")
                .has_violation()
            {
                continue;
            }
            best = best.max(audit::delay(&t, &lib, &a).expect("audit").slack);
        }
        assert!(best > f64::NEG_INFINITY, "some legal assignment exists");
        assert!(
            (sol.slack - best).abs() < 1e-14,
            "DP {} vs exhaustive {}",
            sol.slack,
            best
        );
    }

    #[test]
    fn min_buffers_prefers_fewer_when_timing_met() {
        let t = two_pin_segmented(20_000.0, 16, 3e-9); // loose timing
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let max_slack = optimize(&t, &s, &lib, &BuffOptOptions::default()).expect("p2");
        let frugal = min_buffers(&t, &s, &lib, &BuffOptOptions::default()).expect("p3");
        assert!(frugal.buffers <= max_slack.buffers);
        assert!(frugal.slack >= 0.0, "timing met");
        assert!(!audit::noise(&t, &s, &lib, &frugal.assignment)
            .expect("audit")
            .has_violation());
    }

    #[test]
    fn min_buffers_falls_back_to_best_slack() {
        let t = two_pin_segmented(20_000.0, 16, 1e-12); // impossible timing
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let sol = min_buffers(&t, &s, &lib, &BuffOptOptions::default()).expect("p3");
        assert!(sol.slack < 0.0, "timing is unmeetable");
        assert!(!audit::noise(&t, &s, &lib, &sol.assignment)
            .expect("audit")
            .has_violation());
    }

    #[test]
    fn per_count_zero_entry_absent_when_unbuffered_violates() {
        let t = two_pin_segmented(20_000.0, 16, 2e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        assert!(NoiseReport::analyze(&t, &s).has_violation());
        let per =
            optimize_per_count(&t, &s, &lib, 12, &BuffOptOptions::default()).expect("per-count");
        assert!(per[0].is_none(), "unbuffered candidate violates noise");
        assert!(per.iter().flatten().count() >= 1);
        for sol in per.iter().flatten() {
            assert!(!audit::noise(&t, &s, &lib, &sol.assignment)
                .expect("audit")
                .has_violation());
        }
    }

    #[test]
    fn conservative_pruning_never_loses_feasibility() {
        // A pathological library violating Theorem 5's assumptions: the
        // fast buffer has a huge Cin and a tiny margin.
        let mut lib = BufferLibrary::new();
        lib.push(BufferType::new("fast", 60e-15, 80.0, 10e-12, 0.30));
        lib.push(BufferType::new("clean", 6e-15, 450.0, 30e-12, 0.95));
        let t = two_pin_segmented(25_000.0, 20, 3e-9);
        let s = estimation(&t);
        let paper = optimize(&t, &s, &lib, &BuffOptOptions::default());
        let safe = optimize(
            &t,
            &s,
            &lib,
            &BuffOptOptions {
                conservative_pruning: true,
                ..BuffOptOptions::default()
            },
        );
        let safe_sol = safe.expect("conservative mode must find the fix");
        assert!(!audit::noise(&t, &s, &lib, &safe_sol.assignment)
            .expect("audit")
            .has_violation());
        if let Ok(p) = paper {
            // When both succeed, conservative is at least as good.
            assert!(safe_sol.slack >= p.slack - 1e-15);
        }
    }

    #[test]
    fn polarity_aware_solutions_are_polarity_legal() {
        let t = two_pin_segmented(20_000.0, 16, 2e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like(); // 5 inverting + 6 non-inverting
        let free = optimize(&t, &s, &lib, &BuffOptOptions::default()).expect("free");
        let strict = optimize(
            &t,
            &s,
            &lib,
            &BuffOptOptions {
                polarity_aware: true,
                ..BuffOptOptions::default()
            },
        )
        .expect("strict");
        assert!(audit::polarity_legal(&t, &lib, &strict.assignment));
        // Polarity is a restriction: it can never beat the free optimum.
        assert!(strict.slack <= free.slack + 1e-15);
        assert!(!audit::noise(&t, &s, &lib, &strict.assignment)
            .expect("audit")
            .has_violation());
    }

    #[test]
    fn inverter_only_library_pairs_up_under_polarity() {
        // With only inverting buffers, a polarity-legal chain must carry
        // an even number of them.
        let mut lib = BufferLibrary::new();
        lib.push(BufferType::new("inv", 6e-15, 300.0, 15e-12, 0.9).inverting());
        // 500 µm sites: coarse 1 mm sites force an odd buffer count on
        // this net, which is genuinely parity-infeasible.
        let t = two_pin_segmented(12_000.0, 24, 2e-9);
        let s = estimation(&t);
        let sol = optimize(
            &t,
            &s,
            &lib,
            &BuffOptOptions {
                polarity_aware: true,
                ..BuffOptOptions::default()
            },
        )
        .expect("solvable with inverter pairs");
        assert_eq!(sol.buffers % 2, 0, "chain needs an even inverter count");
        assert!(audit::polarity_legal(&t, &lib, &sol.assignment));
        // Without polarity tracking the same run may use an odd count.
        let free = optimize(&t, &s, &lib, &BuffOptOptions::default()).expect("free");
        assert!(free.slack >= sol.slack - 1e-15);
    }

    #[test]
    fn min_cost_never_exceeds_min_buffers_cost() {
        let t = two_pin_segmented(18_000.0, 14, 3e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let frugal_count = min_buffers(&t, &s, &lib, &BuffOptOptions::default()).expect("p3");
        let frugal_cost = min_cost(&t, &s, &lib, &BuffOptOptions::default()).expect("cost");
        assert!(frugal_cost.cost <= frugal_count.cost + 1e-12);
        assert!(frugal_cost.slack >= 0.0, "timing met");
        assert!(!audit::noise(&t, &s, &lib, &frugal_cost.assignment)
            .expect("audit")
            .has_violation());
        // The reported cost matches the assignment.
        assert!((frugal_cost.cost - frugal_cost.assignment.total_cost(&lib)).abs() < 1e-12);
    }

    #[test]
    fn min_cost_prefers_small_devices_when_slack_allows() {
        // Loose timing: the cheapest fix should avoid x16/x32 monsters.
        let t = two_pin_segmented(14_000.0, 14, 10e-9);
        let s = estimation(&t);
        let lib = catalog::ibm_like();
        let sol = min_cost(&t, &s, &lib, &BuffOptOptions::default()).expect("cost");
        let max_level = sol
            .assignment
            .iter()
            .map(|(_, b)| lib.buffer(b).cost)
            .fold(0.0f64, f64::max);
        assert!(
            max_level <= 8.0 + 1e-12,
            "no x16/x32 devices in the cheap fix, got max level {max_level}"
        );
    }

    #[test]
    fn agrees_with_algorithm2_on_buffer_count_for_pure_noise() {
        // With RAT = +inf, Problem 3 degenerates to Problem 1; the DP's
        // min-buffer answer must match Algorithm 2 when buffer sites are
        // dense enough.
        use crate::algorithm2;
        let tech = Technology::global_layer();
        let mut b = TreeBuilder::new(Driver::new(300.0, 10e-12));
        let j = b.add_internal(b.source(), tech.wire(12_000.0)).expect("j");
        for _ in 0..2 {
            b.add_sink(
                j,
                tech.wire(9_000.0),
                SinkSpec::new(20e-15, f64::INFINITY, 0.8),
            )
            .expect("sink");
        }
        let t0 = b.build().expect("tree");
        let lib = BufferLibrary::single(BufferType::new("b", 10e-15, 200.0, 20e-12, 0.9));

        let a2 = algorithm2::avoid_noise(&t0, &estimation(&t0), &lib).expect("alg2");

        let seg = segment::segment_wires(&t0, 250.0).expect("segment");
        let s_seg = estimation(&t0).for_segmented(&seg);
        let p3 = min_buffers(&seg.tree, &s_seg, &lib, &BuffOptOptions::default()).expect("p3");
        // Discrete sites within 250 µm of the continuous optimum: at most
        // one extra buffer.
        assert!(
            p3.buffers <= a2.inserted() + 1,
            "DP {} vs continuous optimum {}",
            p3.buffers,
            a2.inserted()
        );
        assert!(p3.buffers >= a2.inserted(), "cannot beat the optimum");
    }
}
