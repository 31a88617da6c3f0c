//! The headline robustness scenario: a batch over a directory holding a
//! valid net, a malformed net, a noise-infeasible net, and a
//! budget-busting net must complete all four with per-net outcome
//! records — no panic, no hang — and the budget must be honored with
//! typed errors while the default budget changes nothing.

use std::sync::Arc;
use std::time::Duration;

use buffopt::buffopt::{self as algo3, min_buffers, BuffOptOptions};
use buffopt::{Assignment, CoreError, DpWorkspace, MemoTable, RunBudget, Solution};
use buffopt_buffers::catalog;
use buffopt_netlist::{parse, write, ParsedNet};
use buffopt_noise::NoiseScenario;
use buffopt_pipeline::{optimize_net_with, run_batch, NetInput, Outcome, PipelineConfig, Rung};
use buffopt_tree::{segment, Driver, RoutingTree, SinkSpec, Technology, TreeBuilder};
use buffopt_workload::{adversarial, WorkloadConfig};
use proptest::prelude::*;

/// Round-trips a constructed net through the text format, as the CLI's
/// `--batch` directory scan would.
fn via_format(
    name: &str,
    tree: buffopt_tree::RoutingTree,
    scenario: buffopt_noise::NoiseScenario,
) -> String {
    let node_names = (0..tree.len()).map(|_| None).collect();
    write(&ParsedNet {
        name: Some(name.to_string()),
        tree,
        scenario,
        node_names,
    })
}

/// Builds the four-net directory on disk, scans it back like the CLI
/// does, and runs the batch.
#[test]
fn four_net_batch_completes_with_records() {
    let cfg = WorkloadConfig::default();
    let dir = std::env::temp_dir().join(format!("buffopt-batch-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let (vt, vs) = adversarial::valid_net(&cfg);
    let (nt, ns) = adversarial::noise_infeasible_net(&cfg);
    let (bt, bs) = adversarial::budget_busting_net(&cfg, 60);
    std::fs::write(dir.join("a_valid.net"), via_format("valid", vt, vs)).expect("write");
    std::fs::write(
        dir.join("b_malformed.net"),
        adversarial::malformed_net_text(),
    )
    .expect("write");
    std::fs::write(dir.join("c_noise.net"), via_format("noisy", nt, ns)).expect("write");
    std::fs::write(dir.join("d_budget.net"), via_format("buster", bt, bs)).expect("write");

    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("readable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let inputs: Vec<NetInput> = paths
        .iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            match parse(&std::fs::read_to_string(p).expect("readable")) {
                Ok(net) => NetInput::Parsed {
                    name,
                    tree: net.tree,
                    scenario: net.scenario,
                },
                Err(e) => NetInput::Failed {
                    name,
                    error: e.to_string(),
                },
            }
        })
        .collect();
    assert_eq!(inputs.len(), 4);

    let pipeline_cfg = PipelineConfig {
        // Admits the other nets (the valid net segments to ~17 nodes, the
        // noisy one to ~13) but not the buster, whose chain segments to
        // ~123 nodes for the DP rungs.
        max_tree_nodes: Some(70),
        time_limit: Some(Duration::from_secs(60)),
        ..PipelineConfig::new(catalog::ibm_like())
    };
    let report = run_batch(&inputs, &pipeline_cfg);

    assert_eq!(report.outcomes.len(), 4, "every net gets a record");
    let by_name = |n: &str| {
        report
            .outcomes
            .iter()
            .find(|o| o.name.starts_with(n))
            .unwrap_or_else(|| panic!("record for {n}"))
    };
    let valid = by_name("a_valid");
    assert_eq!(valid.outcome, Outcome::Optimized);
    assert_eq!(valid.rung, Some(Rung::Problem3));
    assert!(valid.solution.is_some());

    let malformed = by_name("b_malformed");
    assert_eq!(malformed.outcome, Outcome::ParseError);
    assert!(malformed.error.as_deref().unwrap().contains("line"));

    let noisy = by_name("c_noise");
    assert_eq!(noisy.outcome, Outcome::Infeasible);
    assert_eq!(noisy.rung, Some(Rung::Unbuffered));
    assert!(
        noisy.worst_headroom.unwrap() < 0.0,
        "diagnosis shows the violation"
    );

    let buster = by_name("d_budget");
    assert_ne!(buster.outcome, Outcome::Optimized);
    assert!(
        buster
            .attempts
            .iter()
            .any(|a| a.error.contains("tree nodes")),
        "budget rejection is recorded: {:?}",
        buster.attempts
    );

    // The JSONL report serializes one line per net and the summary adds up.
    let jsonl = report.to_jsonl();
    assert_eq!(jsonl.lines().count(), 4);
    let s = report.summary();
    assert_eq!(
        s.optimized + s.degraded + s.infeasible + s.parse_errors + s.failed,
        4
    );
    assert_eq!(report.exit_code(), 3, "parse error dominates the exit code");

    std::fs::remove_dir_all(&dir).ok();
}

/// Tiny caps produce the typed errors; the unlimited default reproduces
/// the unbudgeted result exactly.
#[test]
fn budgets_yield_typed_errors_and_default_is_identity() {
    let cfg = WorkloadConfig::default();
    let (tree, scenario) = adversarial::valid_net(&cfg);
    let seg = buffopt_tree::segment::segment_wires(&tree, 500.0).expect("segment");
    let scenario = scenario.for_segmented(&seg);
    let tree = seg.tree;
    let lib = catalog::ibm_like();

    let squeezed = BuffOptOptions {
        budget: RunBudget::default().with_max_candidates(1),
        ..BuffOptOptions::default()
    };
    assert!(matches!(
        min_buffers(&tree, &scenario, &lib, &squeezed),
        Err(CoreError::BudgetExceeded { .. })
    ));

    let expired = BuffOptOptions {
        budget: RunBudget::default().with_time_limit(Duration::ZERO),
        ..BuffOptOptions::default()
    };
    assert!(matches!(
        min_buffers(&tree, &scenario, &lib, &expired),
        Err(CoreError::DeadlineExceeded)
    ));

    let unbudgeted =
        min_buffers(&tree, &scenario, &lib, &BuffOptOptions::default()).expect("solves");
    let roomy = BuffOptOptions {
        budget: RunBudget::default()
            .with_time_limit(Duration::from_secs(600))
            .with_max_candidates(1_000_000)
            .with_max_tree_nodes(1_000_000),
        ..BuffOptOptions::default()
    };
    let budgeted = min_buffers(&tree, &scenario, &lib, &roomy).expect("solves");
    assert_eq!(unbudgeted.buffers, budgeted.buffers);
    assert_eq!(unbudgeted.slack, budgeted.slack);
    assert_eq!(unbudgeted.assignment, budgeted.assignment);
}

/// The sample nets under `data/`, each as written and with every sink's
/// required arrival time scaled by 0.5, 0.25 and 0.001 (the tighter
/// copies miss timing at every buffer count, so the ladder serves them
/// from its Problem 2 rung), then the first 12 nets of a seeded Table I
/// population.
fn corpus() -> Vec<(String, RoutingTree, NoiseScenario)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("data directory")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "net"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no sample nets under {}", dir.display());
    let mut out = Vec::new();
    for p in &paths {
        let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(p).expect("readable");
        for scale in [1.0, 0.5, 0.25, 0.001] {
            let net = parse(&scale_sink_rats(&text, scale)).expect("sample net parses");
            out.push((format!("{stem}@{scale}"), net.tree, net.scenario));
        }
    }
    let cfg = WorkloadConfig {
        net_count: 12,
        ..WorkloadConfig::default()
    };
    for net in buffopt_workload::generate(&cfg) {
        let scenario = buffopt_workload::estimation_scenario(&net.tree, &cfg);
        out.push((format!("population#{}", net.id), net.tree, scenario));
    }
    out
}

/// `text` with the required arrival time of every `sink` line scaled.
fn scale_sink_rats(text: &str, scale: f64) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut fields: Vec<&str> = line.split_whitespace().collect();
        if fields.first() == Some(&"sink") && fields.len() >= 5 {
            let rat: f64 = fields[3].parse().expect("sink RAT");
            let scaled = format!("{:e}", rat * scale);
            fields[3] = &scaled;
            out.push_str(&fields.join(" "));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The tree and scenario the pipeline's DP rungs run on (500 µm
/// segmenting, as `PipelineConfig::new` sets).
fn segmented(tree: &RoutingTree, scenario: &NoiseScenario) -> (RoutingTree, NoiseScenario) {
    let seg = segment::segment_wires(tree, 500.0).expect("segment");
    let s = scenario.for_segmented(&seg);
    (seg.tree, s)
}

/// An order-independent fingerprint of an assignment's (node, buffer)
/// pairs, for golden values.
fn assignment_print(a: &Assignment) -> u64 {
    let mut pairs: Vec<(usize, usize)> = a.iter().map(|(v, b)| (v.index(), b.index())).collect();
    pairs.sort_unstable();
    pairs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(v, b)| {
        let h = (h ^ v as u64).wrapping_mul(0x100_0000_01b3);
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn solution_print(s: &Solution) -> String {
    format!(
        "{}/{:016x}/{:016x}/{:016x}",
        s.buffers,
        s.slack.to_bits(),
        s.cost.to_bits(),
        assignment_print(&s.assignment)
    )
}

/// The served solution equals a direct call of the rung's optimizer on
/// the same segmented tree.
fn assert_served_matches_direct(
    name: &str,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    cfg: &PipelineConfig,
    ws: &mut DpWorkspace,
) -> Option<Rung> {
    let o = optimize_net_with(ws, name, tree, scenario, cfg);
    let served = o.solution.as_ref()?;
    let (t, s) = segmented(tree, scenario);
    let opts = BuffOptOptions::default();
    let direct = match o.rung {
        Some(Rung::Problem3) => algo3::min_buffers_with(ws, &t, &s, &cfg.library, &opts),
        Some(Rung::Problem2) => algo3::optimize_with(ws, &t, &s, &cfg.library, &opts),
        other => panic!("{name}: a solution served from rung {other:?}"),
    }
    .expect("direct call solves what the ladder served");
    assert_eq!(served.buffers, direct.buffers, "{name}: buffer count");
    assert_eq!(
        served.slack.to_bits(),
        direct.slack.to_bits(),
        "{name}: slack bits"
    );
    assert_eq!(served.assignment, direct.assignment, "{name}: assignment");
    o.rung
}

fn memo_configs() -> [PipelineConfig; 2] {
    let cold = PipelineConfig::new(catalog::ibm_like());
    let warm = PipelineConfig {
        memo: Some(Arc::new(MemoTable::new(32 << 20, 4))),
        ..cold.clone()
    };
    [cold, warm]
}

/// Every ladder rung that serves a DP solution serves exactly what the
/// rung's optimizer returns when called directly, memo off and on; the
/// tightened sample nets reach the Problem 2 rung.
#[test]
fn ladder_serves_what_direct_calls_return_on_sample_nets() {
    let corpus = corpus();
    for cfg in memo_configs() {
        let mut ws = DpWorkspace::new();
        let mut problem2 = 0;
        // Twice over, so the memo pass also serves seeded runs.
        for _ in 0..2 {
            for (name, tree, scenario) in &corpus {
                let rung = assert_served_matches_direct(name, tree, scenario, &cfg, &mut ws);
                problem2 += usize::from(rung == Some(Rung::Problem2));
            }
        }
        assert!(problem2 > 0, "no sample net fell through to Problem 2");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// As above on random multi-sink trees whose required times are tight
    /// enough that many of them miss timing at every buffer count.
    #[test]
    fn ladder_serves_what_direct_calls_return_on_tight_random_trees(
        tree in arb_tight_net(),
        memo_on in prop::bool::ANY,
    ) {
        let scenario = NoiseScenario::estimation(&tree, 0.7, 7.2e9);
        let [cold, warm] = memo_configs();
        let cfg = if memo_on { warm } else { cold };
        let mut ws = DpWorkspace::new();
        for _ in 0..2 {
            assert_served_matches_direct("random", &tree, &scenario, &cfg, &mut ws);
        }
    }
}

/// A random caterpillar tree (trunk with 0–2 sinks per trunk node and a
/// tip sink) whose sinks share one tight required time.
fn arb_tight_net() -> impl Strategy<Value = RoutingTree> {
    (
        2usize..6,
        prop::collection::vec(0usize..3, 2..6),
        800.0f64..3_000.0,
        300.0f64..4_000.0,
        100.0f64..600.0,
        0.1e-9f64..1.2e-9,
    )
        .prop_map(|(trunk, teeth, seg_len, tooth_len, rso, rat)| {
            let tech = Technology::global_layer();
            let mut b = TreeBuilder::new(Driver::new(rso, 10e-12));
            let mut prev = b.source();
            for (i, &t) in teeth.iter().take(trunk).enumerate() {
                prev = b.add_internal(prev, tech.wire(seg_len)).expect("trunk");
                for k in 0..t {
                    let len = tooth_len * (1.0 + 0.3 * k as f64) * (1.0 + 0.1 * i as f64);
                    b.add_sink(prev, tech.wire(len), SinkSpec::new(15e-15, rat, 0.8))
                        .expect("tooth");
                }
            }
            b.add_sink(prev, tech.wire(seg_len), SinkSpec::new(15e-15, rat, 0.8))
                .expect("tip sink");
            b.build().expect("tree")
        })
}

/// `optimize_per_count_with` and `min_cost_with` on the sample nets, as
/// `buffers/slack bits/cost bits/assignment print`; pinned so a change to
/// how the selectors read the root frontier cannot move them.
#[test]
fn per_count_and_min_cost_selections_are_pinned() {
    let lib = catalog::ibm_like();
    let opts = BuffOptOptions::default();
    let mut ws = DpWorkspace::new();
    let mut got = Vec::new();
    for (name, tree, scenario) in corpus() {
        let (t, s) = segmented(&tree, &scenario);
        let per =
            algo3::optimize_per_count_with(&mut ws, &t, &s, &lib, 6, &opts).expect("per-count");
        let per: Vec<String> = per
            .iter()
            .map(|o| o.as_ref().map_or("-".to_string(), solution_print))
            .collect();
        got.push(format!("{name} per_count {}", per.join(" ")));
        let cost = algo3::min_cost_with(&mut ws, &t, &s, &lib, &opts).expect("min cost");
        got.push(format!("{name} min_cost {}", solution_print(&cost)));
    }
    let want = [
        "clock_tap@1 per_count 0/3dff544711f34457/0000000000000000/cbf29ce484222325 - - - - - -",
        "clock_tap@1 min_cost 0/3dff544711f34457/0000000000000000/cbf29ce484222325",
        "clock_tap@0.5 per_count 0/3dec4c765398db84/0000000000000000/cbf29ce484222325 - - - - - -",
        "clock_tap@0.5 min_cost 0/3dec4c765398db84/0000000000000000/cbf29ce484222325",
        "clock_tap@0.25 per_count 0/3dd63cd4d6e409e1/0000000000000000/cbf29ce484222325 - - - - - -",
        "clock_tap@0.25 min_cost 0/3dd63cd4d6e409e1/0000000000000000/cbf29ce484222325",
        "clock_tap@0.001 per_count 0/bdc7f8278cce8eeb/0000000000000000/cbf29ce484222325 - - - - - -",
        "clock_tap@0.001 min_cost 0/bdc7f8278cce8eeb/0000000000000000/cbf29ce484222325",
        "example_bus@1 per_count - - - 3/3e04170546fdfaeb/4050000000000000/b4f698f8f326bb3a 4/3e059e6cbd5156d9/4054000000000000/c4c35f11f204b058 5/3e05a145c27c7d7b/4052000000000000/3e9c1eea350f9bed -",
        "example_bus@1 min_cost 6/3dd527941bfa6976/403a000000000000/e0a701d45ae13cd8",
        "example_bus@0.5 per_count - - - 3/bdb0d4538c7a6c58/4050000000000000/b4f698f8f326bb3a 4/3dc00c4d9ef888cc/4054000000000000/c4c35f11f204b058 5/3dc039ddf1aaf2f8/4052000000000000/3e9c1eea350f9bed -",
        "example_bus@0.5 min_cost 4/3db152a364e19c90/404a000000000000/9593c8a116eeac5e",
        "example_bus@0.25 per_count - - - 3/bdf5aaed1c297511/4050000000000000/b4f698f8f326bb3a 4/bdf29c1e2f82bd32/4054000000000000/c4c35f11f204b058 5/bdf2966c252c6fef/4052000000000000/3e9c1eea350f9bed -",
        "example_bus@0.25 min_cost 5/bdf2966c252c6fef/4052000000000000/998de8b3dbbcbad4",
        "example_bus@0.001 per_count - - - 3/be0519bc56de8622/4050000000000000/b4f698f8f326bb3a 4/be039254e08b2a33/4054000000000000/c4c35f11f204b058 5/be038f7bdb600391/4052000000000000/3e9c1eea350f9bed -",
        "example_bus@0.001 min_cost 5/be038f7bdb600391/4052000000000000/998de8b3dbbcbad4",
        "population#0 per_count - - 2/3e02d64ee9a214ee/4050000000000000/795088772a426cd1 3/3e0498943b0ea50e/4048000000000000/aafa6e4f5f3671e5 4/3e049fba27e76022/4050000000000000/1364c70991f0943c - -",
        "population#0 min_cost 5/3dd0d2d0f743a60c/4034000000000000/6ea0298e8da08488",
        "population#1 per_count - - 2/3e0a38058ea84763/4040000000000000/8a9946773409b67a 3/3e0a830a4e67f8fd/4048000000000000/25f3043e8bbc1924 - - -",
        "population#1 min_cost 3/3dfdf3156303e55e/402c000000000000/724becea150ac011",
        "population#2 per_count 0/3e1261dec94638aa/0000000000000000/cbf29ce484222325 - - - - - -",
        "population#2 min_cost 0/3e1261dec94638aa/0000000000000000/cbf29ce484222325",
        "population#3 per_count - - - 3/3dfd7ea57e8bbffc/4054000000000000/31fd184f1ac3311a 4/3dff42ecf7105046/4050000000000000/13682d0991f37765 5/3dff5716252887ca/4054000000000000/822a06317ec87a7f -",
        "population#3 min_cost 5/3dde8aff53ca22e2/4040000000000000/dff69592d21ea6dc",
        "population#4 per_count - - 2/3e028380033b327a/4050000000000000/010e505e624767ee 3/3e0447618d49b6f3/4048000000000000/db9d5cbe52cd8298 4/3e04c828c4f49c47/4050000000000000/13682d0991f37765 - -",
        "population#4 min_cost 5/3dcb2ee9831c516c/4036000000000000/8fbd947c248f5cb5",
        "population#5 per_count 0/3e117d036c3cf39c/0000000000000000/cbf29ce484222325 1/3e11915afc988c23/4030000000000000/08395007b4f12f73 - - - - -",
        "population#5 min_cost 0/3e117d036c3cf39c/0000000000000000/cbf29ce484222325",
        "population#6 per_count - - 2/3e05d9cf73089d6c/4040000000000000/2fe0386f050b382e 3/3e06a0a73ff3aef4/4048000000000000/d5ab5912af14a23a 4/3e06a170124a8c34/4050000000000000/81022aee4824fc6d - -",
        "population#6 min_cost 4/3decf56a6726f392/4032000000000000/40058d9282dfd8d6",
        "population#7 per_count 0/3e11a9576528906a/0000000000000000/cbf29ce484222325 1/3e11b2a9bf9795ee/4030000000000000/0835f207b4ee59e2 - - - - -",
        "population#7 min_cost 0/3e11a9576528906a/0000000000000000/cbf29ce484222325",
        "population#8 per_count - 1/3e10bf5e0d89fcc0/4030000000000000/082f1e07b4e885f8 - - - - -",
        "population#8 min_cost 1/3e0cfc89d14c83f5/4010000000000000/0824ee07b4dfdfe3",
        "population#9 per_count - - 2/3e0b6f9de4eb5191/4040000000000000/0fd03c8807ac6de1 - - - -",
        "population#9 min_cost 3/3e02cf9623233641/402c000000000000/209c642ffdd361f2",
        "population#10 per_count - 1/3e1110c232af9d94/4030000000000000/082f1e07b4e885f8 2/3e0a3b02a61b090f/4022000000000000/ad319577479e1c03 - - - -",
        "population#10 min_cost 1/3e0ee91304555e8d/4010000000000000/08285407b4e2c30c",
        "population#11 per_count - - - 3/3e03e7c33627756c/4048000000000000/aafa6e4f5f3671e5 4/3e04397d0fdcadbf/4050000000000000/d6aa2f645dbe8634 - -",
        "population#11 min_cost 4/3dee6c9072591211/403a000000000000/ebe6294639c2b0dd",
    ];
    assert_eq!(got, want, "\n{}", got.join("\n"));
}
