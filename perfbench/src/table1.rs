//! `table1_batch`: the paper's 500-net experiment as `buffopt-cli --batch
//! --jobs 2` runs it, minus the file I/O.
//!
//! Each request is one population of 500 nets (Table I sink-count
//! distribution) given as `.net` texts: every text is keyed and parsed,
//! and the batch goes through `Engine::run_jobs` on two workers with the
//! solution cache and the memo off. Odd populations carry a required
//! arrival time tight enough that a share of nets falls from Problem 3
//! to Problem 2; the report prints that share.

use std::collections::BTreeMap;
use std::time::Instant;

use buffopt::DpWorkspace;
use buffopt_netlist::parse;
use buffopt_pipeline::{reverify_outcome, BatchReport, NetInput, NetOutcome, Reverify};
use buffopt_server::{Engine, EngineOptions};
use buffopt_workload::{estimation_scenario, generate, WorkloadConfig};

use crate::alloc;
use crate::common::{
    cli_pipeline_config, keyed_jobs, net_text, overhead, peak_rss_mb, probe_net, secs, self_shares,
    span_p50, write_spans, LayerValue, Measured, Outcome, RecordStats, StealMeter, PROBE_REQUESTS,
};
use crate::record::{normalized, TIMING};
use crate::stats::{Digest, Rng};
use crate::trace::{durations_us, SpanId, Tracer};
use crate::Args;

/// Populations per run; requests cycle through them.
const POPULATIONS: usize = 8;
/// Required arrival time of the odd populations (the default is 1.2 ns).
const TIGHT_RAT: f64 = 0.5e-9;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Worker threads, as `--jobs 2`.
const JOBS: usize = 2;

struct Population {
    /// `(name, .net text)` per net.
    texts: Vec<(String, String)>,
    tight: bool,
}

/// The run's populations and a digest over their texts.
fn inputs(seed: u64) -> (Vec<Population>, u64) {
    let mut rng = Rng::new(seed, 0x7ab1e1);
    let mut digest = Digest::default();
    let pops = (0..POPULATIONS)
        .map(|i| {
            let tight = i % 2 == 1;
            let cfg = WorkloadConfig {
                seed: rng.next_u64(),
                required_arrival_time: if tight {
                    TIGHT_RAT
                } else {
                    WorkloadConfig::default().required_arrival_time
                },
                ..WorkloadConfig::default()
            };
            let texts = generate(&cfg)
                .iter()
                .map(|n| {
                    let name = format!("p{i}n{:03}", n.id);
                    let text = net_text(&name, &n.tree, &estimation_scenario(&n.tree, &cfg));
                    digest.feed(text.as_bytes());
                    (name, text)
                })
                .collect();
            Population { texts, tight }
        })
        .collect();
    (pops, digest.value())
}

/// Digest of the inputs a seed generates.
#[cfg(test)]
pub fn input_digest(seed: u64) -> u64 {
    inputs(seed).1
}

struct Setup {
    pops: Vec<Population>,
    digest: u64,
    engine: Engine,
}

fn setup(seed: u64) -> Setup {
    let (pops, digest) = inputs(seed);
    let engine = Engine::new(
        cli_pipeline_config(),
        EngineOptions {
            jobs: JOBS,
            cache_capacity: 0,
            ..EngineOptions::default()
        },
    );
    // Warm-up: one batch, so thread start-up and first-touch allocation
    // land outside the timed phase.
    batch(&engine, &pops[0], &Tracer::new(), None, 0, false);
    Setup {
        pops,
        digest,
        engine,
    }
}

/// One request: key and parse every text, then run the batch. With
/// `count` the allocator counts during `run_jobs` only.
fn batch(
    engine: &Engine,
    pop: &Population,
    tracer: &Tracer,
    root: Option<SpanId>,
    req: u64,
    count: bool,
) -> BatchReport {
    let texts = pop.texts.iter().map(|(n, t)| (n.as_str(), t.as_str()));
    let jobs = keyed_jobs(engine, texts, tracer, root, req);
    alloc::arm(count);
    let rep = tracer.time("server.run_jobs", root, req, || engine.run_jobs(jobs));
    alloc::arm(false);
    rep
}

/// Output checks: every re-run of a population must reproduce its first
/// records modulo `wall_ms`; the first records are re-verified at the end.
#[derive(Default)]
struct Checks {
    first: BTreeMap<usize, (u64, Vec<NetOutcome>)>,
    errors: Vec<String>,
}

impl Checks {
    fn batch(&mut self, idx: usize, pop: &Population, outcomes: Vec<NetOutcome>) {
        let mut d = Digest::default();
        for (o, (name, _)) in outcomes.iter().zip(&pop.texts) {
            if &o.name != name {
                self.errors
                    .push(format!("record {} answers net {name}", o.name));
            }
            match normalized(&o.to_json(), &TIMING) {
                Some(n) => d.feed(n.as_bytes()),
                None => self.errors.push(format!("unreadable record for {name}")),
            }
        }
        if outcomes.len() != pop.texts.len() {
            self.errors.push(format!(
                "population {idx}: {} records for {} nets",
                outcomes.len(),
                pop.texts.len()
            ));
        }
        match self.first.get(&idx) {
            Some((first, _)) if *first != d.value() => self.errors.push(format!(
                "population {idx}: records differ from its first run"
            )),
            Some(_) => {}
            None => {
                self.first.insert(idx, (d.value(), outcomes));
            }
        }
    }

    /// Re-verifies every first-run record; returns the result digest.
    fn finish(&mut self, pops: &[Population]) -> u64 {
        let cfg = cli_pipeline_config();
        let mut ws = DpWorkspace::new();
        let mut digest = Digest::default();
        for (idx, (d, outcomes)) in &self.first {
            digest.feed(&d.to_le_bytes());
            for (o, (name, text)) in outcomes.iter().zip(&pops[*idx].texts) {
                let Ok(net) = parse(text) else { continue };
                let input = NetInput::Parsed {
                    name: name.clone(),
                    tree: net.tree,
                    scenario: net.scenario,
                };
                if let Reverify::Mismatch(why) = reverify_outcome(&mut ws, &input, &cfg, o) {
                    self.errors.push(format!("{name}: {why}"));
                }
            }
        }
        digest.value()
    }
}

/// Runs batches for `seconds` (and at least one per population). With a
/// tracer, each batch runs twice, untraced and then traced, so the two
/// measurements see the same inputs; the traced ones also count
/// allocations and feed `recs`.
fn timed(
    s: &Setup,
    seconds: f64,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
    recs: &mut RecordStats,
) -> [Measured; 2] {
    let off = Tracer::new();
    let mut m: [Measured; 2] = Default::default();
    let start = Instant::now();
    for k in 0.. {
        if k >= POPULATIONS && secs(start) >= seconds {
            break;
        }
        let idx = k % POPULATIONS;
        let req = k as u64;
        let passes: &[(usize, &Tracer)] = match tracer {
            None => &[(0, &off)],
            Some(t) => &[(0, &off), (1, t)],
        };
        for &(i, tracer) in passes {
            let traced = i == 1;
            tracer.set_enabled(traced);
            let root = tracer.begin("bench.request", None, req);
            let t0 = Instant::now();
            let rep = batch(&s.engine, &s.pops[idx], tracer, root, req, traced);
            let dt = secs(t0);
            tracer.end(root);
            tracer.set_enabled(false);
            let m = &mut m[i];
            m.miss_ms.push(dt * 1e3);
            m.busy_s += dt;
            m.requests += 1;
            m.nets += rep.outcomes.len() as u64;
            for o in &rep.outcomes {
                m.tally.record(o.outcome);
                if let Some(b) = o.buffers {
                    m.buffers += b as u64;
                    m.buffered_nets += 1;
                }
                if traced {
                    recs.add(o);
                }
            }
            checks.batch(idx, &s.pops[idx], rep.outcomes);
        }
    }
    m
}

/// Replays the pipeline's rung 1–2 path on every net of the run.
fn probe(s: &Setup, tracer: &Tracer) {
    let cfg = cli_pipeline_config();
    let mut ws = DpWorkspace::new();
    let mut req = PROBE_REQUESTS;
    for pop in &s.pops {
        for (_, text) in &pop.texts {
            req += 1;
            if let Ok(net) = parse(text) {
                probe_net(tracer, &mut ws, &cfg, &net.tree, &net.scenario, req);
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut recs = RecordStats::default();
    let mut layers: BTreeMap<&'static str, LayerValue> = BTreeMap::new();
    let (measured, s) = if !args.trace {
        let mut setup_s = Vec::new();
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup(args.seed));
            setup_s.push(secs(t));
        }
        let s = last.expect("at least one set-up");
        let steal = StealMeter::start();
        let [mut m, _] = timed(&s, args.seconds, None, &mut checks, &mut recs);
        m.setup_s = setup_s;
        m.steal_share = steal.share();
        m.peak_rss_mb = peak_rss_mb("self")?;
        (m, s)
    } else {
        let s = setup(args.seed);
        let tracer = Tracer::new();
        let steal = StealMeter::start();
        let (a0, b0) = alloc::reading();
        let [untraced, mut traced] = timed(&s, args.seconds, Some(&tracer), &mut checks, &mut recs);
        let (a1, b1) = alloc::reading();
        traced.tally.merge(&untraced.tally);
        traced.steal_share = steal.share();
        let t = Instant::now();
        tracer.set_enabled(true);
        probe(&s, &tracer);
        let probe_s = secs(t);
        tracer.set_enabled(false);
        let spans = tracer.spans();
        let nets = traced.nets.max(1) as f64;
        for (metric, span) in [
            ("netlist.parse_us", "netlist.parse"),
            ("server.key_us", "server.key_for"),
            ("tree.segment_us", "tree.segment_wires"),
            ("core.p3_us", "core.min_buffers_with"),
            ("core.p2_us", "core.optimize_with"),
            ("core.audit_us", "core.audit"),
        ] {
            if let Some(v) = span_p50(&spans, span) {
                layers.insert(metric, v);
            }
        }
        // Worker time the engine spends outside the pipeline per net: the
        // queue hop, reassembly and reply (and any idle worker time).
        let engine_s: f64 = durations_us(&spans, "server.run_jobs").iter().sum::<f64>() / 1e6;
        let pipeline_s: f64 = recs.net_us.iter().sum::<f64>() / 1e6;
        layers.insert(
            "server.dispatch_us",
            (
                (engine_s * JOBS as f64 - pipeline_s) / nets * 1e6,
                format!("({JOBS} x run_jobs - record wall) per net"),
            ),
        );
        layers.insert(
            "core.allocs_per_net",
            ((a1 - a0) as f64 / nets, "per net, during run_jobs".into()),
        );
        layers.insert(
            "core.alloc_bytes_per_net",
            ((b1 - b0) as f64 / nets, "per net, during run_jobs".into()),
        );
        for (metric, why) in [
            ("server.cache_hit_ratio", "cache off"),
            ("server.cache_evictions", "cache off"),
            ("server.shed", "batch mode does not shed"),
            ("memo.hit_ratio", "memo off"),
            ("memo.seeded_merges", "memo off"),
            ("memo.bytes", "memo off"),
        ] {
            layers.insert(metric, (0.0, why.into()));
        }
        recs.layer_metrics(&mut layers);
        self_shares(&spans, traced.busy_s + probe_s, &mut layers);
        overhead(&untraced, &traced, &mut layers);
        write_spans(args, &spans)?;
        (traced, s)
    };
    report_fallthrough(&s, &checks);
    let result_digest = checks.finish(&s.pops);
    Ok(Outcome {
        measured,
        layers,
        input_digest: s.digest,
        result_digest,
        errors: checks.errors,
    })
}

/// Prints the Problem 3 → Problem 2 share per population.
fn report_fallthrough(s: &Setup, checks: &Checks) {
    for (idx, (_, outcomes)) in &checks.first {
        let fell = outcomes.iter().filter(|o| !o.attempts.is_empty()).count();
        println!(
            "[table1_batch] population {idx} ({}): {fell} of {} nets fall from Problem 3 to Problem 2",
            if s.pops[*idx].tight { "tight RAT" } else { "default RAT" },
            outcomes.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(input_digest(3), input_digest(3));
        assert_ne!(input_digest(3), input_digest(4));
    }
}
