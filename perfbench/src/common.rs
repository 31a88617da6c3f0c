//! What every workload measures and returns, and the helpers they share.

use std::collections::BTreeMap;
use std::time::Instant;

use buffopt::buffopt::{self as algo3, BuffOptOptions};
use buffopt::{audit, DpWorkspace};
use buffopt_netlist::{parse, write, ParsedNet};
use buffopt_noise::NoiseScenario;
use buffopt_pipeline::{NetInput, NetOutcome, Outcome as RecordOutcome, PipelineConfig};
use buffopt_server::{Engine, Job};
use buffopt_tree::RoutingTree;

use crate::stats::{median, summarize};
use crate::trace::{self_times, Span, SpanId, Tracer};

/// Per-layer metrics, in report order, with their units.
pub const LAYER_METRICS: [(&str, &str); 32] = [
    ("netlist.parse_us", "us"),
    ("server.key_us", "us"),
    ("server.engine_hit_us", "us"),
    ("server.frontend_hit_us", "us"),
    ("server.dispatch_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_evictions", "count"),
    ("server.shed", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.seeded_merges", "count"),
    ("memo.bytes", "bytes"),
    ("pipeline.net_p50_us", "us"),
    ("pipeline.net_p99_us", "us"),
    ("pipeline.fallthrough_ratio", "ratio"),
    ("tree.segment_us", "us"),
    ("core.p3_us", "us"),
    ("core.p2_us", "us"),
    ("core.audit_us", "us"),
    ("core.merge_enumerated", "count"),
    ("core.merge_pruned", "count"),
    ("core.enumerated_ratio", "ratio"),
    ("core.peak_candidates", "count"),
    ("core.arena_peak_bytes", "bytes"),
    ("core.allocs_per_net", "count"),
    ("core.alloc_bytes_per_net", "bytes"),
    ("netlist.self_share", "ratio"),
    ("server.self_share", "ratio"),
    ("pipeline.self_share", "ratio"),
    ("tree.self_share", "ratio"),
    ("core.self_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 5] = ["netlist", "server", "pipeline", "tree", "core"];

/// Request accounting of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests (or nets) the benchmark sent.
    pub attempted: u64,
    /// Requests answered with a record.
    pub served: u64,
    /// Requests refused with `overloaded`.
    pub shed: u64,
    /// Requests lost to a socket error or an unreadable response.
    pub socket_errors: u64,
    /// Records whose net failed to parse.
    pub parse_errors: u64,
    /// Records with outcome `failed`, and any other error response.
    pub failed: u64,
}

impl Tally {
    /// Everything not served, over everything attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.attempted.saturating_sub(self.served) as f64 / self.attempted.max(1) as f64
    }

    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.served += other.served;
        self.shed += other.shed;
        self.socket_errors += other.socket_errors;
        self.parse_errors += other.parse_errors;
        self.failed += other.failed;
    }

    /// Counts one record: served unless its net failed to parse or to run.
    pub fn record(&mut self, outcome: RecordOutcome) {
        self.attempted += 1;
        match outcome {
            RecordOutcome::ParseError => self.parse_errors += 1,
            RecordOutcome::Failed => self.failed += 1,
            _ => self.served += 1,
        }
    }
}

/// Raw end-to-end measurements of one run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each request answered from the cache, in ms.
    pub hit_ms: Vec<f64>,
    /// Latency of each request that was computed, in ms.
    pub miss_ms: Vec<f64>,
    /// Requests completed in the timed phase.
    pub requests: u64,
    /// Nets completed in the timed phase.
    pub nets: u64,
    /// Time the timed phase spent waiting on the program, in seconds.
    pub busy_s: f64,
    /// `VmHWM` of the working process, in MB.
    pub peak_rss_mb: f64,
    /// Buffers over the records that carry a count.
    pub buffers: u64,
    /// Records that carry a buffer count.
    pub buffered_nets: u64,
    /// Request accounting.
    pub tally: Tally,
    /// Share of the machine's CPU time the hypervisor took (steal) during
    /// the timed phase; high values mark a run disturbed from outside.
    pub steal_share: f64,
    /// Consecutive groups of requests, each with enough samples for its
    /// own p99, when the workload keeps them: the timing figures are
    /// then medians over the groups, so a few seconds in which the host
    /// takes the CPUs away move one group, not the run's figures.
    pub groups: Vec<Measured>,
}

impl Measured {
    /// Mean request latency in ms (for the tracing overhead).
    pub fn mean_request_ms(&self) -> f64 {
        self.busy_s * 1e3 / self.requests.max(1) as f64
    }
}

/// A per-layer figure with the note the report prints beside it.
pub type LayerValue = (f64, String);

/// Everything a workload hands back to `main`.
pub struct Outcome {
    /// End-to-end measurements (untraced phase).
    pub measured: Measured,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<&'static str, LayerValue>,
    /// Digest over the run's generated inputs.
    pub input_digest: u64,
    /// Digest over the run's records, modulo the volatile fields.
    pub result_digest: u64,
    /// Every failed output check.
    pub errors: Vec<String>,
}

/// The pipeline configuration of `buffopt-cli` with default flags.
pub fn cli_pipeline_config() -> PipelineConfig {
    PipelineConfig::new(buffopt_buffers::catalog::ibm_like())
}

/// A net as `.net` text, named `name`.
pub fn net_text(name: &str, tree: &RoutingTree, scenario: &NoiseScenario) -> String {
    write(&ParsedNet {
        name: Some(name.to_string()),
        node_names: vec![None; tree.len()],
        tree: tree.clone(),
        scenario: scenario.clone(),
    })
}

/// The engine jobs for `(name, .net text)` pairs, as `buffopt-cli
/// --batch` builds them: every text keyed, then parsed, one span each.
pub fn keyed_jobs<'a>(
    engine: &Engine,
    texts: impl Iterator<Item = (&'a str, &'a str)>,
    tracer: &Tracer,
    root: Option<SpanId>,
    req: u64,
) -> Vec<Job> {
    texts
        .map(|(name, text)| {
            let key = tracer.time("server.key_for", root, req, || engine.key_for(name, text));
            let input = match tracer.time("netlist.parse", root, req, || parse(text)) {
                Ok(net) => NetInput::Parsed {
                    name: net.name.unwrap_or_else(|| name.to_string()),
                    tree: net.tree,
                    scenario: net.scenario,
                },
                Err(e) => NetInput::Failed {
                    name: name.to_string(),
                    error: e.to_string(),
                },
            };
            Job {
                input,
                cache_key: Some(key),
            }
        })
        .collect()
}

/// `VmHWM` of process `pid` (`"self"` for this one), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Reads the machine's steal time from `/proc/stat` at construction, so
/// a run can report how much CPU time the hypervisor took meanwhile.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    fn read() -> Option<(u64, u64)> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let cpu: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        // user nice system idle iowait irq softirq steal …
        Some((*cpu.get(7)?, cpu.iter().take(8).sum()))
    }

    /// Starts measuring.
    pub fn start() -> Self {
        StealMeter(Self::read())
    }

    /// Steal over all CPU time since `start` (0 where `/proc/stat` lacks it).
    pub fn share(&self) -> f64 {
        match (self.0, Self::read()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per-record statistics the pipeline already returns, gathered over the
/// records of a run.
#[derive(Debug, Default)]
pub struct RecordStats {
    /// Per-net pipeline time, µs.
    pub net_us: Vec<f64>,
    /// Records with at least one failed rung.
    pub fallthrough: u64,
    /// Records seen.
    pub records: u64,
    /// Merge rows enumerated.
    pub merge_enumerated: u64,
    /// Merge pairs skipped.
    pub merge_pruned: u64,
    /// Largest candidate list.
    pub peak_candidates: u64,
    /// Largest provenance arena, bytes.
    pub arena_peak: u64,
}

impl RecordStats {
    /// Folds one record in.
    pub fn add(&mut self, o: &NetOutcome) {
        self.net_us.push(o.wall.as_secs_f64() * 1e6);
        self.records += 1;
        self.fallthrough += u64::from(!o.attempts.is_empty());
        self.merge_enumerated += o.merge_enumerated as u64;
        self.merge_pruned += o.merge_pruned as u64;
        self.peak_candidates = self.peak_candidates.max(o.candidate_peak as u64);
        self.arena_peak = self.arena_peak.max(o.arena_peak as u64);
    }

    /// The `pipeline.*` and record-derived `core.*` metrics.
    pub fn layer_metrics(&self, out: &mut BTreeMap<&'static str, LayerValue>) {
        let n = self.records.max(1) as f64;
        let note = format!("over {} records", self.records);
        if let Some(s) = summarize(&self.net_us) {
            out.insert("pipeline.net_p50_us", (s.p50, note.clone()));
            out.insert(
                "pipeline.net_p99_us",
                (s.tail, format!("p{} of {} records", s.tail_pct, s.samples)),
            );
        }
        out.insert(
            "pipeline.fallthrough_ratio",
            (self.fallthrough as f64 / n, note.clone()),
        );
        out.insert(
            "core.merge_enumerated",
            (self.merge_enumerated as f64 / n, format!("per net, {note}")),
        );
        out.insert(
            "core.merge_pruned",
            (self.merge_pruned as f64 / n, format!("per net, {note}")),
        );
        let raw = (self.merge_enumerated + self.merge_pruned).max(1) as f64;
        out.insert(
            "core.enumerated_ratio",
            (
                self.merge_enumerated as f64 / raw,
                "enumerated / (enumerated + pruned)".into(),
            ),
        );
        out.insert(
            "core.peak_candidates",
            (self.peak_candidates as f64, format!("max {note}")),
        );
        out.insert(
            "core.arena_peak_bytes",
            (self.arena_peak as f64, format!("max {note}")),
        );
    }
}

/// Request ids of probe spans start here, clear of the timed phases'.
pub const PROBE_REQUESTS: u64 = 1 << 32;

/// Replays the pipeline's rung 1–2 path on one net as separate layer
/// calls, one span each: segment, Problem 3, Problem 2 when Problem 3
/// misses timing, and the noise and delay audit of the result.
pub fn probe_net(
    tracer: &Tracer,
    ws: &mut DpWorkspace,
    cfg: &PipelineConfig,
    tree: &RoutingTree,
    scenario: &NoiseScenario,
    req: u64,
) {
    let opts = BuffOptOptions::default();
    let root = tracer.begin("bench.probe", None, req);
    let seg = tracer.time("tree.segment_wires", root, req, || {
        buffopt_tree::segment::segment_wires(tree, cfg.max_segment.unwrap_or(500.0))
    });
    if let Ok(seg) = seg {
        let scen = scenario.for_segmented(&seg);
        let p3 = tracer.time("core.min_buffers_with", root, req, || {
            algo3::min_buffers_with(ws, &seg.tree, &scen, &cfg.library, &opts)
        });
        let sol = match p3 {
            Ok(sol) if sol.slack >= 0.0 => Some(sol),
            _ => tracer
                .time("core.optimize_with", root, req, || {
                    algo3::optimize_with(ws, &seg.tree, &scen, &cfg.library, &opts)
                })
                .ok(),
        };
        if let Some(sol) = sol {
            tracer.time("core.audit", root, req, || {
                let a = ws.analysis();
                let noise =
                    audit::noise_summary_with(a, &seg.tree, &scen, &cfg.library, &sol.assignment);
                let delay = audit::delay_summary_with(a, &seg.tree, &cfg.library, &sol.assignment);
                std::hint::black_box((noise.is_ok(), delay.is_ok()))
            });
        }
    }
    tracer.end(root);
}

/// Median span duration of `name`, µs, as a layer metric.
pub fn span_p50(spans: &[Span], name: &str) -> Option<LayerValue> {
    let d = crate::trace::durations_us(spans, name);
    (!d.is_empty()).then(|| (median(&d), format!("p50 of {} {name} spans", d.len())))
}

/// Self-time shares per layer and the unattributed remainder, over
/// `thread_s` seconds of benchmark-thread time in the traced phases.
pub fn self_shares(spans: &[Span], thread_s: f64, out: &mut BTreeMap<&'static str, LayerValue>) {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(&selfs) {
        *by_layer.entry(s.layer()).or_default() += *ns as f64 / 1e9;
    }
    let mut attributed = 0.0;
    for (layer, name) in LAYERS.iter().zip([
        "netlist.self_share",
        "server.self_share",
        "pipeline.self_share",
        "tree.self_share",
        "core.self_share",
    ]) {
        let s = by_layer.get(layer).copied().unwrap_or(0.0);
        attributed += s;
        out.insert(name, (s / thread_s, format!("{:.1} ms self time", s * 1e3)));
    }
    out.insert(
        "trace.unattributed_share",
        (
            (thread_s - attributed).max(0.0) / thread_s,
            format!("of {:.1} ms traced thread time", thread_s * 1e3),
        ),
    );
}

/// The tracing overhead: traced minus untraced mean request latency.
pub fn overhead(
    untraced: &Measured,
    traced: &Measured,
    out: &mut BTreeMap<&'static str, LayerValue>,
) {
    let (u, t) = (untraced.mean_request_ms(), traced.mean_request_ms());
    out.insert(
        "trace.overhead_pct",
        (
            (t / u - 1.0) * 100.0,
            format!("mean request {t:.4} ms traced vs {u:.4} ms untraced"),
        ),
    );
}

/// Writes the traced run's spans beside the build.
pub fn write_spans(args: &crate::Args, spans: &[Span]) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    crate::trace::write_jsonl(spans, &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "[{}] {} spans written to {}",
        args.workload,
        spans.len(),
        path.display()
    );
    Ok(())
}
