//! `perfbench` — the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload table1_batch|scaling_dp|eco_batch --seed N
//!           --seconds S --trace 0|1 [--cli PATH] [--out-dir DIR]
//! ```
//!
//! Prints a human-readable report, then one JSON line: with `--trace 0`
//! every end-to-end metric, with `--trace 1` every per-layer metric.
//! Exits 1 when any output check fails and 2 on a usage or set-up error.
//! See `README.md` in this directory for the workloads and metrics.

mod alloc;
mod common;
mod eco;
mod record;
mod scaling;
mod stats;
mod table1;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Measured, Outcome, LAYER_METRICS};
use stats::summarize;

/// End-to-end metrics, in report order, with their units.
pub const E2E_METRICS: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("nets_per_s", "nets/s"),
    ("req_per_s", "req/s"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("buffers_per_net", "buffers"),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// The `buffopt-cli` binary the traced `eco_batch` run serves from.
    pub cli: Option<PathBuf>,
    /// Where span files go.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        cli: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--cli" => args.cli = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The timing figures of one measurement: nets/s, requests/s, and the
/// p50 and tail of hits and of misses, with a note for each.
fn timing(m: &Measured) -> [(f64, String); 6] {
    // With the cache off no request can hit; every request takes the
    // compute path, so the hit figures are those of all requests.
    let hits = if m.hit_ms.is_empty() {
        &m.miss_ms
    } else {
        &m.hit_ms
    };
    let latency = |samples: &[f64]| match summarize(samples) {
        None => [(0.0, "no samples".into()), (0.0, "no samples".into())],
        Some(s) => [
            (s.p50, format!("p50 of {} requests", s.samples)),
            (s.tail, format!("p{} of {} requests", s.tail_pct, s.samples)),
        ],
    };
    let [hit50, hit99] = latency(hits);
    let [miss50, miss99] = latency(&m.miss_ms);
    let over = format!("{:.3} s", m.busy_s);
    [
        (
            m.nets as f64 / m.busy_s,
            format!("{} nets in {over}", m.nets),
        ),
        (
            m.requests as f64 / m.busy_s,
            format!("{} requests in {over}", m.requests),
        ),
        hit50,
        hit99,
        miss50,
        miss99,
    ]
}

/// Turns the raw measurements into the end-to-end metrics, with the
/// sample count and a note for the report. A run measured in groups
/// reports the median over its groups of each group's figure.
fn end_to_end(m: &Measured) -> Vec<(&'static str, f64, String)> {
    let whole = timing(m);
    let figures = if m.groups.is_empty() {
        whole
    } else {
        let each: Vec<[(f64, String); 6]> = m.groups.iter().map(timing).collect();
        std::array::from_fn(|i| {
            let values: Vec<f64> = each.iter().map(|g| g[i].0).collect();
            let note = format!(
                "median of {} groups, first {}; whole run {:.4}",
                each.len(),
                each[0][i].1,
                whole[i].0
            );
            (stats::median(&values), note)
        })
    };
    let [nets, reqs, hit50, hit99, miss50, miss99] = figures;
    vec![
        (
            "setup_s",
            stats::median(&m.setup_s),
            format!("median of {} set-ups", m.setup_s.len()),
        ),
        ("nets_per_s", nets.0, nets.1),
        ("req_per_s", reqs.0, reqs.1),
        ("hit_p50_ms", hit50.0, hit50.1),
        ("hit_p99_ms", hit99.0, hit99.1),
        ("miss_p50_ms", miss50.0, miss50.1),
        ("miss_p99_ms", miss99.0, miss99.1),
        (
            "peak_rss_mb",
            m.peak_rss_mb,
            "VmHWM of the working process".into(),
        ),
        (
            "buffers_per_net",
            m.buffers as f64 / m.buffered_nets.max(1) as f64,
            format!("over {} records", m.buffered_nets),
        ),
    ]
}

fn json_metrics(rows: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            assert!(stats::valid_metric_name(name), "metric name {name:?}");
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn report(args: &Args, out: &Outcome) -> String {
    let t = &out.measured.tally;
    println!(
        "[{}] seed {}: attempted {}, served {}, shed {}, socket errors {}, parse errors {}, \
         failed {}, failed_ratio {:.6}; steal {:.1}% of CPU time while timed",
        args.workload,
        args.seed,
        t.attempted,
        t.served,
        t.shed,
        t.socket_errors,
        t.parse_errors,
        t.failed,
        t.failed_ratio(),
        out.measured.steal_share * 100.0
    );
    println!(
        "[{}] input_digest {:016x}, result_digest {:016x}",
        args.workload, out.input_digest, out.result_digest
    );
    let rows: Vec<(&str, f64, &str)> = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let (value, note) = out
                    .layers
                    .get(name)
                    .cloned()
                    .unwrap_or((0.0, "not measured on this workload".to_string()));
                println!("  {name:<28} {value:>16.4} {unit:<6} {note}");
                (name, value, unit)
            })
            .collect()
    } else {
        let e2e = end_to_end(&out.measured);
        E2E_METRICS
            .iter()
            .zip(&e2e)
            .map(|(&(name, unit), (n, value, note))| {
                assert_eq!(name, *n, "end-to-end metric order");
                println!("  {name:<28} {value:>16.4} {unit:<8} {note}");
                (name, *value, unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.errors.is_empty(),
        t.attempted.max(1),
        t.attempted.saturating_sub(t.served),
        json_metrics(&rows)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "table1_batch" => table1::run(&args),
        "scaling_dp" => scaling::run(&args),
        "eco_batch" => eco::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (table1_batch, scaling_dp, eco_batch)"
        )),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for e in out.errors.iter().take(20) {
        eprintln!("perfbench: output check failed: {e}");
    }
    let line = report(&args, &out);
    println!("{line}");
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the benchmark prints is declared, by name, in the
    /// repository's `BENCHMARK.json`, and every name is well formed.
    #[test]
    fn metric_names_are_declared_and_well_formed() {
        let declared = include_str!("../../BENCHMARK.json");
        let names = E2E_METRICS.iter().chain(LAYER_METRICS.iter());
        for (name, unit) in names {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(
                declared.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) is not declared in BENCHMARK.json"
            );
        }
    }
}
