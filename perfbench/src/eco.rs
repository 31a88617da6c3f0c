//! `eco_batch`: an ECO-shaped request stream served in fixed batches of
//! 500 through an in-process `Engine` on two workers, with the solution
//! cache and the subtree memo on.
//!
//! The stream is seeded: exact repeats of nets the previous batch asked
//! for (cache hits), `perturbed_family` variants of multi-sink bases
//! (cache misses the memo can seed), and fresh Table I nets. The pool of
//! distinct nets is more than twice the cache capacity, so inserts and
//! evictions run beside lookups. Batching keeps both workers busy, so a
//! request waits on no thread wake-up of its own.
//!
//! The traced run also sends the stream to a `buffopt-cli serve` child
//! over TCP, to attribute the cost of the reactor and `netpoll` front
//! end on cache hits.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use buffopt::{DpWorkspace, MemoTable};
use buffopt_netlist::parse;
use buffopt_pipeline::{optimize_net, reverify_outcome, NetInput, NetOutcome, Reverify};
use buffopt_server::{CacheStatus, Engine, EngineOptions, MetricsSnapshot};
use buffopt_workload::{
    estimation_scenario, generate, perturbed_family, PerturbationConfig, SinkDistribution,
    WorkloadConfig,
};

use crate::alloc;
use crate::common::{
    cli_pipeline_config, keyed_jobs, net_text, overhead, peak_rss_mb, probe_net, secs, self_shares,
    span_p50, write_spans, LayerValue, Measured, Outcome, RecordStats, StealMeter, PROBE_REQUESTS,
};
use crate::record::{field, normalized, num_field, str_field, SERVED_VOLATILE};
use crate::stats::{median, Digest, Rng};
use crate::trace::{durations_us, SpanId, Tracer};
use crate::Args;

/// Fresh Table I nets in the pool.
const FRESH: usize = 1200;
/// Multi-sink bases, each with `VARIANTS` perturbed variants.
const BASES: usize = 240;
const VARIANTS: usize = 4;
/// Distinct nets in the pool.
const POOL: usize = FRESH + BASES * (VARIANTS + 1);
/// Requests per batch.
const BATCH: usize = 500;
/// Batches in the stream; the timed phase wraps around past the end.
const BATCHES: usize = 600;
/// Stream shares: repeats of the previous batch, then variants; the rest
/// are fresh nets.
const REPEAT_SHARE: f64 = 0.5;
const VARIANT_SHARE: f64 = 0.3;
/// Warm-up batches: the pool pass, which requests every net once in a
/// seeded order, then four ECO batches, so the cache and the memo are in
/// their steady state when the timed phase starts.
const WARM_BATCHES: usize = POOL.div_ceil(BATCH) + 4;
/// Worker threads, solution-cache records and memo budget of the engine.
const JOBS: usize = 2;
const CACHE: usize = 1024;
const MEMO_MB: usize = 64;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Hits and misses a group of consecutive batches needs before it closes
/// (see `Measured::groups`): enough for a p99 of each.
const GROUP_SAMPLES: usize = 1000;
/// Length of the traced run's in-process replay and of its TCP probe.
const PROBE_SECONDS: f64 = 2.0;

/// A distinct net: its name (also the request id) and `.net` text.
struct PoolNet {
    name: String,
    text: String,
}

struct Inputs {
    pool: Vec<PoolNet>,
    /// Pool indices, `BATCHES * BATCH` of them.
    stream: Vec<u32>,
    digest: u64,
}

impl Inputs {
    /// The pool indices of batch `b`.
    fn batch(&self, b: usize) -> &[u32] {
        &self.stream[b * BATCH..(b + 1) * BATCH]
    }
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 0xec0);
    let mut pool = Vec::with_capacity(POOL);
    let fresh_cfg = WorkloadConfig {
        seed: rng.next_u64(),
        net_count: FRESH,
        ..WorkloadConfig::default()
    };
    for n in generate(&fresh_cfg) {
        let name = format!("f{}", n.id);
        let text = net_text(&name, &n.tree, &estimation_scenario(&n.tree, &fresh_cfg));
        pool.push(PoolNet { name, text });
    }
    let base_cfg = WorkloadConfig {
        seed: rng.next_u64(),
        net_count: BASES,
        distribution: SinkDistribution {
            buckets: vec![(2, 4, 120), (5, 10, 80), (11, 18, 40)],
        },
        ..WorkloadConfig::default()
    };
    for base in generate(&base_cfg) {
        let family = perturbed_family(
            &base.tree,
            &PerturbationConfig {
                seed: rng.next_u64(),
                variants: VARIANTS,
                ..PerturbationConfig::default()
            },
        );
        for (v, tree) in std::iter::once(&base.tree).chain(&family).enumerate() {
            let name = format!("b{}v{v}", base.id);
            let text = net_text(&name, tree, &estimation_scenario(tree, &base_cfg));
            pool.push(PoolNet { name, text });
        }
    }
    let mut stream: Vec<u32> = (0..POOL as u32).collect();
    for i in (1..POOL).rev() {
        stream.swap(i, rng.below(i + 1));
    }
    let family_len = VARIANTS + 1;
    let mut next_member = vec![0usize; BASES];
    let mut next_fresh = 0usize;
    while stream.len() < BATCHES * BATCH {
        let u = rng.unit();
        let idx = if u < REPEAT_SHARE {
            let previous = (stream.len() / BATCH - 1) * BATCH;
            stream[previous + rng.below(BATCH)]
        } else if u < REPEAT_SHARE + VARIANT_SHARE {
            let b = rng.below(BASES);
            let member = next_member[b] % family_len;
            next_member[b] += 1;
            (FRESH + b * family_len + member) as u32
        } else {
            next_fresh += 1;
            ((next_fresh - 1) % FRESH) as u32
        };
        stream.push(idx);
    }
    let mut d = Digest::default();
    for p in &pool {
        d.feed(p.text.as_bytes());
    }
    for s in &stream {
        d.feed(&s.to_le_bytes());
    }
    Inputs {
        pool,
        stream,
        digest: d.value(),
    }
}

/// Digest of the inputs and request stream a seed generates.
#[cfg(test)]
pub fn input_digest(seed: u64) -> u64 {
    inputs(seed).digest
}

/// One batch as served: the records in stream order, whether each was a
/// cache hit, and when each became final.
struct BatchRun {
    outcomes: Vec<NetOutcome>,
    hit: Vec<bool>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    wall_s: f64,
}

/// Serves batch `b`: key and parse every text, then run the jobs. A
/// request's latency runs from the start of the batch until its record
/// is final, as a batch client sees it. With `count` the allocator
/// counts during `run_jobs` only.
fn batch(
    engine: &Engine,
    inp: &Inputs,
    b: usize,
    tracer: &Tracer,
    root: Option<SpanId>,
    count: bool,
) -> BatchRun {
    let req = b as u64;
    let hits_before = engine.metrics_snapshot().cache.hits;
    let mut done: Vec<(usize, Instant)> = Vec::with_capacity(BATCH);
    let t0 = Instant::now();
    let texts = inp.batch(b).iter().map(|&i| {
        let net = &inp.pool[i as usize];
        (net.name.as_str(), net.text.as_str())
    });
    let jobs = keyed_jobs(engine, texts, tracer, root, req);
    alloc::arm(count);
    let rep = tracer.time("server.run_jobs", root, req, || {
        engine.run_jobs_with(jobs, |idx, _| done.push((idx, Instant::now())))
    });
    alloc::arm(false);
    let wall_s = secs(t0);
    // `run_jobs` answers every hit inline while it submits, before any
    // miss completes, so the first `hits` records to become final are
    // the hits.
    let hits = (engine.metrics_snapshot().cache.hits - hits_before) as usize;
    let mut hit = vec![false; BATCH];
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for (k, (idx, t)) in done.iter().enumerate() {
        let ms = (*t - t0).as_secs_f64() * 1e3;
        if k < hits {
            hit[*idx] = true;
            hit_ms.push(ms);
        } else {
            miss_ms.push(ms);
        }
    }
    BatchRun {
        outcomes: rep.outcomes,
        hit,
        hit_ms,
        miss_ms,
        wall_s,
    }
}

struct Setup {
    inp: Inputs,
    engine: Engine,
    /// The warm-up's records, in stream order.
    warm: Vec<NetOutcome>,
}

fn setup(seed: u64) -> Setup {
    let inp = inputs(seed);
    let mut cfg = cli_pipeline_config();
    cfg.memo = Some(Arc::new(MemoTable::new(MEMO_MB << 20, 8)));
    let engine = Engine::new(
        cfg,
        EngineOptions {
            jobs: JOBS,
            cache_capacity: CACHE,
            ..EngineOptions::default()
        },
    );
    let off = Tracer::new();
    let warm = (0..WARM_BATCHES)
        .flat_map(|b| batch(&engine, &inp, b, &off, None, false).outcomes)
        .collect();
    Setup { inp, engine, warm }
}

/// Every record and response, checked against the in-process pipeline:
/// the distinct normalized answers per pool net are kept while the run
/// goes, and compared with one oracle record per net at the end.
#[derive(Default)]
struct Checks {
    seen: BTreeMap<u32, BTreeSet<String>>,
    errors: Vec<String>,
}

impl Checks {
    /// Records one answer (a record or a served response line) for pool
    /// net `idx`; returns its normalized form.
    fn answer(&mut self, inp: &Inputs, idx: u32, line: &str) -> String {
        let name = &inp.pool[idx as usize].name;
        if str_field(line, "net") != Some(name.as_str()) {
            self.errors.push(format!("{name}: answered by {line}"));
        }
        let Some(norm) = normalized(line, &SERVED_VOLATILE) else {
            self.errors
                .push(format!("{name}: unreadable answer {line}"));
            return String::new();
        };
        let seen = self.seen.entry(idx).or_default();
        if !seen.contains(&norm) {
            seen.insert(norm.clone());
        }
        norm
    }

    /// Compares every answer with the pipeline's record for its net and
    /// re-verifies that record.
    fn finish(&mut self, inp: &Inputs) {
        let cfg = cli_pipeline_config();
        let mut ws = DpWorkspace::new();
        for (&idx, answers) in &self.seen {
            let net = &inp.pool[idx as usize];
            let Ok(parsed) = parse(&net.text) else {
                self.errors
                    .push(format!("{}: generated text does not parse", net.name));
                continue;
            };
            let rec = optimize_net(&net.name, &parsed.tree, &parsed.scenario, &cfg);
            let input = NetInput::Parsed {
                name: net.name.clone(),
                tree: parsed.tree,
                scenario: parsed.scenario,
            };
            if let Reverify::Mismatch(why) = reverify_outcome(&mut ws, &input, &cfg, &rec) {
                self.errors.push(format!("{}: {why}", net.name));
            }
            let want = normalized(&rec.to_json(), &SERVED_VOLATILE).unwrap_or_default();
            for got in answers {
                if *got != want {
                    self.errors.push(format!(
                        "{}: served {got} but the pipeline gives {want}",
                        net.name
                    ));
                }
            }
        }
    }
}

/// Whether a group holds enough hits and misses for a p99 of each.
fn full(g: &Measured) -> bool {
    g.hit_ms.len() >= GROUP_SAMPLES && g.miss_ms.len() >= GROUP_SAMPLES
}

/// Adds a batch's timings to `m`.
fn add_timing(m: &mut Measured, run: &BatchRun) {
    m.hit_ms.extend(&run.hit_ms);
    m.miss_ms.extend(&run.miss_ms);
    m.busy_s += run.wall_s;
    m.requests += BATCH as u64;
    m.nets += BATCH as u64;
}

/// Folds one batch into `m`, its open group and the checks; traced
/// batches also feed `recs` with their computed records.
fn account(
    inp: &Inputs,
    b: usize,
    run: BatchRun,
    m: &mut Measured,
    checks: &mut Checks,
    recs: Option<&mut RecordStats>,
) {
    if m.groups.last().is_none_or(full) {
        m.groups.push(Measured::default());
    }
    add_timing(m.groups.last_mut().expect("an open group"), &run);
    add_timing(m, &run);
    for (o, &idx) in run.outcomes.iter().zip(inp.batch(b)) {
        m.tally.record(o.outcome);
        if let Some(n) = o.buffers {
            m.buffers += n as u64;
            m.buffered_nets += 1;
        }
        checks.answer(inp, idx, &o.to_json());
    }
    if let Some(recs) = recs {
        for (o, hit) in run.outcomes.iter().zip(&run.hit) {
            if !hit {
                recs.add(o);
            }
        }
    }
}

/// Runs batches for `seconds` (and at least two), continuing the stream
/// after the warm-up. With a tracer, batches alternate untraced and
/// traced, so both see the same mix of traffic and engine state.
fn timed(
    s: &Setup,
    seconds: f64,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
    recs: &mut RecordStats,
) -> ([Measured; 2], usize) {
    let off = Tracer::new();
    let mut m: [Measured; 2] = Default::default();
    let start = Instant::now();
    let mut b = WARM_BATCHES;
    for k in 0.. {
        if k >= 2 && secs(start) >= seconds {
            break;
        }
        let traced = tracer.is_some() && k % 2 == 1;
        let t = if traced { tracer.unwrap_or(&off) } else { &off };
        t.set_enabled(traced);
        let root = t.begin("bench.request", None, b as u64);
        let run = batch(&s.engine, &s.inp, b, t, root, traced);
        t.end(root);
        t.set_enabled(false);
        let recs = traced.then_some(&mut *recs);
        account(&s.inp, b, run, &mut m[usize::from(traced)], checks, recs);
        b = if b + 1 == BATCHES {
            WARM_BATCHES
        } else {
            b + 1
        };
    }
    for m in &mut m {
        // The last group, still short of samples, stays in the run's
        // totals but not in the medians.
        if m.groups.last().is_some_and(|g| !full(g)) {
            m.groups.pop();
        }
    }
    (m, b)
}

/// Engine counters over the timed phase.
fn engine_layers(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    layers: &mut BTreeMap<&'static str, LayerValue>,
) {
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    layers.insert(
        "server.cache_hit_ratio",
        (
            hits as f64 / (hits + misses).max(1) as f64,
            format!("{hits} hits, {misses} misses"),
        ),
    );
    layers.insert(
        "server.cache_evictions",
        (
            (after.cache.evictions - before.cache.evictions) as f64,
            "timed phase".into(),
        ),
    );
    let mh = after.memo.hits - before.memo.hits;
    let mm = after.memo.misses - before.memo.misses;
    layers.insert(
        "memo.hit_ratio",
        (
            mh as f64 / (mh + mm).max(1) as f64,
            format!("{mh} hits, {mm} misses"),
        ),
    );
    layers.insert(
        "memo.seeded_merges",
        (
            (after.memo.seeded - before.memo.seeded) as f64,
            "timed phase".into(),
        ),
    );
    layers.insert(
        "memo.bytes",
        (after.memo.bytes as f64, "held at the end".into()),
    );
}

/// The traced run's in-process replay: the stream from batch `from` on,
/// one request at a time through `Engine::try_optimize`, with spans
/// around the parse, the key and the engine call. Returns its wall time.
fn replay(
    s: &Setup,
    from: usize,
    tracer: &Tracer,
    layers: &mut BTreeMap<&'static str, LayerValue>,
) -> f64 {
    let (mut hit_us, mut dispatch_us) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let positions = (from * BATCH..BATCHES * BATCH).chain(WARM_BATCHES * BATCH..from * BATCH);
    for (k, pos) in positions.enumerate() {
        if secs(start) >= PROBE_SECONDS {
            break;
        }
        let net = &s.inp.pool[s.inp.stream[pos] as usize];
        let req = PROBE_REQUESTS + k as u64;
        let root = tracer.begin("bench.probe", None, req);
        let texts = std::iter::once((net.name.as_str(), net.text.as_str()));
        let job = keyed_jobs(&s.engine, texts, tracer, root, req).remove(0);
        let t0 = Instant::now();
        let served = tracer.time("server.try_optimize", root, req, || {
            s.engine.try_optimize(job)
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tracer.end(root);
        match served {
            Ok(sv) if sv.cache == CacheStatus::Hit => hit_us.push(us),
            Ok(sv) => dispatch_us.push(us - sv.outcome.wall.as_secs_f64() * 1e6),
            Err(_) => {}
        }
    }
    layers.insert(
        "server.engine_hit_us",
        (
            median(&hit_us),
            format!("p50 of {} in-process try_optimize hits", hit_us.len()),
        ),
    );
    layers.insert(
        "server.dispatch_us",
        (
            median(&dispatch_us),
            format!(
                "p50 of try_optimize - record wall over {} misses",
                dispatch_us.len()
            ),
        ),
    );
    secs(start)
}

/// How long a TCP request may wait for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// A `buffopt-cli serve` child with the engine's cache and memo
/// settings; killed and reaped if dropped before a clean shutdown.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(cli: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(cli);
        cmd.args(["serve", "--shards", "1", "--jobs"])
            .arg(JOBS.to_string())
            .arg("--cache")
            .arg(CACHE.to_string())
            .arg("--memo-budget-mb")
            .arg(MEMO_MB.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call, prctl(2), declared
        // above with its C variadic signature.
        unsafe {
            cmd.pre_exec(|| {
                // The kernel kills the server if the benchmark dies first.
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        match line.trim().strip_prefix("listening on ").map(str::parse) {
            Some(Ok(a)) => {
                server.addr = a;
                Ok(server)
            }
            _ => Err(format!("server did not announce its address: {line:?}")),
        }
    }

    /// One command on a fresh connection; returns the response line.
    fn command(&self, cmd: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));
        stream
            .write_all(format!("{{\"cmd\":\"{cmd}\"}}\n").as_bytes())
            .map_err(|e| format!("send {cmd}: {e}"))?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| format!("read {cmd}: {e}"))?;
        Ok(line)
    }

    fn shutdown(mut self) -> Result<(), String> {
        let ack = self.command("shutdown")?;
        if ack.trim() != "{\"ok\":\"shutdown\"}" {
            return Err(format!("unexpected shutdown ack {ack:?}"));
        }
        match self.child.take().expect("live child").wait() {
            Ok(s) if s.success() => Ok(()),
            other => Err(format!("server exited badly: {other:?}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The traced run's TCP probe: one connection sends the stream from its
/// start, one request in flight, for the pool pass and `PROBE_SECONDS`
/// after it. Every response is checked. Returns the hit latencies (µs),
/// the requests shed, and the probe's wall time.
fn tcp_probe(
    cli: &Path,
    inp: &Inputs,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<(Vec<f64>, f64, f64), String> {
    let server = Server::spawn(cli)?;
    let stream = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut hit_us = Vec::new();
    let start = Instant::now();
    let mut timed_from = None;
    for (pos, &idx) in inp.stream.iter().enumerate() {
        if pos == WARM_BATCHES * BATCH {
            timed_from = Some(Instant::now());
        }
        if timed_from.is_some_and(|t| secs(t) >= PROBE_SECONDS) {
            break;
        }
        let net = &inp.pool[idx as usize];
        let line = format!(
            "{{\"id\":\"{}\",\"net\":\"{}\"}}\n",
            net.name,
            escape(&net.text)
        );
        let req = PROBE_REQUESTS + (1 << 24) + pos as u64;
        let mut response = String::new();
        let t0 = Instant::now();
        let ok = tracer.time("server.roundtrip", None, req, || {
            writer.write_all(line.as_bytes()).is_ok()
                && matches!(reader.read_line(&mut response), Ok(n) if n > 0)
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if !ok {
            return Err(format!("lost the connection at request {pos}"));
        }
        if str_field(&response, "error").is_some() {
            continue;
        }
        if timed_from.is_some() && str_field(&response, "cache") == Some("hit") {
            hit_us.push(us);
        }
        checks.answer(inp, idx, response.trim_end());
    }
    let wall = secs(start);
    let stats = server.command("stats")?;
    let shed = field(&stats, "admission")
        .and_then(|a| num_field(a, "overloaded"))
        .ok_or_else(|| format!("stats lacks admission.overloaded: {stats}"))?;
    server.shutdown()?;
    Ok((hit_us, shed, wall))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let mut recs = RecordStats::default();
    let mut layers: BTreeMap<&'static str, LayerValue> = BTreeMap::new();
    let measured;
    let s;
    if !args.trace {
        let mut setup_s = Vec::new();
        let mut last = None;
        for _ in 0..SETUPS {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup(args.seed));
            setup_s.push(secs(t));
        }
        s = last.expect("at least one set-up");
        let steal = StealMeter::start();
        let ([mut m, _], _) = timed(&s, args.seconds, None, &mut checks, &mut recs);
        m.setup_s = setup_s;
        m.steal_share = steal.share();
        m.peak_rss_mb = peak_rss_mb("self")?;
        measured = m;
    } else {
        let cli = args
            .cli
            .clone()
            .ok_or("a traced eco_batch run needs --cli PATH to the buffopt-cli binary")?;
        s = setup(args.seed);
        let tracer = Tracer::new();
        let steal = StealMeter::start();
        let before = s.engine.metrics_snapshot();
        let (a0, b0) = alloc::reading();
        let ([untraced, mut traced], next) =
            timed(&s, args.seconds, Some(&tracer), &mut checks, &mut recs);
        let (a1, b1) = alloc::reading();
        engine_layers(&before, &s.engine.metrics_snapshot(), &mut layers);
        traced.tally.merge(&untraced.tally);
        traced.steal_share = steal.share();
        let requests = traced.requests.max(1) as f64;
        layers.insert(
            "core.allocs_per_net",
            (
                (a1 - a0) as f64 / requests,
                "per request, during run_jobs".into(),
            ),
        );
        layers.insert(
            "core.alloc_bytes_per_net",
            (
                (b1 - b0) as f64 / requests,
                "per request, during run_jobs".into(),
            ),
        );
        tracer.set_enabled(true);
        let replay_s = replay(&s, next, &tracer, &mut layers);
        let t = Instant::now();
        let cfg = cli_pipeline_config();
        let mut ws = DpWorkspace::new();
        for (i, net) in s.inp.pool.iter().enumerate() {
            if let Ok(p) = parse(&net.text) {
                let req = PROBE_REQUESTS + (1 << 20) + i as u64;
                probe_net(&tracer, &mut ws, &cfg, &p.tree, &p.scenario, req);
            }
        }
        let probe_s = secs(t);
        let (tcp_hit_us, shed, tcp_s) = tcp_probe(&cli, &s.inp, &tracer, &mut checks)?;
        tracer.set_enabled(false);
        let spans = tracer.spans();
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
        // What a TCP hit costs beyond the in-process layers: the reactor,
        // netpoll, the responder hand-off, the encode and the client's
        // socket calls.
        let in_process = ["netlist.parse", "server.key_for"]
            .iter()
            .map(|n| median(&durations_us(&spans, n)))
            .sum::<f64>()
            + layers.get("server.engine_hit_us").map_or(0.0, |v| v.0);
        let tcp_hit = median(&tcp_hit_us);
        layers.insert(
            "server.frontend_hit_us",
            (
                tcp_hit - in_process,
                format!(
                    "TCP hit p50 {tcp_hit:.1} us over {} hits - parse - key - engine hit",
                    tcp_hit_us.len()
                ),
            ),
        );
        layers.insert(
            "server.shed",
            (shed, "overloaded answers of the serve child".into()),
        );
        recs.layer_metrics(&mut layers);
        self_shares(
            &spans,
            traced.busy_s + replay_s + probe_s + tcp_s,
            &mut layers,
        );
        overhead(&untraced, &traced, &mut layers);
        write_spans(args, &spans)?;
        measured = traced;
    }
    let mut digest = Digest::default();
    for (o, &idx) in s.warm.iter().zip(&s.inp.stream) {
        digest.feed(checks.answer(&s.inp, idx, &o.to_json()).as_bytes());
    }
    checks.finish(&s.inp);
    println!(
        "[eco_batch] {} distinct nets checked against the in-process pipeline; {} hits, {} misses timed",
        checks.seen.len(),
        measured.hit_ms.len(),
        measured.miss_ms.len()
    );
    Ok(Outcome {
        measured,
        layers,
        input_digest: s.inp.digest,
        result_digest: digest.value(),
        errors: checks.errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(input_digest(3), input_digest(3));
        assert_ne!(input_digest(3), input_digest(4));
    }

    #[test]
    fn the_pool_outgrows_the_cache() {
        let inp = inputs(1);
        assert_eq!(inp.pool.len(), POOL);
        assert!(POOL > 2 * CACHE);
        let distinct: BTreeSet<_> = inp.stream[..POOL].iter().collect();
        assert_eq!(distinct.len(), POOL, "the pool pass requests every net");
    }
}
