//! Reactor front-end hardening: slow-loris starvation, half-written
//! oversized lines, the max-conns ceiling, multi-shard routing and
//! stats aggregation, request deadlines fired by the shard, and every
//! protocol path's bytes checked against an independent oracle.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use buffopt_buffers::catalog;
use buffopt_integrity::{decode_frame, encode_frame};
use buffopt_netlist::{parse, write as write_net, ParsedNet};
use buffopt_pipeline::fault::{FaultAction, FaultPlan, Seam};
use buffopt_pipeline::{optimize_input, NetInput, PipelineConfig};
use buffopt_server::{serve_sharded, serve_with, Engine, EngineOptions, NetDecoder, ServeOptions};
use buffopt_workload::{adversarial, WorkloadConfig};

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        max_tree_nodes: Some(70),
        time_limit: Some(Duration::from_secs(60)),
        ..PipelineConfig::new(catalog::ibm_like())
    }
}

fn decoder() -> NetDecoder {
    Arc::new(|name: &str, body: &str| match parse(body) {
        Ok(net) => NetInput::Parsed {
            name: name.to_string(),
            tree: net.tree,
            scenario: net.scenario,
        },
        Err(e) => NetInput::Failed {
            name: name.to_string(),
            error: e.to_string(),
        },
    })
}

fn healthy_net_text() -> String {
    let (tree, scenario) = adversarial::valid_net(&WorkloadConfig::default());
    let node_names = (0..tree.len()).map(|_| None).collect();
    write_net(&ParsedNet {
        name: None,
        tree,
        scenario,
        node_names,
    })
}

fn optimize_request(id: &str, net_text: &str) -> String {
    let escaped = net_text
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("{{\"id\":\"{id}\",\"net\":\"{escaped}\"}}")
}

fn healthy_net_request(id: &str) -> String {
    optimize_request(id, &healthy_net_text())
}

fn new_engine(jobs: usize) -> Arc<Engine> {
    engine_with(EngineOptions {
        jobs,
        ..EngineOptions::default()
    })
}

fn engine_with(opts: EngineOptions) -> Arc<Engine> {
    // A live Engine hushes the process-wide panic hook (so a panicking
    // net in a parallel batch doesn't spray backtraces); reinstall a
    // printing hook afterwards or assertion failures in these tests
    // vanish silently.
    let engine = Arc::new(Engine::new(
        pipeline_config(),
        EngineOptions {
            // Deep enough that the burst tests here exercise the
            // reactor, not the engine's admission shedding (which has
            // its own chaos coverage).
            queue_depth: 32,
            ..opts
        },
    ));
    std::panic::set_hook(Box::new(|info| eprintln!("test panic: {info}")));
    engine
}

fn start_reactor(
    engines: Vec<Arc<Engine>>,
    opts: ServeOptions,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        serve_sharded(listener, engines, decoder(), opts).expect("serve runs");
    });
    (addr, handle)
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

fn roundtrip(conn: &mut (BufReader<TcpStream>, TcpStream), request: &str) -> String {
    conn.1
        .write_all(format!("{request}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    conn.0.read_line(&mut line).expect("response");
    line.trim_end().to_string()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn slow_loris_cannot_evade_the_read_timeout_or_pin_the_shard() {
    let engine = new_engine(1);
    let (addr, server) = start_reactor(
        vec![Arc::clone(&engine)],
        ServeOptions {
            read_timeout: Some(Duration::from_millis(300)),
            ..ServeOptions::default()
        },
    );

    // The loris trickles one byte at a time, always "active" but never
    // completing a line. The deadline arms when the connection starts
    // waiting and is NOT refreshed by partial bytes, so the trickle
    // cannot push it out.
    let loris = TcpStream::connect(addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let started = Instant::now();
    let writer = {
        let mut w = loris.try_clone().expect("clone");
        std::thread::spawn(move || {
            for _ in 0..100 {
                if w.write_all(b"x").is_err() {
                    return; // server already cut us off
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    };

    // Meanwhile the same single shard keeps serving a healthy client:
    // the loris holds no thread, only a connection slot.
    let mut healthy = connect(addr);
    let served = roundtrip(&mut healthy, &healthy_net_request("alive"));
    assert!(
        served.contains("\"outcome\":\"optimized\""),
        "healthy client starved by the loris: {served}"
    );

    let mut line = String::new();
    BufReader::new(loris.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("loris gets a response");
    assert!(
        line.contains("read timed out; closing connection"),
        "loris got: {line}"
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "timeout fired on schedule, not after the trickle ended: {elapsed:?}"
    );
    writer.join().expect("writer thread");
    wait_for("the timeout to be counted", || {
        engine.metrics_snapshot().conn_errors >= 1
    });

    // The healthy connection has been idle past the timeout too by now;
    // shut down from a fresh one.
    let mut admin = connect(addr);
    let ack = roundtrip(&mut admin, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

#[test]
fn half_written_oversized_line_gets_the_typed_error_not_a_hang() {
    let engine = new_engine(1);
    let (addr, server) = start_reactor(
        vec![engine],
        ServeOptions {
            max_line_bytes: 128,
            ..ServeOptions::default()
        },
    );

    // 500 bytes, no terminating newline: the cap must trip on the bytes
    // alone — a client that never finishes its line cannot park an
    // unbounded buffer or wait out the server.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    conn.write_all(&[b'y'; 500]).expect("send");
    let mut line = String::new();
    BufReader::new(conn.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("typed error");
    assert!(
        line.contains("request line exceeds 128 bytes; closing connection"),
        "got: {line}"
    );
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "connection closed after the error");

    let mut admin = connect(addr);
    let ack = roundtrip(&mut admin, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

#[test]
fn max_conns_ceiling_refuses_with_a_typed_line_and_recovers() {
    let engine = new_engine(1);
    let (addr, server) = start_reactor(
        vec![Arc::clone(&engine)],
        ServeOptions {
            max_conns: 2,
            ..ServeOptions::default()
        },
    );

    let mut first = connect(addr);
    let mut second = connect(addr);
    // Prove both slots are held (and force the accepts to happen).
    assert!(roundtrip(&mut first, &healthy_net_request("one")).contains("optimized"));
    assert!(roundtrip(&mut second, &healthy_net_request("two")).contains("optimized"));

    // The third accept is refused with the typed overload line, then EOF.
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut line = String::new();
    BufReader::new(refused.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("refusal line");
    assert_eq!(
        line.trim_end(),
        "{\"error\":\"overloaded\",\"detail\":\"max_conns\"}"
    );
    let mut rest = Vec::new();
    refused.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty());

    // The refusal is counted and visible from a held connection.
    let stats = roundtrip(&mut first, "{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"rejected_max_conns\":1"), "got: {stats}");

    // Releasing a slot re-opens admission.
    drop(second);
    let mut third = loop {
        let mut c = connect(addr);
        let r = roundtrip(&mut c, "{\"cmd\":\"stats\"}");
        if r.contains("\"rejected_max_conns\":") && !r.starts_with("{\"error\":\"overloaded\"") {
            break c;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    let ack = roundtrip(&mut third, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

/// The first number after `key` in `json`.
fn number_after(json: &str, key: &str) -> u64 {
    let at = json
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing: {json}"))
        + key.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a number")
}

/// Checks that a `stats` response's per-shard rows sum to its fleet
/// totals (requests, cache hits, cache misses).
fn assert_shard_rows_sum_to_totals(stats: &str) {
    let (fleet, rows) = stats
        .split_once("\"shards\":[")
        .expect("per-shard breakdown");
    let fleet_cache = &fleet[fleet.find("\"cache\":{").expect("cache section")..];
    for (total, row_key) in [
        (number_after(fleet, "\"requests\":"), "\"requests\":"),
        (number_after(fleet_cache, "\"hits\":"), "\"cache_hits\":"),
        (
            number_after(fleet_cache, "\"misses\":"),
            "\"cache_misses\":",
        ),
    ] {
        let summed: u64 = rows
            .split("{\"shard\":")
            .skip(1)
            .map(|row| number_after(row, row_key))
            .sum();
        assert_eq!(
            summed, total,
            "shard {row_key} rows do not sum to the total: {stats}"
        );
    }
}

#[test]
fn sharded_serving_routes_consistently_and_aggregates_stats() {
    let engines: Vec<_> = (0..3).map(|_| new_engine(1)).collect();
    let (addr, server) = start_reactor(engines.clone(), ServeOptions::default());

    // A stats poller runs beside the clients: every snapshot taken while
    // requests are in flight must still have shard rows that sum to the
    // fleet totals.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = connect(addr);
            let mut polls = 0;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) || polls == 0 {
                assert_shard_rows_sum_to_totals(&roundtrip(&mut conn, "{\"cmd\":\"stats\"}"));
                polls += 1;
            }
            polls
        })
    };

    // Distinct nets from parallel clients: every response must carry its
    // own id, wherever it was routed.
    const CLIENTS: usize = 6;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                let first = roundtrip(&mut conn, &healthy_net_request(&format!("net{c}")));
                // A repeat of the same net must route to the same engine
                // and hit its cache.
                let again = roundtrip(&mut conn, &healthy_net_request(&format!("net{c}")));
                (first, again)
            })
        })
        .collect();
    let mut total_hits = 0;
    for (c, h) in handles.into_iter().enumerate() {
        let (first, again) = h.join().expect("client");
        assert!(
            first.contains(&format!("\"net\":\"net{c}\""))
                && first.contains("\"outcome\":\"optimized\""),
            "client {c}: {first}"
        );
        assert!(
            again.contains("\"cache\":\"hit\""),
            "repeat of net{c} missed its engine's cache: {again}"
        );
        total_hits += 1;
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    assert!(poller.join().expect("stats poller") > 0);

    // The aggregated snapshot sums the engines and carries a per-shard
    // breakdown with one entry per shard.
    let mut conn = connect(addr);
    let stats = roundtrip(&mut conn, "{\"cmd\":\"stats\"}");
    let engine_requests: u64 = engines.iter().map(|e| e.metrics_snapshot().requests).sum();
    assert!(
        stats.contains(&format!("\"requests\":{engine_requests}")),
        "aggregate requests: {stats}"
    );
    assert!(
        stats.contains(&format!("\"hits\":{total_hits}")),
        "aggregate cache hits: {stats}"
    );
    for shard in 0..3 {
        assert!(
            stats.contains(&format!("{{\"shard\":{shard},")),
            "missing shard {shard} breakdown: {stats}"
        );
    }
    assert_shard_rows_sum_to_totals(&stats);

    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
    // Shutdown closed admission on every engine, not just the routed one.
    for engine in &engines {
        assert!(engine.is_shutting_down());
    }
}

/// Blanks the measured `wall_ms`, the one field that varies between two
/// computations of the same record.
fn normalize(line: &str) -> String {
    let key = "\"wall_ms\":";
    let mut out = line.to_string();
    if let Some(start) = out.find(key) {
        let vstart = start + key.len();
        let vend = out[vstart..]
            .find([',', '}'])
            .map(|i| vstart + i)
            .unwrap_or(out.len());
        out.replace_range(vstart..vend, "_");
    }
    out
}

/// The independent expectation for an optimize response: the pipeline's
/// own record for the decoded net, computed in this process, with the
/// serving provenance spliced in.
fn oracle(id: &str, net_text: &str, cache: &str, worker: usize) -> String {
    let mut json = optimize_input(&decoder()(id, net_text), &pipeline_config()).to_json();
    json.pop();
    normalize(&format!(
        "{json},\"cache\":\"{cache}\",\"worker\":{worker}}}"
    ))
}

#[test]
fn every_protocol_path_matches_an_independent_oracle() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let engine = new_engine(1);
    let opts = ServeOptions {
        frame_check: true,
        max_line_bytes: 4096,
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || {
        serve_with(listener, engine, decoder(), opts).expect("serve runs");
    });
    let net = healthy_net_text();
    let broken = "tree{\n";

    let mut conn = connect(addr);
    // One request per protocol path: healthy net (then its cache hit),
    // unparsable net, malformed JSON, missing net field, unknown cmd,
    // framed round-trip, oversize, shutdown ack. With one worker every
    // record is computed by worker 0.
    let script: Vec<(String, String)> = vec![
        (
            optimize_request("same", &net),
            oracle("same", &net, "miss", 0),
        ),
        (
            optimize_request("same", &net),
            oracle("same", &net, "hit", 0),
        ),
        (
            optimize_request("broken", broken),
            oracle("broken", broken, "miss", 0),
        ),
        (
            "not json at all".to_string(),
            "{\"error\":\"bad request: expected '{', got Some('n')\"}".to_string(),
        ),
        (
            "{\"cmd\":\"optimize\",\"id\":\"x\"}".to_string(),
            "{\"error\":\"optimize request needs a \\\"net\\\" field\"}".to_string(),
        ),
        (
            "{\"cmd\":\"bogus\"}".to_string(),
            "{\"error\":\"unknown cmd \\\"bogus\\\"\"}".to_string(),
        ),
    ];
    for (i, (request, want)) in script.iter().enumerate() {
        assert_eq!(
            &normalize(&roundtrip(&mut conn, request)),
            want,
            "response {i} to {request:.60}"
        );
    }

    // A framed healthy request must come back framed, same payload.
    let framed = encode_frame(optimize_request("framed", &net).as_bytes());
    conn.1.write_all(&framed).expect("send frame");
    conn.1.write_all(b"\n").expect("send newline");
    let mut line = Vec::new();
    conn.0
        .read_until(b'\n', &mut line)
        .expect("framed response");
    let payload = decode_frame(line.strip_suffix(b"\n").unwrap_or(&line))
        .expect("well-formed response frame");
    assert_eq!(
        normalize(std::str::from_utf8(payload).expect("utf8 payload")),
        oracle("framed", &net, "miss", 0)
    );

    let oversize = format!("{{\"id\":\"big\",\"net\":\"{}\"}}", "z".repeat(8192));
    let mut over = connect(addr);
    assert_eq!(
        roundtrip(&mut over, &oversize),
        "{\"error\":\"request line exceeds 4096 bytes; closing connection\"}"
    );

    assert_eq!(
        roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}"),
        "{\"ok\":\"shutdown\"}"
    );
    server.join().expect("serve exits");
}

#[test]
fn request_deadline_fires_in_the_shard_and_the_connection_keeps_serving() {
    let engine = engine_with(EngineOptions {
        jobs: 1,
        request_deadline: Some(Duration::from_millis(80)),
        // Stall inside the per-net boundary: the expiry trips the token,
        // so the run aborts right after the sleep.
        fault_plan: Some(Arc::new(FaultPlan::new().on_nth(
            Seam::Optimize,
            1,
            FaultAction::StallMs(600),
        ))),
        ..EngineOptions::default()
    });
    let (addr, server) = start_reactor(vec![Arc::clone(&engine)], ServeOptions::default());

    let mut conn = connect(addr);
    let started = Instant::now();
    let expired = roundtrip(&mut conn, &healthy_net_request("too-slow"));
    assert_eq!(expired, "{\"error\":\"deadline_exceeded\"}");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "answered at the deadline, not after the stall: {:?}",
        started.elapsed()
    );
    let snap = engine.metrics_snapshot();
    assert_eq!(
        snap.cancellations,
        [1, 0, 0, 0],
        "cancelled.deadline counted"
    );
    assert_eq!(snap.rejections[1], 1, "deadline_exceeded counted");
    assert_eq!(
        snap.respawns, 1,
        "a surplus worker backfilled the stalled slot"
    );

    // The stalled worker aborts after its sleep and retires against the
    // surplus credit: back to one worker.
    wait_for("the stalled worker to retire", || {
        engine.live_workers() == 1
    });
    let next = roundtrip(&mut conn, &healthy_net_request("next"));
    assert!(
        next.contains("\"net\":\"next\"") && next.contains("\"outcome\":\"optimized\""),
        "the same connection is served after the expiry: {next}"
    );

    let ack = roundtrip(&mut conn, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}

#[test]
fn pipelined_requests_before_disconnect_are_still_served_in_order() {
    let engine = new_engine(1);
    let (addr, server) = start_reactor(vec![Arc::clone(&engine)], ServeOptions::default());

    // Write three requests back-to-back, then close the write half. The
    // reactor must collect the pipelined tail on RDHUP and serve all
    // three responses to the still-open read half, in order.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = stream.try_clone().expect("clone");
    let mut batch = String::new();
    for i in 0..3 {
        batch.push_str(&healthy_net_request(&format!("pipe{i}")));
        batch.push('\n');
    }
    w.write_all(batch.as_bytes()).expect("send");
    w.shutdown(std::net::Shutdown::Write).expect("half-close");

    let mut reader = BufReader::new(stream);
    for i in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        assert!(
            line.contains(&format!("\"net\":\"pipe{i}\"")),
            "response {i} out of order or dropped: {line}"
        );
    }
    let mut line = String::new();
    // After the pipelined tail the server closes its side too.
    match reader.read_line(&mut line) {
        Ok(0) => {}
        Ok(_) => panic!("unexpected extra response: {line}"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::TimedOut),
            "unexpected error {e}"
        ),
    }

    let mut admin = connect(addr);
    let ack = roundtrip(&mut admin, "{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    server.join().expect("serve exits");
}
