//! Bench for the `gtl-runtime` serving path: pipelined TCP request
//! throughput with the response cache cold (disabled) versus warm
//! (enabled and pre-filled).
//!
//! A plain `harness = false` main (`cargo bench -p gtl-bench --bench
//! serve_throughput`): it writes a machine-readable
//! `serve_throughput.json` summary (mode, wall seconds, req/s, cache
//! counters) into `results/` via the `gtl_bench::report` machinery, and
//! enforces the service determinism contract where it matters:
//!
//! * every response in every burst is byte-identical to an in-process
//!   `SessionDispatcher::handle_line` round trip, for both cache modes;
//! * the checked-in golden round-trip (`tests/golden/`) replays
//!   byte-identically through the new runtime path.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

use gtl_api::{FindRequest, Request, RuntimeConfig, ServeReport, Session, SessionDispatcher};
use gtl_bench::report::{write_json, Json};
use gtl_synth::planted::{self, PlantedConfig};
use gtl_tangled::FinderConfig;

fn testbed_session() -> Session {
    let g = planted::generate(&PlantedConfig {
        num_cells: 2_000,
        blocks: vec![120, 200],
        seed: 23,
        ..PlantedConfig::default()
    });
    Session::builder().netlist(g.netlist).build().expect("session")
}

fn request_line() -> String {
    serde::json::to_string(&Request::Find(FindRequest::new(FinderConfig {
        num_seeds: 12,
        min_size: 40,
        max_order_len: 400,
        rng_seed: 29,
        threads: 1,
        ..FinderConfig::default()
    })))
}

/// Drops the v5 trace stamp (`,"trace":"…"`) so wire bytes can be
/// compared against the in-process oracle, which is never stamped (and,
/// across a burst, each response carries a distinct sequence number).
fn strip_trace(line: &str) -> String {
    let Some(start) = line.find(",\"trace\":\"") else { return line.to_string() };
    let rest = &line[start + 10..];
    let end = rest.find('"').expect("unterminated trace stamp");
    format!("{}{}", &line[..start], &rest[end + 1..])
}

/// One pipelined burst of `n` identical requests against a fresh
/// single-connection server; returns the wall time of the burst and the
/// server's final report. Every response is asserted byte-identical to
/// the in-process oracle (modulo its trace stamp).
fn run_burst(
    session: &Session,
    line: &str,
    expected: &str,
    cache_bytes: usize,
    warmup: bool,
    n: usize,
) -> (f64, ServeReport) {
    let listener = gtl_api::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let dispatcher = SessionDispatcher::new(session, 0, 0, None);
    let config = RuntimeConfig {
        lanes: 2,
        pipeline_depth: 16,
        cache_bytes,
        max_connections: Some(1),
        ..RuntimeConfig::default()
    };
    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| gtl_api::serve(&dispatcher, &listener, &config, None).expect("serve"));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut response = String::new();
        if warmup {
            // Fill the cache (and the connection's buffer pool) outside
            // the timed section.
            writeln!(conn, "{line}").expect("write warmup");
            reader.read_line(&mut response).expect("read warmup");
            assert_eq!(strip_trace(response.trim_end()), expected, "warmup response diverged");
        }
        let start = Instant::now();
        for _ in 0..n {
            writeln!(conn, "{line}").expect("write");
        }
        conn.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let mut served = 0usize;
        loop {
            response.clear();
            if reader.read_line(&mut response).expect("read") == 0 {
                break;
            }
            assert_eq!(strip_trace(response.trim_end()), expected, "response {served} diverged");
            served += 1;
        }
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(served, n, "lost responses");
        (wall, server.join().expect("server thread"))
    })
}

/// Replays the checked-in golden request against a live runtime-backed
/// server and requires the response bytes to equal the golden file —
/// the same check CI runs against the `gtl serve` binary.
fn golden_round_trip() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden = root.join("tests/golden");
    let netlist = gtl_netlist::hgr::read(golden.join("two_cliques.hgr").to_str().expect("path"))
        .expect("golden netlist");
    let request =
        std::fs::read_to_string(golden.join("serve_find_request.json")).expect("golden request");
    let expected =
        std::fs::read_to_string(golden.join("serve_find_response.json")).expect("golden response");
    let session = Session::builder().netlist(netlist).build().expect("session");
    let (_, report) =
        run_burst(&session, request.trim_end(), expected.trim_end(), 1 << 20, false, 1);
    assert_eq!(report.connections, 1);
    println!("golden round-trip byte-identical through gtl-runtime");
}

fn main() {
    golden_round_trip();

    let session = testbed_session();
    let line = request_line();
    let expected = SessionDispatcher::new(&session, 0, 0, None).handle_line(&line);

    // One timed pass per mode for the JSON summary. Cold = cache
    // disabled: every request recomputes. Warm = cache enabled and
    // pre-filled: requests after the first are hits, byte-identical to
    // the cold computes. The warm burst is far larger than the cold one —
    // warm requests are bounded by memcpy, and 64 of them complete in a
    // fraction of a millisecond, below timer noise; thousands keep the
    // wall time measurable so the committed baseline carries signal.
    let mut rows = Vec::new();
    for (mode, cache_bytes, warmup, n) in
        [("cold", 0usize, false, 64usize), ("warm", 16 << 20, true, 4096)]
    {
        let (wall, report) = run_burst(&session, &line, &expected, cache_bytes, warmup, n);
        let m = &report.metrics;
        if mode == "warm" {
            assert_eq!(m.cache_hits, n as u64, "warm burst should be all hits");
        }
        // Per-request-kind latency percentiles from the server's own
        // histograms (v5 observability) — the burst is all Find
        // requests, so exactly one "find" series must be populated.
        let find = m.kind_latency.iter().find(|s| s.label == "find").expect("find latency series");
        assert!(find.count >= n as u64, "find latency undercounted: {} < {n}", find.count);
        let latency = Json::arr(m.kind_latency.iter().map(|s| {
            Json::obj([
                ("kind", Json::str(&s.label)),
                ("count", Json::num(s.count as f64)),
                ("p50_us", Json::num(s.p50_us as f64)),
                ("p95_us", Json::num(s.p95_us as f64)),
                ("p99_us", Json::num(s.p99_us as f64)),
                ("max_us", Json::num(s.max_us as f64)),
            ])
        }));
        rows.push(Json::obj([
            ("mode", Json::str(mode)),
            ("cache_bytes", Json::num(cache_bytes as f64)),
            ("requests", Json::num(n as f64)),
            ("wall_seconds", Json::num(wall)),
            ("req_per_s", Json::num(n as f64 / wall)),
            ("cache_hits", Json::num(m.cache_hits as f64)),
            ("cache_misses", Json::num(m.cache_misses as f64)),
            ("latency", latency),
        ]));
    }
    let doc = Json::obj([
        ("bench", Json::str("serve_throughput")),
        ("num_cells", Json::num(2_000.0)),
        ("pipeline_depth", Json::num(16.0)),
        ("lanes", Json::num(2.0)),
        ("runs", Json::arr(rows)),
    ]);
    let path = gtl_bench::results_dir().join("serve_throughput.json");
    write_json(&path, &doc).expect("write serve_throughput.json");
    println!("wrote {}", path.display());
}
