//! The runtime-serving acceptance contract: pipelined, cached, multi-
//! client serving is **wire-indistinguishable** from a serial server.
//!
//! * The stress test runs 8 concurrent pipelined connections with mixed
//!   Find/Place/Stats requests against a small-cache (eviction-heavy)
//!   runtime and asserts every response line byte-identical to a
//!   single-threaded serial replay through
//!   [`SessionDispatcher::handle_line`].
//! * The property test drives random request sequences through random
//!   cache budgets — warm hits, cold misses and arbitrary eviction
//!   orders — and asserts the same.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use gtl_api::{
    FindRequest, PlaceRequest, Request, RuntimeConfig, Session, SessionDispatcher, StatsRequest,
};
use gtl_netlist::NetlistBuilder;
use gtl_tangled::FinderConfig;
use proptest::prelude::*;

/// Two planted cliques in a sparse ring — enough structure for non-
/// trivial Find/Place responses, small enough for fast placement.
fn session() -> Session {
    let mut b = NetlistBuilder::new();
    let n = 60;
    let cells: Vec<_> = (0..n).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
    for (base, size) in [(0, 8), (30, 10)] {
        for i in 0..size {
            for j in (i + 1)..size {
                b.add_anonymous_net([cells[base + i], cells[base + j]]);
            }
        }
    }
    for i in 0..n {
        b.add_anonymous_net([cells[i], cells[(i + 1) % n]]);
    }
    Session::builder().netlist(b.finish()).build().unwrap()
}

/// A pool of distinct request lines: finds with different seeds/threads,
/// a placement, stats, a version error and a malformed line — every
/// response deterministic, so serial replay is the oracle.
/// Removes the per-request `,"trace":"…"` stamp (v5+) from a wire line
/// so bytes can be compared against the unstamped in-process oracle.
fn strip_trace(line: &str) -> String {
    let Some(start) = line.find(",\"trace\":\"") else { return line.to_string() };
    let rest = &line[start + 10..];
    let end = rest.find('\"').unwrap();
    format!("{}{}", &line[..start], &rest[end + 1..])
}

fn request_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for (rng, threads) in [(1u64, 1usize), (7, 2), (42, 8)] {
        pool.push(serde::json::to_string(&Request::Find(FindRequest::new(FinderConfig {
            num_seeds: 8,
            min_size: 4,
            max_order_len: 20,
            rng_seed: rng,
            threads,
            ..FinderConfig::default()
        }))));
    }
    let mut place = PlaceRequest::new();
    place.routing.tiles = 8;
    pool.push(serde::json::to_string(&Request::Place(place)));
    pool.push(serde::json::to_string(&Request::Stats(StatsRequest::new())));
    pool.push("{\"Find\":{\"v\":99,\"config\":{}}}".to_string());
    pool.push("definitely not json".to_string());
    pool
}

#[test]
fn eight_pipelined_clients_match_serial_replay() {
    let session = session();
    let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
    let pool = request_pool();
    // Serial oracle: dispatch every pool entry once, in-process.
    let oracle: Vec<String> = pool.iter().map(|line| dispatcher.handle_line(line)).collect();

    let listener = gtl_api::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let clients = 8usize;
    let per_client = 12usize;
    // Small cache: plenty of evictions while the stress is running.
    let config = RuntimeConfig {
        lanes: 4,
        pipeline_depth: 4,
        cache_bytes: 2048,
        max_concurrent: 5,
        max_connections: Some(clients),
        ..RuntimeConfig::default()
    };

    std::thread::scope(|scope| {
        let server = scope.spawn(|| gtl_api::serve(&dispatcher, &listener, &config, None).unwrap());
        let mut handles = Vec::new();
        for c in 0..clients {
            let pool = &pool;
            handles.push(scope.spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                // Pipelined: write the whole mixed burst before reading.
                let picks: Vec<usize> = (0..per_client).map(|i| (c + 3 * i) % pool.len()).collect();
                for &p in &picks {
                    writeln!(conn, "{}", pool[p]).unwrap();
                }
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
                (picks, got)
            }));
        }
        for (c, handle) in handles.into_iter().enumerate() {
            let (picks, got) = handle.join().unwrap();
            assert_eq!(got.len(), per_client, "client {c} lost responses");
            for (i, (&p, line)) in picks.iter().zip(&got).enumerate() {
                assert_eq!(
                    strip_trace(line),
                    oracle[p],
                    "client {c} response {i} (pool #{p}) diverged from serial replay"
                );
            }
        }
        let report = server.join().unwrap();
        assert_eq!(report.connections, clients);
        assert_eq!(report.metrics.responses, (clients * per_client) as u64);
        assert!(report.io_errors.is_empty(), "{:?}", report.io_errors);
        // The tiny budget must actually have exercised eviction.
        assert!(report.metrics.cache_evictions > 0, "{:?}", report.metrics);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache transparency end to end: for a random request sequence and
    /// a random (often tiny) cache budget, every response over the wire
    /// — warm hit, cold miss, or recompute after an arbitrary eviction
    /// order — is byte-identical to a fresh in-process dispatch.
    #[test]
    fn cache_transparency_over_the_wire(
        budget in 0usize..4096,
        picks in proptest::collection::vec(0usize..7, 1..40),
    ) {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let pool = request_pool();
        let oracle: Vec<String> = pool.iter().map(|line| dispatcher.handle_line(line)).collect();

        let listener = gtl_api::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 2,
            pipeline_depth: 3,
            cache_bytes: budget,
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| gtl_api::serve(&dispatcher, &listener, &config, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            for &p in &picks {
                writeln!(conn, "{}", pool[p % pool.len()]).unwrap();
            }
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            prop_assert_eq!(got.len(), picks.len());
            for (i, (&p, line)) in picks.iter().zip(&got).enumerate() {
                prop_assert_eq!(
                    strip_trace(line),
                    oracle[p % pool.len()].clone(),
                    "response {} (pool #{}) diverged (budget {})",
                    i,
                    p,
                    budget
                );
            }
            server.join().unwrap();
            Ok(())
        })?;
    }
}
