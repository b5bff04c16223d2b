//! The multi-session serving contract (API v4), end to end over TCP:
//!
//! * **Eviction determinism** — arbitrary load/unload/query
//!   interleavings produce identical eviction reports and identical
//!   response bytes for any lane count and cache budget (property
//!   test, two very different runtime shapes diffed line by line).
//! * **Cross-session cache isolation** — reloading a name with a
//!   different netlist must never be answered from the previous load's
//!   cache entries; warm hits per load equal that load's cold bytes
//!   (property-tested in-crate against a simulated cache and end to
//!   end over the wire).
//! * **Fair-share admission** — a tenant flooding its quota cannot
//!   perturb a trickling tenant: the trickler's response bytes and
//!   ordering equal a solo run, and the starvation counter stays 0.
//! * **Negative paths** — unknown sessions, loads over budget and
//!   pre-v4 `session` fields answer structured errors over the wire.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use gtl_api::{
    netlist_cost, FindRequest, ListSessionsRequest, LoadNetlistRequest, Request, RuntimeConfig,
    Session, SessionDispatcher, StatsRequest, UnloadNetlistRequest,
};
use gtl_netlist::{Netlist, NetlistBuilder};
use gtl_tangled::FinderConfig;
use proptest::prelude::*;

fn ring(n: usize) -> Netlist {
    let mut b = NetlistBuilder::new();
    let cells: Vec<_> = (0..n).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
    for i in 0..n {
        b.add_anonymous_net([cells[i], cells[(i + 1) % n]]);
    }
    b.finish()
}

/// Writes each `(name, n)` ring as `<name>.hgr` under a fresh per-test
/// directory and returns the directory.
fn netlist_dir(test: &str, rings: &[(&str, usize)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gtl_registry_serve_{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, n) in rings {
        let mut text = format!("{n} {n}\n");
        for i in 0..*n {
            text.push_str(&format!("{} {}\n", i + 1, (i + 1) % n + 1));
        }
        std::fs::write(dir.join(format!("{name}.hgr")), text).unwrap();
    }
    dir
}

fn default_session() -> Session {
    Session::builder().netlist(ring(8)).build().unwrap()
}

/// Removes the per-request `,"trace":"…"` stamp (v5+) from a wire line
/// so bytes can be compared against in-process dispatch and across
/// runs whose connection/sequence numbers differ.
fn strip_trace(line: &str) -> String {
    let Some(start) = line.find(",\"trace\":\"") else { return line.to_string() };
    let rest = &line[start + 10..];
    let end = rest.find('\"').unwrap();
    format!("{}{}", &line[..start], &rest[end + 1..])
}

fn find_line(session: Option<&str>, rng_seed: u64) -> String {
    let mut request = FindRequest::new(FinderConfig {
        num_seeds: 4,
        min_size: 3,
        max_order_len: 8,
        rng_seed,
        ..FinderConfig::default()
    });
    request.session = session.map(str::to_string);
    serde::json::to_string(&Request::Find(request))
}

fn stats_line(session: Option<&str>) -> String {
    let mut request = StatsRequest::new();
    request.session = session.map(str::to_string);
    serde::json::to_string(&Request::Stats(request))
}

fn load_line(name: &str, path: &str) -> String {
    serde::json::to_string(&Request::LoadNetlist(LoadNetlistRequest::new(name, path)))
}

fn unload_line(name: &str) -> String {
    serde::json::to_string(&Request::UnloadNetlist(UnloadNetlistRequest::new(name)))
}

/// The in-process reply to `line` from a dispatcher over `default` with
/// `<dir>/<file>.hgr` loaded as the session `x`.
fn reply_with_x_loaded(default: &Session, dir: &Path, file: &str, line: &str) -> String {
    let dispatcher = SessionDispatcher::new(default, 0, 0, Some(dir.to_path_buf()));
    let loaded = dispatcher.handle_line(&load_line("x", &format!("{file}.hgr")));
    assert!(loaded.starts_with("{\"LoadNetlist\":"), "{loaded}");
    dispatcher.handle_line(line)
}

/// Boots a single-connection server over `dispatcher` with `config`,
/// plays `lines` over one pipelined connection and returns every
/// response line in order.
fn play_script(
    dispatcher: &SessionDispatcher<'_>,
    config: RuntimeConfig,
    lines: &[String],
) -> Vec<String> {
    let listener = gtl_api::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = RuntimeConfig { max_connections: Some(1), ..config };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gtl_api::serve(dispatcher, &listener, &config, None).unwrap());
        let mut conn = TcpStream::connect(addr).unwrap();
        for line in lines {
            writeln!(conn, "{line}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
        server.join().unwrap();
        got
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Registry eviction is a pure function of the operation order:
    /// replaying an arbitrary admin/query interleaving serially through
    /// a 1-lane uncached server and through an 8-lane cached server
    /// yields byte-identical response lines — including every
    /// `evicted` report and every `unknown_session` outcome.
    #[test]
    fn registry_interleavings_byte_deterministic_across_lanes(
        ops in proptest::collection::vec((0u8..3, 0usize..3), 1..20),
    ) {
        let dir = netlist_dir("determinism", &[("a", 5), ("b", 6), ("c", 7)]);
        let names = ["a", "b", "c"];
        let lines: Vec<String> = ops
            .iter()
            .map(|&(op, pick)| {
                let name = names[pick];
                match op {
                    0 => load_line(name, &format!("{name}.hgr")),
                    1 => unload_line(name),
                    _ => stats_line(Some(name)),
                }
            })
            .collect();
        let session = default_session();
        // Entry cap 2 with three names: loads routinely evict.
        let dispatcher = || SessionDispatcher::new(&session, 2, 0, Some(dir.clone()));
        let shape = |lanes: usize, cache_bytes: usize| RuntimeConfig {
            lanes,
            pipeline_depth: 1,
            cache_bytes,
            ..RuntimeConfig::default()
        };
        let serial = play_script(&dispatcher(), shape(1, 0), &lines);
        let parallel = play_script(&dispatcher(), shape(8, 1 << 20), &lines);
        prop_assert_eq!(serial.len(), lines.len());
        prop_assert_eq!(&serial, &parallel, "lane count changed registry behavior");
    }

    /// Isolation of the stamp-free key (`SessionDispatcher::cache_key`,
    /// which the benchmark's in-process replay caches by): replaying
    /// load/query interleavings against a simulated cache keyed by it,
    /// every hit returns exactly the bytes a fresh dispatch produces —
    /// across reloads that swap the netlist under the name.
    #[test]
    fn dispatcher_cache_keys_stay_transparent_across_reloads(
        ops in proptest::collection::vec(0u8..3, 1..24),
    ) {
        let dir = netlist_dir("in_crate", &[("x_small", 5), ("x_large", 9)]);
        let session = default_session();
        let d = SessionDispatcher::new(&session, 0, 0, Some(dir));
        let mut current = "x_small";
        let load = |file: &str| {
            serde::json::from_str::<Request>(&load_line("x", &format!("{file}.hgr"))).unwrap()
        };
        let rendered_load =
            |d: &SessionDispatcher<'_>, file: &str| serde::json::to_string(&d.handle(&load(file)));
        rendered_load(&d, current);
        let query = stats_line(Some("x"));
        // The simulated response cache: exactly the runtime's contract —
        // successful responses stored under the dispatcher's key.
        let mut cache: HashMap<Vec<u8>, String> = HashMap::new();
        for &op in &ops {
            if op == 0 {
                // Reload "x" with the *other* netlist: new generation.
                current = if current == "x_small" { "x_large" } else { "x_small" };
                rendered_load(&d, current);
            } else {
                let request: Request = serde::json::from_str(&query).unwrap();
                let fresh = serde::json::to_string(&d.handle(&request));
                let expect_cells = if current == "x_small" { 5 } else { 9 };
                prop_assert!(
                    fresh.contains(&format!("\"num_cells\":{expect_cells}")),
                    "dispatch answered the wrong netlist: {fresh}"
                );
                let key = d.cache_key(&query).into_owned();
                match cache.get(&key) {
                    Some(warm) => prop_assert_eq!(
                        warm, &fresh,
                        "a warm hit diverged from the cold bytes"
                    ),
                    None => {
                        cache.insert(key, fresh);
                    }
                }
            }
        }
    }

    /// End-to-end cache isolation over TCP: a warm cache, one request
    /// line in two spellings of its `session` key, and reloads that swap
    /// the netlist under the addressed name — every response matches a
    /// fresh in-process dispatch against the netlist resident *at that
    /// moment*, never a stale cache entry.
    #[test]
    fn cross_session_cache_isolation_over_the_wire(
        ops in proptest::collection::vec(0u8..3, 1..12),
    ) {
        let dir = netlist_dir("isolation", &[("x_small", 5), ("x_large", 9)]);
        let session = default_session();

        // Oracles: the same session-addressed line answered in-process
        // with each netlist loaded as `x`.
        let line = find_line(Some("x"), 11);
        // The same request with its `session` key spelled through a JSON
        // escape: it parses alike, so it must answer — and key — alike.
        let escaped = line.replace("\"session\"", "\"sess\\u0069on\"");
        let oracle: HashMap<&str, String> = ["x_small", "x_large"]
            .into_iter()
            .map(|file| (file, reply_with_x_loaded(&session, &dir, file, &line)))
            .collect();

        // Script: start on x_small; op 0 swaps the loaded file, op 1
        // queries twice with the plain spelling and op 2 with the escaped
        // one (cold + warm for fresh generations).
        let mut script = vec![load_line("x", "x_small.hgr")];
        let mut expected = vec![None];
        let mut current = "x_small";
        for &op in &ops {
            if op == 0 {
                current = if current == "x_small" { "x_large" } else { "x_small" };
                script.push(load_line("x", &format!("{current}.hgr")));
                expected.push(None);
            } else {
                let query = if op == 1 { &line } else { &escaped };
                script.push(query.clone());
                expected.push(Some(oracle[current].clone()));
                script.push(query.clone());
                expected.push(Some(oracle[current].clone()));
            }
        }
        let dispatcher = SessionDispatcher::new(&session, 0, 0, Some(dir.clone()));
        let config = RuntimeConfig {
            lanes: 2,
            pipeline_depth: 1,
            cache_bytes: 1 << 20,
            ..RuntimeConfig::default()
        };
        let got = play_script(&dispatcher, config, &script);
        prop_assert_eq!(got.len(), script.len());
        for (i, (line, expect)) in got.iter().zip(&expected).enumerate() {
            if let Some(expect) = expect {
                prop_assert_eq!(
                    &strip_trace(line), expect,
                    "response {} served stale bytes across a reload", i
                );
            }
        }
    }
}

/// One tenant flooding its quota while another trickles: the trickler's
/// responses — bytes and order — are identical to serving it alone, and
/// the runtime's fair-share starvation counter stays 0.
#[test]
fn flooding_tenant_cannot_perturb_a_trickler() {
    let dir = netlist_dir("fairness", &[("heavy", 24), ("light", 10)]);
    let session = default_session();
    let trickle: Vec<String> = (0..4).map(|i| find_line(Some("light"), 100 + i)).collect();
    let flood: Vec<String> = (0..16).map(|i| find_line(Some("heavy"), 200 + i % 3)).collect();

    let dispatcher = || SessionDispatcher::new(&session, 0, 0, Some(dir.clone()));
    let config = RuntimeConfig {
        lanes: 2,
        queue_depth: 4,
        tenant_quota: 2,
        pipeline_depth: 16,
        cache_bytes: 0,
        ..RuntimeConfig::default()
    };

    // Solo run: the trickler alone, after loading its session. Serial
    // like the trickler itself (pipeline depth 1): pipelined, its first
    // Finds could run on the second lane before the load completes.
    let mut solo_script = vec![load_line("light", "light.hgr")];
    solo_script.extend(trickle.iter().cloned());
    let solo_config = RuntimeConfig { pipeline_depth: 1, ..config.clone() };
    let solo = play_script(&dispatcher(), solo_config, &solo_script)[1..].to_vec();
    assert_eq!(solo.len(), trickle.len());
    assert!(solo.iter().all(|l| l.starts_with("{\"Find\":")), "{solo:?}");

    // Combined run: an admin connection loads both sessions, then the
    // flooder pipelines its burst while the trickler sends one request
    // at a time, waiting for each response.
    let listener = gtl_api::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let dispatcher = dispatcher();
    let config = RuntimeConfig { max_connections: Some(3), ..config };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gtl_api::serve(&dispatcher, &listener, &config, None).unwrap());
        {
            let mut admin = TcpStream::connect(addr).unwrap();
            writeln!(admin, "{}", load_line("heavy", "heavy.hgr")).unwrap();
            writeln!(admin, "{}", load_line("light", "light.hgr")).unwrap();
            admin.shutdown(std::net::Shutdown::Write).unwrap();
            let loads: Vec<String> = BufReader::new(admin).lines().map(|l| l.unwrap()).collect();
            assert_eq!(loads.len(), 2, "{loads:?}");
            assert!(loads.iter().all(|l| l.starts_with("{\"LoadNetlist\":")), "{loads:?}");
        }
        let flooder = scope.spawn(|| {
            let mut conn = TcpStream::connect(addr).unwrap();
            for line in &flood {
                writeln!(conn, "{line}").unwrap();
            }
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            BufReader::new(conn).lines().map(|l| l.unwrap()).collect::<Vec<_>>()
        });
        let trickler = scope.spawn(|| {
            let conn = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut conn = conn;
            let mut got = Vec::new();
            for line in &trickle {
                writeln!(conn, "{line}").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                got.push(response.trim_end().to_string());
            }
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            got
        });
        let flood_got = flooder.join().unwrap();
        let trickle_got = trickler.join().unwrap();
        assert_eq!(flood_got.len(), flood.len(), "flooder lost responses");
        let strip = |lines: &[String]| lines.iter().map(|l| strip_trace(l)).collect::<Vec<_>>();
        assert_eq!(
            strip(&trickle_got),
            strip(&solo),
            "the flooding tenant changed the trickler's response bytes or order"
        );
        let report = server.join().unwrap();
        assert_eq!(
            report.metrics.fair_share_violations, 0,
            "a waiting tenant was starved: {:?}",
            report.metrics
        );
    });
}

/// A Find pipelined behind a reload of its session on the same
/// connection answers from the newly loaded design, even though the old
/// design's reply for the same line is cached: the Find is looked up and
/// stamped only after the reload ahead of it has run.
#[test]
fn a_find_pipelined_behind_a_reload_answers_from_the_new_design() {
    let dir = netlist_dir("pipelined_reload", &[("x_small", 5), ("x_large", 9)]);
    let session = default_session();
    let find = find_line(Some("x"), 7);
    let oracle = |file: &str| reply_with_x_loaded(&session, &dir, file, &find);
    let (small, large) = (oracle("x_small"), oracle("x_large"));
    assert_ne!(small, large, "the two designs must answer differently");

    let dispatcher = SessionDispatcher::new(&session, 0, 0, Some(dir.clone()));
    let config = RuntimeConfig {
        lanes: 1,
        pipeline_depth: 2,
        max_connections: Some(1),
        ..RuntimeConfig::default()
    };
    let listener = gtl_api::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gtl_api::serve(&dispatcher, &listener, &config, None).unwrap());
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut reply = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            strip_trace(line.trim_end())
        };
        // Load x_small as "x" and cache the Find's reply on it.
        writeln!(conn, "{}", load_line("x", "x_small.hgr")).unwrap();
        assert!(reply().starts_with("{\"LoadNetlist\":"));
        writeln!(conn, "{find}").unwrap();
        assert_eq!(reply(), small);
        // One write: reload "x" from x_large, then the same Find.
        write!(conn, "{}\n{find}\n", load_line("x", "x_large.hgr")).unwrap();
        assert!(reply().starts_with("{\"LoadNetlist\":"));
        assert_eq!(reply(), large, "the pipelined Find answered from the replaced design");
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        server.join().unwrap();
    });
}

/// The v4 negative paths, over the wire and in order: unknown session
/// names, a load over the registry byte budget (registry unchanged), a
/// pre-v4 `session` field, and unload of an absent name — all answer
/// structured errors echoing the requested version.
#[test]
fn negative_paths_over_the_wire() {
    let dir = netlist_dir("negative", &[("small", 5), ("big", 300)]);
    let session = default_session();
    let pre_v4 = stats_line(Some("small")).replacen("\"v\":5", "\"v\":3", 1);
    assert!(pre_v4.contains("\"v\":3"), "{pre_v4}");
    let script = vec![
        stats_line(Some("ghost")),       // 0: never loaded
        load_line("small", "small.hgr"), // 1: fits the budget
        load_line("big", "big.hgr"),     // 2: alone exceeds the budget
        pre_v4,                          // 3: session field needs v4
        unload_line("ghost"),            // 4: unload of an absent name
        stats_line(Some("small")),       // 5: "small" survived it all
        unload_line("small"),            // 6: clean removal
        stats_line(Some("small")),       // 7: now unknown
        serde::json::to_string(&Request::ListSessions(ListSessionsRequest::new())), // 8
    ];
    // Budget: the small ring plus slack, far below the big ring's cost.
    let budget = netlist_cost(&ring(5)) + 256;
    assert!(budget < netlist_cost(&ring(300)), "fixture costs inverted");
    let dispatcher = SessionDispatcher::new(&session, 0, budget, Some(dir));
    let config = RuntimeConfig { lanes: 1, pipeline_depth: 1, ..RuntimeConfig::default() };
    let got = play_script(&dispatcher, config, &script);
    assert_eq!(got.len(), script.len(), "{got:?}");
    assert!(got[0].contains("\"code\":\"unknown_session\""), "{}", got[0]);
    assert!(got[0].contains("\"v\":5"), "{}", got[0]);
    assert!(got[1].starts_with("{\"LoadNetlist\":"), "{}", got[1]);
    assert!(got[2].contains("\"code\":\"invalid_argument\""), "{}", got[2]);
    assert!(got[2].contains("budget"), "{}", got[2]);
    assert!(got[3].contains("\"code\":\"invalid_argument\""), "{}", got[3]);
    assert!(got[3].contains("protocol version 4"), "{}", got[3]);
    assert!(got[3].contains("\"v\":3"), "must echo the requested version: {}", got[3]);
    assert!(got[4].contains("\"code\":\"unknown_session\""), "{}", got[4]);
    assert!(got[5].contains("\"num_cells\":5"), "{}", got[5]);
    assert!(got[6].starts_with("{\"UnloadNetlist\":"), "{}", got[6]);
    assert!(got[7].contains("\"code\":\"unknown_session\""), "{}", got[7]);
    // Only the default session remains.
    assert!(got[8].contains("\"name\":\"default\""), "{}", got[8]);
    assert!(!got[8].contains("\"name\":\"small\""), "{}", got[8]);
}

/// Boots a server over `dispatcher` for one connection, sends each line
/// only after the previous reply arrived (so every line is in order and
/// looked up on the connection's reader), and returns the replies with
/// their trace stamps stripped, plus the server's report.
fn exchange_serially(
    dispatcher: &SessionDispatcher<'_>,
    lines: &[String],
) -> (Vec<String>, gtl_api::ServeReport) {
    let config = RuntimeConfig { lanes: 1, max_connections: Some(1), ..RuntimeConfig::default() };
    let listener = gtl_api::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gtl_api::serve(dispatcher, &listener, &config, None).unwrap());
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut replies = Vec::new();
        for line in lines {
            writeln!(conn, "{line}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            replies.push(strip_trace(reply.trim_end()));
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        (replies, server.join().unwrap())
    })
}

/// The reader-path twin of the pipelined-reload test: after a reload, an
/// in-order repeat of a line whose reply is cached from the old load
/// misses (its generation is no longer resident) and answers from the
/// new design; the repeat after it hits the new reply.
#[test]
fn an_in_order_repeat_after_a_reload_answers_from_the_new_design() {
    let dir = netlist_dir("in_order_reload", &[("x_small", 5), ("x_large", 9)]);
    let session = default_session();
    let find = find_line(Some("x"), 7);
    let oracle = |file: &str| reply_with_x_loaded(&session, &dir, file, &find);
    let (small, large) = (oracle("x_small"), oracle("x_large"));
    assert_ne!(small, large, "the two designs must answer differently");

    let dispatcher = SessionDispatcher::new(&session, 0, 0, Some(dir.clone()));
    let script = [
        load_line("x", "x_small.hgr"),
        find.clone(),
        find.clone(),
        load_line("x", "x_large.hgr"),
        find.clone(),
        find.clone(),
    ];
    let (replies, report) = exchange_serially(&dispatcher, &script);
    assert!(replies[0].contains("\"generation\":1"), "{}", replies[0]);
    assert_eq!(replies[1..3], [small.clone(), small]);
    assert!(replies[3].contains("\"generation\":2"), "{}", replies[3]);
    assert_eq!(replies[4..], [large.clone(), large], "a reply from the replaced design");
    // Hits: the second Find on each load. The stale entry counted a miss.
    assert_eq!((report.metrics.cache_hits, report.metrics.cache_misses), (2, 4));
}

/// A cache hit keeps its session warm, as its dispatch would: with room
/// for two sessions, a Find on `a` answered from the cache after Finds
/// on `a` and `b` makes `b` the coldest, so loading `c` evicts `b`.
#[test]
fn a_hit_keeps_its_session_warm() {
    let dir = netlist_dir("warm_hit", &[("a", 5), ("b", 6), ("c", 7)]);
    let session = default_session();
    let dispatcher = SessionDispatcher::new(&session, 2, 0, Some(dir));
    let script = [
        load_line("a", "a.hgr"),
        load_line("b", "b.hgr"),
        find_line(Some("a"), 5),
        find_line(Some("b"), 5),
        find_line(Some("a"), 5),
        load_line("c", "c.hgr"),
    ];
    let (replies, report) = exchange_serially(&dispatcher, &script);
    assert_eq!(report.metrics.cache_hits, 1, "the second Find on `a` hits: {:?}", report.metrics);
    assert_eq!(replies[4], replies[2]);
    assert!(replies[5].contains("\"evicted\":[\"b\"]"), "{}", replies[5]);
}

/// A Bookshelf design whose node size overflows to infinity loads as a
/// `netlist` error, and the connection goes on: the Stats pipelined
/// behind the LoadNetlist is answered.
#[test]
fn a_load_of_a_non_finite_bookshelf_design_answers_an_error_and_serves_on() {
    let dir = netlist_dir("non_finite_bookshelf", &[]);
    std::fs::write(dir.join("d.aux"), "RowBasedPlacement : d.nodes d.nets\n").unwrap();
    std::fs::write(dir.join("d.nodes"), "NumNodes : 2\n a 1e309 1\n b 1 1\n").unwrap();
    std::fs::write(dir.join("d.nets"), "NumNets : 1\nNetDegree : 2\n a I\n b O\n").unwrap();
    let session = default_session();
    let dispatcher = SessionDispatcher::new(&session, 0, 0, Some(dir));
    let config = RuntimeConfig { lanes: 1, ..RuntimeConfig::default() };
    let got = play_script(&dispatcher, config, &[load_line("d", "d.aux"), stats_line(None)]);
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got[0].contains("\"code\":\"netlist\""), "{}", got[0]);
    assert!(got[0].contains("not finite"), "{}", got[0]);
    assert!(got[1].starts_with("{\"Stats\":"), "{}", got[1]);
}
