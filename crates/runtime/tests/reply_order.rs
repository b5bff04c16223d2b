//! One reply per request line, in request order, whichever path a line
//! takes: an in-order cache hit answered on the connection's reader, a
//! miss or a pipelined line computed on a lane, or an uncacheable line.
//! Every server shape (lanes, pipeline depth, cache on or off) and every
//! client pacing must give the bytes of a serial server without a cache,
//! and each admitted line is looked up in the cache exactly once.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use gtl_runtime::{
    serve_lines, Cacheability, Classified, LineHandler, MetricsSnapshot, RequestContext,
    RuntimeConfig,
};
use proptest::prelude::*;

/// The lines the cache holds before a script runs.
const PRIMED: [&str; 3] = ["hot-0", "hot-1", "hot-2"];

/// Echoes each line. `slow-` lines sleep up to 2 ms, so lanes finish out
/// of order; `volatile-` lines are uncacheable.
struct ScriptHandler;

impl LineHandler for ScriptHandler {
    type Parsed = ();

    fn classify(&self, _line: &str) -> Classified<()> {
        Classified::default()
    }

    fn handle(
        &self,
        _ctx: &RequestContext<'_>,
        line: &str,
        _: &(),
        out: &mut String,
    ) -> Cacheability {
        if line.starts_with("slow-") {
            std::thread::sleep(Duration::from_millis(line.len() as u64 % 3));
        }
        out.push_str("echo:");
        out.push_str(line);
        if line.starts_with("volatile-") {
            Cacheability::Uncacheable
        } else {
            Cacheability::Cacheable
        }
    }
}

/// How the client sends a script after priming.
#[derive(Debug, Clone, Copy)]
enum Pacing {
    /// Every line in one write, before reading any reply.
    AtOnce,
    /// One write per line with a pause in between, while replies are read.
    Trickled,
}

/// Serves one connection with `config`: primes [`PRIMED`] serially, then
/// sends `script` paced as `pacing`. Returns every reply line in order
/// and the server's final metrics.
fn run(
    config: &RuntimeConfig,
    script: &[String],
    pacing: Pacing,
) -> (Vec<String>, MetricsSnapshot) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = RuntimeConfig { max_connections: Some(1), ..config.clone() };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_lines(&listener, &config, &ScriptHandler, None).unwrap());
        let replies = exchange(addr, script, pacing);
        (replies, server.join().unwrap().metrics)
    })
}

/// The client side of [`run`].
fn exchange(addr: SocketAddr, script: &[String], pacing: Pacing) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut replies = Vec::new();
    for line in PRIMED {
        writeln!(conn, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        replies.push(reply.trim_end().to_string());
    }
    std::thread::scope(|scope| {
        scope.spawn(move || {
            match pacing {
                Pacing::AtOnce => {
                    let text: String = script.iter().map(|line| format!("{line}\n")).collect();
                    conn.write_all(text.as_bytes()).unwrap();
                }
                Pacing::Trickled => {
                    for line in script {
                        writeln!(conn, "{line}").unwrap();
                        std::thread::sleep(Duration::from_micros(300));
                    }
                }
            }
            conn.shutdown(std::net::Shutdown::Write).unwrap();
        });
        replies.extend(reader.lines().map(|line| line.unwrap()));
    });
    replies
}

/// A script line: `(kind, index)` → primed, fresh, slow or uncacheable.
fn script_line((kind, index): (u8, u8)) -> String {
    match kind {
        0 => PRIMED[usize::from(index) % PRIMED.len()].to_string(),
        1 => format!("fresh-{index}"),
        2 => format!("slow-{index}"),
        _ => format!("volatile-{index}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn one_reply_per_line_in_order_on_either_path(
        lines in proptest::collection::vec((0u8..4, 0u8..6), 1..32),
        (lanes, pipeline_depth) in (1usize..=4, 1usize..=8),
        (cache_on, trickled) in (0u8..2, 0u8..2),
    ) {
        let script: Vec<String> = lines.into_iter().map(script_line).collect();
        let pacing = if trickled == 1 { Pacing::Trickled } else { Pacing::AtOnce };
        let serial = RuntimeConfig {
            lanes: 1,
            pipeline_depth: 1,
            cache_bytes: 0,
            ..RuntimeConfig::default()
        };
        let (expected, _) = run(&serial, &script, Pacing::AtOnce);
        let config = RuntimeConfig {
            lanes,
            pipeline_depth,
            cache_bytes: if cache_on == 1 { 1 << 16 } else { 0 },
            ..RuntimeConfig::default()
        };
        let (got, metrics) = run(&config, &script, pacing);
        let total = (PRIMED.len() + script.len()) as u64;
        prop_assert_eq!(expected.len() as u64, total);
        prop_assert_eq!(&got, &expected, "{:?} {:?}", config, pacing);
        prop_assert_eq!(metrics.requests, total);
        prop_assert_eq!(metrics.responses, total);
        let looked_up = if cache_on == 1 { total } else { 0 };
        prop_assert_eq!(metrics.cache_hits + metrics.cache_misses, looked_up, "{:?}", metrics);
    }
}
