//! The `gtl serve` backend: a JSON-lines TCP server over a
//! [`SessionDispatcher`], running on the [`gtl_runtime`] bounded service
//! runtime configured by a [`RuntimeConfig`].
//!
//! Protocol: one [`Request`](crate::Request) envelope per line in, one
//! [`Response`] envelope per line out, **in request
//! order**, on a plain TCP stream (no HTTP). Blank lines are ignored; a
//! connection ends at client EOF, at the read/idle timeout, or after a
//! framing error (oversized / non-UTF-8 line — answered with
//! `bad_request` first). Clients may **pipeline**: write many request
//! lines before reading; the runtime keeps up to the configured pipeline
//! depth in flight per connection and a reorder buffer preserves wire
//! order. Try it with netcat:
//!
//! ```text
//! $ gtl serve design.hgr --port 7878 &
//! $ printf '{"Stats":{"v":1}}\n{"Metrics":{"v":2}}\n' | nc 127.0.0.1 7878
//! {"Stats":{"v":1,"stats":{...}}}
//! {"Metrics":{"v":2,"metrics":{...}}}
//! ```
//!
//! # Concurrency and determinism
//!
//! Connection threads never compute a response — they frame lines and
//! move buffers; every request that needs compute runs as a job on the
//! runtime's fixed pool of compute lanes, fed by a bounded fair-share
//! queue (full queue = backpressure to the client's TCP window, never
//! unbounded buffering). Heavy compute inside a job (the finder, the
//! sharded placer, congestion) still fans out through `gtl_core::exec`
//! and is byte-identical for any worker count. Deterministic responses
//! are additionally served from an LRU **response cache** keyed by the
//! canonical request-line bytes alone; each stored reply carries the
//! generation of the session it was computed on and answers only while
//! that generation is resident. A hit on a request whose connection has
//! every earlier reply written is answered by the connection's reader
//! before the line is parsed, without a lane.
//! A hit returns exactly the bytes a fresh compute would (property-tested), so
//! the wire contract is unchanged for any lane count, cache size
//! (including 0 = disabled) and pipeline depth: same request line, same
//! response bytes. The deliberate exceptions are
//! [`MetricsRequest`](crate::MetricsRequest) and
//! [`MetricsTextRequest`](crate::MetricsTextRequest), which report live
//! runtime counters and therefore bypass the cache.
//!
//! # Observability (protocol v5+)
//!
//! Every response to a **v5** request is stamped with a per-request
//! trace ID (`"<conn>-<seq>"` in fixed-width hex) as the last body
//! field, *after* the cache (cached bytes are stored unstamped, so a
//! hit and a fresh compute stamp identically). Responses echoing a
//! frozen version (v1–v4) are byte-identical to their historical form —
//! no field appears. Framing-failure responses (oversized / non-UTF-8
//! lines) never reach the scheduler and carry no trace. The runtime
//! also records per-stage and per-request-kind latency histograms,
//! exported through the `Metrics` pair, the v5 `MetricsText` pair
//! (Prometheus text — see [`crate::prom`]) and, when
//! [`serve()`] is given a side listener, a plain-HTTP `GET /metrics`
//! scrape endpoint.

use std::net::TcpListener;
use std::time::Instant;

use gtl_core::Span;
use gtl_runtime::{
    Cacheability, Classified, LineHandler, MetricsExporter, MetricsSnapshot, RequestContext,
    RuntimeConfig, ServeReport, TraceId, TransportError,
};

use crate::registry::{classify, error_response, ParsedLine};
use crate::{ApiError, ErrorBody, Response, SessionDispatcher, TRACE_SINCE_VERSION};

/// Request kinds: the label set of the per-kind latency summaries (the
/// Prometheus `kind` label, the `gtl serve` exit summary and the
/// `gtl loadgen` report), as `(envelope tag, label)` rows in
/// [`Request`](crate::Request) variant order. The last row (`other`,
/// empty tag) catches malformed and unknown envelopes.
pub const REQUEST_KINDS: [(&str, &str); 9] = [
    ("Find", "find"),
    ("Place", "place"),
    ("Stats", "stats"),
    ("Metrics", "metrics"),
    ("MetricsText", "metrics_text"),
    ("LoadNetlist", "load_netlist"),
    ("UnloadNetlist", "unload_netlist"),
    ("ListSessions", "list_sessions"),
    ("", "other"),
];

/// The [`REQUEST_KINDS`] row of a raw request line, by its envelope tag
/// (the first JSON key: `{"Find":…}` → `find`). It reads the tag without
/// parsing, so the server and `gtl loadgen` label every line alike; a
/// non-canonical spelling of the tag falls into `other` — a label, never
/// a behavior change.
pub fn request_kind(line: &str) -> usize {
    let tag = line.trim_start().strip_prefix("{\"").and_then(|rest| rest.split('"').next());
    REQUEST_KINDS
        .iter()
        .position(|&(known, _)| Some(known) == tag)
        .unwrap_or(REQUEST_KINDS.len() - 1)
}

/// Binds a listener on `addr` (e.g. `"127.0.0.1:7878"`; port `0` asks the
/// OS for a free port).
///
/// # Errors
///
/// [`ApiError::Io`] when binding fails.
pub fn bind(addr: &str) -> Result<TcpListener, ApiError> {
    TcpListener::bind(addr).map_err(|e| ApiError::io(format!("bind {addr}: {e}")))
}

/// Serves JSON-lines requests from `listener` through `dispatcher` on
/// the bounded runtime `config` describes, until the connection budget
/// is exhausted (or forever without one).
///
/// With a `metrics_listener`, a Prometheus scrape side port runs
/// alongside: it answers plain-HTTP `GET /metrics` with the same
/// registry-overlaid counters as the v5 `MetricsText` pair, rendered by
/// [`crate::prom::render_prometheus`]. The side listener accepts one
/// scrape at a time (observation plane, not data plane) and shuts down
/// with the server.
///
/// # Errors
///
/// [`ApiError::Io`] when accepting fails persistently; per-connection
/// I/O errors terminate only that connection and are reported in the
/// returned [`ServeReport`]. Its runtime snapshot lacks the registry
/// counters; [`SessionDispatcher::runtime_metrics`] adds them.
pub fn serve(
    dispatcher: &SessionDispatcher<'_>,
    listener: &TcpListener,
    config: &RuntimeConfig,
    metrics_listener: Option<&TcpListener>,
) -> Result<ServeReport, ApiError> {
    // The scrape path and the wire mirrors share one rendering: the
    // runtime snapshot overlaid with the registry counters, through the
    // same `runtime_metrics` every other export uses.
    let render = |snapshot: &MetricsSnapshot| {
        crate::prom::render_prometheus(&dispatcher.runtime_metrics(snapshot.clone()))
    };
    let exporter = metrics_listener.map(|listener| MetricsExporter { listener, render: &render });
    gtl_runtime::serve_lines(listener, config, dispatcher, exporter)
        .map_err(|e| ApiError::io(e.to_string()))
}

/// Serializes a response into the runtime's recycled buffer, recording
/// the time spent as a `serialize`-stage observation (I/O plane — the
/// handler runs on a compute lane, so this clock read is outside the
/// compute zone).
fn serialize_response(ctx: &RequestContext<'_>, response: &Response, out: &mut String) {
    let span = Span::starting_at(Instant::now());
    serde::json::to_string_into(response, out);
    ctx.observe_serialize_us(span.end_at(Instant::now()));
}

/// The runtime's view of the dispatcher: classify (parse) each line that
/// the cache does not answer once on the reader thread, stamp it with its
/// addressed session's generation (on the reader when every earlier reply
/// on its connection is written, else on the lane, after the requests
/// ahead of it), dispatch it on the lane and serialize into the runtime's
/// recycled buffer. A stored reply answers while its generation is still
/// resident.
impl LineHandler for SessionDispatcher<'_> {
    type Parsed = ParsedLine;

    fn classify(&self, line: &str) -> Classified<ParsedLine> {
        classify(line)
    }

    fn cache_stamp(&self, parsed: &ParsedLine) -> Option<u64> {
        self.addressed_generation(parsed)
    }

    fn stamp_is_current(&self, generation: u64) -> bool {
        self.generation_is_live(generation)
    }

    fn handle(
        &self,
        ctx: &RequestContext<'_>,
        _line: &str,
        parsed: &ParsedLine,
        out: &mut String,
    ) -> Cacheability {
        let (response, cacheability) = match parsed {
            Ok(request) => {
                // The job token (connection loss + server default
                // deadline) reaches the compute through the dispatch;
                // `deadline_ms` in the request narrows it further,
                // anchored at admission so queue wait counts. Metrics
                // report live runtime state, which only the runtime
                // (through `ctx`) can see.
                let metrics = || ctx.metrics();
                let anchor = ctx.submitted_at();
                match self.dispatch(request, ctx.cancel_token(), anchor, Some(&metrics)) {
                    Ok(answer) => answer,
                    Err(err) => {
                        // The runtime owns the counters; the error's
                        // variant says which one this outcome counts in.
                        match err {
                            ApiError::DeadlineExceeded { .. } => ctx.record_deadline_exceeded(),
                            ApiError::Cancelled { .. } => ctx.record_cancelled(),
                            _ => {}
                        }
                        // Errors are never cached: unique invalid requests
                        // must not evict compute worth seconds, and a
                        // deadline or cancel outcome is timing-dependent,
                        // not a pure function of the line.
                        (error_response(&err, request.v()), Cacheability::Uncacheable)
                    }
                }
            }
            // No version is known for an unparseable line, so its error
            // carries the build's own.
            Err(err) => (Response::Error(ErrorBody::from(err)), Cacheability::Uncacheable),
        };
        serialize_response(ctx, &response, out);
        cacheability
    }

    fn stamp_trace(&self, trace: TraceId, out: &mut String) -> bool {
        // Only v5+ bodies declare the `trace` field; a response echoing
        // a frozen version (v1–v4) must keep its exact historical
        // bytes. The version is always the *first* body field (wire
        // invariant since v1), so inspecting the envelope head —
        // `{"Tag":{"v":N,` — decides without a parse.
        let Some(colon) = out.find(':') else { return false };
        let Some(digits) = out[colon + 1..].strip_prefix("{\"v\":") else { return false };
        let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
        let Ok(v) = digits[..end].parse::<u32>() else { return false };
        if v < TRACE_SINCE_VERSION || !out.ends_with("}}") {
            return false;
        }
        // `trace` is declared last in every v5 body, so inserting just
        // before the closing `}}` produces exactly the bytes a
        // parse → stamp → serialize round-trip would.
        let at = out.len() - 2;
        out.insert_str(at, &format!(",\"trace\":\"{trace}\""));
        true
    }

    fn transport_error(&self, error: &TransportError) -> Option<String> {
        let err = match error {
            TransportError::Oversized { limit } => {
                ApiError::bad_request(format!("request line exceeds {limit} bytes"))
            }
            TransportError::NotUtf8 => ApiError::bad_request("request is not UTF-8"),
        };
        Some(serde::json::to_string(&Response::Error(ErrorBody::from(&err))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FindRequest, ListSessionsRequest, LoadNetlistRequest, MetricsRequest, MetricsTextRequest,
        PlaceRequest, Request, Session, StatsRequest, UnloadNetlistRequest,
    };
    use gtl_netlist::NetlistBuilder;
    use gtl_tangled::FinderConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn session() -> Session {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..20).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_anonymous_net([cells[i], cells[j]]);
            }
        }
        for i in 0..20 {
            b.add_anonymous_net([cells[i], cells[(i + 1) % 20]]);
        }
        Session::builder().netlist(b.finish()).build().unwrap()
    }

    /// A runtime on `lanes` lanes that exits after `connections`
    /// connections, otherwise as `gtl serve` runs by default.
    fn config(lanes: usize, connections: usize) -> RuntimeConfig {
        RuntimeConfig { lanes, max_connections: Some(connections), ..RuntimeConfig::default() }
    }

    fn request_line() -> String {
        serde::json::to_string(&Request::Find(FindRequest::new(FinderConfig {
            num_seeds: 6,
            min_size: 3,
            max_order_len: 10,
            rng_seed: 3,
            ..FinderConfig::default()
        })))
    }

    /// Removes the stamped `,"trace":"…"` field from a wire line, so
    /// wire bytes can be compared against in-process dispatch (which
    /// stamps nothing) and across connections (whose traces differ).
    fn strip_trace(line: &str) -> String {
        let Some(start) = line.find(",\"trace\":\"") else { return line.to_string() };
        let rest = &line[start + 10..];
        let end = rest.find('\"').unwrap();
        format!("{}{}", &line[..start], &rest[end + 1..])
    }

    #[test]
    fn request_kind_rows_follow_the_envelope_variants() {
        // Every envelope variant, serialized, lands on its own row.
        let envelopes = [
            Request::Find(FindRequest::new(FinderConfig::default())),
            Request::Place(PlaceRequest::new()),
            Request::Stats(StatsRequest::new()),
            Request::Metrics(MetricsRequest::new()),
            Request::MetricsText(MetricsTextRequest::new()),
            Request::LoadNetlist(LoadNetlistRequest::new("a", "a.hgr")),
            Request::UnloadNetlist(UnloadNetlistRequest::new("a")),
            Request::ListSessions(ListSessionsRequest::new()),
        ];
        for (row, request) in envelopes.iter().enumerate() {
            assert_eq!(request_kind(&serde::json::to_string(request)), row, "{request:?}");
        }
        let label = |line: &str| REQUEST_KINDS[request_kind(line)].1;
        assert_eq!(label(r#"  {"MetricsText":{"v":5}}"#), "metrics_text");
        assert_eq!(label(r#"{"ListSessions":{"v":4}}"#), "list_sessions");
        assert_eq!(label("not json"), "other");
        assert_eq!(label(r#"{"Future":{}}"#), "other");
        assert_eq!(label(r#"{"":{}}"#), "other");
        assert_eq!(label(""), "other");
    }

    #[test]
    fn zero_connection_budget_returns_immediately() {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = bind("127.0.0.1:0").unwrap();
        let config = RuntimeConfig { max_connections: Some(0), ..RuntimeConfig::default() };
        let report = serve(&dispatcher, &listener, &config, None).unwrap();
        assert_eq!(report.connections, 0);
    }

    #[test]
    fn oversized_line_answered_and_dropped() {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = config(0, 1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&dispatcher, &listener, &config, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            // Stream more than the cap without a newline; the server must
            // answer bad_request and close rather than buffer forever.
            let chunk = vec![b'x'; 1 << 16];
            let mut sent = 0u64;
            while sent <= config.max_request_bytes {
                if conn.write_all(&chunk).is_err() {
                    break; // server already hung up — also acceptable
                }
                sent += chunk.len() as u64;
            }
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let mut response = String::new();
            let _ = BufReader::new(conn).read_line(&mut response);
            assert!(response.is_empty() || response.contains("\"bad_request\""), "{response}");
            assert_eq!(handle.join().unwrap().connections, 1);
        });
    }

    #[test]
    fn tcp_round_trip_matches_in_process_dispatch() {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = config(2, 2);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&dispatcher, &listener, &config, None).unwrap());

            let mut expected = None;
            for _ in 0..2 {
                let mut conn = TcpStream::connect(addr).unwrap();
                // Two requests on one connection, plus a blank line and a
                // malformed line that must produce an error response.
                write!(conn, "{}\n\n{}\nnot json\n", request_line(), request_line()).unwrap();
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                let mut lines = Vec::new();
                for line in BufReader::new(conn).lines() {
                    lines.push(line.unwrap());
                }
                assert_eq!(lines.len(), 3, "{lines:?}");
                // v5 responses are stamped with per-request traces on
                // the wire; everything else is byte-identical to
                // in-process dispatch.
                assert!(lines[0].contains("\"trace\":\""), "{}", lines[0]);
                assert_eq!(strip_trace(&lines[0]), dispatcher.handle_line(&request_line()));
                assert_eq!(strip_trace(&lines[0]), strip_trace(&lines[1]));
                assert_ne!(lines[0], lines[1], "traces are per-request");
                assert!(lines[2].contains("\"bad_request\""), "{}", lines[2]);
                // Every connection sees identical bytes modulo traces.
                let stripped: Vec<String> = lines.iter().map(|l| strip_trace(l)).collect();
                match &expected {
                    None => expected = Some(stripped),
                    Some(prev) => assert_eq!(prev, &stripped),
                }
            }
            let report = handle.join().unwrap();
            assert_eq!(report.connections, 2);
            // The second connection's identical requests were served from
            // the cache — with bytes identical to the fresh computes.
            assert!(report.metrics.cache_hits >= 1, "{:?}", report.metrics);
        });
    }

    #[test]
    fn error_responses_do_not_occupy_the_cache() {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = config(1, 1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&dispatcher, &listener, &config, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            // Unique malformed and invalid requests must not evict real
            // compute: none of them may take a cache slot.
            for i in 0..3 {
                writeln!(conn, "garbage number {i}").unwrap();
            }
            writeln!(conn, "{{\"Find\":{{\"v\":99,\"config\":{{}}}}}}").unwrap();
            writeln!(conn, "{}", request_line()).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 5, "{lines:?}");
            assert!(lines[..4].iter().all(|l| l.contains("\"Error\":")), "{lines:?}");
            assert!(lines[4].starts_with("{\"Find\":"), "{}", lines[4]);
            let report = handle.join().unwrap();
            assert_eq!(
                report.metrics.cache_entries, 1,
                "only the successful Find may be cached: {:?}",
                report.metrics
            );
        });
    }

    #[test]
    fn deadline_ms_over_the_wire() {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = config(1, 1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&dispatcher, &listener, &config, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            // An already-expired per-request deadline: answered with a
            // structured error, without running the finder.
            let expired = request_line().replace("\"deadline_ms\":null", "\"deadline_ms\":0");
            assert!(expired.contains("\"deadline_ms\":0"), "{expired}");
            writeln!(conn, "{expired}").unwrap();
            // A generous deadline: served normally, but never cached
            // (the outcome is timing-dependent) — send it twice.
            let generous =
                request_line().replace("\"deadline_ms\":null", "\"deadline_ms\":3600000");
            writeln!(conn, "{generous}").unwrap();
            writeln!(conn, "{generous}").unwrap();
            // A v2 request carrying deadline_ms: the field is v3+.
            let wrong_version = expired.replacen("\"v\":5", "\"v\":2", 1);
            writeln!(conn, "{wrong_version}").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 4, "{lines:?}");
            assert!(lines[0].contains("\"code\":\"deadline_exceeded\""), "{}", lines[0]);
            assert!(lines[1].starts_with("{\"Find\":{\"v\":5,"), "{}", lines[1]);
            assert_eq!(
                strip_trace(&lines[1]),
                strip_trace(&lines[2]),
                "same line must answer identically modulo its trace"
            );
            assert!(lines[3].contains("\"code\":\"invalid_argument\""), "{}", lines[3]);
            let report = handle.join().unwrap();
            assert_eq!(report.metrics.deadlines_exceeded, 1, "{:?}", report.metrics);
            assert_eq!(
                report.metrics.cache_entries, 0,
                "deadline-carrying requests must never be cached: {:?}",
                report.metrics
            );
        });
    }

    #[test]
    fn metrics_request_served_by_runtime_not_cached() {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = config(1, 1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&dispatcher, &listener, &config, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            let line = serde::json::to_string(&Request::Metrics(MetricsRequest::new()));
            writeln!(conn, "{line}").unwrap();
            writeln!(conn, "{line}").unwrap();
            // A v1 Metrics request must be rejected: the pair is v2+. The
            // error echoes the supported version it was asked in, so it
            // carries no trace; an unsupported version can't be echoed,
            // so that error speaks (and is stamped as) the build's own.
            writeln!(conn, "{{\"Metrics\":{{\"v\":1}}}}").unwrap();
            writeln!(conn, "{{\"Metrics\":{{\"v\":9}}}}").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 4, "{lines:?}");
            assert!(lines[0].starts_with("{\"Metrics\":{\"v\":5,\"metrics\":{"), "{}", lines[0]);
            assert!(lines[1].contains("\"requests\":"), "{}", lines[1]);
            assert_eq!(
                lines[2],
                "{\"Error\":{\"v\":1,\"code\":\"invalid_argument\",\"message\":\"Metrics requires \
                 protocol version 2 (requested 1)\"}}"
            );
            assert_eq!(
                lines[3],
                "{\"Error\":{\"v\":5,\"code\":\"unsupported_version\",\"message\":\"request \
                 version 9 unsupported (this build speaks 1..=5)\",\"trace\":\"00000001-00000003\"}}"
            );
            let report = handle.join().unwrap();
            // Every Metrics outcome (snapshot or version error) bypasses
            // the cache; the two snapshots differ (the counters moved
            // between them).
            assert_eq!(report.metrics.cache_entries, 0, "Metrics outcomes are never cached");
            assert_ne!(
                strip_trace(&lines[0]),
                strip_trace(&lines[1]),
                "metrics snapshots must not be cached"
            );
        });
    }

    #[test]
    fn traces_stamp_v5_responses_only() {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = config(1, 1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&dispatcher, &listener, &config, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "{}", request_line()).unwrap();
            // The same request pinned to v4: frozen bytes, no trace.
            writeln!(conn, "{}", request_line().replacen("\"v\":5", "\"v\":4", 1)).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 2, "{lines:?}");
            // Conn IDs are 1-based, sequence numbers 0-based.
            assert!(lines[0].ends_with(",\"trace\":\"00000001-00000000\"}}"), "{}", lines[0]);
            assert!(!lines[1].contains("\"trace\""), "{}", lines[1]);
            let report = handle.join().unwrap();
            assert_eq!(report.metrics.responses_traced, 1, "{:?}", report.metrics);
        });
    }

    #[test]
    fn metrics_text_serves_prometheus_rendering() {
        let session = session();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = config(1, 1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&dispatcher, &listener, &config, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            let line = serde::json::to_string(&Request::MetricsText(MetricsTextRequest::new()));
            writeln!(conn, "{line}").unwrap();
            // The pair is v5+: a v4 MetricsText request is rejected.
            writeln!(conn, "{}", line.replacen("\"v\":5", "\"v\":4", 1)).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 2, "{lines:?}");
            assert!(lines[0].starts_with("{\"MetricsText\":{\"v\":5,\"text\":\""), "{}", lines[0]);
            assert!(lines[0].contains("# TYPE gtl_requests counter"), "{}", lines[0]);
            assert!(lines[0].contains("\"trace\":\"00000001-00000000\""), "{}", lines[0]);
            assert_eq!(
                lines[1],
                "{\"Error\":{\"v\":4,\"code\":\"invalid_argument\",\"message\":\"MetricsText \
                 requires protocol version 5 (requested 4)\"}}"
            );
            let report = handle.join().unwrap();
            assert_eq!(report.metrics.cache_entries, 0, "MetricsText is never cached");
        });
    }

    #[test]
    fn scrape_endpoint_serves_overlaid_prometheus_text() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let metrics_listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics_addr = metrics_listener.local_addr().unwrap();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let config = config(1, 1);
        std::thread::scope(|scope| {
            let handle = scope
                .spawn(|| serve(&dispatcher, &listener, &config, Some(&metrics_listener)).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "{}", request_line()).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut first = String::new();
            reader.read_line(&mut first).unwrap();
            assert!(first.starts_with("{\"Find\":"), "{first}");
            // Scrape while the data-plane connection is still open.
            let mut scrape = TcpStream::connect(metrics_addr).unwrap();
            write!(scrape, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut response = String::new();
            std::io::Read::read_to_string(&mut scrape, &mut response).unwrap();
            assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
            assert!(response.contains("# TYPE gtl_requests counter"), "{response}");
            assert!(response.contains("gtl_requests 1"), "{response}");
            assert!(
                response.contains("gtl_request_latency_seconds_count{kind=\"find\"} 1"),
                "{response}"
            );
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let report = handle.join().unwrap();
            assert_eq!(report.connections, 1);
            assert_eq!(report.metrics.responses_traced, 1, "{:?}", report.metrics);
        });
    }
}
