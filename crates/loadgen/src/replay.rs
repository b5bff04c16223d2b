//! Open- and closed-loop trace replay against a live server.
//!
//! [`run`] takes the parsed trace, drives it at the server named in
//! [`ReplayOptions`], and produces a [`ReplayReport`]: the deterministic
//! response log, per-kind latency percentiles, and throughput. Two
//! replay disciplines are supported:
//!
//! * **closed loop** ([`ReplayMode::Closed`]) — each connection keeps at
//!   most `inflight` requests outstanding and sends the next one as soon
//!   as a response frees a slot. Measures sustainable throughput; the
//!   bench trend gate reads `req_per_s` from this mode.
//! * **open loop** ([`ReplayMode::Open`]) — requests are sent at their
//!   recorded arrival offsets (or at a fixed target rate), regardless of
//!   response progress. Measures latency under offered load.
//!
//! Determinism: connections are established serially in trace
//! connection-id order, so the server's accept order (and its v5
//! per-connection trace-ID stamps) is a pure function of the trace.
//! Per-connection request order follows trace sequence order, the serve
//! protocol answers in order, and the response log concatenates
//! connections in id order — so two replays of the same trace against
//! the same server shape are byte-identical, which is what `--expect`
//! checks. Each connection then runs on its own blocking thread (plus a
//! reader in open loop), so all of them are in flight at once; a trace
//! names at most [`MAX_REPLAY_CONNECTIONS`] connections.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use gtl_api::{request_kind, ApiError, REQUEST_KINDS};
use gtl_core::obs::LatencyHistogram;
use serde::Value;

use crate::trace::TraceRecord;

/// Most connections one replay drives: `gtl serve`'s default
/// `--max-concurrent` gate, past which a default server never accepts
/// the extra connections. Each connection runs on one thread, plus a
/// reader in open loop.
pub const MAX_REPLAY_CONNECTIONS: usize = 256;

/// How replayed requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayMode {
    /// At most `inflight` outstanding requests per connection; the next
    /// request goes out as soon as a response frees a slot.
    Closed {
        /// Per-connection in-flight window (must be at least 1).
        inflight: usize,
    },
    /// Requests go out on a schedule regardless of response progress:
    /// at `rate` requests/second across the whole trace when positive,
    /// at the recorded arrival offsets when `rate` is zero.
    Open {
        /// Target request rate in requests/second; `0.0` replays the
        /// recorded offsets.
        rate: f64,
    },
}

/// Configuration for [`run`].
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Server address (e.g. `127.0.0.1:17777`).
    pub addr: String,
    /// Pacing discipline.
    pub mode: ReplayMode,
    /// Replay the whole trace this many times back to back (>= 1).
    pub repeat: usize,
    /// How long to keep retrying the initial connect while the server
    /// boots (subsequent connections use the same budget).
    pub connect_timeout: Duration,
    /// Write the deterministic response log here.
    pub out: Option<PathBuf>,
    /// Write the machine-readable summary JSON here.
    pub summary_out: Option<PathBuf>,
    /// Byte-compare the response log against this golden; mismatch is a
    /// netlist-class error (exit code 1 in the CLI).
    pub expect: Option<PathBuf>,
    /// Scrape `GET /metrics` from this address after the replay, while
    /// the replay connections are still open.
    pub scrape_addr: Option<String>,
    /// Write the raw scrape response here.
    pub scrape_out: Option<PathBuf>,
}

impl ReplayOptions {
    /// Closed-loop options with window 1 and the CLI's default timeouts.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            mode: ReplayMode::Closed { inflight: 1 },
            repeat: 1,
            connect_timeout: Duration::from_secs(10),
            out: None,
            summary_out: None,
            expect: None,
            scrape_addr: None,
            scrape_out: None,
        }
    }
}

/// Latency digest for one request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindStats {
    /// Kind label (one of [`REQUEST_KINDS`]).
    pub kind: &'static str,
    /// Requests of this kind that completed.
    pub count: u64,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// Worst observed latency in microseconds.
    pub max_us: u64,
}

/// What a finished replay measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The pacing discipline that ran.
    pub mode: ReplayMode,
    /// Requests sent.
    pub requests: u64,
    /// Responses received (equals `requests` on success).
    pub responses: u64,
    /// Wall-clock duration of the replay in seconds.
    pub wall_seconds: f64,
    /// Completed requests per second.
    pub req_per_s: f64,
    /// Per-kind latency digests (kinds with at least one request).
    pub kinds: Vec<KindStats>,
    /// Response log: connections in id order, responses in sequence
    /// order, one line each.
    pub log: String,
    /// Raw `/metrics` scrape response, when requested.
    pub scrape: Option<String>,
}

impl ReplayReport {
    /// Renders the machine-readable summary consumed by the
    /// `gtl-bench trend` gate (`results/loadgen.json` shape).
    pub fn summary_json(&self) -> String {
        let (mode, knob) = match self.mode {
            ReplayMode::Closed { inflight } => {
                ("closed", ("inflight", Value::U64(inflight as u64)))
            }
            ReplayMode::Open { rate } => ("open", ("rate", Value::num(rate))),
        };
        let kinds = self.kinds.iter().map(|k| {
            Value::obj([
                ("kind", Value::str(k.kind)),
                ("count", Value::U64(k.count)),
                ("p50_us", Value::U64(k.p50_us)),
                ("p95_us", Value::U64(k.p95_us)),
                ("p99_us", Value::U64(k.p99_us)),
                ("max_us", Value::U64(k.max_us)),
            ])
        });
        let run = Value::obj(vec![
            ("mode", Value::str(mode)),
            knob,
            ("requests", Value::U64(self.requests)),
            ("responses", Value::U64(self.responses)),
            ("wall_seconds", Value::num(self.wall_seconds)),
            ("req_per_s", Value::num(self.req_per_s)),
            ("kinds", Value::arr(kinds)),
        ]);
        Value::obj([("bench", Value::str("loadgen")), ("runs", Value::arr([run]))]).render()
    }
}

/// One scheduled request on one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlanItem {
    /// Send time in microseconds from replay start (open loop only).
    target_us: u64,
    /// Row of [`REQUEST_KINDS`].
    kind: usize,
    /// The raw request line.
    line: String,
}

/// What one connection's replay produced.
struct ConnOutput {
    responses: Vec<String>,
    hists: Vec<LatencyHistogram>,
}

/// Replays the trace and handles the report's file outputs: writes
/// `--out` / `--summary` / `--scrape-out` first, then byte-compares
/// against `--expect` so the drifted log is on disk for debugging.
///
/// # Errors
///
/// [`ApiError::BadRequest`] for an empty trace or invalid options,
/// [`ApiError::Io`] for socket/file failures, and [`ApiError::Netlist`]
/// when the response log drifts from the `--expect` golden.
pub fn run(records: &[TraceRecord], options: &ReplayOptions) -> Result<ReplayReport, ApiError> {
    let report = replay(records, options)?;
    if let Some(path) = &options.out {
        std::fs::write(path, &report.log)
            .map_err(|e| ApiError::io(format!("write {}: {e}", path.display())))?;
    }
    if let Some(path) = &options.summary_out {
        std::fs::write(path, report.summary_json() + "\n")
            .map_err(|e| ApiError::io(format!("write {}: {e}", path.display())))?;
    }
    if let (Some(path), Some(text)) = (&options.scrape_out, &report.scrape) {
        std::fs::write(path, text)
            .map_err(|e| ApiError::io(format!("write {}: {e}", path.display())))?;
    }
    if let Some(path) = &options.expect {
        let want = std::fs::read_to_string(path)
            .map_err(|e| ApiError::io(format!("read expected {}: {e}", path.display())))?;
        if let Some(detail) = first_divergence(&want, &report.log) {
            return Err(ApiError::netlist(format!(
                "response drift vs {}: {detail}",
                path.display()
            )));
        }
    }
    Ok(report)
}

/// Drives the trace against the server and collects the report, with no
/// file outputs and no golden comparison.
fn replay(records: &[TraceRecord], options: &ReplayOptions) -> Result<ReplayReport, ApiError> {
    let plans = build_plans(records, options.mode, options.repeat)?;
    // Serial, in connection-id order: the server's accept order (and its
    // v5 trace-ID stamps) must be a pure function of the trace.
    let streams = plans
        .iter()
        .map(|_| connect_with_retry(&options.addr, options.connect_timeout))
        .collect::<Result<Vec<_>, _>>()?;
    let mode = options.mode;
    let start = Instant::now();
    // gtl-lint: allow(no-raw-thread, reason = "blocking socket I/O, one thread per replay connection plus its reader in open loop, at most MAX_REPLAY_CONNECTIONS; no compute fans out here")
    let outputs: Result<Vec<ConnOutput>, ApiError> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&plans)
            .map(|(stream, (_, plan))| {
                scope.spawn(move || match mode {
                    ReplayMode::Closed { inflight } => run_conn_closed(stream, plan, inflight),
                    ReplayMode::Open { .. } => run_conn_open(scope, stream, plan, start),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64().max(1e-9);
    let outputs = outputs?;

    let scrape = match &options.scrape_addr {
        Some(addr) => Some(scrape_metrics(addr, options.connect_timeout)?),
        None => None,
    };
    drop(streams); // now the replay connections close
    let mut merged = kind_histograms();
    let mut log = String::new();
    let mut responses = 0u64;
    for output in &outputs {
        for (hist, conn_hist) in merged.iter_mut().zip(&output.hists) {
            hist.merge(conn_hist);
        }
        for line in &output.responses {
            log.push_str(line);
            log.push('\n');
        }
        responses += output.responses.len() as u64;
    }

    let requests: u64 = plans.iter().map(|(_, plan)| plan.len() as u64).sum();
    let kinds = REQUEST_KINDS
        .iter()
        .zip(&merged)
        .filter(|(_, h)| !h.is_empty())
        .map(|(&(_, kind), h)| KindStats {
            kind,
            count: h.count(),
            p50_us: h.percentile_us(0.50),
            p95_us: h.percentile_us(0.95),
            p99_us: h.percentile_us(0.99),
            max_us: h.max_us(),
        })
        .collect();
    Ok(ReplayReport {
        mode,
        requests,
        responses,
        wall_seconds,
        req_per_s: responses as f64 / wall_seconds,
        kinds,
        log,
        scrape,
    })
}

/// Expands the trace into per-connection send plans: groups by
/// connection id, orders by sequence number, applies `repeat`, and for
/// fixed-rate open loop assigns global send offsets at `rate` req/s.
fn build_plans(
    records: &[TraceRecord],
    mode: ReplayMode,
    repeat: usize,
) -> Result<Vec<(u32, Vec<PlanItem>)>, ApiError> {
    if records.is_empty() {
        return Err(ApiError::bad_request("trace is empty"));
    }
    if repeat == 0 {
        return Err(ApiError::bad_request("--repeat must be at least 1"));
    }
    match mode {
        ReplayMode::Closed { inflight: 0 } => {
            return Err(ApiError::bad_request("--inflight must be at least 1"));
        }
        ReplayMode::Open { rate } if !rate.is_finite() || rate < 0.0 => {
            return Err(ApiError::bad_request("--rate must be a non-negative number"));
        }
        _ => {}
    }
    let mut by_conn: BTreeMap<u32, Vec<&TraceRecord>> = BTreeMap::new();
    for record in records {
        by_conn.entry(record.conn).or_default().push(record);
    }
    if by_conn.len() > MAX_REPLAY_CONNECTIONS {
        return Err(ApiError::bad_request(format!(
            "trace has {} connections; a replay drives at most {MAX_REPLAY_CONNECTIONS}",
            by_conn.len()
        )));
    }
    // One repetition spans the recorded window; later repetitions shift
    // past it so recorded-offset pacing stays monotonic per connection.
    let span_us = records.iter().map(|r| r.offset_us).max().unwrap_or(0) + 1;
    let mut plans: Vec<(u32, Vec<PlanItem>)> = Vec::with_capacity(by_conn.len());
    for (conn, mut conn_records) in by_conn {
        conn_records.sort_by_key(|r| r.seq);
        let mut plan = Vec::with_capacity(conn_records.len() * repeat);
        for rep in 0..repeat {
            for record in &conn_records {
                plan.push(PlanItem {
                    target_us: record.offset_us + rep as u64 * span_us,
                    kind: request_kind(&record.line),
                    line: record.line.clone(),
                });
            }
        }
        plans.push((conn, plan));
    }
    if let ReplayMode::Open { rate } = mode {
        if rate > 0.0 {
            // Fixed-rate schedule: order all requests by recorded time
            // (ties by connection then plan position) and space them
            // evenly at `rate` requests/second across the whole trace.
            let mut order: Vec<(u64, usize, usize)> = Vec::new();
            for (ci, (_, plan)) in plans.iter().enumerate() {
                for (pi, item) in plan.iter().enumerate() {
                    order.push((item.target_us, ci, pi));
                }
            }
            order.sort();
            for (i, (_, ci, pi)) in order.into_iter().enumerate() {
                plans[ci].1[pi].target_us = (i as f64 * 1_000_000.0 / rate) as u64;
            }
        }
    }
    Ok(plans)
}

/// Closed loop: keep up to `inflight` requests outstanding, blocking on
/// responses to refill the window.
fn run_conn_closed(
    stream: &TcpStream,
    plan: &[PlanItem],
    inflight: usize,
) -> Result<ConnOutput, ApiError> {
    let mut hists = kind_histograms();
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut window: VecDeque<(usize, Instant)> = VecDeque::with_capacity(inflight);
    let mut responses = Vec::with_capacity(plan.len());
    let mut send_buf = String::new();
    let mut next = 0usize;
    while responses.len() < plan.len() {
        while next < plan.len() && window.len() < inflight {
            send_buf.clear();
            send_buf.push_str(&plan[next].line);
            send_buf.push('\n');
            writer.write_all(send_buf.as_bytes()).map_err(ApiError::from)?;
            window.push_back((plan[next].kind, Instant::now()));
            next += 1;
        }
        let mut line = Vec::new();
        let n = reader.read_until(b'\n', &mut line).map_err(ApiError::from)?;
        // A line without its `\n` was cut off by the server's close.
        if n == 0 || line.last() != Some(&b'\n') {
            return Err(ApiError::io(format!(
                "server closed the connection after {} of {} responses",
                responses.len(),
                plan.len()
            )));
        }
        let (kind, sent) = window
            .pop_front()
            .ok_or_else(|| ApiError::io("response received with no request outstanding"))?;
        hists[kind].record_us(sent.elapsed().as_micros() as u64);
        responses.push(finish_line(line)?);
    }
    Ok(ConnOutput { responses, hists })
}

/// Open loop: this thread sends each request at its scheduled offset
/// while a reader thread on `scope` collects the responses. Each send
/// time reaches the reader over a channel, in request order.
fn run_conn_open<'scope>(
    scope: &'scope Scope<'scope, '_>,
    stream: &'scope TcpStream,
    plan: &'scope [PlanItem],
    start: Instant,
) -> Result<ConnOutput, ApiError> {
    let hangup = Arc::new(Hangup::new([stream]));
    let (sent_tx, sent_rx) = mpsc::channel::<Instant>();
    // Never sent on: the reader's end drops when it returns, which wakes
    // a sleeping sender once the reader has failed.
    let (reader_alive, reader_gone) = mpsc::channel::<()>();
    let reader = {
        let hangup = Arc::clone(&hangup);
        scope.spawn(move || {
            let _alive = reader_alive;
            let read = read_open(stream, plan, &sent_rx);
            if read.is_err() {
                hangup.end(&read);
            }
            read
        })
    };
    let mut writer = stream;
    for item in plan {
        let wait = (start + Duration::from_micros(item.target_us))
            .saturating_duration_since(Instant::now());
        if reader_gone.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
            break; // the reader failed; its error is the outcome
        }
        let written = writer.write_all(format!("{}\n", item.line).as_bytes());
        if written.is_err() {
            hangup.end(&written.map_err(ApiError::from));
            break;
        }
        if sent_tx.send(Instant::now()).is_err() {
            break;
        }
    }
    drop(sent_tx); // the sending is over, which the reader can see
    let read = reader.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
    hangup.outcome().unwrap_or(Ok(())).and(read)
}

/// The open-loop reader: books each response against its request's send
/// time.
fn read_open(
    stream: &TcpStream,
    plan: &[PlanItem],
    sent: &mpsc::Receiver<Instant>,
) -> Result<ConnOutput, ApiError> {
    let mut hists = kind_histograms();
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(plan.len());
    while responses.len() < plan.len() {
        let mut line = Vec::new();
        let n = reader.read_until(b'\n', &mut line).map_err(ApiError::from)?;
        if n == 0 || line.last() != Some(&b'\n') {
            // The sender drops its end once every request is out.
            while sent.try_recv().is_ok() {}
            let when = match (sent.try_recv(), n) {
                (Err(TryRecvError::Disconnected), _) => {
                    format!("after {} of {} responses", responses.len(), plan.len())
                }
                (_, 0) => "mid-replay".to_string(),
                _ => "mid-response".to_string(),
            };
            return Err(ApiError::io(format!("server closed the connection {when}")));
        }
        let at = sent
            .recv()
            .map_err(|_| ApiError::io("response received with no request outstanding"))?;
        hists[plan[responses.len()].kind].record_us(at.elapsed().as_micros() as u64);
        responses.push(finish_line(line)?);
    }
    Ok(ConnOutput { responses, hists })
}

/// One empty latency histogram per row of [`REQUEST_KINDS`].
fn kind_histograms() -> Vec<LatencyHistogram> {
    (0..REQUEST_KINDS.len()).map(|_| LatencyHistogram::new()).collect()
}

/// Strips the line terminator and validates UTF-8.
fn finish_line(mut line: Vec<u8>) -> Result<String, ApiError> {
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ApiError::io("server response is not valid UTF-8"))
}

/// Fetches the raw `GET /metrics` response from the v5 scrape listener.
fn scrape_metrics(addr: &str, timeout: Duration) -> Result<String, ApiError> {
    let mut stream = connect_with_retry(addr, timeout)?;
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n")
        .map_err(ApiError::from)?;
    let mut text = String::new();
    stream.read_to_string(&mut text).map_err(ApiError::from)?;
    Ok(text)
}

/// Connects to `addr`, retrying while the server boots.
pub(crate) fn connect_with_retry(addr: &str, timeout: Duration) -> Result<TcpStream, ApiError> {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if start.elapsed() >= timeout {
                    return Err(ApiError::io(format!(
                        "connect {addr}: {e} (gave up after {:.1}s)",
                        start.elapsed().as_secs_f64()
                    )));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// How a connection served by two threads ends. The first thread to end
/// it decides the outcome and shuts the sockets down, so the other
/// thread's blocked read sees end of file and its writes fail; what that
/// thread then makes of it is a consequence, not the cause.
pub(crate) struct Hangup<'a, const N: usize> {
    sockets: [&'a TcpStream; N],
    outcome: Mutex<Option<Result<(), ApiError>>>,
}

impl<'a, const N: usize> Hangup<'a, N> {
    pub(crate) fn new(sockets: [&'a TcpStream; N]) -> Self {
        Self { sockets, outcome: Mutex::new(None) }
    }

    /// Ends the connection with `result` as its outcome, unless a thread
    /// already ended it, and shuts every socket down.
    pub(crate) fn end<T>(&self, result: &Result<T, ApiError>) {
        let mut outcome = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        if outcome.is_none() {
            *outcome = Some(result.as_ref().map(drop).map_err(ApiError::clone));
        }
        drop(outcome);
        for socket in self.sockets {
            let _ = socket.shutdown(Shutdown::Both);
        }
    }

    /// The outcome the first [`end`](Self::end) set; `None` while the
    /// connection is open.
    pub(crate) fn outcome(&self) -> Option<Result<(), ApiError>> {
        self.outcome.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// First line where `got` differs from `want`, rendered for an error
/// message; `None` when the logs match byte for byte.
fn first_divergence(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    for (i, (w, g)) in want_lines.iter().zip(&got_lines).enumerate() {
        if w != g {
            return Some(format!("line {}: expected {w:?}, got {g:?}", i + 1));
        }
    }
    if want_lines.len() != got_lines.len() {
        return Some(format!("expected {} lines, got {}", want_lines.len(), got_lines.len()));
    }
    // Same lines, different bytes: terminator drift.
    Some("line terminators differ".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(conn: u32, seq: u32, offset_us: u64, line: &str) -> TraceRecord {
        TraceRecord::new(conn, seq, offset_us, line)
    }

    #[test]
    fn plans_group_by_conn_and_sort_by_seq() {
        let records = vec![
            record(1, 1, 30, r#"{"Stats":{"v":1}}"#),
            record(0, 0, 0, r#"{"Find":{"v":1}}"#),
            record(1, 0, 20, r#"{"Metrics":{"v":2}}"#),
        ];
        let plans = build_plans(&records, ReplayMode::Closed { inflight: 1 }, 1).unwrap();
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].0, 0);
        assert_eq!(plans[1].0, 1);
        assert_eq!(plans[1].1[0].line, r#"{"Metrics":{"v":2}}"#);
        assert_eq!(plans[1].1[1].line, r#"{"Stats":{"v":1}}"#);
        assert_eq!(plans[0].1[0].kind, 0); // find
        assert_eq!(plans[1].1[0].kind, 3); // metrics
    }

    #[test]
    fn repeat_shifts_offsets_past_the_recorded_span() {
        let records = vec![
            record(0, 0, 0, r#"{"Stats":{"v":1}}"#),
            record(0, 1, 500, r#"{"Stats":{"v":1}}"#),
        ];
        let plans = build_plans(&records, ReplayMode::Open { rate: 0.0 }, 3).unwrap();
        let targets: Vec<u64> = plans[0].1.iter().map(|p| p.target_us).collect();
        assert_eq!(targets, vec![0, 500, 501, 1001, 1002, 1502]);
    }

    #[test]
    fn fixed_rate_schedule_spaces_requests_evenly() {
        let records = vec![
            record(0, 0, 0, r#"{"Stats":{"v":1}}"#),
            record(1, 0, 10, r#"{"Stats":{"v":1}}"#),
            record(0, 1, 20, r#"{"Stats":{"v":1}}"#),
        ];
        let plans = build_plans(&records, ReplayMode::Open { rate: 100.0 }, 1).unwrap();
        // 100 req/s -> one every 10_000us, ordered by recorded offset.
        assert_eq!(plans[0].1[0].target_us, 0);
        assert_eq!(plans[1].1[0].target_us, 10_000);
        assert_eq!(plans[0].1[1].target_us, 20_000);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let records = vec![record(0, 0, 0, "x")];
        assert!(build_plans(&[], ReplayMode::Closed { inflight: 1 }, 1).is_err());
        assert!(build_plans(&records, ReplayMode::Closed { inflight: 0 }, 1).is_err());
        assert!(build_plans(&records, ReplayMode::Closed { inflight: 1 }, 0).is_err());
        assert!(build_plans(&records, ReplayMode::Open { rate: -1.0 }, 1).is_err());
        assert!(build_plans(&records, ReplayMode::Open { rate: f64::NAN }, 1).is_err());
    }

    #[test]
    fn a_trace_past_the_connection_limit_is_rejected_before_any_connect() {
        assert_eq!(MAX_REPLAY_CONNECTIONS, gtl_api::RuntimeConfig::default().max_concurrent);
        let trace = |conns: usize| -> Vec<TraceRecord> {
            (0..conns as u32).map(|c| record(c, 0, 0, r#"{"Stats":{"v":1}}"#)).collect()
        };
        let at_limit = trace(MAX_REPLAY_CONNECTIONS);
        let plans = build_plans(&at_limit, ReplayMode::Closed { inflight: 1 }, 1).unwrap();
        assert_eq!(plans.len(), MAX_REPLAY_CONNECTIONS);
        let past = trace(MAX_REPLAY_CONNECTIONS + 1);
        for mode in [ReplayMode::Closed { inflight: 1 }, ReplayMode::Open { rate: 0.0 }] {
            let err = build_plans(&past, mode, 1).unwrap_err();
            assert_eq!(err.code(), "bad_request");
            assert!(err.to_string().contains("at most 256"), "{err}");
        }
        // Many records on few connections are not limited.
        let one_conn: Vec<TraceRecord> =
            (0..1000).map(|seq| record(0, seq, 0, r#"{"Stats":{"v":1}}"#)).collect();
        assert_eq!(build_plans(&one_conn, ReplayMode::Closed { inflight: 1 }, 1).unwrap().len(), 1);
    }

    #[test]
    fn divergence_reports_first_differing_line() {
        assert_eq!(first_divergence("a\nb\n", "a\nb\n"), None);
        let detail = first_divergence("a\nb\n", "a\nc\n").unwrap();
        assert!(detail.contains("line 2"), "{detail}");
        let detail = first_divergence("a\n", "a\nb\n").unwrap();
        assert!(detail.contains("expected 1 lines, got 2"), "{detail}");
        let detail = first_divergence("a\nb\n", "a\r\nb\n").unwrap();
        assert!(detail.contains("terminators"), "{detail}");
    }

    #[test]
    fn summary_json_has_the_trend_gate_shape() {
        let report = ReplayReport {
            mode: ReplayMode::Closed { inflight: 4 },
            requests: 10,
            responses: 10,
            wall_seconds: 0.5,
            req_per_s: 20.0,
            kinds: vec![KindStats {
                kind: "stats",
                count: 10,
                p50_us: 100,
                p95_us: 200,
                p99_us: 250,
                max_us: 300,
            }],
            log: String::new(),
            scrape: None,
        };
        let parsed = serde::json::parse(&report.summary_json()).unwrap();
        assert_eq!(parsed.get("bench").and_then(Value::as_str), Some("loadgen"));
        let runs = match parsed.get("runs") {
            Some(Value::Arr(runs)) => runs,
            other => panic!("runs missing: {other:?}"),
        };
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("mode").and_then(Value::as_str), Some("closed"));
        assert_eq!(runs[0].get("req_per_s").and_then(Value::as_f64), Some(20.0));
        assert_eq!(runs[0].get("inflight").and_then(Value::as_u64), Some(4));
    }
}
