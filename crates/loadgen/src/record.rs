//! The record proxy: a tee between JSON-lines clients and a live server.
//!
//! `gtl loadgen record` listens on one address, forwards every byte to
//! the upstream server and back, and captures each complete request line
//! into the [`trace`](crate::trace) file together with its connection id,
//! per-connection sequence number and arrival offset. Point clients at
//! the proxy instead of the server and traffic records itself.
//!
//! The proxy serves one client connection at a time on two blocking
//! threads: the calling thread forwards the client's bytes upstream and
//! captures the request lines, a second one copies the replies back.
//! Concurrent clients queue in the listen backlog — fine for the capture
//! use case, which cares about request content and pacing, not proxy
//! throughput.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gtl_api::ApiError;

use crate::replay::{connect_with_retry, Hangup};
use crate::trace::{render_line, TraceRecord};

/// Cap on one captured request line; longer lines abort the recording.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Configuration for [`record`].
#[derive(Debug, Clone)]
pub struct RecordOptions {
    /// Address the proxy listens on (e.g. `127.0.0.1:17900`).
    pub listen: String,
    /// Address of the live upstream server.
    pub upstream: String,
    /// Trace file to write.
    pub out: PathBuf,
    /// Stop after this many client connections (`0` = run forever).
    pub max_conns: usize,
    /// How long to keep retrying the upstream connect per connection.
    pub connect_timeout: Duration,
}

impl RecordOptions {
    /// Options with the defaults used by the CLI.
    pub fn new(
        listen: impl Into<String>,
        upstream: impl Into<String>,
        out: impl Into<PathBuf>,
    ) -> Self {
        Self {
            listen: listen.into(),
            upstream: upstream.into(),
            out: out.into(),
            max_conns: 0,
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// What a finished recording captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSummary {
    /// Client connections proxied.
    pub connections: u32,
    /// Request lines captured.
    pub requests: u64,
}

/// Runs the record proxy until the connection budget is exhausted.
///
/// # Errors
///
/// Returns [`ApiError::Io`] on socket or trace-file failure and
/// [`ApiError::BadRequest`] when a client sends an over-long or
/// non-UTF-8 request line.
pub fn record(options: &RecordOptions) -> Result<RecordSummary, ApiError> {
    let listener = TcpListener::bind(&options.listen)
        .map_err(|e| ApiError::io(format!("bind {}: {e}", options.listen)))?;
    record_with_listener(&listener, options)
}

/// [`record`] on an already-bound listener (tests bind port 0 and need
/// the resolved address); `options.listen` is ignored.
///
/// # Errors
///
/// As [`record`].
pub fn record_with_listener(
    listener: &TcpListener,
    options: &RecordOptions,
) -> Result<RecordSummary, ApiError> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(&options.out)?);
    let start = Instant::now();
    let mut connections = 0u32;
    let mut requests = 0u64;
    loop {
        if options.max_conns > 0 && connections as usize >= options.max_conns {
            break;
        }
        let (client, _) = listener.accept().map_err(ApiError::from)?;
        requests += proxy_connection(&client, options, connections, start, &mut |record| {
            writeln!(out, "{}", render_line(record)).map_err(ApiError::from)
        })?;
        connections += 1;
        out.flush()?;
    }
    out.flush()?;
    Ok(RecordSummary { connections, requests })
}

/// Proxies one client connection against the upstream, handing each
/// complete request line to `sink`. Returns the number of lines captured.
fn proxy_connection(
    client: &TcpStream,
    options: &RecordOptions,
    conn: u32,
    start: Instant,
    sink: &mut dyn FnMut(&TraceRecord) -> Result<(), ApiError>,
) -> Result<u64, ApiError> {
    let upstream = connect_with_retry(&options.upstream, options.connect_timeout)?;
    // Each chunk is forwarded as it is read, so a reply longer than one
    // chunk leaves in several writes; with Nagle's algorithm on, every
    // write after the first would wait for the peer's delayed ACK.
    client.set_nodelay(true).map_err(ApiError::from)?;
    upstream.set_nodelay(true).map_err(ApiError::from)?;
    let hangup = Hangup::new([client, &upstream]);
    // gtl-lint: allow(no-raw-thread, reason = "blocking socket I/O: the proxy's second thread copies replies back to the client; no compute fans out here")
    let captured = std::thread::scope(|scope| {
        // The upstream closing ends the connection, as does a failed copy.
        scope.spawn(|| {
            hangup.end(&std::io::copy(&mut &upstream, &mut &*client).map_err(ApiError::from))
        });
        let captured = forward_requests(client, &upstream, &hangup, conn, start, sink);
        if captured.is_err() {
            hangup.end(&captured);
        }
        captured
    });
    hangup.outcome().unwrap_or(Ok(())).and(captured)
}

/// Forwards the client's bytes upstream and captures its request lines
/// until the client closes or the connection ends.
fn forward_requests(
    client: &TcpStream,
    upstream: &TcpStream,
    hangup: &Hangup<'_, 2>,
    conn: u32,
    start: Instant,
    sink: &mut dyn FnMut(&TraceRecord) -> Result<(), ApiError>,
) -> Result<u64, ApiError> {
    let mut buf = [0u8; 8192];
    let mut acc: Vec<u8> = Vec::new();
    let mut seq = 0u32;
    let (mut client_r, mut upstream_w) = (client, upstream);
    loop {
        let n = client_r.read(&mut buf).map_err(ApiError::from)?;
        if n > 0 {
            upstream_w.write_all(&buf[..n]).map_err(ApiError::from)?;
            acc.extend_from_slice(&buf[..n]);
        } else if hangup.outcome().is_some() {
            // End of file after the other thread ended the connection is
            // not the client's.
            return Ok(seq as u64);
        } else if !acc.is_empty() {
            // Record a trailing unterminated fragment too — the server
            // sees those bytes and answers them at EOF.
            acc.push(b'\n');
        }
        while let Some(pos) = acc.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = acc.drain(..=pos).collect();
            line.pop(); // the \n
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let text = String::from_utf8(line)
                .map_err(|_| ApiError::bad_request("request line is not valid UTF-8"))?;
            let offset_us = start.elapsed().as_micros() as u64;
            sink(&TraceRecord::new(conn, seq, offset_us, text))?;
            seq += 1;
        }
        if n == 0 {
            let _ = upstream.shutdown(Shutdown::Write);
            return Ok(seq as u64);
        }
        if acc.len() > MAX_LINE_BYTES {
            return Err(ApiError::bad_request(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
    }
}
