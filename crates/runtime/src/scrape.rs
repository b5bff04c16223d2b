//! The side-port Prometheus scrape endpoint that runs beside the serve loop.

use std::io::{BufRead as _, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::cache::ResponseCache;
use crate::metrics::{MetricsHub, MetricsSnapshot};
use crate::server::MAX_CONSECUTIVE_ACCEPT_ERRORS;

/// A side-port metrics scrape endpoint for [`serve_lines`](crate::serve_lines): a second
/// listener answered by a
/// dedicated I/O thread with `render`'s text for minimal HTTP/1.0
/// `GET /metrics` requests (anything else gets a 404). `render`
/// receives a fresh [`MetricsSnapshot`] per scrape; scraping is
/// observation-only and never perturbs request handling.
#[derive(Clone, Copy)]
pub struct MetricsExporter<'a> {
    /// The bound side-port listener to answer scrapes on.
    pub listener: &'a TcpListener,
    /// Renders a snapshot into the scrape response body (e.g.
    /// Prometheus text exposition, owned by the protocol layer).
    pub render: &'a (dyn Fn(&MetricsSnapshot) -> String + Sync),
}

/// The scrape endpoint's accept loop: one short-lived HTTP/1.0
/// exchange per connection, answered inline on this thread (scrapes
/// are rare and tiny; a slow scraper is bounded by the per-exchange
/// timeouts, it cannot block the serve path — only the next scraper).
pub(crate) fn scrape_loop(
    exporter: MetricsExporter<'_>,
    done: &AtomicBool,
    hub: &MetricsHub,
    cache: &ResponseCache,
) {
    let mut consecutive_errors = 0usize;
    loop {
        let stream = match exporter.listener.accept() {
            Ok((stream, _peer)) => {
                consecutive_errors = 0;
                stream
            }
            Err(_) => {
                consecutive_errors += 1;
                if done.load(Ordering::SeqCst)
                    || consecutive_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS
                {
                    return;
                }
                continue;
            }
        };
        if done.load(Ordering::SeqCst) {
            return; // the self-connection wake-up
        }
        // Scrape-side I/O failures cost only that scrape.
        let _ = answer_scrape(stream, exporter, hub, cache);
    }
}

/// One scrape exchange: read the request line (and drain the headers),
/// answer `GET /metrics` with the rendered snapshot, anything else
/// with a 404, then close. Hard timeouts bound a stalled client.
fn answer_scrape(
    stream: TcpStream,
    exporter: MetricsExporter<'_>,
    hub: &MetricsHub,
    cache: &ResponseCache,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request = String::new();
    reader.read_line(&mut request)?;
    // Drain the header block (if any) before answering, so closing the
    // socket cannot RST the response out from under a client that is
    // still mid-write.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut writer = BufWriter::new(stream);
    let path = request.strip_prefix("GET ").and_then(|rest| rest.split_whitespace().next());
    if path == Some("/metrics") {
        let body = (exporter.render)(&hub.snapshot(cache));
        write!(
            writer,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    } else {
        writer.write_all(
            b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::{bind, exchange_serially, TestHandler};
    use crate::server::{serve_lines, RuntimeConfig};

    #[test]
    fn metrics_side_port_answers_scrapes_and_404s() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let scrape_listener = bind();
        let scrape_addr = scrape_listener.local_addr().unwrap();
        let render = |snap: &MetricsSnapshot| format!("gtl_requests_total {}\n", snap.requests);
        let exporter = MetricsExporter { listener: &scrape_listener, render: &render };
        let config = RuntimeConfig {
            lanes: 1,
            cache_bytes: 0,
            pipeline_depth: 1,
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        let scrape = |request: &str| {
            let mut conn = TcpStream::connect(scrape_addr).unwrap();
            write!(conn, "{request}").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut response = String::new();
            std::io::Read::read_to_string(&mut conn, &mut response).unwrap();
            response
        };
        std::thread::scope(|scope| {
            let server = scope
                .spawn(|| serve_lines(&listener, &config, &TestHandler, Some(exporter)).unwrap());
            // Scrape while the server is live (before its one allowed
            // connection shuts it down).
            let ok = scrape("GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
            assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok:?}");
            assert!(ok.contains("Content-Type: text/plain; version=0.0.4"), "{ok:?}");
            assert!(ok.ends_with("gtl_requests_total 0\n"), "{ok:?}");
            let missing = scrape("GET /other HTTP/1.0\r\n\r\n");
            assert!(missing.starts_with("HTTP/1.0 404 Not Found\r\n"), "{missing:?}");
            // Exhaust the accept budget so the serve loop (and with it
            // the scrape thread) shuts down cleanly.
            let got = exchange_serially(addr, &["ping".to_string()]);
            assert_eq!(got, vec!["echo:ping".to_string()]);
            let report = server.join().unwrap();
            assert_eq!(report.connections, 1);
        });
    }
}
