//! Recorded-trace load generation for the `gtl serve` path.
//!
//! The ROADMAP's "heavy traffic" claims need to be measured, not
//! asserted. This crate provides the two halves of that measurement
//! (surfaced as `gtl loadgen`; ROADMAP direction 7 adds a hostile mode):
//!
//! * [`record`] — a proxy/tee that sits between JSON-lines clients and a
//!   live server, forwarding bytes both ways while capturing every
//!   request line into a deterministic [`trace`] file (connection id,
//!   per-connection sequence number, arrival offset, raw line);
//! * [`replay`] — drives a recorded trace (or a raw request-line file)
//!   back against a live server, open-loop (at recorded offsets or a
//!   target rate) or closed-loop (bounded in-flight window), with
//!   per-request-kind latency percentiles via
//!   [`gtl_core::obs::LatencyHistogram`], a machine-readable summary for
//!   the `gtl-bench trend` gate, and an `--expect` mode that byte-diffs
//!   responses against a golden and fails with a deterministic exit code
//!   on drift — CI's serve goldens are replayed through it.
//!
//! Replays are deterministic: requests go out in trace order per
//! connection, connections are established serially in id order (so the
//! server's accept order — and therefore its v5 trace-ID stamps — is a
//! pure function of the trace), and responses are logged in connection,
//! then sequence order. Two replays of the same trace against the same
//! server shape produce byte-identical response logs; the determinism
//! matrix in CI holds that across server thread/chunk shapes.
//!
//! Socket I/O runs on blocking threads, as in `gtl serve`, not on the
//! compute pool [`gtl_core::exec`], which caps workers at the core count:
//! a replay drives every connection at once, and the record proxy pumps
//! each direction of its one client connection on its own thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
pub mod replay;
pub mod trace;
