//! `gtl-api` — the versioned, serializable entry point to the
//! tangled-logic system.
//!
//! The workspace's algorithms (`gtl-tangled`, `gtl-place`) expose plain
//! Rust types; this crate wraps them in **wire contracts** so every
//! front-end — the `gtl` CLI's `find --json`, the `gtl serve` JSON-lines
//! server, tests, future backends — speaks exactly one language:
//!
//! * [`FindRequest`] / [`FindResponse`], [`PlaceRequest`] /
//!   [`PlaceResponse`], [`StatsRequest`] / [`StatsResponse`],
//!   [`MetricsRequest`] / [`MetricsResponse`] (since v2): versioned
//!   (`v`, see [`API_VERSION`]; every version in
//!   [`MIN_API_VERSION`]`..=`[`API_VERSION`] is accepted and echoed
//!   back) request/response pairs wrapping
//!   [`FinderConfig`](gtl_tangled::FinderConfig) /
//!   [`FinderResult`](gtl_tangled::FinderResult), the placement
//!   pipeline, and the serve runtime's counters, all deriving real
//!   `serde` serialization;
//! * [`Request`] / [`Response`]: the externally tagged envelopes that
//!   travel as JSON lines;
//! * [`LoadNetlistRequest`] / [`UnloadNetlistRequest`] /
//!   [`ListSessionsRequest`] (since v4): registry administration — named
//!   multi-netlist sessions with deterministic LRU eviction under a
//!   byte budget, served by the [`SessionDispatcher`];
//! * [`ApiError`]: structured errors with stable codes
//!   (`bad_request`, `unsupported_version`, `invalid_argument`,
//!   `netlist`, `io`, `unknown_session`) and conventional CLI exit
//!   codes;
//! * [`Session`]: a builder-constructed owner of one loaded
//!   [`Netlist`](gtl_netlist::Netlist) that validates and computes
//!   Find, Place and Stats requests;
//! * [`SessionDispatcher`]: the default session plus a budgeted
//!   registry of named sessions — the one dispatch, in-process
//!   ([`SessionDispatcher::handle_line`]) and in `gtl serve`. It
//!   answers all eight request kinds, resolving each compute request's
//!   optional `session` field (v4+) to the session it addresses;
//! * [`serve`](mod@serve): the TCP JSON-lines server the `gtl serve`
//!   subcommand runs, on the [`gtl_runtime`] bounded service runtime: a
//!   fixed pool of compute lanes behind a bounded queue (backpressure),
//!   per-connection pipelining with order-preserving reorder buffers, a
//!   deterministic LRU response cache, read/idle timeouts and a
//!   max-concurrent-connections gate. [`serve()`] takes the dispatcher
//!   and a [`RuntimeConfig`] and returns a [`ServeReport`] (both
//!   re-exported from `gtl_runtime`); [`RuntimeConfig::default()`] is
//!   what `gtl serve` runs with no flags.
//!
//! # Determinism
//!
//! Responses are **byte-identical** for any worker count: request compute
//! fans out through `gtl_core::exec`, and the JSON renderer is
//! deterministic (declaration-ordered fields, shortest round-trip
//! floats). A `FindResponse` obtained over TCP equals the one from
//! `gtl find --json`, byte for byte — for any lane count, cache size
//! (a cache hit returns exactly the bytes a fresh compute would;
//! property-tested) and pipeline depth. The one exception is
//! [`MetricsResponse`], which reports live runtime counters and is
//! never cached.
//!
//! # Example
//!
//! ```
//! use gtl_api::{FindRequest, Request, Session, SessionDispatcher};
//! use gtl_netlist::NetlistBuilder;
//! use gtl_tangled::FinderConfig;
//!
//! let mut b = NetlistBuilder::new();
//! let cells: Vec<_> = (0..10).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
//! for i in 0..9 {
//!     b.add_anonymous_net([cells[i], cells[i + 1]]);
//! }
//! let session = Session::builder().netlist(b.finish()).build().unwrap();
//! let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
//!
//! // One JSON line in, one JSON line out: the bytes `gtl serve` answers
//! // with, before it stamps a v5 reply's trace.
//! let config = FinderConfig { num_seeds: 4, ..FinderConfig::default() };
//! let line = serde::json::to_string(&Request::Find(FindRequest::new(config)));
//! let reply = dispatcher.handle_line(&line);
//! assert!(reply.starts_with("{\"Find\":"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod prom;
mod registry;
pub mod serve;
mod session;
mod types;

pub use error::ApiError;
pub use gtl_runtime::{RuntimeConfig, ServeReport};
pub use registry::{netlist_cost, SessionDispatcher, DEFAULT_SESSION};
pub use serve::{bind, request_kind, serve, REQUEST_KINDS};
pub use session::{load_netlist, Session, SessionBuilder};
pub use types::{
    ErrorBody, FindRequest, FindResponse, LatencyStats, ListSessionsRequest, ListSessionsResponse,
    LoadNetlistRequest, LoadNetlistResponse, MetricsRequest, MetricsResponse, MetricsTextRequest,
    MetricsTextResponse, NetlistSummary, PlaceRequest, PlaceResponse, Request, Response,
    RuntimeMetrics, SessionInfo, StatsRequest, StatsResponse, UnloadNetlistRequest,
    UnloadNetlistResponse, API_VERSION, DEADLINE_SINCE_VERSION, METRICS_SINCE_VERSION,
    METRICS_TEXT_SINCE_VERSION, MIN_API_VERSION, SESSION_SINCE_VERSION, TRACE_SINCE_VERSION,
};
