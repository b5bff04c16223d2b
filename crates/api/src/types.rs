//! The versioned request/response contracts.
//!
//! Every message carries an explicit protocol version `v` (currently
//! [`API_VERSION`]); a [`Session`](crate::Session) rejects versions it
//! does not speak with a structured
//! [`unsupported_version`](crate::ApiError::UnsupportedVersion) error
//! instead of guessing. On the wire (JSON lines, see
//! [`serve`](mod@crate::serve)) requests and responses travel inside the
//! externally tagged [`Request`] / [`Response`] envelopes, e.g.
//! `{"Find":{"v":1,"config":{...}}}`.
//!
//! Serialization is deterministic — field order is declaration order and
//! floats render in shortest round-trip form — so equal responses are
//! byte-identical, which the serve determinism tests assert across worker
//! counts.

use gtl_netlist::{Netlist, NetlistStats};
use gtl_place::congestion::{CongestionReport, RoutingConfig};
use gtl_place::{Die, PlacerConfig};
use gtl_runtime::MetricsSnapshot;
use gtl_tangled::{FinderConfig, FinderResult};
use serde::{Deserialize, Serialize};

/// The newest protocol version this build speaks.
///
/// Bump when a contract changes shape incompatibly **or** gains a new
/// request pair or field (v2 added [`MetricsRequest`]/[`MetricsResponse`];
/// v3 added the optional per-request `deadline_ms` on [`FindRequest`] and
/// [`PlaceRequest`]; v4 added the optional `session` field on the
/// compute requests plus the [`LoadNetlistRequest`] /
/// [`UnloadNetlistRequest`] / [`ListSessionsRequest`] registry
/// administration pairs; v5 added the per-request `trace` echo on every
/// response body, the [`MetricsTextRequest`] / [`MetricsTextResponse`]
/// Prometheus-text pair, and the latency-summary fields on
/// [`RuntimeMetrics`]). A session accepts every version in
/// [`MIN_API_VERSION`]`..=`[`API_VERSION`] and **echoes the request's
/// version** in its response, so v1–v4 clients keep receiving bytes
/// identical to the build that introduced their protocol (for the
/// deterministic compute contracts — the live [`MetricsResponse`]
/// payload is additive instead, see [`RuntimeMetrics`]); anything
/// outside the range is answered with a structured `unsupported_version`
/// error naming both sides.
pub const API_VERSION: u32 = 5;

/// The oldest protocol version this build still speaks.
///
/// v1 (the original Find/Place/Stats contracts) is unchanged in shape,
/// so it remains fully supported.
pub const MIN_API_VERSION: u32 = 1;

/// The version that introduced the Metrics request pair; a
/// [`MetricsRequest`] with an older `v` is rejected (the pair did not
/// exist in that protocol).
pub const METRICS_SINCE_VERSION: u32 = 2;

/// The version that introduced per-request deadlines; a request carrying
/// `deadline_ms` with an older `v` is rejected with `invalid_argument`
/// (the field did not exist in that protocol, so accepting it would make
/// v1/v2 behavior build-dependent).
pub const DEADLINE_SINCE_VERSION: u32 = 3;

/// The version that introduced multi-netlist sessions: the optional
/// `session` field on [`FindRequest`] / [`PlaceRequest`] /
/// [`StatsRequest`] and the registry administration pairs
/// ([`LoadNetlistRequest`], [`UnloadNetlistRequest`],
/// [`ListSessionsRequest`]). A request carrying a `session` name with an
/// older `v` is rejected with `invalid_argument`, and the administration
/// pairs require at least this version — the same freeze discipline as
/// [`DEADLINE_SINCE_VERSION`], keeping v1–v3 behavior build-independent.
pub const SESSION_SINCE_VERSION: u32 = 4;

/// The version that introduced per-request trace IDs: responses to v5+
/// requests carry a `trace` field (last in the body), deterministically
/// derived from (connection id, request sequence) by the serve runtime.
/// Responses to v1–v4 requests omit the field entirely, byte for byte —
/// the version-echo freeze discipline. In-process sessions have no
/// connection identity, so their responses never carry a trace.
pub const TRACE_SINCE_VERSION: u32 = 5;

/// The version that introduced the Prometheus text-exposition pair
/// ([`MetricsTextRequest`] / [`MetricsTextResponse`]); like the Metrics
/// pair it reports live runtime state and is rejected for older `v`.
pub const METRICS_TEXT_SINCE_VERSION: u32 = 5;

/// Compact netlist identification echoed in every response, so clients
/// can sanity-check which design the server is bound to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetlistSummary {
    /// Number of cells, `|V|`.
    pub num_cells: usize,
    /// Number of nets, `|E|`.
    pub num_nets: usize,
    /// Total pins.
    pub num_pins: usize,
    /// Average pins per cell, `A(G)`.
    pub avg_pins_per_cell: f64,
}

impl NetlistSummary {
    /// Summarizes a netlist.
    pub fn of(netlist: &Netlist) -> Self {
        Self {
            num_cells: netlist.num_cells(),
            num_nets: netlist.num_nets(),
            num_pins: netlist.num_pins(),
            avg_pins_per_cell: netlist.avg_pins_per_cell(),
        }
    }
}

/// A request to run the three-phase finder over the session's netlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FindRequest {
    /// Protocol version (see [`API_VERSION`]).
    pub v: u32,
    /// Finder parameters. The finder's output is byte-identical for any
    /// `config.threads`, so worker count is a performance knob, not a
    /// semantic one.
    pub config: FinderConfig,
    /// Optional deadline in milliseconds (protocol v3+), measured from
    /// the moment the server admits the request — queue wait counts. An
    /// expired deadline answers a `deadline_exceeded` error without
    /// consuming compute; a deadline that fires mid-compute aborts at
    /// the next checkpoint. Responses to deadline-carrying requests are
    /// timing-dependent and therefore never cached. Absent (or `null`)
    /// means no per-request deadline.
    pub deadline_ms: Option<u64>,
    /// Optional session name (protocol v4+): run against the named
    /// loaded netlist instead of the server's default session. Absent
    /// (or `null`) means the default session — exactly the pre-v4 wire
    /// behavior, byte for byte.
    pub session: Option<String>,
}

impl FindRequest {
    /// A current-version request with the given config, no deadline and
    /// the default session.
    pub fn new(config: FinderConfig) -> Self {
        Self { v: API_VERSION, config, deadline_ms: None, session: None }
    }
}

impl Default for FindRequest {
    fn default() -> Self {
        Self::new(FinderConfig::default())
    }
}

/// The finder's answer: the discovered GTLs plus run statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FindResponse {
    /// Protocol version of this response.
    pub v: u32,
    /// The netlist the session served this request against.
    pub netlist: NetlistSummary,
    /// The finder outcome (GTLs best-first, search statistics).
    pub result: FinderResult,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for v1–v4 requests and in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

/// A request to place the session's netlist and estimate congestion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaceRequest {
    /// Protocol version (see [`API_VERSION`]).
    pub v: u32,
    /// Die utilization in `(0, 1]` (cell area / die area).
    pub utilization: f64,
    /// Global-placer parameters.
    pub placer: PlacerConfig,
    /// Congestion-estimation parameters.
    pub routing: RoutingConfig,
    /// Optional deadline in milliseconds (protocol v3+); same semantics
    /// as [`FindRequest::deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Optional session name (protocol v4+); same semantics as
    /// [`FindRequest::session`].
    pub session: Option<String>,
}

impl PlaceRequest {
    /// A current-version request with default pipeline parameters, no
    /// deadline and the default session.
    pub fn new() -> Self {
        Self {
            v: API_VERSION,
            utilization: 0.7,
            placer: PlacerConfig::default(),
            routing: RoutingConfig::default(),
            deadline_ms: None,
            session: None,
        }
    }
}

impl Default for PlaceRequest {
    fn default() -> Self {
        Self::new()
    }
}

/// The placement pipeline's answer: die, wirelength and congestion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaceResponse {
    /// Protocol version of this response.
    pub v: u32,
    /// The netlist the session served this request against.
    pub netlist: NetlistSummary,
    /// The die the placement ran on.
    pub die: Die,
    /// Half-perimeter wirelength of the global placement.
    pub hpwl: f64,
    /// Congestion statistics of the placement.
    pub congestion: CongestionReport,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for v1–v4 requests and in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

/// A request for whole-design statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsRequest {
    /// Protocol version (see [`API_VERSION`]).
    pub v: u32,
    /// Optional session name (protocol v4+); same semantics as
    /// [`FindRequest::session`].
    pub session: Option<String>,
}

impl StatsRequest {
    /// A current-version request against the default session.
    pub fn new() -> Self {
        Self { v: API_VERSION, session: None }
    }
}

impl Default for StatsRequest {
    fn default() -> Self {
        Self::new()
    }
}

/// Whole-design statistics (`gtl stats` over the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Protocol version of this response.
    pub v: u32,
    /// Full design statistics, including degree histograms.
    pub stats: NetlistStats,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for v1–v4 requests and in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

/// A request to load a netlist into the server's session registry under
/// a name (since protocol v4).
///
/// The netlist is read from `path`, resolved inside the server's
/// configured netlist directory (`gtl serve --netlist-dir`); absolute
/// paths and `..` components are rejected so a client can never address
/// files outside it. Loading may deterministically evict the coldest
/// sessions if the registry's entry or byte budget would be exceeded —
/// the response names every victim. Loading over an existing name
/// replaces it (with a fresh generation, so cached responses of the old
/// load can never answer for the new one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadNetlistRequest {
    /// Protocol version (at least [`SESSION_SINCE_VERSION`]).
    pub v: u32,
    /// The session name to register the netlist under. The reserved
    /// name `default` (the netlist the server was started with) cannot
    /// be loaded over.
    pub name: String,
    /// Path of the netlist file, relative to the server's netlist
    /// directory (`.hgr`, `.aux` or `.v`, same loaders as the CLI).
    pub path: String,
}

impl LoadNetlistRequest {
    /// A current-version load request.
    pub fn new(name: impl Into<String>, path: impl Into<String>) -> Self {
        Self { v: API_VERSION, name: name.into(), path: path.into() }
    }
}

/// Answer to [`LoadNetlistRequest`]: the registered session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadNetlistResponse {
    /// Protocol version of this response.
    pub v: u32,
    /// The session as registered (name, generation, summary).
    pub session: SessionInfo,
    /// Whether an existing session of the same name was replaced.
    pub replaced: bool,
    /// Session names evicted (coldest first) to fit this load under the
    /// registry's entry/byte budget.
    pub evicted: Vec<String>,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for v1–v4 requests and in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

/// A request to unload a named session from the registry (since
/// protocol v4).
///
/// Unloading **drains, never aborts**: requests already admitted against
/// the session keep their reference and finish normally; the netlist's
/// memory is released when the last in-flight request drops it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnloadNetlistRequest {
    /// Protocol version (at least [`SESSION_SINCE_VERSION`]).
    pub v: u32,
    /// The session name to unload. The reserved `default` session
    /// cannot be unloaded.
    pub name: String,
}

impl UnloadNetlistRequest {
    /// A current-version unload request.
    pub fn new(name: impl Into<String>) -> Self {
        Self { v: API_VERSION, name: name.into() }
    }
}

/// Answer to [`UnloadNetlistRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnloadNetlistResponse {
    /// Protocol version of this response.
    pub v: u32,
    /// The unloaded session name.
    pub name: String,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for v1–v4 requests and in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

/// A request to list the registry's resident sessions (since protocol
/// v4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ListSessionsRequest {
    /// Protocol version (at least [`SESSION_SINCE_VERSION`]).
    pub v: u32,
}

impl ListSessionsRequest {
    /// A current-version list request.
    pub fn new() -> Self {
        Self { v: API_VERSION }
    }
}

impl Default for ListSessionsRequest {
    fn default() -> Self {
        Self::new()
    }
}

/// Answer to [`ListSessionsRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ListSessionsResponse {
    /// Protocol version of this response.
    pub v: u32,
    /// Resident sessions sorted by name, with the default session (if
    /// the server has one) listed first under its reserved name.
    pub sessions: Vec<SessionInfo>,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for v1–v4 requests and in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

/// One registered session, as reported by the registry administration
/// responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionInfo {
    /// The session name.
    pub name: String,
    /// The registry generation stamped at load time — monotonically
    /// increasing and never reused, so (name, generation) uniquely
    /// identifies one load for the lifetime of the server. The default
    /// session, which lives outside the registry, reports generation 0.
    pub generation: u64,
    /// Summary of the loaded netlist.
    pub netlist: NetlistSummary,
}

/// A request for the serve runtime's metrics (since protocol v2).
///
/// Answered only by the `gtl serve` runtime, which owns the counters;
/// an in-process [`Session`](crate::Session) has no runtime attached
/// and answers with a structured `invalid_argument` error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsRequest {
    /// Protocol version (at least [`METRICS_SINCE_VERSION`]).
    pub v: u32,
}

impl MetricsRequest {
    /// A current-version request.
    pub fn new() -> Self {
        Self { v: API_VERSION }
    }
}

impl Default for MetricsRequest {
    fn default() -> Self {
        Self::new()
    }
}

/// The serve runtime's counters (`{"Metrics":..}` over the wire).
///
/// Unlike every other response, a metrics snapshot is **not** a pure
/// function of the request bytes — it reports live runtime state — so
/// the serve runtime never caches it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResponse {
    /// Protocol version of this response (echoes the request).
    pub v: u32,
    /// The runtime counters at the time the request was served.
    pub metrics: RuntimeMetrics,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for v1–v4 requests and in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

/// Wire mirror of [`gtl_runtime::MetricsSnapshot`] — a separate type so
/// the wire contract stays stable even if the runtime grows internal
/// counters.
///
/// Unlike the compute contracts (Find/Place/Stats), the Metrics payload
/// is **additive across protocol versions**: new counters (e.g. the v3
/// cancellation pair) appear for every accepted `v`, and clients must
/// ignore fields they do not know. A metrics snapshot reports live,
/// ever-changing state — it is never cached, never byte-frozen and
/// never golden-tested, so the version-echo byte freeze deliberately
/// does not apply to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeMetrics {
    /// Compute lanes (scheduler worker threads).
    pub lanes: u64,
    /// Capacity of the bounded job queue feeding the lanes.
    pub queue_capacity: u64,
    /// Max jobs in flight per connection (reorder-buffer size).
    pub pipeline_depth: u64,
    /// Max queued jobs per admission tenant (fair-share quota).
    pub tenant_quota: u64,
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Request lines admitted to the scheduler.
    pub requests: u64,
    /// Response lines successfully written back.
    pub responses: u64,
    /// Connections closed by the read/idle timeout.
    pub read_timeouts: u64,
    /// Per-connection I/O failures.
    pub io_errors: u64,
    /// Handler panics caught on a compute lane (each costs its
    /// connection, never the lane).
    pub handler_panics: u64,
    /// Jobs abandoned because their connection was lost (queued compute
    /// skipped; nobody left to answer).
    pub jobs_cancelled: u64,
    /// Requests answered with a `deadline_exceeded` error.
    pub deadlines_exceeded: u64,
    /// Fair-share invariant breaches (a tenant served twice in a row
    /// while another was waiting). Structurally zero.
    pub fair_share_violations: u64,
    /// Jobs waiting in the scheduler queue (last observed).
    pub queue_depth: u64,
    /// Highest queue depth observed so far.
    pub queue_high_water: u64,
    /// Response-cache byte budget (`0` = caching disabled).
    pub cache_capacity_bytes: u64,
    /// Response-cache resident entries.
    pub cache_entries: u64,
    /// Response-cache resident bytes.
    pub cache_bytes: u64,
    /// Response-cache lookup hits.
    pub cache_hits: u64,
    /// Response-cache lookup misses.
    pub cache_misses: u64,
    /// Response-cache evictions under the byte budget.
    pub cache_evictions: u64,
    /// Response-cache insertions.
    pub cache_insertions: u64,
    /// Sessions currently resident in the registry (excludes the
    /// default session, which lives outside it).
    pub sessions_active: u64,
    /// Netlists loaded into the registry since the server started.
    pub sessions_loaded: u64,
    /// Sessions evicted under the registry's entry/byte budget.
    pub sessions_evicted: u64,
    /// Sessions explicitly unloaded.
    pub sessions_unloaded: u64,
    /// Bytes currently charged against the registry budget.
    pub registry_bytes: u64,
    /// The registry's byte budget (`0` = unlimited).
    pub registry_capacity_bytes: u64,
    /// Responses stamped with a trace ID (protocol v5+ requests).
    pub responses_traced: u64,
    /// Per-serve-stage latency summaries (queue-wait, lane-compute,
    /// serialize, writer-flush), in a fixed stage order.
    pub stage_latency: Vec<LatencyStats>,
    /// Per-request-kind latency summaries (find/place/stats/admin/…),
    /// sorted by kind label.
    pub kind_latency: Vec<LatencyStats>,
}

/// Wire mirror of [`gtl_runtime::LatencySummary`]: one labelled latency
/// distribution, pre-digested into count/sum/max, the p50/p95/p99
/// bucket upper bounds, and cumulative counts at the fixed scrape
/// boundaries ([`gtl_core::obs::SCRAPE_BOUNDS_US`], ascending).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// The stage or request-kind label.
    pub label: String,
    /// Recorded observations.
    pub count: u64,
    /// Sum of all observations, in microseconds.
    pub sum_us: u64,
    /// Largest observation, in microseconds.
    pub max_us: u64,
    /// Median latency (bucket upper bound), in microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency (bucket upper bound), in microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency (bucket upper bound), in microseconds.
    pub p99_us: u64,
    /// Cumulative observation counts at the fixed scrape boundaries.
    pub buckets: Vec<u64>,
}

impl From<gtl_runtime::LatencySummary> for LatencyStats {
    fn from(summary: gtl_runtime::LatencySummary) -> Self {
        Self {
            label: summary.label,
            count: summary.count,
            sum_us: summary.sum_us,
            max_us: summary.max_us,
            p50_us: summary.p50_us,
            p95_us: summary.p95_us,
            p99_us: summary.p99_us,
            buckets: summary.buckets,
        }
    }
}

impl From<MetricsSnapshot> for RuntimeMetrics {
    fn from(snapshot: MetricsSnapshot) -> Self {
        Self {
            lanes: snapshot.lanes,
            queue_capacity: snapshot.queue_capacity,
            pipeline_depth: snapshot.pipeline_depth,
            tenant_quota: snapshot.tenant_quota,
            connections_accepted: snapshot.connections_accepted,
            connections_active: snapshot.connections_active,
            requests: snapshot.requests,
            responses: snapshot.responses,
            read_timeouts: snapshot.read_timeouts,
            io_errors: snapshot.io_errors,
            handler_panics: snapshot.handler_panics,
            jobs_cancelled: snapshot.jobs_cancelled,
            deadlines_exceeded: snapshot.deadlines_exceeded,
            fair_share_violations: snapshot.fair_share_violations,
            queue_depth: snapshot.queue_depth,
            queue_high_water: snapshot.queue_high_water,
            cache_capacity_bytes: snapshot.cache_capacity_bytes,
            cache_entries: snapshot.cache_entries,
            cache_bytes: snapshot.cache_bytes,
            cache_hits: snapshot.cache_hits,
            cache_misses: snapshot.cache_misses,
            cache_evictions: snapshot.cache_evictions,
            cache_insertions: snapshot.cache_insertions,
            // The runtime snapshot has no registry view — the serve
            // dispatcher overlays these from its RegistryStats.
            sessions_active: 0,
            sessions_loaded: 0,
            sessions_evicted: 0,
            sessions_unloaded: 0,
            registry_bytes: 0,
            registry_capacity_bytes: 0,
            responses_traced: snapshot.responses_traced,
            stage_latency: snapshot.stage_latency.into_iter().map(LatencyStats::from).collect(),
            kind_latency: snapshot.kind_latency.into_iter().map(LatencyStats::from).collect(),
        }
    }
}

/// A request for the runtime's metrics in Prometheus text exposition
/// format (since protocol v5).
///
/// Like [`MetricsRequest`], this is answered only by the `gtl serve`
/// runtime; an in-process session answers with `invalid_argument`. The
/// same text is served on the optional `gtl serve --metrics-port` side
/// listener as a minimal HTTP/1.0 `GET /metrics` endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsTextRequest {
    /// Protocol version (at least [`METRICS_TEXT_SINCE_VERSION`]).
    pub v: u32,
}

impl MetricsTextRequest {
    /// A current-version request.
    pub fn new() -> Self {
        Self { v: API_VERSION }
    }
}

impl Default for MetricsTextRequest {
    fn default() -> Self {
        Self::new()
    }
}

/// Answer to [`MetricsTextRequest`]: the Prometheus text rendering of
/// the live counters (see [`crate::prom::render_prometheus`]).
///
/// Like [`MetricsResponse`] this reports live state: never cached,
/// never byte-frozen, never golden-tested (only the *rendering* is
/// deterministic for fixed counter values, which is).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsTextResponse {
    /// Protocol version of this response (echoes the request).
    pub v: u32,
    /// The Prometheus text exposition body (`\n`-separated lines).
    pub text: String,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

/// The structured error payload carried on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Protocol version of this response. Echoes the request's version
    /// when that version is supported (so v1 clients see v1 error
    /// bytes); [`API_VERSION`] for `unsupported_version` errors and
    /// unparseable requests, where no valid version is known.
    pub v: u32,
    /// Stable machine-readable code (see [`ApiError::code`]).
    ///
    /// [`ApiError::code`]: crate::ApiError::code
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// This request's trace ID (protocol v5+): stamped into the
    /// response by the serve runtime, `None` — and omitted from the
    /// wire entirely — for v1–v4 requests and in-process sessions.
    #[serde(skip_if_null)]
    pub trace: Option<String>,
}

impl From<&crate::ApiError> for ErrorBody {
    fn from(err: &crate::ApiError) -> Self {
        Self { v: API_VERSION, code: err.code().to_string(), message: err.message(), trace: None }
    }
}

/// The wire request envelope: one externally tagged JSON object per line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Run the finder.
    Find(FindRequest),
    /// Run the placement + congestion pipeline.
    Place(PlaceRequest),
    /// Fetch design statistics.
    Stats(StatsRequest),
    /// Fetch serve-runtime metrics (since protocol v2).
    Metrics(MetricsRequest),
    /// Fetch serve-runtime metrics as Prometheus text (since protocol
    /// v5).
    MetricsText(MetricsTextRequest),
    /// Load a netlist into the session registry (since protocol v4).
    LoadNetlist(LoadNetlistRequest),
    /// Unload a named session (since protocol v4).
    UnloadNetlist(UnloadNetlistRequest),
    /// List resident sessions (since protocol v4).
    ListSessions(ListSessionsRequest),
}

impl Request {
    /// The protocol version `v` the request was sent at (every variant
    /// carries one).
    pub fn v(&self) -> u32 {
        match self {
            Self::Find(req) => req.v,
            Self::Place(req) => req.v,
            Self::Stats(req) => req.v,
            Self::Metrics(req) => req.v,
            Self::MetricsText(req) => req.v,
            Self::LoadNetlist(req) => req.v,
            Self::UnloadNetlist(req) => req.v,
            Self::ListSessions(req) => req.v,
        }
    }

    /// The request's `deadline_ms`, for the variants that carry one
    /// (compute-heavy Find/Place; the other pairs answer in
    /// microseconds and have no deadline field).
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Self::Find(req) => req.deadline_ms,
            Self::Place(req) => req.deadline_ms,
            Self::Stats(_)
            | Self::Metrics(_)
            | Self::MetricsText(_)
            | Self::LoadNetlist(_)
            | Self::UnloadNetlist(_)
            | Self::ListSessions(_) => None,
        }
    }

    /// The session name this request addresses, for the compute
    /// variants that carry one (protocol v4+). `None` means the default
    /// session; the administration variants address the registry
    /// itself, not a session.
    pub fn session(&self) -> Option<&str> {
        match self {
            Self::Find(req) => req.session.as_deref(),
            Self::Place(req) => req.session.as_deref(),
            Self::Stats(req) => req.session.as_deref(),
            Self::Metrics(_)
            | Self::MetricsText(_)
            | Self::LoadNetlist(_)
            | Self::UnloadNetlist(_)
            | Self::ListSessions(_) => None,
        }
    }
}

/// The wire response envelope, mirroring [`Request`] plus
/// [`Response::Error`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Find`].
    Find(FindResponse),
    /// Answer to [`Request::Place`].
    Place(PlaceResponse),
    /// Answer to [`Request::Stats`].
    Stats(StatsResponse),
    /// Answer to [`Request::Metrics`].
    Metrics(MetricsResponse),
    /// Answer to [`Request::MetricsText`].
    MetricsText(MetricsTextResponse),
    /// Answer to [`Request::LoadNetlist`].
    LoadNetlist(LoadNetlistResponse),
    /// Answer to [`Request::UnloadNetlist`].
    UnloadNetlist(UnloadNetlistResponse),
    /// Answer to [`Request::ListSessions`].
    ListSessions(ListSessionsResponse),
    /// Any failure, with a stable code.
    Error(ErrorBody),
}
