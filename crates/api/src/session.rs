//! The [`Session`]: one loaded netlist and the compute it serves.
//!
//! A session owns the [`Netlist`] and the statistics computed once from
//! it, and validates each request (version, then arguments) before any
//! compute starts, so a hostile request answers an error instead of
//! panicking a lane. It keeps no scratch between requests: every
//! request's buffers are its own, so concurrent `serve` connections share
//! a session without a lock. All heavy compute inside a request fans out
//! through `gtl_core::exec` (via the finder and the sharded placer), so a
//! response is byte-identical for any worker count.
//!
//! One entry point per compute kind: [`Session::find`],
//! [`Session::place`] and [`Session::stats`]. Requests arrive as
//! envelopes at the [`SessionDispatcher`](crate::SessionDispatcher), the
//! one dispatch: it resolves the session a request addresses and calls
//! that session's compute under the request's cancellation token, and
//! answers the Metrics pair and the registry kinds itself. Both layers
//! gate a request kind's first protocol version with one function.

use std::path::Path;
use std::time::{Duration, Instant};

use gtl_core::cancel::{CancelToken, Deadline};
use gtl_netlist::{bookshelf, hgr, verilog, Netlist, NetlistStats};
use gtl_place::congestion;
use gtl_tangled::TangledLogicFinder;

use crate::{
    ApiError, FindRequest, FindResponse, NetlistSummary, PlaceRequest, PlaceResponse, StatsRequest,
    StatsResponse, API_VERSION, DEADLINE_SINCE_VERSION, MIN_API_VERSION, SESSION_SINCE_VERSION,
};

/// Loads a netlist, selecting the parser from the file extension
/// (`.hgr` hMETIS, `.aux` Bookshelf, `.v` structural Verilog).
///
/// # Errors
///
/// [`ApiError::BadRequest`] for unknown extensions,
/// [`ApiError::Netlist`] for load/parse failures.
pub fn load_netlist(path: &str) -> Result<Netlist, ApiError> {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("hgr") => Ok(hgr::read(path)?),
        Some("aux") => Ok(bookshelf::read_aux(path)?.netlist),
        Some("v") => Ok(verilog::read(path)?.netlist),
        other => Err(ApiError::bad_request(format!(
            "unsupported input extension {other:?} (expected .hgr, .aux or .v)"
        ))),
    }
}

/// Caps on remote-supplied request sizes. Requests arrive over the
/// network; without bounds a single hostile line could drive the server
/// into an allocator abort (which no thread can catch) or hours of
/// compute. The caps are far above the paper-scale workloads
/// (`m = 100` seeds, `Z = 100K` orderings, 32-tile grids).
const MAX_NUM_SEEDS: usize = 100_000;
/// Cap on [`FinderConfig::max_order_len`](gtl_tangled::FinderConfig).
const MAX_ORDER_LEN: usize = 10_000_000;
/// Cap on Phase III refinement seeds per candidate.
const MAX_REFINE_SEEDS: usize = 64;
/// Cap on the congestion grid side (a `t × t` grid allocates two
/// `t²`-f64 slabs: 2048² ≈ 67 MB).
const MAX_ROUTING_TILES: usize = 2_048;
/// Cap on placer solve/spread iterations.
const MAX_PLACER_ITERATIONS: usize = 1_000;
/// Cap on CG iterations per solve.
const MAX_CG_ITERATIONS: usize = 100_000;
/// Cap on every request-supplied worker count (`0` = all cores is always
/// allowed); each worker is an OS thread.
const MAX_THREADS: usize = 1_024;
/// Cap on the requested shard-grid side (the auto-sizer itself never
/// exceeds 16; the placer allocates per-shard state for `g²` shards).
const MAX_SHARD_GRID: usize = 64;
/// Cap on spreading recursion depth (each level is a stack frame).
const MAX_SPREAD_DEPTH: usize = 256;

/// Validates a request-supplied worker count (`0` = all cores).
fn check_threads(threads: usize, field: &str) -> Result<(), ApiError> {
    if threads > MAX_THREADS {
        return Err(ApiError::invalid_argument(format!(
            "{field} must be at most {MAX_THREADS} (0 = all cores)"
        )));
    }
    Ok(())
}

/// Validates every anchor weight a placement with `config` solves with:
/// `anchor_start · anchor_growthᵏ` for each of the `iterations` passes,
/// then the epilogue's weight boosted by `anchor_final_boost`, computed
/// by the placer's own multiplications. A weight of zero (or one that
/// underflows to it) makes the anchored system singular, and an infinite
/// one turns every position into NaN, so each must be finite and
/// positive. The error names the field that first breaks a weight.
fn check_anchor_weights(config: &gtl_place::PlacerConfig) -> Result<(), ApiError> {
    let positive = |alpha: f64| alpha.is_finite() && alpha > 0.0;
    let broken = |field: &str| {
        ApiError::invalid_argument(format!(
            "placer.{field} must keep every anchor weight finite and positive"
        ))
    };
    let mut alpha = config.anchor_start;
    if !positive(alpha) {
        return Err(broken("anchor_start"));
    }
    for _ in 0..config.iterations {
        alpha *= config.anchor_growth;
        if !positive(alpha) {
            return Err(broken("anchor_growth"));
        }
    }
    if !positive(alpha * config.anchor_final_boost) {
        return Err(broken("anchor_final_boost"));
    }
    Ok(())
}

/// Builds the effective cancellation token for one request: the caller's
/// `base` token (the serve runtime's per-connection token, or a fresh
/// never-firing one for in-process dispatch), narrowed by the request's
/// `deadline_ms` anchored at `anchor` (request admission, so queue wait
/// counts against the deadline).
///
/// # Errors
///
/// [`ApiError::InvalidArgument`] when `deadline_ms` is supplied with a
/// protocol version older than [`DEADLINE_SINCE_VERSION`].
fn request_token(
    base: &CancelToken,
    v: u32,
    deadline_ms: Option<u64>,
    anchor: Instant,
) -> Result<CancelToken, ApiError> {
    match deadline_ms {
        None => Ok(base.clone()),
        Some(_) if v < DEADLINE_SINCE_VERSION => Err(ApiError::invalid_argument(format!(
            "deadline_ms requires protocol version {DEADLINE_SINCE_VERSION} (requested {v})"
        ))),
        Some(ms) => match Deadline::anchored(anchor, Duration::from_millis(ms)) {
            Some(deadline) => Ok(base.child_with_deadline(deadline)),
            // An unrepresentably far deadline is the same as none.
            None => Ok(base.clone()),
        },
    }
}

/// Accepts any version in [`MIN_API_VERSION`]`..=`[`API_VERSION`];
/// successful responses echo the request's version, so clients of an
/// older protocol receive byte-identical answers from newer builds.
fn check_version(v: u32) -> Result<(), ApiError> {
    if (MIN_API_VERSION..=API_VERSION).contains(&v) {
        Ok(())
    } else {
        Err(ApiError::UnsupportedVersion { requested: v, supported: API_VERSION })
    }
}

/// Validates the version of a request kind that exists since protocol
/// version `since` (`what` names the kind in the message): a supported
/// version first, then at least `since`. The gate of the Metrics pair
/// and the registry administration kinds.
pub(crate) fn check_since(v: u32, since: u32, what: &str) -> Result<(), ApiError> {
    check_version(v)?;
    if v < since {
        return Err(ApiError::invalid_argument(format!(
            "{what} requires protocol version {since} (requested {v})"
        )));
    }
    Ok(())
}

/// Validates a request's `session` field against its protocol version.
/// The field exists since [`SESSION_SINCE_VERSION`]; on older versions
/// it is rejected exactly like a pre-v3 `deadline_ms`, so v1–v3 behavior
/// stays build-independent. A session name carried on a new-enough
/// version is *resolved by the serve dispatcher* before the request
/// reaches a [`Session`]; at this level it is validation-only.
fn check_session_field(v: u32, session: Option<&str>) -> Result<(), ApiError> {
    match session {
        Some(_) if v < SESSION_SINCE_VERSION => Err(ApiError::invalid_argument(format!(
            "session requires protocol version {SESSION_SINCE_VERSION} (requested {v})"
        ))),
        _ => Ok(()),
    }
}

/// Builder for [`Session`] (see [`Session::builder`]).
#[derive(Debug, Default)]
pub struct SessionBuilder {
    netlist: Option<Netlist>,
}

impl SessionBuilder {
    /// Uses an already-built netlist.
    pub fn netlist(mut self, netlist: Netlist) -> Self {
        self.netlist = Some(netlist);
        self
    }

    /// Loads the netlist from a file (extension selects the parser).
    ///
    /// # Errors
    ///
    /// See [`load_netlist`].
    pub fn load(mut self, path: &str) -> Result<Self, ApiError> {
        self.netlist = Some(load_netlist(path)?);
        Ok(self)
    }

    /// Finishes the builder.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidArgument`] if no netlist was provided or the
    /// netlist is empty (the finder has nothing to search).
    pub fn build(self) -> Result<Session, ApiError> {
        let netlist =
            self.netlist.ok_or_else(|| ApiError::invalid_argument("session requires a netlist"))?;
        if netlist.num_cells() == 0 {
            return Err(ApiError::invalid_argument("netlist has no cells"));
        }
        let summary = NetlistSummary::of(&netlist);
        // The netlist is immutable for the session's lifetime, so the
        // full statistics are computed once here, not per Stats request.
        let stats = NetlistStats::compute(&netlist);
        Ok(Session { netlist, summary, stats })
    }
}

/// A loaded netlist and its statistics, serving Find, Place and Stats
/// requests.
///
/// # Example
///
/// ```
/// use gtl_api::{FindRequest, Session};
/// use gtl_netlist::NetlistBuilder;
/// use gtl_tangled::FinderConfig;
///
/// let mut b = NetlistBuilder::new();
/// let cells: Vec<_> = (0..8).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
/// for i in 0..7 {
///     b.add_anonymous_net([cells[i], cells[i + 1]]);
/// }
/// let session = Session::builder().netlist(b.finish()).build().unwrap();
///
/// let req = FindRequest::new(FinderConfig { num_seeds: 4, ..FinderConfig::default() });
/// let resp = session.find(&req).unwrap();
/// assert_eq!(resp.netlist.num_cells, 8);
/// ```
#[derive(Debug)]
pub struct Session {
    netlist: Netlist,
    summary: NetlistSummary,
    stats: NetlistStats,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The netlist this session serves.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The summary echoed in every response.
    pub fn summary(&self) -> &NetlistSummary {
        &self.summary
    }

    /// Runs the three-phase finder.
    ///
    /// # Errors
    ///
    /// Version and argument validation errors; never panics on bad
    /// requests (the preconditions the finder asserts are checked here
    /// and reported as [`ApiError::InvalidArgument`], and remote-supplied
    /// sizes are capped before any allocation happens — a hostile request
    /// must not be able to abort the server).
    pub fn find(&self, request: &FindRequest) -> Result<FindResponse, ApiError> {
        self.find_cancellable(request, &CancelToken::new(), Instant::now())
    }

    /// [`Session::find`] under a caller-supplied cancellation `base`
    /// token (the serve runtime passes the job's token) and deadline
    /// anchor. The request's `deadline_ms` (v3+) narrows the token; an
    /// already-expired deadline is answered before any compute starts,
    /// and a deadline firing mid-run aborts the finder at its next
    /// checkpoint (one seed search). Besides [`Session::find`]'s errors
    /// it reports [`ApiError::DeadlineExceeded`] / [`ApiError::Cancelled`].
    pub(crate) fn find_cancellable(
        &self,
        request: &FindRequest,
        base: &CancelToken,
        anchor: Instant,
    ) -> Result<FindResponse, ApiError> {
        check_version(request.v)?;
        check_session_field(request.v, request.session.as_deref())?;
        let token = request_token(base, request.v, request.deadline_ms, anchor)?;
        // The cheap pre-compute probe: an expired deadline (or lost
        // connection) is answered here, before any lane time is spent.
        token.checkpoint().map_err(ApiError::from)?;
        let config = request.config;
        if config.num_seeds == 0 || config.num_seeds > MAX_NUM_SEEDS {
            return Err(ApiError::invalid_argument(format!(
                "config.num_seeds must be in 1..={MAX_NUM_SEEDS}"
            )));
        }
        if config.max_order_len == 0 || config.max_order_len > MAX_ORDER_LEN {
            return Err(ApiError::invalid_argument(format!(
                "config.max_order_len must be in 1..={MAX_ORDER_LEN}"
            )));
        }
        if config.refine_seeds > MAX_REFINE_SEEDS {
            return Err(ApiError::invalid_argument(format!(
                "config.refine_seeds must be at most {MAX_REFINE_SEEDS}"
            )));
        }
        check_threads(config.threads, "config.threads")?;
        let result = TangledLogicFinder::new(&self.netlist, config).run_cancellable(&token)?;
        Ok(FindResponse { v: request.v, netlist: self.summary.clone(), result, trace: None })
    }

    /// Runs global placement and congestion estimation.
    ///
    /// # Errors
    ///
    /// Version and argument validation errors.
    pub fn place(&self, request: &PlaceRequest) -> Result<PlaceResponse, ApiError> {
        self.place_cancellable(request, &CancelToken::new(), Instant::now())
    }

    /// [`Session::place`] under a caller-supplied cancellation `base`
    /// token and deadline anchor (see `find_cancellable`); the placer
    /// checkpoints between solve/spread iterations and the congestion
    /// estimator between tile stripes.
    pub(crate) fn place_cancellable(
        &self,
        request: &PlaceRequest,
        base: &CancelToken,
        anchor: Instant,
    ) -> Result<PlaceResponse, ApiError> {
        check_version(request.v)?;
        check_session_field(request.v, request.session.as_deref())?;
        let token = request_token(base, request.v, request.deadline_ms, anchor)?;
        token.checkpoint().map_err(ApiError::from)?;
        if !(request.utilization > 0.0 && request.utilization <= 1.0) {
            return Err(ApiError::invalid_argument("utilization must be in (0, 1]"));
        }
        if request.routing.tiles == 0 || request.routing.tiles > MAX_ROUTING_TILES {
            return Err(ApiError::invalid_argument(format!(
                "routing.tiles must be in 1..={MAX_ROUTING_TILES}"
            )));
        }
        if request.placer.iterations == 0 || request.placer.iterations > MAX_PLACER_ITERATIONS {
            return Err(ApiError::invalid_argument(format!(
                "placer.iterations must be in 1..={MAX_PLACER_ITERATIONS}"
            )));
        }
        if request.placer.max_cg_iterations > MAX_CG_ITERATIONS {
            return Err(ApiError::invalid_argument(format!(
                "placer.max_cg_iterations must be at most {MAX_CG_ITERATIONS}"
            )));
        }
        if request.placer.shard_grid > MAX_SHARD_GRID {
            return Err(ApiError::invalid_argument(format!(
                "placer.shard_grid must be at most {MAX_SHARD_GRID} (0 = auto)"
            )));
        }
        let spread = &request.placer.spread;
        if spread.leaf_cells == 0 || spread.max_depth > MAX_SPREAD_DEPTH {
            return Err(ApiError::invalid_argument(format!(
                "placer.spread requires leaf_cells >= 1 and max_depth <= {MAX_SPREAD_DEPTH}"
            )));
        }
        if !(spread.target_utilization > 0.0 && spread.target_utilization.is_finite()) {
            return Err(ApiError::invalid_argument(
                "placer.spread.target_utilization must be positive and finite",
            ));
        }
        check_anchor_weights(&request.placer)?;
        // A zero capacity makes every utilization ∞ or NaN, which the
        // wire format cannot carry.
        for (capacity, field) in [
            (request.routing.h_capacity, "routing.h_capacity"),
            (request.routing.v_capacity, "routing.v_capacity"),
        ] {
            if capacity.is_some_and(|c| !(c > 0.0 && c.is_finite())) {
                return Err(ApiError::invalid_argument(format!(
                    "{field} must be positive and finite when given"
                )));
            }
        }
        check_threads(request.placer.threads, "placer.threads")?;
        check_threads(request.routing.threads, "routing.threads")?;
        let die = gtl_place::Die::for_netlist(&self.netlist, request.utilization);
        let placement = gtl_place::place_cancellable_with_scratch(
            &self.netlist,
            &die,
            &request.placer,
            &token,
            &mut gtl_place::PlaceScratch::new(),
        )?;
        let hpwl = gtl_place::hpwl(&self.netlist, &placement);
        let map = congestion::estimate_cancellable(
            &self.netlist,
            &placement,
            &die,
            &request.routing,
            &token,
        )?;
        let congestion = map.report();
        // Values each accepted on its own can still overflow together (a
        // die of side ~1e150 over capacities of 1e-300 makes every
        // utilization ∞), and the wire format renders a non-finite float
        // as `null`, which no client parses.
        let floats = [
            die.width,
            die.height,
            hpwl,
            congestion.average_congestion_pct,
            congestion.max_utilization,
            congestion.mean_utilization,
        ];
        if !floats.iter().all(|f| f.is_finite()) {
            return Err(ApiError::invalid_argument(
                "utilization, routing.h_capacity and routing.v_capacity must keep the die, \
                 the HPWL and the congestion report finite",
            ));
        }
        Ok(PlaceResponse {
            v: request.v,
            netlist: self.summary.clone(),
            die,
            hpwl,
            congestion,
            trace: None,
        })
    }

    /// Computes whole-design statistics.
    ///
    /// # Errors
    ///
    /// Version validation errors.
    pub fn stats(&self, request: &StatsRequest) -> Result<StatsResponse, ApiError> {
        check_version(request.v)?;
        check_session_field(request.v, request.session.as_deref())?;
        Ok(StatsResponse { v: request.v, stats: self.stats.clone(), trace: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::NetlistBuilder;
    use gtl_tangled::FinderConfig;

    fn two_cliques() -> Netlist {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..40).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for base in [0, 20] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    b.add_anonymous_net([cells[base + i], cells[base + j]]);
                }
            }
        }
        for i in 0..40 {
            b.add_anonymous_net([cells[i], cells[(i + 1) % 40]]);
        }
        b.finish()
    }

    fn session() -> Session {
        Session::builder().netlist(two_cliques()).build().unwrap()
    }

    fn find_request() -> FindRequest {
        FindRequest::new(FinderConfig {
            num_seeds: 12,
            min_size: 4,
            max_order_len: 24,
            rng_seed: 7,
            ..FinderConfig::default()
        })
    }

    #[test]
    fn find_discovers_structures() {
        let resp = session().find(&find_request()).unwrap();
        assert_eq!(resp.v, API_VERSION);
        assert_eq!(resp.netlist.num_cells, 40);
        assert!(!resp.result.gtls.is_empty());
    }

    #[test]
    fn version_mismatch_is_structured() {
        let mut req = find_request();
        req.v = 99;
        let err = session().find(&req).unwrap_err();
        assert_eq!(err.code(), "unsupported_version");
    }

    #[test]
    fn invalid_arguments_do_not_panic() {
        let s = session();
        let mut req = find_request();
        req.config.num_seeds = 0;
        assert_eq!(s.find(&req).unwrap_err().code(), "invalid_argument");

        // Remote-supplied sizes are capped before any allocation.
        req.config.num_seeds = usize::MAX;
        assert_eq!(s.find(&req).unwrap_err().code(), "invalid_argument");

        let mut preq = PlaceRequest::new();
        preq.utilization = 0.0;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.utilization = f64::NAN;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.utilization = 0.7;
        preq.routing.tiles = usize::MAX;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.routing.tiles = 16;
        preq.placer.shard_grid = usize::MAX;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.placer.shard_grid = 0;
        preq.placer.threads = usize::MAX;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.placer.threads = 0;
        preq.placer.spread.leaf_cells = 0;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.placer.spread.leaf_cells = 12;
        preq.placer.spread.max_depth = usize::MAX;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.placer.spread.max_depth = 48;
        preq.routing.v_capacity = Some(0.0);
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.routing.v_capacity = Some(2.0);
        preq.routing.h_capacity = Some(-1.0);
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.routing.h_capacity = Some(2.0);
        assert!(s.place(&preq).is_ok());

        let mut freq = find_request();
        freq.config.threads = usize::MAX;
        assert_eq!(s.find(&freq).unwrap_err().code(), "invalid_argument");
    }

    #[test]
    fn anchor_weights_that_break_the_solve_are_invalid_arguments() {
        let s = session();
        // (anchor_start, anchor_growth, anchor_final_boost, the field named)
        let cases = [
            (0.0, 1.6, 30.0, "anchor_start"),
            (-1.0, 1.6, 30.0, "anchor_start"),
            (0.02, 0.0, 30.0, "anchor_growth"),
            (0.02, 1.6, 0.0, "anchor_final_boost"),
            // α underflows to 0 in the second pass.
            (1e-300, 1e-100, 30.0, "anchor_growth"),
            // α overflows to ∞, which would turn every position into NaN.
            (0.02, 1e300, 30.0, "anchor_growth"),
            (0.02, 1.6, 1e308, "anchor_final_boost"),
        ];
        for shard_grid in [0, 2] {
            for (start, growth, boost, field) in cases {
                let mut req = PlaceRequest::new();
                req.placer.anchor_start = start;
                req.placer.anchor_growth = growth;
                req.placer.anchor_final_boost = boost;
                req.placer.shard_grid = shard_grid;
                let err = s.place(&req).unwrap_err();
                assert_eq!(err.code(), "invalid_argument", "{req:?}");
                assert!(err.message().contains(&format!("placer.{field} ")), "{err}");
            }
        }
        // A weight that shrinks toward zero but stays positive is served.
        let mut req = PlaceRequest::new();
        req.placer.anchor_growth = 0.5;
        assert!(s.place(&req).is_ok());
    }

    #[test]
    fn a_reply_that_would_carry_non_finite_floats_is_an_invalid_argument() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/two_cliques.hgr");
        let s = Session::builder().load(path).unwrap().build().unwrap();
        let mut req = PlaceRequest::new();
        req.utilization = 1e-300;
        req.routing.h_capacity = Some(1e-300);
        req.routing.v_capacity = Some(1e-300);
        let err = s.place(&req).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        for field in ["utilization", "routing.h_capacity", "routing.v_capacity"] {
            assert!(err.message().contains(field), "{field}: {err}");
        }
        // Each value alone keeps the reply finite and is served.
        let mut req = PlaceRequest::new();
        req.utilization = 1e-300;
        assert!(s.place(&req).is_ok());
        let mut req = PlaceRequest::new();
        req.routing.h_capacity = Some(1e-300);
        req.routing.v_capacity = Some(1e-300);
        assert!(s.place(&req).is_ok());
    }

    #[test]
    fn place_and_stats_answer() {
        let s = session();
        let place = s.place(&PlaceRequest::new()).unwrap();
        assert!(place.hpwl > 0.0);
        assert!(place.die.width > 0.0);
        let stats = s.stats(&StatsRequest::new()).unwrap();
        assert_eq!(stats.stats.num_cells, 40);
    }

    #[test]
    fn expired_deadline_answers_deadline_exceeded_before_compute() {
        let s = session();
        let mut req = find_request();
        req.deadline_ms = Some(0);
        let err = s.find(&req).unwrap_err();
        assert_eq!(err.code(), "deadline_exceeded");
        assert_eq!(err.exit_code(), 4);

        let mut preq = PlaceRequest::new();
        preq.deadline_ms = Some(0);
        assert_eq!(s.place(&preq).unwrap_err().code(), "deadline_exceeded");
    }

    #[test]
    fn deadline_ms_requires_protocol_v3() {
        let s = session();
        for v in [1, 2] {
            let mut req = find_request();
            req.v = v;
            req.deadline_ms = Some(5_000);
            let err = s.find(&req).unwrap_err();
            assert_eq!(err.code(), "invalid_argument", "v={v}");
            assert!(err.message().contains("deadline_ms"), "{}", err.message());
        }
    }

    #[test]
    fn generous_deadline_leaves_the_response_identical() {
        let s = session();
        let plain = serde::json::to_string(&s.find(&find_request()).unwrap());
        let mut req = find_request();
        req.deadline_ms = Some(3_600_000);
        let with_deadline = serde::json::to_string(&s.find(&req).unwrap());
        assert_eq!(plain, with_deadline);
        // An absurdly far deadline saturates to "no deadline".
        req.deadline_ms = Some(u64::MAX);
        assert_eq!(plain, serde::json::to_string(&s.find(&req).unwrap()));
    }

    #[test]
    fn cancelled_base_token_reaches_the_compute() {
        let s = session();
        let base = CancelToken::new();
        base.cancel();
        let err = s.find_cancellable(&find_request(), &base, Instant::now()).unwrap_err();
        assert_eq!(err.code(), "cancelled");
        let err = s.place_cancellable(&PlaceRequest::new(), &base, Instant::now()).unwrap_err();
        assert_eq!(err.code(), "cancelled");
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let s = session();
        let first = format!("{:?}", s.find(&find_request()).unwrap().result);
        let second = format!("{:?}", s.find(&find_request()).unwrap().result);
        assert_eq!(first, second);
        let first = serde::json::to_string(&s.place(&PlaceRequest::new()).unwrap());
        let second = serde::json::to_string(&s.place(&PlaceRequest::new()).unwrap());
        assert_eq!(first, second);
    }

    #[test]
    fn session_field_requires_protocol_v4() {
        let s = session();
        for v in [1, 2, 3] {
            let mut req = find_request();
            req.v = v;
            req.session = Some("other".into());
            let err = s.find(&req).unwrap_err();
            assert_eq!(err.code(), "invalid_argument", "v={v}");
            assert!(err.message().contains("session"), "{}", err.message());

            let mut preq = PlaceRequest::new();
            preq.v = v;
            preq.session = Some("other".into());
            assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument", "v={v}");

            let sreq = StatsRequest { v, session: Some("other".into()) };
            assert_eq!(s.stats(&sreq).unwrap_err().code(), "invalid_argument", "v={v}");
        }
    }

    #[test]
    fn v4_session_field_is_dispatcher_resolved_not_session_rejected() {
        // By the time a request reaches a Session, the serve dispatcher
        // has already resolved the name to this very session, so the
        // field is accepted and the response is byte-identical to the
        // session-less request (minus request bytes, which differ).
        let s = session();
        let plain = serde::json::to_string(&s.stats(&StatsRequest::new()).unwrap());
        let addressed = StatsRequest { v: API_VERSION, session: Some("default".into()) };
        assert_eq!(plain, serde::json::to_string(&s.stats(&addressed).unwrap()));
    }

    #[test]
    fn empty_netlist_rejected_at_build() {
        let err = Session::builder().netlist(NetlistBuilder::new().finish()).build().unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        let err = Session::builder().build().unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
    }
}
