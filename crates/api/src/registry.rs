//! The [`SessionDispatcher`]: multi-netlist session serving on top of
//! the runtime's [`Registry`].
//!
//! `gtl serve` starts with one netlist — the **default session**, which
//! lives outside the registry, can never be unloaded or evicted, and
//! answers every request that carries no `session` field exactly as
//! every pre-v4 build did, byte for byte. Protocol v4 adds named
//! sessions on top: [`LoadNetlistRequest`] registers a netlist from the
//! server's netlist directory under a name, [`UnloadNetlistRequest`]
//! removes it, [`ListSessionsRequest`] enumerates residents, and the
//! compute requests (Find/Place/Stats) grow an optional `session` field
//! addressing a named session.
//!
//! # Invariants
//!
//! * **Deterministic eviction.** The registry is byte- and
//!   entry-budgeted; a load that does not fit evicts the coldest
//!   sessions in strict LRU order and reports every victim in its
//!   response, so eviction is a pure function of the operation order —
//!   never of lane count or timing.
//! * **Drain, never abort.** Unloading (or evicting) a session only
//!   drops the registry's reference. Requests already dispatched against
//!   it hold their own [`Arc`] and finish normally; the memory is
//!   released when the last one drops it.
//! * **Cache transparency per session, never across sessions.** The
//!   response cache is keyed by the request line alone, and each reply is
//!   stamped with the *generation* of the session it was computed on —
//!   `0` for the default session, a registry generation (monotonically
//!   increasing, never reused) for a named one. A stored reply answers
//!   only while its generation is still resident, so a reload under the
//!   same name can never be answered with the previous load's bytes,
//!   while byte-identical requests against one load keep hitting.

use std::borrow::Cow;
use std::path::{Component, Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gtl_core::cancel::CancelToken;
use gtl_netlist::Netlist;
use gtl_runtime::{Cacheability, Classified, MetricsSnapshot, Registry, RegistryStats};

use crate::serve::{request_kind, REQUEST_KINDS};
use crate::session::check_since;
use crate::{
    load_netlist, ApiError, ErrorBody, ListSessionsRequest, ListSessionsResponse,
    LoadNetlistRequest, LoadNetlistResponse, MetricsResponse, MetricsTextResponse, Request,
    Response, RuntimeMetrics, Session, SessionInfo, UnloadNetlistRequest, UnloadNetlistResponse,
    API_VERSION, METRICS_SINCE_VERSION, METRICS_TEXT_SINCE_VERSION, SESSION_SINCE_VERSION,
};

/// The reserved name of the netlist the server was started with. It is
/// addressable (`"session":"default"` behaves like an absent `session`
/// field) but can never be loaded over, unloaded or evicted.
pub const DEFAULT_SESSION: &str = "default";

/// Deterministic byte-cost estimate of a resident netlist session,
/// charged against the registry budget: per-cell, per-net and per-pin
/// footprints of the CSR storage plus session scratch, and a flat
/// overhead. An estimate (not an allocator measurement) keeps eviction
/// decisions identical on every platform and allocator.
pub fn netlist_cost(netlist: &Netlist) -> usize {
    1024 + 64 * netlist.num_cells() + 48 * netlist.num_nets() + 16 * netlist.num_pins()
}

/// A default [`Session`] plus a budgeted [`Registry`] of named sessions,
/// dispatching [`Request`]s to whichever session they address.
///
/// This is the one dispatch, in-process ([`SessionDispatcher::handle`],
/// [`SessionDispatcher::handle_line`]) and in `gtl serve`, whose runtime
/// drives it as a [`LineHandler`](gtl_runtime::LineHandler). It owns
/// session *resolution* (names, generations, the registry), the Metrics
/// pair and the registry kinds, while each [`Session`] owns request
/// *validation and compute*.
///
/// # Example
///
/// ```
/// use gtl_api::{SessionDispatcher, ListSessionsRequest, Session};
/// use gtl_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let cells: Vec<_> = (0..4).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
/// b.add_anonymous_net(cells.clone());
/// let session = Session::builder().netlist(b.finish()).build().unwrap();
///
/// let dispatcher = SessionDispatcher::new(&session, 4, 0, None);
/// let listed = dispatcher.list(&ListSessionsRequest::new()).unwrap();
/// assert_eq!(listed.sessions.len(), 1); // just the default session
/// assert_eq!(listed.sessions[0].name, "default");
/// assert_eq!(listed.sessions[0].generation, 0);
/// ```
#[derive(Debug)]
pub struct SessionDispatcher<'s> {
    default: &'s Session,
    registry: Registry<Session>,
    netlist_dir: Option<PathBuf>,
}

impl<'s> SessionDispatcher<'s> {
    /// Creates a dispatcher over `default` with a registry capped at
    /// `max_netlists` named sessions (`0` = unlimited) and
    /// `registry_bytes` estimated bytes (`0` = unlimited). `netlist_dir`
    /// is the only directory [`LoadNetlistRequest`] paths may resolve
    /// into; without one, loading is rejected.
    pub fn new(
        default: &'s Session,
        max_netlists: usize,
        registry_bytes: usize,
        netlist_dir: Option<PathBuf>,
    ) -> Self {
        Self { default, registry: Registry::new(max_netlists, registry_bytes), netlist_dir }
    }

    /// A snapshot of the registry's occupancy and counters.
    pub fn registry_stats(&self) -> RegistryStats {
        self.registry.stats()
    }

    /// Looks up a named *registry* session (promoting it to
    /// most-recently-used), returning the shared session and its
    /// generation. The default session lives outside the registry.
    pub fn session(&self, name: &str) -> Option<(Arc<Session>, u64)> {
        self.registry.get(name)
    }

    /// Resolves a [`LoadNetlistRequest`] path inside the configured
    /// netlist directory. Absolute paths and any non-plain component
    /// (`..`, `.`, prefixes) are rejected so remote clients can never
    /// address files outside the directory.
    fn resolve_path(&self, path: &str) -> Result<PathBuf, ApiError> {
        let dir = self.netlist_dir.as_deref().ok_or_else(|| {
            ApiError::invalid_argument(
                "this server has no netlist directory (start `gtl serve` with --netlist-dir to \
                 allow LoadNetlist)",
            )
        })?;
        let rel = Path::new(path);
        let confined = !path.is_empty()
            && !rel.is_absolute()
            && rel.components().all(|c| matches!(c, Component::Normal(_)));
        if !confined {
            return Err(ApiError::invalid_argument(format!(
                "netlist path {path:?} must be relative to the server's netlist directory, \
                 without `..` components"
            )));
        }
        Ok(dir.join(rel))
    }

    /// Serves a [`LoadNetlistRequest`]: reads the netlist, builds a
    /// session, and registers it — deterministically evicting the
    /// coldest sessions if the registry budget requires it (every
    /// victim is named in the response).
    ///
    /// # Errors
    ///
    /// Version gating, name/path validation, netlist load failures, and
    /// `invalid_argument` when the netlist alone exceeds the registry's
    /// byte budget.
    pub fn load(&self, request: &LoadNetlistRequest) -> Result<LoadNetlistResponse, ApiError> {
        check_since(request.v, SESSION_SINCE_VERSION, "LoadNetlist")?;
        if request.name.is_empty() {
            return Err(ApiError::invalid_argument("session name must not be empty"));
        }
        if request.name == DEFAULT_SESSION {
            return Err(ApiError::invalid_argument(
                "the session name \"default\" is reserved for the netlist the server was \
                 started with",
            ));
        }
        let path = self.resolve_path(&request.path)?;
        let path = path
            .to_str()
            .ok_or_else(|| ApiError::invalid_argument("netlist path is not valid UTF-8"))?;
        let netlist = load_netlist(path)?;
        let cost = netlist_cost(&netlist);
        let session = Session::builder().netlist(netlist).build()?;
        let summary = session.summary().clone();
        let outcome = self
            .registry
            .insert(&request.name, session, cost)
            .map_err(|e| ApiError::invalid_argument(e.to_string()))?;
        Ok(LoadNetlistResponse {
            v: request.v,
            session: SessionInfo {
                name: request.name.clone(),
                generation: outcome.generation,
                netlist: summary,
            },
            replaced: outcome.replaced,
            evicted: outcome.evicted.iter().map(|name| name.to_string()).collect(),
            trace: None,
        })
    }

    /// Serves an [`UnloadNetlistRequest`]. Unloading drops only the
    /// registry's reference — in-flight requests against the session
    /// drain normally.
    ///
    /// # Errors
    ///
    /// Version gating, the reserved default name, and
    /// [`ApiError::UnknownSession`] when nothing is registered under
    /// the name.
    pub fn unload(
        &self,
        request: &UnloadNetlistRequest,
    ) -> Result<UnloadNetlistResponse, ApiError> {
        check_since(request.v, SESSION_SINCE_VERSION, "UnloadNetlist")?;
        if request.name == DEFAULT_SESSION {
            return Err(ApiError::invalid_argument("the default session cannot be unloaded"));
        }
        match self.registry.remove(&request.name) {
            Some(_session) => {
                Ok(UnloadNetlistResponse { v: request.v, name: request.name.clone(), trace: None })
            }
            None => Err(ApiError::unknown_session(&request.name)),
        }
    }

    /// Serves a [`ListSessionsRequest`]: the default session first, then
    /// every registered session sorted by name.
    ///
    /// # Errors
    ///
    /// Version gating.
    pub fn list(&self, request: &ListSessionsRequest) -> Result<ListSessionsResponse, ApiError> {
        check_since(request.v, SESSION_SINCE_VERSION, "ListSessions")?;
        let mut sessions = vec![SessionInfo {
            name: DEFAULT_SESSION.to_string(),
            generation: 0,
            netlist: self.default.summary().clone(),
        }];
        sessions.extend(self.registry.list().into_iter().map(|entry| SessionInfo {
            name: entry.name.to_string(),
            generation: entry.generation,
            netlist: entry.value.summary().clone(),
        }));
        Ok(ListSessionsResponse { v: request.v, sessions, trace: None })
    }

    /// The complete [`RuntimeMetrics`] view for a runtime snapshot: the
    /// wire mirror of the snapshot plus the registry counters only this
    /// crate can see. Every export path — the v2+ `Metrics` pair, the
    /// v5+ `MetricsText` pair, the Prometheus side-port scrape and the
    /// serve exit summary — goes through here, so they can never
    /// disagree on a counter.
    pub fn runtime_metrics(&self, snapshot: MetricsSnapshot) -> RuntimeMetrics {
        let mut metrics = RuntimeMetrics::from(snapshot);
        let stats = self.registry.stats();
        metrics.sessions_active = stats.entries;
        metrics.sessions_loaded = stats.loads;
        metrics.sessions_evicted = stats.evictions;
        metrics.sessions_unloaded = stats.unloads;
        metrics.registry_bytes = stats.bytes;
        metrics.registry_capacity_bytes = stats.capacity_bytes;
        metrics
    }

    /// The one dispatch of a request, and the only code that matches its
    /// kind:
    ///
    /// * Find, Place and Stats run on the session they address (see
    ///   `on_addressed`), under `base` narrowed by the request's
    ///   `deadline_ms` anchored at `anchor`;
    /// * the Metrics pair is answered from `metrics`, the serve runtime's
    ///   snapshot, overlaid with the registry counters
    ///   ([`SessionDispatcher::runtime_metrics`]). The snapshot is taken
    ///   only for these two kinds; without one (in-process dispatch) they
    ///   are an `invalid_argument` error;
    /// * registry administration requests are served here.
    ///
    /// A reply comes with whether the response cache may store it: a
    /// successful compute reply is a pure function of its line and its
    /// session's generation (a server deadline makes only the outcome
    /// timing-dependent, and a hit always meets it), unless the request
    /// carries its own `deadline_ms` (the deadline is part of the key
    /// bytes, so one client could otherwise mint an entry per deadline
    /// value and evict everything else). Metrics and registry replies
    /// report or change live state, and are never stored.
    pub(crate) fn dispatch(
        &self,
        request: &Request,
        base: &CancelToken,
        anchor: Instant,
        metrics: Option<&dyn Fn() -> MetricsSnapshot>,
    ) -> Result<(Response, Cacheability), ApiError> {
        let computed = |response| match request.deadline_ms() {
            None => (response, Cacheability::Cacheable),
            Some(_) => (response, Cacheability::Uncacheable),
        };
        let live = |response| (response, Cacheability::Uncacheable);
        let no_runtime = || {
            ApiError::invalid_argument(
                "Metrics is served by the `gtl serve` runtime (no runtime is attached to an \
                 in-process session)",
            )
        };
        Ok(match request {
            Request::Find(req) => computed(Response::Find(
                self.on_addressed(request, |s| s.find_cancellable(req, base, anchor))?,
            )),
            Request::Place(req) => computed(Response::Place(
                self.on_addressed(request, |s| s.place_cancellable(req, base, anchor))?,
            )),
            Request::Stats(req) => {
                computed(Response::Stats(self.on_addressed(request, |s| s.stats(req))?))
            }
            Request::Metrics(req) => {
                let snapshot = metrics.ok_or_else(no_runtime)?;
                check_since(req.v, METRICS_SINCE_VERSION, "Metrics")?;
                let metrics = self.runtime_metrics(snapshot());
                live(Response::Metrics(MetricsResponse { v: req.v, metrics, trace: None }))
            }
            Request::MetricsText(req) => {
                let snapshot = metrics.ok_or_else(no_runtime)?;
                check_since(req.v, METRICS_TEXT_SINCE_VERSION, "MetricsText")?;
                let text = crate::prom::render_prometheus(&self.runtime_metrics(snapshot()));
                live(Response::MetricsText(MetricsTextResponse { v: req.v, text, trace: None }))
            }
            Request::LoadNetlist(req) => live(Response::LoadNetlist(self.load(req)?)),
            Request::UnloadNetlist(req) => live(Response::UnloadNetlist(self.unload(req)?)),
            Request::ListSessions(req) => live(Response::ListSessions(self.list(req)?)),
        })
    }

    /// Runs `compute` on the session `request` addresses: a resident
    /// named session, promoted as its lookup does
    /// ([`unknown_session`](ApiError::UnknownSession) if it is not
    /// resident), or the default session for an absent field, `"default"`
    /// and a pre-v4 version. A pre-v4 `session` name thus reaches the
    /// default session unresolved and is rejected there with
    /// `invalid_argument`, keeping frozen-version behavior
    /// build-independent.
    fn on_addressed<T>(
        &self,
        request: &Request,
        compute: impl FnOnce(&Session) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        match addressed_session(request) {
            Some(name) if name != DEFAULT_SESSION => {
                let (session, _generation) =
                    self.registry.get(name).ok_or_else(|| ApiError::unknown_session(name))?;
                compute(&session)
            }
            _ => compute(self.default),
        }
    }

    /// Answers one request in-process: the one dispatch, with no external
    /// cancellation and no runtime, every failure a [`Response::Error`]
    /// (this never fails). Errors echo the request's version unless that
    /// version is unsupported.
    pub fn handle(&self, request: &Request) -> Response {
        match self.dispatch(request, &CancelToken::new(), Instant::now(), None) {
            Ok((response, _)) => response,
            Err(err) => error_response(&err, request.v()),
        }
    }

    /// The in-process wire round trip for one JSON line: parse once,
    /// [`SessionDispatcher::handle`], serialize. Every kind but the
    /// Metrics pair is answered with the bytes `gtl serve` writes before
    /// it stamps a v5 reply's trace; malformed input is a `bad_request`
    /// error. The result is one JSON document with no trailing newline,
    /// and the same line (against the same sessions) always yields the
    /// same bytes, for any `threads` value and any machine.
    pub fn handle_line(&self, line: &str) -> String {
        let response = match classify(line).parsed {
            Ok(request) => self.handle(&request),
            Err(err) => Response::Error(ErrorBody::from(&err)),
        };
        serde::json::to_string(&response)
    }

    /// A key for a cache of replies that holds no stamps: the raw line
    /// bytes, prefixed with `s<generation>:` when the line addresses a
    /// resident named session (v4+). Parses the line, and promotes the
    /// session as a dispatch does. `gtl serve` does not use it: its cache
    /// is keyed by the line alone and checks the reply's generation on a
    /// hit. It stays for the benchmark's (`gtlperf`) in-process replay,
    /// which links it.
    pub fn cache_key<'a>(&self, line: &'a str) -> Cow<'a, [u8]> {
        match self.addressed_generation(&classify(line).parsed) {
            Some(generation) if generation > 0 => {
                Cow::Owned(format!("s{generation}:{line}").into_bytes())
            }
            _ => Cow::Borrowed(line.as_bytes()),
        }
    }

    /// The generation of the session a request line (parsed as `parsed`)
    /// addresses, which the serve path stamps its cached reply with: `0`
    /// for the default session (no `session` field, a pre-v4 line,
    /// `"default"`, or a line that does not parse), the registry
    /// generation of a resident named session, and `None` for an unknown
    /// one, whose request answers an error and is never cached. The
    /// session name comes from the parse, so every spelling of the
    /// `session` key that the parser accepts resolves alike. A named
    /// session is promoted exactly as a dispatch promotes it.
    pub(crate) fn addressed_generation(&self, parsed: &ParsedLine) -> Option<u64> {
        match parsed.as_ref().ok().and_then(addressed_session) {
            None | Some(DEFAULT_SESSION) => Some(0),
            Some(name) => self.registry.get(name).map(|(_, generation)| generation),
        }
    }

    /// Whether a reply stamped with `generation` may still answer its
    /// line: `0` (the default session, never reloaded) always; any other
    /// generation while the registry still holds it. Generations are
    /// registry-wide and never reused, so a resident one names exactly
    /// the load the reply was computed on — the one the line's session
    /// name still resolves to. A resident session is promoted, as the
    /// dispatch of the line would promote it, so the registry's eviction
    /// order stays a function of the request sequence whether a request
    /// hits or misses. The serve path asks under the response cache's
    /// lock: lock order is cache, then registry.
    pub(crate) fn generation_is_live(&self, generation: u64) -> bool {
        generation == 0 || self.registry.touch_generation(generation)
    }

    /// The fair-share admission tenant of a request line: the session it
    /// addresses (compute requests via their `session` field, load and
    /// unload via their target name). Default-session traffic,
    /// ListSessions, Metrics and unparseable lines share the anonymous
    /// `""` tenant. A thin wrapper over the serve path's one
    /// classification of the line.
    pub fn tenant(&self, line: &str) -> String {
        classify(line).tenant
    }
}

/// The error response for a request of version `v` that failed with
/// `err`. Like success responses, errors echo the request's version — a
/// v1 client sees exactly the bytes a v1 build produced. A version
/// outside the supported range can't be spoken back, so those errors
/// (and parse failures, where no version is known) carry the build's own
/// [`API_VERSION`].
pub(crate) fn error_response(err: &ApiError, v: u32) -> Response {
    let mut body = ErrorBody::from(err);
    if !matches!(err, ApiError::UnsupportedVersion { .. }) {
        body.v = v;
    }
    Response::Error(body)
}

/// The session name a request addresses: its `session` field on a
/// protocol version that has one (v4+). The dispatch and the cache stamp
/// both resolve through here, so they always agree on the session.
fn addressed_session(request: &Request) -> Option<&str> {
    request.session().filter(|_| (SESSION_SINCE_VERSION..=API_VERSION).contains(&request.v()))
}

/// A request line's one parse on the serve path: the request, or the
/// `bad_request` error its reply carries.
pub(crate) type ParsedLine = Result<Request, ApiError>;

/// Classifies one request line with its one parse — the only
/// [`Request`] parse on the serve path: its tenant (see
/// [`SessionDispatcher::tenant`]), its [`REQUEST_KINDS`] label and the
/// parse itself.
pub(crate) fn classify(line: &str) -> Classified<ParsedLine> {
    let parsed =
        serde::json::from_str::<Request>(line).map_err(|e| ApiError::bad_request(e.to_string()));
    let tenant = match &parsed {
        Ok(Request::LoadNetlist(req)) => req.name.clone(),
        Ok(Request::UnloadNetlist(req)) => req.name.clone(),
        Ok(request) => request.session().unwrap_or_default().to_string(),
        Err(_) => String::new(),
    };
    Classified { tenant, kind: REQUEST_KINDS[request_kind(line)].1, parsed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FindRequest, StatsRequest};
    use gtl_netlist::NetlistBuilder;
    use gtl_tangled::FinderConfig;

    /// A ring of `n` cells, as a Session.
    fn ring_session(n: usize) -> Session {
        Session::builder().netlist(ring(n)).build().unwrap()
    }

    fn ring(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..n).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for i in 0..n {
            b.add_anonymous_net([cells[i], cells[(i + 1) % n]]);
        }
        b.finish()
    }

    /// Writes a ring netlist of `n` cells as `<name>.hgr` under a fresh
    /// per-test directory; returns the directory.
    fn netlist_dir(test: &str, rings: &[(&str, usize)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gtl_api_registry_{test}"));
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

    #[test]
    fn load_list_unload_round_trip() {
        let default = ring_session(8);
        let dir = netlist_dir("round_trip", &[("a", 6), ("b", 10)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));

        let a = d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        assert_eq!(a.session.name, "a");
        assert_eq!(a.session.generation, 1);
        assert_eq!(a.session.netlist.num_cells, 6);
        assert!(!a.replaced);
        assert!(a.evicted.is_empty());
        let b = d.load(&LoadNetlistRequest::new("b", "b.hgr")).unwrap();
        assert_eq!(b.session.generation, 2);

        let listed = d.list(&ListSessionsRequest::new()).unwrap();
        let names: Vec<&str> = listed.sessions.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["default", "a", "b"]);
        assert_eq!(listed.sessions[0].generation, 0);

        let unloaded = d.unload(&UnloadNetlistRequest::new("a")).unwrap();
        assert_eq!(unloaded.name, "a");
        let listed = d.list(&ListSessionsRequest::new()).unwrap();
        assert_eq!(listed.sessions.len(), 2);
        assert_eq!(
            d.unload(&UnloadNetlistRequest::new("a")).unwrap_err().code(),
            "unknown_session"
        );
    }

    #[test]
    fn session_addressed_requests_resolve_against_the_registry() {
        let default = ring_session(8);
        let dir = netlist_dir("resolve", &[("small", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        d.load(&LoadNetlistRequest::new("small", "small.hgr")).unwrap();

        let mut req = StatsRequest::new();
        req.session = Some("small".into());
        let Response::Stats(resp) = d.handle(&Request::Stats(req)) else {
            panic!("expected stats response");
        };
        assert_eq!(resp.stats.num_cells, 5);

        // Absent and "default" both reach the default session.
        let Response::Stats(resp) = d.handle(&Request::Stats(StatsRequest::new())) else {
            panic!("expected stats response");
        };
        assert_eq!(resp.stats.num_cells, 8);
        let mut req = StatsRequest::new();
        req.session = Some(DEFAULT_SESSION.into());
        let Response::Stats(resp) = d.handle(&Request::Stats(req)) else {
            panic!("expected stats response");
        };
        assert_eq!(resp.stats.num_cells, 8);

        // Unknown names answer unknown_session, echoing the version.
        let mut req = StatsRequest::new();
        req.v = SESSION_SINCE_VERSION;
        req.session = Some("missing".into());
        let Response::Error(body) = d.handle(&Request::Stats(req)) else {
            panic!("expected error response");
        };
        assert_eq!(body.code, "unknown_session");
        assert_eq!(body.v, SESSION_SINCE_VERSION);
        assert!(body.message.contains("missing"), "{}", body.message);
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
    fn error_responses_echo_a_supported_request_version() {
        let default = ring_session(40);
        let d = SessionDispatcher::new(&default, 0, 0, None);
        // A v1 request failing validation answers with v:1 — the bytes a
        // v1 build produced.
        let mut req = find_request();
        req.v = 1;
        req.config.num_seeds = 0;
        let Response::Error(body) = d.handle(&Request::Find(req)) else {
            panic!("expected error response");
        };
        assert_eq!(body.v, 1);
        assert_eq!(body.code, "invalid_argument");
        // An unsupported version can't be spoken back: the build's own
        // version is stamped, and the message names the range.
        let mut req = find_request();
        req.v = API_VERSION + 1;
        let Response::Error(body) = d.handle(&Request::Find(req)) else {
            panic!("expected error response");
        };
        assert_eq!(body.code, "unsupported_version");
        assert_eq!(body.v, API_VERSION);
        assert!(body.message.contains("1..=5"), "{}", body.message);
    }

    #[test]
    fn a_cancelled_base_token_answers_cancelled_echoing_the_version() {
        let default = ring_session(40);
        let d = SessionDispatcher::new(&default, 0, 0, None);
        let base = CancelToken::new();
        base.cancel();
        let mut req = find_request();
        req.v = 1;
        let request = Request::Find(req);
        let err = d.dispatch(&request, &base, Instant::now(), None).unwrap_err();
        assert_eq!(err.code(), "cancelled");
        let Response::Error(body) = error_response(&err, request.v()) else {
            panic!("expected error response");
        };
        assert_eq!((body.code.as_str(), body.v), ("cancelled", 1));
    }

    #[test]
    fn handle_line_is_total_and_deterministic() {
        let default = ring_session(40);
        let d = SessionDispatcher::new(&default, 0, 0, None);
        let line = serde::json::to_string(&Request::Find(find_request()));
        let a = d.handle_line(&line);
        let b = d.handle_line(&line);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"Find\":{\"v\":5,"), "{a}");
        // A v1 request is still accepted and echoes v1 — the golden
        // round-trip from the v1 protocol stays byte-identical (in-process
        // dispatch stamps no trace for any version).
        let v1 = d.handle_line(&line.replacen("\"v\":5", "\"v\":1", 1));
        assert!(v1.starts_with("{\"Find\":{\"v\":1,"), "{v1}");
        assert_eq!(v1.replacen("\"v\":1", "\"v\":5", 1), a);

        let err = d.handle_line("this is not json");
        assert!(err.contains("\"code\":\"bad_request\""), "{err}");
    }

    #[test]
    fn in_process_metrics_answer_that_no_runtime_is_attached() {
        let default = ring_session(8);
        let d = SessionDispatcher::new(&default, 0, 0, None);
        for line in ["{\"Metrics\":{\"v\":5}}", "{\"MetricsText\":{\"v\":5}}"] {
            assert_eq!(
                d.handle_line(line),
                "{\"Error\":{\"v\":5,\"code\":\"invalid_argument\",\"message\":\"Metrics is \
                 served by the `gtl serve` runtime (no runtime is attached to an in-process \
                 session)\"}}"
            );
        }
    }

    #[test]
    fn admin_requests_gate_on_protocol_v4() {
        let default = ring_session(8);
        let dir = netlist_dir("admin_gate", &[("a", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        for v in 1..SESSION_SINCE_VERSION {
            let mut req = LoadNetlistRequest::new("a", "a.hgr");
            req.v = v;
            let err = d.load(&req).unwrap_err();
            assert_eq!(err.code(), "invalid_argument", "v={v}");
            assert!(err.message().contains("protocol version 4"), "{}", err.message());
            let mut req = UnloadNetlistRequest::new("a");
            req.v = v;
            assert_eq!(d.unload(&req).unwrap_err().code(), "invalid_argument", "v={v}");
            let mut req = ListSessionsRequest::new();
            req.v = v;
            assert_eq!(d.list(&req).unwrap_err().code(), "invalid_argument", "v={v}");
        }
        let mut req = ListSessionsRequest::new();
        req.v = API_VERSION + 1;
        assert_eq!(d.list(&req).unwrap_err().code(), "unsupported_version");
    }

    #[test]
    fn load_paths_are_confined_to_the_netlist_dir() {
        let default = ring_session(8);
        let dir = netlist_dir("confined", &[("a", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        for path in ["/etc/passwd", "../a.hgr", "sub/../../a.hgr", "", "./a.hgr"] {
            let err = d.load(&LoadNetlistRequest::new("x", path)).unwrap_err();
            assert_eq!(err.code(), "invalid_argument", "path={path:?}");
        }
        // Without a netlist dir, loading is rejected outright.
        let closed = SessionDispatcher::new(&default, 0, 0, None);
        let err = closed.load(&LoadNetlistRequest::new("x", "a.hgr")).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        assert!(err.message().contains("--netlist-dir"), "{}", err.message());
    }

    #[test]
    fn reserved_default_name_cannot_be_loaded_or_unloaded() {
        let default = ring_session(8);
        let dir = netlist_dir("reserved", &[("a", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        let err = d.load(&LoadNetlistRequest::new(DEFAULT_SESSION, "a.hgr")).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        let err = d.unload(&UnloadNetlistRequest::new(DEFAULT_SESSION)).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        let err = d.load(&LoadNetlistRequest::new("", "a.hgr")).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
    }

    #[test]
    fn budget_eviction_is_deterministic_and_reported() {
        let default = ring_session(8);
        let dir = netlist_dir("evict", &[("a", 5), ("b", 5), ("c", 5)]);
        // Entry cap of 2: loading a third evicts the coldest.
        let d = SessionDispatcher::new(&default, 2, 0, Some(dir));
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        d.load(&LoadNetlistRequest::new("b", "b.hgr")).unwrap();
        // Touch "a" so "b" is coldest.
        let mut req = StatsRequest::new();
        req.session = Some("a".into());
        assert!(matches!(d.handle(&Request::Stats(req)), Response::Stats(_)));
        let c = d.load(&LoadNetlistRequest::new("c", "c.hgr")).unwrap();
        assert_eq!(c.evicted, vec!["b".to_string()]);
        let stats = d.registry_stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
    }

    #[test]
    fn oversized_load_is_refused_with_registry_unchanged() {
        let default = ring_session(8);
        let dir = netlist_dir("oversized", &[("a", 5), ("big", 200)]);
        let small_cost = netlist_cost(&ring(5));
        let d = SessionDispatcher::new(&default, 0, small_cost, Some(dir));
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        let err = d.load(&LoadNetlistRequest::new("big", "big.hgr")).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        assert!(err.message().contains("budget"), "{}", err.message());
        // The refused load left "a" resident and untouched.
        let listed = d.list(&ListSessionsRequest::new()).unwrap();
        assert_eq!(listed.sessions.len(), 2);
    }

    #[test]
    fn unload_drains_in_flight_sessions() {
        let default = ring_session(8);
        let dir = netlist_dir("drain", &[("a", 12)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        // An "in-flight request" holds the session's Arc across the
        // unload; the compute must finish normally against it.
        let (held, generation) = d.session("a").unwrap();
        assert_eq!(generation, 1);
        d.unload(&UnloadNetlistRequest::new("a")).unwrap();
        assert!(d.session("a").is_none());
        let resp = held
            .find(&FindRequest::new(FinderConfig {
                num_seeds: 4,
                min_size: 3,
                max_order_len: 12,
                rng_seed: 1,
                ..FinderConfig::default()
            }))
            .unwrap();
        assert_eq!(resp.netlist.num_cells, 12);
    }

    #[test]
    fn cache_stamps_isolate_sessions_by_generation() {
        let default = ring_session(8);
        let dir = netlist_dir("cache_stamp", &[("a", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        let stamp = |line: &str| d.addressed_generation(&classify(line).parsed);

        // The default session, however a line reaches it, is stamped 0.
        let plain = serde::json::to_string(&Request::Stats(StatsRequest::new()));
        assert_eq!(stamp(&plain), Some(0));
        assert_eq!(stamp("not json"), Some(0));
        let mut req = StatsRequest::new();
        req.session = Some(DEFAULT_SESSION.into());
        assert_eq!(stamp(&serde::json::to_string(&Request::Stats(req))), Some(0));

        let mut req = StatsRequest::new();
        req.session = Some("a".into());
        let addressed = serde::json::to_string(&Request::Stats(req));
        assert_eq!(stamp(&addressed), Some(1));
        // The stamp reads the parse, not the raw bytes: an escaped spelling
        // of the `session` key addresses — and is stamped by — the same
        // session.
        let escaped = addressed.replace("\"session\"", "\"sess\\u0069on\"");
        assert_ne!(escaped, addressed);
        assert_eq!(stamp(&escaped), Some(1));
        assert!(d.generation_is_live(0) && d.generation_is_live(1));

        // A reload under the same name gets a fresh generation: replies
        // stamped with the old one can never answer for the new load.
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        assert_eq!(stamp(&addressed), Some(2));
        assert!(!d.generation_is_live(1));
        assert!(d.generation_is_live(2));

        // An unknown session answers an error, never cached; the unload
        // retired generation 2. The default session is never reloaded.
        d.unload(&UnloadNetlistRequest::new("a")).unwrap();
        assert_eq!(stamp(&addressed), None);
        assert!(!d.generation_is_live(2));
        assert!(d.generation_is_live(0));

        // Pre-v4 lines carrying a session name reach the default session,
        // which rejects them — an uncacheable error either way.
        let pre_v4 = addressed.replacen("\"v\":5", "\"v\":3", 1);
        assert_eq!(stamp(&pre_v4), Some(0));

        // The stamp-free key: the generation of a resident named session
        // prefixed, every other line as itself.
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        assert_eq!(d.cache_key(&addressed).into_owned(), format!("s3:{addressed}").into_bytes());
        assert!(matches!(d.cache_key(&plain), Cow::Borrowed(_)));
        assert!(matches!(d.cache_key(&pre_v4), Cow::Borrowed(_)));
    }

    #[test]
    fn tenants_follow_the_addressed_session() {
        let default = ring_session(8);
        let d = SessionDispatcher::new(&default, 0, 0, None);
        let mut req = StatsRequest::new();
        req.session = Some("a".into());
        let addressed = serde::json::to_string(&Request::Stats(req));
        assert_eq!(d.tenant(&addressed), "a");
        // Escaped key spellings parse alike, so they classify alike.
        assert_eq!(d.tenant(&addressed.replace("\"session\"", "\"sess\\u0069on\"")), "a");
        assert_eq!(d.tenant(&serde::json::to_string(&Request::Stats(StatsRequest::new()))), "");
        let load =
            serde::json::to_string(&Request::LoadNetlist(LoadNetlistRequest::new("b", "b.hgr")));
        assert_eq!(d.tenant(&load), "b");
        assert_eq!(d.tenant(&load.replace("\"name\"", "\"n\\u0061me\"")), "b");
        let unload = Request::UnloadNetlist(UnloadNetlistRequest::new("c"));
        assert_eq!(d.tenant(&serde::json::to_string(&unload)), "c");
        assert_eq!(d.tenant("not json"), "");
        assert_eq!(
            d.tenant(&serde::json::to_string(&Request::ListSessions(ListSessionsRequest::new()))),
            ""
        );
    }

    /// The numbers a totality case writes into a numeric field: zero,
    /// negative, underflowing, overflowing and wider than `u64`.
    const HOSTILE_NUMBERS: [&str; 5] = ["0", "-1", "1e-300", "1e300", "18446744073709551616"];

    /// A valid line of protocol `v` for request kind `kind` (Find, Place,
    /// Stats), every numeric field a literal and every compute one small
    /// enough to answer in milliseconds on one or two threads.
    fn valid_line(v: u32, kind: usize) -> String {
        let session = (v >= crate::SESSION_SINCE_VERSION).then(|| DEFAULT_SESSION.to_string());
        let deadline_ms = (v >= crate::DEADLINE_SINCE_VERSION).then_some(60_000);
        let request = match kind {
            0 => Request::Find(FindRequest {
                v,
                config: FinderConfig {
                    num_seeds: 3,
                    max_order_len: 24,
                    min_size: 4,
                    refine_seeds: 1,
                    threads: 2,
                    rent_exponent: Some(0.6),
                    ..FinderConfig::default()
                },
                deadline_ms,
                session,
            }),
            1 => {
                let mut req = crate::PlaceRequest::new();
                req.v = v;
                req.placer.threads = 2;
                req.routing.tiles = 8;
                req.routing.threads = 2;
                req.routing.h_capacity = Some(2.0);
                req.routing.v_capacity = Some(2.0);
                req.deadline_ms = deadline_ms;
                req.session = session;
                Request::Place(req)
            }
            _ => Request::Stats(StatsRequest { v, session }),
        };
        serde::json::to_string(&request)
    }

    /// The byte ranges of `line`'s numeric literals (outside strings),
    /// each with the key it is the value of.
    fn numeric_fields(line: &str) -> Vec<(std::ops::Range<usize>, String)> {
        let bytes = line.as_bytes();
        let (mut fields, mut key, mut i) = (Vec::new(), String::new(), 0);
        while i < bytes.len() {
            match bytes[i] {
                b'"' => {
                    let end = i + 1 + line[i + 1..].find('"').expect("no escapes in a valid line");
                    key = line[i + 1..end].to_string();
                    i = end + 1;
                }
                b'-' | b'0'..=b'9' => {
                    let len = line[i..]
                        .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
                        .unwrap_or(line.len() - i);
                    fields.push((i..i + len, key.clone()));
                    i += len;
                }
                _ => i += 1,
            }
        }
        fields
    }

    /// One reply per line: no panic, one line, a `Response`.
    fn assert_total(d: &SessionDispatcher<'_>, line: &str) {
        let text = d.handle_line(line);
        assert!(!text.contains('\n'), "multi-line reply to {line}: {text}");
        assert!(serde::json::from_str::<Response>(&text).is_ok(), "reply to {line}: {text}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The dispatcher answers every line with one `Response` line and
        /// never panics: a valid v1–v5 Find, Place or Stats line cut at
        /// every byte, nested past the parser's 128-level depth cap
        /// (whole, and at one of its numeric fields), and with one
        /// numeric field set to a hostile number; and a Place line with
        /// `utilization` and both routing capacities set to that number
        /// together. A `threads` field is never set to 0, which asks for
        /// every core.
        #[test]
        fn every_line_gets_one_response_line(
            v in 1u32..=5,
            kind in 0usize..3,
            field in 0usize..64,
            number in 0usize..5,
            depth in 129usize..300,
        ) {
            let default = Session::builder().netlist(chain(64)).build().unwrap();
            let d = SessionDispatcher::new(&default, 0, 0, None);
            let line = valid_line(v, kind);
            for cut in 0..line.len() {
                assert_total(&d, &line[..cut]);
            }
            let nest = |inner: &str| format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth));
            assert_total(&d, &nest(&line));
            let fields = numeric_fields(&line);
            let (at, key) = &fields[field % fields.len()];
            let with_field = |value: &str| {
                format!("{}{value}{}", &line[..at.start], &line[at.end..])
            };
            assert_total(&d, &with_field(&nest(&line[at.clone()])));
            if !(key == "threads" && HOSTILE_NUMBERS[number] == "0") {
                assert_total(&d, &with_field(HOSTILE_NUMBERS[number]));
            }
            if kind == 1 {
                // Back to front, so each range still points into `joint`.
                let mut joint = line.clone();
                for (at, key) in fields.iter().rev() {
                    if matches!(key.as_str(), "utilization" | "h_capacity" | "v_capacity") {
                        joint.replace_range(at.clone(), HOSTILE_NUMBERS[number]);
                    }
                }
                assert_total(&d, &joint);
            }
        }
    }

    /// A chain of `n` cells.
    fn chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..n).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for pair in cells.windows(2) {
            b.add_anonymous_net(pair.iter().copied());
        }
        b.finish()
    }
}
