//! Runtime observability: cheap atomic counters and latency histograms
//! aggregated into a [`MetricsSnapshot`].
//!
//! Every counter is updated with relaxed atomics on hot paths (the
//! scheduler and the per-connection I/O threads), so metrics never
//! serialize the runtime. The latency histograms
//! ([`gtl_core::obs::LatencyHistogram`]) sit behind short-lived mutexes
//! touched once per request — never inside compute. A snapshot is *not*
//! a point-in-time transaction across all counters — each field is
//! individually consistent, which is what a monitoring endpoint needs.
//! Crucially, metrics are **observation only**: no counter or recorded
//! duration ever feeds back into request handling, so exposing them
//! cannot perturb response bytes (the byte-invisibility contract of
//! `gtl_core::obs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gtl_core::obs::{LatencyHistogram, SCRAPE_BOUNDS_US};

use crate::cache::ResponseCache;

/// The serve-path stages the runtime times individually (see
/// [`MetricsSnapshot::stage_latency`]). Label order here is export
/// order, so renderings stay byte-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission to lane pop: how long the job sat in the fair queue.
    QueueWait,
    /// Lane pop to response bytes ready (handler compute + serialize).
    LaneCompute,
    /// Handler-reported serialization time inside the lane (a sub-span
    /// of [`Stage::LaneCompute`], recorded via
    /// [`RequestContext::observe_serialize_us`](crate::RequestContext::observe_serialize_us)).
    Serialize,
    /// One writer `flush()` on the connection's response stream.
    WriterFlush,
}

impl Stage {
    /// Every stage, in export order.
    pub const ALL: [Stage; 4] =
        [Stage::QueueWait, Stage::LaneCompute, Stage::Serialize, Stage::WriterFlush];

    /// The stable label used in summaries and metric renderings.
    pub fn label(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::LaneCompute => "lane_compute",
            Stage::Serialize => "serialize",
            Stage::WriterFlush => "writer_flush",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::LaneCompute => 1,
            Stage::Serialize => 2,
            Stage::WriterFlush => 3,
        }
    }
}

/// Locks a histogram mutex, recovering from poisoning (a panicking
/// recorder cannot corrupt bucket counts — they are plain integers).
fn lock_histogram(m: &Mutex<LatencyHistogram>) -> std::sync::MutexGuard<'_, LatencyHistogram> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Live counters owned by the runtime (see [`MetricsSnapshot`] for the
/// exported view).
#[derive(Debug)]
pub(crate) struct MetricsHub {
    /// Static config echoes, so a snapshot is self-describing.
    lanes: u64,
    queue_capacity: u64,
    pipeline_depth: u64,
    tenant_quota: u64,
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    read_timeouts: AtomicU64,
    io_errors: AtomicU64,
    handler_panics: AtomicU64,
    jobs_cancelled: AtomicU64,
    deadlines_exceeded: AtomicU64,
    fair_share_violations: AtomicU64,
    queue_depth: AtomicU64,
    queue_high_water: AtomicU64,
    responses_traced: AtomicU64,
    /// One histogram per [`Stage`], indexed by [`Stage::index`].
    stage_latency: [Mutex<LatencyHistogram>; 4],
    /// End-to-end latency per request kind (admission to response bytes
    /// deposited). Keys come from [`Classified::kind`] and are a small
    /// closed set, so the map stays tiny and iteration order (BTreeMap)
    /// is deterministic.
    ///
    /// [`Classified::kind`]: crate::Classified::kind
    kind_latency: Mutex<BTreeMap<&'static str, LatencyHistogram>>,
}

impl MetricsHub {
    pub(crate) fn new(
        lanes: usize,
        queue_capacity: usize,
        pipeline_depth: usize,
        tenant_quota: usize,
    ) -> Self {
        Self {
            lanes: lanes as u64,
            queue_capacity: queue_capacity as u64,
            pipeline_depth: pipeline_depth as u64,
            tenant_quota: tenant_quota as u64,
            connections_accepted: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            deadlines_exceeded: AtomicU64::new(0),
            fair_share_violations: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
            responses_traced: AtomicU64::new(0),
            stage_latency: std::array::from_fn(|_| Mutex::new(LatencyHistogram::new())),
            kind_latency: Mutex::new(BTreeMap::new()),
        }
    }

    pub(crate) fn connection_opened(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn request_submitted(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn response_written(&self) {
        self.responses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn read_timeout(&self) {
        self.read_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn io_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn handler_panic(&self) {
        self.handler_panics.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn job_cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn deadline_exceeded(&self) {
        self.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a fair-share invariant breach: the scheduler served the
    /// same tenant twice in a row while another tenant had been waiting
    /// since the previous pop. The round-robin rotation makes this
    /// structurally impossible, so the counter staying at zero *is* the
    /// starvation-freedom check (asserted by tests and observable over
    /// the Metrics endpoint).
    pub(crate) fn fair_share_violation(&self) {
        self.fair_share_violations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the scheduler queue length observed after a push/pop.
    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        let depth = depth as u64;
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts one response whose envelope carried a trace-id stamp.
    pub(crate) fn response_traced(&self) {
        self.responses_traced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one per-stage duration (µs).
    pub(crate) fn observe_stage_us(&self, stage: Stage, us: u64) {
        lock_histogram(&self.stage_latency[stage.index()]).record_us(us);
    }

    /// Records one end-to-end request latency (µs) under its kind.
    pub(crate) fn observe_kind_latency_us(&self, kind: &'static str, us: u64) {
        self.kind_latency
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .entry(kind)
            .or_default()
            .record_us(us);
    }

    pub(crate) fn snapshot(&self, cache: &ResponseCache) -> MetricsSnapshot {
        let cache = cache.stats();
        MetricsSnapshot {
            lanes: self.lanes,
            queue_capacity: self.queue_capacity,
            pipeline_depth: self.pipeline_depth,
            tenant_quota: self.tenant_quota,
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            deadlines_exceeded: self.deadlines_exceeded.load(Ordering::Relaxed),
            fair_share_violations: self.fair_share_violations.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            cache_capacity_bytes: cache.capacity_bytes,
            cache_entries: cache.entries,
            cache_bytes: cache.bytes,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_insertions: cache.insertions,
            responses_traced: self.responses_traced.load(Ordering::Relaxed),
            stage_latency: Stage::ALL
                .iter()
                .map(|&stage| {
                    LatencySummary::of(
                        stage.label(),
                        &lock_histogram(&self.stage_latency[stage.index()]),
                    )
                })
                .collect(),
            kind_latency: self
                .kind_latency
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .iter()
                .map(|(kind, histogram)| LatencySummary::of(kind, histogram))
                .collect(),
        }
    }
}

/// The exported digest of one [`LatencyHistogram`]: totals, the p50/p95/
/// p99 bucket-quantized percentiles, and cumulative counts at the fixed
/// [`SCRAPE_BOUNDS_US`] boundaries (the Prometheus `le` set, `+Inf`
/// being `count`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Stable label: a [`Stage`] label or a request kind.
    pub label: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Sum of recorded durations (µs).
    pub sum_us: u64,
    /// Largest recorded duration (µs, exact).
    pub max_us: u64,
    /// Median (µs, bucket upper bound).
    pub p50_us: u64,
    /// 95th percentile (µs, bucket upper bound).
    pub p95_us: u64,
    /// 99th percentile (µs, bucket upper bound).
    pub p99_us: u64,
    /// Cumulative counts at each [`SCRAPE_BOUNDS_US`] boundary, in
    /// order; values past the last boundary appear only in `count`.
    pub buckets: Vec<u64>,
}

impl LatencySummary {
    /// Digests a histogram under a label.
    pub fn of(label: &str, histogram: &LatencyHistogram) -> Self {
        Self {
            label: label.to_string(),
            count: histogram.count(),
            sum_us: histogram.sum_us(),
            max_us: histogram.max_us(),
            p50_us: histogram.percentile_us(0.50),
            p95_us: histogram.percentile_us(0.95),
            p99_us: histogram.percentile_us(0.99),
            buckets: histogram.cumulative(SCRAPE_BOUNDS_US),
        }
    }
}

/// A point-in-time view of the runtime's counters, as exposed by the
/// versioned Metrics API (`gtl-api` mirrors this into its wire contract).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Number of compute lanes (scheduler worker threads).
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
    /// Per-connection I/O failures (reads and writes).
    pub io_errors: u64,
    /// Handler panics caught on a lane (each costs its connection, never
    /// the lane).
    pub handler_panics: u64,
    /// Jobs abandoned because their connection was lost (the lane skips
    /// or discards the compute; nobody is left to answer).
    pub jobs_cancelled: u64,
    /// Requests answered with a `deadline_exceeded` error (per-request
    /// `deadline_ms` or the server-side default deadline fired).
    pub deadlines_exceeded: u64,
    /// Fair-share invariant breaches: pops that served a tenant twice
    /// consecutively while another tenant had been waiting since the
    /// previous pop. Structurally zero — a nonzero value means the
    /// scheduler starved someone.
    pub fair_share_violations: u64,
    /// Jobs waiting in the scheduler queue (last observed).
    pub queue_depth: u64,
    /// Highest queue depth observed so far.
    pub queue_high_water: u64,
    /// Response-cache byte budget (`0` = caching disabled).
    pub cache_capacity_bytes: u64,
    /// Response-cache resident entries.
    pub cache_entries: u64,
    /// Response-cache resident bytes (keys + values + overhead).
    pub cache_bytes: u64,
    /// Response-cache lookup hits.
    pub cache_hits: u64,
    /// Response-cache lookup misses.
    pub cache_misses: u64,
    /// Response-cache evictions under the byte budget.
    pub cache_evictions: u64,
    /// Response-cache insertions (distinct stored entries).
    pub cache_insertions: u64,
    /// Responses whose envelope carried a trace-id stamp (v5+ requests).
    pub responses_traced: u64,
    /// Per-stage serve-path latency digests, one per [`Stage`] in
    /// [`Stage::ALL`] order.
    pub stage_latency: Vec<LatencySummary>,
    /// End-to-end latency digests per request kind (sorted by kind).
    pub kind_latency: Vec<LatencySummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let hub = MetricsHub::new(3, 12, 4, 6);
        let cache = ResponseCache::new(1 << 12);
        hub.connection_opened();
        hub.connection_opened();
        hub.connection_closed();
        hub.request_submitted();
        hub.response_written();
        hub.read_timeout();
        hub.io_error();
        hub.observe_queue_depth(5);
        hub.observe_queue_depth(2);
        cache.insert(b"k", "v");
        let _ = cache.get(b"k");

        let snap = hub.snapshot(&cache);
        assert_eq!(snap.lanes, 3);
        assert_eq!(snap.queue_capacity, 12);
        assert_eq!(snap.pipeline_depth, 4);
        assert_eq!(snap.tenant_quota, 6);
        assert_eq!(snap.fair_share_violations, 0);
        assert_eq!(snap.connections_accepted, 2);
        assert_eq!(snap.connections_active, 1);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.responses, 1);
        assert_eq!(snap.read_timeouts, 1);
        assert_eq!(snap.io_errors, 1);
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.queue_high_water, 5);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_insertions, 1);
        assert_eq!(snap.responses_traced, 0);
        assert_eq!(snap.stage_latency.len(), Stage::ALL.len());
        assert!(snap.kind_latency.is_empty());
    }

    #[test]
    fn stage_and_kind_latency_reach_the_snapshot() {
        let hub = MetricsHub::new(1, 4, 1, 0);
        let cache = ResponseCache::new(0);
        hub.observe_stage_us(Stage::QueueWait, 100);
        hub.observe_stage_us(Stage::QueueWait, 300);
        hub.observe_stage_us(Stage::WriterFlush, 7);
        hub.observe_kind_latency_us("find", 1_000);
        hub.observe_kind_latency_us("find", 2_000);
        hub.observe_kind_latency_us("admin", 50);
        hub.response_traced();

        let snap = hub.snapshot(&cache);
        assert_eq!(snap.responses_traced, 1);
        let labels: Vec<&str> = snap.stage_latency.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["queue_wait", "lane_compute", "serialize", "writer_flush"]);
        let queue = &snap.stage_latency[0];
        assert_eq!((queue.count, queue.sum_us, queue.max_us), (2, 400, 300));
        assert!(queue.p50_us >= 100 && queue.p99_us >= queue.p50_us);
        assert_eq!(snap.stage_latency[1].count, 0);
        assert_eq!(snap.stage_latency[3].count, 1);
        // Kinds are sorted, each with its own distribution.
        let kinds: Vec<&str> = snap.kind_latency.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(kinds, ["admin", "find"]);
        assert_eq!(snap.kind_latency[1].count, 2);
        assert_eq!(snap.kind_latency[1].buckets.len(), SCRAPE_BOUNDS_US.len());
    }
}
