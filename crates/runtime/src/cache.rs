//! The deterministic response cache: an LRU map from request lines to
//! reply bytes under a configurable byte budget.
//!
//! The workspace's service replies are **pure functions of the request
//! line and of the handler state it addresses** (the execution layer
//! makes every compute byte-identical for any worker count), which makes
//! them cacheable: serving a stored reply is indistinguishable from
//! recomputing it. That is the cache's hard invariant — *transparency* —
//! and it holds by construction:
//!
//! * the key is exactly the canonical (trimmed) line the handler would
//!   receive, and the value exactly the bytes it produced for it;
//! * each entry carries the **stamp** of the handler state its reply was
//!   computed against ([`crate::LineHandler::cache_stamp`]: `0` for a
//!   stateless handler, a session's registry generation in `gtl-api`),
//!   and a lookup answers only while the handler still calls that stamp
//!   current ([`crate::LineHandler::stamp_is_current`]). A stale entry
//!   counts as a miss and is dropped, so a reload under the same name
//!   can never be answered with the previous load's bytes;
//! * entries are never mutated. Eviction order may depend on request
//!   interleaving across connections, but evictions only ever cost a
//!   recompute, never change bytes (property-tested here and end to end
//!   in `gtl-api`).
//!
//! Because the answer is fixed by the line bytes and the stamp, a lookup
//! needs no parse of the line: the serve path answers an in-order hit
//! before it classifies the line at all. Each entry also keeps the
//! reply's kind label, so such a hit is still recorded under its kind.
//!
//! Only replies the handler declares cacheable are stored — runtime
//! metrics snapshots, for example, are *not* pure functions of the
//! request and bypass the cache.
//!
//! The entries, their recency order and the key map live in one
//! [`crate::lru::Lru`], the store under the session registry
//! ([`crate::registry`]) too; the cache adds its byte budget, its
//! counters and the stamp check.

use std::sync::{Arc, Mutex};

use crate::lru::Lru;

/// Approximate per-entry bookkeeping cost (hash-map slot, list node,
/// refcounts) charged against the byte budget on top of key + value
/// length, so a budget of N bytes bounds real memory near N.
const ENTRY_OVERHEAD: usize = 96;

/// Counters describing cache behavior since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the caller computed the response), stale
    /// entries included.
    pub misses: u64,
    /// Entries dropped: evicted to make room under the byte budget, or
    /// found stale (their stamp no longer current) by a lookup or a fill.
    pub evictions: u64,
    /// Entries stored (refreshes of an existing key do not count).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged (keys + values + per-entry overhead).
    pub bytes: u64,
    /// The configured byte budget (`0` = caching disabled).
    pub capacity_bytes: u64,
}

/// A thread-safe LRU response cache with a byte budget.
///
/// A budget of `0` disables caching entirely: every lookup misses without
/// touching a lock (and without counting), and nothing is ever stored.
///
/// [`ResponseCache::get`] and [`ResponseCache::insert`] are the forms for
/// a caller whose keys already name every state their replies depend on:
/// they store and accept only stamp `0`. The serve path looks lines up
/// with their stamps.
///
/// # Example
///
/// ```
/// use gtl_runtime::ResponseCache;
///
/// let cache = ResponseCache::new(4096);
/// assert!(cache.get(b"req-a").is_none());
/// cache.insert(b"req-a", "resp-a");
/// assert_eq!(cache.get(b"req-a").as_deref(), Some("resp-a"));
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct ResponseCache {
    /// `None` when the budget is zero (caching disabled).
    inner: Option<Mutex<Inner>>,
}

impl ResponseCache {
    /// Creates a cache bounded by `budget_bytes` (`0` disables caching).
    pub fn new(budget_bytes: usize) -> Self {
        let inner = (budget_bytes > 0).then(|| {
            Mutex::new(Inner {
                budget: budget_bytes,
                entries: Lru::new(),
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                insertions: 0,
            })
        });
        Self { inner }
    }

    /// Whether caching is enabled (budget > 0).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Looks up the response stored for `key` at stamp `0`, promoting it
    /// to most-recently-used on a hit.
    pub fn get(&self, key: &[u8]) -> Option<Arc<str>> {
        self.lookup(key, |stamp| stamp == 0).map(|(reply, _kind)| reply)
    }

    /// Stores `value` for `key` at stamp `0`, evicting least-recently-used
    /// entries until the budget holds. A key already present is only
    /// promoted (the stored bytes are necessarily identical — responses
    /// are pure functions of their key); an entry larger than the whole
    /// budget is not stored.
    pub fn insert(&self, key: &[u8], value: &str) {
        // `Classified::default()`'s kind: these callers classify nothing.
        self.fill(key, value, "request", 0);
    }

    /// Looks up the reply stored for `line` and its kind label. The entry
    /// answers only if `is_current` accepts the stamp it was stored with:
    /// then it is promoted to most-recently-used and counted as a hit.
    /// Otherwise it is dropped, and the lookup counts as a miss, like one
    /// that finds nothing. `is_current` runs under the cache lock, so a
    /// lock it takes is ordered after this one.
    pub(crate) fn lookup(
        &self,
        line: &[u8],
        is_current: impl FnOnce(u64) -> bool,
    ) -> Option<(Arc<str>, &'static str)> {
        let mut guard = self.inner.as_ref()?.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let Some(entry) = inner.entries.get(line) else {
            inner.misses += 1;
            return None;
        };
        if is_current(entry.stamp) {
            inner.hits += 1;
            return Some((Arc::clone(&entry.value), entry.kind));
        }
        if let Some(stale) = inner.entries.remove(line) {
            inner.forget(&stale);
        }
        inner.misses += 1;
        None
    }

    /// Stores `reply`, of kind `kind` and computed at `stamp`, for `line`,
    /// evicting least-recently-used entries until the budget holds. An
    /// entry already stored at the same stamp is only promoted (the bytes
    /// are necessarily identical — replies are pure functions of their
    /// line and stamp); one stored at another stamp is replaced. A reply
    /// larger than the whole budget is not stored.
    pub(crate) fn fill(&self, line: &[u8], reply: &str, kind: &'static str, stamp: u64) {
        let Some(inner) = self.inner.as_ref() else { return };
        let mut guard = inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        if let Some(entry) = inner.entries.get(line) {
            if entry.stamp == stamp {
                // A concurrent miss on another lane computed the same bytes.
                debug_assert_eq!(
                    &*entry.value, reply,
                    "cache transparency violated: same line and stamp, different response bytes"
                );
                return;
            }
            if let Some(stale) = inner.entries.remove(line) {
                inner.forget(&stale);
            }
        }
        let cost = line.len() + reply.len() + ENTRY_OVERHEAD;
        if cost > inner.budget {
            return;
        }
        while inner.bytes + cost > inner.budget {
            let Some((_, coldest)) = inner.entries.pop_coldest() else { break };
            inner.forget(&coldest);
        }
        let entry = Entry { value: Arc::from(reply), kind, stamp, cost };
        inner.entries.insert(Arc::from(line), entry);
        inner.bytes += cost;
        inner.insertions += 1;
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        match self.inner.as_ref() {
            None => CacheStats::default(),
            Some(inner) => {
                let inner = inner.lock().unwrap_or_else(|e| e.into_inner());
                CacheStats {
                    hits: inner.hits,
                    misses: inner.misses,
                    evictions: inner.evictions,
                    insertions: inner.insertions,
                    entries: inner.entries.len() as u64,
                    bytes: inner.bytes as u64,
                    capacity_bytes: inner.budget as u64,
                }
            }
        }
    }
}

#[derive(Debug)]
struct Entry {
    value: Arc<str>,
    /// The reply's per-kind latency label.
    kind: &'static str,
    /// The handler state the reply was computed against.
    stamp: u64,
    cost: usize,
}

/// The locked interior: the entries by line, most recent first.
#[derive(Debug)]
struct Inner {
    budget: usize,
    entries: Lru<Arc<[u8]>, Entry>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl Inner {
    /// Uncharges an entry that left the store, counting an eviction.
    fn forget(&mut self, entry: &Entry) {
        self.bytes -= entry.cost;
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_never_stores() {
        let cache = ResponseCache::new(0);
        assert!(!cache.is_enabled());
        cache.insert(b"k", "v");
        assert!(cache.get(b"k").is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn hit_returns_exact_bytes() {
        let cache = ResponseCache::new(1 << 16);
        cache.insert(b"key-1", "response bytes \u{3b1}\u{3b2}");
        assert_eq!(cache.get(b"key-1").as_deref(), Some("response bytes \u{3b1}\u{3b2}"));
        assert!(cache.get(b"key-2").is_none());
    }

    #[test]
    fn lru_order_governs_eviction() {
        // Budget for exactly two entries of this size.
        let cost = 1 + 1 + ENTRY_OVERHEAD;
        let cache = ResponseCache::new(2 * cost);
        cache.insert(b"a", "A");
        cache.insert(b"b", "B");
        // Touch `a` so `b` is now least recently used.
        assert!(cache.get(b"a").is_some());
        cache.insert(b"c", "C");
        assert!(cache.get(b"b").is_none(), "LRU entry should have been evicted");
        assert!(cache.get(b"a").is_some());
        assert!(cache.get(b"c").is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn oversized_entry_is_not_stored() {
        let cache = ResponseCache::new(ENTRY_OVERHEAD + 4);
        cache.insert(b"key", "a response far larger than the whole budget");
        assert!(cache.get(b"key").is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn byte_accounting_balances_across_churn() {
        let cache = ResponseCache::new(5 * (8 + 8 + ENTRY_OVERHEAD));
        for round in 0..50u32 {
            for k in 0..8u32 {
                let key = format!("key-{k:04}");
                let value = format!("val-{k:04}");
                cache.insert(key.as_bytes(), &value);
                let _ = cache.get(format!("key-{:04}", (k + round) % 8).as_bytes());
            }
        }
        let stats = cache.stats();
        assert!(stats.entries <= 5, "{stats:?}");
        assert!(stats.bytes <= stats.capacity_bytes, "{stats:?}");
        assert_eq!(stats.insertions, stats.evictions + stats.entries, "{stats:?}");
    }

    #[test]
    fn refresh_of_existing_key_promotes_without_reinserting() {
        let cost = 1 + 1 + ENTRY_OVERHEAD;
        let cache = ResponseCache::new(2 * cost);
        cache.insert(b"a", "A");
        cache.insert(b"b", "B");
        cache.insert(b"a", "A"); // refresh: `b` becomes LRU
        cache.insert(b"c", "C");
        assert!(cache.get(b"b").is_none());
        assert!(cache.get(b"a").is_some());
        assert_eq!(cache.stats().insertions, 3);
    }

    #[test]
    fn a_stale_stamp_misses_and_drops_its_entry() {
        let cache = ResponseCache::new(1 << 16);
        cache.fill(b"line", "reply at 1", "find", 1);
        assert_eq!(
            cache.lookup(b"line", |stamp| stamp == 1),
            Some((Arc::from("reply at 1"), "find"))
        );
        // Stamp 1 retired (say, its session was reloaded as stamp 2).
        assert_eq!(cache.lookup(b"line", |stamp| stamp == 2), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
        assert_eq!((stats.entries, stats.bytes, stats.evictions), (0, 0, 1), "{stats:?}");
        // A line that is not stored never reaches the check.
        let mut seen = Vec::new();
        let check = |stamp| {
            seen.push(stamp);
            true
        };
        assert!(cache.lookup(b"line", check).is_none());
        assert!(seen.is_empty());
    }

    #[test]
    fn a_fill_at_another_stamp_replaces_the_entry() {
        let cache = ResponseCache::new(1 << 16);
        cache.fill(b"line", "reply at 1", "stats", 1);
        cache.fill(b"line", "reply at 1", "stats", 1);
        cache.fill(b"line", "reply at 2", "stats", 2);
        let stats = cache.stats();
        assert_eq!((stats.insertions, stats.evictions, stats.entries), (2, 1, 1), "{stats:?}");
        assert_eq!(stats.bytes, (4 + 10 + ENTRY_OVERHEAD) as u64, "key + value + overhead");
        let current = cache.lookup(b"line", |stamp| stamp == 2).map(|(reply, _)| reply);
        assert_eq!(current.as_deref(), Some("reply at 2"));
    }

    #[test]
    fn get_and_insert_are_the_stamp_zero_forms() {
        let cache = ResponseCache::new(1 << 16);
        cache.insert(b"k", "v");
        assert_eq!(cache.lookup(b"k", |stamp| stamp == 0).map(|(v, _)| v).as_deref(), Some("v"));
        cache.fill(b"stamped", "w", "find", 3);
        assert!(cache.get(b"stamped").is_none(), "get accepts stamp 0 only");
    }

    use proptest::prelude::*;

    /// The pure "handler" the property tests check the cache against: a
    /// reply is a function of the key and of the stamp it was computed at.
    fn pure_response(key: u32, stamp: u64) -> String {
        format!("response({key}@{stamp})={}", u64::from(key).wrapping_mul(0x9e37_79b9) ^ stamp)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The transparency property, simulated: for *any* access
        /// sequence and *any* budget (including budgets small enough to
        /// force constant eviction), a cache-mediated lookup always
        /// yields the bytes the pure handler produces, and the byte
        /// accounting never exceeds the budget.
        #[test]
        fn transparency_under_random_access_patterns(
            budget in 0usize..2048,
            accesses in proptest::collection::vec(0u32..24, 0..200),
        ) {
            let cache = ResponseCache::new(budget);
            for key in accesses {
                let key_bytes = format!("req-{key}");
                let expected = pure_response(key, 0);
                let got = match cache.get(key_bytes.as_bytes()) {
                    Some(hit) => hit.to_string(),
                    None => {
                        cache.insert(key_bytes.as_bytes(), &expected);
                        expected.clone()
                    }
                };
                prop_assert_eq!(got, expected);
                let stats = cache.stats();
                prop_assert!(stats.bytes <= stats.capacity_bytes);
            }
        }

        /// Transparency across state changes: keys split into two
        /// "sessions" whose stamps move independently (a reload bumps
        /// one), and a lookup that accepts only the current stamps
        /// always yields the bytes computed at the current stamp — never
        /// a reply from before a reload. Each lookup counts once.
        #[test]
        fn transparency_across_stamp_changes(
            budget in 0usize..4096,
            accesses in proptest::collection::vec((0u32..16, 0u8..6), 0..200),
        ) {
            let cache = ResponseCache::new(budget);
            let mut stamps = [0u64, 1];
            let mut next_stamp = 2;
            let mut lookups = 0u64;
            for (key, op) in accesses {
                let session = (key % 2) as usize;
                if op == 0 {
                    stamps[session] = next_stamp;
                    next_stamp += 1;
                    continue;
                }
                let current = stamps;
                let stamp = current[session];
                let expected = pure_response(key, stamp);
                let line = format!("req-{key}");
                lookups += 1;
                let got = match cache.lookup(line.as_bytes(), |s| current.contains(&s)) {
                    Some((hit, kind)) => {
                        prop_assert_eq!(kind, "find");
                        hit.to_string()
                    }
                    None => {
                        cache.fill(line.as_bytes(), &expected, "find", stamp);
                        expected.clone()
                    }
                };
                prop_assert_eq!(got, expected);
                let stats = cache.stats();
                prop_assert!(stats.bytes <= stats.capacity_bytes);
                if cache.is_enabled() {
                    prop_assert_eq!(stats.hits + stats.misses, lookups);
                    prop_assert_eq!(stats.insertions, stats.evictions + stats.entries);
                }
            }
        }
    }

    /// The lines of the recency-model suite: their lengths differ, so
    /// entries cost different amounts against the budget.
    const LINES: [&str; 6] = ["a", "bb", "ccc", "d", "ee", "fff"];

    /// The kind label the model's handler gives `line`.
    fn kind_of(line: usize) -> &'static str {
        ["find", "stats", "place"][line % 3]
    }

    /// A reference model of the cache: same semantics, naive `Vec` of
    /// `(line, stamp, cost)` rows, most recent first.
    struct RecencyModel {
        budget: usize,
        rows: Vec<(usize, u64, usize)>,
        stats: CacheStats,
    }

    impl RecencyModel {
        fn new(budget: usize) -> Self {
            let stats = CacheStats { capacity_bytes: budget as u64, ..CacheStats::default() };
            Self { budget, rows: Vec::new(), stats }
        }

        fn stats(&self) -> CacheStats {
            if self.budget == 0 {
                return CacheStats::default();
            }
            let bytes = self.rows.iter().map(|row| row.2 as u64).sum();
            CacheStats { entries: self.rows.len() as u64, bytes, ..self.stats }
        }

        fn drop_row(&mut self, pos: usize) {
            self.rows.remove(pos);
            self.stats.evictions += 1;
        }

        fn lookup(&mut self, line: usize, current: &[u64]) -> Option<(String, &'static str)> {
            if self.budget == 0 {
                return None;
            }
            let Some(pos) = self.rows.iter().position(|row| row.0 == line) else {
                self.stats.misses += 1;
                return None;
            };
            let row = self.rows[pos];
            if !current.contains(&row.1) {
                self.drop_row(pos);
                self.stats.misses += 1;
                return None;
            }
            self.rows.remove(pos);
            self.rows.insert(0, row);
            self.stats.hits += 1;
            Some((pure_response(line as u32, row.1), kind_of(line)))
        }

        fn fill(&mut self, line: usize, stamp: u64) {
            if self.budget == 0 {
                return;
            }
            if let Some(pos) = self.rows.iter().position(|row| row.0 == line) {
                if self.rows[pos].1 == stamp {
                    let row = self.rows.remove(pos);
                    self.rows.insert(0, row);
                    return;
                }
                self.drop_row(pos);
            }
            let cost = LINES[line].len() + pure_response(line as u32, stamp).len() + ENTRY_OVERHEAD;
            if cost > self.budget {
                return;
            }
            while self.rows.iter().map(|row| row.2).sum::<usize>() + cost > self.budget {
                let coldest = self.rows.len() - 1;
                self.drop_row(coldest);
            }
            self.rows.insert(0, (line, stamp, cost));
            self.stats.insertions += 1;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// For any budget of up to about four entries and any sequence
        /// of lookups, fills (at the current stamp or a retired one),
        /// serve-path lookup-then-fill pairs and stamp retirements, the
        /// cache agrees with a naive recency model on every lookup's
        /// reply and kind and on every `CacheStats` field: which entry a
        /// hit promotes, which one a fill evicts, and the bytes charged.
        #[test]
        fn eviction_order_matches_recency_model(
            slots in 0usize..5,
            slack in 0usize..128,
            ops in proptest::collection::vec((0u8..4, 0usize..6, 0usize..3), 0..120),
        ) {
            // One entry costs 112–127 bytes here: a budget of `slots`
            // entries plus slack, so that unequal costs decide evictions.
            let budget = slots * 120 + slack;
            let cache = ResponseCache::new(budget);
            let mut model = RecencyModel::new(budget);
            // Lines alternate between two sessions; a retirement moves a
            // session to a fresh stamp and remembers the old ones.
            let mut history: [Vec<u64>; 2] = [vec![1], vec![2]];
            let mut next_stamp = 3;
            for (kind, line, back) in ops {
                let session = line % 2;
                let current = [history[0][history[0].len() - 1], history[1][history[1].len() - 1]];
                let is_current = |stamp: u64| current.contains(&stamp);
                match kind {
                    0 => {
                        let got = cache
                            .lookup(LINES[line].as_bytes(), is_current)
                            .map(|(reply, kind)| (reply.to_string(), kind));
                        prop_assert_eq!(got, model.lookup(line, &current));
                    }
                    1 => {
                        let stamps = &history[session];
                        let stamp = stamps[stamps.len() - 1 - back.min(stamps.len() - 1)];
                        let reply = pure_response(line as u32, stamp);
                        cache.fill(LINES[line].as_bytes(), &reply, kind_of(line), stamp);
                        model.fill(line, stamp);
                    }
                    2 => {
                        let got = cache
                            .lookup(LINES[line].as_bytes(), is_current)
                            .map(|(reply, kind)| (reply.to_string(), kind));
                        let want = model.lookup(line, &current);
                        prop_assert_eq!(&got, &want);
                        if got.is_none() {
                            let stamp = current[session];
                            let reply = pure_response(line as u32, stamp);
                            cache.fill(LINES[line].as_bytes(), &reply, kind_of(line), stamp);
                            model.fill(line, stamp);
                        }
                    }
                    _ => {
                        history[session].push(next_stamp);
                        next_stamp += 1;
                    }
                }
                prop_assert_eq!(cache.stats(), model.stats());
            }
        }
    }
}
