//! The session registry: a byte-budgeted store of named, reference-counted
//! values with deterministic least-recently-used eviction.
//!
//! `gtl-api` instantiates this with loaded netlist sessions (API v4
//! `LoadNetlist`/`UnloadNetlist`/`ListSessions`), but the registry itself
//! is domain-free: it maps names to `Arc<T>` values under two admission
//! limits — a maximum entry count and a byte budget — and evicts the
//! coldest entries when an insert would exceed either. The entries and
//! their recency order live in a [`crate::lru::Lru`], the store under
//! the response cache too, keyed by generation: a cache hit names its
//! load by generation ([`Registry::touch_generation`]), so that path
//! takes one integer lookup. The registry adds its two limits, its
//! counters and a map from each resident name to its generation.
//!
//! # Invariants
//!
//! * **Deterministic eviction** — recency is updated only by `insert`,
//!   `get`, `touch_generation` and `remove`; for a serialized operation
//!   sequence the set of
//!   evicted names (reported in insertion order, coldest first) is a pure
//!   function of that sequence, independent of worker or lane counts.
//! * **Monotonic generations** — every successful insert stamps the entry
//!   with a fresh generation from a counter that starts at 1 and never
//!   repeats, even when a name is reused after an unload. A resident
//!   generation therefore names exactly one load, so a response-cache
//!   entry stamped with it ([`Registry::touch_generation`]) answers only
//!   while that very load is resident, which is what keeps cache
//!   transparency intact per session (generation 0 is reserved for the
//!   un-registered default session).
//! * **Drain, never abort** — `remove` and eviction drop only the
//!   registry's reference; in-flight work holding the `Arc<T>` completes
//!   against the old value.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::lru::Lru;

/// Counters and occupancy describing a [`Registry`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged against the budget.
    pub bytes: u64,
    /// The configured byte budget (`0` = unlimited).
    pub capacity_bytes: u64,
    /// The configured entry cap (`0` = unlimited).
    pub max_entries: u64,
    /// Entries admitted since construction (replacements count).
    pub loads: u64,
    /// Entries evicted cold to make room since construction.
    pub evictions: u64,
    /// Entries removed by explicit unload since construction.
    pub unloads: u64,
}

/// The outcome of a successful [`Registry::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The generation stamped on the new entry (monotonic, never reused).
    pub generation: u64,
    /// Names evicted to make room, coldest first.
    pub evicted: Vec<Arc<str>>,
    /// Whether the name was already present (the old value was dropped).
    pub replaced: bool,
}

/// Why an insert was refused. The registry is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The entry alone exceeds the whole byte budget (cost, budget).
    OverBudget(u64, u64),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OverBudget(cost, budget) => {
                write!(f, "entry costs {cost} bytes but the registry budget is {budget}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A byte-budgeted, entry-capped map from names to shared values with
/// deterministic LRU eviction and monotonic generation stamps.
///
/// All operations take `&self`; the interior is a single mutex, so a
/// serialized operation sequence yields one deterministic history.
///
/// # Example
///
/// ```
/// use gtl_runtime::Registry;
///
/// let registry: Registry<String> = Registry::new(2, 0);
/// registry.insert("a", "alpha".to_string(), 64)?;
/// registry.insert("b", "beta".to_string(), 64)?;
/// let outcome = registry.insert("c", "gamma".to_string(), 64)?;
/// assert_eq!(outcome.evicted, vec![std::sync::Arc::from("a")]); // coldest
/// assert!(registry.get("a").is_none());
/// assert_eq!(registry.get("c").map(|(value, _)| value.to_string()).as_deref(), Some("gamma"));
/// # Ok::<(), gtl_runtime::RegistryError>(())
/// ```
#[derive(Debug)]
pub struct Registry<T> {
    inner: Mutex<Inner<T>>,
}

#[derive(Debug)]
struct Inner<T> {
    /// `0` = unlimited entries.
    max_entries: usize,
    /// `0` = unlimited bytes.
    budget: usize,
    /// The resident entries by generation.
    entries: Lru<u64, Entry<T>>,
    /// The generation of each resident name.
    names: HashMap<Arc<str>, u64>,
    bytes: usize,
    next_generation: u64,
    loads: u64,
    evictions: u64,
    unloads: u64,
}

#[derive(Debug)]
struct Entry<T> {
    name: Arc<str>,
    value: Arc<T>,
    cost: usize,
}

impl<T> Inner<T> {
    /// Removes the entry resident under `name`, uncharging it.
    fn take(&mut self, name: &str) -> Option<Entry<T>> {
        let entry = self.entries.remove(&self.names.remove(name)?)?;
        self.bytes -= entry.cost;
        Some(entry)
    }
}

/// One row of [`Registry::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry<T> {
    /// The entry's name.
    pub name: Arc<str>,
    /// The shared value.
    pub value: Arc<T>,
    /// Bytes charged for this entry.
    pub cost: u64,
    /// The generation stamped at insert.
    pub generation: u64,
}

impl<T> Registry<T> {
    /// Creates a registry capped at `max_entries` entries (`0` =
    /// unlimited) and `budget_bytes` bytes (`0` = unlimited).
    pub fn new(max_entries: usize, budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                max_entries,
                budget: budget_bytes,
                entries: Lru::new(),
                names: HashMap::new(),
                bytes: 0,
                next_generation: 1,
                loads: 0,
                evictions: 0,
                unloads: 0,
            }),
        }
    }

    /// Admits `value` under `name`, charging `cost` bytes. An existing
    /// entry with the same name is replaced (its generation is retired).
    /// Cold entries are evicted until both limits hold; if `cost` alone
    /// exceeds a non-zero byte budget the insert is refused and the
    /// registry is unchanged.
    pub fn insert(
        &self,
        name: &str,
        value: T,
        cost: usize,
    ) -> Result<InsertOutcome, RegistryError> {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        if inner.budget > 0 && cost > inner.budget {
            return Err(RegistryError::OverBudget(cost as u64, inner.budget as u64));
        }
        let replaced = inner.take(name).is_some();
        let mut evicted = Vec::new();
        // Make room: the new entry counts toward both limits.
        while (inner.budget > 0 && inner.bytes + cost > inner.budget)
            || (inner.max_entries > 0 && inner.entries.len() + 1 > inner.max_entries)
        {
            let Some((_, coldest)) = inner.entries.pop_coldest() else { break };
            inner.names.remove(&coldest.name);
            inner.bytes -= coldest.cost;
            inner.evictions += 1;
            evicted.push(coldest.name);
        }
        let generation = inner.next_generation;
        inner.next_generation += 1;
        let name: Arc<str> = Arc::from(name);
        inner.names.insert(Arc::clone(&name), generation);
        inner.entries.insert(generation, Entry { name, value: Arc::new(value), cost });
        inner.bytes += cost;
        inner.loads += 1;
        Ok(InsertOutcome { generation, evicted, replaced })
    }

    /// Looks up `name`, promoting the entry to most-recently-used.
    /// Returns the shared value and its generation.
    pub fn get(&self, name: &str) -> Option<(Arc<T>, u64)> {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let generation = *inner.names.get(name)?;
        let entry = inner.entries.get(&generation)?;
        Some((Arc::clone(&entry.value), generation))
    }

    /// Whether the entry stamped `generation` is still resident,
    /// promoting it to most-recently-used if so — exactly as a
    /// [`Registry::get`] of its name would. Generations are never reused,
    /// so `true` means that very insert is still the one under its name.
    pub fn touch_generation(&self, generation: u64) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.entries.get(&generation).is_some()
    }

    /// Removes `name`, returning its value. In-flight holders of the
    /// `Arc` keep working against it (drain, never abort).
    pub fn remove(&self, name: &str) -> Option<Arc<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let entry = inner.take(name)?;
        inner.unloads += 1;
        Some(entry.value)
    }

    /// All resident entries, sorted by name (a stable order for wire
    /// responses — recency is deliberately not exposed here).
    pub fn list(&self) -> Vec<RegistryEntry<T>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<RegistryEntry<T>> = inner
            .entries
            .iter()
            .map(|(&generation, entry)| RegistryEntry {
                name: Arc::clone(&entry.name),
                value: Arc::clone(&entry.value),
                cost: entry.cost as u64,
                generation,
            })
            .collect();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// A consistent snapshot of occupancy and counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        RegistryStats {
            entries: inner.entries.len() as u64,
            bytes: inner.bytes as u64,
            capacity_bytes: inner.budget as u64,
            max_entries: inner.max_entries as u64,
            loads: inner.loads,
            evictions: inner.evictions,
            unloads: inner.unloads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_cap_evicts_coldest_first() {
        let registry: Registry<u32> = Registry::new(2, 0);
        registry.insert("a", 1, 10).unwrap();
        registry.insert("b", 2, 10).unwrap();
        // Touch `a`: `b` becomes coldest.
        assert_eq!(registry.get("a").map(|(v, _)| *v), Some(1));
        let outcome = registry.insert("c", 3, 10).unwrap();
        assert_eq!(outcome.evicted, vec![Arc::from("b")]);
        assert!(!outcome.replaced);
        assert!(registry.get("b").is_none());
        assert_eq!(registry.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_evicts_until_it_fits() {
        let registry: Registry<u32> = Registry::new(0, 100);
        registry.insert("a", 1, 40).unwrap();
        registry.insert("b", 2, 40).unwrap();
        let outcome = registry.insert("c", 3, 90).unwrap();
        // Both residents must go to admit the 90-byte entry.
        assert_eq!(outcome.evicted, vec![Arc::from("a"), Arc::from("b")]);
        let stats = registry.stats();
        assert_eq!((stats.entries, stats.bytes), (1, 90));
    }

    #[test]
    fn over_budget_insert_is_refused_and_leaves_state_unchanged() {
        let registry: Registry<u32> = Registry::new(0, 100);
        registry.insert("a", 1, 40).unwrap();
        let err = registry.insert("big", 9, 101).unwrap_err();
        assert_eq!(err, RegistryError::OverBudget(101, 100));
        assert!(registry.get("a").is_some());
        assert_eq!(registry.stats().entries, 1);
        assert_eq!(registry.stats().evictions, 0);
    }

    #[test]
    fn generations_are_monotonic_and_never_reused() {
        let registry: Registry<u32> = Registry::new(0, 0);
        let g1 = registry.insert("a", 1, 1).unwrap().generation;
        registry.remove("a");
        let g2 = registry.insert("a", 2, 1).unwrap().generation;
        let g3 = registry.insert("a", 3, 1).unwrap().generation; // replacement
        assert!(g1 < g2 && g2 < g3, "{g1} {g2} {g3}");
        assert_eq!(registry.get("a").unwrap().1, g3);
    }

    #[test]
    fn touch_generation_names_one_load_and_promotes_it() {
        let registry: Registry<u32> = Registry::new(2, 0);
        let a1 = registry.insert("a", 1, 10).unwrap().generation;
        let b = registry.insert("b", 2, 10).unwrap().generation;
        assert!(!registry.touch_generation(0), "generation 0 is never stamped");
        // Touching `a` by generation makes `b` the coldest, as `get("a")` would.
        assert!(registry.touch_generation(a1));
        assert_eq!(registry.insert("c", 3, 10).unwrap().evicted, vec![Arc::from("b")]);
        assert!(!registry.touch_generation(b), "an evicted load is gone");
        // A reload retires the old generation, an unload the new one.
        let a2 = registry.insert("a", 4, 10).unwrap().generation;
        assert!(!registry.touch_generation(a1));
        assert!(registry.touch_generation(a2));
        registry.remove("a");
        assert!(!registry.touch_generation(a2));
    }

    #[test]
    fn replacement_keeps_entry_count_and_reports_replaced() {
        let registry: Registry<u32> = Registry::new(2, 0);
        registry.insert("a", 1, 10).unwrap();
        registry.insert("b", 2, 10).unwrap();
        let outcome = registry.insert("a", 9, 10).unwrap();
        assert!(outcome.replaced);
        assert!(outcome.evicted.is_empty(), "replacement needs no eviction");
        assert_eq!(registry.get("a").map(|(v, _)| *v), Some(9));
        assert_eq!(registry.stats().entries, 2);
    }

    #[test]
    fn remove_drains_shared_value() {
        let registry: Registry<String> = Registry::new(0, 0);
        registry.insert("s", "payload".to_string(), 7).unwrap();
        let (held, _) = registry.get("s").unwrap();
        let removed = registry.remove("s").expect("present");
        assert!(registry.get("s").is_none());
        // Both references still see the value: removal only drops the
        // registry's reference.
        assert_eq!(&*held, "payload");
        assert_eq!(&*removed, "payload");
    }

    #[test]
    fn list_is_sorted_by_name() {
        let registry: Registry<u32> = Registry::new(0, 0);
        registry.insert("zeta", 1, 5).unwrap();
        registry.insert("alpha", 2, 6).unwrap();
        registry.insert("mid", 3, 7).unwrap();
        let names: Vec<String> = registry.list().iter().map(|r| r.name.to_string()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    use proptest::prelude::*;

    /// A reference model: same semantics, naive Vec implementation.
    #[derive(Default)]
    struct Model {
        max_entries: usize,
        budget: usize,
        /// Recency order, most recent first: (name, value, cost, gen).
        rows: Vec<(String, u32, usize, u64)>,
        next_gen: u64,
        bytes: usize,
    }

    impl Model {
        fn new(max_entries: usize, budget: usize) -> Self {
            Self { max_entries, budget, next_gen: 1, ..Self::default() }
        }

        fn insert(&mut self, name: &str, value: u32, cost: usize) -> Option<Vec<String>> {
            if self.budget > 0 && cost > self.budget {
                return None;
            }
            if let Some(pos) = self.rows.iter().position(|r| r.0 == name) {
                let old = self.rows.remove(pos);
                self.bytes -= old.2;
            }
            let mut evicted = Vec::new();
            while (self.budget > 0 && self.bytes + cost > self.budget)
                || (self.max_entries > 0 && self.rows.len() + 1 > self.max_entries)
            {
                let old = self.rows.pop().expect("non-empty");
                self.bytes -= old.2;
                evicted.push(old.0);
            }
            let generation = self.next_gen;
            self.next_gen += 1;
            self.rows.insert(0, (name.to_string(), value, cost, generation));
            self.bytes += cost;
            Some(evicted)
        }

        fn get(&mut self, name: &str) -> Option<(u32, u64)> {
            let pos = self.rows.iter().position(|r| r.0 == name)?;
            let row = self.rows.remove(pos);
            let out = (row.1, row.3);
            self.rows.insert(0, row);
            Some(out)
        }

        fn remove(&mut self, name: &str) -> Option<u32> {
            let pos = self.rows.iter().position(|r| r.0 == name)?;
            let row = self.rows.remove(pos);
            self.bytes -= row.2;
            Some(row.1)
        }

        fn touch_generation(&mut self, generation: u64) -> bool {
            let Some(pos) = self.rows.iter().position(|r| r.3 == generation) else {
                return false;
            };
            let row = self.rows.remove(pos);
            self.rows.insert(0, row);
            true
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u32, usize),
        Get(u8),
        Remove(u8),
        TouchGeneration(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored proptest shim has no `prop_oneof`; a selector
        // field picks the operation kind instead.
        (0u8..4, 0u8..6, 0u32..1000, 1usize..120).prop_map(|(kind, n, v, c)| match kind {
            0 => Op::Insert(n, v, c),
            1 => Op::Get(n),
            2 => Op::Remove(n),
            _ => Op::TouchGeneration(u64::from(v % 48)),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any operation sequence and any limits, the registry
        /// agrees with a naive reference model on every return value —
        /// eviction victims, their order, hit values, generations — and
        /// never exceeds its limits.
        #[test]
        fn matches_reference_model(
            max_entries in 0usize..4,
            budget in 0usize..256,
            ops in proptest::collection::vec(op_strategy(), 0..80),
        ) {
            let registry: Registry<u32> = Registry::new(max_entries, budget);
            let mut model = Model::new(max_entries, budget);
            for op in ops {
                match op {
                    Op::Insert(n, v, c) => {
                        let name = format!("n{n}");
                        let got = registry.insert(&name, v, c);
                        match model.insert(&name, v, c) {
                            None => prop_assert!(got.is_err()),
                            Some(evicted) => {
                                let outcome = got.unwrap();
                                let names: Vec<String> =
                                    outcome.evicted.iter().map(|s| s.to_string()).collect();
                                prop_assert_eq!(names, evicted);
                            }
                        }
                    }
                    Op::Get(n) => {
                        let name = format!("n{n}");
                        let got = registry.get(&name).map(|(v, g)| (*v, g));
                        prop_assert_eq!(got, model.get(&name));
                    }
                    Op::Remove(n) => {
                        let name = format!("n{n}");
                        let got = registry.remove(&name).map(|v| *v);
                        prop_assert_eq!(got, model.remove(&name));
                    }
                    Op::TouchGeneration(generation) => {
                        prop_assert_eq!(
                            registry.touch_generation(generation),
                            model.touch_generation(generation)
                        );
                    }
                }
                let stats = registry.stats();
                if budget > 0 {
                    prop_assert!(stats.bytes <= budget as u64);
                }
                if max_entries > 0 {
                    prop_assert!(stats.entries <= max_entries as u64);
                }
            }
        }
    }
}
