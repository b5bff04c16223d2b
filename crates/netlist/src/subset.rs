//! Cell subsets and their connectivity statistics.
//!
//! A candidate GTL is just a subset of cells; this module provides the
//! [`CellSet`] container used throughout the finder (Phase III manipulates
//! candidates with union/intersection/difference, exactly as in the paper's
//! genetic-style refinement) and [`SubsetStats`], which computes the raw
//! quantities every metric in the paper is built from: the net cut `T(C)`,
//! the group size `|C|`, and the pin count of the group.

use std::collections::BTreeMap;

use crate::{CellId, Netlist};

/// A set of cells over a fixed universe `0..universe`, stored as a bitmask.
///
/// Supports the set algebra Phase III of the tangled-logic finder needs
/// (union, intersection, difference) in `O(universe/64)` words, plus
/// iteration in ascending id order.
///
/// # Example
///
/// ```
/// use gtl_netlist::{CellId, CellSet};
///
/// let mut s = CellSet::new(10);
/// s.insert(CellId::new(3));
/// s.insert(CellId::new(7));
/// let mut t = CellSet::new(10);
/// t.insert(CellId::new(7));
/// assert_eq!(s.intersection(&t).len(), 1);
/// assert_eq!(s.union(&t).len(), 2);
/// assert_eq!(s.difference(&t).iter().next(), Some(CellId::new(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSet {
    words: Vec<u64>,
    universe: usize,
    len: usize,
}

impl CellSet {
    /// Creates an empty set over ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        Self { words: vec![0; universe.div_ceil(64)], universe, len: 0 }
    }

    /// Creates a set from an iterator of cells.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= universe`.
    pub fn from_cells(universe: usize, cells: impl IntoIterator<Item = CellId>) -> Self {
        let mut s = Self::new(universe);
        for c in cells {
            s.insert(c);
        }
        s
    }

    /// Size of the universe this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of cells in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `cell` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the universe.
    #[inline]
    pub fn contains(&self, cell: CellId) -> bool {
        assert!(cell.index() < self.universe, "cell {cell} outside universe {}", self.universe);
        self.words[cell.index() / 64] >> (cell.index() % 64) & 1 == 1
    }

    /// Inserts `cell`, returning `true` if it was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the universe.
    pub fn insert(&mut self, cell: CellId) -> bool {
        assert!(cell.index() < self.universe, "cell {cell} outside universe {}", self.universe);
        let w = &mut self.words[cell.index() / 64];
        let bit = 1u64 << (cell.index() % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `cell`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the universe.
    pub fn remove(&mut self, cell: CellId) -> bool {
        assert!(cell.index() < self.universe, "cell {cell} outside universe {}", self.universe);
        let w = &mut self.words[cell.index() / 64];
        let bit = 1u64 << (cell.index() % 64);
        if *w & bit != 0 {
            *w &= !bit;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes every cell, keeping the allocation (for scratch reuse —
    /// `O(universe/64)`).
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Set union `self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a | b)
    }

    /// Set intersection `self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a & b)
    }

    /// Set difference `self − other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn difference(&self, other: &Self) -> Self {
        self.zip_with(other, |a, b| a & !b)
    }

    /// Whether `self` and `other` share no cell.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn is_disjoint(&self, other: &Self) -> bool {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Number of cells shared with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection_len(&self, other: &Self) -> usize {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Iterator over members in ascending id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Collects the members into a vector, ascending.
    pub fn to_vec(&self) -> Vec<CellId> {
        self.iter().collect()
    }

    fn zip_with(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let words: Vec<u64> = self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect();
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        Self { words, universe: self.universe, len }
    }
}

impl FromIterator<CellId> for CellSet {
    /// Builds a set whose universe is one past the largest id seen.
    fn from_iter<I: IntoIterator<Item = CellId>>(iter: I) -> Self {
        let cells: Vec<CellId> = iter.into_iter().collect();
        let universe = cells.iter().map(|c| c.index() + 1).max().unwrap_or(0);
        Self::from_cells(universe, cells)
    }
}

impl Extend<CellId> for CellSet {
    fn extend<I: IntoIterator<Item = CellId>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

/// Iterator over the members of a [`CellSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = CellId;

    fn next(&mut self) -> Option<CellId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(CellId::new(self.word_idx * 64 + bit))
    }
}

impl<'a> IntoIterator for &'a CellSet {
    type Item = CellId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Raw connectivity statistics of a cell subset, the inputs to every GTL
/// metric in the paper.
///
/// * `size` — `|C|`, the number of cells.
/// * `cut` — `T(C)`, the number of nets with pins both inside and outside.
/// * `pins` — total pins on cells of `C` (so `A_C = pins / size`).
/// * `internal_nets` — nets entirely inside `C` (useful diagnostics).
///
/// # Example
///
/// ```
/// use gtl_netlist::{CellSet, NetlistBuilder, SubsetStats};
///
/// let mut b = NetlistBuilder::new();
/// let x = b.add_cell("x", 1.0);
/// let y = b.add_cell("y", 1.0);
/// let z = b.add_cell("z", 1.0);
/// b.add_net("in", [x, y]);
/// b.add_net("out", [y, z]);
/// let nl = b.finish();
///
/// let group = CellSet::from_cells(nl.num_cells(), [x, y]);
/// let stats = SubsetStats::compute(&nl, &group);
/// assert_eq!(stats.size, 2);
/// assert_eq!(stats.cut, 1); // only "out" crosses the boundary
/// assert_eq!(stats.internal_nets, 1);
/// assert_eq!(stats.pins, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SubsetStats {
    /// Number of cells in the subset, `|C|`.
    pub size: usize,
    /// Net cut `T(C)`: nets with at least one pin inside and one outside.
    pub cut: usize,
    /// Total pins on member cells.
    pub pins: usize,
    /// Nets entirely contained in the subset.
    pub internal_nets: usize,
}

impl SubsetStats {
    /// Computes the statistics of `set` against `netlist` in
    /// `O(Σ deg(v) for v ∈ set)`.
    ///
    /// # Panics
    ///
    /// Panics if the set's universe is smaller than the netlist.
    pub fn compute(netlist: &Netlist, set: &CellSet) -> Self {
        assert!(
            set.universe() >= netlist.num_cells(),
            "set universe {} smaller than netlist {}",
            set.universe(),
            netlist.num_cells()
        );
        // BTreeMap, not HashMap: net visit order must not depend on a
        // per-process hash seed (no-unordered-iteration-in-compute).
        let mut inside: BTreeMap<crate::NetId, u32> = BTreeMap::new();
        let mut pins = 0usize;
        for cell in set.iter() {
            let nets = netlist.cell_nets(cell);
            pins += nets.len();
            for &net in nets {
                *inside.entry(net).or_insert(0) += 1;
            }
        }
        let mut cut = 0usize;
        let mut internal = 0usize;
        for (net, count) in &inside {
            if (*count as usize) < netlist.net_degree(*net) {
                cut += 1;
            } else {
                internal += 1;
            }
        }
        Self { size: set.len(), cut, pins, internal_nets: internal }
    }

    /// Average pins per cell in the subset, the paper's `A_C`.
    ///
    /// Returns `0.0` for an empty subset.
    pub fn avg_pins_per_cell(&self) -> f64 {
        if self.size == 0 {
            0.0
        } else {
            self.pins as f64 / self.size as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;
    use proptest::prelude::*;

    /// `SubsetStats::compute` with its `BTreeMap` net counter, kept
    /// verbatim (`Self` became `SubsetStats`) as the oracle for a compute
    /// that counts the nets another way.
    mod reference {
        use std::collections::BTreeMap;

        use crate::{CellSet, Netlist, SubsetStats};

        pub(super) fn compute(netlist: &Netlist, set: &CellSet) -> SubsetStats {
            assert!(
                set.universe() >= netlist.num_cells(),
                "set universe {} smaller than netlist {}",
                set.universe(),
                netlist.num_cells()
            );
            // BTreeMap, not HashMap: net visit order must not depend on a
            // per-process hash seed (no-unordered-iteration-in-compute).
            let mut inside: BTreeMap<crate::NetId, u32> = BTreeMap::new();
            let mut pins = 0usize;
            for cell in set.iter() {
                let nets = netlist.cell_nets(cell);
                pins += nets.len();
                for &net in nets {
                    *inside.entry(net).or_insert(0) += 1;
                }
            }
            let mut cut = 0usize;
            let mut internal = 0usize;
            for (net, count) in &inside {
                if (*count as usize) < netlist.net_degree(*net) {
                    cut += 1;
                } else {
                    internal += 1;
                }
            }
            SubsetStats { size: set.len(), cut, pins, internal_nets: internal }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `SubsetStats::compute` reproduces its oracle on random
        /// hypergraphs (empty and single-pin nets, cells on no net, a few
        /// nets of up to 40 pins) for subsets of every shape: empty, one
        /// cell, every cell and random, over the netlist's universe or a
        /// wider one.
        #[test]
        fn subset_stats_match_oracle(
            cells in 1usize..60,
            nets in proptest::collection::vec(proptest::collection::vec(0usize..60, 0..8), 0..80),
            hubs in proptest::collection::vec(proptest::collection::vec(0usize..60, 20..40), 0..3),
            members in proptest::collection::vec(0u8..3, 60),
            shape in 0u8..4,
            wider in 0usize..3,
        ) {
            let mut b = NetlistBuilder::new();
            b.add_anonymous_cells(cells);
            for pins in nets.iter().chain(&hubs) {
                b.add_anonymous_net(pins.iter().filter(|&&p| p < cells).map(|&p| CellId::new(p)));
            }
            let nl = b.finish();
            let universe = cells + [0, 1, 64][wider];
            let set = match shape {
                0 => CellSet::new(universe),
                1 => CellSet::from_cells(universe, [CellId::new(cells / 2)]),
                2 => CellSet::from_cells(universe, nl.cells()),
                _ => CellSet::from_cells(
                    universe,
                    (0..cells).filter(|&c| members[c] > 0).map(CellId::new),
                ),
            };
            prop_assert_eq!(SubsetStats::compute(&nl, &set), reference::compute(&nl, &set));
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = CellSet::new(130);
        assert!(s.insert(CellId::new(0)));
        assert!(s.insert(CellId::new(64)));
        assert!(s.insert(CellId::new(129)));
        assert!(!s.insert(CellId::new(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(CellId::new(129)));
        assert!(s.remove(CellId::new(64)));
        assert!(!s.remove(CellId::new(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_ascending() {
        let s = CellSet::from_cells(200, [5, 199, 64, 63].map(CellId::new));
        let v: Vec<usize> = s.iter().map(|c| c.index()).collect();
        assert_eq!(v, [5, 63, 64, 199]);
    }

    #[test]
    fn set_algebra() {
        let a = CellSet::from_cells(100, (0..10).map(CellId::new));
        let b = CellSet::from_cells(100, (5..15).map(CellId::new));
        assert_eq!(a.union(&b).len(), 15);
        assert_eq!(a.intersection(&b).len(), 5);
        assert_eq!(a.difference(&b).len(), 5);
        assert_eq!(a.intersection_len(&b), 5);
        assert!(!a.is_disjoint(&b));
        let c = CellSet::from_cells(100, (50..60).map(CellId::new));
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn from_iterator_universe() {
        let s: CellSet = [CellId::new(3), CellId::new(10)].into_iter().collect();
        assert_eq!(s.universe(), 11);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_set() {
        let s = CellSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let a = CellSet::new(10);
        let b = CellSet::new(20);
        let _ = a.union(&b);
    }

    #[test]
    fn stats_all_cells_has_zero_cut() {
        let mut b = NetlistBuilder::new();
        let c0 = b.add_anonymous_cells(4);
        for i in 0..3u32 {
            b.add_anonymous_net([CellId::new(i as usize), CellId::new(i as usize + 1)]);
        }
        let nl = b.finish();
        let all = CellSet::from_cells(nl.num_cells(), nl.cells());
        let stats = SubsetStats::compute(&nl, &all);
        assert_eq!(stats.cut, 0);
        assert_eq!(stats.internal_nets, 3);
        assert_eq!(stats.pins, 6);
        let _ = c0;
    }

    #[test]
    fn stats_single_cell() {
        let mut b = NetlistBuilder::new();
        let x = b.add_cell("x", 1.0);
        let y = b.add_cell("y", 1.0);
        b.add_net("n", [x, y]);
        let nl = b.finish();
        let s = SubsetStats::compute(&nl, &CellSet::from_cells(2, [x]));
        assert_eq!(s.size, 1);
        assert_eq!(s.cut, 1);
        assert_eq!(s.pins, 1);
        assert!((s.avg_pins_per_cell() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extend_trait() {
        let mut s = CellSet::new(10);
        s.extend([CellId::new(1), CellId::new(2)]);
        assert_eq!(s.len(), 2);
    }

    /// Regression for the old HashMap-backed net counter: repeated
    /// computations of the same subset must be identical (the counter
    /// is now a BTreeMap, so no per-process hash seed is involved).
    #[test]
    fn stats_are_deterministic_across_runs() {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..6).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for w in cells.windows(3) {
            b.add_anonymous_net([w[0], w[1], w[2]]);
        }
        let nl = b.finish();
        let mut set = CellSet::new(nl.num_cells());
        set.extend([cells[0], cells[1], cells[2], cells[3]]);
        let reference = SubsetStats::compute(&nl, &set);
        for _ in 0..5 {
            assert_eq!(SubsetStats::compute(&nl, &set), reference);
        }
    }
}
