//! Phase III (second half): pruning overlapping candidates.
//!
//! After refinement, the `m` parallel searches may have discovered the same
//! structure several times. The paper keeps a disjoint set of winners:
//! candidates are ranked by score and an inferior candidate overlapping an
//! already-kept one is discarded (§3.2.3).
//!
//! Note on the paper's pseudocode: algorithm lines III.16–III.21 sort by
//! non-increasing Φ and keep `P_i` only when nothing *after* it overlaps,
//! which as written would discard a best-scoring candidate because a worse
//! overlapping one exists. The stated intent ("if one has overlap with
//! another and inferior GTL-Score, it is pruned out") is the standard
//! best-first greedy, which is what this module implements.

use gtl_netlist::CellSet;

use crate::candidate::Candidate;

/// Reusable state for [`prune_overlapping_with`]: the bitset of cells
/// covered by already-kept candidates.
///
/// Pruning runs once per finder invocation (which allocates its own, one
/// `O(universe/64)`-word bitset per run); a caller pruning repeatedly
/// over one netlist can reuse the allocation across calls instead. The
/// scratch transparently regrows when a larger universe shows up.
#[derive(Debug, Clone)]
pub struct PruneScratch {
    covered: CellSet,
}

impl PruneScratch {
    /// Creates scratch for netlists of up to `universe` cells.
    pub fn new(universe: usize) -> Self {
        Self { covered: CellSet::new(universe) }
    }

    /// Clears the bitset, reallocating only if `universe` grew.
    fn reset(&mut self, universe: usize) {
        if self.covered.universe() < universe {
            self.covered = CellSet::new(universe);
        } else {
            self.covered.clear();
        }
    }
}

/// Selects a best-first disjoint subset of candidates.
///
/// Candidates are sorted by ascending score (lower = more tangled =
/// better) **once**; each is then kept iff it shares no cell with a
/// previously kept one, tracked in a single bitset with the membership
/// probe bailing on the first covered cell. Total cost is
/// `O(m log m + Σ|Cᵢ|)` after the sort — linear in the candidate cells,
/// not quadratic in the candidate count `m`. `universe` is the netlist
/// cell count.
///
/// Equal scores tie-break on the cell vectors themselves, which is only
/// canonical (independent of how each candidate's cells happen to be
/// arranged) when every candidate's `cells` list is **sorted ascending**.
/// Callers must canonicalize before pruning — the finder sorts right
/// after Phase III — and debug builds enforce it.
///
/// # Panics
///
/// In debug builds, panics if any candidate's cell list is not sorted.
///
/// # Example
///
/// ```
/// use gtl_netlist::{CellId, SubsetStats};
/// use gtl_tangled::candidate::Candidate;
/// use gtl_tangled::prune::prune_overlapping;
///
/// let mk = |cells: Vec<usize>, score: f64| Candidate {
///     cells: cells.into_iter().map(CellId::new).collect(),
///     stats: SubsetStats::default(),
///     score,
///     rent_exponent: 0.6,
///     minimum_index: 0,
/// };
/// let kept = prune_overlapping(
///     vec![mk(vec![0, 1, 2], 0.3), mk(vec![2, 3], 0.1), mk(vec![7, 8], 0.5)],
///     10,
/// );
/// // The 0.1 candidate wins its overlap with the 0.3 one.
/// let scores: Vec<f64> = kept.iter().map(|c| c.score).collect();
/// assert_eq!(scores, [0.1, 0.5]);
/// ```
pub fn prune_overlapping(candidates: Vec<Candidate>, universe: usize) -> Vec<Candidate> {
    prune_overlapping_with(candidates, universe, &mut PruneScratch::new(universe))
}

/// [`prune_overlapping`] with caller-owned scratch, for callers that prune
/// repeatedly over the same netlist (see [`PruneScratch`]).
///
/// # Panics
///
/// In debug builds, panics if any candidate's cell list is not sorted.
pub fn prune_overlapping_with(
    mut candidates: Vec<Candidate>,
    universe: usize,
    scratch: &mut PruneScratch,
) -> Vec<Candidate> {
    debug_assert!(
        candidates.iter().all(|c| c.cells.windows(2).all(|w| w[0] <= w[1])),
        "candidate cell lists must be sorted ascending for a canonical tiebreak"
    );
    // Best-first order, established exactly once. The comparator is a
    // total order over (score, cells), so an unstable sort is canonical.
    candidates.sort_unstable_by(|a, b| a.score.total_cmp(&b.score).then(a.cells.cmp(&b.cells)));
    scratch.reset(universe);
    let covered = &mut scratch.covered;
    let mut kept: Vec<Candidate> = Vec::new();
    'outer: for cand in candidates {
        // Probe before committing; the first covered cell disqualifies the
        // candidate, so the common rejected case is O(overlap prefix).
        for &cell in &cand.cells {
            if covered.contains(cell) {
                continue 'outer;
            }
        }
        for &cell in &cand.cells {
            covered.insert(cell);
        }
        kept.push(cand);
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::candidate_bits;
    use gtl_netlist::{CellId, SubsetStats};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `prune_overlapping_with` with its one-sort, one-bitset greedy,
    /// kept verbatim as the pruning oracle: a pruner that replaces it
    /// must keep the same candidates in the same order.
    mod reference {
        use super::super::PruneScratch;
        use crate::candidate::Candidate;

        /// [`prune_overlapping`] with caller-owned scratch, for callers that prune
        /// repeatedly over the same netlist (see [`PruneScratch`]).
        ///
        /// # Panics
        ///
        /// In debug builds, panics if any candidate's cell list is not sorted.
        pub fn prune_overlapping_with(
            mut candidates: Vec<Candidate>,
            universe: usize,
            scratch: &mut PruneScratch,
        ) -> Vec<Candidate> {
            debug_assert!(
                candidates.iter().all(|c| c.cells.windows(2).all(|w| w[0] <= w[1])),
                "candidate cell lists must be sorted ascending for a canonical tiebreak"
            );
            // Best-first order, established exactly once. The comparator is a
            // total order over (score, cells), so an unstable sort is canonical.
            candidates
                .sort_unstable_by(|a, b| a.score.total_cmp(&b.score).then(a.cells.cmp(&b.cells)));
            scratch.reset(universe);
            let covered = &mut scratch.covered;
            let mut kept: Vec<Candidate> = Vec::new();
            'outer: for cand in candidates {
                // Probe before committing; the first covered cell disqualifies the
                // candidate, so the common rejected case is O(overlap prefix).
                for &cell in &cand.cells {
                    if covered.contains(cell) {
                        continue 'outer;
                    }
                }
                for &cell in &cand.cells {
                    covered.insert(cell);
                }
                kept.push(cand);
            }
            kept
        }
    }

    /// A random candidate family over `universe` cells: sorted cell lists
    /// that are empty, single cells, runs or scattered picks; copies of
    /// an earlier member (same cells, maybe another score); members that
    /// share exactly one cell with an earlier one; and scores from a
    /// small set, so that ties are common, with both zeros and a NaN,
    /// which only `total_cmp` orders.
    fn random_family(universe: usize, len: usize, rng: &mut SmallRng) -> Vec<Candidate> {
        const SCORES: [f64; 6] = [0.25, 0.5, 0.5, 0.0, -0.0, f64::NAN];
        let mut family: Vec<Candidate> = Vec::with_capacity(len);
        for index in 0..len {
            let mut cells: Vec<CellId> = match rng.gen_range(0..6u8) {
                0 => Vec::new(),
                1 => vec![CellId::new(rng.gen_range(0..universe))],
                2 if index > 0 => family[rng.gen_range(0..index)].cells.clone(),
                3 if index > 0 => {
                    // One cell of an earlier member, plus cells outside it.
                    let earlier = &family[rng.gen_range(0..index)].cells;
                    let shared =
                        (!earlier.is_empty()).then(|| earlier[rng.gen_range(0..earlier.len())]);
                    let mut cells: Vec<CellId> = (0..3)
                        .map(|_| CellId::new(rng.gen_range(0..universe)))
                        .filter(|cell| !earlier.contains(cell))
                        .collect();
                    cells.extend(shared);
                    cells
                }
                4 => {
                    let start = rng.gen_range(0..universe);
                    let end = (start + rng.gen_range(1..8usize)).min(universe);
                    (start..end).map(CellId::new).collect()
                }
                _ => (0..rng.gen_range(1..6))
                    .map(|_| CellId::new(rng.gen_range(0..universe)))
                    .collect(),
            };
            cells.sort_unstable();
            cells.dedup();
            let score = SCORES[rng.gen_range(0..SCORES.len())];
            family.push(Candidate {
                stats: SubsetStats { size: cells.len(), ..SubsetStats::default() },
                cells,
                score,
                rent_exponent: 0.6,
                minimum_index: index,
            });
        }
        family
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `prune_overlapping_with` keeps exactly the candidates its
        /// verbatim oracle keeps, in the same order and bit for bit, on
        /// random families (see `random_family`) in universes of 1–40
        /// cells, with one scratch reused across families of growing and
        /// shrinking universes against a fresh scratch per oracle call.
        #[test]
        fn prune_matches_oracle(
            families in proptest::collection::vec((1usize..40, 0usize..24), 1..5),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut scratch = PruneScratch::new(1);
            for (universe, len) in families {
                let family = random_family(universe, len, &mut rng);
                let got = prune_overlapping_with(family.clone(), universe, &mut scratch);
                let want = reference::prune_overlapping_with(
                    family,
                    universe,
                    &mut PruneScratch::new(universe),
                );
                let got: Vec<_> = got.iter().map(candidate_bits).collect();
                let want: Vec<_> = want.iter().map(candidate_bits).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    fn cand(cells: &[usize], score: f64) -> Candidate {
        Candidate {
            cells: cells.iter().map(|&i| CellId::new(i)).collect(),
            stats: SubsetStats { size: cells.len(), ..SubsetStats::default() },
            score,
            rent_exponent: 0.6,
            minimum_index: 0,
        }
    }

    #[test]
    fn disjoint_candidates_all_kept() {
        let kept =
            prune_overlapping(vec![cand(&[0, 1], 0.5), cand(&[2, 3], 0.2), cand(&[4], 0.9)], 10);
        assert_eq!(kept.len(), 3);
        // Sorted best-first.
        assert!(kept[0].score <= kept[1].score && kept[1].score <= kept[2].score);
    }

    #[test]
    fn overlap_keeps_better_score() {
        let kept = prune_overlapping(vec![cand(&[0, 1, 2], 0.5), cand(&[2, 3, 4], 0.1)], 10);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].score, 0.1);
    }

    #[test]
    fn chain_of_overlaps() {
        // a(0.1) overlaps b(0.2); b overlaps c(0.3); a and c are disjoint.
        // Best-first: keep a, drop b, keep c.
        let kept =
            prune_overlapping(vec![cand(&[0, 1], 0.1), cand(&[1, 2], 0.2), cand(&[2, 3], 0.3)], 10);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].score, 0.1);
        assert_eq!(kept[1].score, 0.3);
    }

    #[test]
    fn identical_scores_deterministic() {
        let a = prune_overlapping(vec![cand(&[0, 1], 0.5), cand(&[1, 2], 0.5)], 10);
        let b = prune_overlapping(vec![cand(&[1, 2], 0.5), cand(&[0, 1], 0.5)], 10);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].cells, b[0].cells, "tie-break must not depend on input order");
    }

    #[test]
    fn empty_input() {
        assert!(prune_overlapping(Vec::new(), 5).is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut scratch = PruneScratch::new(10);
        let batch_a = vec![cand(&[0, 1, 2], 0.5), cand(&[2, 3, 4], 0.1)];
        let batch_b = vec![cand(&[0, 1], 0.1), cand(&[1, 2], 0.2), cand(&[2, 3], 0.3)];
        for batch in [batch_a, batch_b] {
            let fresh = prune_overlapping(batch.clone(), 10);
            let reused = prune_overlapping_with(batch, 10, &mut scratch);
            assert_eq!(
                fresh.iter().map(|c| (&c.cells, c.score)).collect::<Vec<_>>(),
                reused.iter().map(|c| (&c.cells, c.score)).collect::<Vec<_>>()
            );
        }
        // A larger universe regrows the scratch transparently.
        let kept = prune_overlapping_with(vec![cand(&[700], 0.2)], 1000, &mut scratch);
        assert_eq!(kept.len(), 1);
    }
}
