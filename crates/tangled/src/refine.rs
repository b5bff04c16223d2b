//! Phase III (first half): genetic-style candidate refinement.
//!
//! A candidate grown from a random seed can be slightly off — a seed near
//! the boundary of a real GTL drags in outside cells. The paper's fix
//! (§3.2.3, algorithm III.1–III.13): re-run Phases I–II from a few seeds
//! *inside* the candidate, then close the family of groups under pairwise
//! union, intersection and difference, and keep the best-scoring member.
//!
//! # Example
//!
//! ```
//! use gtl_netlist::NetlistBuilder;
//! use gtl_tangled::{CandidateConfig, GrowthConfig, OrderingGrower};
//! use gtl_tangled::candidate::extract_candidate;
//! use gtl_tangled::refine::{refine_candidate, RefineConfig};
//! use rand::SeedableRng;
//!
//! // 8-clique in a scrambled sparse background; refinement keeps (or
//! // improves) the clique candidate.
//! let mut b = NetlistBuilder::new();
//! let cells: Vec<_> = (0..80).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
//! for i in 0..8 {
//!     for j in (i + 1)..8 {
//!         b.add_anonymous_net([cells[i], cells[j]]);
//!     }
//! }
//! // Scrambled background wiring between the non-clique cells, plus one
//! // link tying the clique to the rest.
//! for i in 8..80 {
//!     b.add_anonymous_net([cells[i], cells[8 + (i * 7 + 11) % (80 - 8)]]);
//!     b.add_anonymous_net([cells[i], cells[8 + (i * 13 + 29) % (80 - 8)]]);
//! }
//! b.add_anonymous_net([cells[5], cells[30]]);
//! let nl = b.finish();
//!
//! let cand_cfg = CandidateConfig { min_size: 4, max_size: 40, ..CandidateConfig::default() };
//! let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
//! let ordering = grower.grow(cells[0]);
//! let cand = extract_candidate(&ordering, nl.avg_pins_per_cell(), &cand_cfg).unwrap();
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let refined = refine_candidate(
//!     &nl, &mut grower, cand, &cand_cfg, &RefineConfig::default(), &mut rng,
//! );
//! assert!(refined.score <= 0.5);
//! ```

use gtl_netlist::{CellSet, Netlist, SubsetStats};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::candidate::{extract_candidate, Candidate, CandidateConfig};
use crate::metrics::DesignContext;
use crate::ordering::OrderingGrower;

/// Parameters for Phase III refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RefineConfig {
    /// How many extra seeds inside the candidate to grow from (paper: 3).
    pub extra_seeds: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self { extra_seeds: 3 }
    }
}

/// Refines `candidate` per the paper's Phase III and returns the best
/// family member (possibly the original candidate itself).
///
/// Every family member is re-scored exactly (its cut is recomputed from
/// the netlist, not from an ordering profile) using the candidate's Rent
/// exponent, so members produced by set operations compete fairly.
pub fn refine_candidate<R: Rng>(
    netlist: &Netlist,
    grower: &mut OrderingGrower<'_>,
    candidate: Candidate,
    candidate_config: &CandidateConfig,
    config: &RefineConfig,
    rng: &mut R,
) -> Candidate {
    let universe = netlist.num_cells();
    let base = CellSet::from_cells(universe, candidate.cells.iter().copied());

    // Grow siblings from random interior seeds (algorithm III.2–III.3),
    // reusing one ordering buffer across the growths.
    let mut family: Vec<CellSet> = vec![base];
    let mut picks = candidate.cells.clone();
    picks.shuffle(rng);
    let mut ordering = crate::ordering::LinearOrdering::new();
    for seed in picks.into_iter().take(config.extra_seeds) {
        grower.grow_into(seed, &mut ordering);
        if let Some(sibling) =
            extract_candidate(&ordering, netlist.avg_pins_per_cell(), candidate_config)
        {
            family.push(CellSet::from_cells(universe, sibling.cells.iter().copied()));
        }
    }

    // Close the family under pairwise ∩, ∪ and both differences
    // (algorithm III.6–III.12 walks each unordered pair once).
    let initial = family.len();
    for i in 0..initial {
        for j in (i + 1)..initial {
            let inter = family[i].intersection(&family[j]);
            let union = family[i].union(&family[j]);
            let a_only = family[i].difference(&inter);
            let b_only = family[j].difference(&inter);
            family.extend([union, a_only, b_only, inter]);
        }
    }

    // Exact re-scoring; keep the best member large enough to matter.
    let ctx = DesignContext::new(netlist, candidate.rent_exponent);
    let mut best: Option<(f64, CellSet, SubsetStats)> = None;
    for set in family {
        if set.len() < candidate_config.min_size {
            continue;
        }
        let stats = SubsetStats::compute(netlist, &set);
        let score = candidate_config.metric.score(&stats, &ctx);
        if best.as_ref().is_none_or(|(s, _, _)| score < *s) {
            best = Some((score, set, stats));
        }
    }

    match best {
        Some((score, set, stats)) => Candidate {
            cells: set.to_vec(),
            stats,
            score,
            rent_exponent: candidate.rent_exponent,
            minimum_index: candidate.minimum_index,
        },
        // The whole family fell below min_size (can only happen with
        // degenerate configs); keep the original.
        None => candidate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricKind;
    use crate::ordering::{GrowthConfig, GrowthCriterion};
    use crate::testutil::candidate_bits;
    use gtl_netlist::CellId;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// `refine_candidate` with its `BTreeMap`-backed family rescoring
    /// (`SubsetStats::compute` per member), kept verbatim as the Phase
    /// III oracle: a rescoring kernel that replaces it must keep the same
    /// cells, stats and score bits and draw the same random numbers.
    mod reference {
        use gtl_netlist::{CellSet, Netlist, SubsetStats};
        use rand::seq::SliceRandom;
        use rand::Rng;

        use super::super::RefineConfig;
        use crate::candidate::{extract_candidate, Candidate, CandidateConfig};
        use crate::metrics::DesignContext;
        use crate::ordering::OrderingGrower;

        /// Refines `candidate` per the paper's Phase III and returns the best
        /// family member (possibly the original candidate itself).
        ///
        /// Every family member is re-scored exactly (its cut is recomputed from
        /// the netlist, not from an ordering profile) using the candidate's Rent
        /// exponent, so members produced by set operations compete fairly.
        pub fn refine_candidate<R: Rng>(
            netlist: &Netlist,
            grower: &mut OrderingGrower<'_>,
            candidate: Candidate,
            candidate_config: &CandidateConfig,
            config: &RefineConfig,
            rng: &mut R,
        ) -> Candidate {
            let universe = netlist.num_cells();
            let base = CellSet::from_cells(universe, candidate.cells.iter().copied());

            // Grow siblings from random interior seeds (algorithm III.2–III.3),
            // reusing one ordering buffer across the growths.
            let mut family: Vec<CellSet> = vec![base];
            let mut picks = candidate.cells.clone();
            picks.shuffle(rng);
            let mut ordering = crate::ordering::LinearOrdering::new();
            for seed in picks.into_iter().take(config.extra_seeds) {
                grower.grow_into(seed, &mut ordering);
                if let Some(sibling) =
                    extract_candidate(&ordering, netlist.avg_pins_per_cell(), candidate_config)
                {
                    family.push(CellSet::from_cells(universe, sibling.cells.iter().copied()));
                }
            }

            // Close the family under pairwise ∩, ∪ and both differences
            // (algorithm III.6–III.12 walks each unordered pair once).
            let initial = family.len();
            for i in 0..initial {
                for j in (i + 1)..initial {
                    let inter = family[i].intersection(&family[j]);
                    let union = family[i].union(&family[j]);
                    let a_only = family[i].difference(&inter);
                    let b_only = family[j].difference(&inter);
                    family.extend([union, a_only, b_only, inter]);
                }
            }

            // Exact re-scoring; keep the best member large enough to matter.
            let ctx = DesignContext::new(netlist, candidate.rent_exponent);
            let mut best: Option<(f64, CellSet, SubsetStats)> = None;
            for set in family {
                if set.len() < candidate_config.min_size {
                    continue;
                }
                let stats = SubsetStats::compute(netlist, &set);
                let score = candidate_config.metric.score(&stats, &ctx);
                if best.as_ref().is_none_or(|(s, _, _)| score < *s) {
                    best = Some((score, set, stats));
                }
            }

            match best {
                Some((score, set, stats)) => Candidate {
                    cells: set.to_vec(),
                    stats,
                    score,
                    rent_exponent: candidate.rent_exponent,
                    minimum_index: candidate.minimum_index,
                },
                // The whole family fell below min_size (can only happen with
                // degenerate configs); keep the original.
                None => candidate,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `refine_candidate` reproduces its verbatim oracle bit for bit:
        /// kept cells, stats, score and the random numbers drawn, with
        /// one grower shared by both and reused across candidates as the
        /// finder reuses it. Designs are random hypergraphs or two equal
        /// cliques in a sparse background; candidates are extracted,
        /// ordering prefixes or scattered cells. Both metrics run, with
        /// `min_size` from 0 (empty members are scored) to past the whole
        /// family (the input comes back), and 0–4 extra seeds, whose
        /// siblings often repeat the base or each other, so the closure
        /// holds duplicate and empty members, and members that tie.
        #[test]
        fn refine_candidate_matches_oracle(
            n in 6usize..80,
            design in 0usize..3,
            source in 0usize..3,
            min_size in 0usize..5,
            extra_seeds in 0usize..5,
            strict in 0u8..2,
            gtl_sd in 0u8..2,
            cut_first in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nl = match design {
                0 => crate::testutil::random_hypergraph(n, n, 2, None, &mut rng),
                1 => crate::testutil::random_hypergraph(n, n, 0, Some(2), &mut rng),
                // Two equal cliques: as family members their scores tie.
                _ => crate::testutil::cliques_in_background(n + 12, &[(0, 6), (n, 6)], seed).0,
            };
            let total = nl.num_cells();
            let metric = [MetricKind::NGtlScore, MetricKind::GtlSd][usize::from(gtl_sd)];
            let config = CandidateConfig {
                metric,
                min_size: [0, 1, 3, total / 4, total + 1][min_size],
                // Lenient extraction yields siblings from most seeds.
                accept_threshold: [f64::INFINITY, 0.9][usize::from(strict)],
                prominence: [0.0, 1.2][usize::from(strict)],
                max_size: [usize::MAX, total / 2 + 1][usize::from(strict)],
                rent_exponent: [None, Some(0.6)][usize::from(strict)],
            };
            let refine = RefineConfig { extra_seeds };
            let criterion =
                [GrowthCriterion::WeightFirst, GrowthCriterion::CutFirst][usize::from(cut_first)];
            let growth = GrowthConfig { criterion, ..GrowthConfig::default() };
            let mut grower = OrderingGrower::new(&nl, growth);
            let ctx = DesignContext::new(&nl, 0.6);
            for _ in 0..3 {
                let ordering = grower.grow(CellId::new(rng.gen_range(0..total)));
                let k = rng.gen_range(0..ordering.len());
                let cells: Vec<CellId> = match source {
                    2 => {
                        let mut scattered: Vec<CellId> =
                            (0..=k).map(|_| CellId::new(rng.gen_range(0..total))).collect();
                        scattered.sort_unstable();
                        scattered.dedup();
                        scattered
                    }
                    _ => ordering.prefix(k),
                };
                let stats = SubsetStats::compute(&nl, &CellSet::from_cells(total, cells.clone()));
                let score = metric.score(&stats, &ctx);
                let given = Candidate { cells, stats, score, rent_exponent: 0.6, minimum_index: k };
                let candidate = match source {
                    0 => extract_candidate(&ordering, nl.avg_pins_per_cell(), &config)
                        .unwrap_or(given),
                    _ => given,
                };
                let draws = rng.gen::<u64>();
                let mut got_rng = SmallRng::seed_from_u64(draws);
                let mut want_rng = SmallRng::seed_from_u64(draws);
                let got = refine_candidate(
                    &nl, &mut grower, candidate.clone(), &config, &refine, &mut got_rng,
                );
                let want = reference::refine_candidate(
                    &nl, &mut grower, candidate, &config, &refine, &mut want_rng,
                );
                prop_assert_eq!(candidate_bits(&got), candidate_bits(&want), "{:?} n={} {:?}", config, total, refine);
                prop_assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "draws diverged");
            }
        }
    }

    /// Clique of `k` cells planted in a random background; returns the
    /// netlist, the planted members, and a candidate config.
    fn setup(k: usize) -> (Netlist, Vec<CellId>, CandidateConfig) {
        let (nl, truth) = crate::testutil::cliques_in_background(200, &[(20, k)], 11);
        (
            nl,
            truth.into_iter().next().unwrap(),
            CandidateConfig { min_size: 4, max_size: 60, ..CandidateConfig::default() },
        )
    }

    use gtl_netlist::Netlist;

    #[test]
    fn refinement_never_worsens_score() {
        let (nl, cells, cfg) = setup(8);
        let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = grower.grow(cells[3]);
        let cand = extract_candidate(&ord, nl.avg_pins_per_cell(), &cfg).unwrap();
        let before = cand.score;
        let mut rng = SmallRng::seed_from_u64(1);
        let refined =
            refine_candidate(&nl, &mut grower, cand, &cfg, &RefineConfig::default(), &mut rng);
        assert!(refined.score <= before + 1e-12, "{} > {}", refined.score, before);
    }

    #[test]
    fn refinement_trims_polluted_candidate() {
        let (nl, cells, cfg) = setup(10);
        let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
        // Hand-build a polluted candidate: the clique plus 4 background
        // cells (the plant sits at offset 20, so ids 0..4 are background).
        let mut polluted: Vec<CellId> = cells.clone();
        polluted.extend((0..4).map(CellId::new));
        polluted.sort_unstable();
        let set = CellSet::from_cells(nl.num_cells(), polluted.iter().copied());
        let stats = SubsetStats::compute(&nl, &set);
        let ctx = DesignContext::new(&nl, 0.6);
        let cand = Candidate {
            cells: polluted,
            stats,
            score: cfg.metric.score(&stats, &ctx),
            rent_exponent: 0.6,
            minimum_index: 13,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let refined =
            refine_candidate(&nl, &mut grower, cand, &cfg, &RefineConfig::default(), &mut rng);
        // The refined candidate should be the bare clique (10 cells).
        assert_eq!(refined.cells.len(), 10, "refined to {:?}", refined.cells.len());
        for cell in &cells[..10] {
            assert!(refined.cells.contains(cell));
        }
    }

    #[test]
    fn zero_extra_seeds_still_works() {
        let (nl, cells, cfg) = setup(8);
        let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = grower.grow(cells[0]);
        let cand = extract_candidate(&ord, nl.avg_pins_per_cell(), &cfg).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let refined = refine_candidate(
            &nl,
            &mut grower,
            cand.clone(),
            &cfg,
            &RefineConfig { extra_seeds: 0 },
            &mut rng,
        );
        // Family = {base} only; result equals the base candidate's set.
        assert_eq!(refined.cells.len(), cand.cells.len());
    }

    #[test]
    fn refinement_is_deterministic_given_rng() {
        let (nl, cells, cfg) = setup(8);
        let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
        let ord = grower.grow(cells[2]);
        let cand = extract_candidate(&ord, nl.avg_pins_per_cell(), &cfg).unwrap();
        let r1 = refine_candidate(
            &nl,
            &mut grower,
            cand.clone(),
            &cfg,
            &RefineConfig::default(),
            &mut SmallRng::seed_from_u64(9),
        );
        let r2 = refine_candidate(
            &nl,
            &mut grower,
            cand,
            &cfg,
            &RefineConfig::default(),
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(r1.cells, r2.cells);
        assert_eq!(r1.score, r2.score);
    }
}
