//! The top-level three-phase `TangledLogicFinder` (paper Chapter IV).
//!
//! Orchestrates `m` independent seed searches — each running Phase I
//! (ordering), Phase II (candidate extraction) and Phase III refinement —
//! through the shared deterministic execution layer
//! ([`gtl_core::exec`]), followed by the only serial step, the `O(m²)`
//! overlap pruning. Results are deterministic for a given `rng_seed`
//! regardless of the thread count, because every search derives its own
//! RNG stream from the search index via [`gtl_core::derive_stream`] and
//! the execution layer returns results in seed order.

use gtl_core::cancel::{CancelToken, Cancelled};
use gtl_netlist::{CellId, Netlist, SubsetStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ordering::LinearOrdering;

use crate::candidate::{extract_candidate, Candidate, CandidateConfig};
use crate::metrics::{self, DesignContext, MetricKind};
use crate::ordering::{GrowthConfig, OrderingGrower};
use crate::refine::{refine_candidate, RefineConfig};

/// Configuration of the three-phase finder.
///
/// Defaults mirror the paper's experimental setup where practical
/// (`lambda_threshold` 20, 3 refinement seeds, 100K ordering cap) with a
/// lighter default seed count.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FinderConfig {
    /// Number of parallel seed searches, the paper's `m` (paper: 100).
    pub num_seeds: usize,
    /// Maximum linear-ordering length `Z` (paper: 100K).
    pub max_order_len: usize,
    /// λ threshold for skipping weight updates on large nets (paper: 20).
    pub lambda_threshold: usize,
    /// Phase I selection criterion (ablation knob; paper: weight first).
    pub criterion: crate::ordering::GrowthCriterion,
    /// Metric to optimize.
    pub metric: MetricKind,
    /// Smallest group reported as a GTL.
    pub min_size: usize,
    /// A candidate's minimum score must be below this (average ≈ 1.0).
    pub accept_threshold: f64,
    /// Required post-minimum rise factor for a "clear minimum".
    pub prominence: f64,
    /// Largest GTL as a fraction of the netlist — the paper excludes
    /// "partitions that consume a huge chunk of the circuit".
    pub max_fraction: f64,
    /// Extra interior seeds per candidate in Phase III (paper: 3).
    pub refine_seeds: usize,
    /// Whether to run Phase III refinement at all (ablation knob).
    pub refine: bool,
    /// Worker threads; `0` means all available cores.
    pub threads: usize,
    /// Master RNG seed; same seed ⇒ same result, any thread count.
    pub rng_seed: u64,
    /// Fixed Rent exponent; `None` estimates one per ordering.
    pub rent_exponent: Option<f64>,
}

impl Default for FinderConfig {
    fn default() -> Self {
        Self {
            num_seeds: 32,
            max_order_len: 100_000,
            lambda_threshold: 20,
            criterion: crate::ordering::GrowthCriterion::default(),
            metric: MetricKind::default(),
            min_size: 30,
            accept_threshold: 0.9,
            prominence: 1.2,
            max_fraction: 0.5,
            refine_seeds: 3,
            refine: true,
            threads: 0,
            rng_seed: 0x5eed,
            rent_exponent: None,
        }
    }
}

impl FinderConfig {
    fn growth(&self) -> GrowthConfig {
        GrowthConfig {
            max_len: self.max_order_len,
            lambda_threshold: self.lambda_threshold,
            criterion: self.criterion,
        }
    }

    fn candidate(&self, num_cells: usize) -> CandidateConfig {
        CandidateConfig {
            metric: self.metric,
            min_size: self.min_size,
            accept_threshold: self.accept_threshold,
            prominence: self.prominence,
            max_size: ((num_cells as f64 * self.max_fraction) as usize).max(self.min_size),
            rent_exponent: self.rent_exponent,
        }
    }
}

/// A discovered group of tangled logic.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Gtl {
    /// Member cells, ascending by id.
    pub cells: Vec<CellId>,
    /// Connectivity statistics (`size`, `cut`, `pins`, internal nets).
    pub stats: SubsetStats,
    /// Score under the finder's configured metric.
    pub score: f64,
    /// Normalized GTL-Score of the group.
    pub ngtl_score: f64,
    /// Density-aware GTL-Score of the group.
    pub gtl_sd: f64,
    /// Rent exponent used when scoring this group.
    pub rent_exponent: f64,
}

impl Gtl {
    /// Number of member cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the group is empty (never true for finder output).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Outcome of a finder run.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FinderResult {
    /// Final disjoint GTLs, best score first.
    pub gtls: Vec<Gtl>,
    /// Candidates produced by Phase II across all seeds (pre-pruning).
    pub num_candidates: usize,
    /// Searches whose ordering produced no clear minimum.
    pub num_empty_searches: usize,
    /// Design average pins per cell, `A(G)`.
    pub avg_pins_per_cell: f64,
    /// Mean Rent exponent over all accepted candidates.
    pub avg_rent_exponent: f64,
}

/// The three-phase tangled-logic finder.
///
/// See the [crate-level docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct TangledLogicFinder<'a> {
    netlist: &'a Netlist,
    config: FinderConfig,
}

impl<'a> TangledLogicFinder<'a> {
    /// Creates a finder over `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no cells or the config requests zero
    /// seeds.
    pub fn new(netlist: &'a Netlist, config: FinderConfig) -> Self {
        assert!(netlist.num_cells() > 0, "netlist has no cells");
        assert!(config.num_seeds > 0, "at least one seed is required");
        Self { netlist, config }
    }

    /// Runs all three phases with randomly drawn seed cells.
    pub fn run(&self) -> FinderResult {
        match self.run_random_seeds(None) {
            Ok(result) => result,
            Err(_) => unreachable!("a run without a token cannot be cancelled"),
        }
    }

    /// [`TangledLogicFinder::run`] polling `token` between seed searches
    /// and before pruning: workers finish the search they are on, then
    /// the run returns [`Cancelled`]. A token that never fires yields a
    /// result identical to [`TangledLogicFinder::run`] (same code path
    /// through `gtl_core::exec`).
    ///
    /// # Errors
    ///
    /// [`Cancelled`] once the token fires.
    pub fn run_cancellable(&self, token: &CancelToken) -> Result<FinderResult, Cancelled> {
        self.run_random_seeds(Some(token))
    }

    /// Draws the `m` seed cells from the master stream, then runs the
    /// pipeline.
    fn run_random_seeds(&self, token: Option<&CancelToken>) -> Result<FinderResult, Cancelled> {
        // gtl-lint: allow(no-rng-outside-derive-stream, reason = "this is the master stream itself; per-seed streams derive from it")
        let mut master = SmallRng::seed_from_u64(self.config.rng_seed);
        let seeds: Vec<CellId> = (0..self.config.num_seeds)
            .map(|_| CellId::new(master.gen_range(0..self.netlist.num_cells())))
            .collect();
        self.run_core(&seeds, token)
    }

    /// Runs all three phases from caller-supplied seed cells.
    ///
    /// Useful for reproducing a specific figure (e.g. the inside/outside
    /// agglomerations of Figures 2–3) or for deterministic tests.
    ///
    /// # Panics
    ///
    /// Panics if any seed is out of bounds.
    pub fn run_from_seeds(&self, seeds: &[CellId]) -> FinderResult {
        match self.run_core(seeds, None) {
            Ok(result) => result,
            Err(_) => unreachable!("a run without a token cannot be cancelled"),
        }
    }

    /// The shared three-phase pipeline behind every `run*` entry point;
    /// `token` (when present) is polled between seed searches and before
    /// the serial pruning pass.
    fn run_core(
        &self,
        seeds: &[CellId],
        token: Option<&CancelToken>,
    ) -> Result<FinderResult, Cancelled> {
        for &s in seeds {
            assert!(s.index() < self.netlist.num_cells(), "seed {s} out of bounds");
        }

        let candidate_config = self.config.candidate(self.netlist.num_cells());
        let refine_config = RefineConfig { extra_seeds: self.config.refine_seeds };

        // All fan-out goes through the shared execution layer: per-worker
        // scratch (grower + ordering buffer) is reused across the seeds a
        // worker claims, results come back in seed order, and each search
        // derives its RNG from (master seed, seed index) — so the output
        // is identical for any thread count.
        let init = |_worker: usize| SearchScratch {
            grower: OrderingGrower::new(self.netlist, self.config.growth()),
            ordering: LinearOrdering::new(),
        };
        let search = |scratch: &mut SearchScratch<'_>, index: usize| {
            let mut rng = SmallRng::seed_from_u64(gtl_core::derive_stream(
                self.config.rng_seed,
                index as u64,
            ));
            scratch.grower.grow_into(seeds[index], &mut scratch.ordering);
            let cand = extract_candidate(
                &scratch.ordering,
                self.netlist.avg_pins_per_cell(),
                &candidate_config,
            )?;
            let mut cand = if self.config.refine {
                refine_candidate(
                    self.netlist,
                    &mut scratch.grower,
                    cand,
                    &candidate_config,
                    &refine_config,
                    &mut rng,
                )
            } else {
                cand
            };
            // Canonicalize after Phase III (refinement seeds sample the
            // growth order, so sorting must not happen earlier):
            // `prune_overlapping`'s equal-score tiebreak compares the
            // cell vectors and requires them sorted.
            cand.cells.sort_unstable();
            Some(cand)
        };
        // The searches poll the token between items; the tail (pruning,
        // scoring) is cheap but still guarded so a cancelled run never
        // pays for it.
        let results: Vec<Option<Candidate>> = gtl_core::run_map(
            self.config.threads,
            seeds.len(),
            gtl_core::Granularity::Auto,
            token,
            init,
            search,
        )?;
        gtl_core::cancel::checkpoint(token)?;

        let num_empty = results.iter().filter(|r| r.is_none()).count();
        let candidates: Vec<Candidate> = results.into_iter().flatten().collect();
        let num_candidates = candidates.len();
        let avg_p = if candidates.is_empty() {
            crate::candidate::DEFAULT_RENT_EXPONENT
        } else {
            candidates.iter().map(|c| c.rent_exponent).sum::<f64>() / candidates.len() as f64
        };

        let kept = crate::prune::prune_overlapping(candidates, self.netlist.num_cells());
        let a_g = self.netlist.avg_pins_per_cell();
        let gtls = kept
            .into_iter()
            .map(|c| {
                let ctx = DesignContext { avg_pins_per_cell: a_g, rent_exponent: c.rent_exponent };
                // Already ascending: candidates are canonicalized before
                // pruning.
                let cells = c.cells;
                Gtl {
                    ngtl_score: metrics::ngtl_score(c.stats.cut, c.stats.size, &ctx),
                    gtl_sd: metrics::gtl_sd_score(
                        c.stats.cut,
                        c.stats.size,
                        c.stats.avg_pins_per_cell(),
                        &ctx,
                    ),
                    cells,
                    stats: c.stats,
                    score: c.score,
                    rent_exponent: c.rent_exponent,
                }
            })
            .collect();

        Ok(FinderResult {
            gtls,
            num_candidates,
            num_empty_searches: num_empty,
            avg_pins_per_cell: a_g,
            avg_rent_exponent: avg_p,
        })
    }
}

/// Per-worker scratch for the execution layer: the Phase I engine's
/// `O(|V| + |E|)` buffers plus a reusable ordering, both paid for once per
/// worker instead of once per seed.
#[derive(Debug)]
struct SearchScratch<'a> {
    grower: OrderingGrower<'a>,
    ordering: LinearOrdering,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::NetlistBuilder;

    /// Two cliques (sizes 8 and 12) embedded in a ring of sparse cells.
    fn testbed() -> (Netlist, Vec<CellId>) {
        let mut b = NetlistBuilder::new();
        let n = 120usize;
        let cells: Vec<_> = (0..n).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                b.add_anonymous_net([cells[i], cells[j]]);
            }
        }
        for i in 40..52 {
            for j in (i + 1)..52 {
                b.add_anonymous_net([cells[i], cells[j]]);
            }
        }
        for i in 0..n {
            b.add_anonymous_net([cells[i], cells[(i + 1) % n]]);
        }
        (b.finish(), cells)
    }

    fn config() -> FinderConfig {
        FinderConfig {
            num_seeds: 24,
            min_size: 5,
            max_order_len: 60,
            rng_seed: 42,
            ..FinderConfig::default()
        }
    }

    #[test]
    fn finds_both_cliques() {
        let (nl, cells) = testbed();
        let result = TangledLogicFinder::new(&nl, config()).run();
        assert!(!result.gtls.is_empty(), "no GTL found");
        // The best GTL must be one of the cliques, nearly exactly.
        let sizes: Vec<usize> = result.gtls.iter().map(|g| g.len()).collect();
        assert!(
            sizes.iter().any(|&s| (7..=9).contains(&s) || (11..=13).contains(&s)),
            "sizes {sizes:?}"
        );
        // GTLs are disjoint.
        for i in 0..result.gtls.len() {
            for j in (i + 1)..result.gtls.len() {
                let a: std::collections::HashSet<_> = result.gtls[i].cells.iter().collect();
                assert!(result.gtls[j].cells.iter().all(|c| !a.contains(c)));
            }
        }
        let _ = cells;
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (nl, _) = testbed();
        let mut c1 = config();
        c1.threads = 1;
        let mut c4 = config();
        c4.threads = 4;
        let r1 = TangledLogicFinder::new(&nl, c1).run();
        let r4 = TangledLogicFinder::new(&nl, c4).run();
        assert_eq!(r1.gtls.len(), r4.gtls.len());
        for (a, b) in r1.gtls.iter().zip(&r4.gtls) {
            assert_eq!(a.cells, b.cells);
            assert_eq!(a.score, b.score);
        }
    }

    #[test]
    fn run_from_seeds_inside_clique() {
        let (nl, cells) = testbed();
        let finder = TangledLogicFinder::new(&nl, config());
        let result = finder.run_from_seeds(&[cells[42], cells[3]]);
        assert!(result.gtls.len() >= 2, "found {}", result.gtls.len());
        assert!(result.gtls.iter().all(|g| g.score < 0.9));
    }

    #[test]
    fn seed_outside_structures_yields_nothing() {
        let (nl, cells) = testbed();
        let finder = TangledLogicFinder::new(&nl, config());
        // Seed deep in the sparse ring, far from the cliques, with a short
        // ordering that cannot reach them.
        let mut cfg = config();
        cfg.max_order_len = 10;
        let finder_short = TangledLogicFinder::new(&nl, cfg);
        let result = finder_short.run_from_seeds(&[cells[90]]);
        assert_eq!(result.gtls.len(), 0);
        assert_eq!(result.num_empty_searches, 1);
        let _ = finder;
    }

    #[test]
    fn scores_reported_for_both_metrics() {
        let (nl, cells) = testbed();
        let result = TangledLogicFinder::new(&nl, config()).run_from_seeds(&[cells[44]]);
        let gtl = &result.gtls[0];
        assert!(gtl.ngtl_score.is_finite() && gtl.gtl_sd.is_finite());
        assert!(gtl.score > 0.0);
        assert_eq!(gtl.stats.size, gtl.len());
        assert!(!gtl.is_empty());
    }

    #[test]
    fn refine_disabled_still_works() {
        let (nl, _) = testbed();
        let mut cfg = config();
        cfg.refine = false;
        let result = TangledLogicFinder::new(&nl, cfg).run();
        assert!(!result.gtls.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn zero_seeds_rejected() {
        let (nl, _) = testbed();
        let mut cfg = config();
        cfg.num_seeds = 0;
        let _ = TangledLogicFinder::new(&nl, cfg);
    }

    #[test]
    fn cancellable_run_with_live_token_matches_plain_run() {
        let (nl, _) = testbed();
        let finder = TangledLogicFinder::new(&nl, config());
        let plain = format!("{:?}", finder.run());
        let token = CancelToken::new();
        let cancellable = format!("{:?}", finder.run_cancellable(&token).unwrap());
        assert_eq!(plain, cancellable);
    }

    #[test]
    fn pre_cancelled_token_aborts_the_run() {
        let (nl, _) = testbed();
        let finder = TangledLogicFinder::new(&nl, config());
        let token = CancelToken::new();
        token.cancel();
        let err = finder.run_cancellable(&token).unwrap_err();
        assert_eq!(err.reason, gtl_core::cancel::CancelReason::Cancelled);
    }

    #[test]
    fn expired_deadline_aborts_with_deadline_reason() {
        let (nl, _) = testbed();
        let finder = TangledLogicFinder::new(&nl, config());
        let token =
            CancelToken::with_deadline(gtl_core::cancel::Deadline::at(std::time::Instant::now()));
        let err = finder.run_cancellable(&token).unwrap_err();
        assert_eq!(err.reason, gtl_core::cancel::CancelReason::DeadlineExceeded);
    }

    /// The execution-layer determinism contract, end-to-end: the full
    /// `FinderResult` must be byte-identical (same `Debug` rendering,
    /// which covers every field of every GTL) for 1, 2 and 8 workers on a
    /// planted-clique fixture.
    #[test]
    fn result_identical_for_1_2_8_workers() {
        let (nl, _truth) = crate::testutil::cliques_in_background(400, &[(40, 16), (200, 24)], 7);
        let base = FinderConfig {
            num_seeds: 32,
            min_size: 8,
            max_order_len: 120,
            rng_seed: 0xD0C,
            ..FinderConfig::default()
        };
        let run = |threads: usize| {
            let config = FinderConfig { threads, ..base };
            format!("{:?}", TangledLogicFinder::new(&nl, config).run())
        };
        let serial = run(1);
        assert!(serial.contains("Gtl"), "fixture found no GTLs: {serial}");
        for threads in [2, 8] {
            assert_eq!(serial, run(threads), "output changed with {threads} workers");
        }
    }
}
