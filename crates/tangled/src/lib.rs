//! Tangled-logic detection: the core contribution of *"Detecting Tangled
//! Logic Structures in VLSI Netlists"* (Jindal et al., DAC 2010).
//!
//! A **GTL** (Group of Tangled Logic) is a large subset of netlist cells —
//! hundreds to tens of thousands — whose internal connectivity is far higher
//! than its boundary connectivity. GTLs create routing hotspots when a
//! placer pulls them together; identifying them before placement allows
//! cell inflation, soft-block floorplanning, or re-synthesis.
//!
//! This crate implements:
//!
//! * the paper's **metrics** ([`metrics`]): `GTL-Score`, normalized
//!   `nGTL-Score` and density-aware `GTL-SD`, all built on Rent's rule so
//!   that groups of *different sizes* are comparable — plus the classical
//!   ratio-cut baseline they are compared against;
//! * the **three-phase finder** ([`TangledLogicFinder`]):
//!   Phase I grows a linear ordering from a seed ([`ordering`]), Phase II
//!   extracts the prefix minimizing the score ([`candidate`]), Phase III
//!   refines candidates with genetic-style set operations and prunes
//!   overlapping results ([`refine`], [`prune`]);
//! * **evaluation** against known ground truth ([`eval`]): the Miss% /
//!   Over% columns of the paper's Table 1.
//!
//! # Quick start
//!
//! ```
//! use gtl_netlist::NetlistBuilder;
//! use gtl_tangled::{FinderConfig, TangledLogicFinder};
//!
//! // Two 4-cliques joined by one wire: each clique is a tiny "GTL".
//! let mut b = NetlistBuilder::new();
//! let cells: Vec<_> = (0..8).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
//! for group in [&cells[..4], &cells[4..]] {
//!     for i in 0..4 {
//!         for j in (i + 1)..4 {
//!             b.add_anonymous_net([group[i], group[j]]);
//!         }
//!     }
//! }
//! b.add_anonymous_net([cells[0], cells[4]]);
//! let netlist = b.finish();
//!
//! let config = FinderConfig {
//!     num_seeds: 4,
//!     max_order_len: 8,
//!     min_size: 2,
//!     ..FinderConfig::default()
//! };
//! let result = TangledLogicFinder::new(&netlist, config).run();
//! assert!(result.gtls.len() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidate;
pub mod eval;
pub mod metrics;
pub mod ordering;
pub mod prune;
pub mod refine;

mod finder;

pub use candidate::{Candidate, CandidateConfig, ScoreCurve};
pub use eval::{match_gtls, GtlMatch, MatchReport};
pub use finder::{FinderConfig, FinderResult, Gtl, TangledLogicFinder};
pub use metrics::{DesignContext, MetricKind};
pub use ordering::{GrowthConfig, GrowthCriterion, LinearOrdering, OrderingGrower};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures: cliques planted in a random sparse background, so
    //! that the cut of a growing group rises with size (Rent-like) instead
    //! of staying constant as it would on a chain or ring; random
    //! hypergraphs; and a bitwise view of a candidate for the oracles.

    use gtl_netlist::{CellId, Netlist, NetlistBuilder, SubsetStats};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    use crate::Candidate;

    /// A candidate's fields with its floats as bits, for oracle tests
    /// that must match bit for bit.
    pub fn candidate_bits(c: &Candidate) -> (&[CellId], SubsetStats, u64, u64, usize) {
        (&c.cells, c.stats, c.score.to_bits(), c.rent_exponent.to_bits(), c.minimum_index)
    }

    /// Builds `n` cells with ~2 random 2-pin background nets per cell,
    /// plus all-pairs cliques planted at the given (offset, size) spots.
    /// Returns the netlist and the planted member lists.
    pub fn cliques_in_background(
        n: usize,
        plants: &[(usize, usize)],
        seed: u64,
    ) -> (Netlist, Vec<Vec<CellId>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut planted = vec![false; n];
        for &(off, k) in plants {
            assert!(off + k <= n);
            for flag in &mut planted[off..off + k] {
                *flag = true;
            }
        }
        let mut b = NetlistBuilder::new();
        let first = b.add_anonymous_cells(n);
        assert_eq!(first.index(), 0);
        // Background wiring between non-planted cells only: planted groups
        // are "more highly connected internally and less connected
        // externally" (paper §3.1).
        for i in 0..n {
            if planted[i] {
                continue;
            }
            for _ in 0..2 {
                let j = rng.gen_range(0..n);
                if j != i && !planted[j] {
                    b.add_anonymous_net([CellId::new(i), CellId::new(j)]);
                }
            }
        }
        let mut truth = Vec::new();
        for &(off, k) in plants {
            let members: Vec<CellId> = (off..off + k).map(CellId::new).collect();
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_anonymous_net([members[i], members[j]]);
                }
            }
            // A few external links so the block is connected to the rest
            // of the graph (non-zero cut). All attach to the last member so
            // tests can pick interior seeds that grow the block cleanly.
            for _ in 0..3 {
                let inside = members[k - 1];
                let outside = loop {
                    let j = rng.gen_range(0..n);
                    if !planted[j] {
                        break CellId::new(j);
                    }
                };
                b.add_anonymous_net([inside, outside]);
            }
            truth.push(members);
        }
        (b.finish(), truth)
    }

    /// A random hypergraph for the Phase I and III oracles: `n` cells on
    /// `nets` nets, then `isolated` cells on none. A net draws one pin,
    /// 2–6 pins or 8–40 pins (past every small λ threshold), or, with
    /// `uniform`, exactly that many, so that connection weights tie. Pins
    /// are drawn with replacement and the builder keeps one of each, so a
    /// net may come out smaller than drawn.
    pub fn random_hypergraph(
        n: usize,
        nets: usize,
        isolated: usize,
        uniform: Option<usize>,
        rng: &mut SmallRng,
    ) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(n + isolated);
        for _ in 0..nets {
            let degree = uniform.unwrap_or_else(|| match rng.gen_range(0..6u8) {
                0 => 1,
                1 => rng.gen_range(8..=40),
                _ => rng.gen_range(2..=6),
            });
            let pins: Vec<CellId> = (0..degree).map(|_| CellId::new(rng.gen_range(0..n))).collect();
            b.add_anonymous_net(pins);
        }
        b.finish()
    }
}
