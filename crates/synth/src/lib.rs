//! Synthetic workload generators for the tangled-logic experiments.
//!
//! The DAC 2010 paper evaluates on three kinds of testcases; this crate
//! generates all of them ([`ispd_like`]'s module doc gives the
//! substitution rationale):
//!
//! * [`planted`] — random graphs with known planted GTLs, "generated based
//!   on \[Garbers et al.\]" (Table 1, Figures 2–3);
//! * [`structures`] — parameterized logic-structure macros (ripple-carry
//!   adders, decoders, MUX trees, multiplier arrays) whose synthesized
//!   form is exactly the kind of tangled logic the paper hunts;
//! * [`ispd_like`] — circuits with the size and connectivity shape of the
//!   ISPD 2005/2006 placement benchmarks, with embedded structures
//!   (Table 2, Figures 4–5);
//! * [`industrial`] — a design mimicking the paper's 65 nm industrial ASIC
//!   with dissolved-ROM blobs (Table 3, Figures 1, 6, 7).
//!
//! All generators are deterministic given their seed.
//!
//! # Example
//!
//! ```
//! use gtl_synth::planted::{self, PlantedConfig};
//!
//! let graph = planted::generate(&PlantedConfig {
//!     num_cells: 2_000,
//!     blocks: vec![150],
//!     seed: 7,
//!     ..PlantedConfig::default()
//! });
//! assert_eq!(graph.netlist.num_cells(), 2_000);
//! assert_eq!(graph.truth[0].len(), 150);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod industrial;
pub mod ispd_like;
pub mod planted;
pub mod resynth;
pub mod stream;
pub mod structures;

use gtl_netlist::{CellId, Netlist};

/// A generated circuit plus its ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedCircuit {
    /// Human-readable instance name (e.g. `"bigblue1-like"`).
    pub name: String,
    /// The connectivity hypergraph.
    pub netlist: Netlist,
    /// Planted tangled structures, one member list per structure.
    pub truth: Vec<Vec<CellId>>,
}

impl GeneratedCircuit {
    /// Total number of planted cells across all structures.
    pub fn planted_cells(&self) -> usize {
        self.truth.iter().map(Vec::len).sum()
    }
}

/// Samples a net degree from a small circuit-like distribution
/// (mostly 2-pin, tapering off to `max`), used by several generators.
pub(crate) fn sample_net_degree<R: rand::Rng>(rng: &mut R, max: usize) -> usize {
    // Weights roughly matching published ISPD benchmark net profiles:
    // ~60% 2-pin, ~23% 3-pin, ~10% 4-pin, rest spread to `max`.
    let x: f64 = rng.gen();
    let d = if x < 0.60 {
        2
    } else if x < 0.83 {
        3
    } else if x < 0.93 {
        4
    } else if x < 0.97 {
        5
    } else {
        5 + rng.gen_range(1..=6usize)
    };
    d.min(max.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn net_degree_distribution_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 16];
        for _ in 0..10_000 {
            let d = sample_net_degree(&mut rng, 12);
            counts[d] += 1;
        }
        assert!(counts[2] > counts[3]);
        assert!(counts[3] > counts[4]);
        assert_eq!(counts[0] + counts[1], 0);
        assert!(counts.iter().skip(13).all(|&c| c == 0));
    }

    #[test]
    fn net_degree_respects_max() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1_000 {
            assert!(sample_net_degree(&mut rng, 3) <= 3);
        }
    }
}
