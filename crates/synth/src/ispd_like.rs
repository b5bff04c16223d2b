//! ISPD 2005/2006-shaped synthetic circuits (Table 2, Figures 4–5).
//!
//! The paper's Table 2 runs on Bigblue1–3 and Adaptec1–3. Those benchmark
//! files are large IBM-distributed archives we do not ship; instead this
//! module generates circuits with the same cell counts (scaled on demand),
//! a Rent-rule background built by recursive bipartition wiring, a matched
//! net-degree profile, and embedded logic structures from
//! [`crate::structures`] for the finder to discover. Real
//! Bookshelf files can always be substituted via
//! [`gtl_netlist::bookshelf::read_aux`].

use gtl_netlist::{CellId, NetlistBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stream::rent_wire_into;
use crate::structures;
use crate::GeneratedCircuit;

/// The six ISPD placement benchmarks evaluated in the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IspdBenchmark {
    /// Bigblue1: 278,164 cells.
    Bigblue1,
    /// Bigblue2: 557,786 cells.
    Bigblue2,
    /// Bigblue3: 1,096,812 cells.
    Bigblue3,
    /// Adaptec1: 211,447 cells.
    Adaptec1,
    /// Adaptec2: 255,023 cells.
    Adaptec2,
    /// Adaptec3: 451,650 cells.
    Adaptec3,
}

impl IspdBenchmark {
    /// All six benchmarks, in the paper's Table 2 order.
    pub const ALL: [IspdBenchmark; 6] = [
        Self::Bigblue1,
        Self::Bigblue2,
        Self::Bigblue3,
        Self::Adaptec1,
        Self::Adaptec2,
        Self::Adaptec3,
    ];

    /// The benchmark's display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Bigblue1 => "bigblue1",
            Self::Bigblue2 => "bigblue2",
            Self::Bigblue3 => "bigblue3",
            Self::Adaptec1 => "adaptec1",
            Self::Adaptec2 => "adaptec2",
            Self::Adaptec3 => "adaptec3",
        }
    }

    /// `|V|` as reported in the paper's Table 2.
    pub fn paper_num_cells(self) -> usize {
        match self {
            Self::Bigblue1 => 278_164,
            Self::Bigblue2 => 557_786,
            Self::Bigblue3 => 1_096_812,
            Self::Adaptec1 => 211_447,
            Self::Adaptec2 => 255_023,
            Self::Adaptec3 => 451_650,
        }
    }

    /// Number of GTLs the paper found with 100 seeds (Table 2 column 4).
    pub fn paper_gtls_found(self) -> usize {
        match self {
            Self::Bigblue1 => 72,
            Self::Bigblue2 => 93,
            Self::Bigblue3 => 112,
            Self::Adaptec1 => 78,
            Self::Adaptec2 => 54,
            Self::Adaptec3 => 109,
        }
    }
}

impl std::fmt::Display for IspdBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration for the ISPD-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IspdLikeConfig {
    /// Which benchmark's shape to imitate.
    pub benchmark: IspdBenchmark,
    /// Cell-count scale in `(0, 1]` (1.0 = paper size).
    pub scale: f64,
    /// How many logic structures to embed; `None` scales the paper's GTL
    /// count for this benchmark.
    pub num_structures: Option<usize>,
    /// Target Rent exponent of the background wiring.
    pub rent_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl IspdLikeConfig {
    /// A config for `benchmark` at `scale` with defaults elsewhere.
    pub fn new(benchmark: IspdBenchmark, scale: f64) -> Self {
        Self { benchmark, scale, num_structures: None, rent_exponent: 0.65, seed: 0x15bd }
    }
}

/// Generates an ISPD-like circuit with embedded tangled structures.
///
/// Structures occupy the low cell ids (their membership is returned as
/// ground truth); the rest of the netlist is Rent-rule background built by
/// recursive bipartition wiring. Each structure is tied to the background
/// with `~size^0.5` boundary nets, giving Table 2-like cut magnitudes.
///
/// # Panics
///
/// Panics unless `0 < scale <= 1`.
///
/// # Example
///
/// ```
/// use gtl_synth::ispd_like::{generate, IspdBenchmark, IspdLikeConfig};
///
/// let g = generate(&IspdLikeConfig::new(IspdBenchmark::Bigblue1, 0.01));
/// assert!(g.netlist.num_cells() >= 2_700);
/// assert!(!g.truth.is_empty());
/// # g.netlist.validate().unwrap();
/// ```
pub fn generate(config: &IspdLikeConfig) -> GeneratedCircuit {
    assert!(config.scale > 0.0 && config.scale <= 1.0, "scale must be in (0, 1]");
    // gtl-lint: allow(no-rng-outside-derive-stream, reason = "generator master stream; generation is single-threaded and sequential")
    let mut rng = SmallRng::seed_from_u64(config.seed ^ config.benchmark.paper_num_cells() as u64);
    let target_cells =
        ((config.benchmark.paper_num_cells() as f64 * config.scale) as usize).max(512);

    let mut b = NetlistBuilder::with_capacity(target_cells, target_cells * 2);

    // --- Embedded structures (ground truth) ----------------------------
    let requested = config.num_structures.unwrap_or_else(|| {
        ((config.benchmark.paper_gtls_found() as f64 * config.scale.sqrt()) as usize).max(3)
    });
    let budget = target_cells / 2; // at most half the design is structures
    let mut truth: Vec<Vec<CellId>> = Vec::new();
    let mut used = 0usize;
    for i in 0..requested {
        if used >= budget {
            break;
        }
        let s = match i % 4 {
            0 => structures::decoder(&mut b, rng.gen_range(5..=8)),
            1 => structures::mux_tree(&mut b, rng.gen_range(6..=9)),
            2 => structures::multiplier_array(&mut b, rng.gen_range(6..=12)),
            _ => structures::ripple_carry_adder(&mut b, rng.gen_range(32..=128)),
        };
        used += s.len();
        truth.push(s.cells);
    }

    // --- Background ----------------------------------------------------
    let bg_count = target_cells.saturating_sub(b.num_cells());
    let bg_first = b.add_anonymous_cells(bg_count).index();
    rent_wire_into(&mut b, bg_first, bg_first + bg_count, config.rent_exponent, &mut rng);

    // --- Structure boundary nets ---------------------------------------
    if bg_count > 0 {
        for members in &truth {
            let links = ((members.len() as f64).sqrt() as usize).max(4);
            for _ in 0..links {
                let inside = members[rng.gen_range(0..members.len())];
                let deg = crate::sample_net_degree(&mut rng, 6);
                let mut pins = vec![inside];
                for _ in 1..deg {
                    pins.push(CellId::new(bg_first + rng.gen_range(0..bg_count)));
                }
                b.add_anonymous_net(pins);
            }
        }
    }

    GeneratedCircuit {
        name: format!("{}-like-x{:.3}", config.benchmark.name(), config.scale),
        netlist: b.finish(),
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{CellSet, SubsetStats};

    #[test]
    fn names_and_sizes() {
        assert_eq!(IspdBenchmark::Bigblue1.name(), "bigblue1");
        assert_eq!(IspdBenchmark::Bigblue3.paper_num_cells(), 1_096_812);
        assert_eq!(IspdBenchmark::ALL.len(), 6);
        assert_eq!(IspdBenchmark::Adaptec2.to_string(), "adaptec2");
    }

    #[test]
    fn generates_scaled_instance() {
        let g = generate(&IspdLikeConfig::new(IspdBenchmark::Adaptec1, 0.02));
        let target = (211_447.0 * 0.02) as usize;
        assert!(g.netlist.num_cells() >= target, "{} < {target}", g.netlist.num_cells());
        g.netlist.validate().unwrap();
        // Pin density in a plausible standard-cell range.
        let a_g = g.netlist.avg_pins_per_cell();
        assert!((2.0..8.0).contains(&a_g), "A(G) = {a_g}");
    }

    #[test]
    fn structures_are_tangled() {
        let g = generate(&IspdLikeConfig::new(IspdBenchmark::Bigblue1, 0.01));
        // Most embedded structures must have pin density above background
        // and modest cut relative to their size.
        let mut tangled = 0usize;
        for members in &g.truth {
            let set = CellSet::from_cells(g.netlist.num_cells(), members.iter().copied());
            let stats = SubsetStats::compute(&g.netlist, &set);
            if stats.cut < stats.size && stats.avg_pins_per_cell() > 2.0 {
                tangled += 1;
            }
        }
        assert!(tangled * 2 >= g.truth.len(), "{tangled} of {}", g.truth.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = IspdLikeConfig::new(IspdBenchmark::Adaptec3, 0.005);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.netlist.num_pins(), b.netlist.num_pins());
        assert_eq!(a.truth.len(), b.truth.len());
    }

    #[test]
    fn num_structures_override() {
        let mut cfg = IspdLikeConfig::new(IspdBenchmark::Bigblue2, 0.005);
        cfg.num_structures = Some(2);
        let g = generate(&cfg);
        assert_eq!(g.truth.len(), 2);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_panics() {
        generate(&IspdLikeConfig::new(IspdBenchmark::Bigblue1, 0.0));
    }

    #[test]
    fn rent_background_has_rent_like_cut_growth() {
        // Aligned prefixes of the background should have polynomially
        // growing cut. Note: regions near the top of a finite hierarchy
        // see a flattened slope (ancestor levels contribute relatively
        // more to small regions), so the band is wide; the essential
        // property for the GTL metrics is sub-linear *growth*, unlike a
        // chain's constant cut.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(4096);
        rent_wire_into(&mut b, 0, 4096, 0.65, &mut rng);
        let nl = b.finish();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for logm in 5..=11 {
            let m = 1usize << logm;
            let set = CellSet::from_cells(nl.num_cells(), (0..m).map(CellId::new));
            let stats = SubsetStats::compute(&nl, &set);
            xs.push((m as f64).ln());
            ys.push((stats.cut as f64).ln());
        }
        let n = xs.len() as f64;
        let sx: f64 = xs.iter().sum();
        let sy: f64 = ys.iter().sum();
        let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        assert!((0.15..0.95).contains(&slope), "Rent slope {slope}");
        // Cut must actually grow several-fold across the range.
        assert!(ys.last().unwrap() - ys[0] > 1.0, "cut barely grows: {ys:?}");
    }
}
