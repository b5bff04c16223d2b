//! Industrial-like circuit with dissolved-ROM blobs (Table 3, Figs 1/6/7).
//!
//! The paper's industrial testcase is a 65 nm commercial ASIC in which ROM
//! blocks had been dissolved into ordinary logic to meet timing closure.
//! The designers knew five such blobs (~32K cells × 4 plus ~11K), and the
//! finder recovered them with cuts of only 28–36 nets and GTL-Scores of
//! ≈ 0.025.
//!
//! We cannot ship the proprietary design, so this module builds the
//! closest public equivalent: a Rent-rule background with five embedded
//! ROM-fabric blobs. Each blob is a word-line/bit-line grid (the physical
//! structure of a ROM array) plus dense random decode logic — yielding the
//! signature the paper reports: tens of thousands of cells, pin density
//! above the design average, and a boundary of only a few dozen nets.

use gtl_netlist::{CellId, NetlistBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stream::rent_wire_into;
use crate::GeneratedCircuit;

/// Configuration for the industrial-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndustrialConfig {
    /// Cell-count scale in `(0, 1]`; 1.0 ≈ 1.5M cells with the paper's
    /// blob sizes (4 × 32K + 11K).
    pub scale: f64,
    /// Target Rent exponent of the background wiring.
    pub rent_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IndustrialConfig {
    fn default() -> Self {
        Self { scale: 0.05, rent_exponent: 0.65, seed: 0x65_AA }
    }
}

/// The paper's Table 3 blob sizes (cells) and boundary cuts.
pub const PAPER_BLOBS: [(usize, usize); 5] =
    [(31_880, 36), (31_914, 36), (31_754, 36), (32_002, 36), (10_932, 28)];

/// Total design size at scale 1.0. The paper's ASIC is described only as
/// "industrial"; its Figure 6 shows the blobs as localized patches, so the
/// blobs (≈139K cells) are taken to be under 10% of the design.
const FULL_CELLS: usize = 1_500_000;

/// Generates the industrial-like circuit.
///
/// Blobs occupy the low cell ids; `truth` holds their memberships in
/// Table 3 order. At scale 1.0 the boundary cuts equal the paper's values
/// (36/36/36/36/28); at smaller scales they shrink as `cut·scale^p` so the
/// blobs keep the paper's GTL-Score of ≈ 0.025 — the signature being
/// reproduced is "giant blob, tiny cut".
///
/// # Panics
///
/// Panics unless `0 < scale <= 1`.
///
/// # Example
///
/// ```
/// use gtl_synth::industrial::{generate, IndustrialConfig};
///
/// let g = generate(&IndustrialConfig { scale: 0.01, ..IndustrialConfig::default() });
/// assert_eq!(g.truth.len(), 5);
/// # g.netlist.validate().unwrap();
/// ```
pub fn generate(config: &IndustrialConfig) -> GeneratedCircuit {
    assert!(config.scale > 0.0 && config.scale <= 1.0, "scale must be in (0, 1]");
    // gtl-lint: allow(no-rng-outside-derive-stream, reason = "generator master stream; generation is single-threaded and sequential")
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let s = |v: usize| ((v as f64 * config.scale) as usize).max(64);

    let total = s(FULL_CELLS);
    let mut b = NetlistBuilder::with_capacity(total, total * 2);

    // --- ROM blobs -------------------------------------------------------
    let mut truth = Vec::with_capacity(PAPER_BLOBS.len());
    for (blob_idx, &(size, cut)) in PAPER_BLOBS.iter().enumerate() {
        let size = s(size);
        let first = b.add_anonymous_cells(size);
        let members: Vec<CellId> = (first.index()..first.index() + size).map(CellId::new).collect();
        rom_fabric(&mut b, &members, blob_idx, &mut rng);
        truth.push((members, cut));
    }
    let blob_cells = b.num_cells();

    // --- Background --------------------------------------------------------
    let bg_count = total.saturating_sub(blob_cells).max(64);
    let bg_first = b.add_anonymous_cells(bg_count).index();
    rent_wire_into(&mut b, bg_first, bg_first + bg_count, config.rent_exponent, &mut rng);

    // --- Blob boundaries: the paper's cuts, Rent-scaled ---------------------
    for (members, cut) in &truth {
        let links = ((*cut as f64 * config.scale.powf(config.rent_exponent)).round() as usize)
            .clamp(4, *cut);
        for _ in 0..links {
            let inside = members[rng.gen_range(0..members.len())];
            let outside = CellId::new(bg_first + rng.gen_range(0..bg_count));
            b.add_anonymous_net([inside, outside]);
        }
    }

    GeneratedCircuit {
        name: format!("industrial-like-x{:.3}", config.scale),
        netlist: b.finish(),
        truth: truth.into_iter().map(|(m, _)| m).collect(),
    }
}

/// Wires `members` as a ROM fabric: row word-lines, column bit-lines, and
/// dense random decode nets. High fanout rails + short dense nets give the
/// blob its high pin density and tiny external boundary.
fn rom_fabric(b: &mut NetlistBuilder, members: &[CellId], blob_idx: usize, rng: &mut SmallRng) {
    let n = members.len();
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);

    // Word lines: each row of up to `cols` cells shares one net.
    for r in 0..rows {
        let lo = r * cols;
        let hi = ((r + 1) * cols).min(n);
        if hi - lo >= 2 {
            b.add_net(format!("rom{blob_idx}_wl{r}"), members[lo..hi].iter().copied());
        }
    }
    // Bit lines: each column shares one net.
    for c in 0..cols {
        let pins: Vec<CellId> =
            (0..rows).filter_map(|r| members.get(r * cols + c).copied()).collect();
        if pins.len() >= 2 {
            b.add_net(format!("rom{blob_idx}_bl{c}"), pins);
        }
    }
    // Decode logic: ~3 dense random nets per cell — a dissolved ROM is
    // wiring-dominated, which is what makes the blob a routing hotspot
    // even at uniform cell density (and gives it A_C ≫ A_G).
    let extra = n * 3;
    for _ in 0..extra {
        let deg = 2 + rng.gen_range(0..3usize);
        let mut pins = Vec::with_capacity(deg);
        for _ in 0..deg {
            pins.push(members[rng.gen_range(0..n)]);
        }
        b.add_anonymous_net(pins);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{CellSet, SubsetStats};

    fn small() -> GeneratedCircuit {
        generate(&IndustrialConfig { scale: 0.01, ..IndustrialConfig::default() })
    }

    #[test]
    fn five_blobs_with_paper_proportions() {
        let g = small();
        assert_eq!(g.truth.len(), 5);
        // Four big blobs of roughly equal size, one smaller.
        let sizes: Vec<usize> = g.truth.iter().map(Vec::len).collect();
        for i in 0..4 {
            let ratio = sizes[i] as f64 / sizes[4] as f64;
            assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
        }
        g.netlist.validate().unwrap();
    }

    #[test]
    fn blob_cuts_are_tiny() {
        let g = small();
        for (i, members) in g.truth.iter().enumerate() {
            let set = CellSet::from_cells(g.netlist.num_cells(), members.iter().copied());
            let stats = SubsetStats::compute(&g.netlist, &set);
            // Rent-scaled from the paper's 36/28; far below the Rent
            // expectation A_G·size^p for a group this large.
            let rent_expectation = g.netlist.avg_pins_per_cell() * (stats.size as f64).powf(0.65);
            assert!(stats.cut >= 4, "blob {i} disconnected from background");
            assert!(
                (stats.cut as f64) < 0.1 * rent_expectation,
                "blob {i}: cut {} not ≪ Rent expectation {rent_expectation:.0}",
                stats.cut
            );
        }
    }

    #[test]
    fn blobs_are_pin_dense() {
        let g = small();
        let a_g = g.netlist.avg_pins_per_cell();
        for members in &g.truth {
            let set = CellSet::from_cells(g.netlist.num_cells(), members.iter().copied());
            let stats = SubsetStats::compute(&g.netlist, &set);
            assert!(
                stats.avg_pins_per_cell() > a_g,
                "blob A_C {} <= A_G {a_g}",
                stats.avg_pins_per_cell()
            );
        }
    }

    #[test]
    fn blob_scores_are_strongly_tangled() {
        // The paper reports GTL-Score ≈ 0.025-0.028 for the blobs; at our
        // test scale the score should likewise be ≪ 0.1.
        let g = small();
        let ctx = gtl_tangled::DesignContext::new(&g.netlist, 0.65);
        for members in &g.truth {
            let set = CellSet::from_cells(g.netlist.num_cells(), members.iter().copied());
            let stats = SubsetStats::compute(&g.netlist, &set);
            let score = gtl_tangled::metrics::ngtl_score(stats.cut, stats.size, &ctx);
            assert!(score < 0.1, "score {score}");
        }
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.netlist.num_pins(), b.netlist.num_pins());
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn bad_scale_panics() {
        generate(&IndustrialConfig { scale: 1.5, ..IndustrialConfig::default() });
    }
}
