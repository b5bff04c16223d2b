//! GTL quality metrics (paper §3.1) and the ratio-cut baseline (Chapter II).
//!
//! All metrics score a cell group `C` from three raw quantities computed by
//! [`SubsetStats`]: the cut `T(C)`, the size `|C|`, and the group pin count
//! (giving `A_C`). Rent's rule says `T(C) ≈ A_G·|C|^p` for an "average"
//! group, so the normalized scores hover around **1.0** for ordinary logic
//! and drop **well below 1** (e.g. < 0.1) for tangled structures.
//!
//! # Example
//!
//! ```
//! use gtl_tangled::metrics::{self, DesignContext};
//!
//! let ctx = DesignContext { avg_pins_per_cell: 4.0, rent_exponent: 0.6 };
//! // A 1000-cell group with only 40 cut nets and ordinary pin density:
//! let score = metrics::ngtl_score(40, 1000, &ctx);
//! assert!(score < 0.2, "strongly tangled: {score}");
//! ```

use gtl_netlist::SubsetStats;

/// Global design context the normalized metrics depend on.
///
/// * `avg_pins_per_cell` — the paper's `A(G)`, from
///   [`Netlist::avg_pins_per_cell`](gtl_netlist::Netlist::avg_pins_per_cell).
/// * `rent_exponent` — the exponent `p`; estimate per-ordering with
///   [`estimate_rent_exponent`] or supply a known design value
///   (typical standard-cell designs: 0.55–0.75).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DesignContext {
    /// Average pins per cell over the whole design, `A(G)`.
    pub avg_pins_per_cell: f64,
    /// Rent exponent `p` used to scale cut against group size.
    pub rent_exponent: f64,
}

impl DesignContext {
    /// Builds a context from a netlist and a Rent exponent.
    pub fn new(netlist: &gtl_netlist::Netlist, rent_exponent: f64) -> Self {
        Self { avg_pins_per_cell: netlist.avg_pins_per_cell(), rent_exponent }
    }
}

/// Which score the finder optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MetricKind {
    /// Normalized GTL-Score `T(C) / (A_G · |C|^p)` (paper eq. for nGTL-S).
    NGtlScore,
    /// Density-aware score `T(C) / (A_G · |C|^(p·A_C/A_G))` — the paper's
    /// final metric, preferring groups of complex (high-pin) gates.
    #[default]
    GtlSd,
}

impl MetricKind {
    /// Evaluates this metric on a group's raw statistics.
    pub fn score(self, stats: &SubsetStats, ctx: &DesignContext) -> f64 {
        match self {
            Self::NGtlScore => ngtl_score(stats.cut, stats.size, ctx),
            Self::GtlSd => gtl_sd_score(stats.cut, stats.size, stats.avg_pins_per_cell(), ctx),
        }
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NGtlScore => write!(f, "nGTL-S"),
            Self::GtlSd => write!(f, "GTL-SD"),
        }
    }
}

/// Raw GTL-Score `T(C) / |C|^p`.
///
/// Unnormalized; its expected value for an average group is `A(G)`.
/// Returns `f64::INFINITY` for empty groups.
pub fn gtl_score(cut: usize, size: usize, rent_exponent: f64) -> f64 {
    if size == 0 {
        return f64::INFINITY;
    }
    cut as f64 / (size as f64).powf(rent_exponent)
}

/// Normalized GTL-Score `T(C) / (A_G · |C|^p)` — the paper's `nGTL-S`.
///
/// Scaled so an average-quality group scores ≈ 1.0; strong GTLs score well
/// below 1 (the paper's rule of thumb: < 0.1).
///
/// Returns `f64::INFINITY` for empty groups.
///
/// # Panics
///
/// Panics if `ctx.avg_pins_per_cell` is not positive.
pub fn ngtl_score(cut: usize, size: usize, ctx: &DesignContext) -> f64 {
    assert!(ctx.avg_pins_per_cell > 0.0, "A(G) must be positive");
    gtl_score(cut, size, ctx.rent_exponent) / ctx.avg_pins_per_cell
}

/// Density-aware GTL-Score `T(C) / (A_G · |C|^(p·A_C/A_G))` — the paper's
/// `GTL-SD`.
///
/// `avg_pins_in_group` is `A_C`, the average pin count of cells inside the
/// group. When the group is made of complex gates (`A_C > A_G`) the
/// exponent grows, the denominator grows, and the score drops — biasing the
/// metric toward pin-dense, genuinely tangled logic.
///
/// Returns `f64::INFINITY` for empty groups.
///
/// # Panics
///
/// Panics if `ctx.avg_pins_per_cell` is not positive.
pub fn gtl_sd_score(cut: usize, size: usize, avg_pins_in_group: f64, ctx: &DesignContext) -> f64 {
    assert!(ctx.avg_pins_per_cell > 0.0, "A(G) must be positive");
    if size == 0 {
        return f64::INFINITY;
    }
    let exponent = ctx.rent_exponent * (avg_pins_in_group / ctx.avg_pins_per_cell);
    cut as f64 / (ctx.avg_pins_per_cell * (size as f64).powf(exponent))
}

/// Per-group Rent exponent estimate `(ln T(C) − ln A_C) / ln |C|`
/// (paper §3.2.2).
///
/// Returns `None` when the estimate is undefined: `|C| ≤ 1`, `T(C) = 0`,
/// or no pins.
pub fn estimate_rent_exponent(stats: &SubsetStats) -> Option<f64> {
    if stats.size <= 1 || stats.cut == 0 || stats.pins == 0 {
        return None;
    }
    let a_c = stats.avg_pins_per_cell();
    Some(((stats.cut as f64).ln() - a_c.ln()) / (stats.size as f64).ln())
}

/// The classical ratio-cut metric, for comparison (paper Chapter II, Fig. 5).
pub mod baseline {
    use gtl_netlist::SubsetStats;

    /// Ratio cut / scaled cost `T(C) / |C|` (Chan–Schlag–Zien).
    ///
    /// Monotonically favors large groups; shown in the paper's Figure 5 to
    /// be unable to identify GTLs. Returns `f64::INFINITY` for empty groups.
    pub fn ratio_cut(stats: &SubsetStats) -> f64 {
        if stats.size == 0 {
            return f64::INFINITY;
        }
        stats.cut as f64 / stats.size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::SubsetStats;

    fn ctx() -> DesignContext {
        DesignContext { avg_pins_per_cell: 4.0, rent_exponent: 0.6 }
    }

    fn stats(cut: usize, size: usize, pins: usize) -> SubsetStats {
        SubsetStats { size, cut, pins, internal_nets: 0 }
    }

    #[test]
    fn gtl_score_matches_formula() {
        let s = gtl_score(100, 1000, 0.6);
        assert!((s - 100.0 / 1000f64.powf(0.6)).abs() < 1e-12);
    }

    #[test]
    fn ngtl_average_group_scores_one() {
        // By Rent's rule an average group has T = A_G * |C|^p.
        let c = ctx();
        let size = 500usize;
        let cut = (c.avg_pins_per_cell * (size as f64).powf(c.rent_exponent)).round() as usize;
        let s = ngtl_score(cut, size, &c);
        assert!((s - 1.0).abs() < 0.01, "score {s}");
    }

    #[test]
    fn ngtl_tangled_group_scores_low() {
        let s = ngtl_score(36, 32000, &ctx());
        assert!(s < 0.05, "score {s}");
    }

    #[test]
    fn gtl_sd_penalizes_sparse_pin_groups() {
        // A_C below A_G shrinks the exponent, so the same cut scores HIGHER
        // (less tangled); A_C above A_G scores lower (more tangled).
        let c = ctx();
        let base = ngtl_score(50, 1000, &c);
        let dense = gtl_sd_score(50, 1000, 5.0, &c); // A_C = 5 > A_G = 4
        let sparse = gtl_sd_score(50, 1000, 3.0, &c); // A_C = 3 < A_G
        assert!(dense < base && base < sparse, "{dense} < {base} < {sparse}");
    }

    #[test]
    fn gtl_sd_equals_ngtl_when_density_typical() {
        let c = ctx();
        let a = ngtl_score(50, 1000, &c);
        let b = gtl_sd_score(50, 1000, c.avg_pins_per_cell, &c);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn empty_group_scores_infinite() {
        assert!(gtl_score(0, 0, 0.6).is_infinite());
        assert!(ngtl_score(0, 0, &ctx()).is_infinite());
        assert!(gtl_sd_score(0, 0, 0.0, &ctx()).is_infinite());
    }

    #[test]
    fn rent_estimate_inverts_rent_rule() {
        // Construct stats satisfying T = A_C * |C|^p exactly and recover p.
        let p = 0.63;
        let size = 2000usize;
        let a_c = 4.2;
        let cut = (a_c * (size as f64).powf(p)).round() as usize;
        let s = stats(cut, size, (a_c * size as f64) as usize);
        let est = estimate_rent_exponent(&s).unwrap();
        assert!((est - p).abs() < 0.01, "estimated {est}");
    }

    #[test]
    fn rent_estimate_undefined_cases() {
        assert!(estimate_rent_exponent(&stats(0, 10, 40)).is_none());
        assert!(estimate_rent_exponent(&stats(5, 1, 4)).is_none());
        assert!(estimate_rent_exponent(&stats(5, 10, 0)).is_none());
    }

    #[test]
    fn metric_kind_dispatch() {
        let c = ctx();
        let s = stats(50, 1000, 4000);
        assert!((MetricKind::NGtlScore.score(&s, &c) - ngtl_score(50, 1000, &c)).abs() < 1e-12);
        assert!((MetricKind::GtlSd.score(&s, &c) - gtl_sd_score(50, 1000, 4.0, &c)).abs() < 1e-12);
        assert_eq!(MetricKind::NGtlScore.to_string(), "nGTL-S");
        assert_eq!(MetricKind::GtlSd.to_string(), "GTL-SD");
    }

    #[test]
    fn ratio_cut_favors_large_groups() {
        // Same "quality" at different sizes: ratio cut strictly prefers the
        // larger one (the flaw Figure 5 demonstrates).
        let small = baseline::ratio_cut(&stats(40, 100, 400));
        let large = baseline::ratio_cut(&stats(160, 1000, 4000));
        assert!(large < small);
    }

    #[test]
    fn ngtl_is_size_fair() {
        // The same two groups under nGTL-S: both near-average, no size bias.
        let c = ctx();
        let small = ngtl_score((4.0 * 100f64.powf(0.6)) as usize, 100, &c);
        let large = ngtl_score((4.0 * 1000f64.powf(0.6)) as usize, 1000, &c);
        assert!((small - large).abs() < 0.05, "{small} vs {large}");
    }
}
