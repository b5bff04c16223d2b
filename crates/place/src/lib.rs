//! Physical-design substrate: placement, congestion, and cell inflation.
//!
//! The DAC 2010 paper's evaluation depends on a placer and a global-routing
//! congestion picture (Figures 1, 4, 6, 7; the §5.1.3 inflation numbers).
//! The authors used commercial IBM tools; this crate implements the
//! standard academic equivalents from scratch:
//!
//! * [`quadratic`] — the netlist Laplacian (clique/star net model), a
//!   hand-written Jacobi-preconditioned conjugate-gradient solver, and the
//!   [`quadratic::ShardSolver`] for shard-restricted systems, which reads
//!   shard membership from a [`quadratic::ShardMap`];
//! * [`place`] — SimPL-style anchored solve/spread iterations with a
//!   boosted-anchor epilogue, region-sharded onto `gtl_core::exec`
//!   (byte-identical for any worker count);
//! * [`spread`] — recursive-bisection density spreading (order-preserving,
//!   separates stacked clusters coherently), presorted once per axis with
//!   its subtrees fanned out onto `gtl_core::exec` (byte-identical for any
//!   worker count);
//! * [`legal`] — a Tetris row legalizer;
//! * [`congestion`] — probabilistic routing-demand estimation (RUDY and
//!   L-shape models), stripe-batched over tile rows, with the paper's
//!   congestion statistics;
//! * [`softblock`] — soft-block floorplanning from GTLs (the paper's
//!   application 2);
//! * [`inflate`] — the §5.1.3 flow: inflate GTL cells, re-place, and
//!   compare congestion.
//!
//! # Example: place a small design and estimate congestion
//!
//! ```
//! use gtl_netlist::NetlistBuilder;
//! use gtl_place::{congestion, Die, PlacerConfig};
//!
//! let mut b = NetlistBuilder::new();
//! let cells: Vec<_> = (0..64).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
//! for i in 0..63 {
//!     b.add_anonymous_net([cells[i], cells[i + 1]]);
//! }
//! let nl = b.finish();
//!
//! let die = Die::for_netlist(&nl, 0.6);
//! let placement = gtl_place::place(&nl, &die, &PlacerConfig::default());
//! let map = congestion::estimate(&nl, &placement, &die, &congestion::RoutingConfig::default());
//! assert!(map.max_utilization() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod inflate;
pub mod legal;
pub mod quadratic;
pub mod softblock;
pub mod spread;

mod placer;

pub use placer::{place, place_cancellable_with_scratch, PlaceScratch, Placement, PlacerConfig};

use gtl_netlist::Netlist;

/// The placement region: a `width × height` core with standard-cell rows.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Die {
    /// Core width.
    pub width: f64,
    /// Core height.
    pub height: f64,
    /// Number of standard-cell rows (row height = `height / rows`).
    pub rows: usize,
}

impl Die {
    /// A square die sized so that `netlist`'s cell area fills `utilization`
    /// of it, with roughly unit-height rows.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < utilization <= 1`.
    pub fn for_netlist(netlist: &Netlist, utilization: f64) -> Self {
        assert!(utilization > 0.0 && utilization <= 1.0, "utilization must be in (0, 1]");
        let side = (netlist.total_cell_area() / utilization).sqrt().max(1.0);
        Self { width: side, height: side, rows: (side.ceil() as usize).max(1) }
    }

    /// Height of one row.
    pub fn row_height(&self) -> f64 {
        self.height / self.rows as f64
    }

    /// Clamps a point into the die.
    pub fn clamp(&self, x: f64, y: f64) -> (f64, f64) {
        (x.clamp(0.0, self.width), y.clamp(0.0, self.height))
    }
}

/// Total half-perimeter wirelength (HPWL) of a placement — the placer's
/// quality measure.
///
/// # Panics
///
/// Panics if the placement does not cover the netlist.
pub fn hpwl(netlist: &Netlist, placement: &Placement) -> f64 {
    assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
    let mut total = 0.0;
    for net in netlist.nets() {
        let cells = netlist.net_cells(net);
        if cells.len() < 2 {
            continue;
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for &c in cells {
            let (x, y) = placement.position(c);
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        total += (x1 - x0) + (y1 - y0);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{CellId, NetlistBuilder};

    #[test]
    fn die_sizing() {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 50.0);
        b.add_cell("c", 50.0);
        let nl = b.finish();
        let die = Die::for_netlist(&nl, 0.25);
        assert!((die.width - 20.0).abs() < 1e-9);
        assert!((die.width * die.height * 0.25 - 100.0).abs() < 1e-6);
        assert!(die.row_height() > 0.0);
    }

    #[test]
    fn die_clamp() {
        let die = Die { width: 10.0, height: 5.0, rows: 5 };
        assert_eq!(die.clamp(-1.0, 7.0), (0.0, 5.0));
        assert_eq!(die.clamp(3.0, 2.0), (3.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_panics() {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 1.0);
        let nl = b.finish();
        let _ = Die::for_netlist(&nl, 0.0);
    }

    #[test]
    fn hpwl_of_known_layout() {
        let mut b = NetlistBuilder::new();
        let c0 = b.add_cell("c0", 1.0);
        let c1 = b.add_cell("c1", 1.0);
        let c2 = b.add_cell("c2", 1.0);
        b.add_anonymous_net([c0, c1]);
        b.add_anonymous_net([c0, c1, c2]);
        let nl = b.finish();
        let p = Placement::from_coords(vec![0.0, 3.0, 1.0], vec![0.0, 4.0, 10.0]);
        // net0: (3-0)+(4-0)=7; net1: (3-0)+(10-0)=13.
        assert!((hpwl(&nl, &p) - 20.0).abs() < 1e-9);
        let _ = CellId::new(0);
    }

    #[test]
    fn hpwl_ignores_degenerate_nets() {
        let mut b = NetlistBuilder::new();
        let c0 = b.add_cell("c0", 1.0);
        b.add_anonymous_net([c0]);
        let nl = b.finish();
        let p = Placement::from_coords(vec![5.0], vec![5.0]);
        assert_eq!(hpwl(&nl, &p), 0.0);
    }
}
