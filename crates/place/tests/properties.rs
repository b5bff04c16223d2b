//! Property-based tests for the physical-design invariants.

use gtl_netlist::{CellId, Netlist, NetlistBuilder};
use gtl_place::legal::legalize;
use gtl_place::spread::{spread, SpreadConfig};
use gtl_place::{Die, Placement};
use proptest::prelude::*;

fn arb_design(max_cells: usize) -> impl Strategy<Value = (Netlist, Placement, Die)> {
    (4..max_cells).prop_flat_map(|n| {
        let coords = proptest::collection::vec((0.0f64..30.0, 0.0f64..30.0), n);
        let nets =
            proptest::collection::vec(proptest::collection::vec(0..n, 2..4usize), 1..(2 * n));
        (coords, nets).prop_map(move |(coords, nets)| {
            let mut b = NetlistBuilder::new();
            b.add_anonymous_cells(n);
            for pins in nets {
                b.add_anonymous_net(pins.into_iter().map(CellId::new));
            }
            let nl = b.finish();
            let xs = coords.iter().map(|c| c.0).collect();
            let ys = coords.iter().map(|c| c.1).collect();
            let die = Die { width: 30.0, height: 30.0, rows: 30 };
            (nl, Placement::from_coords(xs, ys), die)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spreading keeps every cell inside the die and never loses a cell.
    #[test]
    fn spread_stays_in_die((nl, p, die) in arb_design(60)) {
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        prop_assert_eq!(s.len(), nl.num_cells());
        for c in nl.cells() {
            let (x, y) = s.position(c);
            prop_assert!(x >= -1e-9 && x <= die.width + 1e-9);
            prop_assert!(y >= -1e-9 && y <= die.height + 1e-9);
        }
    }

    /// Legalization produces row-aligned, pairwise non-overlapping cells
    /// (when nothing overflowed).
    #[test]
    fn legalize_is_overlap_free((nl, p, die) in arb_design(60)) {
        let legal = legalize(&nl, &p, &die);
        prop_assume!(legal.overflowed == 0);
        let row_h = die.row_height();
        let mut per_row: Vec<Vec<(f64, f64)>> = vec![Vec::new(); die.rows];
        for c in nl.cells() {
            let (x, y) = legal.placement.position(c);
            let row = legal.row_of[c.index()] as usize;
            prop_assert!((y - row as f64 * row_h).abs() < 1e-9);
            per_row[row].push((x, x + nl.cell_area(c) / row_h));
        }
        for intervals in &mut per_row {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in intervals.windows(2) {
                prop_assert!(w[0].1 <= w[1].0 + 1e-9, "overlap {:?}", w);
            }
        }
    }

    /// The stripe-batched congestion estimator agrees with the serial
    /// per-net reference within 1e-9 on random netlists, for both the
    /// RUDY and L-shape (RISA-corrected) models and any worker count.
    /// (By construction the two are bit-identical — every tile sees the
    /// same additions in the same order — so 1e-9 is generous.)
    #[test]
    fn striped_congestion_matches_reference(
        (nl, p, die) in arb_design(60),
        model_sel in 0usize..2,
        threads in 1usize..5,
    ) {
        use gtl_place::congestion::{estimate, estimate_reference, DemandModel, RoutingConfig};
        let cfg = RoutingConfig {
            // 13 is deliberately not a multiple of the stripe height, so
            // the ragged last stripe is exercised.
            tiles: 13,
            h_capacity: Some(1.0),
            v_capacity: Some(1.0),
            model: if model_sel == 0 { DemandModel::Rudy } else { DemandModel::LShape },
            threads,
            ..RoutingConfig::default()
        };
        let striped = estimate(&nl, &p, &die, &cfg);
        let reference = estimate_reference(&nl, &p, &die, &cfg);
        let (a, b) = (striped.to_grid(), reference.to_grid());
        prop_assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!((x - y).abs() <= 1e-9, "tile {}: {} vs {}", i, x, y);
        }
        let (ta, tb): (f64, f64) = (a.iter().sum(), b.iter().sum());
        prop_assert!((ta - tb).abs() <= 1e-9 * ta.abs().max(1.0), "totals {} vs {}", ta, tb);
        prop_assert_eq!(striped.report(), reference.report());
    }

    /// The congestion map's demand is translation-consistent: moving every
    /// cell by the same offset (within the die) preserves totals.
    #[test]
    fn congestion_translation_invariant(
        (nl, p, die) in arb_design(40),
        dx in 0.0f64..5.0,
        dy in 0.0f64..5.0,
    ) {
        use gtl_place::congestion::{estimate, RoutingConfig};
        let cfg = RoutingConfig {
            tiles: 6,
            h_capacity: Some(1.0),
            v_capacity: Some(1.0),
            ..RoutingConfig::default()
        };
        // Shrink the placement into [0, 25] so the offset stays inside.
        let xs: Vec<f64> = p.xs().iter().map(|x| x * 25.0 / 30.0).collect();
        let ys: Vec<f64> = p.ys().iter().map(|y| y * 25.0 / 30.0).collect();
        let base = Placement::from_coords(xs.clone(), ys.clone());
        let moved = Placement::from_coords(
            xs.iter().map(|x| x + dx).collect(),
            ys.iter().map(|y| y + dy).collect(),
        );
        let a = estimate(&nl, &base, &die, &cfg);
        let b = estimate(&nl, &moved, &die, &cfg);
        let sum = |g: Vec<f64>| g.iter().sum::<f64>();
        let (ta, tb) = (sum(a.to_grid()), sum(b.to_grid()));
        // Totals match within tile-quantization slack.
        prop_assert!((ta - tb).abs() <= 0.35 * ta.max(tb).max(1.0), "{} vs {}", ta, tb);
    }
}
