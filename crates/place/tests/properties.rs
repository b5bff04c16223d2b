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

/// [`arb_design`] plus the nets the congestion estimate treats apart: a
/// pinless net, single-pin nets, nets of up to 24 pins, and nets whose
/// pins sit at the die's bottom and top edges, so they span every stripe.
fn arb_routed_design(max_cells: usize) -> impl Strategy<Value = (Netlist, Placement, Die)> {
    (arb_design(max_cells), proptest::collection::vec(0usize..1000, 1..12)).prop_map(
        |((nl, p, die), extra)| {
            let n = nl.num_cells();
            let mut b = NetlistBuilder::new();
            b.add_anonymous_cells(n);
            for net in nl.nets() {
                b.add_anonymous_net(nl.net_cells(net).iter().copied());
            }
            let (mut xs, mut ys) = (p.xs().to_vec(), p.ys().to_vec());
            let empty: [CellId; 0] = [];
            b.add_anonymous_net(empty);
            for (k, &r) in extra.iter().enumerate() {
                match k % 3 {
                    0 => b.add_anonymous_net([CellId::new(r % n)]),
                    1 => b.add_anonymous_net((0..2 + r % 23).map(|i| CellId::new((r + 7 * i) % n))),
                    _ => {
                        // Two new cells on the die's bottom and top edges.
                        let (low, high) = (b.add_anonymous_cells(2), CellId::new(xs.len() + 1));
                        let x = (r % 31) as f64 * die.width / 30.0;
                        xs.extend([x, die.width - x]);
                        ys.extend([0.0, die.height]);
                        b.add_anonymous_net([low, high, CellId::new(r % n)])
                    }
                };
            }
            (b.finish(), Placement::from_coords(xs, ys), die)
        },
    )
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

    /// The stripe-batched congestion estimator reproduces the serial
    /// per-net reference bit for bit — every tile's utilization and every
    /// float of the report — on random netlists with pinless and
    /// single-pin nets, nets of up to 24 pins and nets spanning every
    /// stripe, at 1, 4, 13 and 32 tiles (13 leaves a ragged last stripe),
    /// for both the RUDY and L-shape (RISA-corrected) models, with
    /// explicit and calibrated capacities, and any worker count.
    #[test]
    fn striped_congestion_matches_reference(
        (nl, p, die) in arb_routed_design(60),
        tiles_sel in 0usize..4,
        model_sel in 0usize..2,
        calibrated in 0u8..2,
        threads in 1usize..5,
    ) {
        use gtl_place::congestion::{estimate, estimate_reference, DemandModel, RoutingConfig};
        let capacity = if calibrated == 1 { None } else { Some(1.0) };
        let cfg = RoutingConfig {
            tiles: [1, 4, 13, 32][tiles_sel],
            h_capacity: capacity,
            v_capacity: capacity,
            model: if model_sel == 0 { DemandModel::Rudy } else { DemandModel::LShape },
            threads,
            ..RoutingConfig::default()
        };
        let striped = estimate(&nl, &p, &die, &cfg);
        let reference = estimate_reference(&nl, &p, &die, &cfg);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&striped.to_grid()), bits(&reference.to_grid()));
        let (a, b) = (striped.report(), reference.report());
        prop_assert_eq!(a.nets_through_100pct, b.nets_through_100pct);
        prop_assert_eq!(a.nets_through_90pct, b.nets_through_90pct);
        prop_assert_eq!(a.average_congestion_pct.to_bits(), b.average_congestion_pct.to_bits());
        prop_assert_eq!(a.max_utilization.to_bits(), b.max_utilization.to_bits());
        prop_assert_eq!(a.mean_utilization.to_bits(), b.mean_utilization.to_bits());
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
