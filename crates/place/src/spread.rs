//! Recursive-bisection density spreading.
//!
//! The quadratic solve clumps connected cells; spreading produces the
//! anchor targets that pull the placement apart. The algorithm here is a
//! deterministic recursive bisection (in the spirit of look-ahead
//! legalization / grid warping): a region's cells are sorted along its
//! longer axis and split at the **area median**, each half recursing into
//! the corresponding half-region, until a leaf holds a handful of cells
//! that are laid out on a uniform grid.
//!
//! Two properties matter for the tangled-logic experiments:
//!
//! * **order preservation** — cells keep their relative arrangement, so
//!   spreading is a gentle warp toward uniform density, not a scramble;
//! * **coherent cluster separation** — two dense groups collapsed onto
//!   the same point are split as units (ties break on cell id, and a
//!   group's ids are contiguous), so stacked GTL blobs move apart instead
//!   of interleaving. This is what lets cell inflation physically enlarge
//!   a blob's footprint.

use gtl_netlist::Netlist;

use crate::{Die, Placement};

/// Parameters of the bisection spreader.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpreadConfig {
    /// Target utilization: fraction of each region's area the cells of
    /// that region may demand before further splitting.
    pub target_utilization: f64,
    /// Stop splitting when a region holds at most this many cells.
    pub leaf_cells: usize,
    /// Hard recursion cap (guards degenerate inputs).
    pub max_depth: usize,
}

impl Default for SpreadConfig {
    fn default() -> Self {
        Self { target_utilization: 0.9, leaf_cells: 12, max_depth: 48 }
    }
}

/// Per-bin utilization snapshot of a placement.
#[derive(Debug, Clone)]
pub struct DensityMap {
    bins: usize,
    /// `area[by * bins + bx]` = total cell area in the bin.
    area: Vec<f64>,
    bin_capacity: f64,
}

impl DensityMap {
    /// Computes the density map of `placement` on a `bins × bins` grid.
    ///
    /// Shorthand for [`DensityMap::compute_striped`] with all cores; the
    /// result does not depend on the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the placement does not cover the netlist.
    pub fn compute(netlist: &Netlist, placement: &Placement, die: &Die, bins: usize) -> Self {
        Self::compute_striped(netlist, placement, die, bins, 0)
    }

    /// Computes the density map with the same stripe-batched decomposition
    /// as the congestion estimator: a serial O(cells) prepass bins cells
    /// to stripes of bin rows, then one work item per stripe accumulates
    /// only its own cells (in cell-id order, so the map is bit-identical
    /// for any `threads`; `0` = all cores).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the placement does not cover the netlist.
    pub fn compute_striped(
        netlist: &Netlist,
        placement: &Placement,
        die: &Die,
        bins: usize,
        threads: usize,
    ) -> Self {
        const STRIPE_ROWS: usize = gtl_core::shard::DEFAULT_STRIPE_ROWS;
        assert!(bins > 0, "bins must be positive");
        assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
        let bw = die.width / bins as f64;
        let bh = die.height / bins as f64;
        let row_stripes = gtl_core::shard::stripes(bins, STRIPE_ROWS);

        // Serial prepass: bin cells to their stripe (ascending cell id per
        // stripe, so every bin sees the same addition order as a plain
        // serial accumulation).
        let mut stripe_cells: Vec<Vec<u32>> = vec![Vec::new(); row_stripes.len()];
        for cell in netlist.cells() {
            let (_, y) = placement.position(cell);
            let by = ((y / bh) as usize).min(bins - 1);
            stripe_cells[by / STRIPE_ROWS].push(cell.index() as u32);
        }

        let slabs: Vec<Vec<f64>> = gtl_core::parallel_map_chunked_with(
            threads,
            row_stripes.len(),
            gtl_core::Granularity::Auto,
            |_| (),
            |(), s| {
                let rows = &row_stripes[s];
                let mut slab = vec![0.0; rows.len() * bins];
                for &raw in &stripe_cells[s] {
                    let cell = gtl_netlist::CellId::from(raw);
                    let (x, y) = placement.position(cell);
                    let bx = ((x / bw) as usize).min(bins - 1);
                    let by = ((y / bh) as usize).min(bins - 1);
                    slab[(by - rows.start) * bins + bx] += netlist.cell_area(cell);
                }
                slab
            },
        );
        let mut area = vec![0.0; bins * bins];
        for (s, slab) in slabs.iter().enumerate() {
            let rows = &row_stripes[s];
            area[rows.start * bins..rows.end * bins].copy_from_slice(slab);
        }
        Self { bins, area, bin_capacity: bw * bh }
    }

    /// Grid side length.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Utilization (area / capacity) of bin `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn utilization(&self, bx: usize, by: usize) -> f64 {
        assert!(bx < self.bins && by < self.bins, "bin out of range");
        self.area[by * self.bins + bx] / self.bin_capacity
    }

    /// Largest bin utilization.
    pub fn max_utilization(&self) -> f64 {
        self.area.iter().fold(0.0f64, |m, &a| m.max(a / self.bin_capacity))
    }

    /// Mean bin utilization.
    pub fn mean_utilization(&self) -> f64 {
        if self.area.is_empty() {
            0.0
        } else {
            self.area.iter().sum::<f64>() / (self.bin_capacity * self.area.len() as f64)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Rect {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
}

impl Rect {
    fn width(&self) -> f64 {
        self.x1 - self.x0
    }
    fn height(&self) -> f64 {
        self.y1 - self.y0
    }
    fn area(&self) -> f64 {
        self.width() * self.height()
    }
}

/// Spreads `placement` toward uniform density, returning new positions
/// (the input is not modified).
///
/// # Panics
///
/// Panics if the placement does not cover the netlist.
pub fn spread(
    netlist: &Netlist,
    placement: &Placement,
    die: &Die,
    config: &SpreadConfig,
) -> Placement {
    assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
    let n = netlist.num_cells();
    let mut xs = placement.xs()[..n].to_vec();
    let mut ys = placement.ys()[..n].to_vec();
    if n == 0 {
        return Placement::from_coords(xs, ys);
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    let rect = Rect { x0: 0.0, y0: 0.0, x1: die.width, y1: die.height };
    let ctx = Ctx { netlist, origx: placement.xs(), origy: placement.ys(), config };
    bisect(&ctx, &mut order, rect, 0, &mut xs, &mut ys);
    Placement::from_coords(xs, ys)
}

struct Ctx<'a> {
    netlist: &'a Netlist,
    origx: &'a [f64],
    origy: &'a [f64],
    config: &'a SpreadConfig,
}

fn bisect(
    ctx: &Ctx<'_>,
    cells: &mut [u32],
    rect: Rect,
    depth: usize,
    xs: &mut [f64],
    ys: &mut [f64],
) {
    let total_area: f64 =
        cells.iter().map(|&c| ctx.netlist.cell_area(gtl_netlist::CellId::from(c))).sum();

    // Leaf: few cells, loose region, or depth guard.
    let loose = total_area <= rect.area() * ctx.config.target_utilization
        && cells.len() <= ctx.config.leaf_cells * 4;
    if cells.len() <= ctx.config.leaf_cells || depth >= ctx.config.max_depth || loose {
        place_leaf(ctx, cells, rect, xs, ys);
        return;
    }

    // Split along the longer axis at the area median.
    let horizontal = rect.width() >= rect.height();
    if horizontal {
        cells.sort_by(|&a, &b| {
            ctx.origx[a as usize].total_cmp(&ctx.origx[b as usize]).then(a.cmp(&b))
        });
    } else {
        cells.sort_by(|&a, &b| {
            ctx.origy[a as usize].total_cmp(&ctx.origy[b as usize]).then(a.cmp(&b))
        });
    }
    let mut acc = 0.0;
    let mut split = cells.len() / 2;
    for (i, &c) in cells.iter().enumerate() {
        acc += ctx.netlist.cell_area(gtl_netlist::CellId::from(c));
        if acc >= total_area / 2.0 {
            split = (i + 1).min(cells.len() - 1).max(1);
            break;
        }
    }
    let (left, right) = cells.split_at_mut(split);
    let (ra, rb) = if horizontal {
        let xm = rect.x0 + rect.width() / 2.0;
        (Rect { x1: xm, ..rect }, Rect { x0: xm, ..rect })
    } else {
        let ym = rect.y0 + rect.height() / 2.0;
        (Rect { y1: ym, ..rect }, Rect { y0: ym, ..rect })
    };
    bisect(ctx, left, ra, depth + 1, xs, ys);
    bisect(ctx, right, rb, depth + 1, xs, ys);
}

/// Lays leaf cells on a uniform grid inside `rect`, preserving the
/// cells' relative (y, x) order.
fn place_leaf(ctx: &Ctx<'_>, cells: &mut [u32], rect: Rect, xs: &mut [f64], ys: &mut [f64]) {
    if cells.is_empty() {
        return;
    }
    cells.sort_by(|&a, &b| {
        ctx.origy[a as usize]
            .total_cmp(&ctx.origy[b as usize])
            .then(ctx.origx[a as usize].total_cmp(&ctx.origx[b as usize]))
            .then(a.cmp(&b))
    });
    let n = cells.len();
    let aspect = (rect.width() / rect.height().max(1e-12)).max(1e-6);
    let cols = ((n as f64 * aspect).sqrt().ceil() as usize).clamp(1, n);
    let rows = n.div_ceil(cols);
    for (i, &c) in cells.iter().enumerate() {
        let (r, col) = (i / cols, i % cols);
        // Within a row, order cells by x for minimal warping.
        xs[c as usize] = rect.x0 + (col as f64 + 0.5) / cols as f64 * rect.width();
        ys[c as usize] = rect.y0 + (r as f64 + 0.5) / rows as f64 * rect.height();
    }
    // Re-sort each row segment by original x so left cells stay left.
    for r in 0..rows {
        let lo = r * cols;
        let hi = ((r + 1) * cols).min(n);
        let mut row: Vec<u32> = cells[lo..hi].to_vec();
        row.sort_by(|&a, &b| {
            ctx.origx[a as usize].total_cmp(&ctx.origx[b as usize]).then(a.cmp(&b))
        });
        for (j, &c) in row.iter().enumerate() {
            xs[c as usize] = rect.x0 + (j as f64 + 0.5) / (hi - lo) as f64 * rect.width();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{CellId, NetlistBuilder};

    fn uniform_netlist(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(n);
        b.finish()
    }

    #[test]
    fn density_map_counts_areas() {
        let nl = uniform_netlist(4);
        let die = Die { width: 10.0, height: 10.0, rows: 10 };
        let p = Placement::from_coords(vec![1.0; 4], vec![1.0; 4]);
        let map = DensityMap::compute(&nl, &p, &die, 2);
        assert!((map.utilization(0, 0) - 4.0 / 25.0).abs() < 1e-12);
        assert_eq!(map.utilization(1, 1), 0.0);
        assert!(map.max_utilization() > map.mean_utilization());
    }

    #[test]
    fn spreading_reduces_peak_density() {
        let n = 400;
        let nl = uniform_netlist(n);
        let die = Die { width: 40.0, height: 40.0, rows: 40 };
        // Everything piled in one corner.
        let p = Placement::from_coords(vec![2.0; n], vec![2.0; n]);
        let before = DensityMap::compute(&nl, &p, &die, 8).max_utilization();
        let spread_p = spread(&nl, &p, &die, &SpreadConfig::default());
        let after = DensityMap::compute(&nl, &spread_p, &die, 8).max_utilization();
        assert!(after < before / 4.0, "peak {before} → {after}");
    }

    #[test]
    fn spreading_keeps_cells_in_die() {
        let n = 100;
        let nl = uniform_netlist(n);
        let die = Die { width: 10.0, height: 10.0, rows: 10 };
        let p = Placement::from_coords(vec![9.9; n], vec![9.9; n]);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        for c in nl.cells() {
            let (x, y) = s.position(c);
            assert!((0.0..=10.0).contains(&x) && (0.0..=10.0).contains(&y));
        }
    }

    #[test]
    fn stacked_clusters_separate_coherently() {
        // Two groups of contiguous ids stacked at the same point must end
        // up in (mostly) disjoint regions, not interleaved.
        let n = 200;
        let nl = uniform_netlist(n);
        let die = Die { width: 20.0, height: 20.0, rows: 20 };
        let p = Placement::from_coords(vec![10.0; n], vec![10.0; n]);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        let centroid = |range: std::ops::Range<usize>| {
            let mut cx = 0.0;
            let mut cy = 0.0;
            for i in range.clone() {
                let (x, y) = s.position(CellId::new(i));
                cx += x;
                cy += y;
            }
            (cx / range.len() as f64, cy / range.len() as f64)
        };
        let (ax, ay) = centroid(0..100);
        let (bx, by) = centroid(100..200);
        let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        assert!(dist > 5.0, "cluster centroids only {dist:.2} apart");
    }

    #[test]
    fn order_preserved_along_x() {
        // Cells on a line keep their left-to-right order after spreading.
        let n = 64;
        let nl = uniform_netlist(n);
        let die = Die { width: 64.0, height: 64.0, rows: 64 };
        let xs: Vec<f64> = (0..n).map(|i| 20.0 + i as f64 * 0.01).collect();
        let ys = vec![32.0; n];
        let p = Placement::from_coords(xs, ys);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        // Compare x-order of the extreme cells.
        let first = s.position(CellId::new(0)).0;
        let last = s.position(CellId::new(n - 1)).0;
        assert!(first < last, "order flipped: {first} vs {last}");
    }

    #[test]
    fn already_uniform_placement_stays_bounded() {
        let n = 64;
        let nl = uniform_netlist(n);
        let die = Die { width: 40.0, height: 40.0, rows: 40 };
        let xs: Vec<f64> = (0..n).map(|i| (i % 8) as f64 * 5.0 + 2.5).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i / 8) as f64 * 5.0 + 2.5).collect();
        let p = Placement::from_coords(xs, ys);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        // Max displacement stays within a couple of grid pitches.
        for c in nl.cells() {
            let (x0, y0) = p.position(c);
            let (x1, y1) = s.position(c);
            let d = (x1 - x0).abs() + (y1 - y0).abs();
            assert!(d < 15.0, "cell {c} moved {d}");
        }
    }

    #[test]
    fn deterministic() {
        let n = 150;
        let nl = uniform_netlist(n);
        let die = Die { width: 15.0, height: 15.0, rows: 15 };
        let p = Placement::from_coords(vec![7.0; n], vec![7.0; n]);
        let a = spread(&nl, &p, &die, &SpreadConfig::default());
        let b = spread(&nl, &p, &die, &SpreadConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_netlist() {
        let nl = uniform_netlist(0);
        let die = Die { width: 1.0, height: 1.0, rows: 1 };
        let p = Placement::from_coords(vec![], vec![]);
        let s = spread(&nl, &p, &die, &SpreadConfig::default());
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "bin out of range")]
    fn density_map_bounds() {
        let nl = uniform_netlist(1);
        let die = Die { width: 4.0, height: 4.0, rows: 4 };
        let p = Placement::from_coords(vec![0.0], vec![0.0]);
        let map = DensityMap::compute(&nl, &p, &die, 2);
        let _ = map.utilization(2, 0);
    }
}
