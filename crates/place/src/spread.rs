//! Recursive-bisection density spreading.
//!
//! The quadratic solve clumps connected cells; spreading produces the
//! anchor targets that pull the placement apart. The algorithm here is a
//! deterministic recursive bisection (in the spirit of look-ahead
//! legalization / grid warping): a region's cells are ordered along its
//! longer axis and split at the **area median**, each half recursing into
//! the corresponding half-region, until a leaf holds a handful of cells
//! that are laid out on a uniform grid.
//!
//! A region's cells ordered by `(coordinate, cell id)` are the whole
//! design's order restricted to that region, so the cell ids are sorted
//! once per axis and every region keeps both orders: a split cuts the
//! split axis's list at the median and stably partitions the other list
//! into the two halves, one linear pass each. Below a fixed depth (3, so
//! at most 8 subtrees) the subtrees are independent `gtl_core::exec`
//! work items, and the two root sorts are two more. Every split point,
//! area sum and leaf layout is the one a serial recursion computes, so
//! [`spread`] runs on all cores and returns the same bits for any worker
//! count.
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

use gtl_core::exec::{parallel_map_chunked_with, Granularity};
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
    /// Computes the density map of `placement` on a `bins × bins` grid:
    /// each cell's area is added to the bin holding its position, in
    /// cell-id order.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or the placement does not cover the netlist.
    pub fn compute(netlist: &Netlist, placement: &Placement, die: &Die, bins: usize) -> Self {
        assert!(bins > 0, "bins must be positive");
        assert!(placement.len() >= netlist.num_cells(), "placement smaller than netlist");
        let bw = die.width / bins as f64;
        let bh = die.height / bins as f64;
        let mut area = vec![0.0; bins * bins];
        for cell in netlist.cells() {
            let (x, y) = placement.position(cell);
            let bx = ((x / bw) as usize).min(bins - 1);
            let by = ((y / bh) as usize).min(bins - 1);
            area[by * bins + bx] += netlist.cell_area(cell);
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
/// Runs on all cores; the result is bit-identical for any worker count.
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
    spread_coords(netlist, placement.xs(), placement.ys(), die, config, 0)
}

/// Depth at which the bisection fans out: the subtrees rooted here (at
/// most `2^FANOUT_DEPTH`), plus any leaf reached above it, are the work
/// items. A constant, never a function of the worker count.
const FANOUT_DEPTH: usize = 3;

/// [`spread`] of the positions `origx`/`origy` on `threads` workers
/// (`0` = all cores): the form the placer calls with its own worker
/// count and coordinate vectors.
///
/// # Panics
///
/// Panics if the coordinates do not cover the netlist.
pub(crate) fn spread_coords(
    netlist: &Netlist,
    origx: &[f64],
    origy: &[f64],
    die: &Die,
    config: &SpreadConfig,
    threads: usize,
) -> Placement {
    let n = netlist.num_cells();
    assert!(origx.len() >= n && origy.len() >= n, "placement smaller than netlist");
    // The two root sorts, one item per axis.
    let mut sorted = parallel_map_chunked_with(
        threads,
        2,
        Granularity::Auto,
        |_| (),
        |(), axis| sort_axis(if axis == 0 { &origx[..n] } else { &origy[..n] }),
    );
    let (mut by_y, rank_y) = sorted.pop().expect("y axis sorted");
    let (mut by_x, rank_x) = sorted.pop().expect("x axis sorted");
    let ctx = Ctx { netlist, origy, rank_x: &rank_x, rank_y: &rank_y, config };

    let rect = Rect { x0: 0.0, y0: 0.0, x1: die.width, y1: die.height };
    let root = Node { rect, depth: 0, sum_axis: None };
    let mut regions = Vec::new();
    fan_out(&ctx, &mut by_x, &mut by_y, 0, root, &mut Vec::new(), &mut regions);
    let placed = parallel_map_chunked_with(
        threads,
        regions.len(),
        Granularity::Auto,
        |_| Scratch::default(),
        |s, i| {
            let region = &regions[i];
            s.by_x.clear();
            s.by_x.extend_from_slice(&by_x[region.cells.clone()]);
            s.by_y.clear();
            s.by_y.extend_from_slice(&by_y[region.cells.clone()]);
            let mut placed = Vec::with_capacity(region.cells.len());
            bisect(&ctx, &mut s.by_x, &mut s.by_y, region.node, &mut s.spill, &mut placed);
            placed
        },
    );
    // Every cell lies in exactly one leaf.
    let mut xs = vec![0.0; n];
    let mut ys = vec![0.0; n];
    for (c, x, y) in placed.into_iter().flatten() {
        xs[c as usize] = x;
        ys[c as usize] = y;
    }
    Placement::from_coords(xs, ys)
}

/// Maps `v` to a key whose unsigned order is [`f64::total_cmp`]'s:
/// −0.0 sorts before +0.0, and NaNs order by their bits.
fn total_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The cells sorted by `(coord, id)`, and each cell's rank in that order.
fn sort_axis(coords: &[f64]) -> (Vec<u32>, Vec<u32>) {
    let mut keyed: Vec<(u64, u32)> =
        coords.iter().enumerate().map(|(c, &v)| (total_key(v), c as u32)).collect();
    keyed.sort_unstable();
    let order: Vec<u32> = keyed.iter().map(|&(_, c)| c).collect();
    let mut rank = vec![0; coords.len()];
    for (r, &c) in order.iter().enumerate() {
        rank[c as usize] = r as u32;
    }
    (order, rank)
}

struct Ctx<'a> {
    netlist: &'a Netlist,
    origy: &'a [f64],
    rank_x: &'a [u32],
    rank_y: &'a [u32],
    config: &'a SpreadConfig,
}

#[derive(Clone, Copy)]
enum Axis {
    X,
    Y,
}

/// Where a region sits in the recursion.
#[derive(Clone, Copy)]
struct Node {
    rect: Rect,
    depth: usize,
    /// The axis the parent split along (`None` at the root): the order
    /// the region's area is summed in.
    sum_axis: Option<Axis>,
}

/// A region's cells are one set in two lists, `by_x` sorted by
/// `(x, id)` and `by_y` by `(y, id)`. A work item's subtree owns the
/// range `cells` of both.
struct Region {
    cells: std::ops::Range<usize>,
    node: Node,
}

/// One worker's buffers, reused across the subtrees it claims.
#[derive(Default)]
struct Scratch {
    by_x: Vec<u32>,
    by_y: Vec<u32>,
    spill: Vec<u32>,
}

/// A split region: both lists' `[..at]` hold the lower child, the rest
/// the upper child, each still sorted.
struct Split {
    at: usize,
    children: [Node; 2],
}

/// The serial top of the recursion: splits down to `FANOUT_DEPTH` and
/// collects the subtrees there, and any leaf above it, in depth-first
/// order. `start` is the offset of `by_x`/`by_y` in the whole lists.
fn fan_out(
    ctx: &Ctx<'_>,
    by_x: &mut [u32],
    by_y: &mut [u32],
    start: usize,
    node: Node,
    spill: &mut Vec<u32>,
    regions: &mut Vec<Region>,
) {
    if node.depth < FANOUT_DEPTH {
        if let Some(Split { at, children: [lower, upper] }) = split(ctx, by_x, by_y, node, spill) {
            let (lx, ux) = by_x.split_at_mut(at);
            let (ly, uy) = by_y.split_at_mut(at);
            fan_out(ctx, lx, ly, start, lower, spill, regions);
            fan_out(ctx, ux, uy, start + at, upper, spill, regions);
            return;
        }
    }
    regions.push(Region { cells: start..start + by_x.len(), node });
}

/// Bisects one work item's subtree down to its leaves, appending each
/// placed cell's `(cell, x, y)` to `placed`.
fn bisect(
    ctx: &Ctx<'_>,
    by_x: &mut [u32],
    by_y: &mut [u32],
    node: Node,
    spill: &mut Vec<u32>,
    placed: &mut Vec<(u32, f64, f64)>,
) {
    match split(ctx, by_x, by_y, node, spill) {
        None => place_leaf(ctx, by_y, node.rect, placed),
        Some(Split { at, children: [lower, upper] }) => {
            let (lx, ux) = by_x.split_at_mut(at);
            let (ly, uy) = by_y.split_at_mut(at);
            bisect(ctx, lx, ly, lower, spill, placed);
            bisect(ctx, ux, uy, upper, spill, placed);
        }
    }
}

/// Splits a region along its longer axis at the area median, or returns
/// `None` for a leaf (few cells, loose region, or depth guard).
fn split(
    ctx: &Ctx<'_>,
    by_x: &mut [u32],
    by_y: &mut [u32],
    node: Node,
    spill: &mut Vec<u32>,
) -> Option<Split> {
    let Node { rect, depth, sum_axis } = node;
    let area = |c: u32| ctx.netlist.cell_area(gtl_netlist::CellId::from(c));
    let len = by_x.len();
    // Summed in the order the cells reached this region: ascending id at
    // the root, the parent's split-axis order below it.
    let total_area: f64 = match sum_axis {
        None => (0..len as u32).map(area).sum(),
        Some(Axis::X) => by_x.iter().map(|&c| area(c)).sum(),
        Some(Axis::Y) => by_y.iter().map(|&c| area(c)).sum(),
    };
    let loose = total_area <= rect.area() * ctx.config.target_utilization
        && len <= ctx.config.leaf_cells * 4;
    if len <= ctx.config.leaf_cells || depth >= ctx.config.max_depth || loose {
        return None;
    }

    let axis = if rect.width() >= rect.height() { Axis::X } else { Axis::Y };
    let (sorted, other, rank) = match axis {
        Axis::X => (&*by_x, by_y, ctx.rank_x),
        Axis::Y => (&*by_y, by_x, ctx.rank_y),
    };
    let mut acc = 0.0;
    let mut at = len / 2;
    for (i, &c) in sorted.iter().enumerate() {
        acc += area(c);
        if acc >= total_area / 2.0 {
            at = (i + 1).min(len - 1).max(1);
            break;
        }
    }
    // Stable partition of the other list: the lower child is exactly the
    // cells ranked before `sorted[at]` along the split axis.
    let pivot = sorted.get(at).map_or(usize::MAX, |&c| rank[c as usize] as usize);
    spill.clear();
    let mut lower = 0;
    for i in 0..len {
        let c = other[i];
        if (rank[c as usize] as usize) < pivot {
            other[lower] = c;
            lower += 1;
        } else {
            spill.push(c);
        }
    }
    debug_assert_eq!(lower, at);
    other[lower..].copy_from_slice(spill);

    let halves = match axis {
        Axis::X => {
            let xm = rect.x0 + rect.width() / 2.0;
            [Rect { x1: xm, ..rect }, Rect { x0: xm, ..rect }]
        }
        Axis::Y => {
            let ym = rect.y0 + rect.height() / 2.0;
            [Rect { y1: ym, ..rect }, Rect { y0: ym, ..rect }]
        }
    };
    let child = |rect| Node { rect, depth: depth + 1, sum_axis: Some(axis) };
    Some(Split { at, children: halves.map(child) })
}

/// Lays leaf cells on a uniform grid inside `rect`, preserving the
/// cells' relative (y, x) order, and appends each cell's `(cell, x, y)`
/// to `placed`. Both sorts are total orders, so the order `cells`
/// arrives in does not matter.
fn place_leaf(ctx: &Ctx<'_>, cells: &mut [u32], rect: Rect, placed: &mut Vec<(u32, f64, f64)>) {
    if cells.is_empty() {
        return;
    }
    // `(y, x, id)`: the x rank already breaks x ties on id.
    cells.sort_unstable_by_key(|&c| (total_key(ctx.origy[c as usize]), ctx.rank_x[c as usize]));
    let n = cells.len();
    let aspect = (rect.width() / rect.height().max(1e-12)).max(1e-6);
    let cols = ((n as f64 * aspect).sqrt().ceil() as usize).clamp(1, n);
    let rows = n.div_ceil(cols);
    for (r, row) in cells.chunks_mut(cols).enumerate() {
        // Within a row, order cells by x for minimal warping.
        row.sort_unstable_by_key(|&c| ctx.rank_x[c as usize]);
        let y = rect.y0 + (r as f64 + 0.5) / rows as f64 * rect.height();
        for (j, &c) in row.iter().enumerate() {
            placed.push((c, rect.x0 + (j as f64 + 0.5) / row.len() as f64 * rect.width(), y));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{CellId, NetlistBuilder};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The serial spreader the presorted, fanned-out one replaced (every
    /// region re-sorted at every level), kept verbatim as its
    /// bit-exactness oracle.
    mod reference {
        use gtl_netlist::Netlist;

        use super::super::{Rect, SpreadConfig};
        use crate::{Die, Placement};

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
        fn place_leaf(
            ctx: &Ctx<'_>,
            cells: &mut [u32],
            rect: Rect,
            xs: &mut [f64],
            ys: &mut [f64],
        ) {
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
    }

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

    #[test]
    fn total_key_orders_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0001),
        ];
        for a in values {
            for b in values {
                assert_eq!(total_key(a).cmp(&total_key(b)), a.total_cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    /// Asserts that two placements hold the same bits, naming the first
    /// cell that differs.
    fn assert_same_bits(got: &Placement, want: &Placement, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for i in 0..got.len() {
            let (g, w) = (got.position(CellId::new(i)), want.position(CellId::new(i)));
            assert!(
                g.0.to_bits() == w.0.to_bits() && g.1.to_bits() == w.1.to_bits(),
                "{what}: cell {i} at {g:?}, oracle {w:?}"
            );
        }
    }

    /// A random spreader input: `n` cells plus `extra` positions past the
    /// last one, on a random die. `pattern` places them uniformly over and
    /// past the die (0), stacked on a few points in contiguous id blocks
    /// (1), on a coarse grid (2), or on signed zeros, negatives, subnormal
    /// magnitudes and NaN (3). `areas` is unit (0), uniform (1) or
    /// log-uniform (2), down to 1e-9.
    fn random_case(
        n: usize,
        pattern: u8,
        areas: u8,
        extra: usize,
        seed: u64,
    ) -> (Netlist, Placement, Die) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let die =
            Die { width: rng.gen_range(1.0..80.0), height: rng.gen_range(1.0..80.0), rows: 8 };
        let mut b = NetlistBuilder::new();
        for _ in 0..n {
            b.add_anonymous_cell(match areas {
                0 => 1.0,
                1 => rng.gen_range(1e-9..3.7),
                _ => 10f64.powf(rng.gen_range(-9.0..0.57)),
            });
        }
        let stacks: Vec<(f64, f64)> = (0..rng.gen_range(1..5usize))
            .map(|_| (rng.gen_range(0.0..die.width), rng.gen_range(0.0..die.height)))
            .collect();
        let specials = [-0.0, 0.0, -1.5, 1.5, 4e-320, -4e-320, f64::NAN];
        let len = n + extra;
        let (xs, ys) = (0..len)
            .map(|i| match pattern {
                0 => (rng.gen_range(-3.0..die.width + 3.0), rng.gen_range(-3.0..die.height + 3.0)),
                1 => stacks[i * stacks.len() / len],
                2 => (
                    rng.gen_range(0..6usize) as f64 * die.width / 5.0,
                    rng.gen_range(0..6usize) as f64 * die.height / 5.0,
                ),
                _ => (
                    specials[rng.gen_range(0..specials.len())],
                    specials[rng.gen_range(0..specials.len())],
                ),
            })
            .unzip();
        (b.finish(), Placement::from_coords(xs, ys), die)
    }

    /// Mostly designs large enough to fan out, some tiny ones.
    fn arb_cells() -> impl Strategy<Value = usize> {
        (0u8..3).prop_flat_map(|size| if size == 0 { 1usize..64 } else { 64usize..5001 })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The presorted, fanned-out spreader reproduces the oracle bit
        /// for bit at 1, 2 and 8 workers, including depth caps above and
        /// below the fan-out depth and utilization targets around 1.
        #[test]
        fn spread_matches_oracle_bit_for_bit(
            n in arb_cells(),
            pattern in 0u8..4,
            areas in 0u8..3,
            extra in 0usize..3,
            leaf_cells in 1usize..=12,
            depth in 0usize..7,
            target_utilization in 0.3f64..2.5,
            seed in 0u64..u64::MAX,
        ) {
            let (nl, p, die) = random_case(n, pattern, areas, extra, seed);
            let max_depth = [0, 1, 2, 3, 4, 6, 48][depth];
            let config = SpreadConfig { target_utilization, leaf_cells, max_depth };
            let want = reference::spread(&nl, &p, &die, &config);
            for threads in [1, 2, 8] {
                let got = spread_coords(&nl, p.xs(), p.ys(), &die, &config, threads);
                assert_same_bits(&got, &want, &format!("{n} cells, {threads} workers"));
            }
        }
    }

    /// `leaf_cells` 0, which the library accepts, splits every single
    /// cell into itself and an empty half down to the depth cap.
    #[test]
    fn spread_matches_oracle_with_zero_leaf_cells() {
        let (nl, p, die) = random_case(40, 0, 1, 0, 7);
        let config = SpreadConfig { leaf_cells: 0, max_depth: 12, ..SpreadConfig::default() };
        let want = reference::spread(&nl, &p, &die, &config);
        for threads in [1, 2, 8] {
            let got = spread_coords(&nl, p.xs(), p.ys(), &die, &config, threads);
            assert_same_bits(&got, &want, &format!("{threads} workers"));
        }
    }

    /// Inputs where the order a region's area is summed in decides the
    /// layout: one large and two tiny cells, `1.0 + t + t == 1.0` but
    /// `t + t + 1.0 > 1.0`, in a region whose capacity is exactly 1.0.
    /// Summed in id order at the root and in the parent's split-axis
    /// order below it (here the x order, tiny cells first), the region
    /// is loose or not exactly as in the oracle; any other order flips it.
    #[test]
    fn spread_matches_oracle_where_area_sum_order_matters() {
        let t = 1.1e-16;
        assert_eq!(1.0 + t + t, 1.0);
        assert!(t + t + 1.0 > 1.0);
        let config = SpreadConfig { target_utilization: 1.0, leaf_cells: 1, max_depth: 48 };
        // The root alone (1×1), and the lower half of a 2×1 root split
        // along x; the large cell comes first by id and by y, last by x.
        let root = [(1.0, 0.9, 0.1), (t, 0.1, 0.5), (t, 0.2, 0.6)];
        let below = [
            (1.0, 0.7, 0.1),
            (t, 0.2, 0.5),
            (t, 0.3, 0.6),
            (1.0, 1.7, 0.1),
            (t, 1.2, 0.5),
            (t, 1.3, 0.6),
        ];
        for (cells, width) in [(&root[..], 1.0), (&below[..], 2.0)] {
            let mut b = NetlistBuilder::new();
            for &(area, _, _) in cells {
                b.add_anonymous_cell(area);
            }
            let nl = b.finish();
            let p = Placement::from_coords(
                cells.iter().map(|c| c.1).collect(),
                cells.iter().map(|c| c.2).collect(),
            );
            let die = Die { width, height: 1.0, rows: 1 };
            let want = reference::spread(&nl, &p, &die, &config);
            assert_same_bits(&spread(&nl, &p, &die, &config), &want, "width {width}");
        }
    }

    /// A 12k-cell design that is sure to fan out: eight stacked blobs of
    /// contiguous ids over a scattered background, default config. The
    /// top of the recursion hands all `2^FANOUT_DEPTH` subtrees to the
    /// workers, and the result matches the oracle bit for bit.
    #[test]
    fn spread_matches_oracle_on_a_fanned_out_12k_fixture() {
        let n = 12_000;
        let mut b = NetlistBuilder::new();
        for i in 0..n {
            b.add_anonymous_cell(0.5 + (i % 7) as f64 * 0.25);
        }
        let nl = b.finish();
        let die = Die::for_netlist(&nl, 0.7);
        let (xs, ys): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|i| {
                if i < n / 2 {
                    let blob = (i / 750) as f64;
                    (blob % 4.0 * die.width / 4.0 + 1.0, (blob / 4.0).floor() * die.height / 2.0)
                } else {
                    let t = i as f64;
                    ((t * 0.618_034).fract() * die.width, (t * 0.754_877).fract() * die.height)
                }
            })
            .unzip();
        let config = SpreadConfig::default();

        let (mut by_x, rank_x) = sort_axis(&xs);
        let (mut by_y, rank_y) = sort_axis(&ys);
        let ctx =
            Ctx { netlist: &nl, origy: &ys, rank_x: &rank_x, rank_y: &rank_y, config: &config };
        let rect = Rect { x0: 0.0, y0: 0.0, x1: die.width, y1: die.height };
        let root = Node { rect, depth: 0, sum_axis: None };
        let mut regions = Vec::new();
        fan_out(&ctx, &mut by_x, &mut by_y, 0, root, &mut Vec::new(), &mut regions);
        assert_eq!(regions.len(), 1 << FANOUT_DEPTH);
        assert!(regions.iter().all(|r| r.node.depth == FANOUT_DEPTH));

        let p = Placement::from_coords(xs, ys);
        let want = reference::spread(&nl, &p, &die, &config);
        assert_same_bits(&spread(&nl, &p, &die, &config), &want, "all cores");
        for threads in [1, 2, 8] {
            let got = spread_coords(&nl, p.xs(), p.ys(), &die, &config, threads);
            assert_same_bits(&got, &want, &format!("{threads} workers"));
        }
    }
}
