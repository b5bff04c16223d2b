//! Deterministic spatial partitioning: region shards and tile stripes.
//!
//! The execution layer ([`exec`](crate::exec)) answers *how* work is fanned
//! out; this module answers *what* the work items are for spatial
//! algorithms. Two decompositions cover the workspace's physical-design
//! clients:
//!
//! * [`ShardGrid`] — an `nx × ny` grid of rectangular region shards over a
//!   die. The quadratic placer partitions cells by position into shards
//!   and solves each shard's system as one work item.
//! * [`stripes`] — contiguous index ranges ("stripes" of tile rows) over a
//!   1-D index space. The congestion estimator deposits each stripe's
//!   routing demand as one work item.
//!
//! Both decompositions are pure functions of their inputs — never of the
//! worker count — so they compose with the determinism contract of
//! [`exec::run_map`](crate::exec::run_map): the same
//! die and the same positions produce the same shards (and therefore the
//! same results) for 1, 2 or 8 workers.

/// An `nx × ny` grid of rectangular shards tiling a `width × height`
/// region.
///
/// Shard indices are row-major: shard `sy * nx + sx` covers
/// `[sx·width/nx, (sx+1)·width/nx) × [sy·height/ny, (sy+1)·height/ny)`,
/// with points on or beyond the outer boundary clamped into the last
/// row/column.
///
/// # Example
///
/// ```
/// use gtl_core::shard::ShardGrid;
///
/// let grid = ShardGrid::square(2, 10.0, 10.0);
/// assert_eq!(grid.len(), 4);
/// assert_eq!(grid.shard_of(1.0, 1.0), 0);
/// assert_eq!(grid.shard_of(9.0, 1.0), 1);
/// assert_eq!(grid.shard_of(1.0, 9.0), 2);
/// // Out-of-range points clamp into the boundary shards.
/// assert_eq!(grid.shard_of(99.0, 99.0), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardGrid {
    nx: usize,
    ny: usize,
    width: f64,
    height: f64,
}

impl ShardGrid {
    /// Builds an `nx × ny` grid over a `width × height` region.
    ///
    /// # Panics
    ///
    /// Panics if either grid side is zero or either dimension is not
    /// strictly positive and finite.
    pub fn new(nx: usize, ny: usize, width: f64, height: f64) -> Self {
        assert!(nx > 0 && ny > 0, "shard grid sides must be positive");
        assert!(
            width > 0.0 && width.is_finite() && height > 0.0 && height.is_finite(),
            "region dimensions must be positive and finite"
        );
        Self { nx, ny, width, height }
    }

    /// A square `g × g` grid (the common case for square dies).
    pub fn square(g: usize, width: f64, height: f64) -> Self {
        Self::new(g, g, width, height)
    }

    /// Number of shards (`nx × ny`).
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid is empty (never true: sides are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Grid width in shards.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in shards.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Row-major index of the shard containing `(x, y)`, clamping points
    /// outside the region into the boundary shards.
    pub fn shard_of(&self, x: f64, y: f64) -> usize {
        let sx = ((x / self.width * self.nx as f64) as usize).min(self.nx - 1);
        let sy = ((y / self.height * self.ny as f64) as usize).min(self.ny - 1);
        sy * self.nx + sx
    }

    /// Partitions item indices `0..xs.len()` into per-shard lists by
    /// position. Within each shard, indices stay in ascending order, so
    /// the partition (and any computation consuming it in shard-then-index
    /// order) is canonical.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length.
    pub fn partition(&self, xs: &[f64], ys: &[f64]) -> Vec<Vec<u32>> {
        assert_eq!(xs.len(), ys.len(), "coordinate slices must match");
        let mut shards: Vec<Vec<u32>> = vec![Vec::new(); self.len()];
        for i in 0..xs.len() {
            shards[self.shard_of(xs[i], ys[i])].push(i as u32);
        }
        shards
    }
}

/// Picks a square shard-grid side for `items` work units aiming at
/// `target_per_shard` units per shard, clamped to `[1, max_grid]`.
///
/// The result depends only on the arguments — callers must *not* feed a
/// thread count in here, or the decomposition (and with it the output)
/// would change with the machine.
///
/// # Example
///
/// ```
/// use gtl_core::shard::auto_grid;
///
/// assert_eq!(auto_grid(500, 10_000, 16), 1); // small: one global shard
/// assert_eq!(auto_grid(90_000, 10_000, 16), 3); // 9 shards of ~10k
/// assert_eq!(auto_grid(10_000_000, 10_000, 16), 16); // clamped
/// ```
pub fn auto_grid(items: usize, target_per_shard: usize, max_grid: usize) -> usize {
    let target = target_per_shard.max(1) as f64;
    let g = (items as f64 / target).sqrt().ceil() as usize;
    g.clamp(1, max_grid.max(1))
}

/// Default stripe height (rows per stripe) for the workspace's tile-grid
/// clients (congestion estimation, density maps). One shared constant so
/// their decompositions cannot silently diverge; it must stay a fixed
/// value — never derived from the worker count — to keep results
/// machine-independent.
pub const DEFAULT_STRIPE_ROWS: usize = 4;

/// Splits `0..len` into contiguous stripes of at most `stripe_len`
/// indices (the last stripe may be shorter).
///
/// # Panics
///
/// Panics if `stripe_len == 0`.
///
/// # Example
///
/// ```
/// use gtl_core::shard::stripes;
///
/// assert_eq!(stripes(10, 4), vec![0..4, 4..8, 8..10]);
/// assert_eq!(stripes(0, 4), Vec::<std::ops::Range<usize>>::new());
/// ```
pub fn stripes(len: usize, stripe_len: usize) -> Vec<std::ops::Range<usize>> {
    assert!(stripe_len > 0, "stripe_len must be positive");
    (0..len.div_ceil(stripe_len)).map(|s| s * stripe_len..((s + 1) * stripe_len).min(len)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_covers_grid_row_major() {
        let grid = ShardGrid::new(3, 2, 30.0, 20.0);
        assert_eq!(grid.len(), 6);
        assert_eq!((grid.nx(), grid.ny()), (3, 2));
        assert_eq!(grid.shard_of(5.0, 5.0), 0);
        assert_eq!(grid.shard_of(15.0, 5.0), 1);
        assert_eq!(grid.shard_of(25.0, 5.0), 2);
        assert_eq!(grid.shard_of(5.0, 15.0), 3);
        assert_eq!(grid.shard_of(29.9, 19.9), 5);
    }

    #[test]
    fn shard_of_clamps_outliers() {
        let grid = ShardGrid::square(4, 8.0, 8.0);
        assert_eq!(grid.shard_of(-3.0, -3.0), 0);
        assert_eq!(grid.shard_of(8.0, 8.0), grid.len() - 1);
        assert_eq!(grid.shard_of(1e12, 0.0), 3);
    }

    #[test]
    fn partition_is_ascending_within_shards_and_complete() {
        let grid = ShardGrid::square(2, 10.0, 10.0);
        let xs = [1.0, 9.0, 1.0, 9.0, 2.0, 2.0];
        let ys = [1.0, 1.0, 9.0, 9.0, 1.0, 1.0];
        let shards = grid.partition(&xs, &ys);
        assert_eq!(shards[0], vec![0, 4, 5]);
        assert_eq!(shards[1], vec![1]);
        assert_eq!(shards[2], vec![2]);
        assert_eq!(shards[3], vec![3]);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, xs.len());
    }

    #[test]
    fn auto_grid_scales_with_sqrt() {
        assert_eq!(auto_grid(0, 100, 8), 1);
        assert_eq!(auto_grid(100, 100, 8), 1);
        assert_eq!(auto_grid(401, 100, 8), 3);
        assert_eq!(auto_grid(usize::MAX, 1, 8), 8);
        assert_eq!(auto_grid(50, 0, 8), 8); // target clamps to 1
    }

    #[test]
    fn stripes_partition_exactly() {
        for (len, sl) in [(1usize, 1usize), (7, 3), (12, 4), (5, 100)] {
            let ranges = stripes(len, sl);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.len() <= sl && !r.is_empty());
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_grid_rejected() {
        let _ = ShardGrid::new(0, 1, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "stripe_len")]
    fn zero_stripe_rejected() {
        let _ = stripes(5, 0);
    }
}
