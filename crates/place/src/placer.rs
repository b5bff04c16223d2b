//! The top-level anchored quadratic placer, sharded onto
//! [`gtl_core::exec`].
//!
//! Each solve/spread iteration decomposes the die into a deterministic
//! [`ShardGrid`] of regions (cells are binned by their spread-target
//! position), records the partition in one [`ShardMap`] for the pass,
//! solves every shard's anchored system concurrently through
//! [`parallel_map_chunked_with`] — one reusable, shard-sized
//! [`ShardSolver`] per worker, all reading that map — and stitches the
//! shards back together with a fixed-order boundary anchor pass. A 1×1
//! grid solves the two axes of the global system as two work items
//! instead. The decomposition depends only on the netlist, die and
//! config (never on the worker count), so placements are byte-identical
//! for any thread count; see `crates/place/tests/determinism.rs`.

use gtl_core::cancel::{CancelToken, Cancelled};
use gtl_core::exec::{derive_stream, parallel_map, parallel_map_chunked_with, Granularity};
use gtl_core::shard::{auto_grid, ShardGrid};
use gtl_netlist::{CellId, Netlist};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::quadratic::{Laplacian, ShardMap, ShardSolver};
use crate::spread::{spread_coords, SpreadConfig};
use crate::Die;

/// Auto-sharding aims at roughly this many cells per shard; below it the
/// die stays a single shard and the placer degenerates to the global
/// solve.
const SHARD_TARGET_CELLS: usize = 10_000;

/// Hard cap on the auto-sized shard grid side.
const MAX_SHARD_GRID: usize = 16;

/// Fixed-order Gauss–Seidel sweeps over shard-boundary cells after each
/// sharded solve.
const BOUNDARY_SWEEPS: usize = 2;

/// Relative amplitude of the per-shard anchor-target jitter (scaled by the
/// die side). Far below the CG tolerance; only decorrelates exactly
/// coincident targets produced by the gridded spreader.
const TARGET_JITTER: f64 = 1e-12;

/// Cell positions, indexed by [`CellId`].
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Placement {
    /// Builds a placement from coordinate vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ.
    pub fn from_coords(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert_eq!(xs.len(), ys.len(), "coordinate vectors must match");
        Self { xs, ys }
    }

    /// Number of placed cells.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Position of `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    #[inline]
    pub fn position(&self, cell: CellId) -> (f64, f64) {
        (self.xs[cell.index()], self.ys[cell.index()])
    }

    /// All x coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// All y coordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Configuration of the global placer.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlacerConfig {
    /// Solve/spread iterations.
    pub iterations: usize,
    /// Initial anchor weight α (grows geometrically each iteration).
    pub anchor_start: f64,
    /// Multiplier applied to α per iteration.
    pub anchor_growth: f64,
    /// CG tolerance.
    pub tolerance: f64,
    /// CG iteration cap per solve.
    pub max_cg_iterations: usize,
    /// Anchor boost applied in the epilogue solve (the final spread is
    /// re-solved with `α × anchor_final_boost` so density wins at the end
    /// while connected groups stay locally tight).
    pub anchor_final_boost: f64,
    /// Spreading parameters.
    pub spread: SpreadConfig,
    /// Seed for the initial random placement (and, via
    /// [`derive_stream`], for every per-shard stream).
    pub seed: u64,
    /// Worker threads for the sharded solves and the spreader; `0` means
    /// all cores. The placement is byte-identical for every value.
    pub threads: usize,
    /// Region-decomposition grid side `g` (the die splits into `g × g`
    /// shards). `0` auto-sizes toward ~10k cells per shard; `1` forces the
    /// single-shard (global) solve.
    pub shard_grid: usize,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            iterations: 10,
            anchor_start: 0.02,
            anchor_growth: 1.6,
            tolerance: 1e-6,
            max_cg_iterations: 300,
            anchor_final_boost: 30.0,
            spread: SpreadConfig::default(),
            seed: 0x91ace,
            threads: 0,
            shard_grid: 0,
        }
    }
}

impl PlacerConfig {
    /// The shard-grid side actually used for an `n`-cell design: the
    /// explicit [`PlacerConfig::shard_grid`], or the auto-sized grid.
    pub fn resolved_shard_grid(&self, n: usize) -> usize {
        if self.shard_grid == 0 {
            auto_grid(n, SHARD_TARGET_CELLS, MAX_SHARD_GRID)
        } else {
            self.shard_grid
        }
    }
}

/// Places `netlist` on `die` with anchored quadratic iterations
/// (SimPL-style): solve `(L + αI)x = α·x_spread`, spread the result, grow
/// α, repeat. Highly connected groups stay clustered (which is exactly how
/// GTLs turn into hotspots); spreading keeps densities bounded.
///
/// Every solve runs through the deterministic execution layer: the die is
/// decomposed into [`PlacerConfig::shard_grid`]² region shards whose
/// systems are solved concurrently (out-of-shard neighbors held fixed),
/// then shard-boundary cells are reconciled by a fixed-order Gauss–Seidel
/// anchor pass. A 1×1 grid degenerates to the exact global solve. Either
/// way the output does not depend on [`PlacerConfig::threads`].
///
/// The result is a *global* placement; run
/// [`legal::legalize`](crate::legal::legalize) for row-snapped positions.
///
/// # Panics
///
/// Panics if the netlist has no cells.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_place::{place, Die, PlacerConfig};
///
/// let mut b = NetlistBuilder::new();
/// let cells: Vec<_> = (0..16).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
/// for i in 0..15 {
///     b.add_anonymous_net([cells[i], cells[i + 1]]);
/// }
/// let nl = b.finish();
/// let die = Die::for_netlist(&nl, 0.5);
/// let placement = place(&nl, &die, &PlacerConfig::default());
/// assert_eq!(placement.len(), 16);
/// let (x, y) = placement.position(cells[0]);
/// assert!(x >= 0.0 && x <= die.width && y >= 0.0 && y <= die.height);
/// ```
pub fn place(netlist: &Netlist, die: &Die, config: &PlacerConfig) -> Placement {
    match place_impl(netlist, die, config, None) {
        Ok(placement) => placement,
        Err(_) => unreachable!("a placement without a token cannot be cancelled"),
    }
}

/// The scratch parameter of [`place_cancellable_with_scratch`]. It holds
/// nothing: every buffer of a placement is the run's own. The type and
/// its [`PlaceScratch::new`] are kept only because the benchmark in
/// `gtlperf/` links them by name.
#[derive(Debug, Default)]
pub struct PlaceScratch;

impl PlaceScratch {
    /// The empty scratch.
    pub fn new() -> Self {
        Self
    }
}

/// [`place`] polling `token` between solve/spread iterations: a fired
/// token makes the run return [`Cancelled`] at the next iteration
/// boundary (the checkpoint interval is one anchored solve + spread). A
/// token that never fires yields a placement identical to [`place`]
/// (same code path). The unused `scratch` parameter, and with it the
/// name, are kept only because the benchmark in `gtlperf/` links this
/// function by its signature.
///
/// # Errors
///
/// [`Cancelled`] once the token fires.
///
/// # Panics
///
/// Panics if the netlist has no cells, like [`place`].
pub fn place_cancellable_with_scratch(
    netlist: &Netlist,
    die: &Die,
    config: &PlacerConfig,
    token: &CancelToken,
    _scratch: &mut PlaceScratch,
) -> Result<Placement, Cancelled> {
    place_impl(netlist, die, config, Some(token))
}

/// The shared placer loop behind [`place`] and
/// [`place_cancellable_with_scratch`].
fn place_impl(
    netlist: &Netlist,
    die: &Die,
    config: &PlacerConfig,
    token: Option<&CancelToken>,
) -> Result<Placement, Cancelled> {
    assert!(netlist.num_cells() > 0, "cannot place an empty netlist");
    let checkpoint = gtl_core::cancel::checkpoint;
    let n = netlist.num_cells();
    // gtl-lint: allow(no-rng-outside-derive-stream, reason = "single sequential master stream for initial positions; nothing fans out from it")
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // Initial positions: uniform random.
    let mut xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..die.width)).collect();
    let mut ys: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..die.height)).collect();

    let lap = Laplacian::build(netlist);
    let grid_side = config.resolved_shard_grid(n);
    let mut alpha = config.anchor_start;

    for _ in 0..config.iterations {
        checkpoint(token)?;
        // Spread current positions to produce anchor targets.
        let spread_p = spread_coords(netlist, &xs, &ys, die, &config.spread, config.threads);
        solve_pass(&lap, die, config, grid_side, alpha, &spread_p, &mut xs, &mut ys);
        alpha *= config.anchor_growth;
    }

    checkpoint(token)?;
    // Epilogue: spread once more, then re-solve with a strongly boosted
    // anchor. Density wins globally (dense groups stay where spreading put
    // them instead of re-collapsing onto the die center), while connected
    // groups remain locally tight — the clustering-versus-congestion
    // trade-off the tangled-logic experiments study.
    let spread_p = spread_coords(netlist, &xs, &ys, die, &config.spread, config.threads);
    let alpha_final = alpha * config.anchor_final_boost;
    solve_pass(&lap, die, config, grid_side, alpha_final, &spread_p, &mut xs, &mut ys);
    Ok(Placement::from_coords(xs, ys))
}

/// One anchored solve toward `targets`, sharded when `grid_side > 1`,
/// followed by the in-die clamp. Updates `xs`/`ys` in place.
#[allow(clippy::too_many_arguments)]
fn solve_pass(
    lap: &Laplacian,
    die: &Die,
    config: &PlacerConfig,
    grid_side: usize,
    alpha: f64,
    targets: &Placement,
    xs: &mut Vec<f64>,
    ys: &mut Vec<f64>,
) {
    let n = lap.dim();
    if grid_side <= 1 {
        // Global solve; the two axes are independent work items.
        let (xs_now, ys_now): (&[f64], &[f64]) = (xs, ys);
        let mut solved = parallel_map(config.threads, 2, |axis| {
            let (t, pos) = if axis == 0 { (targets.xs(), xs_now) } else { (targets.ys(), ys_now) };
            let rhs: Vec<f64> = t.iter().map(|&t| alpha * t).collect();
            let mut x = pos.to_vec();
            lap.solve_anchored(alpha, &rhs, &mut x, config.tolerance, config.max_cg_iterations);
            x
        });
        *ys = solved.pop().expect("y axis solved");
        *xs = solved.pop().expect("x axis solved");
    } else {
        // Region decomposition: bin cells by their spread-target position
        // (targets are density-balanced, so shards are too). The partition
        // is a pure function of the targets — never of the thread count.
        let grid = ShardGrid::square(grid_side, die.width, die.height);
        let shards = grid.partition(targets.xs(), targets.ys());
        let map = &ShardMap::new(n, &shards);
        let jitter = TARGET_JITTER * die.width.max(die.height);
        let (xs_now, ys_now): (&[f64], &[f64]) = (xs, ys);

        // Each shard solve returns its cells' new coordinates and the
        // cells it found with a neighbor outside the shard.
        let solved: Vec<(Vec<f64>, Vec<f64>, Vec<u32>)> = parallel_map_chunked_with(
            config.threads,
            shards.len(),
            Granularity::Auto,
            |_worker| (ShardSolver::new(), Vec::new(), Vec::new()),
            |(solver, tx, ty), s| {
                let cells = &shards[s];
                if cells.is_empty() {
                    return (Vec::new(), Vec::new(), Vec::new());
                }
                // Per-shard RNG stream: decorrelates exactly coincident
                // targets (the gridded spreader emits many) so each
                // shard's system is canonically perturbed, independent of
                // scheduling.
                let mut rng = SmallRng::seed_from_u64(derive_stream(config.seed, s as u64));
                tx.clear();
                ty.clear();
                for &c in cells {
                    tx.push(targets.xs()[c as usize] + jitter * rng.gen_range(-0.5..0.5));
                    ty.push(targets.ys()[c as usize] + jitter * rng.gen_range(-0.5..0.5));
                }
                let (sx, sy) = solver.solve_shard(
                    lap,
                    map,
                    cells,
                    alpha,
                    tx,
                    ty,
                    xs_now,
                    ys_now,
                    config.tolerance,
                    config.max_cg_iterations,
                );
                (sx, sy, solver.boundary().to_vec())
            },
        );

        // Stitch shard results back in fixed shard-then-cell order,
        // marking the boundary cells each shard reported.
        let mut on_boundary = vec![false; n];
        for (cells, (sx, sy, boundary)) in shards.iter().zip(&solved) {
            for (k, &c) in cells.iter().enumerate() {
                xs[c as usize] = sx[k];
                ys[c as usize] = sy[k];
            }
            for &c in boundary {
                on_boundary[c as usize] = true;
            }
        }

        // Fixed-order boundary anchor pass: cells with a neighbor in
        // another shard were solved against stale neighbor positions;
        // relax them (ascending cell id, serial, deterministic) against
        // the freshly stitched coordinates. Each update is the exact
        // stationarity condition of the global system at that cell.
        for _ in 0..BOUNDARY_SWEEPS {
            for i in (0..n).filter(|&i| on_boundary[i]) {
                let (mut acc_x, mut acc_y) = (0.0, 0.0);
                for (j, w) in lap.row(i) {
                    acc_x += w * xs[j];
                    acc_y += w * ys[j];
                }
                let denom = lap.degree(i) + alpha;
                xs[i] = (alpha * targets.xs()[i] + acc_x) / denom;
                ys[i] = (alpha * targets.ys()[i] + acc_y) / denom;
            }
        }
    }

    for i in 0..n {
        let (cx, cy) = die.clamp(xs[i], ys[i]);
        xs[i] = cx;
        ys[i] = cy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpwl;
    use gtl_netlist::NetlistBuilder;
    use proptest::prelude::*;

    /// The `solve_pass` from before the shard solves reported their
    /// boundary cells (each axis solved on its own, the boundary found by
    /// a serial scan over a `shard_of` array) and before the 1×1 solve
    /// took a scalar anchor, kept verbatim with the reference shard
    /// solver and the reference per-cell-anchor solve as the placer's
    /// bit-exactness oracle. It runs on the Laplacian's `f64` layout.
    mod reference {
        use gtl_core::exec::{derive_stream, parallel_map_chunked_with, Granularity};
        use gtl_core::shard::ShardGrid;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        use super::super::{Placement, PlacerConfig, BOUNDARY_SWEEPS, TARGET_JITTER};
        use crate::quadratic::tests::reference::{
            solve_anchored_into, Laplacian, ShardSolver, SolveScratch,
        };
        use crate::Die;

        /// One anchored solve toward `targets`, sharded when
        /// `grid_side > 1`, followed by the in-die clamp. Updates
        /// `xs`/`ys` in place.
        #[allow(clippy::too_many_arguments)]
        pub(super) fn solve_pass(
            lap: &Laplacian,
            die: &Die,
            config: &PlacerConfig,
            grid_side: usize,
            alpha: f64,
            targets: &Placement,
            xs: &mut [f64],
            ys: &mut [f64],
        ) {
            let n = lap.dim();
            if grid_side <= 1 {
                // Global solve; the two axes are independent work items. Each
                // worker keeps one set of CG work vectors and one rhs buffer, so
                // the only per-solve allocation is the returned solution.
                let (xs_now, ys_now): (&[f64], &[f64]) = (xs, ys);
                let anchor = vec![alpha; n];
                let mut solved = parallel_map_chunked_with(
                    config.threads,
                    2,
                    Granularity::Auto,
                    |_worker| (SolveScratch::default(), Vec::new()),
                    |(scratch, rhs), axis| {
                        let (t, pos) =
                            if axis == 0 { (targets.xs(), xs_now) } else { (targets.ys(), ys_now) };
                        rhs.clear();
                        rhs.extend(t.iter().map(|&t| alpha * t));
                        let mut x = pos.to_vec();
                        solve_anchored_into(
                            lap,
                            &anchor,
                            rhs,
                            &mut x,
                            config.tolerance,
                            config.max_cg_iterations,
                            scratch,
                        );
                        x
                    },
                );
                ys.copy_from_slice(&solved.pop().expect("y axis solved"));
                xs.copy_from_slice(&solved.pop().expect("x axis solved"));
                for i in 0..n {
                    let (cx, cy) = die.clamp(xs[i], ys[i]);
                    xs[i] = cx;
                    ys[i] = cy;
                }
                return;
            }
            // Region decomposition: bin cells by their spread-target position
            // (targets are density-balanced, so shards are too). The partition
            // is a pure function of the targets — never of the thread count.
            let grid = ShardGrid::square(grid_side, die.width, die.height);
            let shards = grid.partition(targets.xs(), targets.ys());
            let jitter = TARGET_JITTER * die.width.max(die.height);
            let (xs_now, ys_now): (&[f64], &[f64]) = (xs, ys);

            let solved: Vec<(Vec<f64>, Vec<f64>)> = parallel_map_chunked_with(
                config.threads,
                shards.len(),
                Granularity::Auto,
                |_worker| (ShardSolver::new(n), Vec::new(), Vec::new()),
                |(solver, tx, ty), s| {
                    let cells = &shards[s];
                    if cells.is_empty() {
                        return (Vec::new(), Vec::new());
                    }
                    // Per-shard RNG stream: decorrelates exactly coincident
                    // targets (the gridded spreader emits many) so each
                    // shard's system is canonically perturbed, independent of
                    // scheduling.
                    let mut rng = SmallRng::seed_from_u64(derive_stream(config.seed, s as u64));
                    tx.clear();
                    ty.clear();
                    for &c in cells {
                        tx.push(targets.xs()[c as usize] + jitter * rng.gen_range(-0.5..0.5));
                        ty.push(targets.ys()[c as usize] + jitter * rng.gen_range(-0.5..0.5));
                    }
                    solver.solve_shard(
                        lap,
                        cells,
                        alpha,
                        tx,
                        ty,
                        xs_now,
                        ys_now,
                        config.tolerance,
                        config.max_cg_iterations,
                    )
                },
            );

            // Stitch shard results back in fixed shard-then-cell order.
            let mut shard_of = vec![0u32; n];
            for (s, cells) in shards.iter().enumerate() {
                for &c in cells {
                    shard_of[c as usize] = s as u32;
                }
            }
            for (s, (sx, sy)) in solved.iter().enumerate() {
                for (k, &c) in shards[s].iter().enumerate() {
                    xs[c as usize] = sx[k];
                    ys[c as usize] = sy[k];
                }
            }

            // Fixed-order boundary anchor pass: cells with a neighbor in
            // another shard were solved against stale neighbor positions;
            // relax them (ascending cell id, serial, deterministic) against
            // the freshly stitched coordinates. Each update is the exact
            // stationarity condition of the global system at that cell.
            let boundary: Vec<usize> =
                (0..n).filter(|&i| lap.row(i).any(|(j, _)| shard_of[j] != shard_of[i])).collect();
            for _ in 0..BOUNDARY_SWEEPS {
                for &i in &boundary {
                    let (mut acc_x, mut acc_y) = (0.0, 0.0);
                    for (j, w) in lap.row(i) {
                        acc_x += w * xs[j];
                        acc_y += w * ys[j];
                    }
                    let denom = lap.degree(i) + alpha;
                    xs[i] = (alpha * targets.xs()[i] + acc_x) / denom;
                    ys[i] = (alpha * targets.ys()[i] + acc_y) / denom;
                }
            }

            for i in 0..n {
                let (cx, cy) = die.clamp(xs[i], ys[i]);
                xs[i] = cx;
                ys[i] = cy;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A sharded solve pass reproduces the oracle bit for bit at grid
        /// sides 2–5 and 1, 2 and 8 workers: the two-lane shard solves,
        /// the stitch, the reported boundary cells and their sweeps in
        /// ascending id. Targets are scattered, or stacked on a coarse
        /// lattice as the gridded spreader stacks them.
        #[test]
        fn solve_pass_matches_oracle_bit_for_bit(
            n in 1usize..1200,
            net_density in 1usize..4,
            stacked in 0u8..2,
            anchor in 0usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nl = crate::quadratic::tests::random_netlist(n, n * net_density / 2, &mut rng);
            let lap = Laplacian::build(&nl);
            let oracle = crate::quadratic::tests::reference::build(&nl);
            let die = Die::for_netlist(&nl, 0.6);
            let mut coord = |side: f64| {
                if stacked == 1 {
                    rng.gen_range(0..5usize) as f64 * side / 4.0
                } else {
                    rng.gen_range(0.0..side)
                }
            };
            let (tx, ty): (Vec<f64>, Vec<f64>) =
                (0..n).map(|_| (coord(die.width), coord(die.height))).unzip();
            let targets = Placement::from_coords(tx, ty);
            let xs0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..die.width + 1.0)).collect();
            let ys0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..die.height + 1.0)).collect();
            let alpha = [0.02, 0.5, 3.0, 600.0][anchor];
            for grid_side in 2..=5 {
                let config = PlacerConfig { seed, threads: 1, ..PlacerConfig::default() };
                let (mut want_x, mut want_y) = (xs0.clone(), ys0.clone());
                reference::solve_pass(
                    &oracle, &die, &config, grid_side, alpha, &targets, &mut want_x, &mut want_y,
                );
                for threads in [1, 2, 8] {
                    let config = PlacerConfig { threads, ..config };
                    let (mut xs, mut ys) = (xs0.clone(), ys0.clone());
                    solve_pass(&lap, &die, &config, grid_side, alpha, &targets, &mut xs, &mut ys);
                    let what = format!("n={n} grid {grid_side} at {threads} workers, seed {seed}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&xs), bits(&want_x), "x: {what}");
                    assert_eq!(bits(&ys), bits(&want_y), "y: {what}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// A single-shard (global) solve pass reproduces the oracle bit
        /// for bit at 1, 2 and 8 workers: both axes' anchored solves and
        /// the in-die clamp. Targets are scattered, or stacked on a
        /// coarse lattice as the gridded spreader stacks them; a CG cap
        /// of 0 or 2 leaves cells outside the die for the clamp.
        #[test]
        fn global_solve_pass_matches_oracle_bit_for_bit(
            n in 1usize..1200,
            net_density in 0usize..4,
            stacked in 0u8..2,
            anchor in 0usize..4,
            cap in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nl = crate::quadratic::tests::random_netlist(n, n * net_density / 2, &mut rng);
            let lap = Laplacian::build(&nl);
            let oracle = crate::quadratic::tests::reference::build(&nl);
            let die = Die::for_netlist(&nl, 0.6);
            let mut coord = |side: f64| {
                if stacked == 1 {
                    rng.gen_range(0..5usize) as f64 * side / 4.0
                } else {
                    rng.gen_range(0.0..side)
                }
            };
            let (tx, ty): (Vec<f64>, Vec<f64>) =
                (0..n).map(|_| (coord(die.width), coord(die.height))).unzip();
            let targets = Placement::from_coords(tx, ty);
            // Starting positions reach past the die, so the clamp acts.
            let xs0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..die.width + 1.0)).collect();
            let ys0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..die.height + 1.0)).collect();
            let alpha = [0.02, 0.5, 3.0, 600.0][anchor];
            let max_cg_iterations = [0, 2, 300][cap];
            let config =
                PlacerConfig { seed, threads: 1, max_cg_iterations, ..PlacerConfig::default() };
            let (mut want_x, mut want_y) = (xs0.clone(), ys0.clone());
            reference::solve_pass(
                &oracle, &die, &config, 1, alpha, &targets, &mut want_x, &mut want_y,
            );
            for threads in [1, 2, 8] {
                let config = PlacerConfig { threads, ..config };
                let (mut xs, mut ys) = (xs0.clone(), ys0.clone());
                solve_pass(&lap, &die, &config, 1, alpha, &targets, &mut xs, &mut ys);
                let what = format!(
                    "n={n} at {threads} workers, alpha {alpha}, cap {max_cg_iterations}, seed {seed}"
                );
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&xs), bits(&want_x), "x: {}", what);
                prop_assert_eq!(bits(&ys), bits(&want_y), "y: {}", what);
            }
        }
    }

    /// Two 12-cell cliques plus sparse filler.
    fn clustered_netlist() -> Netlist {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..200).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for base in [0usize, 12] {
            for i in 0..12 {
                for j in (i + 1)..12 {
                    b.add_anonymous_net([cells[base + i], cells[base + j]]);
                }
            }
        }
        for i in 24..199 {
            b.add_anonymous_net([cells[i], cells[i + 1]]);
        }
        b.add_anonymous_net([cells[0], cells[100]]);
        b.add_anonymous_net([cells[12], cells[150]]);
        b.finish()
    }

    #[test]
    fn placer_beats_random_hpwl() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let placed = place(&nl, &die, &PlacerConfig::default());
        // Random baseline with the same seed scheme.
        let mut rng = SmallRng::seed_from_u64(1);
        let rx: Vec<f64> = (0..nl.num_cells()).map(|_| rng.gen_range(0.0..die.width)).collect();
        let ry: Vec<f64> = (0..nl.num_cells()).map(|_| rng.gen_range(0.0..die.height)).collect();
        let random = Placement::from_coords(rx, ry);
        let hp = hpwl(&nl, &placed);
        let hr = hpwl(&nl, &random);
        assert!(hp < 0.6 * hr, "placed {hp} vs random {hr}");
    }

    #[test]
    fn connected_cluster_stays_together() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let placed = place(&nl, &die, &PlacerConfig::default());
        // The 12-clique's spatial spread must be far below the die size.
        let xs: Vec<f64> =
            (0..12).map(|i| placed.position(gtl_netlist::CellId::new(i)).0).collect();
        let ys: Vec<f64> =
            (0..12).map(|i| placed.position(gtl_netlist::CellId::new(i)).1).collect();
        let w = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let h = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - ys.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(w < die.width / 2.0 && h < die.height / 2.0, "clique spread {w}×{h}");
    }

    #[test]
    fn all_cells_inside_die() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.7);
        let placed = place(&nl, &die, &PlacerConfig::default());
        for c in nl.cells() {
            let (x, y) = placed.position(c);
            assert!(x >= 0.0 && x <= die.width && y >= 0.0 && y <= die.height);
        }
    }

    #[test]
    fn deterministic() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let a = place(&nl, &die, &PlacerConfig::default());
        let b = place(&nl, &die, &PlacerConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn cancellable_place_with_live_token_is_identical() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let plain = place(&nl, &die, &PlacerConfig::default());
        let token = CancelToken::new();
        let cancellable = place_cancellable_with_scratch(
            &nl,
            &die,
            &PlacerConfig::default(),
            &token,
            &mut PlaceScratch::new(),
        )
        .unwrap();
        assert_eq!(plain, cancellable);
    }

    #[test]
    fn cancelled_place_returns_structured_error() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let token = CancelToken::new();
        token.cancel();
        let err = place_cancellable_with_scratch(
            &nl,
            &die,
            &PlacerConfig::default(),
            &token,
            &mut PlaceScratch::new(),
        )
        .unwrap_err();
        assert_eq!(err.reason, gtl_core::cancel::CancelReason::Cancelled);
    }

    #[test]
    fn expired_deadline_stops_the_placer() {
        let nl = clustered_netlist();
        let die = Die::for_netlist(&nl, 0.5);
        let token =
            CancelToken::with_deadline(gtl_core::cancel::Deadline::at(std::time::Instant::now()));
        let err = place_cancellable_with_scratch(
            &nl,
            &die,
            &PlacerConfig::default(),
            &token,
            &mut PlaceScratch::new(),
        )
        .unwrap_err();
        assert_eq!(err.reason, gtl_core::cancel::CancelReason::DeadlineExceeded);
    }

    #[test]
    #[should_panic(expected = "empty netlist")]
    fn empty_netlist_panics() {
        let nl = NetlistBuilder::new().finish();
        let die = Die { width: 1.0, height: 1.0, rows: 1 };
        let _ = place(&nl, &die, &PlacerConfig::default());
    }

    #[test]
    fn placement_accessors() {
        let p = Placement::from_coords(vec![1.0, 2.0], vec![3.0, 4.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.position(CellId::new(1)), (2.0, 4.0));
        assert_eq!(p.xs(), &[1.0, 2.0]);
    }
}
