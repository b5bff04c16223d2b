//! Quadratic wirelength model: sparse Laplacian + conjugate gradients.
//!
//! Nets are modeled as springs: small nets as cliques (every pin pair gets
//! weight `2/d`), large nets as stars (every pin tied to the first pin as
//! hub) to keep the matrix sparse while still pulling high-fanout nets —
//! decoder rails, select lines — toward a common point. Minimizing the quadratic wirelength
//! `xᵀLx − 2bᵀx` per axis reduces to the SPD system `(L + αI)x = αt + b`
//! where `αI` anchors cells to targets `t` (SimPL-style pseudo-pins) and
//! `b` carries fixed-cell terms. The system is solved with a hand-written
//! Jacobi-preconditioned conjugate-gradient.
//!
//! # Kernel shape
//!
//! One entry point per solver, and no scratch types: [`Laplacian::build`]
//! visits the springs twice (count, then fill) instead of buffering them,
//! [`Laplacian::solve_anchored`] solves the global system in place with
//! work vectors of its own, and [`ShardSolver::solve_shard`] solves one
//! shard on the solver a worker keeps for all the shards it claims.
//!
//! The model has seven spring weights (`2/d` for `d = 2..=8`; a star's
//! weight 1 is `2/2`), so the Laplacian stores each off-diagonal entry's
//! weight as a one-byte code into a table of them: the 931,618 entries
//! of a 100k-cell design take 0.9 MB of codes instead of 7.5 MB of
//! `f64`s, for a placement's whole run. [`Laplacian::row`] decodes as it
//! reads. The global solve decodes every entry once per solve into a
//! work vector of `f64` weights next to its preconditioner, so its CG
//! apply reads plain weights; the shard extraction copies decoded
//! weights into each shard's local CSR, which every CG iteration reads.
//! The table holds the bits the model's `2.0 / d as f64` gives, so every
//! solve is bit-identical to the `f64` layout (kept as the `reference`
//! oracle).
//!
//! The CG inner loops are fused — the x/r update, the Jacobi `z` solve and
//! the `rz`/`rr` reductions run in one pass over the vectors, and the CSR
//! apply folds the anchor term into its row loop — but every fusion keeps
//! the exact per-element operation order and the sequential index-order
//! reductions of the original four-pass kernels, so results are
//! **bit-identical** to the unfused form (pinned by the `reference` tests
//! in this module). The global anchor is one scalar `α`: `α·vᵢ` and
//! `Lᵢᵢ + α` are the bits the per-cell anchor vector `[α; n]` it replaced
//! gave.
//!
//! The shard solve advances the x and y systems as two lanes of one CG:
//! every vector holds an `[x, y]` pair per cell, so one pass over a local
//! row serves both axes (packed multiplies and subtracts), and `pᵀAp` is
//! summed inside the matrix-vector row loop. Each lane keeps its own
//! index-order reductions and its own stopping rules, and a lane that
//! stops is never written again while the other finishes alone, so each
//! axis is bit-identical to solving it by itself (the one-axis solver is
//! kept verbatim as the `reference` oracle). The shard's extraction also
//! reports its cells with a neighbor outside the shard, which the
//! placer's boundary sweeps take as their list.
//!
//! Shard membership comes from one [`ShardMap`] per partition, which
//! every shard solve reads: a [`ShardSolver`] holds only its current
//! shard's state (local CSR, CG lanes, boundary list), so a worker's
//! solver costs nothing per cell of the design.

use gtl_netlist::Netlist;

/// Threshold above which a net is modeled as a star instead of a clique.
const CLIQUE_LIMIT: usize = 8;

/// The model's spring weights, indexed by a spring's one-byte code: code
/// `d − 2` is the clique weight `2/d` of a `d`-pin net, computed by the
/// expression the model defines, so each weight has its bits.
const WEIGHTS: [f64; CLIQUE_LIMIT - 1] = {
    let mut weights = [0.0; CLIQUE_LIMIT - 1];
    let mut d = 2;
    while d <= CLIQUE_LIMIT {
        weights[d - 2] = 2.0 / d as f64;
        d += 1;
    }
    weights
};

/// A star spring's code: its weight 1 is the 2-pin clique weight `2/2`.
const STAR_CODE: u8 = 0;
const _: () = assert!(WEIGHTS[STAR_CODE as usize] == 1.0);

/// Calls `f(i, j, code)` for every spring of the clique/star model, in
/// net order, with its weight's code into [`WEIGHTS`]: a net of
/// `d ≤ CLIQUE_LIMIT` pins ties each pin pair `i < j` (in pin order) with
/// weight `2/d`, a larger net ties every pin to its first pin, the hub,
/// with weight 1 (total edge weight `(d−1)·1`, matching the clique's
/// `d−1` while staying `O(d)` sparse). Single-pin nets add none.
fn for_each_spring(netlist: &Netlist, mut f: impl FnMut(u32, u32, u8)) {
    for net in netlist.nets() {
        let cells = netlist.net_cells(net);
        let d = cells.len();
        if d < 2 {
            continue;
        }
        if d <= CLIQUE_LIMIT {
            let code = (d - 2) as u8;
            for i in 0..d {
                for j in (i + 1)..d {
                    f(cells[i].raw(), cells[j].raw(), code);
                }
            }
        } else {
            let hub = cells[0].raw();
            for &pin in &cells[1..] {
                f(hub, pin.raw(), STAR_CODE);
            }
        }
    }
}

/// A symmetric sparse matrix in CSR form, representing the connectivity
/// Laplacian of a netlist.
///
/// Each off-diagonal entry stores its column and a one-byte code of its
/// spring weight (see the [module docs](self)); [`Laplacian::row`]
/// yields the decoded `f64` weights, and the diagonal is stored as `f64`
/// sums.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_place::quadratic::Laplacian;
///
/// let mut b = NetlistBuilder::new();
/// let x = b.add_cell("x", 1.0);
/// let y = b.add_cell("y", 1.0);
/// b.add_anonymous_net([x, y]);
/// let nl = b.finish();
/// let lap = Laplacian::build(&nl);
/// assert_eq!(lap.dim(), 2);
/// // A 2-pin net is one spring of weight 2/2 = 1 between x and y.
/// assert_eq!(lap.row(0).collect::<Vec<_>>(), [(1, 1.0)]);
/// assert_eq!(lap.degree(1), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Laplacian {
    /// Row offsets into `columns` and `codes`, `u32` like the netlist's
    /// own CSR offsets (the entry count is checked at build).
    offsets: Vec<u32>,
    columns: Vec<u32>,
    /// Each entry's weight code into [`WEIGHTS`].
    codes: Vec<u8>,
    diagonal: Vec<f64>,
}

impl Laplacian {
    /// Builds the Laplacian of `netlist` with the clique/path hybrid model.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than `u32::MAX` off-diagonal
    /// entries, the reach of its `u32` row offsets. The model gives a
    /// design at most 7 × its pin count of them (a pin of a `d`-pin
    /// clique net has `d − 1 ≤ 7` neighbors; a star's `d − 1` springs
    /// make `2(d − 1)` entries over its `d` pins), so a design of up to
    /// 613,566,756 pins always builds.
    pub fn build(netlist: &Netlist) -> Self {
        let n = netlist.num_cells();
        // Two visits of the springs, in the same order: the first counts
        // each row's entries (both directions), the second fills the rows
        // and sums the diagonal.
        let mut counts = vec![0u32; n];
        let mut entries = 0u64;
        for_each_spring(netlist, |i, j, _| {
            counts[i as usize] += 1;
            counts[j as usize] += 1;
            entries += 2;
        });
        assert!(
            entries <= u64::from(u32::MAX),
            "{entries} Laplacian entries overflow its u32 row offsets"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nnz = 0u32;
        offsets.push(nnz);
        for c in &counts {
            nnz += c;
            offsets.push(nnz);
        }
        let mut columns = vec![0u32; nnz as usize];
        let mut codes = vec![0u8; nnz as usize];
        // The counts are spent: they become the fill cursors.
        let mut cursor = counts;
        cursor.copy_from_slice(&offsets[..n]);
        let mut diagonal = vec![0.0f64; n];
        for_each_spring(netlist, |i, j, code| {
            let (i, j) = (i as usize, j as usize);
            let w = WEIGHTS[code as usize];
            columns[cursor[i] as usize] = j as u32;
            codes[cursor[i] as usize] = code;
            cursor[i] += 1;
            columns[cursor[j] as usize] = i as u32;
            codes[cursor[j] as usize] = code;
            cursor[j] += 1;
            diagonal[i] += w;
            diagonal[j] += w;
        });
        Self { offsets, columns, codes, diagonal }
    }

    /// Matrix dimension (number of cells).
    pub fn dim(&self) -> usize {
        self.diagonal.len()
    }

    /// Off-diagonal entries of row `i` as `(column, weight)` pairs.
    ///
    /// A pair of cells connected by several nets appears once per net —
    /// consumers must sum duplicates (as the solvers' row loops do).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        self.columns[start..end]
            .iter()
            .zip(&self.codes[start..end])
            .map(|(&c, &code)| (c as usize, WEIGHTS[code as usize]))
    }

    /// Total incident edge weight of cell `i` (the Laplacian diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim()`.
    pub fn degree(&self, i: usize) -> f64 {
        self.diagonal[i]
    }

    /// Computes `out = (L + αI)·v` in one pass, reading the entries'
    /// weights from `weights` (the decoded codes, indexed like the
    /// entries): each row's accumulator walks the row entries through
    /// slice iterators (no per-element bounds checks) in k-order, and the
    /// anchor product `α·vᵢ` is added to the finished accumulator.
    fn apply_anchored(&self, weights: &[f64], alpha: f64, v: &[f64], out: &mut [f64]) {
        for i in 0..self.dim() {
            let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            let mut acc = self.diagonal[i] * v[i];
            for (&c, &w) in self.columns[start..end].iter().zip(&weights[start..end]) {
                acc -= w * v[c as usize];
            }
            out[i] = acc + alpha * v[i];
        }
    }

    /// Solves `(L + αI) x = rhs` in place by Jacobi-preconditioned CG:
    /// `x` holds the starting guess on entry and the solution on return.
    /// `alpha` is the pseudo-pin weight tying every cell to its target
    /// (SimPL's anchor). Returns the iterations used.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or unless `alpha > 0`, without which
    /// the system is singular.
    pub fn solve_anchored(
        &self,
        alpha: f64,
        rhs: &[f64],
        x: &mut [f64],
        tolerance: f64,
        max_iterations: usize,
    ) -> usize {
        let n = self.dim();
        assert_eq!(rhs.len(), n, "rhs dimension mismatch");
        assert_eq!(x.len(), n, "x0 dimension mismatch");
        assert!(alpha > 0.0, "a non-positive anchor weight makes the system singular");

        // Every CG iteration reads every weight: decode them once.
        let weights: Vec<f64> = self.codes.iter().map(|&code| WEIGHTS[code as usize]).collect();
        let precond: Vec<f64> =
            self.diagonal.iter().map(|d| 1.0 / (d + alpha).max(1e-12)).collect();
        let (mut r, mut z, mut p, mut ap) =
            (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);

        // Initial residual, fused with the Jacobi solve and the rz/rr
        // reductions (independent accumulators, index order — the same
        // operation sequence as the separate passes).
        self.apply_anchored(&weights, alpha, x, &mut ap);
        let mut rz = 0.0f64;
        let mut rr = 0.0f64;
        for i in 0..n {
            let ri = rhs[i] - ap[i];
            r[i] = ri;
            let zi = precond[i] * ri;
            z[i] = zi;
            p[i] = zi;
            rz += ri * zi;
            rr += ri * ri;
        }
        let target = tolerance * tolerance * rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

        for iter in 0..max_iterations {
            if rr <= target {
                return iter;
            }
            self.apply_anchored(&weights, alpha, &p, &mut ap);
            let pap: f64 = p.iter().zip(ap.iter()).map(|(a, b)| a * b).sum();
            if pap <= 0.0 {
                break; // numerical breakdown; current x is best effort
            }
            let step = rz / pap;
            // Fused x/r update + Jacobi z + rz/rr reductions: one pass
            // instead of four, same per-element ops in the same order.
            let mut rz_new = 0.0f64;
            let mut rr_new = 0.0f64;
            for i in 0..n {
                x[i] += step * p[i];
                let ri = r[i] - step * ap[i];
                r[i] = ri;
                let zi = precond[i] * ri;
                z[i] = zi;
                rz_new += ri * zi;
                rr_new += ri * ri;
            }
            let beta = rz_new / rz.max(1e-30);
            rz = rz_new;
            rr = rr_new;
            for i in 0..n {
                p[i] = z[i] + beta * p[i];
            }
        }
        max_iterations
    }
}

/// The slot of a cell in no shard of a [`ShardMap`].
const OUTSIDE: u32 = u32::MAX;

/// Where each cell of a design lies in a shard partition, one `u32` per
/// cell: its index in the shards' cell lists laid end to end, shard 0's
/// first. A shard whose list starts at index `b` holds exactly the cells
/// the map puts in `b..b + len`, and a cell's index in that list is its
/// slot minus `b`, so the one slot gives both the shard and the local
/// index.
///
/// The sharded placer builds one map per pass from the pass's
/// [`ShardGrid::partition`](gtl_core::shard::ShardGrid::partition), and
/// every [`ShardSolver::solve_shard`] of the pass reads it to tell a
/// shard's own cells (and their local indices) from the fixed neighbors
/// outside it. It is the only per-cell state of the shard solves,
/// whatever the worker count, and it lives only while they run. The
/// [`ShardSolver`] example builds one.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Each cell's index in the lists laid end to end; [`OUTSIDE`] for a
    /// cell in no shard.
    slots: Vec<u32>,
}

impl ShardMap {
    /// The map of a `num_cells`-cell design partitioned into `shards`,
    /// each shard's list of cells; a cell that no list names lies outside
    /// every shard.
    ///
    /// # Panics
    ///
    /// Panics if a listed cell is not below `num_cells`, a cell is listed
    /// twice, or `num_cells` is `u32::MAX` or more.
    pub fn new(num_cells: usize, shards: &[Vec<u32>]) -> Self {
        assert!(num_cells < OUTSIDE as usize, "too many cells for a shard map");
        let mut slots = vec![OUTSIDE; num_cells];
        for (at, &c) in shards.iter().flatten().enumerate() {
            let slot = &mut slots[c as usize];
            assert_eq!(*slot, OUTSIDE, "cell {c} is listed in two shards");
            *slot = at as u32;
        }
        Self { slots }
    }
}

/// A solver of *shard-restricted* anchored systems.
///
/// The sharded placer decomposes the die into a grid of regions and solves
/// each region's cells as an independent quadratic system, treating
/// neighbors outside the shard as fixed (Dirichlet coupling: their current
/// positions move to the right-hand side, their edge weights stay on the
/// diagonal, so the local matrix remains SPD). One `ShardSolver` is built
/// per *worker* of [`gtl_core::exec::parallel_map_chunked_with`] and
/// reused across every shard that worker claims — the local CSR and all
/// CG vectors are allocated once and recycled, per the execution layer's
/// scratch contract. Its state is shard-sized: which cells a shard holds
/// comes from the pass's shared [`ShardMap`], so one solver serves
/// designs of any size.
///
/// Both axes share the local matrix, so they are solved together: every
/// CG vector holds an `[x, y]` pair per cell and each local row is read
/// once for both lanes. Each lane keeps its own reductions and stopping
/// rules, so its result is bit-identical to solving that axis alone;
/// once one lane stops, the other finishes on its own. The extraction
/// also records the shard's cells with a neighbor outside it, which the
/// placer's boundary sweeps take as their list.
///
/// The result of [`ShardSolver::solve_shard`] is a pure function of its
/// arguments; nothing about buffer reuse or worker identity leaks into the
/// output.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_place::quadratic::{Laplacian, ShardMap, ShardSolver};
///
/// // Three cells in a chain; solve the shard {0, 1} with cell 2 fixed.
/// let mut b = NetlistBuilder::new();
/// let cells: Vec<_> = (0..3).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
/// b.add_anonymous_net([cells[0], cells[1]]);
/// b.add_anonymous_net([cells[1], cells[2]]);
/// let nl = b.finish();
/// let lap = Laplacian::build(&nl);
///
/// let shards = [vec![0, 1], vec![2]];
/// let map = ShardMap::new(nl.num_cells(), &shards);
/// let mut solver = ShardSolver::new();
/// let xs = [0.0, 0.0, 10.0];
/// let ys = [0.0, 0.0, 0.0];
/// let (sx, _sy) = solver.solve_shard(
///     &lap, &map, &shards[0], 1.0, &[0.0, 0.0], &[0.0, 0.0], &xs, &ys, 1e-10, 100,
/// );
/// // Cell 1 is pulled toward the fixed cell 2 at x = 10; cell 0 follows.
/// assert!(sx[1] > sx[0] && sx[1] > 1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardSolver {
    /// The shard-local matrix.
    local: LocalCsr,
    /// Global ids of the last shard's cells with a neighbor outside it,
    /// in `cells` order.
    boundary: Vec<u32>,
    /// Right-hand side and CG state, both axes.
    lanes: Lanes,
}

impl ShardSolver {
    /// Creates a solver; its buffers grow to the largest shard it solves.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves both axes of the anchored system restricted to `cells` and
    /// returns the new coordinates of the shard cells, in `cells` order.
    ///
    /// `cells` is one shard's list as `map` was filled from it (any run
    /// of the map's lists laid end to end will do): the shard is exactly
    /// those cells, and every other cell is a fixed neighbor.
    /// `targets_x`/`targets_y` are the anchor targets of the
    /// shard cells (indexed like `cells`); `xs`/`ys` are the full current
    /// coordinate vectors, used both as the CG starting guess and as the
    /// fixed positions of out-of-shard neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `anchor_weight <= 0`, the target slices do not match
    /// `cells`, `cells` is not a run of `map`'s lists in order, or any
    /// cell index is out of range for the Laplacian or the map.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_shard(
        &mut self,
        lap: &Laplacian,
        map: &ShardMap,
        cells: &[u32],
        anchor_weight: f64,
        targets_x: &[f64],
        targets_y: &[f64],
        xs: &[f64],
        ys: &[f64],
        tolerance: f64,
        max_iterations: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let m = cells.len();
        assert!(anchor_weight > 0.0, "anchor weight must be positive");
        assert_eq!(targets_x.len(), m, "targets_x must match cells");
        assert_eq!(targets_y.len(), m, "targets_y must match cells");
        // The shard's cells are the ones the map puts at `base..base + m`,
        // cell `k` at `base + k`.
        let base = cells.first().map_or(0, |&c| map.slots[c as usize]);

        // One pass per row extracts the shard-local CSR and both
        // right-hand-side lanes: an edge leaving the shard keeps its
        // weight on the diagonal, adds `w · neighbor_position` to each
        // lane, and makes its cell a boundary cell.
        let LocalCsr { offsets, columns, values, diagonal } = &mut self.local;
        let Lanes { x, r, .. } = &mut self.lanes;
        offsets.clear();
        offsets.push(0);
        columns.clear();
        values.clear();
        diagonal.clear();
        self.boundary.clear();
        r.clear();
        x.clear();
        for (k, &c) in cells.iter().enumerate() {
            let g = c as usize;
            assert!(
                base != OUTSIDE && map.slots[g] == base + k as u32,
                "cell {c} is not entry {k} of a run of the shard map"
            );
            let (mut ex, mut ey) = (0.0, 0.0);
            let mut leaves = false;
            for (j, w) in lap.row(g) {
                let local = map.slots[j].wrapping_sub(base);
                if local < m as u32 {
                    columns.push(local);
                    values.push(w);
                } else {
                    ex += w * xs[j];
                    ey += w * ys[j];
                    leaves = true;
                }
            }
            if leaves {
                self.boundary.push(c);
            }
            offsets.push(columns.len());
            diagonal.push(lap.degree(g) + anchor_weight);
            r.push([anchor_weight * targets_x[k] + ex, anchor_weight * targets_y[k] + ey]);
            x.push([xs[g], ys[g]]);
        }

        self.lanes.cg(&self.local, tolerance, max_iterations);
        let solved = &self.lanes.x;
        (solved.iter().map(|v| v[0]).collect(), solved.iter().map(|v| v[1]).collect())
    }

    /// The cells of the last solved shard that have a neighbor outside
    /// it, in `cells` order (ascending when `cells` is, as
    /// [`ShardGrid::partition`](gtl_core::shard::ShardGrid::partition)
    /// makes it).
    pub(crate) fn boundary(&self) -> &[u32] {
        &self.boundary
    }
}

/// A shard-local matrix in CSR form (columns hold local indices), with
/// the anchor weight on its diagonal.
#[derive(Debug, Clone, Default)]
struct LocalCsr {
    offsets: Vec<usize>,
    columns: Vec<u32>,
    values: Vec<f64>,
    diagonal: Vec<f64>,
}

impl LocalCsr {
    /// `out = A·v` on the lanes `X`/`Y` select (each row's diagonal
    /// product minus its entries in k-order), fused with each selected
    /// lane's `vᵀ·out` reduction in index order; returns those
    /// reductions. A lane that is not selected
    /// is neither read from the neighbors nor reduced, and holds scratch
    /// in `out`.
    fn apply<const X: bool, const Y: bool>(
        &self,
        v: &[[f64; 2]],
        out: &mut [[f64; 2]],
    ) -> [f64; 2] {
        let lane = [X, Y];
        // Started where `Iterator::sum` starts.
        let mut vav = [-0.0f64; 2];
        for i in 0..self.diagonal.len() {
            let (start, end) = (self.offsets[i], self.offsets[i + 1]);
            let vi = v[i];
            let mut acc = [self.diagonal[i] * vi[0], self.diagonal[i] * vi[1]];
            for (&c, &w) in self.columns[start..end].iter().zip(&self.values[start..end]) {
                let vc = v[c as usize];
                for l in 0..2 {
                    if lane[l] {
                        acc[l] -= w * vc[l];
                    }
                }
            }
            out[i] = acc;
            for l in 0..2 {
                if lane[l] {
                    vav[l] += vi[l] * acc[l];
                }
            }
        }
        vav
    }
}

/// The CG state of a shard's two systems, lane 0 the x axis and lane 1
/// the y axis: an `[x, y]` pair per shard cell in each vector, and the
/// per-lane reductions.
#[derive(Debug, Clone, Default)]
struct Lanes {
    /// The starting guess on entry to [`Lanes::cg`], the solution after.
    x: Vec<[f64; 2]>,
    /// The right-hand side on entry to [`Lanes::cg`], which the initial
    /// residual replaces.
    r: Vec<[f64; 2]>,
    p: Vec<[f64; 2]>,
    /// `A·p` from each matrix-vector product; once the update has read
    /// an entry it stores the preconditioned residual `z` there for the
    /// `p` update.
    ap: Vec<[f64; 2]>,
    rz: [f64; 2],
    rr: [f64; 2],
}

impl Lanes {
    /// Two-lane Jacobi-preconditioned CG on `a` and the right-hand side
    /// in `self.r`, iterating `self.x` in place from starting guess to
    /// solution. Per lane it runs [`Laplacian::solve_anchored`]'s
    /// fused loop structure with that lane's own reductions, in index
    /// order, and its own stopping rules: the residual test at the top of
    /// each iteration, the `pᵀAp <= 0` breakdown stop before any update,
    /// and its own count toward `max_iterations`. The Jacobi solve stays
    /// in division form (`r / diag.max(1e-12)`), which is not bit-equal
    /// to multiplying by a precomputed reciprocal.
    fn cg(&mut self, a: &LocalCsr, tolerance: f64, max_iterations: usize) {
        let m = a.diagonal.len();
        self.p.resize(m, [0.0; 2]);
        self.ap.resize(m, [0.0; 2]);

        a.apply::<true, true>(&self.x, &mut self.ap);
        self.rz = [0.0; 2];
        self.rr = [0.0; 2];
        // Σ rhs², started where `Iterator::sum` starts.
        let mut bb = [-0.0f64; 2];
        for i in 0..m {
            let d = a.diagonal[i].max(1e-12);
            let (mut ri, ax) = (self.r[i], self.ap[i]);
            let mut zi = [0.0; 2];
            for l in 0..2 {
                bb[l] += ri[l] * ri[l];
                ri[l] -= ax[l];
                zi[l] = ri[l] / d;
                self.rz[l] += ri[l] * zi[l];
                self.rr[l] += ri[l] * ri[l];
            }
            (self.r[i], self.p[i]) = (ri, zi);
        }
        let target = bb.map(|b| tolerance * tolerance * b.max(1e-30));

        let mut live = [true; 2];
        let mut steps = [0usize; 2];
        loop {
            for l in 0..2 {
                if steps[l] == max_iterations || self.rr[l] <= target[l] {
                    live[l] = false;
                }
            }
            let pap = match live {
                [true, true] => a.apply::<true, true>(&self.p, &mut self.ap),
                [true, false] => a.apply::<true, false>(&self.p, &mut self.ap),
                [false, true] => a.apply::<false, true>(&self.p, &mut self.ap),
                [false, false] => break,
            };
            for l in 0..2 {
                if pap[l] <= 0.0 {
                    // Numerical breakdown: the lane stops before it
                    // updates anything, and its x is best effort.
                    live[l] = false;
                }
                steps[l] += usize::from(live[l]);
            }
            match live {
                [true, true] => self.step::<true, true>(&a.diagonal, pap),
                [true, false] => self.step::<true, false>(&a.diagonal, pap),
                [false, true] => self.step::<false, true>(&a.diagonal, pap),
                [false, false] => break,
            }
        }
    }

    /// The rest of one CG step on the lanes `X`/`Y` select, given their
    /// `pᵀAp`: the fused x/r update, Jacobi `z` solve (into `ap`) and
    /// `rz`/`rr` reductions, then `p = z + β·p`. A lane that is not
    /// selected keeps every value it had.
    fn step<const X: bool, const Y: bool>(&mut self, diagonal: &[f64], pap: [f64; 2]) {
        let lane = [X, Y];
        let alpha = [self.rz[0] / pap[0], self.rz[1] / pap[1]];
        let mut rz = [0.0f64; 2];
        let mut rr = [0.0f64; 2];
        let m = diagonal.len();
        let (x, r, p, ap) =
            (&mut self.x[..m], &mut self.r[..m], &mut self.p[..m], &mut self.ap[..m]);
        for i in 0..m {
            let d = diagonal[i].max(1e-12);
            // Whole pairs in and out, so both lanes pack into one vector;
            // `q` comes in as A·p and goes out as z.
            let (mut xi, mut ri, pi, mut q) = (x[i], r[i], p[i], ap[i]);
            for l in 0..2 {
                if lane[l] {
                    xi[l] += alpha[l] * pi[l];
                    ri[l] -= alpha[l] * q[l];
                    q[l] = ri[l] / d;
                    rz[l] += ri[l] * q[l];
                    rr[l] += ri[l] * ri[l];
                }
            }
            (x[i], r[i], ap[i]) = (xi, ri, q);
        }
        let mut beta = [0.0f64; 2];
        for l in 0..2 {
            if lane[l] {
                beta[l] = rz[l] / self.rz[l].max(1e-30);
                self.rz[l] = rz[l];
                self.rr[l] = rr[l];
            }
        }
        for (pi, zi) in p.iter_mut().zip(ap.iter()) {
            for l in 0..2 {
                if lane[l] {
                    pi[l] = zi[l] + beta[l] * pi[l];
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gtl_netlist::{CellId, NetlistBuilder};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let first = b.add_anonymous_cells(n);
        for i in 0..n - 1 {
            b.add_anonymous_net([gtl_netlist::CellId::new(i), gtl_netlist::CellId::new(i + 1)]);
        }
        let _ = first;
        b.finish()
    }

    /// The Laplacian with an `f64` weight per entry, the layout the
    /// one-byte codes replaced, with its build; the pre-fusion kernels,
    /// kept verbatim as bit-exactness oracles for the fused loops above;
    /// the fused per-cell-anchor solve the scalar one replaced (also the
    /// 1×1 placer oracle's kernel); and the one-axis-at-a-time shard
    /// solver the two-lane one replaced (also the sharded placer oracle's
    /// kernel). Every kernel here runs on the `f64` layout, so each
    /// solver oracle test compares the code layout with it end to end.
    pub(crate) mod reference {
        use super::super::CLIQUE_LIMIT;
        use gtl_netlist::Netlist;

        /// The connectivity Laplacian in CSR form with an `f64` weight
        /// per off-diagonal entry.
        #[derive(Debug, Clone)]
        pub(crate) struct Laplacian {
            pub(super) offsets: Vec<usize>,
            pub(super) columns: Vec<u32>,
            pub(super) values: Vec<f64>,
            pub(super) diagonal: Vec<f64>,
        }

        impl Laplacian {
            /// Matrix dimension (number of cells).
            pub(crate) fn dim(&self) -> usize {
                self.diagonal.len()
            }

            /// Off-diagonal entries of row `i` as `(column, weight)` pairs.
            pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
                (self.offsets[i]..self.offsets[i + 1])
                    .map(move |k| (self.columns[k] as usize, self.values[k]))
            }

            /// Total incident edge weight of cell `i` (the Laplacian diagonal).
            pub(crate) fn degree(&self, i: usize) -> f64 {
                self.diagonal[i]
            }
        }

        /// [`build_with`] on fresh buffers.
        pub(crate) fn build(netlist: &Netlist) -> Laplacian {
            build_with(netlist, &mut LaplacianScratch::default())
        }

        /// Computes `out[i] = diagonal[i]·v[i] − Σₖ values[k]·v[columns[k]]` over
        /// each CSR row `i` — the one sparse kernel behind both the global and the
        /// shard solves. Row entries are walked through slice iterators (no
        /// per-element bounds checks) with a single sequential accumulator, in the
        /// same k-order as the original indexed loop: bit-identical, just
        /// branch-free enough for the compiler to keep the row pipeline full.
        fn csr_apply_into(
            offsets: &[usize],
            columns: &[u32],
            values: &[f64],
            diagonal: &[f64],
            v: &[f64],
            out: &mut [f64],
        ) {
            for i in 0..diagonal.len() {
                let (start, end) = (offsets[i], offsets[i + 1]);
                let mut acc = diagonal[i] * v[i];
                for (&c, &w) in columns[start..end].iter().zip(&values[start..end]) {
                    acc -= w * v[c as usize];
                }
                out[i] = acc;
            }
        }

        /// [`csr_apply_into`] with the SimPL anchor term folded into the row
        /// loop: `out[i] = (L·v)[i] + anchor[i]·v[i]`, replacing the original
        /// two-pass apply (multiply, then a second sweep adding the anchor term)
        /// with one pass. The anchor product is still added to the finished row
        /// accumulator — same operations, same order, bit-identical.
        fn csr_apply_anchored_into(
            offsets: &[usize],
            columns: &[u32],
            values: &[f64],
            diagonal: &[f64],
            anchor: &[f64],
            v: &[f64],
            out: &mut [f64],
        ) {
            for i in 0..diagonal.len() {
                let (start, end) = (offsets[i], offsets[i + 1]);
                let mut acc = diagonal[i] * v[i];
                for (&c, &w) in columns[start..end].iter().zip(&values[start..end]) {
                    acc -= w * v[c as usize];
                }
                out[i] = acc + anchor[i] * v[i];
            }
        }

        /// Reusable CG work vectors for [`solve_anchored_into`]: the
        /// residual, preconditioned residual, search direction, matrix-vector
        /// product and Jacobi preconditioner. One `SolveScratch` per worker makes
        /// steady-state anchored solves allocation-free.
        #[derive(Debug, Clone, Default)]
        pub(crate) struct SolveScratch {
            r: Vec<f64>,
            z: Vec<f64>,
            p: Vec<f64>,
            ap: Vec<f64>,
            precond: Vec<f64>,
        }

        /// The fused solve of `(L + diag(anchor)) x = rhs` with a per-cell
        /// anchor and caller-owned work vectors, kept verbatim (`self`
        /// became `lap`): `x` holds the starting guess on entry and the
        /// solution on return, and all CG vectors live in `scratch`
        /// (contents on entry are ignored). Returns the iterations used.
        ///
        /// # Panics
        ///
        /// Panics on dimension mismatch or if every anchor weight is zero.
        pub(crate) fn solve_anchored_into(
            lap: &Laplacian,
            anchor: &[f64],
            rhs: &[f64],
            x: &mut [f64],
            tolerance: f64,
            max_iterations: usize,
            scratch: &mut SolveScratch,
        ) -> usize {
            let n = lap.dim();
            assert_eq!(anchor.len(), n, "anchor dimension mismatch");
            assert_eq!(rhs.len(), n, "rhs dimension mismatch");
            assert_eq!(x.len(), n, "x0 dimension mismatch");
            assert!(anchor.iter().any(|&a| a > 0.0), "all-zero anchors make the system singular");

            let SolveScratch { r, z, p, ap, precond } = scratch;
            precond.clear();
            precond.extend((0..n).map(|i| 1.0 / (lap.diagonal[i] + anchor[i]).max(1e-12)));
            r.resize(n, 0.0);
            z.resize(n, 0.0);
            p.resize(n, 0.0);
            ap.resize(n, 0.0);

            // Initial residual, fused with the Jacobi solve and the rz/rr
            // reductions (independent accumulators, index order — the same
            // operation sequence as the separate passes).
            csr_apply_anchored_into(
                &lap.offsets,
                &lap.columns,
                &lap.values,
                &lap.diagonal,
                anchor,
                x,
                ap,
            );
            let mut rz = 0.0f64;
            let mut rr = 0.0f64;
            for i in 0..n {
                let ri = rhs[i] - ap[i];
                r[i] = ri;
                let zi = precond[i] * ri;
                z[i] = zi;
                p[i] = zi;
                rz += ri * zi;
                rr += ri * ri;
            }
            let target = tolerance * tolerance * rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

            for iter in 0..max_iterations {
                if rr <= target {
                    return iter;
                }
                csr_apply_anchored_into(
                    &lap.offsets,
                    &lap.columns,
                    &lap.values,
                    &lap.diagonal,
                    anchor,
                    p,
                    ap,
                );
                let pap: f64 = p.iter().zip(ap.iter()).map(|(a, b)| a * b).sum();
                if pap <= 0.0 {
                    break; // numerical breakdown; current x is best effort
                }
                let alpha = rz / pap;
                // Fused x/r update + Jacobi z + rz/rr reductions: one pass
                // instead of four, same per-element ops in the same order.
                let mut rz_new = 0.0f64;
                let mut rr_new = 0.0f64;
                for i in 0..n {
                    x[i] += alpha * p[i];
                    let ri = r[i] - alpha * ap[i];
                    r[i] = ri;
                    let zi = precond[i] * ri;
                    z[i] = zi;
                    rz_new += ri * zi;
                    rr_new += ri * ri;
                }
                let beta = rz_new / rz.max(1e-30);
                rz = rz_new;
                rr = rr_new;
                for i in 0..n {
                    p[i] = z[i] + beta * p[i];
                }
            }
            max_iterations
        }

        /// The triplet list, count and cursor buffers of the build below.
        #[derive(Default)]
        pub(crate) struct LaplacianScratch {
            triplets: Vec<(u32, u32, f64)>,
            counts: Vec<usize>,
            cursor: Vec<usize>,
        }

        /// The CSR build that buffered every spring as a `(u32, u32, f64)`
        /// triplet before counting and filling the rows, kept verbatim.
        pub(crate) fn build_with(netlist: &Netlist, scratch: &mut LaplacianScratch) -> Laplacian {
            let n = netlist.num_cells();
            // Accumulate off-diagonal entries per row in a triplet pass.
            let triplets = &mut scratch.triplets;
            triplets.clear();
            for net in netlist.nets() {
                let cells = netlist.net_cells(net);
                let d = cells.len();
                if d < 2 {
                    continue;
                }
                if d <= CLIQUE_LIMIT {
                    let w = 2.0 / d as f64;
                    for i in 0..d {
                        for j in (i + 1)..d {
                            triplets.push((cells[i].raw(), cells[j].raw(), w));
                        }
                    }
                } else {
                    // Star model: hub = first pin, preserving O(d) sparsity.
                    // Total edge weight (d−1)·w matches the clique's d−1.
                    let w = 1.0;
                    let hub = cells[0].raw();
                    for &pin in &cells[1..] {
                        triplets.push((hub, pin.raw(), w));
                    }
                }
            }

            // Count row populations (both directions), prefix-sum, fill.
            let counts = &mut scratch.counts;
            counts.clear();
            counts.resize(n, 0);
            for &(i, j, _) in triplets.iter() {
                counts[i as usize] += 1;
                counts[j as usize] += 1;
            }
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0usize);
            for c in counts.iter() {
                offsets.push(offsets.last().unwrap() + c);
            }
            let nnz = *offsets.last().unwrap();
            let mut columns = vec![0u32; nnz];
            let mut values = vec![0.0f64; nnz];
            let cursor = &mut scratch.cursor;
            cursor.clear();
            cursor.extend_from_slice(&offsets[..n]);
            let mut diagonal = vec![0.0f64; n];
            for &(i, j, w) in triplets.iter() {
                columns[cursor[i as usize]] = j;
                values[cursor[i as usize]] = w;
                cursor[i as usize] += 1;
                columns[cursor[j as usize]] = i;
                values[cursor[j as usize]] = w;
                cursor[j as usize] += 1;
                diagonal[i as usize] += w;
                diagonal[j as usize] += w;
            }
            Laplacian { offsets, columns, values, diagonal }
        }

        /// The shard solver that solved the x system and then the y system
        /// over the same local matrix, kept verbatim.
        #[derive(Debug, Clone)]
        pub(crate) struct ShardSolver {
            /// Epoch stamp per global cell; `mark[g] == epoch` ⇔ `g` is in the
            /// current shard.
            mark: Vec<u32>,
            /// Local index of each global cell (valid only where `mark` matches).
            local_of: Vec<u32>,
            epoch: u32,
            // Shard-local CSR (columns hold *local* indices).
            offsets: Vec<usize>,
            columns: Vec<u32>,
            values: Vec<f64>,
            diagonal: Vec<f64>,
            // Fixed-neighbor (Dirichlet) right-hand-side contributions per axis.
            ext_x: Vec<f64>,
            ext_y: Vec<f64>,
            // CG work vectors.
            rhs: Vec<f64>,
            r: Vec<f64>,
            z: Vec<f64>,
            p: Vec<f64>,
            ap: Vec<f64>,
        }

        impl ShardSolver {
            /// Creates a solver for shards of a `num_cells`-cell design.
            pub(crate) fn new(num_cells: usize) -> Self {
                Self {
                    mark: vec![0; num_cells],
                    local_of: vec![0; num_cells],
                    epoch: 0,
                    offsets: Vec::new(),
                    columns: Vec::new(),
                    values: Vec::new(),
                    diagonal: Vec::new(),
                    ext_x: Vec::new(),
                    ext_y: Vec::new(),
                    rhs: Vec::new(),
                    r: Vec::new(),
                    z: Vec::new(),
                    p: Vec::new(),
                    ap: Vec::new(),
                }
            }

            #[allow(clippy::too_many_arguments)]
            pub(crate) fn solve_shard(
                &mut self,
                lap: &Laplacian,
                cells: &[u32],
                anchor_weight: f64,
                targets_x: &[f64],
                targets_y: &[f64],
                xs: &[f64],
                ys: &[f64],
                tolerance: f64,
                max_iterations: usize,
            ) -> (Vec<f64>, Vec<f64>) {
                let mut out_x = Vec::new();
                let mut out_y = Vec::new();
                self.solve_shard_into(
                    lap,
                    cells,
                    anchor_weight,
                    targets_x,
                    targets_y,
                    xs,
                    ys,
                    tolerance,
                    max_iterations,
                    &mut out_x,
                    &mut out_y,
                );
                (out_x, out_y)
            }

            #[allow(clippy::too_many_arguments)]
            pub(crate) fn solve_shard_into(
                &mut self,
                lap: &Laplacian,
                cells: &[u32],
                anchor_weight: f64,
                targets_x: &[f64],
                targets_y: &[f64],
                xs: &[f64],
                ys: &[f64],
                tolerance: f64,
                max_iterations: usize,
                out_x: &mut Vec<f64>,
                out_y: &mut Vec<f64>,
            ) {
                let m = cells.len();
                assert!(anchor_weight > 0.0, "anchor weight must be positive");
                assert_eq!(targets_x.len(), m, "targets_x must match cells");
                assert_eq!(targets_y.len(), m, "targets_y must match cells");

                // Stamp shard membership (O(shard), no clearing of the full map).
                self.epoch += 1;
                for (k, &c) in cells.iter().enumerate() {
                    self.mark[c as usize] = self.epoch;
                    self.local_of[c as usize] = k as u32;
                }

                // Extract the shard-local CSR; edges leaving the shard keep their
                // weight on the diagonal and push `w · neighbor_position` onto the
                // per-axis right-hand side.
                self.offsets.clear();
                self.offsets.push(0);
                self.columns.clear();
                self.values.clear();
                self.diagonal.clear();
                self.ext_x.clear();
                self.ext_y.clear();
                for &c in cells {
                    let g = c as usize;
                    let (mut ex, mut ey) = (0.0, 0.0);
                    for (j, w) in lap.row(g) {
                        if self.mark[j] == self.epoch {
                            self.columns.push(self.local_of[j]);
                            self.values.push(w);
                        } else {
                            ex += w * xs[j];
                            ey += w * ys[j];
                        }
                    }
                    self.offsets.push(self.columns.len());
                    self.diagonal.push(lap.degree(g) + anchor_weight);
                    self.ext_x.push(ex);
                    self.ext_y.push(ey);
                }

                self.rhs.resize(m, 0.0);
                out_x.resize(m, 0.0);
                for k in 0..m {
                    self.rhs[k] = anchor_weight * targets_x[k] + self.ext_x[k];
                    out_x[k] = xs[cells[k] as usize];
                }
                self.cg(out_x, tolerance, max_iterations);
                out_y.resize(m, 0.0);
                for k in 0..m {
                    self.rhs[k] = anchor_weight * targets_y[k] + self.ext_y[k];
                    out_y[k] = ys[cells[k] as usize];
                }
                self.cg(out_y, tolerance, max_iterations);
            }

            /// Jacobi-preconditioned CG on the current local system (`self.rhs`),
            /// iterating `x` in place from starting guess to solution, mirroring
            /// [`solve_anchored_into`]'s fused loop structure — except
            /// that the Jacobi solve stays in its original division form
            /// (`r / diag.max(1e-12)`), which is not bit-equal to multiplying by
            /// a precomputed reciprocal.
            fn cg(&mut self, x: &mut [f64], tolerance: f64, max_iterations: usize) {
                let m = self.diagonal.len();
                self.r.resize(m, 0.0);
                self.z.resize(m, 0.0);
                self.p.resize(m, 0.0);
                self.ap.resize(m, 0.0);

                csr_apply_into(
                    &self.offsets,
                    &self.columns,
                    &self.values,
                    &self.diagonal,
                    x,
                    &mut self.ap,
                );
                let mut rz = 0.0f64;
                let mut rr = 0.0f64;
                for i in 0..m {
                    let ri = self.rhs[i] - self.ap[i];
                    self.r[i] = ri;
                    let zi = ri / self.diagonal[i].max(1e-12);
                    self.z[i] = zi;
                    self.p[i] = zi;
                    rz += ri * zi;
                    rr += ri * ri;
                }
                let target =
                    tolerance * tolerance * self.rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

                for _ in 0..max_iterations {
                    if rr <= target {
                        break;
                    }
                    csr_apply_into(
                        &self.offsets,
                        &self.columns,
                        &self.values,
                        &self.diagonal,
                        &self.p,
                        &mut self.ap,
                    );
                    let pap: f64 = self.p.iter().zip(&self.ap).map(|(a, b)| a * b).sum();
                    if pap <= 0.0 {
                        break; // numerical breakdown; current x is best effort
                    }
                    let alpha = rz / pap;
                    let mut rz_new = 0.0f64;
                    let mut rr_new = 0.0f64;
                    for (i, xi) in x.iter_mut().enumerate().take(m) {
                        *xi += alpha * self.p[i];
                        let ri = self.r[i] - alpha * self.ap[i];
                        self.r[i] = ri;
                        let zi = ri / self.diagonal[i].max(1e-12);
                        self.z[i] = zi;
                        rz_new += ri * zi;
                        rr_new += ri * ri;
                    }
                    let beta = rz_new / rz.max(1e-30);
                    rz = rz_new;
                    rr = rr_new;
                    for i in 0..m {
                        self.p[i] = self.z[i] + beta * self.p[i];
                    }
                }
            }
        }

        pub fn multiply_into(lap: &Laplacian, x: &[f64], y: &mut [f64]) {
            for i in 0..lap.dim() {
                let mut acc = lap.diagonal[i] * x[i];
                for k in lap.offsets[i]..lap.offsets[i + 1] {
                    acc -= lap.values[k] * x[lap.columns[k] as usize];
                }
                y[i] = acc;
            }
        }

        /// The original four-pass `solve_anchored` (two-pass apply,
        /// top-of-loop rr reduction, separate x/r, z, rz, p loops).
        pub fn solve_anchored(
            lap: &Laplacian,
            anchor: &[f64],
            rhs: &[f64],
            x0: &[f64],
            tolerance: f64,
            max_iterations: usize,
        ) -> (Vec<f64>, usize) {
            let n = lap.dim();
            let apply = |x: &[f64], out: &mut Vec<f64>| {
                multiply_into(lap, x, out);
                for i in 0..n {
                    out[i] += anchor[i] * x[i];
                }
            };
            let precond: Vec<f64> =
                (0..n).map(|i| 1.0 / (lap.diagonal[i] + anchor[i]).max(1e-12)).collect();

            let mut x = x0.to_vec();
            let mut ax = vec![0.0; n];
            apply(&x, &mut ax);
            let mut r: Vec<f64> = (0..n).map(|i| rhs[i] - ax[i]).collect();
            let mut z: Vec<f64> = (0..n).map(|i| precond[i] * r[i]).collect();
            let mut p = z.clone();
            let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let target = tolerance * tolerance * rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

            let mut ap = vec![0.0; n];
            for iter in 0..max_iterations {
                let rr: f64 = r.iter().map(|v| v * v).sum();
                if rr <= target {
                    return (x, iter);
                }
                apply(&p, &mut ap);
                let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
                if pap <= 0.0 {
                    break;
                }
                let alpha = rz / pap;
                for i in 0..n {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                for i in 0..n {
                    z[i] = precond[i] * r[i];
                }
                let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
                let beta = rz_new / rz.max(1e-30);
                rz = rz_new;
                for i in 0..n {
                    p[i] = z[i] + beta * p[i];
                }
            }
            (x, max_iterations)
        }

        /// The original shard CG (division-form Jacobi), run on a
        /// whole-design shard: local CSR = global CSR, diagonal shifted
        /// by the anchor weight, no Dirichlet terms.
        pub fn full_shard_cg(
            lap: &Laplacian,
            anchor_weight: f64,
            rhs: &[f64],
            x0: &[f64],
            tolerance: f64,
            max_iterations: usize,
        ) -> Vec<f64> {
            let m = lap.dim();
            let diagonal: Vec<f64> = lap.diagonal.iter().map(|d| d + anchor_weight).collect();
            let apply = |v: &[f64], out: &mut [f64]| {
                for i in 0..m {
                    let mut acc = diagonal[i] * v[i];
                    for k in lap.offsets[i]..lap.offsets[i + 1] {
                        acc -= lap.values[k] * v[lap.columns[k] as usize];
                    }
                    out[i] = acc;
                }
            };
            let mut x = x0.to_vec();
            let mut ap = vec![0.0; m];
            apply(&x, &mut ap);
            let mut r: Vec<f64> = (0..m).map(|i| rhs[i] - ap[i]).collect();
            let mut z: Vec<f64> = (0..m).map(|i| r[i] / diagonal[i].max(1e-12)).collect();
            let mut p = z.clone();
            let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let target = tolerance * tolerance * rhs.iter().map(|v| v * v).sum::<f64>().max(1e-30);

            for _ in 0..max_iterations {
                let rr: f64 = r.iter().map(|v| v * v).sum();
                if rr <= target {
                    break;
                }
                apply(&p, &mut ap);
                let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
                if pap <= 0.0 {
                    break;
                }
                let alpha = rz / pap;
                for i in 0..m {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                for i in 0..m {
                    z[i] = r[i] / diagonal[i].max(1e-12);
                }
                let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
                let beta = rz_new / rz.max(1e-30);
                rz = rz_new;
                for i in 0..m {
                    p[i] = z[i] + beta * p[i];
                }
            }
            x
        }
    }

    /// Deterministic pseudo-random vector for kernel identity tests.
    fn noise(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = gtl_core::derive_stream(seed, i as u64);
                (h % 10_000) as f64 / 1_000.0 - 5.0
            })
            .collect()
    }

    /// A denser test graph: a chain plus a few large star nets.
    fn mixed(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(n);
        for i in 0..n - 1 {
            b.add_anonymous_net([gtl_netlist::CellId::new(i), gtl_netlist::CellId::new(i + 1)]);
        }
        for start in [0, n / 3, n / 2] {
            b.add_anonymous_net((start..(start + 15).min(n)).map(gtl_netlist::CellId::new));
        }
        b.finish()
    }

    /// `(L·v)[i]`, summed from the public row view.
    fn apply(lap: &Laplacian, v: &[f64]) -> Vec<f64> {
        (0..lap.dim())
            .map(|i| lap.degree(i) * v[i] - lap.row(i).map(|(j, w)| w * v[j]).sum::<f64>())
            .collect()
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let nl = chain(10);
        let lap = Laplacian::build(&nl);
        for i in 0..10 {
            let off: f64 = lap.row(i).map(|(_, w)| w).sum();
            assert!((lap.degree(i) - off).abs() < 1e-12, "L·1 must be 0 at row {i}");
        }
    }

    #[test]
    fn clique_weights_match_model() {
        // 3-pin net: clique weight 2/3 per pair; diagonal = 2 pairs × 2/3.
        let mut b = NetlistBuilder::new();
        let c = b.add_anonymous_cells(3);
        b.add_anonymous_net([c, gtl_netlist::CellId::new(1), gtl_netlist::CellId::new(2)]);
        let nl = b.finish();
        let lap = Laplacian::build(&nl);
        assert!((lap.degree(0) - 4.0 / 3.0).abs() < 1e-12);
        let row: Vec<(usize, f64)> = lap.row(1).collect();
        assert_eq!(row.len(), 2);
        assert!(row.iter().all(|&(j, w)| j != 1 && (w - 2.0 / 3.0).abs() < 1e-12), "{row:?}");
    }

    #[test]
    fn large_net_uses_star_model() {
        // A 20-pin net must produce O(d) nonzeros, not O(d²).
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(20);
        b.add_anonymous_net((0..20).map(gtl_netlist::CellId::new));
        let nl = b.finish();
        let lap = Laplacian::build(&nl);
        assert!(apply(&lap, &[1.0; 20]).iter().all(|v| v.abs() < 1e-12));
        // A leaf pin touches only itself and the hub.
        assert_eq!(lap.row(10).collect::<Vec<_>>(), [(0, 1.0)], "star leaf row");
        // The hub touches everyone.
        let hub: Vec<usize> = lap.row(0).map(|(j, _)| j).collect();
        assert_eq!(hub, (1..20).collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The two-visit build of weight codes reproduces the triplet
        /// build of `f64` weights bit for bit — row offsets, columns, the
        /// weight of every entry as [`Laplacian::row`] decodes it, and
        /// each [`Laplacian::degree`] — on random designs (cliques of
        /// every size, stars, single-pin nets, nets listing a pin twice,
        /// repeated nets), the oracle reusing the previous design's
        /// scratch.
        #[test]
        fn laplacian_build_matches_oracle_bit_for_bit(
            n in 1usize..200,
            net_density in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut oracle_scratch = reference::LaplacianScratch::default();
            for nets in [n * net_density / 2 + 1, n / 3 + 1] {
                let nl = random_netlist(n, nets, &mut rng);
                let want = reference::build_with(&nl, &mut oracle_scratch);
                let got = Laplacian::build(&nl);
                let offsets: Vec<usize> = got.offsets.iter().map(|&o| o as usize).collect();
                prop_assert_eq!(&offsets, &want.offsets);
                prop_assert_eq!(&got.columns, &want.columns);
                for i in 0..n {
                    let weights: Vec<u64> = got.row(i).map(|(_, w)| w.to_bits()).collect();
                    let (start, end) = (want.offsets[i], want.offsets[i + 1]);
                    prop_assert_eq!(weights, bits(&want.values[start..end]), "row {}", i);
                    prop_assert_eq!(got.degree(i).to_bits(), want.diagonal[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn fused_solve_matches_reference_bitwise() {
        // The fused CG must reproduce the original four-pass kernel to the
        // last bit: converged, iteration-capped, and loose-tolerance runs.
        for nl in [chain(60), mixed(90)] {
            let (lap, oracle) = (Laplacian::build(&nl), reference::build(&nl));
            let n = lap.dim();
            let rhs = noise(n, 2);
            let x0 = noise(n, 3);
            for alpha in [0.01, 0.75, 4.2] {
                for (tol, iters) in [(1e-10, 500), (1e-10, 7), (0.5, 500)] {
                    let anchor = vec![alpha; n];
                    let (ex, eit) =
                        reference::solve_anchored(&oracle, &anchor, &rhs, &x0, tol, iters);
                    let mut fx = x0.clone();
                    let fit = lap.solve_anchored(alpha, &rhs, &mut fx, tol, iters);
                    assert_eq!(ex, fx, "alpha={alpha} tol={tol} iters={iters}");
                    assert_eq!(eit, fit, "alpha={alpha} tol={tol} iters={iters}");
                }
            }
        }
    }

    #[test]
    fn fused_shard_cg_matches_reference_bitwise() {
        // On a whole-design shard the Dirichlet terms vanish, so the shard
        // CG reduces to the reference division-form kernel exactly.
        for nl in [chain(40), mixed(70)] {
            let (lap, oracle) = (Laplacian::build(&nl), reference::build(&nl));
            let n = lap.dim();
            let cells: Vec<u32> = (0..n as u32).collect();
            let targets = noise(n, 4);
            let xs = noise(n, 5);
            let ys = noise(n, 6);
            let aw = 0.75;
            for (tol, iters) in [(1e-10, 400), (1e-10, 5)] {
                let rhs_x: Vec<f64> = targets.iter().map(|t| aw * t).collect();
                let expect_x = reference::full_shard_cg(&oracle, aw, &rhs_x, &xs, tol, iters);
                let expect_y = reference::full_shard_cg(&oracle, aw, &rhs_x, &ys, tol, iters);
                let map = ShardMap::new(n, std::slice::from_ref(&cells));
                let (sx, sy) = ShardSolver::new()
                    .solve_shard(&lap, &map, &cells, aw, &targets, &targets, &xs, &ys, tol, iters);
                assert_eq!(sx, expect_x, "x tol={tol} iters={iters}");
                assert_eq!(sy, expect_y, "y tol={tol} iters={iters}");
            }
        }
    }

    /// A random design for the shard oracles: cliques, stars of more than
    /// [`CLIQUE_LIMIT`] pins, single-pin nets, nets listing a pin twice
    /// and repeated nets (duplicate matrix entries).
    pub(crate) fn random_netlist(n: usize, nets: usize, rng: &mut SmallRng) -> Netlist {
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(n);
        let mut last: Vec<CellId> = Vec::new();
        let pin = |rng: &mut SmallRng| CellId::new(rng.gen_range(0..n));
        for _ in 0..nets {
            let pins: Vec<CellId> = match rng.gen_range(0..5u8) {
                0 => (0..rng.gen_range(2..=CLIQUE_LIMIT)).map(|_| pin(rng)).collect(),
                1 => (0..rng.gen_range(CLIQUE_LIMIT + 1..=24)).map(|_| pin(rng)).collect(),
                2 => vec![pin(rng)],
                3 => {
                    let twice = pin(rng);
                    vec![twice, pin(rng), twice]
                }
                _ => last.clone(),
            };
            b.add_anonymous_net(pins.iter().copied());
            last = pins;
        }
        b.finish()
    }

    /// One shard solve's inputs, with the design's Laplacian in both
    /// layouts.
    struct ShardCase {
        lap: Laplacian,
        oracle: reference::Laplacian,
        cells: Vec<u32>,
        anchor_weight: f64,
        tx: Vec<f64>,
        ty: Vec<f64>,
        xs: Vec<f64>,
        ys: Vec<f64>,
        tolerance: f64,
        max_iterations: usize,
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Solves `case` with the reference solver and with `solver` left
    /// dirty by the rest of the design, as the placer's workers reuse
    /// theirs, the two shards recorded in one map: both lanes must match
    /// bit for bit, and the reported boundary must be the shard's cells
    /// with a neighbor outside it.
    fn assert_matches_oracle(solver: &mut ShardSolver, case: &ShardCase, what: &str) {
        let ShardCase {
            lap,
            oracle,
            cells,
            anchor_weight: aw,
            tolerance: tol,
            max_iterations: cap,
            ..
        } = case;
        let n = lap.dim();
        let (want_x, want_y) = reference::ShardSolver::new(n)
            .solve_shard(oracle, cells, *aw, &case.tx, &case.ty, &case.xs, &case.ys, *tol, *cap);

        let mut in_shard = vec![false; n];
        for &c in cells {
            in_shard[c as usize] = true;
        }
        let rest: Vec<u32> = (0..n as u32).filter(|&c| !in_shard[c as usize]).collect();
        let rest_targets = vec![1.0; rest.len()];
        let map = ShardMap::new(n, &[cells.clone(), rest.clone()]);
        if !rest.is_empty() {
            let _ = solver.solve_shard(
                lap,
                &map,
                &rest,
                *aw,
                &rest_targets,
                &rest_targets,
                &case.ys,
                &case.xs,
                *tol,
                *cap,
            );
        }
        let (got_x, got_y) = solver
            .solve_shard(lap, &map, cells, *aw, &case.tx, &case.ty, &case.xs, &case.ys, *tol, *cap);
        assert_eq!(bits(&got_x), bits(&want_x), "x lane: {what}");
        assert_eq!(bits(&got_y), bits(&want_y), "y lane: {what}");

        let boundary: Vec<u32> = cells
            .iter()
            .copied()
            .filter(|&c| lap.row(c as usize).any(|(j, _)| !in_shard[j]))
            .collect();
        assert_eq!(solver.boundary(), &boundary[..], "boundary: {what}");
    }

    /// Values with signed zeros, subnormals, small integers and a huge
    /// magnitude mixed in (`special`), or plain coordinates.
    fn lane_value(rng: &mut SmallRng, special: bool) -> f64 {
        const SPECIALS: [f64; 8] = [0.0, -0.0, 5e-324, -4e-320, 1.0, -2.0, 3.5, 1e200];
        if special && rng.gen_bool(0.5) {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            rng.gen_range(-20.0..120.0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The two-lane shard solve reproduces the one-axis-at-a-time
        /// oracle bit for bit: on random designs and shards (empty, one
        /// cell, the whole design, random subsets), with independent x
        /// and y data so the lanes stop at different iterations, and with
        /// one lane poisoned by a NaN or an infinity so that it runs to
        /// the cap while the other one stops.
        #[test]
        fn two_lane_shard_solve_matches_oracle_bit_for_bit(
            n in 1usize..160,
            net_density in 0usize..4,
            shard_kind in 0u8..5,
            value_kind in 0u8..3,
            tolerance in 0usize..6,
            cap in 0usize..4,
            anchor in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nl = random_netlist(n, n * net_density / 2 + 1, &mut rng);
            let (lap, oracle) = (Laplacian::build(&nl), reference::build(&nl));
            let cells: Vec<u32> = match shard_kind {
                0 => Vec::new(),
                1 => vec![rng.gen_range(0..n as u32)],
                2 => (0..n as u32).collect(),
                _ => (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect(),
            };
            let m = cells.len();
            let special = value_kind == 1;
            let xs: Vec<f64> = (0..n).map(|_| lane_value(&mut rng, special)).collect();
            let ys: Vec<f64> = (0..n).map(|_| lane_value(&mut rng, special)).collect();
            let tx: Vec<f64> = (0..m).map(|_| lane_value(&mut rng, special)).collect();
            let ty: Vec<f64> = (0..m).map(|_| lane_value(&mut rng, special)).collect();
            let mut case = ShardCase {
                lap,
                oracle,
                cells,
                anchor_weight: [1e-3, 0.02, 0.75, 30.0, 1e300][anchor],
                tx,
                ty,
                xs,
                ys,
                tolerance: [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5][tolerance],
                max_iterations: [0, 1, 2, 300][cap],
            };
            if value_kind == 2 {
                let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                let lane = if rng.gen_bool(0.5) { &mut case.xs } else { &mut case.ys };
                lane[rng.gen_range(0..n)] = poison;
            }
            assert_matches_oracle(&mut ShardSolver::new(), &case, &format!("n={n} m={m} seed={seed}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The scalar-anchor solve reproduces the fused per-cell-anchor
        /// oracle given `α` at every cell, bit for bit: the solution and
        /// the iterations used, on random designs, for α from 1e-3 to
        /// 1e300, iteration caps 0, 1, 2 and 300, and right-hand sides
        /// and starting guesses with signed zeros, subnormals and huge
        /// values mixed in.
        #[test]
        fn scalar_anchor_solve_matches_fused_oracle_bit_for_bit(
            n in 1usize..160,
            net_density in 0usize..4,
            special in 0u8..2,
            tolerance in 0usize..6,
            cap in 0usize..4,
            anchor in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let nl = random_netlist(n, n * net_density / 2 + 1, &mut rng);
            let (lap, oracle) = (Laplacian::build(&nl), reference::build(&nl));
            let alpha = [1e-3, 0.02, 0.75, 30.0, 600.0, 1e300][anchor];
            let tolerance = [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5][tolerance];
            let cap = [0, 1, 2, 300][cap];
            let special = special == 1;
            let rhs: Vec<f64> = (0..n).map(|_| alpha * lane_value(&mut rng, special)).collect();
            let x0: Vec<f64> = (0..n).map(|_| lane_value(&mut rng, special)).collect();
            let mut want = x0.clone();
            let want_iters = reference::solve_anchored_into(
                &oracle,
                &vec![alpha; n],
                &rhs,
                &mut want,
                tolerance,
                cap,
                &mut reference::SolveScratch::default(),
            );
            let mut got = x0;
            let got_iters = lap.solve_anchored(alpha, &rhs, &mut got, tolerance, cap);
            prop_assert_eq!(bits(&got), bits(&want), "n={} alpha={} seed={}", n, alpha, seed);
            prop_assert_eq!(got_iters, want_iters);
        }
    }

    /// Hand-built cases at each stopping rule, in either lane while the
    /// other lane goes on: a residual exactly at the tolerance target
    /// (`rr <= target` stops, `<` would step), a `pᵀAp` that underflows
    /// to zero (the breakdown stop), a NaN lane that runs to the cap,
    /// and a zero iteration cap.
    #[test]
    fn two_lane_shard_solve_matches_oracle_at_the_stopping_edges() {
        // Cell 0 isolated, cells 1..30 a chain; the shard is every cell.
        let n = 30;
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(n);
        for i in 1..n - 1 {
            b.add_anonymous_net([CellId::new(i), CellId::new(i + 1)]);
        }
        let nl = b.finish();
        let (lap, oracle) = (Laplacian::build(&nl), reference::build(&nl));
        let cells: Vec<u32> = (0..n as u32).collect();
        let zeros = vec![0.0; n];
        let ramp: Vec<f64> = (0..n).map(|i| (i * 7 % 11) as f64).collect();
        // With α = 1 and tolerance 0.5, cell 0 at 1 toward 2 has
        // r = 1 and rr = 1 = 0.25 · rhs²; every other cell sits at its
        // target 0, so it adds nothing to either sum.
        let mut at_target = zeros.clone();
        at_target[0] = 2.0;
        let mut one = zeros.clone();
        one[0] = 1.0;
        // With α = 1e300, target 0 and a subnormal start, rr = 1e-40 is
        // above the target while pᵀAp ≈ 1e-340 underflows to 0.
        let mut subnormal = zeros.clone();
        subnormal[0] = 1e-320;
        let mut nan = ramp.clone();
        nan[5] = f64::NAN;
        let edges = [
            ("exact tolerance", 1.0, 0.5, 300, at_target, one, ramp.clone(), zeros.clone()),
            ("breakdown", 1e300, 1e-6, 300, zeros.clone(), subnormal, ramp.clone(), zeros.clone()),
            ("NaN to the cap", 0.02, 1e-9, 300, ramp.clone(), nan, ramp.clone(), zeros.clone()),
            ("zero cap", 0.5, 1e-9, 0, ramp.clone(), zeros.clone(), zeros.clone(), ramp.clone()),
        ];
        for (what, aw, tol, cap, t_edge, s_edge, t_other, s_other) in edges {
            for edge_on_x in [true, false] {
                let (tx, xs, ty, ys) = if edge_on_x {
                    (t_edge.clone(), s_edge.clone(), t_other.clone(), s_other.clone())
                } else {
                    (t_other.clone(), s_other.clone(), t_edge.clone(), s_edge.clone())
                };
                let case = ShardCase {
                    lap: lap.clone(),
                    oracle: oracle.clone(),
                    cells: cells.clone(),
                    anchor_weight: aw,
                    tx,
                    ty,
                    xs,
                    ys,
                    tolerance: tol,
                    max_iterations: cap,
                };
                let what = format!("{what}, edge on x: {edge_on_x}");
                assert_matches_oracle(&mut ShardSolver::new(), &case, &what);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// One solver serves designs of different sizes, as a worker's
        /// solver serves every shard it claims: its state is shard-sized,
        /// so a design of `n` cells, then one four times larger, then one
        /// half as large each match the oracle bit for bit.
        #[test]
        fn one_shard_solver_matches_oracle_across_design_sizes(
            n in 1usize..100,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut solver = ShardSolver::new();
            for n in [n, 4 * n + 7, n / 2 + 1] {
                let nl = random_netlist(n, n + 1, &mut rng);
                let cells: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
                let m = cells.len();
                let mut values = |len: usize| -> Vec<f64> {
                    (0..len).map(|_| rng.gen_range(-20.0..120.0)).collect()
                };
                let case = ShardCase {
                    lap: Laplacian::build(&nl),
                    oracle: reference::build(&nl),
                    cells,
                    anchor_weight: 0.75,
                    tx: values(m),
                    ty: values(m),
                    xs: values(n),
                    ys: values(n),
                    tolerance: 1e-9,
                    max_iterations: 300,
                };
                assert_matches_oracle(&mut solver, &case, &format!("n={n} m={m} seed={seed}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A map built from [`ShardGrid::partition`] gives every cell its
        /// shard's start plus its index in that shard's list: positions
        /// scattered over the die, stacked on a coarse lattice, or outside
        /// it.
        #[test]
        fn shard_map_agrees_with_the_partition(
            n in 0usize..600,
            side in 1usize..7,
            stacked in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            use gtl_core::shard::ShardGrid;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut coord = || {
                if stacked == 1 {
                    rng.gen_range(0..5usize) as f64 * 2.5
                } else {
                    rng.gen_range(-1.0..11.0)
                }
            };
            let (xs, ys): (Vec<f64>, Vec<f64>) = (0..n).map(|_| (coord(), coord())).unzip();
            let shards = ShardGrid::square(side, 10.0, 10.0).partition(&xs, &ys);
            let map = ShardMap::new(n, &shards);
            let mut base = 0;
            for cells in &shards {
                for (k, &c) in cells.iter().enumerate() {
                    prop_assert_eq!(map.slots[c as usize], (base + k) as u32, "cell {}", c);
                }
                base += cells.len();
            }
            prop_assert_eq!(base, n);
            prop_assert_eq!(map.slots.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "listed in two shards")]
    fn shard_map_rejects_a_cell_in_two_shards() {
        let _ = ShardMap::new(4, &[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "cell 3 is not entry 0 of a run of the shard map")]
    fn solve_shard_rejects_a_cell_in_no_shard() {
        let nl = chain(4);
        let lap = Laplacian::build(&nl);
        let map = ShardMap::new(4, &[vec![0, 1]]);
        let at = [0.0, 1.0, 2.0, 3.0];
        let _ = ShardSolver::new().solve_shard(
            &lap,
            &map,
            &[3],
            1.0,
            &[0.0],
            &[0.0],
            &at,
            &at,
            1e-9,
            10,
        );
    }

    #[test]
    #[should_panic(expected = "is not entry 1 of a run of the shard map")]
    fn solve_shard_rejects_cells_that_are_not_a_run_of_the_map() {
        let nl = chain(4);
        let lap = Laplacian::build(&nl);
        let map = ShardMap::new(4, &[vec![0, 1], vec![2, 3]]);
        let at = [0.0, 1.0, 2.0, 3.0];
        let _ = ShardSolver::new().solve_shard(
            &lap,
            &map,
            &[0, 2],
            1.0,
            &[0.0; 2],
            &[0.0; 2],
            &at,
            &at,
            1e-9,
            10,
        );
    }

    #[test]
    fn anchored_solve_reaches_targets_when_disconnected() {
        // No nets: solution = targets exactly.
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(4);
        let nl = b.finish();
        let lap = Laplacian::build(&nl);
        let targets = [3.0, -1.0, 0.5, 7.0];
        let rhs: Vec<f64> = targets.iter().map(|t| t * 1.0).collect();
        let mut x = [0.0; 4];
        lap.solve_anchored(1.0, &rhs, &mut x, 1e-10, 100);
        for (xi, ti) in x.iter().zip(&targets) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn anchored_solve_balances_spring_and_anchor() {
        // Two cells joined by a net (w=1), anchored at 0 and 10 with α=1:
        // minimize (x0-x1)² + ... → symmetric pull towards each other.
        let mut b = NetlistBuilder::new();
        let c0 = b.add_cell("a", 1.0);
        let c1 = b.add_cell("b", 1.0);
        b.add_anonymous_net([c0, c1]);
        let nl = b.finish();
        let lap = Laplacian::build(&nl);
        let rhs = vec![0.0, 10.0];
        let mut x = [0.0, 0.0];
        lap.solve_anchored(1.0, &rhs, &mut x, 1e-12, 200);
        // Symmetry: x0 + x1 = 10; attraction: x1 - x0 < 10.
        assert!((x[0] + x[1] - 10.0).abs() < 1e-8, "{x:?}");
        assert!(x[1] - x[0] < 10.0 - 1e-6, "{x:?}");
        assert!(x[1] - x[0] > 0.0, "{x:?}");
    }

    #[test]
    fn cg_converges_on_chain() {
        let nl = chain(100);
        let lap = Laplacian::build(&nl);
        let targets: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let rhs: Vec<f64> = targets.iter().map(|t| 0.1 * t).collect();
        let mut x = vec![0.0; 100];
        let iters = lap.solve_anchored(0.1, &rhs, &mut x, 1e-8, 1000);
        assert!(iters < 1000, "CG did not converge");
        // Residual check.
        let mut ax = apply(&lap, &x);
        for i in 0..100 {
            ax[i] += 0.1 * x[i];
        }
        let res: f64 = ax.iter().zip(&rhs).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(res < 1e-10, "residual {res}");
    }

    #[test]
    fn shard_solver_matches_global_on_full_shard() {
        // One shard holding every cell has no external neighbors: the
        // shard solve must agree with the global anchored solve.
        let n = 30;
        let nl = chain(n);
        let lap = Laplacian::build(&nl);
        let targets: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37) % 5.0).collect();
        let rhs: Vec<f64> = targets.iter().map(|t| 0.5 * t).collect();
        let x0 = vec![0.0; n];
        let mut global = x0.clone();
        lap.solve_anchored(0.5, &rhs, &mut global, 1e-12, 500);
        let cells: Vec<u32> = (0..n as u32).collect();
        let map = ShardMap::new(n, std::slice::from_ref(&cells));
        let (sx, sy) = ShardSolver::new()
            .solve_shard(&lap, &map, &cells, 0.5, &targets, &targets, &x0, &x0, 1e-12, 500);
        for i in 0..n {
            assert!((sx[i] - global[i]).abs() < 1e-8, "x[{i}]: {} vs {}", sx[i], global[i]);
            assert!((sy[i] - global[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn shard_solver_reuse_is_invisible() {
        // Solving shard B between two solves of shard A must not change
        // A's result — scratch reuse stays outside the output.
        let n = 20;
        let nl = chain(n);
        let lap = Laplacian::build(&nl);
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys = vec![1.0; n];
        let ta = vec![2.5; 6];
        let tb = vec![7.5; 14];
        let a: Vec<u32> = (0..6).collect();
        let b: Vec<u32> = (6..20).collect();
        let map = ShardMap::new(n, &[a.clone(), b.clone()]);
        let mut solver = ShardSolver::new();
        let first = solver.solve_shard(&lap, &map, &a, 1.0, &ta, &ta, &xs, &ys, 1e-10, 200);
        let _ = solver.solve_shard(&lap, &map, &b, 1.0, &tb, &tb, &xs, &ys, 1e-10, 200);
        let again = solver.solve_shard(&lap, &map, &a, 1.0, &ta, &ta, &xs, &ys, 1e-10, 200);
        assert_eq!(first, again);
    }

    #[test]
    fn row_and_degree_expose_csr() {
        let nl = chain(4);
        let lap = Laplacian::build(&nl);
        // Interior cell 1 neighbors 0 and 2, each with weight 1 (2/d, d=2).
        let row: Vec<(usize, f64)> = lap.row(1).collect();
        assert_eq!(row.len(), 2);
        let sum: f64 = row.iter().map(|(_, w)| w).sum();
        assert!((sum - lap.degree(1)).abs() < 1e-12);
        assert!((lap.degree(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn zero_anchor_panics() {
        let nl = chain(4);
        let lap = Laplacian::build(&nl);
        let _ = lap.solve_anchored(0.0, &[0.0; 4], &mut [0.0; 4], 1e-8, 10);
    }
}
