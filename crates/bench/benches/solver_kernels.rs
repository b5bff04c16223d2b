//! Bench for the quadratic-solver kernels themselves — the
//! fused Jacobi-CG of [`Laplacian::solve_anchored`] and the
//! two-lane shard-restricted CG of [`ShardSolver::solve_shard`] —
//! measured below the placer so kernel-level regressions are visible
//! before they wash out in a full `place()` run. The shard kernel gets
//! different x and y targets and starting guesses, so its two lanes stop
//! at different iterations and the one-lane tail is timed too.
//!
//! A plain `harness = false` main (`cargo bench -p gtl-bench --bench
//! solver_kernels`): it writes a machine-readable `solver_kernels.json`
//! summary (kernel, wall seconds, solves/s) into `results/` via the
//! `gtl_bench::report` machinery, and asserts both kernels are
//! run-to-run deterministic (every timed pass over the same inputs must
//! agree bit-for-bit). A timed pass repeats its kernel for at least
//! [`MIN_PASS_SECONDS`]: a pass of 8 shard sweeps (12–17 ms of wall on a
//! 2-vCPU VM) spread more run to run than the trend gate's 30% tolerance.
//! Each anchored solve owns its work vectors; the shard sweeps reuse one
//! `ShardSolver`, as a placer worker does, and read one `ShardMap` that
//! the testbed builds once from the partition, outside the timed sweeps,
//! as a placer pass does before its solves.

use std::time::Instant;

use gtl_bench::report::{write_json, Json};
use gtl_core::shard::ShardGrid;
use gtl_place::quadratic::{Laplacian, ShardMap, ShardSolver};
use gtl_place::Die;
use gtl_synth::ispd_like::{generate, IspdBenchmark, IspdLikeConfig};

/// Anchor weight for both kernels.
const ALPHA: f64 = 0.5;
const TOLERANCE: f64 = 1e-6;
const MAX_CG_ITERATIONS: usize = 300;
/// Shard-grid side for the shard kernel (matches `placement_parallel`).
const GRID: usize = 3;
/// Shortest timed pass, in seconds of wall.
const MIN_PASS_SECONDS: f64 = 0.1;
/// Timed passes per kernel; the fastest is the reported wall.
const PASSES: usize = 3;

struct Testbed {
    lap: Laplacian,
    rhs: Vec<f64>,
    x0: Vec<f64>,
    ys: Vec<f64>,
    targets: Vec<f64>,
    targets_y: Vec<f64>,
    shards: Vec<Vec<u32>>,
    map: ShardMap,
}

fn testbed() -> Testbed {
    let g = generate(&IspdLikeConfig::new(IspdBenchmark::Adaptec1, 0.05));
    let die = Die::for_netlist(&g.netlist, 0.6);
    let lap = Laplacian::build(&g.netlist);
    let n = lap.dim();
    // Deterministic pseudo-random targets/starting guess inside the die.
    let coord = |seed: u64, i: usize, side: f64| {
        (gtl_core::derive_stream(seed, i as u64) % 10_000) as f64 / 10_000.0 * side
    };
    let targets: Vec<f64> = (0..n).map(|i| coord(5, i, die.width)).collect();
    let x0: Vec<f64> = (0..n).map(|i| coord(7, i, die.width)).collect();
    let ys: Vec<f64> = (0..n).map(|i| coord(9, i, die.height)).collect();
    let targets_y: Vec<f64> = (0..n).map(|i| coord(11, i, die.height)).collect();
    let rhs: Vec<f64> = targets.iter().map(|t| ALPHA * t).collect();
    let grid = ShardGrid::square(GRID, die.width, die.height);
    let shards = grid.partition(&x0, &ys);
    let map = ShardMap::new(n, &shards);
    Testbed { lap, rhs, x0, ys, targets, targets_y, shards, map }
}

/// Runs `reps` anchored solves in place from the same starting guess;
/// returns the wall time and the solution of the last solve (they are
/// all identical).
fn anchored_pass(tb: &Testbed, reps: usize) -> (f64, Vec<f64>) {
    let mut x = vec![0.0; tb.lap.dim()];
    let start = Instant::now();
    for _ in 0..reps {
        x.copy_from_slice(&tb.x0);
        tb.lap.solve_anchored(ALPHA, &tb.rhs, &mut x, TOLERANCE, MAX_CG_ITERATIONS);
        std::hint::black_box(x[0]);
    }
    (start.elapsed().as_secs_f64(), x)
}

/// Runs `reps` full sweeps over every shard (both axes each) on one
/// reused solver; returns the wall time and a concatenated fingerprint
/// of the last sweep.
fn shard_pass(tb: &Testbed, reps: usize) -> (f64, Vec<f64>) {
    let mut solver = ShardSolver::new();
    let (mut tx, mut ty) = (Vec::new(), Vec::new());
    let mut fingerprint = Vec::new();
    let start = Instant::now();
    for rep in 0..reps {
        if rep + 1 == reps {
            fingerprint.clear();
        }
        for cells in &tb.shards {
            if cells.is_empty() {
                continue;
            }
            tx.clear();
            ty.clear();
            for &c in cells {
                tx.push(tb.targets[c as usize]);
                ty.push(tb.targets_y[c as usize]);
            }
            let (out_x, out_y) = solver.solve_shard(
                &tb.lap,
                &tb.map,
                cells,
                ALPHA,
                &tx,
                &ty,
                &tb.x0,
                &tb.ys,
                TOLERANCE,
                MAX_CG_ITERATIONS,
            );
            std::hint::black_box(out_x.first().copied());
            if rep + 1 == reps {
                fingerprint.extend_from_slice(&out_x);
                fingerprint.extend_from_slice(&out_y);
            }
        }
    }
    (start.elapsed().as_secs_f64(), fingerprint)
}

/// Times one kernel: `pass(reps)` runs it `reps` times and returns the
/// wall and the output of the last run. The repetition count doubles from
/// one until a pass takes [`MIN_PASS_SECONDS`] (untimed, these passes
/// warm caches and allocator), then [`PASSES`] timed passes run at that
/// count: the fastest is the low-noise wall estimator, and their outputs
/// must agree bit for bit (a reused shard solver must be invisible).
fn timed(kernel: &str, pass: impl Fn(usize) -> (f64, Vec<f64>)) -> Json {
    let mut reps = 1;
    while pass(reps).0 < MIN_PASS_SECONDS {
        reps *= 2;
    }
    let (mut wall, first) = pass(reps);
    for _ in 1..PASSES {
        let (next_wall, out) = pass(reps);
        assert_eq!(out, first, "{kernel} solve is not run-to-run deterministic");
        wall = wall.min(next_wall);
    }
    Json::obj([
        ("kernel", Json::str(kernel)),
        ("solves", Json::num(reps as f64)),
        ("wall_seconds", Json::num(wall)),
        ("solves_per_s", Json::num(reps as f64 / wall)),
    ])
}

fn main() {
    let tb = testbed();
    let rows = vec![
        timed("anchored", |reps| anchored_pass(&tb, reps)),
        timed("shard", |reps| shard_pass(&tb, reps)),
    ];
    let doc = Json::obj([
        ("bench", Json::str("solver_kernels")),
        ("num_cells", Json::num(tb.lap.dim() as f64)),
        ("shard_grid", Json::num(GRID as f64)),
        ("runs", Json::arr(rows)),
    ]);
    let path = gtl_bench::results_dir().join("solver_kernels.json");
    write_json(&path, &doc).expect("write solver_kernels.json");
    println!("wrote {}", path.display());
}
