//! Bench for the sharded quadratic placer: 1-thread versus N-thread wall
//! time of a full `place()` run on an ISPD-like circuit large enough to
//! decompose into a 3×3 shard grid.
//!
//! A plain `harness = false` main (`cargo bench -p gtl-bench --bench
//! placement_parallel`): it writes a machine-readable
//! `placement_parallel.json` summary (threads, wall seconds, speedup)
//! into `results/` via the `gtl_bench::report` machinery, and asserts
//! that every parallel run reproduces the single-worker placement exactly
//! — the execution layer's byte-identical contract, measured on the
//! placer. The summary records `available_parallelism`, so each row
//! names the machine it came from; on a single-core box the 2-thread row
//! measures the same serial work.

use std::time::Instant;

use gtl_bench::report::{write_json, Json};
use gtl_place::{hpwl, place, Die, PlacerConfig};
use gtl_synth::ispd_like::{generate, IspdBenchmark, IspdLikeConfig};

fn testbed() -> gtl_synth::GeneratedCircuit {
    generate(&IspdLikeConfig::new(IspdBenchmark::Adaptec1, 0.05))
}

fn config(threads: usize) -> PlacerConfig {
    PlacerConfig { shard_grid: 3, threads, ..PlacerConfig::default() }
}

/// Thread counts to measure: 1, 2, and all `cores` (deduplicated).
fn thread_counts(cores: usize) -> Vec<usize> {
    let mut counts = vec![1, 2, cores];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn main() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let g = testbed();
    let die = Die::for_netlist(&g.netlist, 0.6);

    // Untimed warmup so the first measured row does not also pay the
    // page-fault/allocator warmup of the whole process.
    std::hint::black_box(place(&g.netlist, &die, &config(1)).len());

    // Best-of-2 timed passes per thread count for the JSON summary; also
    // checks determinism across counts. The minimum is the standard
    // low-noise wall estimator: interference only ever adds time.
    let mut rows = Vec::new();
    let mut serial_wall = 0.0f64;
    let mut baseline = None;
    for &threads in &thread_counts(cores) {
        let mut wall = f64::INFINITY;
        let mut wirelength = 0.0f64;
        for _ in 0..2 {
            let start = Instant::now();
            let placement = place(&g.netlist, &die, &config(threads));
            wall = wall.min(start.elapsed().as_secs_f64());
            wirelength = hpwl(&g.netlist, &placement);
            match &baseline {
                None => baseline = Some(placement),
                Some(expected) => assert_eq!(
                    expected, &placement,
                    "placement changed between 1 and {threads} threads"
                ),
            }
        }
        if threads == 1 {
            serial_wall = wall;
        }
        rows.push(Json::obj([
            ("threads", Json::num(threads as f64)),
            ("wall_seconds", Json::num(wall)),
            ("speedup", Json::num(serial_wall / wall)),
            ("hpwl", Json::num(wirelength)),
        ]));
    }
    let doc = Json::obj([
        ("bench", Json::str("placement_parallel")),
        ("num_cells", Json::num(g.netlist.num_cells() as f64)),
        ("shard_grid", Json::num(config(1).shard_grid as f64)),
        ("available_parallelism", Json::num(cores as f64)),
        ("runs", Json::arr(rows)),
    ]);
    let path = gtl_bench::results_dir().join("placement_parallel.json");
    write_json(&path, &doc).expect("write placement_parallel.json");
    println!("wrote {}", path.display());
}
