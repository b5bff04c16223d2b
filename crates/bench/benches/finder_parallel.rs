//! Bench for the shared execution layer: 1-thread versus N-thread wall
//! time of the full three-phase finder on a synthetic 50k-cell netlist.
//!
//! A plain `harness = false` main (`cargo bench -p gtl-bench --bench
//! finder_parallel`): it writes a machine-readable `finder_parallel.json`
//! summary (threads, wall seconds, speedup) into `results/` via the
//! `gtl_bench::report` machinery, and asserts that the parallel run
//! reproduces the serial result exactly — the execution layer's
//! determinism contract, measured where it matters.

use std::time::Instant;

use gtl_bench::report::{write_json, Json};
use gtl_synth::planted::{self, PlantedConfig};
use gtl_tangled::{FinderConfig, TangledLogicFinder};

fn testbed() -> gtl_synth::GeneratedCircuit {
    planted::generate(&PlantedConfig {
        num_cells: 50_000,
        blocks: vec![1_500, 2_500, 4_000],
        seed: 11,
        ..PlantedConfig::default()
    })
}

fn config(threads: usize) -> FinderConfig {
    FinderConfig {
        num_seeds: 64,
        max_order_len: 4_000,
        min_size: 200,
        threads,
        rng_seed: 17,
        ..FinderConfig::default()
    }
}

/// Thread counts to measure: 1, 2, and all cores (deduplicated).
fn thread_counts() -> Vec<usize> {
    let all = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut counts = vec![1, 2, all];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn main() {
    let g = testbed();

    // Untimed warmup so the first measured row does not also pay the
    // page-fault/allocator warmup of the whole process.
    let warmup = TangledLogicFinder::new(&g.netlist, config(1)).run();
    std::hint::black_box(warmup.gtls.len());

    // Best-of-3 timed passes per thread count for the JSON summary; also
    // checks determinism across counts. The minimum is the standard
    // low-noise wall estimator: every source of interference only ever
    // adds time.
    let mut rows = Vec::new();
    let mut serial_wall = 0.0f64;
    let mut baseline: Option<String> = None;
    for &threads in &thread_counts() {
        let finder = TangledLogicFinder::new(&g.netlist, config(threads));
        let mut wall = f64::INFINITY;
        let mut gtls = 0usize;
        for _ in 0..3 {
            let start = Instant::now();
            let result = finder.run();
            wall = wall.min(start.elapsed().as_secs_f64());
            gtls = result.gtls.len();
            let fingerprint = format!("{:?}", result.gtls);
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(expected) => assert_eq!(
                    expected, &fingerprint,
                    "finder output changed between 1 and {threads} threads"
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
            ("gtls", Json::num(gtls as f64)),
        ]));
    }
    let doc = Json::obj([
        ("bench", Json::str("finder_parallel")),
        ("num_cells", Json::num(g.netlist.num_cells() as f64)),
        ("num_seeds", Json::num(config(1).num_seeds as f64)),
        ("runs", Json::arr(rows)),
    ]);
    let path = gtl_bench::results_dir().join("finder_parallel.json");
    write_json(&path, &doc).expect("write finder_parallel.json");
    println!("wrote {}", path.display());
}
