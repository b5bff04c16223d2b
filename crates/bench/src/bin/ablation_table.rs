//! Ablation table: recovery quality under the paper's design choices.
//!
//! Prints Miss%/Over%/#found on a planted-GTL graph for each combination
//! of (growth criterion × Phase III refinement × metric), quantifying the
//! arguments the paper makes in prose: weight-first growth (§3.2.1),
//! genetic refinement (§3.2.3), and the density-aware metric (§3.1).

#![forbid(unsafe_code)]

use gtl_bench::args::CommonArgs;
use gtl_bench::report::Table;
use gtl_synth::planted::{self, PlantedConfig};
use gtl_tangled::{match_gtls, FinderConfig, GrowthCriterion, MetricKind, TangledLogicFinder};

fn main() {
    let args = CommonArgs::parse(1.0); // scale here means graph multiplier
    println!("== Ablation: finder variants on a planted-GTL graph ==\n");

    let graph = planted::generate(&PlantedConfig {
        num_cells: (20_000f64 * args.scale) as usize,
        blocks: vec![(600f64 * args.scale) as usize, (1_500f64 * args.scale) as usize],
        seed: 0x0b1 ^ args.rng,
        ..PlantedConfig::default()
    });
    println!(
        "graph: {} cells, planted {:?}\n",
        graph.netlist.num_cells(),
        graph.truth.iter().map(Vec::len).collect::<Vec<_>>()
    );

    let base = FinderConfig {
        num_seeds: args.seeds.min(64),
        max_order_len: graph.truth.iter().map(Vec::len).max().unwrap() * 5 / 2,
        min_size: graph.truth.iter().map(Vec::len).min().unwrap() / 3,
        threads: args.threads,
        rng_seed: args.rng,
        ..FinderConfig::default()
    };

    let mut table =
        Table::new(&["criterion", "refine", "metric", "#found", "matched", "max Miss", "max Over"]);
    // The eight ablation configs are independent: fan them out through the
    // shared execution layer (row order is preserved) and keep each finder
    // single-threaded so the outer parallelism isn't oversubscribed.
    let mut variants = Vec::new();
    for criterion in [GrowthCriterion::WeightFirst, GrowthCriterion::CutFirst] {
        for refine in [true, false] {
            for metric in [MetricKind::GtlSd, MetricKind::NGtlScore] {
                variants.push((criterion, refine, metric));
            }
        }
    }
    let rows = gtl_core::parallel_map(args.threads, variants.len(), |i| {
        let (criterion, refine, metric) = variants[i];
        let config = FinderConfig { criterion, refine, metric, threads: 1, ..base };
        let result = TangledLogicFinder::new(&graph.netlist, config).run();
        let found: Vec<Vec<_>> = result.gtls.iter().map(|g| g.cells.clone()).collect();
        let report = match_gtls(&graph.truth, &found, graph.netlist.num_cells());
        [
            format!("{criterion:?}"),
            if refine { "on" } else { "off" }.to_string(),
            metric.to_string(),
            format!("{}", result.gtls.len()),
            format!("{}/{}", report.matches.len(), graph.truth.len()),
            format!("{:.2}%", report.max_miss_pct()),
            format!("{:.2}%", report.max_over_pct()),
        ]
    });
    for row in &rows {
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "(the paper's choices — weight-first growth, refinement on, GTL-SD — \
         should dominate or tie every row)"
    );
}
