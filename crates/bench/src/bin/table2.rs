//! Reproduces **Table 2**: finder results on the ISPD 2005/2006 placement
//! benchmarks (Bigblue1–3, Adaptec1–3).
//!
//! By default each benchmark is an ISPD-like synthetic circuit at the
//! requested scale ([`gtl_synth::ispd_like`]'s module doc gives the
//! substitution rationale).
//! Pass `--bookshelf <dir>` holding `<name>.aux` files to run on the real
//! benchmarks instead.

#![forbid(unsafe_code)]

use std::time::Instant;

use gtl_bench::args::CommonArgs;
use gtl_bench::report::Table;
use gtl_synth::ispd_like::{self, IspdBenchmark, IspdLikeConfig};
use gtl_tangled::{FinderConfig, TangledLogicFinder};

fn main() {
    let args = CommonArgs::parse(0.02);
    println!("== Table 2: results on ISPD 05/06 placement benchmarks (scale {}) ==\n", args.scale);

    let mut table = Table::new(&[
        "Case",
        "|V|",
        "#seeds",
        "#GTL",
        "Top 3",
        "GTL size",
        "Cut",
        "GTL-S",
        "GTL-SD",
        "Runtime(m)",
    ]);

    for benchmark in IspdBenchmark::ALL {
        let netlist = match &args.bookshelf {
            Some(dir) => {
                let aux = dir.join(format!("{}.aux", benchmark.name()));
                match gtl_netlist::bookshelf::read_aux(&aux) {
                    Ok(design) => design.netlist,
                    Err(e) => {
                        eprintln!("{}: skipping ({e})", benchmark.name());
                        continue;
                    }
                }
            }
            None => {
                let mut cfg = IspdLikeConfig::new(benchmark, args.scale);
                cfg.seed ^= args.rng;
                ispd_like::generate(&cfg).netlist
            }
        };

        let finder_config = FinderConfig {
            num_seeds: args.seeds,
            max_order_len: (netlist.num_cells() / 5).clamp(2_000, 100_000),
            min_size: 30,
            threads: args.threads,
            rng_seed: args.rng,
            ..FinderConfig::default()
        };
        let start = Instant::now();
        let result = TangledLogicFinder::new(&netlist, finder_config).run();
        let minutes = start.elapsed().as_secs_f64() / 60.0;

        if result.gtls.is_empty() {
            table.row(&[
                benchmark.name().to_string(),
                format!("{}", netlist.num_cells()),
                format!("{}", args.seeds),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{minutes:.2}"),
            ]);
            continue;
        }
        for (i, gtl) in result.gtls.iter().take(3).enumerate() {
            let (case, v, seeds, count, runtime) = if i == 0 {
                (
                    benchmark.name().to_string(),
                    format!("{}", netlist.num_cells()),
                    format!("{}", args.seeds),
                    format!("{}", result.gtls.len()),
                    format!("{minutes:.2}"),
                )
            } else {
                Default::default()
            };
            table.row(&[
                case,
                v,
                seeds,
                count,
                format!("Structure {}", i + 1),
                format!("{}", gtl.len()),
                format!("{}", gtl.stats.cut),
                format!("{:.3}", gtl.ngtl_score),
                format!("{:.3}", gtl.gtl_sd),
                runtime,
            ]);
        }
        eprintln!(
            "{}: {} candidates from {} seeds, p≈{:.2}",
            benchmark.name(),
            result.num_candidates,
            args.seeds,
            result.avg_rent_exponent
        );
    }

    println!("{}", table.render());
    println!(
        "(paper at full scale: 54–112 GTLs per design; top GTL-S 0.065–0.204, \
         GTL-SD 0.031–0.225; runtimes 77–159 min on 8 threads)"
    );
}
