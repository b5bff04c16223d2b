//! Bookshelf interchange: export a synthetic design in ISPD format, read
//! it back, find its GTLs, and emit a soft-block floorplanning report —
//! the paper's floorplanning application (intro, bullet 2).
//!
//! Run with `cargo run --release --example bookshelf_flow`.

use std::error::Error;

use tangled_logic::netlist::bookshelf::{self, BookshelfDesign, Row};
use tangled_logic::synth::ispd_like::{generate, IspdBenchmark, IspdLikeConfig};
use tangled_logic::tangled::{FinderConfig, TangledLogicFinder};

fn main() -> Result<(), Box<dyn Error>> {
    // Generate a small ISPD-like circuit and dress it as a Bookshelf design.
    let circuit = generate(&IspdLikeConfig::new(IspdBenchmark::Adaptec2, 0.005));
    let n = circuit.netlist.num_cells();
    let side = (circuit.netlist.total_cell_area() / 0.7).sqrt().ceil();
    let rows: Vec<Row> = (0..side as usize)
        .map(|r| Row {
            y: r as f64,
            height: 1.0,
            x: 0.0,
            num_sites: side as usize,
            site_width: 1.0,
        })
        .collect();
    let design = BookshelfDesign {
        widths: (0..n)
            .map(|i| circuit.netlist.cell_area(tangled_logic::netlist::CellId::new(i)))
            .collect(),
        heights: vec![1.0; n],
        fixed: vec![false; n],
        positions: None,
        rows,
        netlist: circuit.netlist,
    };

    // Write <tmp>/adaptec2_like.aux + .nodes + .nets + .scl, then read back
    // (one directory per process, so concurrent runs never share files).
    let dir = std::env::temp_dir().join(format!("gtl_bookshelf_flow_{}", std::process::id()));
    bookshelf::write_design(&design, &dir, "adaptec2_like")?;
    println!("wrote Bookshelf design to {}", dir.display());
    let loaded = bookshelf::read_aux(dir.join("adaptec2_like.aux"))?;
    println!(
        "read back: {} cells, {} nets, {} rows",
        loaded.netlist.num_cells(),
        loaded.netlist.num_nets(),
        loaded.rows.len()
    );
    assert_eq!(loaded.netlist.num_pins(), design.netlist.num_pins());

    // Find GTLs on the re-loaded design and print a soft-block report.
    let config = FinderConfig {
        num_seeds: 60,
        max_order_len: loaded.netlist.num_cells() / 4,
        min_size: 30,
        rng_seed: 3,
        ..FinderConfig::default()
    };
    let result = TangledLogicFinder::new(&loaded.netlist, config).run();

    println!("\nsoft-block floorplanning report ({} blocks):", result.gtls.len());
    println!("block  cells  area     cut   score   suggested region");
    for (i, gtl) in result.gtls.iter().enumerate() {
        let area: f64 = gtl.cells.iter().map(|&c| loaded.netlist.cell_area(c)).sum();
        // A square soft block with 30% whitespace.
        let block_side = (area / 0.7).sqrt();
        println!(
            "B{:<5} {:<6} {:<8.1} {:<5} {:<7.3} {:.0}×{:.0} sites",
            i,
            gtl.len(),
            area,
            gtl.stats.cut,
            gtl.score,
            block_side,
            block_side
        );
    }
    Ok(())
}
