//! Cross-crate integration tests: generator → finder → evaluation, and
//! the file-format paths into the finder.

use tangled_logic::netlist::{bookshelf, hgr, verilog, CellSet, NetlistBuilder, SubsetStats};
use tangled_logic::synth::planted::{self, PlantedConfig};
use tangled_logic::synth::structures;
use tangled_logic::tangled::{match_gtls, FinderConfig, MetricKind, TangledLogicFinder};

fn small_planted() -> tangled_logic::synth::GeneratedCircuit {
    planted::generate(&PlantedConfig {
        num_cells: 4_000,
        blocks: vec![250, 600],
        seed: 77,
        ..PlantedConfig::default()
    })
}

fn finder_config() -> FinderConfig {
    FinderConfig {
        num_seeds: 48,
        max_order_len: 1_600,
        min_size: 60,
        rng_seed: 5,
        ..FinderConfig::default()
    }
}

#[test]
fn planted_structures_recovered_end_to_end() {
    let g = small_planted();
    let result = TangledLogicFinder::new(&g.netlist, finder_config()).run();
    let found: Vec<Vec<_>> = result.gtls.iter().map(|x| x.cells.clone()).collect();
    let report = match_gtls(&g.truth, &found, g.netlist.num_cells());
    assert!(report.all_found(), "missed {:?}", report.missed_truths);
    assert!(report.max_miss_pct() < 5.0);
    assert!(report.max_over_pct() < 10.0);
}

#[test]
fn both_metrics_recover_the_same_structures() {
    let g = small_planted();
    for metric in [MetricKind::NGtlScore, MetricKind::GtlSd] {
        let config = FinderConfig { metric, ..finder_config() };
        let result = TangledLogicFinder::new(&g.netlist, config).run();
        let found: Vec<Vec<_>> = result.gtls.iter().map(|x| x.cells.clone()).collect();
        let report = match_gtls(&g.truth, &found, g.netlist.num_cells());
        assert!(report.all_found(), "{metric:?} missed {:?}", report.missed_truths);
    }
}

#[test]
fn finder_result_gtls_are_disjoint_and_scored() {
    let g = small_planted();
    let result = TangledLogicFinder::new(&g.netlist, finder_config()).run();
    let mut covered = CellSet::new(g.netlist.num_cells());
    for gtl in &result.gtls {
        assert!(gtl.score.is_finite() && gtl.score > 0.0);
        assert!(gtl.ngtl_score.is_finite() && gtl.gtl_sd.is_finite());
        // Reported stats must match an exact recomputation.
        let set = CellSet::from_cells(g.netlist.num_cells(), gtl.cells.iter().copied());
        let stats = SubsetStats::compute(&g.netlist, &set);
        assert_eq!(stats, gtl.stats);
        for &c in &gtl.cells {
            assert!(covered.insert(c), "cell {c} in two GTLs");
        }
    }
}

#[test]
fn hgr_roundtrip_preserves_finder_output() {
    let g = small_planted();
    let text = hgr::to_string(&g.netlist);
    let reparsed = hgr::parse_str(&text).expect("hgr parse");
    let a = TangledLogicFinder::new(&g.netlist, finder_config()).run();
    let b = TangledLogicFinder::new(&reparsed, finder_config()).run();
    assert_eq!(a.gtls.len(), b.gtls.len());
    for (x, y) in a.gtls.iter().zip(&b.gtls) {
        assert_eq!(x.cells, y.cells);
    }
}

#[test]
fn bookshelf_roundtrip_preserves_connectivity() {
    let g = small_planted();
    let n = g.netlist.num_cells();
    let design = bookshelf::BookshelfDesign {
        widths: vec![1.0; n],
        heights: vec![1.0; n],
        fixed: vec![false; n],
        positions: None,
        rows: Vec::new(),
        netlist: g.netlist.clone(),
    };
    let dir = std::env::temp_dir().join(format!("gtl_e2e_bookshelf_{}", std::process::id()));
    bookshelf::write_design(&design, &dir, "e2e").expect("write");
    let loaded = bookshelf::read_aux(dir.join("e2e.aux")).expect("read");
    assert_eq!(loaded.netlist.num_cells(), g.netlist.num_cells());
    assert_eq!(loaded.netlist.num_nets(), g.netlist.num_nets());
    assert_eq!(loaded.netlist.num_pins(), g.netlist.num_pins());
    loaded.netlist.validate().expect("valid netlist");
}

#[test]
fn verilog_adder_is_detected_as_tangled() {
    // Emit a gate-level carry-chain adder as structural Verilog, parse it
    // back, and check the finder flags it inside a sparse wrapper. (A
    // pure fanout plane like a single-level decoder is *not* detectable
    // by the paper's weight function, which discounts high-fanout nets —
    // synthesized tangles are dominated by 2–3 pin nets like these.)
    let bits = 16usize;
    let mut src = String::from("module wrap ();\n");
    for i in 0..bits {
        src.push_str(&format!("  wire p{i}, g{i}, t{i}, c{i};\n"));
    }
    for i in 0..200 {
        src.push_str(&format!("  wire w{i};\n"));
    }
    for i in 0..bits {
        // Per-bit gates: propagate XOR, generate AND, carry AOI.
        src.push_str(&format!("  XOR2 x{i} (.Y(p{i}), .B(t{i}));\n"));
        src.push_str(&format!("  AND2 a{i} (.Y(g{i}), .B(t{i}));\n"));
        if i > 0 {
            src.push_str(&format!(
                "  AOI21 k{i} (.A(p{i}), .B(g{i}), .C(c{}), .Y(c{i}));\n",
                i - 1
            ));
        } else {
            src.push_str(&format!("  AOI21 k{i} (.A(p{i}), .B(g{i}), .Y(c{i}));\n"));
        }
    }
    // Sparse filler gates on a scrambled ring.
    for i in 0..200 {
        src.push_str(&format!("  BUF f{i} (.A(w{i}), .Y(w{}));\n", (i * 7 + 3) % 200));
    }
    src.push_str(&format!("  BUF tie (.A(c{}), .Y(w0));\nendmodule\n", bits - 1));

    let module = verilog::parse_str(&src).expect("parse verilog");
    assert_eq!(module.netlist.num_cells(), 3 * bits + 200 + 1);
    let config = FinderConfig {
        num_seeds: 60,
        max_order_len: 150,
        min_size: 10,
        rng_seed: 2,
        ..FinderConfig::default()
    };
    let result = TangledLogicFinder::new(&module.netlist, config).run();
    assert!(!result.gtls.is_empty(), "adder not detected");
    let best = &result.gtls[0];
    // The best GTL is (mostly) adder gates (named x*, a*, k*).
    let adder_cells = best
        .cells
        .iter()
        .filter(|&&c| {
            let name = module.netlist.cell_name(c);
            name.starts_with('x') || name.starts_with('a') || name.starts_with('k')
        })
        .count();
    assert!(
        adder_cells * 10 >= best.len() * 8,
        "best GTL is only {adder_cells}/{} adder cells",
        best.len()
    );
}

#[test]
fn structure_macros_are_strong_gtls_by_score() {
    // Every structure macro embedded in a sparse background scores ≪ 1.
    type Builder = Box<dyn Fn(&mut NetlistBuilder) -> structures::StructureCells>;
    let builders: Vec<(&str, Builder)> = vec![
        ("adder", Box::new(|b| structures::ripple_carry_adder(b, 32))),
        ("decoder", Box::new(|b| structures::decoder(b, 6))),
        ("mux", Box::new(|b| structures::mux_tree(b, 7))),
        ("mult", Box::new(|b| structures::multiplier_array(b, 8))),
    ];
    for (name, build) in builders {
        let mut b = NetlistBuilder::new();
        let s = build(&mut b);
        let first_bg = b.num_cells();
        b.add_anonymous_cells(500);
        for i in 0..500usize {
            let a = tangled_logic::netlist::CellId::new(first_bg + i);
            let c = tangled_logic::netlist::CellId::new(first_bg + (i * 13 + 7) % 500);
            if a != c {
                b.add_anonymous_net([a, c]);
            }
        }
        // One bridge.
        b.add_anonymous_net([s.cells[0], tangled_logic::netlist::CellId::new(first_bg)]);
        let nl = b.finish();
        let set = CellSet::from_cells(nl.num_cells(), s.cells.iter().copied());
        let stats = SubsetStats::compute(&nl, &set);
        let ctx = tangled_logic::tangled::DesignContext::new(&nl, 0.6);
        let score = tangled_logic::tangled::metrics::ngtl_score(stats.cut, stats.size, &ctx);
        assert!(score < 0.35, "{name}: score {score}");
    }
}
