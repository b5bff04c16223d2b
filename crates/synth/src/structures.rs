//! Logic-structure macros: the shapes synthesis turns into tangled logic.
//!
//! The paper's introduction motivates GTLs with "entire logic structures
//! like adders and decoders"; its industrial GTLs were dissolved ROMs
//! (decoder + mux planes). This module generates gate-level netlist
//! fragments for those structures so that the ISPD-like and industrial
//! generators can embed realistic tangled logic, and so that examples can
//! demonstrate detection on recognizable circuits.
//!
//! Every generator appends cells/nets to a caller-provided
//! [`NetlistBuilder`] and returns the created cell ids. Structure-internal
//! signals become internal nets; the structure's external interface is
//! deliberately thin (a few boundary nets), mirroring synthesized macros.

use gtl_netlist::{CellId, NetlistBuilder};

/// Cells created for one structure instance.
#[derive(Debug, Clone)]
pub struct StructureCells {
    /// All cells of the structure, in creation order.
    pub cells: Vec<CellId>,
    /// Kind label (e.g. `"rca16"`), useful for reports.
    pub kind: String,
}

impl StructureCells {
    /// Number of cells in the structure.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the structure is empty (never true for these generators).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Appends an `bits`-bit ripple-carry adder: one full-adder cell per bit,
/// carry-chained, with XOR/AND decomposition cells (5 cells per bit).
///
/// # Panics
///
/// Panics if `bits == 0`.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_synth::structures::ripple_carry_adder;
///
/// let mut b = NetlistBuilder::new();
/// let adder = ripple_carry_adder(&mut b, 16);
/// assert_eq!(adder.len(), 16 * 5);
/// let nl = b.finish();
/// nl.validate().unwrap();
/// ```
pub fn ripple_carry_adder(b: &mut NetlistBuilder, bits: usize) -> StructureCells {
    assert!(bits > 0, "adder needs at least one bit");
    let mut cells = Vec::with_capacity(bits * 5);
    let mut carry: Option<CellId> = None;
    for i in 0..bits {
        // Gate-level FA: s = a^b^cin, cout = ab | cin(a^b).
        let x1 = b.add_cell(format!("add_x1_{i}"), 1.75); // a ^ b
        let x2 = b.add_cell(format!("add_x2_{i}"), 1.75); // sum
        let a1 = b.add_cell(format!("add_a1_{i}"), 1.25); // a & b
        let a2 = b.add_cell(format!("add_a2_{i}"), 1.25); // cin & (a^b)
        let o1 = b.add_cell(format!("add_o1_{i}"), 1.25); // cout

        // a^b feeds both the sum XOR and the carry AND.
        b.add_net(format!("add_p_{i}"), [x1, x2, a2]);
        // The generate term and propagate term feed the carry OR.
        b.add_net(format!("add_g_{i}"), [a1, o1]);
        b.add_net(format!("add_t_{i}"), [a2, o1]);
        // Carry chain: previous cout feeds this bit's sum XOR and AND.
        if let Some(c) = carry {
            b.add_net(format!("add_c_{i}"), [c, x2, a2]);
        }
        carry = Some(o1);
        cells.extend([x1, x2, a1, a2, o1]);
    }
    StructureCells { cells, kind: format!("rca{bits}") }
}

/// Appends a `select_bits`-to-`2^select_bits` decoder: one wide AND gate
/// per output plus inverters, with every select line fanning out across
/// the whole output plane — the classic high-fanout tangle.
///
/// # Panics
///
/// Panics unless `1 <= select_bits <= 12` (2¹² outputs = 4096 gates).
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_synth::structures::decoder;
///
/// let mut b = NetlistBuilder::new();
/// let dec = decoder(&mut b, 5);
/// assert_eq!(dec.len(), 32 + 5); // outputs + select inverters
/// ```
pub fn decoder(b: &mut NetlistBuilder, select_bits: usize) -> StructureCells {
    assert!((1..=12).contains(&select_bits), "select_bits must be in 1..=12");
    let outputs = 1usize << select_bits;
    let mut cells = Vec::with_capacity(outputs + select_bits);

    // One inverter per select line produces the complement rail.
    let invs: Vec<CellId> =
        (0..select_bits).map(|i| b.add_cell(format!("dec_inv_{i}"), 0.5)).collect();
    cells.extend(&invs);

    // Output AND plane; area grows with fan-in (complex gates).
    let ands: Vec<CellId> = (0..outputs)
        .map(|o| b.add_cell(format!("dec_and_{o}"), 0.5 * select_bits as f64))
        .collect();
    cells.extend(&ands);

    // Each true rail connects its inverter and the outputs where the bit
    // is 1; each complement rail connects the outputs where the bit is 0.
    #[allow(clippy::needless_range_loop)] // bit doubles as the output-index mask
    for bit in 0..select_bits {
        let mut true_rail = vec![invs[bit]];
        let mut comp_rail = vec![invs[bit]];
        for (o, &gate) in ands.iter().enumerate() {
            if o >> bit & 1 == 1 {
                true_rail.push(gate);
            } else {
                comp_rail.push(gate);
            }
        }
        b.add_net(format!("dec_s{bit}"), true_rail);
        b.add_net(format!("dec_sn{bit}"), comp_rail);
    }
    StructureCells { cells, kind: format!("dec{select_bits}") }
}

/// Appends a `2^levels`-input multiplexer tree of MUX2 cells, with each
/// level's select line spanning all muxes of that level.
///
/// # Panics
///
/// Panics unless `1 <= levels <= 12`.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_synth::structures::mux_tree;
///
/// let mut b = NetlistBuilder::new();
/// let tree = mux_tree(&mut b, 4);
/// assert_eq!(tree.len(), 15); // 8 + 4 + 2 + 1 muxes
/// ```
pub fn mux_tree(b: &mut NetlistBuilder, levels: usize) -> StructureCells {
    assert!((1..=12).contains(&levels), "levels must be in 1..=12");
    let mut cells = Vec::new();
    let mut prev: Vec<CellId> = Vec::new();
    for level in 0..levels {
        let count = 1usize << (levels - 1 - level);
        let muxes: Vec<CellId> =
            (0..count).map(|i| b.add_cell(format!("mux_{level}_{i}"), 2.25)).collect();
        // Data nets from the previous level (two children per mux).
        for (i, &m) in muxes.iter().enumerate() {
            if !prev.is_empty() {
                b.add_net(format!("mux_d_{level}_{i}a"), [prev[2 * i], m]);
                b.add_net(format!("mux_d_{level}_{i}b"), [prev[2 * i + 1], m]);
            }
        }
        // Shared select line across the level.
        if muxes.len() > 1 {
            b.add_net(format!("mux_sel_{level}"), muxes.clone());
        }
        cells.extend(&muxes);
        prev = muxes;
    }
    StructureCells { cells, kind: format!("mux{levels}") }
}

/// Appends an `n × n` array multiplier: AND partial products plus a
/// carry-save adder grid (`n² + ~2n²` cells) — the densest structure here.
///
/// # Panics
///
/// Panics unless `2 <= n <= 64`.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
/// use gtl_synth::structures::multiplier_array;
///
/// let mut b = NetlistBuilder::new();
/// let mult = multiplier_array(&mut b, 4);
/// assert!(mult.len() >= 16);
/// ```
pub fn multiplier_array(b: &mut NetlistBuilder, n: usize) -> StructureCells {
    assert!((2..=64).contains(&n), "n must be in 2..=64");
    let mut cells = Vec::new();

    // Partial-product AND gates, indexed [row][col].
    let mut pp = vec![vec![CellId::default(); n]; n];
    for (r, row) in pp.iter_mut().enumerate() {
        for (c, slot) in row.iter_mut().enumerate() {
            let g = b.add_cell(format!("mul_pp_{r}_{c}"), 1.25);
            *slot = g;
            cells.push(g);
        }
    }
    // Operand rails: row operand bit feeds a whole row, column bit a column.
    for (r, row) in pp.iter().enumerate() {
        b.add_net(format!("mul_a{r}"), row.iter().copied());
        let col: Vec<CellId> = (0..n).map(|q| pp[q][r]).collect();
        b.add_net(format!("mul_b{r}"), col);
    }
    // Carry-save adder rows: each adder sums a partial product with the
    // row above (sum + carry cells per position).
    let mut above: Vec<CellId> = pp[0].clone();
    #[allow(clippy::needless_range_loop)] // r indexes pp rows and net names
    for r in 1..n {
        let mut new_row = Vec::with_capacity(n);
        for c in 0..n {
            let s = b.add_cell(format!("mul_s_{r}_{c}"), 4.0);
            let k = b.add_cell(format!("mul_k_{r}_{c}"), 4.0);
            b.add_net(format!("mul_in_{r}_{c}"), [pp[r][c], s, k]);
            b.add_net(format!("mul_up_{r}_{c}"), [above[c], s, k]);
            if c > 0 {
                // Carry from the previous column of this row.
                let prev_k = new_row[2 * (c - 1) + 1];
                b.add_net(format!("mul_cc_{r}_{c}"), [prev_k, s]);
            }
            new_row.extend([s, k]);
            cells.extend([s, k]);
        }
        above = (0..n).map(|c| new_row[2 * c]).collect();
    }
    StructureCells { cells, kind: format!("mul{n}") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::{CellSet, SubsetStats};

    fn density(build: impl FnOnce(&mut NetlistBuilder) -> StructureCells) -> (f64, usize) {
        let mut b = NetlistBuilder::new();
        let s = build(&mut b);
        let nl = b.finish();
        nl.validate().unwrap();
        let set = CellSet::from_cells(nl.num_cells(), s.cells.iter().copied());
        let stats = SubsetStats::compute(&nl, &set);
        (stats.avg_pins_per_cell(), stats.cut)
    }

    #[test]
    fn adder_structure() {
        let mut b = NetlistBuilder::new();
        let s = ripple_carry_adder(&mut b, 8);
        assert_eq!(s.len(), 40);
        assert_eq!(s.kind, "rca8");
        let nl = b.finish();
        nl.validate().unwrap();
        // Standalone structure: everything is internal, cut = 0.
        let set = CellSet::from_cells(nl.num_cells(), s.cells.iter().copied());
        assert_eq!(SubsetStats::compute(&nl, &set).cut, 0);
    }

    #[test]
    fn adder_is_connected_chain() {
        let mut b = NetlistBuilder::new();
        let s = ripple_carry_adder(&mut b, 4);
        let nl = b.finish();
        // BFS from the first cell reaches all cells.
        let mut seen = CellSet::new(nl.num_cells());
        let mut stack = vec![s.cells[0]];
        seen.insert(s.cells[0]);
        while let Some(u) = stack.pop() {
            for &net in nl.cell_nets(u) {
                for &v in nl.net_cells(net) {
                    if seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
        }
        assert_eq!(seen.len(), s.len());
    }

    #[test]
    fn decoder_has_high_pin_density() {
        let (a_c, _) = density(|b| decoder(b, 6));
        // Every output AND touches all 6 select rails.
        assert!(a_c > 5.0, "A_C = {a_c}");
    }

    #[test]
    fn decoder_select_rails_span_outputs() {
        let mut b = NetlistBuilder::new();
        let s = decoder(&mut b, 3);
        let nl = b.finish();
        assert_eq!(s.len(), 8 + 3);
        // true rail + comp rail of each bit cover inverter + 8 outputs.
        for net in nl.nets() {
            let d = nl.net_degree(net);
            assert_eq!(d, 5); // 4 outputs + 1 inverter
        }
    }

    #[test]
    fn mux_tree_counts() {
        let mut b = NetlistBuilder::new();
        let s = mux_tree(&mut b, 5);
        assert_eq!(s.len(), 31);
        let nl = b.finish();
        nl.validate().unwrap();
    }

    #[test]
    fn multiplier_is_dense() {
        let (a_c, cut) = density(|b| multiplier_array(b, 6));
        assert!(a_c > 3.0, "A_C = {a_c}");
        assert_eq!(cut, 0);
    }

    #[test]
    fn structures_compose_in_one_builder() {
        let mut b = NetlistBuilder::new();
        let a = ripple_carry_adder(&mut b, 4);
        let d = decoder(&mut b, 3);
        let m = mux_tree(&mut b, 3);
        let nl = b.finish();
        nl.validate().unwrap();
        assert_eq!(nl.num_cells(), a.len() + d.len() + m.len());
        // No structure shares nets with another: cuts are all 0.
        for s in [&a, &d, &m] {
            let set = CellSet::from_cells(nl.num_cells(), s.cells.iter().copied());
            assert_eq!(SubsetStats::compute(&nl, &set).cut, 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bit_adder_panics() {
        let mut b = NetlistBuilder::new();
        ripple_carry_adder(&mut b, 0);
    }

    #[test]
    #[should_panic(expected = "select_bits")]
    fn oversized_decoder_panics() {
        let mut b = NetlistBuilder::new();
        decoder(&mut b, 13);
    }
}
