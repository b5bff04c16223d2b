//! Incremental construction of [`Netlist`]s.

use crate::{CellId, NetId, Netlist};

/// Builder that accumulates cells and nets and produces a CSR [`Netlist`].
///
/// Pins are deduplicated per net: if the same cell is listed twice on one
/// net (common in raw synthesized netlists where a gate has two input pins
/// tied to the same signal), it is recorded once. Duplicate *names* are
/// permitted — netlist formats that require unique names enforce that in
/// their parsers.
///
/// Names are stored only up to the last named cell (and net): unnamed
/// elements past it cost nothing, so a netlist built entirely from
/// anonymous cells and nets (the `.hgr` reader, the synthetic generators)
/// holds no name storage at all.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::with_capacity(2, 1);
/// let x = b.add_cell("x", 1.0);
/// let y = b.add_cell("y", 1.0);
/// b.add_net("clk", [x, y, x]); // duplicate pin on x is deduped
/// let nl = b.finish();
/// assert_eq!(nl.num_pins(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    cell_names: Vec<String>,
    cell_areas: Vec<f64>,
    net_names: Vec<String>,
    net_offsets: Vec<u32>,
    net_pins: Vec<CellId>,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self { net_offsets: vec![0], ..Self::default() }
    }

    /// Creates a builder with capacity reserved for `cells` cells and
    /// `nets` nets. Names are not reserved: they grow only as named
    /// elements arrive.
    pub fn with_capacity(cells: usize, nets: usize) -> Self {
        Self {
            cell_names: Vec::new(),
            cell_areas: Vec::with_capacity(cells),
            net_names: Vec::new(),
            net_offsets: {
                let mut v = Vec::with_capacity(nets + 1);
                v.push(0);
                v
            },
            net_pins: Vec::new(),
        }
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cell_areas.len()
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.net_offsets.len() - 1
    }

    /// Adds a named cell with the given area and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `area` is not finite and positive.
    pub fn add_cell(&mut self, name: impl Into<String>, area: f64) -> CellId {
        assert!(area.is_finite() && area > 0.0, "cell area must be finite and positive");
        let id = CellId::new(self.cell_areas.len());
        store_name(&mut self.cell_names, id.index(), name.into());
        self.cell_areas.push(area);
        id
    }

    /// Adds one anonymous cell with the given area.
    ///
    /// # Panics
    ///
    /// Panics if `area` is not finite and positive.
    pub fn add_anonymous_cell(&mut self, area: f64) -> CellId {
        self.add_cell(String::new(), area)
    }

    /// A builder holding `cells` anonymous unit-area cells, with room for
    /// `nets` nets, or `None` when the allocator refuses the cell table:
    /// a reader turns a cell count no memory backs into an error instead
    /// of an abort.
    pub(crate) fn try_with_anonymous_cells(cells: usize, nets: usize) -> Option<Self> {
        let mut builder = Self::with_capacity(0, nets);
        builder.cell_areas.try_reserve_exact(cells).ok()?;
        builder.add_anonymous_cells(cells);
        Some(builder)
    }

    /// Adds `count` anonymous unit-area cells and returns the id of the
    /// first; ids are contiguous.
    ///
    /// This is the fast path used by the synthetic-workload generators,
    /// which create hundreds of thousands of cells.
    pub fn add_anonymous_cells(&mut self, count: usize) -> CellId {
        let first = CellId::new(self.cell_areas.len());
        self.cell_areas.resize(self.cell_areas.len() + count, 1.0);
        first
    }

    /// Adds a named net connecting `pins` and returns its id.
    ///
    /// Duplicate pins are removed; order of first occurrence is kept.
    ///
    /// # Panics
    ///
    /// Panics if a pin references a cell that has not been added.
    pub fn add_net(
        &mut self,
        name: impl Into<String>,
        pins: impl IntoIterator<Item = CellId>,
    ) -> NetId {
        let id = NetId::new(self.net_offsets.len() - 1);
        for pin in pins {
            assert!(
                pin.index() < self.cell_areas.len(),
                "net pin references cell {pin} but only {} cells exist",
                self.cell_areas.len()
            );
            self.push_pin(pin);
        }
        self.close_net();
        store_name(&mut self.net_names, id.index(), name.into());
        id
    }

    /// Appends `pin` to the open net, the pins pushed since the last net
    /// was closed, unless it is on it already. Unlike
    /// [`add_net`](Self::add_net) this does not check that the cell
    /// exists: the caller has range-checked it.
    #[inline]
    pub(crate) fn push_pin(&mut self, pin: CellId) {
        // Nets are short in practice (and huge nets are rarely duplicated),
        // so a linear dedup scan beats hashing for the common case.
        if !self.net_pins[self.open_net_start()..].contains(&pin) {
            self.net_pins.push(pin);
        }
    }

    /// Closes the open net as the next anonymous net.
    pub(crate) fn close_net(&mut self) {
        self.net_offsets.push(self.net_pins.len() as u32);
    }

    /// Drops the open net's pins.
    pub(crate) fn discard_open_net(&mut self) {
        self.net_pins.truncate(self.open_net_start());
    }

    /// Where the open net's pins begin in `net_pins`.
    fn open_net_start(&self) -> usize {
        self.net_offsets.last().map_or(0, |&offset| offset as usize)
    }

    /// Adds an anonymous net connecting `pins`.
    ///
    /// # Panics
    ///
    /// Panics if a pin references a cell that has not been added.
    pub fn add_anonymous_net(&mut self, pins: impl IntoIterator<Item = CellId>) -> NetId {
        self.add_net(String::new(), pins)
    }

    /// Finalizes the builder into an immutable [`Netlist`].
    ///
    /// Builds the reverse (cell → nets) CSR direction in `O(pins)`.
    ///
    /// # Panics
    ///
    /// Panics if the allocator refuses the reverse direction's arrays.
    pub fn finish(self) -> Netlist {
        self.try_finish().expect("the reverse CSR does not fit in memory")
    }

    /// [`finish`](Self::finish), or `None` when the allocator refuses the
    /// reverse direction's arrays: a reader turns a cell count no memory
    /// backs into an error instead of an abort.
    pub(crate) fn try_finish(self) -> Option<Netlist> {
        let num_cells = self.cell_areas.len();
        let num_nets = self.net_offsets.len() - 1;

        // Counting sort of pins by cell id, in `cell_offsets` alone: each
        // cell's pin count lands one slot past the cell, the prefix sum
        // turns the counts into row starts, the fill advances each row's
        // start as its cursor (leaving it at the next row's start), and
        // one shift puts the starts back.
        let mut cell_offsets: Vec<u32> = Vec::new();
        cell_offsets.try_reserve_exact(num_cells + 1).ok()?;
        cell_offsets.resize(num_cells + 1, 0);
        for pin in &self.net_pins {
            cell_offsets[pin.index() + 1] += 1;
        }
        for c in 0..num_cells {
            cell_offsets[c + 1] += cell_offsets[c];
        }
        let mut cell_pins = Vec::new();
        cell_pins.try_reserve_exact(self.net_pins.len()).ok()?;
        cell_pins.resize(self.net_pins.len(), NetId::default());
        for net in 0..num_nets {
            let lo = self.net_offsets[net] as usize;
            let hi = self.net_offsets[net + 1] as usize;
            for pin in &self.net_pins[lo..hi] {
                let slot = &mut cell_offsets[pin.index()];
                cell_pins[*slot as usize] = NetId::new(net);
                *slot += 1;
            }
        }
        cell_offsets.copy_within(..num_cells, 1);
        cell_offsets[0] = 0;

        Some(Netlist {
            cell_names: self.cell_names,
            net_names: self.net_names,
            cell_areas: self.cell_areas,
            net_offsets: self.net_offsets,
            net_pins: self.net_pins,
            cell_offsets,
            cell_pins,
        })
    }
}

/// Stores `name` for element `index` of a name table that holds names
/// only up to the last named element: an empty name is not stored, and a
/// non-empty one first pads the unnamed elements before it with empty
/// strings (which own no heap memory).
fn store_name(names: &mut Vec<String>, index: usize, name: String) {
    if !name.is_empty() {
        names.resize(index, String::new());
        names.push(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_pins() {
        let mut b = NetlistBuilder::new();
        let x = b.add_cell("x", 1.0);
        let y = b.add_cell("y", 1.0);
        let n = b.add_net("n", [x, y, x, y, x]);
        let nl = b.finish();
        assert_eq!(nl.net_cells(n), [x, y]);
    }

    #[test]
    fn anonymous_cells_are_contiguous() {
        let mut b = NetlistBuilder::new();
        let first = b.add_anonymous_cells(10);
        assert_eq!(first.index(), 0);
        assert_eq!(b.num_cells(), 10);
        let next = b.add_cell("named", 2.0);
        assert_eq!(next.index(), 10);
    }

    #[test]
    fn reverse_csr_is_sorted_by_net() {
        let mut b = NetlistBuilder::new();
        let c0 = b.add_anonymous_cells(3);
        let c1 = CellId::new(1);
        let c2 = CellId::new(2);
        b.add_anonymous_net([c0, c1]);
        b.add_anonymous_net([c1, c2]);
        b.add_anonymous_net([c0, c2]);
        let nl = b.finish();
        assert_eq!(nl.cell_nets(c0), [NetId::new(0), NetId::new(2)]);
        assert_eq!(nl.cell_nets(c1), [NetId::new(0), NetId::new(1)]);
        nl.validate().unwrap();
    }

    #[test]
    fn empty_net_allowed() {
        let mut b = NetlistBuilder::new();
        b.add_anonymous_cells(1);
        let n = b.add_anonymous_net([]);
        let nl = b.finish();
        assert_eq!(nl.net_degree(n), 0);
        nl.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "references cell")]
    fn dangling_pin_panics() {
        let mut b = NetlistBuilder::new();
        b.add_net("bad", [CellId::new(0)]);
    }

    #[test]
    fn capacity_constructor() {
        let b = NetlistBuilder::with_capacity(100, 50);
        assert_eq!(b.num_cells(), 0);
        assert_eq!(b.num_nets(), 0);
    }

    #[test]
    fn an_hgr_netlist_holds_no_name_storage() {
        let nl = crate::hgr::parse_str("3 4\n1 2\n2 3 4\n4 1\n").unwrap();
        assert_eq!((nl.num_cells(), nl.num_nets()), (4, 3));
        assert_eq!((nl.cell_names.capacity(), nl.net_names.capacity()), (0, 0));
        assert_eq!(nl.cell_name(CellId::new(3)), "");
        assert_eq!(nl.net_name(NetId::new(2)), "");
        assert_eq!(nl.find_cell(""), Some(CellId::new(0)));
        nl.validate().unwrap();
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The reverse CSR built in place lists, for every cell, exactly
        /// the nets holding it in ascending net order, with row starts
        /// from 0 to the pin count: on random designs with isolated
        /// cells, empty nets and pins listed twice.
        #[test]
        fn reverse_csr_matches_a_scan_of_the_nets(
            cells in 0usize..40,
            nets in proptest::collection::vec(proptest::collection::vec(0usize..40, 0..6), 0..30),
        ) {
            let mut b = NetlistBuilder::new();
            b.add_anonymous_cells(cells);
            for pins in &nets {
                b.add_anonymous_net(pins.iter().filter(|&&p| p < cells).map(|&p| CellId::new(p)));
            }
            let nl = b.finish();
            prop_assert_eq!(nl.cell_offsets.first().copied(), Some(0));
            prop_assert_eq!(*nl.cell_offsets.last().unwrap() as usize, nl.num_pins());
            for cell in nl.cells() {
                let want: Vec<NetId> =
                    nl.nets().filter(|&net| nl.net_cells(net).contains(&cell)).collect();
                prop_assert_eq!(nl.cell_nets(cell), &want[..]);
            }
            nl.validate().unwrap();
        }
    }

    /// One builder call of the name-storage property below.
    #[derive(Debug, Clone)]
    enum Op {
        NamedCell(usize),
        EmptyNamedCell,
        AnonymousCell,
        AnonymousCells(usize),
        NamedNet(usize),
        AnonymousNet,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0usize..6, 0usize..4).prop_map(|(kind, n)| match kind {
            0 => Op::NamedCell(n),
            1 => Op::EmptyNamedCell,
            2 => Op::AnonymousCell,
            3 => Op::AnonymousCells(n),
            4 => Op::NamedNet(n),
            _ => Op::AnonymousNet,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever the interleaving of named, empty-named and anonymous
        /// cells and nets, the stored names answer `cell_name`,
        /// `net_name` and `find_cell` exactly like one `String` per
        /// element would.
        #[test]
        fn names_match_a_one_string_per_element_model(
            ops in proptest::collection::vec(op(), 0..40),
        ) {
            let mut b = NetlistBuilder::new();
            let mut cells: Vec<String> = Vec::new();
            let mut nets: Vec<String> = Vec::new();
            for op in ops {
                match op {
                    Op::NamedCell(n) => {
                        b.add_cell(format!("c{n}"), 1.0);
                        cells.push(format!("c{n}"));
                    }
                    Op::EmptyNamedCell => {
                        b.add_cell("", 1.0);
                        cells.push(String::new());
                    }
                    Op::AnonymousCell => {
                        b.add_anonymous_cell(1.0);
                        cells.push(String::new());
                    }
                    Op::AnonymousCells(count) => {
                        b.add_anonymous_cells(count);
                        cells.resize(cells.len() + count, String::new());
                    }
                    Op::NamedNet(n) => {
                        b.add_net(format!("n{n}"), []);
                        nets.push(format!("n{n}"));
                    }
                    Op::AnonymousNet => {
                        b.add_anonymous_net([]);
                        nets.push(String::new());
                    }
                }
            }
            let nl = b.finish();
            nl.validate().unwrap();
            prop_assert_eq!(nl.num_cells(), cells.len());
            prop_assert_eq!(nl.num_nets(), nets.len());
            for (i, name) in cells.iter().enumerate() {
                prop_assert_eq!(nl.cell_name(CellId::new(i)), name.as_str());
            }
            for (i, name) in nets.iter().enumerate() {
                prop_assert_eq!(nl.net_name(NetId::new(i)), name.as_str());
            }
            let probes = ["", "c0", "c1", "c2", "c3", "n0", "absent"];
            for probe in probes {
                let model = cells.iter().position(|n| n == probe).map(CellId::new);
                prop_assert_eq!(nl.find_cell(probe), model, "find_cell({:?})", probe);
            }
        }
    }
}
