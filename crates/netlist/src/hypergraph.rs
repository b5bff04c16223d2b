//! The immutable CSR hypergraph at the heart of the crate.

use crate::{CellId, NetId, NetlistError};

/// An immutable hypergraph netlist.
///
/// Cells (vertices) are connected by nets (hyperedges). Both directions of
/// the incidence relation are stored in compressed sparse row (CSR) form so
/// that `cell → nets` and `net → cells` lookups are contiguous slices.
///
/// A *pin* is one `(cell, net)` incidence; pins are deduplicated, so a cell
/// appears at most once on a net. The paper's quantities map directly:
/// `A(G)` is [`Netlist::avg_pins_per_cell`], the degree of a cell is its pin
/// count, and the degree of a net is the number of cells it connects.
///
/// Construct with [`NetlistBuilder`](crate::NetlistBuilder); the structure
/// itself is immutable except for cell areas (which the cell-inflation flow
/// of the paper's §5.1.3 mutates via [`Netlist::set_cell_area`]).
///
/// Cell and net names are stored only up to the last named element; every
/// element past that point is unnamed, and [`Netlist::cell_name`] /
/// [`Netlist::net_name`] answer `""` for it without storing anything.
///
/// # Example
///
/// ```
/// use gtl_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let a = b.add_cell("a", 1.0);
/// let c = b.add_cell("b", 1.0);
/// let n = b.add_net("n", [a, c]);
/// let nl = b.finish();
/// assert_eq!(nl.net_cells(n), [a, c]);
/// assert_eq!(nl.cell_nets(a), [n]);
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Netlist {
    /// Names of cells `0..cell_names.len()`; later cells are unnamed.
    pub(crate) cell_names: Vec<String>,
    /// Names of nets `0..net_names.len()`; later nets are unnamed.
    pub(crate) net_names: Vec<String>,
    pub(crate) cell_areas: Vec<f64>,
    /// CSR offsets into `net_pins` (length `num_nets + 1`).
    pub(crate) net_offsets: Vec<u32>,
    /// Concatenated pin lists of every net.
    pub(crate) net_pins: Vec<CellId>,
    /// CSR offsets into `cell_pins` (length `num_cells + 1`).
    pub(crate) cell_offsets: Vec<u32>,
    /// Concatenated net lists of every cell.
    pub(crate) cell_pins: Vec<NetId>,
}

impl Netlist {
    /// Number of cells in the netlist.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cell_areas.len()
    }

    /// Number of nets in the netlist.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.net_offsets.len() - 1
    }

    /// Total number of pins (cell–net incidences).
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// Average pins per cell, the paper's `A(G)`.
    ///
    /// Returns `0.0` for an empty netlist.
    #[inline]
    pub fn avg_pins_per_cell(&self) -> f64 {
        if self.num_cells() == 0 {
            0.0
        } else {
            self.num_pins() as f64 / self.num_cells() as f64
        }
    }

    /// Cells connected by `net`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds.
    #[inline]
    pub fn net_cells(&self, net: NetId) -> &[CellId] {
        let lo = self.net_offsets[net.index()] as usize;
        let hi = self.net_offsets[net.index() + 1] as usize;
        &self.net_pins[lo..hi]
    }

    /// Nets incident to `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    #[inline]
    pub fn cell_nets(&self, cell: CellId) -> &[NetId] {
        let lo = self.cell_offsets[cell.index()] as usize;
        let hi = self.cell_offsets[cell.index() + 1] as usize;
        &self.cell_pins[lo..hi]
    }

    /// Number of pins on `cell` (its hypergraph degree).
    #[inline]
    pub fn cell_degree(&self, cell: CellId) -> usize {
        self.cell_nets(cell).len()
    }

    /// Number of pins on `net` (its hyperedge cardinality `|e|`).
    #[inline]
    pub fn net_degree(&self, net: NetId) -> usize {
        self.net_cells(net).len()
    }

    /// Area of `cell` in site units.
    #[inline]
    pub fn cell_area(&self, cell: CellId) -> f64 {
        self.cell_areas[cell.index()]
    }

    /// Overwrites the area of `cell` (used by the cell-inflation flow).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds or `area` is not finite and positive.
    pub fn set_cell_area(&mut self, cell: CellId, area: f64) {
        assert!(area.is_finite() && area > 0.0, "cell area must be finite and positive");
        self.cell_areas[cell.index()] = area;
    }

    /// Total cell area of the design.
    pub fn total_cell_area(&self) -> f64 {
        self.cell_areas.iter().sum()
    }

    /// Name of `cell`; empty string if the cell was added unnamed.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of bounds.
    #[inline]
    pub fn cell_name(&self, cell: CellId) -> &str {
        stored_name(&self.cell_names, cell.index(), self.num_cells())
    }

    /// Name of `net`; empty string if the net was added unnamed.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds.
    #[inline]
    pub fn net_name(&self, net: NetId) -> &str {
        stored_name(&self.net_names, net.index(), self.num_nets())
    }

    /// Looks up a cell by name with a linear scan; the first match wins,
    /// so `""` finds the first unnamed cell.
    ///
    /// Intended for tests and small designs; build an external map for bulk
    /// lookups.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        let stored = self.cell_names.iter().position(|n| n == name);
        // Every cell past the stored names is unnamed.
        let unstored = || {
            let first = self.cell_names.len();
            (name.is_empty() && first < self.num_cells()).then_some(first)
        };
        stored.or_else(unstored).map(CellId::new)
    }

    /// Iterator over all cell ids, `0..num_cells`.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = CellId> + Clone {
        (0..self.num_cells() as u32).map(CellId::from)
    }

    /// Iterator over all net ids, `0..num_nets`.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetId> + Clone {
        (0..self.num_nets() as u32).map(NetId::from)
    }

    /// Checks a cell id is in range, returning it or an error.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::IndexOutOfBounds`] when `cell` is out of
    /// range.
    pub fn check_cell(&self, cell: CellId) -> Result<CellId, NetlistError> {
        if cell.index() < self.num_cells() {
            Ok(cell)
        } else {
            Err(NetlistError::IndexOutOfBounds {
                what: format!("cell {} of {}", cell.index(), self.num_cells()),
            })
        }
    }

    /// Structural invariant check used by tests and fuzzing.
    ///
    /// Verifies the two CSR directions are mutually consistent: every pin
    /// appears exactly once in each direction and ids are in range. Cost is
    /// `O(pins)`.
    pub fn validate(&self) -> Result<(), String> {
        if self.cell_offsets.len() != self.num_cells() + 1 {
            return Err("cell offset table has wrong length".into());
        }
        if *self.cell_offsets.last().unwrap() as usize != self.cell_pins.len() {
            return Err("cell offsets do not cover cell_pins".into());
        }
        if *self.net_offsets.last().unwrap() as usize != self.net_pins.len() {
            return Err("net offsets do not cover net_pins".into());
        }
        if self.net_pins.len() != self.cell_pins.len() {
            return Err("pin count mismatch between directions".into());
        }
        if self.cell_names.len() > self.num_cells() || self.net_names.len() > self.num_nets() {
            return Err("more names than named elements".into());
        }
        let mut seen = std::collections::HashSet::with_capacity(self.num_pins());
        for net in self.nets() {
            for &cell in self.net_cells(net) {
                if cell.index() >= self.num_cells() {
                    return Err(format!("net {net} references out-of-range {cell}"));
                }
                if !seen.insert((cell, net)) {
                    return Err(format!("duplicate pin ({cell}, {net})"));
                }
            }
        }
        for cell in self.cells() {
            for &net in self.cell_nets(cell) {
                if net.index() >= self.num_nets() {
                    return Err(format!("cell {cell} references out-of-range {net}"));
                }
                if !seen.remove(&(cell, net)) {
                    return Err(format!("pin ({cell}, {net}) missing in net direction"));
                }
            }
        }
        if !seen.is_empty() {
            return Err(format!("{} pins missing in cell direction", seen.len()));
        }
        Ok(())
    }
}

/// Name `index` of `len` elements whose names are stored only up to the
/// last named one.
#[inline]
fn stored_name(names: &[String], index: usize, len: usize) -> &str {
    assert!(index < len, "index {index} out of bounds for {len} elements");
    names.get(index).map_or("", String::as_str)
}

#[cfg(test)]
mod tests {
    use crate::NetlistBuilder;

    fn diamond() -> crate::Netlist {
        // a--n0--b, a--n1--c, {b,c,d} on n2
        let mut b = NetlistBuilder::new();
        let ca = b.add_cell("a", 1.0);
        let cb = b.add_cell("b", 1.0);
        let cc = b.add_cell("c", 1.5);
        let cd = b.add_cell("d", 2.0);
        b.add_net("n0", [ca, cb]);
        b.add_net("n1", [ca, cc]);
        b.add_net("n2", [cb, cc, cd]);
        b.finish()
    }

    #[test]
    fn basic_counts() {
        let nl = diamond();
        assert_eq!(nl.num_cells(), 4);
        assert_eq!(nl.num_nets(), 3);
        assert_eq!(nl.num_pins(), 7);
        assert!((nl.avg_pins_per_cell() - 7.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn csr_directions_agree() {
        let nl = diamond();
        nl.validate().unwrap();
    }

    #[test]
    fn degrees() {
        let nl = diamond();
        let a = nl.find_cell("a").unwrap();
        let d = nl.find_cell("d").unwrap();
        assert_eq!(nl.cell_degree(a), 2);
        assert_eq!(nl.cell_degree(d), 1);
        assert_eq!(nl.net_degree(crate::NetId::new(2)), 3);
    }

    #[test]
    fn areas_mutable() {
        let mut nl = diamond();
        let d = nl.find_cell("d").unwrap();
        assert_eq!(nl.cell_area(d), 2.0);
        nl.set_cell_area(d, 8.0);
        assert_eq!(nl.cell_area(d), 8.0);
        assert!((nl.total_cell_area() - (1.0 + 1.0 + 1.5 + 8.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn negative_area_rejected() {
        let mut nl = diamond();
        nl.set_cell_area(crate::CellId::new(0), -1.0);
    }

    #[test]
    fn names_and_lookup() {
        let nl = diamond();
        assert_eq!(nl.cell_name(crate::CellId::new(2)), "c");
        assert_eq!(nl.net_name(crate::NetId::new(1)), "n1");
        assert!(nl.find_cell("zz").is_none());
    }

    #[test]
    fn check_cell_bounds() {
        let nl = diamond();
        assert!(nl.check_cell(crate::CellId::new(3)).is_ok());
        assert!(nl.check_cell(crate::CellId::new(4)).is_err());
    }

    #[test]
    fn empty_netlist() {
        let nl = NetlistBuilder::new().finish();
        assert_eq!(nl.num_cells(), 0);
        assert_eq!(nl.num_nets(), 0);
        assert_eq!(nl.avg_pins_per_cell(), 0.0);
        nl.validate().unwrap();
    }
}
