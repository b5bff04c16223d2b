//! Hypergraph netlist substrate for tangled-logic detection.
//!
//! This crate provides the data model shared by every other crate in the
//! workspace: a compact, immutable [`Netlist`] hypergraph (cells connected by
//! multi-pin nets, stored in CSR form), a [`NetlistBuilder`] for incremental
//! construction, design statistics ([`NetlistStats`]), and hand-written
//! parsers/writers for the file formats the DAC 2010 paper's evaluation
//! relies on:
//!
//! * [`bookshelf`] — the ISPD 2005/2006 placement-benchmark format
//!   (`.aux`, `.nodes`, `.nets`, `.pl`, `.scl`),
//! * [`verilog`] — a structural gate-level Verilog subset, the realistic
//!   ingest path for synthesized netlists,
//! * [`hgr`] — hMETIS-style plain hypergraph files, convenient for test
//!   fixtures and interchange.
//!
//! The Bookshelf and hgr readers stream through the bounded line buffer
//! in [`stream`], so multi-million-cell designs parse in memory
//! proportional to the netlist, never the file.
//!
//! # Example
//!
//! ```
//! use gtl_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new();
//! let a = b.add_cell("a", 1.0);
//! let c = b.add_cell("c", 1.0);
//! let d = b.add_cell("d", 2.0);
//! b.add_net("n1", [a, c]);
//! b.add_net("n2", [a, c, d]);
//! let netlist = b.finish();
//!
//! assert_eq!(netlist.num_cells(), 3);
//! assert_eq!(netlist.num_nets(), 2);
//! assert_eq!(netlist.num_pins(), 5);
//! assert_eq!(netlist.cell_degree(a), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod hypergraph;
mod ids;
mod stats;
mod subset;

pub mod bookshelf;
pub mod hgr;
pub mod stream;
pub mod verilog;

pub use builder::NetlistBuilder;
pub use error::{NetlistError, ParseContext};
pub use hypergraph::Netlist;
pub use ids::{CellId, NetId};
pub use stats::{DegreeHistogram, NetlistStats};
pub use subset::{CellSet, SubsetStats};
