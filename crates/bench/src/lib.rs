//! Shared infrastructure for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the DAC
//! 2010 paper (the README's "Build, test, bench" section lists them).
//! This library holds the pieces they share: ASCII table rendering, CSV
//! series output, PGM heatmaps, and a tiny argument parser.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod report;
pub mod trend;

use std::path::{Path, PathBuf};

/// Environment variable overriding where bench artifacts are written
/// (takes precedence over [`RESULTS_DIR`]).
pub const RESULTS_DIR_ENV: &str = "GTL_RESULTS_DIR";

/// Where bench artifacts land, relative to the workspace root — **the**
/// results location: the reproduction binaries, the benches and CI all
/// resolve through [`results_dir`], so there is exactly one place
/// artifacts can end up regardless of the invoking directory
/// (`cargo bench` runs with the crate as cwd, the binaries with the
/// workspace root; both used to disagree).
pub const RESULTS_DIR: &str = "results";

/// Directory where binaries and benches drop CSV/PGM/JSON artifacts:
/// `$GTL_RESULTS_DIR` when set, else [`RESULTS_DIR`] under the workspace
/// root (located from this crate's manifest, so the answer does not
/// depend on the current directory). Created on first use; falls back to
/// the current directory only if creation fails.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os(RESULTS_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(RESULTS_DIR));
    if std::fs::create_dir_all(&dir).is_ok() {
        dir
    } else {
        PathBuf::from(".")
    }
}
