//! `gtl-lint` — the workspace's standing invariants as code.
//!
//! The ROADMAP invariants that every PR in this repo must preserve —
//! determinism of the compute crates, boundedness of the serve path,
//! and wire-format stability of the API — live here as named,
//! machine-checked rules instead of prose. The pass is a hand-rolled
//! lexer (no `syn`; the build is offline) plus a token-pattern rule
//! engine; it runs over every `.rs` file in the workspace as a
//! first-class CI gate:
//!
//! ```text
//! cargo run -p gtl-lint -- --workspace
//! ```
//!
//! Launch rules (see [`rules::RULES`]):
//!
//! * `no-raw-thread` — all fan-out goes through `gtl_core::exec`.
//! * `no-wallclock-in-compute` — compute crates never read clocks;
//!   deadlines arrive only via `CancelToken` checkpoints.
//! * `no-unordered-iteration-in-compute` — no iterating
//!   `HashMap`/`HashSet` where results depend on order.
//! * `no-rng-outside-derive-stream` — per-item RNG streams only.
//! * `no-panic-on-serve-path` — `runtime`/`api`/`cli` sources return
//!   structured errors, never panic.
//! * `forbid-unsafe-attr` — unsafe-free crates pin it with
//!   `#![forbid(unsafe_code)]`.
//! * `wire-surface-freeze` — the pub surface of
//!   `crates/api/src/types.rs` matches the committed fingerprint at
//!   `tests/golden/api_surface.fp`; drift requires an `API_VERSION`
//!   bump and a `GTL_BLESS=1` re-bless.
//! * `pub-mod-reached` — every `pub mod` of a library crate is named by
//!   live code outside its own file, so unreached modules cannot pile up.
//!
//! Exceptions are **inline waivers** with a mandatory reason —
//! `// gtl-lint: allow(<rule>, reason = "...")` — counted, reported,
//! and themselves linted (see [`waiver`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod rules;
pub mod surface;
pub mod waiver;
pub mod zones;

/// One rule violation at a source line. The engine attaches the file.
#[derive(Debug, Clone)]
pub struct Violation {
    /// 1-based source line.
    pub line: u32,
    /// Name of the violated rule (a member of [`rules::RULES`], or the
    /// synthetic `waiver-syntax`).
    pub rule: &'static str,
    /// Human-oriented explanation, including the fix direction.
    pub message: String,
}
