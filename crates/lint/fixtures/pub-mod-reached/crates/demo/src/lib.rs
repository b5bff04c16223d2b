//! One public module a sibling reaches, one that nothing reaches.

#![forbid(unsafe_code)]

mod user;

pub mod orphan;
pub mod reached;
