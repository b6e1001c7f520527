//! Shared experiment harness for the TGOpt reproduction.
//!
//! Each `src/bin/exp_*.rs` binary regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index); this library holds the
//! pieces they share: CLI parsing, the inference replay loop, and plain-text
//! table/series rendering.

pub mod args;
pub mod csv;
pub mod harness;
pub mod table;

pub use args::ExpArgs;
pub use harness::{replay, BatchRecord, RunResult};
