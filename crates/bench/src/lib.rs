//! Shared experiment harness for the TGOpt reproduction.
//!
//! The `exp` binary regenerates every table and figure of the paper and
//! checks their shapes (see DESIGN.md's per-experiment index); `ledger` is
//! the perf ledger, and `datagen` and `train` mirror the original artifact's
//! scripts. This library holds what they share: flag parsing, the inference
//! replay loop, and plain-text table rendering.

pub mod args;
pub mod harness;
pub mod table;

pub use args::ExpArgs;
pub use harness::{replay, BatchRecord, RunResult};
