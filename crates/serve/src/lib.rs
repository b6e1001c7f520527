//! `tg-serve` — the micro-batching serving layer over the TGOpt engine.
//!
//! The engine's §3.1 dedup only exploits duplicates *within* a
//! caller-provided batch. This crate adds the layer that makes such
//! batches exist in the first place: client handles submit individual
//! `(node, time)` queries into a bounded admission queue, each worker of
//! the pool pops whatever is queued (up to a size threshold) as one
//! micro-batch — a lone request is served at once, and batches grow by
//! themselves while every worker is busy — cross-request deduplication
//! collapses hot targets *across* callers on top of the engine's own
//! dedup, the worker runs [`tgopt::TgoptEngine::embed_batch`] over one
//! shared memoization cache, and per-row results scatter back to each
//! waiter in submission order.
//!
//! Robustness is part of the contract, not an afterthought:
//!
//! * **Backpressure** — the admission queue is bounded; a full queue
//!   rejects with [`tg_error::TgError::Overloaded`] instead of blocking or
//!   growing without limit.
//! * **Deadlines** — each request may carry a deadline; expired requests
//!   complete with [`tg_error::TgError::DeadlineExceeded`], never a stale
//!   or partial tensor.
//! * **No hung tickets** — an admitted request whose wave is dropped
//!   unserved (a worker panic) completes with
//!   [`tg_error::TgError::Abandoned`] instead of blocking its waiter.
//! * **Degraded mode** — when the cache payload exceeds a configured
//!   memory budget, batches run with stores skipped (the engine keeps
//!   reading the cache and keeps returning exact results) instead of
//!   failing requests.
//!
//! Semantics preservation is testable end to end: embeddings served
//! through this layer equal a direct `embed_batch` call within 1e-5, the
//! same oracle the paper uses for the engine itself (§5.1.3). The
//! deterministic single-threaded mode ([`TgServer::deterministic`] +
//! [`TgServer::drain`]) makes every scheduling decision reproducible so
//! property tests can replay arbitrary interleavings.

// Slice indexing can panic; served code reads with `.get`, `.first` or
// iterators instead (the rest of the panic rule is the workspace lints').
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub mod batch;
pub mod queue;
pub mod request;
pub mod server;
pub mod stats;

pub use batch::{coalesce, CoalescePlan};
pub use queue::BoundedQueue;
pub use request::{Request, Ticket};
pub use server::{ModelBundle, ServeConfig, TgServer};
pub use stats::{ServeCounters, ServeStats};

use std::sync::{LockResult, MutexGuard};

/// Recovers a guard from a poisoned `std::sync` lock. Poisoning only
/// records that a holder panicked; every critical section in this crate
/// leaves its state consistent at each await point, so recovery is safe
/// and keeps the serving loop panic-free (repo lint L1).
pub(crate) fn relock<T>(r: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    r.unwrap_or_else(|poisoned| poisoned.into_inner())
}
