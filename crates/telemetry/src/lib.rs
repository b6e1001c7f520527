//! `tg-telemetry`: the workspace's one observability layer.
//!
//! Three pieces, threaded through the whole inference stack:
//!
//! - [`Recorder`] — scoped per-stage spans reproducing the rows of paper
//!   Table 3 (sample / dedup / hash / time-encode / attention / cache
//!   traffic). `Option`-gated: a disabled recorder makes **zero** clock
//!   reads, so production inference pays nothing.
//! - [`LatencyHistogram`] — a lock-free log2-bucketed histogram (fixed
//!   64×u64 memory, atomic increments, mergeable) for *online* p50/p95/p99
//!   without retaining per-request samples.
//! - [`TelemetrySnapshot`] — engine counters, serving counters, embedding
//!   cache and time cache accounting, stage breakdown, and latency
//!   distributions unified into one serde-serializable struct with a
//!   stable JSON schema ([`SCHEMA_VERSION`], guarded by a golden-file test
//!   in CI).
//!
//! The crate sits at the bottom of the dependency graph (serde shim only);
//! `tgat`, `tgopt`, `tg-serve`, and `tg-bench` convert their native
//! counter types into the plain structs defined here.

mod hist;
mod snapshot;
mod span;

pub use hist::{HistogramSnapshot, LatencyHistogram, NUM_BUCKETS};
pub use snapshot::{
    schema_paths, EmbedCacheTelemetry, EngineTelemetry, IngestTelemetry, LatencyTelemetry,
    LayerSweepTelemetry, ServeTelemetry, TelemetrySnapshot, TimeCacheTelemetry, SCHEMA_VERSION,
};
pub use span::{OpKind, Recorder, StageSpan};
