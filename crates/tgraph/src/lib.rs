//! Continuous-time dynamic graph (CTDG) storage and temporal sampling.
//!
//! A CTDG is a stream of timestamped edge interactions (paper §2). This
//! crate provides:
//!
//! * [`EdgeStream`] — the raw chronological interaction list a dataset
//!   produces and a model consumes in batches.
//! * [`TemporalGraph`] — one immutable time-sorted CSR adjacency ("T-CSR",
//!   after TGL). One stable merge builds it from a stream or from edges in
//!   any order ([`TemporalGraph::from_edges`]) and compacts a live graph's
//!   appends into a new one, logging each so a memoized row can be checked
//!   against what changed since ([`Versioned`]).
//! * [`LiveGraph`] — the one way to change a graph: an append-friendly
//!   delta-log beside an immutable T-CSR with periodic compaction, serving
//!   epoch-stamped [`GraphView`] snapshots to concurrent readers. Edges
//!   are only ever added; nothing deletes one.
//! * [`sampler`] — most-recent and uniform temporal neighborhood
//!   samplers upholding the temporal constraint `t_j < t`, generic over
//!   frozen graphs and live views via [`HistorySource`].
//! * [`batch`] — fixed-size chronological batch iteration (batch size 200 in
//!   the paper's inference task).
//!
//! Node ids are `u32` and timestamps `f32`, matching the 32-bit values the
//! paper's collision-free 64-bit hash packs together (§4.1).

pub mod batch;
pub mod graph;
pub mod live;
pub mod sampler;
pub mod stream;

pub use batch::{BatchIter, EdgeBatch};
pub use graph::TemporalGraph;
pub use live::{GraphView, IngestStats, LiveGraph};
pub use sampler::{
    HistorySource, NeighborhoodBatch, SamplingStrategy, TemporalSampler, Versioned, INVALID_EDGE,
};
pub use stream::{Edge, EdgeStream};

/// Node identifier (32-bit, per the paper's key-packing scheme).
pub type NodeId = u32;
/// Edge identifier, used to index edge feature rows.
pub type EdgeId = u32;
/// Event timestamp (32-bit float, as in the reference implementation).
pub type Time = f32;
