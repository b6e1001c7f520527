//! **TGOpt** — redundancy-aware optimizations for TGAT inference
//! (Wang & Mendis, PPoPP 2023).
//!
//! TGOpt is the TGAT inference recursion with three classes of redundant
//! work removed, each behind its own switch; with every switch off
//! ([`OptConfig::none`]) it *is* the baseline, and with any combination on it
//! produces the same embeddings within floating-point tolerance:
//!
//! 1. **Deduplication** ([`dedup`]) — batched edges expand into `(node, time)`
//!    target pairs with heavy duplication (Table 1 reports up to 96% per
//!    batch); a joint hash-filter over the node and timestamp arrays computes
//!    unique targets plus an inverse index, without materializing a 2-D
//!    intermediate (Algorithm 2).
//! 2. **Memoization** ([`cache`]) — under most-recent sampling, the same
//!    `(node, time)` target always induces the same temporal subgraph
//!    (§3.2), so computed embeddings are cached behind a collision-free
//!    64-bit key ([`hash`]) with a FIFO-evicted, memory-limited store
//!    (Algorithm 3).
//! 3. **Time-encoding precomputation** ([`timecache`]) — time deltas cluster
//!    near zero (§3.3), so `Phi(dt)` is precomputed for a dense window of
//!    deltas starting at 0, and `Phi(0)` (always used for the target side)
//!    is computed once.
//!
//! A fourth, beyond the paper: **edge projection** ([`edgeproj`]) — at
//! layer 1 over featureless nodes, each edge's features are multiplied by
//! the K/V weights once and kept in a shared table, not once per sample,
//! with the same bits.
//!
//! [`engine::TgoptEngine`] assembles these into Algorithm 1. Each
//! optimization can be toggled independently via [`config::OptConfig`] for
//! the ablation study (Figure 6); the independent oracle every configuration
//! is checked against is `tgat::train::forward_embeddings`, the autograd-tape
//! forward. [`devicesim`] converts the engine's cache
//! traffic counters into host/device transfer costs, reproducing the cache
//! storage-placement analysis (Table 5) without a GPU.

pub mod cache;
pub mod config;
pub mod dedup;
pub mod devicesim;
pub mod edgeproj;
pub mod engine;
pub mod fingerprint;
pub mod hash;
pub mod persist;
pub mod timecache;
pub mod train;

pub use cache::{EmbedCache, LayerCaches};
pub use config::OptConfig;
pub use dedup::{dedup_filter, dedup_invert, DedupResult};
pub use edgeproj::{EdgeProjStats, EdgeProjTable};
pub use engine::{EngineCounters, TgoptEngine};
pub use hash::{pack_key, unpack_key};
pub use timecache::TimeCache;
