//! TGOpt optimization settings.

use serde::{Deserialize, Serialize};

/// Which optimizations are active and how the reuse structures are sized.
///
/// The ablation study (Figure 6) enables one optimization at a time via
/// [`OptConfig::cache_only`], [`OptConfig::cache_dedup`], and
/// [`OptConfig::all`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OptConfig {
    /// §4.1 deduplication of batched targets.
    pub enable_dedup: bool,
    /// §4.2 embedding memoization.
    pub enable_cache: bool,
    /// §4.3 precomputed time encodings.
    pub enable_time_precompute: bool,
    /// Layer-1 attention reads each edge's projection `e · W[e-rows]` from
    /// a shared table instead of multiplying the edge row once per sample
    /// (DESIGN.md "Edge projection"). Applied only when the node-feature
    /// table is all zero; the result is bit-identical either way.
    pub enable_edge_proj: bool,
    /// Maximum cached embeddings (paper default 2M, ≈ <1 GiB at 100 dims).
    pub cache_limit: usize,
    /// Precomputed time-encoding window (paper default 10,000).
    pub time_window: usize,
    /// The paper's switch for a `CacheLookup` parallel across keys (on for
    /// both machines in §5.1.3). Ignored: the engine's width, not a flag,
    /// decides what runs on more than one core — each layer's sample and
    /// `Φ(dt)` encode, and attention — and the lookup stays one loop on
    /// the caller (DESIGN.md "Fan-out"). The perf ledger's probe still
    /// reads it; ROADMAP 5(f) deletes it.
    pub parallel_lookup: bool,
    /// The paper's switch for a parallel `CacheStore` (GPU host only).
    /// Ignored like [`OptConfig::parallel_lookup`].
    pub parallel_store: bool,
    /// Also cache the final layer's embeddings. Off by default: `H^(L)` is
    /// never an input to another computation, so skipping it reduces memory
    /// (§4.2.2) at a negligible reuse cost.
    pub cache_last_layer: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self::all()
    }
}

impl OptConfig {
    /// Everything on — the TGOpt side of every baseline-vs-TGOpt benchmark.
    pub fn all() -> Self {
        Self {
            enable_dedup: true,
            enable_cache: true,
            enable_time_precompute: true,
            enable_edge_proj: true,
            cache_limit: 2_000_000,
            time_window: 10_000,
            parallel_lookup: true,
            parallel_store: false,
            cache_last_layer: false,
        }
    }

    /// Everything off — the paper's baseline: the unchanged TGAT recursion
    /// (Fig. 5's denominator and the first bar of the Fig. 6 ablation).
    pub fn none() -> Self {
        Self {
            enable_dedup: false,
            enable_cache: false,
            enable_time_precompute: false,
            enable_edge_proj: false,
            cache_limit: 2_000_000,
            time_window: 10_000,
            parallel_lookup: false,
            parallel_store: false,
            cache_last_layer: false,
        }
    }

    /// Ablation stage 1: memoization only.
    pub fn cache_only() -> Self {
        Self { enable_dedup: false, ..Self::cache_dedup() }
    }

    /// Ablation stage 2: memoization + deduplication. Stage 3 adds the time
    /// window (the paper's `all`), stage 4 the edge projection ([`Self::all`]).
    pub fn cache_dedup() -> Self {
        Self { enable_time_precompute: false, enable_edge_proj: false, ..Self::all() }
    }

    /// Builder-style cache limit override (Table 4 sweep).
    pub fn with_cache_limit(mut self, limit: usize) -> Self {
        self.cache_limit = limit;
        self
    }

    /// Builder-style time window override.
    pub fn with_time_window(mut self, window: usize) -> Self {
        self.time_window = window;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_ablation_stages() {
        let all = OptConfig::all();
        assert!(all.enable_dedup && all.enable_cache && all.enable_time_precompute && all.enable_edge_proj);
        assert_eq!(all.cache_limit, 2_000_000);
        assert_eq!(all.time_window, 10_000);

        // Each stage adds exactly one switch to the one before it.
        let c = OptConfig::cache_only();
        assert!(c.enable_cache && !c.enable_dedup && !c.enable_time_precompute && !c.enable_edge_proj);

        let cd = OptConfig::cache_dedup();
        assert_eq!(cd, OptConfig { enable_dedup: true, ..c });

        let time = OptConfig { enable_time_precompute: true, ..cd };
        assert_eq!(all, OptConfig { enable_edge_proj: true, ..time });

        let none = OptConfig::none();
        assert!(!none.enable_cache && !none.enable_dedup && !none.enable_time_precompute && !none.enable_edge_proj);
    }

    #[test]
    fn builders_override() {
        let c = OptConfig::all().with_cache_limit(10).with_time_window(5);
        assert_eq!(c.cache_limit, 10);
        assert_eq!(c.time_window, 5);
    }

    #[test]
    fn default_is_all() {
        assert_eq!(OptConfig::default(), OptConfig::all());
    }
}
