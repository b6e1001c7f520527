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
    /// Maximum cached embeddings (paper default 2M, ≈ <1 GiB at 100 dims).
    pub cache_limit: usize,
    /// Precomputed time-encoding window (paper default 10,000).
    pub time_window: usize,
    /// Parallelize `CacheLookup` across keys (on for both machines in §5.1.3).
    pub parallel_lookup: bool,
    /// Parallelize `CacheStore` (the paper enables this only on the GPU
    /// host to spread work across its slower cores).
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
    /// Everything on — the configuration `--opt-all` benchmarks.
    pub fn all() -> Self {
        Self {
            enable_dedup: true,
            enable_cache: true,
            enable_time_precompute: true,
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
            cache_limit: 2_000_000,
            time_window: 10_000,
            parallel_lookup: false,
            parallel_store: false,
            cache_last_layer: false,
        }
    }

    /// Ablation stage 1: memoization only.
    pub fn cache_only() -> Self {
        Self { enable_dedup: false, enable_time_precompute: false, ..Self::all() }
    }

    /// Ablation stage 2: memoization + deduplication.
    pub fn cache_dedup() -> Self {
        Self { enable_time_precompute: false, ..Self::all() }
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
        assert!(all.enable_dedup && all.enable_cache && all.enable_time_precompute);
        assert_eq!(all.cache_limit, 2_000_000);
        assert_eq!(all.time_window, 10_000);

        let c = OptConfig::cache_only();
        assert!(c.enable_cache && !c.enable_dedup && !c.enable_time_precompute);

        let cd = OptConfig::cache_dedup();
        assert!(cd.enable_cache && cd.enable_dedup && !cd.enable_time_precompute);

        let none = OptConfig::none();
        assert!(!none.enable_cache && !none.enable_dedup && !none.enable_time_precompute);
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
