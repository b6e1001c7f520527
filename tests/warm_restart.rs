//! Warm restarts: snapshotting the embedding caches to disk and restoring
//! them lets a restarted server skip the Figure 7 hit-rate ramp-up.

use std::sync::Arc;
use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::tgopt::{pack_key, LayerCaches};
use tgopt_repro::graph::{BatchIter, TemporalGraph};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{persist, OptConfig, TgoptEngine};

/// Regression: invalidating a key and then re-storing it used to leave
/// two FIFO slots behind — the snapshot exported the row twice (inflating
/// the on-disk image and `restored.len()`), and eviction later treated
/// the re-stored entry as old, dropping the *newest* data first. `clear`
/// is the invalidation that remains: keys re-stored after it, and then
/// overwritten, must each take one slot, in re-store order.
#[test]
fn restore_after_invalidation_snapshots_each_key_once() {
    let caches = LayerCaches::new(1, true, 4, 2);
    let c1 = caches.layer(1).unwrap();
    let keys: Vec<u64> = (0u32..3).map(|n| pack_key(n, (n + 1) as f32)).collect();
    c1.store(&keys, &Tensor::from_vec(3, 2, vec![0.0; 6]), false).unwrap();

    // Clear, re-store in reverse order, then overwrite the first re-stored
    // key with fresh data: the overwrite keeps its slot.
    caches.clear();
    let reversed: Vec<u64> = keys.iter().rev().copied().collect();
    c1.store(&reversed, &Tensor::from_vec(3, 2, vec![1.0; 6]), false).unwrap();
    c1.store(&keys[2..], &Tensor::from_vec(1, 2, vec![9.0, 9.0]), false).unwrap();
    assert_eq!(c1.len(), 3);

    // The export — and therefore the snapshot — must carry each key once,
    // in re-store order, with the overwritten row, and the restored cache
    // must agree on len.
    let export = c1.export_fifo_order();
    assert_eq!(export.iter().map(|(k, _)| *k).collect::<Vec<_>>(), reversed, "one slot per key, re-store order");
    assert_eq!(export[0].1.as_ref(), &[9.0, 9.0], "export must keep the overwritten row");

    let path = std::env::temp_dir().join(format!("tgopt-dedupe-{}.bin", std::process::id()));
    persist::save(&caches, &path).unwrap();
    let restored = persist::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.len(), 3, "snapshot round trip must not duplicate rows");

    // Eviction order follows the re-stores, not the first stores: two
    // more keys past the 4-slot limit evict the oldest re-store only.
    let more: Vec<u64> = (10u32..12).map(|n| pack_key(n, 1.0)).collect();
    c1.store(&more, &Tensor::from_vec(2, 2, vec![0.0; 4]), false).unwrap();
    assert!(!c1.contains(keys[2]), "the first re-stored key is the oldest");
    assert!(c1.contains(keys[0]) && c1.contains(keys[1]), "younger re-stores survive");
    assert_eq!(caches.total_inserted(), caches.total_evictions() + caches.total_cleared() + caches.len() as u64);
}

#[test]
fn snapshot_restore_continues_with_full_reuse() {
    let spec = spec_by_name("snap-email").unwrap();
    let data = generate(&spec, 0.01, 31).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg, 9).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };

    // Continuous reference run over the whole stream, one bit hash per
    // batch.
    let mut reference = TgoptEngine::new(&params, ctx, OptConfig::all());
    let mut ref_hashes: Vec<u64> = Vec::new();
    for batch in BatchIter::new(&data.stream, 100) {
        let (ns, ts) = batch.targets();
        ref_hashes.push(fnv(reference.embed_batch(&ns, &ts).unwrap().as_slice()));
    }

    // Run A: first half, then snapshot to disk.
    let half = BatchIter::new(&data.stream, 100).num_batches() / 2;
    let mut a = TgoptEngine::new(&params, ctx, OptConfig::all());
    for batch in BatchIter::new(&data.stream, 100).take(half) {
        let (ns, ts) = batch.targets();
        let _ = a.embed_batch(&ns, &ts).unwrap();
    }
    let path = std::env::temp_dir().join(format!("tgopt-warm-{}.bin", std::process::id()));
    persist::save(a.cache(), &path).unwrap();
    let warm_items = a.cache().len();
    drop(a); // "process exits"

    // Run B: restore and continue from the second half.
    let restored = persist::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(restored.len(), warm_items, "snapshot captured everything");
    let mut b = TgoptEngine::with_cache(
        &params,
        ctx,
        OptConfig::all(),
        Arc::new(restored),
        Default::default(),
    );
    for (i, batch) in BatchIter::new(&data.stream, 100).enumerate().skip(half) {
        let (ns, ts) = batch.targets();
        let h = b.embed_batch(&ns, &ts).unwrap();
        assert_eq!(fnv(h.as_slice()), ref_hashes[i], "batch {i}: restored run changed its bits");
    }
    // The restored run must reuse, not rebuild: its stores are far fewer
    // than the warm set it inherited.
    let c = b.counters();
    assert!(c.cache_hits > 0, "restored cache must serve hits");
    assert!(
        (c.cache_stores as usize) < warm_items,
        "restored run should mostly reuse ({} stores vs {} inherited)",
        c.cache_stores,
        warm_items
    );
}

/// FNV-1a (64-bit) over the `f32` bit patterns, as in `replay_checksums`.
fn fnv(xs: &[f32]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}
