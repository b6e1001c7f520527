//! The paper's shapes that rest on exact counters rather than timings, at a
//! scale a debug build replays in seconds.
//!
//! `exp all` checks the same shapes on the full recipes behind `logs/`
//! (EXPERIMENTS.md), but only `scripts/check.sh` and CI run it. These keep
//! the deterministic ones in `cargo test`: Table 1's duplication by layer,
//! Table 2's node id space and edge width, Fig. 3's growing reuse ratio,
//! Fig. 4's precompute-window share, Table 4's cache growth with the limit
//! and Table 5's transfer split by cache placement. Fig. 7's climbing hit
//! rate is `cache_behavior::hit_rate_grows_as_the_stream_progresses`.

use tgopt_repro::datasets::{all_specs, dataset_stats, generate, spec_by_name, Dataset};
use tgopt_repro::graph::{BatchIter, NodeId, TemporalGraph, TemporalSampler, Time};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::dedup::{dedup_filter, dedup_nodes_only};
use tgopt_repro::tgopt::devicesim::{simulate_transfers, CostModel, StorePolicy};
use tgopt_repro::tgopt::{EngineCounters, OptConfig, TgoptEngine};

const DIM: usize = 8;
const BATCH: usize = 200;

/// A generated dataset with zero node features `DIM` wide, as `exp` builds.
fn dataset(name: &str, scale: f64) -> Dataset {
    let mut ds = generate(&spec_by_name(name).unwrap(), scale, 7).unwrap();
    ds.node_features = Tensor::zeros(ds.node_features.rows(), DIM);
    ds
}

fn params(ds: &Dataset, n_neighbors: usize) -> TgatParams {
    let cfg = TgatConfig {
        dim: DIM,
        edge_dim: ds.dim(),
        time_dim: DIM,
        n_layers: 2,
        n_heads: 2,
        n_neighbors,
    };
    TgatParams::init(cfg, 7).unwrap()
}

/// The standard replay under `opt`: the counters after every batch, and
/// the cache's final `(items, bytes)`.
fn replay(
    ds: &Dataset,
    params: &TgatParams,
    opt: OptConfig,
) -> (Vec<EngineCounters>, (usize, usize)) {
    let graph = TemporalGraph::from_stream(&ds.stream);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &ds.node_features,
        edge_features: &ds.edge_features,
    };
    let mut eng = TgoptEngine::new(params, ctx, opt);
    let mut after = Vec::new();
    for batch in BatchIter::new(&ds.stream, BATCH) {
        let (ns, ts) = batch.targets();
        eng.embed_batch(&ns, &ts).unwrap();
        after.push(eng.counters());
    }
    (after, (eng.cache().len(), eng.cache().bytes_used()))
}

/// Mean duplication rate per batch at layers 0, 1 and 2, as `exp table1`
/// measures it: layer 1 pools the targets and their sampled neighbors
/// without dedup, layer 0 expands once more and counts by node only.
fn duplication_by_layer(ds: &Dataset, k: usize) -> [f64; 3] {
    let graph = TemporalGraph::from_stream(&ds.stream);
    let sampler = TemporalSampler::most_recent(k);
    let expand = |ns: &[NodeId], ts: &[Time]| {
        let nb = sampler.sample(&graph, ns, ts);
        let (mut ns, mut ts) = (ns.to_vec(), ts.to_vec());
        for i in (0..nb.nodes.len()).filter(|&i| nb.is_valid(i)) {
            ns.push(nb.nodes[i]);
            ts.push(nb.times[i]);
        }
        (ns, ts)
    };
    let (mut dup, mut batches) = ([0.0f64; 3], 0.0f64);
    for batch in BatchIter::new(&ds.stream, BATCH) {
        let (ns2, ts2) = batch.targets();
        let (ns1, ts1) = expand(&ns2, &ts2);
        dup[0] += dedup_nodes_only(&expand(&ns1, &ts1).0).duplication_rate();
        dup[1] += dedup_filter(&ns1, &ts1).duplication_rate();
        dup[2] += dedup_filter(&ns2, &ts2).duplication_rate();
        batches += 1.0;
    }
    dup.map(|d| d / batches)
}

#[test]
fn table1_duplication_falls_by_layer_and_is_higher_on_snap_targets() {
    let [jodie, snap] = [("jodie-lastfm", 0.002), ("snap-msg", 0.05)].map(|(name, scale)| {
        let rates = duplication_by_layer(&dataset(name, scale), 20);
        assert!(
            rates[0] > rates[1] && rates[1] > rates[2],
            "{name}: L0/L1/L2 {rates:?}"
        );
        rates
    });
    assert!(
        snap[2] > jodie[2],
        "layer-2 duplication: snap-msg {} <= jodie-lastfm {}",
        snap[2],
        jodie[2]
    );
}

#[test]
fn table2_generated_datasets_keep_the_spec_id_space_and_edge_width() {
    for spec in all_specs() {
        let ds = generate(&spec, 0.001, 7).unwrap();
        let stats = dataset_stats(&ds);
        assert_eq!(
            ds.node_features.rows(),
            spec.num_nodes(),
            "{}: |V}}",
            spec.name
        );
        assert_eq!(
            stats.edge_dim,
            spec.effective_edge_dim(),
            "{}: d_e",
            spec.name
        );
        assert_eq!(
            ds.edge_features.rows(),
            stats.num_edges,
            "{}: one feature row per edge",
            spec.name
        );
        assert!(
            stats.num_nodes <= spec.num_nodes(),
            "{}: active nodes outside the id space",
            spec.name
        );
    }
}

/// Reuse accumulates with stream length, so how early the ratio passes 1
/// depends on the scale (`exp fig3` checks the second checkpoint at scale
/// 1.0); at any scale it never falls and ends above 1.
#[test]
fn fig3_reuse_ratio_never_falls_and_ends_above_one() {
    let ds = dataset("snap-msg", 0.2);
    let (after, _) = replay(
        &ds,
        &params(&ds, 20),
        OptConfig::all().with_cache_limit(usize::MAX / 2),
    );
    let every = (after.len() / 16).max(1);
    let ratios: Vec<f64> = after
        .iter()
        .enumerate()
        .filter(|&(i, _)| (i + 1) % every == 0 || i + 1 == after.len())
        .map(|(_, c)| c.cache_hits as f64 / c.recomputed.max(1) as f64)
        .collect();
    assert!(ratios.len() >= 8, "too few checkpoints: {ratios:?}");
    assert!(
        ratios.windows(2).all(|w| w[1] >= w[0]),
        "reuse ratio falls: {ratios:?}"
    );
    assert!(
        ratios[ratios.len() - 1] > 1.0,
        "reuse <= recompute at the end: {ratios:?}"
    );
}

#[test]
fn fig4_precompute_window_holds_more_of_lastfm_deltas_than_msg() {
    let window = OptConfig::all().time_window as f64;
    let share = |name: &str, scale: f64| {
        let ds = dataset(name, scale);
        let graph = TemporalGraph::from_stream(&ds.stream);
        let sampler = TemporalSampler::most_recent(10);
        let (mut inside, mut total) = (0u64, 0u64);
        for batch in BatchIter::new(&ds.stream, BATCH) {
            let (ns, ts) = batch.targets();
            let nb = sampler.sample(&graph, &ns, &ts);
            for i in (0..nb.dts.len()).filter(|&i| nb.is_valid(i)) {
                inside += u64::from(f64::from(nb.dts[i]) < window);
                total += 1;
            }
        }
        assert!(total > 0, "{name}: no sampled deltas");
        inside as f64 / total as f64
    };
    let (lastfm, msg) = (share("jodie-lastfm", 0.005), share("snap-msg", 0.05));
    assert!(
        lastfm > msg,
        "in-window share: lastfm {lastfm:.3} <= msg {msg:.3}"
    );
}

#[test]
fn table4_cache_items_and_bytes_never_fall_as_the_limit_grows() {
    for (name, scale) in [("jodie-lastfm", 0.001), ("snap-msg", 0.02)] {
        let ds = dataset(name, scale);
        let params = params(&ds, 10);
        // The paper's 10K/100K/1M/3M, scaled with |E| as `exp table4` does.
        let sizes: Vec<(usize, usize)> = [10_000.0, 100_000.0, 1_000_000.0, 3_000_000.0]
            .iter()
            .map(|&paper: &f64| {
                let limit = ((paper * scale).round() as usize).max(16);
                let (_, size) = replay(&ds, &params, OptConfig::all().with_cache_limit(limit));
                assert!(
                    size.0 <= limit,
                    "{name}: {} items over the limit {limit}",
                    size.0
                );
                size
            })
            .collect();
        assert!(
            sizes
                .windows(2)
                .all(|w| w[1].0 >= w[0].0 && w[1].1 >= w[0].1),
            "{name}: (items, bytes) fall as the limit grows: {sizes:?}"
        );
        if name == "snap-msg" {
            assert_eq!(
                sizes[2], sizes[3],
                "snap-msg: every unique embedding fits at the two largest limits"
            );
        }
    }
}

#[test]
fn table5_host_placement_has_no_dtod_and_device_placement_is_dominated_by_it() {
    let ds = dataset("snap-msg", 0.05);
    let params = params(&ds, 10);
    let (after, _) = replay(&ds, &params, OptConfig::all());
    let counters = after.last().unwrap();
    assert!(
        counters.cache_hits > 0 && counters.cache_stores > 0,
        "{counters:?}"
    );
    let inputs = (2 * BATCH * (DIM + ds.dim()) * 4) as u64;
    let times = |policy| {
        let ledger = simulate_transfers(counters, policy, DIM * 4, inputs, after.len() as u64);
        CostModel::v100().times(&ledger)
    };
    let (_, _, host_dtod) = times(StorePolicy::Host);
    assert_eq!(
        host_dtod, 0.0,
        "host placement copies nothing device-to-device"
    );
    let (htod, dtoh, dtod) = times(StorePolicy::Device);
    let share = dtod / (htod + dtoh + dtod);
    assert!(
        share >= 0.9,
        "device placement: DtoD is {share:.3} of transfer time"
    );
}
