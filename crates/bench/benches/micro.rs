//! Criterion microbenchmarks for TGOpt's building blocks, including the
//! design-choice ablations called out in DESIGN.md:
//!
//! * dedup: joint two-array hash filter (Algorithm 2) vs sort-based unique
//! * keys: collision-free bit-packing vs generic tuple hashing
//! * cache: sequential vs parallel lookup
//! * time encoding: dense precomputed window vs direct computation
//! * attention operator, temporal sampler, and matmul kernels

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tg_graph::{Edge, TemporalGraph, TemporalSampler};
use tg_tensor::{init, matmul::matmul, Tensor};
use tgat::attention::{self, AttentionInputs};
use tgat::{TgatConfig, TgatParams, TimeEncoder};
use tgopt::dedup::dedup_filter;
use tgopt::hash::{compute_keys, pack_key};
use tgopt::{EmbedCache, TimeCache};

fn batch_targets(n: usize) -> (Vec<u32>, Vec<f32>) {
    // ~60% duplication, like a layer-1 input batch.
    let ns: Vec<u32> = (0..n).map(|i| (i * i % (n / 3 + 1)) as u32).collect();
    let ts: Vec<f32> = (0..n).map(|i| (i % (n / 3 + 1)) as f32).collect();
    (ns, ts)
}

fn bench_dedup(c: &mut Criterion) {
    let mut g = c.benchmark_group("dedup");
    for &n in &[400usize, 8400] {
        let (ns, ts) = batch_targets(n);
        g.bench_with_input(BenchmarkId::new("algorithm2", n), &n, |b, _| {
            b.iter(|| black_box(dedup_filter(black_box(&ns), black_box(&ts))))
        });
        g.bench_with_input(BenchmarkId::new("sort_based", n), &n, |b, _| {
            b.iter(|| {
                // The naive alternative: materialize pairs, sort, dedup.
                let mut pairs: Vec<(u32, u32)> =
                    ns.iter().zip(&ts).map(|(&a, &t)| (a, t.to_bits())).collect();
                pairs.sort_unstable();
                pairs.dedup();
                black_box(pairs.len())
            })
        });
    }
    g.finish();
}

fn bench_keys(c: &mut Criterion) {
    let mut g = c.benchmark_group("compute_keys");
    let (ns, ts) = batch_targets(8400);
    g.bench_function("bit_packed", |b| {
        b.iter(|| black_box(compute_keys(black_box(&ns), black_box(&ts), false)))
    });
    g.bench_function("generic_hash", |b| {
        use std::hash::{Hash, Hasher};
        b.iter(|| {
            let keys: Vec<u64> = ns
                .iter()
                .zip(&ts)
                .map(|(&n, &t)| {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    (n, t.to_bits()).hash(&mut h);
                    h.finish()
                })
                .collect();
            black_box(keys)
        })
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    let dim = 100;
    let cache = EmbedCache::new(100_000, dim);
    let keys: Vec<u64> = (0..50_000u32).map(|i| pack_key(i, i as f32)).collect();
    let data = Tensor::zeros(50_000, dim);
    cache.store(&keys, &data, false).unwrap();
    let probe: Vec<u64> = (0..8400u32).map(|i| pack_key(i * 7 % 60_000, (i * 7 % 60_000) as f32)).collect();
    g.bench_function("lookup_seq", |b| {
        b.iter(|| {
            let mut out = Tensor::zeros(probe.len(), dim);
            black_box(cache.lookup(black_box(&probe), &mut out, false).unwrap())
        })
    });
    g.bench_function("lookup_par", |b| {
        b.iter(|| {
            let mut out = Tensor::zeros(probe.len(), dim);
            black_box(cache.lookup(black_box(&probe), &mut out, true).unwrap())
        })
    });
    g.bench_function("store_1000", |b| {
        b.iter(|| {
            let cache = EmbedCache::new(10_000, dim);
            let keys: Vec<u64> = (0..1000u32).map(|i| pack_key(i, 0.0)).collect();
            cache.store(black_box(&keys), &Tensor::zeros(1000, dim), false).unwrap();
            black_box(cache.len())
        })
    });
    g.finish();
}

fn bench_timeencode(c: &mut Criterion) {
    let mut g = c.benchmark_group("time_encode");
    let enc = TimeEncoder::new(100);
    let mut cache = TimeCache::precompute(&enc, 10_000);
    let dts: Vec<f32> = (0..8000).map(|i| (i % 9000) as f32).collect();
    g.bench_function("direct", |b| b.iter(|| black_box(enc.encode(black_box(&dts)))));
    g.bench_function("precomputed_window", |b| {
        b.iter(|| black_box(cache.encode(&enc, black_box(&dts))))
    });
    g.finish();
}

fn bench_attention(c: &mut Criterion) {
    let cfg = TgatConfig { dim: 100, edge_dim: 100, time_dim: 100, n_layers: 2, n_heads: 2, n_neighbors: 20 };
    let params = TgatParams::init(cfg, 1).expect("valid model config");
    let n = 200;
    let k = cfg.n_neighbors;
    let mut rng = init::seeded_rng(2);
    let h_src = init::normal(&mut rng, n, cfg.dim, 1.0);
    let ht0 = init::normal(&mut rng, n, cfg.time_dim, 1.0);
    let h_ngh = init::normal(&mut rng, n * k, cfg.dim, 1.0);
    let e_feat = init::normal(&mut rng, n * k, cfg.edge_dim, 1.0);
    let ht = init::normal(&mut rng, n * k, cfg.time_dim, 1.0);
    let mask = vec![true; n * k];
    c.bench_function("attention_forward_200x20", |b| {
        b.iter(|| {
            black_box(attention::forward(
                &params.layers[0],
                &cfg,
                &AttentionInputs {
                    h_src: black_box(&h_src),
                    ht0: &ht0,
                    h_ngh: &h_ngh,
                    e_feat: &e_feat,
                    ht: &ht,
                    mask: &mask,
                },
            ))
        })
    });
}

fn bench_sampler(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampler");
    let n_nodes = 2000u32;
    let mut graph = TemporalGraph::with_nodes(n_nodes as usize);
    for i in 0..200_000u32 {
        graph.insert(&Edge {
            src: i % n_nodes,
            dst: (i * 13 + 1) % n_nodes,
            time: i as f32,
            eid: i,
        });
    }
    let ns: Vec<u32> = (0..8400u32).map(|i| i % n_nodes).collect();
    let ts: Vec<f32> = (0..8400).map(|i| 150_000.0 + (i % 100) as f32).collect();
    let par = TemporalSampler::most_recent(20);
    let seq = TemporalSampler::most_recent(20).sequential();
    g.bench_function("most_recent_par", |b| {
        b.iter(|| black_box(par.sample(&graph, black_box(&ns), black_box(&ts))))
    });
    g.bench_function("most_recent_seq", |b| {
        b.iter(|| black_box(seq.sample(&graph, black_box(&ns), black_box(&ts))))
    });
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    let mut rng = init::seeded_rng(3);
    for &(m, k, n) in &[(400usize, 300usize, 100usize), (4000, 300, 50)] {
        let a = init::normal(&mut rng, m, k, 1.0);
        let b_ = init::normal(&mut rng, k, n, 1.0);
        g.bench_function(format!("{m}x{k}x{n}"), |bch| {
            bch.iter(|| black_box(matmul(black_box(&a), black_box(&b_))))
        });
    }
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    // End-to-end replay of a small stream: the headline comparison as a
    // tracked microbenchmark.
    use tg_datasets::{generate, spec_by_name};
    use tg_bench::replay;
    use tgat::TgatParams;
    use tgopt::OptConfig;

    let args = tg_bench::ExpArgs {
        scale: 0.002,
        dim: 16,
        n_neighbors: 5,
        ..Default::default()
    };
    let spec = spec_by_name("snap-email").unwrap();
    let ds = {
        let mut d = generate(&spec, args.scale, args.seed).expect("valid benchmark spec");
        d.node_features = Tensor::zeros(d.node_features.rows(), args.dim);
        d
    };
    let params = TgatParams::init(args.model_config(ds.dim()), 1).expect("valid model config");
    let mut g = c.benchmark_group("engine_replay");
    g.sample_size(10);
    g.bench_function("baseline", |b| {
        b.iter(|| black_box(replay(&ds, &params, OptConfig::none(), 200, false).seconds))
    });
    g.bench_function("tgopt", |b| {
        b.iter(|| black_box(replay(&ds, &params, OptConfig::all(), 200, false).seconds))
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_dedup, bench_keys, bench_cache, bench_timeencode,
              bench_attention, bench_sampler, bench_matmul, bench_engine
}
criterion_main!(benches);
