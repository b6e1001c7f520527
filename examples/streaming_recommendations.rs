//! Streaming recommendation serving — the workload the paper's introduction
//! motivates (JODIE-style user/item interaction graphs).
//!
//! An interaction stream is consumed in batches; after each batch the model
//! embeds the active users and ranks items for them. TGOpt's cache makes
//! this cheap: user/item neighborhoods barely change between consecutive
//! interactions, so most embeddings are reused. The example reports the hit
//! rate climbing as the stream progresses (the Figure 7 effect, live).
//!
//! ```sh
//! cargo run --release --example streaming_recommendations
//! ```

use tgopt_repro::datasets::{self, GraphKind};
use tgopt_repro::graph::{BatchIter, TemporalGraph};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{predictor, TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = datasets::spec_by_name("jodie-lastfm").ok_or("dataset jodie-lastfm missing from catalog")?;
    let data = datasets::generate(&spec, 0.01, 5)?;
    let GraphKind::Bipartite { users, items } = spec.kind else {
        return Err("jodie-lastfm should be bipartite".into());
    };
    println!(
        "stream: {} listens, {users} users x {items} artists\n",
        data.stream.len()
    );

    let cfg = TgatConfig {
        dim: 32,
        edge_dim: data.dim(),
        time_dim: 32,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 10,
    };
    let params = TgatParams::init(cfg, 11)?;
    let graph = TemporalGraph::from_stream(&data.stream);
    // Size features/counters to the full id space: a scaled stream may not
    // have touched the highest user/item ids yet.
    let id_space = (users + items).max(graph.num_nodes());
    let node_features = Tensor::zeros(id_space, cfg.dim);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let mut engine = TgoptEngine::new(&params, ctx, OptConfig::all());

    // Popular artists to rank for each user (a real system would shortlist
    // via retrieval; popularity works for the demo).
    let mut counts = vec![0u32; id_space];
    for e in data.stream.edges() {
        counts[e.dst as usize] += 1;
    }
    #[expect(clippy::cast_possible_truncation, reason = "user/item counts are u32-sized node ids")]
    let mut popular: Vec<u32> = (users as u32..(users + items) as u32).collect();
    popular.sort_by_key(|&i| std::cmp::Reverse(counts[i as usize]));
    popular.truncate(8);

    let mut prev = engine.counters();
    let total_batches = BatchIter::new(&data.stream, 200).num_batches();
    for batch in BatchIter::new(&data.stream, 200) {
        let (ns, ts) = batch.targets();
        let _ = engine.embed_batch(&ns, &ts)?;
        let now = engine.counters();
        let delta = now.delta_since(&prev);
        prev = now;
        if batch.index % 5 == 0 || batch.index + 1 == total_batches {
            println!(
                "batch {:>3}/{total_batches}: cache hit rate {:>5.1}% ({} reused / {} recomputed)",
                batch.index + 1,
                100.0 * delta.hit_rate(),
                delta.cache_hits,
                delta.recomputed
            );
        }
    }

    // Recommend for the most recently active user.
    let last = data.stream.edges().last().ok_or("empty interaction stream")?;
    let t = data.stream.max_time() + 1.0;
    let mut ns = vec![last.src];
    ns.extend_from_slice(&popular);
    let h = engine.embed_batch(&ns, &vec![t; ns.len()])?;
    let user_h = Tensor::from_vec(1, cfg.dim, h.row(0).to_vec());
    let mut scored: Vec<(u32, f32)> = popular
        .iter()
        .enumerate()
        .map(|(i, &artist)| {
            let a_h = Tensor::from_vec(1, cfg.dim, h.row(i + 1).to_vec());
            (artist, predictor::score(&params.predictor, &user_h, &a_h).get(0, 0))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop artists for user {} at t={t:.0}:", last.src);
    for (rank, (artist, logit)) in scored.iter().take(5).enumerate() {
        println!("  #{:<2} artist {:>5}  score {:+.4}", rank + 1, artist, logit);
    }
    println!(
        "\nlifetime cache hit rate {:.1}%, {} cached embeddings ({} KiB)",
        100.0 * engine.counters().hit_rate(),
        engine.cache().len(),
        engine.cache().bytes_used() / 1024
    );
    Ok(())
}
