//! Link prediction end to end: train a TGAT model on the chronological
//! prefix of a dynamic graph (negative sampling + BCE + Adam, the paper's
//! "standard training procedures"), evaluate AUC on the held-out suffix,
//! save the checkpoint, then serve predictions through the TGOpt engine.
//!
//! ```sh
//! cargo run --release --example link_prediction
//! ```

use tgopt_repro::datasets;
use tgopt_repro::graph::TemporalGraph;
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::{train, TrainConfig};
use tgopt_repro::tgat::{predictor, TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small slice of the synthetic MOOC graph: students acting on a small
    // set of course items — structured enough to learn from quickly.
    let spec = datasets::spec_by_name("jodie-mooc").ok_or("dataset jodie-mooc missing from catalog")?;
    let data = datasets::generate(&spec, 0.004, 1)?;
    println!("training on {} interactions / {} nodes", data.stream.len(), data.stream.num_nodes());

    let cfg = TgatConfig {
        dim: 16,
        edge_dim: data.dim(),
        time_dim: 16,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 5,
    };
    let mut params = TgatParams::init(cfg, 3)?;
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);

    let tc = TrainConfig { epochs: 3, batch_size: 100, lr: 3e-3, train_frac: 0.8, seed: 9, ..Default::default() };
    let report = train(&mut params, &data.stream, &node_features, &data.edge_features, &tc);
    for (i, loss) in report.epoch_losses.iter().enumerate() {
        println!("epoch {}: mean BCE loss {loss:.4}", i + 1);
    }
    println!("validation AUC: {:.3} (0.5 = chance)", report.val_auc);

    // Persist and reload the trained model, as a deployment would.
    let path = std::env::temp_dir().join("tgat-mooc.json");
    params.save(&path)?;
    let params = TgatParams::load(&path)?;
    println!("checkpoint round-tripped through {}", path.display());

    // Serve: score candidate links at the end of the stream with TGOpt.
    let graph = TemporalGraph::from_stream(&data.stream);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let mut engine = TgoptEngine::new(&params, ctx, OptConfig::all());
    // Warm the cache by replaying the most recent history — the state a
    // streaming deployment would already be in.
    for batch in tgopt_repro::graph::BatchIter::new(&data.stream, 100) {
        let (ns, ts) = batch.targets();
        let _ = engine.embed_batch(&ns, &ts)?;
    }

    let t_query = data.stream.max_time() + 1.0;
    let last = data.stream.edges().last().ok_or("empty interaction stream")?;
    let (user, item) = (last.src, last.dst);
    // Candidate items: the true last partner plus a few other items (item
    // ids follow user ids in the bipartite encoding).
    let first_item = data
        .stream
        .edges()
        .iter()
        .map(|e| e.dst)
        .min()
        .ok_or("empty interaction stream")?;
    #[expect(clippy::cast_possible_truncation, reason = "node counts are u32-sized by construction of the bipartite encoding")]
    let n_items = data.stream.num_nodes() as u32 - first_item;
    let candidates: Vec<u32> = (0..5)
        .map(|k| if k == 0 { item } else { first_item + (item - first_item + k * 7) % n_items })
        .collect();

    let mut ns = vec![user];
    ns.extend_from_slice(&candidates);
    let ts = vec![t_query; ns.len()];
    let h = engine.embed_batch(&ns, &ts)?;
    let user_h = Tensor::from_vec(1, cfg.dim, h.row(0).to_vec());
    println!("\nlink scores for user {user} at t={t_query}:");
    for (i, &cand) in candidates.iter().enumerate() {
        let cand_h = Tensor::from_vec(1, cfg.dim, h.row(i + 1).to_vec());
        let logit = predictor::score(&params.predictor, &user_h, &cand_h).get(0, 0);
        let tag = if cand == item { "  <- most recent true partner" } else { "" };
        println!("  node {cand:>5}: logit {logit:+.4}{tag}");
    }
    println!(
        "\nTGOpt served the query with {:.1}% cache reuse",
        100.0 * engine.counters().hit_rate()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
