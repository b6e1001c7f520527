//! Synthetic CTDG generators matched to the paper's dataset statistics.

use crate::spec::{DatasetSpec, GraphKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tg_error::TgError;
use tg_graph::{EdgeStream, NodeId, Time};
use tg_tensor::Tensor;

/// A fully materialized dataset: interaction stream plus feature matrices.
///
/// Edge feature row `eid` belongs to interaction `eid`; node features are
/// zero vectors of the same dimension (Table 2), so layer-0 lookups return
/// zeros exactly as in the baseline TGAT setup.
#[derive(Debug)]
pub struct Dataset {
    pub name: String,
    pub spec: DatasetSpec,
    pub stream: EdgeStream,
    pub edge_features: Tensor,
    pub node_features: Tensor,
}

impl Dataset {
    /// Feature dimension shared by nodes and edges.
    pub fn dim(&self) -> usize {
        self.edge_features.cols()
    }
}

/// Zipf sampler over `0..n` via an inverse-CDF table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        #[expect(clippy::cast_precision_loss, reason = "Zipf ranks stay far below 2^53")]
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Bursty integer inter-arrival time with the given mean.
///
/// A two-mode mixture (short within-session gaps, long between-session gaps)
/// yields the near-zero clustering with a heavy tail seen in Figure 4.
fn inter_arrival(rng: &mut StdRng, mean: f64) -> f64 {
    let exp = |rng: &mut StdRng, m: f64| -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -m * u.ln()
    };
    let dt = if rng.gen_bool(0.7) { exp(rng, mean * 0.1) } else { exp(rng, mean * 3.1) };
    dt.round().max(0.0)
}

/// Gap between events inside one actor's session: half land on the same
/// second (emails to several recipients — the duplicate targets of Table 1),
/// half are short pauses (the near-zero time-delta mass of Figure 4).
fn session_gap(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.5) {
        0.0
    } else {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (1.0 - 120.0 * u.ln()).round()
    }
}

/// Synthesizes a dataset.
///
/// `scale` multiplies the interaction count (`1.0` = the paper's full |E|);
/// node counts are kept so that per-batch structure (duplication rates,
/// neighbor sharing) matches the original. Timestamps keep the original
/// event-rate (so `max(t)` scales with the edge count). Everything is
/// deterministic in `seed`.
pub fn generate(spec: &DatasetSpec, scale: f64, seed: u64) -> Result<Dataset, TgError> {
    #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "`!(scale > 0.0)` rejects NaN too, which `scale <= 0.0` would admit")]
    if !(scale > 0.0) {
        return Err(TgError::InvalidArgument(format!(
            "dataset scale must be positive, got {scale}"
        )));
    }
    #[expect(clippy::cast_possible_truncation, clippy::cast_precision_loss, reason = "rounded edge count is far below 2^52")]
    let n_edges = ((spec.num_edges as f64 * scale).round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ hash_name(spec.name));
    #[expect(clippy::cast_precision_loss, reason = "edge counts and spans stay far below 2^53")]
    let mean_gap = spec.max_time as f64 / spec.num_edges as f64;

    let mut srcs: Vec<NodeId> = Vec::with_capacity(n_edges);
    let mut dsts: Vec<NodeId> = Vec::with_capacity(n_edges);
    let mut times: Vec<Time> = Vec::with_capacity(n_edges);
    let mut t = 0.0f64;

    match spec.kind {
        GraphKind::Bipartite { users, items } => {
            let user_pick = Zipf::new(users, 1.0);
            let item_pick = Zipf::new(items, spec.zipf_exponent);
            // last item each user interacted with, for repeat behavior
            let mut last_item: Vec<Option<usize>> = vec![None; users];
            // actor continuing a same-timestamp burst, if any
            let mut burst: Option<usize> = None;
            for _ in 0..n_edges {
                let u = match burst.take() {
                    Some(b) => {
                        t += session_gap(&mut rng);
                        b
                    }
                    None => {
                        t += inter_arrival(&mut rng, mean_gap);
                        user_pick.sample(&mut rng)
                    }
                };
                let item = match last_item[u] {
                    Some(prev) if rng.gen_bool(spec.repeat_prob) => prev,
                    _ => item_pick.sample(&mut rng),
                };
                last_item[u] = Some(item);
                #[expect(clippy::cast_possible_truncation, reason = "generated node ids are below the spec's u32 node count")]
                srcs.push(u as NodeId);
                #[expect(clippy::cast_possible_truncation, reason = "generated node ids are below the spec's u32 node count")]
                dsts.push((users + item) as NodeId);
                #[expect(clippy::cast_possible_truncation, reason = "times are f32 end-to-end; f64 only accumulates the gaps")]
                times.push(t as Time);
                if spec.burst_prob > 0.0 && rng.gen_bool(spec.burst_prob) {
                    burst = Some(u);
                }
            }
        }
        GraphKind::Homogeneous { nodes } => {
            let node_pick = Zipf::new(nodes, spec.zipf_exponent);
            let mut last_partner: Vec<Option<usize>> = vec![None; nodes];
            let mut burst: Option<usize> = None;
            for _ in 0..n_edges {
                let s = match burst.take() {
                    Some(b) => {
                        t += session_gap(&mut rng);
                        b
                    }
                    None => {
                        t += inter_arrival(&mut rng, mean_gap);
                        node_pick.sample(&mut rng)
                    }
                };
                let d = match last_partner[s] {
                    Some(prev) if rng.gen_bool(spec.repeat_prob) => prev,
                    _ => {
                        let mut d = node_pick.sample(&mut rng);
                        let mut tries = 0;
                        while d == s && tries < 8 {
                            d = node_pick.sample(&mut rng);
                            tries += 1;
                        }
                        if d == s {
                            d = (s + 1) % nodes;
                        }
                        d
                    }
                };
                last_partner[s] = Some(d);
                last_partner[d] = Some(s);
                #[expect(clippy::cast_possible_truncation, reason = "generated node ids are below the spec's u32 node count")]
                srcs.push(s as NodeId);
                #[expect(clippy::cast_possible_truncation, reason = "generated node ids are below the spec's u32 node count")]
                dsts.push(d as NodeId);
                #[expect(clippy::cast_possible_truncation, reason = "times are f32 end-to-end; f64 only accumulates the gaps")]
                times.push(t as Time);
                if spec.burst_prob > 0.0 && rng.gen_bool(spec.burst_prob) {
                    // Same actor fires again at the same second (e.g. an
                    // email with several recipients), but to a new partner.
                    burst = Some(s);
                    last_partner[s] = None;
                }
            }
        }
    }

    let dim = spec.effective_edge_dim();
    let mut feat = vec![0.0f32; n_edges * dim];
    for v in &mut feat {
        *v = rng.gen_range(-1.0..=1.0);
    }
    let edge_features = Tensor::from_vec(n_edges, dim, feat);
    // Ensure the node-feature matrix covers the full id space even if a
    // scaled run never touched the highest ids.
    let num_nodes = spec.num_nodes();
    let node_features = Tensor::zeros(num_nodes, dim);

    Ok(Dataset {
        name: spec.name.to_string(),
        spec: *spec,
        stream: EdgeStream::new(&srcs, &dsts, &times),
        edge_features,
        node_features,
    })
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{all_specs, spec_by_name};

    #[test]
    fn generate_is_deterministic() {
        let spec = spec_by_name("snap-msg").unwrap();
        let a = generate(&spec, 0.05, 7).unwrap();
        let b = generate(&spec, 0.05, 7).unwrap();
        assert_eq!(a.stream.edges(), b.stream.edges());
        assert_eq!(a.edge_features.as_slice(), b.edge_features.as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = spec_by_name("snap-msg").unwrap();
        let a = generate(&spec, 0.05, 7).unwrap();
        let b = generate(&spec, 0.05, 8).unwrap();
        assert_ne!(a.stream.edges(), b.stream.edges());
    }

    #[test]
    fn scale_controls_edge_count() {
        let spec = spec_by_name("jodie-wiki").unwrap();
        let d = generate(&spec, 0.01, 1).unwrap();
        let expected = (spec.num_edges as f64 * 0.01).round() as usize;
        assert_eq!(d.stream.len(), expected);
        assert_eq!(d.edge_features.rows(), expected);
        assert_eq!(d.node_features.rows(), spec.num_nodes());
    }

    #[test]
    fn bipartite_edges_cross_the_partition() {
        let spec = spec_by_name("jodie-mooc").unwrap();
        let d = generate(&spec, 0.005, 3).unwrap();
        let GraphKind::Bipartite { users, .. } = spec.kind else { panic!() };
        for e in d.stream.edges() {
            assert!((e.src as usize) < users, "source must be a user");
            assert!((e.dst as usize) >= users, "destination must be an item");
        }
    }

    #[test]
    fn homogeneous_has_no_self_loops() {
        let spec = spec_by_name("snap-email").unwrap();
        let d = generate(&spec, 0.01, 5).unwrap();
        assert!(d.stream.edges().iter().all(|e| e.src != e.dst));
    }

    #[test]
    fn timestamps_are_integral_and_nondecreasing() {
        let spec = spec_by_name("snap-msg").unwrap();
        let d = generate(&spec, 0.05, 2).unwrap();
        let edges = d.stream.edges();
        for w in edges.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(edges.iter().all(|e| e.time.fract() == 0.0), "integer-second timestamps");
    }

    #[test]
    fn node_features_are_zero_with_edge_dim() {
        let spec = spec_by_name("jodie-reddit").unwrap();
        let d = generate(&spec, 0.001, 1).unwrap();
        assert_eq!(d.dim(), 172);
        assert_eq!(d.node_features.cols(), 172);
        assert!(d.node_features.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn repeat_behavior_creates_consecutive_repeats() {
        // jodie-style graphs must show users re-hitting their previous item.
        let spec = spec_by_name("jodie-lastfm").unwrap();
        let d = generate(&spec, 0.01, 11).unwrap();
        let mut last: std::collections::HashMap<NodeId, NodeId> = Default::default();
        let mut repeats = 0usize;
        let mut total = 0usize;
        for e in d.stream.edges() {
            if let Some(&prev) = last.get(&e.src) {
                total += 1;
                if prev == e.dst {
                    repeats += 1;
                }
            }
            last.insert(e.src, e.dst);
        }
        let frac = repeats as f64 / total.max(1) as f64;
        assert!(frac > 0.5, "expected heavy repeat behavior, got {frac:.2}");
    }

    #[test]
    fn non_positive_scale_is_rejected() {
        let spec = spec_by_name("snap-msg").unwrap();
        for bad in [0.0, -1.0, f64::NAN] {
            let err = generate(&spec, bad, 1).unwrap_err();
            assert!(matches!(err, TgError::InvalidArgument(_)), "scale {bad}: {err}");
        }
    }

    #[test]
    fn all_specs_generate_tiny() {
        for spec in all_specs() {
            let d = generate(&spec, 0.0005, 1).unwrap();
            assert!(!d.stream.is_empty());
            assert!(d.stream.num_nodes() <= spec.num_nodes());
        }
    }
}
