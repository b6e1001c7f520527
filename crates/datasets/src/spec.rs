//! Published statistics of the seven evaluation datasets (paper Table 2),
//! plus the behavioral knobs the synthetic generators use.

/// Bipartite (user–item) or homogeneous graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphKind {
    /// JODIE-style interaction graph: sources are users, destinations items.
    Bipartite { users: usize, items: usize },
    /// SNAP-style social/communication graph.
    Homogeneous { nodes: usize },
}

impl GraphKind {
    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        match *self {
            GraphKind::Bipartite { users, items } => users + items,
            GraphKind::Homogeneous { nodes } => nodes,
        }
    }
}

/// Everything needed to synthesize (or validate) one evaluation dataset.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub kind: GraphKind,
    /// Interaction count `|E|` at full scale.
    pub num_edges: usize,
    /// Edge feature dimension; `None` means the original lacks features and
    /// a random 100-dim vector is substituted (Table 2 footnote).
    pub edge_dim: Option<usize>,
    /// Largest timestamp (seconds).
    pub max_time: f32,
    /// Probability that an interaction repeats the actor's previous partner
    /// (the consecutive-repetition behavior JODIE datasets are curated for).
    pub repeat_prob: f64,
    /// Zipf exponent of partner popularity (larger = more skew = more
    /// shared neighbors and intra-batch duplication).
    pub zipf_exponent: f64,
    /// Probability that an event starts a same-timestamp burst from the same
    /// actor (emails to several recipients, posts hitting many subreddits).
    /// This drives the raw-batch (layer-2) duplication of Table 1.
    pub burst_prob: f64,
}

impl DatasetSpec {
    /// Effective edge feature dimension after the random-feature substitute.
    pub fn effective_edge_dim(&self) -> usize {
        self.edge_dim.unwrap_or(100)
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.kind.num_nodes()
    }
}

/// The seven datasets of the paper's evaluation (Table 2). Node splits for
/// the bipartite graphs follow the JODIE sources (users vs items).
pub fn all_specs() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "jodie-lastfm",
            kind: GraphKind::Bipartite { users: 980, items: 1000 },
            num_edges: 1_293_103,
            edge_dim: None,
            max_time: 1.4e8,
            repeat_prob: 0.70,
            zipf_exponent: 1.1,
            burst_prob: 0.0,
        },
        DatasetSpec {
            name: "jodie-mooc",
            kind: GraphKind::Bipartite { users: 7047, items: 97 },
            num_edges: 411_749,
            edge_dim: Some(4),
            max_time: 2.6e6,
            repeat_prob: 0.65,
            zipf_exponent: 1.0,
            burst_prob: 0.02,
        },
        DatasetSpec {
            name: "jodie-reddit",
            kind: GraphKind::Bipartite { users: 10_000, items: 984 },
            num_edges: 672_447,
            edge_dim: Some(172),
            max_time: 2.7e6,
            repeat_prob: 0.75,
            zipf_exponent: 1.1,
            burst_prob: 0.0,
        },
        DatasetSpec {
            name: "jodie-wiki",
            kind: GraphKind::Bipartite { users: 8227, items: 1000 },
            num_edges: 157_474,
            edge_dim: Some(172),
            max_time: 2.7e6,
            repeat_prob: 0.70,
            zipf_exponent: 1.2,
            burst_prob: 0.0,
        },
        DatasetSpec {
            name: "snap-email",
            kind: GraphKind::Homogeneous { nodes: 986 },
            num_edges: 332_334,
            edge_dim: None,
            max_time: 6.9e7,
            repeat_prob: 0.35,
            zipf_exponent: 1.2,
            burst_prob: 0.45,
        },
        DatasetSpec {
            name: "snap-msg",
            kind: GraphKind::Homogeneous { nodes: 1899 },
            num_edges: 59_835,
            edge_dim: None,
            max_time: 1.1e9,
            repeat_prob: 0.30,
            zipf_exponent: 1.1,
            burst_prob: 0.40,
        },
        DatasetSpec {
            name: "snap-reddit",
            kind: GraphKind::Homogeneous { nodes: 67_180 },
            num_edges: 858_488,
            edge_dim: Some(86),
            max_time: 1.5e9,
            repeat_prob: 0.25,
            zipf_exponent: 1.3,
            burst_prob: 0.20,
        },
    ]
}

/// Synthetic datasets that are *not* part of the paper's evaluation —
/// sized as a scale gate (served ≡ direct ≡ tape forward on a graph far
/// larger than the toy fixtures) rather than for Table 2 fidelity. Kept
/// out of [`all_specs`] so the `exp_*` reproduction binaries keep
/// iterating exactly the paper's seven datasets.
///
/// `synth-shard`: a ≥100k-node homogeneous graph. The Zipf exponent is
/// deliberately flatter than the SNAP graphs (0.9) so that at full scale
/// the generator actually touches ~93% of the 131,072 ids — a scale gate
/// only tests scale when queries spread over many nodes. `edge_dim` is
/// small (8) to keep the 1.2M-edge feature matrix tens of megabytes
/// instead of the ~480MB a 100-dim substitute would cost.
pub fn synthetic_specs() -> Vec<DatasetSpec> {
    vec![DatasetSpec {
        name: "synth-shard",
        kind: GraphKind::Homogeneous { nodes: 131_072 },
        num_edges: 1_200_000,
        edge_dim: Some(8),
        max_time: 1.2e7,
        repeat_prob: 0.20,
        zipf_exponent: 0.9,
        burst_prob: 0.10,
    }]
}

/// Looks up a spec by dataset name, searching the paper's seven
/// evaluation datasets first and the synthetic scaling datasets second.
pub fn spec_by_name(name: &str) -> Option<DatasetSpec> {
    all_specs()
        .into_iter()
        .chain(synthetic_specs())
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_datasets_with_table2_counts() {
        let specs = all_specs();
        assert_eq!(specs.len(), 7);
        let lastfm = spec_by_name("jodie-lastfm").unwrap();
        assert_eq!(lastfm.num_nodes(), 1980);
        assert_eq!(lastfm.num_edges, 1_293_103);
        assert_eq!(lastfm.effective_edge_dim(), 100);
        let reddit = spec_by_name("jodie-reddit").unwrap();
        assert_eq!(reddit.num_nodes(), 10_984);
        assert_eq!(reddit.effective_edge_dim(), 172);
        let snap_reddit = spec_by_name("snap-reddit").unwrap();
        assert_eq!(snap_reddit.num_nodes(), 67_180);
        assert_eq!(snap_reddit.effective_edge_dim(), 86);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(spec_by_name("nope").is_none());
    }

    #[test]
    fn synthetic_specs_resolve_by_name_but_stay_out_of_all_specs() {
        let s = spec_by_name("synth-shard").unwrap();
        assert!(s.num_nodes() >= 100_000, "scaling bench needs a >=100k-node graph");
        assert_eq!(s.effective_edge_dim(), 8);
        assert!(all_specs().iter().all(|p| p.name != "synth-shard"));
    }

    #[test]
    fn bipartite_node_split_sums() {
        for s in all_specs() {
            if let GraphKind::Bipartite { users, items } = s.kind {
                assert_eq!(users + items, s.num_nodes());
                assert!(users > 0 && items > 0);
            }
        }
    }
}
