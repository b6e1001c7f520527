//! Dataset summary statistics (reproduces the columns of paper Table 2).

use crate::gen::Dataset;

/// Summary row for one dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetStats {
    pub name: String,
    pub num_nodes: usize,
    pub num_edges: usize,
    pub edge_dim: usize,
    pub max_time: f32,
    /// Mean interactions per node (density indicator, not in Table 2 but
    /// useful when interpreting cache hit rates).
    pub mean_degree: f64,
}

/// Computes Table 2-style statistics for a materialized dataset.
#[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
pub fn dataset_stats(d: &Dataset) -> DatasetStats {
    let mut seen = vec![false; d.stream.num_nodes()];
    for e in d.stream.edges() {
        seen[e.src as usize] = true;
        seen[e.dst as usize] = true;
    }
    let active: usize = seen.iter().filter(|&&s| s).count();
    DatasetStats {
        name: d.name.clone(),
        num_nodes: active,
        num_edges: d.stream.len(),
        edge_dim: d.dim(),
        max_time: d.stream.max_time(),
        mean_degree: 2.0 * d.stream.len() as f64 / active.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::spec_by_name;

    #[test]
    fn stats_count_active_nodes_and_edges() {
        let spec = spec_by_name("snap-msg").unwrap();
        let d = generate(&spec, 0.1, 1).unwrap();
        let s = dataset_stats(&d);
        assert_eq!(s.num_edges, d.stream.len());
        assert!(s.num_nodes <= spec.num_nodes());
        assert!(s.num_nodes > 0);
        assert_eq!(s.edge_dim, 100);
        assert!(s.mean_degree > 0.0);
        assert_eq!(s.max_time, d.stream.max_time());
    }
}
