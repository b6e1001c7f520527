//! What an inference engine reads: the temporal graph plus the static
//! feature tables.
//!
//! The batched inference recursion itself lives in `tgopt::TgoptEngine`;
//! with every optimization off (`OptConfig::none()`) it is the paper's
//! baseline, the unchanged TGAT computation. Its independent oracle is the
//! autograd-tape forward in [`crate::train`].

use tg_graph::{NodeId, TemporalGraph, INVALID_EDGE};
use tg_tensor::{ops, Tensor};

/// Borrowed views of everything an engine reads: the evolving graph plus the
/// static feature matrices.
#[derive(Clone, Copy)]
pub struct GraphContext<'a> {
    pub graph: &'a TemporalGraph,
    /// `[num_nodes, dim]` node features (`h^(0)`).
    pub node_features: &'a Tensor,
    /// `[num_edges, edge_dim]` edge features, indexed by edge id.
    pub edge_features: &'a Tensor,
}

impl<'a> GraphContext<'a> {
    /// Gathers node feature rows for the given ids.
    pub fn gather_node_features(&self, ns: &[NodeId]) -> Tensor {
        let idx: Vec<usize> = ns.iter().map(|&n| n as usize).collect();
        ops::gather_rows(self.node_features, &idx)
    }

    /// Gathers edge feature rows; padding slots ([`INVALID_EDGE`]) read row 0
    /// — their contribution is masked out of the attention softmax, so any
    /// valid row works.
    pub fn gather_edge_features(&self, eids: &[u32]) -> Tensor {
        let idx: Vec<usize> =
            eids.iter().map(|&e| if e == INVALID_EDGE { 0 } else { e as usize }).collect();
        ops::gather_rows(self.edge_features, &idx)
    }
}
