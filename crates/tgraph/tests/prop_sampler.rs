//! Property-based tests for the temporal graph store and samplers: the
//! T-CSR against a per-node reference, the temporal constraint, the
//! most-recent window semantics, and the reuse-enabling invariance of §3.2.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tg_graph::graph::AdjEntry;
use tg_graph::{
    BatchIter, Edge, EdgeStream, NodeId, SamplingStrategy, TemporalGraph, TemporalSampler, Time, Versioned,
};

/// The oracle for [`TemporalGraph`]: one growable `Vec` per node, each new
/// entry inserted after every entry at or before its time, and an edit log
/// kept the naive way. Inserting the edges one at a time in submission
/// order defines the neighbour order every build of the T-CSR must equal.
#[derive(Default)]
struct Reference {
    adj: Vec<Vec<AdjEntry>>,
    log: Vec<Vec<(u64, Time)>>,
    num_edges: usize,
    epoch: u64,
}

impl Reference {
    fn with_nodes(n: usize) -> Self {
        Self { adj: vec![Vec::new(); n], ..Self::default() }
    }

    fn insert_one(list: &mut Vec<AdjEntry>, entry: AdjEntry) {
        match list.last() {
            Some(last) if last.time > entry.time => {
                let pos = list.partition_point(|x| x.time <= entry.time);
                list.insert(pos, entry);
            }
            _ => list.push(entry),
        }
    }

    fn record(&mut self, nodes: [NodeId; 2], time: Time) {
        self.epoch += 1;
        for n in nodes.map(|n| n as usize) {
            if n >= self.log.len() {
                self.log.resize_with(n + 1, Vec::new);
            }
            self.log[n].push((self.epoch, time));
        }
    }

    fn insert(&mut self, e: &Edge) {
        let max = e.src.max(e.dst) as usize;
        if max >= self.adj.len() {
            self.adj.resize(max + 1, Vec::new());
        }
        Self::insert_one(&mut self.adj[e.src as usize], AdjEntry { time: e.time, ngh: e.dst, eid: e.eid });
        Self::insert_one(&mut self.adj[e.dst as usize], AdjEntry { time: e.time, ngh: e.src, eid: e.eid });
        self.num_edges += 1;
        self.record([e.src, e.dst], e.time);
    }

    fn delete_edge(&mut self, src: NodeId, dst: NodeId, eid: u32) -> bool {
        let mut removed = None;
        for node in [src, dst] {
            if let Some(list) = self.adj.get_mut(node as usize) {
                if let Some(pos) = list.iter().position(|x| x.eid == eid) {
                    removed = Some(list.remove(pos).time);
                }
            }
        }
        let Some(time) = removed else { return false };
        self.num_edges -= 1;
        self.record([src, dst], time);
        true
    }

    fn last_change(&self, n: NodeId) -> u64 {
        self.log.get(n as usize).and_then(|l| l.last()).map_or(0, |&(epoch, _)| epoch)
    }

    fn holds(&self, n: NodeId, t: Time, since: u64) -> bool {
        let log = self.log.get(n as usize).map_or(&[][..], |l| l.as_slice());
        log.iter().filter(|&&(epoch, _)| epoch > since).all(|&(_, time)| time >= t)
    }
}

/// Every read of `g` equals the reference's: adjacency of every node (and
/// of ids past the range), sizes, and the edit log's answers.
fn assert_same(g: &TemporalGraph, r: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.num_nodes(), r.adj.len());
    prop_assert_eq!(g.num_edges(), r.num_edges);
    prop_assert_eq!(g.epoch(), r.epoch);
    for n in 0..g.num_nodes() as NodeId + 2 {
        prop_assert_eq!(g.neighbors(n), r.adj.get(n as usize).map_or(&[][..], |l| l.as_slice()), "node {}", n);
        prop_assert_eq!(g.last_change(n), Some(r.last_change(n)), "node {}", n);
        for t in [0.0, 1.0, 2.5, 4.0, 7.0, 100.0] {
            for since in 0..=r.epoch {
                prop_assert_eq!(g.holds(n, t, since), r.holds(n, t, since), "holds({}, {}, {})", n, t, since);
            }
        }
    }
    Ok(())
}

/// A random time-sorted edge stream over up to `max_nodes` nodes.
fn stream_strategy(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = EdgeStream> {
    proptest::collection::vec((0..max_nodes, 0..max_nodes, 0u32..50), 1..max_edges).prop_map(
        |triples| {
            let mut t = 0.0f32;
            let edges: Vec<Edge> = triples
                .into_iter()
                .enumerate()
                .map(|(i, (s, d, gap))| {
                    t += gap as f32;
                    Edge { src: s, dst: d, time: t, eid: i as u32 }
                })
                .collect();
            EdgeStream::from_edges(edges)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adjacency_is_time_sorted_and_bidirectional(stream in stream_strategy(12, 60)) {
        let g = TemporalGraph::from_stream(&stream);
        prop_assert_eq!(g.num_edges(), stream.len());
        for n in 0..g.num_nodes() as NodeId {
            let adj = g.neighbors(n);
            prop_assert!(adj.windows(2).all(|w| w[0].time <= w[1].time));
            for e in adj {
                // The reverse direction must exist with the same edge id.
                prop_assert!(g.neighbors(e.ngh).iter().any(|r| r.eid == e.eid && r.ngh == n));
            }
        }
    }

    #[test]
    fn sampled_neighbors_respect_the_temporal_constraint(
        stream in stream_strategy(12, 60),
        k in 1usize..6,
        t_frac in 0.0f64..1.2,
    ) {
        let g = TemporalGraph::from_stream(&stream);
        let t = (stream.max_time() as f64 * t_frac) as Time;
        let ns: Vec<NodeId> = (0..12).collect();
        let ts = vec![t; ns.len()];
        let nb = TemporalSampler::most_recent(k).sample(&g, &ns, &ts);
        for i in 0..nb.nodes.len() {
            if nb.is_valid(i) {
                prop_assert!(nb.times[i] < t, "edge time {} !< target {}", nb.times[i], t);
                prop_assert!(nb.dts[i] > 0.0);
            } else {
                prop_assert_eq!(nb.dts[i], 0.0);
            }
        }
    }

    #[test]
    fn most_recent_is_the_suffix_of_the_history(
        stream in stream_strategy(10, 60),
        k in 1usize..6,
    ) {
        let g = TemporalGraph::from_stream(&stream);
        let t = stream.max_time() * 2.0 + 1.0;
        for n in 0..10u32 {
            let nb = TemporalSampler::most_recent(k).sample(&g, &[n], &[t]);
            let hist = g.neighbors_before(n, t);
            let take = hist.len().min(k);
            let expected = &hist[hist.len() - take..];
            for (slot, e) in expected.iter().enumerate() {
                prop_assert_eq!(nb.eids[slot], e.eid);
                prop_assert_eq!(nb.nodes[slot], e.ngh);
            }
            prop_assert_eq!(nb.num_valid(), take);
        }
    }

    #[test]
    fn same_target_same_subgraph_after_later_insertions(
        stream in stream_strategy(10, 50),
        extra in proptest::collection::vec((0u32..10, 0u32..10, 1u32..20), 1..10),
    ) {
        // §3.2: appending strictly-later interactions never changes the
        // sampled subgraph of an existing (node, t) target.
        let mut g = TemporalGraph::from_stream(&stream);
        let sampler = TemporalSampler::most_recent(4);
        let t = stream.max_time() * 0.7;
        let ns: Vec<NodeId> = (0..10).collect();
        let ts = vec![t; ns.len()];
        let before = sampler.sample(&g, &ns, &ts);
        let mut time = stream.max_time() + 1.0;
        for (i, (s, d, gap)) in extra.into_iter().enumerate() {
            time += gap as f32;
            g.insert(&Edge { src: s, dst: d, time, eid: 10_000 + i as u32 });
        }
        let after = sampler.sample(&g, &ns, &ts);
        prop_assert_eq!(before.nodes, after.nodes);
        prop_assert_eq!(before.times, after.times);
        prop_assert_eq!(before.eids, after.eids);
    }

    #[test]
    fn uniform_sampling_stays_within_history(
        stream in stream_strategy(10, 50),
        seed in 0u64..100,
    ) {
        let g = TemporalGraph::from_stream(&stream);
        let t = stream.max_time() * 0.9;
        let sampler = TemporalSampler::new(5, SamplingStrategy::Uniform { seed });
        let ns: Vec<NodeId> = (0..10).collect();
        let nb = sampler.sample(&g, &ns, &[t; 10]);
        for i in 0..nb.nodes.len() {
            if nb.is_valid(i) {
                let target = ns[i / 5];
                prop_assert!(nb.times[i] < t);
                prop_assert!(g
                    .neighbors(target)
                    .iter()
                    .any(|e| e.eid == nb.eids[i]), "sampled edge must exist in history");
            }
        }
    }

    #[test]
    fn batches_partition_the_stream(stream in stream_strategy(12, 80), bs in 1usize..30) {
        let total: usize = BatchIter::new(&stream, bs).map(|b| b.len()).sum();
        prop_assert_eq!(total, stream.len());
        let mut seen = 0usize;
        for b in BatchIter::new(&stream, bs) {
            for e in b.edges {
                prop_assert_eq!(e.eid as usize, seen, "batches must be chronological");
                seen += 1;
            }
            prop_assert!(b.len() <= bs);
        }
    }

    #[test]
    fn deletions_shrink_history(stream in stream_strategy(8, 40), victim in 0usize..40) {
        let mut g = TemporalGraph::from_stream(&stream);
        if victim >= stream.len() { return Ok(()); }
        let e = stream.edges()[victim];
        let before_src = g.degree(e.src);
        prop_assert!(g.delete_edge(e.src, e.dst, e.eid));
        if e.src == e.dst {
            prop_assert_eq!(g.degree(e.src), before_src - 2);
        } else {
            prop_assert_eq!(g.degree(e.src), before_src - 1);
        }
        prop_assert!(!g.neighbors(e.src).iter().any(|x| x.eid == e.eid));
        prop_assert!(!g.neighbors(e.dst).iter().any(|x| x.eid == e.eid));
    }
}

/// Edges over node ids `0..12` with few distinct times (ties) in any order,
/// self-loops included; the graphs start over fewer ids, so some land past
/// the range. With `sorted`, stably sorted by time, for `from_stream`.
fn edges_strategy() -> impl Strategy<Value = Vec<Edge>> {
    (proptest::collection::vec((0u32..12, 0u32..12, 0u32..8), 0..40), any::<bool>()).prop_map(|(triples, sorted)| {
        let mut edges: Vec<Edge> = triples
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst, t))| Edge { src, dst, time: t as Time, eid: i as u32 })
            .collect();
        if sorted {
            edges.sort_by(|a, b| a.time.total_cmp(&b.time));
        }
        edges
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_build_equals_the_per_node_reference(
        edges in edges_strategy(),
        start_nodes in 0usize..8,
        chunks in proptest::collection::vec(1usize..6, 1..12),
        deletes in proptest::collection::vec(0usize..48, 0..8),
    ) {
        let mut reference = Reference::with_nodes(start_nodes);
        let mut inserted = TemporalGraph::with_nodes(start_nodes);
        let mut extended = TemporalGraph::with_nodes(start_nodes);
        for e in &edges {
            reference.insert(e);
            inserted.insert(e);
        }
        let mut rest = &edges[..];
        for &len in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            extended.extend(chunk);
            rest = tail;
        }
        assert_same(&inserted, &reference)?;
        assert_same(&extended, &reference)?;

        if edges.windows(2).all(|w| w[0].time <= w[1].time) {
            // A built graph has the same adjacency and no edits.
            let built = TemporalGraph::from_stream(&EdgeStream::from_edges(edges.clone()));
            let mut cold = Reference::with_nodes(0);
            edges.iter().for_each(|e| cold.insert(e));
            prop_assert_eq!(built.num_nodes(), cold.adj.len());
            prop_assert_eq!(built.num_edges(), edges.len());
            prop_assert_eq!(built.epoch(), 0);
            for n in 0..built.num_nodes() as NodeId + 2 {
                prop_assert_eq!(built.neighbors(n), cold.adj.get(n as usize).map_or(&[][..], |l| l.as_slice()));
                prop_assert_eq!(built.last_change(n), Some(0));
            }
        }

        // Deletions (some of edges already gone, some of ids never added)
        // edit both the same way.
        for i in deletes {
            let e = edges.get(i).copied().unwrap_or(Edge { src: (i % 12) as NodeId, dst: 3, time: 0.0, eid: 1_000 });
            let want = reference.delete_edge(e.src, e.dst, e.eid);
            prop_assert_eq!(inserted.delete_edge(e.src, e.dst, e.eid), want);
            prop_assert_eq!(extended.delete_edge(e.src, e.dst, e.eid), want);
        }
        assert_same(&inserted, &reference)?;
        assert_same(&extended, &reference)?;
    }
}
