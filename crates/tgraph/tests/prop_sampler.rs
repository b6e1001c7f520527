//! Property-based tests for the temporal graph store and samplers: the
//! T-CSR against a per-node reference, the temporal constraint, the
//! most-recent window semantics, and the reuse-enabling invariance of §3.2.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tg_graph::graph::AdjEntry;
use tg_graph::{
    BatchIter, Edge, EdgeStream, LiveGraph, NodeId, SamplingStrategy, TemporalGraph, TemporalSampler, Time,
    Versioned,
};

/// The oracle for every graph: one growable `Vec` per node, each new entry
/// inserted after every entry at or before its time, and, when the edges
/// are appends, a change log kept the naive way (append `i` at epoch
/// `i + 1`). Inserting the edges one at a time in submission order
/// defines the neighbour order every build of the T-CSR must equal.
#[derive(Default)]
struct Reference {
    adj: Vec<Vec<AdjEntry>>,
    log: Vec<Vec<(u64, Time)>>,
    epoch: u64,
}

impl Reference {
    fn new(num_nodes: usize, edges: &[Edge], logged: bool) -> Self {
        let mut r = Self { adj: vec![Vec::new(); num_nodes], ..Self::default() };
        edges.iter().for_each(|e| r.insert(e, logged));
        r
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

    fn insert(&mut self, e: &Edge, logged: bool) {
        let max = e.src.max(e.dst) as usize;
        if max >= self.adj.len() {
            self.adj.resize(max + 1, Vec::new());
        }
        Self::insert_one(&mut self.adj[e.src as usize], AdjEntry { time: e.time, ngh: e.dst, eid: e.eid });
        Self::insert_one(&mut self.adj[e.dst as usize], AdjEntry { time: e.time, ngh: e.src, eid: e.eid });
        if logged {
            self.epoch += 1;
            for n in [e.src, e.dst].map(|n| n as usize) {
                if n >= self.log.len() {
                    self.log.resize_with(n + 1, Vec::new);
                }
                self.log[n].push((self.epoch, e.time));
            }
        }
    }

    fn last_change(&self, n: NodeId) -> u64 {
        self.log.get(n as usize).and_then(|l| l.last()).map_or(0, |&(epoch, _)| epoch)
    }

    fn holds(&self, n: NodeId, t: Time, since: u64) -> bool {
        let log = self.log.get(n as usize).map_or(&[][..], |l| l.as_slice());
        log.iter().filter(|&&(epoch, _)| epoch > since).all(|&(_, time)| time >= t)
    }
}

/// Every read of `g` equals the reference's: the whole history of every
/// node (and of ids past the range) and the validity answers. `stamped`
/// is the id range `last_change` answers for.
fn assert_same<S: Versioned>(g: &S, r: &Reference, stamped: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.epoch(), r.epoch);
    for n in 0..r.adj.len() as NodeId + 2 {
        let len = g.hist_len_before(n, Time::INFINITY);
        let mut history = vec![AdjEntry { time: 0.0, ngh: 0, eid: 0 }; len];
        g.most_recent(n, Time::INFINITY, len, |slot, e| history[slot] = e);
        prop_assert_eq!(&history[..], r.adj.get(n as usize).map_or(&[][..], |l| l.as_slice()), "node {}", n);
        let want = ((n as usize) < stamped).then(|| r.last_change(n));
        prop_assert_eq!(g.last_change(n), want, "node {}", n);
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
        // §3.2: strictly-later interactions never change the sampled
        // subgraph of an existing (node, t) target.
        let g = TemporalGraph::from_stream(&stream);
        let sampler = TemporalSampler::most_recent(4);
        let t = stream.max_time() * 0.7;
        let ns: Vec<NodeId> = (0..10).collect();
        let ts = vec![t; ns.len()];
        let before = sampler.sample(&g, &ns, &ts);
        let mut edges = stream.edges().to_vec();
        let mut time = stream.max_time() + 1.0;
        for (i, (s, d, gap)) in extra.into_iter().enumerate() {
            time += gap as f32;
            edges.push(Edge { src: s, dst: d, time, eid: 10_000 + i as u32 });
        }
        let after = sampler.sample(&TemporalGraph::from_edges(0, &edges), &ns, &ts);
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
        chunks in proptest::collection::vec((1usize..6, any::<bool>()), 1..12),
    ) {
        // Any order, in one build.
        let built = TemporalGraph::from_edges(start_nodes, &edges);
        let reference = Reference::new(start_nodes, &edges, false);
        prop_assert_eq!((built.num_nodes(), built.num_edges()), (reference.adj.len(), edges.len()));
        assert_same(&built, &reference, usize::MAX)?;

        if edges.windows(2).all(|w| w[0].time <= w[1].time) {
            let built = TemporalGraph::from_stream(&EdgeStream::from_edges(edges.clone()));
            let reference = Reference::new(0, &edges, false);
            prop_assert_eq!((built.num_nodes(), built.num_edges()), (reference.adj.len(), edges.len()));
            assert_same(&built, &reference, usize::MAX)?;
        }

        // Appended in chunks to an empty base, compacted after some, and
        // read through a view: append `i` is first seen at epoch `i + 1`.
        let live = LiveGraph::new(TemporalGraph::from_edges(start_nodes, &[])).with_compact_threshold(usize::MAX);
        let mut rest = &edges[..];
        for &(len, compact) in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            chunk.iter().for_each(|e| {
                live.append(e);
            });
            if compact {
                live.compact();
            }
            rest = tail;
        }
        let view = live.view();
        let reference = Reference::new(start_nodes, &edges, true);
        prop_assert_eq!((view.num_nodes(), view.num_edges()), (reference.adj.len(), edges.len() as u64));
        assert_same(&view, &reference, start_nodes)?;
    }
}
