//! Temporal-subgraph fingerprints: what a memoized embedding depends on.
//!
//! Under most-recent sampling a layer-`l` embedding of `(node, t)` is a
//! pure function of the windows `W(y, t')` it recursively sampled: the
//! root's own most-recent-`k` window, the windows of those neighbors, and
//! so on down to the pairs whose output is a layer-1 embedding (depth
//! `l - 1`). Deeper pairs only contribute static features. The
//! *fingerprint* of an entry is the set of `(y, t')` pairs whose windows
//! were sampled, packed with [`crate::hash::pack_key`] and sorted; with
//! `levels = 0` it is the target's own pair. A cache lookup under a later
//! (or earlier) history accepts the row only if every pair's window is
//! unchanged (`EmbedCache::lookup_in`, DESIGN.md "One validity question").
//!
//! The engine records each fingerprint while it computes the row, joining
//! the records of the lower-layer rows it read. [`capture`] re-walks the
//! frontier instead: it is the reference that recording is tested
//! against, and the perf ledger's probe.
//!
//! Every recorded time satisfies `t' <= t` (temporal sampling only looks
//! backward).

#![deny(clippy::disallowed_types)]

use crate::hash::pack_key;
use rustc_hash::FxHashSet;
use tg_graph::{HistorySource, NodeId, Time};

/// The fingerprint of one `(node, t)` target: the `(y, t')` pairs whose
/// most-recent-`k` windows a `levels`-deep recursive sampling from the
/// target reads — the target itself plus `levels` breadth-first expansion
/// levels (for a layer-`l` entry, `levels = l - 1`) — packed, sorted and
/// deduplicated: the dependency record of one memoized row (comemo's
/// "constraint").
///
/// Determinism: most-recent sampling is a pure function of the history, so
/// re-walking the frontier here visits exactly the pairs the engine's
/// recursive `embed` sampled for the same target over the same source.
pub fn capture<S: HistorySource>(
    source: &S,
    k: usize,
    node: NodeId,
    t: Time,
    levels: usize,
) -> Box<[u64]> {
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    seen.insert(pack_key(node, t));
    let mut frontier = vec![(node, t)];
    let mut next: Vec<(NodeId, Time)> = Vec::new();
    for _ in 0..levels {
        for &(n, tn) in &frontier {
            let take = source.hist_len_before(n, tn).min(k);
            source.most_recent(n, tn, take, |_, e| {
                if seen.insert(pack_key(e.ngh, e.time)) {
                    next.push((e.ngh, e.time));
                }
            });
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    let mut pairs: Vec<u64> = seen.into_iter().collect();
    pairs.sort_unstable();
    pairs.into_boxed_slice()
}

/// [`capture`] for a batch of targets, one fingerprint per `(ns[i], ts[i])`.
pub fn capture_many<S: HistorySource>(
    source: &S,
    k: usize,
    ns: &[NodeId],
    ts: &[Time],
    levels: usize,
) -> Vec<Box<[u64]>> {
    ns.iter()
        .zip(ts)
        .map(|(&n, &t)| capture(source, k, n, t, levels))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::unpack_key;
    use tg_graph::{EdgeStream, TemporalGraph};

    fn graph() -> TemporalGraph {
        // 0-1@1, 0-2@2, 1-2@3, 2-3@4, 0-3@5
        let stream = EdgeStream::new(
            &[0, 0, 1, 2, 0],
            &[1, 2, 2, 3, 3],
            &[1.0, 2.0, 3.0, 4.0, 5.0],
        );
        TemporalGraph::from_stream(&stream)
    }

    #[test]
    fn zero_levels_is_just_the_root() {
        let g = graph();
        let fp = capture(&g, 10, 0, 6.0, 0);
        assert_eq!(fp.as_ref(), &[pack_key(0, 6.0)]);
    }

    #[test]
    fn one_level_is_root_plus_its_window() {
        let g = graph();
        // Node 0's history before t=6: (1@1), (2@2), (3@5); with k=2 the
        // most-recent window keeps (2@2) and (3@5).
        let fp = capture(&g, 2, 0, 6.0, 1);
        let mut want = vec![pack_key(0, 6.0), pack_key(2, 2.0), pack_key(3, 5.0)];
        want.sort_unstable();
        assert_eq!(fp.as_ref(), want.as_slice());
    }

    #[test]
    fn fingerprints_are_sorted_deduped_and_time_bounded() {
        let g = graph();
        let fp = capture(&g, 10, 2, 5.0, 2);
        let mut sorted = fp.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(fp.as_ref(), sorted.as_slice());
        let (_, root_t) = unpack_key(pack_key(2, 5.0));
        for &pk in fp.iter() {
            let (_, t) = unpack_key(pk);
            assert!(t <= root_t, "sampling only looks backward in time");
        }
    }

    #[test]
    fn isolated_node_has_a_root_only_fingerprint() {
        let g = graph();
        let fp = capture(&g, 10, 3, 1.0, 3);
        assert_eq!(fp.as_ref(), &[pack_key(3, 1.0)]);
    }

    #[test]
    fn capture_many_matches_capture_per_target() {
        let g = graph();
        let ns = [0, 1, 2];
        let ts = [6.0, 4.0, 5.0];
        let many = capture_many(&g, 2, &ns, &ts, 1);
        for (i, fp) in many.iter().enumerate() {
            assert_eq!(fp.as_ref(), capture(&g, 2, ns[i], ts[i], 1).as_ref());
        }
    }
}
