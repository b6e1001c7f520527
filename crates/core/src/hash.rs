//! Collision-free key packing for `(node, time)` targets (§4.1).
//!
//! Node ids and timestamps are 32-bit values, so a 64-bit key built by
//! shifting and OR-ing is injective — no collision handling is ever needed,
//! which is what lets the dedup filter and the memoization cache use the
//! key alone as identity.

#![deny(clippy::disallowed_types)]

use tg_graph::{NodeId, Time};

/// Packs a `(node, time)` pair into a unique 64-bit key.
///
/// The timestamp's IEEE-754 bit pattern is used verbatim: two targets are
/// duplicates exactly when both node id and timestamp bits are equal, which
/// matches the paper's duplicate rule `v_i = v_j ∧ t_i = t_j`.
///
/// ```
/// use tgopt::hash::{pack_key, unpack_key};
///
/// let key = pack_key(42, 1337.5);
/// assert_eq!(unpack_key(key), (42, 1337.5));
/// assert_ne!(key, pack_key(42, 1338.0));
/// assert_ne!(key, pack_key(43, 1337.5));
/// ```
#[inline]
pub fn pack_key(node: NodeId, t: Time) -> u64 {
    ((node as u64) << 32) | (t.to_bits() as u64)
}

/// Recovers the `(node, time)` pair from a key (used by cache invalidation
/// and tests).
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "intentional unpack of the low 32 key bits")]
pub fn unpack_key(key: u64) -> (NodeId, Time) {
    ((key >> 32) as NodeId, Time::from_bits(key as u32))
}

/// Batched key computation (the `ComputeKeys` operation of Algorithm 1).
/// `_parallel` is ignored; the perf ledger's probe still passes it, and
/// ROADMAP 5(f) drops it.
pub fn compute_keys(ns: &[NodeId], ts: &[Time], _parallel: bool) -> Vec<u64> {
    assert_eq!(ns.len(), ts.len(), "node/time array length mismatch");
    ns.iter().zip(ts).map(|(&n, &t)| pack_key(n, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for (n, t) in [(0u32, 0.0f32), (1, 1.5), (u32::MAX, 1e9), (42, -3.25)] {
            let (n2, t2) = unpack_key(pack_key(n, t));
            assert_eq!(n, n2);
            assert_eq!(t.to_bits(), t2.to_bits());
        }
    }

    #[test]
    fn keys_are_injective_on_distinct_pairs() {
        let pairs = [(1u32, 2.0f32), (2, 1.0), (1, 2.0000002), (2, 2.0), (1, -2.0)];
        let keys: Vec<u64> = pairs.iter().map(|&(n, t)| pack_key(n, t)).collect();
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                if i != j {
                    assert_ne!(keys[i], keys[j], "pairs {:?} and {:?}", pairs[i], pairs[j]);
                }
            }
        }
    }

    #[test]
    fn duplicate_pairs_share_a_key() {
        assert_eq!(pack_key(7, 3.0), pack_key(7, 3.0));
        assert_ne!(pack_key(7, 3.0), pack_key(7, 3.5));
    }
}
