//! Collision-free key packing for `(node, time)` targets (§4.1).
//!
//! Node ids and timestamps are 32-bit values, so a 64-bit key built by
//! shifting and OR-ing is injective — no collision handling is ever needed,
//! which is what lets the dedup filter and the memoization cache use the
//! key alone as identity.

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
pub fn unpack_key(key: u64) -> (NodeId, Time) {
    ((key >> 32) as NodeId, Time::from_bits(key as u32)) // lint: allow(lossy-cast, intentional unpack of the low 32 key bits)
}

/// Where `-inf` lands in the sign-flip total order of `f32` bit patterns
/// (negatives inverted, positives with the sign bit set): everything
/// below it is a negative NaN.
const NEG_INF_TOTAL: u32 = !0xFF80_0000;

/// The timestamp's position in the order the cache sweeps by: all non-NaN
/// times in numeric order (`-0.0` directly below `0.0`), then every NaN of
/// either sign above `+inf` — `t <= te` is false for a NaN `t`, so a
/// NaN-timed key is "after" every event. A bijection on `u32`: the usual
/// total-order flip, rotated so the negative NaNs wrap round to the top.
#[inline]
fn time_rank(t: Time) -> u32 {
    let bits = t.to_bits();
    let total = if bits >> 31 == 1 { !bits } else { bits | 0x8000_0000 };
    total.wrapping_sub(NEG_INF_TOTAL)
}

/// The key with its halves swapped and the time as its [`time_rank`], so
/// integer order on the result is key-time order (ties broken by node id).
#[inline]
pub(crate) fn time_major(key: u64) -> u64 {
    let (node, t) = unpack_key(key);
    ((time_rank(t) as u64) << 32) | node as u64
}

/// Inverse of [`time_major`].
#[inline]
pub(crate) fn from_time_major(tm: u64) -> u64 {
    let total = ((tm >> 32) as u32).wrapping_add(NEG_INF_TOTAL); // lint: allow(lossy-cast, the shift leaves 32 bits)
    let bits = if total >> 31 == 1 { total & 0x7FFF_FFFF } else { !total };
    ((tm & 0xFFFF_FFFF) << 32) | bits as u64
}

/// The smallest [`time_major`] value of any key *not* keyed at `t <= te`:
/// a bounded sweep examines exactly the keys from here up. Both zeros
/// count as "at" a zero `te`; a NaN `te` is at-or-after nothing, so every
/// key is examined.
#[inline]
pub(crate) fn first_time_major_after(te: Time) -> u64 {
    if te.is_nan() {
        return 0;
    }
    let te = if te == 0.0 { 0.0 } else { te };
    (time_rank(te) as u64 + 1) << 32
}

/// Batched key computation (the `ComputeKeys` operation of Algorithm 1).
/// `_parallel` is ignored; the perf ledger's probe still passes it, and
/// ROADMAP 5(f) drops it.
pub fn compute_keys(ns: &[NodeId], ts: &[Time], _parallel: bool) -> Vec<u64> { // alloc-ok: the key vector is the return value (ComputeKeys output), one u64 per target
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
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(t <= te)` *is* the rule under test: true for a NaN on either side
    fn time_major_order_is_the_sweeps_cutoff_rule() {
        let times = [
            f32::NEG_INFINITY, f32::MIN, -3.25, -1.0, -f32::MIN_POSITIVE, -1e-45, -0.0, 0.0, 1e-45,
            f32::MIN_POSITIVE, 1.0, 1.0000001, 3.25, 1e9, f32::MAX, f32::INFINITY,
            f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001), f32::from_bits(0xFFFF_FFFF),
        ];
        // Node ids on both ends: a tie at exactly `te` must stay below the
        // cutoff for every id, and the next time up above it for id 0.
        let nodes = [0u32, 1, 7, 0x8000_0000, u32::MAX];
        for &te in &times {
            let from = first_time_major_after(te);
            for &t in &times {
                for &n in &nodes {
                    let examined = time_major(pack_key(n, t)) >= from;
                    // The rule the full scan used: skip iff `t <= te`.
                    assert_eq!(examined, !(t <= te), "key ({n}, {t}) against te = {te}");
                }
            }
        }
        // Within the non-NaN times the order is numeric and time-major.
        for w in times[..16].windows(2) {
            let (lo, hi) = (time_major(pack_key(u32::MAX, w[0])), time_major(pack_key(0, w[1])));
            assert!(lo < hi, "{} must sort below {}", w[0], w[1]);
        }
        assert!(time_major(pack_key(3, 5.0)) < time_major(pack_key(4, 5.0)));
    }

    proptest::proptest! {
        #[test]
        fn time_major_round_trips_every_key(key in proptest::prelude::any::<u64>()) {
            proptest::prop_assert_eq!(from_time_major(time_major(key)), key);
            proptest::prop_assert_eq!(time_major(from_time_major(key)), key);
        }
    }

    #[test]
    fn duplicate_pairs_share_a_key() {
        assert_eq!(pack_key(7, 3.0), pack_key(7, 3.0));
        assert_ne!(pack_key(7, 3.0), pack_key(7, 3.5));
    }
}
