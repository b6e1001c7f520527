//! Property-based tests for TGOpt's reuse machinery: key injectivity, the
//! dedup filter/invert contract, cache bounds under arbitrary workloads,
//! and the precomputed time window's exactness.

use proptest::prelude::*;
use std::collections::HashSet;
use tg_tensor::Tensor;
use tgat::TimeEncoder;
use tgopt::dedup::{dedup_filter, dedup_invert};
use tgopt::hash::{pack_key, unpack_key};
use tgopt::{EmbedCache, TimeCache};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_key_is_injective(pairs in proptest::collection::vec((any::<u32>(), -1e9f32..1e9), 1..200)) {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut distinct: HashSet<(u32, u32)> = HashSet::new();
        for (n, t) in pairs {
            let key = pack_key(n, t);
            let fresh = distinct.insert((n, t.to_bits()));
            prop_assert_eq!(seen.insert(key), fresh, "key collision or false duplicate");
            let (n2, t2) = unpack_key(key);
            prop_assert_eq!(n, n2);
            prop_assert_eq!(t.to_bits(), t2.to_bits());
        }
    }

    #[test]
    fn dedup_roundtrip_reconstructs_batch(
        raw in proptest::collection::vec((0u32..40, 0u32..20), 1..300),
    ) {
        let ns: Vec<u32> = raw.iter().map(|&(n, _)| n).collect();
        let ts: Vec<f32> = raw.iter().map(|&(_, t)| t as f32).collect();
        let r = dedup_filter(&ns, &ts);
        // Unique list has no duplicates.
        let mut seen = HashSet::new();
        for (&n, &t) in r.ns.iter().zip(&r.ts) {
            prop_assert!(seen.insert(pack_key(n, t)), "unique list contains a duplicate");
        }
        // Inverse index reconstructs the original arrays exactly.
        for (i, &idx) in r.inv_idx.iter().enumerate() {
            prop_assert_eq!(r.ns[idx as usize], ns[i]);
            prop_assert_eq!(r.ts[idx as usize].to_bits(), ts[i].to_bits());
        }
        // dedup_invert expands a marker tensor back to the batch layout.
        let marker = Tensor::from_vec(
            r.ns.len(),
            1,
            (0..r.ns.len()).map(|i| i as f32).collect(),
        );
        let full = dedup_invert(&marker, &r.inv_idx);
        for (i, &idx) in r.inv_idx.iter().enumerate() {
            prop_assert_eq!(full.get(i, 0), idx as f32);
        }
        // Counting: unique + removed = total.
        prop_assert_eq!(
            r.ns.len() + (ns.len() - r.num_unique()),
            ns.len()
        );
    }

    #[test]
    fn cache_is_a_correct_bounded_map(
        ops in proptest::collection::vec((0u32..60, 0u32..8, any::<bool>()), 1..150),
        limit in 1usize..40,
    ) {
        // Model the cache against an exact FIFO oracle: re-storing a live
        // key overwrites in place (keeping its original queue position);
        // a fresh insertion may evict the oldest live entry.
        let cache = EmbedCache::new(limit, 2);
        let mut fifo: Vec<u64> = Vec::new();
        for (n, t, is_store) in ops {
            let key = pack_key(n, t as f32);
            if is_store {
                let val = Tensor::from_vec(1, 2, vec![n as f32, t as f32]);
                cache.store(&[key], &val, false).unwrap();
                if !fifo.contains(&key) {
                    if fifo.len() == limit {
                        fifo.remove(0);
                    }
                    fifo.push(key);
                }
                prop_assert!(cache.len() <= limit);
                prop_assert_eq!(cache.len(), fifo.len());
            } else {
                let mut out = Tensor::zeros(1, 2);
                let hit = cache.lookup(&[key], &mut out, false).unwrap()[0];
                prop_assert_eq!(hit, fifo.contains(&key), "cache disagrees with FIFO oracle");
                if hit {
                    // Whatever is returned must be the value stored for key.
                    prop_assert_eq!(out.get(0, 0), n as f32);
                    prop_assert_eq!(out.get(0, 1), t as f32);
                }
            }
        }
    }

    #[test]
    fn time_window_exactly_matches_direct_encoding(
        dts in proptest::collection::vec(-100.0f32..20000.0, 1..200),
        window in 1usize..2000,
        dim in 1usize..16,
    ) {
        let enc = TimeEncoder::random(dim, 11);
        let mut tc = TimeCache::precompute(&enc, window);
        // Mix integral and fractional deltas.
        let dts: Vec<f32> = dts.iter().enumerate()
            .map(|(i, &d)| if i % 2 == 0 { d.round() } else { d })
            .collect();
        let cached = tc.encode(&enc, &dts);
        let direct = enc.encode(&dts);
        prop_assert!(cached.max_abs_diff(&direct) < 1e-6);
        prop_assert_eq!(tc.hits() + tc.misses(), dts.len() as u64);
    }
}
