//! Property tests for the log2-bucketed latency histogram: conservation
//! (count == sum of buckets), quantile error bounds (one bucket's relative
//! error versus the exact sorted-vector quantile), and merge equivalence
//! (merging two histograms == recording both streams into one).

use proptest::prelude::*;
use tg_telemetry::{HistogramSnapshot, LatencyHistogram};

/// Exact nearest-rank quantile of an unsorted sample set.
fn exact_quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The histogram estimate is a bucket's inclusive upper edge, so for a
/// true value `t` the estimate `e` satisfies `t <= e <= max(2t - 1, 0)`.
/// Samples are capped at `2^53` so the bound never saturates and no
/// sum of 200 samples can overflow the `u64` `sum_ns` accumulator.
fn within_one_bucket(estimate: u64, exact: u64) -> bool {
    estimate >= exact && (exact == 0 && estimate == 0 || estimate < 2 * exact.max(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn count_equals_bucket_sum_and_sum_ns_is_exact(
        samples in proptest::collection::vec(0u64..(1u64 << 53), 1..200),
    ) {
        let h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);
        prop_assert_eq!(snap.count(), snap.buckets().iter().sum::<u64>());
        prop_assert_eq!(snap.sum_ns(), samples.iter().sum::<u64>());
    }

    #[test]
    fn quantiles_are_within_one_log_bucket(
        samples in proptest::collection::vec(0u64..(1u64 << 53), 1..200),
        q_raw in 1u32..1000,
    ) {
        let h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        let q = f64::from(q_raw) / 1000.0;
        let est = snap.quantile_ns(q);
        let exact = exact_quantile(&samples, q);
        prop_assert!(
            within_one_bucket(est, exact),
            "q={} estimate={} exact={}", q, est, exact
        );
    }

    #[test]
    fn merge_equals_recording_both_streams(
        left in proptest::collection::vec(0u64..(1u64 << 53), 0..100),
        right in proptest::collection::vec(0u64..(1u64 << 53), 0..100),
    ) {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let both = LatencyHistogram::new();
        for &s in &left {
            a.record(s);
            both.record(s);
        }
        for &s in &right {
            b.record(s);
            both.record(s);
        }
        // Snapshot-side merge.
        let mut merged: HistogramSnapshot = a.snapshot();
        merged.merge(&b.snapshot());
        prop_assert_eq!(merged, both.snapshot());
        // Atomic-side merge agrees.
        a.merge_from(&b);
        prop_assert_eq!(a.snapshot(), merged);
    }
}
