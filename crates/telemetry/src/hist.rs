//! Lock-free log2-bucketed latency histogram.
//!
//! Fixed memory (64 + 2 `u64` atomics), wait-free `fetch_add` recording,
//! mergeable snapshots — the online replacement for sorting a retained
//! per-request latency vector. Bucket `b` (for `b >= 1`) holds values in
//! `[2^(b-1), 2^b)` nanoseconds; bucket 0 holds zero. Quantile estimates
//! report the bucket's inclusive upper edge, so an estimate `e` of a true
//! quantile `t` satisfies `t <= e < 2·t` (one log-bucket's relative
//! error) for every `t < 2^62`.

use serde::{de, Deserialize, Deserializer, Serialize, Serializer, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: one per possible bit-width of a `u64` sample.
pub const NUM_BUCKETS: usize = 64;

/// Bucket holding `ns`: zero maps to bucket 0, otherwise the value's
/// bit-width, saturating into the last bucket.
#[inline]
fn bucket_index(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(NUM_BUCKETS - 1)
}

/// Inclusive upper edge of `bucket` (what quantile estimates report).
fn bucket_upper_edge(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// Shared online latency accounting. Record from any thread; read through
/// [`LatencyHistogram::snapshot`].
///
/// All atomics are statistics counters bumped with `Relaxed` `fetch_add`
/// (never control signals, never load-then-store), matching the L6/L8
/// counter discipline used by `ServeCounters`.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample of `ns` nanoseconds. Wait-free; callable
    /// concurrently from any number of threads.
    #[inline]
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of every bucket. Concurrent recording makes a
    /// snapshot consistent with *some* prefix of each thread's records
    /// (counters are monotone), not an instantaneous cut.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }

    /// Folds a point-in-time copy of `other` into this histogram
    /// (per-worker histograms merging into a global one).
    pub fn merge_from(&self, other: &LatencyHistogram) {
        self.merge_snapshot(&other.snapshot());
    }

    /// Folds an already-taken snapshot into this histogram.
    pub fn merge_snapshot(&self, snap: &HistogramSnapshot) {
        for (dst, &src) in self.buckets.iter().zip(snap.buckets.iter()) {
            if src != 0 {
                dst.fetch_add(src, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum_ns.fetch_add(snap.sum_ns, Ordering::Relaxed);
    }
}

/// An owned, mergeable, serializable copy of a [`LatencyHistogram`].
///
/// Invariant (checked by the property tests): `count` equals the sum of
/// `buckets`, and `sum_ns` is the sum of recorded samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { buckets: [0; NUM_BUCKETS], count: 0, sum_ns: 0 }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket counts (bucket `b >= 1` holds `[2^(b-1), 2^b)` ns).
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// Mean sample, nanoseconds (0 when empty — never a division by zero).
    #[expect(clippy::cast_precision_loss, reason = "a mean of nanosecond counts; f64 is exact below 2^53")]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate in nanoseconds for `q` in `(0, 1]`:
    /// the upper edge of the bucket containing the ceil-rank sample, hence
    /// within one log-bucket's relative error (`< 2x`) of the exact
    /// sorted-vector quantile. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[expect(clippy::cast_precision_loss, reason = "a sample count; f64 is exact below 2^53")]
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0);
        let mut seen = 0.0;
        #[expect(clippy::cast_precision_loss, reason = "a sample count; f64 is exact below 2^53")]
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n as f64;
            if seen >= rank {
                return bucket_upper_edge(b);
            }
        }
        bucket_upper_edge(NUM_BUCKETS - 1)
    }

    /// Median estimate, nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile estimate, nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Adds `other`'s samples to this snapshot. Equivalent to having
    /// recorded both streams into one histogram (checked by property test).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, &src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }
}

// Manual serde impls: the shim's derive does not handle `[u64; 64]`
// fields, and the wire shape (a plain `buckets` array) is part of the
// frozen snapshot schema.

impl Serialize for HistogramSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let buckets = Value::Seq(self.buckets.iter().map(|&b| Value::U64(b)).collect());
        serializer.serialize_value(Value::Map(vec![
            ("buckets".to_string(), buckets),
            ("count".to_string(), Value::U64(self.count)),
            ("sum_ns".to_string(), Value::U64(self.sum_ns)),
        ]))
    }
}

impl<'de> Deserialize<'de> for HistogramSnapshot {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = deserializer.take_value()?;
        let Value::Map(mut fields) = value else {
            return Err(de::Error::custom("HistogramSnapshot: expected a map"));
        };
        let buckets_vec: Vec<u64> = serde::take_field(&mut fields, "buckets")
            .map_err(|e| de::Error::custom(format!("HistogramSnapshot: {e}")))?;
        if buckets_vec.len() != NUM_BUCKETS {
            return Err(de::Error::custom(format!(
                "HistogramSnapshot: expected {NUM_BUCKETS} buckets, got {}",
                buckets_vec.len()
            )));
        }
        let mut buckets = [0u64; NUM_BUCKETS];
        buckets.copy_from_slice(&buckets_vec);
        let count: u64 = serde::take_field(&mut fields, "count")
            .map_err(|e| de::Error::custom(format!("HistogramSnapshot: {e}")))?;
        let sum_ns: u64 = serde::take_field(&mut fields, "sum_ns")
            .map_err(|e| de::Error::custom(format!("HistogramSnapshot: {e}")))?;
        Ok(Self { buckets, count, sum_ns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_bracket_samples() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        for b in 1..NUM_BUCKETS - 1 {
            let lo = 1u64 << (b - 1);
            let hi = bucket_upper_edge(b);
            assert_eq!(bucket_index(lo), b);
            assert_eq!(bucket_index(hi), b);
            assert!(hi < 2 * lo);
        }
    }

    #[test]
    fn record_snapshot_quantiles() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum_ns(), 101_500);
        // p50 rank = 3 -> sample 400 -> bucket upper edge 511.
        assert_eq!(s.p50_ns(), 511);
        // p99 rank = 5 -> sample 100_000 (bucket 17: [65536, 131072)).
        assert_eq!(s.p99_ns(), (1u64 << 17) - 1);
        let exact_p99 = 100_000u64;
        assert!(s.p99_ns() >= exact_p99 && s.p99_ns() < 2 * exact_p99);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50_ns(), 0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let both = LatencyHistogram::new();
        for ns in [1u64, 7, 300] {
            a.record(ns);
            both.record(ns);
        }
        for ns in [2u64, 9_000] {
            b.record(ns);
            both.record(ns);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        // Atomic-side merge agrees with the snapshot-side merge.
        a.merge_from(&b);
        assert_eq!(a.snapshot(), merged);
    }

    #[test]
    fn serde_round_trip_preserves_everything() {
        let h = LatencyHistogram::new();
        for ns in [0u64, 1, 5, 1_000_000, u64::MAX] {
            h.record(ns);
        }
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn truncated_buckets_are_rejected() {
        let json = r#"{"buckets":[1,2,3],"count":6,"sum_ns":6}"#;
        assert!(serde_json::from_str::<HistogramSnapshot>(json).is_err());
    }
}
