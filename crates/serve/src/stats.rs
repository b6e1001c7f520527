//! Serving-layer counters: admission, batching, dedup, degradation, and
//! the online end-to-end latency distribution.

use std::sync::atomic::{AtomicU64, Ordering};
use tg_telemetry::{HistogramSnapshot, LatencyHistogram};

/// Per-layer cache-outcome bins in [`ServeStats`]: cache layer `l` lands
/// in bin `l - 1`, with every layer past the fourth folded into the last.
pub(crate) const TRACKED_LAYERS: usize = 4;

/// Shared atomic counters bumped by client handles and the workers. Read
/// them through [`ServeCounters::snapshot`].
///
/// Accounting identity: every submission attempt that is not shed by
/// backpressure is recorded as `submitted` *before* any terminal counter,
/// so any snapshot satisfies `submitted >= completed + rejected_deadline`
/// (strict once a micro-batch fails with an engine error or is dropped
/// unserved, since those requests resolve without bumping either terminal
/// counter).
#[derive(Debug, Default)]
pub struct ServeCounters {
    submitted: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_deadline: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    unique_rows: AtomicU64,
    degraded_batches: AtomicU64,
    edges_ingested: AtomicU64,
    latency: LatencyHistogram,
}

impl ServeCounters {
    /// Records one submission attempt that was not shed by backpressure —
    /// both admitted requests and submit-time deadline rejections count
    /// (the latter so `submitted >= completed + rejected_deadline` holds).
    ///
    /// # Invariants
    ///
    /// - Monotone: counters only grow; a snapshot is always consistent with
    ///   some interleaving of recorded events.
    /// - Called before the matching terminal counter
    ///   ([`ServeCounters::record_completed`] /
    ///   [`ServeCounters::record_deadline`]), preserving the identity
    ///   `submitted >= completed + rejected_deadline` in every snapshot.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request shed by the full admission queue.
    ///
    /// # Invariants
    ///
    /// - Monotone; never decremented.
    pub fn record_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` requests rejected because their deadline expired.
    ///
    /// # Invariants
    ///
    /// - Monotone; never decremented.
    pub fn record_deadline(&self, n: u64) {
        self.rejected_deadline.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` requests completed with an embedding.
    ///
    /// # Invariants
    ///
    /// - Monotone; never decremented.
    pub fn record_completed(&self, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one executed micro-batch of `requests` requests that
    /// coalesced to `unique` engine rows, run in (non-)degraded mode.
    ///
    /// # Invariants
    ///
    /// - `unique <= requests` (a batch never grows under dedup).
    /// - All three batch counters move together, so ratios derived from a
    ///   snapshot stay in `[0, 1]`.
    pub fn record_batch(&self, requests: u64, unique: u64, degraded: bool) {
        debug_assert!(unique <= requests);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(requests, Ordering::Relaxed);
        self.unique_rows.fetch_add(unique, Ordering::Relaxed);
        if degraded {
            self.degraded_batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one edge accepted by `submit_edge` into the live graph.
    ///
    /// # Invariants
    ///
    /// - Monotone; never decremented.
    /// - Bumped after the append is durable in the delta log, so
    ///   `edges_ingested` never exceeds the live graph's own count.
    pub fn record_edge_ingested(&self) {
        self.edges_ingested.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed request's end-to-end (submit-to-fulfill)
    /// latency. Only successful completions are sampled, so the histogram
    /// describes the latency a satisfied client observed.
    ///
    /// # Invariants
    ///
    /// - Monotone; wait-free (log2-bucketed `fetch_add`s, no locks).
    pub fn record_latency(&self, ns: u64) {
        self.latency.record(ns);
    }

    /// A point-in-time copy of every counter. The cache-outcome fields are
    /// the cache's, not these counters': [`crate::TgServer::stats`] fills
    /// them, and they stay zero here.
    pub fn snapshot(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            unique_rows: self.unique_rows.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            edges_ingested: self.edges_ingested.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            ..ServeStats::default()
        }
    }
}

/// A snapshot of the serving layer's counters.
///
/// Identity: `submitted >= completed + rejected_deadline` in every
/// snapshot (see [`ServeCounters`]); the gap is requests still in flight
/// plus requests resolved by a micro-batch engine error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submission attempts not shed by backpressure: requests admitted to
    /// the queue plus requests rejected at submit time because their
    /// deadline had already expired.
    pub submitted: u64,
    /// Requests shed with [`tg_error::TgError::Overloaded`].
    pub rejected_overload: u64,
    /// Requests rejected with [`tg_error::TgError::DeadlineExceeded`].
    pub rejected_deadline: u64,
    /// Requests completed with an embedding row.
    pub completed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests that entered a micro-batch (post-deadline-filter).
    pub batched_requests: u64,
    /// Engine rows actually computed/looked up after cross-request dedup.
    pub unique_rows: u64,
    /// Micro-batches run in degraded (store-skipping) mode.
    pub degraded_batches: u64,
    /// Edges accepted by `submit_edge` into the live graph.
    pub edges_ingested: u64,
    /// Cache hits a lookup refused because some window the entry depends
    /// on changed (or could not be shown unchanged) in the reader's
    /// history; each was recomputed and overwritten. Nothing is dropped
    /// when an edge arrives, so this is where ingest shows up.
    pub entries_invalidated: u64,
    /// Cache hits accepted only after the slow check (was any append
    /// between the two epochs below the pair's time?), because a change had
    /// reached one of the entry's nodes since its windows were last known
    /// to hold.
    pub entries_retained: u64,
    /// Per-layer breakdown of `entries_invalidated`: bin `i` holds cache
    /// layer `i + 1`, with layers past the fourth folded into the last bin.
    pub layer_removed: [u64; TRACKED_LAYERS],
    /// Per-layer breakdown of `entries_retained`, same binning.
    pub layer_retained: [u64; TRACKED_LAYERS],
    /// Online end-to-end (submit-to-fulfill) latency distribution of
    /// completed requests, log2-bucketed nanoseconds.
    pub latency: HistogramSnapshot,
}

impl ServeStats {
    /// Fraction of batched requests eliminated by cross-request dedup
    /// (0.0 when nothing has been batched — never NaN).
    #[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
    pub fn cross_dedup_ratio(&self) -> f64 {
        if self.batched_requests == 0 {
            0.0
        } else {
            1.0 - self.unique_rows as f64 / self.batched_requests as f64
        }
    }

    /// Mean requests per executed micro-batch (0.0 before the first batch).
    #[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_zero_not_nan_when_fresh() {
        let s = ServeStats::default();
        assert_eq!(s.cross_dedup_ratio(), 0.0);
        assert_eq!(s.mean_batch_size(), 0.0);
        assert!(!s.cross_dedup_ratio().is_nan());
    }

    #[test]
    fn counters_accumulate_into_snapshot() {
        let c = ServeCounters::default();
        c.record_submitted();
        c.record_submitted();
        c.record_overload();
        c.record_deadline(1);
        c.record_batch(4, 3, true);
        c.record_batch(6, 3, false);
        c.record_completed(10);
        c.record_latency(1_500);
        c.record_latency(90_000);
        let s = c.snapshot();
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.latency.sum_ns(), 91_500);
        assert!(s.latency.p99_ns() >= 90_000);
        assert_eq!(s.submitted, 2);
        assert_eq!(s.rejected_overload, 1);
        assert_eq!(s.rejected_deadline, 1);
        assert_eq!(s.completed, 10);
        assert_eq!(s.batches, 2);
        assert_eq!(s.degraded_batches, 1);
        assert!((s.cross_dedup_ratio() - 0.4).abs() < 1e-12);
        assert!((s.mean_batch_size() - 5.0).abs() < 1e-12);
    }
}
