//! Per-operation span accounting (reproduces the rows of paper Table 3).

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The operations of Algorithm 1 that the breakdown analysis times.
///
/// The baseline (every optimization off) only exercises `NghLookup`, the
/// two `TimeEncode` variants, and `Attention`; TGOpt additionally reports
/// its dedup/cache overheads. Every configuration reports all nine rows
/// (zeros for stages it never runs) so the breakdown schema is identical
/// across them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    NghLookup,
    DedupFilter,
    DedupInvert,
    TimeEncodeZero,
    TimeEncodeDt,
    ComputeKeys,
    CacheLookup,
    CacheStore,
    Attention,
}

impl OpKind {
    /// All kinds, in Table 3's row order.
    pub const ALL: [OpKind; 9] = [
        OpKind::NghLookup,
        OpKind::DedupFilter,
        OpKind::DedupInvert,
        OpKind::TimeEncodeZero,
        OpKind::TimeEncodeDt,
        OpKind::ComputeKeys,
        OpKind::CacheLookup,
        OpKind::CacheStore,
        OpKind::Attention,
    ];

    /// Table 3's label for the operation.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::NghLookup => "NghLookup",
            OpKind::DedupFilter => "DedupFilter",
            OpKind::DedupInvert => "DedupInvert",
            OpKind::TimeEncodeZero => "TimeEncode (0)",
            OpKind::TimeEncodeDt => "TimeEncode (dt)",
            OpKind::ComputeKeys => "ComputeKeys",
            OpKind::CacheLookup => "CacheLookup",
            OpKind::CacheStore => "CacheStore",
            OpKind::Attention => "attention M",
        }
    }

    /// Stable machine-readable identifier used in the JSON snapshot schema.
    pub fn slug(&self) -> &'static str {
        match self {
            OpKind::NghLookup => "ngh_lookup",
            OpKind::DedupFilter => "dedup_filter",
            OpKind::DedupInvert => "dedup_invert",
            OpKind::TimeEncodeZero => "time_encode_zero",
            OpKind::TimeEncodeDt => "time_encode_dt",
            OpKind::ComputeKeys => "compute_keys",
            OpKind::CacheLookup => "cache_lookup",
            OpKind::CacheStore => "cache_store",
            OpKind::Attention => "attention",
        }
    }
}

/// One row of the serialized per-stage breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSpan {
    /// Machine-readable stage identifier ([`OpKind::slug`]).
    pub stage: String,
    /// Table 3's human label ([`OpKind::label`]).
    pub label: String,
    /// Accumulated wall time, nanoseconds.
    pub total_ns: u64,
    /// Number of timed invocations.
    pub count: u64,
}

/// Heap-boxed accumulators; only allocated once timing is requested, so a
/// disabled [`Recorder`] is a single `None` pointer.
#[derive(Clone, Debug, Default)]
struct SpanTable {
    totals: [Duration; OpKind::ALL.len()],
    counts: [u64; OpKind::ALL.len()],
}

/// Accumulated wall time per operation.
///
/// `Option`-gated: [`Recorder::disabled`] holds no table and its
/// [`Recorder::time`] closure runs with **no `Instant::now()` calls at
/// all** — the disabled hot path pays one pointer null-check.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Box<SpanTable>>,
}

impl Recorder {
    /// A recorder that actually measures. Disabled recorders
    /// ([`Recorder::disabled`]) skip the clock reads entirely so
    /// production inference pays nothing.
    pub fn enabled() -> Self {
        Self { inner: Some(Box::default()) }
    }

    /// A no-op recorder (zero overhead on the hot path).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// True if timing is active.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Times `f`, attributing its wall time to `kind`. When disabled, `f`
    /// runs immediately — no timestamps are taken.
    #[inline]
    pub fn time<T>(&mut self, kind: OpKind, f: impl FnOnce() -> T) -> T {
        let Some(table) = self.inner.as_deref_mut() else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        table.totals[kind as usize] += start.elapsed();
        table.counts[kind as usize] += 1;
        out
    }

    /// Adds an externally measured duration. Allocates the span table if
    /// this recorder had none (recording data implies wanting it kept).
    pub fn record(&mut self, kind: OpKind, d: Duration) {
        let table = self.inner.get_or_insert_with(Box::default);
        table.totals[kind as usize] += d;
        table.counts[kind as usize] += 1;
    }

    /// Total time attributed to `kind`.
    pub fn total(&self, kind: OpKind) -> Duration {
        self.inner.as_ref().map_or(Duration::ZERO, |t| t.totals[kind as usize])
    }

    /// Number of timed invocations of `kind`.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.inner.as_ref().map_or(0, |t| t.counts[kind as usize])
    }

    /// Sum over all operations.
    pub fn grand_total(&self) -> Duration {
        self.inner.as_ref().map_or(Duration::ZERO, |t| t.totals.iter().sum())
    }

    /// Resets all accumulators, keeping the enabled flag.
    pub fn reset(&mut self) {
        if let Some(table) = self.inner.as_deref_mut() {
            *table = SpanTable::default();
        }
    }

    /// Merges another recorder into this one. Merging measured data into a
    /// disabled recorder allocates its table (the data is not dropped).
    pub fn merge(&mut self, other: &Recorder) {
        let Some(theirs) = other.inner.as_deref() else {
            return;
        };
        let table = self.inner.get_or_insert_with(Box::default);
        for i in 0..table.totals.len() {
            table.totals[i] += theirs.totals[i];
            table.counts[i] += theirs.counts[i];
        }
    }

    /// The per-stage breakdown in Table 3 row order, all nine stages always
    /// present (stable snapshot schema).
    pub fn breakdown(&self) -> Vec<StageSpan> {
        OpKind::ALL
            .iter()
            .map(|k| StageSpan {
                stage: k.slug().to_string(),
                label: k.label().to_string(),
                total_ns: u64::try_from(self.total(*k).as_nanos()).unwrap_or(u64::MAX),
                count: self.count(*k),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_recorder_accumulates() {
        let mut s = Recorder::enabled();
        let v = s.time(OpKind::Attention, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(s.total(OpKind::Attention) >= Duration::from_millis(2));
        assert_eq!(s.count(OpKind::Attention), 1);
        assert_eq!(s.count(OpKind::NghLookup), 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Recorder::disabled();
        s.time(OpKind::CacheStore, || ());
        assert_eq!(s.total(OpKind::CacheStore), Duration::ZERO);
        assert_eq!(s.count(OpKind::CacheStore), 0);
        assert!(!s.is_enabled());
    }

    #[test]
    fn merge_and_reset() {
        let mut a = Recorder::enabled();
        a.record(OpKind::NghLookup, Duration::from_millis(5));
        let mut b = Recorder::enabled();
        b.record(OpKind::NghLookup, Duration::from_millis(3));
        b.record(OpKind::CacheLookup, Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.total(OpKind::NghLookup), Duration::from_millis(8));
        assert_eq!(a.grand_total(), Duration::from_millis(9));
        a.reset();
        assert_eq!(a.grand_total(), Duration::ZERO);
        assert!(a.is_enabled());
    }

    #[test]
    fn merging_data_into_disabled_keeps_it() {
        let mut a = Recorder::disabled();
        let mut b = Recorder::enabled();
        b.record(OpKind::Attention, Duration::from_millis(7));
        a.merge(&b);
        assert_eq!(a.total(OpKind::Attention), Duration::from_millis(7));
        // Merging an empty recorder into a disabled one stays zero-cost.
        let mut c = Recorder::disabled();
        c.merge(&Recorder::disabled());
        assert!(!c.is_enabled());
    }

    #[test]
    fn labels_match_table3() {
        assert_eq!(OpKind::Attention.label(), "attention M");
        assert_eq!(OpKind::TimeEncodeZero.label(), "TimeEncode (0)");
        assert_eq!(OpKind::ALL.len(), 9);
    }

    #[test]
    fn breakdown_has_all_stages_in_table3_order() {
        let mut s = Recorder::enabled();
        s.record(OpKind::CacheLookup, Duration::from_micros(3));
        let rows = s.breakdown();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].stage, "ngh_lookup");
        assert_eq!(rows[8].stage, "attention");
        assert_eq!(rows[6].count, 1);
        assert_eq!(rows[6].total_ns, 3_000);
        // Disabled recorders produce the same schema, all zeros.
        let empty = Recorder::disabled().breakdown();
        assert_eq!(empty.len(), 9);
        assert!(empty.iter().all(|r| r.count == 0 && r.total_ns == 0));
    }
}
