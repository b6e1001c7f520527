//! The unified, serializable telemetry snapshot.
//!
//! One struct carries everything the stack knows about a run: engine
//! counters, serving counters, embedding-cache and time-cache accounting,
//! the Table-3 stage breakdown, and the latency distributions. The JSON
//! shape is frozen ([`SCHEMA_VERSION`]): every field is always present
//! (zeros when a layer was not exercised, e.g. `serve` for an offline
//! bench), and CI diffs the field-path fingerprint ([`schema_paths`])
//! against a committed golden file.

use crate::hist::HistogramSnapshot;
use crate::span::StageSpan;
use serde::{Deserialize, Serialize, Value};

/// Version stamp embedded in every snapshot; bump on any schema change
/// (and regenerate the committed golden fingerprint).
///
/// v3: per-shard sections under `shards` and the replicated-frontier
/// counters on [`ServeTelemetry`].
///
/// v4: constraint-tracked invalidation — per-layer sweep bins
/// ([`LayerSweepTelemetry`] under `ingest.per_layer`) and the
/// `store_drops` admission counter on [`EmbedCacheTelemetry`].
///
/// v5: one server, no shard router — `shards` and
/// `serve.frontier_{reads,remote}` are gone. (The `ingest` cache fields
/// kept their names and types when ingest stopped sweeping the cache;
/// they now count lookup verdicts, see [`IngestTelemetry`].)
pub const SCHEMA_VERSION: u32 = 5;

/// TGOpt engine counters (mirror of `tgopt::EngineCounters`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineTelemetry {
    /// Keys probed against the embedding cache.
    pub cache_lookups: u64,
    /// Probes that hit (embeddings reused instead of recomputed).
    pub cache_hits: u64,
    /// Embeddings stored after recomputation.
    pub cache_stores: u64,
    /// Unique targets whose embedding had to be recomputed.
    pub recomputed: u64,
    /// Duplicate targets removed by the dedup filter.
    pub dedup_removed: u64,
    /// Recomputed embeddings not stored (degraded lookup-only mode).
    pub stores_skipped: u64,
}

/// Time-encoding memo cache accounting (§4.2 of the paper).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeCacheTelemetry {
    /// Delta encodings requested.
    pub lookups: u64,
    /// Requests served from memoized rows.
    pub hits: u64,
}

impl TimeCacheTelemetry {
    /// Hit fraction (0.0 before the first lookup — never NaN).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Embedding-cache (`LayerCaches`) occupancy and eviction accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbedCacheTelemetry {
    /// Cached embedding rows across all layers.
    pub items: u64,
    /// Bytes held by cached rows.
    pub bytes: u64,
    /// Configured row capacity across all layers.
    pub limit: u64,
    /// FIFO evictions performed so far.
    pub evictions: u64,
    /// Rows dropped at admission because a single store call exceeded the
    /// whole item limit (never inserted, not counted as stores).
    pub store_drops: u64,
}

/// Serving-layer counters (mirror of `tg_serve::ServeStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeTelemetry {
    /// Submission attempts not shed by backpressure.
    pub submitted: u64,
    /// Requests shed with `Overloaded`.
    pub rejected_overload: u64,
    /// Requests rejected with `DeadlineExceeded`.
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
}

/// One cache layer's view-pinned lookup verdicts: hits refused because
/// the graph moved under them, and hits accepted after the slow check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSweepTelemetry {
    /// Cache layer this bin covers (1-based); the last bin folds in every
    /// deeper layer.
    pub layer: u64,
    /// Hits this layer's view-pinned lookups refused (recomputed and
    /// overwritten) because some window the entry depends on changed, or
    /// could not be shown unchanged, under the reader's view.
    pub removed: u64,
    /// Hits this layer's view-pinned lookups accepted only after the slow
    /// check: an append had reached one of the entry's nodes since its
    /// windows were last known to hold, none of them below the pair's time.
    pub retained: u64,
}

/// Streaming-ingest accounting: the delta-log write path plus what it
/// costs the cache's readers (zeros for a frozen-graph run). Ingest
/// touches no cache entry; staleness is decided at lookup.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestTelemetry {
    /// Edges appended to the live graph's delta log.
    pub edges_appended: u64,
    /// Delta-to-CSR compactions performed.
    pub compactions: u64,
    /// Edges currently waiting in the delta log (not yet compacted).
    pub delta_edges: u64,
    /// Cache hits view-pinned lookups refused, all layers (the sum of
    /// `per_layer[].removed`).
    pub entries_invalidated: u64,
    /// Cache hits view-pinned lookups accepted after the slow check, all
    /// layers (the sum of `per_layer[].retained`).
    pub entries_retained: u64,
    /// Per-layer verdict bins in layer order (a server emits one bin per
    /// tracked layer).
    pub per_layer: Vec<LayerSweepTelemetry>,
}

/// Online latency distributions (log2-bucketed, nanoseconds).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyTelemetry {
    /// End-to-end submit-to-fulfill latency across all completed requests.
    pub end_to_end: HistogramSnapshot,
    /// Per-worker wave (micro-batch) processing time, one entry per worker.
    pub workers: Vec<HistogramSnapshot>,
}

/// Everything the stack knows about a run, in one stable-schema struct.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Schema version ([`SCHEMA_VERSION`]); readers should reject others.
    pub schema_version: u32,
    /// Per-stage Table-3 breakdown, all nine stages in row order.
    pub stages: Vec<StageSpan>,
    /// TGOpt engine counters (zeros for a baseline-only run).
    pub engine: EngineTelemetry,
    /// Time-encode memo cache accounting.
    pub time_cache: TimeCacheTelemetry,
    /// Embedding cache occupancy/evictions.
    pub embed_cache: EmbedCacheTelemetry,
    /// Serving-layer counters (zeros for an offline bench).
    pub serve: ServeTelemetry,
    /// Streaming-ingest accounting (zeros for a frozen-graph run).
    pub ingest: IngestTelemetry,
    /// Latency distributions (empty histograms when not serving).
    pub latency: LatencyTelemetry,
}

impl TelemetrySnapshot {
    /// An empty snapshot with the current [`SCHEMA_VERSION`] stamped.
    pub fn new() -> Self {
        Self { schema_version: SCHEMA_VERSION, ..Default::default() }
    }
}

/// Flattens a serialized [`Value`] tree into its sorted set of field
/// paths with leaf type names (`latency.end_to_end.buckets[]: integer`).
/// Two snapshots with the same schema produce identical path sets
/// regardless of counter values — this is the fingerprint CI diffs
/// against the committed golden file to detect schema drift.
pub fn schema_paths(value: &Value) -> Vec<String> {
    let mut out = Vec::new();
    walk(value, String::new(), &mut out);
    out.sort();
    out.dedup();
    out
}

fn walk(value: &Value, path: String, out: &mut Vec<String>) {
    match value {
        Value::Map(fields) => {
            for (k, v) in fields {
                let child = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                walk(v, child, out);
            }
        }
        Value::Seq(items) => {
            if items.is_empty() {
                out.push(format!("{path}[]"));
            }
            for v in items {
                walk(v, format!("{path}[]"), out);
            }
        }
        Value::Null => out.push(format!("{path}: null")),
        Value::Bool(_) => out.push(format!("{path}: bool")),
        Value::U64(_) | Value::I64(_) => out.push(format!("{path}: integer")),
        Value::F64(_) => out.push(format!("{path}: float")),
        Value::Str(_) => out.push(format!("{path}: string")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{OpKind, Recorder};

    fn populated() -> TelemetrySnapshot {
        let mut rec = Recorder::enabled();
        rec.record(OpKind::Attention, std::time::Duration::from_micros(12));
        let hist = crate::LatencyHistogram::new();
        hist.record(1_234);
        hist.record(987_654);
        TelemetrySnapshot {
            schema_version: SCHEMA_VERSION,
            stages: rec.breakdown(),
            engine: EngineTelemetry { cache_lookups: 10, cache_hits: 7, ..Default::default() },
            time_cache: TimeCacheTelemetry { lookups: 5, hits: 2 },
            embed_cache: EmbedCacheTelemetry {
                items: 3,
                bytes: 4096,
                limit: 100,
                evictions: 1,
                store_drops: 2,
            },
            serve: ServeTelemetry { submitted: 9, completed: 8, rejected_deadline: 1, ..Default::default() },
            ingest: IngestTelemetry {
                edges_appended: 6,
                entries_invalidated: 2,
                per_layer: vec![
                    LayerSweepTelemetry { layer: 1, removed: 2, retained: 5 },
                    LayerSweepTelemetry { layer: 2, removed: 0, retained: 9 },
                ],
                ..Default::default()
            },
            latency: LatencyTelemetry {
                end_to_end: hist.snapshot(),
                workers: vec![hist.snapshot(), Default::default()],
            },
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = populated();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn schema_paths_ignore_values_but_not_shape() {
        // A fresh snapshot needs at least one stage row and one worker
        // histogram for the seq element paths to materialize.
        let mut fresh = TelemetrySnapshot::new();
        fresh.stages = Recorder::disabled().breakdown();
        fresh.latency.workers.push(Default::default());
        fresh.ingest.per_layer.push(Default::default());
        let pa = schema_paths(&serde::to_value(&populated()).unwrap());
        let pb = schema_paths(&serde::to_value(&fresh).unwrap());
        assert_eq!(pa, pb);
    }

    #[test]
    fn missing_fields_fail_round_trip() {
        let snap = populated();
        let json = serde_json::to_string(&snap).unwrap();
        let pruned = json.replacen("\"schema_version\"", "\"schema_version_x\"", 1);
        assert!(serde_json::from_str::<TelemetrySnapshot>(&pruned).is_err());
    }

    #[test]
    fn time_cache_hit_rate_never_nan() {
        assert_eq!(TimeCacheTelemetry::default().hit_rate(), 0.0);
        let t = TimeCacheTelemetry { lookups: 4, hits: 1 };
        assert!((t.hit_rate() - 0.25).abs() < 1e-12);
    }
}
