//! The micro-batching server: admission queue → worker pool.
//!
//! Two execution modes share every line of batch-processing logic:
//!
//! * **Threaded** — a pool of worker threads, each with its own
//!   [`TgoptEngine`] over one shared [`LayerCaches`], pops waves straight
//!   off the bounded queue. An idle worker takes whatever is queued the
//!   moment it arrives; while every worker is busy the queue fills, and
//!   the first one back takes up to `max_batch` — batches form under load
//!   without a timer. This is the production shape.
//! * **Deterministic** — no threads. Requests accumulate in the queue and
//!   [`TgServer::drain`] processes them on the caller's thread in exact
//!   submission order with size-only flushing, so every scheduling
//!   decision is reproducible under test.

use crate::batch::{coalesce, Pending};
use crate::queue::BoundedQueue;
use crate::relock;
use crate::request::{Request, Slot, Ticket};
use crate::stats::{ServeCounters, ServeStats, TRACKED_LAYERS};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tg_error::TgError;
use tg_graph::{EdgeId, GraphView, IngestStats, LiveGraph, NodeId, TemporalGraph, Time};
use tg_telemetry::{
    EmbedCacheTelemetry, EngineTelemetry, IngestTelemetry, LatencyHistogram, LatencyTelemetry,
    LayerSweepTelemetry, Recorder, ServeTelemetry, TelemetrySnapshot, TimeCacheTelemetry,
};
use tg_tensor::fanout::host_cores;
use tg_tensor::Tensor;
use tgat::engine::GraphContext;
use tgat::TgatParams;
use tgopt::{EngineCounters, LayerCaches, OptConfig, TgoptEngine};

/// Everything a worker needs to build an engine: the model and the graph
/// world it serves, owned in one place so threads can borrow from a shared
/// [`Arc`].
pub struct ModelBundle {
    /// Trained TGAT parameters.
    pub params: TgatParams,
    /// The temporal graph being served, frozen and `Arc`-shared so a
    /// live-ingest server's `LiveGraph` layers its delta log over this
    /// T-CSR instead of copying it.
    pub graph: Arc<TemporalGraph>,
    /// `[num_nodes, dim]` static node features.
    pub node_features: Tensor,
    /// `[num_edges, edge_dim]` edge features.
    pub edge_features: Tensor,
}

impl ModelBundle {
    /// Validates feature shapes against the model configuration and the
    /// tables' lengths against the graph (a row per node id, and one per
    /// edge id up to the largest), with [`TgError::InvalidArgument`] for a
    /// short table. Every downstream consumer — engines, the live view —
    /// shares the graph as one immutable base, which
    /// `LiveGraph::from_shared` does not copy.
    pub fn new(
        params: TgatParams,
        graph: TemporalGraph,
        node_features: Tensor,
        edge_features: Tensor,
    ) -> Result<Self, TgError> {
        if node_features.cols() != params.cfg.dim {
            return Err(TgError::shape(
                "ModelBundle node features",
                format_args!("(_, {})", params.cfg.dim),
                format_args!("{:?}", node_features.shape()),
            ));
        }
        if edge_features.cols() != params.cfg.edge_dim {
            return Err(TgError::shape(
                "ModelBundle edge features",
                format_args!("(_, {})", params.cfg.edge_dim),
                format_args!("{:?}", edge_features.shape()),
            ));
        }
        // A short table would panic the first wave that reads past it.
        if node_features.rows() < graph.num_nodes() {
            return Err(TgError::InvalidArgument(format!(
                "ModelBundle node features: {} rows for {} graph nodes",
                node_features.rows(),
                graph.num_nodes()
            )));
        }
        let nodes = (0..graph.num_nodes()).filter_map(|n| NodeId::try_from(n).ok());
        let max_eid = nodes.flat_map(|n| graph.neighbors(n)).map(|e| e.eid).max();
        if let Some(eid) = max_eid.filter(|&eid| eid as usize >= edge_features.rows()) {
            return Err(TgError::InvalidArgument(format!(
                "ModelBundle edge features: {} rows, but the graph holds edge id {eid}",
                edge_features.rows()
            )));
        }
        Ok(Self { params, graph: Arc::new(graph), node_features, edge_features })
    }

    /// A borrow-view for engine construction.
    pub fn context(&self) -> GraphContext<'_> {
        GraphContext {
            graph: &self.graph,
            node_features: &self.node_features,
            edge_features: &self.edge_features,
        }
    }
}

/// Serving-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Most requests one wave (micro-batch) takes off the queue.
    pub max_batch: usize,
    /// Bound on queued-but-unbatched requests; beyond it submissions are
    /// rejected with [`TgError::Overloaded`].
    pub queue_capacity: usize,
    /// Worker threads in threaded mode.
    pub workers: usize,
    /// Cache payload budget (embedding rows plus recorded fingerprints):
    /// once `bytes_used()` reaches it, batches run in degraded
    /// (store-skipping) mode instead of failing — so a budget of 0 serves
    /// lookup-only from the start. The budget is soft by one wave: the
    /// store that crosses it completes before degradation kicks in.
    pub memory_budget_bytes: Option<usize>,
    /// Engine optimization settings (shared by every worker).
    pub opt: OptConfig,
    /// Record per-stage (Table 3) spans in every worker engine. Off by
    /// default: the disabled recorder takes no timestamps on the hot path.
    pub record_spans: bool,
    /// Accept [`TgServer::submit_edge`] while serving: the bundle's graph
    /// is wrapped in a [`LiveGraph`] and every wave samples from, and
    /// checks cache hits against, an epoch-stamped snapshot pinned at
    /// wave start.
    pub live_ingest: bool,
    /// Delta-log length that triggers compaction back into CSR
    /// (live-ingest mode only; `usize::MAX` disables auto-compaction).
    pub compact_threshold: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            queue_capacity: 1024,
            workers: 2,
            memory_budget_bytes: None,
            opt: OptConfig::all(),
            record_spans: false,
            live_ingest: false,
            compact_threshold: tg_graph::live::DEFAULT_COMPACT_THRESHOLD,
        }
    }
}

impl ServeConfig {
    /// Builder-style batch-size threshold.
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Builder-style queue bound.
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Builder-style worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Builder-style memory budget.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget_bytes = Some(bytes);
        self
    }

    /// Builder-style engine options.
    pub fn with_opt(mut self, opt: OptConfig) -> Self {
        self.opt = opt;
        self
    }

    /// Builder-style stage-span recording toggle.
    pub fn with_stage_spans(mut self, on: bool) -> Self {
        self.record_spans = on;
        self
    }

    /// Builder-style live-ingest toggle.
    pub fn with_live_ingest(mut self, on: bool) -> Self {
        self.live_ingest = on;
        self
    }

    /// Builder-style compaction threshold (live-ingest mode).
    pub fn with_compact_threshold(mut self, n: usize) -> Self {
        self.compact_threshold = n;
        self
    }

    fn validate(&self) -> Result<(), TgError> {
        if self.max_batch == 0 {
            return Err(TgError::InvalidConfig("max_batch must be positive".into()));
        }
        if self.queue_capacity == 0 {
            return Err(TgError::InvalidConfig("queue_capacity must be positive".into()));
        }
        if self.workers == 0 {
            return Err(TgError::InvalidConfig("workers must be positive".into()));
        }
        Ok(())
    }
}

/// State shared by client handles and the workers.
struct Shared {
    bundle: Arc<ModelBundle>,
    cfg: ServeConfig,
    queue: BoundedQueue<Pending>,
    cache: Arc<LayerCaches>,
    counters: ServeCounters,
    /// Engine counters merged in from exited workers / deterministic drains.
    engine_counters: Mutex<EngineCounters>,
    /// Per-worker wave-processing-time histograms, one per worker slot;
    /// deterministic drains record into slot 0.
    worker_latency: Vec<Arc<LatencyHistogram>>,
    /// Stage spans merged in from exited workers / deterministic drains
    /// (all zeros unless [`ServeConfig::record_spans`] is set).
    stage_spans: Mutex<Recorder>,
    /// Time-encoding cache `(hits, misses)` merged in from exited workers
    /// and deterministic drains.
    time_cache: Mutex<(u64, u64)>,
    /// The mutable graph world when [`ServeConfig::live_ingest`] is set;
    /// waves then sample from pinned snapshots instead of `bundle.graph`.
    live: Option<LiveGraph>,
}

impl Shared {
    /// Cores each engine may fan a wave out over: the host's divided among
    /// the workers. Once `workers >= cores` that is 1 — no helper threads,
    /// waves run inline — because fanning the rare multi-block wave out
    /// beside workers that already own the cores cost `stream-mixed`
    /// throughput (DESIGN.md "Fan-out").
    fn engine_cores(&self) -> usize {
        (host_cores() / self.cfg.workers).max(1)
    }
}

/// Runs one wave through `engine`: deadline filter → cross-request dedup →
/// (possibly degraded) inference → per-request scatter. Every pending
/// request in the wave is fulfilled exactly once before return. Wave
/// processing time lands in `wave_hist` (the executing worker's histogram)
/// and each completed request's submit-to-fulfill latency in the shared
/// end-to-end histogram.
fn process_wave(
    engine: &mut TgoptEngine<'_>,
    wave: Vec<Pending>,
    shared: &Shared,
    wave_hist: &LatencyHistogram,
) {
    let now = Instant::now();
    let (live, expired): (Vec<Pending>, Vec<Pending>) =
        wave.into_iter().partition(|p| !p.req.expired_at(now));
    if !expired.is_empty() {
        shared.counters.record_deadline(expired.len() as u64);
        for p in expired {
            p.slot.fulfill(Err(TgError::DeadlineExceeded));
        }
    }
    if live.is_empty() {
        return;
    }
    let targets: Vec<(NodeId, Time)> = live.iter().map(|p| (p.req.node, p.req.time)).collect();
    let plan = coalesce(&targets);
    let degraded = shared
        .cfg
        .memory_budget_bytes
        .is_some_and(|budget| shared.cache.bytes_used() >= budget);
    engine.set_store_enabled(!degraded);
    shared.counters.record_batch(live.len() as u64, plan.ns.len() as u64, degraded);
    match engine.embed_batch(&plan.ns, &plan.ts) {
        Ok(h) => {
            for (p, &row) in live.iter().zip(&plan.row_of) {
                p.slot.fulfill(Ok(h.row(row).to_vec()));
            }
            shared.counters.record_completed(live.len() as u64);
            // One clock read for the whole wave; per-request end-to-end
            // latency is a subtraction against each submit timestamp.
            let done = Instant::now();
            for p in &live {
                let e2e = done.duration_since(p.submitted_at);
                shared
                    .counters
                    .record_latency(u64::try_from(e2e.as_nanos()).unwrap_or(u64::MAX));
            }
        }
        Err(e) => {
            // TgError is not Clone (it can wrap an io::Error), so waiters
            // past the first receive the rendered message.
            let msg = e.to_string();
            let mut first = Some(e);
            for p in &live {
                match first.take() {
                    Some(orig) => p.slot.fulfill(Err(orig)),
                    None => p.slot.fulfill(Err(TgError::InvalidArgument(format!(
                        "micro-batch failed: {msg}"
                    )))),
                }
            }
        }
    }
    let wave_ns = now.elapsed();
    wave_hist.record(u64::try_from(wave_ns.as_nanos()).unwrap_or(u64::MAX));
}

/// Folds one retiring engine's accumulated telemetry (reuse counters,
/// stage spans, time-cache hits/misses) into the shared totals. Locks are
/// taken one at a time, never nested.
fn merge_engine_telemetry(shared: &Shared, engine: TgoptEngine<'_>) {
    let spans = engine.stats().clone();
    let (tc_hits, tc_misses) = engine.time_cache_stats();
    let (_, counters) = engine.into_cache();
    {
        let mut total = relock(shared.engine_counters.lock());
        *total = total.merge(&counters);
    }
    relock(shared.stage_spans.lock()).merge(&spans);
    let mut tc = relock(shared.time_cache.lock());
    tc.0 += tc_hits;
    tc.1 += tc_misses;
}

/// An engine over the server's shared cache, with its share of the cores
/// and zeroed counters: [`merge_engine_telemetry`] adds them to the
/// server's totals when the engine retires.
fn serving_engine<'b>(bundle: &'b ModelBundle, shared: &Shared) -> TgoptEngine<'b> {
    let (opt, cache) = (shared.cfg.opt, Arc::clone(&shared.cache));
    let counters = EngineCounters::default();
    let mut engine = TgoptEngine::with_cache(&bundle.params, bundle.context(), opt, cache, counters)
        .with_cores(shared.engine_cores());
    if shared.cfg.record_spans {
        engine.enable_stats();
    }
    engine
}

// hot-path-root
fn worker_loop(shared: Arc<Shared>, wave_hist: Arc<LatencyHistogram>) {
    let bundle = Arc::clone(&shared.bundle);
    // One engine per worker, reused across waves — which also means one
    // `Scratch` arena per worker: after the first wave, steady-state
    // batches run the whole attention stack out of recycled buffers with
    // no allocator traffic (see DESIGN.md "Kernel architecture").
    let mut engine = serving_engine(&bundle, &shared);
    // The worker's only unbounded wait is `arrived.wait` inside `pop_wave`:
    // idle time, not request latency — a queued request is taken by the
    // first worker that is (or becomes) free, with no timer in between —
    // and `close` ends it, after which each worker drains the backlog and
    // gets `None`. (L14 skips `wait` by name, so this comment is the
    // record of that argument.) Waves run with no queue lock held, so
    // they execute concurrently across workers.
    while let Some(wave) = shared.queue.pop_wave(shared.cfg.max_batch, Duration::ZERO) {
        if let Some(live) = shared.live.as_ref() {
            engine.pin_view(live.view());
        }
        process_wave(&mut engine, wave, &shared, &wave_hist);
    }
    merge_engine_telemetry(&shared, engine);
}

/// The micro-batching request server over one [`TgoptEngine`] world.
pub struct TgServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    deterministic: bool,
}

impl TgServer {
    fn shared_state(bundle: Arc<ModelBundle>, cfg: ServeConfig) -> Result<Arc<Shared>, TgError> {
        cfg.validate()?;
        let n_layers = bundle.params.cfg.n_layers;
        let dim = bundle.params.cfg.dim;
        let cache = Arc::new(LayerCaches::new(
            n_layers,
            cfg.opt.cache_last_layer,
            cfg.opt.cache_limit.max(1),
            dim,
        ));
        let live = cfg.live_ingest.then(|| {
            // Zero-copy over the bundle's frozen base: the live graph
            // layers its delta on the shared T-CSR.
            LiveGraph::from_shared(Arc::clone(&bundle.graph))
                .with_compact_threshold(cfg.compact_threshold)
        });
        Ok(Arc::new(Shared {
            bundle,
            queue: BoundedQueue::new(cfg.queue_capacity),
            cache,
            counters: ServeCounters::default(),
            engine_counters: Mutex::new(EngineCounters::default()),
            worker_latency: (0..cfg.workers).map(|_| Arc::new(LatencyHistogram::new())).collect(),
            stage_spans: Mutex::new(Recorder::disabled()),
            time_cache: Mutex::new((0, 0)),
            live,
            cfg,
        }))
    }

    /// A single-threaded server: requests queue until [`TgServer::drain`]
    /// processes them in submission order with size-only flushing. Every
    /// scheduling decision is a pure function of the submit/drain sequence.
    pub fn deterministic(bundle: Arc<ModelBundle>, cfg: ServeConfig) -> Result<Self, TgError> {
        let shared = Self::shared_state(bundle, cfg)?;
        Ok(Self { shared, workers: Vec::new(), deterministic: true })
    }

    /// A threaded server: `cfg.workers` inference workers pulling waves
    /// off the admission queue and sharing a single memoization cache.
    pub fn threaded(bundle: Arc<ModelBundle>, cfg: ServeConfig) -> Result<Self, TgError> {
        let shared = Self::shared_state(bundle, cfg)?;
        let workers: Vec<JoinHandle<()>> = shared
            .worker_latency
            .iter()
            .map(|hist| {
                let wave_hist = Arc::clone(hist);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, wave_hist))
            })
            .collect();
        Ok(Self { shared, workers, deterministic: false })
    }

    /// Submits one query with no deadline.
    pub fn submit(&self, node: NodeId, time: Time) -> Result<Ticket, TgError> {
        self.submit_request(Request::new(node, time))
    }

    /// Submits one query that is only useful until `deadline`.
    pub fn submit_with_deadline(
        &self,
        node: NodeId,
        time: Time,
        deadline: Instant,
    ) -> Result<Ticket, TgError> {
        self.submit_request(Request::new(node, time).with_deadline(deadline))
    }

    /// Submits a [`Request`]. A node id outside the node-feature table is
    /// rejected with [`TgError::InvalidArgument`] and an already-expired
    /// deadline with [`TgError::DeadlineExceeded`], both before consuming
    /// a queue slot; a full queue rejects with [`TgError::Overloaded`]
    /// without blocking.
    ///
    /// `submitted` is recorded before any terminal counter — and before
    /// the request becomes visible to workers — so every counter snapshot
    /// satisfies `submitted >= completed + rejected_deadline`. An invalid
    /// node id is a caller bug and is not counted.
    // hot-path-root
    pub fn submit_request(&self, req: Request) -> Result<Ticket, TgError> {
        let n_nodes = self.shared.bundle.node_features.rows();
        if req.node as usize >= n_nodes {
            return Err(TgError::InvalidArgument(format!(
                "node {} out of range: {n_nodes} node-feature rows",
                req.node
            )));
        }
        let submitted_at = Instant::now();
        self.shared.counters.record_submitted();
        if req.expired_at(submitted_at) {
            self.shared.counters.record_deadline(1);
            return Err(TgError::DeadlineExceeded);
        }
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        match self.shared.queue.push(Pending { req, slot, submitted_at }) {
            Ok(()) => Ok(ticket),
            Err(e) => {
                if matches!(e, TgError::Overloaded { .. }) {
                    self.shared.counters.record_overload();
                }
                Err(e)
            }
        }
    }

    /// Appends one edge to the live graph. Requires a live-ingest server
    /// ([`ServeConfig::with_live_ingest`]); returns the assigned edge id,
    /// which is also the `edge_features` row the edge reads, and fails
    /// with [`TgError::InvalidArgument`] once those rows are used up.
    ///
    /// A write is an append and nothing else: no cached entry is touched.
    /// Safe concurrently with serving traffic and with other submitters —
    /// ids are drawn under the live graph's own lock, so concurrent edges
    /// get distinct, contiguous ids — and in-flight waves keep sampling
    /// their pinned snapshot (an edge is never half-visible). A wave at a
    /// later epoch refuses every cached row the edge made stale when it
    /// looks it up (`tgopt::EmbedCache::lookup_in`).
    // hot-path-root
    pub fn submit_edge(&self, src: NodeId, dst: NodeId, time: Time) -> Result<EdgeId, TgError> {
        let Some(live) = self.shared.live.as_ref() else {
            return Err(TgError::InvalidArgument(
                "submit_edge requires live ingest (ServeConfig::with_live_ingest)".into(),
            ));
        };
        let bundle = &self.shared.bundle;
        let n_nodes = bundle.node_features.rows();
        if src as usize >= n_nodes || dst as usize >= n_nodes {
            return Err(TgError::InvalidArgument(format!(
                "edge ({src}, {dst}) out of range: {n_nodes} node-feature rows"
            )));
        }
        let max_edges = bundle.edge_features.rows() as u64;
        let Some(eid) = live.append_numbered(src, dst, time, max_edges) else {
            return Err(TgError::InvalidArgument(format!(
                "edge-feature rows exhausted: {} edges appended, {max_edges} rows",
                live.num_edges_total()
            )));
        };
        self.shared.counters.record_edge_ingested();
        Ok(eid)
    }

    /// Submits `ns[i], ts[i]` pairs in order; ticket `i` resolves to the
    /// embedding row of query `i` (per-request row order is preserved no
    /// matter how waves group or dedup them).
    pub fn submit_many(&self, ns: &[NodeId], ts: &[Time]) -> Result<Vec<Ticket>, TgError> {
        if ns.len() != ts.len() {
            return Err(TgError::InvalidArgument(format!(
                "submit_many needs one timestamp per node: {} nodes vs {} times",
                ns.len(),
                ts.len()
            )));
        }
        ns.iter().zip(ts).map(|(&n, &t)| self.submit(n, t)).collect()
    }

    /// Deterministic mode only: processes every queued request on the
    /// calling thread, in submission order, flushing a micro-batch every
    /// `max_batch` requests. Returns how many requests were processed.
    // hot-path-root
    pub fn drain(&self) -> Result<usize, TgError> {
        if !self.deterministic {
            return Err(TgError::InvalidArgument(
                "drain() is only available on a deterministic server".into(),
            ));
        }
        let mut items = self.shared.queue.drain_all();
        let n = items.len();
        if n == 0 {
            return Ok(0);
        }
        let bundle = Arc::clone(&self.shared.bundle);
        let mut engine = serving_engine(&bundle, &self.shared);
        // One snapshot covers the whole drain, so every wave in it sees
        // the same graph.
        if let Some(live) = self.shared.live.as_ref() {
            engine.pin_view(live.view());
        }
        // Deterministic mode has no workers; its waves account to slot 0,
        // which exists because `workers` is validated positive.
        let Some(wave_hist) = self.shared.worker_latency.first().map(Arc::clone) else {
            return Err(TgError::InvalidConfig("workers must be positive".into()));
        };
        while !items.is_empty() {
            let tail = items.split_off(items.len().min(self.shared.cfg.max_batch));
            process_wave(&mut engine, items, &self.shared, &wave_hist);
            items = tail;
        }
        merge_engine_telemetry(&self.shared, engine);
        Ok(n)
    }

    /// Serving-layer counters (admission, batching, dedup, degradation),
    /// with the cache's per-layer rejected and revalidated hit counts in
    /// the ingest fields.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.shared.counters.snapshot();
        let caches = &self.shared.cache;
        for (l, cache) in (1..=caches.num_layers()).filter_map(|l| Some((l, caches.layer(l)?))) {
            let bin = (l - 1).min(TRACKED_LAYERS - 1);
            let bins = stats.layer_removed.get_mut(bin).zip(stats.layer_retained.get_mut(bin));
            if let Some((removed, retained)) = bins {
                *removed += cache.total_rejected();
                *retained += cache.total_revalidated();
            }
        }
        stats.entries_invalidated = stats.layer_removed.iter().sum();
        stats.entries_retained = stats.layer_retained.iter().sum();
        stats
    }

    /// Aggregated engine counters. In threaded mode, workers merge their
    /// counters when they exit, so the full totals are visible after
    /// [`TgServer::shutdown`]; deterministic drains publish immediately.
    pub fn engine_counters(&self) -> EngineCounters {
        *relock(self.shared.engine_counters.lock())
    }

    /// The unified telemetry snapshot: serving counters, engine counters,
    /// embedding-cache and time-cache accounting, the per-stage breakdown,
    /// and the online latency distributions, in the stable
    /// [`tg_telemetry::SCHEMA_VERSION`] JSON shape.
    ///
    /// Serving counters and latency histograms are live; engine-side
    /// values (stage spans, time-cache hits, reuse counters) are merged in
    /// when workers exit, so in threaded mode they are only complete after
    /// shutdown — use [`TgServer::shutdown_with_telemetry`] for final
    /// totals. Stage spans stay zero unless [`ServeConfig::record_spans`]
    /// is set.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let serve = self.stats();
        let ec = *relock(self.shared.engine_counters.lock());
        let (tc_hits, tc_misses) = *relock(self.shared.time_cache.lock());
        let stages = relock(self.shared.stage_spans.lock()).breakdown();
        let cache = &self.shared.cache;
        TelemetrySnapshot {
            stages,
            engine: EngineTelemetry {
                cache_lookups: ec.cache_lookups,
                cache_hits: ec.cache_hits,
                cache_stores: ec.cache_stores,
                recomputed: ec.recomputed,
                dedup_removed: ec.dedup_removed,
                stores_skipped: ec.stores_skipped,
            },
            time_cache: TimeCacheTelemetry { lookups: tc_hits + tc_misses, hits: tc_hits },
            embed_cache: EmbedCacheTelemetry {
                items: cache.len() as u64,
                bytes: cache.bytes_used() as u64,
                limit: cache.limit() as u64,
                evictions: cache.total_evictions(),
                store_drops: cache.total_store_dropped(),
            },
            serve: ServeTelemetry {
                submitted: serve.submitted,
                rejected_overload: serve.rejected_overload,
                rejected_deadline: serve.rejected_deadline,
                completed: serve.completed,
                batches: serve.batches,
                batched_requests: serve.batched_requests,
                unique_rows: serve.unique_rows,
                degraded_batches: serve.degraded_batches,
            },
            ingest: {
                let graph = self.shared.live.as_ref().map(LiveGraph::ingest_stats);
                let graph = graph.unwrap_or_default();
                IngestTelemetry {
                    edges_appended: graph.edges_appended,
                    compactions: graph.compactions,
                    delta_edges: graph.delta_edges,
                    entries_invalidated: serve.entries_invalidated,
                    entries_retained: serve.entries_retained,
                    per_layer: (1..)
                        .zip(serve.layer_removed.iter().zip(&serve.layer_retained))
                        .map(|(layer, (&removed, &retained))| {
                            LayerSweepTelemetry { layer, removed, retained }
                        })
                        .collect(),
                }
            },
            latency: LatencyTelemetry {
                end_to_end: serve.latency,
                workers: self.shared.worker_latency.iter().map(|h| h.snapshot()).collect(),
            },
            ..TelemetrySnapshot::new()
        }
    }

    /// Cores each worker's engine may use (1: waves run with no helper
    /// threads).
    pub fn engine_cores(&self) -> usize {
        self.shared.engine_cores()
    }

    /// The memoization cache shared by every worker.
    pub fn shared_cache(&self) -> Arc<LayerCaches> {
        Arc::clone(&self.shared.cache)
    }

    /// Currently queued (admitted, unbatched) requests.
    pub fn queued(&self) -> usize {
        self.shared.queue.len()
    }

    /// A consistent snapshot of the live graph, or `None` when live
    /// ingest is disabled. The view pins its generation: holding it is
    /// free for appenders and only delays reclaiming a compacted base.
    pub fn live_view(&self) -> Option<GraphView> {
        self.shared.live.as_ref().map(LiveGraph::view)
    }

    /// Live-graph ingest statistics, or `None` when live ingest is
    /// disabled.
    pub fn ingest_stats(&self) -> Option<IngestStats> {
        self.shared.live.as_ref().map(LiveGraph::ingest_stats)
    }

    /// Forces a delta-to-CSR compaction now (live-ingest mode). Returns
    /// whether a live graph existed to compact. Safe concurrently with
    /// queries: existing views keep their generation alive.
    pub fn compact_live(&self) -> bool {
        match self.shared.live.as_ref() {
            Some(live) => {
                live.compact();
                true
            }
            None => false,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    fn close_and_join(&mut self) {
        self.shared.queue.close();
        if self.deterministic {
            // Flush the backlog so no ticket is left forever pending.
            let _ = self.drain();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Stops admissions, flushes every queued request, joins all threads,
    /// and returns the final counters. (Dropping the server does the same
    /// without returning stats.)
    pub fn shutdown(mut self) -> ServeStats {
        self.close_and_join();
        self.stats()
    }

    /// Like [`TgServer::shutdown`], but also returns the unified telemetry
    /// snapshot taken *after* every worker has merged its engine-side
    /// totals — the complete end-of-run picture.
    pub fn shutdown_with_telemetry(mut self) -> (ServeStats, TelemetrySnapshot) {
        self.close_and_join();
        (self.stats(), self.telemetry())
    }
}

impl Drop for TgServer {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::Edge;
    use tg_telemetry::TimeCacheTelemetry;
    use tg_tensor::init;
    use tgat::TgatConfig;

    const NODES: usize = 8;

    fn bundle() -> Arc<ModelBundle> {
        let cfg = TgatConfig::tiny();
        let edges: Vec<Edge> = (0..24)
            .map(|i| {
                let (src, dst) = ((i % NODES) as NodeId, ((i * 3 + 1) % NODES) as NodeId);
                Edge { src, dst, time: (i + 1) as Time, eid: i as EdgeId }
            })
            .collect();
        let graph = TemporalGraph::from_edges(NODES, &edges);
        let mut rng = init::seeded_rng(11);
        let nf = init::normal(&mut rng, NODES, cfg.dim, 0.5);
        let ef = init::normal(&mut rng, 24, cfg.edge_dim, 0.5);
        let params = TgatParams::init(cfg, 3).unwrap();
        Arc::new(ModelBundle::new(params, graph, nf, ef).unwrap())
    }

    fn time_cache(engine: &TgoptEngine<'_>) -> TimeCacheTelemetry {
        let (hits, misses) = engine.time_cache_stats();
        TimeCacheTelemetry { lookups: hits + misses, hits }
    }

    #[test]
    fn drains_add_their_engine_totals_instead_of_overwriting_them() {
        let bundle = bundle();
        let server = TgServer::deterministic(Arc::clone(&bundle), ServeConfig::default()).unwrap();
        // A direct engine replays the same two waves over its own cache;
        // its counters after each wave are the expected running totals.
        let mut direct = TgoptEngine::new(&bundle.params, bundle.context(), server.config().opt);
        let first: Vec<(NodeId, Time)> = (0..NODES as NodeId).map(|n| (n, 25.0)).collect();
        let second: Vec<(NodeId, Time)> =
            (0..NODES as NodeId).flat_map(|n| [(n, 25.0), (n, 30.0)]).collect();

        let mut totals = Vec::new();
        for wave in [&first, &second] {
            let (ns, ts): (Vec<NodeId>, Vec<Time>) = wave.iter().copied().unzip();
            let tickets = server.submit_many(&ns, &ts).unwrap();
            assert_eq!(server.drain().unwrap(), wave.len());
            for t in tickets {
                t.wait().unwrap();
            }
            direct.embed_batch(&ns, &ts).unwrap();
            totals.push((server.engine_counters(), server.telemetry().time_cache));
            assert_eq!(totals.last(), Some(&(direct.counters(), time_cache(&direct))));
        }

        // Both drains did work of their own, so a fold that overwrote the
        // first drain's totals with the second's would have failed above.
        let (c1, tc1) = totals[0];
        let (c2, tc2) = totals[1];
        assert_ne!(c1, EngineCounters::default());
        assert!(c2.delta_since(&c1).cache_hits > 0, "the second drain reuses the first's entries");
        assert!(tc1.lookups > 0 && tc2.lookups > tc1.lookups);
    }
}
