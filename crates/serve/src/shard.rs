//! The shard router: S independent serving engines behind one facade.
//!
//! A single [`TgServer`] funnels every request through one shared cache
//! and one lock family, which caps throughput at roughly one socket no
//! matter how fast the kernels are. [`ShardRouter`] partitions the
//! serving world instead: each shard is a *complete* [`TgServer`] — its
//! own `LayerCaches`, embed cache, bounded admission queue, worker pool,
//! `LiveGraph` delta view, and `IngestSync` pin table — and a query
//! touches exactly the shard that owns its target node. On the query hot
//! path no lock is shared between shards.
//!
//! **Routing.** A [`ShardAssignment`] (hash or degree-balanced; see
//! `tg_graph::shard`) maps the target node to its owning shard. The
//! assignment is immutable and shared read-only, so routing is a
//! lock-free table/hash lookup.
//!
//! **Replicated frontier.** A layer-2 embedding of an owned node
//! aggregates layer-1 embeddings of its sampled neighbors, which may be
//! owned by *other* shards. Rather than cross-shard RPC on the hot path,
//! each shard computes those frontier embeddings locally from replicated
//! state: layer-0 node features, edge features, and time-encode inputs
//! are immutable and shared (`Arc`), and the delta stream is replicated
//! into every shard's live view (below), so the computation is purely
//! local and bit-identical to the owner's. The price is duplicated
//! compute/cache space, measured by the `frontier_reads` /
//! `frontier_remote` counters so the next PR can judge smarter placement
//! against observed traffic.
//!
//! **Ingest.** [`ShardRouter::submit_edge`] replicates each accepted
//! edge into *every* shard's live graph (an edge between nodes owned by
//! shards A and B changes 2-hop neighborhoods of nodes owned by any
//! shard, so endpoint-only routing would silently corrupt layer-2
//! serving). Each shard runs the windowed staleness sweep against its
//! own cache, and each shard's `IngestSync` pins are private — the
//! sweep-or-replay guarantee holds per shard exactly as it does for a
//! standalone server. The router serializes `submit_edge` calls under
//! its `router` mutex (ordered *before* every per-shard lock) so all
//! shards ingest the same edge sequence and per-shard sequence numbers
//! stay equal to the globally assigned edge id.
//!
//! The base T-CSR is `Arc`-shared (see `ModelBundle`), so S shards cost
//! S delta logs and S caches, not S copies of the graph.

use crate::relock;
use crate::request::{Request, Ticket};
use crate::server::{ModelBundle, ServeConfig, TgServer};
use crate::stats::ServeStats;
use std::sync::{Arc, Mutex};
use tg_error::TgError;
use tg_graph::{EdgeId, NodeId, ShardAssignment, Time};
use tg_telemetry::{HistogramSnapshot, ShardTelemetry, TelemetrySnapshot};

/// Per-shard identity handed to a scoped [`TgServer`]: which shard it is
/// and the assignment it measures replication traffic against.
pub(crate) struct ShardScope {
    /// The router-wide node → shard map.
    pub assignment: Arc<ShardAssignment>,
    /// This shard's index.
    pub shard: usize,
}

/// S independent serving shards behind one submit/drain/stats facade.
pub struct ShardRouter {
    shards: Vec<TgServer>,
    assignment: Arc<ShardAssignment>,
    /// Serializes `submit_edge` across shards — the only cross-shard
    /// lock, and it is not on the query path. Guards the count of edges
    /// accepted by the router (each is replicated into every shard).
    /// Lock order: `router` strictly before any per-shard lock.
    router: Mutex<u64>,
}

impl ShardRouter {
    /// A router over deterministic shards: requests queue per shard until
    /// [`ShardRouter::drain`] processes them shard-by-shard in shard
    /// order. With the same submissions and drain points, results are
    /// bit-reproducible — the mode the property suites replay.
    pub fn deterministic(
        bundle: Arc<ModelBundle>,
        cfg: ServeConfig,
        assignment: ShardAssignment,
    ) -> Result<Self, TgError> {
        Self::build(bundle, cfg, assignment, TgServer::deterministic_scoped)
    }

    /// A router over threaded shards: each shard runs its own queue and
    /// worker pool (`cfg.workers` threads *per shard*).
    pub fn threaded(
        bundle: Arc<ModelBundle>,
        cfg: ServeConfig,
        assignment: ShardAssignment,
    ) -> Result<Self, TgError> {
        Self::build(bundle, cfg, assignment, TgServer::threaded_scoped)
    }

    fn build(
        bundle: Arc<ModelBundle>,
        cfg: ServeConfig,
        assignment: ShardAssignment,
        make: fn(Arc<ModelBundle>, ServeConfig, Option<ShardScope>) -> Result<TgServer, TgError>,
    ) -> Result<Self, TgError> {
        let assignment = Arc::new(assignment);
        let shards = (0..assignment.n_shards())
            .map(|shard| {
                let scope = ShardScope { assignment: Arc::clone(&assignment), shard };
                make(Arc::clone(&bundle), cfg, Some(scope))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { shards, assignment, router: Mutex::new(0) })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The node → shard map in use.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// The shard that owns (and will serve) `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.assignment.owner(node)
    }

    /// Submits one query with no deadline to the owning shard.
    pub fn submit(&self, node: NodeId, time: Time) -> Result<Ticket, TgError> {
        self.submit_request(Request::new(node, time))
    }

    /// Submits a [`Request`] to the shard owning its target node. All of
    /// [`TgServer::submit_request`]'s admission semantics (deadline
    /// pre-check, bounded-queue backpressure) apply per shard.
    pub fn submit_request(&self, req: Request) -> Result<Ticket, TgError> {
        self.shards[self.assignment.owner(req.node)].submit_request(req)
    }

    /// Submits `ns[i], ts[i]` pairs in order; ticket `i` resolves to
    /// query `i`'s embedding row regardless of which shard served it.
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

    /// Appends one edge to *every* shard's live graph (see the module
    /// docs for why replication, not endpoint routing, is required for
    /// layer-2 correctness) and runs the windowed staleness sweep
    /// shard-locally against each shard's own cache. Returns the
    /// globally assigned edge id.
    ///
    /// # Invariants
    ///
    /// - The `router` mutex serializes cross-shard replication, so every
    ///   shard ingests the identical edge sequence and each shard's
    ///   next sequence number equals the global edge id — the returned
    ///   id is the `edge_features` row on every shard.
    /// - All shards share the admission preconditions (node range,
    ///   edge-feature capacity) and identical edge counts, so the first
    ///   shard's accept/reject decision is every shard's decision: a
    ///   rejection propagates before any shard mutates.
    // hot-path-root(serve)
    pub fn submit_edge(&self, src: NodeId, dst: NodeId, time: Time) -> Result<EdgeId, TgError> {
        let mut accepted = relock(self.router.lock());
        let mut eid: Option<EdgeId> = None;
        for shard in &self.shards {
            let got = shard.submit_edge(src, dst, time)?;
            debug_assert!(eid.is_none_or(|e| e == got), "shards diverged on edge id");
            eid = Some(got);
        }
        *accepted += 1;
        // Build guarantees at least one shard, so the id is present.
        eid.ok_or_else(|| TgError::InvalidArgument("router has no shards".into()))
    }

    /// Edges accepted by this router (each replicated into every shard).
    pub fn edges_accepted(&self) -> u64 {
        *relock(self.router.lock())
    }

    /// Deterministic mode only: drains every shard on the calling thread,
    /// in shard order (shard 0's backlog first, then shard 1's, …).
    /// Returns the total number of requests processed.
    // hot-path-root(serve)
    pub fn drain(&self) -> Result<usize, TgError> {
        let mut n = 0;
        for shard in &self.shards {
            n += shard.drain()?;
        }
        Ok(n)
    }

    /// Merged serving counters across all shards (see
    /// [`ServeStats::merge`]; the `submitted >= completed +
    /// rejected_deadline` identity survives the merge). Note that in a
    /// router, `edges_ingested` counts per-shard appends — each accepted
    /// edge appears once per shard; [`ShardRouter::edges_accepted`] has
    /// the deduplicated count.
    pub fn stats(&self) -> ServeStats {
        self.shards.iter().fold(ServeStats::default(), |acc, s| acc.merge(&s.stats()))
    }

    /// Each shard's own counter snapshot, in shard order.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(TgServer::stats).collect()
    }

    /// Requests admitted but not yet batched, summed across shards.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(TgServer::queued).sum()
    }

    /// Direct access to shard `i`'s server (tests/diagnostics).
    pub fn shard(&self, i: usize) -> &TgServer {
        &self.shards[i]
    }

    /// Drops every cached embedding of `node` in *every* shard — the
    /// replicated-frontier strategy means any shard may hold entries
    /// keyed by any node. Returns total entries removed.
    pub fn invalidate_node(&self, node: NodeId) -> usize {
        self.shards.iter().map(|s| s.invalidate_node(node)).sum()
    }

    /// Forces delta-to-CSR compaction on every shard's live graph.
    /// Returns whether live graphs existed to compact.
    pub fn compact_live(&self) -> bool {
        self.shards.iter().fold(true, |all, s| s.compact_live() && all)
    }

    /// Edge-insert events currently held for replay, summed over shards
    /// (drops to zero at quiescence).
    pub fn pending_ingest_events(&self) -> usize {
        self.shards.iter().map(TgServer::pending_ingest_events).sum()
    }

    /// The unified telemetry snapshot: flat sections hold merged totals
    /// across shards; `shards` holds one [`ShardTelemetry`] per shard
    /// (queue depth, hit rate, frontier traffic, latency). The same
    /// caveat as [`TgServer::telemetry`] applies: engine-side values are
    /// complete only after the shard's workers have exited.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let queued: Vec<usize> = self.shards.iter().map(TgServer::queued).collect();
        let per_shard: Vec<TelemetrySnapshot> =
            self.shards.iter().map(TgServer::telemetry).collect();
        merge_telemetry(&per_shard, &queued)
    }

    /// Stops admissions on every shard, flushes queued requests, joins
    /// all threads, and returns the merged final counters.
    pub fn shutdown(self) -> ServeStats {
        self.shards
            .into_iter()
            .fold(ServeStats::default(), |acc, s| acc.merge(&s.shutdown()))
    }

    /// Like [`ShardRouter::shutdown`], but also returns the merged
    /// telemetry snapshot taken after every worker exited — per-shard
    /// engine counters are complete here.
    pub fn shutdown_with_telemetry(self) -> (ServeStats, TelemetrySnapshot) {
        let finals: Vec<(ServeStats, TelemetrySnapshot)> =
            self.shards.into_iter().map(TgServer::shutdown_with_telemetry).collect();
        let stats = finals.iter().fold(ServeStats::default(), |acc, (s, _)| acc.merge(s));
        let snaps: Vec<TelemetrySnapshot> = finals.into_iter().map(|(_, t)| t).collect();
        let queued = vec![0; snaps.len()];
        (stats, merge_telemetry(&snaps, &queued))
    }
}

/// Folds per-shard snapshots into one router-wide snapshot: counters
/// add, stage rows add positionally (fixed nine-row order), histograms
/// merge bucket-wise, and the per-shard sections are preserved under
/// `shards`.
fn merge_telemetry(per_shard: &[TelemetrySnapshot], queued: &[usize]) -> TelemetrySnapshot {
    let mut out = TelemetrySnapshot::new();
    for (i, t) in per_shard.iter().enumerate() {
        // Stage rows are emitted in fixed OpKind order by every recorder;
        // merge positionally, adopting the first shard's labels.
        if out.stages.is_empty() {
            out.stages = t.stages.clone();
        } else {
            for (acc, row) in out.stages.iter_mut().zip(&t.stages) {
                acc.total_ns += row.total_ns;
                acc.count += row.count;
            }
        }
        out.engine.cache_lookups += t.engine.cache_lookups;
        out.engine.cache_hits += t.engine.cache_hits;
        out.engine.cache_stores += t.engine.cache_stores;
        out.engine.recomputed += t.engine.recomputed;
        out.engine.dedup_removed += t.engine.dedup_removed;
        out.engine.stores_skipped += t.engine.stores_skipped;
        out.time_cache.lookups += t.time_cache.lookups;
        out.time_cache.hits += t.time_cache.hits;
        out.embed_cache.items += t.embed_cache.items;
        out.embed_cache.bytes += t.embed_cache.bytes;
        out.embed_cache.limit += t.embed_cache.limit;
        out.embed_cache.evictions += t.embed_cache.evictions;
        out.embed_cache.store_drops += t.embed_cache.store_drops;
        out.serve.submitted += t.serve.submitted;
        out.serve.rejected_overload += t.serve.rejected_overload;
        out.serve.rejected_deadline += t.serve.rejected_deadline;
        out.serve.completed += t.serve.completed;
        out.serve.batches += t.serve.batches;
        out.serve.batched_requests += t.serve.batched_requests;
        out.serve.unique_rows += t.serve.unique_rows;
        out.serve.degraded_batches += t.serve.degraded_batches;
        out.serve.frontier_reads += t.serve.frontier_reads;
        out.serve.frontier_remote += t.serve.frontier_remote;
        out.ingest.edges_appended += t.ingest.edges_appended;
        out.ingest.compactions += t.ingest.compactions;
        out.ingest.delta_edges += t.ingest.delta_edges;
        out.ingest.entries_invalidated += t.ingest.entries_invalidated;
        out.ingest.entries_retained += t.ingest.entries_retained;
        // Per-layer bins are positional (layer i + 1); adopt the first
        // shard's layout and add element-wise across shards.
        if out.ingest.per_layer.is_empty() {
            out.ingest.per_layer = t.ingest.per_layer.clone();
        } else {
            for (acc, bin) in out.ingest.per_layer.iter_mut().zip(&t.ingest.per_layer) {
                acc.removed += bin.removed;
                acc.retained += bin.retained;
            }
        }
        out.latency.end_to_end.merge(&t.latency.end_to_end);
        out.latency.workers.extend(t.latency.workers.iter().cloned());
        let mut wave = HistogramSnapshot::default();
        for w in &t.latency.workers {
            wave.merge(w);
        }
        out.shards.push(ShardTelemetry {
            shard: i as u64,
            queue_depth: queued.get(i).copied().unwrap_or(0) as u64,
            submitted: t.serve.submitted,
            completed: t.serve.completed,
            rejected_overload: t.serve.rejected_overload,
            rejected_deadline: t.serve.rejected_deadline,
            batches: t.serve.batches,
            cache_lookups: t.engine.cache_lookups,
            cache_hits: t.engine.cache_hits,
            cache_items: t.embed_cache.items,
            frontier_reads: t.serve.frontier_reads,
            frontier_remote: t.serve.frontier_remote,
            end_to_end: t.latency.end_to_end.clone(),
            wave,
        });
    }
    out
}
