//! The hot path's allocation budget, counted rather than inferred.
//!
//! A counting `#[global_allocator]` over `System` counts every allocator
//! call (`alloc`, `alloc_zeroed` and `realloc`; frees are not counted) on
//! every thread of the process while a window is open, in every crate,
//! std included. Each case below pins the **exact** count of one
//! steady-state hot-path operation, so a change that adds (or removes) an
//! allocation on that path fails here until the pinned number is edited by
//! hand in the same diff, with the reason beside it.
//!
//! Why the counts are exact, not bounds:
//!
//! * Every input is fixed: a generated stream with a fixed seed, a
//!   model initialised from a fixed seed, fixed batch boundaries. Growth
//!   of every container is a function of lengths, and lengths are a
//!   function of those inputs; no count depends on a hash seed or a clock.
//! * Nothing fans out. Engines are built `with_cores(1)`, so attention
//!   blocks and each layer's sample-and-encode pass run on the caller.
//!   The served case's worker engine gets the host's cores, but a
//!   repeated one-row wave hits every layer-1 row and samples, encodes
//!   and attends one target at layer 2 (`OptConfig::all()`), so it
//!   spawns no helper whatever the runner's core count.
//! * The window counts every thread, so all cases run in this one test:
//!   another test in this binary (or the harness reporting one) would be
//!   counted too. The served case's worker allocates nothing after it
//!   fulfils the ticket — the tail of `process_wave` bumps atomics, and
//!   `pop_wave` allocates only once a request is queued — so reading the
//!   count when the ticket resolves closes its window exactly.
//!
//! The same counts hold in debug and release; `scripts/check.sh` and CI
//! run this file in both profiles.
//!
//! Where each case's allocations come from is listed beside its pinned
//! count in [`PINNED`]; it is the allocation baseline of the engine and
//! serve paths (EXPERIMENTS.md "Allocation baseline").

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tgopt_repro::datasets::{generate, spec_by_name, Dataset};
use tgopt_repro::graph::{BatchIter, EdgeStream, LiveGraph, NodeId, TemporalGraph, Time};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if ARMED.load(Ordering::SeqCst) {
        CALLS.fetch_add(1, Ordering::SeqCst);
    }
}

// safety: every method forwards its arguments unchanged to `System`, which upholds the `GlobalAlloc` contract; the counter touches no allocator state
unsafe impl GlobalAlloc for Counting {
    // safety: the caller's layout contract is passed straight through to `System`
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // safety: as above
        unsafe { System.alloc(layout) }
    }

    // safety: the caller's layout contract is passed straight through to `System`
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // safety: as above
        unsafe { System.alloc_zeroed(layout) }
    }

    // safety: `ptr` came from this allocator, i.e. from `System`, with `layout`
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // safety: as above
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // safety: `ptr` came from this allocator, i.e. from `System`, with `layout`
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // safety: as above
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocator calls, on every thread, while `f` runs.
fn count(f: impl FnOnce()) -> u64 {
    CALLS.swap(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    CALLS.swap(0, Ordering::SeqCst)
}

/// Edges per replay batch (the experiments' batch size).
const BATCH: usize = 200;
/// Cold replay batches counted by case (b).
const COLD_BATCHES: usize = 12;
/// Appends counted by case (d), well below the compaction threshold.
const APPENDS: usize = 1000;
/// The delta case (e) compacts: the stream's edges from this one to its
/// end (649 edges).
const DELTA_START: usize = 2500;

/// `(case, pinned count)`, one row per case, each with where its
/// allocations come from (counted, not estimated). `all()` is dedup, the
/// layer-1 cache, the time window and the edge projection over two layers;
/// every f32 intermediate of a warm engine comes from its scratch pool.
const PINNED: &[(&str, u64)] = &[
    // Per layer, dedup_filter's four vectors (8); at layer 2, the
    // sampler's four neighbourhood buffers and the attention mask (5),
    // the id and time concatenations (2); at layer 1, compute_keys' keys
    // and the lookup's hit mask (2); dedup_invert's output (1).
    ("(a) embed_batch, all hit, all(), frozen graph", 18),
    // Per layer, the sampler's four buffers and the mask (10) and the id
    // concatenation (2); the time concatenation at layer 2 (1); one
    // scratch miss (1): the returned output leaves the pool, so the
    // buffer it took is allocated again next call.
    ("(a) embed_batch, none(), frozen graph", 14),
    // As the frozen rows: `LiveGraph::view` (an Arc clone under the
    // generation read lock) and the lookup check over the view allocate
    // nothing.
    ("(a) embed_batch, all hit, all(), live view", 18),
    ("(a) embed_batch, none(), live view", 14),
    // 6,304 stored rows, one boxed row each; per store, the entry list,
    // the distinct-key set, shard-map growth and FIFO growth (164); per
    // layer-1 miss set, miss_idx (sized from the hit count) and the miss
    // ids, times and keys (12 x 4 = 48); per batch, (a)'s 18 plus the sampler buffers, mask and
    // id concatenation of the layer-1 misses (12 x 24 = 288); the scratch
    // pool's first fill (15); the edge-projection table's pages and the
    // projector's reused buffers growing to the largest call (50).
    ("(b) first 12 cold replay batches, all()", 6869),
    // The ticket's slot (1), the wave Vec (1), the live partition, target
    // list and row copy of process_wave (3), coalesce's plan and index
    // (4), and (a)'s 18 for a one-row batch.
    ("(c) one-request wave, one-worker threaded server", 27),
    // Amortised growth of the touched nodes' posting lists (811), of the
    // posting table (3) and of the delta log (9).
    ("(d) 1000 LiveGraph appends", 823),
    // The merge's five arrays (node counts, their cursor copy, the new
    // entries, indptr, entries), the new base's edit log in the same
    // layout (its offsets and its entries, 2) and the two Arcs of the new
    // generation (2). Nothing here grows with the base or with the
    // compactions it folded before, so the three rows must stay equal.
    ("(e) compaction of 649 appends, 1,000-edge base", 9),
    ("(e) compaction of 649 appends, 2,500-edge base", 9),
    ("(e) compaction of 649 appends, 1,000-edge base after 3 compactions", 9),
];

/// The replay checksums' model on 2% of jodie-wiki (3,149 edges): dim 32,
/// 172-column edge rows, zero node features, two layers of two heads, ten
/// neighbours.
fn world() -> (Dataset, TgatParams, TemporalGraph) {
    let spec = spec_by_name("jodie-wiki").unwrap();
    let mut data = generate(&spec, 0.02, 7).unwrap();
    let cfg = TgatConfig { dim: 32, edge_dim: data.dim(), time_dim: 32, n_layers: 2, n_heads: 2, n_neighbors: 10 };
    data.node_features = Tensor::zeros(data.node_features.rows(), cfg.dim);
    let params = TgatParams::init(cfg, 7).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    (data, params, graph)
}

/// The targets of replay batch `i`.
fn batch(data: &Dataset, i: usize) -> (Vec<NodeId>, Vec<Time>) {
    BatchIter::new(&data.stream, BATCH).nth(i).unwrap().targets()
}

/// Case (a): one more call of an engine already warm on `(ns, ts)`, the
/// view (if any) taken and pinned inside the window.
fn repeated_call(
    (data, params, graph): &(Dataset, TgatParams, TemporalGraph),
    opt: OptConfig,
    live: Option<&LiveGraph>,
    (ns, ts): &(Vec<NodeId>, Vec<Time>),
) -> u64 {
    let ctx = GraphContext { graph, node_features: &data.node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(params, ctx, opt).with_cores(1);
    let call = |eng: &mut TgoptEngine<'_>| {
        if let Some(live) = live {
            eng.pin_view(live.view());
        }
        eng.embed_batch(ns, ts).unwrap();
    };
    for _ in 0..3 {
        call(&mut eng);
    }
    count(|| call(&mut eng))
}

/// Case (b): allocator calls over the first [`COLD_BATCHES`] batches of a
/// cold engine.
fn cold_replay((data, params, graph): &(Dataset, TgatParams, TemporalGraph)) -> u64 {
    let batches: Vec<_> = (0..COLD_BATCHES).map(|i| batch(data, i)).collect();
    let ctx = GraphContext { graph, node_features: &data.node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(params, ctx, OptConfig::all()).with_cores(1);
    count(|| {
        for (ns, ts) in &batches {
            eng.embed_batch(ns, ts).unwrap();
        }
    })
}

/// Case (c): one request through a one-worker threaded server whose
/// worker has already served the same request.
fn served_request((data, params, graph): &(Dataset, TgatParams, TemporalGraph), (node, time): (NodeId, Time)) -> u64 {
    let bundle = ModelBundle::new(params.clone(), graph.clone(), data.node_features.clone(), data.edge_features.clone());
    let server = TgServer::threaded(Arc::new(bundle.unwrap()), ServeConfig::default().with_workers(1)).unwrap();
    for _ in 0..3 {
        server.submit(node, time).unwrap().wait().unwrap();
    }
    let calls = count(|| {
        server.submit(node, time).unwrap().wait().unwrap();
    });
    server.shutdown();
    calls
}

/// Case (d): [`APPENDS`] appends to a live graph over the stream's first
/// half.
fn appends(data: &Dataset) -> u64 {
    let edges = data.stream.edges();
    let half = edges.len() / 2;
    let live = LiveGraph::new(TemporalGraph::from_stream(&EdgeStream::from_edges(edges[..half].to_vec())));
    let tail = &edges[half..half + APPENDS];
    count(|| {
        for e in tail {
            live.append(e);
        }
    })
}

/// Case (e): one compaction of the same delta, the stream's edges from
/// [`DELTA_START`] on, over a base of its first `base` edges that folded
/// the edges up to [`DELTA_START`] in `folds` earlier compactions. The
/// count must depend on neither.
fn compaction(data: &Dataset, base: usize, folds: usize) -> u64 {
    let edges = data.stream.edges();
    let live = LiveGraph::new(TemporalGraph::from_stream(&EdgeStream::from_edges(edges[..base].to_vec())))
        .with_compact_threshold(usize::MAX);
    if folds > 0 {
        for chunk in edges[base..DELTA_START].chunks((DELTA_START - base).div_ceil(folds)) {
            for e in chunk {
                live.append(e);
            }
            live.compact();
        }
    }
    for e in &edges[DELTA_START..] {
        live.append(e);
    }
    count(|| live.compact())
}

#[test]
fn hot_path_allocation_counts_are_pinned() {
    let w = world();
    let last = batch(&w.0, COLD_BATCHES - 1);
    // The live graph holds the first eleven batches in its base and the
    // twelfth as appends, so the view's rows read the delta too.
    let edges = w.0.stream.edges();
    let split = (COLD_BATCHES - 1) * BATCH;
    let live = LiveGraph::new(TemporalGraph::from_stream(&EdgeStream::from_edges(edges[..split].to_vec())));
    for e in &edges[split..COLD_BATCHES * BATCH] {
        live.append(e);
    }

    let got = [
        repeated_call(&w, OptConfig::all(), None, &last),
        repeated_call(&w, OptConfig::none(), None, &last),
        repeated_call(&w, OptConfig::all(), Some(&live), &last),
        repeated_call(&w, OptConfig::none(), Some(&live), &last),
        cold_replay(&w),
        served_request(&w, (last.0[0], last.1[0])),
        appends(&w.0),
        compaction(&w.0, 1000, 0),
        compaction(&w.0, DELTA_START, 0),
        compaction(&w.0, 1000, 3),
    ];
    let table: Vec<String> = PINNED
        .iter()
        .zip(got)
        .map(|(&(case, want), got)| format!("{case}: {got} (pinned {want}){}", if got == want { "" } else { "  <-- changed" }))
        .collect();
    assert!(
        PINNED.iter().zip(got).all(|(&(_, want), got)| got == want),
        "allocation counts changed; if intended, edit PINNED and say why:\n{}",
        table.join("\n")
    );
}
