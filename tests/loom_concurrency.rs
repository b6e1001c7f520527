#![cfg(loom)]
//! Loom models of the three cache/serve hot-path protocols (see DESIGN.md
//! "Concurrency model"). Compiled only under `--cfg loom`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test --test loom_concurrency --release
//! ```
//!
//! `LOOM_ITERATIONS` (default 64) controls how many seeded schedules each
//! model explores. The vendored `loom` is a randomized-interleaving shim,
//! not exhaustive DPOR — see vendor/loom's crate docs — so these models
//! drive the *real* `tgopt::EmbedCache` and `tg_serve::BoundedQueue` with
//! real threads; only the Ticket/Slot protocol is mirrored (the `Slot`
//! type is `pub(crate)`).

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::time::Duration;
use tg_graph::{Edge, LiveGraph, NodeId, TemporalGraph, Versioned};
use tg_serve::BoundedQueue;
use tg_telemetry::LatencyHistogram;
use tg_tensor::Tensor;
use tgopt::{pack_key, EmbedCache};

/// Mirror of `tg_serve::request::Slot`'s first-write-wins protocol
/// (`fulfill` + consuming `wait`); the real type is crate-private.
struct SlotModel {
    /// `(fulfilled, result)`: the flag outlives the waiter's `take`.
    cell: Mutex<(bool, Option<u32>)>,
    ready: Condvar,
}

impl SlotModel {
    fn new() -> Self {
        Self { cell: Mutex::new((false, None)), ready: Condvar::new() }
    }

    /// Returns true if this call's value won the slot.
    fn fulfill(&self, value: u32) -> bool {
        let mut cell = self.cell.lock().unwrap();
        if !cell.0 {
            *cell = (true, Some(value));
            drop(cell);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    fn wait(&self) -> u32 {
        let mut cell = self.cell.lock().unwrap();
        loop {
            if let Some(v) = cell.1.take() {
                return v;
            }
            cell = self.ready.wait(cell).unwrap();
        }
    }
}

/// (a) Ticket/Slot scatter: two racing fulfillments (a batch result vs a
/// deadline rejection) produce exactly one winner and the waiter observes
/// exactly that winner's value — no lost write, no double completion.
#[test]
fn slot_first_write_wins_under_racing_fulfillments() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let slot = Arc::new(SlotModel::new());
        let s1 = Arc::clone(&slot);
        let s2 = Arc::clone(&slot);
        let t1 = thread::spawn(move || s1.fulfill(1));
        let t2 = thread::spawn(move || s2.fulfill(2));
        let w1 = t1.join().unwrap();
        let w2 = t2.join().unwrap();
        // Exactly one fulfillment wins; the other is ignored.
        assert!(w1 ^ w2, "exactly one writer must win (got w1={w1}, w2={w2})");
        let observed = slot.wait();
        let winner = if w1 { 1 } else { 2 };
        assert_eq!(observed, winner, "waiter must observe the winning write");
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// (e) LiveGraph epoch publish vs reader pin: a writer appends edges —
/// crossing the compaction threshold mid-stream so a generation swap
/// races the readers — while one thread repeatedly takes fresh views and
/// a view pinned before the first append is held across the whole run.
/// Epochs only advance, every view is internally consistent (each
/// visible edge contributes exactly two adjacency postings, so a
/// half-published append would break the identity), and the pinned
/// snapshot is immutable even after compaction replaced the generation
/// beneath it. The cache's one-load check relies on one more property:
/// a view whose epoch covers an edge reads `last_append >= seq + 1` for
/// both its endpoints, because `append` stores the stamps before it
/// publishes the epoch. Every view above checks it, and a second phase
/// races a burst of appends against a reader spinning on fresh views, so
/// a stamp stored after the publish has many windows to show in. The
/// lookup's slow path reads the postings' `seq` and time, the generation's
/// log length (postings newer than the reader's own epoch included) and
/// the appends compaction folded into the base's log: each reader asks
/// `holds` of its current and its previous view, each about the other's
/// epoch. A window `holds` vouches for must be the same in both views; a
/// newer view's answer is exact, folded appends or not (appends arrive in
/// time order, so a window before `t` moved iff an append below `t`
/// landed between the epochs).
#[test]
fn live_graph_epoch_publish_never_tears_a_view() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    const N_NODES: u32 = 4;

    fn postings(v: &tg_graph::GraphView) -> u64 {
        (0..N_NODES).map(|n| v.hist_len_before(n as NodeId, 1e9) as u64).sum()
    }

    /// Endpoints of the writer's `i`-th append.
    fn endpoints(i: u32) -> [NodeId; 2] {
        [i % N_NODES, (i + 2) % N_NODES]
    }

    /// `reader.holds(.., other.epoch())` never vouches for a window that
    /// differs between the two views, and answers exactly when the reader
    /// is the newer one.
    fn holds_sound(reader: &tg_graph::GraphView, other: &tg_graph::GraphView) {
        for node in 0..N_NODES {
            for t in [3.5, 1e9] {
                let holds = reader.holds(node, t, other.epoch());
                let same = reader.neighbors_before_vec(node, t) == other.neighbors_before_vec(node, t);
                let (at, since) = (reader.epoch(), other.epoch());
                assert!(!holds || same, "epoch {at} vouched for ({node}, {t}) as at epoch {since}");
                assert!(at < since || holds == same, "epoch {at} refused ({node}, {t}) as at epoch {since}");
            }
        }
    }

    /// Every endpoint of every append the view covers carries a stamp at
    /// least that append's `seq + 1` (newest first: the race is there).
    fn stamps_cover(v: &tg_graph::GraphView) {
        for seq in (2..v.epoch()).rev() {
            for node in endpoints((seq - 2) as u32) {
                let stamp = v.last_append(node).unwrap();
                assert!(stamp > seq, "view at epoch {} covers seq {seq} but node {node} reads stamp {stamp}", v.epoch());
            }
        }
    }

    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let base = TemporalGraph::from_edges(
            N_NODES as usize,
            &[Edge { src: 0, dst: 1, time: 1.0, eid: 0 }, Edge { src: 1, dst: 2, time: 2.0, eid: 1 }],
        );
        let live = Arc::new(LiveGraph::new(base).with_compact_threshold(2));

        let pinned = live.view();
        assert_eq!(pinned.num_edges(), 2);

        let g = Arc::clone(&live);
        let writer = thread::spawn(move || {
            for i in 0..3u32 {
                // Serialized appends get contiguous sequence numbers; the
                // second one crosses the threshold and compacts inline.
                let [src, dst] = endpoints(i);
                let seq = g.append(&Edge {
                    src,
                    dst,
                    time: 3.0 + i as f32,
                    eid: 2 + i,
                });
                assert_eq!(seq, 2 + u64::from(i), "appends must publish contiguous seqs");
                thread::yield_now();
            }
        });

        let g = Arc::clone(&live);
        let reader = thread::spawn(move || {
            let mut last = 0u64;
            let mut prev = g.view();
            for _ in 0..4 {
                let v = g.view();
                let epoch = v.epoch();
                assert!(epoch >= last, "epoch went backwards: {last} -> {epoch}");
                last = epoch;
                assert_eq!(v.num_edges(), epoch, "view visibility must equal its epoch");
                assert_eq!(
                    postings(&v),
                    2 * v.num_edges(),
                    "torn view at epoch {epoch}: postings do not match visible edges"
                );
                stamps_cover(&v);
                holds_sound(&v, &prev);
                holds_sound(&prev, &v);
                prev = v;
                thread::yield_now();
            }
        });

        writer.join().unwrap();
        reader.join().unwrap();

        // The pinned pre-write snapshot never moved, even though the
        // writer's inline compaction swapped the generation under it.
        assert_eq!(pinned.num_edges(), 2, "pinned view must stay frozen");
        assert_eq!(postings(&pinned), 4, "pinned view postings must stay frozen");
        let final_view = live.view();
        assert_eq!(final_view.num_edges(), 5);
        assert_eq!(postings(&final_view), 10);
        stamps_cover(&final_view);
        // Node 3 is touched only by the writer's second append (seq 3).
        assert_eq!(pinned.last_append(3), Some(4), "stamps are the live graph's, not the view's");
        assert!(live.ingest_stats().compactions >= 1, "threshold 2 must force a compaction");

        const BURST: u32 = 256;
        let (started, done) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
        let (g, s, d) = (Arc::clone(&live), Arc::clone(&started), Arc::clone(&done));
        let writer = thread::spawn(move || {
            // Start once the reader spins, or the burst may be over first.
            while !s.load(Ordering::Acquire) {
                thread::yield_now();
            }
            for i in 3..3 + BURST {
                let [src, dst] = endpoints(i);
                g.append(&Edge { src, dst, time: 3.0 + i as f32, eid: 2 + i });
            }
            d.store(true, Ordering::Release);
        });
        let (g, s, d) = (Arc::clone(&live), Arc::clone(&started), Arc::clone(&done));
        let reader = thread::spawn(move || {
            s.store(true, Ordering::Release);
            let mut prev = g.view();
            while !d.load(Ordering::Acquire) {
                let v = g.view();
                stamps_cover(&v);
                holds_sound(&v, &prev);
                holds_sound(&prev, &v);
                prev = v;
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
        stamps_cover(&live.view());
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// (b) EmbedCache stores vs lookups and a `clear`: two writers, a reader,
/// and an invalidator that clears once race. The reader never sees
/// `len()` over the limit; at the end `len()` agrees with the exported
/// FIFO (an entry left without its slot by a store racing `clear` would
/// break it), every inserted entry was evicted, cleared or is resident,
/// and hit rows are never torn.
#[test]
fn cache_accounting_survives_store_lookup_invalidate_race() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let cache = Arc::new(EmbedCache::new(4, 2));

        let writers: Vec<_> = (0..2u32)
            .map(|w| {
                let c = Arc::clone(&cache);
                thread::spawn(move || {
                    for t in 0..3u32 {
                        let keys = [pack_key(7, t as f32), pack_key(100 + 10 * w + t, 1.0)];
                        let h = Tensor::from_vec(2, 2, vec![t as f32, 1.0, t as f32, 2.0]);
                        c.store(&keys, &h, false).unwrap();
                    }
                })
            })
            .collect();

        let c = Arc::clone(&cache);
        let invalidator = thread::spawn(move || c.clear());

        let c = Arc::clone(&cache);
        let reader = thread::spawn(move || {
            let mut out = Tensor::zeros(1, 2);
            for t in 0..3u32 {
                assert!(c.len() <= c.limit(), "capacity bound violated mid-race: {}", c.len());
                let hit = c.lookup(&[pack_key(7, t as f32)], &mut out, false).unwrap();
                if hit[0] {
                    // A hit row is a fully-written row, never a torn one.
                    assert_eq!(out.row(0), &[t as f32, 1.0], "lookup returned a torn row");
                }
            }
        });

        for writer in writers {
            writer.join().unwrap();
        }
        invalidator.join().unwrap();
        reader.join().unwrap();

        let live = cache.export_fifo_order().len();
        assert_eq!(
            cache.len(),
            live,
            "count diverged from live entries (underflow or lost accounting)"
        );
        assert!(cache.len() <= cache.limit(), "capacity bound violated: {}", cache.len());
        assert_eq!(
            cache.total_inserted(),
            cache.total_evictions() + cache.total_cleared() + cache.len() as u64,
            "accounting identity violated"
        );
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// One schedule of the queue handshake: two producers race `consumers`
/// consumers parked in `pop_wave(2, ZERO)` and a `close`. Every accepted
/// push is popped exactly once across all consumers (no lost, stranded or
/// duplicated item), rejected pushes are really rejected, each wave is
/// non-empty, at most `max` long and FIFO, the backlog never exceeds
/// capacity, and `close` wakes every consumer — joining them all is the
/// "each drains to `None`" assertion; one left parked would hang here.
fn queue_handshake_schedule(consumers: usize) {
    let queue: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2));

    let consumers: Vec<_> = (0..consumers)
        .map(|_| {
            let q = Arc::clone(&queue);
            thread::spawn(move || {
                let mut popped = Vec::new();
                while let Some(wave) = q.pop_wave(2, Duration::ZERO) {
                    assert!(!wave.is_empty(), "pop_wave returned an empty wave");
                    assert!(wave.len() <= 2, "wave exceeded max");
                    // Items are `producer * 10 + i`, pushed with `i`
                    // increasing: one producer's items never reorder.
                    assert!(
                        wave.windows(2).all(|w| w[0] / 10 != w[1] / 10 || w[0] < w[1]),
                        "wave {wave:?} is not FIFO"
                    );
                    popped.extend(wave);
                    thread::yield_now();
                }
                popped
            })
        })
        .collect();

    let producers: Vec<_> = (0..2u32)
        .map(|p| {
            let q = Arc::clone(&queue);
            thread::spawn(move || {
                let mut accepted = Vec::new();
                for i in 0..3u32 {
                    let item = p * 10 + i;
                    if q.push(item).is_ok() {
                        accepted.push(item);
                    }
                    assert!(q.len() <= q.capacity(), "backlog exceeded capacity");
                    thread::yield_now();
                }
                accepted
            })
        })
        .collect();

    let mut accepted: Vec<u32> = producers.into_iter().flat_map(|t| t.join().unwrap()).collect();
    // Consumers exit only once the queue is closed *and* drained.
    queue.close();
    assert!(queue.is_closed());
    assert!(queue.push(99).is_err(), "push after close must be rejected");

    let mut popped: Vec<u32> = consumers.into_iter().flat_map(|t| t.join().unwrap()).collect();
    accepted.sort_unstable();
    popped.sort_unstable();
    assert_eq!(popped, accepted, "every accepted item pops exactly once");
    assert_eq!(queue.len(), 0, "drained queue must account to empty");
}

/// (c) BoundedQueue close/backpressure handshake with a single consumer
/// (see [`queue_handshake_schedule`]).
#[test]
fn bounded_queue_close_backpressure_handshake() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        queue_handshake_schedule(1);
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// (c') The same handshake in the production shape — every serving worker
/// pops its own waves, so two consumers share the queue.
#[test]
fn bounded_queue_two_consumers_drain_exactly_once() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        queue_handshake_schedule(2);
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}

/// (d) Latency histogram conservation: concurrent `record()`s from two
/// recorder threads race against a `merge_from` into a sink histogram.
/// Every recorded sample must land in exactly one bucket (count equals the
/// bucket sum), nothing is lost or double-counted across the merge, and a
/// mid-race snapshot is never ahead of what was recorded.
#[test]
fn latency_histogram_conserves_counts_under_concurrent_record_and_merge() {
    static ITERS: AtomicUsize = AtomicUsize::new(0);
    loom::model(|| {
        ITERS.fetch_add(1, Ordering::SeqCst);
        let hist = Arc::new(LatencyHistogram::new());
        let sink = Arc::new(LatencyHistogram::new());

        let recorders: Vec<_> = (0..2u32)
            .map(|r| {
                let h = Arc::clone(&hist);
                thread::spawn(move || {
                    // Distinct magnitudes per thread so both land in
                    // different log2 buckets (no masking of lost updates
                    // by same-bucket collisions).
                    for i in 0..3u64 {
                        h.record((u64::from(r) + 1) * 1000 + i);
                        thread::yield_now();
                    }
                })
            })
            .collect();

        let h = Arc::clone(&hist);
        let s = Arc::clone(&sink);
        let merger = thread::spawn(move || {
            // Mid-race observation: `record()` bumps the bucket before the
            // `count` atomic, so a snapshot taken between the two sees the
            // bucket sum ahead of `count` by at most one per in-flight
            // recorder — never behind, never more than 2 ahead here.
            let mid = h.snapshot();
            let bucket_sum = mid.buckets().iter().sum::<u64>();
            assert!(mid.count() <= 6, "snapshot counted more records than issued");
            assert!(bucket_sum <= 6, "snapshot bucketed more records than issued");
            assert!(
                bucket_sum >= mid.count() && bucket_sum - mid.count() <= 2,
                "bucket sum {bucket_sum} vs count {} exceeds in-flight bound",
                mid.count()
            );
            s.merge_from(&h);
            thread::yield_now();
        });

        for t in recorders {
            t.join().unwrap();
        }
        merger.join().unwrap();

        // Quiescent: everything recorded is in `hist`; the sink holds a
        // prefix of it (whatever the merge observed), never more.
        let final_snap = hist.snapshot();
        assert_eq!(final_snap.count(), 6, "records lost or double-counted");
        assert_eq!(
            final_snap.count(),
            final_snap.buckets().iter().sum::<u64>(),
            "bucket sum diverged from count"
        );
        assert_eq!(
            final_snap.sum_ns(),
            1000 + 1001 + 1002 + 2000 + 2001 + 2002,
            "sum_ns diverged from the recorded samples"
        );
        // The sink holds whatever prefix the merge observed — a mid-race
        // source snapshot can be up to 2 bucket-bumps ahead of its count.
        let merged = sink.snapshot();
        let merged_sum = merged.buckets().iter().sum::<u64>();
        assert!(merged_sum <= 6, "merge manufactured records");
        assert!(
            merged_sum >= merged.count() && merged_sum - merged.count() <= 2,
            "merged bucket sum {merged_sum} vs count {} exceeds in-flight bound",
            merged.count()
        );
    });
    assert!(ITERS.load(Ordering::SeqCst) > 1, "model must explore more than one schedule");
}
