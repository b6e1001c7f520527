//! The workspace's one fan-out: row-independent chunks of an output buffer
//! computed by the caller plus scoped helper threads, each with its own
//! state (a [`crate::Scratch`]). Chunks are claimed one at a time, so the
//! split follows whichever core is free, and a chunk's arithmetic never
//! depends on who runs it. No pool, no `unsafe`: `std::thread::scope`
//! lends the borrows and joins before returning (DESIGN.md "Fan-out").

use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, Builder};

/// Cores of this host. `available_parallelism()` re-reads the cgroup files
/// on every call (≈ 100 µs), so the process asks once.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// The width rule: of `helpers` (one per spare core), those a call of
/// `chunks` chunks may use — every participant, the caller included, must
/// have two chunks before anything is spawned.
pub fn helpers_for<S>(helpers: &mut [S], chunks: usize) -> &mut [S] {
    let width = (helpers.len() + 1).min(chunks / 2).max(1);
    &mut helpers[..width - 1]
}

/// Calls `per_chunk(i, chunk_i, state)` once for every `chunk_len`-long
/// chunk of `out` (the last may be shorter), on the caller with `own` and on
/// one `tg-fanout-<i>` thread per element of `helpers`, at most one per chunk
/// beyond the first. Returns how many threads it spawned. A panic in any
/// chunk resumes on the caller once every participant has stopped.
///
/// # Panics
/// Panics if `chunk_len` is zero.
pub fn fan_chunks<S: Send>(
    out: &mut [f32],
    chunk_len: usize,
    own: &mut S,
    helpers: &mut [S],
    per_chunk: impl Fn(usize, &mut [f32], &mut S) + Sync,
) -> usize {
    let width = helpers.len().min(out.len().div_ceil(chunk_len).saturating_sub(1));
    if width == 0 {
        // Inline: no lock, no scope, no thread — the loop a caller would write.
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            per_chunk(i, chunk, own);
        }
        return 0;
    }
    // Leaf lock: held for one `next()`, never while a chunk runs.
    let unclaimed = Mutex::new(out.chunks_mut(chunk_len).enumerate());
    let drain_chunks = |state: &mut S| loop {
        let claimed = unclaimed.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((i, chunk)) = claimed else { break };
        per_chunk(i, chunk, state);
    };
    let mut spawned = 0;
    thread::scope(|scope| {
        for (i, state) in helpers[..width].iter_mut().enumerate() {
            let name = format!("tg-fanout-{i}");
            // A refused spawn costs nothing: the others claim its chunks.
            spawned += usize::from(Builder::new().name(name).spawn_scoped(scope, || drain_chunks(state)).is_ok());
        }
        drain_chunks(own);
    });
    spawned
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize, chunk_len: usize, helpers: &mut [u32]) -> (Vec<f32>, usize) {
        let mut out = vec![-1.0; n];
        let spawned = fan_chunks(&mut out, chunk_len, &mut 0u32, helpers, |i, chunk, calls| {
            *calls += 1;
            for (j, v) in chunk.iter_mut().enumerate() {
                let x = (i * chunk_len + j) as f32;
                *v = x * x;
            }
        });
        (out, spawned)
    }

    #[test]
    fn every_chunk_runs_once_at_every_width() {
        for n in [0usize, 1, 7, 8, 9, 64, 1000] {
            let want: Vec<f32> = (0..n).map(|x| (x * x) as f32).collect();
            for width in [1usize, 2, 3, 8] {
                let mut helpers = vec![0u32; width - 1];
                let (out, spawned) = squares(n, 8, &mut helpers);
                assert_eq!(out, want, "n = {n}, width = {width}");
                assert_eq!(spawned, (width - 1).min(n.div_ceil(8).saturating_sub(1)));
            }
        }
    }

    #[test]
    fn too_few_chunks_never_spawn() {
        // Zero chunks, one chunk, and fewer than two chunks per participant
        // under the width rule all stay on the caller.
        let mut helpers = vec![0u32; 3];
        for chunks in [0usize, 1, 2, 3] {
            let (_, spawned) = squares(chunks * 8, 8, helpers_for(&mut helpers, chunks));
            assert_eq!(spawned, 0, "{chunks} chunks");
        }
        assert_eq!(helpers_for(&mut helpers, 4).len(), 1);
        assert_eq!(helpers_for(&mut helpers, 7).len(), 2);
        assert_eq!(helpers_for(&mut helpers, 8).len(), 3);
        assert_eq!(helpers_for(&mut helpers, 1000).len(), 3);
        assert_eq!(helpers_for::<u32>(&mut [], 1000).len(), 0);
        // Pinned (no rule): one thread per chunk beyond the caller's first.
        assert_eq!(squares(16, 8, &mut helpers).1, 1);
    }

    #[test]
    #[should_panic]
    fn a_panicking_chunk_reaches_the_caller_after_the_join() {
        // Whoever claims chunk 5 panics; the scope still joins (no hang) and
        // the caller unwinds instead of returning a half-written buffer.
        let mut out = vec![0.0; 64];
        fan_chunks(&mut out, 4, &mut (), &mut [(), ()], |i, _, ()| assert_ne!(i, 5));
    }

    #[test]
    fn host_cores_is_positive_and_stable() {
        assert!(host_cores() >= 1);
        assert_eq!(host_cores(), host_cores());
    }
}
