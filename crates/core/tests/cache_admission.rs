//! The item limit is a bound at every instant, not only at quiescence:
//! writers racing fresh stores into a small cache never let an observer
//! see `len() > limit()`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use tg_tensor::Tensor;
use tgopt::{pack_key, EmbedCache};

#[test]
fn len_never_exceeds_limit_while_writers_race() {
    const WRITERS: u32 = 3;
    const BATCHES: u32 = 400;
    const BATCH: u32 = 8;
    let cache = EmbedCache::new(2 * BATCH as usize, 2);
    let start = Barrier::new(WRITERS as usize + 1);
    let done = AtomicBool::new(false);

    let max_seen = thread::scope(|s| {
        let observer = s.spawn(|| {
            start.wait();
            let mut max_seen = 0;
            while !done.load(Ordering::Acquire) {
                max_seen = max_seen.max(cache.len());
            }
            max_seen
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    let rows = Tensor::zeros(BATCH as usize, 2);
                    start.wait();
                    for b in 0..BATCHES {
                        let keys: Vec<u64> = (0..BATCH)
                            .map(|i| pack_key(w * BATCHES * BATCH + b * BATCH + i, 1.0))
                            .collect();
                        cache.store(&keys, &rows, false).unwrap();
                    }
                })
            })
            .collect();
        // Stop the observer before surfacing a writer's panic, or the scope
        // would wait on it forever.
        let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Release);
        let max_seen = observer.join().unwrap();
        for result in joined {
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        }
        max_seen
    });

    assert!(
        max_seen <= cache.limit(),
        "observed len {max_seen} over limit {}",
        cache.limit()
    );
    assert_eq!(
        cache.len(),
        cache.limit(),
        "every store was fresh, so the cache ends full"
    );
    assert_eq!(cache.export_fifo_order().len(), cache.len());
    assert_eq!(cache.total_inserted(), u64::from(WRITERS * BATCHES * BATCH));
    assert_eq!(
        cache.total_inserted(),
        cache.total_evictions() + cache.len() as u64
    );
}
