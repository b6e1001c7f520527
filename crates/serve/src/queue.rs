//! The bounded admission queue between client handles and the workers.
//!
//! Capacity is a hard bound: a full queue rejects with
//! [`TgError::Overloaded`] instead of blocking the caller or growing
//! without limit, so overload sheds at the front door (backpressure). The
//! consumer side pops *waves* — up to `max` items at once — which is what
//! turns individual requests into micro-batches: whatever queued up while
//! every consumer was busy leaves as one wave.
//!
//! # Invariants
//!
//! Many producers, many consumers (every serving worker pops its own
//! waves), and no accepted item is stranded or dropped:
//!
//! - every successful `push` wakes one parked consumer;
//! - a consumer re-checks emptiness under the lock before it parks, so an
//!   item pushed between its check and its wait cannot be missed, and a
//!   wakeup "stolen" by a consumer that was not parked still leaves the
//!   item with a consumer that is awake;
//! - `close` wakes every parked consumer, and each keeps popping until the
//!   backlog is empty before it sees `None`.

use crate::relock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use tg_error::TgError;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with wave-draining consumers.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    /// Signaled on push and on close.
    arrived: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` pending items.
    ///
    /// # Invariants
    ///
    /// - `capacity` is clamped to at least 1; a zero-capacity queue would
    ///   reject every submission.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            arrived: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The hard bound on pending items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently queued items.
    pub fn len(&self) -> usize {
        relock(self.state.lock()).items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission. A full queue returns
    /// [`TgError::Overloaded`]; a closed queue returns
    /// [`TgError::InvalidArgument`] (submitting after shutdown is a caller
    /// bug, not an overload).
    ///
    /// # Invariants
    ///
    /// - Never blocks: the caller either owns a queue slot on return or
    ///   got its item's rejection reason.
    /// - `len() <= capacity()` holds before and after.
    pub fn push(&self, item: T) -> Result<(), TgError> {
        let mut st = relock(self.state.lock());
        if st.closed {
            return Err(TgError::InvalidArgument("submit after shutdown".into()));
        }
        if st.items.len() >= self.capacity {
            return Err(TgError::Overloaded { capacity: self.capacity });
        }
        st.items.push_back(item);
        drop(st);
        self.arrived.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is queued (or the queue is closed
    /// *and* empty — then `None`, the consumer's exit signal), lingers up
    /// to `linger` for more items to coalesce with, then drains up to
    /// `max` items in FIFO order. The serving workers pass
    /// `Duration::ZERO`: take what is there, never hold a request back.
    ///
    /// # Invariants
    ///
    /// - Returns `None` only when closed and fully drained: no accepted
    ///   item is ever dropped by shutdown.
    /// - A returned wave is non-empty, at most `max` long, and preserves
    ///   submission order.
    pub fn pop_wave(&self, max: usize, linger: Duration) -> Option<Vec<T>> {
        let max = max.max(1);
        let mut st = relock(self.state.lock());
        loop {
            if !st.items.is_empty() {
                break;
            }
            if st.closed {
                return None;
            }
            st = relock(self.arrived.wait(st));
        }
        // Linger phase: wait for the wave to fill, the timer to expire, or
        // the queue to close (shutdown flushes immediately).
        let deadline = Instant::now() + linger;
        while st.items.len() < max && !st.closed {
            let left = match deadline.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => left,
                _ => break,
            };
            let (g, timeout) = match self.arrived.wait_timeout(st, left) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            st = g;
            if timeout.timed_out() {
                break;
            }
        }
        let take = st.items.len().min(max);
        Some(st.items.drain(..take).collect())
    }

    /// Drains every queued item without blocking (deterministic mode's
    /// consumer). Returns an empty vec when nothing is queued.
    ///
    /// # Invariants
    ///
    /// - Leaves the queue empty; submission order is preserved.
    pub fn drain_all(&self) -> Vec<T> {
        let mut st = relock(self.state.lock());
        st.items.drain(..).collect()
    }

    /// Marks the queue closed: subsequent pushes fail, blocked consumers
    /// wake, and `pop_wave` returns `None` once the backlog is drained.
    ///
    /// # Invariants
    ///
    /// - Idempotent; already-queued items remain poppable after close.
    pub fn close(&self) {
        relock(self.state.lock()).closed = true;
        self.arrived.notify_all();
    }

    /// True once [`BoundedQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        relock(self.state.lock()).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        match q.push(3) {
            Err(TgError::Overloaded { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_backlog() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.close();
        assert!(q.push(2).is_err());
        assert_eq!(q.pop_wave(10, Duration::ZERO), Some(vec![1]));
        assert_eq!(q.pop_wave(10, Duration::ZERO), None);
    }

    #[test]
    fn pop_wave_respects_max_and_order() {
        let q = BoundedQueue::new(16);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_wave(3, Duration::ZERO), Some(vec![0, 1, 2]));
        assert_eq!(q.pop_wave(3, Duration::ZERO), Some(vec![3, 4]));
        assert!(q.is_empty());
    }

    #[test]
    fn pop_wave_lingers_for_stragglers() {
        use std::sync::Arc;
        let q = Arc::new(BoundedQueue::new(16));
        q.push(0).unwrap();
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            q2.push(1).unwrap();
        });
        // A generous linger lets the straggler join the same wave.
        let wave = q.pop_wave(2, Duration::from_secs(2)).unwrap();
        t.join().unwrap();
        assert_eq!(wave, vec![0, 1]);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        use std::sync::Arc;
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop_wave(4, Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(9).unwrap();
        assert!(q.push(10).is_err());
    }
}
