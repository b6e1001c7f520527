//! Requests, completion slots, and client-side tickets.

use crate::relock;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use tg_error::TgError;
use tg_graph::{NodeId, Time};

/// One `(node, time)` embedding query, with an optional wall-clock
/// deadline. A request whose deadline has passed before its batch runs is
/// completed with [`TgError::DeadlineExceeded`] rather than a stale tensor.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// The node whose temporal embedding is requested.
    pub node: NodeId,
    /// The query time.
    pub time: Time,
    /// Latest instant at which a result is still useful.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A request with no deadline.
    pub fn new(node: NodeId, time: Time) -> Self {
        Self { node, time, deadline: None }
    }

    /// Builder-style deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// True if the deadline (if any) has passed at `now`.
    pub fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

#[derive(Default)]
struct Cell {
    /// Set by the first fulfillment and never cleared, so the slot stays
    /// closed to later writes after the waiter has taken `result`.
    fulfilled: bool,
    result: Option<Result<Vec<f32>, TgError>>,
}

/// The server side of a ticket: fulfilled exactly once with either an
/// embedding row or a typed error.
pub(crate) struct Slot {
    cell: Mutex<Cell>,
    ready: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self { cell: Mutex::new(Cell::default()), ready: Condvar::new() })
    }

    /// First write wins; later fulfillments are ignored — even after the
    /// waiter took the value — so neither a race between a deadline
    /// rejection and a late batch result nor the drop-time
    /// [`TgError::Abandoned`] of a served request (see
    /// `crate::batch::Pending`) can clobber or follow the value a waiter
    /// observed.
    pub(crate) fn fulfill(&self, result: Result<Vec<f32>, TgError>) {
        let mut cell = relock(self.cell.lock());
        if !cell.fulfilled {
            cell.fulfilled = true;
            cell.result = Some(result);
            drop(cell);
            self.ready.notify_all();
        }
    }

    fn wait(&self) -> Result<Vec<f32>, TgError> {
        let mut cell = relock(self.cell.lock());
        loop {
            if let Some(result) = cell.result.take() {
                return result;
            }
            cell = relock(self.ready.wait(cell));
        }
    }

    fn try_take(&self) -> Option<Result<Vec<f32>, TgError>> {
        relock(self.cell.lock()).result.take()
    }
}

/// The client's handle on one submitted request.
///
/// In threaded mode [`Ticket::wait`] blocks until a worker (or a deadline
/// rejection) fulfills it. In deterministic mode results only appear when
/// the caller runs [`crate::TgServer::drain`], so call that before waiting.
pub struct Ticket {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = relock(self.slot.cell.lock()).result.is_some();
        let state = if ready { "ready" } else { "pending" };
        f.debug_struct("Ticket").field("state", &state).finish()
    }
}

impl Ticket {
    pub(crate) fn new(slot: Arc<Slot>) -> Self {
        Self { slot }
    }

    /// Blocks until the request completes; returns the embedding row or
    /// the typed rejection ([`TgError::DeadlineExceeded`], a batch failure,
    /// or [`TgError::Abandoned`] if its wave was dropped unserved).
    pub fn wait(self) -> Result<Vec<f32>, TgError> {
        self.slot.wait()
    }

    /// Non-blocking probe: `None` while the request is still in flight.
    pub fn try_take(&self) -> Option<Result<Vec<f32>, TgError>> {
        self.slot.try_take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fulfillment_wins() {
        let slot = Slot::new();
        slot.fulfill(Ok(vec![1.0]));
        slot.fulfill(Err(TgError::DeadlineExceeded));
        assert_eq!(Ticket::new(slot).wait().unwrap(), vec![1.0]);
    }

    #[test]
    fn try_take_reports_in_flight() {
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        assert!(ticket.try_take().is_none());
        slot.fulfill(Ok(vec![2.0]));
        assert_eq!(ticket.try_take().unwrap().unwrap(), vec![2.0]);
        // The slot stays closed once taken: a late write is not a second result.
        slot.fulfill(Err(TgError::Abandoned));
        assert!(ticket.try_take().is_none());
    }

    #[test]
    fn wait_blocks_until_fulfilled_across_threads() {
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let t = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(5));
        slot.fulfill(Ok(vec![3.0, 4.0]));
        assert_eq!(t.join().unwrap().unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn expiry_respects_deadline() {
        let now = Instant::now();
        let r = Request::new(1, 2.0);
        assert!(!r.expired_at(now), "no deadline never expires");
        let r = r.with_deadline(now);
        assert!(r.expired_at(now));
        assert!(!r.expired_at(now - std::time::Duration::from_millis(1)));
    }
}
