//! Cross-request coalescing: the micro-batch and its dedup plan.
//!
//! The engine's own Algorithm-2 dedup removes duplicates *within* the
//! batch it is handed; this module is the layer above it that removes
//! duplicates *across* concurrent requests before the engine ever runs, so
//! N clients asking for the same hot `(node, time)` target cost one
//! engine row. The scatter map (`row_of`) preserves per-request order:
//! request `i` of a wave always receives row `row_of[i]` of the engine
//! output, regardless of how many neighbors it deduplicated with.

use crate::request::{Request, Slot};
use rustc_hash::FxHashMap;
use std::sync::Arc;
use std::time::Instant;
use tg_error::TgError;
use tg_graph::{NodeId, Time};

/// One admitted request travelling through the pipeline with its
/// completion slot and admission timestamp (the start of the end-to-end
/// latency measurement).
///
/// Dropping it unfulfilled — a worker panicking mid-wave, or any early
/// return between the queue pop and the scatter — completes the ticket
/// with [`TgError::Abandoned`] instead of leaving its waiter blocked
/// forever. On the normal path the slot is already fulfilled and the
/// first write wins, so the drop changes nothing and allocates nothing.
pub(crate) struct Pending {
    pub(crate) req: Request,
    pub(crate) slot: Arc<Slot>,
    pub(crate) submitted_at: Instant,
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.slot.fulfill(Err(TgError::Abandoned));
    }
}

/// The unique targets of a wave plus the per-request scatter map.
#[derive(Clone, Debug, Default)]
pub struct CoalescePlan {
    /// Unique target nodes, in first-appearance order.
    pub ns: Vec<NodeId>,
    /// Unique target times, parallel to `ns`.
    pub ts: Vec<Time>,
    /// `row_of[i]` is the row of the engine output that belongs to the
    /// wave's `i`-th request.
    pub row_of: Vec<usize>,
}

impl CoalescePlan {
    /// Requests that coalesced away: wave size minus unique targets.
    pub fn duplicates_removed(&self) -> usize {
        self.row_of.len() - self.ns.len()
    }
}

/// Builds the dedup plan for one wave of `(node, time)` targets. Times are
/// compared bit-exactly (`f32::to_bits`), matching the engine's own key
/// packing: two requests only share a row if the engine itself would treat
/// them as the same target.
pub fn coalesce(targets: &[(NodeId, Time)]) -> CoalescePlan {
    let mut plan = CoalescePlan {
        ns: Vec::new(),
        ts: Vec::new(),
        row_of: Vec::with_capacity(targets.len()),
    };
    let mut index: FxHashMap<(NodeId, u32), usize> = FxHashMap::default();
    for &(n, t) in targets {
        let row = *index.entry((n, t.to_bits())).or_insert_with(|| {
            plan.ns.push(n);
            plan.ts.push(t);
            plan.ns.len() - 1
        });
        plan.row_of.push(row);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Ticket;

    fn pending() -> (Pending, Ticket) {
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        (Pending { req: Request::new(1, 1.0), slot, submitted_at: Instant::now() }, ticket)
    }

    #[test]
    fn dropped_unfulfilled_pending_fails_its_ticket() {
        let (p, ticket) = pending();
        drop(p);
        assert!(matches!(ticket.wait(), Err(TgError::Abandoned)));
    }

    #[test]
    fn dropped_fulfilled_pending_keeps_its_row() {
        let (p, ticket) = pending();
        p.slot.fulfill(Ok(vec![7.0]));
        drop(p);
        assert_eq!(ticket.wait().unwrap(), vec![7.0]);
    }

    #[test]
    fn duplicates_share_rows_in_first_appearance_order() {
        let plan = coalesce(&[(5, 1.0), (3, 2.0), (5, 1.0), (5, 3.0), (3, 2.0)]);
        assert_eq!(plan.ns, vec![5, 3, 5]);
        assert_eq!(plan.ts, vec![1.0, 2.0, 3.0]);
        assert_eq!(plan.row_of, vec![0, 1, 0, 2, 1]);
        assert_eq!(plan.duplicates_removed(), 2);
    }

    #[test]
    fn distinct_times_do_not_coalesce() {
        let plan = coalesce(&[(1, 1.0), (1, 1.0000001)]);
        assert_eq!(plan.ns.len(), 2);
        assert_eq!(plan.duplicates_removed(), 0);
    }

    #[test]
    fn empty_wave_yields_empty_plan() {
        let plan = coalesce(&[]);
        assert!(plan.ns.is_empty() && plan.row_of.is_empty());
        assert_eq!(plan.duplicates_removed(), 0);
    }
}
