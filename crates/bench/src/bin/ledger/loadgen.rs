//! The load generator: seeded operation streams, arrival schedules, and
//! the single-threaded driver that sends them and collects their results.
//!
//! One thread generates all load (the reference host has two CPUs and the
//! server under test wants at least one). It spin-paces against a
//! precomputed schedule, polls `Ticket::try_take` on its outstanding
//! tickets between sends, and times every paced operation from the instant
//! it was *due*, so a stall — in the server or in the generator itself —
//! is charged to every operation it delayed rather than hidden. How late
//! each send ran is recorded beside the latencies.

use crate::trace::{elapsed_ns, Tracer, ROOT};
use crate::world::{LIMIT_NS, TICK_EVERY, WRITE_EVERY};
use crate::Res;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;
use tg_graph::{Edge, NodeId, Time};
use tg_serve::{TgServer, Ticket};

/// One operation a client performs against the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Query {
        node: NodeId,
        time: Time,
    },
    Write {
        src: NodeId,
        dst: NodeId,
        time: Time,
    },
}

/// Poisson arrivals at `rate` operations per second: `n` due times in
/// nanoseconds from the phase start, non-decreasing. Independent users make
/// an open loop, and independent users do not arrive on a metronome.
pub fn poisson_schedule_ns(n: usize, rate: f64, rng: &mut StdRng) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate.max(1e-9);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            at += -mean_gap_ns * u.ln();
            at.round() as u64
        })
        .collect()
}

/// `serve-open` queries `first..first + n` of one endless stream: the node
/// is the source of a uniformly drawn stream edge (so popular users are
/// asked for more often), the time a tick past the end of the stream that
/// advances every [`TICK_EVERY`] requests — identical `(node, tick)`
/// requests exist for cross-request dedup, while the top layer is
/// recomputed once per tick as the paper's default prescribes.
pub fn serve_open_queries(
    edges: &[Edge],
    max_time: Time,
    first: usize,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Op> {
    (first..first + n)
        .map(|i| {
            let tick = (i / TICK_EVERY + 1) as Time; // lint: allow(lossy-cast, tick index stays far below 2^24 and is exact in f32)
            Op::Query {
                node: edges[rng.gen_range(0..edges.len())].src,
                time: max_time + tick,
            }
        })
        .collect()
}

/// `stream-mixed` operations: every [`WRITE_EVERY`]-th one inserts the next
/// suffix edge in stream order, the rest query the source of a uniformly
/// drawn base edge at the current tick — the time of the last ingested
/// edge plus `half_gap`. `last_time` carries the tick across phases; the
/// returned count is how many suffix edges were consumed.
pub fn stream_mixed_ops(
    base: &[Edge],
    suffix: &[Edge],
    half_gap: Time,
    last_time: &mut Time,
    n: usize,
    rng: &mut StdRng,
) -> (Vec<Op>, usize) {
    let mut used = 0;
    let ops = (0..n)
        .map(|i| match suffix.get(used) {
            Some(e) if i % WRITE_EVERY == WRITE_EVERY - 1 => {
                used += 1;
                *last_time = e.time;
                Op::Write {
                    src: e.src,
                    dst: e.dst,
                    time: e.time,
                }
            }
            _ => Op::Query {
                node: base[rng.gen_range(0..base.len())].src,
                time: *last_time + half_gap,
            },
        })
        .collect();
    (ops, used)
}

/// When one operation was due, sent and done, on the phase clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Timing {
    /// How late the generator sent the operation.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// What the client experienced: completion minus the *due* time, so a
    /// send that ran late lengthens the latency by exactly its lateness.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    pub fn within_limit(&self) -> bool {
        self.latency_ns() <= LIMIT_NS
    }
}

/// How the driver decides when the next operation may be sent.
pub enum Pacing<'a> {
    /// Open loop: operation `i` is due at `due_ns[i]` regardless of what
    /// the server has answered so far.
    Open { due_ns: &'a [u64] },
    /// Closed loop: send whenever fewer than `window` queries are in flight;
    /// an operation is due the instant it is sent.
    Closed { window: usize },
}

/// Everything one phase measured.
#[derive(Default)]
pub struct PhaseOutcome {
    pub attempted: u64,
    /// Errored or (after a stall) abandoned operations.
    pub failed: u64,
    /// Times a full admission queue refused a query. The client keeps the
    /// query at the head of its line and offers it again (see [`drive`]).
    pub refusals: u64,
    /// Operations answered correctly within [`LIMIT_NS`] of their due time,
    /// never having been refused.
    pub within_limit: u64,
    pub query_lat_ns: Vec<u64>,
    pub write_lat_ns: Vec<u64>,
    /// Send lateness per operation (open loop only).
    pub late_ns: Vec<u64>,
    /// Duration of each `submit` call (traced runs only).
    pub submit_ns: Vec<u64>,
    /// Phase-clock times at which query completions were observed, in order.
    pub done_at_ns: Vec<u64>,
    pub wall_ns: u64,
    /// `(operation index, embedding row)` for the verification sample.
    pub kept_rows: Vec<(usize, Vec<f32>)>,
}

impl PhaseOutcome {
    pub fn queries_done(&self) -> u64 {
        self.query_lat_ns.len() as u64
    }
}

struct Inflight {
    index: usize,
    /// `done_ns` is filled in when the completion is observed.
    timing: Timing,
    ticket: Ticket,
    submit_span: u32,
    /// The server refused the query at least once before admitting it.
    refused: bool,
}

/// How long the generator sleeps when it can only wait for the server — a
/// closed loop whose window is full with no reply, or a query the admission
/// queue just refused: short against the ~7 ms a 256-deep window lasts.
const GENERATOR_NAP: std::time::Duration = std::time::Duration::from_micros(50);

/// A phase that makes no progress for this long is abandoned (its
/// outstanding operations count as failed) instead of hanging the run.
const STALL_NS: u64 = 20_000_000_000;

/// Sends `ops` to `server` under `pacing` from this thread and collects
/// every result. Row `i` is kept for verification when `keep(i)` says so.
/// `op_base` offsets the operation ids written to the trace.
///
/// A query the server refuses (its admission queue is full: the server, or
/// this thread catching up after the host took its CPU away, ran a burst)
/// is not dropped. It stays at the head of the line, still charged from its
/// original due time, and is offered again after a short nap; it counts as
/// a miss of the latency limit however fast the answer then is. So host
/// interference lengthens latencies and lowers `within_limit_share`, but
/// never changes which operations a run performs. A server that refuses
/// for [`STALL_NS`] without answering anything ends the phase with an error.
pub fn drive(
    server: &TgServer,
    ops: &[Op],
    pacing: &Pacing<'_>,
    keep: &dyn Fn(usize) -> bool,
    op_base: u64,
    tracer: &mut Tracer,
) -> Res<PhaseOutcome> {
    let mut out = PhaseOutcome::default();
    let traced = tracer.is_on();
    let trace_base = tracer.now_ns();
    let origin = Instant::now();
    let mut inflight: Vec<Inflight> = Vec::with_capacity(1024);
    let mut next = 0usize;
    let mut last_progress_ns = 0u64;
    // The query at the head of the line has been refused at least once.
    let mut head_refused = false;
    while next < ops.len() || !inflight.is_empty() {
        let now = elapsed_ns(origin);
        let due_ns = match pacing {
            Pacing::Open { due_ns } => due_ns.get(next).copied().filter(|&due| now >= due),
            Pacing::Closed { window } => (inflight.len() < *window).then_some(now),
        };
        let mut sent_one = false;
        let mut refused_now = false;
        if let (Some(due_ns), Some(op)) = (due_ns, ops.get(next)) {
            let op_id = op_base + next as u64;
            let sent = Timing {
                due_ns,
                sent_ns: now,
                done_ns: now,
            };
            match *op {
                Op::Query { node, time } => match server.submit(node, time) {
                    Ok(ticket) => {
                        let mut submit_span = ROOT;
                        if traced {
                            let returned = elapsed_ns(origin);
                            out.submit_ns.push(returned - now);
                            submit_span = tracer.add_span(
                                "submit",
                                op_id,
                                trace_base + now,
                                trace_base + returned,
                                ROOT,
                            );
                        }
                        inflight.push(Inflight {
                            index: next,
                            timing: sent,
                            ticket,
                            submit_span,
                            refused: head_refused,
                        });
                    }
                    Err(_) => {
                        out.refusals += 1;
                        refused_now = true;
                    }
                },
                Op::Write { src, dst, time } => {
                    let ingested = server.submit_edge(src, dst, time);
                    let timing = Timing {
                        done_ns: elapsed_ns(origin),
                        ..sent
                    };
                    tracer.add_span(
                        "submit_edge",
                        op_id,
                        trace_base + now,
                        trace_base + timing.done_ns,
                        ROOT,
                    );
                    match ingested {
                        Ok(_) => {
                            out.write_lat_ns.push(timing.latency_ns());
                            out.within_limit += u64::from(timing.within_limit());
                        }
                        Err(_) => out.failed += 1,
                    }
                }
            }
            head_refused = refused_now;
            if !refused_now {
                sent_one = true;
                if matches!(pacing, Pacing::Open { .. }) {
                    out.late_ns.push(sent.late_ns());
                }
                out.attempted += 1;
                next += 1;
                last_progress_ns = now;
            }
        }

        let mut observed_ns = None;
        let mut i = 0;
        while i < inflight.len() {
            let Some(result) = inflight[i].ticket.try_take() else {
                i += 1;
                continue;
            };
            let done_ns = *observed_ns.get_or_insert_with(|| elapsed_ns(origin));
            let f = inflight.swap_remove(i);
            let timing = Timing {
                done_ns,
                ..f.timing
            };
            tracer.add_span(
                "ticket",
                op_base + f.index as u64,
                trace_base + timing.sent_ns,
                trace_base + done_ns,
                f.submit_span,
            );
            match result {
                Ok(row) => {
                    out.query_lat_ns.push(timing.latency_ns());
                    out.within_limit += u64::from(timing.within_limit() && !f.refused);
                    out.done_at_ns.push(done_ns);
                    if keep(f.index) {
                        out.kept_rows.push((f.index, row));
                    }
                }
                Err(_) => out.failed += 1,
            }
            last_progress_ns = done_ns;
        }

        if now.saturating_sub(last_progress_ns) > STALL_NS {
            out.failed += inflight.len() as u64;
            out.wall_ns = elapsed_ns(origin);
            return Err(format!(
                "phase stalled: {} operations outstanding with no progress for {} s",
                inflight.len(),
                STALL_NS / 1_000_000_000
            ));
        }
        match pacing {
            // A refused query waits for the server to drain its queue, and
            // leaves it the CPU to do so.
            _ if refused_now => std::thread::sleep(GENERATOR_NAP),
            // An open loop spins: a send must leave on its due time.
            Pacing::Open { .. } => std::hint::spin_loop(),
            // A closed-loop client waits for replies; it does not burn the
            // CPU the server needs. With the window full and nothing
            // answered, nap for a few completions' worth of time.
            Pacing::Closed { .. } if !sent_one && observed_ns.is_none() => {
                std::thread::sleep(GENERATOR_NAP)
            }
            Pacing::Closed { .. } => {}
        }
    }
    out.wall_ns = elapsed_ns(origin);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn edges() -> Vec<Edge> {
        (0..50u32)
            .map(|i| Edge {
                src: i % 7,
                dst: 7 + i % 5,
                time: i as Time,
                eid: i,
            })
            .collect()
    }

    fn bytes(ops: &[Op]) -> Vec<u8> {
        let mut out = Vec::new();
        for op in ops {
            match *op {
                Op::Query { node, time } => {
                    out.push(0);
                    out.extend(node.to_le_bytes());
                    out.extend(time.to_bits().to_le_bytes());
                }
                Op::Write { src, dst, time } => {
                    out.push(1);
                    out.extend(src.to_le_bytes());
                    out.extend(dst.to_le_bytes());
                    out.extend(time.to_bits().to_le_bytes());
                }
            }
        }
        out
    }

    fn streams(seed: u64) -> (Vec<u64>, Vec<u8>, Vec<u8>) {
        let e = edges();
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = poisson_schedule_ns(200, 4000.0, &mut rng);
        let open = serve_open_queries(&e, 49.0, 0, 600, &mut rng);
        let mut last = 39.0;
        let (mixed, used) = stream_mixed_ops(&e[..40], &e[40..], 0.5, &mut last, 60, &mut rng);
        assert_eq!(used, 6);
        (schedule, bytes(&open), bytes(&mixed))
    }

    #[test]
    fn equal_seeds_give_byte_identical_streams_and_schedules() {
        assert_eq!(streams(7), streams(7));
    }

    #[test]
    fn different_seeds_give_different_streams_and_schedules() {
        let (a, b) = (streams(7), streams(11));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn schedule_is_monotone_at_roughly_the_asked_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = poisson_schedule_ns(4000, 4000.0, &mut rng);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        let span_s = *s.last().unwrap() as f64 / 1e9;
        assert!(
            (0.9..1.1).contains(&span_s),
            "4000 arrivals at 4000/s took {span_s} s"
        );
    }

    #[test]
    fn serve_open_tick_advances_every_256_requests() {
        let e = edges();
        let mut rng = StdRng::seed_from_u64(1);
        let ops = serve_open_queries(&e, 100.0, 250, 520, &mut rng);
        let time_of = |i: usize| match ops[i] {
            Op::Query { time, .. } => time,
            Op::Write { .. } => panic!("serve-open has no writes"),
        };
        assert_eq!(time_of(0), 101.0); // request 250 → tick 1
        assert_eq!(time_of(5), 101.0); // request 255
        assert_eq!(time_of(6), 102.0); // request 256 → tick 2
        assert_eq!(time_of(519), 104.0); // request 769 → tick 4
    }

    #[test]
    fn stream_mixed_writes_every_tenth_op_in_stream_order() {
        let e = edges();
        let mut rng = StdRng::seed_from_u64(1);
        let mut last = 39.0;
        let (ops, used) = stream_mixed_ops(&e[..40], &e[40..], 0.5, &mut last, 35, &mut rng);
        assert_eq!(used, 3);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(matches!(op, Op::Write { .. }), i % 10 == 9, "op {i}");
        }
        assert_eq!(
            ops[9],
            Op::Write {
                src: e[40].src,
                dst: e[40].dst,
                time: 40.0
            }
        );
        // Queries after the first write sit half a gap past its timestamp.
        assert!(matches!(ops[10], Op::Query { time, .. } if time == 40.5));
        assert!(matches!(ops[0], Op::Query { time, .. } if time == 39.5));
        assert_eq!(last, 42.0);
    }

    #[test]
    fn latency_is_charged_from_the_due_time_when_the_generator_runs_late() {
        // Due at 1 ms, sent 3 ms late, answered 0.5 ms after the send: the
        // client waited 3.5 ms, not 0.5 ms.
        let t = Timing {
            due_ns: 1_000_000,
            sent_ns: 4_000_000,
            done_ns: 4_500_000,
        };
        assert_eq!(t.late_ns(), 3_000_000);
        assert_eq!(t.latency_ns(), 3_500_000);
        assert!(t.within_limit());
        // The same service time misses the 5 ms limit once the send is 5 ms late.
        let t = Timing {
            due_ns: 1_000_000,
            sent_ns: 6_000_000,
            done_ns: 6_500_000,
        };
        assert_eq!(t.latency_ns(), 5_500_000);
        assert!(!t.within_limit());
        // A closed-loop operation is due when sent: no lateness by definition.
        let t = Timing {
            due_ns: 2_000,
            sent_ns: 2_000,
            done_ns: 9_000,
        };
        assert_eq!((t.late_ns(), t.latency_ns()), (0, 7_000));
    }
}
