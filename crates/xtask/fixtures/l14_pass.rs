//! L14 pass fixture: every wait on the serve path is bounded — by a timed
//! variant, or by a `// bounded-by:` protocol argument.

// hot-path-root
pub fn serve_loop(rx: &Receiver<u64>) -> u64 {
    let tick = rx.recv_timeout(TICK_MS);
    let job = rx.recv(); // bounded-by: producer sends a shutdown token before closing the channel
    dispatch(tick, job)
}

fn dispatch(tick: u64, job: u64) -> u64 {
    tick.saturating_add(job)
}
