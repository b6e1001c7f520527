//! L14 fail fixture: unbounded waits reachable from the serve root — one
//! directly in the root, one two calls down.

// hot-path-root
pub fn serve_loop(rx: &Receiver<u64>) -> u64 {
    let job = rx.recv();
    dispatch(job)
}

fn dispatch(job: u64) -> u64 {
    collect_side(job)
}

fn collect_side(job: u64) -> u64 {
    let side = SIDE_RX.recv();
    job.saturating_add(side)
}
