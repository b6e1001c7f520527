//! L13 pass fixture: critical sections either stay effect-free, hoist the
//! effectful call past the guard drop, or carry a reasoned allow.

struct Pool {
    state: Mutex<Vec<u64>>,
    handle: Handle,
}

impl Pool {
    fn drain(&self) -> u64 {
        let g = self.state.lock();
        let v = g.len() as u64;
        drop(g);
        self.fill(v) // guard dropped before the call
    }

    fn fill(&self, v: u64) -> u64 {
        let mut buf = Vec::with_capacity(4);
        buf.push(v);
        v
    }

    fn drain_on_shutdown(&self) {
        let g = self.state.lock();
        self.wait_worker(); // lint: allow(lock-held-effects, shutdown path; the worker has already exited when this lock is taken)
        drop(g);
    }

    fn wait_worker(&self) {
        self.handle.join();
    }
}
