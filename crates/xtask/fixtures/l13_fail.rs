//! L13 fail fixture: calls with transitive effects made while a guard is
//! live — a blocking `join` two frames down and a re-acquisition of the
//! held lock.

struct Pool {
    state: Mutex<Vec<u64>>,
    handle: Handle,
}

impl Pool {
    fn drain(&self) {
        let g = self.state.lock();
        self.wait_for_worker();
        drop(g);
    }

    fn wait_for_worker(&self) {
        self.handle.join();
    }

    fn reenter(&self) {
        let g = self.state.lock();
        self.locked_len();
        drop(g);
    }

    fn locked_len(&self) -> usize {
        let g = self.state.lock();
        let n = g.len();
        drop(g);
        n
    }
}
