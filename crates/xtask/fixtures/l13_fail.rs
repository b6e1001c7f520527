//! L13 fail fixture: every hazard of a live guard, direct and through a
//! call. `Pool` blocks on a `join` two frames down and re-acquires its
//! held lock through a call; `Worker` holds a guard across `embed_batch`
//! and across a channel `recv`; `Cache` takes `state` under `fifo`
//! (against the canonical order, which closes the cycle `drain` would
//! otherwise form), holds two guards of `shards`, and nests `totals`,
//! which the order does not rank.

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

impl Worker {
    pub fn run_once(&self) {
        let guard = self.plan.lock();
        self.engine.embed_batch(&guard.nodes, &guard.times);
    }

    pub fn consume(&self) {
        let chan = self.rx.lock();
        let wave = chan.recv();
        self.handle(wave);
    }
}

impl Cache {
    pub fn store(&self) {
        let mut fifo = self.fifo.lock();
        let mut state = self.state.lock();
        state.push(fifo.pop_front());
    }

    pub fn drain(&self) {
        let mut state = self.state.lock();
        let mut fifo = self.fifo.lock();
        fifo.extend(state.drain(..));
    }

    pub fn rebalance(&self) {
        let mut a = self.shards[0].write();
        let mut b = self.shards[1].write();
        b.extend(a.drain());
    }

    pub fn tally(&self) {
        let fifo = self.fifo.lock();
        *self.totals.lock() += fifo.len();
    }
}
