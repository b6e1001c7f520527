//! L13 pass fixture: critical sections either stay effect-free, hoist the
//! effectful call or the expensive compute past the guard drop, copy out
//! of a statement temporary, nest locks only in the canonical order, or
//! carry a reasoned allow.

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

impl Worker {
    pub fn run_once(&self) {
        let guard = self.plan.lock();
        let batch = guard.next_batch();
        drop(guard);
        self.engine.embed_batch(&batch.nodes, &batch.times);
    }

    pub fn snapshot_depth(&self) -> usize {
        let depth = *self.depth.lock();
        std::fs::write("depth.txt", depth.to_string()).ok();
        depth
    }

    pub fn consume(&self) {
        let wave = self.rx.recv(); // rx is not guarded here
        self.handle(wave);
    }
}

impl Cache {
    pub fn evict(&self) {
        let mut fifo = self.fifo.lock();
        let mut shard = self.shards[0].write();
        if let Some(key) = fifo.pop_front() {
            shard.remove(&key);
        }
    }

    pub fn export(&self) -> Vec<u64> {
        let fifo = self.fifo.lock();
        let shard = self.shards[1].read();
        fifo.iter().filter(|k| shard.contains_key(k)).copied().collect()
    }

    pub fn lookup(&self, key: u64) -> Option<Vec<f32>> {
        let shard = self.shards[2].read();
        shard.get(&key).cloned()
    }
}
