//! L4 fail fixture: two public mutators of shared cache state with doc
//! comments but no `# Invariants` section.

pub struct Table {
    shard: std::sync::RwLock<Vec<u64>>,
    count: std::sync::atomic::AtomicUsize,
}

impl Table {
    /// Appends a key to the shared shard.
    pub fn push(&self, key: u64) {
        self.shard.write().unwrap().push(key);
        self.count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.count.store(0, std::sync::atomic::Ordering::Relaxed);
    }
}
