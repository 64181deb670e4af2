// Clean twin for the lock-order pass: the one nested acquisition
// follows the canonical order (cache before per-source metrics) and
// the graph is acyclic, so the pass must stay silent.

impl Executor {
    fn record(&self, name: &str) -> usize {
        let cache = self.cache.lock();
        let sources = self.per_source.read();
        sources.len() + cache.len()
    }

    // Sequential (non-nested) acquisitions in either order are fine:
    // the first guard is gone before the second lock is taken.
    fn sequential(&self) -> usize {
        let sources = self.per_source.read();
        let n = sources.len();
        drop(sources);
        let cache = self.cache.lock();
        n + cache.len()
    }
}
