//! Loom model check for the executor's semantic cache: invalidation
//! racing concurrent probes.
//!
//! The executor holds one `SemanticCache` behind one
//! `drugtree_sources::sync::Mutex`; this model drives the same pair.
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the mutex swaps for
//! loom's instrumented type, and every schedule perturbation lands
//! directly on the probe/invalidate interleaving). Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p drugtree-query --test loom_model --release
//! ```

#![cfg(loom)]
// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_phylo::index::LeafInterval;
use drugtree_query::cache::{CacheConfig, SemanticCache};
use drugtree_sources::sync::Mutex;
use drugtree_store::value::Value;
use std::sync::Arc;

fn iv(lo: u32, hi: u32) -> LeafInterval {
    LeafInterval { lo, hi }
}

fn row(rank: i64) -> Vec<Value> {
    vec![Value::Int(rank), Value::from("x")]
}

/// An invalidation races a prober hammering the same interval. Under
/// every schedule: a hit returns the full, untorn row set (never a
/// partially-invalidated entry), hits are monotone (once the prober
/// observes the invalidation, the entry never resurrects), the
/// counters account for every probe, and the cache ends empty.
#[test]
fn invalidation_racing_probes_never_tears_results() {
    loom::model(|| {
        let cache = Arc::new(Mutex::new(SemanticCache::new(CacheConfig {
            max_entries: 16,
            max_rows: 1600,
        })));
        let rows = vec![row(1), row(2), row(3)];
        cache.lock().insert(iv(0, 8), None, rows.clone());

        let prober = {
            let (c, expect) = (Arc::clone(&cache), rows.clone());
            loom::thread::spawn(move || {
                let mut hits = Vec::new();
                for _ in 0..4 {
                    let probe = c.lock().probe(iv(0, 8), None);
                    match probe {
                        Some(hit) => {
                            assert_eq!(hit.rows, expect, "hit returned a torn row set");
                            hits.push(true);
                        }
                        None => hits.push(false),
                    }
                }
                hits
            })
        };
        let invalidator = {
            let c = Arc::clone(&cache);
            loom::thread::spawn(move || c.lock().invalidate_interval(iv(0, 8)))
        };

        let hits = prober.join().unwrap();
        invalidator.join().unwrap();

        // Monotone: after the first miss there is no later hit —
        // nothing reinserts, so a resurrection would mean a probe saw
        // a half-swept cache state.
        let first_miss = hits.iter().position(|h| !h).unwrap_or(hits.len());
        assert!(
            hits[first_miss..].iter().all(|h| !h),
            "entry resurrected after invalidation: {hits:?}"
        );

        let cache = cache.lock();
        let stats = cache.stats();
        assert_eq!(stats.probes, stats.hits + stats.misses);
        assert_eq!(stats.hits, hits.iter().filter(|h| **h).count() as u64);
        assert!(cache.is_empty(), "invalidation must leave no entries");
    });
}
