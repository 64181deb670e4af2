//! The semantic result cache (design decision D2) — the poster's
//! "novel mechanism" for interactive tree browsing.
//!
//! Mobile tree exploration is drill-down-heavy: the user opens a clade,
//! then its child, then a grandchild. Each step's subtree interval is
//! *contained* in the previous one, so the activity rows fetched for
//! the parent already answer the child's query — no source round-trip
//! needed. The cache therefore stores, per entry:
//!
//! * the leaf interval the rows cover,
//! * the pushdown predicate they were fetched under (`None` = all
//!   rows), and
//! * the unified activity rows, **sorted by leaf rank** so containment
//!   hits slice by binary search instead of scanning.
//!
//! A query `(interval Q, pushdown P)` is answerable by an entry
//! `(interval E, pushdown F)` iff `E ⊇ Q` and `F` is *implied by* `P`
//! (every row satisfying `P` satisfies `F`, so the entry's row set is a
//! superset of what the query needs; the residual filter re-applies
//! `P`). Implication is checked syntactically: `F = True`/`None`, or
//! `F`'s conjuncts are a subset of `P`'s conjuncts — sound, never
//! complete, which is the right trade for a cache.

use drugtree_phylo::index::LeafInterval;
use drugtree_store::expr::Predicate;
use drugtree_store::value::Value;
use rustc_hash::FxHashMap;
use std::collections::{BTreeMap, VecDeque};

/// One cached fetch result.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Interval the rows cover.
    pub interval: LeafInterval,
    /// Pushdown predicate the rows were fetched under (`None` = all).
    pub pushdown: Option<Predicate>,
    /// Unified activity rows, sorted by leaf rank (column 0).
    pub rows: Vec<Vec<Value>>,
}

/// Result of a successful probe.
#[derive(Debug)]
pub struct CacheHit {
    /// Rows restricted to the probe interval (cloned out of the entry).
    pub rows: Vec<Vec<Value>>,
    /// The matched entry's interval (for EXPLAIN output).
    pub entry_interval: LeafInterval,
}

/// Configuration for the semantic cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum entries retained (LRU beyond this).
    pub max_entries: usize,
    /// Maximum total cached rows (LRU beyond this).
    pub max_rows: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_entries: 64,
            max_rows: 100_000,
        }
    }
}

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total probes (always `hits + misses`).
    pub probes: u64,
    /// Probes that found a usable entry.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped by invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit fraction over all probes, or `None` when nothing probed
    /// yet — the number the observability layer (D9) and E13 report.
    /// "Never probed" must not render as a 0% hit rate: the first is
    /// a workload property, the second a cache failure.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.probes == 0 {
            None
        } else {
            Some(self.hits as f64 / self.probes as f64)
        }
    }
}

/// The semantic cache. Not internally synchronized; the executor holds
/// one behind a single lock, which every session shares.
///
/// Entries live in an id-keyed map with two access paths: an LRU queue
/// of ids (front = coldest) driving probe order and eviction, and an
/// interval index keyed by `(interval.lo, id)` so targeted
/// invalidation visits only entries whose interval can overlap the
/// refresh window instead of scanning every entry.
#[derive(Debug)]
pub struct SemanticCache {
    config: CacheConfig,
    entries: FxHashMap<u64, CacheEntry>,
    /// Most-recently-used ids at the back.
    lru: VecDeque<u64>,
    /// Interval index: `(lo, id) -> hi`.
    by_lo: BTreeMap<(u32, u64), u32>,
    next_id: u64,
    /// Incrementally maintained `Σ rows`, so budget enforcement does
    /// not rescan entries.
    cached_rows: usize,
    stats: CacheStats,
}

impl SemanticCache {
    /// An empty cache.
    pub fn new(config: CacheConfig) -> SemanticCache {
        SemanticCache {
            config,
            entries: FxHashMap::default(),
            lru: VecDeque::new(),
            by_lo: BTreeMap::new(),
            next_id: 0,
            cached_rows: 0,
            stats: CacheStats::default(),
        }
    }

    /// Probe for an entry answering `(interval, pushdown)`.
    pub fn probe(
        &mut self,
        interval: LeafInterval,
        pushdown: Option<&Predicate>,
    ) -> Option<CacheHit> {
        self.stats.probes += 1;
        let found = self.lru.iter().position(|id| {
            self.entries.get(id).is_some_and(|e| {
                e.interval.contains(interval) && pushdown_implies(pushdown, e.pushdown.as_ref())
            })
        });
        match found {
            Some(pos) => {
                // LRU touch: move the id to the back.
                let Some(id) = self.lru.remove(pos) else {
                    unreachable!("position came from the same deque")
                };
                self.lru.push_back(id);
                let entry = &self.entries[&id];
                self.stats.hits += 1;
                Some(CacheHit {
                    rows: slice_rows(&entry.rows, interval),
                    entry_interval: entry.interval,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a fetch result. Rows need not be pre-sorted. Entries
    /// subsumed by the new one are dropped (the new entry answers
    /// everything they could).
    pub fn insert(
        &mut self,
        interval: LeafInterval,
        pushdown: Option<Predicate>,
        mut rows: Vec<Vec<Value>>,
    ) {
        rows.sort_by_key(|r| r.first().and_then(Value::as_int).unwrap_or(i64::MAX));
        // Drop entries the new one subsumes. Contained entries have
        // `lo' ∈ [lo, hi]`, so the interval index prunes candidates.
        let subsumed: Vec<u64> =
            self.by_lo
                .range((interval.lo, 0)..=(interval.hi, u64::MAX))
                .filter(|(&(_, id), &hi)| {
                    hi <= interval.hi
                        && self.entries.get(&id).is_some_and(|e| {
                            pushdown_implies(e.pushdown.as_ref(), pushdown.as_ref())
                        })
                })
                .map(|(&(_, id), _)| id)
                .collect();
        self.remove_ids(&subsumed);

        let id = self.next_id;
        self.next_id += 1;
        self.cached_rows += rows.len();
        self.by_lo.insert((interval.lo, id), interval.hi);
        self.lru.push_back(id);
        self.entries.insert(
            id,
            CacheEntry {
                interval,
                pushdown,
                rows,
            },
        );
        self.enforce_limits();
    }

    /// Drop every entry (sources changed; cached results may be
    /// stale). Returns the number of entries dropped.
    pub fn invalidate_all(&mut self) -> u64 {
        let dropped = self.entries.len() as u64;
        self.stats.invalidations += dropped;
        self.entries.clear();
        self.lru.clear();
        self.by_lo.clear();
        self.cached_rows = 0;
        dropped
    }

    /// Drop entries overlapping an interval (a targeted refresh).
    /// The interval index restricts the walk to entries with
    /// `lo < interval.hi`; the exact overlap test filters the rest.
    /// Returns the number of entries dropped.
    pub fn invalidate_interval(&mut self, interval: LeafInterval) -> u64 {
        let doomed: Vec<u64> = self
            .by_lo
            .range(..(interval.hi, 0))
            .filter(|(_, &hi)| hi > interval.lo)
            .filter(|(&(_, id), _)| {
                self.entries
                    .get(&id)
                    .is_some_and(|e| e.interval.overlaps(interval))
            })
            .map(|(&(_, id), _)| id)
            .collect();
        let dropped = doomed.len() as u64;
        self.remove_ids(&doomed);
        self.stats.invalidations += dropped;
        dropped
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total cached rows.
    pub fn total_rows(&self) -> usize {
        self.cached_rows
    }

    fn remove_ids(&mut self, ids: &[u64]) {
        if ids.is_empty() {
            return;
        }
        for id in ids {
            if let Some(e) = self.entries.remove(id) {
                self.by_lo.remove(&(e.interval.lo, *id));
                self.cached_rows -= e.rows.len();
            }
        }
        self.lru.retain(|id| self.entries.contains_key(id));
    }

    fn enforce_limits(&mut self) {
        // Strict budgets: an entry larger than the whole row budget is
        // evicted immediately (whole-database results are not worth
        // caching on a constrained client), so it can never crowd out
        // the drill-down-sized entries the mobile workload reuses.
        while self.entries.len() > self.config.max_entries
            || (self.cached_rows > self.config.max_rows && !self.entries.is_empty())
        {
            let Some(id) = self.lru.pop_front() else {
                break;
            };
            if let Some(e) = self.entries.remove(&id) {
                self.by_lo.remove(&(e.interval.lo, id));
                self.cached_rows -= e.rows.len();
            }
            self.stats.evictions += 1;
        }
    }
}

/// Binary-search the sorted rows down to those whose leaf rank falls in
/// `interval`.
fn slice_rows(rows: &[Vec<Value>], interval: LeafInterval) -> Vec<Vec<Value>> {
    let rank_of = |r: &Vec<Value>| r.first().and_then(Value::as_int).unwrap_or(i64::MAX);
    let lo = rows.partition_point(|r| rank_of(r) < interval.lo as i64);
    let hi = rows.partition_point(|r| rank_of(r) < interval.hi as i64);
    rows[lo..hi].to_vec()
}

/// Sound (incomplete) implication: does `query` imply `entry`?
///
/// `entry = None/True` is implied by anything. Otherwise every conjunct
/// of `entry` must be implied by some conjunct of `query`, where
/// implication is exact syntactic equality *or* numeric bound
/// subsumption on the same column (`p >= 7` implies `p >= 6`;
/// `x between 2 and 3` implies `x >= 1`).
fn pushdown_implies(query: Option<&Predicate>, entry: Option<&Predicate>) -> bool {
    let entry = match entry {
        None | Some(Predicate::True) => return true,
        Some(e) => e,
    };
    let Some(query) = query else {
        return false;
    };
    let q_conjuncts = conjuncts(query);
    conjuncts(entry)
        .iter()
        .all(|e| q_conjuncts.iter().any(|q| conjunct_implies(q, e)))
}

/// Conjuncts of a predicate, with `Between` expanded into its two
/// bounds so bound subsumption can see them.
fn conjuncts(p: &Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(ps) => ps.iter().flat_map(conjuncts).collect(),
        Predicate::True => Vec::new(),
        Predicate::Between { column, lo, hi } => vec![
            Predicate::Compare {
                column: column.clone(),
                op: drugtree_store::expr::CompareOp::Ge,
                value: lo.clone(),
            },
            Predicate::Compare {
                column: column.clone(),
                op: drugtree_store::expr::CompareOp::Le,
                value: hi.clone(),
            },
        ],
        other => vec![other.clone()],
    }
}

/// Does the single conjunct `q` imply the single conjunct `e`?
fn conjunct_implies(q: &Predicate, e: &Predicate) -> bool {
    use drugtree_store::expr::CompareOp::*;
    if q == e {
        return true;
    }
    let (
        Predicate::Compare {
            column: qc,
            op: qop,
            value: qv,
        },
        Predicate::Compare {
            column: ec,
            op: eop,
            value: ev,
        },
    ) = (q, e)
    else {
        return false;
    };
    if qc != ec {
        return false;
    }
    let (Some(qv), Some(ev)) = (qv.as_f64(), ev.as_f64()) else {
        return false;
    };
    match (qop, eop) {
        // Lower bounds: x {>=,>} qv implies x {>=,>} ev.
        (Ge, Ge) | (Gt, Gt) => qv >= ev,
        (Gt, Ge) => qv >= ev,
        (Ge, Gt) => qv > ev,
        // Upper bounds.
        (Le, Le) | (Lt, Lt) => qv <= ev,
        (Lt, Le) => qv <= ev,
        (Le, Lt) => qv < ev,
        // Point implies any bound containing it.
        (Eq, Ge) => qv >= ev,
        (Eq, Gt) => qv > ev,
        (Eq, Le) => qv <= ev,
        (Eq, Lt) => qv < ev,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_store::expr::CompareOp;

    fn iv(lo: u32, hi: u32) -> LeafInterval {
        LeafInterval { lo, hi }
    }

    fn row(rank: i64, tag: &str) -> Vec<Value> {
        vec![Value::Int(rank), Value::from(tag)]
    }

    #[test]
    fn exact_hit() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(iv(0, 4), None, vec![row(0, "a"), row(2, "b")]);
        let hit = c.probe(iv(0, 4), None).unwrap();
        assert_eq!(hit.rows.len(), 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn containment_hit_slices_rows() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(iv(0, 8), None, vec![row(1, "a"), row(3, "b"), row(6, "c")]);
        // Drill-down: child interval [2,5).
        let hit = c.probe(iv(2, 5), None).unwrap();
        assert_eq!(hit.rows, vec![row(3, "b")]);
        assert_eq!(hit.entry_interval, iv(0, 8));
        // Sibling interval outside: rows empty but still a hit (the
        // cache *knows* there is nothing there).
        let hit = c.probe(iv(7, 8), None).unwrap();
        assert!(hit.rows.is_empty());
    }

    #[test]
    fn non_contained_probe_misses() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(iv(2, 5), None, vec![row(3, "a")]);
        assert!(
            c.probe(iv(0, 4), None).is_none(),
            "partial overlap is a miss"
        );
        assert!(c.probe(iv(5, 6), None).is_none());
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn predicate_implication() {
        let p_ge = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        let year = Predicate::eq("year", 2012i64);
        let both = p_ge.clone().and(year.clone());

        let mut c = SemanticCache::new(CacheConfig::default());
        // Entry fetched under p_ge.
        c.insert(iv(0, 8), Some(p_ge.clone()), vec![row(1, "a")]);
        // Query pushing down p_ge AND year: entry's rows are a superset.
        assert!(c.probe(iv(0, 4), Some(&both)).is_some());
        // Query pushing down only year: entry may be missing rows
        // (those failing p_ge) -> miss.
        assert!(c.probe(iv(0, 4), Some(&year)).is_none());
        // Query with no pushdown (wants everything) -> miss.
        assert!(c.probe(iv(0, 4), None).is_none());
    }

    #[test]
    fn unfiltered_entry_answers_any_pushdown() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(iv(0, 8), None, vec![row(1, "a")]);
        let p = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        assert!(c.probe(iv(0, 4), Some(&p)).is_some());
    }

    #[test]
    fn insert_subsumes_smaller_entries() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(iv(2, 4), None, vec![row(2, "a")]);
        c.insert(iv(0, 8), None, vec![row(2, "a"), row(5, "b")]);
        assert_eq!(c.len(), 1, "small entry subsumed by the big one");
        // But a *filtered* big entry does not subsume an unfiltered
        // small one.
        let p = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        c.insert(iv(0, 8), Some(p), vec![row(5, "b")]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = SemanticCache::new(CacheConfig {
            max_entries: 2,
            max_rows: 1000,
        });
        c.insert(iv(0, 1), None, vec![row(0, "a")]);
        c.insert(iv(1, 2), None, vec![row(1, "b")]);
        // Touch the first entry so the second becomes LRU.
        assert!(c.probe(iv(0, 1), None).is_some());
        c.insert(iv(2, 3), None, vec![row(2, "c")]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.probe(iv(1, 2), None).is_none(), "LRU entry evicted");
        assert!(c.probe(iv(0, 1), None).is_some(), "touched entry kept");
    }

    #[test]
    fn row_budget_eviction() {
        let mut c = SemanticCache::new(CacheConfig {
            max_entries: 100,
            max_rows: 3,
        });
        c.insert(iv(0, 4), None, vec![row(0, "a"), row(1, "b")]);
        c.insert(iv(4, 8), None, vec![row(4, "c"), row(5, "d")]);
        assert_eq!(c.len(), 1, "row budget forced eviction");
        assert!(c.total_rows() <= 3);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut c = SemanticCache::new(CacheConfig {
            max_entries: 100,
            max_rows: 2,
        });
        c.insert(iv(0, 8), None, vec![row(0, "a"), row(1, "b"), row(2, "c")]);
        assert!(c.is_empty(), "whole-database result exceeds the budget");
        assert_eq!(c.stats().evictions, 1);
        // Smaller entries still cache fine afterwards.
        c.insert(iv(0, 2), None, vec![row(0, "a")]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidation() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(iv(0, 4), None, vec![row(0, "a")]);
        c.insert(iv(4, 8), None, vec![row(5, "b")]);
        c.invalidate_interval(iv(3, 5));
        assert_eq!(c.len(), 0, "both entries overlap [3,5)");
        assert_eq!(c.stats().invalidations, 2);

        c.insert(iv(0, 4), None, vec![row(0, "a")]);
        c.invalidate_all();
        assert!(c.is_empty());
    }

    #[test]
    fn overlapping_interval_invalidation() {
        // Entries on every side of the refresh window: strictly left,
        // touching-left (half-open: no overlap), left-overlapping,
        // contained, containing, right-overlapping, touching-right,
        // strictly right.
        let mut c = SemanticCache::new(CacheConfig::default());
        let cases = [
            (iv(0, 2), false),   // strictly left of [4, 8)
            (iv(2, 4), false),   // touches lo: half-open, no overlap
            (iv(3, 5), true),    // straddles lo
            (iv(5, 6), true),    // contained
            (iv(2, 10), true),   // contains the window
            (iv(7, 9), true),    // straddles hi
            (iv(8, 10), false),  // touches hi
            (iv(10, 12), false), // strictly right
        ];
        // Distinct pushdowns keep the entries from subsuming each
        // other on insert, so all eight coexist.
        let pred = |i: usize| Predicate::eq("source_id", i as i64);
        for (i, (interval, _)) in cases.iter().enumerate() {
            c.insert(*interval, Some(pred(i)), vec![row(interval.lo as i64, "x")]);
        }
        assert_eq!(c.len(), 8);
        let dropped = c.invalidate_interval(iv(4, 8));
        assert_eq!(dropped, 4);
        assert_eq!(c.stats().invalidations, 4);
        for (i, (interval, doomed)) in cases.iter().enumerate() {
            assert_eq!(
                c.probe(*interval, Some(&pred(i))).is_none(),
                *doomed,
                "entry {interval:?} wrong after invalidating [4,8)"
            );
        }
        // Row accounting survives targeted invalidation.
        assert_eq!(c.total_rows(), 4);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn probes_always_equal_hits_plus_misses() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(iv(0, 8), None, vec![row(1, "a")]);
        let _ = c.probe(iv(0, 4), None);
        let _ = c.probe(iv(6, 12), None);
        let _ = c.probe(iv(2, 3), None);
        let s = c.stats();
        assert_eq!(s.probes, 3);
        assert_eq!(s.hits + s.misses, s.probes);
    }

    #[test]
    fn bound_subsumption_implication() {
        use drugtree_store::expr::CompareOp::*;
        let ge = |v: f64| Predicate::cmp("p", Ge, v);
        let gt = |v: f64| Predicate::cmp("p", Gt, v);
        let le = |v: f64| Predicate::cmp("p", Le, v);

        // Tighter lower bound implies looser.
        assert!(pushdown_implies(Some(&ge(7.0)), Some(&ge(6.0))));
        assert!(!pushdown_implies(Some(&ge(5.0)), Some(&ge(6.0))));
        // Strict vs non-strict edges.
        assert!(pushdown_implies(Some(&gt(6.0)), Some(&ge(6.0))));
        assert!(!pushdown_implies(Some(&ge(6.0)), Some(&gt(6.0))));
        assert!(pushdown_implies(Some(&ge(6.1)), Some(&gt(6.0))));
        // Upper bounds.
        assert!(pushdown_implies(Some(&le(4.0)), Some(&le(5.0))));
        assert!(!pushdown_implies(Some(&le(6.0)), Some(&le(5.0))));
        // Point implies covering bound.
        let eq = Predicate::eq("p", 7.0);
        assert!(pushdown_implies(Some(&eq), Some(&ge(6.0))));
        assert!(!pushdown_implies(Some(&eq), Some(&ge(8.0))));
        // Different columns never imply.
        assert!(!pushdown_implies(
            Some(&Predicate::cmp("q", Ge, 9.0)),
            Some(&ge(6.0))
        ));
        // Between expands into bounds.
        let btw = Predicate::between("p", 6.5, 7.0);
        assert!(pushdown_implies(Some(&btw), Some(&ge(6.0))));
        assert!(!pushdown_implies(Some(&ge(6.0)), Some(&btw)));
        // Multi-conjunct entries need every conjunct implied.
        let entry = ge(6.0).and(Predicate::eq("year", 2012i64));
        let query = ge(7.0).and(Predicate::eq("year", 2012i64));
        assert!(pushdown_implies(Some(&query), Some(&entry)));
        assert!(!pushdown_implies(Some(&ge(7.0)), Some(&entry)));
    }

    #[test]
    fn probe_uses_bound_subsumption() {
        use drugtree_store::expr::CompareOp::Ge;
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(
            iv(0, 8),
            Some(Predicate::cmp("p_activity", Ge, 6.0)),
            vec![row(1, "a"), row(3, "b")],
        );
        // Stricter query bound: rows are a superset of what it needs.
        let strict = Predicate::cmp("p_activity", Ge, 7.5);
        assert!(c.probe(iv(0, 4), Some(&strict)).is_some());
        // Looser query bound: entry may be missing rows in [5.0, 6.0).
        let loose = Predicate::cmp("p_activity", Ge, 5.0);
        assert!(c.probe(iv(0, 4), Some(&loose)).is_none());
    }

    #[test]
    fn rows_sorted_on_insert() {
        let mut c = SemanticCache::new(CacheConfig::default());
        c.insert(iv(0, 8), None, vec![row(6, "c"), row(1, "a"), row(3, "b")]);
        let hit = c.probe(iv(0, 8), None).unwrap();
        let ranks: Vec<i64> = hit.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ranks, vec![1, 3, 6]);
    }
}
