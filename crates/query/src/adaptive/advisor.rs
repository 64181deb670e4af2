//! The auto-materialization advisor.
//!
//! Folds slow-path *mirror-answerable* queries (pure whole-clade
//! aggregates the planner had to execute without a columnar mirror
//! to answer them) into
//! per-shape cumulative foregone cost — dedup count × charged latency,
//! the same arithmetic `drugtree top` renders from the slow-log. Once
//! the cumulative foregone cost crosses the measured break-even (the
//! E7 trade: one build scan vs the hits it saves), the advisor tells
//! the runtime to build the mirror. Afterwards it counts the queries
//! the mirror serves and flags one that serves nothing for eviction.

use rustc_hash::FxHashMap;
use std::time::Duration;

/// Tuning for the auto-materialization loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorConfig {
    /// Break-even override; when `None` the runtime supplies the
    /// measured scan cost (the E7 proxy) at decision time.
    pub break_even: Option<Duration>,
    /// A built view with zero hits for this long (virtual clock) is
    /// evicted as never-paying-off.
    pub eviction_idle: Duration,
}

impl Default for AdvisorConfig {
    fn default() -> AdvisorConfig {
        AdvisorConfig {
            break_even: None,
            eviction_idle: Duration::from_secs(60),
        }
    }
}

/// One mirror-answerable shape's accumulated foregone cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeCost {
    /// Plan-shape fingerprint.
    pub fingerprint: u64,
    /// Canonical shape string.
    pub shape: String,
    /// Occurrences seen.
    pub count: u64,
    /// Charged latency accumulated while unserved by a view.
    pub foregone: Duration,
    /// Virtual clock of the most recent occurrence.
    pub last_seen_ns: u64,
}

/// Bookkeeping for the one built view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BuiltView {
    at_ns: u64,
    build_cost: Duration,
    hits: u64,
    last_hit_ns: u64,
}

/// Counters and state of the advisor, for reports and E17.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvisorSnapshot {
    /// Distinct mirror-answerable shapes observed.
    pub shapes: usize,
    /// Total unserved occurrences folded in.
    pub candidates: u64,
    /// Cumulative foregone charged latency (resets on build/evict).
    pub foregone: Duration,
    /// Whether a view is currently built.
    pub built: bool,
    /// Build cost of the current view (zero when none).
    pub build_cost: Duration,
    /// Queries served by the built view.
    pub hits: u64,
    /// Views evicted as never-paying-off.
    pub evictions: u64,
}

/// Break-even bookkeeping for auto-materialization. Not itself
/// thread-safe; the adaptive runtime wraps it in a mutex.
#[derive(Debug, Default)]
pub struct MatviewAdvisor {
    config: AdvisorConfig,
    shapes: FxHashMap<u64, ShapeCost>,
    foregone_total: Duration,
    candidates: u64,
    built: Option<BuiltView>,
    evictions: u64,
}

impl MatviewAdvisor {
    /// An empty advisor.
    pub fn new(config: AdvisorConfig) -> MatviewAdvisor {
        MatviewAdvisor {
            config,
            shapes: FxHashMap::default(),
            foregone_total: Duration::ZERO,
            candidates: 0,
            built: None,
            evictions: 0,
        }
    }

    /// Fold one mirror-answerable query that executed *without* a
    /// mirror. `measured_break_even` is the runtime's scan-cost proxy,
    /// used unless the config pins an override. Returns `true` when
    /// this occurrence pushes the cumulative foregone cost past
    /// break-even — i.e. the runtime should build the mirror now.
    pub fn note_candidate(
        &mut self,
        fingerprint: u64,
        shape: impl FnOnce() -> String,
        charged: Duration,
        now_ns: u64,
        measured_break_even: Duration,
    ) -> bool {
        self.candidates += 1;
        self.foregone_total += charged;
        let entry = self.shapes.entry(fingerprint).or_insert_with(|| ShapeCost {
            fingerprint,
            shape: shape(),
            count: 0,
            foregone: Duration::ZERO,
            last_seen_ns: 0,
        });
        entry.count += 1;
        entry.foregone += charged;
        entry.last_seen_ns = entry.last_seen_ns.max(now_ns);
        let break_even = self.config.break_even.unwrap_or(measured_break_even);
        self.built.is_none() && self.foregone_total > break_even
    }

    /// The view was built: start counting its hits.
    pub fn record_build(&mut self, at_ns: u64, build_cost: Duration) {
        self.built = Some(BuiltView {
            at_ns,
            build_cost,
            hits: 0,
            last_hit_ns: at_ns,
        });
        self.foregone_total = Duration::ZERO;
    }

    /// A query was served by the built view.
    pub fn note_hit(&mut self, now_ns: u64) {
        if let Some(b) = &mut self.built {
            b.hits += 1;
            b.last_hit_ns = b.last_hit_ns.max(now_ns);
        }
    }

    /// Whether the built view should be evicted: it has served nothing
    /// for the configured idle window — it never paid off.
    pub fn should_evict(&self, now_ns: u64) -> bool {
        let idle = u64::try_from(self.config.eviction_idle.as_nanos()).unwrap_or(u64::MAX);
        self.built
            .is_some_and(|b| b.hits == 0 && now_ns > b.last_hit_ns.saturating_add(idle))
    }

    /// The view was evicted; foregone-cost accumulation restarts so a
    /// genuinely hot workload can re-cross break-even later.
    pub fn record_evict(&mut self) {
        if self.built.take().is_some() {
            self.evictions += 1;
            self.foregone_total = Duration::ZERO;
            for shape in self.shapes.values_mut() {
                shape.foregone = Duration::ZERO;
            }
        }
    }

    /// Mean charged latency this shape paid per unserved occurrence.
    pub fn mean_foregone(&self, fingerprint: u64) -> Option<Duration> {
        self.shapes
            .get(&fingerprint)
            .filter(|s| s.count > 0)
            .map(|s| s.foregone / u32::try_from(s.count.min(u64::from(u32::MAX))).unwrap_or(1))
    }

    /// Counters and state, for the advisor report and E17.
    pub fn snapshot(&self) -> AdvisorSnapshot {
        AdvisorSnapshot {
            shapes: self.shapes.len(),
            candidates: self.candidates,
            foregone: self.foregone_total,
            built: self.built.is_some(),
            build_cost: self.built.map_or(Duration::ZERO, |b| b.build_cost),
            hits: self.built.map_or(0, |b| b.hits),
            evictions: self.evictions,
        }
    }

    /// Observed shapes, hottest (by foregone cost) first; ties break
    /// on fingerprint for deterministic output.
    pub fn shapes(&self) -> Vec<ShapeCost> {
        let mut all: Vec<ShapeCost> = self.shapes.values().cloned().collect();
        all.sort_by(|a, b| {
            b.foregone
                .cmp(&a.foregone)
                .then_with(|| a.fingerprint.cmp(&b.fingerprint))
        });
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn advisor() -> MatviewAdvisor {
        MatviewAdvisor::new(AdvisorConfig {
            break_even: None,
            eviction_idle: ms(100),
        })
    }

    #[test]
    fn break_even_crossing_triggers_build_once() {
        let mut a = advisor();
        // 30ms break-even; three 10ms queries accumulate to it, the
        // fourth crosses.
        assert!(!a.note_candidate(1, || "agg".into(), ms(10), 1, ms(30)));
        assert!(!a.note_candidate(1, || "agg".into(), ms(10), 2, ms(30)));
        assert!(!a.note_candidate(1, || "agg".into(), ms(10), 3, ms(30)));
        assert!(a.note_candidate(1, || "agg".into(), ms(10), 4, ms(30)));
        a.record_build(4, ms(25));
        // Built: no further build requests.
        assert!(!a.note_candidate(1, || "agg".into(), ms(10), 5, ms(30)));
        let snap = a.snapshot();
        assert!(snap.built);
        assert_eq!(snap.build_cost, ms(25));
        assert_eq!(snap.candidates, 5);
    }

    #[test]
    fn config_override_beats_the_measured_proxy() {
        let mut a = MatviewAdvisor::new(AdvisorConfig {
            break_even: Some(ms(5)),
            eviction_idle: ms(100),
        });
        // Measured proxy says 1000ms, but the override (5ms) wins.
        assert!(a.note_candidate(1, || "agg".into(), ms(10), 1, ms(1_000)));
    }

    #[test]
    fn idle_views_evict_and_accumulation_restarts() {
        let mut a = advisor();
        a.note_candidate(1, || "agg".into(), ms(50), 1_000_000, ms(10));
        a.record_build(1_000_000, ms(30));
        // Within the idle window: keep.
        assert!(!a.should_evict(1_000_000 + ms(50).as_nanos() as u64));
        // Past it with zero hits: evict.
        assert!(a.should_evict(1_000_000 + ms(101).as_nanos() as u64));
        a.record_evict();
        let snap = a.snapshot();
        assert!(!snap.built);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.foregone, Duration::ZERO);
        // A view that took even one hit is never idle-evicted.
        a.note_candidate(1, || "agg".into(), ms(50), 2_000_000, ms(10));
        a.record_build(2_000_000, ms(30));
        a.note_hit(2_000_001);
        assert!(!a.should_evict(u64::MAX));
    }

    #[test]
    fn shapes_sort_hottest_first() {
        let mut a = advisor();
        a.note_candidate(1, || "cool".into(), ms(5), 1, ms(1_000));
        a.note_candidate(2, || "hot".into(), ms(50), 2, ms(1_000));
        a.note_candidate(2, || "hot".into(), ms(50), 3, ms(1_000));
        let shapes = a.shapes();
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0].shape, "hot");
        assert_eq!(shapes[0].count, 2);
        assert_eq!(shapes[0].foregone, ms(100));
        assert_eq!(shapes[1].shape, "cool");
    }
}
