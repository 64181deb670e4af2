//! Continuous fleet observability (design decision D10).
//!
//! Layered on the per-query tracing of design decision D9, this
//! module keeps *always-on, bounded-cost* state about the whole
//! serving fleet:
//!
//! * [`window`] — rolling SLO windows per [`QueryClass`] and per
//!   serving session, with breach counters against an [`SloPolicy`].
//! * [`slowlog`] — a top-K slow-query log keyed by plan fingerprint,
//!   deduplicating repeated shapes into one entry with an occurrence
//!   count and the `EXPLAIN ANALYZE` rendering of the slowest run.
//! * [`export`] — deterministic JSONL export of query and window
//!   events behind a [`Sink`] trait (no I/O in this crate; the core
//!   crate provides the file sink and the `drugtree top` report).
//!
//! [`FleetObserver`] composes the three behind the [`Observer`] hook,
//! so installing fleet observability is one
//! `DrugTreeBuilder::with_observer` call. Everything runs on the
//! virtual clock: replaying a workload reproduces every window
//! boundary, breach count, and exported byte.

pub mod export;
pub mod slowlog;
pub mod window;

pub use export::{
    AdaptDecision, AdaptEvent, QueryEvent, ServeClassCounters, ServeEvent, Sink, SpanEvent,
    TraceExport, VecSink, WindowEvent,
};
pub use slowlog::{SlowLogEntry, SlowQueryLog};
pub use window::{QueryClass, RollingWindows, SloPolicy, WindowSummary};

use crate::plan::{Access, FetchPlan, Finish, PhysicalPlan};
use crate::trace::{render_analyzed, GestureObservation, Observer, QueryTrace};
use drugtree_sources::telemetry::{FixedHistogram, HistogramSnapshot};
use drugtree_store::expr::Predicate;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Stable 64-bit fingerprint of a plan's logical *shape*: what the
/// plan does, with every predicate constant stripped. Two plans that
/// differ only in literals (`p_activity >= 6` vs `>= 7`), key lists,
/// or scope intervals share a fingerprint, so the slow-query log and
/// `drugtree top` aggregate them as one workload shape.
pub fn plan_fingerprint(plan: &PhysicalPlan) -> u64 {
    fnv1a(plan_shape(plan).as_bytes())
}

/// The canonical shape string behind [`plan_fingerprint`] — also the
/// human-readable `shape` column of slow-query-log entries.
pub fn plan_shape(plan: &PhysicalPlan) -> String {
    let mut s = String::new();
    match &plan.access {
        Access::CacheProbe {
            pushdown,
            on_miss,
            insert_on_miss,
            concurrent_sources,
        } => {
            let _ = write!(
                s,
                "cache-probe(pushdown={}, insert={insert_on_miss}, concurrent={concurrent_sources}, miss=[{}])",
                pred_shape_opt(pushdown),
                join_fetches(on_miss),
            );
        }
        Access::Fetch {
            fetches,
            concurrent_sources,
        } => {
            let _ = write!(
                s,
                "fetch(concurrent={concurrent_sources}, [{}])",
                join_fetches(fetches)
            );
        }
        Access::ColumnarScan { pushdown } => {
            let _ = write!(s, "columnar-scan(pushdown={})", pred_shape_opt(pushdown));
        }
        Access::ProvedEmpty => s.push_str("proved-empty"),
    }
    let _ = write!(s, " residual={}", pred_shape(&plan.residual));
    if plan.ligand_join {
        s.push_str(" ligand-join");
    }
    if plan.similarity.is_some() {
        s.push_str(" similarity");
    }
    if plan.substructure.is_some() {
        s.push_str(" substructure");
    }
    match &plan.finish {
        Finish::Collect => s.push_str(" finish=collect"),
        Finish::TopK {
            column, descending, ..
        } => {
            let _ = write!(
                s,
                " finish=top-k(col{column},{})",
                if *descending { "desc" } else { "asc" }
            );
        }
        Finish::AggregateChildren { metric, .. } => {
            let _ = write!(s, " finish=aggregate({})", metric.label());
        }
        Finish::CountPerLeaf => s.push_str(" finish=count-per-leaf"),
    }
    s
}

fn join_fetches(fetches: &[FetchPlan]) -> String {
    let parts: Vec<String> = fetches.iter().map(fetch_shape).collect();
    parts.join(", ")
}

fn fetch_shape(f: &FetchPlan) -> String {
    format!(
        "{}(pushdown={}, batched={}, concurrent={})",
        f.source,
        pred_shape_opt(&f.pushdown),
        f.batched,
        f.concurrent
    )
}

fn pred_shape_opt(p: &Option<Predicate>) -> String {
    match p {
        Some(p) => pred_shape(p),
        None => "-".to_string(),
    }
}

/// Predicate shape: columns and operators with every literal replaced
/// by `?`.
fn pred_shape(p: &Predicate) -> String {
    match p {
        Predicate::True => "true".into(),
        Predicate::Compare { column, op, .. } => format!("{column} {} ?", op.symbol()),
        Predicate::Between { column, .. } => format!("{column} between ? and ?"),
        Predicate::InSet { column, .. } => format!("{column} in (?)"),
        Predicate::IsNull { column } => format!("{column} is null"),
        Predicate::And(ps) => {
            let parts: Vec<String> = ps.iter().map(pred_shape).collect();
            format!("({})", parts.join(" and "))
        }
        Predicate::Or(ps) => {
            let parts: Vec<String> = ps.iter().map(pred_shape).collect();
            format!("({})", parts.join(" or "))
        }
        Predicate::Not(inner) => format!("not {}", pred_shape(inner)),
    }
}

/// FNV-1a, 64-bit: stable across platforms and runs, cheap enough to
/// hash every planned query.
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The composed fleet observer: rolling SLO windows + slow-query log
/// + JSONL export behind one [`Observer`].
///
/// Configure with the `with_*` methods before installing (the
/// executor takes it as an `Arc<dyn Observer>`); read any accessor at
/// any time after. Components are opt-in — a `FleetObserver::new()`
/// keeps only the windows, and [`Observer::wants_plan`] returns true
/// only when a slow-query log (which renders `EXPLAIN ANALYZE`) is
/// attached, so plan cloning is never paid for nothing.
#[derive(Debug)]
pub struct FleetObserver {
    windows: RollingWindows,
    slowlog: Option<SlowQueryLog>,
    export: Option<TraceExport>,
    cumulative: [FixedHistogram; QueryClass::ALL.len()],
}

impl Default for FleetObserver {
    fn default() -> Self {
        FleetObserver::new()
    }
}

impl FleetObserver {
    /// Default observer: 1-second windows, a ring of 8 summaries per
    /// scope, the default [`SloPolicy`], no slow-query log, no export.
    pub fn new() -> FleetObserver {
        FleetObserver::with_windows(Duration::from_secs(1), 8, SloPolicy::default())
    }

    /// An observer with explicit window width, ring size, and policy.
    pub fn with_windows(width: Duration, ring: usize, policy: SloPolicy) -> FleetObserver {
        FleetObserver {
            windows: RollingWindows::new(width, ring, policy),
            slowlog: None,
            export: None,
            cumulative: std::array::from_fn(|_| RollingWindows::cumulative_histogram()),
        }
    }

    /// Attach a slow-query log retaining the `k` slowest plan shapes.
    pub fn with_slowlog(mut self, k: usize) -> FleetObserver {
        self.slowlog = Some(SlowQueryLog::new(k));
        self
    }

    /// Attach a JSONL exporter writing to `sink`.
    pub fn with_export(mut self, sink: Arc<dyn Sink>) -> FleetObserver {
        self.export = Some(TraceExport::new(sink));
        self
    }

    /// The rolling windows.
    pub fn windows(&self) -> &RollingWindows {
        &self.windows
    }

    /// The slow-query log, if attached.
    pub fn slowlog(&self) -> Option<&SlowQueryLog> {
        self.slowlog.as_ref()
    }

    /// The exporter, if attached.
    pub fn export(&self) -> Option<&TraceExport> {
        self.export.as_ref()
    }

    /// Whole-run charged-latency distribution for a class (all
    /// windows folded together).
    pub fn class_snapshot(&self, class: QueryClass) -> HistogramSnapshot {
        self.cumulative[class.index()].snapshot()
    }

    fn fold_query(&self, trace: &QueryTrace) -> bool {
        let class = trace.class;
        let charged = trace.access_cost;
        let at_ns = trace.root.ended.0;
        let breach = charged > self.windows.policy().target(class);
        self.cumulative[class.index()].record_duration(charged);
        let closed = self.windows.record_query(class, at_ns, charged);
        if let Some(export) = &self.export {
            let scope = format!("class:{}", class.label());
            for summary in &closed {
                export.emit_window(&scope, summary, self.windows.class_breaches(class));
            }
            export.emit_query(trace, breach);
        }
        breach
    }
}

impl Observer for FleetObserver {
    fn on_query(&self, trace: &QueryTrace) {
        self.fold_query(trace);
    }

    fn wants_plan(&self) -> bool {
        self.slowlog.is_some()
    }

    fn on_query_planned(&self, trace: &QueryTrace, plan: &PhysicalPlan) {
        self.fold_query(trace);
        if let Some(log) = &self.slowlog {
            log.offer(
                trace.fingerprint,
                trace.access_cost,
                trace.root.ended.0,
                &trace.query,
                || plan_shape(plan),
                || render_analyzed(plan, trace),
            );
        }
    }

    fn on_gesture(&self, gesture: &GestureObservation) {
        let Some(session) = gesture.session else {
            return;
        };
        let closed = self
            .windows
            .record_session(session, gesture.at.0, gesture.charged);
        if let Some(export) = &self.export {
            let scope = format!("session:{session}");
            for summary in &closed {
                export.emit_window(&scope, summary, self.windows.session_breaches(session));
            }
        }
    }

    fn on_serve_rollup(&self, counters: &ServeClassCounters) {
        if let Some(export) = &self.export {
            export.emit_serve(counters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use crate::exec::Executor;
    use crate::optimizer::{Optimizer, OptimizerConfig};
    use crate::parser::parse_query;
    use drugtree_sources::source::SourceCapabilities;

    fn run_fleet(observer: Arc<FleetObserver>) {
        let dataset = small_dataset(SourceCapabilities::full());
        let mut executor = Executor::new(Optimizer::new(OptimizerConfig::full()));
        executor.set_observer(Arc::clone(&observer) as Arc<dyn Observer>);
        for text in [
            "activities in tree",
            "activities in tree where p_activity >= 6",
            "activities in tree where p_activity >= 7",
            "activities in tree top 3 by p_activity",
        ] {
            let query = parse_query(text).unwrap();
            executor.execute(&dataset, &query).unwrap();
        }
    }

    #[test]
    fn fingerprints_strip_constants_but_not_shape() {
        let dataset = small_dataset(SourceCapabilities::full());
        let executor = Executor::new(Optimizer::new(OptimizerConfig::full()));
        let fp = |text: &str| {
            let query = parse_query(text).unwrap();
            let analyzed = executor.analyze(&dataset, &query).unwrap();
            (plan_fingerprint(&analyzed.plan), plan_shape(&analyzed.plan))
        };
        let (fp6, shape6) = fp("activities in tree where p_activity >= 6");
        let (fp7, shape7) = fp("activities in tree where p_activity >= 7");
        assert_eq!(fp6, fp7, "literals are stripped: same shape");
        assert_eq!(shape6, shape7);
        assert!(!shape6.contains('6'), "no literal in the shape: {shape6}");
        let (fp_plain, _) = fp("activities in tree");
        assert_ne!(fp6, fp_plain, "the predicate's shape still matters");
        let (fp_lt, _) = fp("activities in tree where p_activity < 6");
        assert_ne!(fp6, fp_lt, "the operator is part of the shape");
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        // Pinned against Noll's published FNV-1a 64 test vectors: the
        // fingerprint is persisted in exports and compared across
        // builds, so the function may never drift.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // One-byte edits move the hash — the slowlog keys on it.
        assert_ne!(fnv1a(b"shape"), fnv1a(b"shapf"));
    }

    #[test]
    fn constant_stripped_shapes_collide_and_distinct_shapes_do_not() {
        let dataset = small_dataset(SourceCapabilities::full());
        let executor = Executor::new(Optimizer::new(OptimizerConfig::full()));
        let fp = |text: &str| {
            let query = parse_query(text).unwrap();
            plan_fingerprint(&executor.analyze(&dataset, &query).unwrap().plan)
        };
        // Collisions are the point: every class of stripped constant —
        // comparison literals, disjunction literals, key lists — folds
        // into one workload shape.
        assert_eq!(
            fp("activities in tree where p_activity >= 6"),
            fp("activities in tree where p_activity >= 7"),
        );
        assert_eq!(
            fp("activities where (year = 2010 or year = 2012) and mw < 500"),
            fp("activities where (year = 2011 or year = 2013) and mw < 900"),
        );
        assert_eq!(
            fp("activities in leaves('P1', 'P2')"),
            fp("activities in leaves('P3')"),
        );
        // Structurally distinct plans must not fold together: collide
        // here and `drugtree top` blames the wrong workload.
        let corpus = [
            "activities in tree",
            "activities in tree where p_activity >= 6",
            "activities in tree where p_activity < 6",
            "activities in tree top 3 by p_activity",
            "count per leaf in tree",
        ];
        let prints: Vec<u64> = corpus.iter().map(|q| fp(q)).collect();
        for i in 0..prints.len() {
            for j in (i + 1)..prints.len() {
                assert_ne!(
                    prints[i], prints[j],
                    "{:?} and {:?} must not share a fingerprint",
                    corpus[i], corpus[j]
                );
            }
        }
    }

    #[test]
    fn fingerprints_are_byte_identical_across_fresh_replays() {
        let replay = || -> Vec<u64> {
            let dataset = small_dataset(SourceCapabilities::full());
            let executor = Executor::new(Optimizer::new(OptimizerConfig::full()));
            [
                "activities in tree",
                "activities in tree where p_activity >= 6",
                "activities in tree top 3 by p_activity",
                "count per leaf in tree",
            ]
            .iter()
            .map(|text| {
                let query = parse_query(text).unwrap();
                plan_fingerprint(&executor.analyze(&dataset, &query).unwrap().plan)
            })
            .collect()
        };
        // Nothing run-dependent (addresses, hash seeds, iteration
        // order) may leak into the fingerprint: replay tooling joins
        // exports from different processes on it.
        assert_eq!(replay(), replay());
    }

    #[test]
    fn fleet_observer_folds_classes_and_slowlog() {
        let observer = Arc::new(FleetObserver::new().with_slowlog(8));
        run_fleet(Arc::clone(&observer));
        assert_eq!(
            observer.class_snapshot(QueryClass::Listing).count,
            1,
            "one bare listing"
        );
        assert_eq!(observer.class_snapshot(QueryClass::Filtered).count, 2);
        assert_eq!(observer.class_snapshot(QueryClass::TopK).count, 1);
        let log = observer.slowlog().unwrap();
        let entries = log.entries();
        assert!(!entries.is_empty());
        // The two filtered listings share a fingerprint: one entry
        // counts both occurrences.
        let filtered = entries
            .iter()
            .find(|e| e.query.contains("p_activity >="))
            .unwrap();
        assert_eq!(filtered.count, 2);
        assert!(
            filtered.rendering.contains("Trace:"),
            "slowlog holds the EXPLAIN ANALYZE rendering"
        );
    }

    #[test]
    fn export_streams_are_deterministic_across_replays() {
        let run = || {
            let sink = Arc::new(VecSink::new());
            let observer = Arc::new(
                FleetObserver::new()
                    .with_slowlog(4)
                    .with_export(Arc::clone(&sink) as Arc<dyn Sink>),
            );
            run_fleet(observer);
            sink.lines()
        };
        let first = run();
        let second = run();
        assert!(!first.is_empty());
        assert_eq!(first, second, "byte-identical replay");
        for line in &first {
            assert!(
                line.starts_with("{\"event\":\"query\"")
                    || line.starts_with("{\"event\":\"window\"")
            );
        }
    }

    #[test]
    fn gestures_attribute_to_sessions() {
        use drugtree_sources::clock::VirtualInstant;
        let observer = FleetObserver::new();
        observer.on_gesture(&GestureObservation {
            gesture: "expand",
            rows: 1,
            compute: Duration::from_millis(5),
            network: Duration::from_millis(400),
            payload_bytes: 100,
            cache_hit: None,
            session: Some(4),
            charged: Duration::from_millis(405),
            at: VirtualInstant(1_000),
        });
        // Standalone gestures (no session id) are ignored by windows.
        observer.on_gesture(&GestureObservation {
            gesture: "pan",
            rows: 0,
            compute: Duration::ZERO,
            network: Duration::from_millis(10),
            payload_bytes: 10,
            cache_hit: None,
            session: None,
            charged: Duration::from_millis(10),
            at: VirtualInstant(2_000),
        });
        assert_eq!(observer.windows().session_ids(), vec![4]);
        assert_eq!(observer.windows().session_breaches(4), 1, "405ms > 250ms");
    }
}
