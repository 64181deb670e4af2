//! Query-path tracing and metrics — the observability layer (design
//! decision D9) behind `EXPLAIN ANALYZE`.
//!
//! Every query the executor runs can produce a [`QueryTrace`]: a tree
//! of [`QuerySpan`]s (parse → plan → cache probe → per-source fetch →
//! overlay → finish) timed on the **virtual clock**, so a trace is
//! deterministic and reproducible like every other latency in the
//! system. Traces are delivered to an [`Observer`] installed on the
//! executor; the provided [`MetricsRegistry`] observer folds them into
//! lock-free counters and fixed-bucket histograms (cache hits/misses,
//! rows fetched, batch sizes, per-source latency).
//!
//! **Null-observer fast path**: with no observer installed the
//! executor never constructs a span, clones a plan, or formats a
//! string — the only added work is one `Option` check per query, and
//! no virtual time is ever charged for tracing, so enabling the module
//! cannot change measured latencies (experiment E13 asserts this).
//!
//! [`AnalyzedResult`] is the `EXPLAIN ANALYZE` surface: the plan, the
//! trace, and the result of one traced execution, rendered with
//! estimate-vs-actual columns next to the plan's `est_cost`/`est_rows`
//! fields so cost-model calibration error is visible per plan node.

use crate::ast::Query;
use crate::exec::{ExecMetrics, QueryResult};
use crate::obs::QueryClass;
use crate::plan::PhysicalPlan;
use drugtree_sources::clock::VirtualInstant;
pub use drugtree_sources::telemetry::{Counter, FixedHistogram, HistogramSnapshot};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Query-path stage a [`QuerySpan`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The whole query (root span).
    Query,
    /// Text parsing (recorded by `DrugTree::analyze`).
    Parse,
    /// Optimization / plan construction.
    Plan,
    /// Semantic-cache probe.
    CacheProbe,
    /// A per-source fetch.
    Fetch,
    /// Local vectorized compute: columnar kernel evaluation over the
    /// activity mirror (no source round-trip at all).
    Compute,
    /// Client-side overlay work: widen, residual, similarity,
    /// substructure.
    Overlay,
    /// The finishing operator (collect / top-k / aggregate).
    Finish,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Query,
        Stage::Parse,
        Stage::Plan,
        Stage::CacheProbe,
        Stage::Fetch,
        Stage::Compute,
        Stage::Overlay,
        Stage::Finish,
    ];

    /// Stable label for rendering and metric keys.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Query => "query",
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::CacheProbe => "cache-probe",
            Stage::Fetch => "fetch",
            Stage::Compute => "compute",
            Stage::Overlay => "overlay",
            Stage::Finish => "finish",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Query => 0,
            Stage::Parse => 1,
            Stage::Plan => 2,
            Stage::CacheProbe => 3,
            Stage::Fetch => 4,
            Stage::Compute => 5,
            Stage::Overlay => 6,
            Stage::Finish => 7,
        }
    }
}

/// One timed step of a query, on the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpan {
    /// Which pipeline stage this span covers.
    pub stage: Stage,
    /// Stage-specific detail: the source name for fetch spans, `"hit"`/`"miss"` for cache probes, the query text for
    /// parse spans.
    pub detail: String,
    /// Virtual clock when the stage started.
    pub started: VirtualInstant,
    /// Virtual clock when the stage ended.
    pub ended: VirtualInstant,
    /// Virtual cost attributed to this stage. For fetches this is the
    /// cost charged to this query, which under concurrent dispatch can
    /// differ from `ended - started`.
    pub actual: Duration,
    /// Planner latency estimate for this stage, when one exists.
    pub est_cost: Option<Duration>,
    /// Planner cardinality estimate, when one exists.
    pub est_rows: Option<u64>,
    /// Rows this stage produced, when meaningful.
    pub rows: Option<u64>,
    /// Numeric attributes (`requests`, `keys`, `retries`, `rows_in`,
    /// `rows_out`, …).
    pub attrs: Vec<(&'static str, u64)>,
    /// Child spans (populated on the root span only).
    pub children: Vec<QuerySpan>,
}

impl QuerySpan {
    /// A zero-length span starting (and ending) at `at`.
    pub fn new(stage: Stage, detail: impl Into<String>, at: VirtualInstant) -> QuerySpan {
        QuerySpan {
            stage,
            detail: detail.into(),
            started: at,
            ended: at,
            actual: Duration::ZERO,
            est_cost: None,
            est_rows: None,
            rows: None,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Look up a numeric attribute by key.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// The completed span tree of one executed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The query, rendered in the text query language.
    pub query: String,
    /// Root span (`Stage::Query`) with one child per pipeline stage.
    pub root: QuerySpan,
    /// Virtual access cost charged to this query alone. The
    /// estimate-vs-actual comparison uses this, because `est_cost`
    /// prices exactly the access.
    pub access_cost: Duration,
    /// Rows shipped from sources.
    pub rows_fetched: u64,
    /// Cache outcome (`None` when the plan had no probe).
    pub cache_hit: Option<bool>,
    /// Workload class derived from the query AST (drives per-class
    /// SLO windows and the `drugtree top` breakdown).
    pub class: QueryClass,
    /// Stable fingerprint of the plan *shape* (predicate constants
    /// stripped), or 0 when planning was never reached. Equal shapes
    /// dedupe into one slow-query-log entry.
    pub fingerprint: u64,
}

impl QueryTrace {
    /// All fetch spans, in dispatch order.
    pub fn fetch_spans(&self) -> Vec<&QuerySpan> {
        self.root
            .children
            .iter()
            .filter(|s| s.stage == Stage::Fetch)
            .collect()
    }

    /// Total virtual cost attributed to a stage across the trace.
    pub fn stage_total(&self, stage: Stage) -> Duration {
        if stage == Stage::Query {
            return self.root.actual;
        }
        self.root
            .children
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.actual)
            .sum()
    }
}

/// Collects spans while the executor runs one traced query.
///
/// Constructed only on the traced path (`Executor::analyze`, or
/// `execute` with an observer installed); the null-observer fast path
/// never allocates one.
#[derive(Debug)]
pub struct TraceBuilder {
    query: String,
    class: QueryClass,
    want_plan: bool,
    plan: Option<PhysicalPlan>,
    fingerprint: u64,
    est_cost: Duration,
    est_rows: u64,
    spans: Vec<QuerySpan>,
}

impl TraceBuilder {
    /// A builder for one query. `want_plan` keeps a clone of the
    /// physical plan for `EXPLAIN ANALYZE` rendering and observers
    /// that asked for plans (skipped otherwise — the metrics-only
    /// path needs just the spans).
    pub fn new(query: &Query, want_plan: bool) -> TraceBuilder {
        TraceBuilder {
            query: query.to_string(),
            class: QueryClass::of(query),
            want_plan,
            plan: None,
            fingerprint: 0,
            est_cost: Duration::ZERO,
            est_rows: 0,
            spans: Vec::new(),
        }
    }

    /// Record the planning stage and the plan's estimates.
    pub fn record_plan(&mut self, plan: &PhysicalPlan, at: VirtualInstant) {
        self.est_cost = plan.estimated_cost;
        self.est_rows = plan.estimated_rows;
        self.fingerprint = crate::obs::plan_fingerprint(plan);
        let mut span = QuerySpan::new(Stage::Plan, "", at);
        span.est_cost = Some(plan.estimated_cost);
        span.est_rows = Some(plan.estimated_rows);
        span.attrs
            .push(("candidates", plan.candidates.len() as u64));
        // One child span per rewrite phase, summarizing its fixpoint
        // run (pass count and rules that changed the draft) so a trace
        // shows where planning effort went.
        for phase in crate::phases::PHASE_ORDER {
            let passes: Vec<_> = plan
                .rule_trace
                .iter()
                .filter(|p| p.phase == phase)
                .collect();
            if passes.is_empty() {
                continue;
            }
            let changed = passes
                .iter()
                .flat_map(|p| &p.firings)
                .filter(|f| f.outcome == crate::phases::RuleOutcome::Changed)
                .count() as u64;
            let mut child = QuerySpan::new(Stage::Plan, format!("phase {}", phase.label()), at);
            child.attrs.push(("passes", passes.len() as u64));
            child.attrs.push(("changed", changed));
            span.children.push(child);
        }
        self.spans.push(span);
        if self.want_plan {
            self.plan = Some(plan.clone());
        }
    }

    /// Append a completed span.
    pub fn push(&mut self, span: QuerySpan) {
        self.spans.push(span);
    }

    /// Close the trace against the query's final metrics.
    pub fn finish(self, metrics: &ExecMetrics) -> (QueryTrace, Option<PhysicalPlan>) {
        let mut root = QuerySpan::new(Stage::Query, "", metrics.started);
        root.ended = metrics.finished;
        root.actual = metrics.virtual_cost;
        root.est_cost = Some(self.est_cost);
        root.est_rows = Some(self.est_rows);
        root.children = self.spans;
        (
            QueryTrace {
                query: self.query,
                root,
                access_cost: metrics.charged_cost,
                rows_fetched: metrics.rows_fetched as u64,
                cache_hit: metrics.cache_hit,
                class: self.class,
                fingerprint: self.fingerprint,
            },
            self.plan,
        )
    }
}

/// Hook receiving completed traces and gesture breakdowns.
///
/// Contract: implementations must be cheap and must never block — the
/// executor calls [`Observer::on_query`] synchronously after every
/// query, from whichever session thread ran it, so an observer is
/// shared state under concurrent serving and must be `Send + Sync`.
/// Observers receive data only; they cannot alter execution, and
/// nothing they do is charged to the virtual clock.
///
/// All methods have empty default bodies, so an implementation opts
/// into exactly the signals it wants.
pub trait Observer: Send + Sync {
    /// Called after every executed query with its completed trace.
    fn on_query(&self, trace: &QueryTrace) {
        let _ = trace;
    }

    /// Whether this observer wants [`Observer::on_query_planned`]
    /// with the physical plan. Returning `true` makes the executor
    /// clone each query's plan into its trace, so leave the default
    /// `false` unless the plan is actually used (the slow-query log
    /// needs it for `EXPLAIN ANALYZE` renderings).
    fn wants_plan(&self) -> bool {
        false
    }

    /// Called instead of [`Observer::on_query`] when
    /// [`Observer::wants_plan`] returned `true` and a plan was
    /// captured. Defaults to forwarding to `on_query`.
    fn on_query_planned(&self, trace: &QueryTrace, plan: &PhysicalPlan) {
        let _ = plan;
        self.on_query(trace);
    }

    /// Called by interactive mobile sessions after each gesture with
    /// the network-vs-compute breakdown.
    fn on_gesture(&self, gesture: &GestureObservation) {
        let _ = gesture;
    }

    /// Called by the fleet scheduler at the end of a serving run,
    /// once per query class that saw traffic, with the scheduler's
    /// shed/hedge/deadline/outage rollup.
    fn on_serve_rollup(&self, counters: &crate::obs::ServeClassCounters) {
        let _ = counters;
    }
}

/// Per-gesture latency breakdown reported by mobile sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GestureObservation {
    /// Gesture kind label (`"pan"`, `"expand"`, …).
    pub gesture: &'static str,
    /// Result rows the gesture produced.
    pub rows: usize,
    /// Virtual time spent computing at the sources (zero for pure
    /// view changes).
    pub compute: Duration,
    /// Virtual time spent shipping the payload over the mobile link.
    pub network: Duration,
    /// Bytes shipped over the link.
    pub payload_bytes: usize,
    /// Cache outcome of the underlying query, when one ran.
    pub cache_hit: Option<bool>,
    /// Serving-fleet session id, when the session runs under a fleet
    /// scheduler (None for standalone sessions).
    pub session: Option<u32>,
    /// End-to-end latency charged to the user for this gesture:
    /// attributable compute cost plus the mobile-link transfer.
    pub charged: Duration,
    /// Virtual clock when the gesture completed (places the gesture
    /// in a rolling SLO window).
    pub at: VirtualInstant,
}

/// Per-source counters and latency distribution.
#[derive(Debug)]
pub struct PerSourceMetrics {
    /// Fetches dispatched against this source.
    pub fetches: Counter,
    /// Rows shipped by this source.
    pub rows: Counter,
    /// Per-fetch virtual latency distribution (nanoseconds).
    pub latency: FixedHistogram,
}

impl Default for PerSourceMetrics {
    fn default() -> Self {
        PerSourceMetrics {
            fetches: Counter::new(),
            rows: Counter::new(),
            latency: FixedHistogram::latency_buckets(),
        }
    }
}

/// Lock-free metrics aggregated from query traces and gesture
/// observations.
///
/// Counters and histograms are updated with relaxed atomics; the only
/// lock is a read-mostly map guarding per-source slots, taken for
/// writing once per *new* source name. Install with
/// [`DrugTreeBuilder::with_observer`] (the registry implements
/// [`Observer`] directly) and read any field at any time — snapshots
/// never stall serving threads.
///
/// [`DrugTreeBuilder::with_observer`]: ../../drugtree/builder/struct.DrugTreeBuilder.html#method.with_observer
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Queries observed.
    pub queries: Counter,
    /// Gestures observed.
    pub gestures: Counter,
    /// Semantic-cache hits.
    pub cache_hits: Counter,
    /// Semantic-cache misses.
    pub cache_misses: Counter,
    /// Rows shipped from sources.
    pub rows_fetched: Counter,
    /// Source round-trips issued.
    pub source_requests: Counter,
    /// Transient failures retried.
    pub retries: Counter,
    /// End-to-end virtual query latency (nanoseconds).
    pub query_latency: FixedHistogram,
    /// Keys per dispatched fetch.
    pub batch_sizes: FixedHistogram,
    /// Per-gesture compute (query) time (nanoseconds).
    pub gesture_compute: FixedHistogram,
    /// Per-gesture network (transfer) time (nanoseconds).
    pub gesture_network: FixedHistogram,
    stage_nanos: [Counter; Stage::ALL.len()],
    per_source: RwLock<BTreeMap<String, Arc<PerSourceMetrics>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            queries: Counter::new(),
            gestures: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            rows_fetched: Counter::new(),
            source_requests: Counter::new(),
            retries: Counter::new(),
            query_latency: FixedHistogram::latency_buckets(),
            batch_sizes: FixedHistogram::size_buckets(),
            gesture_compute: FixedHistogram::latency_buckets(),
            gesture_network: FixedHistogram::latency_buckets(),
            stage_nanos: std::array::from_fn(|_| Counter::new()),
            per_source: RwLock::new(BTreeMap::new()),
        }
    }

    /// The metrics slot for a source (created on first use).
    pub fn source(&self, name: &str) -> Arc<PerSourceMetrics> {
        if let Some(m) = self.per_source.read().get(name) {
            return Arc::clone(m);
        }
        Arc::clone(self.per_source.write().entry(name.to_string()).or_default())
    }

    /// Every observed source with its metrics, sorted by name.
    pub fn sources(&self) -> Vec<(String, Arc<PerSourceMetrics>)> {
        self.per_source
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Total virtual nanoseconds attributed to a stage.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage.index()].get()
    }

    /// Cache hit rate over observed queries that probed, or `None`
    /// when no query probed at all — "never probed" and "always
    /// missed" are different situations and must not both print 0.
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.cache_hits.get();
        let total = hits + self.cache_misses.get();
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    }

    /// Fold one trace into the registry (what [`Observer::on_query`]
    /// does when the registry is installed as the observer).
    pub fn record_trace(&self, trace: &QueryTrace) {
        self.queries.incr();
        self.query_latency.record_duration(trace.root.actual);
        self.rows_fetched.add(trace.rows_fetched);
        match trace.cache_hit {
            Some(true) => self.cache_hits.incr(),
            Some(false) => self.cache_misses.incr(),
            None => {}
        }
        self.stage_nanos[Stage::Query.index()].add(nanos(trace.root.actual));
        for span in &trace.root.children {
            self.stage_nanos[span.stage.index()].add(nanos(span.actual));
            if span.stage == Stage::Fetch {
                let rows = span.rows.unwrap_or(0);
                let slot = self.source(&span.detail);
                slot.fetches.incr();
                slot.rows.add(rows);
                slot.latency.record_duration(span.actual);
                self.source_requests.add(span.attr("requests").unwrap_or(0));
                self.retries.add(span.attr("retries").unwrap_or(0));
                if let Some(keys) = span.attr("keys") {
                    self.batch_sizes.record(keys);
                }
            }
        }
    }

    /// Fold one gesture observation into the registry.
    pub fn record_gesture(&self, gesture: &GestureObservation) {
        self.gestures.incr();
        self.gesture_compute.record_duration(gesture.compute);
        self.gesture_network.record_duration(gesture.network);
    }
}

impl Observer for MetricsRegistry {
    fn on_query(&self, trace: &QueryTrace) {
        self.record_trace(trace);
    }

    fn on_gesture(&self, gesture: &GestureObservation) {
        self.record_gesture(gesture);
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The result of `EXPLAIN ANALYZE`: one traced execution with its
/// plan, trace, and result.
#[derive(Debug, Clone)]
pub struct AnalyzedResult {
    /// The physical plan that ran.
    pub plan: PhysicalPlan,
    /// The completed span tree.
    pub trace: QueryTrace,
    /// The query's rows and metrics.
    pub result: QueryResult,
}

impl AnalyzedResult {
    /// Relative estimate error of the access: `|est - actual| /
    /// actual` against the cost charged to this query. `None` when no
    /// access cost was charged (cache hit, proved empty), where the
    /// miss-path estimate has no observed counterpart.
    pub fn access_error(&self) -> Option<f64> {
        access_error(&self.plan, &self.trace)
    }

    /// Multi-line `EXPLAIN ANALYZE` rendering: the plan's EXPLAIN text
    /// with `actual:` columns appended next to each estimated line,
    /// followed by the per-stage trace breakdown.
    ///
    /// The plain [`PhysicalPlan::explain`] rendering is embedded
    /// unchanged, so tooling that parses EXPLAIN keeps working.
    pub fn render(&self) -> String {
        render_analyzed(&self.plan, &self.trace)
    }
}

/// [`AnalyzedResult::access_error`] for a bare plan + trace pair.
fn access_error(plan: &PhysicalPlan, trace: &QueryTrace) -> Option<f64> {
    let actual = trace.access_cost.as_secs_f64();
    if actual <= 0.0 {
        return None;
    }
    Some((plan.estimated_cost.as_secs_f64() - actual).abs() / actual)
}

/// The `EXPLAIN ANALYZE` rendering for a plan + trace pair — the body
/// of [`AnalyzedResult::render`], exposed separately so the slow-query
/// log can render entries from an observed plan without a
/// [`QueryResult`] in hand.
pub fn render_analyzed(plan: &PhysicalPlan, trace: &QueryTrace) -> String {
    let mut fetch_spans: Vec<&QuerySpan> = trace.fetch_spans();
    let mut out = String::new();
    for line in plan.explain().lines() {
        out.push_str(line);
        let trimmed = line.trim_start();
        if trimmed.starts_with("Plan: ") {
            let _ = write!(
                out,
                " | actual: cost={:?} rows={}",
                trace.access_cost, trace.rows_fetched
            );
            match access_error(plan, trace) {
                Some(err) => {
                    let _ = write!(out, " err={err:.2}");
                }
                None => {
                    if trace.cache_hit == Some(true) {
                        out.push_str(" (cache hit)");
                    }
                }
            }
        } else if trimmed.starts_with("CacheProbe ") {
            match trace.cache_hit {
                Some(true) => out.push_str(" | actual: hit"),
                Some(false) => out.push_str(" | actual: miss"),
                None => {}
            }
        } else if let Some(source) = fetch_line_source(trimmed) {
            match take_span(&mut fetch_spans, source) {
                Some(span) => {
                    let _ = write!(
                        out,
                        " | actual: cost={:?} rows={} requests={}",
                        span.actual,
                        span.rows.unwrap_or(0),
                        span.attr("requests").unwrap_or(0),
                    );
                }
                None => out.push_str(" | actual: not executed"),
            }
        }
        out.push('\n');
    }
    out.push_str("  Trace:\n");
    render_span(&mut out, &trace.root, 2);
    out
}

/// The source name of an EXPLAIN `SourceFetch` line, if it is one.
fn fetch_line_source(trimmed: &str) -> Option<&str> {
    let rest = trimmed
        .strip_prefix("miss-> ")
        .unwrap_or(trimmed)
        .strip_prefix("SourceFetch source=")?;
    Some(rest.split_whitespace().next().unwrap_or(rest))
}

/// Pop the first pending fetch span for `source` (plans fetch each
/// source at most once, but dispatch order must still match).
fn take_span<'a>(spans: &mut Vec<&'a QuerySpan>, source: &str) -> Option<&'a QuerySpan> {
    let idx = spans.iter().position(|s| s.detail == source)?;
    Some(spans.remove(idx))
}

fn render_span(out: &mut String, span: &QuerySpan, depth: usize) {
    let _ = write!(
        out,
        "{:width$}{}",
        "",
        span.stage.label(),
        width = depth * 2
    );
    if !span.detail.is_empty() {
        let _ = write!(out, " {}", span.detail);
    }
    let _ = write!(out, ": actual={:?}", span.actual);
    if let Some(est) = span.est_cost {
        let _ = write!(out, " est={est:?}");
    }
    if let Some(rows) = span.rows {
        let _ = write!(out, " rows={rows}");
    }
    for (k, v) in &span.attrs {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    for child in &span.children {
        render_span(out, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_sources::clock::VirtualClock;

    fn span(stage: Stage, detail: &str, actual_ms: u64) -> QuerySpan {
        let clock = VirtualClock::new();
        let mut s = QuerySpan::new(stage, detail, clock.now());
        s.actual = Duration::from_millis(actual_ms);
        s
    }

    fn trace_with(children: Vec<QuerySpan>, cache_hit: Option<bool>) -> QueryTrace {
        let clock = VirtualClock::new();
        let mut root = QuerySpan::new(Stage::Query, "", clock.now());
        root.actual = children.iter().map(|s| s.actual).sum();
        root.children = children;
        QueryTrace {
            query: "activities in tree".into(),
            root,
            access_cost: Duration::from_millis(12),
            rows_fetched: 3,
            cache_hit,
            class: QueryClass::Listing,
            fingerprint: 0,
        }
    }

    #[test]
    fn stage_totals_sum_spans() {
        let mut fetch = span(Stage::Fetch, "assay-sim", 12);
        fetch.rows = Some(3);
        fetch.attrs.push(("requests", 2));
        fetch.attrs.push(("keys", 4));
        let t = trace_with(
            vec![span(Stage::Plan, "", 0), fetch, span(Stage::Overlay, "", 0)],
            Some(false),
        );
        assert_eq!(t.stage_total(Stage::Fetch), Duration::from_millis(12));
        assert_eq!(t.stage_total(Stage::Overlay), Duration::ZERO);
        assert_eq!(t.fetch_spans().len(), 1);
        assert_eq!(t.fetch_spans()[0].attr("keys"), Some(4));
        assert_eq!(t.fetch_spans()[0].attr("absent"), None);
    }

    #[test]
    fn registry_folds_traces_and_gestures() {
        let r = MetricsRegistry::new();
        let mut fetch = span(Stage::Fetch, "assay-sim", 12);
        fetch.rows = Some(3);
        fetch.attrs.push(("requests", 2));
        fetch.attrs.push(("keys", 4));
        r.record_trace(&trace_with(vec![fetch], Some(false)));
        r.record_trace(&trace_with(vec![], Some(true)));
        assert_eq!(r.queries.get(), 2);
        assert_eq!(r.cache_hits.get(), 1);
        assert_eq!(r.cache_misses.get(), 1);
        let rate = r.hit_rate().expect("two probes observed");
        assert!((rate - 0.5).abs() < 1e-9);
        assert_eq!(r.rows_fetched.get(), 6, "both traces report 3");
        assert_eq!(r.source_requests.get(), 2);
        assert_eq!(r.stage_nanos(Stage::Fetch), 12_000_000);
        let sources = r.sources();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].0, "assay-sim");
        assert_eq!(sources[0].1.rows.get(), 3);
        assert_eq!(r.batch_sizes.snapshot().count, 1);

        r.record_gesture(&GestureObservation {
            gesture: "expand",
            rows: 3,
            compute: Duration::from_millis(12),
            network: Duration::from_millis(40),
            payload_bytes: 300,
            cache_hit: Some(false),
            session: None,
            charged: Duration::from_millis(52),
            at: VirtualClock::new().now(),
        });
        assert_eq!(r.gestures.get(), 1);
        assert_eq!(r.gesture_network.snapshot().sum, 40_000_000);
    }

    #[test]
    fn fetch_line_sources_parse() {
        assert_eq!(
            fetch_line_source("miss-> SourceFetch source=assay-sim keys=2"),
            Some("assay-sim")
        );
        assert_eq!(fetch_line_source("SourceFetch source=a keys=1"), Some("a"));
        assert_eq!(fetch_line_source("Residual: true"), None);
    }
}
