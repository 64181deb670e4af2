//! The query executor.
//!
//! Interprets a [`PhysicalPlan`] against a [`Dataset`], charging all
//! simulated source latency to the session's virtual clock and
//! reporting per-query metrics (round-trips, rows shipped, cache
//! behaviour) — the quantities every experiment in EXPERIMENTS.md
//! reports.

use crate::adaptive::{AdaptiveRuntime, QueryFeedback};
use crate::ast::{Metric, Query};
use crate::cache::{CacheConfig, CacheStats, SemanticCache};
use crate::columnar::ActivityColumns;
use crate::cost::{CalibrationReport, CostModel};
use crate::dataset::{unified_schema, unify_assay_row, Dataset};
use crate::optimizer::Optimizer;
use crate::plan::{Access, FetchPlan, Finish, PhysicalPlan};
use crate::stats::OverlayStats;
use crate::trace::{AnalyzedResult, Observer, QuerySpan, Stage, TraceBuilder};
use crate::{QueryError, Result};
use drugtree_chem::similarity::tanimoto;
use drugtree_integrate::overlay::tables;
use drugtree_phylo::index::LeafInterval;
pub use drugtree_sources::batcher::RetryPolicy;
use drugtree_sources::batcher::{
    batched_lookup_with_retry, singleton_lookups_with_retry, Dispatch,
};
use drugtree_sources::clock::VirtualInstant;
use drugtree_sources::sync::Mutex;
use drugtree_store::bitmap::Bitmap;
use drugtree_store::expr::{BoundPredicate, Predicate};
use drugtree_store::kernel;
use drugtree_store::value::Value;
use rustc_hash::FxHashMap;
use std::sync::Arc;
use std::time::Duration;

/// Per-query execution metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Virtual time charged for this query.
    pub virtual_cost: Duration,
    /// Virtual clock when the query started.
    pub started: VirtualInstant,
    /// Virtual clock when the query finished.
    pub finished: VirtualInstant,
    /// Source round-trips issued.
    pub source_requests: usize,
    /// Activity rows shipped from sources.
    pub rows_fetched: usize,
    /// Fetched rows dropped because their accession is not on the tree.
    pub rows_unmapped: usize,
    /// Cache outcome: `None` when the plan had no cache probe.
    pub cache_hit: Option<bool>,
    /// Leaves pruned by statistics.
    pub pruned_leaves: usize,
    /// Transient source failures retried.
    pub retries: usize,
    /// Virtual fetch and compute cost attributable to this query
    /// alone. Under concurrent serving the shared clock (and thus
    /// `virtual_cost`) interleaves every session's work; this is the
    /// per-query number.
    pub charged_cost: Duration,
    /// Optimizer notes (rule applications).
    pub notes: Vec<String>,
}

/// Cost-model estimates for a query, obtained by planning alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEstimate {
    /// Estimated access latency (the miss path for cache probes).
    pub cost: Duration,
    /// Estimated rows shipped by the access.
    pub rows: u64,
}

/// A finished query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Execution metrics.
    pub metrics: ExecMetrics,
}

/// The executor: optimizer + semantic cache + statistics + mirror.
///
/// `Send + Sync` by construction: every mutable piece sits behind a
/// lock or an `Arc`, so M sessions can share one executor from real OS
/// threads. The `const` assertion below makes that a compile-time
/// guarantee a future field cannot silently break.
pub struct Executor {
    optimizer: Optimizer,
    cache: Mutex<SemanticCache>,
    stats: Option<OverlayStats>,
    /// The one local answer store, when built explicitly.
    mirror: Option<Arc<ActivityColumns>>,
    retry: RetryPolicy,
    /// Calibrated cost model: prices plan alternatives in cost-based
    /// mode and accumulates observed-vs-estimated fetch latencies.
    cost: Arc<CostModel>,
    /// Observability hook (design decision D9). `None` is the fast
    /// path: no span is built, no plan cloned, no string formatted.
    observer: Option<Arc<dyn Observer>>,
    /// The self-driving runtime (design decision D15). `None` is the
    /// fast path: no feedback is folded, planning stays nominal.
    adaptive: Option<Arc<AdaptiveRuntime>>,
}

// Compile-time proof that the executor (and the dataset it serves) can
// be shared across threads; a non-Sync field fails the build here.
const _: () = {
    const fn _assert<T: Send + Sync>() {}
    _assert::<Executor>();
    _assert::<Dataset>();
};

impl Executor {
    /// Build with an optimizer and default cache sizing.
    pub fn new(optimizer: Optimizer) -> Executor {
        Executor::with_cache_config(optimizer, CacheConfig::default())
    }

    /// Build with explicit cache sizing.
    pub fn with_cache_config(optimizer: Optimizer, cache: CacheConfig) -> Executor {
        Executor {
            optimizer,
            cache: Mutex::new(SemanticCache::new(cache)),
            stats: None,
            mirror: None,
            retry: RetryPolicy::default(),
            cost: Arc::new(CostModel::new()),
            observer: None,
            adaptive: None,
        }
    }

    /// Install the self-driving runtime (design decision D15): learned
    /// statistics start feeding selectivity estimates, the advisor may
    /// auto-build the mirror, and every executed query is folded back
    /// into the loops.
    pub fn enable_adaptive(&mut self, runtime: Arc<AdaptiveRuntime>) {
        self.adaptive = Some(runtime);
    }

    /// The adaptive runtime, when installed.
    pub fn adaptive(&self) -> Option<&Arc<AdaptiveRuntime>> {
        self.adaptive.as_ref()
    }

    /// Install an [`Observer`] receiving a [`crate::trace::QueryTrace`]
    /// after every executed query. Tracing work happens only while an
    /// observer is installed (or during [`Executor::analyze`]), and is
    /// never charged to the virtual clock, so installing one cannot
    /// change measured latencies.
    pub fn set_observer(&mut self, observer: Arc<dyn Observer>) {
        self.observer = Some(observer);
    }

    /// The installed observer, if any.
    pub fn observer(&self) -> Option<&Arc<dyn Observer>> {
        self.observer.as_ref()
    }

    /// The calibrated cost model (prior parameters until fetches have
    /// been observed).
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// Replace the cost model, e.g. to share one calibration state
    /// across executors.
    pub fn set_cost_model(&mut self, cost: Arc<CostModel>) {
        self.cost = cost;
    }

    /// Snapshot the calibration state: per-source fitted parameters
    /// plus the estimate-vs-actual error tracker.
    pub fn calibration(&self) -> CalibrationReport {
        self.cost.report()
    }

    /// Plan a query and return its cost/cardinality estimates without
    /// executing it (the mobile prefetch budgeter prices candidate
    /// subtrees this way).
    pub fn estimate(&self, dataset: &Dataset, query: &Query) -> Result<PlanEstimate> {
        let plan = self.plan_query(dataset, self.mirror().as_deref(), query)?;
        Ok(PlanEstimate {
            cost: plan.estimated_cost,
            rows: plan.estimated_rows,
        })
    }

    /// Replace the transient-failure retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Collect (or refresh) overlay statistics. Charges the collection
    /// scan to the dataset clock.
    pub fn collect_stats(&mut self, dataset: &Dataset) -> Result<()> {
        let stats = OverlayStats::collect(dataset)?;
        dataset.clock.advance(stats.collection_cost);
        self.stats = Some(stats);
        Ok(())
    }

    /// Alias of [`Executor::build_columnar`]. The benchmark harness
    /// under `perfbench/` calls this method by name, so it stays until
    /// that harness changes.
    pub fn build_matview(&mut self, dataset: &Dataset) -> Result<Duration> {
        self.build_columnar(dataset)
    }

    /// Build (or rebuild) the columnar activity mirror. Charges the
    /// build scan to the dataset clock. With a fresh mirror and the
    /// `columnar_scan` rule enabled, interval scopes execute as local
    /// vectorized kernel scans instead of source fetches.
    pub fn build_columnar(&mut self, dataset: &Dataset) -> Result<Duration> {
        let mirror = ActivityColumns::build(dataset)?;
        let cost = mirror.build_cost;
        dataset.clock.advance(cost);
        self.mirror = Some(Arc::new(mirror));
        Ok(cost)
    }

    /// The explicitly built columnar activity mirror, if any.
    pub fn columnar(&self) -> Option<&ActivityColumns> {
        self.mirror.as_deref()
    }

    /// Drop all cached results (call after a source refresh).
    pub fn invalidate(&self) {
        self.cache.lock().invalidate_all();
    }

    /// Drop cached results overlapping a leaf interval (a targeted
    /// refresh of one subtree's sources).
    pub fn invalidate_interval(&self, interval: LeafInterval) {
        self.cache.lock().invalidate_interval(interval);
    }

    /// Cumulative cache counters, read under the cache lock.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    /// Current statistics, if collected.
    pub fn stats(&self) -> Option<&OverlayStats> {
        self.stats.as_ref()
    }

    /// The planner in use.
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The mirror that answers local scans: the executor's own, else
    /// the adaptively-built one (an explicit build always wins, so
    /// enabling the adaptive layer cannot change a session that
    /// manages its own mirror). A query takes one snapshot and plans
    /// and executes against it.
    fn mirror(&self) -> Option<Arc<ActivityColumns>> {
        match &self.mirror {
            Some(m) => Some(Arc::clone(m)),
            None => self.adaptive.as_ref().and_then(|a| a.mirror()),
        }
    }

    /// Plan through the adaptive seam: learned statistics (when the
    /// runtime serves them) feed selectivity, and `mirror` is the
    /// query's mirror snapshot.
    fn plan_query(
        &self,
        dataset: &Dataset,
        mirror: Option<&ActivityColumns>,
        query: &Query,
    ) -> Result<PhysicalPlan> {
        let learned = self.adaptive.as_ref().and_then(|a| a.planning_stats());
        self.optimizer.plan_adaptive(
            dataset,
            self.stats.as_ref(),
            learned,
            dataset.clock.now().0,
            mirror,
            Some(&self.cost),
            query,
        )
    }

    /// EXPLAIN a query without executing it.
    pub fn explain(&self, dataset: &Dataset, query: &Query) -> Result<String> {
        let plan = self.plan_query(dataset, self.mirror().as_deref(), query)?;
        self.validate_plan(dataset, &plan)?;
        Ok(plan.explain())
    }

    /// Validate the plan's structural invariants when the config asks
    /// for it. The optimizer already validates under
    /// `cfg(debug_assertions)`; this unconditional check is what
    /// release builds (benches) toggle to measure the validator's cost.
    fn validate_plan(&self, dataset: &Dataset, plan: &PhysicalPlan) -> Result<()> {
        if self.optimizer.config().validate {
            crate::validate::PlanValidator::new(dataset)
                .validate(plan)
                .map_err(QueryError::Invariant)?;
        }
        Ok(())
    }

    /// Plan and execute a query.
    pub fn execute(&self, dataset: &Dataset, query: &Query) -> Result<QueryResult> {
        match &self.observer {
            // Null-observer fast path: no trace is built at all.
            None => self.execute_inner(dataset, query, None),
            Some(obs) => {
                let mut tb = TraceBuilder::new(query, obs.wants_plan());
                let result = self.execute_inner(dataset, query, Some(&mut tb))?;
                let (trace, plan) = tb.finish(&result.metrics);
                match plan {
                    Some(plan) => obs.on_query_planned(&trace, &plan),
                    None => obs.on_query(&trace),
                }
                Ok(result)
            }
        }
    }

    /// Execute with tracing and return plan, span tree, and result —
    /// the `EXPLAIN ANALYZE` entry point. Always traces, whether or
    /// not an observer is installed; an installed observer also
    /// receives the trace.
    pub fn analyze(&self, dataset: &Dataset, query: &Query) -> Result<AnalyzedResult> {
        let mut tb = TraceBuilder::new(query, true);
        let result = self.execute_inner(dataset, query, Some(&mut tb))?;
        let (trace, plan) = tb.finish(&result.metrics);
        let plan = plan.ok_or_else(|| QueryError::Plan("analyze produced no plan".into()))?;
        if let Some(obs) = &self.observer {
            obs.on_query_planned(&trace, &plan);
        }
        Ok(AnalyzedResult {
            plan,
            trace,
            result,
        })
    }

    fn execute_inner(
        &self,
        dataset: &Dataset,
        query: &Query,
        mut sink: Option<&mut TraceBuilder>,
    ) -> Result<QueryResult> {
        let mirror = self.mirror();
        let plan = self.plan_query(dataset, mirror.as_deref(), query)?;
        self.validate_plan(dataset, &plan)?;
        let local = matches!(plan.access, Access::ColumnarScan { .. });
        let served_by_adaptive = self.mirror.is_none() && local;
        let started = dataset.clock.now();
        if let Some(tb) = sink.as_deref_mut() {
            tb.record_plan(&plan, started);
        }

        let mut m = ExecMetrics {
            virtual_cost: Duration::ZERO,
            started,
            finished: started,
            source_requests: 0,
            rows_fetched: 0,
            rows_unmapped: 0,
            cache_hit: None,
            pruned_leaves: plan.pruned_leaves,
            retries: 0,
            charged_cost: Duration::ZERO,
            notes: plan.notes.clone(),
        };

        // A pure aggregate over the mirror needs no row
        // materialization: the aggregate kernels fold each child's
        // range straight from the column buffers.
        let pure_aggregate = matches!(plan.finish, Finish::AggregateChildren { .. })
            && plan.residual == Predicate::True
            && plan.similarity.is_none()
            && plan.substructure.is_none();
        let (columns, out_rows, rows_in) = match (&plan.access, mirror.as_deref()) {
            (Access::ColumnarScan { pushdown }, Some(cols)) if pure_aggregate => {
                self.columnar_aggregate(dataset, cols, &plan, pushdown.as_ref(), &mut m, sink)?
            }
            _ => self.row_path(dataset, mirror.as_deref(), &plan, &mut m, sink)?,
        };

        m.finished = dataset.clock.now();
        m.virtual_cost = m.finished.since(m.started);

        // Close the loop: fold this query's observed reality back into
        // the adaptive runtime (learned cardinalities, the advisor's
        // break-even ledger, the regret guardrail).
        if let Some(adaptive) = &self.adaptive {
            // A pure whole-clade aggregate the mirror did not serve:
            // the shape the advisor builds a mirror for.
            let matview_candidate = !local
                && pure_aggregate
                && plan.interval == dataset.index.interval(plan.scope_node);
            let feedback = QueryFeedback {
                pushed_local: plan.pushed_local.as_ref(),
                interval_rows: self
                    .stats
                    .as_ref()
                    .map_or(0, |s| s.interval_count(plan.interval)),
                observed_rows: rows_in,
                pruned_leaves: plan.pruned_leaves as u32,
                matview_candidate,
                served_by_adaptive,
                fingerprint: crate::obs::plan_fingerprint(&plan),
                charged: m.charged_cost,
                break_even_proxy: self
                    .stats
                    .as_ref()
                    .map_or(Duration::ZERO, |s| s.collection_cost),
            };
            adaptive.after_query(dataset, &feedback, || crate::obs::plan_shape(&plan))?;
        }

        Ok(QueryResult {
            columns,
            rows: out_rows,
            metrics: m,
        })
    }

    /// The row path: obtain activity rows from the plan's access, widen
    /// them, apply the residual and structural filters, and finish.
    /// Returns the result columns and rows plus the number of rows the
    /// access produced.
    fn row_path(
        &self,
        dataset: &Dataset,
        mirror: Option<&ActivityColumns>,
        plan: &PhysicalPlan,
        m: &mut ExecMetrics,
        mut sink: Option<&mut TraceBuilder>,
    ) -> Result<(Vec<String>, Vec<Vec<Value>>, u64)> {
        // 1. Obtain activity-half rows.
        let activity_rows: Vec<Vec<Value>> = match &plan.access {
            Access::ProvedEmpty => Vec::new(),
            Access::ColumnarScan { pushdown } => {
                // Only planned against a mirror snapshot.
                let cols = mirror.ok_or_else(|| {
                    QueryError::Plan("columnar plan without a built mirror".into())
                })?;
                let (_, selection) = self.columnar_select(
                    dataset,
                    cols,
                    plan,
                    pushdown.as_ref(),
                    m,
                    sink.as_deref_mut(),
                    "columnar-scan",
                )?;
                selection
                    .iter_ones()
                    .map(|i| cols.table().get_row(i))
                    .collect()
            }
            Access::Fetch {
                fetches,
                concurrent_sources,
            } => self.run_fetches(
                dataset,
                fetches,
                *concurrent_sources,
                m,
                sink.as_deref_mut(),
            )?,
            Access::CacheProbe {
                pushdown,
                on_miss,
                insert_on_miss,
                concurrent_sources,
            } => {
                let probe = self.cache.lock().probe(plan.interval, pushdown.as_ref());
                match probe {
                    Some(hit) => {
                        m.cache_hit = Some(true);
                        if let Some(tb) = sink.as_deref_mut() {
                            let mut span =
                                QuerySpan::new(Stage::CacheProbe, "hit", dataset.clock.now());
                            span.rows = Some(hit.rows.len() as u64);
                            tb.push(span);
                        }
                        hit.rows
                    }
                    None => {
                        m.cache_hit = Some(false);
                        if let Some(tb) = sink.as_deref_mut() {
                            tb.push(QuerySpan::new(
                                Stage::CacheProbe,
                                "miss",
                                dataset.clock.now(),
                            ));
                        }
                        let rows = self.run_fetches(
                            dataset,
                            on_miss,
                            *concurrent_sources,
                            m,
                            sink.as_deref_mut(),
                        )?;
                        if *insert_on_miss {
                            self.cache
                                .lock()
                                .insert(plan.interval, pushdown.clone(), rows.clone());
                        }
                        rows
                    }
                }
            }
        };

        // 2. Widen to unified rows (ligand join when required).
        let overlay_started = dataset.clock.now();
        let rows_in = activity_rows.len() as u64;
        let mut rows = self.widen_rows(dataset, activity_rows, plan.ligand_join)?;

        // 3. Residual filter.
        if plan.residual != Predicate::True {
            let bound = plan.residual.bind(&unified_schema())?;
            rows.retain(|r| bound.matches(r));
        }

        // 4. Similarity filter.
        if let Some(sim) = &plan.similarity {
            rows.retain(|r| {
                r[2].as_text()
                    .and_then(|lig| dataset.overlay.fingerprint(lig))
                    .is_some_and(|fp| tanimoto(fp, &sim.fingerprint) >= sim.min_tanimoto)
            });
        }

        // 5. Substructure filter: fingerprint prescreen, then exact
        // subgraph match, memoized per distinct ligand.
        if let Some(sub) = &plan.substructure {
            let mut verdicts: FxHashMap<String, bool> = FxHashMap::default();
            rows.retain(|r| {
                let Some(lig) = r[2].as_text() else {
                    return false;
                };
                *verdicts.entry(lig.to_string()).or_insert_with(|| {
                    let Some(fp) = dataset.overlay.fingerprint(lig) else {
                        return false;
                    };
                    if !drugtree_chem::substructure::fingerprint_prescreen(&sub.pattern_fp, fp) {
                        return false;
                    }
                    dataset.overlay.molecule(lig).is_some_and(|m| {
                        drugtree_chem::substructure::is_substructure(&sub.pattern, m)
                    })
                })
            });
        }

        if let Some(tb) = sink.as_deref_mut() {
            let mut span = QuerySpan::new(Stage::Overlay, "", overlay_started);
            span.ended = dataset.clock.now();
            span.attrs.push(("rows_in", rows_in));
            span.attrs.push(("rows_out", rows.len() as u64));
            tb.push(span);
        }

        // 6. Finish.
        let finish_started = dataset.clock.now();
        let finish_label = match &plan.finish {
            Finish::Collect => "collect",
            Finish::TopK { .. } => "top-k",
            Finish::AggregateChildren { .. } => "aggregate",
            Finish::CountPerLeaf => "count-per-leaf",
        };
        let (columns, out_rows) = self.finish(dataset, plan, rows)?;
        if let Some(tb) = sink {
            let mut span = QuerySpan::new(Stage::Finish, finish_label, finish_started);
            span.ended = dataset.clock.now();
            span.rows = Some(out_rows.len() as u64);
            tb.push(span);
        }
        Ok((columns, out_rows, rows_in))
    }

    /// Run the interval range-slice plus filter kernels over the
    /// mirror: binary-search the plan interval to a contiguous row
    /// range, evaluate the pushdown as bitmap kernels over it, charge
    /// the modeled compute cost, and emit a [`Stage::Compute`] span.
    #[allow(clippy::too_many_arguments)]
    fn columnar_select(
        &self,
        dataset: &Dataset,
        cols: &ActivityColumns,
        plan: &PhysicalPlan,
        pushdown: Option<&Predicate>,
        m: &mut ExecMetrics,
        sink: Option<&mut TraceBuilder>,
        detail: &str,
    ) -> Result<(usize, Bitmap)> {
        let started = dataset.clock.now();
        let range = cols.rows_in(plan.interval)?;
        let scanned = range.len();
        let selection = match pushdown {
            Some(p) => cols
                .table()
                .eval(&p.bind(cols.table().schema())?, range.clone()),
            None => cols.table().eval(&BoundPredicate::True, range.clone()),
        };
        let cost = crate::cost::columnar_scan_cost(scanned as u64);
        dataset.clock.advance(cost);
        m.charged_cost += cost;
        if let Some(tb) = sink {
            let mut span = QuerySpan::new(Stage::Compute, detail, started);
            span.ended = dataset.clock.now();
            span.actual = cost;
            span.rows = Some(selection.count_ones() as u64);
            span.attrs = vec![
                ("rows_scanned", scanned as u64),
                ("rows_selected", selection.count_ones() as u64),
            ];
            tb.push(span);
        }
        Ok((scanned, selection))
    }

    /// Aggregate-kernel path: fold each child interval's selected range
    /// with the count/distinct/sum/max kernels, byte-identical to
    /// materializing the rows and running the generic finish. Returns
    /// the result columns and rows plus the number of rows selected.
    fn columnar_aggregate(
        &self,
        dataset: &Dataset,
        cols: &ActivityColumns,
        plan: &PhysicalPlan,
        pushdown: Option<&Predicate>,
        m: &mut ExecMetrics,
        mut sink: Option<&mut TraceBuilder>,
    ) -> Result<(Vec<String>, Vec<Vec<Value>>, u64)> {
        let Finish::AggregateChildren { children, metric } = &plan.finish else {
            return Err(QueryError::Plan(
                "aggregate kernels need an aggregate finish".into(),
            ));
        };
        let (_, selection) = self.columnar_select(
            dataset,
            cols,
            plan,
            pushdown,
            m,
            sink.as_deref_mut(),
            "columnar-aggregate",
        )?;
        let finish_started = dataset.clock.now();
        // ligand_id and p_activity are columns 2 and 5 of the
        // activity-half schema.
        let ligand_col = cols.table().column(2);
        let p_col = cols.table().column(5);
        let mut out_rows = Vec::with_capacity(children.len());
        for (_, label, iv) in children {
            let r = cols.rows_in(*iv)?;
            let mut mask = Bitmap::new(cols.len());
            mask.set_range(r.start, r.end);
            mask.and_assign(&selection);
            let value = match metric {
                Metric::Count => Value::Int(kernel::count(&mask) as i64),
                Metric::DistinctLigands => {
                    Value::Int(kernel::count_distinct(ligand_col, &mask) as i64)
                }
                Metric::MaxPActivity => kernel::max_value(p_col, &mask).unwrap_or(Value::Null),
                Metric::MeanPActivity => {
                    let n = kernel::count(&mask);
                    if n == 0 {
                        Value::Null
                    } else {
                        Value::Float(kernel::sum_f64(p_col, &mask) / n as f64)
                    }
                }
            };
            out_rows.push(vec![
                Value::from(label.clone()),
                Value::from(iv.lo),
                Value::from(iv.hi),
                value,
            ]);
        }
        if let Some(tb) = sink {
            let mut span = QuerySpan::new(Stage::Finish, "aggregate", finish_started);
            span.ended = dataset.clock.now();
            span.rows = Some(out_rows.len() as u64);
            tb.push(span);
        }
        Ok((
            aggregate_columns(*metric),
            out_rows,
            selection.count_ones() as u64,
        ))
    }

    fn run_fetches(
        &self,
        dataset: &Dataset,
        fetches: &[FetchPlan],
        concurrent_sources: bool,
        m: &mut ExecMetrics,
        mut sink: Option<&mut TraceBuilder>,
    ) -> Result<Vec<Vec<Value>>> {
        let mut per_source_rows: Vec<Vec<Vec<Value>>> = Vec::with_capacity(fetches.len());
        let mut per_source_cost = Vec::with_capacity(fetches.len());
        for f in fetches {
            let fetch_started = dataset.clock.now();
            let source = dataset.registry.by_name(&f.source)?;
            let dispatch = if f.concurrent {
                Dispatch::Concurrent
            } else {
                Dispatch::Sequential
            };
            let resp = if f.batched {
                batched_lookup_with_retry(
                    source.as_ref(),
                    &f.keys,
                    f.pushdown.as_ref(),
                    dispatch,
                    self.retry,
                )?
            } else {
                singleton_lookups_with_retry(
                    source.as_ref(),
                    &f.keys,
                    f.pushdown.as_ref(),
                    self.retry,
                )?
            };
            m.retries += resp.retries as usize;
            m.source_requests += resp.requests;
            m.rows_fetched += resp.rows.len();
            if let Some(tb) = sink.as_deref_mut() {
                let mut span = QuerySpan::new(Stage::Fetch, f.source.clone(), fetch_started);
                span.actual = resp.cost;
                span.est_cost = Some(f.est_cost);
                span.est_rows = Some(f.est_rows);
                span.rows = Some(resp.rows.len() as u64);
                span.attrs = vec![
                    ("requests", resp.requests as u64),
                    ("keys", f.keys.len() as u64),
                    ("retries", u64::from(resp.retries)),
                ];
                tb.push(span);
            }
            // Calibration feedback: record the observed virtual latency
            // of this fetch against the planner's estimate.
            if self.optimizer.config().cost_based {
                let effective_requests = if f.concurrent {
                    1
                } else {
                    resp.requests as u64
                };
                self.cost.observe(
                    &f.source,
                    effective_requests,
                    resp.rows.len() as u64,
                    resp.cost,
                    f.est_cost,
                );
            }
            let mut unified = Vec::with_capacity(resp.rows.len());
            for raw in &resp.rows {
                match unify_assay_row(dataset, raw) {
                    Some(row) => unified.push(row),
                    None => m.rows_unmapped += 1,
                }
            }
            per_source_rows.push(unified);
            per_source_cost.push(resp.cost);
        }

        let total_cost = if concurrent_sources {
            per_source_cost.into_iter().max().unwrap_or(Duration::ZERO)
        } else {
            per_source_cost.into_iter().sum()
        };
        dataset.clock.advance(total_cost);
        m.charged_cost += total_cost;

        // Cross-source conflict resolution: identical (rank, ligand,
        // type) measurements keep the most recent year.
        let mut rows: Vec<Vec<Value>> = per_source_rows.into_iter().flatten().collect();
        if fetches.len() > 1 {
            rows = dedupe_most_recent(rows);
        }
        rows.sort_by_key(|r| r[0].as_int().unwrap_or(i64::MAX));
        Ok(rows)
    }

    /// Pad activity rows to the unified 14-column layout, joining the
    /// local ligand table when required.
    fn widen_rows(
        &self,
        dataset: &Dataset,
        activity_rows: Vec<Vec<Value>>,
        join: bool,
    ) -> Result<Vec<Vec<Value>>> {
        let ligand_cols = crate::ast::columns::LIGAND.len();
        if !join {
            return Ok(activity_rows
                .into_iter()
                .map(|mut r| {
                    r.extend(std::iter::repeat_with(|| Value::Null).take(ligand_cols));
                    r
                })
                .collect());
        }
        let ligands = dataset.overlay.catalog().table(tables::LIGAND)?;
        // ligand table columns: ligand_id, name, smiles, mw, hbd, hba, rings.
        let mut cache: FxHashMap<String, Option<Vec<Value>>> = FxHashMap::default();
        let mut out = Vec::with_capacity(activity_rows.len());
        for mut row in activity_rows {
            let ligand_id = row[2]
                .as_text()
                .ok_or_else(|| QueryError::Plan("non-text ligand_id".into()))?
                .to_string();
            let entry = cache.entry(ligand_id.clone()).or_insert_with(|| {
                ligands
                    .lookup_eq("ligand_id", &Value::from(ligand_id.clone()))
                    .ok()
                    .and_then(|ids| ids.first().copied())
                    .and_then(|id| ligands.get(id).ok())
                    .map(|r| r[1..].to_vec())
            });
            match entry {
                Some(cols) => row.extend(cols.iter().cloned()),
                None => row.extend(std::iter::repeat_with(|| Value::Null).take(ligand_cols)),
            }
            out.push(row);
        }
        Ok(out)
    }

    fn finish(
        &self,
        dataset: &Dataset,
        plan: &PhysicalPlan,
        mut rows: Vec<Vec<Value>>,
    ) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
        let unified_columns: Vec<String> = unified_schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        Ok(match &plan.finish {
            Finish::Collect => (unified_columns, rows),
            Finish::TopK {
                column,
                k,
                descending,
            } => {
                rows.sort_by(|a, b| {
                    let ord = a[*column].cmp(&b[*column]);
                    if *descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                rows.truncate(*k);
                (unified_columns, rows)
            }
            Finish::AggregateChildren { children, metric } => {
                let out = children
                    .iter()
                    .map(|(_, label, iv)| {
                        let group: Vec<&Vec<Value>> = rows
                            .iter()
                            .filter(|r| {
                                r[0].as_int()
                                    .is_some_and(|rank| iv.contains_rank(rank as u32))
                            })
                            .collect();
                        vec![
                            Value::from(label.clone()),
                            Value::from(iv.lo),
                            Value::from(iv.hi),
                            aggregate_group(&group, *metric),
                        ]
                    })
                    .collect();
                (aggregate_columns(*metric), out)
            }
            Finish::CountPerLeaf => {
                let columns = vec![
                    "leaf_rank".to_string(),
                    "accession".to_string(),
                    "count".to_string(),
                ];
                let mut counts: FxHashMap<u32, i64> = FxHashMap::default();
                for r in &rows {
                    if let Some(rank) = r[0].as_int() {
                        *counts.entry(rank as u32).or_default() += 1;
                    }
                }
                let out = (plan.interval.lo..plan.interval.hi)
                    .map(|rank| {
                        vec![
                            Value::from(rank),
                            dataset
                                .accession_of_rank(rank)
                                .map_or(Value::Null, Value::from),
                            Value::Int(counts.get(&rank).copied().unwrap_or(0)),
                        ]
                    })
                    .collect();
                (columns, out)
            }
        })
    }
}

/// Keep the most recent measurement per (rank, ligand, type). Shared
/// with the columnar mirror build so both row paths resolve
/// cross-source conflicts identically.
pub(crate) fn dedupe_most_recent(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut best: FxHashMap<(i64, String, String), Vec<Value>> = FxHashMap::default();
    for row in rows {
        let key = (
            row[0].as_int().unwrap_or(-1),
            row[2].as_text().unwrap_or_default().to_string(),
            row[3].as_text().unwrap_or_default().to_string(),
        );
        match best.get(&key) {
            Some(existing) if existing[7].as_int().unwrap_or(0) >= row[7].as_int().unwrap_or(0) => {
            }
            _ => {
                best.insert(key, row);
            }
        }
    }
    best.into_values().collect()
}

/// Result columns of a per-child aggregate.
fn aggregate_columns(metric: Metric) -> Vec<String> {
    vec![
        "clade".to_string(),
        "leaf_lo".to_string(),
        "leaf_hi".to_string(),
        metric.label().to_string(),
    ]
}

fn aggregate_group(group: &[&Vec<Value>], metric: Metric) -> Value {
    match metric {
        Metric::Count => Value::Int(group.len() as i64),
        Metric::DistinctLigands => {
            let distinct: std::collections::HashSet<&str> =
                group.iter().filter_map(|r| r[2].as_text()).collect();
            Value::Int(distinct.len() as i64)
        }
        Metric::MaxPActivity => group
            .iter()
            .filter_map(|r| r[5].as_f64())
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.max(p)))
            })
            .map_or(Value::Null, Value::Float),
        Metric::MeanPActivity => {
            let ps: Vec<f64> = group.iter().filter_map(|r| r[5].as_f64()).collect();
            if ps.is_empty() {
                Value::Null
            } else {
                Value::Float(ps.iter().sum::<f64>() / ps.len() as f64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Query, Scope};
    use crate::dataset::test_fixtures::small_dataset;
    use crate::optimizer::OptimizerConfig;
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::expr::CompareOp;

    fn executor(config: OptimizerConfig) -> Executor {
        Executor::new(Optimizer::new(config))
    }

    fn full_executor_with_stats(dataset: &Dataset) -> Executor {
        let mut e = executor(OptimizerConfig::full());
        e.collect_stats(dataset).unwrap();
        e
    }

    #[test]
    fn naive_and_optimized_agree_on_results() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let full = full_executor_with_stats(&d);
        for query in [
            Query::activities(Scope::Tree),
            Query::activities(Scope::Subtree("cladeA".into())),
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5)),
            Query::activities(Scope::Tree).filter(Predicate::cmp("mw", CompareOp::Lt, 100.0)),
            Query::activities(Scope::Tree).top_k("p_activity", 2, true),
        ] {
            let a = naive.execute(&d, &query).unwrap();
            let b = full.execute(&d, &query).unwrap();
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.rows, b.rows, "query {query:?}");
        }
    }

    #[test]
    fn optimized_costs_less_virtual_time() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let full = full_executor_with_stats(&d);
        let q = Query::activities(Scope::Tree);
        let a = naive.execute(&d, &q).unwrap();
        let b = full.execute(&d, &q).unwrap();
        assert!(
            b.metrics.virtual_cost < a.metrics.virtual_cost,
            "optimized {:?} vs naive {:?}",
            b.metrics.virtual_cost,
            a.metrics.virtual_cost
        );
        assert!(b.metrics.source_requests < a.metrics.source_requests);
    }

    #[test]
    fn activities_rows_are_joined_and_ordered() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::naive());
        let r = e.execute(&d, &Query::activities(Scope::Tree)).unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.columns.len(), 14);
        // Rank-ordered.
        let ranks: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
        let mut sorted = ranks.clone();
        sorted.sort();
        assert_eq!(ranks, sorted);
        // Ligand join filled mw for aspirin rows.
        let aspirin_row = r.rows.iter().find(|x| x[2] == Value::from("L1")).unwrap();
        assert!(aspirin_row[10].as_f64().unwrap() > 100.0);
    }

    #[test]
    fn cache_hit_on_drilldown() {
        let d = small_dataset(SourceCapabilities::full());
        let e = full_executor_with_stats(&d);
        let parent = Query::activities(Scope::Tree);
        let child = Query::activities(Scope::Subtree("cladeA".into()));

        let r1 = e.execute(&d, &parent).unwrap();
        assert_eq!(r1.metrics.cache_hit, Some(false));
        assert!(r1.metrics.source_requests > 0);

        let r2 = e.execute(&d, &child).unwrap();
        assert_eq!(r2.metrics.cache_hit, Some(true));
        assert_eq!(r2.metrics.source_requests, 0, "drill-down hits the cache");
        assert_eq!(r2.metrics.virtual_cost, Duration::ZERO);
        assert_eq!(r2.rows.len(), 3);

        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn invalidation_forces_refetch() {
        let d = small_dataset(SourceCapabilities::full());
        let e = full_executor_with_stats(&d);
        let q = Query::activities(Scope::Tree);
        e.execute(&d, &q).unwrap();
        e.invalidate();
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.metrics.cache_hit, Some(false));
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        let q = Query::activities(Scope::Tree).top_k("p_activity", 2, true);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 2);
        // Best potency first: P3-L3 at 1 nM (p=9), then P1-L1 at 10 nM (p=8).
        assert_eq!(r.rows[0][2], Value::from("L3"));
        assert_eq!(r.rows[1][2], Value::from("L1"));
        // Ascending flips it.
        let q = Query::activities(Scope::Tree).top_k("p_activity", 1, false);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows[0][2], Value::from("L2"), "weakest first ascending");
    }

    #[test]
    fn aggregate_children() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::naive());
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.columns, vec!["clade", "leaf_lo", "leaf_hi", "count"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::from("cladeA"));
        assert_eq!(r.rows[0][3], Value::Int(3));
        assert_eq!(r.rows[1][3], Value::Int(1));
    }

    #[test]
    fn aggregate_served_by_columnar_mirror() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let mut e = executor(OptimizerConfig::full());
        e.build_columnar(&d).unwrap();
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.metrics.source_requests, 0, "mirror answers without fetch");
        assert_eq!(r.rows[0][3], Value::Int(3));
        assert_eq!(r.rows[1][3], Value::Int(1));
        assert!(r.metrics.notes.iter().any(|n| n.contains("columnar-scan")));
        // Every metric matches naive, including cladeB's empty child
        // P4 (count 0, NULL potency).
        for scope in [Scope::Tree, Scope::Subtree("cladeB".into())] {
            for metric in [
                Metric::Count,
                Metric::DistinctLigands,
                Metric::MeanPActivity,
                Metric::MaxPActivity,
            ] {
                let q = Query::activities(scope.clone()).aggregate(metric);
                let r = e.execute(&d, &q).unwrap();
                assert_eq!(r.metrics.source_requests, 0, "{scope:?} {metric:?}");
                assert_eq!(naive.execute(&d, &q).unwrap().rows, r.rows);
            }
        }
        let q = Query::activities(Scope::Subtree("cladeB".into())).aggregate(Metric::MaxPActivity);
        let r = e.execute(&d, &q).unwrap();
        let p4 = r
            .rows
            .iter()
            .find(|row| row[0] == Value::from("P4"))
            .unwrap();
        assert_eq!(p4[3], Value::Null);
        // The plan prices the scan at the kernel charge the executor
        // makes for it.
        e.collect_stats(&d).unwrap();
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let analyzed = e.analyze(&d, &q).unwrap();
        assert!(analyzed.plan.estimated_cost > Duration::ZERO);
        assert_eq!(analyzed.access_error(), Some(0.0));
    }

    #[test]
    fn interval_scope_served_by_columnar_mirror() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        let mut e = executor(OptimizerConfig::full());
        e.build_columnar(&d).unwrap();
        for query in [
            Query::activities(Scope::Tree),
            Query::activities(Scope::Subtree("cladeA".into())),
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5)),
            Query::activities(Scope::Tree).top_k("p_activity", 2, true),
        ] {
            let a = naive.execute(&d, &query).unwrap();
            let b = e.execute(&d, &query).unwrap();
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.rows, b.rows, "query {query:?}");
            assert_eq!(b.metrics.source_requests, 0, "mirror answers locally");
            assert!(b.metrics.notes.iter().any(|n| n.contains("columnar")));
        }
    }

    #[test]
    fn aggregates_served_by_columnar_kernels() {
        let d = small_dataset(SourceCapabilities::full());
        let naive = executor(OptimizerConfig::naive());
        // Cost-based planning prices the scan against the fetch
        // alternatives, picks it, and folds with the same kernels.
        let mut e = executor(OptimizerConfig::cost_based());
        e.build_columnar(&d).unwrap();
        for metric in [
            Metric::Count,
            Metric::DistinctLigands,
            Metric::MeanPActivity,
            Metric::MaxPActivity,
        ] {
            let q = Query::activities(Scope::Tree).aggregate(metric);
            let a = naive.execute(&d, &q).unwrap();
            let b = e.execute(&d, &q).unwrap();
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.rows, b.rows, "metric {metric:?}");
            assert_eq!(b.metrics.source_requests, 0);
            assert!(b.metrics.notes.iter().any(|n| n.contains("columnar-scan")));
        }
    }

    #[test]
    fn columnar_trace_carries_compute_span() {
        let d = small_dataset(SourceCapabilities::full());
        let mut e = executor(OptimizerConfig::full());
        e.build_columnar(&d).unwrap();
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5));
        let analyzed = e.analyze(&d, &q).unwrap();
        assert!(
            analyzed.trace.stage_total(crate::trace::Stage::Compute) > Duration::ZERO,
            "columnar execution must attribute cost to the compute stage"
        );
        assert_eq!(
            analyzed.trace.stage_total(crate::trace::Stage::Fetch),
            Duration::ZERO
        );
    }

    #[test]
    fn count_per_leaf() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        let q = Query {
            scope: Scope::Tree,
            predicate: Predicate::True,
            similarity: None,
            substructure: None,
            kind: crate::ast::QueryKind::CountPerLeaf,
        };
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 4);
        let counts: Vec<i64> = r.rows.iter().map(|x| x[2].as_int().unwrap()).collect();
        assert_eq!(counts, vec![2, 1, 1, 0]);
    }

    #[test]
    fn similarity_filters_rows() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        // Exactly ethanol: only the P1-L2 record survives.
        let q = Query::activities(Scope::Tree).similar_to("CCO", 0.999);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][2], Value::from("L2"));
        // Threshold zero keeps everything with a fingerprint.
        let q = Query::activities(Scope::Tree).similar_to("CCO", 0.0);
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn proved_empty_returns_no_rows_and_no_cost() {
        let d = small_dataset(SourceCapabilities::full());
        let e = full_executor_with_stats(&d);
        let before = d.clock.now();
        let q = Query::activities(Scope::Subtree("P4".into()));
        let r = e.execute(&d, &q).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.metrics.source_requests, 0);
        assert_eq!(d.clock.now(), before);
    }

    #[test]
    fn explain_without_execution() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        let text = e.explain(&d, &Query::activities(Scope::Tree)).unwrap();
        assert!(text.contains("CacheProbe"));
        assert!(
            e.cache_stats().misses == 0,
            "explain must not touch the cache"
        );
    }

    #[test]
    fn pushdown_of_derived_column_executes_on_cold_cache() {
        // Regression: p_activity does not exist in the remote assay
        // schema; the optimizer must ship a value_nm translation. A
        // fresh executor guarantees the fetch path actually runs
        // (earlier this bug was masked by cache hits).
        let d = small_dataset(SourceCapabilities::full());
        let mut e = executor(OptimizerConfig::full());
        e.collect_stats(&d).unwrap();
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 6.5));
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.metrics.cache_hit, Some(false), "must hit the sources");
        // P1-L1 (p=8), P2-L1 (p=7), P3-L3 (p=9) qualify; P1-L2 (p≈5.7) not.
        assert_eq!(r.rows.len(), 3);
        // The pushdown actually reduced shipped rows below the total.
        assert!(r.metrics.rows_fetched <= 3);
    }

    #[test]
    fn pushdown_boundary_rows_survive() {
        // A measurement exactly at the translated boundary must not be
        // lost to float error: p_activity >= 6 vs the 1000 nM record.
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.0));
        let r = e.execute(&d, &q).unwrap();
        // P1-L1 at exactly 10 nM (p = 8.0) must be included.
        assert!(r
            .rows
            .iter()
            .any(|row| row[2] == Value::from("L1") && row[4] == Value::Float(10.0)));
    }

    #[test]
    fn substructure_filters_by_scaffold() {
        let d = small_dataset(SourceCapabilities::full());
        let e = executor(OptimizerConfig::full());
        // Phenyl ring: only aspirin (L1) contains it.
        let q = Query::activities(Scope::Tree).containing("c1ccccc1");
        let r = e.execute(&d, &q).unwrap();
        assert_eq!(r.rows.len(), 2, "both L1 records survive");
        assert!(r.rows.iter().all(|row| row[2] == Value::from("L1")));
        // Using a ligand id as the pattern: structures containing
        // ethanol's C-C-O chain.
        let q = Query::activities(Scope::Tree).containing("L2");
        let r = e.execute(&d, &q).unwrap();
        assert!(r.rows.iter().any(|row| row[2] == Value::from("L2")));
        // A scaffold nobody has: empty result.
        let q = Query::activities(Scope::Tree).containing("C#N");
        assert!(e.execute(&d, &q).unwrap().rows.is_empty());
        // Invalid pattern: clean error.
        let q = Query::activities(Scope::Tree).containing("((((");
        assert!(matches!(
            e.execute(&d, &q),
            Err(crate::QueryError::BadSubstructurePattern(_))
        ));
    }

    #[test]
    fn substructure_explain_and_agreement_with_naive() {
        let d = small_dataset(SourceCapabilities::full());
        let full = executor(OptimizerConfig::full());
        let naive = executor(OptimizerConfig::naive());
        let q = Query::activities(Scope::Tree).containing("c1ccccc1");
        assert_eq!(
            naive.execute(&d, &q).unwrap().rows,
            full.execute(&d, &q).unwrap().rows
        );
        let text = full.explain(&d, &q).unwrap();
        assert!(text.contains("Substructure"), "{text}");
    }

    #[test]
    fn dedupe_keeps_most_recent() {
        let mk = |year: i64| {
            vec![
                Value::Int(0),
                Value::from("P1"),
                Value::from("L1"),
                Value::from("Ki"),
                Value::Float(10.0),
                Value::Float(8.0),
                Value::from("s"),
                Value::Int(year),
            ]
        };
        let out = dedupe_most_recent(vec![mk(2010), mk(2013), mk(2011)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][7], Value::Int(2013));
    }
}
