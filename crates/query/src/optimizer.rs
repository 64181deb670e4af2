//! The phased rewrite engine that turns a [`Query`] into a
//! [`PhysicalPlan`] (design decision D13).
//!
//! Planning runs four explicit phases in order (see
//! [`crate::phases::PHASE_ORDER`]):
//!
//! 1. **Analyze** resolves the query against the dataset: the scope
//!    becomes a leaf interval via the tree index (the "standard" from
//!    tree/XML databases, design decision D1), similarity and
//!    substructure references resolve to fingerprints/patterns, and
//!    the assay sources, candidate keys, and ligand-join need are
//!    discovered.
//! 2. **Canonicalize** normalizes the predicate ([`crate::ast::canon`]):
//!    negation-normal form, flattening, constant folding, `between`
//!    merging, and conjunct deduplication, each individually gated.
//! 3. **Optimize** applies the cost-reducing rewrites: statistics
//!    pruning (D4), predicate pushdown, selectivity ordering,
//!    cardinality estimation from the overlay histograms, replica
//!    selection, and columnar-mirror/cache eligibility.
//! 4. **Lower** produces the physical shape: batching + concurrent
//!    dispatch (D3), per-source fetch plans, access-path selection
//!    (including the semantic cache wrap, D2), and the finish operator.
//!
//! Every rule lives in the per-phase registry
//! ([`crate::phases::REGISTRY`]) with a name, description, and — for
//! flag-gated rules — a toggle into [`OptimizerConfig`], so experiment
//! E4's ablations and the `drugtree rules` listing derive from one
//! table. Within a phase the driver repeats its rules until a pass
//! changes nothing (bounded by [`crate::phases::MAX_PASSES_PER_PHASE`]),
//! records every firing in the plan's rule trace for EXPLAIN, and
//! checks that phase's structural invariants at the boundary
//! (`crate::validate`). `OptimizerConfig::naive()` reproduces the
//! unoptimized DrugTree described in the paper's opening: one
//! sequential round-trip per leaf per source, all filtering
//! client-side, no caching, no pruning.
//!
//! With [`OptimizerConfig::cost_based`] set, the Lower phase's
//! access-path selection switches from the flag-driven fixed order to
//! enumeration: rules *propose* alternatives
//! ([`crate::plan::PlanCandidate`] — columnar-mirror answer vs. batched vs.
//! per-key fetch; per-replica access paths; cached vs. direct) and the
//! calibrated cost model ([`crate::cost::CostModel`], design decision
//! D8) prices each one; the cheapest correct alternative wins and
//! every candidate is recorded on the plan for EXPLAIN and validation.

use crate::adaptive::{LearnedStats, SelectivitySource, StatsView};
use crate::ast::{columns, Query, QueryKind, SimilaritySpec};
use crate::columnar::ActivityColumns;
use crate::cost::CostModel;
use crate::dataset::{unified_schema, Dataset};
use crate::phases::{
    PassTrace, RewritePhase, RuleDef, RuleFiring, RuleOutcome, MAX_PASSES_PER_PHASE, PHASE_ORDER,
};
use crate::plan::{
    Access, FetchPlan, Finish, PhysicalPlan, PlanCandidate, ResolvedSimilarity,
    ResolvedSubstructure,
};
use crate::stats::OverlayStats;
use crate::{QueryError, Result};
use drugtree_chem::fingerprint::Fingerprint;
use drugtree_chem::smiles::parse_smiles;
use drugtree_phylo::index::LeafInterval;
use drugtree_phylo::tree::NodeId;
use drugtree_sources::source::SourceKind;
use drugtree_sources::DataSource;
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Which rewrites are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Canonicalize: push negations to the predicate leaves
    /// (double-negation elimination, De Morgan).
    #[serde(default)]
    pub canon_nnf: bool,
    /// Canonicalize: flatten nested and/or, unwrap singletons.
    #[serde(default)]
    pub canon_flatten: bool,
    /// Canonicalize: fold constant true/false subterms.
    #[serde(default)]
    pub canon_fold: bool,
    /// Canonicalize: merge a column's >= and <= bounds into `between`.
    #[serde(default)]
    pub canon_between: bool,
    /// Canonicalize: drop duplicate conjuncts and disjuncts.
    #[serde(default)]
    pub canon_dedup: bool,
    /// Push supported predicate conjuncts into source fetches.
    pub pushdown: bool,
    /// Coalesce key lookups into batches.
    pub batching: bool,
    /// Dispatch batches and sources concurrently.
    pub concurrent_dispatch: bool,
    /// Prune leaves/subtrees via statistics.
    pub stats_pruning: bool,
    /// Probe and populate the semantic cache.
    pub semantic_cache: bool,
    /// Reorder residual conjuncts by selectivity.
    pub selectivity_ordering: bool,
    /// Serve each declared replica group from its cheapest member
    /// instead of fetching every copy.
    pub replica_selection: bool,
    /// Answer interval scopes from the local columnar activity mirror
    /// (when one is built and fresh) with vectorized kernels instead
    /// of fetching from sources.
    pub columnar_scan: bool,
    /// Run the plan-invariant validator on every plan the executor
    /// receives (debug builds always validate inside the optimizer;
    /// this flag extends the check to release builds so benches can
    /// measure its cost). Not a rewrite rule: absent from
    /// [`crate::phases::REGISTRY`] and untouched by `ablate`.
    pub validate: bool,
    /// Choose access paths by enumerating alternatives and pricing
    /// them with the calibrated cost model instead of applying the
    /// fixed rule order. Not a rewrite rule: absent from
    /// [`crate::phases::REGISTRY`] and untouched by `ablate`.
    pub cost_based: bool,
}

impl OptimizerConfig {
    /// Everything on.
    pub fn full() -> OptimizerConfig {
        OptimizerConfig {
            canon_nnf: true,
            canon_flatten: true,
            canon_fold: true,
            canon_between: true,
            canon_dedup: true,
            pushdown: true,
            batching: true,
            concurrent_dispatch: true,
            stats_pruning: true,
            semantic_cache: true,
            selectivity_ordering: true,
            replica_selection: true,
            columnar_scan: true,
            validate: true,
            cost_based: false,
        }
    }

    /// Everything on, with access paths chosen by the calibrated cost
    /// model instead of the fixed rule order.
    pub fn cost_based() -> OptimizerConfig {
        OptimizerConfig {
            cost_based: true,
            ..OptimizerConfig::full()
        }
    }

    /// The unoptimized baseline.
    pub fn naive() -> OptimizerConfig {
        OptimizerConfig {
            canon_nnf: false,
            canon_flatten: false,
            canon_fold: false,
            canon_between: false,
            canon_dedup: false,
            pushdown: false,
            batching: false,
            concurrent_dispatch: false,
            stats_pruning: false,
            semantic_cache: false,
            selectivity_ordering: false,
            replica_selection: false,
            columnar_scan: false,
            validate: false,
            cost_based: false,
        }
    }

    /// `full()` with one named rule disabled — the E4 ablation helper.
    /// Names resolve against the phase registry
    /// ([`crate::phases::REGISTRY`]), so every flag-gated rule is
    /// ablatable automatically. Unknown (or structural, always-on)
    /// rule names are a caller error reported as
    /// [`QueryError::UnknownRule`], never a panic.
    pub fn ablate(rule: &str) -> Result<OptimizerConfig> {
        let mut c = OptimizerConfig::full();
        match crate::phases::rule_named(rule).and_then(|r| r.toggle) {
            Some(toggle) => {
                toggle(&mut c, false);
                Ok(c)
            }
            None => Err(QueryError::UnknownRule(rule.to_string())),
        }
    }
}

/// The planner.
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    /// Build with a configuration.
    pub fn new(config: OptimizerConfig) -> Optimizer {
        Optimizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> OptimizerConfig {
        self.config
    }

    /// Plan a query. In cost-based mode alternatives are priced with
    /// an uncalibrated (prior-only) model; executors that carry a
    /// calibrated [`CostModel`] use [`Optimizer::plan_with`] instead.
    pub fn plan(
        &self,
        dataset: &Dataset,
        stats: Option<&OverlayStats>,
        mirror: Option<&ActivityColumns>,
        query: &Query,
    ) -> Result<PhysicalPlan> {
        self.plan_with(dataset, stats, mirror, None, query)
    }

    /// Plan a query, pricing cost-based alternatives with `cost` (the
    /// prior-only default model when absent). Fixed-order planning
    /// ignores `cost` entirely. `mirror` is a columnar activity mirror
    /// that may answer any interval scope.
    pub fn plan_with(
        &self,
        dataset: &Dataset,
        stats: Option<&OverlayStats>,
        mirror: Option<&ActivityColumns>,
        cost: Option<&CostModel>,
        query: &Query,
    ) -> Result<PhysicalPlan> {
        self.plan_adaptive(dataset, stats, None, 0, mirror, cost, query)
    }

    /// Plan with every auxiliary structure the executor can carry: the
    /// columnar activity mirror, the calibrated cost model, and the
    /// adaptive layer's learned statistics (design decision D15). When `learned` is
    /// present, selectivity ordering and cardinality estimation route
    /// through a [`StatsView`] that prefers fresh learned coverage over
    /// the nominal histograms; `now_ns` is the virtual-clock instant
    /// used for the learned staleness check. With no learned provider,
    /// planning is nominal-only.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_adaptive(
        &self,
        dataset: &Dataset,
        stats: Option<&OverlayStats>,
        learned: Option<&LearnedStats>,
        now_ns: u64,
        mirror: Option<&ActivityColumns>,
        cost: Option<&CostModel>,
        query: &Query,
    ) -> Result<PhysicalPlan> {
        validate(query)?;
        let default_cost_model;
        let cost_model: Option<&CostModel> = if self.config.cost_based {
            Some(match cost {
                Some(c) => c,
                None => {
                    default_cost_model = CostModel::new();
                    &default_cost_model
                }
            })
        } else {
            None
        };

        let mut rw = Rewrite::new(
            &self.config,
            dataset,
            stats,
            learned,
            now_ns,
            mirror,
            cost_model,
            query,
        );
        for phase in PHASE_ORDER {
            rw.run_phase(phase)?;
            rw.check_phase_boundary(phase)?;
        }
        let plan = rw.into_plan();

        // In debug builds every plan the rewrite pipeline emits is
        // validated, so a rule regression fails fast in any test that
        // plans a query. Release builds opt in via `config.validate`
        // (checked by the executor) to keep the planner's hot path
        // measurable with and without the cost. This full-plan check
        // doubles as the Lower phase's boundary validation.
        #[cfg(debug_assertions)]
        crate::validate::PlanValidator::new(dataset)
            .validate(&plan)
            .map_err(QueryError::Invariant)?;

        Ok(plan)
    }
}

/// The in-flight draft the phased engine rewrites (design decision
/// D13): the planning inputs plus every product a phase computes.
/// Rules mutate the draft through [`Rewrite::apply`] and report a
/// [`RuleOutcome`]; [`Rewrite::into_plan`] assembles the final
/// [`PhysicalPlan`] once every phase has run.
struct Rewrite<'a> {
    config: &'a OptimizerConfig,
    dataset: &'a Dataset,
    stats: Option<&'a OverlayStats>,
    /// Learned statistics provider (adaptive layer); selectivity
    /// estimates route through [`StatsView`] so fresh learned coverage
    /// wins over the nominal histograms when it exists.
    learned: Option<&'a LearnedStats>,
    /// Virtual-clock instant for the learned staleness check.
    now_ns: u64,
    mirror: Option<&'a ActivityColumns>,
    cost_model: Option<&'a CostModel>,
    query: &'a Query,

    notes: Vec<String>,
    candidates: Vec<PlanCandidate>,
    rule_trace: Vec<PassTrace>,
    /// Structural and run-once rules that already fired (so every
    /// later pass honestly reports `NoChange`).
    done: Vec<&'static str>,

    // Analyze products.
    scope_node: Option<NodeId>,
    interval: Option<LeafInterval>,
    similarity: Option<ResolvedSimilarity>,
    substructure: Option<ResolvedSubstructure>,
    assay_sources: Vec<Arc<dyn DataSource>>,
    ligand_join: bool,
    keys: Vec<(u32, Value)>,
    total_leaves: usize,

    // Canonicalize product: the normalized predicate. Starts as the
    // query predicate verbatim; with every canon flag off it stays
    // byte-identical to it.
    canonical: Predicate,

    // Optimize products.
    residual: Option<Predicate>,
    pruned: usize,
    proved_empty: bool,
    pruning_bound: Option<f64>,
    pushdown: Option<Predicate>,
    /// Local (pre-translation) forms of the pushed conjuncts, used to
    /// price their selectivity against the overlay histograms (which
    /// index local columns like `p_activity`, not remote `value_nm`).
    pushed_local: Option<Predicate>,
    key_values: Vec<Value>,
    expected_rows: u64,
    /// `Some` once replica selection ran; `None` means every assay
    /// source participates.
    chosen_sources: Option<Vec<Arc<dyn DataSource>>>,
    columnar_ready: bool,
    cache_wrap: bool,
    cache_pred: Option<Predicate>,

    // Lower products.
    fixed_fetches: Vec<FetchPlan>,
    access: Option<Access>,
    finish: Option<Finish>,
}

impl<'a> Rewrite<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        config: &'a OptimizerConfig,
        dataset: &'a Dataset,
        stats: Option<&'a OverlayStats>,
        learned: Option<&'a LearnedStats>,
        now_ns: u64,
        mirror: Option<&'a ActivityColumns>,
        cost_model: Option<&'a CostModel>,
        query: &'a Query,
    ) -> Rewrite<'a> {
        Rewrite {
            config,
            dataset,
            stats,
            learned,
            now_ns,
            mirror,
            cost_model,
            query,
            notes: Vec::new(),
            candidates: Vec::new(),
            rule_trace: Vec::new(),
            done: Vec::new(),
            scope_node: None,
            interval: None,
            similarity: None,
            substructure: None,
            assay_sources: Vec::new(),
            ligand_join: false,
            keys: Vec::new(),
            total_leaves: 0,
            canonical: query.predicate.clone(),
            residual: None,
            pruned: 0,
            proved_empty: false,
            pruning_bound: None,
            pushdown: None,
            pushed_local: None,
            key_values: Vec::new(),
            expected_rows: 0,
            chosen_sources: None,
            columnar_ready: false,
            cache_wrap: false,
            cache_pred: None,
            fixed_fetches: Vec::new(),
            access: None,
            finish: None,
        }
    }

    /// The selectivity seam for this planning run: a [`StatsView`]
    /// over the nominal histograms plus any learned provider. `None`
    /// only when no statistics were collected at all.
    fn stats_view(&self) -> Option<StatsView<'a>> {
        self.stats
            .map(|s| StatsView::with_learned(s, self.learned, self.now_ns))
    }

    /// Run one phase's rules to a fixpoint (every rule once per pass,
    /// repeated until a pass changes nothing), recording each firing.
    fn run_phase(&mut self, phase: RewritePhase) -> Result<()> {
        for pass in 1..=MAX_PASSES_PER_PHASE {
            let mut firings = Vec::new();
            let mut any_changed = false;
            for rule in crate::phases::rules_in(phase) {
                let outcome = self.apply(rule)?;
                any_changed |= outcome == RuleOutcome::Changed;
                firings.push(RuleFiring {
                    rule: rule.name,
                    outcome,
                });
            }
            self.rule_trace.push(PassTrace {
                phase,
                pass,
                firings,
            });
            if !any_changed {
                return Ok(());
            }
        }
        Err(QueryError::Plan(format!(
            "phase {} did not reach a fixpoint within {MAX_PASSES_PER_PHASE} passes",
            phase.label()
        )))
    }

    /// The phase's structural postconditions, checked the moment it
    /// completes so a bad rule fails at its own boundary. Lower's
    /// boundary is the full [`crate::validate::PlanValidator`], run on
    /// the assembled plan by `plan_adaptive`.
    fn check_phase_boundary(&self, phase: RewritePhase) -> Result<()> {
        let mut violations = Vec::new();
        match phase {
            RewritePhase::Analyze => {
                crate::validate::phase_interval_bounds(
                    self.dataset,
                    self.interval(),
                    &mut violations,
                );
            }
            RewritePhase::Canonicalize => {
                crate::validate::phase_canonical_form(
                    self.config,
                    &self.canonical,
                    &mut violations,
                );
            }
            RewritePhase::Optimize => {
                crate::validate::phase_key_order(&self.key_values, &mut violations);
                crate::validate::phase_pushdown_remote(
                    self.pushdown.as_ref(),
                    &self.sources_for_fetch(),
                    &mut violations,
                );
                crate::validate::phase_pruning_counts(
                    self.proved_empty,
                    self.keys.len(),
                    self.pruned,
                    self.total_leaves,
                    &mut violations,
                );
            }
            RewritePhase::Lower => {}
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(QueryError::Invariant(violations))
        }
    }

    fn interval(&self) -> LeafInterval {
        match self.interval {
            Some(iv) => iv,
            None => unreachable!("Analyze resolved the interval"),
        }
    }

    fn scope(&self) -> NodeId {
        match self.scope_node {
            Some(node) => node,
            None => unreachable!("Analyze resolved the scope"),
        }
    }

    fn is_done(&self, rule: &'static str) -> bool {
        self.done.contains(&rule)
    }

    fn mark_done(&mut self, rule: &'static str) {
        self.done.push(rule);
    }

    /// The sources the fetch path targets: the replica-selection
    /// winners when that rule ran, every assay source otherwise.
    fn sources_for_fetch(&self) -> Vec<Arc<dyn DataSource>> {
        self.chosen_sources
            .clone()
            .unwrap_or_else(|| self.assay_sources.clone())
    }

    /// Apply one canonicalization step to the draft predicate.
    fn canon_step(
        &mut self,
        enabled: bool,
        step: fn(Predicate) -> (Predicate, bool),
    ) -> RuleOutcome {
        if !enabled {
            return RuleOutcome::Off;
        }
        let (p, changed) = step(std::mem::replace(&mut self.canonical, Predicate::True));
        self.canonical = p;
        if changed {
            RuleOutcome::Changed
        } else {
            RuleOutcome::NoChange
        }
    }

    /// Apply one registered rule to the draft.
    fn apply(&mut self, rule: &'static RuleDef) -> Result<RuleOutcome> {
        use RuleOutcome::{Changed, NoChange, NotApplicable, Off};
        Ok(match rule.name {
            // ---------------- Analyze ----------------
            "interval_rewrite" => {
                if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    let (node, interval) = self.dataset.resolve_scope(&self.query.scope)?;
                    self.notes.push(format!(
                        "interval-rewrite: scope -> [{}, {})",
                        interval.lo, interval.hi
                    ));
                    self.scope_node = Some(node);
                    self.interval = Some(interval);
                    Changed
                }
            }
            "similarity_resolve" => match &self.query.similarity {
                None => NotApplicable,
                Some(spec) => {
                    if self.is_done(rule.name) {
                        NoChange
                    } else {
                        self.mark_done(rule.name);
                        self.similarity = Some(resolve_similarity(self.dataset, spec)?);
                        Changed
                    }
                }
            },
            "substructure_resolve" => match &self.query.substructure {
                None => NotApplicable,
                Some(pattern) => {
                    if self.is_done(rule.name) {
                        NoChange
                    } else {
                        self.mark_done(rule.name);
                        self.substructure = Some(resolve_substructure(self.dataset, pattern)?);
                        Changed
                    }
                }
            },
            "column_discovery" => {
                if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    let sources = self.dataset.registry.by_kind(SourceKind::Assay);
                    if sources.is_empty() {
                        return Err(QueryError::Plan("no assay sources registered".into()));
                    }
                    self.assay_sources = sources;
                    self.keys = self
                        .dataset
                        .accessions_in(self.interval())
                        .into_iter()
                        .map(|(rank, acc)| (rank, Value::from(acc)))
                        .collect();
                    self.total_leaves = self.keys.len();
                    let residual_needs_ligand = self
                        .query
                        .predicate
                        .columns()
                        .iter()
                        .any(|c| columns::LIGAND.contains(c));
                    let output_needs_ligand = matches!(
                        self.query.kind,
                        QueryKind::Activities | QueryKind::TopK { .. }
                    );
                    self.ligand_join = residual_needs_ligand
                        || output_needs_ligand
                        || self.similarity.is_some()
                        || self.substructure.is_some();
                    Changed
                }
            }
            // ---------------- Canonicalize ----------------
            "canon_nnf" => self.canon_step(self.config.canon_nnf, crate::ast::canon::nnf),
            "canon_flatten" => {
                self.canon_step(self.config.canon_flatten, crate::ast::canon::flatten)
            }
            "canon_fold" => self.canon_step(self.config.canon_fold, crate::ast::canon::fold),
            "canon_between" => {
                self.canon_step(self.config.canon_between, crate::ast::canon::between_merge)
            }
            "canon_dedup" => self.canon_step(self.config.canon_dedup, crate::ast::canon::dedup),
            // ---------------- Optimize ----------------
            "selectivity_ordering" => {
                if !self.config.selectivity_ordering {
                    Off
                } else {
                    let Some(view) = self.stats_view() else {
                        return Ok(NotApplicable);
                    };
                    if self.is_done(rule.name) {
                        NoChange
                    } else {
                        self.mark_done(rule.name);
                        self.residual = Some(order_by_selectivity(self.canonical.clone(), &view));
                        self.notes
                            .push("selectivity-ordering: residual conjuncts reordered".into());
                        Changed
                    }
                }
            }
            "stats_pruning" => {
                if !self.config.stats_pruning {
                    Off
                } else {
                    let Some(stats) = self.stats else {
                        return Ok(NotApplicable);
                    };
                    if self.is_done(rule.name) {
                        NoChange
                    } else {
                        self.mark_done(rule.name);
                        let interval = self.interval();
                        if stats.interval_count(interval) == 0 {
                            self.proved_empty = true;
                            self.notes
                                .push("stats-pruning: interval proven empty".into());
                            Changed
                        } else {
                            let p_bound = min_p_activity_bound(&self.canonical);
                            self.pruning_bound = p_bound;
                            let before = self.keys.len();
                            self.keys.retain(|(rank, _)| {
                                let leaf_iv = LeafInterval {
                                    lo: *rank,
                                    hi: rank + 1,
                                };
                                if stats.interval_count(leaf_iv) == 0 {
                                    return false;
                                }
                                if let Some(bound) = p_bound {
                                    if stats.interval_max_p(leaf_iv).is_none_or(|m| m < bound) {
                                        return false;
                                    }
                                }
                                true
                            });
                            self.pruned = before - self.keys.len();
                            if self.pruned > 0 {
                                let pruned = self.pruned;
                                self.notes
                                    .push(format!("stats-pruning: {pruned} leaves dropped"));
                                Changed
                            } else {
                                NoChange
                            }
                        }
                    }
                }
            }
            "pushdown" => {
                if !self.config.pushdown {
                    Off
                } else if self.is_done(rule.name) {
                    NoChange
                } else {
                    // Conjuncts translated into the remote assay schema
                    // (derived columns like p_activity become value_nm
                    // bounds) and supported by every assay source; the
                    // local forms are kept for histogram pricing.
                    let mut remote = Vec::new();
                    let mut local = Vec::new();
                    for conjunct in conjuncts_of(&self.canonical) {
                        let Some(r) = remote_form(conjunct) else {
                            continue;
                        };
                        if self
                            .assay_sources
                            .iter()
                            .all(|s| s.capabilities().supports_predicate(&r))
                        {
                            remote.push(r);
                            local.push(conjunct.clone());
                        }
                    }
                    if remote.is_empty() {
                        NotApplicable
                    } else {
                        self.mark_done(rule.name);
                        let combined = remote.into_iter().fold(Predicate::True, Predicate::and);
                        self.notes
                            .push(format!("pushdown: {}", crate::plan::fmt_pred(&combined)));
                        self.pushdown = Some(combined);
                        self.pushed_local =
                            Some(local.into_iter().fold(Predicate::True, Predicate::and));
                        Changed
                    }
                }
            }
            "cardinality_estimate" => {
                if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    // Keys ship sorted and deduplicated (a plan
                    // invariant): batching is deterministic and the
                    // executor's rank re-sort makes row order
                    // config-independent.
                    let mut key_values: Vec<Value> =
                        self.keys.iter().map(|(_, k)| k.clone()).collect();
                    key_values.sort();
                    key_values.dedup();
                    self.key_values = key_values;
                    let (rows, source) =
                        estimate_rows(self.stats_view(), self.interval(), &self.pushed_local);
                    self.expected_rows = rows;
                    // Only annotate when a learned provider is
                    // installed and a pushdown exists to price — plans
                    // from nominal-only sessions (and every golden
                    // EXPLAIN) stay byte-identical.
                    if self.learned.is_some() && self.pushed_local.is_some() {
                        let label = match source {
                            SelectivitySource::Learned => "learned",
                            SelectivitySource::Nominal => "nominal",
                        };
                        self.notes.push(format!("selectivity-source: {label}"));
                    }
                    Changed
                }
            }
            "replica_selection" => {
                if !self.config.replica_selection {
                    Off
                } else if !self
                    .assay_sources
                    .iter()
                    .any(|s| self.dataset.registry.replica_group_of(s.name()).is_some())
                {
                    // No declared replica groups: every source
                    // participates (chosen_sources stays None).
                    NotApplicable
                } else if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    self.select_replicas();
                    Changed
                }
            }
            "columnar_scan" => {
                if !self.config.columnar_scan {
                    Off
                } else if self.is_done(rule.name) {
                    NoChange
                } else if !self.mirror.is_some_and(|c| c.is_fresh(self.dataset)) {
                    // The mirror replays the fetch path's row pipeline
                    // at build time, so any interval scope can be
                    // served locally as long as no source has drifted.
                    NotApplicable
                } else {
                    self.mark_done(rule.name);
                    self.columnar_ready = true;
                    Changed
                }
            }
            "semantic_cache" => {
                if !self.config.semantic_cache {
                    Off
                } else if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    // The cache key must capture every row-reducing
                    // effect of this plan's fetch: the source pushdown
                    // AND any statistics-pruning potency bound (pruned
                    // leaves' weak rows are absent from the fetched
                    // set, so an entry without the bound in its key
                    // would wrongly answer unfiltered probes).
                    let mut key = self.pushdown.clone().unwrap_or(Predicate::True);
                    if let Some(bound) = self.pruning_bound {
                        key = key.and(Predicate::cmp("p_activity", CompareOp::Ge, bound));
                    }
                    self.cache_pred = match key {
                        Predicate::True => None,
                        other => Some(other),
                    };
                    self.cache_wrap = true;
                    Changed
                }
            }
            // ---------------- Lower ----------------
            "batching" => {
                if !self.config.batching {
                    Off
                } else if self.cost_model.is_some() {
                    // Cost-based planning prices batched vs per-key as
                    // access alternatives instead of applying the flag.
                    NotApplicable
                } else if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    self.notes.push("batching: keyed lookups coalesced".into());
                    Changed
                }
            }
            "concurrent_dispatch" => {
                if !self.config.concurrent_dispatch {
                    Off
                } else if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    Changed
                }
            }
            "lower_fetches" => {
                if self.cost_model.is_some() {
                    // Cost-based fetches are built during access
                    // selection, where batched vs per-key is priced.
                    NotApplicable
                } else if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    let sources = self.sources_for_fetch();
                    self.fixed_fetches = sources
                        .iter()
                        .map(|s| {
                            fetch_for_source(
                                s.as_ref(),
                                &self.key_values,
                                &self.pushdown,
                                self.config.batching,
                                self.config.concurrent_dispatch,
                                self.expected_rows,
                            )
                        })
                        .collect();
                    Changed
                }
            }
            "access_select" => {
                if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    let access = self.select_access();
                    self.access = Some(access);
                    Changed
                }
            }
            "finish_build" => {
                if self.is_done(rule.name) {
                    NoChange
                } else {
                    self.mark_done(rule.name);
                    self.finish = Some(build_finish(self.dataset, self.scope(), self.query)?);
                    Changed
                }
            }
            other => {
                return Err(QueryError::Plan(format!(
                    "registered rule {other:?} has no implementation"
                )))
            }
        })
    }

    /// Replica selection: from each declared replica group, fetch only
    /// the member with the cheapest estimated access; ungrouped sources
    /// all participate. The fixed pipeline prices members from their
    /// self-declared latency model at a nominal 100 rows; cost-based
    /// planning prices each member with its calibrated parameters at
    /// this query's estimated shape and records every member as a
    /// candidate.
    fn select_replicas(&mut self) {
        let sources = self.assay_sources.clone();
        let key_count = self.key_values.len();
        let expected_rows = self.expected_rows;
        let mut chosen: Vec<Arc<dyn DataSource>> = Vec::new();
        let mut handled_groups: Vec<&[String]> = Vec::new();
        for s in &sources {
            match self.dataset.registry.replica_group_of(s.name()) {
                None => chosen.push(s.clone()),
                Some(group) => {
                    if handled_groups.contains(&group) {
                        continue;
                    }
                    handled_groups.push(group);
                    let members = sources
                        .iter()
                        .filter(|c| group.iter().any(|n| n == c.name()));
                    let cheapest = if let Some(model) = self.cost_model {
                        let mut best: Option<(&Arc<dyn DataSource>, f64)> = None;
                        let group_name = format!("replica:{}", group[0]);
                        let mut group_candidates = Vec::new();
                        for c in members {
                            let reqs = effective_requests(
                                self.config,
                                key_count,
                                self.config.batching,
                                c.capabilities().max_batch,
                            );
                            let secs = model.params_for(c.name()).price(reqs, expected_rows);
                            group_candidates.push(PlanCandidate {
                                group: group_name.clone(),
                                label: c.name().to_string(),
                                cost_secs: secs,
                                rows: expected_rows,
                                chosen: false,
                            });
                            if best.as_ref().is_none_or(|(_, b)| secs < *b) {
                                best = Some((c, secs));
                            }
                        }
                        if let Some((winner, _)) = best {
                            for cand in &mut group_candidates {
                                cand.chosen = cand.label == winner.name();
                            }
                        }
                        self.candidates.extend(group_candidates);
                        best.map(|(c, _)| c)
                    } else {
                        members.min_by_key(|c| {
                            let m = c.latency_model();
                            m.base_rtt + m.per_row * 100
                        })
                    };
                    // Registration guarantees groups are non-empty;
                    // fall back to the current source rather than
                    // trusting that here.
                    let Some(cheapest) = cheapest else {
                        chosen.push(s.clone());
                        continue;
                    };
                    self.notes.push(format!(
                        "replica-selection: {} chosen from {group:?}",
                        cheapest.name()
                    ));
                    chosen.push(cheapest.clone());
                }
            }
        }
        self.chosen_sources = Some(chosen);
    }

    /// Access-path selection: the fixed pipeline decides by flag order,
    /// cost-based planning enumerates the correct alternatives, prices
    /// each, and keeps the cheapest (first minimum on ties).
    fn select_access(&mut self) -> Access {
        let expected_rows = self.expected_rows;
        if self.proved_empty {
            return Access::ProvedEmpty;
        }
        if let Some(model) = self.cost_model {
            let config = *self.config;
            let sources = self.sources_for_fetch();
            let key_count = self.key_values.len();
            let price_variant = |batched: bool| -> f64 {
                let per_source = sources.iter().map(|s| {
                    let reqs =
                        effective_requests(&config, key_count, batched, s.capabilities().max_batch);
                    model.params_for(s.name()).price(reqs, expected_rows)
                });
                if config.concurrent_dispatch {
                    per_source.fold(0.0, f64::max)
                } else {
                    per_source.sum()
                }
            };
            let mut alternatives: Vec<(&str, f64)> = Vec::new();
            if self.columnar_ready {
                alternatives.push((
                    "columnar-scan",
                    crate::cost::columnar_scan_secs(expected_rows),
                ));
            }
            alternatives.push(("batched-fetch", price_variant(true)));
            alternatives.push(("per-key-fetch", price_variant(false)));
            let best = alternatives
                .iter()
                .map(|(_, c)| *c)
                .fold(f64::INFINITY, f64::min);
            let chosen_label = alternatives
                .iter()
                .find(|(_, c)| *c <= best)
                .map_or("batched-fetch", |(l, _)| *l);
            for (label, cost_secs) in &alternatives {
                self.candidates.push(PlanCandidate {
                    group: "access".into(),
                    label: (*label).to_string(),
                    cost_secs: *cost_secs,
                    rows: expected_rows,
                    chosen: *label == chosen_label,
                });
            }
            self.notes.push(format!(
                "cost-based: access={chosen_label} est={:?} est_rows={expected_rows}",
                crate::cost::secs_to_duration(best)
            ));
            if chosen_label == "columnar-scan" {
                return self.columnar_access();
            }
            let batched = chosen_label == "batched-fetch";
            let fetches: Vec<FetchPlan> = sources
                .iter()
                .map(|s| {
                    let reqs =
                        effective_requests(&config, key_count, batched, s.capabilities().max_batch);
                    let est = model.params_for(s.name()).price(reqs, expected_rows);
                    let mut f = fetch_for_source(
                        s.as_ref(),
                        &self.key_values,
                        &self.pushdown,
                        batched,
                        config.concurrent_dispatch,
                        expected_rows,
                    );
                    f.est_cost = crate::cost::secs_to_duration(est);
                    f
                })
                .collect();
            // Cache wrapping: a probe costs nothing on a hit and the
            // same as the direct fetch on a miss, so it is never worse;
            // both alternatives are recorded priced at the miss path.
            return if self.cache_wrap {
                for (label, chosen) in [("cache-probe", true), ("direct", false)] {
                    self.candidates.push(PlanCandidate {
                        group: "cache".into(),
                        label: label.to_string(),
                        cost_secs: best,
                        rows: expected_rows,
                        chosen,
                    });
                }
                Access::CacheProbe {
                    pushdown: self.cache_pred.clone(),
                    on_miss: fetches,
                    insert_on_miss: true,
                    concurrent_sources: config.concurrent_dispatch,
                }
            } else {
                Access::Fetch {
                    fetches,
                    concurrent_sources: config.concurrent_dispatch,
                }
            };
        }
        // Fixed pipeline: flag order decides.
        if self.columnar_ready {
            self.columnar_access()
        } else if self.cache_wrap {
            Access::CacheProbe {
                pushdown: self.cache_pred.clone(),
                on_miss: std::mem::take(&mut self.fixed_fetches),
                insert_on_miss: true,
                concurrent_sources: self.config.concurrent_dispatch,
            }
        } else {
            Access::Fetch {
                fetches: std::mem::take(&mut self.fixed_fetches),
                concurrent_sources: self.config.concurrent_dispatch,
            }
        }
    }

    /// A columnar scan of the interval, noted for EXPLAIN.
    fn columnar_access(&mut self) -> Access {
        let interval = self.interval();
        self.notes.push(format!(
            "columnar-scan: interval [{}, {}) served by vectorized kernels",
            interval.lo, interval.hi
        ));
        Access::ColumnarScan {
            pushdown: self.pushdown.clone(),
        }
    }

    /// Assemble the physical plan from the finished draft.
    fn into_plan(self) -> PhysicalPlan {
        let Some(access) = self.access else {
            unreachable!("Lower selected the access path")
        };
        // Cost estimate (for EXPLAIN and plan-choice validation):
        // combine the per-fetch estimates the same way the executor
        // combines charged latency; a mirror access's estimate is the
        // modeled local-compute term.
        let estimated_cost = match &access {
            Access::ColumnarScan { .. } => crate::cost::columnar_scan_cost(self.expected_rows),
            _ => combine_access_cost(&access),
        };
        let estimated_rows = match &access {
            Access::ProvedEmpty => 0,
            _ => self.expected_rows,
        };
        let (Some(scope_node), Some(interval)) = (self.scope_node, self.interval) else {
            unreachable!("Analyze resolved the scope and interval")
        };
        PhysicalPlan {
            scope_node,
            interval,
            pruned_leaves: self.pruned,
            access,
            // The full predicate re-applies client-side; pushdown only
            // reduces shipped rows, never correctness.
            residual: self.residual.unwrap_or(self.canonical),
            pushed_local: self.pushed_local,
            ligand_join: self.ligand_join,
            similarity: self.similarity,
            substructure: self.substructure,
            finish: match self.finish {
                Some(finish) => finish,
                None => unreachable!("Lower built the finish operator"),
            },
            notes: self.notes,
            estimated_cost,
            estimated_rows,
            candidates: self.candidates,
            rule_trace: self.rule_trace,
        }
    }
}

/// Reject queries referencing unknown columns early, with a good error.
fn validate(query: &Query) -> Result<()> {
    for col in query.predicate.columns() {
        if !columns::is_known(col) {
            return Err(QueryError::UnknownColumn(col.to_string()));
        }
    }
    if let QueryKind::TopK { by, .. } = &query.kind {
        if !columns::is_known(by) {
            return Err(QueryError::UnknownColumn(by.clone()));
        }
    }
    if let Some(sim) = &query.similarity {
        if !(0.0..=1.0).contains(&sim.min_tanimoto) {
            return Err(QueryError::Plan(format!(
                "similarity threshold {} outside [0, 1]",
                sim.min_tanimoto
            )));
        }
    }
    Ok(())
}

/// Resolve a similarity reference: a known ligand id first, otherwise
/// parsed as SMILES.
fn resolve_similarity(dataset: &Dataset, spec: &SimilaritySpec) -> Result<ResolvedSimilarity> {
    let fingerprint = match dataset.overlay.fingerprint(&spec.reference) {
        Some(fp) => fp.clone(),
        None => match parse_smiles(&spec.reference) {
            Ok(mol) => Fingerprint::of_molecule(&mol),
            Err(_) => return Err(QueryError::BadSimilarityReference(spec.reference.clone())),
        },
    };
    Ok(ResolvedSimilarity {
        fingerprint,
        min_tanimoto: spec.min_tanimoto,
    })
}

/// Resolve a substructure pattern: a known ligand id's structure
/// first, otherwise parsed as SMILES.
fn resolve_substructure(dataset: &Dataset, pattern: &str) -> Result<ResolvedSubstructure> {
    let molecule = match dataset.overlay.molecule(pattern) {
        Some(m) => m.clone(),
        None => parse_smiles(pattern)
            .map_err(|_| QueryError::BadSubstructurePattern(pattern.to_string()))?,
    };
    let pattern_fp = Fingerprint::of_molecule(&molecule);
    Ok(ResolvedSubstructure {
        pattern: molecule,
        pattern_fp,
    })
}

/// The tightest `p_activity >= c` (or `> c`) bound in the predicate's
/// top-level conjuncts, used for max-pActivity pruning. A `between`
/// conjunct (as canonicalization produces) contributes its lower edge:
/// `between lo and hi` only matches cells `>= lo`.
fn min_p_activity_bound(pred: &Predicate) -> Option<f64> {
    conjuncts_of(pred)
        .into_iter()
        .filter_map(|c| match c {
            Predicate::Compare { column, op, value }
                if column == "p_activity" && matches!(op, CompareOp::Ge | CompareOp::Gt) =>
            {
                value.as_f64()
            }
            Predicate::Between { column, lo, .. } if column == "p_activity" => lo.as_f64(),
            _ => None,
        })
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        })
}

/// Columns that physically exist in the remote assay schema.
pub(crate) const REMOTE_COLUMNS: &[&str] = &[
    "protein_accession",
    "ligand_id",
    "activity_type",
    "value_nm",
    "source",
    "year",
];

/// Translate one conjunct into its remote evaluable form, or `None`
/// when it cannot be pushed.
///
/// `p_activity` is derived locally (`-log10(value_nm * 1e-9)`), so its
/// bounds translate into `value_nm` bounds with the comparison flipped
/// (larger pActivity = smaller concentration). Translated bounds are
/// widened by one part in 10^9 so floating-point error at the boundary
/// can only ship an extra row (dropped by the residual), never lose
/// one. Equality on a derived float is not translated.
fn remote_form(conjunct: &Predicate) -> Option<Predicate> {
    match conjunct {
        Predicate::Compare { column, op, value } if column == "p_activity" => {
            let p = value.as_f64()?;
            let (op, slack) = match op {
                CompareOp::Ge => (CompareOp::Le, 1.0 + 1e-9),
                CompareOp::Gt => (CompareOp::Lt, 1.0 + 1e-9),
                CompareOp::Le => (CompareOp::Ge, 1.0 - 1e-9),
                CompareOp::Lt => (CompareOp::Gt, 1.0 - 1e-9),
                CompareOp::Eq | CompareOp::Ne => return None,
            };
            Some(Predicate::Compare {
                column: "value_nm".into(),
                op,
                value: Value::Float(p_to_nm(p) * slack),
            })
        }
        Predicate::Between { column, lo, hi } if column == "p_activity" => {
            let (lo, hi) = (lo.as_f64()?, hi.as_f64()?);
            Some(Predicate::Between {
                column: "value_nm".into(),
                lo: Value::Float(p_to_nm(hi) * (1.0 - 1e-9)),
                hi: Value::Float(p_to_nm(lo) * (1.0 + 1e-9)),
            })
        }
        other => {
            let remote = other.columns().iter().all(|c| REMOTE_COLUMNS.contains(c));
            remote.then(|| other.clone())
        }
    }
}

/// Concentration (nM) at a given pActivity.
fn p_to_nm(p: f64) -> f64 {
    10f64.powf(9.0 - p)
}

pub(crate) fn conjuncts_of(p: &Predicate) -> Vec<&Predicate> {
    match p {
        Predicate::And(ps) => ps.iter().flat_map(conjuncts_of).collect(),
        Predicate::True => Vec::new(),
        other => vec![other],
    }
}

/// Reorder a conjunction most-selective-first; other shapes unchanged.
/// Prices through the [`StatsView`] seam so fresh learned coverage
/// (when a provider is installed) reorders with observed fractions.
fn order_by_selectivity(pred: Predicate, view: &StatsView<'_>) -> Predicate {
    match pred {
        Predicate::And(mut ps) => {
            ps.sort_by(|a, b| view.selectivity(a).total_cmp(&view.selectivity(b)));
            Predicate::And(ps)
        }
        other => other,
    }
}

/// Build the finish operator.
fn build_finish(
    dataset: &Dataset,
    scope_node: drugtree_phylo::tree::NodeId,
    query: &Query,
) -> Result<Finish> {
    Ok(match &query.kind {
        QueryKind::Activities => Finish::Collect,
        QueryKind::TopK { by, k, descending } => Finish::TopK {
            column: unified_schema().column_index(by)?,
            k: *k,
            descending: *descending,
        },
        QueryKind::AggregateChildren { metric } => {
            let children = dataset
                .tree
                .node_unchecked(scope_node)
                .children
                .iter()
                .map(|&c| {
                    let label = dataset
                        .tree
                        .node_unchecked(c)
                        .label
                        .clone()
                        .unwrap_or_else(|| format!("n{}", c.0));
                    (c, label, dataset.index.interval(c))
                })
                .collect();
            Finish::AggregateChildren {
                children,
                metric: *metric,
            }
        }
        QueryKind::CountPerLeaf => Finish::CountPerLeaf,
    })
}

/// Cardinality estimate for the access: interval record count scaled
/// by the histogram selectivity of the pushed conjuncts, passed in
/// their *local* column forms (interval length when no statistics were
/// collected). The local forms matter: the overlay histograms index
/// local columns like `p_activity`, so pricing the remote-translated
/// `value_nm` bound would fall back to the nominal 0.5 guess and
/// mis-rank access paths on affinity filters (experiment E12).
fn estimate_rows(
    view: Option<StatsView<'_>>,
    interval: LeafInterval,
    pushdown: &Option<Predicate>,
) -> (u64, SelectivitySource) {
    view.map_or((interval.len() as u64, SelectivitySource::Nominal), |v| {
        let base = v.overlay().interval_count(interval);
        let (sel, source) = pushdown
            .as_ref()
            .map_or((1.0, SelectivitySource::Nominal), |p| {
                v.selectivity_with_source(p)
            });
        ((base as f64 * sel).ceil() as u64, source)
    })
}

/// Effective sequential round trips for cost-model pricing: concurrent
/// dispatch overlaps every request into one effective RTT.
fn effective_requests(
    config: &OptimizerConfig,
    key_count: usize,
    batched: bool,
    max_batch: usize,
) -> u64 {
    if config.concurrent_dispatch {
        return 1;
    }
    let requests = if batched {
        key_count.div_ceil(max_batch.max(1))
    } else {
        key_count
    };
    requests.max(1) as u64
}

/// Build one source's fetch plan with its fixed-pipeline latency
/// estimate: exact `Duration` arithmetic from the source's
/// self-declared latency model (the cost-based planner overwrites
/// `est_cost` with its calibrated price).
fn fetch_for_source(
    source: &dyn drugtree_sources::DataSource,
    key_values: &[Value],
    pushdown: &Option<Predicate>,
    batched: bool,
    concurrent: bool,
    expected_rows: u64,
) -> FetchPlan {
    let max_batch = if batched {
        source.capabilities().max_batch.max(1)
    } else {
        1
    };
    let requests = if batched {
        key_values.len().div_ceil(max_batch)
    } else {
        key_values.len()
    }
    .max(1);
    let model = source.latency_model();
    let transfer = model.per_row * (expected_rows as u32);
    let est_cost = if concurrent {
        // All requests in flight: one RTT plus the transfer.
        model.base_rtt + transfer
    } else {
        model.base_rtt * requests as u32 + transfer
    };
    FetchPlan {
        source: source.name().to_string(),
        keys: key_values.to_vec(),
        pushdown: pushdown.clone(),
        batched,
        max_batch,
        concurrent,
        est_cost,
        est_rows: expected_rows,
    }
}

/// Combine per-fetch estimates the way the executor combines charged
/// latency: max across concurrent sources, sum across sequential.
fn combine_access_cost(access: &Access) -> Duration {
    let (fetches, concurrent_sources) = match access {
        Access::Fetch {
            fetches,
            concurrent_sources,
        } => (fetches, *concurrent_sources),
        // The cache hit path costs ~nothing; estimate the miss path so
        // EXPLAIN shows the worst case.
        Access::CacheProbe {
            on_miss,
            concurrent_sources,
            ..
        } => (on_miss, *concurrent_sources),
        // Mirror accesses price via the compute model, not fetch
        // estimates; the caller special-cases them before combining.
        Access::ColumnarScan { .. } | Access::ProvedEmpty => return Duration::ZERO,
    };
    if concurrent_sources {
        fetches
            .iter()
            .map(|f| f.est_cost)
            .max()
            .unwrap_or(Duration::ZERO)
    } else {
        fetches.iter().map(|f| f.est_cost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Metric, Scope};
    use crate::dataset::test_fixtures::small_dataset;
    use drugtree_sources::source::SourceCapabilities;

    fn dataset() -> Dataset {
        small_dataset(SourceCapabilities::full())
    }

    #[test]
    fn naive_plan_shape() {
        let d = dataset();
        let q = Query::activities(Scope::Tree);
        let plan = Optimizer::new(OptimizerConfig::naive())
            .plan(&d, None, None, &q)
            .unwrap();
        match &plan.access {
            Access::Fetch {
                fetches,
                concurrent_sources,
            } => {
                assert!(!concurrent_sources);
                assert_eq!(fetches.len(), 1);
                assert_eq!(fetches[0].keys.len(), 4);
                assert!(!fetches[0].batched);
                assert!(fetches[0].pushdown.is_none());
            }
            other => panic!("expected Fetch, got {other:?}"),
        }
        assert_eq!(plan.pruned_leaves, 0);
        assert!(plan.ligand_join);
    }

    #[test]
    fn full_plan_uses_cache_and_pushdown() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let q = Query::activities(Scope::Subtree("cladeA".into())).filter(Predicate::cmp(
            "p_activity",
            CompareOp::Ge,
            6.5,
        ));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&d, Some(&stats), None, &q)
            .unwrap();
        match &plan.access {
            Access::CacheProbe {
                pushdown,
                on_miss,
                insert_on_miss,
                ..
            } => {
                assert!(insert_on_miss);
                assert!(pushdown.is_some(), "p_activity filter is pushable");
                assert!(on_miss.iter().all(|f| f.batched && f.concurrent));
            }
            other => panic!("expected CacheProbe, got {other:?}"),
        }
        assert!(plan.explain().contains("pushdown"));
    }

    #[test]
    fn ligand_columns_not_pushed_down() {
        let d = dataset();
        let q = Query::activities(Scope::Tree)
            .filter(Predicate::cmp("mw", CompareOp::Lt, 500.0))
            .filter(Predicate::cmp("year", CompareOp::Ge, 2012i64));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&d, None, None, &q)
            .unwrap();
        let pushdown = match &plan.access {
            Access::CacheProbe { pushdown, .. } => pushdown.clone(),
            other => panic!("{other:?}"),
        };
        // Only the year conjunct is pushable.
        let p = pushdown.expect("year pushable");
        assert!(crate::plan::fmt_pred(&p).contains("year"));
        assert!(!crate::plan::fmt_pred(&p).contains("mw"));
    }

    #[test]
    fn incapable_sources_receive_no_pushdown() {
        let d = small_dataset(SourceCapabilities::minimal());
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("year", CompareOp::Ge, 2012i64));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&d, None, None, &q)
            .unwrap();
        match &plan.access {
            Access::CacheProbe { pushdown, .. } => assert!(pushdown.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stats_pruning_drops_empty_leaves() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        // P4 (rank 3) has no activities.
        let q = Query::activities(Scope::Tree);
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&d, Some(&stats), None, &q)
            .unwrap();
        assert_eq!(plan.pruned_leaves, 1);
        match &plan.access {
            Access::CacheProbe { on_miss, .. } => {
                assert_eq!(on_miss[0].keys.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn p_activity_bound_prunes_by_range_max() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        // Only P3 (1 nM -> p=9) clears p >= 8.5; P1/P2/P4 pruned.
        let q =
            Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.5));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&d, Some(&stats), None, &q)
            .unwrap();
        assert_eq!(plan.pruned_leaves, 3);
    }

    #[test]
    fn empty_interval_proved_empty() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        // cladeB's P4 side: leaves [3, 4) hold nothing.
        let q = Query::activities(Scope::Subtree("P4".into()));
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&d, Some(&stats), None, &q)
            .unwrap();
        assert_eq!(plan.access, Access::ProvedEmpty);
        assert_eq!(plan.estimated_cost, Duration::ZERO);
    }

    #[test]
    fn validation_errors() {
        let d = dataset();
        let opt = Optimizer::new(OptimizerConfig::full());
        let q = Query::activities(Scope::Tree).filter(Predicate::eq("bogus", 1i64));
        assert!(matches!(
            opt.plan(&d, None, None, &q),
            Err(QueryError::UnknownColumn(_))
        ));
        let q = Query::activities(Scope::Tree).top_k("nope", 5, true);
        assert!(matches!(
            opt.plan(&d, None, None, &q),
            Err(QueryError::UnknownColumn(_))
        ));
        let q = Query::activities(Scope::Tree).similar_to("CCO", 1.5);
        assert!(opt.plan(&d, None, None, &q).is_err());
        let q = Query::activities(Scope::Tree).similar_to("((((", 0.5);
        assert!(matches!(
            opt.plan(&d, None, None, &q),
            Err(QueryError::BadSimilarityReference(_))
        ));
    }

    #[test]
    fn similarity_resolves_ligand_id_or_smiles() {
        let d = dataset();
        let opt = Optimizer::new(OptimizerConfig::full());
        // Known ligand id.
        let q = Query::activities(Scope::Tree).similar_to("L1", 0.5);
        let plan = opt.plan(&d, None, None, &q).unwrap();
        assert!(plan.similarity.is_some());
        // Raw SMILES.
        let q = Query::activities(Scope::Tree).similar_to("CCO", 0.5);
        let plan = opt.plan(&d, None, None, &q).unwrap();
        let sim = plan.similarity.unwrap();
        let ethanol_fp = d.overlay.fingerprint("L2").unwrap();
        assert_eq!(&sim.fingerprint, ethanol_fp, "SMILES CCO == ligand L2");
    }

    #[test]
    fn aggregate_children_enumerated() {
        let d = dataset();
        let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
        let plan = Optimizer::new(OptimizerConfig::naive())
            .plan(&d, None, None, &q)
            .unwrap();
        match &plan.finish {
            Finish::AggregateChildren { children, .. } => {
                let labels: Vec<&str> = children.iter().map(|(_, l, _)| l.as_str()).collect();
                assert_eq!(labels, ["cladeA", "cladeB"]);
            }
            other => panic!("{other:?}"),
        }
        // Aggregates without ligand predicates skip the join.
        assert!(!plan.ligand_join);
    }

    #[test]
    fn partial_clade_aggregate_scans_only_its_interval() {
        let d = dataset();
        let mirror = ActivityColumns::build(&d).unwrap();
        let opt = Optimizer::new(OptimizerConfig::full());
        let naive = crate::exec::Executor::new(Optimizer::new(OptimizerConfig::naive()));
        let mut local = crate::exec::Executor::new(Optimizer::new(OptimizerConfig::full()));
        local.build_columnar(&d).unwrap();
        // Leaves P2..P3 span clades A and B, so the tightest clade is
        // the whole root but the interval is [1, 3): the scan folds only
        // the rows inside it, never a child's whole clade.
        // (Differential-oracle regression.)
        for metric in [
            Metric::Count,
            Metric::DistinctLigands,
            Metric::MeanPActivity,
            Metric::MaxPActivity,
        ] {
            let q =
                Query::activities(Scope::Leaves(vec!["P2".into(), "P3".into()])).aggregate(metric);
            let plan = opt.plan(&d, None, Some(&mirror), &q).unwrap();
            assert_eq!(plan.access, Access::ColumnarScan { pushdown: None });
            let r = local.execute(&d, &q).unwrap();
            assert_eq!(r.metrics.source_requests, 0, "{metric:?}");
            assert_eq!(r.rows, naive.execute(&d, &q).unwrap().rows, "{metric:?}");
        }
    }

    #[test]
    fn selectivity_ordering_reorders_residual() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let wide = Predicate::cmp("p_activity", CompareOp::Ge, 5.0);
        let narrow = Predicate::cmp("p_activity", CompareOp::Ge, 8.9);
        let q = Query::activities(Scope::Tree)
            .filter(wide.clone())
            .filter(narrow.clone());
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&d, Some(&stats), None, &q)
            .unwrap();
        match &plan.residual {
            Predicate::And(ps) => {
                assert_eq!(ps[0], narrow, "most selective first");
                assert_eq!(ps[1], wide);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cost_estimate_orders_plans_sanely() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let q = Query::activities(Scope::Tree);
        let naive = Optimizer::new(OptimizerConfig::naive())
            .plan(&d, Some(&stats), None, &q)
            .unwrap();
        let full = Optimizer::new(OptimizerConfig::full())
            .plan(&d, Some(&stats), None, &q)
            .unwrap();
        assert!(
            full.estimated_cost < naive.estimated_cost,
            "optimized estimate {:?} not below naive {:?}",
            full.estimated_cost,
            naive.estimated_cost
        );
    }

    #[test]
    fn ablation_helper() {
        for rule in crate::phases::ablatable_rules() {
            let c = OptimizerConfig::ablate(rule.name).unwrap();
            assert_ne!(
                c,
                OptimizerConfig::full(),
                "{} should change config",
                rule.name
            );
        }
        assert!(OptimizerConfig::ablate("no_such_rule").is_err());
        // Structural rules are registered but not ablatable.
        assert!(OptimizerConfig::ablate("interval_rewrite").is_err());
    }

    #[test]
    fn remote_form_translates_derived_columns() {
        // p_activity >= 8  <=>  value_nm <= 10 (widened by 1e-9).
        let p = Predicate::cmp("p_activity", CompareOp::Ge, 8.0);
        match remote_form(&p).unwrap() {
            Predicate::Compare { column, op, value } => {
                assert_eq!(column, "value_nm");
                assert_eq!(op, CompareOp::Le);
                let v = value.as_f64().unwrap();
                assert!((v - 10.0).abs() < 1e-6 && v >= 10.0, "got {v}");
            }
            other => panic!("{other:?}"),
        }
        // Between flips and swaps bounds.
        let p = Predicate::between("p_activity", 6.0, 8.0);
        match remote_form(&p).unwrap() {
            Predicate::Between { column, lo, hi } => {
                assert_eq!(column, "value_nm");
                assert!(lo.as_f64().unwrap() < hi.as_f64().unwrap());
                assert!((lo.as_f64().unwrap() - 10.0).abs() < 1e-6);
                assert!((hi.as_f64().unwrap() - 1000.0).abs() < 1e-3);
            }
            other => panic!("{other:?}"),
        }
        // Equality on a derived float is never pushed.
        assert!(remote_form(&Predicate::eq("p_activity", 8.0)).is_none());
        // Local-only coordinates are never pushed.
        assert!(remote_form(&Predicate::eq("leaf_rank", 3i64)).is_none());
        // Ligand columns are never pushed.
        assert!(remote_form(&Predicate::cmp("mw", CompareOp::Lt, 500.0)).is_none());
        // Native remote columns pass through unchanged.
        let p = Predicate::eq("year", 2012i64);
        assert_eq!(remote_form(&p).unwrap(), p);
    }

    #[test]
    fn ablate_unknown_rule_is_an_error() {
        match OptimizerConfig::ablate("warp-drive") {
            Err(QueryError::UnknownRule(rule)) => assert_eq!(rule, "warp-drive"),
            other => panic!("expected UnknownRule, got {other:?}"),
        }
    }

    #[test]
    fn cost_based_plan_enumerates_candidates_and_picks_minimum() {
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let q = Query::activities(Scope::Tree);
        let plan = Optimizer::new(OptimizerConfig::cost_based())
            .plan(&d, Some(&stats), None, &q)
            .unwrap();
        assert!(!plan.candidates.is_empty(), "candidates must be recorded");
        let access: Vec<&PlanCandidate> = plan
            .candidates
            .iter()
            .filter(|c| c.group == "access")
            .collect();
        assert_eq!(access.iter().filter(|c| c.chosen).count(), 1);
        let chosen = access.iter().find(|c| c.chosen).unwrap();
        for c in &access {
            assert!(c.cost_secs.is_finite() && c.cost_secs >= 0.0);
            assert!(chosen.cost_secs <= c.cost_secs, "chosen must be minimal");
        }
        // Same result shape as the fixed pipeline: still a cache probe
        // over batched concurrent fetches on this dataset.
        assert!(matches!(plan.access, Access::CacheProbe { .. }));
        assert!(plan.estimated_rows > 0);
    }

    #[test]
    fn fixed_pipeline_emits_no_candidates() {
        let d = dataset();
        let q = Query::activities(Scope::Tree);
        let plan = Optimizer::new(OptimizerConfig::full())
            .plan(&d, None, None, &q)
            .unwrap();
        assert!(plan.candidates.is_empty());
    }

    #[test]
    fn calibrated_cost_model_steers_plan_estimates() {
        use crate::cost::CostParams;
        let d = dataset();
        let stats = OverlayStats::collect(&d).unwrap();
        let q = Query::activities(Scope::Tree);
        let opt = Optimizer::new(OptimizerConfig::cost_based());
        let model = CostModel::new();
        let prior_plan = opt
            .plan_with(&d, Some(&stats), None, Some(&model), &q)
            .unwrap();
        // Teach the model that assay-sim is 10x the prior's round trip.
        let slow = CostParams {
            rtt_secs: CostParams::prior().rtt_secs * 10.0,
            per_row_secs: CostParams::prior().per_row_secs,
        };
        for (reqs, rows) in [(1u64, 10u64), (2, 50), (1, 200), (3, 30)] {
            let obs = crate::cost::secs_to_duration(slow.price(reqs, rows));
            model.observe("assay-sim", reqs, rows, obs, Duration::from_millis(1));
        }
        let calibrated_plan = opt
            .plan_with(&d, Some(&stats), None, Some(&model), &q)
            .unwrap();
        assert!(
            calibrated_plan.estimated_cost > prior_plan.estimated_cost,
            "calibration must raise the estimate for a slow source: {:?} vs {:?}",
            calibrated_plan.estimated_cost,
            prior_plan.estimated_cost
        );
    }
}
