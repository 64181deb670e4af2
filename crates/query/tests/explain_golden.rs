//! Golden EXPLAIN tests: the rendered plan text is the contract
//! between `OptimizerConfig` and the rest of the system (experiment
//! logs, the differential oracle's divergence reports, DESIGN.md
//! walkthroughs all quote it). Two exact-text goldens pin the full and
//! naive renderings, and one test per optimizer rule asserts that
//! toggling exactly that rule changes exactly the plan text it owns.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_chem::affinity::ActivityType;
use drugtree_query::ast::Metric;
use drugtree_query::dataset::test_fixtures::{small_dataset, test_latency};
use drugtree_query::plan::PhysicalPlan;
use drugtree_query::stats::OverlayStats;
use drugtree_query::{ActivityColumns, Dataset, Optimizer, OptimizerConfig, Query, Scope};
use drugtree_store::expr::{CompareOp, Predicate};
use std::time::Duration;

/// Plan over collected statistics and, when `mirror` is set, a
/// columnar mirror of `d`.
fn planned_over(d: &Dataset, mirror: bool, config: OptimizerConfig, q: &Query) -> PhysicalPlan {
    let stats = OverlayStats::collect(d).expect("stats");
    let mirror = mirror.then(|| ActivityColumns::build(d).expect("mirror"));
    Optimizer::new(config)
        .plan(d, Some(&stats), mirror.as_ref(), q)
        .expect("plans")
}

/// Plan on the fetch path (no mirror), the subject of most goldens.
fn planned(d: &Dataset, config: OptimizerConfig, q: &Query) -> PhysicalPlan {
    planned_over(d, false, config, q)
}

fn full_caps() -> drugtree_sources::source::SourceCapabilities {
    drugtree_sources::source::SourceCapabilities::full()
}

/// The reference query for fetch-path goldens: a subtree scope with a
/// pushable integer conjunct (kept integer so the rendered predicate
/// text has no float noise).
fn year_query() -> Query {
    Query::activities(Scope::Subtree("cladeA".into())).filter(Predicate::cmp(
        "year",
        CompareOp::Ge,
        2012i64,
    ))
}

#[test]
fn golden_full_explain() {
    let d = small_dataset(full_caps());
    let plan = planned(&d, OptimizerConfig::full(), &year_query());
    assert_eq!(
        plan.explain(),
        "\
Plan: scope=n1 interval=[0, 2) pruned_leaves=0 est_cost=12ms est_rows=2
  CacheProbe pushdown=year >= 2012 insert_on_miss=true
    miss-> SourceFetch source=assay-sim keys=2 pushdown=year >= 2012 batched=true max_batch=100 concurrent=true est_cost=12ms est_rows=2
  Residual: year >= 2012
  LigandJoin
  Collect
  # interval-rewrite: scope -> [0, 2)
  # selectivity-ordering: residual conjuncts reordered
  # pushdown: year >= 2012
  # batching: keyed lookups coalesced
  RuleTrace analyze/1: interval_rewrite=changed similarity_resolve=n/a substructure_resolve=n/a column_discovery=changed
  RuleTrace analyze/2: interval_rewrite=no-change similarity_resolve=n/a substructure_resolve=n/a column_discovery=no-change
  RuleTrace canonicalize/1: canon_nnf=no-change canon_flatten=no-change canon_fold=no-change canon_between=no-change canon_dedup=no-change
  RuleTrace optimize/1: selectivity_ordering=changed stats_pruning=no-change pushdown=changed cardinality_estimate=changed replica_selection=n/a columnar_scan=n/a semantic_cache=changed
  RuleTrace optimize/2: selectivity_ordering=no-change stats_pruning=no-change pushdown=no-change cardinality_estimate=no-change replica_selection=n/a columnar_scan=n/a semantic_cache=no-change
  RuleTrace lower/1: batching=changed concurrent_dispatch=changed lower_fetches=changed access_select=changed finish_build=changed
  RuleTrace lower/2: batching=no-change concurrent_dispatch=no-change lower_fetches=no-change access_select=no-change finish_build=no-change
"
    );
}

#[test]
fn golden_naive_explain() {
    let d = small_dataset(full_caps());
    let plan = planned(&d, OptimizerConfig::naive(), &year_query());
    assert_eq!(
        plan.explain(),
        "\
Plan: scope=n1 interval=[0, 2) pruned_leaves=0 est_cost=23ms est_rows=3
  Fetch concurrent_sources=false
    SourceFetch source=assay-sim keys=2 pushdown=- batched=false max_batch=1 concurrent=false est_cost=23ms est_rows=3
  Residual: year >= 2012
  LigandJoin
  Collect
  # interval-rewrite: scope -> [0, 2)
  RuleTrace analyze/1: interval_rewrite=changed similarity_resolve=n/a substructure_resolve=n/a column_discovery=changed
  RuleTrace analyze/2: interval_rewrite=no-change similarity_resolve=n/a substructure_resolve=n/a column_discovery=no-change
  RuleTrace canonicalize/1: canon_nnf=off canon_flatten=off canon_fold=off canon_between=off canon_dedup=off
  RuleTrace optimize/1: selectivity_ordering=off stats_pruning=off pushdown=off cardinality_estimate=changed replica_selection=off columnar_scan=off semantic_cache=off
  RuleTrace optimize/2: selectivity_ordering=off stats_pruning=off pushdown=off cardinality_estimate=no-change replica_selection=off columnar_scan=off semantic_cache=off
  RuleTrace lower/1: batching=off concurrent_dispatch=off lower_fetches=changed access_select=changed finish_build=changed
  RuleTrace lower/2: batching=off concurrent_dispatch=off lower_fetches=no-change access_select=no-change finish_build=no-change
"
    );
}

/// EXPLAIN under `full()` and under `ablate(rule)` for a query.
fn toggled(d: &Dataset, rule: &str, q: &Query) -> (String, String) {
    let on = planned(d, OptimizerConfig::full(), q).explain();
    let off = planned(d, OptimizerConfig::ablate(rule).expect("known rule"), q).explain();
    (on, off)
}

#[test]
fn toggle_pushdown() {
    let d = small_dataset(full_caps());
    let (on, off) = toggled(&d, "pushdown", &year_query());
    assert!(on.contains("pushdown=year >= 2012"), "{on}");
    assert!(on.contains("# pushdown: year >= 2012"), "{on}");
    assert!(off.contains("pushdown=-"), "{off}");
    assert!(!off.contains("# pushdown"), "{off}");
}

#[test]
fn toggle_batching() {
    let d = small_dataset(full_caps());
    let (on, off) = toggled(&d, "batching", &year_query());
    assert!(on.contains("batched=true max_batch=100"), "{on}");
    assert!(on.contains("# batching: keyed lookups coalesced"), "{on}");
    assert!(off.contains("batched=false max_batch=1"), "{off}");
    assert!(!off.contains("# batching"), "{off}");
}

#[test]
fn toggle_concurrent_dispatch() {
    let d = small_dataset(full_caps());
    let (on, off) = toggled(&d, "concurrent_dispatch", &year_query());
    assert!(on.contains("concurrent=true"), "{on}");
    assert!(off.contains("concurrent=false"), "{off}");
    assert!(!off.contains("concurrent=true"), "{off}");
}

#[test]
fn toggle_stats_pruning() {
    let d = small_dataset(full_caps());
    // Only P3 (1 nM -> p = 9) clears the bound; the other three leaves
    // are pruned by per-leaf count/max statistics.
    let q = Query::activities(Scope::Tree).filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.5));
    let (on, off) = toggled(&d, "stats_pruning", &q);
    assert!(on.contains("pruned_leaves=3"), "{on}");
    assert!(on.contains("# stats-pruning: 3 leaves dropped"), "{on}");
    assert!(on.contains("keys=1"), "{on}");
    assert!(off.contains("pruned_leaves=0"), "{off}");
    assert!(off.contains("keys=4"), "{off}");
    assert!(!off.contains("# stats-pruning"), "{off}");
}

#[test]
fn toggle_semantic_cache() {
    let d = small_dataset(full_caps());
    let (on, off) = toggled(&d, "semantic_cache", &year_query());
    assert!(on.contains("CacheProbe"), "{on}");
    assert!(on.contains("insert_on_miss=true"), "{on}");
    assert!(off.contains("Fetch concurrent_sources=true"), "{off}");
    assert!(!off.contains("CacheProbe"), "{off}");
}

#[test]
fn toggle_selectivity_ordering() {
    let d = small_dataset(full_caps());
    let q = Query::activities(Scope::Tree)
        .filter(Predicate::cmp("p_activity", CompareOp::Ge, 5.0))
        .filter(Predicate::cmp("p_activity", CompareOp::Ge, 8.9));
    let (on, off) = toggled(&d, "selectivity_ordering", &q);
    assert!(
        on.contains("# selectivity-ordering: residual conjuncts reordered"),
        "{on}"
    );
    assert!(!off.contains("# selectivity-ordering"), "{off}");
}

#[test]
fn toggle_columnar_scan() {
    let d = small_dataset(full_caps());
    let q = Query::activities(Scope::Tree).aggregate(Metric::Count);
    let on = planned_over(&d, true, OptimizerConfig::full(), &q).explain();
    let off = planned_over(
        &d,
        true,
        OptimizerConfig::ablate("columnar_scan").expect("known rule"),
        &q,
    )
    .explain();
    assert!(
        on.contains("ColumnarScan kernels=range-slice+filter pushdown=-"),
        "{on}"
    );
    assert!(
        on.contains("# columnar-scan: interval [0, 4) served by vectorized kernels"),
        "{on}"
    );
    assert!(!off.contains("ColumnarScan"), "{off}");
    assert!(off.contains("AggregateChildren metric=count"), "{off}");
}

/// A two-leaf dataset with a declared replica pair: `assay-near`
/// (10 ms RTT) and `assay-far` (80 ms RTT) carrying identical records.
/// The shared fixture has a single source; replica selection needs a
/// declared group, with one member measurably slower.
fn replica_dataset() -> Dataset {
    use drugtree_chem::affinity::ActivityRecord;
    use drugtree_integrate::overlay::OverlayBuilder;
    use drugtree_phylo::index::TreeIndex;
    use drugtree_phylo::newick::parse_newick;
    use drugtree_sources::assay_db::assay_source;
    use drugtree_sources::clock::VirtualClock;
    use drugtree_sources::federation::SourceRegistry;
    use drugtree_sources::ligand_db::LigandRecord;
    use drugtree_sources::protein_db::ProteinRecord;
    use std::sync::Arc;

    let tree = parse_newick("(P1:1,P2:1)root;").expect("newick");
    let index = TreeIndex::build(&tree);
    let proteins: Vec<ProteinRecord> = ["P1", "P2"]
        .iter()
        .map(|acc| ProteinRecord {
            accession: (*acc).into(),
            name: format!("protein {acc}"),
            organism: "synthetic".into(),
            sequence: "MKVLAT".into(),
            gene: None,
        })
        .collect();
    let ligands = vec![LigandRecord::from_smiles("L1", "ethanol", "CCO").expect("smiles")];
    let acts = vec![ActivityRecord {
        protein_accession: "P1".into(),
        ligand_id: "L1".into(),
        activity_type: ActivityType::Ki,
        value_nm: 10.0,
        source: "sim".into(),
        year: 2012,
    }];
    let overlay = OverlayBuilder::new(&tree, &index)
        .build(&proteins, &ligands, &[])
        .expect("overlay");
    let mut registry = SourceRegistry::new();
    let mut slow = test_latency();
    slow.base_rtt = Duration::from_millis(80);
    registry
        .register(Arc::new(
            assay_source("assay-near", &acts, full_caps(), test_latency()).expect("source"),
        ))
        .expect("register");
    registry
        .register(Arc::new(
            assay_source("assay-far", &acts, full_caps(), slow).expect("source"),
        ))
        .expect("register");
    registry
        .declare_replicas(vec!["assay-near".into(), "assay-far".into()])
        .expect("group");
    Dataset::new(tree, index, overlay, registry, VirtualClock::new()).expect("dataset")
}

#[test]
fn toggle_replica_selection() {
    let d = replica_dataset();
    let q = Query::activities(Scope::Tree);
    let (on, off) = toggled(&d, "replica_selection", &q);
    assert!(
        on.contains("# replica-selection: assay-near chosen from"),
        "{on}"
    );
    assert!(on.contains("source=assay-near"), "{on}");
    assert!(!on.contains("source=assay-far"), "{on}");
    assert!(off.contains("source=assay-near"), "{off}");
    assert!(off.contains("source=assay-far"), "{off}");
    assert!(!off.contains("# replica-selection"), "{off}");
}

/// The cost-based plan-choice golden: after calibration reveals that
/// `assay-near` (the fixed heuristic's pick — 10 ms declared RTT vs
/// 80 ms) actually costs 200 ms per round trip plus 1 ms per row, the
/// planner routes the fetch to `assay-far`, still priced at the prior.
/// Every enumerated candidate appears in the rendering with its
/// estimate.
#[test]
fn golden_cost_based_explain() {
    use drugtree_query::cost::CostModel;
    use drugtree_query::stats::OverlayStats;

    let d = replica_dataset();
    let model = CostModel::new();
    // Four observations whose exact least-squares fit is 200 ms RTT +
    // 1 ms/row for assay-near (estimates passed here only feed the
    // error tracker, which this golden does not render).
    for (reqs, rows, obs_ms) in [
        (1u64, 10u64, 210u64),
        (2, 50, 450),
        (1, 200, 400),
        (3, 30, 630),
    ] {
        model.observe(
            "assay-near",
            reqs,
            rows,
            Duration::from_millis(obs_ms),
            Duration::ZERO,
        );
    }

    let stats = OverlayStats::collect(&d).expect("stats");
    let plan = Optimizer::new(OptimizerConfig::cost_based())
        .plan_with(
            &d,
            Some(&stats),
            None,
            Some(&model),
            &Query::activities(Scope::Tree),
        )
        .expect("plans");
    assert_eq!(
        plan.explain(),
        "\
Plan: scope=n0 interval=[0, 2) pruned_leaves=1 est_cost=50.02ms est_rows=1
  CacheProbe pushdown=- insert_on_miss=true
    miss-> SourceFetch source=assay-far keys=1 pushdown=- batched=true max_batch=100 concurrent=true est_cost=50.02ms est_rows=1
  Candidate [replica:assay-near] assay-near: est_cost=201ms est_rows=1
  Candidate [replica:assay-near] assay-far: est_cost=50.02ms est_rows=1 (chosen)
  Candidate [access] batched-fetch: est_cost=50.02ms est_rows=1 (chosen)
  Candidate [access] per-key-fetch: est_cost=50.02ms est_rows=1
  Candidate [cache] cache-probe: est_cost=50.02ms est_rows=1 (chosen)
  Candidate [cache] direct: est_cost=50.02ms est_rows=1
  Residual: true
  LigandJoin
  Collect
  # interval-rewrite: scope -> [0, 2)
  # selectivity-ordering: residual conjuncts reordered
  # stats-pruning: 1 leaves dropped
  # replica-selection: assay-far chosen from [\"assay-near\", \"assay-far\"]
  # cost-based: access=batched-fetch est=50.02ms est_rows=1
  RuleTrace analyze/1: interval_rewrite=changed similarity_resolve=n/a substructure_resolve=n/a column_discovery=changed
  RuleTrace analyze/2: interval_rewrite=no-change similarity_resolve=n/a substructure_resolve=n/a column_discovery=no-change
  RuleTrace canonicalize/1: canon_nnf=no-change canon_flatten=no-change canon_fold=no-change canon_between=no-change canon_dedup=no-change
  RuleTrace optimize/1: selectivity_ordering=changed stats_pruning=changed pushdown=n/a cardinality_estimate=changed replica_selection=changed columnar_scan=n/a semantic_cache=changed
  RuleTrace optimize/2: selectivity_ordering=no-change stats_pruning=no-change pushdown=n/a cardinality_estimate=no-change replica_selection=no-change columnar_scan=n/a semantic_cache=no-change
  RuleTrace lower/1: batching=n/a concurrent_dispatch=changed lower_fetches=n/a access_select=changed finish_build=changed
  RuleTrace lower/2: batching=n/a concurrent_dispatch=no-change lower_fetches=n/a access_select=no-change finish_build=no-change
"
    );
}
