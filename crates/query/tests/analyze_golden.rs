//! Golden EXPLAIN ANALYZE tests: the analyzed rendering embeds the
//! plain EXPLAIN text unchanged (so the goldens in `explain_golden.rs`
//! remain the contract for tooling that parses plans) and appends
//! `actual:` columns plus the per-stage trace. Everything is timed on
//! the virtual clock with the jitter-free test latency model, so the
//! full rendering is deterministic and can be pinned byte-for-byte.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_query::dataset::test_fixtures::small_dataset;
use drugtree_query::{Executor, Optimizer, OptimizerConfig, Query, Scope, Stage};
use drugtree_store::expr::{CompareOp, Predicate};
use std::time::Duration;

fn full_caps() -> drugtree_sources::source::SourceCapabilities {
    drugtree_sources::source::SourceCapabilities::full()
}

/// The same reference query the EXPLAIN goldens pin.
fn year_query() -> Query {
    Query::activities(Scope::Subtree("cladeA".into())).filter(Predicate::cmp(
        "year",
        CompareOp::Ge,
        2012i64,
    ))
}

fn full_executor(d: &drugtree_query::Dataset) -> Executor {
    let mut e = Executor::new(Optimizer::new(OptimizerConfig::full()));
    e.collect_stats(d).unwrap();
    e
}

/// The cold-cache analyze golden. The fixed-mode estimator prices the
/// fetch off the same jitter-free latency model the fetch then runs
/// against, so estimate and actual agree exactly and the rendered
/// relative error is 0.00.
#[test]
fn golden_full_analyze() {
    let d = small_dataset(full_caps());
    let e = full_executor(&d);
    let analyzed = e.analyze(&d, &year_query()).unwrap();
    assert_eq!(
        analyzed.render(),
        "\
Plan: scope=n1 interval=[0, 2) pruned_leaves=0 est_cost=12ms est_rows=2 | actual: cost=12ms rows=2 err=0.00
  CacheProbe pushdown=year >= 2012 insert_on_miss=true | actual: miss
    miss-> SourceFetch source=assay-sim keys=2 pushdown=year >= 2012 batched=true max_batch=100 concurrent=true est_cost=12ms est_rows=2 | actual: cost=12ms rows=2 requests=1
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
  Trace:
    query: actual=12ms est=12ms
      plan: actual=0ns est=12ms candidates=0
        plan phase analyze: actual=0ns passes=2 changed=2
        plan phase canonicalize: actual=0ns passes=1 changed=0
        plan phase optimize: actual=0ns passes=2 changed=4
        plan phase lower: actual=0ns passes=2 changed=5
      cache-probe miss: actual=0ns
      fetch assay-sim: actual=12ms est=12ms rows=2 requests=1 keys=2 retries=0
      overlay: actual=0ns rows_in=2 rows_out=2
      finish collect: actual=0ns rows=2
"
    );
    assert_eq!(analyzed.access_error(), Some(0.0));
    assert_eq!(analyzed.trace.cache_hit, Some(false));
    assert_eq!(analyzed.result.rows.len(), 2);
    // The embedded EXPLAIN text is byte-identical to the plain plan
    // rendering: strip the appended columns and the trace block.
    let embedded: String = analyzed
        .render()
        .lines()
        .take_while(|l| l.trim_start() != "Trace:")
        .map(|l| l.split(" | actual:").next().unwrap())
        .fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        });
    assert_eq!(embedded, analyzed.plan.explain());
}

/// On a warm cache the access estimate (which prices the miss path)
/// has no observed counterpart: no error column, fetch lines marked
/// not executed, probe marked hit.
#[test]
fn analyze_on_cache_hit() {
    let d = small_dataset(full_caps());
    let e = full_executor(&d);
    e.execute(&d, &year_query()).unwrap();
    let analyzed = e.analyze(&d, &year_query()).unwrap();
    assert_eq!(analyzed.trace.cache_hit, Some(true));
    assert_eq!(analyzed.access_error(), None);
    assert_eq!(analyzed.trace.access_cost, Duration::ZERO);
    let text = analyzed.render();
    assert!(text.contains("(cache hit)"), "{text}");
    assert!(
        text.contains("CacheProbe") && text.contains("| actual: hit"),
        "{text}"
    );
    assert!(text.contains("| actual: not executed"), "{text}");
    assert_eq!(analyzed.trace.stage_total(Stage::Fetch), Duration::ZERO);
}

/// The acceptance gate shared with experiment E12: a calibrated
/// cost-based plan's estimate-vs-actual error, as EXPLAIN ANALYZE
/// reports it, stays under the 0.20 calibration ceiling.
#[test]
fn calibrated_analyze_error_under_ceiling() {
    const CALIBRATED_ERROR_CEILING: f64 = 0.20;

    let d = small_dataset(full_caps());
    let mut e = Executor::new(Optimizer::new(OptimizerConfig::cost_based()));
    e.collect_stats(&d).unwrap();
    // Calibration warmup: repeated cold executions feed observed fetch
    // latencies into the cost model.
    let q = Query::activities(Scope::Tree);
    for _ in 0..4 {
        e.invalidate();
        e.execute(&d, &q).unwrap();
    }
    e.invalidate();
    let analyzed = e.analyze(&d, &q).unwrap();
    let err = analyzed.access_error().expect("cold run has access cost");
    assert!(
        err < CALIBRATED_ERROR_CEILING,
        "calibrated estimate error {err:.3} vs actual {:?} (est {:?})",
        analyzed.trace.access_cost,
        analyzed.plan.estimated_cost
    );
    let text = analyzed.render();
    assert!(text.contains("| actual: cost="), "{text}");
    assert!(
        text.contains("Candidate ["),
        "cost-based plan renders candidates: {text}"
    );
}

/// Deterministic replay: analyzing the same query from the same state
/// yields an identical trace rendering (virtual clock, zero jitter).
#[test]
fn analyze_is_deterministic() {
    let render_once = || {
        let d = small_dataset(full_caps());
        let e = full_executor(&d);
        e.analyze(&d, &year_query()).unwrap().render()
    };
    assert_eq!(render_once(), render_once());
}
