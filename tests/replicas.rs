//! Replica selection: when several sources hold the same data, the
//! optimizer serves the query from the cheapest one — and turning the
//! rule off only changes cost, never answers.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_sources::assay_db::assay_row;

fn replicated_bundle() -> SyntheticBundle {
    SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(64)
            .ligands(16)
            .seed(55)
            .assay_sources(3)
            .replicated(true),
    )
}

#[test]
fn cheapest_replica_serves_the_query() {
    let bundle = replicated_bundle();
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap();

    let plan = system.explain("activities in tree").unwrap();
    assert!(
        plan.contains("replica-selection: assay-0"),
        "fastest replica (assay-0) should be chosen:\n{plan}"
    );
    // Exactly one SourceFetch in the plan.
    assert_eq!(plan.matches("SourceFetch").count(), 1, "{plan}");

    system.query("activities in tree").unwrap();
    // Only the chosen replica saw traffic (beyond the builder's stats
    // scan, which touches everything).
    let requests = |name: &str| {
        system
            .dataset()
            .registry
            .by_name(name)
            .unwrap()
            .metrics()
            .requests
    };
    let baseline = requests("assay-1");
    assert_eq!(
        requests("assay-2"),
        baseline,
        "idle replicas saw only the stats scan"
    );
    assert!(
        requests("assay-0") > baseline,
        "chosen replica served the fetch"
    );
}

#[test]
fn replica_selection_changes_cost_not_answers() {
    let bundle = replicated_bundle();
    let with = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap();
    let without = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::ablate("replica_selection").expect("known rule"))
        .build()
        .unwrap();

    for text in [
        "activities in tree",
        "activities where p_activity >= 6.5",
        "aggregate count in tree",
    ] {
        let a = with.query(text).unwrap();
        let b = without.query(text).unwrap();
        let sorted = |mut rows: Vec<Vec<Value>>| {
            rows.sort();
            rows
        };
        assert_eq!(sorted(a.rows), sorted(b.rows), "{text}");
        assert!(
            a.metrics.virtual_cost <= b.metrics.virtual_cost,
            "{text}: selection {:?} should not exceed fetch-all {:?}",
            a.metrics.virtual_cost,
            b.metrics.virtual_cost
        );
    }
}

#[test]
fn partitioned_sources_are_unaffected_by_the_rule() {
    // Without declared replicas the rule must fetch every source.
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(64)
            .ligands(16)
            .seed(55)
            .assay_sources(3),
    );
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap();
    let plan = system.explain("activities in tree").unwrap();
    assert_eq!(plan.matches("SourceFetch").count(), 3, "{plan}");
    let r = system.query("activities in tree").unwrap();
    assert_eq!(r.rows.len(), bundle.activities.len());
}

#[test]
fn replicated_matview_does_not_double_count() {
    // A mirror built over replicas must count each record once, and
    // aggregate answers must match the fetch path's.
    let bundle = replicated_bundle();
    let with_mirror = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .with_columnar()
        .build()
        .unwrap();
    let without_mirror = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::ablate("columnar_scan").expect("known rule"))
        .build()
        .unwrap();
    let a = with_mirror.query("aggregate count in tree").unwrap();
    assert_eq!(a.metrics.source_requests, 0, "mirror must answer");
    let b = without_mirror.query("aggregate count in tree").unwrap();
    assert_eq!(a.rows, b.rows);
    // The per-clade counts sum to the true record count.
    let total: i64 = a.rows.iter().map(|r| r[3].as_int().unwrap()).sum();
    assert_eq!(total as usize, bundle.activities.len());
}

#[test]
fn cross_source_duplicate_is_counted_once_by_local_aggregates() {
    // Two partitioned sources, and an older copy of one record lands in
    // the second. The fetch path keeps only the most recent copy of a
    // (leaf, ligand, type) measurement, so the local aggregate store
    // must count it once too.
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(64)
            .ligands(8)
            .seed(505)
            .assay_sources(2),
    );
    let with_duplicate = || {
        let dataset = bundle.build_dataset();
        let mut older = bundle.activities[0].clone();
        older.year -= 1;
        dataset
            .registry
            .by_name("assay-1")
            .unwrap()
            .ingest(assay_row(&older))
            .unwrap();
        dataset
    };
    let naive = DrugTree::builder()
        .dataset(with_duplicate())
        .optimizer(OptimizerConfig::naive())
        .with_stats(false)
        .build()
        .unwrap();
    let local = DrugTree::builder()
        .dataset(with_duplicate())
        .with_columnar()
        .build()
        .unwrap();
    let text = "aggregate count in tree";
    let expected = naive.query(text).unwrap();
    let got = local.query(text).unwrap();
    assert_eq!(got.metrics.source_requests, 0, "answered locally");
    assert_eq!(expected.rows, got.rows);
}
