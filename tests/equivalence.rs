//! The golden optimizer-correctness test: **every optimizer
//! configuration must return exactly the naive plan's results** for
//! every query in a generated workload. Optimizations may only change
//! *cost*, never *answers*.

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree::prelude::*;
use drugtree_query::ast::QueryKind;
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};

fn sorted_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Rank-insensitive comparison for top-k: equal-key rows may tie-break
/// differently between plans, so compare the multiset of ranking keys
/// instead of exact rows.
fn topk_keys(rows: &[Vec<Value>], column: usize) -> Vec<Value> {
    let mut keys: Vec<Value> = rows.iter().map(|r| r[column].clone()).collect();
    keys.sort();
    keys
}

#[test]
fn all_optimizer_configs_agree_with_naive() {
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(96).ligands(24).seed(17));
    let queries = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: 48,
            seed: 23,
            scope_theta: 0.8,
        },
    );

    // Reference: the naive executor.
    let naive = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::naive())
        .with_stats(false)
        .build()
        .unwrap();

    // Challengers: full, plus each single-rule ablation, each with its
    // own dataset/cache so runs are independent. They run without the
    // columnar mirror, so every fetch-rule ablation stays on the fetch
    // path; `full+mirror` covers the local answers.
    let mut challengers = vec![
        ("full".to_string(), OptimizerConfig::full(), false),
        ("full+mirror".to_string(), OptimizerConfig::full(), true),
    ];
    for rule in drugtree_query::phases::ablatable_rules() {
        challengers.push((
            format!("full-minus-{}", rule.name),
            OptimizerConfig::ablate(rule.name).expect("known rule"),
            false,
        ));
    }

    for (name, config, mirror) in challengers {
        let mut builder = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(config);
        if mirror {
            builder = builder.with_columnar();
        }
        let challenger = builder.build().unwrap();
        for (i, query) in queries.iter().enumerate() {
            let expected = naive.execute(query).unwrap();
            let got = challenger.execute(query).unwrap();
            assert_eq!(
                expected.columns, got.columns,
                "[{name}] query {i} columns differ: {query:?}"
            );
            match &query.kind {
                QueryKind::TopK { by, .. } => {
                    let col = expected.columns.iter().position(|c| c == by).unwrap();
                    assert_eq!(
                        topk_keys(&expected.rows, col),
                        topk_keys(&got.rows, col),
                        "[{name}] query {i} top-k keys differ: {query:?}"
                    );
                }
                _ => {
                    assert_eq!(
                        sorted_rows(expected.rows.clone()),
                        sorted_rows(got.rows.clone()),
                        "[{name}] query {i} rows differ: {query:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn repeated_execution_is_idempotent_under_caching() {
    let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(64).ligands(16));
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .unwrap();
    let queries = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: 24,
            seed: 31,
            scope_theta: 1.2,
        },
    );
    // First pass warms the cache; second pass must return identical
    // answers (many now from the cache).
    let first: Vec<_> = queries
        .iter()
        .map(|q| system.execute(q).unwrap().rows)
        .collect();
    let second: Vec<_> = queries
        .iter()
        .map(|q| system.execute(q).unwrap().rows)
        .collect();
    assert_eq!(first, second);
    assert!(
        system.report().cache.hits > 0,
        "second pass should hit the cache"
    );
}

#[test]
fn multi_source_partitioning_is_transparent() {
    // The same records served by 1 source or split across 4 must give
    // identical query answers.
    let one = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(64)
            .ligands(16)
            .assay_sources(1),
    );
    let four = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(64)
            .ligands(16)
            .assay_sources(4),
    );
    assert_eq!(one.activities, four.activities);

    let sys_one = DrugTree::builder()
        .dataset(one.build_dataset())
        .build()
        .unwrap();
    let sys_four = DrugTree::builder()
        .dataset(four.build_dataset())
        .build()
        .unwrap();
    for text in [
        "activities in tree",
        "activities where p_activity >= 6.5",
        "aggregate count in tree",
        "count per leaf in tree",
    ] {
        let a = sorted_rows(sys_one.query(text).unwrap().rows);
        let b = sorted_rows(sys_four.query(text).unwrap().rows);
        assert_eq!(a, b, "{text}");
    }
}

#[test]
fn local_aggregates_match_naive_bit_for_bit() {
    // At this size and seed, summing p_activity in source order instead
    // of leaf-rank order moves the tree-scope mean in its last bits, so
    // a local answer store must fold rows in rank order exactly as the
    // fetch path does. Compared with `==`: no float rounding.
    let bundle =
        SyntheticBundle::generate(&WorkloadSpec::default().leaves(256).ligands(32).seed(808));
    let naive = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::naive())
        .with_stats(false)
        .build()
        .unwrap();
    let local = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .with_columnar()
        .build()
        .unwrap();
    for scope in ["tree", "subtree('clade1')"] {
        for metric in [
            "count",
            "distinct_ligands",
            "max_p_activity",
            "mean_p_activity",
        ] {
            let text = format!("aggregate {metric} in {scope}");
            let expected = naive.query(&text).unwrap();
            let got = local.query(&text).unwrap();
            assert_eq!(got.metrics.source_requests, 0, "{text}: answered locally");
            assert_eq!(expected.columns, got.columns, "{text}");
            assert_eq!(expected.rows, got.rows, "{text}");
        }
    }
}
