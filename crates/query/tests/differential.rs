//! Differential query oracle: the naive pipeline is the semantics.
//!
//! A deterministic generator (hand-rolled xorshift64* PRNG, no
//! external dependencies) produces several hundred queries spanning
//! every query class — activities, top-k, per-child aggregates,
//! per-leaf counts, with predicates, similarity, and substructure
//! constraints over every scope shape. Each query runs under
//! `OptimizerConfig::naive()` and under every single-rule-on config
//! plus the full config, and the normalized result sets must be
//! identical: optimizer rules may only change *how* rows are obtained,
//! never *which* rows come back. On divergence the test prints both
//! EXPLAIN outputs so the offending rewrite is immediately visible.
//!
//! Run with: `cargo test -p drugtree-query --test differential`

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_chem::affinity::{ActivityRecord, ActivityType};
use drugtree_integrate::overlay::OverlayBuilder;
use drugtree_phylo::index::{LeafInterval, TreeIndex};
use drugtree_phylo::newick::parse_newick;
use drugtree_query::ast::{Metric, QueryKind};
use drugtree_query::{Dataset, Executor, Optimizer, OptimizerConfig, Query, Scope};
use drugtree_sources::assay_db::assay_source;
use drugtree_sources::clock::VirtualClock;
use drugtree_sources::federation::SourceRegistry;
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::ligand_db::LigandRecord;
use drugtree_sources::protein_db::ProteinRecord;
use drugtree_sources::source::SourceCapabilities;
use drugtree_store::expr::{CompareOp, Predicate};
use drugtree_store::value::Value;
use std::sync::Arc;
use std::time::Duration;

/// Number of generated queries; the acceptance floor is 200.
const QUERIES: usize = 240;

// ---------------------------------------------------------------------
// Deterministic PRNG (xorshift64*): the oracle must replay identically
// offline, so no external randomness.
// ---------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

// ---------------------------------------------------------------------
// Deterministic dataset: 12 leaves, 6 ligands, ~40 activities with
// globally distinct value_nm (so top-k never ties) and globally unique
// (protein, ligand) pairs (so replica dedup never drops a real row).
// Leaves P4 and P9 carry no activities, giving statistics pruning
// something to prune. Two exact-copy replica sources exercise replica
// selection without changing result sets.
// ---------------------------------------------------------------------

const NEWICK: &str = "((((P0:1,P1:1)c0:1,(P2:1,P3:1)c1:1)c4:1,\
                      ((P4:1,P5:1)c2:1,(P6:1,P7:1)c3:1)c5:1)c6:1,\
                      ((P8:1,P9:1)c7:1,(P10:1,P11:1)c8:1)c9:1)root;";

const LEAVES: usize = 12;
const LEAF_LABELS: [&str; LEAVES] = [
    "P0", "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11",
];
const CLADE_LABELS: [&str; 11] = [
    "c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "root",
];
const LIGANDS: [(&str, &str, &str); 6] = [
    ("L0", "aspirin", "CC(=O)Oc1ccccc1C(=O)O"),
    ("L1", "ethanol", "CCO"),
    ("L2", "caffeine", "Cn1cnc2c1c(=O)n(C)c(=O)n2C"),
    ("L3", "benzene", "c1ccccc1"),
    ("L4", "propane", "CCC"),
    ("L5", "ethylamine", "CCN"),
];

fn latency(rtt_ms: u64) -> LatencyModel {
    LatencyModel {
        base_rtt: Duration::from_millis(rtt_ms),
        per_row: Duration::from_millis(1),
        per_row_scanned: Duration::ZERO,
        jitter: 0.0,
        seed: 0,
    }
}

fn build_dataset() -> Dataset {
    let tree = parse_newick(NEWICK).expect("valid newick");
    let index = TreeIndex::build(&tree);

    let proteins: Vec<ProteinRecord> = LEAF_LABELS
        .iter()
        .map(|acc| ProteinRecord {
            accession: (*acc).into(),
            name: format!("protein {acc}"),
            organism: "synthetic".into(),
            sequence: "MKVLAT".into(),
            gene: None,
        })
        .collect();
    let ligands: Vec<LigandRecord> = LIGANDS
        .iter()
        .map(|(id, name, smiles)| LigandRecord::from_smiles(*id, *name, *smiles).expect("valid"))
        .collect();

    let mut acts = Vec::new();
    let mut counter = 0u32;
    for (rank, acc) in LEAF_LABELS.iter().enumerate() {
        if rank == 4 || rank == 9 {
            continue; // statistics pruning fodder
        }
        for (l, (ligand, _, _)) in LIGANDS.iter().enumerate() {
            if (rank * 7 + l * 13) % 10 >= 6 {
                continue;
            }
            // Exponent spread over [0, 5): value_nm in [1 nM, 100 uM),
            // pActivity in (4, 9]; every value distinct.
            let exp = f64::from(counter) * 0.1;
            acts.push(ActivityRecord {
                protein_accession: (*acc).into(),
                ligand_id: (*ligand).into(),
                activity_type: ActivityType::ALL[(rank + l) % ActivityType::ALL.len()],
                value_nm: 10f64.powf(exp),
                source: if counter.is_multiple_of(2) {
                    "chembl-sim".into()
                } else {
                    "bindingdb-sim".into()
                },
                year: 2004 + ((rank * 3 + l * 5) % 12) as u16,
            });
            counter += 1;
        }
    }
    assert!(acts.len() >= 35, "dataset holds {} activities", acts.len());

    let overlay = OverlayBuilder::new(&tree, &index)
        .build(&proteins, &ligands, &[])
        .expect("overlay builds");

    // max_batch 5 forces multi-chunk batched fetches over 10 keys.
    let caps = SourceCapabilities {
        eq_pushdown: true,
        range_pushdown: true,
        max_batch: 5,
    };
    let mut registry = SourceRegistry::new();
    registry
        .register(Arc::new(
            assay_source("assay-a", &acts, caps, latency(10)).expect("source"),
        ))
        .expect("register");
    registry
        .register(Arc::new(
            assay_source("assay-b", &acts, caps, latency(25)).expect("source"),
        ))
        .expect("register");
    registry
        .declare_replicas(vec!["assay-a".into(), "assay-b".into()])
        .expect("replica group");

    Dataset::new(tree, index, overlay, registry, VirtualClock::new()).expect("dataset")
}

// ---------------------------------------------------------------------
// Query generation.
// ---------------------------------------------------------------------

fn gen_scope(rng: &mut XorShift) -> Scope {
    match rng.below(10) {
        0..=2 => Scope::Tree,
        3..=5 => {
            let all: Vec<&str> = CLADE_LABELS
                .iter()
                .chain(LEAF_LABELS.iter())
                .copied()
                .collect();
            Scope::Subtree(all[rng.below(all.len() as u64) as usize].into())
        }
        6 | 7 => {
            let lo = rng.below(LEAVES as u64 + 1) as u32;
            let hi = lo + rng.below(LEAVES as u64 + 1 - u64::from(lo)) as u32;
            Scope::Interval(LeafInterval { lo, hi })
        }
        _ => {
            let n = 1 + rng.below(3) as usize;
            Scope::Leaves(
                (0..n)
                    .map(|_| LEAF_LABELS[rng.below(LEAVES as u64) as usize].into())
                    .collect(),
            )
        }
    }
}

fn gen_conjunct(rng: &mut XorShift) -> Predicate {
    match rng.below(8) {
        0 => Predicate::cmp("p_activity", CompareOp::Ge, rng.f64_in(4.0, 9.0)),
        1 => {
            let lo = rng.f64_in(4.0, 7.5);
            Predicate::between("p_activity", lo, lo + 1.5)
        }
        2 => Predicate::cmp("year", CompareOp::Ge, 2004 + rng.below(12) as i64),
        3 => {
            let t = ActivityType::ALL[rng.below(4) as usize];
            Predicate::eq("activity_type", t.label())
        }
        4 => Predicate::cmp("mw", CompareOp::Lt, rng.f64_in(40.0, 400.0)),
        5 => Predicate::cmp("value_nm", CompareOp::Le, 10f64.powf(rng.f64_in(0.0, 5.0))),
        6 => Predicate::eq(
            "source",
            if rng.chance(50) {
                "chembl-sim"
            } else {
                "bindingdb-sim"
            },
        ),
        _ => Predicate::eq("ligand_id", LIGANDS[rng.below(6) as usize].0),
    }
}

fn gen_query(rng: &mut XorShift) -> Query {
    let mut q = Query::activities(gen_scope(rng));
    for _ in 0..rng.below(3) {
        q = q.filter(gen_conjunct(rng));
    }
    match rng.below(8) {
        0..=2 => {}
        3 | 4 => {
            // Distinct-valued columns only, so the selected set is
            // unique and set comparison is exact.
            let by = if rng.chance(50) {
                "p_activity"
            } else {
                "value_nm"
            };
            q = q.top_k(by, 1 + rng.below(10) as usize, rng.chance(50));
        }
        5 | 6 => {
            let metric = [
                Metric::Count,
                Metric::DistinctLigands,
                Metric::MaxPActivity,
                Metric::MeanPActivity,
            ][rng.below(4) as usize];
            q = q.aggregate(metric);
        }
        _ => q.kind = QueryKind::CountPerLeaf,
    }
    if rng.chance(12) {
        let reference = if rng.chance(60) {
            LIGANDS[rng.below(6) as usize].0.to_string()
        } else {
            "CCO".to_string()
        };
        q = q.similar_to(reference, rng.f64_in(0.1, 0.9));
    }
    if rng.chance(12) {
        let pattern = ["CCO", "c1ccccc1", "CC", "L2"][rng.below(4) as usize];
        q = q.containing(pattern);
    }
    q
}

/// The oracle's query stream: fixed seed, so every differential test
/// (single-threaded rule sweep, concurrent serving) replays the exact
/// same `QUERIES` queries.
fn generated_queries() -> Vec<Query> {
    let mut rng = XorShift::new(0x5EED_D1FF);
    (0..QUERIES).map(|_| gen_query(&mut rng)).collect()
}

// ---------------------------------------------------------------------
// Normalization: row order is not part of query semantics (the finish
// operators define sets / multisets), and MeanPActivity sums floats in
// fetch order, so float cells are rounded to 9 decimal places before
// comparison to absorb summation-order jitter.
// ---------------------------------------------------------------------

fn normalize(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => Value::Float((f * 1e9).round() / 1e9),
                    other => other.clone(),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

fn single_rule_configs() -> Vec<(String, OptimizerConfig)> {
    drugtree_query::phases::ablatable_rules()
        .map(|rule| {
            let mut c = OptimizerConfig::naive();
            let toggle = rule.toggle.expect("ablatable rules carry a toggle");
            toggle(&mut c, true);
            (format!("only-{}", rule.name), c)
        })
        .collect()
}

#[test]
fn optimizer_rules_preserve_query_semantics() {
    let dataset = build_dataset();

    // Persistent executor per config: the semantic cache accumulates
    // across the stream, so cache *reuse* (not just first-miss inserts)
    // is under differential test.
    let mut baseline_cfg = OptimizerConfig::naive();
    baseline_cfg.validate = true;
    let mut baseline = Executor::new(Optimizer::new(baseline_cfg));
    baseline.collect_stats(&dataset).expect("stats");

    let mut candidates: Vec<(String, Executor)> = Vec::new();
    let mut configs = single_rule_configs();
    configs.push(("full".into(), OptimizerConfig::full()));
    // The cost-based planner must be result-equivalent to the rule
    // pipeline on every generated query: plan choice may only move
    // latency, never rows. Executing the whole workload also calibrates
    // the cost model mid-run, so later queries exercise plans priced
    // with fitted (not prior) parameters.
    configs.push(("cost-based".into(), OptimizerConfig::cost_based()));
    for (name, mut config) in configs {
        config.validate = true;
        let mut exec = Executor::new(Optimizer::new(config));
        exec.collect_stats(&dataset).expect("stats");
        exec.build_columnar(&dataset).expect("columnar");
        candidates.push((name, exec));
    }

    let mut by_kind = [0usize; 4];
    let mut divergences = Vec::new();
    for (i, query) in generated_queries().iter().enumerate() {
        by_kind[match query.kind {
            QueryKind::Activities => 0,
            QueryKind::TopK { .. } => 1,
            QueryKind::AggregateChildren { .. } => 2,
            QueryKind::CountPerLeaf => 3,
        }] += 1;

        let expected = baseline
            .execute(&dataset, query)
            .unwrap_or_else(|e| panic!("query #{i} `{query}` failed under naive: {e}"));
        let expected_rows = normalize(&expected.rows);

        for (name, exec) in &candidates {
            let got = exec
                .execute(&dataset, query)
                .unwrap_or_else(|e| panic!("query #{i} `{query}` failed under {name}: {e}"));
            let got_rows = normalize(&got.rows);
            if got_rows != expected_rows {
                let naive_explain = baseline
                    .explain(&dataset, query)
                    .unwrap_or_else(|e| e.to_string());
                let cand_explain = exec
                    .explain(&dataset, query)
                    .unwrap_or_else(|e| e.to_string());
                divergences.push(format!(
                    "query #{i} `{query}` diverges under {name}:\n\
                     naive rows:     {expected_rows:?}\n\
                     {name} rows: {got_rows:?}\n\
                     --- naive EXPLAIN ---\n{naive_explain}\
                     --- {name} EXPLAIN ---\n{cand_explain}"
                ));
            }
        }
    }

    assert!(
        divergences.is_empty(),
        "{} divergence(s):\n\n{}",
        divergences.len(),
        divergences.join("\n\n")
    );
    const { assert!(QUERIES >= 200, "acceptance floor") };
    assert!(
        by_kind.iter().all(|&n| n > 0),
        "generator covered all query classes: {by_kind:?}"
    );
}

/// The concurrent path is under the same oracle: the full query stream
/// split round-robin across 4 OS threads sharing one `Arc<Executor>`
/// (one semantic cache behind one lock) must return exactly what the
/// single-threaded naive baseline returns for every query. This is
/// the end-to-end guarantee that sharing the cache across threads only
/// changes *how many round-trips* are paid, never the rows.
#[test]
fn concurrent_shared_executor_matches_naive_baseline() {
    const THREADS: usize = 4;
    let dataset = build_dataset();

    let mut baseline_cfg = OptimizerConfig::naive();
    baseline_cfg.validate = true;
    let mut baseline = Executor::new(Optimizer::new(baseline_cfg));
    baseline.collect_stats(&dataset).expect("stats");

    let queries = generated_queries();
    let expected: Vec<Vec<Vec<Value>>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let r = baseline
                .execute(&dataset, q)
                .unwrap_or_else(|e| panic!("query #{i} `{q}` failed under naive: {e}"));
            normalize(&r.rows)
        })
        .collect();

    let mut config = OptimizerConfig::full();
    config.validate = true;
    let mut exec = Executor::new(Optimizer::new(config));
    exec.collect_stats(&dataset).expect("stats");
    // No columnar mirror here on purpose: a fresh mirror answers every
    // interval scope locally, and this test's subject is the shared
    // *fetch* path (shared cache, source round-trips) under
    // concurrency — the columnar path is differentially tested above.
    let exec = Arc::new(exec);

    let mut source_requests = 0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let exec = Arc::clone(&exec);
                let dataset = &dataset;
                let queries = &queries;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, q) in queries.iter().enumerate().skip(t).step_by(THREADS) {
                        let r = exec.execute(dataset, q).unwrap_or_else(|e| {
                            panic!("query #{i} `{q}` failed under concurrent serving: {e}")
                        });
                        mine.push((i, normalize(&r.rows), r.metrics.source_requests));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, rows, requests) in h.join().expect("no thread panic") {
                source_requests += requests;
                assert_eq!(
                    rows, expected[i],
                    "query #{i} `{}` diverges under concurrent shared serving",
                    queries[i]
                );
            }
        }
    });

    // Concurrency must not corrupt the cache accounting either.
    let stats = exec.cache_stats();
    assert_eq!(stats.hits + stats.misses, stats.probes);
    assert!(
        source_requests > 0,
        "the concurrent stream reached the sources"
    );
}
