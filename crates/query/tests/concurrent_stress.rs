//! Tier-1 concurrency stress: 8 OS threads hammer one shared executor
//! with mixed query streams, and every result must match a
//! single-threaded replay of the same streams on a fresh executor of
//! the same configuration. Divergence means the shared semantic cache
//! corrupted a result under contention; the replay also pins the
//! cache accounting (`hits + misses == probes`).
//!
//! Run with: `cargo test -p drugtree-query --test concurrent_stress`

// Test code: panicking on a malformed fixture is the right failure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use drugtree_chem::affinity::{ActivityRecord, ActivityType};
use drugtree_integrate::overlay::OverlayBuilder;
use drugtree_phylo::index::{LeafInterval, TreeIndex};
use drugtree_phylo::newick::parse_newick;
use drugtree_query::ast::Metric;
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

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 200;
const LEAVES: usize = 24;

// ---------------------------------------------------------------------
// Deterministic PRNG (xorshift64*), as in the differential oracle.
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
// Deterministic 24-leaf dataset: balanced binary tree, 6 ligands,
// globally distinct value_nm so top-k never ties.
// ---------------------------------------------------------------------

fn balanced_newick(labels: &[String]) -> String {
    if labels.len() == 1 {
        return format!("{}:1", labels[0]);
    }
    let mid = labels.len() / 2;
    format!(
        "({},{}):1",
        balanced_newick(&labels[..mid]),
        balanced_newick(&labels[mid..])
    )
}

const LIGANDS: [(&str, &str, &str); 6] = [
    ("L0", "aspirin", "CC(=O)Oc1ccccc1C(=O)O"),
    ("L1", "ethanol", "CCO"),
    ("L2", "caffeine", "Cn1cnc2c1c(=O)n(C)c(=O)n2C"),
    ("L3", "benzene", "c1ccccc1"),
    ("L4", "propane", "CCC"),
    ("L5", "ethylamine", "CCN"),
];

fn build_dataset() -> Dataset {
    let labels: Vec<String> = (0..LEAVES).map(|i| format!("P{i}")).collect();
    let newick = format!("{};", balanced_newick(&labels));
    let tree = parse_newick(&newick).expect("valid newick");
    let index = TreeIndex::build(&tree);

    let proteins: Vec<ProteinRecord> = labels
        .iter()
        .map(|acc| ProteinRecord {
            accession: acc.clone(),
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
    for (rank, acc) in labels.iter().enumerate() {
        if rank % 11 == 4 {
            continue; // statistics pruning fodder
        }
        for (l, (ligand, _, _)) in LIGANDS.iter().enumerate() {
            if (rank * 5 + l * 3) % 7 >= 4 {
                continue;
            }
            let exp = f64::from(counter) * 0.05;
            acts.push(ActivityRecord {
                protein_accession: acc.clone(),
                ligand_id: (*ligand).into(),
                activity_type: ActivityType::ALL[(rank + l) % ActivityType::ALL.len()],
                value_nm: 10f64.powf(exp),
                source: "chembl-sim".into(),
                year: 2004 + ((rank * 3 + l * 5) % 12) as u16,
            });
            counter += 1;
        }
    }
    assert!(acts.len() >= 60, "dataset holds {} activities", acts.len());

    let overlay = OverlayBuilder::new(&tree, &index)
        .build(&proteins, &ligands, &[])
        .expect("overlay builds");

    // max_batch 6 forces multi-chunk batched fetches over wide scopes.
    let caps = SourceCapabilities {
        eq_pushdown: true,
        range_pushdown: true,
        max_batch: 6,
    };
    let latency = LatencyModel {
        base_rtt: Duration::from_millis(10),
        per_row: Duration::from_millis(1),
        per_row_scanned: Duration::ZERO,
        jitter: 0.0,
        seed: 0,
    };
    let mut registry = SourceRegistry::new();
    registry
        .register(Arc::new(
            assay_source("assay-a", &acts, caps, latency).expect("source"),
        ))
        .expect("register");

    Dataset::new(tree, index, overlay, registry, VirtualClock::new()).expect("dataset")
}

// ---------------------------------------------------------------------
// Mixed query streams, one independent seed per thread.
// ---------------------------------------------------------------------

fn gen_query(rng: &mut XorShift) -> Query {
    let scope = match rng.below(6) {
        0 => Scope::Tree,
        1 | 2 => {
            let lo = rng.below(LEAVES as u64) as u32;
            let hi = lo + 1 + rng.below(LEAVES as u64 - u64::from(lo)) as u32;
            Scope::Interval(LeafInterval { lo, hi })
        }
        3 | 4 => {
            // Aligned power-of-two intervals: many threads request the
            // exact same clades, the shared-cache hot path.
            let span = 1u32 << rng.below(4);
            let lo = (rng.below(LEAVES as u64) as u32 / span) * span;
            LeafInterval {
                lo,
                hi: (lo + span).min(LEAVES as u32),
            }
            .into_scope()
        }
        _ => Scope::Leaves(vec![format!("P{}", rng.below(LEAVES as u64))]),
    };
    let mut q = Query::activities(scope);
    for _ in 0..rng.below(3) {
        q = q.filter(match rng.below(4) {
            0 => Predicate::cmp("p_activity", CompareOp::Ge, rng.f64_in(4.0, 8.0)),
            1 => Predicate::cmp("year", CompareOp::Ge, 2004 + rng.below(12) as i64),
            2 => Predicate::eq("ligand_id", LIGANDS[rng.below(6) as usize].0),
            _ => Predicate::eq(
                "activity_type",
                ActivityType::ALL[rng.below(4) as usize].label(),
            ),
        });
    }
    match rng.below(8) {
        0..=3 => {}
        4 | 5 => {
            let by = if rng.chance(50) {
                "p_activity"
            } else {
                "value_nm"
            };
            q = q.top_k(by, 1 + rng.below(8) as usize, rng.chance(50));
        }
        6 => {
            let metric = [
                Metric::Count,
                Metric::DistinctLigands,
                Metric::MaxPActivity,
                Metric::MeanPActivity,
            ][rng.below(4) as usize];
            q = q.aggregate(metric);
        }
        _ => q.kind = drugtree_query::ast::QueryKind::CountPerLeaf,
    }
    q
}

trait IntoScope {
    fn into_scope(self) -> Scope;
}

impl IntoScope for LeafInterval {
    fn into_scope(self) -> Scope {
        Scope::Interval(self)
    }
}

fn thread_stream(thread: usize) -> Vec<Query> {
    let mut rng = XorShift::new(0xC0FF_EE00 + thread as u64);
    (0..QUERIES_PER_THREAD)
        .map(|_| gen_query(&mut rng))
        .collect()
}

/// Round float cells (MeanPActivity sums in fetch order) and sort:
/// the finish operators define sets, not sequences.
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

fn shared_executor(dataset: &Dataset) -> Executor {
    let mut config = OptimizerConfig::full();
    config.validate = true;
    let mut exec = Executor::new(Optimizer::new(config));
    exec.collect_stats(dataset).expect("stats");
    exec
}

#[test]
fn eight_threads_match_single_threaded_replay() {
    let dataset = build_dataset();
    let streams: Vec<Vec<Query>> = (0..THREADS).map(thread_stream).collect();

    // Concurrent pass: all threads share one executor.
    let shared = Arc::new(shared_executor(&dataset));
    let mut concurrent: Vec<Vec<Vec<Vec<Value>>>> = Vec::with_capacity(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                let exec = Arc::clone(&shared);
                let dataset = &dataset;
                scope.spawn(move || {
                    stream
                        .iter()
                        .enumerate()
                        .map(|(i, q)| {
                            let r = exec.execute(dataset, q).unwrap_or_else(|e| {
                                panic!("thread {t} query #{i} `{q}` failed: {e}")
                            });
                            normalize(&r.rows)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            concurrent.push(h.join().expect("no thread panic"));
        }
    });

    // Accounting invariant: the cache's counters never lose a probe
    // under contention.
    let stats = shared.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        stats.probes,
        "cache accounting drifted: {stats:?}"
    );
    assert!(stats.probes > 0, "the streams exercised the cache");

    // Replay pass: same streams, same configuration, fresh executor,
    // strictly single-threaded, on a fresh dataset (private clock).
    let replay_dataset = build_dataset();
    let replay_exec = shared_executor(&replay_dataset);
    for (t, stream) in streams.iter().enumerate() {
        for (i, q) in stream.iter().enumerate() {
            let r = replay_exec
                .execute(&replay_dataset, q)
                .unwrap_or_else(|e| panic!("replay thread {t} query #{i} `{q}` failed: {e}"));
            assert_eq!(
                normalize(&r.rows),
                concurrent[t][i],
                "thread {t} query #{i} `{q}` diverges from single-threaded replay"
            );
        }
    }
}
