//! Input generation and result checking shared by the workloads.

use drugtree::prelude::*;
use drugtree_chem::affinity::{ActivityRecord, ActivityType};
use drugtree_query::ast::QueryKind;
use drugtree_workload::assays::AssaySpec;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Seed of every workload's dataset: tree, ligands and activity
/// records. The dataset stays fixed so that runs with different
/// `--seed`s do not differ in its size. A random tree's few largest
/// clades set the tail of every tree-scoped workload, and the number of
/// activity records a seed draws varied by over 20% (16,625 to 20,686 at
/// 16,384 leaves), which moved every timing with it. `--seed` draws all
/// the traffic and the depositions.
pub const DATA_SEED: u64 = 2013;

/// The synthetic deployment of `leaves` leaves with about `per_leaf`
/// activity records per leaf. Most records are scattered off-target
/// ones; `per_leaf = 1` is the E2 rule for large trees.
pub fn spec(leaves: usize, per_leaf: f64) -> WorkloadSpec {
    let ligands = (leaves / 8).clamp(8, 64);
    let mut spec = WorkloadSpec::default()
        .leaves(leaves)
        .ligands(ligands)
        .seed(DATA_SEED);
    spec.assay = AssaySpec {
        hit_density: 0.9 * per_leaf.min(1.0),
        off_target_rate: per_leaf / (ligands as f64 * 0.75),
        empty_leaf_fraction: 0.25,
        seed: DATA_SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    };
    spec
}

/// The class of a query by its shape: similarity top-k, aggregate,
/// potency filter, or a plain listing (which navigation gestures are).
pub fn class_of(query: &Query) -> usize {
    if query.similarity.is_some() {
        2
    } else if matches!(
        query.kind,
        QueryKind::AggregateChildren { .. } | QueryKind::CountPerLeaf
    ) {
        3
    } else if query.predicate != Predicate::True {
        1
    } else {
        0
    }
}

/// A digest of a result that is equal for equal answers: columns plus
/// the sorted rows, or for top-k the sorted ranking keys, since plans
/// may break ties between equal keys differently.
pub fn digest(query: &Query, result: &QueryResult) -> u64 {
    let mut h = DefaultHasher::new();
    result.columns.hash(&mut h);
    match &query.kind {
        QueryKind::TopK { by, .. } => {
            let col = result.columns.iter().position(|c| c == by);
            let mut keys: Vec<&Value> = result
                .rows
                .iter()
                .filter_map(|r| col.and_then(|c| r.get(c)))
                .collect();
            keys.sort();
            keys.hash(&mut h);
        }
        _ => {
            let mut rows: Vec<&Vec<Value>> = result.rows.iter().collect();
            rows.sort();
            rows.hash(&mut h);
        }
    }
    h.finish()
}

/// SplitMix64: a small seeded generator for the benchmark's own
/// choices (which protein a deposition names).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5EED_DA7A)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// `count` new assay records, each more potent than every record
/// before it (the bundle's and the earlier depositions'), naming
/// proteins and ligands of the bundle.
pub fn depositions(bundle: &SyntheticBundle, count: usize, seed: u64) -> Vec<ActivityRecord> {
    let mut rng = SplitMix::new(seed);
    let base = bundle
        .activities
        .iter()
        .map(ActivityRecord::p_activity)
        .fold(f64::NEG_INFINITY, f64::max)
        .max(9.0);
    (0..count)
        .map(|k| {
            let p = base + 0.01 * (k + 1) as f64;
            ActivityRecord {
                protein_accession: bundle.proteins[rng.below(bundle.proteins.len())]
                    .accession
                    .clone(),
                ligand_id: bundle.ligands[rng.below(bundle.ligands.len())]
                    .ligand_id
                    .clone(),
                activity_type: ActivityType::Ki,
                value_nm: 10f64.powf(9.0 - p),
                source: "deposition".into(),
                year: 2013,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depositions_are_ever_more_potent_and_seeded() {
        let bundle = SyntheticBundle::generate(&spec(256, 1.0));
        let a = depositions(&bundle, 5, 3);
        assert_eq!(a, depositions(&bundle, 5, 3));
        let max = bundle
            .activities
            .iter()
            .map(ActivityRecord::p_activity)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut prev = max;
        for r in &a {
            assert!(r.p_activity() > prev);
            prev = r.p_activity();
        }
    }

    #[test]
    fn digests_ignore_row_order() {
        let bundle = SyntheticBundle::generate(&spec(256, 1.0));
        let system = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .build()
            .expect("builds");
        let q = Query::parse("activities in tree").expect("parses");
        let mut r = system.execute(&q).expect("executes");
        let d = digest(&q, &r);
        r.rows.reverse();
        assert_eq!(d, digest(&q, &r));
        r.rows.pop();
        assert_ne!(d, digest(&q, &r));
    }
}
