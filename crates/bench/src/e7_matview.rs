//! E7 (Table 3): local aggregate answers — build cost vs query speedup,
//! and staleness handling under source refresh.
//!
//! Paper-shape expectation: the columnar mirror answers per-clade
//! aggregates with zero source work and a few microseconds of kernel
//! time, so its build cost amortizes after a handful of aggregate
//! queries; after new remote depositions it is detected stale and a
//! rebuild restores service.

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_sources::assay_db::assay_row;
use drugtree_sources::source::SourceKind;
use drugtree_workload::queries::{class_stream, QueryClass, QueryWorkloadConfig};
use std::time::Duration;

/// Run E7.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, n_queries) = if config.quick { (64, 10) } else { (512, 60) };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 8)
            .seed(808),
    );
    let queries = class_stream(
        QueryClass::Aggregate,
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: n_queries,
            seed: 88,
            scope_theta: 0.8,
        },
    );

    let measure = |with_mirror: bool| -> (Duration, Duration) {
        let mut builder = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(if with_mirror {
                OptimizerConfig::full()
            } else {
                OptimizerConfig::ablate("columnar_scan").expect("known rule")
            });
        if with_mirror {
            builder = builder.with_columnar();
        }
        let system = builder.build().expect("builds");
        let latencies: Vec<Duration> = queries
            .iter()
            .map(|q| system.execute(q).expect("executes").metrics.virtual_cost)
            .collect();
        (mean(&latencies), latencies.iter().sum())
    };

    let (without_mean, without_total) = measure(false);
    let (with_mean, with_total) = measure(true);

    // Build cost measured directly.
    let system = DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .build()
        .expect("builds");
    let mirror = drugtree_query::ActivityColumns::build(system.dataset()).expect("mirror builds");
    let build_cost = mirror.build_cost;
    let fresh_before = mirror.is_fresh(system.dataset());

    // Simulate a remote deposition: the mirror must detect staleness.
    let assay = &system.dataset().registry.by_kind(SourceKind::Assay)[0];
    let new_record = drugtree_chem::affinity::ActivityRecord {
        protein_accession: "P0000".into(),
        ligand_id: "L0000".into(),
        activity_type: drugtree_chem::ActivityType::Ki,
        value_nm: 77.0,
        source: "late-deposition".into(),
        year: 2013,
    };
    assay
        .ingest(assay_row(&new_record))
        .expect("source accepts ingest");
    let fresh_after = mirror.is_fresh(system.dataset());

    let mut table = ExperimentTable::new(
        "E7 (Table 3)",
        format!("aggregates from the columnar mirror, {n_queries} aggregate queries"),
        vec!["metric", "value"],
    );
    // The kernel charge is microseconds: print it at that resolution.
    let fmt_us = |d: Duration| format!("{:.1}us", d.as_secs_f64() * 1e6);
    table.row(vec!["mirror build cost".into(), fmt_ms(build_cost)]);
    table.row(vec![
        "mean aggregate latency without mirror".into(),
        fmt_ms(without_mean),
    ]);
    table.row(vec![
        "mean aggregate latency with mirror".into(),
        fmt_us(with_mean),
    ]);
    let speedup = without_mean.as_secs_f64() / with_mean.as_secs_f64().max(1e-9);
    table.row(vec![
        "speedup".into(),
        if speedup > 1000.0 {
            ">1000x".into()
        } else {
            format!("{speedup:.0}x")
        },
    ]);
    let breakeven = (build_cost.as_secs_f64()
        / (without_mean.as_secs_f64() - with_mean.as_secs_f64()).max(1e-12))
    .ceil();
    table.row(vec![
        "break-even query count".into(),
        format!("{breakeven:.0}"),
    ]);
    table.row(vec![
        "workload total without/with mirror".into(),
        format!("{} / {}", fmt_ms(without_total), fmt_us(with_total)),
    ]);
    table.row(vec![
        "fresh before remote deposition".into(),
        fresh_before.to_string(),
    ]);
    table.row(vec![
        "fresh after remote deposition".into(),
        fresh_after.to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_wins_and_staleness_detected() {
        let t = run(RunConfig { quick: true });
        let find = |name: &str| -> String {
            t.rows
                .iter()
                .find(|r| r[0].contains(name))
                .unwrap_or_else(|| panic!("row {name} missing"))[1]
                .clone()
        };
        let speedup = find("speedup");
        let speedup: f64 = speedup
            .trim_start_matches('>')
            .trim_end_matches('x')
            .parse()
            .expect("parses");
        assert!(speedup > 5.0, "mirror speedup too small: {speedup}");
        assert_eq!(find("fresh before"), "true");
        assert_eq!(find("fresh after"), "false");
        let breakeven: f64 = find("break-even").parse().expect("parses");
        assert!((1.0..100.0).contains(&breakeven), "break-even {breakeven}");
    }
}
