//! E4 (Table 2): optimizer rule ablation.
//!
//! Paper-shape expectation: every rule contributes; batching and the
//! semantic cache dominate on fetch-heavy federated workloads.

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_query::optimizer::OptimizerConfig as OC;
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};
use std::time::Duration;

/// Run E4.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, n_queries) = if config.quick { (64, 16) } else { (512, 120) };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 8)
            .seed(505)
            .assay_sources(2),
    );
    let queries = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: n_queries,
            seed: 77,
            scope_theta: 1.0,
        },
    );

    let measure = |cfg: OC| -> (Duration, f64) {
        let system = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(cfg)
            .build()
            .expect("system builds");
        let mut latencies = Vec::with_capacity(queries.len());
        let mut requests = 0usize;
        for q in &queries {
            let r = system.execute(q).expect("executes");
            latencies.push(r.metrics.virtual_cost);
            requests += r.metrics.source_requests;
        }
        (mean(&latencies), requests as f64 / queries.len() as f64)
    };

    let mut table = ExperimentTable::new(
        "E4 (Table 2)",
        format!("rule ablation over a {n_queries}-query mixed workload, 2 sources"),
        vec![
            "configuration",
            "mean latency",
            "reqs/query",
            "slowdown vs full",
        ],
    );

    let (full_latency, full_reqs) = measure(OC::full());
    table.row(vec![
        "full".into(),
        fmt_ms(full_latency),
        format!("{full_reqs:.2}"),
        "1.0x".into(),
    ]);
    for rule in drugtree_query::phases::ablatable_rules() {
        let rule = rule.name;
        let (latency, reqs) = measure(OC::ablate(rule).expect("known rule"));
        table.row(vec![
            format!("full - {rule}"),
            fmt_ms(latency),
            format!("{reqs:.2}"),
            format!(
                "{:.1}x",
                latency.as_secs_f64() / full_latency.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    let (naive_latency, naive_reqs) = measure(OC::naive());
    table.row(vec![
        "naive (all off)".into(),
        fmt_ms(naive_latency),
        format!("{naive_reqs:.2}"),
        format!(
            "{:.1}x",
            naive_latency.as_secs_f64() / full_latency.as_secs_f64().max(1e-9)
        ),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_is_worst_full_is_best() {
        let t = run(RunConfig { quick: true });
        let slowdown =
            |row: &Vec<String>| -> f64 { row[3].trim_end_matches('x').parse().expect("parses") };
        let full = slowdown(&t.rows[0]);
        let naive = slowdown(t.rows.last().expect("naive row"));
        assert_eq!(full, 1.0);
        assert!(naive > 2.0, "naive should be much slower: {naive}");
        // Every ablation is at least as slow as full.
        for row in &t.rows[1..t.rows.len() - 1] {
            assert!(slowdown(row) >= 0.9, "{row:?}");
        }
    }
}
