//! `deposit`: writes beside reads. A closed-loop stream of mixed-class
//! reads with low scope skew, with one deposition after every twenty
//! reads: `Source::ingest` of a new assay record, then
//! `DrugTree::refresh()`.

use crate::explore::{cache_layers, query_layers, Limit, ESTIMATE, EXECUTE};
use crate::report::{median, percentile, tail, tail_mean, Report};
use crate::wrap::wrap_sources;
use crate::speed::{self, Scaler};
use crate::{inputs, passes, trace, Config};
use drugtree::prelude::*;
use drugtree_chem::affinity::ActivityRecord;
use drugtree_query::cache::CacheConfig;
use drugtree_sources::assay_db::assay_row;
use drugtree_sources::source::{DataSource, SourceKind};
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};
use std::sync::Arc;
use std::time::Instant;

/// Activity records per leaf, on average.
const RECORDS_PER_LEAF: f64 = 1.0;
const LEAVES: usize = 16_384;
const SCOPE_THETA: f64 = 0.3;
const READS_PER_WRITE: usize = 20;
/// Reads generated per run; the traced run starts over when it gets
/// through them (the depositions keep changing the answers).
const POOL: usize = 4000;
/// Operations in every untraced pass: all the reads and the
/// depositions between and after them.
const OPS: usize = POOL + POOL / READS_PER_WRITE;
const DEPOSITIONS: usize = 1000;
/// Every `CHECK_EVERY`-th read is checked against the naive plan, as
/// is the first read after each deposition.
const CHECK_EVERY: usize = 5;
/// Depositions whose scope is probed for a stale answer between ingest
/// and refresh, in the traced run.
const STALE_PROBES: usize = 50;

struct Inputs {
    bundle: SyntheticBundle,
    reads: Vec<Query>,
    depositions: Vec<ActivityRecord>,
}

struct Pass {
    ops: usize,
    walls_ms: Vec<f64>,
    /// `walls_ms` scaled to the reference speed (see `speed.rs`).
    scaled_ms: Vec<f64>,
    /// Speed-gauge readings taken between operations, in microseconds.
    gauge_us: Vec<f64>,
    writes_ms: Vec<f64>,
    modeled_ms: Vec<f64>,
    checked: usize,
    stale: usize,
    probes: usize,
}

pub fn run(config: &Config) -> Report {
    let bundle = SyntheticBundle::generate(&inputs::spec(LEAVES, RECORDS_PER_LEAF));
    let reads = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: POOL,
            seed: config.seed,
            scope_theta: SCOPE_THETA,
        },
    );
    let depositions = inputs::depositions(&bundle, DEPOSITIONS, config.seed);
    let inputs = Inputs {
        bundle,
        reads,
        depositions,
    };
    let mut report = Report::new();
    if config.trace {
        run_traced(config, &inputs, &mut report);
    } else {
        run_untraced(config, &inputs, &mut report);
    }
    report
}

fn build(bundle: &SyntheticBundle, wrapped: bool) -> Result<DrugTree, String> {
    let mut dataset = bundle.build_dataset();
    if wrapped {
        wrap_sources(&mut dataset).map_err(|e| e.to_string())?;
    }
    DrugTree::builder()
        .dataset(dataset)
        .with_columnar()
        .build()
        .map_err(|e| e.to_string())
}

fn assay(system: &DrugTree) -> Result<Arc<dyn DataSource>, String> {
    system
        .dataset()
        .registry
        .by_kind(SourceKind::Assay)
        .into_iter()
        .next()
        .ok_or_else(|| "no assay source".to_string())
}

fn run_untraced(config: &Config, inputs: &Inputs, report: &mut Report) {
    let mut setups = Vec::new();
    let mut first: Option<(Pass, f64)> = None;
    let mut raw: Vec<Vec<f64>> = Vec::new();
    let mut gauge_us: Vec<f64> = Vec::new();
    let passes = passes::repeat(config.seconds, || {
        let before = speed::read();
        let t = Instant::now();
        let mut system = match build(&inputs.bundle, false) {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("set-up failed: {e}"));
                return None;
            }
        };
        let setup = t.elapsed().as_secs_f64();
        setups.push(setup * speed::factor(before, speed::read()));
        let mut pass = measure(&mut system, inputs, Limit::Ops(OPS), false, report);
        let scaled = std::mem::take(&mut pass.scaled_ms);
        raw.push(std::mem::take(&mut pass.walls_ms));
        gauge_us.append(&mut pass.gauge_us);
        match &first {
            None => first = Some((pass, crate::report::peak_rss_mb())),
            Some((f, _)) if f.modeled_ms != pass.modeled_ms => {
                report.fail("modeled latencies differ between two passes of one seed");
            }
            Some(_) => {}
        }
        Some(scaled)
    });
    let Some((pass, rss)) = first else {
        return;
    };
    let (Some(per_op), Some(raw)) = (
        passes::median_per_op(&passes),
        passes::median_per_op(&raw),
    ) else {
        report.fail("an operation failed in some passes and not in others");
        return;
    };
    let (op_tail, op_note) = tail(&per_op);
    let (modeled_tail, modeled_note) = tail_mean(&pass.modeled_ms);
    let n = per_op.len() as f64;
    let how = format!(
        "{} operations ({} writes), median of {} passes each; unscaled {:.6}, gauge median {:.1} us",
        per_op.len(),
        pass.writes_ms.len(),
        passes.len(),
        n / (raw.iter().sum::<f64>() / 1e3),
        median(&gauge_us)
    );
    report.set(
        "setup_s",
        median(&setups),
        format!("median of {} set-ups", setups.len()),
    );
    report.set("ops_per_s", n / (per_op.iter().sum::<f64>() / 1e3), how);
    report.set(
        "op_p50_ms",
        median(&per_op),
        format!("unscaled {:.6}", median(&raw)),
    );
    report.set("op_p99_ms", op_tail, op_note);
    report.set(
        "modeled_p50_ms",
        median(&pass.modeled_ms),
        "virtual clock, reads",
    );
    report.set("modeled_tail_ms", modeled_tail, modeled_note);
    report.set("peak_rss_mb", rss, "VmHWM after the first pass");
}

fn run_traced(config: &Config, inputs: &Inputs, report: &mut Report) {
    let plain = match build(&inputs.bundle, false) {
        Ok(mut system) => measure(
            &mut system,
            inputs,
            Limit::Seconds(config.seconds / 2.0),
            false,
            report,
        ),
        Err(e) => {
            report.fail(format!("set-up failed: {e}"));
            return;
        }
    };
    setup_steps(&inputs.bundle, report);
    let mut system = match build(&inputs.bundle, true) {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("set-up failed: {e}"));
            return;
        }
    };
    let cache_before = system.executor().cache_stats();
    trace::set_enabled(true);
    let traced = measure(&mut system, inputs, Limit::Ops(plain.ops), true, report);
    trace::set_enabled(false);
    let cache_after = system.executor().cache_stats();
    let spans = trace::drain();
    crate::write_trace(config, &spans);

    query_layers(&spans, traced.ops, report);
    cache_layers(cache_before, cache_after, traced.ops, report);
    let ms = |name: &str| -> Vec<f64> {
        trace::durations(&spans, name)
            .into_iter()
            .map(|v| v / 1e6)
            .collect()
    };
    let refresh = ms("refresh");
    report.set(
        "refresh.p50_ms",
        median(&refresh),
        format!("{} refreshes", refresh.len()),
    );
    let (p, v) = percentile(&refresh, 0.99);
    report.set("refresh.p99_ms", v, format!("p{:.1}", p * 100.0));
    report.set(
        "write.p50_ms",
        median(&traced.writes_ms),
        "ingest until refresh returns",
    );
    let (p, v) = percentile(&traced.writes_ms, 0.99);
    report.set(
        "write.p99_ms",
        v,
        format!("p{:.1} of {}", p * 100.0, traced.writes_ms.len()),
    );
    let ingest: Vec<f64> = ms("sources.ingest").into_iter().map(|v| v * 1e3).collect();
    report.set("sources.ingest_us", median(&ingest), "Source::ingest, p50");
    report.set(
        "freshness.stale_reads",
        traced.stale as f64,
        format!(
            "{} of {} probes between ingest and refresh disagreed with the naive plan",
            traced.stale, traced.probes
        ),
    );
    let plain_ms: f64 = plain.walls_ms.iter().sum();
    let traced_ms: f64 = traced.walls_ms.iter().sum();
    report.set(
        "trace.overhead_share",
        traced_ms / plain_ms - 1.0,
        format!(
            "same {} operations: {:.0} ms untraced vs {:.0} ms traced, which adds an estimate call per read",
            traced.ops, plain_ms, traced_ms
        ),
    );
}

/// Time the set-up steps by driving the executor directly.
fn setup_steps(bundle: &SyntheticBundle, report: &mut Report) {
    let t = Instant::now();
    let dataset = bundle.build_dataset();
    report.set(
        "setup.dataset_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "build_dataset",
    );
    let mut executor = Executor::with_cache_config(
        Optimizer::new(OptimizerConfig::full()),
        CacheConfig::default(),
    );
    let t = Instant::now();
    if let Err(e) = executor.collect_stats(&dataset) {
        report.fail(format!("collect_stats: {e}"));
    }
    report.set(
        "setup.stats_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "Executor::collect_stats",
    );
    let t = Instant::now();
    if let Err(e) = executor.build_columnar(&dataset) {
        report.fail(format!("build_columnar: {e}"));
    }
    report.set(
        "setup.columnar_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "Executor::build_columnar",
    );
}

/// Run operations: reads, with a deposition after every
/// `READS_PER_WRITE` of them. Sampled reads, and the first read after
/// each deposition, are checked against a naive-config executor over
/// the same dataset, so it sees every deposition too; the check is not
/// timed. With `probe`, the deposited record's clade is also queried on
/// both between ingest and refresh.
fn measure(
    system: &mut DrugTree,
    inputs: &Inputs,
    limit: Limit,
    probe: bool,
    report: &mut Report,
) -> Pass {
    let mut pass = Pass {
        ops: 0,
        walls_ms: Vec::new(),
        scaled_ms: Vec::new(),
        gauge_us: Vec::new(),
        writes_ms: Vec::new(),
        modeled_ms: Vec::new(),
        checked: 0,
        stale: 0,
        probes: 0,
    };
    let source = match assay(system) {
        Ok(s) => s,
        Err(e) => {
            report.fail(e);
            return pass;
        }
    };
    let naive = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    let mut scaler = Scaler::new();
    let started = Instant::now();
    let (mut reads, mut writes) = (0usize, 0usize);
    let mut after_write = false;
    loop {
        let more = match limit {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Limit::Ops(n) => pass.ops < n,
        };
        if !more {
            break;
        }
        report.attempted += 1;
        pass.ops += 1;
        if reads > 0 && reads % READS_PER_WRITE == 0 && writes < reads / READS_PER_WRITE {
            let k = writes % inputs.depositions.len();
            writes += 1;
            let record = &inputs.depositions[k];
            let op_span = trace::root("deposit.write");
            let t = Instant::now();
            let ingested = source.ingest(assay_row(record));
            let ingest = t.elapsed();
            if probe && ingested.is_ok() && pass.probes < STALE_PROBES {
                let _s = trace::span("freshness.probe");
                pass.probes += 1;
                match stale_probe(system, &naive, &inputs.bundle, record) {
                    Ok(true) => pass.stale += 1,
                    Ok(false) => {}
                    Err(e) => report.fail(e),
                }
            }
            let t = Instant::now();
            let refreshed = {
                let _s = trace::span("refresh");
                system.refresh()
            };
            let wall_ms = (ingest + t.elapsed()).as_secs_f64() * 1e3;
            drop(op_span);
            match (ingested, refreshed) {
                (Ok(()), Ok(())) => {
                    pass.walls_ms.push(wall_ms);
                    scaler.push(wall_ms);
                    pass.writes_ms.push(wall_ms);
                    after_write = true;
                }
                (Err(e), _) => report.fail(format!("ingest: {e}")),
                (_, Err(e)) => report.fail(format!("refresh: {e}")),
            }
            continue;
        }
        let i = reads % inputs.reads.len();
        reads += 1;
        let query = &inputs.reads[i];
        let class = inputs::class_of(query);
        let op_span = trace::root("deposit.read");
        let t = Instant::now();
        if trace::enabled() {
            let _s = trace::span(ESTIMATE[class]);
            if let Err(e) = system.executor().estimate(system.dataset(), query) {
                report.fail(format!("estimate {query}: {e}"));
            }
        }
        let result = {
            let mut s = trace::span(EXECUTE[class]);
            let r = system.execute(query);
            if let Ok(r) = &r {
                s.set_count(r.metrics.source_requests as u64);
            }
            r
        };
        let wall = t.elapsed();
        drop(op_span);
        match result {
            Ok(r) => {
                pass.walls_ms.push(wall.as_secs_f64() * 1e3);
                scaler.push(wall.as_secs_f64() * 1e3);
                pass.modeled_ms
                    .push(r.metrics.virtual_cost.as_secs_f64() * 1e3);
                if after_write || i.is_multiple_of(CHECK_EVERY) {
                    pass.checked += 1;
                    let got = inputs::digest(query, &r);
                    drop(r);
                    match naive.execute(system.dataset(), query) {
                        Ok(want) if inputs::digest(query, &want) == got => {}
                        Ok(_) => {
                            report.fail(format!("answer differs from the naive plan: {query}"))
                        }
                        Err(e) => report.fail(format!("naive plan failed on {query}: {e}")),
                    }
                }
                after_write = false;
            }
            Err(e) => report.fail(format!("execute {query}: {e}")),
        }
    }
    (pass.scaled_ms, pass.gauge_us) = scaler.finish();
    println!(
        "checked {} sampled answers against the naive plan",
        pass.checked
    );
    pass
}

/// After a deposition is ingested and before refresh: ask both
/// executors for records in the deposited protein's clade more potent
/// than every earlier record. True when the answers differ.
fn stale_probe(
    system: &DrugTree,
    naive: &Executor,
    bundle: &SyntheticBundle,
    record: &ActivityRecord,
) -> Result<bool, String> {
    let leaf = bundle
        .index
        .by_label(&record.protein_accession)
        .map_err(|e| e.to_string())?;
    let clade = bundle
        .tree
        .node_unchecked(leaf)
        .parent
        .and_then(|p| bundle.tree.node_unchecked(p).label.clone());
    let scope = clade.map_or(Scope::Tree, Scope::Subtree);
    let previous_max = record.p_activity() - 0.005;
    let query =
        Query::activities(scope).filter(Predicate::cmp("p_activity", CompareOp::Gt, previous_max));
    let got = system
        .execute(&query)
        .map_err(|e| format!("probe {query}: {e}"))?;
    let want = naive
        .execute(system.dataset(), &query)
        .map_err(|e| format!("naive probe {query}: {e}"))?;
    Ok(inputs::digest(&query, &got) != inputs::digest(&query, &want))
}
