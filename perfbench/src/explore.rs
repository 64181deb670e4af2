//! `explore`: one analyst in a closed loop on a large tree. A mobile
//! session mixes navigation gestures with analysis queries typed as
//! text, over a system with the columnar mirror and the aggregate view
//! built.

use crate::report::{median, percentile, tail, tail_mean, Report};
use crate::wrap::wrap_sources;
use crate::speed::{self, Scaler};
use crate::{inputs, passes, trace, Config};
use drugtree::prelude::*;
use drugtree_mobile::session::{GestureStep, QueryOutcome};
use drugtree_query::cache::CacheConfig;
use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Activity records per leaf, on average.
const RECORDS_PER_LEAF: f64 = 1.0;
const LEAVES: usize = 16_384;
const SCOPE_THETA: f64 = 0.8;
/// Operations generated per run (half navigation gestures, half typed
/// analysis queries). Every untraced pass runs all of them; the traced
/// run starts over when it gets through them.
const POOL: usize = 4000;
/// Every `CHECK_EVERY`-th query-bearing operation is checked against
/// the naive plan, up to `MAX_CHECKS`.
const CHECK_EVERY: usize = 3;
const MAX_CHECKS: usize = 60;

pub const ESTIMATE: [&str; 4] = [
    "estimate.subtree_listing",
    "estimate.affinity_filter",
    "estimate.similarity_topk",
    "estimate.aggregate",
];
pub const EXECUTE: [&str; 4] = [
    "execute.subtree_listing",
    "execute.affinity_filter",
    "execute.similarity_topk",
    "execute.aggregate",
];
const EXEC_P50: [&str; 4] = [
    "exec.subtree_listing.p50_us",
    "exec.affinity_filter.p50_us",
    "exec.similarity_topk.p50_us",
    "exec.aggregate.p50_us",
];
const EXEC_P99: [&str; 4] = [
    "exec.subtree_listing.p99_us",
    "exec.affinity_filter.p99_us",
    "exec.similarity_topk.p99_us",
    "exec.aggregate.p99_us",
];

enum Op {
    Navigate(Gesture),
    /// An analysis query as the analyst types it.
    Analyze(String),
}

/// One finished operation.
struct Done {
    wall: Duration,
    modeled: Duration,
    ran_query: bool,
    /// The executed query and its answer's digest, when sampled.
    checked: Option<(Query, u64)>,
}

/// Results of a measured pass over the operations.
struct Pass {
    ops: usize,
    walls_ms: Vec<f64>,
    /// `walls_ms` scaled to the reference speed (see `speed.rs`).
    scaled_ms: Vec<f64>,
    /// Speed-gauge readings taken between operations, in microseconds.
    gauge_us: Vec<f64>,
    modeled_ms: Vec<f64>,
    checks: Vec<(Query, u64)>,
}

pub fn run(config: &Config) -> Report {
    let bundle = SyntheticBundle::generate(&inputs::spec(LEAVES, RECORDS_PER_LEAF));
    let ops = operations(&bundle, config.seed);
    let mut report = Report::new();
    if config.trace {
        run_traced(config, &bundle, &ops, &mut report);
    } else {
        run_untraced(config, &bundle, &ops, &mut report);
    }
    report
}

fn operations(bundle: &SyntheticBundle, seed: u64) -> Vec<Op> {
    let navigation = zipf_sessions(
        &bundle.tree,
        &bundle.index,
        1,
        &GestureConfig {
            len: POOL / 2,
            seed,
            zipf_theta: SCOPE_THETA,
            revisit_prob: 0.3,
        },
    )
    .pop()
    .map(|w| w.script)
    .unwrap_or_default();
    let analysis = mixed_stream(
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &QueryWorkloadConfig {
            len: POOL / 2,
            seed,
            scope_theta: SCOPE_THETA,
        },
    );
    navigation
        .into_iter()
        .zip(analysis)
        .flat_map(|(g, q)| [Op::Navigate(g), Op::Analyze(q.to_string())])
        .collect()
}

fn build(bundle: &SyntheticBundle) -> Result<DrugTree, String> {
    DrugTree::builder()
        .dataset(bundle.build_dataset())
        .with_columnar()
        .with_matview()
        .build()
        .map_err(|e| e.to_string())
}

fn run_untraced(config: &Config, bundle: &SyntheticBundle, ops: &[Op], report: &mut Report) {
    let mut setups = Vec::new();
    let mut first: Option<(Pass, f64)> = None;
    let mut raw: Vec<Vec<f64>> = Vec::new();
    let mut gauge_us: Vec<f64> = Vec::new();
    let passes = passes::repeat(config.seconds, || {
        let before = speed::read();
        let t = Instant::now();
        let system = match build(bundle) {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("set-up failed: {e}"));
                return None;
            }
        };
        let mut session = system.mobile_session(NetworkProfile::CELL_4G);
        let setup = t.elapsed().as_secs_f64();
        setups.push(setup * speed::factor(before, speed::read()));
        let mut pass = measure(
            &mut session,
            system.dataset(),
            system.executor(),
            ops,
            Limit::Ops(ops.len()),
            false,
            report,
        );
        let scaled = std::mem::take(&mut pass.scaled_ms);
        raw.push(std::mem::take(&mut pass.walls_ms));
        gauge_us.append(&mut pass.gauge_us);
        match &first {
            None => {
                let rss = crate::report::peak_rss_mb();
                check(system.dataset(), &pass.checks, report);
                first = Some((pass, rss));
            }
            Some((f, _)) => {
                let digests = |p: &Pass| p.checks.iter().map(|c| c.1).collect::<Vec<_>>();
                if digests(f) != digests(&pass) || f.modeled_ms != pass.modeled_ms {
                    report.fail("answers or modeled latencies differ between two passes of one seed");
                }
            }
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
        "{} operations, median of {} passes each; unscaled {:.6}, gauge median {:.1} us",
        per_op.len(),
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
    report.set("modeled_p50_ms", median(&pass.modeled_ms), "virtual clock");
    report.set("modeled_tail_ms", modeled_tail, modeled_note);
    report.set("peak_rss_mb", rss, "VmHWM after the first pass");
}

fn run_traced(config: &Config, bundle: &SyntheticBundle, ops: &[Op], report: &mut Report) {
    // Set-up step by step, driving the executor directly.
    trace::set_enabled(true);
    let setup = trace::root("setup");
    let mut dataset = {
        let _s = trace::span("setup.dataset");
        bundle.build_dataset()
    };
    if let Err(e) = wrap_sources(&mut dataset) {
        report.fail(format!("wrapping sources: {e}"));
        return;
    }
    let mut executor = Executor::with_cache_config(
        Optimizer::new(OptimizerConfig::full()),
        CacheConfig::default(),
    );
    let built = {
        let _s = trace::span("setup.stats");
        executor.collect_stats(&dataset)
    }
    .and_then(|()| {
        let _s = trace::span("setup.matview");
        executor.build_matview(&dataset)
    })
    .and_then(|_| {
        let _s = trace::span("setup.columnar");
        executor.build_columnar(&dataset)
    });
    if let Err(e) = built {
        report.fail(format!("set-up: {e}"));
        return;
    }
    let mut session = {
        let _s = trace::span("mobile.open");
        MobileSession::new(&dataset, &executor, NetworkProfile::CELL_4G)
    };
    drop(setup);
    let setup_spans = trace::drain();
    trace::set_enabled(false);

    let plain = measure(
        &mut session,
        &dataset,
        &executor,
        ops,
        Limit::Seconds(config.seconds / 2.0),
        false,
        report,
    );
    let cache_before = executor.cache_stats();
    trace::set_enabled(true);
    let traced = measure(
        &mut session,
        &dataset,
        &executor,
        ops,
        Limit::Ops(plain.ops),
        true,
        report,
    );
    trace::set_enabled(false);
    let cache_after = executor.cache_stats();
    let spans = trace::drain();
    drop(session);
    check(&dataset, &traced.checks, report);

    let mut all = setup_spans.clone();
    all.extend(spans.iter().cloned());
    crate::write_trace(config, &all);

    let ms = |name: &str| trace::total_ns(&setup_spans, name) / 1e6;
    report.set("setup.dataset_ms", ms("setup.dataset"), "build_dataset");
    report.set(
        "setup.stats_ms",
        ms("setup.stats"),
        "Executor::collect_stats",
    );
    report.set(
        "setup.matview_ms",
        ms("setup.matview"),
        "Executor::build_matview",
    );
    report.set(
        "setup.columnar_ms",
        ms("setup.columnar"),
        "Executor::build_columnar",
    );
    report.set("mobile.open_ms", ms("mobile.open"), "MobileSession::new");
    query_layers(&spans, traced.ops, report);
    cache_layers(cache_before, cache_after, traced.ops, report);
    let plain_ms: f64 = plain.walls_ms.iter().sum();
    let traced_ms: f64 = traced.walls_ms.iter().sum();
    report.set(
        "trace.overhead_share",
        traced_ms / plain_ms - 1.0,
        format!(
            "same {} operations: {:.0} ms untraced vs {:.0} ms traced, which adds an estimate call per query",
            traced.ops, plain_ms, traced_ms
        ),
    );
}

/// Per-layer metrics of the query path, from the spans of a traced
/// pass: parse, estimate, execute (with its source fetches), and the
/// mobile session's begin and commit.
pub fn query_layers(spans: &[trace::Span], ops: usize, report: &mut Report) {
    let us = |v: f64| v / 1e3;
    let mut estimate_by_op: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| ESTIMATE.contains(&s.name)) {
        estimate_by_op.insert(s.op, s.duration_ns() as f64);
    }
    let mut exec: [Vec<f64>; 4] = Default::default();
    let (mut execute_ns, mut queries, mut local) = (0.0, 0usize, 0usize);
    for s in spans {
        if let Some(class) = EXECUTE.iter().position(|&n| n == s.name) {
            let total = s.duration_ns() as f64;
            execute_ns += total;
            queries += 1;
            if s.count == 0 {
                local += 1;
            }
            let plan = estimate_by_op.get(&s.op).copied().unwrap_or(0.0);
            exec[class].push(us((total - plan).max(0.0)));
        }
    }
    let plans: Vec<f64> = estimate_by_op.values().map(|&v| us(v)).collect();
    let plan_ns: f64 = estimate_by_op.values().sum();
    report.set(
        "plan.p50_us",
        median(&plans),
        format!("Executor::estimate, {} samples", plans.len()),
    );
    let (p, v) = percentile(&plans, 0.99);
    report.set("plan.p99_us", v, format!("p{:.1}", p * 100.0));
    report.set(
        "plan.share",
        plan_ns / execute_ns.max(1.0),
        format!(
            "{:.1} ms planning / {:.1} ms execute",
            plan_ns / 1e6,
            execute_ns / 1e6
        ),
    );
    for class in 0..4 {
        let samples = &exec[class];
        report.set(
            EXEC_P50[class],
            median(samples),
            format!("execute minus estimate, {} samples", samples.len()),
        );
        let (p, v) = percentile(samples, 0.99);
        report.set(
            EXEC_P99[class],
            v,
            format!("p{:.1} of {}", p * 100.0, samples.len()),
        );
    }
    let parse: Vec<f64> = trace::durations(spans, "parse")
        .into_iter()
        .map(us)
        .collect();
    if !parse.is_empty() {
        report.set(
            "parse.p50_us",
            median(&parse),
            format!("Query::parse, {} samples", parse.len()),
        );
    }
    report.set(
        "access.local_share",
        local as f64 / (queries as f64).max(1.0),
        format!("{local} of {queries} queries made no source request"),
    );
    // Fetches made by the measured queries (not by a freshness probe).
    let executes: HashMap<u32, ()> = spans
        .iter()
        .filter(|s| EXECUTE.contains(&s.name))
        .map(|s| (s.id, ()))
        .collect();
    let fetches: Vec<&trace::Span> = spans
        .iter()
        .filter(|s| {
            s.name == "sources.fetch" && s.parent.is_some_and(|p| executes.contains_key(&p))
        })
        .collect();
    let fetch_ns: f64 = fetches.iter().map(|s| s.duration_ns() as f64).sum();
    let op_ns: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>()
        - trace::total_ns(spans, "freshness.probe");
    let per_k = 1000.0 / (ops as f64).max(1.0);
    report.set(
        "sources.requests",
        fetches.len() as f64 * per_k,
        format!("per 1000 operations; {} fetches in {ops}", fetches.len()),
    );
    report.set(
        "sources.rows_returned",
        fetches.iter().map(|s| s.count as f64).sum::<f64>() * per_k,
        "per 1000 operations",
    );
    report.set(
        "sources.fetch_ms",
        fetch_ns / 1e6 * per_k,
        "per 1000 operations",
    );
    report.set(
        "sources.fetch_share",
        fetch_ns / op_ns.max(1.0),
        "fetch wall / operation wall",
    );
    let begin: Vec<f64> = trace::durations(spans, "begin")
        .into_iter()
        .map(us)
        .collect();
    let commit: Vec<f64> = trace::durations(spans, "commit")
        .into_iter()
        .map(us)
        .collect();
    if !begin.is_empty() {
        report.set(
            "mobile.begin_us",
            median(&begin),
            "MobileSession::begin_gesture, p50",
        );
        report.set(
            "mobile.commit_us",
            median(&commit),
            "commit_query/commit_view, p50",
        );
        let commits = spans.iter().filter(|s| s.name == "commit");
        let bytes: f64 = commits.map(|s| s.count as f64).sum();
        report.set(
            "mobile.payload_bytes",
            bytes / (commit.len() as f64).max(1.0),
            "mean per gesture",
        );
    }
}

/// Semantic-cache counters over a pass, per 1000 operations.
pub fn cache_layers(
    before: drugtree_query::cache::CacheStats,
    after: drugtree_query::cache::CacheStats,
    ops: usize,
    report: &mut Report,
) {
    let per_k = 1000.0 / (ops as f64).max(1.0);
    let probes = after.probes - before.probes;
    let hits = after.hits - before.hits;
    report.set("cache.probes", probes as f64 * per_k, "per 1000 operations");
    report.set(
        "cache.hit_ratio",
        hits as f64 / (probes as f64).max(1.0),
        format!("{hits} hits / {probes} probes"),
    );
    report.set(
        "cache.evictions",
        (after.evictions - before.evictions) as f64 * per_k,
        "per 1000 operations",
    );
    report.set(
        "cache.invalidations",
        (after.invalidations - before.invalidations) as f64 * per_k,
        "per 1000 operations",
    );
}

/// How long a measured pass runs: for a time, or for as many operations
/// as an earlier pass completed.
pub enum Limit {
    Seconds(f64),
    Ops(usize),
}

fn measure(
    session: &mut MobileSession<'_>,
    dataset: &Dataset,
    executor: &Executor,
    ops: &[Op],
    limit: Limit,
    probe: bool,
    report: &mut Report,
) -> Pass {
    let mut pass = Pass {
        ops: 0,
        walls_ms: Vec::new(),
        scaled_ms: Vec::new(),
        gauge_us: Vec::new(),
        modeled_ms: Vec::new(),
        checks: Vec::new(),
    };
    let mut scaler = Scaler::new();
    let started = Instant::now();
    let mut query_ops = 0usize;
    loop {
        let more = match limit {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Limit::Ops(n) => pass.ops < n,
        };
        if !more || ops.is_empty() {
            break;
        }
        let op = &ops[pass.ops % ops.len()];
        let sample = pass.checks.len() < MAX_CHECKS && query_ops.is_multiple_of(CHECK_EVERY);
        report.attempted += 1;
        pass.ops += 1;
        match run_op(session, dataset, executor, op, probe, sample) {
            Ok(done) => {
                pass.walls_ms.push(done.wall.as_secs_f64() * 1e3);
                scaler.push(done.wall.as_secs_f64() * 1e3);
                pass.modeled_ms.push(done.modeled.as_secs_f64() * 1e3);
                query_ops += usize::from(done.ran_query);
                pass.checks.extend(done.checked);
            }
            Err(e) => report.fail(e),
        }
    }
    (pass.scaled_ms, pass.gauge_us) = scaler.finish();
    pass
}

fn run_op(
    session: &mut MobileSession<'_>,
    dataset: &Dataset,
    executor: &Executor,
    op: &Op,
    probe: bool,
    sample: bool,
) -> Result<Done, String> {
    let started = Instant::now();
    let op_span = trace::root("explore.op");
    let gesture = match op {
        Op::Navigate(g) => g.clone(),
        Op::Analyze(text) => {
            let query = {
                let _s = trace::span("parse");
                Query::parse(text)
            }
            .map_err(|e| format!("parse {text:?}: {e}"))?;
            Gesture::RunQuery(Box::new(query))
        }
    };
    let step = {
        let _s = trace::span("begin");
        session.begin_gesture(&gesture)
    }
    .map_err(|e| format!("begin {}: {e}", gesture.kind()))?;
    let mut checked = None;
    let ran_query = matches!(step, GestureStep::Query(_));
    let interaction = match step {
        GestureStep::View(pending) => {
            let mut s = trace::span("commit");
            let done = session.commit_view(pending);
            s.set_count(done.payload_bytes as u64);
            done
        }
        GestureStep::Query(pending) => {
            let class = inputs::class_of(&pending.query);
            if probe {
                let _s = trace::span(ESTIMATE[class]);
                executor
                    .estimate(dataset, &pending.query)
                    .map_err(|e| format!("estimate {}: {e}", pending.query))?;
            }
            let result = {
                let mut s = trace::span(EXECUTE[class]);
                let r = executor.execute(dataset, &pending.query);
                if let Ok(r) = &r {
                    s.set_count(r.metrics.source_requests as u64);
                }
                r
            }
            .map_err(|e| format!("execute {}: {e}", pending.query))?;
            let result = Arc::new(result);
            if sample {
                checked = Some((pending.query.clone(), Arc::clone(&result)));
            }
            let outcome = QueryOutcome::Rows {
                charged: result.metrics.charged_cost,
                query_latency: result.metrics.virtual_cost,
                result,
            };
            let mut s = trace::span("commit");
            let done = session.commit_query(pending, &outcome);
            s.set_count(done.payload_bytes as u64);
            done
        }
    };
    drop(op_span);
    let wall = started.elapsed();
    Ok(Done {
        wall,
        modeled: interaction.complete,
        ran_query,
        checked: checked.map(|(q, r)| {
            let d = inputs::digest(&q, &r);
            (q, d)
        }),
    })
}

/// Re-run sampled queries with a naive-config executor over the same
/// dataset; each answer that differs is a failed operation.
fn check(dataset: &Dataset, checks: &[(Query, u64)], report: &mut Report) {
    let naive = Executor::new(Optimizer::new(OptimizerConfig::naive()));
    for (query, digest) in checks {
        match naive.execute(dataset, query) {
            Ok(r) if inputs::digest(query, &r) == *digest => {}
            Ok(_) => report.fail(format!("answer differs from the naive plan: {query}")),
            Err(e) => report.fail(format!("naive plan failed on {query}: {e}")),
        }
    }
    println!(
        "checked {} sampled answers against the naive plan",
        checks.len()
    );
}
