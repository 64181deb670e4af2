//! `fleet`: a served deployment. About a thousand Zipf sessions share
//! one executor through `FleetBuilder::run`, with a `FleetObserver`
//! (rolling windows plus slow log) attached.

use crate::report::{median, tail, tail_mean, Report};
use crate::wrap::{wrap_sources, TimedObserver};
use crate::speed;
use crate::{inputs, passes, trace, Config};
use drugtree::prelude::*;
use drugtree_query::cache::CacheStats;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Activity records per leaf, on average.
const RECORDS_PER_LEAF: f64 = 0.15;
const LEAVES: usize = 4096;
const SESSIONS: usize = 1024;
const GESTURES_PER_SESSION: usize = 24;
const ZIPF_THETA: f64 = 1.0;
const SLOWLOG_ENTRIES: usize = 16;
/// Speed-gauge readings whose median is taken before and after a fleet
/// run.
const GAUGE_READINGS: usize = 7;
/// Gesture completions between two gauge readings inside an untraced
/// fleet run (about 30 ms).
const GAUGE_EVERY: usize = 256;

/// What one fleet run produced.
struct FleetRun {
    /// Set-up wall time scaled to the reference speed (see `speed.rs`).
    setup_s: f64,
    wall: Duration,
    /// Gauge readings (median of several) before and after the run.
    gauge_us: [f64; 2],
    gestures: usize,
    sessions: usize,
    /// Wall gaps between successive gesture completions, in ms, in
    /// completion order, scaled to the reference speed (empty without
    /// an observer).
    gaps_ms: Vec<f64>,
    /// The same gaps unscaled.
    raw_gaps_ms: Vec<f64>,
    /// Modeled latency per query gesture, in ms (identical in every run
    /// of a seed, so the phase keeps only its first run's).
    modeled_ms: Vec<f64>,
    digest: u64,
    sched: Option<SchedStats>,
    serve: Option<ServeStats>,
    cache: CacheStats,
    /// (queries, queries with no source request) and (gestures, payload
    /// bytes) the forwarding observer counted while tracing.
    queries: (u64, u64),
    payload: (u64, u64),
}

/// How a phase of fleet runs is instrumented.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// The served deployment as users get it: observer on, no spans.
    Observed,
    /// The same fleet with no observer installed.
    Bare,
    /// Observer on, sources wrapped, spans recorded.
    Traced,
}

struct Inputs {
    bundle: SyntheticBundle,
    sessions: Vec<SessionWorkload>,
    gestures: usize,
    workers: usize,
}

pub fn run(config: &Config) -> Report {
    let bundle = SyntheticBundle::generate(&inputs::spec(LEAVES, RECORDS_PER_LEAF));
    let sessions = zipf_sessions(
        &bundle.tree,
        &bundle.index,
        SESSIONS,
        &GestureConfig {
            len: GESTURES_PER_SESSION,
            seed: config.seed,
            zipf_theta: ZIPF_THETA,
            revisit_prob: 0.3,
        },
    );
    let gestures = sessions.iter().map(|s| s.script.len()).sum();
    let inputs = Inputs {
        bundle,
        sessions,
        gestures,
        // The scheduler drives the fleet from the calling thread, so
        // workers plus that thread stay within the cores there are.
        workers: config.nproc.saturating_sub(1).max(1),
    };
    let mut report = Report::new();
    if config.trace {
        run_traced(config, &inputs, &mut report);
    } else {
        run_untraced(config, &inputs, &mut report);
    }
    report
}

fn run_untraced(config: &Config, inputs: &Inputs, report: &mut Report) {
    let runs = phase(config.seconds, inputs, Phase::Observed, GAUGE_EVERY, report);
    let rss = crate::report::peak_rss_mb();
    let Some(first) = runs.first() else {
        return;
    };
    let gaps: Vec<Vec<f64>> = runs.iter().map(|r| r.gaps_ms.clone()).collect();
    let raw: Vec<Vec<f64>> = runs.iter().map(|r| r.raw_gaps_ms.clone()).collect();
    let (Some(per_op), Some(raw)) = (passes::median_per_op(&gaps), passes::median_per_op(&raw))
    else {
        report.fail("fleet runs of one seed completed different numbers of gestures");
        return;
    };
    let setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let gauge_us: Vec<f64> = runs.iter().flat_map(|r| r.gauge_us).collect();
    let (gap_tail, gap_note) = tail(&per_op);
    let (modeled_tail, modeled_note) = tail_mean(&first.modeled_ms);
    let n = per_op.len() as f64;
    report.set(
        "setup_s",
        median(&setup),
        format!("median of {} set-ups", setup.len()),
    );
    report.set(
        "ops_per_s",
        n / (per_op.iter().sum::<f64>() / 1e3),
        format!(
            "{} gestures over the sum of their gaps, median of {} fleet runs each, {} workers; unscaled {:.6}, gauge median {:.1} us",
            inputs.gestures,
            runs.len(),
            inputs.workers,
            n / (raw.iter().sum::<f64>() / 1e3),
            median(&gauge_us)
        ),
    );
    report.set(
        "op_p50_ms",
        median(&per_op),
        format!(
            "wall gap between successive gesture completions; unscaled {:.6}",
            median(&raw)
        ),
    );
    report.set("op_p99_ms", gap_tail, gap_note);
    report.set(
        "modeled_p50_ms",
        median(&first.modeled_ms),
        format!("virtual clock, {} query gestures", first.modeled_ms.len()),
    );
    report.set("modeled_tail_ms", modeled_tail, modeled_note);
    report.set("peak_rss_mb", rss, "VmHWM");
}

fn run_traced(config: &Config, inputs: &Inputs, report: &mut Report) {
    let third = config.seconds / 3.0;
    let observed = phase(third, inputs, Phase::Observed, 0, report);
    let bare = phase(third, inputs, Phase::Bare, 0, report);
    let traced = phase(third, inputs, Phase::Traced, 0, report);
    let spans = trace::drain();
    crate::write_trace(config, &spans);
    let rate = |runs: &[FleetRun]| {
        let rates: Vec<f64> = runs
            .iter()
            .map(|r| r.gestures as f64 / r.wall.as_secs_f64())
            .collect();
        median(&rates)
    };
    let Some(first) = traced.first() else {
        return;
    };
    for other in [observed.first(), bare.first()].into_iter().flatten() {
        if other.digest != first.digest {
            report.fail("the observer or the tracing changed modeled latencies or cache counters");
        }
    }
    let n = traced.len() as f64;
    let note = |what: &str| format!("{what}, per fleet run, {} traced runs", traced.len());

    if let Some(s) = first.sched {
        report.set("sched.events", s.events as f64, note("heap events"));
        report.set("sched.flights", s.flights as f64, note("shared executions"));
        report.set(
            "sched.flight_joins",
            s.flight_joins as f64,
            note("queries joining an open flight"),
        );
        report.set(
            "sched.join_ratio",
            s.flight_joins as f64 / (s.flights as f64).max(1.0),
            format!("{} joins / {} flights", s.flight_joins, s.flights),
        );
        report.set(
            "sched.mailbox_waits",
            s.mailbox.waits as f64,
            note("worker parks"),
        );
    }
    let serve = first.serve.unwrap_or_default();
    report.set(
        "serve.flights_joined",
        serve.flights_joined as f64,
        note("executor single-flight"),
    );
    report.set(
        "serve.batch_joins",
        serve.batch_joins as f64,
        note("executor batch coalescing"),
    );
    let cache = first.cache;
    report.set("cache.probes", cache.probes as f64, note("semantic cache"));
    report.set(
        "cache.hit_ratio",
        cache.hits as f64 / (cache.probes as f64).max(1.0),
        format!("{} hits / {} probes", cache.hits, cache.probes),
    );
    report.set(
        "cache.evictions",
        cache.evictions as f64,
        note("LRU evictions"),
    );
    report.set(
        "cache.invalidations",
        cache.invalidations as f64,
        note("invalidated entries"),
    );

    let callbacks = trace::total_ns(&spans, "obs.");
    report.set(
        "obs.callback_ms",
        callbacks / 1e6 / n,
        note("wall time inside observer callbacks"),
    );
    report.set(
        "obs.overhead_share",
        rate(&bare) / rate(&observed) - 1.0,
        format!(
            "{:.0} gestures/s without observer vs {:.0} with",
            rate(&bare),
            rate(&observed)
        ),
    );
    let fetches: Vec<&trace::Span> = spans.iter().filter(|s| s.name == "sources.fetch").collect();
    let fetch_ns: f64 = fetches.iter().map(|s| s.duration_ns() as f64).sum();
    let run_ns: f64 = traced.iter().map(|r| r.wall.as_nanos() as f64).sum();
    report.set(
        "sources.requests",
        fetches.len() as f64 / n,
        note("fetch calls"),
    );
    report.set(
        "sources.rows_returned",
        fetches.iter().map(|s| s.count as f64).sum::<f64>() / n,
        note("rows shipped"),
    );
    report.set(
        "sources.fetch_ms",
        fetch_ns / 1e6 / n,
        note("wall time inside fetch"),
    );
    report.set(
        "sources.fetch_share",
        fetch_ns / run_ns.max(1.0),
        "fetch wall / fleet run wall",
    );
    let (queries, local) = traced
        .iter()
        .fold((0, 0), |(q, l), r| (q + r.queries.0, l + r.queries.1));
    report.set(
        "access.local_share",
        local as f64 / (queries as f64).max(1.0),
        format!("{local} of {queries} executed queries made no source request"),
    );
    let (gestures, bytes) = traced
        .iter()
        .fold((0, 0), |(g, b), r| (g + r.payload.0, b + r.payload.1));
    report.set(
        "mobile.payload_bytes",
        bytes as f64 / (gestures as f64).max(1.0),
        format!("mean per gesture over {gestures} gestures"),
    );

    // Set-up steps, timed by driving the executor directly.
    let t = Instant::now();
    let dataset = inputs.bundle.build_dataset();
    let dataset_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut executor = Executor::new(Optimizer::new(OptimizerConfig::full()));
    let t = Instant::now();
    if let Err(e) = executor.collect_stats(&dataset) {
        report.fail(format!("collect_stats: {e}"));
    }
    report.set("setup.dataset_ms", dataset_ms, "build_dataset");
    report.set(
        "setup.stats_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "collect_stats",
    );
    report.set(
        "trace.overhead_share",
        rate(&observed) / rate(&traced) - 1.0,
        format!(
            "{:.0} gestures/s untraced vs {:.0} traced",
            rate(&observed),
            rate(&traced)
        ),
    );
}

/// Run fresh fleets for `seconds` (see [`passes::repeat`]), checking
/// each run; `gauge_every` is as in [`one_run`].
fn phase(
    seconds: f64,
    inputs: &Inputs,
    phase: Phase,
    gauge_every: usize,
    report: &mut Report,
) -> Vec<FleetRun> {
    trace::set_enabled(phase == Phase::Traced);
    let mut digest = None;
    let runs = passes::repeat(seconds, || {
        report.attempted += inputs.gestures as u64;
        match one_run(inputs, phase, gauge_every) {
            Ok(mut run) => {
                if run.gestures != inputs.gestures || run.sessions != inputs.sessions.len() {
                    report.fail(format!(
                        "fleet ran {} gestures in {} sessions, expected {} in {}",
                        run.gestures,
                        run.sessions,
                        inputs.gestures,
                        inputs.sessions.len()
                    ));
                }
                match digest {
                    None => digest = Some(run.digest),
                    Some(d) => {
                        if d != run.digest {
                            report.fail("modeled latencies or cache counters differ between two runs of one seed");
                        }
                        run.modeled_ms = Vec::new();
                    }
                }
                Some(run)
            }
            Err(e) => {
                report.failed += inputs.gestures as u64;
                report.problems.push(format!("fleet run failed: {e}"));
                None
            }
        }
    });
    trace::set_enabled(false);
    runs
}

/// One fleet run on a fresh system. `gauge_every` is passed to the
/// forwarding observer: 0 in the traced run, whose phases compare run
/// times with and without the observer.
fn one_run(inputs: &Inputs, phase: Phase, gauge_every: usize) -> Result<FleetRun, String> {
    let before_setup = speed::read();
    let t = Instant::now();
    let mut dataset = inputs.bundle.build_dataset();
    if phase == Phase::Traced {
        wrap_sources(&mut dataset).map_err(|e| e.to_string())?;
    }
    let system = DrugTree::builder()
        .dataset(dataset)
        .build()
        .map_err(|e| e.to_string())?;
    let mut fleet = system
        .fleet()
        .with_sessions(inputs.sessions.clone())
        .with_workers(inputs.workers);
    let observer = (phase != Phase::Bare).then(|| {
        let fleet_observer: Arc<dyn Observer> =
            Arc::new(FleetObserver::new().with_slowlog(SLOWLOG_ENTRIES));
        Arc::new(TimedObserver::new(fleet_observer, inputs.gestures).with_gauge(gauge_every))
    });
    if let Some(o) = &observer {
        fleet = fleet.with_observer(Arc::clone(o) as Arc<dyn Observer>);
    }
    let setup = t.elapsed().as_secs_f64();
    let before_run = speed::read_median(GAUGE_READINGS);
    let setup_s = setup * speed::factor(before_setup, before_run);

    let start_ns = trace::now_ns();
    let started = Instant::now();
    let result = {
        let _run = trace::root("fleet.run");
        fleet.run()
    };
    let wall = started.elapsed();
    let after_run = speed::read_median(GAUGE_READINGS);
    let report = result.map_err(|e| e.to_string())?;

    let (gaps_ms, raw_gaps_ms) = observer.as_ref().map_or_else(Default::default, |o| {
        scaled_gaps(
            &o.completions(),
            start_ns,
            &o.readings(),
            [before_run, after_run],
        )
    });
    let modeled_ms = report
        .latencies
        .iter()
        .map(|l| l.as_secs_f64() * 1e3)
        .collect();
    let mut h = DefaultHasher::new();
    report.latencies.hash(&mut h);
    report.session_totals.hash(&mut h);
    let c = report.cache;
    (c.probes, c.hits, c.misses, c.evictions, c.invalidations).hash(&mut h);
    Ok(FleetRun {
        setup_s,
        gauge_us: [before_run, after_run],
        wall,
        gestures: report.gestures,
        sessions: report.sessions,
        gaps_ms,
        raw_gaps_ms,
        modeled_ms,
        digest: h.finish(),
        sched: report.sched,
        serve: report.serve,
        cache: report.cache,
        queries: observer.as_ref().map_or((0, 0), |o| o.query_counts()),
        payload: observer.as_ref().map_or((0, 0), |o| o.payload()),
    })
}

/// The gaps between successive completion stamps (sorted, from
/// `start_ns`), in ms, scaled and unscaled. The time gauge readings took
/// is left out of the gap it fell in, and each gap is scaled by the
/// readings at the two ends of its segment; `ends` holds the readings
/// taken before and after the run.
fn scaled_gaps(
    stamps: &[u64],
    start_ns: u64,
    readings: &[(u64, u64, f64)],
    ends: [f64; 2],
) -> (Vec<f64>, Vec<f64>) {
    let mut us = vec![ends[0]];
    us.extend(readings.iter().map(|r| r.2));
    us.push(ends[1]);
    let (mut scaled, mut raw) = (Vec::with_capacity(stamps.len()), Vec::new());
    let (mut prev, mut passed) = (start_ns, 0);
    for &c in stamps {
        let mut excluded = 0;
        while let Some(&(start, end, _)) = readings.get(passed).filter(|r| r.0 < c) {
            excluded += end.saturating_sub(start);
            passed += 1;
        }
        let gap = c.saturating_sub(prev).saturating_sub(excluded) as f64 / 1e6;
        prev = prev.max(c);
        raw.push(gap);
        scaled.push(gap * speed::factor(us[passed], us[passed + 1]));
    }
    (scaled, raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_leave_out_gauge_readings_and_take_their_segment_factor() {
        let r = speed::REFERENCE_US;
        // One reading, 4 ns long, between the second and third stamps.
        let (scaled, raw) = scaled_gaps(&[10, 20, 30], 0, &[(21, 25, r / 2.0)], [r, r]);
        assert_eq!(raw, vec![10e-6, 10e-6, 6e-6]);
        let f = 4.0 / 3.0;
        for (s, g) in scaled.iter().zip(&raw) {
            assert!((s / g - f).abs() < 1e-12);
        }
        let (scaled, raw) = scaled_gaps(&[5, 9], 0, &[], [r, r]);
        assert_eq!(scaled, raw);
    }
}
