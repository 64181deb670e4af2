//! E17: closing the telemetry → optimizer feedback loop.
//!
//! One deployment runs three phases against the same adaptive runtime
//! — an aggregate stream that heats the auto-materialization advisor,
//! an E12-style affinity-filter stream that trains the learned
//! cardinality statistics, and a mixed mobile fleet (Zipf drill-down
//! scripts + lateral scripts) whose sessions classify their own
//! gesture pattern and switch prefetch policy per session. The sweep
//! compares three modes:
//!
//! - **off**: no adaptive runtime; nominal statistics, no auto
//!   materialization, prefetch unconditionally on (the pre-adaptive
//!   opt-in posture).
//! - **frozen**: the runtime is installed but frozen — it observes
//!   nothing and applies nothing, so planning stays nominal and
//!   prefetch stays at its default-off policy. The E17 control arm.
//! - **on**: all three loops live, guarded by the regret tracker.
//!
//! Paper-shape expectation: the loop closes — at least one aggregate
//! shape is auto-materialized past break-even, mean estimate error
//! under learned statistics lands strictly below nominal, sessions
//! diverge on prefetch policy by classified pattern, and steady state
//! shows zero regret reverts. The whole sweep is virtual-clock
//! deterministic: a double run renders byte-identically, adapt-event
//! stream included (pinned by the `adapt digest` column).

use crate::table::ExperimentTable;
use crate::{fmt_ms, mean, RunConfig};
use drugtree::prelude::*;
use drugtree_mobile::gestures::lateral_script;
use drugtree_mobile::pattern::SessionPattern;
use drugtree_mobile::prefetch::Prefetcher;
use drugtree_query::parser::parse_query;
use drugtree_query::{AdaptiveConfig, AdaptiveRuntime};
use std::sync::Arc;
use std::time::Duration;

/// The three sweep arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Frozen,
    On,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Off, Mode::Frozen, Mode::On];

    fn label(self) -> &'static str {
        match self {
            Mode::Off => "adaptation off",
            Mode::Frozen => "adaptation frozen",
            Mode::On => "adaptation on",
        }
    }
}

/// FNV-1a over the exported adapt-event stream: one hex cell pins the
/// whole decision log, so the benchdiff baseline (and the double-run
/// test) catches any drift in what the loops decided.
fn digest(lines: &[String]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Mean and p95 of relative cardinality-estimate error over a probe
/// stream: |estimated − actual| / max(actual, 1).
fn estimate_error(system: &DrugTree, probes: &[Query]) -> (f64, f64) {
    let mut errs: Vec<f64> = Vec::with_capacity(probes.len());
    for q in probes {
        system.executor().invalidate();
        let est = system
            .executor()
            .estimate(system.dataset(), q)
            .expect("plan estimates");
        let actual = system.execute(q).expect("query executes").rows.len();
        errs.push((est.rows as f64 - actual as f64).abs() / (actual as f64).max(1.0));
    }
    let p95 = {
        let mut sorted = errs.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[((sorted.len() - 1) as f64 * 0.95).round() as usize]
    };
    (errs.iter().sum::<f64>() / errs.len().max(1) as f64, p95)
}

/// Run E17.
pub fn run(config: RunConfig) -> ExperimentTable {
    let (leaves, stream_len, agg_n, gestures) = if config.quick {
        (96, 24, 24, 40)
    } else {
        (256, 60, 60, 150)
    };
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(leaves)
            .ligands(leaves / 4)
            .seed(1717),
    );
    let filters = drugtree_workload::queries::class_stream(
        drugtree_workload::queries::QueryClass::AffinityFilter,
        &bundle.tree,
        &bundle.index,
        &bundle.ligands,
        &drugtree_workload::queries::QueryWorkloadConfig {
            len: stream_len,
            seed: 5,
            scope_theta: 0.8,
        },
    );
    let aggregate = parse_query("aggregate count in tree").expect("parses");
    let scripts: Vec<(bool, Vec<Gesture>)> = (0..8)
        .map(|i| {
            let lateral = i % 2 == 1;
            let gc = GestureConfig {
                len: gestures,
                seed: 17 + i,
                zipf_theta: if lateral { 0.0 } else { 0.6 },
                revisit_prob: if lateral { 0.0 } else { 0.2 },
            };
            let script = if lateral {
                lateral_script(&bundle.tree, &bundle.index, &gc)
            } else {
                drill_down_script(&bundle.tree, &bundle.index, &gc)
            };
            (lateral, script)
        })
        .collect();

    let mut table = ExperimentTable::new(
        "E17",
        format!("telemetry-to-optimizer feedback loops, {leaves} leaves, adaptation sweep"),
        vec![
            "mode",
            "est mean err",
            "est p95 err",
            "auto-built",
            "agg mean latency",
            "prefetching sessions",
            "fleet hit rate",
            "prefetch source reqs",
            "reverts",
            "adapt digest",
        ],
    );

    for mode in Mode::ALL {
        let sink = Arc::new(VecSink::new());
        let runtime = match mode {
            Mode::Off => None,
            Mode::Frozen | Mode::On => Some(Arc::new(
                AdaptiveRuntime::new(AdaptiveConfig {
                    frozen: mode == Mode::Frozen,
                    ..AdaptiveConfig::default()
                })
                .with_export(Arc::clone(&sink) as Arc<dyn Sink>),
            )),
        };
        let mut builder = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full());
        if let Some(rt) = &runtime {
            builder = builder.with_adaptive(Arc::clone(rt));
        }
        let system = builder.build().expect("system builds");

        // Phase 1 — aggregate stream: repeated whole-tree aggregates
        // (cache invalidated between, as a refreshing deployment sees
        // them) accumulate foregone cost in the advisor; in `on` mode
        // it crosses break-even mid-stream and later queries are
        // served from the auto-built mirror.
        let mut agg_latencies: Vec<Duration> = Vec::with_capacity(agg_n);
        for _ in 0..agg_n {
            system.executor().invalidate();
            let r = system.execute(&aggregate).expect("aggregate executes");
            agg_latencies.push(r.metrics.charged_cost);
        }

        // Phase 2 — learned statistics: two training passes over the
        // E12-style affinity-filter stream (control points need two
        // observations to become servable), then a probe pass
        // measuring estimate error against true row counts.
        for _ in 0..2 {
            for q in &filters {
                system.executor().invalidate();
                system.execute(q).expect("filter executes");
            }
        }
        let (mean_err, p95_err) = estimate_error(&system, &filters);

        // Phase 3 — mobile fleet: alternating Zipf drill-down and
        // lateral sessions. off = prefetch unconditionally on;
        // frozen = default-off policy (the frozen layer never switches
        // it); on = per-session classification gates it.
        let reqs_before: u64 = source_requests(&system);
        let mut fleet_hits = 0usize;
        let mut fleet_queries = 0usize;
        let mut prefetching = 0usize;
        for (id, (_, script)) in scripts.iter().enumerate() {
            let mut session = system.mobile_session(NetworkProfile::CELL_4G);
            session.set_session_id(id as u32);
            match mode {
                Mode::Off => session.enable_prefetch(Prefetcher {
                    fan_out: 2,
                    ..Prefetcher::default()
                }),
                Mode::Frozen => {}
                Mode::On => session.enable_adaptive_prefetch(Prefetcher {
                    fan_out: 2,
                    ..Prefetcher::default()
                }),
            }
            for g in script {
                let r = session.apply(g).expect("gesture applies");
                if let Some(hit) = r.cache_hit {
                    fleet_queries += 1;
                    fleet_hits += usize::from(hit);
                }
            }
            let on = match mode {
                Mode::Off => true,
                Mode::Frozen => false,
                Mode::On => session.prefetch_pattern() == Some(SessionPattern::Lateral),
            };
            prefetching += usize::from(on);
        }
        let fleet_reqs = source_requests(&system) - reqs_before;

        let snapshot = runtime.as_ref().map(|rt| rt.snapshot());
        let built = snapshot
            .as_ref()
            .map_or(0, |s| s.advisor.evictions + u64::from(s.advisor.built));
        table.row(vec![
            mode.label().into(),
            format!("{mean_err:.3}"),
            format!("{p95_err:.3}"),
            built.to_string(),
            fmt_ms(mean(&agg_latencies)),
            prefetching.to_string(),
            // No probe, no rate: a fleet served from the mirror never
            // touches the cache.
            if fleet_queries == 0 {
                "-".into()
            } else {
                format!("{:.0}%", 100.0 * fleet_hits as f64 / fleet_queries as f64)
            },
            fleet_reqs.to_string(),
            snapshot
                .as_ref()
                .map_or("-".into(), |s| s.reverts.to_string()),
            if runtime.is_some() {
                digest(&sink.lines())
            } else {
                "-".into()
            },
        ]);
    }

    table.note(format!(
        "{} aggregates then 2x{} affinity-filter training passes then 8 sessions x {} gestures; \
         break-even proxy = statistics collection cost; regret guardrail at default thresholds",
        agg_n, stream_len, gestures,
    ));
    table.note(
        "agg latency spans pre- and post-materialization queries; the adapt digest pins the \
         exported decision stream byte-for-byte",
    );
    table
}

/// Total requests across every registered source.
fn source_requests(system: &DrugTree) -> u64 {
    system
        .dataset()
        .registry
        .all()
        .iter()
        .map(|s| s.metrics().requests)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'t>(t: &'t ExperimentTable, mode: &str, col: &str) -> &'t str {
        let ci = t.headers.iter().position(|h| h == col).expect("column");
        let row = t.rows.iter().find(|r| r[0] == mode).expect("row");
        &row[ci]
    }

    /// The acceptance sweep: the loop visibly closes in `on` mode and
    /// the control arms stay inert. Doubles as the CI regression pin
    /// that learned-statistics estimate error never exceeds nominal on
    /// the E12-style affinity workload.
    #[test]
    fn feedback_loops_close_and_controls_stay_inert() {
        let t = run(RunConfig { quick: true });
        assert_eq!(t.rows.len(), 3);

        // Learned statistics: strictly below nominal, and the frozen
        // control plans exactly like `off`.
        let err = |mode: &str| -> f64 { cell(&t, mode, "est mean err").parse().expect("parses") };
        assert!(
            err("adaptation on") < err("adaptation off"),
            "learned estimates must beat nominal: on {} vs off {}",
            err("adaptation on"),
            err("adaptation off"),
        );
        assert_eq!(
            cell(&t, "adaptation frozen", "est mean err"),
            cell(&t, "adaptation off", "est mean err"),
            "a frozen runtime must plan nominally"
        );

        // Auto-materialization: at least one shape built in `on`,
        // none anywhere else.
        let built: u64 = cell(&t, "adaptation on", "auto-built")
            .parse()
            .expect("parses");
        assert!(built >= 1, "advisor must auto-materialize: {t:?}");
        assert_eq!(cell(&t, "adaptation frozen", "auto-built"), "0");

        // Per-session prefetch divergence: some but not all sessions
        // end up prefetching under classification.
        let prefetching: usize = cell(&t, "adaptation on", "prefetching sessions")
            .parse()
            .expect("parses");
        assert!(
            prefetching > 0 && prefetching < 8,
            "sessions must diverge by pattern: {prefetching}/8"
        );
        assert_eq!(cell(&t, "adaptation off", "prefetching sessions"), "8");
        assert_eq!(cell(&t, "adaptation frozen", "prefetching sessions"), "0");

        // Guardrail steady state: zero regret reverts.
        assert_eq!(cell(&t, "adaptation on", "reverts"), "0");
        assert_eq!(cell(&t, "adaptation frozen", "reverts"), "0");
    }

    /// The whole sweep is virtual-clock deterministic: two runs render
    /// byte-identically, adapt-event digests included.
    #[test]
    fn double_run_is_byte_identical() {
        let a = run(RunConfig { quick: true }).render();
        let b = run(RunConfig { quick: true }).render();
        assert_eq!(a, b, "E17 must replay byte-identically");
    }
}
