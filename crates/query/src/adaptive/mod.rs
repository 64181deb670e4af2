//! The self-driving layer (design decision D15): telemetry fed back
//! into planning, with every adaptation observable and reversible.
//!
//! Three feedback loops close over the observability stream:
//!
//! * [`learned`] — per-column CDF sketches updated online from
//!   observed span cardinalities replace the nominal selectivity
//!   guesses (through the [`seam`]) so E12-class estimate errors
//!   shrink from measured data, with virtual-clock staleness.
//! * [`advisor`] — slow mirror-answerable shapes accumulate foregone
//!   cost (dedup count × charged latency); past the E7 break-even the
//!   columnar mirror is built automatically, its hits are counted, and
//!   mirrors that serve nothing are evicted.
//! * adaptive prefetch lives in the mobile crate (per-session gesture
//!   classification), but reports its policy switches here so they
//!   flow into the same `adapt` event stream.
//!
//! Every decision emits an `"adapt"` JSONL record through
//! [`TraceExport`] and is guarded by the [`regret`] tracker, which
//! reverts any adaptation whose observed latency regresses past a
//! threshold. `EXPLAIN` surfaces `learned` vs `nominal` selectivity
//! sources and `drugtree advisor` renders the decision log.
//!
//! Everything is interior-mutable behind [`AdaptiveRuntime`]: the
//! `DrugTree` facade hands out only `&Executor`, so the loops update
//! through shared references on the virtual clock — two replays of the
//! same workload adapt identically, byte for byte.

pub mod advisor;
pub mod learned;
pub mod regret;
pub mod seam;

pub use advisor::{AdvisorConfig, AdvisorSnapshot, MatviewAdvisor, ShapeCost};
pub use learned::{LearnedConfig, LearnedSnapshot, LearnedStats};
pub use regret::{RegretConfig, RegretTracker, RegretVerdict};
pub use seam::{SelectivitySource, StatsView};

use crate::columnar::ActivityColumns;
use crate::dataset::Dataset;
use crate::obs::export::AdaptDecision;
use crate::obs::{Sink, TraceExport};
use crate::Result;
use drugtree_sources::sync::{Mutex, RwLock};
use drugtree_store::expr::Predicate;
use rustc_hash::FxHashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for the whole self-driving layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdaptiveConfig {
    /// Learned-statistics loop tuning.
    pub learned: LearnedConfig,
    /// Auto-materialization loop tuning.
    pub advisor: AdvisorConfig,
    /// Regret guardrail tuning.
    pub regret: RegretConfig,
    /// Start frozen: observe nothing, apply nothing (the E17 control
    /// arm measuring the plumbing's own overhead).
    pub frozen: bool,
}

/// What the executor reports back after each query (the runtime's
/// entire view of the world — it never re-plans or re-executes).
#[derive(Debug, Clone, Copy)]
pub struct QueryFeedback<'q> {
    /// Local-column form of the predicate the plan pushed down, when
    /// the plan had one.
    pub pushed_local: Option<&'q Predicate>,
    /// Nominal rows in the plan's scope interval (the denominator of
    /// the observed fraction).
    pub interval_rows: u64,
    /// Rows the access stage actually produced (the numerator).
    pub observed_rows: u64,
    /// Leaves pruned away by statistics. Pruning is sound (only
    /// provably-non-matching leaves drop), so a nonzero count does not
    /// disqualify the cardinality sample; it is carried for reports.
    pub pruned_leaves: u32,
    /// The query was a pure whole-clade aggregate that no mirror
    /// served.
    pub matview_candidate: bool,
    /// The query *was* served by the adaptively-built mirror.
    pub served_by_adaptive: bool,
    /// Plan-shape fingerprint (the advisor's dedup key).
    pub fingerprint: u64,
    /// Charged latency of this query.
    pub charged: Duration,
    /// Measured break-even proxy: the cost of one full source scan
    /// (what building the mirror costs), from the stats collection pass.
    pub break_even_proxy: Duration,
}

/// Counters and state across all three loops, for reports and E17.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveSnapshot {
    /// Learned-statistics loop state.
    pub learned: LearnedSnapshot,
    /// Auto-materialization loop state.
    pub advisor: AdvisorSnapshot,
    /// Regret reverts fired across all loops.
    pub reverts: u64,
    /// Whether the runtime is frozen.
    pub frozen: bool,
    /// Whether learned statistics are currently feeding the planner.
    pub learned_active: bool,
    /// Whether an adaptively-built mirror is currently installed.
    pub view_built: bool,
    /// Prefetch policy switches reported by mobile sessions.
    pub prefetch_switches: u64,
}

/// Regret arm names (also the `subject` of revert events).
const ARM_LEARNED: &str = "learned-stats";
const ARM_MATVIEW: &str = "matview";

/// The self-driving runtime: owns the learned statistics, the
/// adaptively-built mirror, the advisor and regret ledgers, and the
/// `adapt` event exporter.
///
/// Thread-safe and interior-mutable; the executor holds it in an
/// `Arc` and reports through `&self`. The exporter (when attached) has
/// its own sequence space, separate from the fleet observer's — the
/// two streams are joined on `at_ns`, not `seq`.
pub struct AdaptiveRuntime {
    config: AdaptiveConfig,
    frozen: AtomicBool,
    learned_enabled: AtomicBool,
    learned: LearnedStats,
    mirror: RwLock<Option<Arc<ActivityColumns>>>,
    advisor: Mutex<MatviewAdvisor>,
    regret: Mutex<RegretTracker>,
    /// Columns whose learned coverage has been announced (one `apply`
    /// event per column, not per observation).
    announced: Mutex<FxHashSet<String>>,
    prefetch_switches: AtomicU64,
    export: Option<TraceExport>,
}

impl std::fmt::Debug for AdaptiveRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveRuntime")
            .field("frozen", &self.frozen.load(Ordering::Relaxed))
            .field("learned", &self.learned.snapshot())
            .finish()
    }
}

impl AdaptiveRuntime {
    /// A runtime with no exporter attached.
    pub fn new(config: AdaptiveConfig) -> AdaptiveRuntime {
        AdaptiveRuntime {
            frozen: AtomicBool::new(config.frozen),
            learned_enabled: AtomicBool::new(true),
            learned: LearnedStats::new(config.learned),
            mirror: RwLock::new(None),
            advisor: Mutex::new(MatviewAdvisor::new(config.advisor)),
            regret: Mutex::new(RegretTracker::new(config.regret)),
            announced: Mutex::new(FxHashSet::default()),
            prefetch_switches: AtomicU64::new(0),
            export: None,
            config,
        }
    }

    /// Attach an `adapt`-event exporter writing to `sink`.
    pub fn with_export(mut self, sink: Arc<dyn Sink>) -> AdaptiveRuntime {
        self.export = Some(TraceExport::new(sink));
        self
    }

    /// Whether the runtime is frozen (observing and applying nothing).
    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }

    /// Freeze or thaw the runtime.
    pub fn set_frozen(&self, frozen: bool) {
        self.frozen.store(frozen, Ordering::Relaxed);
    }

    /// The learned statistics for planning, when they should be
    /// consulted (not frozen, not regret-reverted).
    pub fn planning_stats(&self) -> Option<&LearnedStats> {
        if self.frozen() || !self.learned_enabled.load(Ordering::Relaxed) {
            None
        } else {
            Some(&self.learned)
        }
    }

    /// The learned statistics, unconditionally (reports, tests).
    pub fn learned(&self) -> &LearnedStats {
        &self.learned
    }

    /// The adaptively-built mirror, when one is installed and the
    /// runtime is not frozen.
    pub fn mirror(&self) -> Option<Arc<ActivityColumns>> {
        if self.frozen() {
            return None;
        }
        self.mirror.read().clone()
    }

    /// Counters and state across all loops.
    pub fn snapshot(&self) -> AdaptiveSnapshot {
        // Hoisted so no guard is alive while the next class is taken
        // (struct-literal temporaries live to the end of the literal).
        let reverts = self.regret.lock().reverts();
        let advisor = self.advisor.lock().snapshot();
        AdaptiveSnapshot {
            learned: self.learned.snapshot(),
            advisor,
            reverts,
            frozen: self.frozen(),
            learned_active: self.learned_enabled.load(Ordering::Relaxed),
            view_built: self.mirror.read().is_some(),
            prefetch_switches: self.prefetch_switches.load(Ordering::Relaxed),
        }
    }

    /// Fold one executed query back into the loops: learn the observed
    /// cardinality, advance the advisor's break-even ledger (building
    /// the mirror when it crosses — the build scan is charged to the
    /// virtual clock), check eviction, and let the regret guardrail
    /// judge every active adaptation.
    ///
    /// `shape` is rendered lazily, only when the advisor retains it.
    pub fn after_query(
        &self,
        dataset: &Dataset,
        feedback: &QueryFeedback<'_>,
        shape: impl FnOnce() -> String,
    ) -> Result<()> {
        if self.frozen() {
            return Ok(());
        }
        let now_ns = dataset.clock.now().0;
        self.learn_cardinality(feedback, now_ns);
        self.drive_matview(dataset, feedback, shape, now_ns)?;
        self.judge_regret(feedback, now_ns);
        Ok(())
    }

    /// Learned-statistics loop: a plan that pushed exactly one
    /// comparison down measured that predicate's true selectivity over
    /// the scope. Stats-pruning does not disqualify the sample —
    /// pruning is sound (it drops only leaves that provably cannot
    /// match), so the fetched row count is still the exact numerator
    /// over the full scope interval.
    fn learn_cardinality(&self, feedback: &QueryFeedback<'_>, now_ns: u64) {
        if !self.learned_enabled.load(Ordering::Relaxed) || feedback.interval_rows == 0 {
            return;
        }
        let Some(Predicate::Compare { column, op, value }) = feedback.pushed_local else {
            return;
        };
        let Some(v) = seam::numeric(value) else {
            return;
        };
        let fraction = (feedback.observed_rows as f64 / feedback.interval_rows as f64).min(1.0);
        self.learned
            .observe(column, *op, v, fraction, feedback.interval_rows, now_ns);
        // Announce (once per column) when coverage becomes servable,
        // and arm the regret tracker the first time any column does.
        if self.learned.selectivity(column, *op, v, now_ns).is_some() {
            let mut announced = self.announced.lock();
            let first = announced.insert(column.clone());
            drop(announced);
            if first {
                self.regret.lock().activate(ARM_LEARNED);
                self.emit(AdaptDecision {
                    at_ns: now_ns,
                    loop_name: ARM_LEARNED.to_string(),
                    action: "apply".to_string(),
                    subject: format!("column:{column}"),
                    reason: "observed cardinalities reached servable coverage".to_string(),
                    before_ns: 0,
                    after_ns: 0,
                });
            }
        }
    }

    /// Auto-materialization loop: accumulate foregone cost, build past
    /// break-even, count hits, evict mirrors that serve nothing.
    fn drive_matview(
        &self,
        dataset: &Dataset,
        feedback: &QueryFeedback<'_>,
        shape: impl FnOnce() -> String,
        now_ns: u64,
    ) -> Result<()> {
        if feedback.served_by_adaptive {
            self.advisor.lock().note_hit(now_ns);
            return Ok(());
        }
        let matview_reverted = self.regret.lock().is_reverted(ARM_MATVIEW);
        if feedback.matview_candidate && !matview_reverted {
            let mut advisor = self.advisor.lock();
            let should_build = advisor.note_candidate(
                feedback.fingerprint,
                shape,
                feedback.charged,
                now_ns,
                feedback.break_even_proxy,
            );
            let foregone = advisor.snapshot().foregone;
            drop(advisor);
            let mirror_missing = self.mirror.read().is_none();
            if should_build && mirror_missing {
                let built = Arc::new(ActivityColumns::build(dataset)?);
                let build_cost = built.build_cost;
                dataset.clock.advance(build_cost);
                let built_at = dataset.clock.now().0;
                *self.mirror.write() = Some(built);
                let mut advisor = self.advisor.lock();
                advisor.record_build(built_at, build_cost);
                let mean_before = advisor
                    .mean_foregone(feedback.fingerprint)
                    .unwrap_or(feedback.charged);
                drop(advisor);
                self.regret.lock().activate(ARM_MATVIEW);
                self.emit(AdaptDecision {
                    at_ns: built_at,
                    loop_name: ARM_MATVIEW.to_string(),
                    action: "apply".to_string(),
                    subject: format!("{:016x}", feedback.fingerprint),
                    reason: format!(
                        "break-even crossed: foregone {}us > break-even {}us",
                        foregone.as_micros(),
                        self.config
                            .advisor
                            .break_even
                            .unwrap_or(feedback.break_even_proxy)
                            .as_micros()
                    ),
                    before_ns: duration_ns(mean_before),
                    after_ns: 0,
                });
            }
        }
        // Eviction: a built mirror that served nothing for the idle
        // window never paid off.
        let evict = self.advisor.lock().should_evict(now_ns);
        if evict {
            let mut advisor = self.advisor.lock();
            let snap = advisor.snapshot();
            advisor.record_evict();
            drop(advisor);
            *self.mirror.write() = None;
            self.emit(AdaptDecision {
                at_ns: now_ns,
                loop_name: ARM_MATVIEW.to_string(),
                action: "evict".to_string(),
                subject: "aggregate-view".to_string(),
                reason: "no hits inside the idle window".to_string(),
                before_ns: duration_ns(snap.build_cost),
                after_ns: 0,
            });
        }
        Ok(())
    }

    /// Regret guardrail: feed this query's charged latency to every
    /// arm *whose adaptation could have influenced it* — queries with
    /// a pushed comparison judge the learned-statistics arm, and
    /// advisor candidates plus mirror-served queries judge the matview
    /// arm — and undo any
    /// adaptation that regressed past threshold. Scoping the latency
    /// populations per arm keeps a workload-mix shift (e.g. cheap view
    /// hits arriving mid-stream) from reading as regression on an
    /// unrelated arm.
    fn judge_regret(&self, feedback: &QueryFeedback<'_>, now_ns: u64) {
        let arms = [
            (ARM_LEARNED, feedback.pushed_local.is_some()),
            (
                ARM_MATVIEW,
                feedback.matview_candidate || feedback.served_by_adaptive,
            ),
        ];
        let mut regret = self.regret.lock();
        let verdicts: Vec<(&str, RegretVerdict)> = arms
            .into_iter()
            .filter(|(_, affected)| *affected)
            .filter_map(|(arm, _)| regret.observe(arm, feedback.charged).map(|v| (arm, v)))
            .collect();
        drop(regret);
        for (arm, verdict) in verdicts {
            match arm {
                ARM_LEARNED => {
                    self.learned_enabled.store(false, Ordering::Relaxed);
                    self.learned.clear();
                }
                _ => {
                    *self.mirror.write() = None;
                    self.advisor.lock().record_evict();
                }
            }
            self.emit(AdaptDecision {
                at_ns: now_ns,
                loop_name: arm.to_string(),
                action: "revert".to_string(),
                subject: arm.to_string(),
                reason: "observed latency regressed past the regret threshold".to_string(),
                before_ns: verdict.baseline_mean_ns,
                after_ns: verdict.after_mean_ns,
            });
        }
    }

    /// Report a per-session prefetch policy switch from the mobile
    /// layer (classified pattern → new policy), so the decision lands
    /// in the same `adapt` stream as the query-side loops.
    pub fn note_prefetch_switch(
        &self,
        session: Option<u32>,
        pattern: &str,
        prefetch_on: bool,
        now_ns: u64,
    ) {
        if self.frozen() {
            return;
        }
        self.prefetch_switches.fetch_add(1, Ordering::Relaxed);
        self.emit(AdaptDecision {
            at_ns: now_ns,
            loop_name: "prefetch".to_string(),
            action: "apply".to_string(),
            subject: match session {
                Some(id) => format!("session:{id}"),
                None => "session:-".to_string(),
            },
            reason: format!(
                "gesture stream classified {pattern}: prefetch {}",
                if prefetch_on { "on" } else { "off" }
            ),
            before_ns: 0,
            after_ns: 0,
        });
    }

    /// The tuning this runtime was built with.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    fn emit(&self, decision: AdaptDecision) {
        if let Some(export) = &self.export {
            export.emit_adapt(&decision);
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::small_dataset;
    use crate::obs::VecSink;
    use drugtree_sources::source::SourceCapabilities;
    use drugtree_store::expr::CompareOp;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn feedback<'q>(pushed: Option<&'q Predicate>) -> QueryFeedback<'q> {
        QueryFeedback {
            pushed_local: pushed,
            interval_rows: 100,
            observed_rows: 25,
            pruned_leaves: 0,
            matview_candidate: false,
            served_by_adaptive: false,
            fingerprint: 0xfeed,
            charged: ms(10),
            break_even_proxy: ms(30),
        }
    }

    #[test]
    fn learned_loop_observes_and_announces_once() {
        let d = small_dataset(SourceCapabilities::full());
        let sink = Arc::new(VecSink::new());
        let rt = AdaptiveRuntime::new(AdaptiveConfig::default())
            .with_export(Arc::clone(&sink) as Arc<dyn Sink>);
        let pred = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        for _ in 0..3 {
            rt.after_query(&d, &feedback(Some(&pred)), || "s".into())
                .unwrap();
        }
        let snap = rt.snapshot();
        assert_eq!(snap.learned.observations, 3);
        assert!(rt.planning_stats().is_some());
        let applies: Vec<String> = sink
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"loop_name\":\"learned-stats\""))
            .collect();
        assert_eq!(applies.len(), 1, "one apply per column: {applies:?}");
        assert!(applies[0].contains("column:p_activity"));
    }

    #[test]
    fn frozen_runtime_observes_and_applies_nothing() {
        let d = small_dataset(SourceCapabilities::full());
        let rt = AdaptiveRuntime::new(AdaptiveConfig {
            frozen: true,
            ..AdaptiveConfig::default()
        });
        let pred = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        let mut fb = feedback(Some(&pred));
        fb.matview_candidate = true;
        fb.charged = ms(1_000);
        for _ in 0..5 {
            rt.after_query(&d, &fb, || "s".into()).unwrap();
        }
        let snap = rt.snapshot();
        assert_eq!(snap.learned.observations, 0);
        assert!(!snap.view_built);
        assert!(rt.planning_stats().is_none());
        assert!(rt.mirror().is_none());
        rt.note_prefetch_switch(Some(1), "lateral", true, 0);
        assert_eq!(rt.snapshot().prefetch_switches, 0);
    }

    #[test]
    fn matview_builds_past_break_even_and_counts_hits() {
        let d = small_dataset(SourceCapabilities::full());
        let sink = Arc::new(VecSink::new());
        let rt = AdaptiveRuntime::new(AdaptiveConfig::default())
            .with_export(Arc::clone(&sink) as Arc<dyn Sink>);
        let mut fb = feedback(None);
        fb.matview_candidate = true;
        fb.charged = ms(20);
        fb.break_even_proxy = ms(30);
        // 20ms + 20ms crosses the 30ms break-even on the second query.
        rt.after_query(&d, &fb, || "agg-shape".into()).unwrap();
        assert!(rt.mirror().is_none());
        let clock_before = d.clock.now();
        rt.after_query(&d, &fb, || "agg-shape".into()).unwrap();
        assert!(rt.mirror().is_some(), "view built past break-even");
        assert!(
            d.clock.now() > clock_before,
            "the build scan is charged to the virtual clock"
        );
        let applies: Vec<String> = sink
            .lines()
            .into_iter()
            .filter(|l| {
                l.contains("\"loop_name\":\"matview\"") && l.contains("\"action\":\"apply\"")
            })
            .collect();
        assert_eq!(applies.len(), 1);
        assert!(applies[0].contains("break-even crossed"));
        // Hits are counted.
        let mut hit = feedback(None);
        hit.served_by_adaptive = true;
        hit.fingerprint = fb.fingerprint;
        hit.charged = Duration::from_micros(1);
        rt.after_query(&d, &hit, || "agg-shape".into()).unwrap();
        assert_eq!(rt.snapshot().advisor.hits, 1);
    }

    #[test]
    fn idle_views_are_evicted_with_an_event() {
        let d = small_dataset(SourceCapabilities::full());
        let sink = Arc::new(VecSink::new());
        let rt = AdaptiveRuntime::new(AdaptiveConfig {
            advisor: AdvisorConfig {
                break_even: Some(ms(1)),
                eviction_idle: ms(50),
            },
            ..AdaptiveConfig::default()
        })
        .with_export(Arc::clone(&sink) as Arc<dyn Sink>);
        let mut fb = feedback(None);
        fb.matview_candidate = true;
        fb.charged = ms(20);
        rt.after_query(&d, &fb, || "agg".into()).unwrap();
        assert!(rt.mirror().is_some());
        // No hits arrive; the clock drifts past the idle window and a
        // later (non-candidate) query triggers the eviction check.
        d.clock.advance(ms(60));
        rt.after_query(&d, &feedback(None), || "other".into())
            .unwrap();
        assert!(rt.mirror().is_none(), "idle view evicted");
        assert_eq!(rt.snapshot().advisor.evictions, 1);
        assert!(sink
            .lines()
            .iter()
            .any(|l| l.contains("\"action\":\"evict\"")));
    }

    #[test]
    fn regret_reverts_the_learned_loop() {
        let d = small_dataset(SourceCapabilities::full());
        let sink = Arc::new(VecSink::new());
        let rt = AdaptiveRuntime::new(AdaptiveConfig {
            regret: RegretConfig {
                min_samples: 4,
                threshold: 0.5,
            },
            // Delay servable coverage so four cheap filter queries land
            // in the arm's baseline before activation.
            learned: LearnedConfig {
                min_observations: 5,
                ..LearnedConfig::default()
            },
            ..AdaptiveConfig::default()
        })
        .with_export(Arc::clone(&sink) as Arc<dyn Sink>);
        let pred = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
        // Cheap filter baseline while the arm is inactive. Only queries
        // the learned arm could influence (pushed comparisons) count
        // toward its populations.
        for _ in 0..4 {
            rt.after_query(&d, &feedback(Some(&pred)), || "s".into())
                .unwrap();
        }
        // Coverage arrives (activating the arm), then latency tanks.
        let mut slow = feedback(Some(&pred));
        slow.charged = ms(100);
        for _ in 0..8 {
            rt.after_query(&d, &slow, || "s".into()).unwrap();
        }
        let snap = rt.snapshot();
        assert_eq!(snap.reverts, 1, "learned arm reverted");
        assert!(!snap.learned_active);
        assert!(rt.planning_stats().is_none());
        assert_eq!(snap.learned.points, 0, "revert clears the sketch");
        let reverts: Vec<String> = sink
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"action\":\"revert\""))
            .collect();
        assert_eq!(reverts.len(), 1);
        assert!(reverts[0].contains("learned-stats"));
    }

    #[test]
    fn double_run_adapts_byte_identically() {
        let run = || {
            let d = small_dataset(SourceCapabilities::full());
            let sink = Arc::new(VecSink::new());
            let rt = AdaptiveRuntime::new(AdaptiveConfig::default())
                .with_export(Arc::clone(&sink) as Arc<dyn Sink>);
            let pred = Predicate::cmp("p_activity", CompareOp::Ge, 6.0);
            let mut fb = feedback(Some(&pred));
            fb.matview_candidate = true;
            fb.charged = ms(20);
            for _ in 0..4 {
                d.clock.advance(ms(1));
                rt.after_query(&d, &fb, || "agg".into()).unwrap();
            }
            sink.lines()
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run(), "byte-identical adapt stream");
    }
}
