//! The serving API: session fleets over one shared executor.
//!
//! [`FleetBuilder`] is the public face of the event-driven scheduler
//! in [`crate::sched`]: it owns a dataset/executor pair, takes a fleet
//! of [`SessionWorkload`]s, and drives every session as a poll-able
//! state machine on the virtual clock — 4k–16k Zipf sessions replay
//! deterministically on a worker pool the size of a desk, not a
//! datacenter. The builder's `with_*` methods opt into the production
//! failure scenarios (per-class deadlines, admission control with load
//! shedding, hedged requests, graceful outage degradation);
//! [`FleetBuilder::run`] returns a [`ServeReport`] whose per-class
//! [`ServeClassCounters`] expose the shed/hedged/deadline-missed
//! counts, also emitted to any attached observer as
//! `{"event":"serve"}` JSONL records for `drugtree top`.

use crate::sched::{run_fleet, SchedStats, SchedulerConfig};
use crate::system::{DrugTree, DrugTreeError};
use drugtree_mobile::serve::SessionWorkload;
use drugtree_mobile::MobileError;
use drugtree_query::cache::CacheStats;
use drugtree_query::obs::ServeClassCounters;
use drugtree_query::trace::Observer;
use drugtree_query::{Dataset, Executor};
use drugtree_sources::clock::wall_now;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

pub use crate::sched::{AdmissionControl, DeadlinePolicy, HedgePolicy};

/// Errors from the serving layer.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard
/// arm. Wrapped lower-layer errors are reachable through
/// [`std::error::Error::source`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A session failed while beginning a gesture (e.g. an unknown
    /// node in its script).
    Session {
        /// The failing session's index.
        session: usize,
        /// The underlying mobile-layer error.
        source: MobileError,
    },
    /// The fleet was misconfigured.
    Config(String),
    /// The worker pool failed mid-run.
    Worker(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Session { session, source } => {
                write!(f, "session {session} failed: {source}")
            }
            ServeError::Config(msg) => write!(f, "fleet misconfigured: {msg}"),
            ServeError::Worker(msg) => write!(f, "worker pool error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Session { source, .. } => Some(source),
            ServeError::Config(_) | ServeError::Worker(_) => None,
        }
    }
}

impl From<ServeError> for DrugTreeError {
    fn from(e: ServeError) -> DrugTreeError {
        DrugTreeError::Serve(e.to_string())
    }
}

/// Executor-level fetch-sharing counters.
///
/// Kept so reports and benchmarks that read these fields keep
/// compiling. Nothing in the executor shares fetches any more: the
/// scheduler's virtual-time flights are the one cross-session dedupe,
/// counted in [`SchedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Fetches that joined an identical in-flight request.
    pub flights_joined: u64,
    /// Fetches that rode another query's batch.
    pub batch_joins: u64,
}

/// What a serving run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Concurrent sessions driven.
    pub sessions: usize,
    /// Total gestures replayed across all sessions.
    pub gestures: usize,
    /// Real (wall-clock) time the run took. The only
    /// machine-dependent field — exclude it when comparing replays.
    pub wall: Duration,
    /// Charged latency of every query-bearing interaction (including
    /// degraded ones), unsorted.
    pub latencies: Vec<Duration>,
    /// Per-session virtual completion time: the sum of every
    /// interaction's charged latency in that session. Sessions are
    /// independent clients, so they overlap; the fleet's virtual
    /// makespan is the maximum entry.
    pub session_totals: Vec<Duration>,
    /// Cache counters after the run.
    pub cache: CacheStats,
    /// Always `None`: the executor no longer shares fetches across
    /// sessions (see [`ServeStats`]). The field remains so existing
    /// readers of it keep compiling.
    pub serve: Option<ServeStats>,
    /// Per-class shed/hedge/deadline/outage counters, in class display
    /// order, omitting classes that saw no traffic.
    pub classes: Vec<ServeClassCounters>,
    /// Scheduler counters (events, flights, queue traffic).
    pub sched: Option<SchedStats>,
}

impl ServeReport {
    /// The fleet's virtual makespan: the slowest session's completion
    /// time (sessions overlap; the server is done when the last one is).
    pub fn virtual_makespan(&self) -> Duration {
        self.session_totals
            .iter()
            .copied()
            .max()
            .unwrap_or_default()
    }

    /// Gestures per *virtual* second: total gestures over the virtual
    /// makespan. Deterministic and machine-independent, like every
    /// latency in the experiment suite; wall-clock CPU is Criterion's
    /// job.
    pub fn throughput(&self) -> f64 {
        let secs = self.virtual_makespan().as_secs_f64();
        if secs > 0.0 {
            self.gestures as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// The `p`-th percentile (0–100, clamped) of charged query
    /// latency, linearly interpolated between order statistics:
    /// `p = 0` is the minimum, `p = 100` the maximum, a single sample
    /// answers every `p`, and an empty report answers
    /// [`Duration::ZERO`].
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let position = (p / 100.0) * (sorted.len() - 1) as f64;
        let lower = position.floor() as usize;
        let upper = position.ceil() as usize;
        if lower == upper {
            return sorted[lower];
        }
        let fraction = position - lower as f64;
        let a = sorted[lower].as_secs_f64();
        let b = sorted[upper].as_secs_f64();
        Duration::from_secs_f64(a + (b - a) * fraction)
    }

    /// Total queries shed by admission control, across classes.
    pub fn total_shed(&self) -> u64 {
        self.classes.iter().map(|c| c.shed).sum()
    }

    /// Total deadline misses (hard timeouts plus soft overruns).
    pub fn total_deadline_missed(&self) -> u64 {
        self.classes.iter().map(|c| c.deadline_missed).sum()
    }

    /// Total hedged queries across classes.
    pub fn total_hedged(&self) -> u64 {
        self.classes.iter().map(|c| c.hedged).sum()
    }

    /// Total outage-degraded queries across classes.
    pub fn total_outages(&self) -> u64 {
        self.classes.iter().map(|c| c.outages).sum()
    }
}

/// Builder for a deterministic session-fleet run.
///
/// ```
/// use drugtree::prelude::*;
///
/// let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
/// let fleet = DrugTree::builder()
///     .dataset(bundle.build_dataset())
///     .optimizer(OptimizerConfig::full())
///     .build()
///     .unwrap()
///     .fleet();
/// let workloads = zipf_sessions(
///     &fleet.dataset().tree,
///     &fleet.dataset().index,
///     8,
///     &GestureConfig { len: 10, ..Default::default() },
/// );
/// let report = fleet
///     .with_sessions(workloads)
///     .with_deadline_policy(DeadlinePolicy::uniform(std::time::Duration::from_secs(2)))
///     .run()
///     .unwrap();
/// assert_eq!(report.sessions, 8);
/// ```
pub struct FleetBuilder {
    dataset: Dataset,
    executor: Executor,
    workloads: Vec<SessionWorkload>,
    config: SchedulerConfig,
}

impl FleetBuilder {
    pub(crate) fn new(dataset: Dataset, executor: Executor) -> FleetBuilder {
        FleetBuilder {
            dataset,
            executor,
            workloads: Vec::new(),
            config: SchedulerConfig::default(),
        }
    }

    /// The fleet's workloads (replaces any previous set).
    pub fn with_sessions(mut self, workloads: Vec<SessionWorkload>) -> FleetBuilder {
        self.workloads = workloads;
        self
    }

    /// Per-class client deadlines.
    pub fn with_deadline_policy(mut self, deadline: DeadlinePolicy) -> FleetBuilder {
        self.config.deadline = deadline;
        self
    }

    /// Admission control and load shedding.
    pub fn with_admission_control(mut self, admission: AdmissionControl) -> FleetBuilder {
        self.config.admission = admission;
        self
    }

    /// Hedged requests against replicas.
    pub fn with_hedging(mut self, hedging: HedgePolicy) -> FleetBuilder {
        self.config.hedging = hedging;
        self
    }

    /// Worker threads in the scheduler pool (`0` = default pool of 4).
    /// The pool size never affects results — only wall-clock speed.
    pub fn with_workers(mut self, workers: usize) -> FleetBuilder {
        self.config.workers = workers;
        self
    }

    /// Virtual time a flight stays open for same-query joiners.
    pub fn with_coalesce_window(mut self, window: Duration) -> FleetBuilder {
        self.config.coalesce_window = window;
        self
    }

    /// Attach an observer (e.g. a
    /// [`FleetObserver`](drugtree_query::obs::FleetObserver) with a
    /// JSONL export) to the executor; the run's per-class serve
    /// counters are rolled up to it at the end.
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> FleetBuilder {
        self.executor.set_observer(observer);
        self
    }

    /// The dataset the fleet will serve (e.g. for generating
    /// workloads over its tree).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Mutable dataset access, for failure injection: tests swap the
    /// source registry for
    /// [`FlakySource`](drugtree_sources::flaky::FlakySource)-wrapped
    /// replicas with scripted outage storms.
    pub fn dataset_mut(&mut self) -> &mut Dataset {
        &mut self.dataset
    }

    /// Run the fleet to completion and roll up the measurements.
    pub fn run(self) -> Result<ServeReport, ServeError> {
        let started = wall_now();
        let outcome = run_fleet(&self.dataset, &self.executor, &self.workloads, &self.config)?;
        let wall = wall_now().duration_since(started);
        if let Some(observer) = self.executor.observer() {
            for class in &outcome.classes {
                observer.on_serve_rollup(class);
            }
        }
        Ok(ServeReport {
            sessions: self.workloads.len(),
            gestures: outcome.gestures,
            wall,
            latencies: outcome.latencies,
            session_totals: outcome.session_totals,
            cache: self.executor.cache_stats(),
            serve: None,
            classes: outcome.classes,
            sched: Some(outcome.stats),
        })
    }
}

impl DrugTree {
    /// Convert into a fleet builder: the entry point of the serving
    /// API.
    pub fn fleet(self) -> FleetBuilder {
        let (dataset, executor) = self.into_parts();
        FleetBuilder::new(dataset, executor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_mobile::gestures::GestureConfig;
    use drugtree_mobile::serve::{hot_clade_ranking, zipf_sessions};
    use drugtree_mobile::{Gesture, NetworkProfile};
    use drugtree_query::optimizer::OptimizerConfig;
    use drugtree_sources::flaky::{FlakySource, OutageWindow};
    use drugtree_sources::SourceRegistry;
    use drugtree_workload::{SyntheticBundle, WorkloadSpec};

    fn system() -> DrugTree {
        let bundle = SyntheticBundle::generate(&WorkloadSpec::default().leaves(32).ligands(8));
        DrugTree::builder()
            .dataset(bundle.build_dataset())
            .optimizer(OptimizerConfig::full())
            .build()
            .unwrap()
    }

    fn fleet_workloads(fleet: &FleetBuilder, sessions: usize, len: usize) -> Vec<SessionWorkload> {
        zipf_sessions(
            &fleet.dataset().tree,
            &fleet.dataset().index,
            sessions,
            &GestureConfig {
                len,
                ..Default::default()
            },
        )
    }

    fn report_with(latencies: Vec<Duration>) -> ServeReport {
        ServeReport {
            sessions: 0,
            gestures: 0,
            wall: Duration::ZERO,
            latencies,
            session_totals: Vec::new(),
            cache: CacheStats::default(),
            serve: None,
            classes: Vec::new(),
            sched: None,
        }
    }

    #[test]
    fn fleet_serves_zipf_sessions() {
        let fleet = system().fleet();
        let workloads = fleet_workloads(&fleet, 4, 20);
        let report = fleet.with_sessions(workloads).run().unwrap();
        assert_eq!(report.sessions, 4);
        assert_eq!(report.gestures, 80);
        assert!(!report.latencies.is_empty());
        assert!(report.throughput() > 0.0);
        let stats = report.cache;
        assert_eq!(stats.hits + stats.misses, stats.probes);
        let sched = report.sched.expect("scheduler stats present");
        assert!(sched.flights > 0);
        assert!(sched.events as usize >= report.gestures);
        assert!(!report.classes.is_empty(), "query classes saw traffic");
        assert_eq!(report.total_shed(), 0, "no admission control configured");
    }

    #[test]
    fn fleet_replays_are_deterministic() {
        let run = || {
            let fleet = system().fleet();
            let workloads = fleet_workloads(&fleet, 8, 15);
            let report = fleet.with_sessions(workloads).run().unwrap();
            (
                report.session_totals.clone(),
                report.latencies.clone(),
                format!("{:?}", report.classes),
                report.cache,
            )
        };
        assert_eq!(run(), run(), "two fleet replays must match exactly");
    }

    #[test]
    fn admission_control_sheds_per_class() {
        let fleet = system().fleet();
        // Eight sessions expanding eight *distinct* clades at the same
        // virtual instant: distinct query keys, so only one flight can
        // be open and the rest are shed.
        let clades = hot_clade_ranking(&fleet.dataset().tree, &fleet.dataset().index);
        assert!(clades.len() >= 8, "need distinct clades for the test");
        let workloads: Vec<SessionWorkload> = clades
            .iter()
            .take(8)
            .enumerate()
            .map(|(i, node)| SessionWorkload {
                session: i,
                network: NetworkProfile::CELL_4G,
                script: vec![Gesture::Expand { node: *node }],
            })
            .collect();
        let report = fleet
            .with_sessions(workloads)
            .with_admission_control(AdmissionControl::max_open(1))
            .run()
            .unwrap();
        assert_eq!(report.total_shed(), 7, "one admitted, seven shed");
        let admitted: u64 = report.classes.iter().map(|c| c.admitted).sum();
        assert_eq!(admitted, 1);
        // Shed queries still produce (degraded) latencies.
        assert_eq!(report.latencies.len(), 8);
    }

    #[test]
    fn deadlines_expire_and_are_counted() {
        let fleet = system().fleet();
        let workloads = fleet_workloads(&fleet, 4, 10);
        let deadline = Duration::from_nanos(1);
        let report = fleet
            .with_sessions(workloads)
            .with_deadline_policy(DeadlinePolicy::uniform(deadline))
            .run()
            .unwrap();
        assert!(report.total_deadline_missed() > 0);
        // Every query either timed out (charged exactly the deadline)
        // or was a view gesture; timed-out queries charge the deadline.
        assert!(report.latencies.iter().all(|l| *l >= deadline));
    }

    #[test]
    fn hedging_arms_on_the_learned_percentile() {
        let fleet = system().fleet();
        let workloads = fleet_workloads(&fleet, 4, 20);
        let report = fleet
            .with_sessions(workloads)
            .with_hedging(HedgePolicy {
                enabled: true,
                quantile: 0.0,
                warmup: 1,
            })
            .run()
            .unwrap();
        let hedged = report.total_hedged();
        let won: u64 = report.classes.iter().map(|c| c.hedges_won).sum();
        assert!(hedged > 0, "a floor-percentile hedge must fire");
        assert!(won <= hedged);
    }

    #[test]
    fn outage_storms_degrade_gracefully() {
        let mut fleet = system().fleet();
        let workloads = fleet_workloads(&fleet, 4, 12);
        // Wrap every source in a permanent storm: all fetches fail.
        let clock = Arc::clone(&fleet.dataset().clock);
        let mut stormy = SourceRegistry::new();
        for source in fleet.dataset().registry.all().to_vec() {
            stormy
                .register(Arc::new(
                    FlakySource::new(source, 0.0, Duration::from_millis(200), 7).with_storms(
                        Arc::clone(&clock),
                        vec![OutageWindow::at(
                            Duration::ZERO,
                            Duration::from_secs(1 << 30),
                        )],
                    ),
                ))
                .unwrap();
        }
        fleet.dataset_mut().registry = stormy;
        let report = fleet.with_sessions(workloads).run().unwrap();
        assert!(
            report.total_outages() > 0,
            "storms must degrade some queries"
        );
        assert_eq!(report.sessions, 4, "the fleet rides through the storm");
    }

    #[test]
    fn percentiles_are_ordered() {
        let fleet = system().fleet();
        let workloads = fleet_workloads(&fleet, 2, 30);
        let report = fleet.with_sessions(workloads).run().unwrap();
        let p50 = report.latency_percentile(50.0);
        let p95 = report.latency_percentile(95.0);
        let p99 = report.latency_percentile(99.0);
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn latency_percentile_handles_empty_and_single() {
        let empty = report_with(Vec::new());
        assert_eq!(empty.latency_percentile(50.0), Duration::ZERO);
        let single = report_with(vec![Duration::from_millis(7)]);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(single.latency_percentile(p), Duration::from_millis(7));
        }
    }

    #[test]
    fn latency_percentile_interpolates_linearly() {
        let r = report_with(vec![Duration::from_millis(20), Duration::from_millis(10)]);
        assert_eq!(r.latency_percentile(0.0), Duration::from_millis(10));
        assert_eq!(r.latency_percentile(100.0), Duration::from_millis(20));
        assert_eq!(r.latency_percentile(50.0), Duration::from_millis(15));
        assert_eq!(r.latency_percentile(25.0), Duration::from_micros(12_500));
        // Three samples: p50 is exactly the middle order statistic.
        let r3 = report_with(vec![
            Duration::from_millis(30),
            Duration::from_millis(10),
            Duration::from_millis(20),
        ]);
        assert_eq!(r3.latency_percentile(50.0), Duration::from_millis(20));
        assert_eq!(r3.latency_percentile(75.0), Duration::from_millis(25));
    }

    #[test]
    fn latency_percentile_clamps_out_of_range() {
        let r = report_with(vec![Duration::from_millis(10), Duration::from_millis(20)]);
        assert_eq!(r.latency_percentile(-5.0), Duration::from_millis(10));
        assert_eq!(r.latency_percentile(250.0), Duration::from_millis(20));
        assert_eq!(r.latency_percentile(f64::NAN), Duration::from_millis(10));
    }

    #[test]
    fn serve_error_chains_sources() {
        let fleet = system().fleet();
        let bogus = SessionWorkload {
            session: 0,
            network: NetworkProfile::WIFI,
            script: vec![Gesture::Expand {
                node: drugtree_phylo::NodeId(u32::MAX),
            }],
        };
        let err = fleet.with_sessions(vec![bogus]).run().unwrap_err();
        match &err {
            ServeError::Session { session, .. } => assert_eq!(*session, 0),
            other => panic!("expected session error, got {other:?}"),
        }
        assert!(
            std::error::Error::source(&err).is_some(),
            "source() chains to the mobile error"
        );
    }
}
