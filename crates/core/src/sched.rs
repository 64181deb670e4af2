//! The event-driven fleet scheduler (D14).
//!
//! The original server spawned one OS thread per mobile session and
//! let the kernel interleave them — honest concurrency, but capped at
//! tens of sessions and nondeterministic in every replay. This module
//! replaces it with a discrete-event scheduler over *session state
//! machines* ([`drugtree_mobile::SessionMachine`]):
//!
//! * A **coordinator** owns a priority event queue keyed on
//!   virtual-clock deadlines `(due_ns, seq)`. A session's `due` is its
//!   private virtual cursor — the sum of the charged latencies it has
//!   accumulated — so the heap interleaves 4k–16k independent clients
//!   exactly as their virtual timelines dictate, deterministically.
//! * A small **worker pool** (not one thread per session) owns the
//!   session machines, sharded `session % workers`. The coordinator
//!   mails commands through each worker's [`EventQueue`] mailbox and
//!   workers mail replies back on one shared completion queue. Whole
//!   same-instant cohorts *begin* their gestures in parallel (private
//!   per-session state); everything that touches shared state — query
//!   execution, clock advances, observer emissions — is serialized by
//!   the coordinator in heap order, which is what makes two replays of
//!   the same fleet byte-identical.
//!
//! On top of the event loop sit the production failure scenarios:
//!
//! * **Virtual-time coalescing** — a query opens a *flight* keyed on
//!   the query's identity and held open for a coalesce window of
//!   virtual time; identical queries arriving inside the window join
//!   the flight and share one execution. This is the system's one
//!   cross-session dedupe: execution is serialized, so two identical
//!   fetches never race inside the executor.
//! * **Admission control** — a bound on concurrently open flights;
//!   arrivals beyond it are *shed* with a degraded result and a small
//!   rejection cost, counted per query class.
//! * **Per-class deadlines** — a participant whose queue wait plus
//!   execution cost exceeds its class deadline times out with a
//!   degraded result charged exactly the deadline; completions that
//!   land past the deadline after delivery count as soft misses.
//! * **Hedged requests** — when a flight's execution cost exceeds the
//!   learned percentile of its class's cost history, the scheduler
//!   models a hedge against a replica: the effective cost is capped at
//!   `percentile + replica estimate`, and hedges that actually improve
//!   latency are counted as wins.
//! * **Outage storms** — a failed execution (e.g. a
//!   [`FlakySource`](drugtree_sources::flaky::FlakySource) storm
//!   window) degrades every participant with a partial result charged
//!   the failed attempt's virtual cost; the fleet keeps running.

use crate::serve::ServeError;
use drugtree_mobile::layout::TreeLayout;
use drugtree_mobile::serve::SessionWorkload;
use drugtree_mobile::{
    DegradedReason, GestureStep, MobileError, QueryOutcome, QueryPending, SessionMachine,
    ViewPending,
};
use drugtree_query::ast::Query;
use drugtree_query::obs::{QueryClass, ServeClassCounters};
use drugtree_query::{Dataset, Executor};
use drugtree_sources::sched::{EventQueue, EventQueueStats};
use drugtree_sources::telemetry::FixedHistogram;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Per-class client deadlines.
///
/// `None` (the default) means a class never times out. A uniform
/// default can be overridden per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlinePolicy {
    default: Option<Duration>,
    per_class: [Option<Duration>; CLASSES],
}

impl DeadlinePolicy {
    /// No deadlines anywhere.
    pub fn none() -> DeadlinePolicy {
        DeadlinePolicy::default()
    }

    /// The same deadline for every class.
    pub fn uniform(deadline: Duration) -> DeadlinePolicy {
        DeadlinePolicy {
            default: Some(deadline),
            per_class: [None; CLASSES],
        }
    }

    /// Override one class's deadline.
    pub fn with_class(mut self, class: QueryClass, deadline: Duration) -> DeadlinePolicy {
        self.per_class[class_idx(class)] = Some(deadline);
        self
    }

    /// The deadline in effect for `class`.
    pub fn deadline_for(&self, class: QueryClass) -> Option<Duration> {
        self.per_class[class_idx(class)].or(self.default)
    }
}

/// Load shedding at the scheduler's front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Maximum concurrently open (not yet dispatched) flights; `0`
    /// means unlimited. Joining an already-open flight is always
    /// admitted — it adds no server work.
    pub max_open_flights: usize,
    /// Virtual cost charged to a shed query: the client's rejection
    /// round-trip.
    pub shed_cost: Duration,
}

impl Default for AdmissionControl {
    fn default() -> AdmissionControl {
        AdmissionControl {
            max_open_flights: 0,
            shed_cost: Duration::from_millis(5),
        }
    }
}

impl AdmissionControl {
    /// Admit everything.
    pub fn unlimited() -> AdmissionControl {
        AdmissionControl::default()
    }

    /// Shed arrivals beyond `max` open flights.
    pub fn max_open(max: usize) -> AdmissionControl {
        AdmissionControl {
            max_open_flights: max,
            ..AdmissionControl::default()
        }
    }
}

/// Hedged requests against replicas after a learned-percentile delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Whether hedging is armed at all.
    pub enabled: bool,
    /// Quantile (0.0–1.0) of the class's observed execution-cost
    /// history at which the hedge fires.
    pub quantile: f64,
    /// Observations a class needs before its percentile is trusted.
    pub warmup: u64,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy {
            enabled: false,
            quantile: 0.95,
            warmup: 16,
        }
    }
}

impl HedgePolicy {
    /// Hedge once a class's history is past warmup and an execution
    /// runs beyond its `quantile` (0.0–1.0) cost.
    pub fn at_quantile(quantile: f64) -> HedgePolicy {
        HedgePolicy {
            enabled: true,
            quantile: quantile.clamp(0.5, 0.9999),
            ..HedgePolicy::default()
        }
    }
}

/// Counters describing one fleet run's scheduling work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Worker threads in the pool (not sessions!).
    pub workers: usize,
    /// Heap events processed.
    pub events: u64,
    /// Flights dispatched (each is one shared execution).
    pub flights: u64,
    /// Queries that joined an already-open flight.
    pub flight_joins: u64,
    /// High-water mark of concurrently open flights.
    pub max_open_flights: u64,
    /// Aggregated worker-mailbox traffic.
    pub mailbox: EventQueueStats,
    /// Completion-queue traffic.
    pub completions: EventQueueStats,
}

/// Everything the scheduler needs beyond the workload itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SchedulerConfig {
    /// Worker threads; `0` picks the fixed default pool.
    pub workers: usize,
    pub deadline: DeadlinePolicy,
    pub admission: AdmissionControl,
    pub hedging: HedgePolicy,
    /// Virtual time a flight stays open for joiners.
    pub coalesce_window: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            workers: 0,
            deadline: DeadlinePolicy::none(),
            admission: AdmissionControl::default(),
            hedging: HedgePolicy::default(),
            coalesce_window: Duration::from_millis(2),
        }
    }
}

/// What one fleet run produced, before the serve layer wraps it in a
/// `ServeReport`.
pub(crate) struct FleetOutcome {
    pub session_totals: Vec<Duration>,
    pub latencies: Vec<Duration>,
    pub gestures: usize,
    pub classes: Vec<ServeClassCounters>,
    pub stats: SchedStats,
}

const CLASSES: usize = QueryClass::ALL.len();

fn class_idx(class: QueryClass) -> usize {
    match class {
        QueryClass::Listing => 0,
        QueryClass::Filtered => 1,
        QueryClass::Similarity => 2,
        QueryClass::TopK => 3,
        QueryClass::Aggregate => 4,
        QueryClass::CountPerLeaf => 5,
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A session's virtual cursor reached `due`: begin its next
    /// gesture.
    Session(usize),
    /// A flight's coalesce window closed: dispatch it.
    Flight(u64),
}

/// Heap entries order by `(due, seq)`; `seq` is a monotonic tiebreak
/// so same-instant events replay in submission order.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    due: u64,
    seq: u64,
    kind: EventKind,
}

enum Command {
    Begin {
        session: usize,
    },
    CommitView {
        session: usize,
        pending: ViewPending,
    },
    CommitQuery {
        session: usize,
        pending: QueryPending,
        outcome: QueryOutcome,
    },
}

enum Reply {
    Begun {
        session: usize,
        step: Option<GestureStep>,
    },
    BeginFailed {
        session: usize,
        error: MobileError,
    },
    Committed {
        session: usize,
        charged: Duration,
        query: bool,
    },
}

struct Part {
    session: usize,
    pending: QueryPending,
    /// Fleet time (ns) the participant arrived — its queue wait is
    /// the dispatch time minus this.
    arrived: u64,
}

struct Flight {
    class: QueryClass,
    key: String,
    query: Query,
    parts: Vec<Part>,
}

#[derive(Debug, Clone, Copy, Default)]
struct ClassAcc {
    admitted: u64,
    shed: u64,
    hedged: u64,
    hedges_won: u64,
    deadline_missed: u64,
    outages: u64,
}

impl ClassAcc {
    fn any(&self) -> bool {
        self.admitted != 0 || self.shed != 0
    }
}

/// Drive `workloads` to completion over the shared dataset/executor
/// pair. Deterministic: two calls with identical inputs produce
/// identical outcomes, clock schedules, and observer emissions.
pub(crate) fn run_fleet(
    dataset: &Dataset,
    executor: &Executor,
    workloads: &[SessionWorkload],
    config: &SchedulerConfig,
) -> Result<FleetOutcome, ServeError> {
    let sessions = workloads.len();
    let workers = if config.workers == 0 {
        4
    } else {
        config.workers
    }
    .min(sessions.max(1))
    .max(1);
    let layout = Arc::new(TreeLayout::compute(&dataset.tree, &dataset.index));
    let mailboxes: Vec<Arc<EventQueue<Command>>> =
        (0..workers).map(|_| Arc::new(EventQueue::new())).collect();
    let completions: Arc<EventQueue<Reply>> = Arc::new(EventQueue::new());

    std::thread::scope(|scope| {
        for (w, mailbox) in mailboxes.iter().enumerate() {
            let mailbox = Arc::clone(mailbox);
            let completions = Arc::clone(&completions);
            let layout = Arc::clone(&layout);
            scope.spawn(move || {
                worker_loop(
                    w,
                    workers,
                    dataset,
                    executor,
                    workloads,
                    layout,
                    &mailbox,
                    &completions,
                );
            });
        }
        let mut sched = Sched {
            dataset,
            executor,
            config,
            mailboxes: &mailboxes,
            completions: &completions,
            heap: BinaryHeap::new(),
            seq: 0,
            cursors: vec![0u64; sessions],
            totals: vec![Duration::ZERO; sessions],
            latencies: Vec::new(),
            counters: [ClassAcc::default(); CLASSES],
            hists: std::array::from_fn(|_| FixedHistogram::latency_buckets()),
            open_by_key: HashMap::new(),
            flights: HashMap::new(),
            next_flight: 0,
            gestures: 0,
            done: 0,
            stats: SchedStats {
                workers,
                ..SchedStats::default()
            },
        };
        let result = sched.drive(sessions);
        // Always unblock the pool, success or error: workers drain
        // their mailboxes and exit on `None`.
        for mailbox in &mailboxes {
            mailbox.close();
        }
        result?;
        let mut mailbox_stats = EventQueueStats::default();
        for mb in &mailboxes {
            let s = mb.stats();
            mailbox_stats.pushed += s.pushed;
            mailbox_stats.popped += s.popped;
            mailbox_stats.waits += s.waits;
        }
        sched.stats.mailbox = mailbox_stats;
        sched.stats.completions = completions.stats();
        Ok(sched.into_outcome())
    })
}

/// One worker: owns the machines of its shard (`session % workers`)
/// and executes coordinator commands until its mailbox closes.
#[allow(clippy::too_many_arguments)]
fn worker_loop<'a>(
    worker: usize,
    workers: usize,
    dataset: &'a Dataset,
    executor: &'a Executor,
    workloads: &[SessionWorkload],
    layout: Arc<TreeLayout>,
    mailbox: &EventQueue<Command>,
    completions: &EventQueue<Reply>,
) {
    // Fleet construction is the one genuinely parallel bulk phase:
    // each worker builds its shard's machines while the others do the
    // same.
    let mut machines: HashMap<usize, SessionMachine<'a>> = workloads
        .iter()
        .enumerate()
        .filter(|(i, _)| i % workers == worker)
        .map(|(i, w)| {
            (
                i,
                SessionMachine::new(dataset, executor, Arc::clone(&layout), w),
            )
        })
        .collect();
    while let Some(cmd) = mailbox.pop() {
        match cmd {
            // A command for a session outside this shard can only come
            // from a mis-routed coordinator; answer with a terminal /
            // zero-cost reply so the ping-pong protocol never stalls.
            Command::Begin { session } => {
                let Some(m) = machines.get_mut(&session) else {
                    completions.push(Reply::Begun {
                        session,
                        step: None,
                    });
                    continue;
                };
                match m.begin_next() {
                    Ok(step) => completions.push(Reply::Begun { session, step }),
                    Err(error) => completions.push(Reply::BeginFailed { session, error }),
                }
            }
            Command::CommitView { session, pending } => {
                let Some(m) = machines.get_mut(&session) else {
                    completions.push(Reply::Committed {
                        session,
                        charged: Duration::ZERO,
                        query: false,
                    });
                    continue;
                };
                let r = m.commit_view(pending);
                completions.push(Reply::Committed {
                    session,
                    charged: r.charged_latency,
                    query: false,
                });
            }
            Command::CommitQuery {
                session,
                pending,
                outcome,
            } => {
                let Some(m) = machines.get_mut(&session) else {
                    completions.push(Reply::Committed {
                        session,
                        charged: Duration::ZERO,
                        query: true,
                    });
                    continue;
                };
                let r = m.commit_query(pending, &outcome);
                completions.push(Reply::Committed {
                    session,
                    charged: r.charged_latency,
                    query: true,
                });
            }
        }
    }
}

struct Sched<'a> {
    dataset: &'a Dataset,
    executor: &'a Executor,
    config: &'a SchedulerConfig,
    mailboxes: &'a [Arc<EventQueue<Command>>],
    completions: &'a EventQueue<Reply>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Per-session fleet time (ns): the machine's virtual cursor.
    cursors: Vec<u64>,
    totals: Vec<Duration>,
    latencies: Vec<Duration>,
    counters: [ClassAcc; CLASSES],
    /// Learned per-class execution-cost history (hedging trigger).
    hists: [FixedHistogram; CLASSES],
    open_by_key: HashMap<String, u64>,
    flights: HashMap<u64, Flight>,
    next_flight: u64,
    gestures: usize,
    done: usize,
    stats: SchedStats,
}

impl<'a> Sched<'a> {
    fn mailbox_for(&self, session: usize) -> &EventQueue<Command> {
        &self.mailboxes[session % self.mailboxes.len()]
    }

    fn push_event(&mut self, due: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { due, seq, kind }));
    }

    /// Serialized commit: mail the command, block for its reply. The
    /// ping-pong is what makes clock advances and observer emissions
    /// replay in one deterministic total order.
    fn commit(&mut self, session: usize, cmd: Command) -> Result<(Duration, bool), ServeError> {
        self.mailbox_for(session).push(cmd);
        match self.completions.pop() {
            Some(Reply::Committed {
                session: s,
                charged,
                query,
            }) if s == session => Ok((charged, query)),
            _ => Err(ServeError::Worker(format!(
                "worker pool hung up while committing session {session}"
            ))),
        }
    }

    /// Account a committed interaction and schedule the session's
    /// next event at its new virtual cursor.
    fn settle(&mut self, session: usize, charged: Duration, query: bool) {
        self.totals[session] += charged;
        self.cursors[session] = self.cursors[session].saturating_add(nanos(charged));
        if query {
            self.latencies.push(charged);
        }
        self.push_event(self.cursors[session], EventKind::Session(session));
    }

    fn drive(&mut self, sessions: usize) -> Result<(), ServeError> {
        for s in 0..sessions {
            self.push_event(0, EventKind::Session(s));
        }
        while let Some(Reverse(event)) = self.heap.pop() {
            self.stats.events += 1;
            match event.kind {
                EventKind::Session(first) => self.begin_cohort(event.due, first)?,
                EventKind::Flight(id) => self.dispatch_flight(event.due, id)?,
            }
        }
        debug_assert_eq!(self.done, sessions, "every session ran to completion");
        Ok(())
    }

    /// Pop every same-instant session event, begin the whole cohort in
    /// parallel across the pool, then process the steps in heap order.
    fn begin_cohort(&mut self, due: u64, first: usize) -> Result<(), ServeError> {
        let mut cohort = vec![first];
        while let Some(Reverse(peek)) = self.heap.peek() {
            if peek.due != due || !matches!(peek.kind, EventKind::Session(_)) {
                break;
            }
            let Some(Reverse(next)) = self.heap.pop() else {
                break;
            };
            self.stats.events += 1;
            if let EventKind::Session(s) = next.kind {
                cohort.push(s);
            }
        }
        for &s in &cohort {
            self.mailbox_for(s).push(Command::Begin { session: s });
        }
        let mut steps: HashMap<usize, Result<Option<GestureStep>, MobileError>> =
            HashMap::with_capacity(cohort.len());
        for _ in 0..cohort.len() {
            match self.completions.pop() {
                Some(Reply::Begun { session, step }) => {
                    steps.insert(session, Ok(step));
                }
                Some(Reply::BeginFailed { session, error }) => {
                    steps.insert(session, Err(error));
                }
                _ => {
                    return Err(ServeError::Worker(
                        "worker pool hung up while beginning a cohort".into(),
                    ))
                }
            }
        }
        for s in cohort {
            let Some(step) = steps.remove(&s) else {
                return Err(ServeError::Worker(format!(
                    "worker pool never replied for session {s}"
                )));
            };
            match step {
                Err(source) => return Err(ServeError::Session { session: s, source }),
                Ok(None) => self.done += 1,
                Ok(Some(GestureStep::View(pending))) => {
                    self.gestures += 1;
                    let (charged, query) = self.commit(
                        s,
                        Command::CommitView {
                            session: s,
                            pending,
                        },
                    )?;
                    self.settle(s, charged, query);
                }
                Ok(Some(GestureStep::Query(pending))) => {
                    self.gestures += 1;
                    self.query_arrival(due, s, pending)?;
                }
            }
        }
        Ok(())
    }

    /// Route a begun query: join an open flight, shed, or open a new
    /// flight due after the coalesce window.
    fn query_arrival(
        &mut self,
        now: u64,
        session: usize,
        pending: QueryPending,
    ) -> Result<(), ServeError> {
        let class = QueryClass::of(&pending.query);
        let key = format!("{:?}", pending.query);
        if let Some(&id) = self.open_by_key.get(&key) {
            if let Some(flight) = self.flights.get_mut(&id) {
                self.stats.flight_joins += 1;
                flight.parts.push(Part {
                    session,
                    pending,
                    arrived: now,
                });
                return Ok(());
            }
            // Stale key (flight already dispatched): open a new flight.
            self.open_by_key.remove(&key);
        }
        let admission = self.config.admission;
        if admission.max_open_flights > 0 && self.open_by_key.len() >= admission.max_open_flights {
            self.counters[class_idx(class)].shed += 1;
            let outcome = QueryOutcome::Degraded {
                reason: DegradedReason::Shed,
                charged: admission.shed_cost,
            };
            let (charged, query) = self.commit(
                session,
                Command::CommitQuery {
                    session,
                    pending,
                    outcome,
                },
            )?;
            self.settle(session, charged, query);
            return Ok(());
        }
        let id = self.next_flight;
        self.next_flight += 1;
        let query = pending.query.clone();
        self.open_by_key.insert(key.clone(), id);
        self.flights.insert(
            id,
            Flight {
                class,
                key,
                query,
                parts: vec![Part {
                    session,
                    pending,
                    arrived: now,
                }],
            },
        );
        self.stats.max_open_flights = self
            .stats
            .max_open_flights
            .max(self.open_by_key.len() as u64);
        self.push_event(
            now.saturating_add(nanos(self.config.coalesce_window)),
            EventKind::Flight(id),
        );
        Ok(())
    }

    /// Close and execute a flight, then resolve every participant —
    /// deadline checks, hedging, or graceful outage degradation.
    fn dispatch_flight(&mut self, now: u64, id: u64) -> Result<(), ServeError> {
        let Some(flight) = self.flights.remove(&id) else {
            return Ok(());
        };
        self.open_by_key.remove(&flight.key);
        self.stats.flights += 1;
        let before = self.dataset.clock.now().0;
        let executed = self.executor.execute(self.dataset, &flight.query);
        let exec_delta = Duration::from_nanos(self.dataset.clock.now().0.saturating_sub(before));
        let idx = class_idx(flight.class);
        match executed {
            Ok(result) => {
                let result = Arc::new(result);
                let cost = result.metrics.charged_cost;
                let query_latency = result.metrics.virtual_cost;
                let (effective, hedged, hedge_won) = self.hedge(idx, &flight.query, cost);
                self.hists[idx].record_duration(cost);
                let deadline = self.config.deadline.deadline_for(flight.class);
                for part in flight.parts {
                    let wait = Duration::from_nanos(now.saturating_sub(part.arrived));
                    {
                        let acc = &mut self.counters[idx];
                        acc.admitted += 1;
                        if hedged {
                            acc.hedged += 1;
                            if hedge_won {
                                acc.hedges_won += 1;
                            }
                        }
                    }
                    let hard_miss = deadline.is_some_and(|d| wait + effective > d);
                    let outcome = if let (Some(d), true) = (deadline, hard_miss) {
                        self.counters[idx].deadline_missed += 1;
                        QueryOutcome::Degraded {
                            reason: DegradedReason::DeadlineExpired,
                            charged: d,
                        }
                    } else {
                        QueryOutcome::Rows {
                            result: Arc::clone(&result),
                            charged: wait + effective,
                            query_latency,
                        }
                    };
                    let (charged, query) = self.commit(
                        part.session,
                        Command::CommitQuery {
                            session: part.session,
                            pending: part.pending,
                            outcome,
                        },
                    )?;
                    // Soft miss: delivered, but transfer pushed the
                    // final charged latency past the deadline.
                    if !hard_miss && deadline.is_some_and(|d| charged > d) {
                        self.counters[idx].deadline_missed += 1;
                    }
                    self.settle(part.session, charged, query);
                }
            }
            Err(_outage) => {
                // Graceful partial results: every participant gets a
                // degraded (empty) answer charged its wait plus the
                // failed attempt's virtual cost, and the fleet keeps
                // running.
                for part in flight.parts {
                    let wait = Duration::from_nanos(now.saturating_sub(part.arrived));
                    {
                        let acc = &mut self.counters[idx];
                        acc.admitted += 1;
                        acc.outages += 1;
                    }
                    let outcome = QueryOutcome::Degraded {
                        reason: DegradedReason::SourceOutage,
                        charged: wait + exec_delta,
                    };
                    let (charged, query) = self.commit(
                        part.session,
                        Command::CommitQuery {
                            session: part.session,
                            pending: part.pending,
                            outcome,
                        },
                    )?;
                    self.settle(part.session, charged, query);
                }
            }
        }
        Ok(())
    }

    /// Hedging decision for one executed flight: `(effective cost,
    /// hedged?, won?)`.
    fn hedge(&self, idx: usize, query: &Query, cost: Duration) -> (Duration, bool, bool) {
        let policy = self.config.hedging;
        if !policy.enabled {
            return (cost, false, false);
        }
        let snapshot = self.hists[idx].snapshot();
        if snapshot.count < policy.warmup {
            return (cost, false, false);
        }
        let learned =
            Duration::from_nanos(snapshot.quantile(policy.quantile.clamp(0.0, 1.0)) as u64);
        if cost <= learned {
            return (cost, false, false);
        }
        // The primary ran long: a hedge fires against a replica after
        // the learned delay, so the client pays at most the delay plus
        // the replica's (estimated fresh) cost.
        let Ok(estimate) = self.executor.estimate(self.dataset, query) else {
            return (cost, true, false);
        };
        let bound = learned + estimate.cost;
        if bound < cost {
            (bound, true, true)
        } else {
            (cost, true, false)
        }
    }

    fn into_outcome(self) -> FleetOutcome {
        let classes = QueryClass::ALL
            .iter()
            .filter_map(|&class| {
                let acc = self.counters[class_idx(class)];
                acc.any().then(|| ServeClassCounters {
                    class: class.label().to_string(),
                    admitted: acc.admitted,
                    shed: acc.shed,
                    hedged: acc.hedged,
                    hedges_won: acc.hedges_won,
                    deadline_missed: acc.deadline_missed,
                    outages: acc.outages,
                })
            })
            .collect();
        FleetOutcome {
            session_totals: self.totals,
            latencies: self.latencies,
            gestures: self.gestures,
            classes,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_policy_layers_defaults_and_overrides() {
        let p = DeadlinePolicy::uniform(Duration::from_millis(100))
            .with_class(QueryClass::TopK, Duration::from_millis(250));
        assert_eq!(
            p.deadline_for(QueryClass::Listing),
            Some(Duration::from_millis(100))
        );
        assert_eq!(
            p.deadline_for(QueryClass::TopK),
            Some(Duration::from_millis(250))
        );
        assert_eq!(
            DeadlinePolicy::none().deadline_for(QueryClass::Listing),
            None
        );
    }

    #[test]
    fn class_indices_cover_all_classes_uniquely() {
        let mut seen = [false; CLASSES];
        for class in QueryClass::ALL {
            let i = class_idx(class);
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn events_order_by_due_then_seq() {
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Event {
            due: 10,
            seq: 1,
            kind: EventKind::Session(7),
        }));
        heap.push(Reverse(Event {
            due: 5,
            seq: 2,
            kind: EventKind::Flight(0),
        }));
        heap.push(Reverse(Event {
            due: 10,
            seq: 0,
            kind: EventKind::Session(3),
        }));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|Reverse(e)| e.seq)).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn hedge_policy_clamps_quantile() {
        let p = HedgePolicy::at_quantile(2.0);
        assert!(p.enabled);
        assert!(p.quantile <= 0.9999);
    }
}
