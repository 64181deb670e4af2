//! The gesture-driven interactive session.
//!
//! A session owns the client-side state (viewport, layout, network
//! profile) and borrows the shared server-side machinery (dataset +
//! executor). Every gesture produces an [`InteractionResult`] with the
//! latency breakdown a user would perceive: query time at the sources,
//! plus transfer time of the payload over the mobile link — both on
//! the virtual clock.

use crate::layout::TreeLayout;
use crate::lod::{render_visible, RenderList};
use crate::network::NetworkProfile;
use crate::pattern::{PatternClassifier, SessionPattern};
use crate::prefetch::{PrefetchBudget, Prefetcher};
use crate::progressive::{
    blocking_delivery, progressive_delivery, DeliverySchedule, DEFAULT_CHUNK_ROWS,
};
use crate::viewport::Viewport;
use crate::{MobileError, Result};
use drugtree_phylo::tree::NodeId;
use drugtree_query::ast::{Query, Scope};
use drugtree_query::{Dataset, Executor, GestureObservation, QueryResult};
use std::sync::Arc;
use std::time::Duration;

/// A user interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Gesture {
    /// Vertical pan by `dy` leaf units.
    Pan {
        /// Signed leaf-unit delta.
        dy: f64,
    },
    /// Zoom in 2× around a y position.
    ZoomIn {
        /// Focal y in leaf units.
        focus_y: f64,
    },
    /// Zoom out 2× around a y position.
    ZoomOut {
        /// Focal y in leaf units.
        focus_y: f64,
    },
    /// Tap a clade: focus the viewport on it and fetch its activities.
    Expand {
        /// The tapped node.
        node: NodeId,
    },
    /// Fetch activities for everything currently visible.
    InspectViewport,
    /// Run an explicit query (from the app's search box).
    RunQuery(Box<Query>),
}

impl Gesture {
    /// Short kind label for logs and experiment tables.
    pub fn kind(&self) -> &'static str {
        match self {
            Gesture::Pan { .. } => "pan",
            Gesture::ZoomIn { .. } => "zoom_in",
            Gesture::ZoomOut { .. } => "zoom_out",
            Gesture::Expand { .. } => "expand",
            Gesture::InspectViewport => "inspect",
            Gesture::RunQuery(_) => "query",
        }
    }
}

/// What one gesture cost and produced.
#[derive(Debug, Clone)]
pub struct InteractionResult {
    /// Clades prefetched in the background after this gesture.
    pub prefetched: usize,
    /// Gesture kind label.
    pub gesture: &'static str,
    /// Result rows (0 for pure view changes).
    pub rows: usize,
    /// Virtual time spent querying sources.
    pub query_latency: Duration,
    /// Latency attributable to this interaction alone: the query's
    /// charged fetch cost (not the whole shared clock advance) plus
    /// link transfer. Equals `complete` for a solo session; diverges
    /// under concurrent serving, where `query_latency` interleaves
    /// other sessions' work.
    pub charged_latency: Duration,
    /// Time until the first usable content reached the screen
    /// (query + first chunk).
    pub first_usable: Duration,
    /// Time until the interaction fully completed.
    pub complete: Duration,
    /// Bytes shipped over the mobile link.
    pub payload_bytes: usize,
    /// Cache outcome of the underlying query, when one ran.
    pub cache_hit: Option<bool>,
    /// Render-list summary after the gesture.
    pub visible_leaves: usize,
    /// Leaves hidden in collapsed glyphs.
    pub collapsed_leaves: usize,
}

/// A gesture split at the query boundary: the session-local half has
/// run (viewport moved, query built), the shared-state half has not.
/// Produced by [`MobileSession::begin_gesture`]; the event-driven
/// fleet scheduler executes the query on its own terms and resumes
/// the session with [`MobileSession::commit_query`].
#[derive(Debug)]
pub enum GestureStep {
    /// A pure view change: nothing left but the commit (transfer
    /// charge + observation).
    View(ViewPending),
    /// A query-bearing gesture: `query` must be executed (or shed)
    /// before the commit.
    Query(QueryPending),
}

/// A begun view gesture awaiting [`MobileSession::commit_view`].
#[derive(Debug)]
pub struct ViewPending {
    kind: &'static str,
    render: RenderList,
}

/// A begun query gesture awaiting execution and
/// [`MobileSession::commit_query`].
#[derive(Debug)]
pub struct QueryPending {
    kind: &'static str,
    /// The query this gesture needs answered.
    pub query: Query,
    /// The tapped node, for post-gesture prefetching (`Expand` only).
    node: Option<NodeId>,
}

impl QueryPending {
    /// Gesture kind label.
    pub fn kind(&self) -> &'static str {
        self.kind
    }
}

/// How a begun query gesture was resolved by whoever executed it (the
/// session itself in [`MobileSession::apply`], the fleet scheduler
/// under event-driven serving).
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The query ran: rows to deliver over the link.
    Rows {
        /// The executed result (shared with coalesced peers).
        result: Arc<QueryResult>,
        /// Latency charged to this session for the query alone (its
        /// queue wait + its share of the fetch), before transfer.
        charged: Duration,
        /// End-to-end virtual query latency as the session perceives
        /// it, before transfer.
        query_latency: Duration,
    },
    /// The query was not answered; the session gets a degraded,
    /// row-free response and moves on.
    Degraded {
        /// Why the fleet degraded this query.
        reason: DegradedReason,
        /// Latency the session still paid (queue wait, deadline, or
        /// timeout cost).
        charged: Duration,
    },
}

/// Why a fleet degraded a query instead of answering it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// Admission control rejected the query at arrival.
    Shed,
    /// The per-class deadline expired before the fetch completed.
    DeadlineExpired,
    /// Every source attempt failed (e.g. an outage storm); partial
    /// results were served from what the session already had.
    SourceOutage,
}

impl DegradedReason {
    /// Short label for logs and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            DegradedReason::Shed => "shed",
            DegradedReason::DeadlineExpired => "deadline",
            DegradedReason::SourceOutage => "outage",
        }
    }
}

/// An interactive mobile session.
pub struct MobileSession<'a> {
    dataset: &'a Dataset,
    executor: &'a Executor,
    layout: Arc<TreeLayout>,
    viewport: Viewport,
    network: NetworkProfile,
    progressive: bool,
    chunk_rows: usize,
    prefetcher: Option<Prefetcher>,
    adaptive_prefetch: Option<AdaptiveGate>,
    session_id: Option<u32>,
    keep_log: bool,
    log: Vec<InteractionResult>,
}

/// The per-session adaptive prefetch gate: the online classifier plus
/// the last policy it reported (so only *switches* emit adapt events).
#[derive(Debug)]
struct AdaptiveGate {
    classifier: PatternClassifier,
    reported: Option<bool>,
}

impl<'a> MobileSession<'a> {
    /// Open a session over a dataset/executor pair.
    pub fn new(
        dataset: &'a Dataset,
        executor: &'a Executor,
        network: NetworkProfile,
    ) -> MobileSession<'a> {
        let layout = Arc::new(TreeLayout::compute(&dataset.tree, &dataset.index));
        MobileSession::with_layout(dataset, executor, network, layout)
    }

    /// Open a session over a precomputed cladogram layout. Fleets of
    /// thousands of sessions over one tree share a single layout
    /// instead of recomputing (and storing) it per session.
    pub fn with_layout(
        dataset: &'a Dataset,
        executor: &'a Executor,
        network: NetworkProfile,
        layout: Arc<TreeLayout>,
    ) -> MobileSession<'a> {
        let viewport = Viewport::fullscreen(&layout);
        MobileSession {
            dataset,
            executor,
            layout,
            viewport,
            network,
            progressive: true,
            chunk_rows: DEFAULT_CHUNK_ROWS,
            prefetcher: None,
            adaptive_prefetch: None,
            session_id: None,
            keep_log: true,
            log: Vec::new(),
        }
    }

    /// Enable predictive prefetching after `Expand` gestures.
    pub fn enable_prefetch(&mut self, prefetcher: Prefetcher) {
        self.prefetcher = Some(prefetcher);
    }

    /// Enable *adaptive* prefetching: `prefetcher` fires only while
    /// the session's gesture stream classifies as lateral browsing
    /// (experiment E10's profitable regime) and stays off for
    /// drill-down or unclassified streams. Policy switches are
    /// reported to the executor's adaptive runtime (when one is
    /// installed) so they land in the `adapt` event stream.
    pub fn enable_adaptive_prefetch(&mut self, prefetcher: Prefetcher) {
        self.prefetcher = Some(prefetcher);
        self.adaptive_prefetch = Some(AdaptiveGate {
            classifier: PatternClassifier::default(),
            reported: None,
        });
    }

    /// The current gesture-stream classification, when adaptive
    /// prefetch is enabled.
    pub fn prefetch_pattern(&self) -> Option<SessionPattern> {
        self.adaptive_prefetch
            .as_ref()
            .map(|g| g.classifier.pattern())
    }

    /// Tag this session with a serving-fleet id: every gesture
    /// observation it emits carries the id, so a fleet observer can
    /// attribute SLO breaches to sessions.
    pub fn set_session_id(&mut self, id: u32) {
        self.session_id = Some(id);
    }

    /// Switch between progressive and blocking delivery.
    pub fn set_progressive(&mut self, progressive: bool) {
        self.progressive = progressive;
    }

    /// Tune the progressive chunk size so the first chunk lands within
    /// `deadline` on this session's network (assuming ~100-byte rows).
    pub fn set_first_chunk_deadline(&mut self, deadline: Duration) {
        self.chunk_rows = crate::progressive::budgeted_chunk_rows(&self.network, 100, deadline);
    }

    /// Current viewport.
    pub fn viewport(&self) -> Viewport {
        self.viewport
    }

    /// The cladogram layout.
    pub fn layout(&self) -> &TreeLayout {
        &self.layout
    }

    /// Interaction log so far.
    pub fn log(&self) -> &[InteractionResult] {
        &self.log
    }

    /// Switch interaction logging off (fleets of thousands of sessions
    /// roll results up at the scheduler instead of keeping per-session
    /// logs).
    pub fn retain_log(&mut self, keep: bool) {
        self.keep_log = keep;
    }

    /// Apply one gesture end to end: begin it, execute any query it
    /// needs against this session's executor, and commit.
    pub fn apply(&mut self, gesture: &Gesture) -> Result<InteractionResult> {
        match self.begin_gesture(gesture)? {
            GestureStep::View(pending) => Ok(self.commit_view(pending)),
            GestureStep::Query(pending) => {
                let result = Arc::new(self.executor.execute(self.dataset, &pending.query)?);
                let outcome = QueryOutcome::Rows {
                    charged: result.metrics.charged_cost,
                    query_latency: result.metrics.virtual_cost,
                    result,
                };
                Ok(self.commit_query(pending, &outcome))
            }
        }
    }

    /// Run the session-local half of a gesture: move the viewport and
    /// decide what (if anything) must be asked of the shared executor.
    /// Touches no shared state — fleet workers begin whole cohorts of
    /// sessions in parallel — and a failed begin leaves nothing to
    /// commit (the gesture is not logged).
    pub fn begin_gesture(&mut self, gesture: &Gesture) -> Result<GestureStep> {
        let step = match gesture {
            Gesture::Pan { dy } => {
                self.viewport.pan(*dy, &self.layout);
                self.view_pending(gesture.kind())
            }
            Gesture::ZoomIn { focus_y } => {
                self.viewport.zoom(2.0, *focus_y, &self.layout)?;
                self.view_pending(gesture.kind())
            }
            Gesture::ZoomOut { focus_y } => {
                self.viewport.zoom(0.5, *focus_y, &self.layout)?;
                self.view_pending(gesture.kind())
            }
            Gesture::Expand { node } => {
                if node.index() >= self.dataset.tree.len() {
                    return Err(MobileError::UnknownNode(format!("n{}", node.0)));
                }
                let iv = self.dataset.index.interval(*node);
                self.viewport.focus_interval(iv);
                GestureStep::Query(QueryPending {
                    kind: gesture.kind(),
                    query: Query::activities(Scope::Interval(iv)),
                    node: Some(*node),
                })
            }
            Gesture::InspectViewport => {
                let iv = self.viewport.visible_leaves(&self.layout);
                GestureStep::Query(QueryPending {
                    kind: gesture.kind(),
                    query: Query::activities(Scope::Interval(iv)),
                    node: None,
                })
            }
            Gesture::RunQuery(query) => GestureStep::Query(QueryPending {
                kind: gesture.kind(),
                query: (**query).clone(),
                node: None,
            }),
        };
        Ok(step)
    }

    fn view_pending(&self, kind: &'static str) -> GestureStep {
        GestureStep::View(ViewPending {
            kind,
            render: self.render(),
        })
    }

    /// Commit a pure view change: no source work, only the render
    /// payload crossing the link.
    pub fn commit_view(&mut self, pending: ViewPending) -> InteractionResult {
        let ViewPending { kind, render } = pending;
        let transfer = self.network.transfer_time(render.payload_bytes);
        let at = self.dataset.clock.advance(transfer);
        if let Some(obs) = self.executor.observer() {
            obs.on_gesture(&GestureObservation {
                gesture: kind,
                rows: 0,
                compute: Duration::ZERO,
                network: transfer,
                payload_bytes: render.payload_bytes,
                cache_hit: None,
                session: self.session_id,
                charged: transfer,
                at,
            });
        }
        let result = InteractionResult {
            prefetched: 0,
            gesture: kind,
            rows: 0,
            query_latency: Duration::ZERO,
            charged_latency: transfer,
            first_usable: transfer,
            complete: transfer,
            payload_bytes: render.payload_bytes,
            cache_hit: None,
            visible_leaves: render.visible_leaves,
            collapsed_leaves: render.collapsed_leaves,
        };
        self.push_log(&result);
        result
    }

    /// Commit a query gesture given how its query was resolved: ship
    /// rows (or the degraded response) over the link, charge the
    /// clock, emit the gesture observation, and log.
    pub fn commit_query(
        &mut self,
        pending: QueryPending,
        outcome: &QueryOutcome,
    ) -> InteractionResult {
        let QueryPending { kind, node, .. } = pending;
        let mut interaction = match outcome {
            QueryOutcome::Rows {
                result,
                charged,
                query_latency,
            } => {
                let schedule: DeliverySchedule = if self.progressive {
                    progressive_delivery(&result.rows, &self.network, self.chunk_rows)
                } else {
                    blocking_delivery(&result.rows, &self.network)
                };
                let at = self.dataset.clock.advance(schedule.complete());
                let render = self.render();
                if let Some(obs) = self.executor.observer() {
                    obs.on_gesture(&GestureObservation {
                        gesture: kind,
                        rows: result.rows.len(),
                        compute: result.metrics.virtual_cost,
                        network: schedule.complete(),
                        payload_bytes: schedule.total_bytes,
                        cache_hit: result.metrics.cache_hit,
                        session: self.session_id,
                        charged: *charged + schedule.complete(),
                        at,
                    });
                }
                InteractionResult {
                    prefetched: 0,
                    gesture: kind,
                    rows: result.rows.len(),
                    query_latency: *query_latency,
                    charged_latency: *charged + schedule.complete(),
                    first_usable: *query_latency + schedule.first_usable(),
                    complete: *query_latency + schedule.complete(),
                    payload_bytes: schedule.total_bytes,
                    cache_hit: result.metrics.cache_hit,
                    visible_leaves: render.visible_leaves,
                    collapsed_leaves: render.collapsed_leaves,
                }
            }
            QueryOutcome::Degraded { charged, .. } => {
                // The session still paid the wait; only an error card
                // crosses the link, and what was already on screen
                // stays (graceful partial results).
                let at = self.dataset.clock.advance(*charged);
                let render = self.render();
                if let Some(obs) = self.executor.observer() {
                    obs.on_gesture(&GestureObservation {
                        gesture: kind,
                        rows: 0,
                        compute: Duration::ZERO,
                        network: Duration::ZERO,
                        payload_bytes: 0,
                        cache_hit: None,
                        session: self.session_id,
                        charged: *charged,
                        at,
                    });
                }
                InteractionResult {
                    prefetched: 0,
                    gesture: kind,
                    rows: 0,
                    query_latency: *charged,
                    charged_latency: *charged,
                    first_usable: *charged,
                    complete: *charged,
                    payload_bytes: 0,
                    cache_hit: None,
                    visible_leaves: render.visible_leaves,
                    collapsed_leaves: render.collapsed_leaves,
                }
            }
        };
        if let (Some(node), QueryOutcome::Rows { .. }) = (node, outcome) {
            if self.prefetch_allowed(node) {
                interaction.prefetched = self.prefetch_after(node);
            }
        }
        self.push_log(&interaction);
        interaction
    }

    /// Advance the adaptive gate (when enabled) with this expansion
    /// and decide whether prefetch may fire. Only *switches* are
    /// reported to the executor's adaptive runtime — and the initial
    /// "off" state is the default, not a switch.
    fn prefetch_allowed(&mut self, node: NodeId) -> bool {
        let Some(gate) = self.adaptive_prefetch.as_mut() else {
            return true;
        };
        let pattern = gate.classifier.observe_expand(&self.dataset.tree, node);
        let on = pattern == SessionPattern::Lateral;
        if gate.reported != Some(on) {
            let first = gate.reported.is_none();
            gate.reported = Some(on);
            if on || !first {
                if let Some(rt) = self.executor.adaptive() {
                    rt.note_prefetch_switch(
                        self.session_id,
                        pattern.label(),
                        on,
                        self.dataset.clock.now().0,
                    );
                }
            }
        }
        on
    }

    fn push_log(&mut self, result: &InteractionResult) {
        if self.keep_log {
            self.log.push(result.clone());
        }
    }

    /// Warm the cache with the likely-next clades. Runs during user
    /// think time: the virtual clock advances (sources do real work)
    /// but no interaction waits on it. Prefetch failures are ignored —
    /// a failed speculation must never surface to the user.
    ///
    /// The prefetcher's [`PrefetchBudget`] caps the spend: `Items`
    /// counts issued queries, `EstimatedCost` asks the planner what
    /// each candidate would cost and skips those that would overrun
    /// the cumulative cap (a cheaper later candidate may still fit).
    fn prefetch_after(&self, node: drugtree_phylo::tree::NodeId) -> usize {
        let Some(prefetcher) = &self.prefetcher else {
            return 0;
        };
        let mut done = 0;
        let mut spent = Duration::ZERO;
        for candidate in prefetcher.candidates(&self.dataset.tree, &self.dataset.index, node) {
            let iv = self.dataset.index.interval(candidate);
            let query = Query::activities(Scope::Interval(iv));
            match prefetcher.budget {
                PrefetchBudget::Items(limit) => {
                    if done >= limit {
                        break;
                    }
                }
                PrefetchBudget::EstimatedCost(limit) => {
                    let Ok(est) = self.executor.estimate(self.dataset, &query) else {
                        continue;
                    };
                    if spent + est.cost > limit {
                        continue;
                    }
                    spent += est.cost;
                }
            }
            if self.executor.execute(self.dataset, &query).is_ok() {
                done += 1;
            }
        }
        done
    }

    fn render(&self) -> RenderList {
        render_visible(
            &self.dataset.tree,
            &self.dataset.index,
            &self.viewport,
            &self.layout,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drugtree_query::optimizer::{Optimizer, OptimizerConfig};
    use drugtree_sources::source::SourceCapabilities;

    fn dataset() -> Dataset {
        drugtree_query::dataset::test_fixtures::small_dataset(SourceCapabilities::full())
    }

    fn executor() -> Executor {
        Executor::new(Optimizer::new(OptimizerConfig::full()))
    }

    #[test]
    fn pan_and_zoom_cost_only_transfer() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        let r = s.apply(&Gesture::ZoomIn { focus_y: 1.0 }).unwrap();
        assert_eq!(r.rows, 0);
        assert_eq!(r.query_latency, Duration::ZERO);
        assert!(r.complete >= NetworkProfile::WIFI.rtt);
        assert!(r.payload_bytes > 0);
        let r = s.apply(&Gesture::Pan { dy: 1.0 }).unwrap();
        assert_eq!(r.gesture, "pan");
        assert_eq!(s.log().len(), 2);
    }

    #[test]
    fn expand_runs_a_query_and_focuses() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        let clade_a = d.index.by_label("cladeA").unwrap();
        let r = s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        assert_eq!(r.rows, 3);
        assert!(r.query_latency > Duration::ZERO);
        assert!(r.first_usable > r.query_latency, "adds network time");
        assert_eq!(r.cache_hit, Some(false));
        assert_eq!(
            s.viewport().visible_leaves(s.layout()),
            d.index.interval(clade_a)
        );
    }

    #[test]
    fn repeat_expand_hits_cache() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        let clade_a = d.index.by_label("cladeA").unwrap();
        s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        // Drill into a child of cladeA: containment hit.
        let p1 = d.index.by_label("P1").unwrap();
        let r = s.apply(&Gesture::Expand { node: p1 }).unwrap();
        assert_eq!(r.cache_hit, Some(true));
        assert_eq!(r.query_latency, Duration::ZERO);
        assert_eq!(r.rows, 2);
    }

    #[test]
    fn inspect_viewport_queries_visible_interval() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        let r = s.apply(&Gesture::InspectViewport).unwrap();
        assert_eq!(r.rows, 4, "fullscreen sees all activities");
    }

    #[test]
    fn explicit_query_gesture() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        let q = Query::parse("activities in subtree('cladeB')").unwrap();
        let r = s.apply(&Gesture::RunQuery(Box::new(q))).unwrap();
        assert_eq!(r.rows, 1);
        assert_eq!(r.gesture, "query");
    }

    #[test]
    fn unknown_node_rejected() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        assert!(matches!(
            s.apply(&Gesture::Expand { node: NodeId(999) }),
            Err(MobileError::UnknownNode(_))
        ));
        assert!(s.log().is_empty(), "failed gestures are not logged");
    }

    #[test]
    fn blocking_vs_progressive_first_usable() {
        let d = dataset();
        let e = executor();

        let mut progressive = MobileSession::new(&d, &e, NetworkProfile::EDGE);
        progressive.chunk_rows = 1;
        let rp = progressive.apply(&Gesture::InspectViewport).unwrap();

        e.invalidate();
        let mut blocking = MobileSession::new(&d, &e, NetworkProfile::EDGE);
        blocking.set_progressive(false);
        let rb = blocking.apply(&Gesture::InspectViewport).unwrap();

        assert!(
            rp.first_usable < rb.first_usable,
            "progressive {:?} vs blocking {:?}",
            rp.first_usable,
            rb.first_usable
        );
    }

    #[test]
    fn prefetch_turns_sibling_expands_into_hits() {
        let d = dataset();
        // Without prefetch: expanding cladeA then cladeB misses twice.
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        let clade_a = d.index.by_label("cladeA").unwrap();
        let clade_b = d.index.by_label("cladeB").unwrap();
        s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        let cold = s.apply(&Gesture::Expand { node: clade_b }).unwrap();
        assert_eq!(cold.cache_hit, Some(false));

        // With prefetch: the sibling is warmed during think time.
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        s.enable_prefetch(crate::prefetch::Prefetcher::default());
        let first = s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        assert!(first.prefetched > 0, "siblings/children prefetched");
        let warm = s.apply(&Gesture::Expand { node: clade_b }).unwrap();
        assert_eq!(warm.cache_hit, Some(true));
        assert_eq!(warm.query_latency, Duration::ZERO);
    }

    #[test]
    fn zero_cost_budget_suppresses_prefetch() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        s.enable_prefetch(Prefetcher {
            budget: PrefetchBudget::EstimatedCost(Duration::ZERO),
            ..Prefetcher::default()
        });
        let clade_a = d.index.by_label("cladeA").unwrap();
        let r = s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        assert_eq!(r.prefetched, 0, "every candidate estimate exceeds zero");
        // The sibling was never warmed, so expanding it misses.
        let clade_b = d.index.by_label("cladeB").unwrap();
        let cold = s.apply(&Gesture::Expand { node: clade_b }).unwrap();
        assert_eq!(cold.cache_hit, Some(false));
    }

    #[test]
    fn generous_cost_budget_behaves_like_unbudgeted() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        s.enable_prefetch(Prefetcher {
            budget: PrefetchBudget::EstimatedCost(Duration::from_secs(60)),
            ..Prefetcher::default()
        });
        let clade_a = d.index.by_label("cladeA").unwrap();
        let r = s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        assert!(r.prefetched > 0, "estimates fit comfortably");
        let clade_b = d.index.by_label("cladeB").unwrap();
        let warm = s.apply(&Gesture::Expand { node: clade_b }).unwrap();
        assert_eq!(warm.cache_hit, Some(true));
    }

    #[test]
    fn item_budget_caps_prefetch_count() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        s.enable_prefetch(Prefetcher {
            fan_out: 8,
            budget: PrefetchBudget::Items(1),
            ..Prefetcher::default()
        });
        let clade_a = d.index.by_label("cladeA").unwrap();
        let r = s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        assert_eq!(r.prefetched, 1);
    }

    #[test]
    fn prefetch_does_not_inflate_interaction_latency() {
        let d = dataset();
        let e = executor();
        let mut plain = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        let clade_a = d.index.by_label("cladeA").unwrap();
        let r_plain = plain.apply(&Gesture::Expand { node: clade_a }).unwrap();

        let e = executor();
        let mut pre = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        pre.enable_prefetch(crate::prefetch::Prefetcher::default());
        let r_pre = pre.apply(&Gesture::Expand { node: clade_a }).unwrap();
        assert_eq!(r_plain.first_usable, r_pre.first_usable);
        assert_eq!(r_plain.complete, r_pre.complete);
    }

    #[test]
    fn deadline_tuning_adjusts_chunk_size() {
        let d = dataset();
        let e = executor();
        let mut fast = MobileSession::new(&d, &e, NetworkProfile::WIFI);
        fast.set_first_chunk_deadline(Duration::from_millis(100));
        let mut slow = MobileSession::new(&d, &e, NetworkProfile::EDGE);
        slow.set_first_chunk_deadline(Duration::from_millis(100));
        assert!(fast.chunk_rows > slow.chunk_rows);
    }

    #[test]
    fn adaptive_prefetch_gates_by_pattern_and_reports_switches() {
        use drugtree_query::obs::VecSink;
        use drugtree_query::{AdaptiveConfig, AdaptiveRuntime};

        let d = dataset();
        let sink = Arc::new(VecSink::new());
        let mut e = executor();
        e.enable_adaptive(Arc::new(
            AdaptiveRuntime::new(AdaptiveConfig::default())
                .with_export(Arc::clone(&sink) as Arc<dyn drugtree_query::obs::Sink>),
        ));
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        s.set_session_id(7);
        s.enable_adaptive_prefetch(Prefetcher::default());

        let clade_a = d.index.by_label("cladeA").unwrap();
        let clade_b = d.index.by_label("cladeB").unwrap();
        // Unclassified opening: prefetch must not fire.
        let first = s.apply(&Gesture::Expand { node: clade_a }).unwrap();
        assert_eq!(first.prefetched, 0, "unknown pattern keeps prefetch off");
        assert_eq!(s.prefetch_pattern(), Some(SessionPattern::Unknown));
        // Sustained sibling slides flip the session lateral.
        let mut last = first;
        for node in [clade_b, clade_a, clade_b, clade_a] {
            last = s.apply(&Gesture::Expand { node }).unwrap();
        }
        assert_eq!(s.prefetch_pattern(), Some(SessionPattern::Lateral));
        assert!(last.prefetched > 0, "lateral pattern switches prefetch on");
        let switches: Vec<String> = sink
            .lines()
            .into_iter()
            .filter(|l| l.contains("\"loop_name\":\"prefetch\""))
            .collect();
        assert_eq!(switches.len(), 1, "one switch event: {switches:?}");
        assert!(switches[0].contains("session:7"));
        assert!(switches[0].contains("lateral"));
    }

    #[test]
    fn adaptive_prefetch_stays_off_for_drill_down() {
        let d = dataset();
        let e = executor();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_4G);
        s.enable_adaptive_prefetch(Prefetcher::default());
        // Drill: cladeA → P1 → cladeA's leaf children, only descents
        // (and re-ascents through containment hits stay cached — use
        // fresh descents from the root side).
        let root_child = d.index.by_label("cladeA").unwrap();
        let p1 = d.index.by_label("P1").unwrap();
        s.apply(&Gesture::Expand { node: root_child }).unwrap();
        let mid = s.apply(&Gesture::Expand { node: p1 }).unwrap();
        assert_eq!(mid.prefetched, 0, "descents never enable prefetch");
        assert_ne!(s.prefetch_pattern(), Some(SessionPattern::Lateral));
    }

    #[test]
    fn virtual_clock_accumulates_over_session() {
        let d = dataset();
        let e = executor();
        let start = d.clock.now();
        let mut s = MobileSession::new(&d, &e, NetworkProfile::CELL_3G);
        s.apply(&Gesture::InspectViewport).unwrap();
        s.apply(&Gesture::Pan { dy: 1.0 }).unwrap();
        assert!(d.clock.now() > start);
    }
}
