//! Benchmark-side wrappers that time calls crossing into the program:
//! a `DataSource` that delegates every method and records a span per
//! `fetch` and `ingest`, and an `Observer` that forwards every
//! callback and records a span per call.

use crate::{speed, trace};
use drugtree_query::obs::ServeClassCounters;
use drugtree_query::plan::PhysicalPlan;
use drugtree_query::{Dataset, GestureObservation, Observer, QueryTrace};
use drugtree_sources::latency::LatencyModel;
use drugtree_sources::source::{
    DataSource, FetchRequest, FetchResponse, MetricsSnapshot, SourceCapabilities, SourceKind,
};
use drugtree_sources::{SourceError, SourceRegistry};
use drugtree_store::schema::Schema;
use drugtree_store::value::Value;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use parking_lot::Mutex;
use std::sync::Arc;

/// A source that delegates to `inner` and times `fetch` and `ingest`.
pub struct TimedSource {
    inner: Arc<dyn DataSource>,
}

impl DataSource for TimedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn key_column(&self) -> &str {
        self.inner.key_column()
    }

    fn capabilities(&self) -> SourceCapabilities {
        self.inner.capabilities()
    }

    fn fetch(&self, request: &FetchRequest) -> Result<FetchResponse, SourceError> {
        let mut span = trace::span("sources.fetch");
        let response = self.inner.fetch(request);
        if let Ok(r) = &response {
            span.set_count(r.rows.len() as u64);
        }
        response
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn record_count(&self) -> usize {
        self.inner.record_count()
    }

    fn latency_model(&self) -> LatencyModel {
        self.inner.latency_model()
    }

    fn ingest(&self, row: Vec<Value>) -> Result<(), SourceError> {
        let _span = trace::span("sources.ingest");
        self.inner.ingest(row)
    }
}

/// Replace every source of `dataset` with a [`TimedSource`] around it,
/// keeping names, order and replica groups.
pub fn wrap_sources(dataset: &mut Dataset) -> Result<(), SourceError> {
    let old = &dataset.registry;
    let mut wrapped = SourceRegistry::new();
    for source in old.all() {
        wrapped.register(Arc::new(TimedSource {
            inner: Arc::clone(source),
        }))?;
    }
    let mut groups: Vec<Vec<String>> = Vec::new();
    for source in old.all() {
        if let Some(group) = old.replica_group_of(source.name()) {
            if !groups.iter().any(|g| g.as_slice() == group) {
                groups.push(group.to_vec());
            }
        }
    }
    for group in groups {
        wrapped.declare_replicas(group)?;
    }
    dataset.registry = wrapped;
    Ok(())
}

/// An observer that forwards every callback to `inner`.
///
/// It always stamps the wall time of each gesture completion, which is
/// how the benchmark times fleet gestures from outside the scheduler,
/// and, when asked, reads the speed gauge after every so many of them.
/// While tracing is on it also records a span per callback and counts
/// queries that made no source request and the payload per gesture.
pub struct TimedObserver {
    inner: Arc<dyn Observer>,
    completions: Vec<AtomicU64>,
    cursor: AtomicUsize,
    queries: AtomicU64,
    local_queries: AtomicU64,
    gestures: AtomicU64,
    payload_bytes: AtomicU64,
    /// Read the gauge after every this many completions (0: never).
    gauge_every: usize,
    /// Gauge readings: (start ns, end ns, reading in microseconds).
    readings: Mutex<Vec<(u64, u64, f64)>>,
}

impl TimedObserver {
    /// Forward to `inner`, with room to stamp `capacity` completions.
    pub fn new(inner: Arc<dyn Observer>, capacity: usize) -> TimedObserver {
        TimedObserver {
            inner,
            completions: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            cursor: AtomicUsize::new(0),
            queries: AtomicU64::new(0),
            local_queries: AtomicU64::new(0),
            gestures: AtomicU64::new(0),
            payload_bytes: AtomicU64::new(0),
            gauge_every: 0,
            readings: Mutex::new(Vec::new()),
        }
    }

    /// Read the speed gauge after every `every` completions.
    pub fn with_gauge(mut self, every: usize) -> TimedObserver {
        self.gauge_every = every;
        self
    }

    /// The gauge readings taken, in the order taken: (start ns, end ns
    /// on the tracer's clock, reading in microseconds).
    pub fn readings(&self) -> Vec<(u64, u64, f64)> {
        self.readings.lock().clone()
    }

    /// Gesture completion times in nanoseconds on the tracer's clock,
    /// sorted.
    pub fn completions(&self) -> Vec<u64> {
        let n = self
            .cursor
            .load(Ordering::Relaxed)
            .min(self.completions.len());
        let mut out: Vec<u64> = self.completions[..n]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        out.sort_unstable();
        out
    }

    /// (queries, queries with no source request) seen while tracing.
    pub fn query_counts(&self) -> (u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.local_queries.load(Ordering::Relaxed),
        )
    }

    /// (gestures, payload bytes) seen while tracing.
    pub fn payload(&self) -> (u64, u64) {
        (
            self.gestures.load(Ordering::Relaxed),
            self.payload_bytes.load(Ordering::Relaxed),
        )
    }

    fn count_query(&self, t: &QueryTrace) {
        if trace::enabled() {
            self.queries.fetch_add(1, Ordering::Relaxed);
            if t.fetch_spans().is_empty() {
                self.local_queries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Observer for TimedObserver {
    fn on_query(&self, t: &QueryTrace) {
        self.count_query(t);
        let _span = trace::span("obs.on_query");
        self.inner.on_query(t);
    }

    fn wants_plan(&self) -> bool {
        self.inner.wants_plan()
    }

    fn on_query_planned(&self, t: &QueryTrace, plan: &PhysicalPlan) {
        self.count_query(t);
        let _span = trace::span("obs.on_query_planned");
        self.inner.on_query_planned(t, plan);
    }

    fn on_gesture(&self, gesture: &GestureObservation) {
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = self.completions.get(slot) {
            c.store(trace::now_ns(), Ordering::Relaxed);
        }
        if self.gauge_every > 0 && slot % self.gauge_every == self.gauge_every - 1 {
            let start = trace::now_ns();
            let us = speed::read();
            self.readings.lock().push((start, trace::now_ns(), us));
        }
        if trace::enabled() {
            self.gestures.fetch_add(1, Ordering::Relaxed);
            self.payload_bytes
                .fetch_add(gesture.payload_bytes as u64, Ordering::Relaxed);
        }
        let _span = trace::span("obs.on_gesture");
        self.inner.on_gesture(gesture);
    }

    fn on_serve_rollup(&self, counters: &ServeClassCounters) {
        let _span = trace::span("obs.on_serve_rollup");
        self.inner.on_serve_rollup(counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use drugtree::prelude::*;
    use drugtree_workload::queries::{mixed_stream, QueryWorkloadConfig};

    fn bundle() -> SyntheticBundle {
        SyntheticBundle::generate(&inputs::spec(512, 1.0))
    }

    #[test]
    fn wrapped_sources_return_identical_rows_and_modeled_latencies() {
        let bundle = bundle();
        let queries = mixed_stream(
            &bundle.tree,
            &bundle.index,
            &bundle.ligands,
            &QueryWorkloadConfig {
                len: 40,
                seed: 5,
                scope_theta: 0.5,
            },
        );
        let plain = DrugTree::builder()
            .dataset(bundle.build_dataset())
            .build()
            .expect("builds");
        let mut dataset = bundle.build_dataset();
        wrap_sources(&mut dataset).expect("wraps");
        let wrapped = DrugTree::builder()
            .dataset(dataset)
            .build()
            .expect("builds");
        for q in &queries {
            let a = plain.execute(q).expect("plain executes");
            let b = wrapped.execute(q).expect("wrapped executes");
            assert_eq!(a.columns, b.columns, "{q}");
            assert_eq!(a.rows, b.rows, "{q}");
            assert_eq!(a.metrics.virtual_cost, b.metrics.virtual_cost, "{q}");
            assert_eq!(a.metrics.charged_cost, b.metrics.charged_cost, "{q}");
            assert_eq!(a.metrics.source_requests, b.metrics.source_requests, "{q}");
        }
    }

    #[test]
    fn forwarding_observer_leaves_a_fleet_run_unchanged() {
        let bundle = bundle();
        let sessions = zipf_sessions(
            &bundle.tree,
            &bundle.index,
            32,
            &GestureConfig {
                len: 12,
                seed: 5,
                zipf_theta: 1.0,
                revisit_prob: 0.3,
            },
        );
        let run = |forward: bool| {
            let mut dataset = bundle.build_dataset();
            if forward {
                wrap_sources(&mut dataset).expect("wraps");
            }
            let system = DrugTree::builder()
                .dataset(dataset)
                .build()
                .expect("builds");
            let fleet_observer: Arc<dyn Observer> = Arc::new(FleetObserver::new().with_slowlog(4));
            let observer: Arc<dyn Observer> = if forward {
                Arc::new(TimedObserver::new(fleet_observer, 32 * 12))
            } else {
                fleet_observer
            };
            let report = system
                .fleet()
                .with_sessions(sessions.clone())
                .with_workers(2)
                .with_observer(observer)
                .run()
                .expect("fleet runs");
            (
                report.gestures,
                report.latencies,
                report.session_totals,
                report.cache,
            )
        };
        assert_eq!(run(false), run(true));
    }
}
