//! In-memory spans around the benchmark's calls into the program.
//!
//! A span records a name, its start and end on the wall clock, the
//! span that caused it, and an op id shared by every span of one
//! operation. Spans are kept in memory while a traced phase runs and
//! are drained and written out at the end. Tracing is off unless a
//! phase switches it on; while it is off, opening a span costs one
//! relaxed atomic load.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A count the call produced (rows a fetch returned), else 0.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    next_op: AtomicU64,
    /// Parent for spans opened on a thread with no open span of its
    /// own: fleet workers calling a wrapped source inside `run`.
    ambient: Mutex<Option<(u32, u64)>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU32::new(1),
        next_op: AtomicU64::new(1),
        ambient: Mutex::new(None),
    })
}

thread_local! {
    static STACK: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Switch span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Nanoseconds since the tracer's epoch.
pub fn now_ns() -> u64 {
    u64::try_from(tracer().epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u32,
    parent: Option<u32>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    count: u64,
    ambient: bool,
}

impl Guard {
    /// Attach a count (rows returned) to the span.
    pub fn set_count(&mut self, count: u64) {
        if let Some(open) = &mut self.open {
            open.count = count;
        }
    }
}

/// Open a span under the innermost open span of this thread, or under
/// the ambient root when this thread has none.
pub fn span(name: &'static str) -> Guard {
    open(name, false)
}

/// Open the root span of a new operation. While it is open it is the
/// ambient parent of spans opened on threads without their own.
pub fn root(name: &'static str) -> Guard {
    open(name, true)
}

fn open(name: &'static str, is_root: bool) -> Guard {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = if is_root {
        (None, t.next_op.fetch_add(1, Ordering::Relaxed))
    } else {
        let local = STACK.with(|s| s.borrow().last().copied());
        let ambient = || *t.ambient.lock();
        match local.or_else(ambient) {
            Some((parent, op)) => (Some(parent), op),
            None => (None, t.next_op.fetch_add(1, Ordering::Relaxed)),
        }
    };
    if is_root {
        *t.ambient.lock() = Some((id, op));
    }
    STACK.with(|s| s.borrow_mut().push((id, op)));
    Guard {
        open: Some(Open {
            id,
            parent,
            op,
            name,
            start_ns: now_ns(),
            count: 0,
            ambient: is_root,
        }),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        let t = tracer();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last().map(|&(id, _)| id) == Some(open.id) {
                s.pop();
            }
        });
        if open.ambient {
            let mut ambient = t.ambient.lock();
            if ambient.map(|(id, _)| id) == Some(open.id) {
                *ambient = None;
            }
        }
        t.spans.lock().push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            count: open.count,
        });
    }
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock())
}

/// Durations in nanoseconds of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Sum of the durations of the spans whose name starts with `prefix`.
pub fn total_ns(spans: &[Span], prefix: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| s.duration_ns() as f64)
        .sum()
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (children on other threads may
/// overlap each other, so their union is subtracted).
pub fn self_time_ns(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(s.name).or_default() += s.duration_ns().saturating_sub(covered) as f64;
    }
    out
}

fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Write spans as JSON lines, one span per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span_at(1, None, 0, 100),
            span_at(2, Some(1), 10, 40),
            span_at(3, Some(1), 30, 60),
            span_at(4, Some(1), 90, 120),
        ];
        let own = self_time_ns(&spans);
        // Children cover [10, 60) and [90, 100) of the root.
        assert_eq!(own["root"], 40.0);
        assert_eq!(own["child"], 30.0 + 30.0 + 30.0);
    }
}
