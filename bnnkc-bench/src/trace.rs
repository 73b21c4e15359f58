//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a public entry point of the
//! program (codec, container, graph, engine, registry, server, wire) in
//! a span: name, start, end, parent span and request id. Spans stay in
//! memory and are written out as JSON lines when the run ends. With
//! tracing off a span costs one branch and records nothing.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Ids start at 1; `parent` 0 means a root span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Span id, unique within the run.
    pub id: u32,
    /// Id of the span open on the same thread when this one began.
    pub parent: u32,
    /// Layer-qualified name, e.g. `codec.compress`.
    pub name: &'static str,
    /// Request id (operation index within its phase; 0 outside phases).
    pub req: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// Open span ids on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Records its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<(u32, u32, &'static str, u64, Instant)>,
}

impl Tracer {
    /// A recorder, recording from the start when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on: AtomicBool::new(on),
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::with_capacity(if on { 1 << 16 } else { 0 })),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Pause or resume recording (the traced run measures its own
    /// overhead by timing a phase both ways).
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Open a span on the current thread.
    pub fn span(&self, name: &'static str, req: u64) -> Guard<'_> {
        if !self.enabled() {
            return Guard {
                tracer: self,
                open: None,
            };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Guard {
            tracer: self,
            open: Some((id, parent, name, req, Instant::now())),
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, req);
        f()
    }

    /// Every finished span, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Write the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some((id, parent, name, req, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        let t0 = self.tracer.t0;
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: start.duration_since(t0).as_nanos() as u64,
            end_ns: end.duration_since(t0).as_nanos() as u64,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per-name aggregates over a span list.
#[derive(Debug)]
pub struct Profile<'a> {
    spans: &'a [Span],
    /// Per span id, the ns its direct children cover.
    child_ns: std::collections::HashMap<u32, u64>,
}

impl<'a> Profile<'a> {
    /// Aggregate over `spans`.
    pub fn new(spans: &'a [Span]) -> Self {
        let mut child_ns = std::collections::HashMap::new();
        for c in spans.iter().filter(|c| c.parent != 0) {
            *child_ns.entry(c.parent).or_insert(0) += c.end_ns - c.start_ns;
        }
        Profile { spans, child_ns }
    }

    /// Durations (ms) of every span called `name`, in end order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Distinct span names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Summed self time (ms) of the spans called `name`: each span's
    /// duration minus the part its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children = self.child_ns.get(&s.id).copied().unwrap_or(0);
                ((s.end_ns - s.start_ns).saturating_sub(children)) as f64 / 1e6
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.scope("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.req, 7);
        let p = Profile::new(&spans);
        assert_eq!(p.names(), ["inner", "outer"]);
        assert!(p.total_ms("outer") >= 5.0);
        let self_ms = p.self_ms("outer");
        assert!((self_ms - (p.total_ms("outer") - p.total_ms("inner"))).abs() < 1e-6);
        assert!(self_ms >= 2.0 && self_ms < p.total_ms("outer"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.scope("x", 0, || ());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.scope("y", 0, || ());
        assert_eq!(t.spans().len(), 1);
    }
}
