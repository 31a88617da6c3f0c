//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans are kept in
//! memory while the workload runs and written out as JSON lines when it
//! ends. The layer of a span is its name up to the first `.`
//! (`netlist.parse` belongs to `netlist`); root spans are the
//! benchmark's own (`bench.*`).

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span serves; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span's time belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// In-memory span recorder; recording can be switched on and off so one
/// process measures an untraced and a traced phase.
pub struct Tracer {
    on: AtomicBool,
    base: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that starts off.
    pub fn new() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for spans begun afterwards.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` while recording is off.
    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.on.load(Ordering::Relaxed) {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.map(|p| p.0),
            request,
        });
        Some(SpanId(spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span list poisoned")[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("bench.request", 0, 100, None),
            span("netlist.parse", 10, 30, Some(0)),
            // Overlapping children count once.
            span("server.run_jobs", 40, 70, Some(0)),
            span("server.key_for", 60, 80, Some(0)),
            span("core.p3", 45, 50, Some(2)),
            // A child running past its parent counts only inside it.
            span("tree.segment", 95, 120, Some(0)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 20 - 40 - 5, 20, 25, 20, 5, 25]
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.time("core.p3", None, 1, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let root = t.begin("bench.request", None, 3);
        t.time("netlist.parse", root, 3, || ());
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].request), (Some(0), 3));
        assert_eq!(spans[1].layer(), "netlist");
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
