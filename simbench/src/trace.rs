//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every span is a child of the root span `run` (id 0), which covers the
//! whole replay; the root's self time is the part of the run no layer
//! span accounts for. With tracing off the tracer records nothing and
//! [`Tracer::span`] just calls its closure.

use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` from the start of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within one run; the root is 0.
    pub id: u32,
    /// Id of the enclosing span (0 for layer calls; the root is its own
    /// parent).
    pub parent: u32,
    /// `layer.call`, as in the per-layer metric names.
    pub name: String,
    /// Start, ns after the run began.
    pub start_ns: u64,
    /// End, ns after the run began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one run.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// Start a run now; `enabled` decides whether spans are recorded.
    pub fn start(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(Vec::new),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Host ns since the run began.
    pub fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.spans.is_none() {
            return f();
        }
        let start_ns = self.elapsed_ns();
        let out = f();
        let end_ns = self.elapsed_ns();
        let spans = self.spans.as_mut().expect("tracing checked above");
        spans.push(Span {
            id: spans.len() as u32 + 1,
            parent: 0,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Resident set in MB when tracing (read between spans, so the procfs
    /// read is never inside a timed call), `None` otherwise.
    pub fn rss_mb(&self) -> Option<f64> {
        self.enabled().then(crate::host::rss_mb)
    }

    /// Close the run: the recorded spans behind the root span, or none
    /// when tracing was off.
    pub fn finish(self) -> Vec<Span> {
        let end_ns = self.elapsed_ns();
        let Some(layers) = self.spans else {
            return Vec::new();
        };
        let mut spans = Vec::with_capacity(layers.len() + 1);
        spans.push(Span {
            id: 0,
            parent: 0,
            name: "run".into(),
            start_ns: 0,
            end_ns,
        });
        spans.extend(layers);
        spans
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children of one parent never overlap: calls are sequential).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.id != s.parent) {
        if let Some(p) = spans.iter().position(|p| p.id == s.parent) {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}
