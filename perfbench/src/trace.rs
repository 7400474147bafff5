//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that encloses it.
//! Spans stay in memory while the run lasts and are written once, as a
//! Chrome trace (`chrome://tracing` / Perfetto), when it ends. The layer
//! of a span is its name up to the first `.`; spans named `op.*` are the
//! end-to-end operations, and their self time is the unattributed
//! remainder.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. `parent` is the index of the enclosing span.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Record child spans of the innermost open span from durations a
    /// layer measured itself (its job profile's phases), laid end to end
    /// from the parent's start.
    pub fn phases(&mut self, phases: &[(&'static str, Duration)]) {
        let parent = *self.open.last().expect("phases are recorded inside a span");
        let mut at = self.spans[parent].start;
        for &(name, dur) in phases {
            self.spans.push(Span { name, start: at, end: at + dur, parent: Some(parent) });
            at += dur;
        }
    }

    /// Durations, in order, of the spans named `name` whose root span
    /// is named `root` (`None`: spans with no parent at all).
    pub fn durations(&self, name: &str, root: Option<&str>) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.root_name(s) == root)
            .map(Span::dur)
            .collect()
    }

    fn root_name(&self, span: &Span) -> Option<&'static str> {
        let mut at = span.parent?;
        while let Some(p) = self.spans[at].parent {
            at = p;
        }
        Some(self.spans[at].name)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur().saturating_sub(c)).collect()
    }

    /// Self time per layer, summed over the run, layers in first-seen
    /// order.
    pub fn layer_self_times(&self) -> Vec<(&'static str, Duration)> {
        let mut out: Vec<(&'static str, Duration)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            match out.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, d)) => *d += own,
                None => out.push((layer, own)),
            }
        }
        out
    }

    /// The run's spans as a Chrome trace JSON array.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i > 0 { ",\n" } else { "" },
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start.as_secs_f64() * 1e6,
                s.dur().as_secs_f64() * 1e6,
            );
        }
        out.push_str("\n]\n");
        out
    }
}
