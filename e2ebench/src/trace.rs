//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span holds a name, start, end, parent span and cycle id. Spans stay
//! in memory and are written out when the run ends. A layer's self time
//! is its span minus its child spans; every span of one thread is
//! sequential, so children never overlap. With tracing off every call
//! is a no-op and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// The parent of a root span (and the id handed out while tracing is
/// off).
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: SpanId,
    cycle: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `true` in a traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Open span `name` under `parent` for `cycle`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, cycle: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            cycle,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Run `f` inside span `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        cycle: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, cycle);
        let out = f();
        self.end(id);
        out
    }

    /// Total duration in ms of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }

    /// Duration in ms of the most recent span named `name` (0 if none).
    pub fn last_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end - s.start).as_secs_f64() * 1e3)
    }

    /// Recorded spans per name.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += 1;
        }
        out
    }

    /// Self time in ms per span name: each span's duration minus the
    /// durations of its children.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let ms = (s.end - s.start).as_secs_f64() * 1e3;
            *out.entry(s.name).or_default() += ms;
            if s.parent != NO_SPAN {
                *out.entry(self.spans[s.parent].name).or_default() -= ms;
            }
        }
        out
    }

    /// Write every span as tab-separated `id parent cycle name start_us
    /// end_us` lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tcycle\tname\tstart_us\tend_us")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.cycle,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", NO_SPAN, 1);
        t.span("child", root, 1, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.end(root);
        let own = t.self_ms();
        assert!(own["child"] >= 5.0);
        assert!((own["root"] + own["child"] - t.total_ms("root")).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("root", NO_SPAN, 1);
        t.end(id);
        assert!(t.self_ms().is_empty());
    }
}
