//! In-memory span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its own calls into each layer's
//! public functions; no crate is instrumented. They are kept in memory and
//! written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the recorder's
/// origin, the span that caused it, and the request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: usize,
    pub total_ms: f64,
    /// Duration minus the part covered by child spans.
    pub self_ms: f64,
}

impl LayerTime {
    /// Mean self time per call, 0 for a layer that was never called.
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ms / self.count as f64
        }
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span with known endpoints; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, None, now, now)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Count, total and self time per span name. Children of one parent
    /// never overlap here (they are sequential calls on one thread, or
    /// consecutive phases of one request), so self time is the duration
    /// minus the sum of the children's durations.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += dur.saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let t = Instant::now();
        let ms = Duration::from_millis;
        let root = spans.record("step", None, None, t, t + ms(10));
        spans.record("fwd", Some(root), None, t, t + ms(3));
        spans.record("bwd", Some(root), None, t + ms(3), t + ms(9));
        let by = spans.by_name();
        assert!((by["step"].self_ms - 1.0).abs() < 1e-9);
        assert!((by["bwd"].self_ms - 6.0).abs() < 1e-9);
        assert_eq!(by["fwd"].count, 1);
    }
}
