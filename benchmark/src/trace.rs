//! In-memory spans recorded around calls into the platform's layers.
//!
//! Every span carries a name, start, end, the span that caused it and
//! a request id. Spans stay in memory while the workload runs and are
//! written out once at the end. A layer's self time is its duration
//! minus the part covered by its child spans. With tracing off nothing
//! is recorded and [`Tracer::time`] is a plain call.

use crate::measure::{nanos, Digest};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span within its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// One thread's span recorder. Per-thread tracers are merged with
/// [`Tracer::absorb`] after their threads are joined.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self { enabled, epoch, spans: Vec::new() }
    }

    /// A tracer for another thread, sharing this one's clock.
    pub fn fork(&self) -> Self {
        Self::new(self.enabled, self.epoch)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; recorded spans are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span that began at `start`, for child spans to name as
    /// their parent; close it with [`Tracer::close`]. `None` when off.
    pub fn open(&mut self, name: &'static str, start: Instant, request: u64) -> Option<SpanId> {
        self.record(name, None, start, start, request);
        self.enabled.then(|| self.spans.len() - 1)
    }

    /// Ends a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = nanos(self.epoch.elapsed());
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now(), request);
        out
    }

    /// Records a span measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
        request: u64,
    ) {
        if self.enabled {
            let start_ns = nanos(start.saturating_duration_since(self.epoch));
            let end_ns = nanos(end.saturating_duration_since(self.epoch));
            self.spans.push(Span { name, start_ns, end_ns, parent, request });
        }
    }

    /// Moves another tracer's spans into this one, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Duration digest of every span with this name.
    pub fn digest(&self, name: &str) -> Option<Digest> {
        Digest::of(&self.durations(name))
    }

    /// Per-name totals: `(count, total ns, self ns)`.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration.saturating_sub(children);
        }
        totals
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(true, epoch);
        tracer.spans.push(Span {
            name: "outer",
            start_ns: 0,
            end_ns: 100,
            parent: None,
            request: 1,
        });
        tracer.spans.push(Span {
            name: "inner",
            start_ns: 10,
            end_ns: 40,
            parent: Some(0),
            request: 1,
        });
        let mut other = tracer.fork();
        other.spans.push(Span { name: "outer", start_ns: 0, end_ns: 50, parent: None, request: 2 });
        other.spans.push(Span {
            name: "inner",
            start_ns: 0,
            end_ns: 20,
            parent: Some(0),
            request: 2,
        });
        tracer.absorb(other);
        let totals = tracer.layer_totals();
        assert_eq!(totals["outer"], (2, 150, 100));
        assert_eq!(totals["inner"], (2, 50, 50));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now());
        assert_eq!(tracer.time("x", None, 0, || 5), 5);
        assert!(tracer.layer_totals().is_empty());
    }
}
