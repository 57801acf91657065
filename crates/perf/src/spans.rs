//! In-memory spans recorded by the benchmark around its calls into each
//! layer (`name, start, end, parent`, one `repeat` id per measured repeat),
//! written out as JSONL when the run ends, plus the per-layer samples taken
//! at the same boundaries.
//!
//! An untraced run uses the same code with the tracer off: [`Tracer::span`]
//! then only times the call, which the end-to-end measurement needs anyway,
//! and keeps nothing.

use digs_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `core.network.run`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The measured repeat the span belongs to.
    pub repeat: u64,
}

/// Records spans; the open ones form a stack, so a new span's parent is
/// whichever span is open when it starts.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    repeat: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now. Off, it times but records
    /// neither spans nor samples.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            repeat: 0,
            samples: BTreeMap::new(),
        }
    }

    /// Whether spans and samples are being kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording; a traced run alternates it between repeats to
    /// measure what tracing costs.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Adds one per-layer sample (dropped while off).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// The samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Starts the next measured repeat: later spans carry the new id.
    pub fn next_repeat(&mut self) {
        self.repeat += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as a span named `name`; spans `f` records become its
    /// children. Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.on {
            let start = Instant::now();
            let value = f(self);
            return (value, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            repeat: self.repeat,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end_ns = self.ns(Instant::now());
        self.spans[id].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Records an interval that was timed elsewhere (on a pool worker, or
    /// between two socket reads) as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            repeat: self.repeat,
        });
    }

    /// Every span recorded so far, in start order of their recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time, in seconds, of the latest span named `name`.
    pub fn self_secs_of_last(&self, name: &str) -> Option<f64> {
        let id = self.spans.iter().rposition(|s| s.name == name)?;
        Some(self_time_ns(&self.spans, id) as f64 / 1e9)
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let row = out.entry(span.name).or_default();
            row.0 += 1;
            row.1 += (span.end_ns - span.start_ns) as f64 / 1e9;
            row.2 += self_time_ns(&self.spans, id) as f64 / 1e9;
        }
        out
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory or the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::Obj(vec![
                ("id".into(), Value::Num(id as f64)),
                ("name".into(), Value::Str(s.name.into())),
                ("start_ns".into(), Value::Num(s.start_ns as f64)),
                ("end_ns".into(), Value::Num(s.end_ns as f64)),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ("repeat".into(), Value::Num(s.repeat as f64)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may overlap (pool workers run side
/// by side), so the covered part is the union of their intervals, clipped
/// to the parent.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, repeat: 0 }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 40);
        assert_eq!(self_time_ns(&spans, 1), 20);
        // A grandchild is charged to its own parent only.
        assert_eq!(self_time_ns(&spans, 2), 35);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(130, 170, Some(0)),
            span(120, 140, Some(0)),
            span(190, 250, Some(0)),
            span(0, 50, Some(0)),
        ];
        // Covered: 110..170 and 190..200.
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn nested_spans_get_their_parent_and_repeat() {
        let mut tracer = Tracer::new(true);
        tracer.next_repeat();
        let (value, secs) = tracer.span("outer", |t| {
            t.span("inner", |_| ());
            let now = Instant::now();
            t.record("timed-elsewhere", now, now);
            7
        });
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        let names: Vec<_> = tracer.spans().iter().map(|s| (s.name, s.parent, s.repeat)).collect();
        assert_eq!(
            names,
            [("outer", None, 1), ("inner", Some(0), 1), ("timed-elsewhere", Some(0), 1)]
        );
        let summary = tracer.summary();
        assert_eq!(summary["outer"].0, 1);
        assert!(summary["outer"].2 <= summary["outer"].1);
    }

    #[test]
    fn a_tracer_that_is_off_times_but_keeps_nothing() {
        let mut tracer = Tracer::new(false);
        let (value, secs) = tracer.span("outer", |t| {
            t.sample("layer.metric", 1.0);
            t.record("timed-elsewhere", Instant::now(), Instant::now());
            3
        });
        assert_eq!(value, 3);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
        assert!(tracer.samples("layer.metric").is_empty());
        tracer.set_on(true);
        tracer.sample("layer.metric", 2.0);
        assert_eq!(tracer.samples("layer.metric"), [2.0]);
    }
}
