//! The benchmark's clock and its in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! it makes into each layer's public functions; the measured crates
//! carry no instrumentation. A span has a name, a start, an end, a
//! parent, and the group (job or request) it belongs to. Spans stay in
//! memory until the run ends and are then written out as one JSON file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The one wall-clock read of the benchmark: every timing it reports
/// is a difference of two of these.
pub fn now() -> Instant {
    // pra-lint: allow(no-wall-clock): the benchmark measures host time; it produces no result of its own
    Instant::now()
}

/// Milliseconds from `a` to `b` (zero if `b` is earlier).
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// One recorded interval. Times are milliseconds since the recorder's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.sim.PRA-2b`.
    pub name: String,
    /// Job or request the span belongs to, e.g. `sweep2/VGG19/fp16`.
    pub group: String,
    /// Index of the parent span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, ms since the origin.
    pub start_ms: f64,
    /// End, ms since the origin.
    pub end_ms: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn dur_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// An append-only span list for one job or request stream.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    group: String,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose times count from `origin`, tagging every span
    /// with `group`.
    pub fn new(origin: Instant, group: impl Into<String>) -> Self {
        Self { origin, group: group.into(), spans: Vec::new() }
    }

    /// Opens a span under `parent` starting now; [`Recorder::end`]
    /// closes it. Returns the span's index.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let t = ms(self.origin, now());
        self.record_ms(name, parent, t, t)
    }

    /// Closes span `idx` now.
    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ms = ms(self.origin, now());
    }

    /// Records a span given in origin-relative milliseconds.
    pub fn record_ms(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start_ms: f64,
        end_ms: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            group: self.group.clone(),
            parent,
            start_ms,
            end_ms,
        });
        self.spans.len() - 1
    }

    /// Milliseconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        ms(self.origin, t)
    }

    /// Times `f` as a span under `parent`.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.begin(name, parent);
        let r = f();
        self.end(idx);
        r
    }

    /// Consumes the recorder, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus the part of it that its
/// children cover. Children of one parent never overlap here (each
/// recorder is single-threaded), so the covered part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::dur_ms).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ms();
        }
    }
    out
}

/// Summed self time per layer, where a span's layer is its name up to
/// the second dot (`core.sim.PRA-2b` → `core.sim`), in name order.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let layer: String = s.name.splitn(3, '.').take(2).collect::<Vec<_>>().join(".");
        *out.entry(layer).or_insert(0.0) += t;
    }
    out
}

/// Renders spans as a JSON array, one span per line; parents are
/// indices into the same array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": {}, \"group\": {}, \"parent\": {parent}, \
             \"start_ms\": {:.4}, \"end_ms\": {:.4}}}{}",
            pra_bench::report::json_string(&s.name),
            pra_bench::report::json_string(&s.group),
            s.start_ms,
            s.end_ms,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]\n");
    out
}

/// Appends `other`'s spans to `all`, shifting parent indices.
pub fn merge(all: &mut Vec<Span>, other: Vec<Span>) {
    let base = all.len();
    all.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}
