//! Benchmark-side spans.
//!
//! Spans are recorded only around the benchmark's own calls into each
//! layer (the program itself is not instrumented). They are kept in
//! memory and written once at exit as `gve-obs` trace JSONL, one
//! `span` event per span plus one `layer_self` event per layer, so the
//! file joins with the program's own `--trace` output.

use gve_obs::trace::{Tracer, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span, in microseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one, or 0.
    pub parent: u64,
    /// Spans of one request or run share this id.
    pub trace: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start offset.
    pub start_us: f64,
    /// End offset.
    pub end_us: f64,
}

/// The layer a span name belongs to: the prefix before the first dot,
/// folded onto the repository's crate layers.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or(name) {
        "graph" => "graph",
        "core" | "kernel" | "aggregate" => "core",
        "prim" => "prim",
        "dynamic" => "dynamic",
        "serve" | "cache" | "ingest" | "wal" | "delta" | "json" => "serve",
        "net" => "net",
        "quality" => "quality",
        _ => "bench",
    }
}

/// In-memory span recorder. Disabled recorders cost one relaxed load
/// per span site.
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start_us: micros(self.start - self.recorder.epoch),
            end_us: micros(end - self.recorder.epoch),
        };
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(span);
        }
    }
}

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Recorder {
    /// A recorder, initially disabled.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off for spans opened afterwards.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a root span that starts a new trace.
    pub fn root(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, 0, None)
    }

    /// Opens a span caused by `parent` (same trace).
    pub fn child(&self, name: &'static str, parent: &SpanGuard<'_>) -> SpanGuard<'_> {
        self.open(name, parent.id, Some(parent.trace))
    }

    fn open(&self, name: &'static str, parent: u64, trace: Option<u64>) -> SpanGuard<'_> {
        let id = if self.enabled() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        SpanGuard {
            recorder: self,
            id,
            parent,
            trace: trace.unwrap_or(id),
            name,
            start: Instant::now(),
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

/// Self time per span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_us, span.end_us));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0.0;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut cursor = span.start_us;
                for &(start, end) in intervals.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_us);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (span.id, (span.end_us - span.start_us - covered).max(0.0))
        })
        .collect()
}

/// Total self time per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in spans {
        *layers.entry(layer_of(span.name)).or_default() += selfs[&span.id] / 1e3;
    }
    layers
}

/// Spans written per name; the rest still count toward self times and
/// are reported in one `spans_dropped` event per name.
const MAX_WRITTEN_PER_NAME: usize = 5000;

/// Writes the spans and the per-layer self times as trace JSONL.
pub fn write_jsonl(path: &Path, spans: &[Span], header: &[(&str, Value)]) -> std::io::Result<()> {
    let tracer = Tracer::to_path(path)?;
    tracer.event("bench_environment", header);
    let selfs = self_times(spans);
    let mut written: BTreeMap<&'static str, usize> = BTreeMap::new();
    for span in spans {
        let count = written.entry(span.name).or_default();
        *count += 1;
        if *count > MAX_WRITTEN_PER_NAME {
            continue;
        }
        tracer.event(
            "span",
            &[
                ("name", Value::from(span.name)),
                ("layer", Value::from(layer_of(span.name))),
                ("span_id", Value::from(span.id)),
                ("parent_id", Value::from(span.parent)),
                ("trace_id", Value::from(span.trace)),
                ("start_us", Value::from(span.start_us)),
                ("end_us", Value::from(span.end_us)),
                ("dur_us", Value::from(span.end_us - span.start_us)),
                ("self_us", Value::from(selfs[&span.id])),
            ],
        );
    }
    for (name, count) in written {
        if count > MAX_WRITTEN_PER_NAME {
            tracer.event(
                "spans_dropped",
                &[
                    ("name", Value::from(name)),
                    ("dropped", Value::from(count - MAX_WRITTEN_PER_NAME)),
                ],
            );
        }
    }
    for (layer, ms) in layer_self_ms(spans) {
        tracer.event(
            "layer_self",
            &[("layer", Value::from(layer)), ("self_ms", Value::from(ms))],
        );
    }
    tracer.flush();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let spans = vec![
            span(1, 0, "net.request", 0.0, 100.0),
            span(2, 1, "serve.handle", 10.0, 40.0),
            span(3, 1, "serve.handle", 30.0, 50.0),
            span(4, 2, "core.run", 15.0, 20.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 60.0);
        assert_eq!(selfs[&2], 25.0);
        assert_eq!(selfs[&4], 5.0);
        let layers = layer_self_ms(&spans);
        assert!((layers["net"] - 0.060).abs() < 1e-12);
        assert!((layers["serve"] - 0.045).abs() < 1e-12);
        assert!((layers["core"] - 0.005).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let recorder = Recorder::new();
        drop(recorder.root("core.run"));
        assert!(recorder.spans().is_empty());
        recorder.set_enabled(true);
        let root = recorder.root("core.run");
        drop(recorder.child("quality.check", &root));
        drop(root);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[0].trace, spans[1].trace);
    }
}
