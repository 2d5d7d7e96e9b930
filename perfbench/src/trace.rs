//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the operation (trial, session, job) it belongs to. A disabled tracer
//! records nothing and reads no clock, so the untraced run pays only a
//! branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<SpanId>,
    op: u64,
}

/// Time and count per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed span durations (seconds).
    pub total_s: f64,
    /// Summed self time: each span's duration minus the part of it that
    /// its child spans cover (seconds).
    pub self_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: Instant::now(), end: None, parent, op });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (and any span still open inside it).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end.get_or_insert(now);
            if top == id {
                break;
            }
        }
    }

    /// Records a finished span from timestamps taken elsewhere (event
    /// arrival times); it opens nothing.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let parent = parent.or_else(|| self.open.last().copied());
        self.spans.push(Span { name, start, end: Some(end), parent, op });
        Some(self.spans.len() - 1)
    }

    /// Per-name totals and self times over every closed span.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end) {
                children[p].push((s.start, end));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let Some(end) = s.end else { continue };
            let total = end.saturating_duration_since(s.start).as_secs_f64();
            let covered = covered_seconds(s.start, end, kids);
            let layer = out.entry(s.name).or_default();
            layer.count += 1;
            layer.total_s += total;
            layer.self_s += (total - covered).max(0.0);
        }
        out
    }

    /// The spans as one JSON array: name, start and end in µs since the
    /// tracer was created, parent index and operation id.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let end = s.end.map_or(-1.0, us);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{end:.3},\
                 \"parent\":{parent},\"op\":{}}}",
                s.name,
                us(s.start),
                s.op
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Seconds of `[start, end]` covered by the union of `intervals`.
fn covered_seconds(start: Instant, end: Instant, mut intervals: Vec<(Instant, Instant)>) -> f64 {
    intervals.sort_by_key(|&(s, _)| s);
    let mut covered = 0.0;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e.duration_since(s).as_secs_f64();
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("job", 1, at(0), at(100), None);
        // Two overlapping children cover 10..50; a third covers 60..70.
        t.record("round", 1, at(10), at(40), root);
        t.record("round", 1, at(30), at(50), root);
        t.record("round", 1, at(60), at(70), root);
        let layers = t.layers();
        let job = layers["job"];
        assert_eq!(job.count, 1);
        assert!((job.total_s - 0.100).abs() < 1e-9);
        assert!((job.self_s - 0.050).abs() < 1e-9);
        let round = layers["round"];
        assert_eq!(round.count, 3);
        assert!((round.self_s - 0.060).abs() < 1e-9);
    }

    #[test]
    fn nested_begin_end_links_parents() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
        assert_eq!(t.layers()["outer"].count, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0);
        assert!(id.is_none());
        t.end(id);
        assert!(t.layers().is_empty());
    }
}
