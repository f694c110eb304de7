//! Spans for the traced run: kept in memory, written out when the run
//! ends, and folded into self time per layer.
//!
//! A span's layer is its name up to the first `.` (`core.ted` → `core`);
//! the root span of every request is `request`, whose self time is the
//! harness's own share. A layer's self time is its span's duration minus
//! the part of that interval its children cover (overlapping children
//! count once).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span ids are indices into [`Tracer::spans`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The request every span of one request shares.
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Placed from a layer's own counter (a measured duration whose
    /// position inside the parent is not known) rather than timed around
    /// a call.
    pub derived: bool,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None if self.name == "request" => "harness",
            None => self.name,
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: now,
            end_ns: now,
            derived: false,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Adds a child of `parent` for a duration a layer measured itself,
    /// placed at `offset_ns` into the parent and clipped to it.
    pub fn derived(
        &mut self,
        name: &'static str,
        parent: SpanId,
        offset_ns: u64,
        duration_ns: u64,
    ) -> SpanId {
        let p = &self.spans[parent];
        let start = (p.start_ns + offset_ns).min(p.end_ns);
        let end = (start + duration_ns).min(p.end_ns);
        let request = p.request;
        self.spans.push(Span {
            name,
            request,
            parent: Some(parent),
            start_ns: start,
            end_ns: end,
            derived: true,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"request\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns, s.derived
            )?;
        }
        out.flush()
    }
}

/// Opens a span when there is a tracer.
pub fn open(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    tracer.as_mut().map(|t| t.begin(name, request, parent))
}

/// Closes a span [`open`] returned.
pub fn close(tracer: &mut Option<&mut Tracer>, span: Option<SpanId>) {
    if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
        t.end(s);
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time summed per layer, over every span.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let own = (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids);
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 7,
            parent,
            start_ns: start,
            end_ns: end,
            derived: false,
        }
    }

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(covered(0, 100, &mut [(10, 30), (20, 50), (90, 120)]), 50);
        assert_eq!(covered(0, 100, &mut []), 0);
        assert_eq!(covered(10, 20, &mut [(0, 5), (25, 30)]), 0);
        assert_eq!(covered(0, 10, &mut [(0, 10), (0, 10)]), 10);
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("serve.call", Some(0), 10, 90),
            span("index.query", Some(1), 20, 60),
            span("core.ted", Some(2), 25, 55),
            span("core.ted", Some(2), 40, 58), // overlaps its sibling
            span("proto.render", Some(0), 90, 95),
        ];
        let by = self_time_by_layer(&spans);
        assert_eq!(by["harness"], 100 - 80 - 5);
        assert_eq!(by["serve"], 80 - 40);
        assert_eq!(by["index"], 40 - 33);
        assert_eq!(by["core"], 30 + 18);
        assert_eq!(by["proto"], 5);
        // Self times of one request tile its wall time exactly when no
        // sibling overlaps; here the overlapping core spans add 15.
        assert_eq!(by.values().sum::<u64>(), 100 + 15);
    }

    #[test]
    fn derived_spans_are_clipped_to_the_parent() {
        let mut t = Tracer::new();
        t.spans.push(span("serve.call", None, 100, 200));
        let a = t.derived("serve.queue_wait", 0, 0, 30);
        let b = t.derived("index.query", 0, 30, 500);
        assert_eq!((t.spans[a].start_ns, t.spans[a].end_ns), (100, 130));
        assert_eq!((t.spans[b].start_ns, t.spans[b].end_ns), (130, 200));
        assert_eq!(t.spans[b].request, 7);
        assert_eq!(self_time_by_layer(&t.spans)["serve"], 30);
    }

    #[test]
    fn layer_names() {
        assert_eq!(span("request", None, 0, 1).layer(), "harness");
        assert_eq!(span("index.pruned.size", None, 0, 1).layer(), "index");
        assert_eq!(span("proto.parse", None, 0, 1).layer(), "proto");
    }
}
