//! The harness-side span recorder of a traced run.
//!
//! Every call the harness makes into a layer is bracketed by a span:
//! name, start, end, parent, plus the work counts observed at the same
//! boundary. Spans live in memory and are written when the run ends.
//! A span's name starts with its layer (`core.search`, `index.probe`);
//! the root `query` span belongs to the harness itself.

use sparta_obs::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Index of the query in the workload's list; shared by every span
    /// of one request. `None` for probe spans.
    pub query: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// Records spans against one epoch. One tracer per recording thread;
/// `first_id` keeps ids of merged tracers distinct.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, first_id: u64) -> Self {
        Self {
            epoch,
            next_id: first_id,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, query: Option<u64>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            query,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        id
    }

    /// Closes the span and attaches the counts seen at its boundary.
    pub fn end(&mut self, id: u64, counts: &[(&'static str, u64)]) {
        let end_ns = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("span was opened by this tracer");
        span.end_ns = end_ns;
        span.counts.extend_from_slice(counts);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The layer a span is charged to.
pub fn layer_of(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => "harness",
    }
}

/// Self time per layer: each span's duration minus its direct
/// children's, summed by layer. The tracer's spans nest properly
/// (a child opens and closes inside its parent), so self times are
/// never negative and those of one tree sum to its root's duration.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *covered.entry(parent).or_default() += dur(s);
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let own = dur(s).saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        *out.entry(layer_of(s.name).to_string()).or_default() += own;
    }
    out
}

/// Total duration of the root spans (those without a parent).
pub fn root_time(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum()
}

pub fn span_json(s: &Span) -> Json {
    let counts = s.counts.iter().fold(Json::obj(), |j, &(k, v)| j.with(k, v));
    Json::obj()
        .with("id", s.id)
        .with("parent", s.parent.map_or(Json::Null, Json::U64))
        .with("name", s.name)
        .with("query", s.query.map_or(Json::Null, Json::U64))
        .with("start_ns", s.start_ns)
        .with("end_ns", s.end_ns)
        .with("counts", counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            query: Some(0),
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = vec![
            span(1, None, "query", 0, 100),
            span(2, Some(1), "server.roundtrip", 10, 90),
            span(3, Some(2), "core.search", 20, 70),
            span(4, Some(2), "index.probe", 75, 85),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["harness"], 20);
        assert_eq!(by_layer["server"], 80 - 50 - 10);
        assert_eq!(by_layer["core"], 50);
        assert_eq!(by_layer["index"], 10);
        assert_eq!(by_layer.values().sum::<u64>(), root_time(&spans));
    }

    #[test]
    fn tracer_records_nesting_and_counts() {
        let mut t = Tracer::new(Instant::now(), 1000);
        let root = t.begin("query", None, Some(7));
        let child = t.begin("core.search", Some(root), Some(7));
        t.end(child, &[("postings_scanned", 42)]);
        t.end(root, &[]);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[1].id), (1000, 1001));
        assert_eq!(spans[1].parent, Some(1000));
        assert_eq!(spans[1].counts, vec![("postings_scanned", 42)]);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let j = span_json(&spans[1]);
        assert_eq!(j.get("name").and_then(Json::as_str), Some("core.search"));
    }
}
