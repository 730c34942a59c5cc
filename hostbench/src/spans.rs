//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (host ns since the tracer's epoch),
//! the span it nests under, and the cell it belongs to. Spans are kept in
//! memory while the workload runs and written out as JSON at exit; a
//! layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use mimd_harness::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Cell the work belongs to (0 for set-up and probes).
    pub cell: u64,
}

/// Handle to an open span (`None` while tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder. Off, it records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose epoch is now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (open spans still close).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            cell,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        self.spans[id].end_ns = self.ns(Instant::now());
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Aggregate wall and self time of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus the time their children cover, ns.
    pub self_ns: u64,
}

fn duration(s: &Span) -> u64 {
    s.end_ns.saturating_sub(s.start_ns)
}

/// Self time per span name. Spans come from one thread's enter/exit
/// stack, so the children of a span never overlap one another.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += duration(s);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let dur = duration(s);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

/// The spans and their self-time summary as one JSON document.
pub fn to_json(header: Vec<(&str, Json)>, spans: &[Span]) -> Json {
    let records = spans
        .iter()
        .map(|s| {
            Json::object([
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", s.parent.map(Json::from).unwrap_or(Json::Null)),
                ("cell", Json::from(s.cell)),
            ])
        })
        .collect();
    let summary = self_times(spans)
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                Json::object([
                    ("count", Json::from(t.count)),
                    ("total_ns", Json::from(t.total_ns)),
                    ("self_ns", Json::from(t.self_ns)),
                ]),
            )
        })
        .collect();
    let mut doc = Json::object(header);
    doc.push_field("self_time", Json::Obj(summary));
    doc.push_field("spans", Json::Arr(records));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("engine.new", 10, 20, Some(0)),
            span("engine.run", 20, 90, Some(0)),
            span("inner", 30, 40, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["cell"].self_ns, 20);
        assert_eq!(t["engine.new"].self_ns, 10);
        assert_eq!(t["engine.run"].total_ns, 70);
        assert_eq!(t["engine.run"].self_ns, 60);
        assert_eq!(t["inner"].self_ns, 10);
    }

    #[test]
    fn self_time_sums_spans_of_one_name() {
        let spans = vec![
            span("cell", 0, 50, None),
            span("engine.run", 10, 40, Some(0)),
            span("cell", 50, 120, None),
            span("engine.run", 55, 115, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["cell"].count, 2);
        assert_eq!(t["cell"].total_ns, 50 + 70);
        assert_eq!(t["cell"].self_ns, 20 + 10);
        assert_eq!(t["engine.run"].self_ns, 30 + 60);
    }

    #[test]
    fn tracer_nests_and_stays_silent_when_off() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("cell", 1);
        let inner = tr.enter("engine.run", 1);
        tr.exit(inner);
        tr.exit(outer);
        let after = tr.enter("probe", 0);
        tr.exit(after);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        let o = off.enter("cell", 1);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
