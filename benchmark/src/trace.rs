//! In-memory spans around the calls the generator makes into the system.
//!
//! A traced run records one span per public call (`node.spawn`,
//! `lookup.query`, `node.begin_stream`, `node.wait`, `node.shutdown`, a
//! simulator `run`), each naming the span that caused it and the session
//! it belongs to. Spans stay in memory and are written out when the run
//! ends. An untraced run goes through the same call sites with the tracer
//! disabled, where `begin`/`end` are a branch on one bool.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// The id a disabled tracer hands out.
const NO_SPAN: SpanId = SpanId(u32::MAX);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `node.wait`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one request.
    pub session: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, session: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.filter(|p| *p != NO_SPAN).map(|p| p.0),
            session,
        });
        id
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled && id != NO_SPAN {
            let now = self.now_ns();
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    /// Records a span over an interval measured by the caller: `wait`
    /// is split into its join and stream parts only after it returns.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        session: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.begin(name, parent, session);
        if id != NO_SPAN {
            let s = &mut self.spans[id.0 as usize];
            s.start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
            s.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
        id
    }

    /// Moves another tracer's spans (one viewer thread's) into this one,
    /// keeping their parent links and rebasing their clocks.
    pub fn absorb(&mut self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len() as u32;
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Writes the spans as tab-separated lines
    /// (`id name start_ns end_ns parent session`).
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tsession")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{:016x}",
                s.name, s.start_ns, s.end_ns, s.session
            )?;
        }
        out.flush()
    }
}

/// A span's self time is its duration minus the part of its interval
/// that its child spans cover (overlapping children are not counted
/// twice; a child reaching outside its parent is clipped).
fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(a, b) in kids.iter() {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            session: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("session", 0, 100, None),
            span("spawn", 10, 30, Some(0)),
            span("wait", 20, 60, Some(0)),  // overlaps spawn by 10
            span("late", 90, 120, Some(0)), // clipped to the parent's end
            span("inner", 25, 35, Some(2)), // grandchild: only wait's self shrinks
        ];
        let t = totals(&spans);
        // children cover [10,60) ∪ [90,100) = 60 of the session's 100.
        assert_eq!(t["session"].self_ns, 40);
        assert_eq!(t["session"].total_ns, 100);
        assert_eq!(t["spawn"].self_ns, 20);
        assert_eq!(t["wait"].self_ns, 30);
        assert_eq!(t["late"].self_ns, 30);
        assert_eq!(t["inner"].count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin("session", None, 7);
        let child = t.begin("spawn", Some(root), 7);
        t.end(child);
        t.end(root);
        let now = Instant::now();
        t.record("wait", Some(root), 7, now, now);
        assert!(t.spans().is_empty());
        assert!(t.totals().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_writes_lines() {
        let mut t = Tracer::new(true);
        let root = t.begin("session", None, 0xabc);
        let child = t.begin("spawn", Some(root), 0xabc);
        t.end(child);
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("spawn"));
        assert!(text.contains("0000000000000abc"));
    }
}
