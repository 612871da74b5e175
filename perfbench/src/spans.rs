//! In-memory spans for the traced run.
//!
//! A span records a name, start and end (nanoseconds since the recorder's
//! epoch), its parent, and the request it belongs to. Spans are kept in
//! memory while the run is timed and written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `guard.replay`.
    pub name: &'static str,
    /// Start, ns since the recorder epoch.
    pub start: u64,
    /// End, ns since the recorder epoch (`start` while still open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span belongs to (`u64::MAX` for set-up).
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder.
pub struct Recorder {
    epoch: Instant,
    /// Every span opened so far, in opening order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `i`.
    pub fn close(&mut self, i: usize) {
        self.spans[i].end = self.now();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let i = self.open(name, request, parent);
        let r = f();
        self.close(i);
        r
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == u64::MAX {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

fn children(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start, s.end));
        }
    }
    kids
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    children(spans)
        .into_iter()
        .zip(spans)
        .map(|(kids, s)| s.dur() - covered(kids, s.start, s.end))
        .collect()
}

/// Fraction of span `i`'s interval covered by its children.
pub fn coverage(spans: &[Span], i: usize) -> f64 {
    let kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start, s.end))
        .collect();
    let s = &spans[i];
    if s.dur() == 0 {
        return 1.0;
    }
    covered(kids, s.start, s.end) as f64 / s.dur() as f64
}

/// Per span name: total self time in ns and number of spans.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("jit", 10, 30, Some(0)),
            span("des", 30, 50, Some(0)),
            // Overlaps `des` and sticks out past the parent's end: only
            // the union inside the parent counts.
            span("export", 40, 120, Some(0)),
            span("inner", 12, 20, Some(1)),
        ];
        // Children of `request` cover [10, 100) = 90.
        assert_eq!(self_times(&spans), vec![10, 12, 20, 80, 8]);
        assert!((coverage(&spans, 0) - 0.9).abs() < 1e-12);
        assert!((coverage(&spans, 1) - 0.4).abs() < 1e-12);
        // A leaf has no children to cover it.
        assert_eq!(coverage(&spans, 4), 0.0);
    }

    #[test]
    fn self_time_aggregates_by_name() {
        let spans = vec![
            span("request", 0, 50, None),
            span("des", 5, 45, Some(0)),
            span("request", 50, 80, None),
            span("des", 50, 80, Some(2)),
        ];
        let by = self_by_name(&spans);
        assert_eq!(by["request"], (10, 2));
        assert_eq!(by["des"], (70, 2));
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut r = Recorder::new();
        let root = r.open("request", 7, None);
        let v = r.time("jit", 7, Some(root), || 41 + 1);
        r.close(root);
        assert_eq!(v, 42);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[0].start <= r.spans[1].start && r.spans[1].end <= r.spans[0].end);
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"jit\"") && text.contains("\"request\":7"));
    }
}
