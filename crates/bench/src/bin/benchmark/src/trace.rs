//! The harness-side span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; spans inside the program are a later issue. A span
//! has a name, a start, an end, the span that caused it and the
//! operation it belongs to. Everything stays in memory until the run
//! ends and is then written as one JSON object per line.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dot-path name, `<layer>.<operation>`.
    pub name: &'static str,
    /// The span that caused this one (`None` for an operation's root).
    pub parent: Option<SpanId>,
    /// The operation all spans of one request share.
    pub op: usize,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span from two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: usize,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        self.spans.len() - 1
    }

    /// Runs `work` inside a span that is a child of `parent`.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        work: impl FnOnce(&mut Recorder, SpanId) -> T,
    ) -> T {
        let op = self.spans[parent].op;
        let start = Instant::now();
        let id = self.record(name, Some(parent), op, start, start);
        let out = work(self, id);
        self.close(id);
        out
    }

    /// Opens a root span for operation `op`; [`Self::close`] ends it.
    pub fn open_root(&mut self, name: &'static str, op: usize) -> SpanId {
        let now = Instant::now();
        self.record(name, None, op, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans in, re-basing parents and times.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            parent: span.parent.map(|p| p + base),
            start_ns: span.start_ns + shift,
            end_ns: span.end_ns + shift,
            ..span
        }));
    }

    /// Writes one JSON object per span: `id`, `parent` (or null), `op`,
    /// `name`, `start_ns`, `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns, self_ns[id]
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children — parallel legs — are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let host = &spans[parent];
            let (start, end) = (
                span.start_ns.max(host.start_ns),
                span.end_ns.min(host.end_ns),
            );
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// For every root span named `root`, the `(name, self time)` of each
/// span beneath it (the root itself included), in recording order.
pub fn self_times_per_root(spans: &[Span], root: &str) -> Vec<Vec<(&'static str, u64)>> {
    let self_ns = self_times(spans);
    // A span is recorded after its parent, so one forward pass resolves
    // every span's root.
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (id, span) in spans.iter().enumerate() {
        root_of.push(span.parent.map_or(id, |parent| root_of[parent]));
    }
    let mut per_root: Vec<(usize, Vec<(&'static str, u64)>)> = Vec::new();
    for (id, span) in spans.iter().enumerate() {
        if spans[root_of[id]].name != root {
            continue;
        }
        if span.parent.is_none() {
            per_root.push((id, Vec::new()));
        }
        let group = per_root
            .iter_mut()
            .rev()
            .find(|(root_id, _)| *root_id == root_of[id])
            .expect("a root is recorded before its descendants");
        group.1.push((span.name, self_ns[id]));
    }
    per_root.into_iter().map(|(_, group)| group).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("b.inner", Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = [
            span("scatter", None, 100, 200),
            span("leg", Some(0), 110, 160),
            span("leg", Some(0), 120, 180),
            // Starts before and ends after its parent: clipped to it.
            span("leg", Some(0), 90, 105),
        ];
        // Cover: [100,105) + [110,180) = 75.
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn spans_group_under_the_roots_asked_for() {
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("untimed", None, 100, 200),
            span("a", Some(2), 110, 190),
            span("op", None, 200, 300),
            span("b", Some(4), 210, 260),
            span("b.inner", Some(5), 220, 230),
        ];
        assert_eq!(
            self_times_per_root(&spans, "op"),
            vec![
                vec![("op", 80), ("a", 20)],
                vec![("op", 50), ("b", 40), ("b.inner", 10)],
            ]
        );
        assert!(self_times_per_root(&spans, "absent").is_empty());
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let mut main = Recorder::new();
        let root = main.open_root("op", 7);
        main.within("child", root, |rec, id| {
            rec.within("grandchild", id, |_, _| ());
        });
        main.close(root);
        let mut other = Recorder::new();
        let other_root = other.open_root("op", 8);
        other.within("child", other_root, |_, _| ());
        other.close(other_root);
        main.absorb(other);
        let spans = main.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].op, 7);
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].op, 8);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
