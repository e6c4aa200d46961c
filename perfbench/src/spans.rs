//! In-memory spans recorded by the benchmark around its calls into the
//! stack, written out once the run ends.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One span: a named interval, the request it belongs to and the span that
/// caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers (`request`, `walk`, `queue`, ...).
    pub name: &'static str,
    /// The request every span of one call shares.
    pub request: u64,
    /// Index of the parent span in the log, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the log's origin.
    pub end_ns: u64,
}

/// An append-only span log with a common time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant every timestamp counts from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record `[start, end]` and return its index (the parent handle of
    /// spans it causes).
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The recorded spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part its children
    /// cover.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| self_time((s.start_ns, s.end_ns), kids))
            .collect()
    }

    /// Write one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"request\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of a span `[start, end]`: its duration minus the union of its
/// children's intervals clipped to it.
#[must_use]
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // no children: the whole span
        assert_eq!(self_time((0, 100), &[]), 100);
        // disjoint children
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // overlapping children count once
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60), (35, 45)]), 50);
        // children sticking out of the parent are clipped
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // a child covering everything leaves nothing
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
        // empty and outside children are ignored
        assert_eq!(self_time((10, 20), &[(12, 12), (30, 40)]), 10);
    }

    #[test]
    fn log_self_times_follow_parent_links() {
        let origin = Instant::now();
        let at = |ns| origin + Duration::from_nanos(ns);
        let mut log = SpanLog::new(origin);
        let root = log.push("request", 7, None, at(0), at(1_000));
        log.push("walk", 7, Some(root), at(100), at(600));
        let second = log.push("walk", 7, Some(root), at(400), at(900));
        log.push("inner", 7, Some(second), at(500), at(550));
        assert_eq!(log.self_times(), vec![200, 500, 450, 50]);
        assert!(log.spans().iter().all(|s| s.request == 7));
    }
}
