//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself around its calls into each
//! layer (spans inside the engine are ROADMAP item 1).  They live in a
//! buffer allocated up front and are written out only when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one statement (or commit, or set-up) share this identifier.
    pub stmt_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; closing it twice is a compile error.
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    enabled: bool,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, so recording a span never
    /// allocates inside a measured interval.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            enabled: true,
        }
    }

    /// Recording off: `open`/`close` cost one branch each.  The traced run
    /// times the same calls with recording off and on; the difference is
    /// the tracing overhead.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn open(&mut self, name: &'static str, stmt_id: u32) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(index);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt_id,
        });
        Open(index)
    }

    /// Close a span; returns its duration in ns (0 with recording off).
    pub fn close(&mut self, open: Open) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// direct children cover (children never overlap: one thread records).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                own[span.parent as usize] -= span.duration_ns();
            }
        }
        own
    }

    /// Total self time and span count per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = by_name.entry(span.name).or_insert((0u64, 0u64));
            entry.0 += own;
            entry.1 += 1;
        }
        by_name
    }

    /// Write the spans as one JSON object per line.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"stmt_id\": {}}}",
                span.name, span.start_ns, span.end_ns, span.stmt_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt_id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::with_capacity(4);
        t.spans = vec![
            span("statement", 0, 100, NO_PARENT),
            span("exec", 10, 70, 0),
            span("staircase", 20, 50, 1),
            span("serialize", 70, 95, 0),
        ];
        assert_eq!(t.self_times_ns(), vec![15, 30, 30, 25]);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["statement"], (15, 1));
        assert_eq!(by_name["exec"], (30, 1));
        // self times partition the root span
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn nesting_sets_parents_and_disabled_records_nothing() {
        let mut t = Tracer::with_capacity(8);
        let root = t.open("statement", 7);
        let child = t.open("exec", 7);
        t.close(child);
        let sibling = t.open("serialize", 7);
        t.close(sibling);
        t.close(root);
        let parents: Vec<u32> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0]);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.stmt_id == 7 && s.end_ns >= s.start_ns));
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);

        t.set_enabled(false);
        let off = t.open("statement", 8);
        t.close(off);
        assert_eq!(t.spans().len(), 3);
    }
}
