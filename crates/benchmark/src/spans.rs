//! Spans recorded from the benchmark's own files, around its calls into
//! the system: `{name, start_ns, end_ns, parent, op}`. Kept in memory
//! and written out as JSON lines when the run ends. Spans inside the
//! product are a later issue.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes the enclosing span; `op` is the
/// wave number shared by every span of one op.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called: `build`, `connect`, `op`, `submit`, `drive`,
    /// `settle`, or `replay.<layer function>`.
    pub name: &'static str,
    /// Host ns since the recorder was created.
    pub start_ns: u64,
    /// Host ns since the recorder was created; 0 while still open.
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// The op (wave) this span belongs to, if any.
    pub op: Option<u64>,
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// An in-memory span recorder; [`Spans::off`] records nothing, so the
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that drops everything.
    pub fn off() -> Spans {
        Spans {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A live recorder whose clock starts now.
    pub fn on() -> Spans {
        Spans {
            origin: Some(Instant::now()),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::with_capacity(8),
        }
    }

    /// Opens a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.open_span(name, None)
    }

    /// Opens the root span of op `op`; its children inherit the id.
    pub fn begin_op(&mut self, name: &'static str, op: u64) -> SpanId {
        self.open_span(name, Some(op))
    }

    fn open_span(&mut self, name: &'static str, op: Option<u64>) -> SpanId {
        let Some(origin) = self.origin else {
            return SpanId(None);
        };
        let parent = self.open.last().copied();
        let op = op.or_else(|| parent.and_then(|p| self.spans[p].op));
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span (and any child left open beneath it).
    pub fn end(&mut self, id: SpanId) {
        let (Some(origin), Some(index)) = (self.origin, id.0) else {
            return;
        };
        let now = origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Every span recorded so far.
    pub fn recorded(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"op\":");
            match s.op {
                Some(op) => {
                    let _ = write!(out, "{op}");
                }
                None => out.push_str("null"),
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_inherit_parent_and_op() {
        let mut spans = Spans::on();
        let op = spans.begin_op("op", 7);
        let drive = spans.begin("drive");
        spans.end(drive);
        spans.end(op);
        let recorded = spans.recorded();
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[1].op, Some(7));
        assert!(recorded[0].end_ns >= recorded[1].end_ns);
        assert_eq!(spans.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut spans = Spans::off();
        let id = spans.begin("build");
        spans.end(id);
        assert!(spans.recorded().is_empty());
    }
}
