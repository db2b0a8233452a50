//! Byte spans into PASDL source text, and the table that maps graph
//! entities back to the statements that declared them.
//!
//! Spans are plain byte offsets so they survive any amount of
//! indirection between the parser and the renderer; line/column
//! positions are recomputed lazily from the source text only when a
//! diagnostic is rendered.

use pas_graph::{EdgeId, ResourceId, TaskId};

/// A half-open byte range `[start, end)` into a source string.
///
/// # Examples
/// ```
/// use pas_lint::Span;
/// let s = Span::new(4, 9);
/// assert_eq!(s.len(), 5);
/// assert!(!s.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered.
    pub end: usize,
}

impl Span {
    /// Creates a span; `end` is clamped to be at least `start`.
    pub fn new(start: usize, end: usize) -> Self {
        Span {
            start,
            end: end.max(start),
        }
    }

    /// Number of bytes covered.
    pub fn len(self) -> usize {
        self.end - self.start
    }

    /// `true` when the span covers no bytes.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Smallest span covering both `self` and `other`.
    pub fn join(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// 1-based `(line, column)` of the span start within `source`.
    ///
    /// Columns count Unicode scalar values, matching what an editor
    /// shows. Offsets past the end of the source map to its last line.
    pub fn line_col(self, source: &str) -> (usize, usize) {
        let upto = &source[..self.start.min(source.len())];
        let line = upto.matches('\n').count() + 1;
        let line_start = upto.rfind('\n').map_or(0, |nl| nl + 1);
        let col = upto[line_start..].chars().count() + 1;
        (line, col)
    }
}

/// Maps constraint-graph entities back to the spec-source statements
/// that declared them.
///
/// Produced by `pas-spec`'s span-aware parse entry point; an
/// [`empty`](SpanTable::empty) table is used for programmatically
/// built problems, in which case diagnostics simply carry no spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTable {
    /// Span of the `problem "name"` header name.
    pub problem: Option<Span>,
    /// Span of the `pmax` statement.
    pub pmax: Option<Span>,
    /// Span of the `pmin` statement.
    pub pmin: Option<Span>,
    /// Span of the `background` statement.
    pub background: Option<Span>,
    /// Span of the `deadline` statement.
    pub deadline: Option<Span>,
    tasks: Vec<Option<Span>>,
    resources: Vec<Option<Span>>,
    edges: Vec<Option<Span>>,
}

/// Stores `span` at `index`, growing `slots` as needed.
fn put(slots: &mut Vec<Option<Span>>, index: usize, span: Span) {
    if slots.len() <= index {
        slots.resize(index + 1, None);
    }
    slots[index] = Some(span);
}

impl SpanTable {
    /// A table with no spans at all (programmatic problems).
    pub fn empty() -> Self {
        SpanTable::default()
    }

    /// Records the declaring statement of a task.
    pub fn set_task(&mut self, id: TaskId, span: Span) {
        put(&mut self.tasks, id.index(), span);
    }

    /// Records the declaring statement of a resource.
    pub fn set_resource(&mut self, id: ResourceId, span: Span) {
        put(&mut self.resources, id.index(), span);
    }

    /// Records the declaring statement of a constraint edge.
    pub fn set_edge(&mut self, id: EdgeId, span: Span) {
        put(&mut self.edges, id.index(), span);
    }

    /// Span of the statement that declared `id`, if known.
    pub fn task(&self, id: TaskId) -> Option<Span> {
        self.tasks.get(id.index()).copied().flatten()
    }

    /// Span of the statement that declared `id`, if known.
    pub fn resource(&self, id: ResourceId) -> Option<Span> {
        self.resources.get(id.index()).copied().flatten()
    }

    /// Span of the statement that declared `id`, if known.
    pub fn edge(&self, id: EdgeId) -> Option<Span> {
        self.edges.get(id.index()).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_basics() {
        let s = Span::new(3, 8);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(Span::new(4, 2), Span::new(4, 4));
        assert_eq!(s.join(Span::new(10, 12)), Span::new(3, 12));
    }

    #[test]
    fn line_col_is_one_based() {
        let src = "ab\ncdef\ng";
        assert_eq!(Span::new(0, 1).line_col(src), (1, 1));
        assert_eq!(Span::new(1, 2).line_col(src), (1, 2));
        assert_eq!(Span::new(3, 4).line_col(src), (2, 1));
        assert_eq!(Span::new(6, 7).line_col(src), (2, 4));
        assert_eq!(Span::new(8, 9).line_col(src), (3, 1));
    }

    #[test]
    fn table_lookup_round_trip() {
        let mut t = SpanTable::empty();
        assert_eq!(t.task(TaskId::from_index(0)), None);
        t.set_task(TaskId::from_index(2), Span::new(5, 9));
        assert_eq!(t.task(TaskId::from_index(2)), Some(Span::new(5, 9)));
        assert_eq!(t.task(TaskId::from_index(0)), None);
        t.set_resource(ResourceId::from_index(0), Span::new(1, 3));
        assert_eq!(t.resource(ResourceId::from_index(0)), Some(Span::new(1, 3)));
    }
}
