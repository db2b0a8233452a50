//! Constraint edges.
//!
//! Every edge `(u, v)` with weight `w` encodes the linear inequality
//!
//! ```text
//! σ(v) ≥ σ(u) + w
//! ```
//!
//! over task start times, exactly as in the constraint-graph
//! formulation of Chou & Borriello that the paper extends:
//!
//! * a **min separation** "v at least `k` after u" is `u → v` with
//!   weight `k ≥ 0`;
//! * a **max separation** "v at most `k` after u" is the *reversed*
//!   edge `v → u` with weight `−k` (`σ(u) ≥ σ(v) − k`);
//! * a **serialization** edge (same-resource ordering added by the
//!   timing scheduler) is `u → v` with weight `d(u)`;
//! * a **release** edge from the anchor delays a task (`σ(v) ≥ s`),
//!   used by the max/min-power schedulers to push tasks later;
//! * a **lock** fixes a start time with the pair `anchor → v` (`w = s`)
//!   and `v → anchor` (`w = −s`).

use crate::id::NodeId;
use crate::units::TimeSpan;

/// Why an edge exists. The solver treats all kinds identically (the
/// inequality is the same); the kind is kept for diagnostics, undo
/// bookkeeping, chart annotation and DOT export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum EdgeKind {
    /// A user-specified minimum timing separation (includes plain
    /// precedence, which is a min separation of the predecessor's
    /// delay).
    MinSeparation,
    /// A user-specified maximum timing separation (stored reversed with
    /// negative weight).
    MaxSeparation,
    /// Added by the timing scheduler to serialize two tasks that share
    /// an execution resource.
    Serialization,
    /// Added by the power schedulers to delay a task (`anchor → v`).
    Release,
    /// Half of a start-time lock (`anchor → v` with `+s` and
    /// `v → anchor` with `−s`).
    Lock,
}

impl core::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            EdgeKind::MinSeparation => "min",
            EdgeKind::MaxSeparation => "max",
            EdgeKind::Serialization => "serialize",
            EdgeKind::Release => "release",
            EdgeKind::Lock => "lock",
        };
        f.write_str(s)
    }
}

/// A weighted constraint edge: `σ(to) ≥ σ(from) + weight`.
///
/// # Examples
/// ```
/// use pas_graph::{Edge, EdgeKind, NodeId, TaskId};
/// use pas_graph::units::TimeSpan;
/// let e = Edge::new(NodeId::ANCHOR, TaskId::from_index(0).node(),
///                   TimeSpan::from_secs(5), EdgeKind::Release);
/// assert_eq!(e.weight(), TimeSpan::from_secs(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    from: NodeId,
    to: NodeId,
    weight: TimeSpan,
    kind: EdgeKind,
}

impl Edge {
    /// Creates an edge `from → to` with the given weight and kind.
    #[inline]
    pub fn new(from: NodeId, to: NodeId, weight: TimeSpan, kind: EdgeKind) -> Self {
        Edge {
            from,
            to,
            weight,
            kind,
        }
    }

    /// Source vertex `u`.
    #[inline]
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// Target vertex `v`.
    #[inline]
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// Weight `w` of the inequality `σ(v) ≥ σ(u) + w`.
    #[inline]
    pub fn weight(&self) -> TimeSpan {
        self.weight
    }

    /// The reason this edge exists.
    #[inline]
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }

    /// `true` for edges that define a precedence (forward, non-negative
    /// weight) rather than a backward max-separation bound. Precedence
    /// edges are the ones followed by topological traversal in the
    /// timing scheduler.
    #[inline]
    pub fn is_precedence(&self) -> bool {
        !self.weight.is_negative() && !matches!(self.kind, EdgeKind::MaxSeparation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TaskId;

    #[test]
    fn precedence_classification() {
        let a = TaskId::from_index(0).node();
        let b = TaskId::from_index(1).node();
        let min = Edge::new(a, b, TimeSpan::from_secs(5), EdgeKind::MinSeparation);
        assert!(min.is_precedence());
        let max = Edge::new(b, a, TimeSpan::from_secs(-50), EdgeKind::MaxSeparation);
        assert!(!max.is_precedence());
        let ser = Edge::new(a, b, TimeSpan::from_secs(10), EdgeKind::Serialization);
        assert!(ser.is_precedence());
        // A zero-weight min separation is still a precedence.
        let zero = Edge::new(a, b, TimeSpan::ZERO, EdgeKind::MinSeparation);
        assert!(zero.is_precedence());
    }

    #[test]
    fn kind_display() {
        assert_eq!(EdgeKind::MaxSeparation.to_string(), "max");
        assert_eq!(EdgeKind::Serialization.to_string(), "serialize");
    }
}
