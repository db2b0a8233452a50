//! Frozen CSR adjacency and a dense bitset for search hot paths
//! (DESIGN.md §15).
//!
//! [`ConstraintGraph`] stores adjacency as per-node `Vec<EdgeId>`
//! indirection into the edge arena — ideal for journaled mutation,
//! hostile to a branch-and-bound inner loop that walks the same
//! in-edge lists millions of times: every edge visit chases two
//! pointers into unrelated heap blocks.
//!
//! [`CsrAdjacency`] is a one-shot snapshot of that adjacency in
//! compressed-sparse-row form: one contiguous entry slab per
//! direction plus `n + 1` offsets, so a node's in- or out-edges are a
//! contiguous `&[CsrEntry]` slice. Entry order within a node is
//! exactly the [`ConstraintGraph::in_edges`] /
//! [`ConstraintGraph::out_edges`] iteration order, so traversals that
//! switch to the snapshot observe the same edge sequence (and
//! therefore make bit-identical decisions).
//!
//! The snapshot is immutable by design: the exact search never
//! mutates the graph (it assigns start times in a side array), and
//! the backtracking schedulers only add *release/serialization/lock*
//! edges they later undo — callers that mutate must rebuild or
//! consult the live graph for the mutated part.

use crate::graph::ConstraintGraph;
use crate::id::NodeId;
use crate::units::TimeSpan;
use crate::EdgeKind;

/// One adjacency entry: the far endpoint plus the edge payload.
///
/// For an in-edge of `v`, `other` is the source `u` of
/// `σ(v) ≥ σ(u) + weight`; for an out-edge of `u` it is the target
/// `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrEntry {
    /// The far endpoint of the edge.
    pub other: NodeId,
    /// Weight `w` of the inequality `σ(v) ≥ σ(u) + w`.
    pub weight: TimeSpan,
    /// Why the edge exists (see [`EdgeKind`]).
    pub kind: EdgeKind,
}

impl CsrEntry {
    /// Mirrors [`crate::Edge::is_precedence`]: a forward,
    /// non-negative-weight constraint rather than a reversed
    /// max-separation bound.
    #[inline]
    pub fn is_precedence(&self) -> bool {
        !self.weight.is_negative() && !matches!(self.kind, EdgeKind::MaxSeparation)
    }
}

/// Compressed-sparse-row snapshot of a [`ConstraintGraph`]'s
/// adjacency, both directions.
///
/// # Examples
/// ```
/// use pas_graph::csr::CsrAdjacency;
/// use pas_graph::units::{Power, TimeSpan};
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
///
/// let mut g = ConstraintGraph::new();
/// let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(2), Power::ZERO));
/// let b = g.add_task(Task::new("b", r, TimeSpan::from_secs(3), Power::ZERO));
/// g.precedence(a, b);
///
/// let csr = CsrAdjacency::build(&g);
/// // b's in-edges: the implicit anchor release plus a → b.
/// let ins: Vec<_> = csr.in_edges(b.node()).iter().map(|e| e.other).collect();
/// assert_eq!(ins, vec![pas_graph::NodeId::ANCHOR, a.node()]);
/// ```
#[derive(Debug, Clone)]
pub struct CsrAdjacency {
    in_off: Vec<u32>,
    in_entries: Vec<CsrEntry>,
    out_off: Vec<u32>,
    out_entries: Vec<CsrEntry>,
}

impl CsrAdjacency {
    /// Snapshots `graph`'s adjacency. `O(V + E)`.
    pub fn build(graph: &ConstraintGraph) -> Self {
        let nodes = graph.num_tasks() + 1;
        let node_ids = (0..nodes).map(|i| NodeId(i as u32));

        let mut in_off = Vec::with_capacity(nodes + 1);
        let mut in_entries = Vec::with_capacity(graph.num_edges());
        in_off.push(0);
        for node in node_ids.clone() {
            for (_, e) in graph.in_edges(node) {
                in_entries.push(CsrEntry {
                    other: e.from(),
                    weight: e.weight(),
                    kind: e.kind(),
                });
            }
            in_off.push(in_entries.len() as u32);
        }

        let mut out_off = Vec::with_capacity(nodes + 1);
        let mut out_entries = Vec::with_capacity(graph.num_edges());
        out_off.push(0);
        for node in node_ids {
            for (_, e) in graph.out_edges(node) {
                out_entries.push(CsrEntry {
                    other: e.to(),
                    weight: e.weight(),
                    kind: e.kind(),
                });
            }
            out_off.push(out_entries.len() as u32);
        }

        CsrAdjacency {
            in_off,
            in_entries,
            out_off,
            out_entries,
        }
    }

    /// The number of nodes covered (tasks plus the anchor).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.in_off.len() - 1
    }

    /// In-edges of `node`, in [`ConstraintGraph::in_edges`] order;
    /// each entry's `other` is the edge source.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[CsrEntry] {
        let i = node.index();
        &self.in_entries[self.in_off[i] as usize..self.in_off[i + 1] as usize]
    }

    /// Out-edges of `node`, in [`ConstraintGraph::out_edges`] order;
    /// each entry's `other` is the edge target.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[CsrEntry] {
        let i = node.index();
        &self.out_entries[self.out_off[i] as usize..self.out_off[i + 1] as usize]
    }
}

/// A fixed-capacity dense bitset over `0..len`, one `u64` word per 64
/// indices.
///
/// [`ones`](Self::ones) iterates set indices in ascending order, so a
/// frontier kept in a `FixedBitset` reproduces the id-ascending task
/// scan order the searches previously got from
/// `for v in graph.task_ids()` — a layout change, not an order
/// change.
///
/// # Examples
/// ```
/// use pas_graph::csr::FixedBitset;
/// let mut s = FixedBitset::new(130);
/// s.insert(3);
/// s.insert(129);
/// s.insert(64);
/// assert!(s.contains(64));
/// assert_eq!(s.ones().collect::<Vec<_>>(), vec![3, 64, 129]);
/// s.remove(64);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedBitset {
    words: Vec<u64>,
    universe: usize,
    ones: usize,
}

impl FixedBitset {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        FixedBitset {
            words: vec![0; len.div_ceil(64)],
            universe: len,
            ones: 0,
        }
    }

    /// The universe size this set was created with.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.universe
    }

    /// The number of set indices.
    #[inline]
    pub fn len(&self) -> usize {
        self.ones
    }

    /// `true` when no index is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// `true` when `i` is set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.universe);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Sets `i`; returns `true` when it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.universe);
        let word = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let fresh = *word & mask == 0;
        *word |= mask;
        // Deliberately branchy: the optimizer drops the increment when
        // written as `self.ones += fresh as usize` (and as
        // `usize::from(fresh)`). Re-checked on rustc 1.95.0: written
        // that way, the release-mode unit test below still reads
        // `len() == 0` after 8 inserts. That test pins the counter
        // against exactly this.
        if fresh {
            self.ones += 1;
        }
        fresh
    }

    /// Clears `i`; returns `true` when it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.universe);
        let word = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let present = *word & mask != 0;
        *word &= !mask;
        if present {
            self.ones -= 1;
        }
        present
    }

    /// Clears every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Iterates the set indices in ascending order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            current: self.words.first().copied().unwrap_or(0),
            word_idx: 0,
        }
    }
}

/// Ascending-index iterator over a [`FixedBitset`]'s set bits.
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    current: u64,
    word_idx: usize,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some((self.word_idx << 6) | bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Resource, ResourceKind, Task};
    use crate::units::Power;

    fn diamond() -> (ConstraintGraph, Vec<crate::TaskId>) {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let ids: Vec<_> = (0..4)
            .map(|i| {
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(2 + i),
                    Power::from_watts(1),
                ))
            })
            .collect();
        g.precedence(ids[0], ids[1]);
        g.precedence(ids[0], ids[2]);
        g.precedence(ids[1], ids[3]);
        g.precedence(ids[2], ids[3]);
        g.max_separation(ids[1], ids[2], TimeSpan::from_secs(9));
        (g, ids)
    }

    #[test]
    fn csr_matches_live_adjacency_in_content_and_order() {
        let (g, _) = diamond();
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.num_nodes(), g.num_tasks() + 1);
        for i in 0..csr.num_nodes() {
            let node = NodeId(i as u32);
            let live_in: Vec<_> = g
                .in_edges(node)
                .map(|(_, e)| (e.from(), e.weight(), e.kind()))
                .collect();
            let snap_in: Vec<_> = csr
                .in_edges(node)
                .iter()
                .map(|e| (e.other, e.weight, e.kind))
                .collect();
            assert_eq!(live_in, snap_in, "in-edges of {node}");
            let live_out: Vec<_> = g
                .out_edges(node)
                .map(|(_, e)| (e.to(), e.weight(), e.kind()))
                .collect();
            let snap_out: Vec<_> = csr
                .out_edges(node)
                .iter()
                .map(|e| (e.other, e.weight, e.kind))
                .collect();
            assert_eq!(live_out, snap_out, "out-edges of {node}");
        }
    }

    #[test]
    fn csr_entry_precedence_matches_edge() {
        let (g, ids) = diamond();
        let csr = CsrAdjacency::build(&g);
        let live: Vec<bool> = g
            .in_edges(ids[2].node())
            .map(|(_, e)| e.is_precedence())
            .collect();
        let snap: Vec<bool> = csr
            .in_edges(ids[2].node())
            .iter()
            .map(CsrEntry::is_precedence)
            .collect();
        assert_eq!(live, snap);
        // The diamond's max separation shows up as a non-precedence
        // in-edge somewhere.
        assert!(csr
            .in_edges(ids[1].node())
            .iter()
            .any(|e| !e.is_precedence()));
    }

    #[test]
    fn bitset_round_trip_and_order() {
        let mut s = FixedBitset::new(200);
        assert!(s.is_empty());
        for i in [199, 0, 63, 64, 65, 127, 128, 5] {
            assert!(s.insert(i));
        }
        assert!(!s.insert(64), "double insert reports not-fresh");
        assert_eq!(s.len(), 8);
        assert_eq!(
            s.ones().collect::<Vec<_>>(),
            vec![0, 5, 63, 64, 65, 127, 128, 199]
        );
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 7);
        assert!(!s.contains(63));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.ones().count(), 0);
    }

    #[test]
    fn bitset_empty_universe() {
        let s = FixedBitset::new(0);
        assert_eq!(s.capacity(), 0);
        assert_eq!(s.ones().count(), 0);
    }
}
