//! The constraint graph `G(V, E)` with journaled mutation.
//!
//! Scheduling proceeds by *adding* edges (serialization, release,
//! lock) and backtracking. The graph therefore records edge additions
//! in strict stack order: [`ConstraintGraph::mark`] takes a checkpoint
//! and [`ConstraintGraph::undo_to`] pops every edge added since — the
//! "undo changes to G since step B" of the paper's Figs. 3, 4 and 6.
//!
//! Every journal entry carries a stamp that is never reused within a
//! graph instance, and every instance (a clone included) has a
//! process-unique id, so a `JournalStamp` names one journal prefix
//! without reference to the edges in it.

use crate::edge::{Edge, EdgeKind};
use crate::id::{EdgeId, NodeId, ResourceId, TaskId};
use crate::task::{Resource, Task};
use crate::units::{Time, TimeSpan};
use std::sync::atomic::{AtomicU64, Ordering};

/// The next unused graph instance id.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

fn fresh_instance() -> u64 {
    // The id publishes no other data; `fetch_add` alone keeps ids
    // unique.
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed)
}

/// A checkpoint of the edge journal, returned by
/// [`ConstraintGraph::mark`].
///
/// Marks must be undone in LIFO order; undoing an older mark also
/// discards younger ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphMark(usize);

/// Names a prefix of one graph instance's edge journal, returned by
/// `ConstraintGraph::journal_stamp`.
///
/// Two equal stamps name the same journal entries: the instance is the
/// same, and the prefix's last entry was never undone (a popped entry's
/// stamp is not reused, and the journal is a stack, so nothing below it
/// was undone either). Unequal stamps prove nothing: a clone, or an
/// undo followed by identical additions, may hold equal edges under a
/// different stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JournalStamp {
    instance: u64,
    entry: u64,
}

/// A constraint graph: tasks (vertices), resources, and weighted
/// constraint edges, plus the virtual anchor vertex.
///
/// Vertices are the anchor plus one node per task; see [`NodeId`].
/// Every task automatically receives a `anchor → task` release edge of
/// weight 0, so all vertices are reachable from the anchor and
/// `σ(v) ≥ 0` holds for every task.
///
/// # Examples
/// ```
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
/// use pas_graph::units::{Power, TimeSpan};
///
/// let mut g = ConstraintGraph::new();
/// let cpu = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", cpu, TimeSpan::from_secs(2), Power::from_watts(1)));
/// let b = g.add_task(Task::new("b", cpu, TimeSpan::from_secs(3), Power::from_watts(2)));
/// g.precedence(a, b); // b starts after a completes
/// assert_eq!(g.num_tasks(), 2);
/// ```
#[derive(Debug)]
pub struct ConstraintGraph {
    tasks: Vec<Task>,
    resources: Vec<Resource>,
    edges: Vec<Edge>,
    /// Journal stamp of each edge, parallel to `edges`.
    stamps: Vec<u64>,
    /// The last stamp handed out; stamps start at 1, so 0 names the
    /// empty prefix.
    last_stamp: u64,
    /// Process-unique id of this instance.
    instance: u64,
    /// Outgoing edge ids per node (anchor = index 0).
    out: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node.
    incoming: Vec<Vec<EdgeId>>,
    /// Task ids per resource, ascending (tasks are never removed or
    /// remapped, so `add_task` appends in id order).
    by_resource: Vec<Vec<TaskId>>,
}

impl ConstraintGraph {
    /// Creates an empty graph containing only the anchor vertex.
    pub fn new() -> Self {
        ConstraintGraph {
            tasks: Vec::new(),
            resources: Vec::new(),
            edges: Vec::new(),
            stamps: Vec::new(),
            last_stamp: 0,
            instance: fresh_instance(),
            out: vec![Vec::new()],
            incoming: vec![Vec::new()],
            by_resource: Vec::new(),
        }
    }

    /// Registers an execution resource.
    pub fn add_resource(&mut self, resource: Resource) -> ResourceId {
        let id = ResourceId::from_index(self.resources.len());
        self.resources.push(resource);
        self.by_resource.push(Vec::new());
        id
    }

    /// Adds a task vertex.
    ///
    /// Automatically adds the `anchor → task` release edge of weight 0
    /// (`σ(v) ≥ 0`).
    ///
    /// # Panics
    /// Panics if the task references an unknown resource.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        assert!(
            task.resource().index() < self.resources.len(),
            "task {:?} references unknown resource {}",
            task.name(),
            task.resource()
        );
        let id = TaskId::from_index(self.tasks.len());
        self.by_resource[task.resource().index()].push(id);
        self.tasks.push(task);
        self.out.push(Vec::new());
        self.incoming.push(Vec::new());
        self.add_edge(Edge::new(
            NodeId::ANCHOR,
            id.node(),
            TimeSpan::ZERO,
            EdgeKind::Release,
        ));
        id
    }

    /// Adds an arbitrary constraint edge and returns its id.
    ///
    /// Prefer the semantic helpers ([`min_separation`],
    /// [`max_separation`], [`precedence`], [`serialize_after`],
    /// [`release`], [`lock`]) which encode the paper's constraint types
    /// correctly.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    ///
    /// [`min_separation`]: Self::min_separation
    /// [`max_separation`]: Self::max_separation
    /// [`precedence`]: Self::precedence
    /// [`serialize_after`]: Self::serialize_after
    /// [`release`]: Self::release
    /// [`lock`]: Self::lock
    pub fn add_edge(&mut self, edge: Edge) -> EdgeId {
        let n = self.num_nodes();
        assert!(edge.from().index() < n, "edge source out of range");
        assert!(edge.to().index() < n, "edge target out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.out[edge.from().index()].push(id);
        self.incoming[edge.to().index()].push(id);
        self.edges.push(edge);
        self.last_stamp += 1;
        self.stamps.push(self.last_stamp);
        id
    }

    /// Constrains `v` to start **at least** `sep` after `u` starts
    /// (start-to-start min separation).
    pub fn min_separation(&mut self, u: TaskId, v: TaskId, sep: TimeSpan) -> EdgeId {
        self.add_edge(Edge::new(u.node(), v.node(), sep, EdgeKind::MinSeparation))
    }

    /// Constrains `v` to start **at most** `sep` after `u` starts
    /// (start-to-start max separation), encoded as the reversed edge
    /// `v → u` with weight `−sep`.
    ///
    /// # Panics
    /// Panics if `sep` is negative (use `min_separation` for that).
    pub fn max_separation(&mut self, u: TaskId, v: TaskId, sep: TimeSpan) -> EdgeId {
        assert!(
            !sep.is_negative(),
            "max separation must be non-negative, got {sep}"
        );
        self.add_edge(Edge::new(v.node(), u.node(), -sep, EdgeKind::MaxSeparation))
    }

    /// Constrains `v` to start only after `u` **completes**
    /// (`σ(v) ≥ σ(u) + d(u)`), i.e. ordinary precedence.
    pub fn precedence(&mut self, u: TaskId, v: TaskId) -> EdgeId {
        let d = self.task(u).delay();
        self.add_edge(Edge::new(u.node(), v.node(), d, EdgeKind::MinSeparation))
    }

    /// Adds a serialization edge forcing `v` to start after `u`
    /// completes, tagged [`EdgeKind::Serialization`]. Used by the
    /// timing scheduler to resolve resource conflicts.
    pub fn serialize_after(&mut self, u: TaskId, v: TaskId) -> EdgeId {
        let d = self.task(u).delay();
        self.add_edge(Edge::new(u.node(), v.node(), d, EdgeKind::Serialization))
    }

    /// Forces `v` to start no earlier than `t` (`σ(v) ≥ t`), tagged
    /// [`EdgeKind::Release`]. Used by the power schedulers to delay
    /// tasks.
    pub fn release(&mut self, v: TaskId, t: Time) -> EdgeId {
        self.add_edge(Edge::new(
            NodeId::ANCHOR,
            v.node(),
            t.since_origin(),
            EdgeKind::Release,
        ))
    }

    /// Pins `v`'s start time to exactly `t` with a pair of lock edges.
    /// Used by the max-power scheduler to lock remaining zero-slack
    /// tasks before recursing.
    pub fn lock(&mut self, v: TaskId, t: Time) -> (EdgeId, EdgeId) {
        let fwd = self.add_edge(Edge::new(
            NodeId::ANCHOR,
            v.node(),
            t.since_origin(),
            EdgeKind::Lock,
        ));
        let bwd = self.add_edge(Edge::new(
            v.node(),
            NodeId::ANCHOR,
            -t.since_origin(),
            EdgeKind::Lock,
        ));
        (fwd, bwd)
    }

    /// Takes a checkpoint of the edge journal.
    #[inline]
    pub fn mark(&self) -> GraphMark {
        GraphMark(self.edges.len())
    }

    /// Pops every edge added since `mark`, restoring the graph to the
    /// checkpointed state.
    ///
    /// # Panics
    /// Panics if `mark` is newer than the current journal (i.e. it was
    /// already undone past).
    pub fn undo_to(&mut self, mark: GraphMark) {
        assert!(
            mark.0 <= self.edges.len(),
            "mark is newer than the current edge journal"
        );
        while self.edges.len() > mark.0 {
            let edge = self.edges.pop().expect("journal length checked");
            self.stamps.pop();
            let popped_out = self.out[edge.from().index()].pop();
            let popped_in = self.incoming[edge.to().index()].pop();
            debug_assert_eq!(
                popped_out.map(EdgeId::index),
                Some(self.edges.len()),
                "adjacency out-of-sync during undo"
            );
            debug_assert_eq!(
                popped_in.map(EdgeId::index),
                Some(self.edges.len()),
                "adjacency out-of-sync during undo"
            );
        }
    }

    /// The stamp of the journal prefix holding the first `len` edges.
    ///
    /// # Panics
    /// Panics if `len` exceeds the current journal.
    pub(crate) fn journal_stamp(&self, len: usize) -> JournalStamp {
        JournalStamp {
            instance: self.instance,
            entry: match len {
                0 => 0,
                _ => self.stamps[len - 1],
            },
        }
    }

    /// Number of task vertices (excluding the anchor).
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of graph nodes including the anchor.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.tasks.len() + 1
    }

    /// Number of registered resources.
    #[inline]
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of edges currently alive in the journal.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Looks up a task.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Replaces the power attribute `p(v)` of a task — the hook for
    /// corner analysis and temperature-dependent power models (§4.1's
    /// "(min, typical, max)" case). This mutation is **not** tracked
    /// by the edge journal.
    ///
    /// # Panics
    /// Panics if `id` is out of range or `power` is negative.
    pub fn set_task_power(&mut self, id: TaskId, power: crate::units::Power) {
        self.tasks[id.index()].set_power(power);
    }

    /// Looks up a resource.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// Looks up an edge.
    ///
    /// # Panics
    /// Panics if `id` has been undone or is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all tasks with their ids.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> + '_ {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId::from_index(i), t))
    }

    /// Iterates over all task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + 'static {
        (0..self.tasks.len()).map(TaskId::from_index)
    }

    /// Iterates over all resources with their ids.
    pub fn resources(&self) -> impl Iterator<Item = (ResourceId, &Resource)> + '_ {
        self.resources
            .iter()
            .enumerate()
            .map(|(i, r)| (ResourceId::from_index(i), r))
    }

    /// Iterates over all edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Iterates over the outgoing edges of `node`.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.out[node.index()]
            .iter()
            .map(move |&id| (id, &self.edges[id.index()]))
    }

    /// Iterates over the incoming edges of `node`.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.incoming[node.index()]
            .iter()
            .map(move |&id| (id, &self.edges[id.index()]))
    }

    /// `true` when two tasks are mapped to the same execution resource
    /// and must therefore be serialized.
    #[inline]
    pub fn same_resource(&self, a: TaskId, b: TaskId) -> bool {
        self.task(a).resource() == self.task(b).resource()
    }

    /// All tasks mapped to `resource`, in ascending id order, in
    /// `O(|tasks on resource|)`.
    pub fn tasks_on(&self, resource: ResourceId) -> impl Iterator<Item = TaskId> + '_ {
        self.by_resource
            .get(resource.index())
            .into_iter()
            .flatten()
            .copied()
    }

    /// Finds a task by name (linear scan; intended for tests and
    /// small interactive use).
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks()
            .find(|(_, t)| t.name() == name)
            .map(|(id, _)| id)
    }
}

impl Default for ConstraintGraph {
    fn default() -> Self {
        ConstraintGraph::new()
    }
}

impl Clone for ConstraintGraph {
    /// An equal graph that is a new instance: an incremental engine
    /// that validated the original compares the clone's journal by
    /// value once before trusting it.
    fn clone(&self) -> Self {
        ConstraintGraph {
            tasks: self.tasks.clone(),
            resources: self.resources.clone(),
            edges: self.edges.clone(),
            stamps: self.stamps.clone(),
            last_stamp: self.last_stamp,
            instance: fresh_instance(),
            out: self.out.clone(),
            incoming: self.incoming.clone(),
            by_resource: self.by_resource.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ResourceKind;
    use crate::units::Power;

    fn graph_ab() -> (ConstraintGraph, TaskId, TaskId) {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let a = g.add_task(Task::new(
            "a",
            r,
            TimeSpan::from_secs(2),
            Power::from_watts(1),
        ));
        let b = g.add_task(Task::new(
            "b",
            r,
            TimeSpan::from_secs(3),
            Power::from_watts(2),
        ));
        (g, a, b)
    }

    #[test]
    fn new_graph_has_only_anchor() {
        let g = ConstraintGraph::new();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_tasks(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn add_task_creates_release_edge() {
        let (g, a, _) = graph_ab();
        let incoming: Vec<_> = g.in_edges(a.node()).collect();
        assert_eq!(incoming.len(), 1);
        assert_eq!(incoming[0].1.from(), NodeId::ANCHOR);
        assert_eq!(incoming[0].1.weight(), TimeSpan::ZERO);
        assert_eq!(incoming[0].1.kind(), EdgeKind::Release);
    }

    #[test]
    fn min_and_max_separation_encoding() {
        let (mut g, a, b) = graph_ab();
        let min = g.min_separation(a, b, TimeSpan::from_secs(5));
        assert_eq!(g.edge(min).from(), a.node());
        assert_eq!(g.edge(min).to(), b.node());
        assert_eq!(g.edge(min).weight(), TimeSpan::from_secs(5));

        // "b at most 50s after a" becomes b → a with weight −50.
        let max = g.max_separation(a, b, TimeSpan::from_secs(50));
        assert_eq!(g.edge(max).from(), b.node());
        assert_eq!(g.edge(max).to(), a.node());
        assert_eq!(g.edge(max).weight(), TimeSpan::from_secs(-50));
    }

    #[test]
    fn precedence_uses_predecessor_delay() {
        let (mut g, a, b) = graph_ab();
        let e = g.precedence(a, b);
        assert_eq!(g.edge(e).weight(), TimeSpan::from_secs(2));
    }

    #[test]
    fn lock_adds_edge_pair() {
        let (mut g, a, _) = graph_ab();
        let before = g.num_edges();
        let (fwd, bwd) = g.lock(a, Time::from_secs(7));
        assert_eq!(g.num_edges(), before + 2);
        assert_eq!(g.edge(fwd).weight(), TimeSpan::from_secs(7));
        assert_eq!(g.edge(bwd).weight(), TimeSpan::from_secs(-7));
        assert_eq!(g.edge(bwd).to(), NodeId::ANCHOR);
    }

    #[test]
    fn undo_restores_edges_and_adjacency() {
        let (mut g, a, b) = graph_ab();
        let mark = g.mark();
        g.min_separation(a, b, TimeSpan::from_secs(5));
        g.serialize_after(a, b);
        g.lock(b, Time::from_secs(9));
        assert_eq!(g.num_edges(), mark.0 + 4);
        g.undo_to(mark);
        assert_eq!(g.num_edges(), mark.0);
        // Only the automatic release edge remains incoming at b.
        assert_eq!(g.in_edges(b.node()).count(), 1);
        assert_eq!(g.out_edges(a.node()).count(), 0);
    }

    #[test]
    fn nested_marks_undo_in_lifo_order() {
        let (mut g, a, b) = graph_ab();
        let m1 = g.mark();
        g.min_separation(a, b, TimeSpan::from_secs(1));
        let m2 = g.mark();
        g.min_separation(a, b, TimeSpan::from_secs(2));
        g.undo_to(m2);
        assert_eq!(g.num_edges(), m2.0);
        g.undo_to(m1);
        assert_eq!(g.num_edges(), m1.0);
    }

    #[test]
    fn journal_stamps_name_undone_entries_apart() {
        let (mut g, a, b) = graph_ab();
        let len = g.num_edges();
        let before = g.journal_stamp(len);
        let mark = g.mark();
        g.min_separation(a, b, TimeSpan::from_secs(1));
        assert_eq!(g.journal_stamp(len), before, "appends keep the prefix");
        let added = g.journal_stamp(len + 1);
        g.undo_to(mark);
        g.min_separation(a, b, TimeSpan::from_secs(1));
        assert_ne!(g.journal_stamp(len + 1), added, "stamps are not reused");
        assert_ne!(
            g.clone().journal_stamp(len),
            before,
            "a clone is a new instance"
        );
        assert_ne!(
            graph_ab().0.journal_stamp(0),
            graph_ab().0.journal_stamp(0),
            "independently built graphs are distinct instances"
        );
    }

    #[test]
    #[should_panic(expected = "newer than the current edge journal")]
    fn undo_past_journal_panics() {
        let (mut g, _, _) = graph_ab();
        let mark = GraphMark(g.num_edges() + 10);
        g.undo_to(mark);
    }

    #[test]
    fn same_resource_and_tasks_on() {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Mechanical));
        let a = g.add_task(Task::new("a", r0, TimeSpan::from_secs(1), Power::ZERO));
        let b = g.add_task(Task::new("b", r1, TimeSpan::from_secs(1), Power::ZERO));
        let c = g.add_task(Task::new("c", r0, TimeSpan::from_secs(1), Power::ZERO));
        assert!(g.same_resource(a, c));
        assert!(!g.same_resource(a, b));
        let on_r0: Vec<_> = g.tasks_on(r0).collect();
        assert_eq!(on_r0, vec![a, c]);
    }

    #[test]
    fn task_by_name_finds_tasks() {
        let (g, a, _) = graph_ab();
        assert_eq!(g.task_by_name("a"), Some(a));
        assert_eq!(g.task_by_name("zz"), None);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn task_with_unknown_resource_rejected() {
        let mut g = ConstraintGraph::new();
        let _ = g.add_task(Task::new(
            "bad",
            ResourceId::from_index(3),
            TimeSpan::from_secs(1),
            Power::ZERO,
        ));
    }

    #[test]
    #[should_panic(expected = "max separation must be non-negative")]
    fn negative_max_separation_rejected() {
        let (mut g, a, b) = graph_ab();
        g.max_separation(a, b, TimeSpan::from_secs(-1));
    }
}
