//! Single-source longest paths and positive-cycle detection.
//!
//! Start times in the paper are assigned as "the distance from the
//! anchor to `c` in the longest path" (Fig. 3). Because constraint
//! graphs contain negative edges (max separations), longest paths are
//! computed with a Bellman–Ford scheme; a **positive cycle** means the
//! conjunction of constraints on that cycle is unsatisfiable.
//!
//! Two implementations are provided:
//!
//! * [`single_source_longest_paths`] — queue-based (SPFA-style), the
//!   one used by the schedulers;
//! * [`bellman_ford_reference`] — the textbook O(V·E) loop, kept as an
//!   independent oracle for property tests.
//!
//! [`PrunedLongestPaths`] answers many sources on one feasible graph
//! (the lint's per-source checks): the same relaxation, cut short by
//! the anchor's distances, and exact wherever a threshold test can
//! come out true.

use crate::csr::CsrAdjacency;
use crate::graph::ConstraintGraph;
use crate::id::{EdgeId, NodeId, TaskId};
use crate::units::{Time, TimeSpan};
use std::collections::VecDeque;

/// Longest distances from a source node to every reachable node.
///
/// For schedules, the distance from the anchor **is** the earliest
/// feasible start time of each task under the current constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LongestPaths {
    source: NodeId,
    dist: Vec<Option<TimeSpan>>,
}

impl LongestPaths {
    /// The source node distances were computed from.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Longest distance from the source to `node`, or `None` when
    /// unreachable.
    #[inline]
    pub fn distance(&self, node: NodeId) -> Option<TimeSpan> {
        self.dist[node.index()]
    }

    /// Earliest start time of `task` (distance from the anchor).
    ///
    /// # Panics
    /// Panics if the task is unreachable from the source, which cannot
    /// happen for graphs built through [`ConstraintGraph::add_task`]
    /// (every task has an automatic anchor release edge).
    #[inline]
    pub fn start_time(&self, task: TaskId) -> Time {
        let d = self.dist[task.node().index()]
            .expect("task unreachable from anchor; graph invariant violated");
        Time::ZERO + d
    }

    /// Iterates over `(node, distance)` for all reachable nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, TimeSpan)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| (NodeId(i as u32), d)))
    }

    /// The **binding** in-edge of `node`: the constraint whose
    /// inequality `σ(node) ≥ σ(from) + w` holds with equality under
    /// these distances — the edge that pins the node's start time.
    ///
    /// Ties (several simultaneously tight in-edges) break toward the
    /// smallest [`EdgeId`], so the answer is deterministic. Returns
    /// `None` for the source itself, for unreachable nodes, and for
    /// nodes with no tight in-edge.
    pub fn binding_edge(&self, graph: &ConstraintGraph, node: NodeId) -> Option<EdgeId> {
        if node == self.source {
            return None;
        }
        binding_in_edge(graph, node, |n| self.distance(n))
    }
}

/// The in-edge of `node` that is *tight* under an arbitrary start-time
/// assignment: the smallest-id edge `(u → node, w)` with
/// `value(u) + w == value(node)`.
///
/// For [`LongestPaths`] distances this is the binding predecessor of
/// the longest-path computation (see [`LongestPaths::binding_edge`]);
/// for a committed schedule it identifies which recorded constraint
/// pins the task where it is. Returns `None` when `node` has no value
/// or sits strictly above every in-edge bound (e.g. held there by a
/// non-timing decision).
pub fn binding_in_edge<F>(graph: &ConstraintGraph, node: NodeId, value: F) -> Option<EdgeId>
where
    F: Fn(NodeId) -> Option<TimeSpan>,
{
    let dn = value(node)?;
    graph
        .in_edges(node)
        .filter(|(_, e)| value(e.from()).map(|du| du + e.weight()) == Some(dn))
        .map(|(id, _)| id)
        .min()
}

/// A positive cycle found in the constraint graph: the timing
/// constraints along `nodes` are mutually unsatisfiable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PositiveCycle {
    /// The nodes on the cycle, in traversal order.
    pub nodes: Vec<NodeId>,
    /// Total weight of the cycle (strictly positive).
    pub total_weight: TimeSpan,
}

impl core::fmt::Display for PositiveCycle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "positive cycle of weight {} through {} nodes",
            self.total_weight,
            self.nodes.len()
        )
    }
}

impl std::error::Error for PositiveCycle {}

/// Computes single-source longest paths from `source` over all edges of
/// `graph`, using a worklist (SPFA-style) relaxation.
///
/// # Errors
/// Returns the offending [`PositiveCycle`] when the constraints are
/// unsatisfiable.
///
/// # Examples
/// ```
/// use pas_graph::{ConstraintGraph, NodeId, Resource, ResourceKind, Task};
/// use pas_graph::units::{Power, TimeSpan};
/// use pas_graph::longest_path::single_source_longest_paths;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = ConstraintGraph::new();
/// let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(2), Power::ZERO));
/// let b = g.add_task(Task::new("b", r, TimeSpan::from_secs(1), Power::ZERO));
/// g.precedence(a, b);
/// let lp = single_source_longest_paths(&g, NodeId::ANCHOR)?;
/// assert_eq!(lp.start_time(b).as_secs(), 2);
/// # Ok(())
/// # }
/// ```
pub fn single_source_longest_paths(
    graph: &ConstraintGraph,
    source: NodeId,
) -> Result<LongestPaths, PositiveCycle> {
    let n = graph.num_nodes();
    let mut dist: Vec<Option<TimeSpan>> = vec![None; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    // Edge count of the longest path found so far: a simple path has
    // at most n−1 edges, so reaching n proves a positive cycle.
    let mut hops: Vec<u32> = vec![0; n];
    let mut in_queue: Vec<bool> = vec![false; n];
    let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();

    dist[source.index()] = Some(TimeSpan::ZERO);
    queue.push_back(source);
    in_queue[source.index()] = true;

    while let Some(u) = queue.pop_front() {
        in_queue[u.index()] = false;
        let du = dist[u.index()].expect("queued nodes have distances");
        for (_, e) in graph.out_edges(u) {
            let v = e.to();
            let cand = du + e.weight();
            let improved = match dist[v.index()] {
                None => true,
                Some(dv) => cand > dv,
            };
            if improved {
                dist[v.index()] = Some(cand);
                pred[v.index()] = Some(u);
                hops[v.index()] = hops[u.index()] + 1;
                if hops[v.index()] as usize >= n {
                    // Confirm and extract through the reference
                    // implementation (whose predecessor forest is
                    // consistent at detection time).
                    return bellman_ford_reference(graph, source);
                }
                if !in_queue[v.index()] {
                    queue.push_back(v);
                    in_queue[v.index()] = true;
                }
            }
        }
    }

    Ok(LongestPaths { source, dist })
}

/// Longest paths from one source at a time on a graph without
/// positive cycles, pruned by a feasible potential.
///
/// A potential `π` is *feasible* when every edge `u → v` of weight `w`
/// satisfies `π(u) + w ≤ π(v)`. The longest paths from the anchor (the
/// ASAP start times) are one. Reweighted by `π`, every edge weighs
/// `w + π(u) − π(v) ≤ 0`, so the *reweighted distance*
/// `r(v) = d(v) − π(v) + π(s)` from a source `s` starts at 0 and never
/// rises along a path.
///
/// [`run`](Self::run) takes a reweighted cutoff `c` and expands a node
/// only while its reweighted distance is above `c`:
///
/// * every node whose true reweighted distance is above `c` ends with
///   its exact longest distance, because every node on its longest
///   path is above `c` too;
/// * every other node is unreached, or holds the longest `d(u) + w`
///   over its in-edges from the nodes above `c`: the length of a real
///   path, so at most its true distance.
///
/// Neither depends on the order nodes are expanded in. A caller that
/// asks "is `d(t)` above `θ_t`?" for a few targets runs with
/// `c = min_t (θ_t − π(t) + π(s))` and reads exact answers: a target
/// whose distance is not exact is at most its threshold.
///
/// The adjacency is a [`CsrAdjacency`] snapshot taken once by
/// [`new`](Self::new); the buffers are reused from one source to the
/// next.
///
/// # Examples
/// ```
/// use pas_graph::longest_path::{single_source_longest_paths, PrunedLongestPaths};
/// use pas_graph::units::{Power, TimeSpan};
/// use pas_graph::{ConstraintGraph, NodeId, Resource, ResourceKind, Task};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = ConstraintGraph::new();
/// let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(2), Power::ZERO));
/// let b = g.add_task(Task::new("b", r, TimeSpan::from_secs(1), Power::ZERO));
/// let c = g.add_task(Task::new("c", r, TimeSpan::from_secs(1), Power::ZERO));
/// g.precedence(a, b);
/// g.precedence(b, c);
/// let asap = single_source_longest_paths(&g, NodeId::ANCHOR)?;
///
/// let mut search = PrunedLongestPaths::new(&g, &asap);
/// // ASAP already puts c 3 s after a, so every reweighted distance
/// // from a is 0: a cutoff of -1 s expands the whole chain.
/// search.run(a.node(), TimeSpan::from_secs(-1));
/// assert_eq!(search.distance(c.node()), Some(TimeSpan::from_secs(3)));
/// // A cutoff of 0 expands nothing: only the source is reached.
/// search.run(a.node(), TimeSpan::ZERO);
/// assert_eq!(search.distance(b.node()), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PrunedLongestPaths {
    csr: CsrAdjacency,
    potential: Vec<TimeSpan>,
    dist: Vec<Option<TimeSpan>>,
    /// Nodes given a distance by the last run, to reset the next one.
    reached: Vec<NodeId>,
    in_queue: Vec<bool>,
    queue: VecDeque<NodeId>,
}

impl PrunedLongestPaths {
    /// Snapshots `graph` and takes `potential`'s distances as `π`.
    ///
    /// # Panics
    /// Panics when `potential` leaves a node unreached or is not
    /// feasible for `graph`. The anchor's longest paths on `graph`
    /// itself are always both.
    pub fn new(graph: &ConstraintGraph, potential: &LongestPaths) -> Self {
        let csr = CsrAdjacency::build(graph);
        let n = csr.num_nodes();
        let potential: Vec<TimeSpan> = (0..n)
            .map(|i| {
                potential
                    .distance(NodeId(i as u32))
                    .expect("the potential reaches every node")
            })
            .collect();
        // Feasibility rules out positive cycles, so every run ends.
        for u in 0..n {
            for e in csr.out_edges(NodeId(u as u32)) {
                assert!(
                    potential[u] + e.weight <= potential[e.other.index()],
                    "the potential is not feasible for this graph"
                );
            }
        }
        PrunedLongestPaths {
            csr,
            potential,
            dist: vec![None; n],
            reached: Vec::new(),
            in_queue: vec![false; n],
            queue: VecDeque::new(),
        }
    }

    /// Longest paths from `source`, expanding only nodes whose
    /// reweighted distance `d(v) − π(v) + π(source)` is above `cutoff`.
    /// A cutoff of 0 or more expands nothing.
    pub fn run(&mut self, source: NodeId, cutoff: TimeSpan) {
        for n in self.reached.drain(..) {
            self.dist[n.index()] = None;
        }
        // d(v) − π(v) > floor  ⟺  r(v) > cutoff.
        let floor = cutoff - self.potential[source.index()];
        self.dist[source.index()] = Some(TimeSpan::ZERO);
        self.reached.push(source);
        if -self.potential[source.index()] > floor {
            self.queue.push_back(source);
            self.in_queue[source.index()] = true;
        }
        while let Some(u) = self.queue.pop_front() {
            self.in_queue[u.index()] = false;
            let du = self.dist[u.index()].expect("queued nodes have distances");
            for e in self.csr.out_edges(u) {
                let v = e.other.index();
                let cand = du + e.weight;
                match self.dist[v] {
                    Some(dv) if cand <= dv => continue,
                    None => self.reached.push(e.other),
                    Some(_) => {}
                }
                self.dist[v] = Some(cand);
                if cand - self.potential[v] > floor && !self.in_queue[v] {
                    self.queue.push_back(e.other);
                    self.in_queue[v] = true;
                }
            }
        }
    }

    /// The distance the last [`run`](Self::run) left at `node`: exact
    /// when its reweighted distance is above the cutoff, otherwise
    /// `None` or the length of some path to it.
    #[inline]
    pub fn distance(&self, node: NodeId) -> Option<TimeSpan> {
        self.dist[node.index()]
    }

    /// The potential `π(node)` the search was built with.
    #[inline]
    pub fn potential(&self, node: NodeId) -> TimeSpan {
        self.potential[node.index()]
    }
}

/// Textbook Bellman–Ford longest paths: |V|−1 full relaxation passes,
/// then one detection pass. Independent oracle for tests.
///
/// # Errors
/// Returns the offending [`PositiveCycle`] when the constraints are
/// unsatisfiable.
pub fn bellman_ford_reference(
    graph: &ConstraintGraph,
    source: NodeId,
) -> Result<LongestPaths, PositiveCycle> {
    let n = graph.num_nodes();
    let mut dist: Vec<Option<TimeSpan>> = vec![None; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    dist[source.index()] = Some(TimeSpan::ZERO);

    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for (_, e) in graph.edges() {
            if let Some(du) = dist[e.from().index()] {
                let cand = du + e.weight();
                let improved = match dist[e.to().index()] {
                    None => true,
                    Some(dv) => cand > dv,
                };
                if improved {
                    dist[e.to().index()] = Some(cand);
                    pred[e.to().index()] = Some(e.from());
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    for (_, e) in graph.edges() {
        if let Some(du) = dist[e.from().index()] {
            let cand = du + e.weight();
            if dist[e.to().index()].map_or(true, |dv| cand > dv) {
                pred[e.to().index()] = Some(e.from());
                return Err(extract_cycle(graph, &pred, e.to()));
            }
        }
    }

    Ok(LongestPaths { source, dist })
}

/// Walks predecessor pointers from `start` until a node repeats, then
/// collects the cycle and its total weight.
fn extract_cycle(graph: &ConstraintGraph, pred: &[Option<NodeId>], start: NodeId) -> PositiveCycle {
    // Walk the predecessor chain with a visited set; the first
    // revisited node lies on the cycle.
    let mut order: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; graph.num_nodes()];
    let mut cur = start;
    let on_cycle = loop {
        if seen[cur.index()] {
            break cur;
        }
        seen[cur.index()] = true;
        order.push(cur);
        match pred[cur.index()] {
            Some(p) => cur = p,
            // Defensive: the chain ended at the source without a
            // repeat. Report a degenerate single-node cycle rather
            // than panicking; callers only need an infeasibility
            // witness.
            None => break *order.last().expect("walked at least one node"),
        }
    };
    let cycle_start = order
        .iter()
        .position(|&n| n == on_cycle)
        .expect("revisited node was recorded");
    let mut nodes: Vec<NodeId> = order[cycle_start..].to_vec();
    // `order` follows pred pointers (reverse edge direction): flip it
    // so `nodes` lists the cycle along edge direction.
    nodes.reverse();

    // Total weight: sum the maximum-weight edge between consecutive
    // cycle nodes (the relaxation used some edge between them; taking
    // the max keeps the sum an upper bound that is still positive).
    let mut total = TimeSpan::ZERO;
    for i in 0..nodes.len() {
        let u = nodes[i];
        let v = nodes[(i + 1) % nodes.len()];
        let w = graph
            .out_edges(u)
            .filter(|(_, e)| e.to() == v)
            .map(|(_, e)| e.weight())
            .max()
            .unwrap_or(TimeSpan::ZERO);
        total += w;
    }
    PositiveCycle {
        nodes,
        total_weight: total,
    }
}

/// Convenience: earliest start times for every task from the anchor.
///
/// # Errors
/// Returns the offending [`PositiveCycle`] when the constraints are
/// unsatisfiable.
pub fn earliest_start_times(graph: &ConstraintGraph) -> Result<Vec<(TaskId, Time)>, PositiveCycle> {
    let lp = single_source_longest_paths(graph, NodeId::ANCHOR)?;
    Ok(graph.task_ids().map(|t| (t, lp.start_time(t))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Resource, ResourceKind, Task};
    use crate::units::Power;

    fn chain(n: usize) -> (ConstraintGraph, Vec<TaskId>) {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let ids: Vec<_> = (0..n)
            .map(|i| {
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(3),
                    Power::ZERO,
                ))
            })
            .collect();
        for w in ids.windows(2) {
            g.precedence(w[0], w[1]);
        }
        (g, ids)
    }

    #[test]
    fn chain_start_times_accumulate_delays() {
        let (g, ids) = chain(5);
        let lp = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap();
        for (i, &t) in ids.iter().enumerate() {
            assert_eq!(lp.start_time(t).as_secs(), 3 * i as i64);
        }
    }

    #[test]
    fn max_separation_does_not_move_asap_times() {
        let (mut g, ids) = chain(3);
        // t2 at most 100 s after t0: satisfied by ASAP times already.
        g.max_separation(ids[0], ids[2], TimeSpan::from_secs(100));
        let lp = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap();
        assert_eq!(lp.start_time(ids[2]).as_secs(), 6);
    }

    #[test]
    fn infeasible_min_max_pair_is_positive_cycle() {
        let (mut g, ids) = chain(2);
        // t1 ≥ t0 + 3 (precedence) but also t1 ≤ t0 + 2 → positive cycle.
        g.max_separation(ids[0], ids[1], TimeSpan::from_secs(2));
        let err = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap_err();
        assert!(err.total_weight.is_positive(), "cycle weight {err:?}");
        assert!(err.nodes.len() >= 2);
    }

    #[test]
    fn reference_and_spfa_agree_on_feasible_graph() {
        let (mut g, ids) = chain(6);
        g.min_separation(ids[0], ids[4], TimeSpan::from_secs(20));
        g.max_separation(ids[1], ids[5], TimeSpan::from_secs(90));
        let a = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap();
        let b = bellman_ford_reference(&g, NodeId::ANCHOR).unwrap();
        for t in g.task_ids() {
            assert_eq!(a.start_time(t), b.start_time(t));
        }
    }

    #[test]
    fn reference_also_detects_positive_cycle() {
        let (mut g, ids) = chain(2);
        g.max_separation(ids[0], ids[1], TimeSpan::from_secs(1));
        assert!(bellman_ford_reference(&g, NodeId::ANCHOR).is_err());
    }

    #[test]
    fn release_edge_pushes_start_time() {
        let (mut g, ids) = chain(2);
        g.release(ids[0], Time::from_secs(10));
        let lp = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap();
        assert_eq!(lp.start_time(ids[0]).as_secs(), 10);
        assert_eq!(lp.start_time(ids[1]).as_secs(), 13);
    }

    #[test]
    fn lock_pins_start_time_and_conflicting_lock_cycles() {
        let (mut g, ids) = chain(2);
        g.lock(ids[1], Time::from_secs(5));
        let lp = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap();
        assert_eq!(lp.start_time(ids[1]).as_secs(), 5);
        // Now force t1 later than its lock allows → infeasible.
        let mark = g.mark();
        g.release(ids[1], Time::from_secs(6));
        assert!(single_source_longest_paths(&g, NodeId::ANCHOR).is_err());
        g.undo_to(mark);
        assert!(single_source_longest_paths(&g, NodeId::ANCHOR).is_ok());
    }

    #[test]
    fn earliest_start_times_lists_all_tasks() {
        let (g, ids) = chain(4);
        let est = earliest_start_times(&g).unwrap();
        assert_eq!(est.len(), ids.len());
        assert_eq!(est[3].1.as_secs(), 9);
    }

    #[test]
    fn binding_edge_names_the_tight_constraint() {
        let (mut g, ids) = chain(3);
        // A slack max window (t2 ≤ t0 + 100) is never tight.
        g.max_separation(ids[0], ids[2], TimeSpan::from_secs(100));
        let lp = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap();

        // t0 is pinned by its automatic anchor release edge.
        let e0 = lp.binding_edge(&g, ids[0].node()).unwrap();
        assert!(g.edge(e0).from().is_anchor());

        // t1 and t2 are pinned by the precedence chain.
        for w in ids.windows(2) {
            let e = lp.binding_edge(&g, w[1].node()).unwrap();
            assert_eq!(g.edge(e).from(), w[0].node());
            assert_eq!(
                lp.distance(w[0].node()).unwrap() + g.edge(e).weight(),
                lp.distance(w[1].node()).unwrap()
            );
        }

        // The source has no binding edge.
        assert_eq!(lp.binding_edge(&g, NodeId::ANCHOR), None);
    }

    #[test]
    fn binding_in_edge_follows_the_assignment_not_the_graph() {
        let (g, ids) = chain(2);
        // Under ASAP times the precedence is tight...
        let asap = |n: NodeId| {
            Some(if n == ids[1].node() {
                TimeSpan::from_secs(3)
            } else {
                TimeSpan::ZERO
            })
        };
        let e = binding_in_edge(&g, ids[1].node(), asap).unwrap();
        assert_eq!(g.edge(e).from(), ids[0].node());
        // ...but a start time above every bound has no binding edge.
        let held = |n: NodeId| {
            Some(if n == ids[1].node() {
                TimeSpan::from_secs(42)
            } else {
                TimeSpan::ZERO
            })
        };
        assert_eq!(binding_in_edge(&g, ids[1].node(), held), None);
    }

    #[test]
    fn unreachable_source_yields_isolated_distances() {
        let (g, ids) = chain(2);
        // From a task node, the anchor is unreachable (only release
        // edges point away from the anchor).
        let lp = single_source_longest_paths(&g, ids[1].node()).unwrap();
        assert_eq!(lp.distance(NodeId::ANCHOR), None);
        assert_eq!(lp.distance(ids[1].node()), Some(TimeSpan::ZERO));
    }
}
