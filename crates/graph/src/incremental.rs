//! Incremental single-source longest paths.
//!
//! The backtracking schedulers perturb the constraint graph one edge
//! (or one small batch of edges) at a time: a speculative
//! serialization edge, a release edge delaying a victim, a lock pair.
//! Recomputing [`single_source_longest_paths`] from scratch after each
//! perturbation is O(V·E) work for what is usually a local change.
//! [`IncrementalLongestPaths`] instead keeps the distance vector alive
//! and, on [`refresh`], re-relaxes only from the edges appended to the
//! journal since the last call.
//!
//! # Invariants
//!
//! * After a successful [`refresh`], the maintained distances are
//!   **identical** to what [`single_source_longest_paths`] would
//!   return on the same graph — longest-path distances are unique, so
//!   the delta path and the full path cannot disagree. The property
//!   tests drive random edit sequences against
//!   [`crate::longest_path::bellman_ford_reference`] to pin this.
//! * Edge *additions* only ever increase distances, so seeding the
//!   worklist with the endpoints of the new edges reaches every node
//!   whose distance can change.
//! * The per-node hop counters persist across refreshes and always
//!   record the edge count of the path witnessing the current
//!   distance; a counter reaching |V| therefore still proves a
//!   positive cycle, exactly as in the from-scratch SPFA.
//! * Each node keeps the parent it was last relaxed from (the
//!   tight-edge forest after a full solve). Distances only rise between
//!   two relaxations of a node, so every parent edge `p → v` of weight
//!   `w` keeps `dist[p] + w ≥ dist[v]`, and the edge that closed a
//!   cycle of parents did so with a strict gain: any cycle among the
//!   parents is a positive cycle of the graph (Cherkassky & Goldberg
//!   1999; CLRS Lemma 24.16). Checkpoints save the parents with the
//!   distances they describe.
//!
//! # Checkpoints
//!
//! A [`checkpoint`] is O(1): the length of an undo trail plus a few
//! scalars. From the first checkpoint on, every relaxation logs the
//! node's old distance, hop count and parent, and a full
//! recomputation moves the vectors it replaces onto the trail whole
//! instead of overwriting them; [`restore`] unwinds the trail back to
//! the checkpoint's length, so it costs what changed since, not |V|.
//! An engine that is never checkpointed (a session's long-lived
//! engine) logs nothing and keeps an empty trail.
//!
//! # Fallback conditions
//!
//! [`refresh`] transparently falls back to a full recomputation (and
//! reports it in the returned [`Refresh`]) when the delta path is not
//! applicable or not worthwhile:
//!
//! * `"init"` — first call, or never successfully computed;
//! * `"resize"` — tasks were added since the last refresh;
//! * `"removal"` — the edge journal shrank or diverged under the
//!   applied prefix (an undo without a paired [`restore`]);
//! * `"cycle-suspect"` — a hop counter reached |V| while relaxing the
//!   delta, so the update is handed to the full SPFA for canonical
//!   positive-cycle extraction;
//! * `"budget"` — the delta relaxation exceeded its operation budget,
//!   so a fresh computation is at least as cheap.
//!
//! [`refresh_verdict`] takes the same decisions but, when the parents
//! already close a cycle at a `"cycle-suspect"`, answers "infeasible"
//! without the full solve and its cycle extraction.
//!
//! # Prefix validation
//!
//! The cache is trusted only while the journal prefix it was computed
//! from is still the live graph's. When the graph is the instance the
//! engine last saw and its journal stamp at the applied length is
//! unchanged, that holds in O(1). Otherwise — a graph instance the
//! engine has not seen (a clone, a re-parsed request), or an undo
//! without a paired [`restore`] — the applied edges are compared by
//! value, so a caller that undoes the graph without restoring the
//! checkpoint gets a (slow) full recomputation, never a wrong answer.
//!
//! [`refresh`]: IncrementalLongestPaths::refresh
//! [`refresh_verdict`]: IncrementalLongestPaths::refresh_verdict
//! [`checkpoint`]: IncrementalLongestPaths::checkpoint
//! [`restore`]: IncrementalLongestPaths::restore

use crate::edge::Edge;
use crate::graph::{ConstraintGraph, JournalStamp};
use crate::id::{EdgeId, NodeId, TaskId};
use crate::longest_path::{single_source_longest_paths, PositiveCycle};
use crate::units::{Time, TimeSpan};

/// The parent of the source and of every unreached node.
const ROOT: u32 = u32::MAX;

/// Why a [`refresh`] could not apply (or chose not to apply) the delta
/// path. The string form is the fixed vocabulary used by trace events.
///
/// [`refresh`]: IncrementalLongestPaths::refresh
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FullReason {
    /// First computation (nothing cached yet).
    Init,
    /// The node count changed since the last refresh.
    Resize,
    /// The edge journal shrank or diverged under the applied prefix.
    Removal,
    /// A hop counter reached |V| during delta relaxation.
    CycleSuspect,
    /// The delta relaxation exceeded its operation budget.
    Budget,
}

impl FullReason {
    /// Fixed-vocabulary string form (used in trace events).
    pub fn as_str(self) -> &'static str {
        match self {
            FullReason::Init => "init",
            FullReason::Resize => "resize",
            FullReason::Removal => "removal",
            FullReason::CycleSuspect => "cycle-suspect",
            FullReason::Budget => "budget",
        }
    }

    /// Parses the string form back; inverse of [`FullReason::as_str`].
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Some(match s {
            "init" => FullReason::Init,
            "resize" => FullReason::Resize,
            "removal" => FullReason::Removal,
            "cycle-suspect" => FullReason::CycleSuspect,
            "budget" => FullReason::Budget,
            _ => return None,
        })
    }
}

impl core::fmt::Display for FullReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a [`refresh`](IncrementalLongestPaths::refresh) satisfied its
/// caller. A closed set: callers match on it to translate refresh
/// outcomes into trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refresh {
    /// The journal was unchanged: the cached distances were served.
    CacheHit,
    /// Only the appended edges were relaxed.
    Delta {
        /// Number of journal edges applied by this refresh.
        new_edges: usize,
        /// Number of distance improvements performed.
        relaxations: u64,
    },
    /// A full from-scratch recomputation ran.
    Full(FullReason),
}

/// Running counters, exposed for benches and the property tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Refreshes answered from cache without any relaxation.
    pub cache_hits: u64,
    /// Refreshes that applied only the journal suffix.
    pub delta_refreshes: u64,
    /// Refreshes that fell back to the full SPFA.
    pub full_recomputes: u64,
    /// Total distance improvements across all delta refreshes.
    pub relaxations: u64,
    /// Checkpoint restores.
    pub restores: u64,
    /// Infeasible verdicts proven from the parent pointers, without a
    /// full recomputation.
    pub cycle_proofs: u64,
}

/// A saved distance state, created by
/// [`IncrementalLongestPaths::checkpoint`] and consumed by
/// [`IncrementalLongestPaths::restore`]: a position on the engine's
/// undo trail plus the engine's scalars, never a per-node copy.
///
/// Like [`GraphMark`](crate::GraphMark), checkpoints follow the LIFO
/// discipline of the edge journal: restore a checkpoint only in a
/// state whose journal prefix below the checkpoint is unchanged
/// (i.e. paired with the matching
/// [`undo_to`](crate::ConstraintGraph::undo_to)), and only on the
/// engine that took it. Restoring a checkpoint invalidates every
/// checkpoint taken after it.
#[derive(Debug, Clone)]
pub struct LpCheckpoint {
    trail_len: usize,
    applied_len: usize,
    seen: Option<JournalStamp>,
    feasible: bool,
    cycle: Option<PositiveCycle>,
    initialized: bool,
}

/// What one change to the per-node state replaced, so
/// [`IncrementalLongestPaths::restore`] can put it back.
#[derive(Debug, Clone)]
enum Undo {
    /// A relaxation overwrote this node's entries.
    Node {
        node: u32,
        dist: Option<TimeSpan>,
        hops: u32,
        parent: u32,
    },
    /// A full recomputation replaced the vectors whole.
    Vectors(Box<NodeState>),
}

/// The per-node vectors a full recomputation replaces.
#[derive(Debug, Clone)]
struct NodeState {
    dist: Vec<Option<TimeSpan>>,
    hops: Vec<u32>,
    parent: Vec<u32>,
}

/// Longest distances from a fixed source, maintained incrementally
/// under journal-append edge insertions, with checkpoint/restore for
/// backtracking and a transparent fallback to
/// [`single_source_longest_paths`].
///
/// # Examples
/// ```
/// use pas_graph::incremental::{IncrementalLongestPaths, Refresh};
/// use pas_graph::units::{Power, TimeSpan};
/// use pas_graph::{ConstraintGraph, NodeId, Resource, ResourceKind, Task};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = ConstraintGraph::new();
/// let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(2), Power::ZERO));
/// let b = g.add_task(Task::new("b", r, TimeSpan::from_secs(1), Power::ZERO));
///
/// let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
/// inc.refresh(&g)?; // full (first call)
/// assert_eq!(inc.start_time(b).as_secs(), 0);
///
/// g.precedence(a, b);
/// assert!(matches!(inc.refresh(&g)?, Refresh::Delta { .. }));
/// assert_eq!(inc.start_time(b).as_secs(), 2);
///
/// // b before a as well: only the verdict is asked for.
/// g.precedence(b, a);
/// assert_eq!(inc.refresh_verdict(&g), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalLongestPaths {
    source: NodeId,
    dist: Vec<Option<TimeSpan>>,
    hops: Vec<u32>,
    /// The node each distance was last relaxed from, or [`ROOT`].
    parent: Vec<u32>,
    /// Copy of the journal prefix the cached distances were computed
    /// from, for the value comparison.
    applied: Vec<Edge>,
    /// The live graph's stamp of `applied`, once validated.
    seen: Option<JournalStamp>,
    feasible: bool,
    cycle: Option<PositiveCycle>,
    initialized: bool,
    /// Whether a checkpoint has been taken, so changes must be logged.
    trailing: bool,
    /// Undo records of every per-node change since the first
    /// checkpoint that no restore has unwound yet.
    trail: Vec<Undo>,
    stats: IncrementalStats,
}

impl IncrementalLongestPaths {
    /// Creates an empty engine; the first
    /// [`refresh`](Self::refresh) performs the initial full
    /// computation.
    pub fn new(source: NodeId) -> Self {
        IncrementalLongestPaths {
            source,
            dist: Vec::new(),
            hops: Vec::new(),
            parent: Vec::new(),
            applied: Vec::new(),
            seen: None,
            feasible: false,
            cycle: None,
            initialized: false,
            trailing: false,
            trail: Vec::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// The source node distances are maintained from.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Running counters.
    #[inline]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Brings the cached distances up to date with `graph` and reports
    /// how much work that took.
    ///
    /// # Errors
    /// Returns the offending [`PositiveCycle`] when the constraints
    /// are unsatisfiable (identical to what the full recomputation
    /// reports on the same graph).
    pub fn refresh(&mut self, graph: &ConstraintGraph) -> Result<Refresh, PositiveCycle> {
        self.update(graph, true)
            .map_err(|cycle| cycle.expect("an extracting refresh reports its cycle"))
    }

    /// [`refresh`](Self::refresh) for a caller that needs only the
    /// verdict: the same outcome when the constraints are satisfiable,
    /// `None` when they are not.
    ///
    /// When a delta closes a cycle among the parent pointers, the
    /// verdict is proven from them, skipping the full solve and the
    /// cycle extraction that `refresh` runs. A later `refresh` of the
    /// same graph still reports exactly the full recomputation's
    /// cycle.
    pub fn refresh_verdict(&mut self, graph: &ConstraintGraph) -> Option<Refresh> {
        self.update(graph, false).ok()
    }

    /// The shared refresh; `Err(None)` is an infeasible verdict whose
    /// cycle was not extracted, which only `extract: false` returns.
    fn update(
        &mut self,
        graph: &ConstraintGraph,
        extract: bool,
    ) -> Result<Refresh, Option<PositiveCycle>> {
        let n = graph.num_nodes();
        if !self.initialized {
            return self.full(graph, FullReason::Init);
        }
        if self.dist.len() != n {
            return self.full(graph, FullReason::Resize);
        }
        if !self.prefix_is_live(graph) {
            return self.full(graph, FullReason::Removal);
        }
        if graph.num_edges() == self.applied.len() {
            if self.feasible {
                self.stats.cache_hits += 1;
                return Ok(Refresh::CacheHit);
            }
            if self.cycle.is_none() && extract {
                // A verdict proved this graph infeasible without
                // extracting the cycle this caller asks for.
                return self.full(graph, FullReason::CycleSuspect);
            }
            self.stats.cache_hits += 1;
            return Err(self.cycle.clone());
        }
        if !self.feasible {
            // Adding edges cannot repair a positive cycle, but the
            // cached distances are stale; recompute so the reported
            // cycle matches what the full path would find.
            return self.full(graph, FullReason::Init);
        }

        // Delta path: relax only from the appended journal suffix.
        let first_new = self.applied.len();
        let new_edges = graph.num_edges() - first_new;
        // Beyond this many improvements a fresh SPFA is at least as
        // cheap; generous enough that genuine local deltas never hit
        // it.
        let budget: u64 = 64 + 16 * graph.num_edges() as u64;
        let mut relaxations: u64 = 0;
        let mut in_queue = vec![false; n];
        let mut queue: std::collections::VecDeque<NodeId> = std::collections::VecDeque::new();

        // Seed: relax each new edge once; its source distance is
        // already correct (or None and the edge is inert for now).
        for idx in first_new..graph.num_edges() {
            let e = *graph.edge(EdgeId(idx as u32));
            if let Some(du) = self.dist[e.from().index()] {
                let cand = du + e.weight();
                let v = e.to();
                if self.dist[v.index()].map_or(true, |dv| cand > dv) {
                    self.relax(e.from(), v, cand);
                    relaxations += 1;
                    if self.hops[v.index()] as usize >= n {
                        return self.cycle_suspected(graph, v, extract);
                    }
                    if !in_queue[v.index()] {
                        queue.push_back(v);
                        in_queue[v.index()] = true;
                    }
                }
            }
        }

        while let Some(u) = queue.pop_front() {
            in_queue[u.index()] = false;
            let du = self.dist[u.index()].expect("queued nodes have distances");
            for (_, e) in graph.out_edges(u) {
                let v = e.to();
                let cand = du + e.weight();
                if self.dist[v.index()].map_or(true, |dv| cand > dv) {
                    self.relax(u, v, cand);
                    relaxations += 1;
                    if self.hops[v.index()] as usize >= n {
                        return self.cycle_suspected(graph, v, extract);
                    }
                    if relaxations > budget {
                        return self.full(graph, FullReason::Budget);
                    }
                    if !in_queue[v.index()] {
                        queue.push_back(v);
                        in_queue[v.index()] = true;
                    }
                }
            }
        }

        self.sync_applied(graph);
        self.stats.delta_refreshes += 1;
        self.stats.relaxations += relaxations;
        Ok(Refresh::Delta {
            new_edges,
            relaxations,
        })
    }

    /// Raises `v` to `dist` through the edge from `u`, logging what it
    /// overwrites once a checkpoint may need it back.
    #[inline]
    fn relax(&mut self, u: NodeId, v: NodeId, dist: TimeSpan) {
        if self.trailing {
            self.trail.push(Undo::Node {
                node: v.0,
                dist: self.dist[v.index()],
                hops: self.hops[v.index()],
                parent: self.parent[v.index()],
            });
        }
        self.dist[v.index()] = Some(dist);
        self.hops[v.index()] = self.hops[u.index()] + 1;
        self.parent[v.index()] = u.0;
    }

    /// Whether the journal prefix the cache was computed from is still
    /// the live graph's: in O(1) by stamp when the graph is the
    /// instance last validated, otherwise by comparing the applied
    /// edges' values (a match is then remembered by stamp).
    fn prefix_is_live(&mut self, graph: &ConstraintGraph) -> bool {
        let len = self.applied.len();
        if graph.num_edges() < len {
            return false;
        }
        let stamp = graph.journal_stamp(len);
        if self.seen == Some(stamp) {
            return true;
        }
        // An undo followed by different additions can restore the old
        // length, so the values themselves are compared.
        let live = graph
            .edges()
            .zip(self.applied.iter())
            .all(|((_, live), applied)| live == applied);
        if live {
            self.seen = Some(stamp);
        }
        live
    }

    /// Extends the applied copy to the whole live journal.
    fn sync_applied(&mut self, graph: &ConstraintGraph) {
        let first_new = self.applied.len();
        self.applied
            .extend((first_new..graph.num_edges()).map(|i| *graph.edge(EdgeId(i as u32))));
        self.seen = Some(graph.journal_stamp(graph.num_edges()));
    }

    /// A hop counter reached |V| at `v`. A walk of |V| parent steps
    /// from `v` that never reaches a root has gone round a cycle of
    /// parents, which proves a positive cycle: a verdict-only caller
    /// gets its answer. Otherwise the full solve decides (and, for an
    /// extracting caller, names the cycle).
    fn cycle_suspected(
        &mut self,
        graph: &ConstraintGraph,
        v: NodeId,
        extract: bool,
    ) -> Result<Refresh, Option<PositiveCycle>> {
        if extract || !self.parents_cycle_from(v) {
            return self.full(graph, FullReason::CycleSuspect);
        }
        // The state a failed full solve leaves, minus the cycle.
        self.sync_applied(graph);
        self.feasible = false;
        self.cycle = None;
        self.stats.cycle_proofs += 1;
        Err(None)
    }

    /// Whether |V| parent steps from `v` never reach a root.
    fn parents_cycle_from(&self, v: NodeId) -> bool {
        let mut node = v.index();
        for _ in 0..self.parent.len() {
            match self.parent[node] {
                ROOT => return false,
                p => node = p as usize,
            }
        }
        true
    }

    /// Full recomputation via [`single_source_longest_paths`],
    /// replacing the cached state.
    fn full(
        &mut self,
        graph: &ConstraintGraph,
        reason: FullReason,
    ) -> Result<Refresh, Option<PositiveCycle>> {
        self.stats.full_recomputes += 1;
        let n = graph.num_nodes();
        self.applied.clear();
        self.sync_applied(graph);
        self.initialized = true;
        match single_source_longest_paths(graph, self.source) {
            Ok(lp) => {
                if self.trailing {
                    // A checkpoint may need the replaced state back:
                    // move it onto the trail rather than overwrite it.
                    self.trail.push(Undo::Vectors(Box::new(NodeState {
                        dist: std::mem::take(&mut self.dist),
                        hops: std::mem::take(&mut self.hops),
                        parent: std::mem::take(&mut self.parent),
                    })));
                }
                self.dist.clear();
                self.dist
                    .extend((0..n).map(|i| lp.distance(NodeId(i as u32))));
                self.rebuild_forest(graph);
                self.feasible = true;
                self.cycle = None;
                Ok(Refresh::Full(reason))
            }
            Err(cycle) => {
                self.feasible = false;
                self.cycle = Some(cycle.clone());
                Err(Some(cycle))
            }
        }
    }

    /// Re-derives hop counters and parents for fresh distances: a BFS
    /// over the *tight* edges (`dist[u] + w == dist[v]`) from the
    /// source. Every prefix of a distance-optimal path is itself
    /// optimal, so the BFS reaches every reachable node, and its tree
    /// gives each node a parent and the minimum witness length — a
    /// simple path, so always `< n` on a feasible graph. Later deltas
    /// keep proving acyclicity from these counters.
    fn rebuild_forest(&mut self, graph: &ConstraintGraph) {
        let n = graph.num_nodes();
        self.hops.clear();
        self.hops.resize(n, 0);
        self.parent.clear();
        self.parent.resize(n, ROOT);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        if self.dist[self.source.index()].is_some() {
            seen[self.source.index()] = true;
            queue.push_back(self.source);
        }
        while let Some(u) = queue.pop_front() {
            let du = self.dist[u.index()].expect("BFS visits reachable nodes");
            for (_, e) in graph.out_edges(u) {
                let v = e.to();
                if seen[v.index()] {
                    continue;
                }
                if self.dist[v.index()] == Some(du + e.weight()) {
                    self.hops[v.index()] = self.hops[u.index()] + 1;
                    self.parent[v.index()] = u.0;
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        debug_assert!(
            (0..n).all(|i| self.dist[i].is_none() || seen[i]),
            "every reachable node has a tight-edge witness path"
        );
    }

    /// Longest distance from the source to `node`, or `None` when
    /// unreachable.
    ///
    /// # Panics
    /// Panics if called before a successful
    /// [`refresh`](Self::refresh).
    #[inline]
    pub fn distance(&self, node: NodeId) -> Option<TimeSpan> {
        assert!(
            self.initialized && self.feasible,
            "distance() requires a successful refresh"
        );
        self.dist[node.index()]
    }

    /// Earliest start time of `task` (distance from the anchor).
    ///
    /// # Panics
    /// Panics if called before a successful
    /// [`refresh`](Self::refresh), or if the task is unreachable.
    #[inline]
    pub fn start_time(&self, task: TaskId) -> Time {
        let d = self
            .distance(task.node())
            .expect("task unreachable from source");
        Time::ZERO + d
    }

    /// Saves the current state in O(1); pair with
    /// [`restore`](Self::restore) around speculative edge additions.
    /// From the first checkpoint on, the engine logs every per-node
    /// change so a restore can unwind it.
    pub fn checkpoint(&mut self) -> LpCheckpoint {
        self.trailing = true;
        LpCheckpoint {
            trail_len: self.trail.len(),
            applied_len: self.applied.len(),
            seen: self.seen,
            feasible: self.feasible,
            cycle: self.cycle.clone(),
            initialized: self.initialized,
        }
    }

    /// Restores a previously saved state by unwinding the changes
    /// logged since it. Must be paired with the
    /// [`ConstraintGraph::undo_to`] that pops the same edges (LIFO,
    /// like the journal itself).
    pub fn restore(&mut self, cp: &LpCheckpoint) {
        debug_assert!(
            cp.trail_len <= self.trail.len(),
            "checkpoint restored out of LIFO order"
        );
        while self.trail.len() > cp.trail_len {
            match self.trail.pop().expect("longer than the checkpoint") {
                Undo::Node {
                    node,
                    dist,
                    hops,
                    parent,
                } => {
                    let i = node as usize;
                    self.dist[i] = dist;
                    self.hops[i] = hops;
                    self.parent[i] = parent;
                }
                Undo::Vectors(state) => {
                    let NodeState { dist, hops, parent } = *state;
                    self.dist = dist;
                    self.hops = hops;
                    self.parent = parent;
                }
            }
        }
        self.applied.truncate(cp.applied_len);
        self.seen = cp.seen;
        self.feasible = cp.feasible;
        self.cycle.clone_from(&cp.cycle);
        self.initialized = cp.initialized;
        self.stats.restores += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;
    use crate::longest_path::bellman_ford_reference;
    use crate::task::{Resource, ResourceKind, Task};
    use crate::units::Power;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_graph(seed: u64, n: usize) -> (ConstraintGraph, Vec<TaskId>) {
        let mut s = seed.max(1);
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let d = 1 + (xorshift(&mut s) % 7) as i64;
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(d),
                    Power::ZERO,
                ))
            })
            .collect();
        (g, ids)
    }

    fn assert_matches_oracle(inc: &IncrementalLongestPaths, g: &ConstraintGraph) {
        let oracle = bellman_ford_reference(g, NodeId::ANCHOR).expect("oracle feasible");
        for i in 0..g.num_nodes() {
            assert_eq!(
                inc.dist[i],
                oracle.distance(NodeId(i as u32)),
                "distance mismatch at node {i}"
            );
        }
        // Hop invariant: each counter is a valid path length (< n).
        for i in 0..g.num_nodes() {
            assert!((inc.hops[i] as usize) < g.num_nodes().max(1));
        }
        // Parent invariant: every parent edge is in the graph and not
        // violated, and on a feasible graph the parents form a forest.
        for (v, &p) in inc.parent.iter().enumerate() {
            if p == ROOT {
                continue;
            }
            let dp = inc.dist[p as usize].expect("parents have distances");
            let dv = inc.dist[v].expect("children have distances");
            assert!(
                g.out_edges(NodeId(p))
                    .any(|(_, e)| e.to().index() == v && dp + e.weight() >= dv),
                "parent edge {p} -> {v} is missing or violated"
            );
        }
        for v in 0..g.num_nodes() {
            assert!(
                !inc.parents_cycle_from(NodeId(v as u32)),
                "parents cycle on a feasible graph"
            );
        }
    }

    /// The per-node state, to check that a restore brings it back
    /// exactly.
    fn snapshot(inc: &IncrementalLongestPaths) -> (Vec<Option<TimeSpan>>, Vec<u32>, Vec<u32>) {
        (inc.dist.clone(), inc.hops.clone(), inc.parent.clone())
    }

    /// Whether the value comparison alone accepts the applied prefix.
    fn prefix_matches_by_value(inc: &IncrementalLongestPaths, g: &ConstraintGraph) -> bool {
        g.num_edges() >= inc.applied.len()
            && g.edges()
                .zip(&inc.applied)
                .all(|((_, live), applied)| live == applied)
    }

    /// Builds `g` again from scratch (a distinct instance), with one
    /// second taken off the weight of edge `lower` if given. `g`'s
    /// first `num_tasks` edges must be the tasks' own release edges.
    fn rebuild(g: &ConstraintGraph, lower: Option<usize>) -> ConstraintGraph {
        let mut h = ConstraintGraph::new();
        h.add_resource(Resource::new("R", ResourceKind::Compute));
        for (_, t) in g.tasks() {
            h.add_task(t.clone());
        }
        for (id, e) in g.edges().skip(g.num_tasks()) {
            let w = match lower {
                Some(i) if i == id.index() => e.weight() - TimeSpan::from_secs(1),
                _ => e.weight(),
            };
            h.add_edge(Edge::new(e.from(), e.to(), w, e.kind()));
        }
        h
    }

    #[test]
    fn first_refresh_is_full_then_cache_hits() {
        let (g, _) = random_graph(7, 5);
        let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
        assert_eq!(inc.refresh(&g).unwrap(), Refresh::Full(FullReason::Init));
        assert_eq!(inc.refresh(&g).unwrap(), Refresh::CacheHit);
        assert_eq!(inc.stats().cache_hits, 1);
        assert_matches_oracle(&inc, &g);
    }

    #[test]
    fn delta_matches_oracle_over_random_edit_sequences() {
        let mut cycle_proofs = 0;
        for seed in 0..40u64 {
            let n = 3 + (seed % 6) as usize;
            let (mut g, ids) = random_graph(seed * 77 + 1, n);
            let mut s = seed * 1337 + 11;
            let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
            inc.refresh(&g).unwrap();
            let mut marks = Vec::new();
            for _ in 0..60 {
                match xorshift(&mut s) % 8 {
                    // Append a random constraint edge.
                    0..=2 => {
                        let a = ids[(xorshift(&mut s) % n as u64) as usize];
                        let b = ids[(xorshift(&mut s) % n as u64) as usize];
                        if a == b {
                            continue;
                        }
                        let before = (inc.checkpoint(), g.mark(), snapshot(&inc));
                        match xorshift(&mut s) % 3 {
                            0 => {
                                g.min_separation(
                                    a,
                                    b,
                                    TimeSpan::from_secs((xorshift(&mut s) % 9) as i64),
                                );
                            }
                            1 => {
                                g.release(a, Time::from_secs((xorshift(&mut s) % 20) as i64));
                            }
                            _ => {
                                g.max_separation(
                                    a,
                                    b,
                                    TimeSpan::from_secs((xorshift(&mut s) % 25) as i64),
                                );
                            }
                        }
                        let oracle = bellman_ford_reference(&g, NodeId::ANCHOR);
                        let full = || single_source_longest_paths(&g, NodeId::ANCHOR).unwrap_err();
                        if xorshift(&mut s) % 2 == 0 {
                            let verdict = inc.refresh_verdict(&g);
                            assert_eq!(verdict.is_some(), oracle.is_ok(), "verdict vs oracle");
                            // An infeasible verdict, then the cycle.
                            if verdict.is_none() && xorshift(&mut s) % 2 == 0 {
                                assert_eq!(inc.refresh(&g).unwrap_err(), full());
                            }
                        } else {
                            match inc.refresh(&g) {
                                Ok(_) => assert!(oracle.is_ok(), "refresh vs oracle"),
                                Err(cycle) => assert_eq!(cycle, full()),
                            }
                        }
                        if oracle.is_err() {
                            // Roll back so the walk continues.
                            g.undo_to(before.1);
                            inc.restore(&before.0);
                            assert_eq!(snapshot(&inc), before.2, "restore is exact");
                        }
                        assert_matches_oracle(&inc, &g);
                    }
                    // Checkpoint.
                    3 => marks.push((inc.checkpoint(), g.mark(), snapshot(&inc))),
                    // Restore the newest checkpoint.
                    4 => {
                        if let Some((cp, m, state)) = marks.pop() {
                            g.undo_to(m);
                            inc.restore(&cp);
                            assert_eq!(snapshot(&inc), state, "restore is exact");
                            assert_matches_oracle(&inc, &g);
                        }
                    }
                    // Undo WITHOUT restore, sometimes re-adding the very
                    // same edges: the refresh must take the value
                    // comparison's decision, and never a wrong answer.
                    5 => {
                        if let Some((_, m, _)) = marks.pop() {
                            let journal: Vec<Edge> = g.edges().map(|(_, e)| *e).collect();
                            g.undo_to(m);
                            marks.clear(); // older lp checkpoints stay valid, but keep the walk simple
                            let readd = xorshift(&mut s) % 2 == 0;
                            if readd {
                                for &e in &journal[g.num_edges()..] {
                                    g.add_edge(e);
                                }
                            }
                            let by_value = prefix_matches_by_value(&inc, &g);
                            let out = inc.refresh(&g).unwrap();
                            assert_eq!(
                                out == Refresh::Full(FullReason::Removal),
                                !by_value,
                                "undo without restore (re-added: {readd}) took {out:?}"
                            );
                            assert_eq!(g.num_edges(), inc.applied.len());
                            assert_matches_oracle(&inc, &g);
                        }
                    }
                    // A clone: one value comparison, then trusted.
                    6 => {
                        g = g.clone();
                        assert_ne!(inc.seen, Some(g.journal_stamp(g.num_edges())));
                        assert_eq!(inc.refresh(&g).unwrap(), Refresh::CacheHit);
                        assert_eq!(inc.seen, Some(g.journal_stamp(g.num_edges())));
                        assert_eq!(inc.refresh(&g).unwrap(), Refresh::CacheHit);
                    }
                    // The same journal built again independently, or
                    // with one weight lowered (which keeps it feasible):
                    // only the value comparison may accept it.
                    _ => {
                        let extra = (g.num_edges() - n) as u64;
                        let lower = (extra > 0 && xorshift(&mut s) % 2 == 0)
                            .then(|| n + (xorshift(&mut s) % extra) as usize);
                        g = rebuild(&g, lower);
                        let out = inc.refresh(&g).unwrap();
                        if lower.is_some() {
                            assert_eq!(out, Refresh::Full(FullReason::Removal));
                            marks.clear(); // their distances are the old weights'
                        } else {
                            assert_eq!(out, Refresh::CacheHit);
                        }
                        assert_matches_oracle(&inc, &g);
                    }
                }
            }
            cycle_proofs += inc.stats().cycle_proofs;
        }
        assert!(cycle_proofs > 0, "no verdict was proven from the parents");
    }

    #[test]
    fn independently_built_graphs_with_other_weights_are_not_trusted() {
        let build = |secs| {
            let (mut g, ids) = random_graph(5, 4);
            g.min_separation(ids[0], ids[1], TimeSpan::from_secs(secs));
            g
        };
        let (g1, g2) = (build(3), build(9));
        assert_eq!(g1.num_edges(), g2.num_edges());
        let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
        inc.refresh(&g1).unwrap();
        assert_eq!(
            inc.refresh(&g2).unwrap(),
            Refresh::Full(FullReason::Removal)
        );
        assert_matches_oracle(&inc, &g2);
        // An equal graph built independently passes by value.
        assert_eq!(inc.refresh(&build(9)).unwrap(), Refresh::CacheHit);
    }

    #[test]
    fn a_verdict_proves_the_cycle_and_a_refresh_then_extracts_it() {
        let (mut g, ids) = random_graph(3, 3);
        let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
        inc.refresh(&g).unwrap();
        g.precedence(ids[0], ids[1]);
        assert!(matches!(
            inc.refresh_verdict(&g),
            Some(Refresh::Delta { .. })
        ));
        g.max_separation(ids[0], ids[1], TimeSpan::ZERO);
        assert_eq!(inc.refresh_verdict(&g), None);
        assert_eq!(inc.stats().cycle_proofs, 1);
        let full = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap_err();
        assert_eq!(inc.refresh(&g).unwrap_err(), full);
        assert_eq!(inc.refresh(&g).unwrap_err(), full, "the cycle is cached");
    }

    #[test]
    fn infeasible_delta_reports_cycle_and_caches_it() {
        let (mut g, ids) = random_graph(3, 3);
        let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
        inc.refresh(&g).unwrap();
        g.precedence(ids[0], ids[1]);
        inc.refresh(&g).unwrap();
        // Contradictory window: b ≥ a + d(a) but b ≤ a + 0.
        g.max_separation(ids[0], ids[1], TimeSpan::ZERO);
        let e1 = inc.refresh(&g).unwrap_err();
        // Unchanged graph: the cached cycle is served.
        let e2 = inc.refresh(&g).unwrap_err();
        assert_eq!(e1, e2);
        let full = single_source_longest_paths(&g, NodeId::ANCHOR).unwrap_err();
        assert_eq!(e1, full, "incremental error must match the full path");
    }

    #[test]
    fn checkpoint_restore_round_trips_across_infeasibility() {
        let (mut g, ids) = random_graph(5, 4);
        let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
        inc.refresh(&g).unwrap();
        let cp = inc.checkpoint();
        let m = g.mark();
        g.precedence(ids[0], ids[1]);
        g.max_separation(ids[0], ids[1], TimeSpan::ZERO);
        assert!(inc.refresh(&g).is_err());
        g.undo_to(m);
        inc.restore(&cp);
        assert_eq!(inc.refresh(&g).unwrap(), Refresh::CacheHit);
        assert_matches_oracle(&inc, &g);
    }

    #[test]
    fn an_engine_never_checkpointed_keeps_an_empty_trail() {
        let (mut g, ids) = random_graph(11, 6);
        let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
        inc.refresh(&g).unwrap();
        for w in ids.windows(2) {
            g.precedence(w[0], w[1]);
            assert!(matches!(inc.refresh(&g).unwrap(), Refresh::Delta { .. }));
        }
        assert!(inc.stats().relaxations > 0);
        assert!(inc.trail.is_empty());
        // The first checkpoint starts the log.
        let cp = inc.checkpoint();
        let m = g.mark();
        g.min_separation(ids[0], ids[5], TimeSpan::from_secs(40));
        inc.refresh(&g).unwrap();
        assert!(!inc.trail.is_empty());
        g.undo_to(m);
        inc.restore(&cp);
        assert!(inc.trail.is_empty());
        assert_matches_oracle(&inc, &g);
    }

    #[test]
    fn restore_unwinds_a_full_recomputation() {
        let (mut g, ids) = random_graph(13, 5);
        let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
        inc.refresh(&g).unwrap();
        let before: Vec<_> = inc.dist.clone();
        let (cp, m0) = (inc.checkpoint(), g.mark());
        g.precedence(ids[0], ids[1]);
        let m1 = g.mark();
        g.precedence(ids[1], ids[2]);
        inc.refresh(&g).unwrap();
        // An undo without a restore forces a full recomputation, which
        // moves the replaced vectors onto the trail.
        g.undo_to(m1);
        assert_eq!(inc.refresh(&g).unwrap(), Refresh::Full(FullReason::Removal));
        assert!(inc.trail.iter().any(|u| matches!(u, Undo::Vectors(_))));
        assert_matches_oracle(&inc, &g);
        g.undo_to(m0);
        inc.restore(&cp);
        assert!(inc.trail.is_empty());
        assert_eq!(inc.dist, before);
        assert_eq!(inc.refresh(&g).unwrap(), Refresh::CacheHit);
        assert_matches_oracle(&inc, &g);
    }

    #[test]
    fn resize_falls_back_to_full() {
        let (mut g, _) = random_graph(9, 3);
        let mut inc = IncrementalLongestPaths::new(NodeId::ANCHOR);
        inc.refresh(&g).unwrap();
        let r = g.add_resource(Resource::new("S", ResourceKind::Compute));
        g.add_task(Task::new("late", r, TimeSpan::from_secs(2), Power::ZERO));
        assert_eq!(inc.refresh(&g).unwrap(), Refresh::Full(FullReason::Resize));
        assert_matches_oracle(&inc, &g);
    }

    #[test]
    fn reason_vocab_round_trips() {
        for r in [
            FullReason::Init,
            FullReason::Resize,
            FullReason::Removal,
            FullReason::CycleSuspect,
            FullReason::Budget,
        ] {
            assert_eq!(FullReason::from_str_opt(r.as_str()), Some(r));
        }
        assert_eq!(FullReason::from_str_opt("nope"), None);
    }
}
