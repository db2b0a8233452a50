//! Exact branch-and-bound scheduling for small instances.
//!
//! §5.3 of the paper: "To find an 'optimal' schedule …, the algorithm
//! should examine all valid partial orderings of tasks, which will
//! increase the complexity of computation to an exponential order of
//! tasks. Therefore, we apply heuristics…". This module implements
//! that exponential search for instances small enough to afford it,
//! so the benches can report the heuristics' *optimality gap* —
//! something the paper could only argue qualitatively.
//!
//! The search assigns start times in a dynamic topological order
//! using the standard dominance rule for regular objectives: a task
//! only ever starts at its constraint lower bound or at the
//! completion time of an already-placed task (any other start can be
//! left-shifted without making the schedule worse). Branches are
//! pruned against the incumbent finish time and the `P_max` budget.

use crate::error::ScheduleError;
use crate::telemetry::SearchStats;
use pas_core::{is_time_valid, Schedule};
use pas_graph::csr::{CsrAdjacency, FixedBitset};
use pas_graph::longest_path::single_source_longest_paths;
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, NodeId, TaskId};
use pas_obs::{Observer, TraceEvent};
use pas_par::PoolProfile;

/// Limits for the exhaustive search.
#[derive(Debug, Clone, Copy)]
pub struct OptimalConfig {
    /// Hard cap on explored nodes; the search reports failure beyond
    /// it rather than running away.
    pub max_nodes: u64,
    /// Horizon bound on any start time (defaults to the serial sum of
    /// delays plus the largest window, which always admits a
    /// solution when one exists).
    pub horizon: Option<Time>,
    /// Prune with lint-derived admissible bounds
    /// ([`pas_lint::lint_bounds`]): per-task completion tails cut
    /// candidate starts whose forced completion cannot beat the
    /// incumbent, and the makespan lower bound stops the search the
    /// moment the incumbent meets it (no strictly better schedule can
    /// exist). Both cuts only discard subtrees that cannot *strictly*
    /// improve the incumbent, so the returned schedule is
    /// bit-identical with the flag on or off — only `nodes_explored`
    /// and the prune counters change
    /// ([`SearchStats::pruned_bound`]). Off by default so legacy node
    /// counts stay reproducible.
    pub use_lint_bounds: bool,
    /// Symmetry breaking for interchangeable tasks (DESIGN.md §15):
    /// tasks with identical delay, power, resource and constraint
    /// signature are only ever branched in canonical (id) order — a
    /// task is skipped while a smaller interchangeable twin is still
    /// unplaced, because any completion below it has an
    /// identical-finish twin in an earlier subtree. The returned
    /// schedule is bit-identical with the flag on or off (given an
    /// ample node budget); only `nodes_explored` and
    /// [`SearchStats::pruned_dominance`] change. Off by default so
    /// legacy node counts stay reproducible.
    pub use_dominance: bool,
}

impl Default for OptimalConfig {
    fn default() -> Self {
        OptimalConfig {
            max_nodes: 20_000_000,
            horizon: None,
            use_lint_bounds: false,
            use_dominance: false,
        }
    }
}

/// The slice of [`pas_lint::LintBounds`] the search consumes: the
/// admissible makespan lower bound and the per-task completion tails.
type SearchBounds = (Time, Vec<TimeSpan>);

/// Computes the lint bounds for a search over `graph`, or `None` when
/// disabled (or when the bounds are unusable — e.g. a positive cycle
/// left no per-task tails, a case [`prepare`] rejects anyway).
///
/// Admissibility against this search space: the search enforces every
/// constraint edge, `σ ≥ 0`, resource exclusivity and the `p_max`
/// budget — exactly the premises `lint_bounds` derives its lower
/// bounds from — so no feasible schedule can finish before
/// `makespan_lb`, and no task `v` started at `s` can finish the
/// schedule before `s + tail(v)`.
fn lint_search_bounds(
    graph: &ConstraintGraph,
    p_max: Power,
    background: Power,
    enabled: bool,
) -> Option<SearchBounds> {
    if !enabled || graph.num_tasks() == 0 {
        return None;
    }
    let problem = pas_core::Problem::with_background(
        "lint-bounds",
        graph.clone(),
        pas_core::PowerConstraints::max_only(p_max),
        background,
    );
    let bounds = pas_lint::lint_bounds(&problem);
    if bounds.tails.len() != graph.num_tasks() {
        return None;
    }
    Some((bounds.makespan_lb, bounds.tails))
}

/// What one branch of a search returns: its best `(finish, starts)`
/// (if any) or its error, its counters, and the telemetry it buffered
/// (kept even when the branch errors, so budget exhaustion still shows
/// up in the trace).
struct Branch {
    result: Result<Option<(Time, Vec<Time>)>, ScheduleError>,
    stats: SearchStats,
    log: Vec<TraceEvent>,
}

/// The outcome of an exact search.
#[derive(Debug, Clone)]
pub struct OptimalOutcome {
    /// A schedule with the minimum possible finish time.
    pub schedule: Schedule,
    /// Its finish time.
    pub finish_time: Time,
    /// Search nodes explored (with a frontier split: every branch's
    /// nodes plus the root).
    pub nodes_explored: u64,
    /// Search counters (nodes, prunes by reason, depth, budget) — a
    /// pure function of the problem, the configuration and the split.
    pub stats: SearchStats,
}

/// Finds a minimum-finish-time schedule satisfying all timing
/// constraints, resource serialization, and the `p_max` budget, by
/// exhaustive branch and bound.
///
/// `split` picks how the search spends `config.max_nodes`:
///
/// * `None` — one search over the whole tree under one global budget.
/// * `Some(workers)` — the depth-0 frontier (every topologically ready
///   task at its constraint lower bound, in task order) is split into
///   independent branches, the budget is divided evenly among them,
///   and the branches run on up to `workers` threads (inline at 1).
///   Branches share no state, so every branch's node count — and with
///   it the success-or-exhaustion outcome — is a pure function of the
///   problem, identical at every `workers` value. The portfolio's exact
///   attempt runs this mode at every parallelism setting so
///   `schedule_portfolio` stays bit-identical across thread counts even
///   on instances that blow the budget (`DESIGN.md` §12).
///
/// On success both modes return the same schedule: the first complete
/// assignment, in depth-first order, that achieves the minimum finish
/// time (branch winners are reduced in frontier order by strict
/// finish-time improvement).
///
/// When `obs` is enabled, each branch (the whole tree is branch 0
/// without a split) buffers a [`TraceEvent::SearchSample`] every
/// `sample_every` nodes (0 = unsampled) and a
/// [`TraceEvent::IncumbentImproved`] per incumbent; the buffers are
/// replayed in frontier order after the join, each followed by the
/// branch's [`TraceEvent::SearchStatsRecorded`] carrying its slice of
/// the budget — also when the search fails, so the trace explains the
/// failure. Sampling is node-count-triggered, never wall-clock, so the
/// stream is identical at every `workers` value. Observation never
/// perturbs the search: pass [`pas_obs::NullObserver`] to run
/// unobserved and get the same schedule, node count and counters.
///
/// The returned [`PoolProfile`] is the wall-clock side channel of the
/// branch fan-out (per-worker busy/wait time). It is nondeterministic
/// by nature and must never be folded into traces or reproducible
/// output (`DESIGN.md` §12).
///
/// # Errors
/// * [`ScheduleError::Infeasible`] when the timing constraints alone
///   are unsatisfiable;
/// * [`ScheduleError::SpikeUnresolvable`] when some single task
///   exceeds the budget or no power-valid schedule exists within the
///   horizon;
/// * [`ScheduleError::TimingSearchExhausted`] when the node budget is
///   hit before the search completes (the incumbent, if any, is lost —
///   callers wanting anytime behaviour should raise the cap). With a
///   split, when any branch exceeds `max_nodes / frontier_len` nodes:
///   the boundary differs from the single-budget search's, but it is
///   the same at every `workers` value.
///
/// # Examples
/// ```
/// use pas_graph::units::{Power, TimeSpan};
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
/// use pas_obs::NullObserver;
/// use pas_sched::optimal::{minimize_finish_time, OptimalConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = ConstraintGraph::new();
/// let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
/// let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
/// g.add_task(Task::new("a", r0, TimeSpan::from_secs(4), Power::from_watts(6)));
/// g.add_task(Task::new("b", r1, TimeSpan::from_secs(4), Power::from_watts(6)));
/// // 8 W budget: they must run back to back → optimum is 8 s.
/// let (best, _pool) = minimize_finish_time(&g, Power::from_watts(8), Power::ZERO,
///                                          &OptimalConfig::default(), None, 0,
///                                          &mut NullObserver);
/// assert_eq!(best?.finish_time.as_secs(), 8);
/// # Ok(())
/// # }
/// ```
pub fn minimize_finish_time<O: Observer + ?Sized>(
    graph: &ConstraintGraph,
    p_max: Power,
    background: Power,
    config: &OptimalConfig,
    split: Option<usize>,
    sample_every: u64,
    obs: &mut O,
) -> (Result<OptimalOutcome, ScheduleError>, PoolProfile) {
    let horizon = match prepare(graph, p_max, background, config) {
        Ok(Some(h)) => h,
        Ok(None) => return (Ok(empty_outcome()), PoolProfile::default()),
        Err(e) => return (Err(e), PoolProfile::default()),
    };
    let arena = SearchArena::build(graph, config.use_dominance);
    // Branch roots: the whole tree, or one pre-placed depth-0 task per
    // frontier entry (the root node itself counts once).
    let (roots, workers, budget, root_nodes) = match split {
        None => (vec![None], 1, config.max_nodes, 0),
        Some(workers) => {
            let frontier = depth0_frontier(&arena, p_max, background, horizon);
            if frontier.is_empty() {
                return (Err(no_schedule(p_max)), PoolProfile::default());
            }
            let budget = (config.max_nodes / frontier.len() as u64).max(1);
            (frontier.into_iter().map(Some).collect(), workers, budget, 1)
        }
    };
    let sample_every = if obs.is_enabled() { sample_every } else { 0 };
    let bounds = lint_search_bounds(graph, p_max, background, config.use_lint_bounds);

    let (branches, pool) =
        pas_par::par_map(workers, roots, |index, root: Option<(TaskId, Time)>| {
            let mut starts = vec![None; arena.num_tasks()];
            if let Some((v, s)) = root {
                starts[v.index()] = Some(s);
            }
            let mut search = Search::new(
                &arena,
                p_max,
                background,
                budget,
                horizon,
                starts,
                bounds.as_ref(),
            );
            search.sample_every = sample_every;
            search.worker = index as u32;
            let descended = match root {
                None => search.descend(0, Time::ZERO),
                Some((v, s)) => search.descend(1, s + arena.delay[v.index()]),
            };
            let stats = search.stats_snapshot();
            Branch {
                result: descended.map(|()| search.best.map(|b| (search.best_finish, b))),
                stats,
                log: search.log,
            }
        });

    // All telemetry first (frontier order, errored branches included),
    // then the reduction.
    if obs.is_enabled() {
        for (index, branch) in branches.iter().enumerate() {
            for event in &branch.log {
                obs.on_event(event);
            }
            branch.stats.emit(index as u32, obs);
        }
    }
    (reduce_branches(graph, p_max, root_nodes, branches), pool)
}

/// Reduces the branches in frontier order: `root_nodes` plus every
/// branch's count, the first strictly-better finish, and the first
/// error. Branches are independent, so every reduced quantity (winner,
/// error, node count, stats) is deterministic.
fn reduce_branches(
    graph: &ConstraintGraph,
    p_max: Power,
    root_nodes: u64,
    branches: Vec<Branch>,
) -> Result<OptimalOutcome, ScheduleError> {
    let mut nodes_total = root_nodes;
    let mut stats_total = SearchStats::default();
    let mut best: Option<(Time, Vec<Time>)> = None;
    for branch in branches {
        let local = branch.result?;
        nodes_total = nodes_total.saturating_add(branch.stats.nodes);
        stats_total.absorb(&branch.stats);
        if let Some((finish, starts)) = local {
            if best
                .as_ref()
                .map_or(true, |(incumbent, _)| finish < *incumbent)
            {
                best = Some((finish, starts));
            }
        }
    }

    let (_, starts) = best.ok_or_else(|| no_schedule(p_max))?;
    let schedule = Schedule::from_starts(starts);
    debug_assert!(is_time_valid(graph, &schedule));
    Ok(OptimalOutcome {
        finish_time: schedule.finish_time(graph),
        schedule,
        nodes_explored: nodes_total,
        stats: stats_total,
    })
}

/// The error for a search that found no power-valid schedule within
/// the horizon.
fn no_schedule(p_max: Power) -> ScheduleError {
    ScheduleError::SpikeUnresolvable {
        at: Time::ZERO,
        level: Power::MAX,
        budget: p_max,
    }
}

/// Preamble of the search: timing feasibility, the single-task spike
/// check, and the horizon. `Ok(None)` flags the trivial empty
/// instance.
fn prepare(
    graph: &ConstraintGraph,
    p_max: Power,
    background: Power,
    config: &OptimalConfig,
) -> Result<Option<Time>, ScheduleError> {
    let asap =
        single_source_longest_paths(graph, NodeId::ANCHOR).map_err(ScheduleError::Infeasible)?;
    for (_, task) in graph.tasks() {
        let alone = task.power().saturating_add(background);
        if alone > p_max {
            return Err(ScheduleError::SpikeUnresolvable {
                at: Time::ZERO,
                level: alone,
                budget: p_max,
            });
        }
    }
    if graph.num_tasks() == 0 {
        return Ok(None);
    }
    let horizon = config.horizon.unwrap_or_else(|| {
        let serial: i64 = graph.tasks().map(|(_, t)| t.delay().as_secs()).sum();
        let max_lb: i64 = graph
            .task_ids()
            .map(|t| asap.start_time(t).as_secs())
            .max()
            .unwrap_or(0);
        Time::from_secs(serial + max_lb)
    });
    Ok(Some(horizon))
}

/// The zero-task outcome.
fn empty_outcome() -> OptimalOutcome {
    OptimalOutcome {
        schedule: Schedule::from_starts(vec![]),
        finish_time: Time::ZERO,
        nodes_explored: 0,
        stats: SearchStats::default(),
    }
}

/// Replicates the single-budget search's depth-0 expansion: with
/// nothing placed the dominant candidate set for each ready task is
/// exactly its lower bound, visited in task order. With dominance
/// enabled the same symmetry rule the search loop applies is applied
/// here, so the split search branches on the identical frontier.
fn depth0_frontier(
    arena: &SearchArena,
    p_max: Power,
    background: Power,
    horizon: Time,
) -> Vec<(TaskId, Time)> {
    let mut proto = Search::new(
        arena,
        p_max,
        background,
        0,
        horizon,
        vec![None; arena.num_tasks()],
        None,
    );
    let mut frontier: Vec<(TaskId, Time)> = Vec::new();
    let ready: Vec<usize> = proto.ready.ones().collect();
    for i in ready {
        let v = TaskId::from_index(i);
        // At depth 0 every task is unplaced, so the symmetry rule
        // reduces to "only the smallest member of each class
        // branches".
        if arena.dominance && arena.class_prev[i].is_some() {
            continue;
        }
        let lb = proto.lower_bound(v);
        if lb > horizon || !proto.placement_ok(v, lb) {
            continue;
        }
        frontier.push((v, lb));
    }
    frontier
}

/// Frozen, cache-friendly view of the problem shared by every branch
/// of one search invocation (DESIGN.md §15): CSR adjacency plus flat
/// per-task attribute arrays, so the hot loop never touches the
/// pointer-chasing `ConstraintGraph` arenas, and the precomputed
/// interchangeability chain for the symmetry rule. Immutable and
/// `Sync`, so the split search builds it once and shares it across
/// workers.
struct SearchArena {
    csr: CsrAdjacency,
    delay: Vec<TimeSpan>,
    power: Vec<Power>,
    resource: Vec<u32>,
    /// `class_prev[v]` is the nearest smaller task interchangeable
    /// with `v` (identical delay, power, resource, and in/out
    /// constraint signature by node id — which automatically excludes
    /// classes whose members constrain each other). `None` for class
    /// leaders and when dominance is off.
    class_prev: Vec<Option<TaskId>>,
    /// Whether the symmetry rule is applied ([`OptimalConfig::use_dominance`]).
    dominance: bool,
}

impl SearchArena {
    fn build(graph: &ConstraintGraph, dominance: bool) -> Self {
        let n = graph.num_tasks();
        let mut delay = Vec::with_capacity(n);
        let mut power = Vec::with_capacity(n);
        let mut resource = Vec::with_capacity(n);
        for (_, task) in graph.tasks() {
            delay.push(task.delay());
            power.push(task.power());
            resource.push(task.resource().index() as u32);
        }
        let csr = CsrAdjacency::build(graph);
        let class_prev = if dominance {
            interchangeable_prev(graph, &csr)
        } else {
            vec![None; n]
        };
        SearchArena {
            csr,
            delay,
            power,
            resource,
            class_prev,
            dominance,
        }
    }

    #[inline]
    fn num_tasks(&self) -> usize {
        self.delay.len()
    }
}

/// Computes the interchangeability chain: for every task, the nearest
/// smaller task with an identical `(delay, power, resource, in-edges,
/// out-edges)` signature, where edge signatures are `(other node id,
/// weight, kind)` multisets. Equal signatures imply the two tasks are
/// fully exchangeable in any schedule (swapping their start times
/// maps feasible schedules to feasible schedules with the same
/// finish), which is what the symmetry rule in [`Search::descend`]
/// relies on; see DESIGN.md §15 for the soundness argument.
fn interchangeable_prev(graph: &ConstraintGraph, csr: &CsrAdjacency) -> Vec<Option<TaskId>> {
    fn kind_rank(kind: pas_graph::EdgeKind) -> u8 {
        match kind {
            pas_graph::EdgeKind::MinSeparation => 0,
            pas_graph::EdgeKind::MaxSeparation => 1,
            pas_graph::EdgeKind::Serialization => 2,
            pas_graph::EdgeKind::Release => 3,
            pas_graph::EdgeKind::Lock => 4,
            _ => 5,
        }
    }
    type EdgeSig = Vec<(u32, i64, u8)>;
    type Sig = (i64, i64, u32, EdgeSig, EdgeSig);

    let n = graph.num_tasks();
    let mut keyed: Vec<(Sig, usize)> = Vec::with_capacity(n);
    for (t, task) in graph.tasks() {
        let mut ins: EdgeSig = csr
            .in_edges(t.node())
            .iter()
            .map(|e| {
                (
                    e.other.index() as u32,
                    e.weight.as_secs(),
                    kind_rank(e.kind),
                )
            })
            .collect();
        ins.sort_unstable();
        let mut outs: EdgeSig = csr
            .out_edges(t.node())
            .iter()
            .map(|e| {
                (
                    e.other.index() as u32,
                    e.weight.as_secs(),
                    kind_rank(e.kind),
                )
            })
            .collect();
        outs.sort_unstable();
        keyed.push((
            (
                task.delay().as_secs(),
                task.power().as_milliwatts(),
                task.resource().index() as u32,
                ins,
                outs,
            ),
            t.index(),
        ));
    }
    keyed.sort();
    let mut class_prev = vec![None; n];
    for pair in keyed.windows(2) {
        if pair[0].0 == pair[1].0 {
            class_prev[pair[1].1] = Some(TaskId::from_index(pair[0].1));
        }
    }
    class_prev
}

struct Search<'g> {
    arena: &'g SearchArena,
    p_max: Power,
    background: Power,
    max_nodes: u64,
    nodes: u64,
    best: Option<Vec<Time>>,
    best_finish: Time,
    starts: Vec<Option<Time>>,
    /// SoA mirror of `starts.is_some()` for the hot membership tests
    /// (dominance twin checks, ready-frontier maintenance).
    placed: FixedBitset,
    /// Per-task count of precedence in-edges whose task source is
    /// still unplaced; 0 means the task is branchable.
    pending_preds: Vec<u32>,
    /// Unplaced tasks with `pending_preds == 0` — the branch frontier,
    /// iterated in ascending id order (the legacy task-scan order).
    ready: FixedBitset,
    /// Completion times of placed tasks, kept sorted (duplicates
    /// kept). Replaces the per-node candidate re-sort: the dominant
    /// candidate set of a task with lower bound `lb` is `lb` followed
    /// by the distinct ends after `lb`, read off this array in order.
    ends_sorted: Vec<Time>,
    /// Stack-disciplined scratch for candidate start times (one frame
    /// per recursion depth), reused across the whole search.
    cand_buf: Vec<Time>,
    /// Stack-disciplined scratch snapshotting the ready frontier per
    /// node expansion.
    ready_buf: Vec<u32>,
    /// Placed tasks as a contiguous `(start, end, power, resource)`
    /// stack (pushed by [`Search::place`], popped by
    /// [`Search::unplace`] — the two are strictly LIFO in `descend`).
    /// `placement_ok` scans this instead of decoding the `placed`
    /// bitset and chasing `starts`/arena lookups per placed task: the
    /// overlap sweep's verdict is order-invariant (see the proof at
    /// the scan), so placement order is as good as id order.
    placed_ivals: Vec<(Time, Time, Power, u32)>,
    /// Scratch for `placement_ok`'s overlap sweep events.
    events: Vec<(Time, Power, bool)>,
    horizon: Time,
    /// Lint-derived `(makespan_lb, completion tails)`; `None` when
    /// [`OptimalConfig::use_lint_bounds`] is off.
    bounds: Option<&'g SearchBounds>,
    /// Set once the incumbent meets the lint makespan lower bound: no
    /// strictly better schedule exists, so the search unwinds without
    /// expanding further nodes (the incumbent is kept).
    stop: bool,
    /// Prune/depth counters, always collected (plain increments).
    stats: SearchStats,
    /// Emit a [`TraceEvent::SearchSample`] every this many nodes into
    /// [`Search::log`]; `0` disables sampling (the unobserved path).
    sample_every: u64,
    /// Worker/branch id stamped on sampled events.
    worker: u32,
    /// Buffered telemetry events, replayed by [`minimize_finish_time`]
    /// in frontier order after the search returns.
    log: Vec<TraceEvent>,
}

impl<'g> Search<'g> {
    // The SoA state (placed set, pending-predecessor counts, ready
    // frontier, sorted ends) is derived from `starts`, so branch
    // searches seeded with a pre-placed task start consistent.
    fn new(
        arena: &'g SearchArena,
        p_max: Power,
        background: Power,
        max_nodes: u64,
        horizon: Time,
        starts: Vec<Option<Time>>,
        bounds: Option<&'g SearchBounds>,
    ) -> Self {
        let n = starts.len();
        debug_assert_eq!(n, arena.num_tasks());
        let mut placed = FixedBitset::new(n);
        let mut ends_sorted = Vec::with_capacity(n);
        let mut placed_ivals = Vec::with_capacity(n);
        for (i, s) in starts.iter().enumerate() {
            if let Some(s) = s {
                placed.insert(i);
                ends_sorted.push(*s + arena.delay[i]);
                placed_ivals.push((*s, *s + arena.delay[i], arena.power[i], arena.resource[i]));
            }
        }
        ends_sorted.sort_unstable();
        let mut pending_preds = vec![0u32; n];
        for (i, pending) in pending_preds.iter_mut().enumerate() {
            *pending = arena
                .csr
                .in_edges(TaskId::from_index(i).node())
                .iter()
                .filter(|e| e.is_precedence())
                .filter(|e| e.other.task().is_some_and(|u| starts[u.index()].is_none()))
                .count() as u32;
        }
        let mut ready = FixedBitset::new(n);
        for i in 0..n {
            if starts[i].is_none() && pending_preds[i] == 0 {
                ready.insert(i);
            }
        }
        Search {
            arena,
            p_max,
            background,
            max_nodes,
            nodes: 0,
            best: None,
            best_finish: horizon + TimeSpan::from_secs(1),
            starts,
            placed,
            pending_preds,
            ready,
            ends_sorted,
            cand_buf: Vec::new(),
            ready_buf: Vec::new(),
            placed_ivals,
            events: Vec::new(),
            horizon,
            bounds,
            stop: false,
            stats: SearchStats::default(),
            sample_every: 0,
            worker: 0,
            log: Vec::new(),
        }
    }

    /// Places `v` at `s`, maintaining every SoA structure. Returns the
    /// insertion index into [`Search::ends_sorted`] for the matching
    /// [`Search::unplace`].
    fn place(&mut self, v: TaskId, s: Time) -> usize {
        let i = v.index();
        self.starts[i] = Some(s);
        self.placed.insert(i);
        self.ready.remove(i);
        for e in self.arena.csr.out_edges(v.node()) {
            if !e.is_precedence() {
                continue;
            }
            if let Some(w) = e.other.task() {
                let w = w.index();
                self.pending_preds[w] -= 1;
                if self.pending_preds[w] == 0 && !self.placed.contains(w) {
                    self.ready.insert(w);
                }
            }
        }
        let end = s + self.arena.delay[i];
        self.placed_ivals
            .push((s, end, self.arena.power[i], self.arena.resource[i]));
        let at = self.ends_sorted.partition_point(|&e| e <= end);
        self.ends_sorted.insert(at, end);
        at
    }

    /// Exact inverse of [`Search::place`].
    fn unplace(&mut self, v: TaskId, end_idx: usize) {
        let i = v.index();
        let top = self.placed_ivals.pop();
        debug_assert_eq!(top.map(|(s, ..)| Some(s)), Some(self.starts[i]));
        self.ends_sorted.remove(end_idx);
        for e in self.arena.csr.out_edges(v.node()) {
            if !e.is_precedence() {
                continue;
            }
            if let Some(w) = e.other.task() {
                let w = w.index();
                if self.pending_preds[w] == 0 {
                    self.ready.remove(w);
                }
                self.pending_preds[w] += 1;
            }
        }
        self.placed.remove(i);
        self.ready.insert(i);
        self.starts[i] = None;
    }

    /// The counters with the derived fields (nodes, budget) filled in.
    fn stats_snapshot(&self) -> SearchStats {
        SearchStats {
            nodes: self.nodes,
            budget: self.max_nodes,
            ..self.stats
        }
    }
    /// Places the `depth`-th task (tasks whose placed makespan is
    /// `current_finish` so far).
    fn descend(&mut self, depth: usize, current_finish: Time) -> Result<(), ScheduleError> {
        if self.stop {
            return Ok(());
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.stats.pruned_budget += 1;
            return Err(ScheduleError::TimingSearchExhausted {
                backtracks: self.max_nodes as usize,
            });
        }
        let depth32 = depth as u32;
        if depth32 > self.stats.max_depth {
            self.stats.max_depth = depth32;
        }
        if self.sample_every != 0 && self.nodes % self.sample_every == 0 {
            self.log.push(TraceEvent::SearchSample {
                worker: self.worker,
                nodes: self.nodes,
                depth: depth32,
                best: if self.best.is_some() {
                    self.best_finish.as_secs()
                } else {
                    -1
                },
            });
        }
        if depth == self.starts.len() {
            if current_finish < self.best_finish {
                self.best_finish = current_finish;
                self.stats.incumbent_improvements += 1;
                if self.sample_every != 0 {
                    self.log.push(TraceEvent::IncumbentImproved {
                        worker: self.worker,
                        nodes: self.nodes,
                        finish: current_finish,
                    });
                }
                self.best = Some(
                    self.starts
                        .iter()
                        .map(|s| s.expect("complete assignment"))
                        .collect(),
                );
                // A feasible schedule at the admissible lower bound is
                // provably optimal; nothing strictly better exists, so
                // unwind. The incumbent is already the first
                // minimum-achieving assignment in depth-first order,
                // so the returned schedule is unchanged.
                if let Some((makespan_lb, _)) = self.bounds {
                    if self.best_finish <= *makespan_lb {
                        self.stop = true;
                        self.stats.pruned_bound += 1;
                    }
                }
            }
            return Ok(());
        }

        // Branch over the ready frontier (unplaced tasks whose
        // precedence predecessors are all placed — the dynamic
        // topological order), in ascending id order, at each dominant
        // candidate start. The frontier is snapshotted into a
        // stack-disciplined scratch because recursion below mutates
        // `ready` (and restores it before the next iteration reads
        // the snapshot).
        let ready_base = self.ready_buf.len();
        for i in self.ready.ones() {
            self.ready_buf.push(i as u32);
        }
        let ready_end = self.ready_buf.len();
        let mut outcome = Ok(());
        'tasks: for ri in ready_base..ready_end {
            let v = TaskId::from_index(self.ready_buf[ri] as usize);
            if self.arena.dominance {
                // Symmetry rule: while a smaller interchangeable twin
                // is unplaced, branching v is dominated — every
                // completion below (v, s) has an identical-finish
                // twin under the earlier (u, s) branch of this same
                // node (swap the two tasks' start times).
                if let Some(u) = self.arena.class_prev[v.index()] {
                    if !self.placed.contains(u.index()) {
                        self.stats.pruned_dominance += 1;
                        continue;
                    }
                }
            }
            let lb = self.lower_bound(v);
            let d = self.arena.delay[v.index()];

            // Dominant candidates: lb, then the distinct completions
            // of placed tasks after lb — `ends_sorted` is maintained
            // sorted, so this reads off exactly the sorted+deduped
            // candidate sequence the legacy per-node re-sort built.
            let cand_base = self.cand_buf.len();
            self.cand_buf.push(lb);
            let mut prev = lb;
            for ei in self.ends_sorted.partition_point(|&e| e <= lb)..self.ends_sorted.len() {
                let e = self.ends_sorted[ei];
                if e != prev {
                    self.cand_buf.push(e);
                    prev = e;
                }
            }
            let cand_end = self.cand_buf.len();

            for ci in cand_base..cand_end {
                let s = self.cand_buf[ci];
                if s > self.horizon {
                    self.stats.pruned_horizon += 1;
                    break;
                }
                let finish = (s + d).max(current_finish);
                if finish >= self.best_finish {
                    self.stats.pruned_incumbent += 1;
                    break; // candidates are sorted: all later ones worse
                }
                if let Some((_, tails)) = self.bounds {
                    // Completion-tail bound: starting v at s forces the
                    // schedule to run until at least s + tail(v), so a
                    // branch whose tail bound cannot *strictly* beat
                    // the incumbent cannot improve it. tail(v) ≥ d(v),
                    // so this subsumes the incumbent cut above and the
                    // sorted-candidates break stays valid.
                    let bound_finish = (s + tails[v.index()]).max(current_finish);
                    if bound_finish >= self.best_finish {
                        self.stats.pruned_bound += 1;
                        break;
                    }
                }
                if !self.placement_ok(v, s) {
                    // Infeasible placements share the dominance
                    // counter with symmetry skips (DESIGN.md §13).
                    self.stats.pruned_dominance += 1;
                    continue;
                }
                let end_idx = self.place(v, s);
                let descended = self.descend(depth + 1, finish);
                self.unplace(v, end_idx);
                if descended.is_err() || self.stop {
                    outcome = descended;
                    self.cand_buf.truncate(cand_base);
                    break 'tasks;
                }
            }
            self.cand_buf.truncate(cand_base);
        }
        self.ready_buf.truncate(ready_base);
        outcome
    }

    /// The earliest start of `v` permitted by its precedence in-edges.
    /// Only called for frontier tasks, whose precedence predecessors
    /// are all placed (the `ready` invariant), so the bound always
    /// exists.
    fn lower_bound(&self, v: TaskId) -> Time {
        let mut lb = Time::ZERO;
        for e in self.arena.csr.in_edges(v.node()) {
            if !e.is_precedence() {
                continue; // backward max edges are checked on placement
            }
            match e.other.task() {
                None => lb = lb.max(Time::ZERO + e.weight),
                Some(u) => {
                    let su = self.starts[u.index()].expect("ready task's preds are placed");
                    lb = lb.max(su + e.weight);
                }
            }
        }
        lb
    }

    /// Checks the placement of `v` at `s` against placed tasks:
    /// every edge between placed endpoints, resource exclusivity, and
    /// the power budget over `[s, s+d)`.
    fn placement_ok(&mut self, v: TaskId, s: Time) -> bool {
        let vi = v.index();
        let end = s + self.arena.delay[vi];

        // Edges incident to v whose other endpoint is placed.
        for e in self.arena.csr.out_edges(v.node()) {
            let to = match e.other.task() {
                None => Time::ZERO,
                Some(u) => match self.starts[u.index()] {
                    Some(t) => t,
                    None => continue,
                },
            };
            if to - s < e.weight {
                return false;
            }
        }
        for e in self.arena.csr.in_edges(v.node()) {
            let from = match e.other.task() {
                None => Time::ZERO,
                Some(u) => match self.starts[u.index()] {
                    Some(t) => t,
                    None => continue,
                },
            };
            if s - from < e.weight {
                return false;
            }
        }

        // Resource exclusivity and power budget against placed tasks,
        // scanned off the contiguous interval stack (placement order,
        // not id order). The verdict is order-invariant: the resource
        // clash is an existence test; and in the sweep below, ends
        // sort before coincident starts, powers are non-negative, so
        // within a `(t, is_start)` tie group every prefix level is ≤
        // the group total — the budget check fails for some
        // permutation of a tie group iff it fails for all of them.
        let mut level = self.arena.power[vi].saturating_add(self.background);
        let resource = self.arena.resource[vi];
        self.events.clear();
        for &(su, eu, pu, ru) in &self.placed_ivals {
            let overlaps = su < end && s < eu;
            if !overlaps {
                continue;
            }
            if ru == resource {
                return false;
            }
            self.events.push((su.max(s), pu, true));
            self.events.push((eu.min(end), pu, false));
        }
        self.events.sort_by_key(|&(t, _, is_start)| (t, is_start));
        for &(_, p, is_start) in &self.events {
            if is_start {
                level += p;
                if level > self.p_max {
                    return false;
                }
            } else {
                level -= p;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_graph::{Resource, ResourceKind, Task};
    use pas_obs::NullObserver;

    fn parallel_tasks(powers: &[i64], delay: i64) -> ConstraintGraph {
        let mut g = ConstraintGraph::new();
        for (i, &p) in powers.iter().enumerate() {
            let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
            g.add_task(Task::new(
                format!("t{i}"),
                r,
                TimeSpan::from_secs(delay),
                Power::from_watts(p),
            ));
        }
        g
    }

    /// The single-budget (`split = None`) or frontier-split search,
    /// unobserved, with no background draw.
    fn run(
        g: &ConstraintGraph,
        p_max: Power,
        config: &OptimalConfig,
        split: Option<usize>,
    ) -> Result<OptimalOutcome, ScheduleError> {
        minimize_finish_time(g, p_max, Power::ZERO, config, split, 0, &mut NullObserver).0
    }

    #[test]
    fn unconstrained_optimum_is_fully_parallel() {
        let g = parallel_tasks(&[3, 3, 3], 5);
        let best = run(&g, Power::from_watts(100), &OptimalConfig::default(), None).unwrap();
        assert_eq!(best.finish_time, Time::from_secs(5));
    }

    #[test]
    fn budget_two_at_a_time_gives_bin_packing_optimum() {
        // Four 5 W tasks, 10 W budget: two waves of two → 8 s.
        let g = parallel_tasks(&[5, 5, 5, 5], 4);
        let best = run(&g, Power::from_watts(10), &OptimalConfig::default(), None).unwrap();
        assert_eq!(best.finish_time, Time::from_secs(8));
    }

    #[test]
    fn precedence_and_window_respected() {
        let mut g = parallel_tasks(&[4, 4], 3);
        let a = TaskId::from_index(0);
        let b = TaskId::from_index(1);
        g.precedence(a, b);
        g.max_separation(a, b, TimeSpan::from_secs(10));
        let best = run(&g, Power::from_watts(4), &OptimalConfig::default(), None).unwrap();
        assert_eq!(best.finish_time, Time::from_secs(6));
        assert!(is_time_valid(&g, &best.schedule));
    }

    #[test]
    fn infeasible_and_overbudget_errors() {
        let mut g = parallel_tasks(&[4, 4], 3);
        let a = TaskId::from_index(0);
        let b = TaskId::from_index(1);
        g.min_separation(a, b, TimeSpan::from_secs(5));
        g.max_separation(a, b, TimeSpan::from_secs(4));
        assert!(matches!(
            run(&g, Power::from_watts(100), &OptimalConfig::default(), None),
            Err(ScheduleError::Infeasible(_))
        ));

        let g2 = parallel_tasks(&[12], 3);
        assert!(matches!(
            run(&g2, Power::from_watts(9), &OptimalConfig::default(), None),
            Err(ScheduleError::SpikeUnresolvable { .. })
        ));
    }

    /// The lint-bound contract: with `use_lint_bounds` on, the search
    /// returns the byte-identical schedule while exploring strictly
    /// fewer nodes (tail prunes plus the makespan-lower-bound early
    /// stop), and the cuts are visible in `pruned_bound`.
    #[test]
    fn lint_bounds_preserve_schedule_and_cut_nodes() {
        // A 6-task chain plus one free task: the baseline search
        // re-explores every interleaving point of the free task, while
        // the chain pins the critical path to the lint makespan lower
        // bound — so the bounded search stops right after its first
        // (greedy, optimal) descent.
        let mut g = parallel_tasks(&[2, 2, 2, 2, 2, 2, 1], 3);
        for i in 0..5 {
            g.precedence(TaskId::from_index(i), TaskId::from_index(i + 1));
        }
        let p_max = Power::from_watts(50);
        let config = OptimalConfig {
            use_lint_bounds: true,
            ..OptimalConfig::default()
        };
        let baseline = run(&g, p_max, &OptimalConfig::default(), None).unwrap();
        let bounded = run(&g, p_max, &config, None).unwrap();
        assert_eq!(bounded.schedule, baseline.schedule, "bit-identical");
        assert_eq!(bounded.finish_time, baseline.finish_time);
        assert!(
            bounded.nodes_explored < baseline.nodes_explored,
            "bounds must cut nodes: {} vs {}",
            bounded.nodes_explored,
            baseline.nodes_explored
        );
        assert!(bounded.stats.pruned_bound > 0, "{:?}", bounded.stats);
        assert_eq!(baseline.stats.pruned_bound, 0, "off switch stays off");

        // The split search keeps its worker-count invariance with the
        // bounds enabled.
        let one = run(&g, p_max, &config, Some(1)).unwrap();
        assert_eq!(one.schedule, baseline.schedule);
        for workers in [2, 4, 8] {
            let got = run(&g, p_max, &config, Some(workers)).unwrap();
            assert_eq!(got.schedule, one.schedule, "workers={workers}");
            assert_eq!(got.nodes_explored, one.nodes_explored, "workers={workers}");
        }
    }

    #[test]
    fn node_cap_is_enforced() {
        let g = parallel_tasks(&[1, 1, 1, 1, 1, 1], 2);
        let result = run(
            &g,
            Power::from_watts(2),
            &OptimalConfig {
                max_nodes: 10,
                horizon: None,
                use_lint_bounds: false,
                use_dominance: false,
            },
            None,
        );
        assert!(matches!(
            result,
            Err(ScheduleError::TimingSearchExhausted { .. })
        ));
    }

    #[test]
    fn partitioned_search_is_bit_identical_across_worker_counts() {
        let cases: Vec<ConstraintGraph> = vec![
            parallel_tasks(&[3, 3, 3], 5),
            parallel_tasks(&[5, 5, 5, 5], 4),
            {
                let mut g = parallel_tasks(&[4, 4, 2], 3);
                g.precedence(TaskId::from_index(0), TaskId::from_index(1));
                g.max_separation(
                    TaskId::from_index(0),
                    TaskId::from_index(1),
                    TimeSpan::from_secs(10),
                );
                g
            },
        ];
        let p_max = Power::from_watts(10);
        for g in &cases {
            let single = run(g, p_max, &OptimalConfig::default(), None).unwrap();
            for workers in [1, 2, 4, 8] {
                let split = run(g, p_max, &OptimalConfig::default(), Some(workers)).unwrap();
                assert_eq!(
                    split.schedule, single.schedule,
                    "schedule must be bit-identical at workers={workers}"
                );
            }
        }
    }

    /// The property the portfolio relies on: the split search's
    /// *entire result* — including whether it exhausts the budget and
    /// the node count it reports — is identical at every worker
    /// count, because branch budgets are fixed up front and branches
    /// share no state.
    #[test]
    fn partitioned_budget_outcome_is_worker_count_invariant() {
        let g = parallel_tasks(&[1, 1, 1, 1, 1, 1], 2);
        let p_max = Power::from_watts(2);
        let tight = OptimalConfig {
            max_nodes: 30,
            horizon: None,
            use_lint_bounds: false,
            use_dominance: false,
        };
        for workers in [1, 2, 4, 8] {
            assert!(
                matches!(
                    run(&g, p_max, &tight, Some(workers)),
                    Err(ScheduleError::TimingSearchExhausted { .. })
                ),
                "workers={workers}: exhaustion must not depend on the worker count"
            );
        }

        // And with an adequate budget, every worker count succeeds
        // with the same schedule *and* the same deterministic node
        // count.
        let roomy = OptimalConfig::default();
        let one = run(&g, p_max, &roomy, Some(1)).unwrap();
        for workers in [2, 4, 8] {
            let got = run(&g, p_max, &roomy, Some(workers)).unwrap();
            assert_eq!(got.schedule, one.schedule, "workers={workers}");
            assert_eq!(
                got.nodes_explored, one.nodes_explored,
                "split node counts must be deterministic (workers={workers})"
            );
        }
    }

    #[test]
    fn partitioned_search_reports_same_error_classes() {
        let mut g = parallel_tasks(&[4, 4], 3);
        g.min_separation(
            TaskId::from_index(0),
            TaskId::from_index(1),
            TimeSpan::from_secs(5),
        );
        g.max_separation(
            TaskId::from_index(0),
            TaskId::from_index(1),
            TimeSpan::from_secs(4),
        );
        let g2 = parallel_tasks(&[12], 3);
        for workers in [1, 4] {
            assert!(
                matches!(
                    run(
                        &g,
                        Power::from_watts(100),
                        &OptimalConfig::default(),
                        Some(workers)
                    ),
                    Err(ScheduleError::Infeasible(_))
                ),
                "workers={workers}"
            );
            assert!(
                matches!(
                    run(
                        &g2,
                        Power::from_watts(9),
                        &OptimalConfig::default(),
                        Some(workers)
                    ),
                    Err(ScheduleError::SpikeUnresolvable { .. })
                ),
                "workers={workers}"
            );
        }
    }

    /// A horizon below every ready task's release leaves the split
    /// search no depth-0 branch at all, and the single-budget search
    /// prunes every candidate on the horizon: both report that no
    /// schedule exists.
    #[test]
    fn empty_frontier_is_spike_unresolvable() {
        let mut g = parallel_tasks(&[2, 2], 3);
        for i in 0..2 {
            g.release(TaskId::from_index(i), Time::from_secs(10));
        }
        let config = OptimalConfig {
            horizon: Some(Time::from_secs(5)),
            ..OptimalConfig::default()
        };
        for split in [None, Some(1), Some(4)] {
            assert!(
                matches!(
                    run(&g, Power::from_watts(10), &config, split),
                    Err(ScheduleError::SpikeUnresolvable { .. })
                ),
                "split={split:?}"
            );
        }
    }

    /// Observation never perturbs the search: a recording observer
    /// and the null observer give the same schedule, node count and
    /// counters.
    #[test]
    fn observed_search_matches_unobserved_and_reports_prunes() {
        let g = parallel_tasks(&[5, 5, 5, 5], 4);
        let p_max = Power::from_watts(10);
        let config = OptimalConfig::default();
        // Small interval so the test sees samples.
        let plain =
            minimize_finish_time(&g, p_max, Power::ZERO, &config, None, 8, &mut NullObserver)
                .0
                .unwrap();
        let mut rec = pas_obs::RecordingObserver::new();
        let observed = minimize_finish_time(&g, p_max, Power::ZERO, &config, None, 8, &mut rec)
            .0
            .unwrap();
        assert_eq!(observed.schedule, plain.schedule);
        assert_eq!(observed.nodes_explored, plain.nodes_explored);
        assert_eq!(observed.stats, plain.stats, "counters are observation-free");
        assert!(observed.stats.total_prunes() > 0, "a bounded search prunes");
        assert_eq!(observed.stats.nodes, observed.nodes_explored);

        let events = rec.into_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::SearchSample { .. })),
            "interval 8 must produce samples over {} nodes",
            observed.nodes_explored
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::IncumbentImproved { .. })),
            "the optimum was found, so the incumbent improved"
        );
        let last = events.last().expect("telemetry recorded");
        assert!(
            matches!(last, TraceEvent::SearchStatsRecorded { nodes, .. }
                     if *nodes == observed.nodes_explored),
            "final event must be the stats record, got {last:?}"
        );
    }

    #[test]
    fn observed_partitioned_trace_is_identical_across_worker_counts() {
        let mut g = parallel_tasks(&[4, 4, 2, 3], 3);
        g.precedence(TaskId::from_index(0), TaskId::from_index(1));
        let record = |workers: usize| {
            let mut rec = pas_obs::RecordingObserver::new();
            let (outcome, pool) = minimize_finish_time(
                &g,
                Power::from_watts(8),
                Power::ZERO,
                &OptimalConfig::default(),
                Some(workers),
                4,
                &mut rec,
            );
            let pulled: u64 = pool.workers.iter().map(|w| w.items).sum();
            (outcome.unwrap(), pulled, rec.into_events())
        };
        let (one, pulled_one, events_one) = record(1);
        assert!(!events_one.is_empty());
        for workers in [2, 4, 8] {
            let (got, pulled, events) = record(workers);
            assert_eq!(got.schedule, one.schedule, "workers={workers}");
            assert_eq!(got.stats, one.stats, "workers={workers}");
            assert_eq!(pulled, pulled_one, "every branch runs once");
            assert_eq!(
                events, events_one,
                "telemetry must be byte-identical at workers={workers}"
            );
        }
        // Per-branch budget slices sum to the stats total, one stats
        // record per branch.
        let branch_budgets: Vec<u64> = events_one
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SearchStatsRecorded { budget, .. } => Some(*budget),
                _ => None,
            })
            .collect();
        assert_eq!(branch_budgets.len() as u64, pulled_one);
        assert_eq!(branch_budgets.iter().sum::<u64>(), one.stats.budget);
    }

    #[test]
    fn exhausted_observed_search_still_records_stats() {
        let g = parallel_tasks(&[1, 1, 1, 1, 1, 1], 2);
        let mut rec = pas_obs::RecordingObserver::new();
        let (result, _) = minimize_finish_time(
            &g,
            Power::from_watts(2),
            Power::ZERO,
            &OptimalConfig {
                max_nodes: 10,
                horizon: None,
                use_lint_bounds: false,
                use_dominance: false,
            },
            None,
            0, // sampling off: the stats record must still appear
            &mut rec,
        );
        assert!(matches!(
            result,
            Err(ScheduleError::TimingSearchExhausted { .. })
        ));
        let events = rec.into_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::SearchStatsRecorded { pruned_budget, .. } if *pruned_budget > 0
            )),
            "budget exhaustion must be visible in the trace: {events:?}"
        );
    }

    /// The heuristic pipeline lands close to the exact optimum on the
    /// paper's 9-task example. (Measured: optimum 30 s, heuristic
    /// 35 s — a 16.7% makespan gap, the price of the paper's
    /// polynomial slack heuristics; recorded in EXPERIMENTS.md.)
    #[test]
    fn heuristic_optimality_gap_is_bounded_on_paper_example() {
        let (mut problem, _) = pas_core::example::paper_example();
        let heuristic = crate::PowerAwareScheduler::default()
            .schedule(&mut problem)
            .unwrap();
        let (fresh, _) = pas_core::example::paper_example();
        let best = minimize_finish_time(
            fresh.graph(),
            fresh.constraints().p_max(),
            fresh.background_power(),
            &OptimalConfig::default(),
            None,
            0,
            &mut NullObserver,
        )
        .0
        .unwrap();
        assert_eq!(best.finish_time, Time::from_secs(30), "exact optimum");
        let h = heuristic.analysis.finish_time.as_secs();
        let o = best.finish_time.as_secs();
        assert!(h >= o, "heuristic can never beat the optimum");
        assert!(
            (h - o) * 100 <= o * 25,
            "gap above 25%: heuristic {h}s vs optimal {o}s"
        );
    }

    /// On the rover (the paper's real workload) the heuristic *is*
    /// optimal: the worst-case budget admits no overlap at all, and
    /// the search confirms 75 s cannot be beaten.
    #[test]
    fn heuristic_is_optimal_on_the_worst_case_rover() {
        let rover = pas_rover_like_worst();
        let best = minimize_finish_time(
            rover.0.graph(),
            rover.0.constraints().p_max(),
            rover.0.background_power(),
            &OptimalConfig::default(),
            None,
            0,
            &mut NullObserver,
        )
        .0
        .unwrap();
        assert_eq!(best.finish_time, Time::from_secs(75));
    }

    /// A minimal stand-in mirroring the worst-case rover numbers
    /// (pas-sched cannot depend on pas-rover; the real cross-crate
    /// comparison lives in the integration suite).
    fn pas_rover_like_worst() -> (pas_core::Problem, ()) {
        use pas_core::{PowerConstraints, Problem};
        let mut g = ConstraintGraph::new();
        let heaters: Vec<_> = (0..5)
            .map(|i| g.add_resource(Resource::new(format!("h{i}"), ResourceKind::Thermal)))
            .collect();
        let steer_r = g.add_resource(Resource::new("steer", ResourceKind::Mechanical));
        let drive_r = g.add_resource(Resource::new("drive", ResourceKind::Mechanical));
        let hazard_r = g.add_resource(Resource::new("hazard", ResourceKind::Compute));
        let w = Power::from_watts_milli;
        let heats: Vec<_> = heaters
            .iter()
            .map(|&r| g.add_task(Task::new("heat", r, TimeSpan::from_secs(5), w(11_300))))
            .collect();
        let mk_step = |g: &mut ConstraintGraph| {
            let hz = g.add_task(Task::new("hz", hazard_r, TimeSpan::from_secs(10), w(7_300)));
            let st = g.add_task(Task::new("st", steer_r, TimeSpan::from_secs(5), w(8_100)));
            let dr = g.add_task(Task::new("dr", drive_r, TimeSpan::from_secs(10), w(13_800)));
            g.min_separation(hz, st, TimeSpan::from_secs(10));
            g.min_separation(st, dr, TimeSpan::from_secs(5));
            (hz, st, dr)
        };
        let s1 = mk_step(&mut g);
        let s2 = mk_step(&mut g);
        g.min_separation(s1.2, s2.0, TimeSpan::from_secs(10));
        for &h in &heats[..2] {
            g.min_separation(h, s1.1, TimeSpan::from_secs(5));
            g.max_separation(h, s1.1, TimeSpan::from_secs(50));
        }
        for &h in &heats[2..] {
            g.min_separation(h, s1.2, TimeSpan::from_secs(5));
            g.max_separation(h, s1.2, TimeSpan::from_secs(50));
        }
        let problem = Problem::with_background(
            "worst-rover",
            g,
            PowerConstraints::new(w(19_000), w(9_000)),
            w(3_700),
        );
        (problem, ())
    }

    /// Pins the interchangeable-task signature (`DESIGN.md` §15): two
    /// tasks are twins iff delay, power, resource, and the full
    /// weighted in/out precedence-edge lists all match; classes chain
    /// each member to its nearest smaller twin.
    #[test]
    fn interchangeable_signature_pins_twin_classes() {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("R0", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("R1", ResourceKind::Compute));
        let mk = |g: &mut ConstraintGraph, name: &str, r, d, w| {
            g.add_task(Task::new(
                name,
                r,
                TimeSpan::from_secs(d),
                Power::from_watts(w),
            ))
        };
        let a = mk(&mut g, "a", r0, 4, 5);
        let b = mk(&mut g, "b", r0, 4, 5); // twin of a
        let c = mk(&mut g, "c", r1, 4, 5); // different resource
        let d = mk(&mut g, "d", r0, 3, 5); // different delay
        let e = mk(&mut g, "e", r0, 4, 6); // different power
        let f = mk(&mut g, "f", r0, 4, 5); // same scalars, but edged
        let h = mk(&mut g, "h", r0, 4, 5); // third twin → chains to b
        g.precedence(c, f);

        let arena = SearchArena::build(&g, true);
        assert_eq!(arena.class_prev[a.index()], None, "class head");
        assert_eq!(arena.class_prev[b.index()], Some(a), "twin chains to a");
        assert_eq!(arena.class_prev[h.index()], Some(b), "nearest smaller twin");
        for (t, why) in [(c, "resource"), (d, "delay"), (e, "power"), (f, "edges")] {
            assert_eq!(
                arena.class_prev[t.index()],
                None,
                "{why} must break the class"
            );
        }

        // The off switch disables classification entirely.
        let off = SearchArena::build(&g, false);
        assert!(off.class_prev.iter().all(Option::is_none));
    }

    /// Dominance breaking must be a pure performance knob on a graph
    /// built to maximise symmetry: identical schedule and finish, a
    /// strictly smaller tree, and worker-count-invariant fan-out.
    #[test]
    fn dominance_skips_twins_and_preserves_the_optimum() {
        // Two resources, two interchangeable 5 W / 4 s tasks on each;
        // a 10 W budget lets the two resources run in parallel while
        // each twin pair serializes → optimum 8 s.
        let mut g = ConstraintGraph::new();
        for p in 0..2 {
            let r = g.add_resource(Resource::new(format!("R{p}"), ResourceKind::Compute));
            for k in 0..2 {
                g.add_task(Task::new(
                    format!("t{p}{k}"),
                    r,
                    TimeSpan::from_secs(4),
                    Power::from_watts(5),
                ));
            }
        }
        let p_max = Power::from_watts(10);
        let config = |dominance: bool| OptimalConfig {
            use_dominance: dominance,
            ..OptimalConfig::default()
        };
        let off = run(&g, p_max, &config(false), None).unwrap();
        let on = run(&g, p_max, &config(true), None).unwrap();
        assert_eq!(on.finish_time, Time::from_secs(8));
        assert_eq!(on.schedule, off.schedule, "bit-identical");
        assert_eq!(on.finish_time, off.finish_time);
        assert!(
            on.nodes_explored < off.nodes_explored,
            "symmetry breaking must cut nodes: {} vs {}",
            on.nodes_explored,
            off.nodes_explored
        );
        assert!(
            on.stats.pruned_dominance > 0,
            "symmetry skips must be counted: {:?}",
            on.stats
        );

        // The split search keeps worker-count invariance with the rule
        // on (the depth-0 frontier drops dominated twins for every
        // worker identically).
        let one = run(&g, p_max, &config(true), Some(1)).unwrap();
        assert_eq!(one.schedule, on.schedule);
        for workers in [2, 4, 8] {
            let got = run(&g, p_max, &config(true), Some(workers)).unwrap();
            assert_eq!(got.schedule, one.schedule, "workers={workers}");
            assert_eq!(got.nodes_explored, one.nodes_explored, "workers={workers}");
        }
    }
}
