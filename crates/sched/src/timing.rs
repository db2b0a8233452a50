//! The timing scheduler (Fig. 3 of the paper).
//!
//! Finds a time-valid schedule by exploring topological orderings of
//! the constraint graph: tasks are *committed* one at a time; when a
//! task `c` is committed, serialization edges `c → u` (weight `d(c)`)
//! are added toward every uncommitted task `u` sharing `c`'s resource,
//! exactly as the paper's "serialize u after c". If the resulting
//! graph develops a positive cycle the branch is abandoned, the edges
//! are undone through the graph journal, and another topological
//! ordering is attempted. Start times are the anchor longest-path
//! distances (`σ(c) := L(c)`), i.e. the ASAP schedule for the chosen
//! serialization.
//!
//! The search is complete up to the configured backtrack budget: it
//! will traverse all topological orderings before reporting failure,
//! so it always finds a time-valid schedule if one exists (and the
//! budget allows).

use crate::config::{CommitOrder, SchedulerConfig, SchedulerStats};
use crate::context::{CtxMark, ScheduleContext};
use crate::error::ScheduleError;
use crate::telemetry::{SearchStats, SEARCH_SAMPLE_INTERVAL};
use pas_core::Schedule;
use pas_graph::csr::{CsrAdjacency, FixedBitset};
use pas_graph::{ConstraintGraph, TaskId};
use pas_obs::{CountingObserver, Observer, StageKind, TraceEvent};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs the timing scheduler on `graph`, adding serialization edges
/// for every resource conflict. On success the added edges remain in
/// the graph (later stages rely on them); on failure the graph is
/// restored to its input state.
///
/// # Errors
/// * [`ScheduleError::Infeasible`] when the original constraints
///   contain a positive cycle (no ordering can help);
/// * [`ScheduleError::TimingSearchExhausted`] when the backtrack
///   budget runs out.
///
/// # Examples
/// ```
/// use pas_graph::units::{Power, TimeSpan};
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
/// use pas_sched::{schedule_timing, SchedulerConfig, SchedulerStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = ConstraintGraph::new();
/// let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(3), Power::ZERO));
/// let b = g.add_task(Task::new("b", r, TimeSpan::from_secs(2), Power::ZERO));
/// let mut stats = SchedulerStats::default();
/// let sigma = schedule_timing(&mut g, &SchedulerConfig::default(), &mut stats)?;
/// // Same resource ⇒ serialized, not overlapped.
/// assert!(pas_core::is_time_valid(&g, &sigma));
/// # Ok(())
/// # }
/// ```
pub fn schedule_timing(
    graph: &mut ConstraintGraph,
    config: &SchedulerConfig,
    stats: &mut SchedulerStats,
) -> Result<Schedule, ScheduleError> {
    let mut counter = CountingObserver::new();
    let result = schedule_timing_observed(graph, config, &mut counter);
    *stats += SchedulerStats::from(counter.counts());
    result
}

/// [`schedule_timing`] with a caller-supplied [`Observer`] receiving a
/// [`TraceEvent`] for every commit, serialization edge and backtrack.
///
/// The counters previously threaded through `SchedulerStats` are a
/// projection of this event stream; pass a
/// [`CountingObserver`] and convert its counts to recover them.
/// Passing [`pas_obs::NullObserver`] compiles the tracing away
/// entirely.
///
/// # Errors
/// See [`schedule_timing`].
pub fn schedule_timing_observed<O: Observer>(
    graph: &mut ConstraintGraph,
    config: &SchedulerConfig,
    obs: &mut O,
) -> Result<Schedule, ScheduleError> {
    let mut ctx = ScheduleContext::new(config.incremental, StageKind::Timing);
    schedule_timing_ctx(graph, config, &mut ctx, obs)
}

/// [`schedule_timing_observed`] against a caller-owned
/// [`ScheduleContext`]: the max-power scheduler threads one context
/// through all its internal timing re-runs so the release/lock edges
/// added between runs are absorbed as longest-path deltas instead of
/// full recomputations.
pub(crate) fn schedule_timing_ctx<O: Observer>(
    graph: &mut ConstraintGraph,
    config: &SchedulerConfig,
    ctx: &mut ScheduleContext,
    obs: &mut O,
) -> Result<Schedule, ScheduleError> {
    // Fail fast (and distinguish "inherently infeasible" from "no
    // ordering found"): the original constraints must be satisfiable.
    if let Err(cycle) = ctx.distances(graph, obs) {
        return Err(ScheduleError::Infeasible(cycle));
    }

    let outer_mark = ctx.mark(graph);
    let mut topo = TopoState::build(graph);
    let mut budget = config.max_backtracks;
    let mut rng = match config.commit_order {
        CommitOrder::EarliestFirst | CommitOrder::Rotated(_) => None,
        CommitOrder::Random => Some(StdRng::seed_from_u64(config.seed ^ 0x7091_0C4D)),
    };
    let rotation = match config.commit_order {
        CommitOrder::Rotated(k) => k,
        _ => 0,
    };
    let mut meter = TimingMeter {
        stats: SearchStats {
            budget: config.max_backtracks as u64,
            ..SearchStats::default()
        },
        sample_every: if obs.is_enabled() {
            SEARCH_SAMPLE_INTERVAL
        } else {
            0
        },
    };
    let outcome = commit_all(
        graph,
        ctx,
        &mut topo,
        &mut budget,
        rotation,
        &mut rng,
        &mut meter,
        obs,
    );
    match outcome {
        CommitOutcome::Done => {
            let schedule = ctx
                .distances(graph, obs)
                .expect("final serialization was checked feasible")
                .schedule(graph);
            meter.stats.incumbent_improvements = 1;
            if obs.is_enabled() {
                obs.on_event(&TraceEvent::IncumbentImproved {
                    worker: 0,
                    nodes: meter.stats.nodes,
                    finish: schedule.finish_time(graph),
                });
            }
            meter.stats.emit(0, obs);
            Ok(schedule)
        }
        CommitOutcome::Dead | CommitOutcome::OutOfBudget => {
            ctx.undo_to(graph, &outer_mark);
            meter.stats.emit(0, obs);
            Err(ScheduleError::TimingSearchExhausted {
                backtracks: config.max_backtracks,
            })
        }
    }
}

enum CommitOutcome {
    Done,
    Dead,
    OutOfBudget,
}

/// Incrementally-maintained topological search state (`DESIGN.md`
/// §15): a CSR snapshot of the constraint graph taken at search entry,
/// per-task counts of uncommitted precedence predecessors, and the
/// ready frontier as a bitset. Replaces the per-node all-task
/// `frontier()` rescan with O(out-degree) commit/uncommit maintenance.
///
/// The snapshot is equivalent to the legacy live-graph frontier scan:
/// every precedence edge present at entry (including release/lock/
/// serialization edges added by earlier max-power recursions) is
/// counted, while serialization edges added *during* this run never
/// affect frontier membership — their source is the task just
/// committed, and committed-source edges do not block (`DESIGN.md`
/// §15). Both iterations are in ascending task-id order, so candidate
/// order — and therefore the schedule — is bit-identical.
struct TopoState {
    csr: CsrAdjacency,
    committed: Vec<bool>,
    /// Number of precedence in-edges (in the snapshot) whose task
    /// source is still uncommitted; counted per edge occurrence.
    pending: Vec<u32>,
    /// Uncommitted tasks with `pending == 0`, in ascending id order.
    ready: FixedBitset,
}

impl TopoState {
    fn build(graph: &ConstraintGraph) -> TopoState {
        let n = graph.num_tasks();
        let csr = CsrAdjacency::build(graph);
        let committed = vec![false; n];
        let mut pending = vec![0u32; n];
        for t in graph.task_ids() {
            for e in csr.in_edges(t.node()) {
                if e.is_precedence() && e.other.task().is_some() {
                    pending[t.index()] += 1;
                }
            }
        }
        let mut ready = FixedBitset::new(n);
        for (i, &p) in pending.iter().enumerate() {
            if p == 0 {
                ready.insert(i);
            }
        }
        TopoState {
            csr,
            committed,
            pending,
            ready,
        }
    }

    /// The ready frontier, ascending by task id — exactly the legacy
    /// `frontier()` output order.
    fn frontier(&self) -> Vec<TaskId> {
        self.ready.ones().map(TaskId::from_index).collect()
    }

    fn commit(&mut self, c: TaskId) {
        self.committed[c.index()] = true;
        self.ready.remove(c.index());
        for e in self.csr.out_edges(c.node()) {
            if !e.is_precedence() {
                continue;
            }
            let Some(w) = e.other.task() else { continue };
            let p = &mut self.pending[w.index()];
            *p -= 1;
            if *p == 0 && !self.committed[w.index()] {
                self.ready.insert(w.index());
            }
        }
    }

    /// Exact inverse of [`TopoState::commit`].
    fn uncommit(&mut self, c: TaskId) {
        for e in self.csr.out_edges(c.node()) {
            if !e.is_precedence() {
                continue;
            }
            let Some(w) = e.other.task() else { continue };
            let p = &mut self.pending[w.index()];
            if *p == 0 {
                self.ready.remove(w.index());
            }
            *p += 1;
        }
        self.committed[c.index()] = false;
        // c was ready when committed (it came off the frontier) and
        // its own predecessors have not changed.
        self.ready.insert(c.index());
    }
}

/// Branch-free search counters for one timing-scheduler run plus the
/// deterministic sampling rule (`SearchSample` every
/// [`SEARCH_SAMPLE_INTERVAL`] commits — commit-count-triggered, never
/// wall-clock, so traces stay byte-identical across thread counts).
/// For this search `nodes` counts task commits, `pruned_dominance`
/// counts serializations abandoned as infeasible, and `budget` is the
/// backtrack budget (its utilization is tracked by `TopoBacktrack`
/// events, not `nodes`).
struct TimingMeter {
    stats: SearchStats,
    sample_every: u64,
}

/// One level of the search: its ordered candidate frontier, the next
/// candidate to try, and the candidate it has committed together with
/// the rollback point taken just before.
struct Frame {
    candidates: Vec<TaskId>,
    next: usize,
    committed: Option<(TaskId, CtxMark)>,
}

/// Commits tasks in every feasible topological order until all are
/// committed ("a time-valid schedule is returned when all vertices are
/// scheduled"): a depth-first search over an explicit stack of
/// [`Frame`]s, one per committed task, so the native stack stays flat
/// whatever the task count.
#[allow(clippy::too_many_arguments)]
fn commit_all<O: Observer>(
    graph: &mut ConstraintGraph,
    ctx: &mut ScheduleContext,
    topo: &mut TopoState,
    budget: &mut usize,
    rotation: usize,
    rng: &mut Option<StdRng>,
    meter: &mut TimingMeter,
    obs: &mut O,
) -> CommitOutcome {
    let mut frames: Vec<Frame> = Vec::new();
    loop {
        // Enter the level below every committed task.
        let num_committed = frames.len();
        if num_committed == graph.num_tasks() {
            return CommitOutcome::Done;
        }

        // Current longest paths order the candidate frontier (earliest
        // ASAP time first — the most natural topological ordering to
        // try). A level whose constraints are infeasible is dead on
        // entry: its parent backtracks below.
        if let Ok(dist) = ctx.distances(graph, obs) {
            let mut candidates: Vec<TaskId> = topo.frontier();
            match rng {
                None => {
                    candidates.sort_by_key(|&t| (dist.start_time(t), t));
                    if rotation > 0 && candidates.len() > 1 {
                        // Deterministic Fisher–Yates driven by a
                        // SplitMix64 stream keyed on (variation, depth):
                        // different variation indices explore
                        // systematically different serializations
                        // regardless of any RNG implementation.
                        let mut state = (rotation as u64) ^ ((num_committed as u64) << 32);
                        for i in (1..candidates.len()).rev() {
                            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                            let j = (splitmix64(state) % (i as u64 + 1)) as usize;
                            candidates.swap(i, j);
                        }
                    }
                }
                Some(rng) => candidates.shuffle(rng),
            }
            frames.push(Frame {
                candidates,
                next: 0,
                committed: None,
            });
        }

        // Backtrack the top level's committed task, if any, and commit
        // its next candidate; stop at the first feasible one and
        // descend. An exhausted level is dead: pop it and backtrack its
        // parent's task.
        loop {
            let depth = frames.len() as u32;
            let Some(frame) = frames.last_mut() else {
                return CommitOutcome::Dead;
            };
            if let Some((c, mark)) = frame.committed.take() {
                topo.uncommit(c);
                ctx.undo_to(graph, &mark);
                if obs.is_enabled() {
                    obs.on_event(&TraceEvent::TopoBacktrack { task: c });
                }
                *budget = budget.saturating_sub(1);
            }
            let Some(&c) = frame.candidates.get(frame.next) else {
                frames.pop();
                continue;
            };
            frame.next += 1;
            if *budget == 0 {
                meter.stats.pruned_budget += 1;
                return CommitOutcome::OutOfBudget;
            }
            let mark = ctx.mark(graph);
            topo.commit(c);
            meter.stats.nodes += 1;
            if depth > meter.stats.max_depth {
                meter.stats.max_depth = depth;
            }
            if obs.is_enabled() {
                obs.on_event(&TraceEvent::TaskCommitted { task: c });
                if meter.sample_every != 0 && meter.stats.nodes % meter.sample_every == 0 {
                    obs.on_event(&TraceEvent::SearchSample {
                        worker: 0,
                        nodes: meter.stats.nodes,
                        depth,
                        best: -1, // the timing search has no incumbent
                    });
                }
            }

            // Serialize every uncommitted same-resource task after c,
            // in ascending id order.
            let peers: Vec<TaskId> = graph
                .tasks_on(graph.task(c).resource())
                .filter(|&u| u != c && !topo.committed[u.index()])
                .collect();
            for u in peers {
                graph.serialize_after(c, u);
                if obs.is_enabled() {
                    obs.on_event(&TraceEvent::SerializationAdded {
                        committed: c,
                        serialized: u,
                    });
                }
            }
            frame.committed = Some((c, mark));

            // Feasibility check before descending saves exploring the
            // whole subtree of an already-dead serialization.
            if ctx.feasible(graph, obs) {
                break;
            }
            meter.stats.pruned_dominance += 1;
        }
    }
}

/// Fixed 64-bit mix (SplitMix64 finalizer) — used for the
/// [`CommitOrder::Rotated`] diversification so diversified runs do not
/// depend on any RNG crate's stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::{is_time_valid, slacks};
    use pas_graph::units::{Power, TimeSpan};
    use pas_graph::{Resource, ResourceKind, Task};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    fn run(graph: &mut ConstraintGraph) -> Result<Schedule, ScheduleError> {
        let mut stats = SchedulerStats::default();
        schedule_timing(graph, &cfg(), &mut stats)
    }

    #[test]
    fn independent_tasks_on_distinct_resources_start_at_zero() {
        let mut g = ConstraintGraph::new();
        for i in 0..3 {
            let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
            g.add_task(Task::new(
                format!("t{i}"),
                r,
                TimeSpan::from_secs(4),
                Power::ZERO,
            ));
        }
        let s = run(&mut g).unwrap();
        for (_, start) in s.iter() {
            assert_eq!(start.as_secs(), 0);
        }
    }

    #[test]
    fn shared_resource_tasks_are_serialized() {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let ids: Vec<_> = (0..4)
            .map(|i| {
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(2),
                    Power::ZERO,
                ))
            })
            .collect();
        let s = run(&mut g).unwrap();
        assert!(is_time_valid(&g, &s));
        let mut starts: Vec<_> = ids.iter().map(|&t| s.start(t).as_secs()).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 2, 4, 6], "back-to-back serialization");
    }

    #[test]
    fn serialization_respects_max_separation_windows() {
        // Two same-resource tasks; w must run within 4 s of u's start,
        // u takes 6 s — so w must go FIRST. The naive earliest-first
        // ordering tries u first and must backtrack.
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let pre = g.add_resource(Resource::new("P", ResourceKind::Compute));
        let p = g.add_task(Task::new("p", pre, TimeSpan::from_secs(1), Power::ZERO));
        let u = g.add_task(Task::new("u", r, TimeSpan::from_secs(6), Power::ZERO));
        let w = g.add_task(Task::new("w", r, TimeSpan::from_secs(2), Power::ZERO));
        // Anchor-ish ordering bait: u released at 0, w after p.
        g.precedence(p, w);
        // w at most 4 s after u's start… wait, that forces w before u
        // cannot hold since w ≥ 1. Give the window from p instead:
        g.max_separation(p, w, TimeSpan::from_secs(4));
        let mut stats = SchedulerStats::default();
        let s = schedule_timing(&mut g, &cfg(), &mut stats).unwrap();
        assert!(is_time_valid(&g, &s));
        // The window p ≤ w ≤ p+4 holds whichever serialization won
        // (the scheduler may float p later to keep w after u).
        assert!((s.start(w) - s.start(p)).as_secs() <= 4);
        assert!(s.start(w) >= s.start(p) + TimeSpan::from_secs(1));
        let _ = u;
    }

    #[test]
    fn infeasible_original_constraints_reported() {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        let a = g.add_task(Task::new("a", r0, TimeSpan::from_secs(5), Power::ZERO));
        let b = g.add_task(Task::new("b", r1, TimeSpan::from_secs(5), Power::ZERO));
        g.min_separation(a, b, TimeSpan::from_secs(10));
        g.max_separation(a, b, TimeSpan::from_secs(8));
        match run(&mut g) {
            Err(ScheduleError::Infeasible(_)) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn graph_restored_on_failure() {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let a = g.add_task(Task::new("a", r0, TimeSpan::from_secs(5), Power::ZERO));
        let b = g.add_task(Task::new("b", r0, TimeSpan::from_secs(5), Power::ZERO));
        // Both must start within 2 s of each other but share a 5 s
        // resource: every serialization cycles.
        g.max_separation(a, b, TimeSpan::from_secs(2));
        g.max_separation(b, a, TimeSpan::from_secs(2));
        let edges_before = g.num_edges();
        let result = run(&mut g);
        assert!(result.is_err());
        assert_eq!(g.num_edges(), edges_before, "journal must be rolled back");
    }

    #[test]
    fn backtracking_finds_the_feasible_ordering() {
        // Same-resource pair where the "natural" (ASAP) first choice
        // is infeasible: b must finish before a window on c closes.
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let rc = g.add_resource(Resource::new("C", ResourceKind::Compute));
        let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(8), Power::ZERO));
        let b = g.add_task(Task::new("b", r, TimeSpan::from_secs(2), Power::ZERO));
        let c = g.add_task(Task::new("c", rc, TimeSpan::from_secs(1), Power::ZERO));
        g.precedence(b, c); // c after b
        g.max_separation(c, a, TimeSpan::from_secs(100)); // harmless window
        g.max_separation(b, c, TimeSpan::from_secs(3)); // c close to b
                                                        // c must start ≤ 3 s after b; if a (8 s) runs first on R, b
                                                        // starts at 8 — fine actually. Force b early instead:
        g.max_separation(a, b, TimeSpan::from_secs(4)); // b ≤ a+4 → b can't wait for a
        let mut stats = SchedulerStats::default();
        let s = schedule_timing(&mut g, &cfg(), &mut stats).unwrap();
        assert!(is_time_valid(&g, &s));
        assert!(s.start(b) < s.start(a), "b must be serialized first");
        assert!(stats.timing_backtracks > 0, "first ordering had to fail");
    }

    #[test]
    fn schedule_is_asap_for_chosen_order() {
        // Every task has non-negative slack and at least one is tight.
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        for i in 0..3 {
            g.add_task(Task::new(
                format!("t{i}"),
                r,
                TimeSpan::from_secs(2),
                Power::ZERO,
            ));
        }
        let s = run(&mut g).unwrap();
        let sl = slacks(&g, &s);
        assert!(sl.iter().all(|d| !d.is_negative()));
    }

    #[test]
    fn observed_variant_matches_wrapper_and_null_observer() {
        let mk = || {
            let mut g = ConstraintGraph::new();
            let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
            for i in 0..4 {
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(2),
                    Power::ZERO,
                ));
            }
            g
        };
        let mut g1 = mk();
        let mut stats = SchedulerStats::default();
        let s1 = schedule_timing(&mut g1, &cfg(), &mut stats).unwrap();

        let mut g2 = mk();
        let mut counter = pas_obs::CountingObserver::new();
        let s2 = schedule_timing_observed(&mut g2, &cfg(), &mut counter).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(stats, SchedulerStats::from(counter.counts()));

        let mut g3 = mk();
        let s3 = schedule_timing_observed(&mut g3, &cfg(), &mut pas_obs::NullObserver).unwrap();
        assert_eq!(s1, s3, "observation must not perturb the schedule");
    }

    #[test]
    fn stats_count_serializations() {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        for i in 0..3 {
            g.add_task(Task::new(
                format!("t{i}"),
                r,
                TimeSpan::from_secs(1),
                Power::ZERO,
            ));
        }
        let mut stats = SchedulerStats::default();
        schedule_timing(&mut g, &cfg(), &mut stats).unwrap();
        // 3 tasks on one resource: 2 + 1 serialization edges.
        assert_eq!(stats.serializations, 3);
    }
}
