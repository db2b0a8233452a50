//! The incremental scheduling context (DESIGN.md §10).
//!
//! [`ScheduleContext`] is the scheduler-side handle to
//! [`pas_graph::IncrementalLongestPaths`]: it owns the cached anchor
//! distances, pairs every graph journal mark with a matching
//! longest-path checkpoint so backtracking restores the cache instead
//! of invalidating it, and emits the incremental-engine trace events
//! (`IncrementalCacheHit` / `IncrementalDelta` / `IncrementalFallback`)
//! on every refresh.
//!
//! When [`crate::SchedulerConfig::incremental`] is off the context
//! degrades to a thin wrapper over
//! [`single_source_longest_paths`] and plain [`ConstraintGraph::mark`]
//! / [`ConstraintGraph::undo_to`], so both paths run through the same
//! call sites and produce identical results — longest-path distances
//! are unique, so the delta engine cannot disagree with the oracle.

use pas_core::Schedule;
use pas_graph::incremental::{IncrementalLongestPaths, LpCheckpoint, Refresh};
use pas_graph::longest_path::{single_source_longest_paths, LongestPaths, PositiveCycle};
use pas_graph::units::Time;
use pas_graph::{ConstraintGraph, GraphMark, NodeId, TaskId};
use pas_obs::{Observer, StageKind, TraceEvent};

/// Cached scheduling state threaded through one solver invocation.
///
/// Holds the incremental longest-path engine (when enabled) and the
/// [`StageKind`] its trace events are attributed to. Lives for one
/// timing search or one max-power attempt; the max-power scheduler
/// shares a single context across its internal timing re-runs so the
/// release/lock edges it adds between runs are absorbed as deltas
/// instead of full recomputations.
#[derive(Debug)]
pub(crate) struct ScheduleContext {
    inc: Option<IncrementalLongestPaths>,
    stage: StageKind,
}

/// The anchor distances of the current graph: read in place from the
/// incremental engine, or computed afresh by the oracle.
pub(crate) enum Distances<'a> {
    Engine(&'a IncrementalLongestPaths),
    Oracle(LongestPaths),
}

impl Distances<'_> {
    /// Earliest start time of `task`.
    pub(crate) fn start_time(&self, task: TaskId) -> Time {
        match self {
            Distances::Engine(inc) => inc.start_time(task),
            Distances::Oracle(lp) => lp.start_time(task),
        }
    }

    /// The ASAP schedule these distances describe (`σ(c) := L(c)`).
    pub(crate) fn schedule(&self, graph: &ConstraintGraph) -> Schedule {
        Schedule::from_starts(graph.task_ids().map(|t| self.start_time(t)).collect())
    }
}

/// A paired rollback point: the graph journal mark plus the matching
/// longest-path checkpoint. Restore both through
/// [`ScheduleContext::undo_to`] — undoing the graph without restoring
/// the checkpoint is safe (the engine detects the shrunken journal and
/// falls back to a full recomputation) but forfeits the cache.
#[derive(Debug)]
pub(crate) struct CtxMark {
    graph: GraphMark,
    lp: Option<LpCheckpoint>,
}

impl ScheduleContext {
    /// Creates a context; `incremental` selects the delta engine,
    /// `stage` tags the emitted trace events.
    pub(crate) fn new(incremental: bool, stage: StageKind) -> Self {
        ScheduleContext {
            inc: incremental.then(|| IncrementalLongestPaths::new(NodeId::ANCHOR)),
            stage,
        }
    }

    /// Creates a context seeded with an already-warm engine (a
    /// cross-request session's cached distances). The engine's
    /// journal-prefix validation makes the seed best-effort: if the
    /// live graph diverges from what the engine saw, the first
    /// refresh falls back to a full recomputation, so a stale seed
    /// costs exactly one `Full` — never a wrong distance.
    pub(crate) fn with_engine(engine: IncrementalLongestPaths, stage: StageKind) -> Self {
        ScheduleContext {
            inc: Some(engine),
            stage,
        }
    }

    /// Brings the cached distances up to date with `graph`, emitting
    /// one trace event describing how the refresh was served.
    fn refresh<O: Observer>(
        &mut self,
        graph: &ConstraintGraph,
        obs: &mut O,
    ) -> Result<(), PositiveCycle> {
        let inc = self
            .inc
            .as_mut()
            .expect("refresh is only called on the incremental path");
        let outcome = inc.refresh(graph)?;
        if obs.is_enabled() {
            obs.on_event(&refresh_event(self.stage, outcome));
        }
        Ok(())
    }

    /// Whether the current constraint graph is feasible (no positive
    /// cycle reachable from the anchor).
    ///
    /// The engine's verdict-only refresh serves it: a serialization
    /// that closes a cycle is proven infeasible from the relaxation's
    /// parent pointers, without the full solve and the cycle
    /// extraction that [`Self::distances`] runs. Like an infeasible
    /// `distances`, an infeasible verdict emits no event.
    pub(crate) fn feasible<O: Observer>(&mut self, graph: &ConstraintGraph, obs: &mut O) -> bool {
        match self.inc.as_mut() {
            Some(inc) => match inc.refresh_verdict(graph) {
                Some(outcome) => {
                    if obs.is_enabled() {
                        obs.on_event(&refresh_event(self.stage, outcome));
                    }
                    true
                }
                None => false,
            },
            None => single_source_longest_paths(graph, NodeId::ANCHOR).is_ok(),
        }
    }

    /// The anchor distances for the current graph, without copying
    /// the engine's.
    ///
    /// # Errors
    /// The positive cycle making the constraints infeasible.
    pub(crate) fn distances<O: Observer>(
        &mut self,
        graph: &ConstraintGraph,
        obs: &mut O,
    ) -> Result<Distances<'_>, PositiveCycle> {
        match self.inc {
            Some(_) => {
                self.refresh(graph, obs)?;
                Ok(Distances::Engine(self.inc.as_ref().expect("checked above")))
            }
            None => single_source_longest_paths(graph, NodeId::ANCHOR).map(Distances::Oracle),
        }
    }

    /// Checkpoints the graph journal and the cached distances, in O(1).
    pub(crate) fn mark(&mut self, graph: &ConstraintGraph) -> CtxMark {
        CtxMark {
            graph: graph.mark(),
            lp: self.inc.as_mut().map(IncrementalLongestPaths::checkpoint),
        }
    }

    /// Rolls the graph *and* the cached distances back to `mark`.
    /// Marks follow the same LIFO discipline as
    /// [`ConstraintGraph::undo_to`].
    pub(crate) fn undo_to(&mut self, graph: &mut ConstraintGraph, mark: &CtxMark) {
        graph.undo_to(mark.graph);
        if let (Some(inc), Some(cp)) = (self.inc.as_mut(), mark.lp.as_ref()) {
            inc.restore(cp);
        }
    }
}

/// The trace event recording how a successful refresh was served,
/// attributed to `stage`.
pub(crate) fn refresh_event(stage: StageKind, outcome: Refresh) -> TraceEvent {
    match outcome {
        Refresh::CacheHit => TraceEvent::IncrementalCacheHit { stage },
        Refresh::Delta {
            new_edges,
            relaxations,
        } => TraceEvent::IncrementalDelta {
            stage,
            edges: new_edges as u64,
            relaxations,
        },
        Refresh::Full(reason) => TraceEvent::IncrementalFallback {
            stage,
            reason: reason.as_str().to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_graph::units::{Power, TimeSpan};
    use pas_graph::{Resource, ResourceKind, Task};
    use pas_obs::{NullObserver, RecordingObserver};

    fn chain(n: usize) -> ConstraintGraph {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let ids: Vec<_> = (0..n)
            .map(|i| {
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(2),
                    Power::ZERO,
                ))
            })
            .collect();
        for w in ids.windows(2) {
            g.precedence(w[0], w[1]);
        }
        g
    }

    #[test]
    fn incremental_and_full_agree_through_mark_undo_cycles() {
        let mut g = chain(5);
        let mut inc = ScheduleContext::new(true, StageKind::Timing);
        let mut full = ScheduleContext::new(false, StageKind::Timing);
        let mut obs = NullObserver;

        let a = inc.distances(&g, &mut obs).unwrap().schedule(&g);
        let b = full.distances(&g, &mut obs).unwrap().schedule(&g);
        assert_eq!(a, b);

        let mark = inc.mark(&g);
        let ids: Vec<_> = g.task_ids().collect();
        g.min_separation(ids[0], ids[4], TimeSpan::from_secs(30));
        let a = inc.distances(&g, &mut obs).unwrap().schedule(&g);
        let b = full.distances(&g, &mut obs).unwrap().schedule(&g);
        assert_eq!(a, b);

        inc.undo_to(&mut g, &mark);
        let a = inc.distances(&g, &mut obs).unwrap().schedule(&g);
        let b = full.distances(&g, &mut obs).unwrap().schedule(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn refreshes_emit_stage_tagged_events() {
        let mut g = chain(3);
        let mut ctx = ScheduleContext::new(true, StageKind::MaxPower);
        let mut rec = RecordingObserver::new();
        ctx.distances(&g, &mut rec).unwrap(); // full (init)
        ctx.distances(&g, &mut rec).unwrap(); // cache hit
        let ids: Vec<_> = g.task_ids().collect();
        g.min_separation(ids[0], ids[2], TimeSpan::from_secs(9));
        ctx.distances(&g, &mut rec).unwrap(); // delta
        let events: Vec<_> = rec.into_events();
        assert!(matches!(
            events[0],
            TraceEvent::IncrementalFallback {
                stage: StageKind::MaxPower,
                ..
            }
        ));
        assert!(matches!(
            events[1],
            TraceEvent::IncrementalCacheHit {
                stage: StageKind::MaxPower
            }
        ));
        assert!(matches!(
            events[2],
            TraceEvent::IncrementalDelta {
                stage: StageKind::MaxPower,
                ..
            }
        ));
    }

    #[test]
    fn non_incremental_context_emits_nothing() {
        let g = chain(3);
        let mut ctx = ScheduleContext::new(false, StageKind::Timing);
        let mut rec = RecordingObserver::new();
        assert!(ctx.feasible(&g, &mut rec));
        ctx.distances(&g, &mut rec).unwrap();
        assert!(rec.is_empty());
    }
}
