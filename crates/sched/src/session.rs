//! Cross-request incremental scheduling sessions (DESIGN.md §16).
//!
//! A deployed scheduler sees the *same constraint graph* over and
//! over under shifting power envelopes — the request shape §5.3's
//! validity regions exist for. When a new envelope falls outside
//! every cached region the schedule must be recomputed, but the
//! longest-path structure of the graph has not changed at all. A
//! [`SessionContext`] keeps one [`IncrementalLongestPaths`] engine
//! alive across those requests, so the recomputation starts from a
//! journal-validated cache hit instead of a cold full SPFA per
//! attempt.
//!
//! Safety of the warmth is the engine's own contract. Every request
//! parses its own graph, a `ConstraintGraph` instance the engine has
//! not seen, so the warm-up's `refresh` validates the applied journal
//! prefix *by edge values* against it: a graph that only hashes equal
//! but differs structurally degrades to a full recomputation — never a
//! wrong distance. A match adopts the request graph's journal stamp
//! (DESIGN.md §10), so the per-attempt copies of the engine, which
//! refresh against that same graph, trust their prefix in O(1) from
//! then on. Longest-path distances are unique, so the warm and cold
//! paths compute identical schedules; the only observable difference
//! is the incremental trace events (`IncrementalCacheHit` instead of
//! a `full(init)` fallback).

use crate::context::refresh_event;
use pas_graph::incremental::{IncrementalLongestPaths, IncrementalStats};
use pas_graph::longest_path::PositiveCycle;
use pas_graph::{ConstraintGraph, NodeId};
use pas_obs::{Observer, StageKind};

/// A long-lived incremental engine shared by every request that
/// resolves to the same constraint graph.
///
/// Created once per server session (see `pas-server`'s region cache)
/// and passed to
/// [`PowerAwareScheduler::schedule_session_with`](crate::PowerAwareScheduler::schedule_session_with)
/// on each repertoire miss. The context stays pinned at the base
/// graph: the pipeline clones the engine into its per-attempt
/// `ScheduleContext`, so speculative search edges never leak back
/// into the session.
#[derive(Debug, Default)]
pub struct SessionContext {
    engine: Option<IncrementalLongestPaths>,
    serves: u64,
}

impl SessionContext {
    /// An empty session; the first serve pays one full computation.
    pub fn new() -> SessionContext {
        SessionContext::default()
    }

    /// Pipeline runs served through this session so far.
    pub fn serves(&self) -> u64 {
        self.serves
    }

    /// The engine's running refresh counters, if it has run at all.
    pub fn stats(&self) -> Option<IncrementalStats> {
        self.engine.as_ref().map(IncrementalLongestPaths::stats)
    }

    /// Brings the session engine up to date with `graph` (the
    /// request's base graph), emitting one MaxPower-stage incremental
    /// trace event describing how the warm-up was served, and returns
    /// a borrow of the warm engine for seeding the solver.
    ///
    /// # Errors
    /// The positive cycle making the constraints infeasible —
    /// identical to what the cold pipeline reports.
    pub(crate) fn warm_for(
        &mut self,
        graph: &ConstraintGraph,
        obs: &mut dyn Observer,
    ) -> Result<&IncrementalLongestPaths, PositiveCycle> {
        let engine = self
            .engine
            .get_or_insert_with(|| IncrementalLongestPaths::new(NodeId::ANCHOR));
        let outcome = engine.refresh(graph)?;
        if obs.is_enabled() {
            obs.on_event(&refresh_event(StageKind::MaxPower, outcome));
        }
        Ok(&*engine)
    }

    /// Counts one pipeline run served through this session.
    pub(crate) fn count_serve(&mut self) {
        self.serves += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_graph::units::{Power, TimeSpan};
    use pas_graph::{Resource, ResourceKind, Task};
    use pas_obs::{RecordingObserver, TraceEvent};

    fn two_task_graph() -> ConstraintGraph {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
        let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(2), Power::ZERO));
        let b = g.add_task(Task::new("b", r, TimeSpan::from_secs(3), Power::ZERO));
        g.precedence(a, b);
        g
    }

    #[test]
    fn second_warm_up_on_the_same_graph_is_a_cache_hit() {
        let g = two_task_graph();
        let mut session = SessionContext::new();
        let mut rec = RecordingObserver::new();
        session.warm_for(&g, &mut rec).unwrap();
        session.warm_for(&g, &mut rec).unwrap();
        let events = rec.into_events();
        assert!(matches!(events[0], TraceEvent::IncrementalFallback { .. }));
        assert!(matches!(events[1], TraceEvent::IncrementalCacheHit { .. }));
    }

    #[test]
    fn session_runs_are_bit_identical_to_the_cold_pipeline() {
        use pas_core::example::paper_example;
        use pas_obs::NullObserver;

        let sched = crate::PowerAwareScheduler::default();
        let (mut cold_problem, _) = paper_example();
        let cold = sched.schedule(&mut cold_problem).unwrap();

        let mut session = SessionContext::new();
        for _ in 0..3 {
            let (mut problem, _) = paper_example();
            let warm = sched
                .schedule_session_with(&mut problem, &mut session, &mut NullObserver)
                .unwrap();
            assert_eq!(warm.schedule, cold.schedule);
            assert_eq!(warm.analysis.peak_power, cold.analysis.peak_power);
        }
        assert_eq!(session.serves(), 3);
        // Serves 2 and 3 re-parse the same base graph, so their
        // warm-ups are journal-validated cache hits.
        assert!(session.stats().unwrap().cache_hits >= 2);
    }

    #[test]
    fn a_freshly_parsed_equal_graph_still_hits() {
        // The server re-parses every request, so the session engine
        // must stay warm across *distinct* ConstraintGraph values
        // with equal journals — the prefix check is by edge value,
        // not identity.
        let mut session = SessionContext::new();
        let mut rec = RecordingObserver::new();
        session.warm_for(&two_task_graph(), &mut rec).unwrap();
        session.warm_for(&two_task_graph(), &mut rec).unwrap();
        assert!(matches!(
            rec.into_events()[1],
            TraceEvent::IncrementalCacheHit { .. }
        ));
        assert_eq!(session.stats().unwrap().cache_hits, 1);
    }
}
