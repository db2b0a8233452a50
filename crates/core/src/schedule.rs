//! Schedules: start-time assignments `σ(v)`.

use pas_graph::units::{Time, TimeSpan};
use pas_graph::{ConstraintGraph, LongestPaths, TaskId};

/// A schedule `σ` assigning a start time to every task of a constraint
/// graph (§4.1). The schedule stores only start times; durations and
/// powers come from the graph it was computed for.
///
/// # Examples
/// ```
/// use pas_core::Schedule;
/// use pas_graph::units::{Power, Time, TimeSpan};
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
///
/// let mut g = ConstraintGraph::new();
/// let r = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(4), Power::from_watts(1)));
/// let sigma = Schedule::from_starts(vec![Time::from_secs(2)]);
/// assert_eq!(sigma.start(a), Time::from_secs(2));
/// assert_eq!(sigma.end(a, &g), Time::from_secs(6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schedule {
    starts: Vec<Time>,
}

impl Schedule {
    /// Builds a schedule from explicit start times, indexed by
    /// [`TaskId`] order.
    pub fn from_starts(starts: Vec<Time>) -> Self {
        Schedule { starts }
    }

    /// Builds the ASAP schedule from anchor longest-path distances
    /// (`σ(c) := L(c)`, Fig. 3).
    ///
    /// # Panics
    /// Panics if `paths` lacks a distance for some task of `graph`.
    pub fn from_longest_paths(graph: &ConstraintGraph, paths: &LongestPaths) -> Self {
        let starts = graph.task_ids().map(|t| paths.start_time(t)).collect();
        Schedule { starts }
    }

    /// Number of scheduled tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when the schedule contains no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Start time `σ(v)`.
    ///
    /// # Panics
    /// Panics if `task` is out of range for this schedule.
    #[inline]
    pub fn start(&self, task: TaskId) -> Time {
        self.starts[task.index()]
    }

    /// Completion time `σ(v) + d(v)`.
    ///
    /// # Panics
    /// Panics if `task` is out of range for this schedule or `graph`.
    #[inline]
    pub fn end(&self, task: TaskId, graph: &ConstraintGraph) -> Time {
        self.start(task) + graph.task(task).delay()
    }

    /// The finish time `τ_σ`: when the last task completes, or
    /// `Time::ZERO` for an empty schedule.
    pub fn finish_time(&self, graph: &ConstraintGraph) -> Time {
        graph
            .task_ids()
            .map(|t| self.end(t, graph))
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// `true` when `task` is executing at instant `t`
    /// (`σ(v) ≤ t < σ(v)+d(v)`).
    pub fn is_active_at(&self, task: TaskId, t: Time, graph: &ConstraintGraph) -> bool {
        self.start(task) <= t && t < self.end(task, graph)
    }

    /// All tasks executing at instant `t`, in [`TaskId`] order.
    pub fn active_tasks_at(&self, t: Time, graph: &ConstraintGraph) -> Vec<TaskId> {
        graph
            .task_ids()
            .filter(|&v| self.is_active_at(v, t, graph))
            .collect()
    }

    /// Iterates `(task, start)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, Time)> + '_ {
        self.starts
            .iter()
            .enumerate()
            .map(|(i, &s)| (TaskId::from_index(i), s))
    }

    /// Returns a copy with `task` delayed by `delta` (other tasks
    /// unchanged). The caller is responsible for re-validating.
    ///
    /// # Panics
    /// Panics if `task` is out of range.
    pub fn with_delayed(&self, task: TaskId, delta: TimeSpan) -> Schedule {
        let mut starts = self.starts.clone();
        starts[task.index()] = starts[task.index()] + delta;
        Schedule { starts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_graph::units::Power;
    use pas_graph::{Resource, ResourceKind, Task};

    fn two_task_graph() -> (ConstraintGraph, TaskId, TaskId) {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        let a = g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(5),
            Power::from_watts(2),
        ));
        let b = g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(10),
            Power::from_watts(3),
        ));
        (g, a, b)
    }

    #[test]
    fn starts_ends_and_finish() {
        let (g, a, b) = two_task_graph();
        let s = Schedule::from_starts(vec![Time::from_secs(0), Time::from_secs(3)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.end(a, &g), Time::from_secs(5));
        assert_eq!(s.end(b, &g), Time::from_secs(13));
        assert_eq!(s.finish_time(&g), Time::from_secs(13));
    }

    #[test]
    fn activity_queries() {
        let (g, a, b) = two_task_graph();
        let s = Schedule::from_starts(vec![Time::from_secs(0), Time::from_secs(3)]);
        assert!(s.is_active_at(a, Time::from_secs(0), &g));
        assert!(s.is_active_at(a, Time::from_secs(4), &g));
        assert!(
            !s.is_active_at(a, Time::from_secs(5), &g),
            "end is exclusive"
        );
        assert_eq!(s.active_tasks_at(Time::from_secs(4), &g), vec![a, b]);
        assert_eq!(s.active_tasks_at(Time::from_secs(8), &g), vec![b]);
    }

    #[test]
    fn from_longest_paths_matches_asap() {
        let (mut g, a, b) = two_task_graph();
        g.precedence(a, b);
        let lp =
            pas_graph::longest_path::single_source_longest_paths(&g, pas_graph::NodeId::ANCHOR)
                .unwrap();
        let s = Schedule::from_longest_paths(&g, &lp);
        assert_eq!(s.start(a), Time::from_secs(0));
        assert_eq!(s.start(b), Time::from_secs(5));
    }

    #[test]
    fn with_delayed_shifts_one_task() {
        let (_, a, b) = two_task_graph();
        let s = Schedule::from_starts(vec![Time::from_secs(0), Time::from_secs(3)]);
        let s2 = s.with_delayed(a, TimeSpan::from_secs(7));
        assert_eq!(s2.start(a), Time::from_secs(7));
        assert_eq!(s2.start(b), Time::from_secs(3));
        assert_eq!(s.start(a), Time::from_secs(0), "original untouched");
    }

    #[test]
    fn empty_schedule_finish_is_zero() {
        let g = ConstraintGraph::new();
        let s = Schedule::from_starts(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.finish_time(&g), Time::ZERO);
    }

    #[test]
    fn iter_yields_all_tasks() {
        let s = Schedule::from_starts(vec![Time::from_secs(1), Time::from_secs(2)]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[1], (TaskId::from_index(1), Time::from_secs(2)));
    }
}
