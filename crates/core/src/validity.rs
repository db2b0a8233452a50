//! Schedule validity checking (§4.1–4.2).
//!
//! A schedule is **time-valid** when every constraint edge is
//! satisfied and tasks sharing a resource never overlap. It is
//! **power-valid** (or simply *valid*) when it is time-valid and the
//! power profile never exceeds `P_max`.
//!
//! These checkers are deliberately independent of the schedulers: they
//! re-derive everything from the graph and the start times, so
//! property tests can use them as an oracle on scheduler output.

use crate::problem::Problem;
use crate::profile::{Interval, PowerProfile};
use crate::schedule::Schedule;
use pas_graph::units::{Time, TimeSpan};
use pas_graph::{ConstraintGraph, EdgeId, EdgeKind, NodeId, TaskId};

/// A violated timing requirement.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimingViolation {
    /// An edge inequality `σ(to) ≥ σ(from) + w` does not hold.
    Edge {
        /// The violated edge.
        edge: EdgeId,
        /// Required separation `w`.
        required: TimeSpan,
        /// Actual separation `σ(to) − σ(from)`.
        actual: TimeSpan,
    },
    /// Two tasks mapped to the same resource overlap in time.
    ResourceOverlap {
        /// First task (earlier start).
        first: TaskId,
        /// Second task.
        second: TaskId,
    },
    /// A task starts before time zero.
    StartsBeforeOrigin {
        /// The offending task.
        task: TaskId,
        /// Its (negative) start time.
        start: Time,
    },
}

impl core::fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TimingViolation::Edge {
                edge,
                required,
                actual,
            } => write!(
                f,
                "edge {edge} requires separation {required}, schedule has {actual}"
            ),
            TimingViolation::ResourceOverlap { first, second } => {
                write!(
                    f,
                    "tasks {first} and {second} overlap on their shared resource"
                )
            }
            TimingViolation::StartsBeforeOrigin { task, start } => {
                write!(f, "task {task} starts at {start}, before the origin")
            }
        }
    }
}

impl TimingViolation {
    /// Like the [`Display`](core::fmt::Display) impl, but resolves
    /// ids through `graph` so the message names the tasks involved —
    /// what a report shown to a person should use.
    pub fn describe(&self, graph: &ConstraintGraph) -> String {
        let name = |t: TaskId| format!("{:?}", graph.task(t).name());
        let node = |n: NodeId| match n.task() {
            Some(t) => name(t),
            None => "the anchor".to_string(),
        };
        match self {
            TimingViolation::Edge {
                edge,
                required,
                actual,
            } => {
                let e = graph.edge(*edge);
                let kind = match e.kind() {
                    EdgeKind::MinSeparation => "min separation",
                    EdgeKind::MaxSeparation => "max separation",
                    EdgeKind::Serialization => "serialization",
                    EdgeKind::Release => "release",
                    EdgeKind::Lock => "lock",
                    _ => "constraint",
                };
                format!(
                    "{kind} {} -> {} requires separation {required}, schedule has {actual}",
                    node(e.from()),
                    node(e.to()),
                )
            }
            TimingViolation::ResourceOverlap { first, second } => {
                let resource = graph.resource(graph.task(*first).resource()).name();
                format!(
                    "tasks {} and {} overlap on resource {resource:?}",
                    name(*first),
                    name(*second),
                )
            }
            TimingViolation::StartsBeforeOrigin { task, start } => {
                format!("task {} starts at {start}, before the origin", name(*task))
            }
        }
    }
}

/// Names the tasks active anywhere within `spike`, so power-violation
/// reports can say *who* is drawing power, not just when.
pub fn describe_spike(graph: &ConstraintGraph, schedule: &Schedule, spike: &Interval) -> String {
    let mut culprits: Vec<String> = graph
        .task_ids()
        .filter(|&t| schedule.start(t) < spike.end && schedule.end(t, graph) > spike.start)
        .map(|t| format!("{:?}", graph.task(t).name()))
        .collect();
    if culprits.is_empty() {
        return format!("power exceeds the budget over {spike} (background only)");
    }
    culprits.sort();
    format!(
        "power exceeds the budget over {spike}; active tasks: {}",
        culprits.join(", ")
    )
}

/// Collects every timing violation of `schedule` against `graph`.
///
/// An empty result means the schedule is time-valid.
pub fn time_violations(graph: &ConstraintGraph, schedule: &Schedule) -> Vec<TimingViolation> {
    let mut out = Vec::new();

    for t in graph.task_ids() {
        if schedule.start(t) < Time::ZERO {
            out.push(TimingViolation::StartsBeforeOrigin {
                task: t,
                start: schedule.start(t),
            });
        }
    }

    for (id, e) in graph.edges() {
        let from = node_time(schedule, e.from());
        let to = node_time(schedule, e.to());
        let actual = to - from;
        if actual < e.weight() {
            out.push(TimingViolation::Edge {
                edge: id,
                required: e.weight(),
                actual,
            });
        }
    }

    for (rid, _) in graph.resources() {
        let mut on_res: Vec<TaskId> = graph.tasks_on(rid).collect();
        on_res.sort_by_key(|&t| (schedule.start(t), t));
        for w in on_res.windows(2) {
            let (a, b) = (w[0], w[1]);
            if schedule.end(a, graph) > schedule.start(b) {
                out.push(TimingViolation::ResourceOverlap {
                    first: a,
                    second: b,
                });
            }
        }
    }

    out
}

/// `true` when `schedule` satisfies every timing constraint and
/// resource serialization.
pub fn is_time_valid(graph: &ConstraintGraph, schedule: &Schedule) -> bool {
    time_violations(graph, schedule).is_empty()
}

/// Incremental time-validity check for moving a single task: is
/// `schedule`, with `moved` starting at `new_start` instead, time-valid?
/// The schedule itself is left untouched, so no copy is made.
///
/// **Precondition:** `schedule` is time-valid. Only constraints the
/// move can affect are checked — edges incident to `moved`, overlaps
/// on `moved`'s resource, and its origin bound — so this is
/// `O(deg(moved) + |tasks on r(moved)|)` instead of `O(V + E)`. Under
/// the precondition the result equals [`is_time_valid`] on the moved
/// schedule (pinned by a property test); without it the answer may
/// miss violations among unmoved tasks.
pub fn is_move_valid(
    graph: &ConstraintGraph,
    schedule: &Schedule,
    moved: TaskId,
    new_start: Time,
) -> bool {
    if new_start < Time::ZERO {
        return false;
    }
    let vnode = moved.node();
    let at = |node: NodeId| {
        if node == vnode {
            new_start
        } else {
            node_time(schedule, node)
        }
    };
    let edge_ok = |e: &pas_graph::Edge| at(e.to()) - at(e.from()) >= e.weight();
    if !graph.out_edges(vnode).all(|(_, e)| edge_ok(e))
        || !graph.in_edges(vnode).all(|(_, e)| edge_ok(e))
    {
        return false;
    }
    let new_end = new_start + graph.task(moved).delay();
    graph
        .tasks_on(graph.task(moved).resource())
        .filter(|&t| t != moved)
        .all(|t| schedule.start(t) >= new_end || schedule.end(t, graph) <= new_start)
}

/// `true` when `schedule` is time-valid **and** its power profile
/// never exceeds the problem's `P_max` — the paper's *valid* schedule.
pub fn is_power_valid(problem: &Problem, schedule: &Schedule) -> bool {
    if !is_time_valid(problem.graph(), schedule) {
        return false;
    }
    let profile = PowerProfile::of_schedule(problem.graph(), schedule, problem.background_power());
    profile.spikes(problem.constraints().p_max()).is_empty()
}

fn node_time(schedule: &Schedule, node: NodeId) -> Time {
    match node.task() {
        Some(t) => schedule.start(t),
        None => Time::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PowerConstraints;
    use pas_graph::units::Power;
    use pas_graph::{Resource, ResourceKind, Task};

    fn pair(same_resource: bool) -> (ConstraintGraph, TaskId, TaskId) {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = if same_resource {
            r0
        } else {
            g.add_resource(Resource::new("B", ResourceKind::Compute))
        };
        let a = g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(5),
            Power::from_watts(4),
        ));
        let b = g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(5),
            Power::from_watts(4),
        ));
        (g, a, b)
    }

    #[test]
    fn valid_schedule_has_no_violations() {
        let (mut g, a, b) = pair(false);
        g.min_separation(a, b, TimeSpan::from_secs(2));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(2)]);
        assert!(is_time_valid(&g, &s));
    }

    #[test]
    fn edge_violation_reported_with_amounts() {
        let (mut g, a, b) = pair(false);
        g.min_separation(a, b, TimeSpan::from_secs(10));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(4)]);
        let v = time_violations(&g, &s);
        assert_eq!(v.len(), 1);
        match &v[0] {
            TimingViolation::Edge {
                required, actual, ..
            } => {
                assert_eq!(*required, TimeSpan::from_secs(10));
                assert_eq!(*actual, TimeSpan::from_secs(4));
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn max_separation_violation_detected() {
        let (mut g, a, b) = pair(false);
        g.max_separation(a, b, TimeSpan::from_secs(3));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(9)]);
        assert!(!is_time_valid(&g, &s));
    }

    #[test]
    fn resource_overlap_detected() {
        let (g, a, b) = pair(true);
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(3)]);
        let v = time_violations(&g, &s);
        assert!(v.iter().any(
            |x| matches!(x, TimingViolation::ResourceOverlap { first, second }
                              if *first == a && *second == b)
        ));
        // Back-to-back execution is fine (half-open intervals).
        let s2 = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(5)]);
        assert!(is_time_valid(&g, &s2));
    }

    #[test]
    fn negative_start_detected() {
        let (g, _, _) = pair(false);
        let s = Schedule::from_starts(vec![Time::from_secs(-1), Time::ZERO]);
        let v = time_violations(&g, &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, TimingViolation::StartsBeforeOrigin { .. })));
        // The automatic anchor release edge also reports it.
        assert!(v.iter().any(|x| matches!(x, TimingViolation::Edge { .. })));
    }

    #[test]
    fn power_validity_checks_spikes() {
        let (g, _, _) = pair(false);
        let s = Schedule::from_starts(vec![Time::ZERO, Time::ZERO]);
        // Both tasks overlap: 8 W peak.
        let tight = Problem::new(
            "tight",
            g.clone(),
            PowerConstraints::max_only(Power::from_watts(7)),
        );
        assert!(!is_power_valid(&tight, &s));
        let loose = Problem::new("loose", g, PowerConstraints::max_only(Power::from_watts(8)));
        assert!(is_power_valid(&loose, &s));
    }

    #[test]
    fn power_validity_requires_time_validity() {
        let (mut g, a, b) = pair(false);
        g.min_separation(a, b, TimeSpan::from_secs(10));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::ZERO]);
        let p = Problem::new("p", g, PowerConstraints::unconstrained());
        assert!(!is_power_valid(&p, &s));
    }

    #[test]
    fn move_validity_agrees_with_full_check_on_random_moves() {
        // From a valid base schedule, move one task to a random
        // instant: the incremental check must agree with the full
        // checker in every case.
        let mut state = 0xA5A5_1234_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let mut g = ConstraintGraph::new();
            let n = 2 + (next() % 4) as usize;
            let shared = g.add_resource(Resource::new("S", ResourceKind::Compute));
            let mut ids = Vec::new();
            for i in 0..n {
                let r = if next() % 2 == 0 {
                    shared
                } else {
                    g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute))
                };
                ids.push(g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(1 + (next() % 4) as i64),
                    Power::ZERO,
                )));
            }
            for w in ids.windows(2) {
                if next() % 2 == 0 {
                    g.precedence(w[0], w[1]);
                }
            }
            // Valid base: serialize everything end-to-end.
            let mut t = Time::ZERO;
            let starts: Vec<Time> = ids
                .iter()
                .map(|&id| {
                    let s = t;
                    t += g.task(id).delay();
                    s
                })
                .collect();
            let base = Schedule::from_starts(starts);
            assert!(is_time_valid(&g, &base), "base must be valid");
            let victim = ids[(next() % n as u64) as usize];
            let to = Time::from_secs((next() % 12) as i64 - 2);
            let moved = base.with_delayed(victim, to - base.start(victim));
            assert_eq!(
                is_move_valid(&g, &base, victim, to),
                is_time_valid(&g, &moved),
                "incremental and full validity disagree"
            );
        }
    }

    #[test]
    fn violation_display_is_informative() {
        let v = TimingViolation::ResourceOverlap {
            first: TaskId::from_index(0),
            second: TaskId::from_index(1),
        };
        assert!(v.to_string().contains("overlap"));
    }

    #[test]
    fn describe_names_tasks_and_resources() {
        let (mut g, a, b) = pair(true);
        g.min_separation(a, b, TimeSpan::from_secs(10));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(4)]);
        let v = time_violations(&g, &s);
        let texts: Vec<String> = v.iter().map(|x| x.describe(&g)).collect();
        assert!(
            texts.iter().any(|t| t.contains("min separation")
                && t.contains("\"a\"")
                && t.contains("\"b\"")),
            "{texts:?}"
        );
        assert!(
            texts
                .iter()
                .any(|t| t.contains("overlap") && t.contains("\"A\"")),
            "{texts:?}"
        );
    }

    #[test]
    fn describe_negative_start_names_the_task() {
        let (g, _, _) = pair(false);
        let s = Schedule::from_starts(vec![Time::from_secs(-1), Time::ZERO]);
        let v = time_violations(&g, &s);
        let texts: Vec<String> = v.iter().map(|x| x.describe(&g)).collect();
        assert!(
            texts
                .iter()
                .any(|t| t.contains("\"a\"") && t.contains("origin")),
            "{texts:?}"
        );
        // The anchor release edge names the anchor, not a phantom task.
        assert!(texts.iter().any(|t| t.contains("the anchor")), "{texts:?}");
    }

    #[test]
    fn describe_spike_names_active_tasks() {
        let (g, _, _) = pair(false);
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(2)]);
        let spike = Interval {
            start: Time::from_secs(2),
            end: Time::from_secs(5),
        };
        let text = describe_spike(&g, &s, &spike);
        assert!(text.contains("\"a\"") && text.contains("\"b\""), "{text}");
        let idle = Interval {
            start: Time::from_secs(100),
            end: Time::from_secs(101),
        };
        assert!(describe_spike(&g, &s, &idle).contains("background"));
    }
}
