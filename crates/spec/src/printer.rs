//! PASDL printers: the inverse of [`crate::parse_problem`] /
//! [`crate::parse_schedule`]. Printing then parsing reproduces the
//! same problem (round-trip property, tested here and in the
//! integration suite).

use pas_core::power_model::{Corner, PowerRange};
use pas_core::{Problem, Schedule};
use pas_graph::units::Power;
use pas_graph::{EdgeKind, ResourceKind};
use std::fmt::{self, Write};

/// Renders `problem` as a PASDL document.
///
/// Scheduler-derived edges (serialization, release, lock) are not
/// printed: PASDL describes the *problem*, not a solver state.
///
/// # Examples
/// ```
/// use pas_spec::{parse_problem, print_problem};
/// let src = "problem \"p\" { pmax 9W resource A task t on A delay 2s power 1W }";
/// let p = parse_problem(src)?;
/// let round = parse_problem(&print_problem(&p))?;
/// assert_eq!(round.graph().num_tasks(), 1);
/// # Ok::<(), pas_spec::ParseError>(())
/// ```
pub fn print_problem(problem: &Problem) -> String {
    print_problem_full(problem, None)
}

/// Like [`print_problem`], but also emits `corners <min> <max>` on
/// tasks whose [`PowerRange`] is not exact. `ranges` is indexed by
/// task id.
///
/// # Panics
/// Panics if `ranges` is `Some` and does not cover every task.
pub fn print_problem_full(problem: &Problem, ranges: Option<&[PowerRange]>) -> String {
    let mut s = String::new();
    let _ = write_problem(&mut s, problem, ranges);
    s
}

/// Writes the text of [`print_problem_full`] to `out` as it is
/// formatted, so a caller that only hashes or measures it needs no
/// `String`.
///
/// # Errors
/// Only those `out` returns.
///
/// # Panics
/// Panics if `ranges` is `Some` and does not cover every task.
pub fn write_problem<W: Write + ?Sized>(
    out: &mut W,
    problem: &Problem,
    ranges: Option<&[PowerRange]>,
) -> fmt::Result {
    let g = problem.graph();
    if let Some(r) = ranges {
        assert_eq!(r.len(), g.num_tasks(), "need one range per task");
    }
    writeln!(out, "problem {} {{", Quoted(problem.name()))?;
    if problem.constraints().p_max() == Power::MAX {
        // Unconstrained budgets are not representable as a number;
        // print an absurdly large stand-in.
        writeln!(out, "  pmax {}", Power::from_watts(1_000_000))?;
    } else {
        writeln!(out, "  pmax {}", problem.constraints().p_max())?;
    }
    if problem.constraints().p_min() > Power::ZERO {
        writeln!(out, "  pmin {}", problem.constraints().p_min())?;
    }
    if problem.background_power() > Power::ZERO {
        writeln!(out, "  background {}", problem.background_power())?;
    }
    if let Some(deadline) = problem.deadline() {
        writeln!(out, "  deadline {deadline}")?;
    }
    for (_, r) in g.resources() {
        let kind = match r.kind() {
            ResourceKind::Compute => "compute",
            ResourceKind::Mechanical => "mechanical",
            ResourceKind::Thermal => "thermal",
            _ => "other",
        };
        writeln!(out, "  resource {} {kind}", Quoted(r.name()))?;
    }
    for (id, t) in g.tasks() {
        write!(
            out,
            "  task {} on {} delay {} power {}",
            Quoted(t.name()),
            Quoted(g.resource(t.resource()).name()),
            t.delay(),
            t.power()
        )?;
        if let Some(ranges) = ranges {
            let range = ranges[id.index()];
            let (min, max) = (range.at(Corner::Min), range.at(Corner::Max));
            if min != t.power() || max != t.power() {
                write!(out, " corners {min} {max}")?;
            }
        }
        out.write_char('\n')?;
    }
    for (_, e) in g.edges() {
        let task_name = |node: pas_graph::NodeId| node.task().map(|t| Quoted(g.task(t).name()));
        match e.kind() {
            EdgeKind::MinSeparation => {
                if let (Some(from), Some(to)) = (task_name(e.from()), task_name(e.to())) {
                    writeln!(out, "  min {from} -> {to} {}", e.weight())?;
                }
            }
            EdgeKind::MaxSeparation => {
                // Stored reversed with negative weight.
                if let (Some(to), Some(from)) = (task_name(e.from()), task_name(e.to())) {
                    writeln!(out, "  max {from} -> {to} {}", -e.weight())?;
                }
            }
            _ => {} // derived edges are solver state, not the problem
        }
    }
    out.write_str("}\n")
}

/// Renders `schedule` (named `name`) as a PASDL document.
pub fn print_schedule(name: &str, problem: &Problem, schedule: &Schedule) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "schedule {} {{", Quoted(name));
    for (id, start) in schedule.iter() {
        let _ = writeln!(
            s,
            "  start {} {}",
            Quoted(problem.graph().task(id).name()),
            start
        );
    }
    s.push_str("}\n");
    s
}

/// A name as PASDL writes it: bare when it lexes as an identifier that
/// is no keyword, quoted otherwise.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.0;
        let bare = name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_alphanumeric() || c == '_')
            && !is_keyword(name);
        if bare {
            f.write_str(name)
        } else {
            f.write_char('"')?;
            f.write_str(name)?;
            f.write_char('"')
        }
    }
}

fn is_keyword(name: &str) -> bool {
    [
        "problem",
        "schedule",
        "pmax",
        "pmin",
        "background",
        "deadline",
        "corners",
        "resource",
        "task",
        "on",
        "delay",
        "power",
        "min",
        "max",
        "precedence",
        "start",
        "compute",
        "mechanical",
        "thermal",
        "other",
    ]
    .contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_problem, parse_schedule};
    use pas_core::example::paper_example;
    use pas_graph::units::Time;

    #[test]
    fn paper_example_round_trips() {
        let (p, _) = paper_example();
        let text = print_problem(&p);
        let q = parse_problem(&text).unwrap();
        assert_eq!(q.name(), p.name());
        assert_eq!(q.graph().num_tasks(), p.graph().num_tasks());
        assert_eq!(q.graph().num_resources(), p.graph().num_resources());
        assert_eq!(q.constraints(), p.constraints());
        // Same user-visible constraint count.
        let count =
            |pr: &Problem, kind| pr.graph().edges().filter(|(_, e)| e.kind() == kind).count();
        for kind in [EdgeKind::MinSeparation, EdgeKind::MaxSeparation] {
            assert_eq!(count(&q, kind), count(&p, kind));
        }
    }

    #[test]
    fn schedule_round_trips() {
        let (p, t) = paper_example();
        let starts: Vec<Time> = (0..9).map(|i| Time::from_secs(i * 7)).collect();
        let sigma = Schedule::from_starts(starts);
        let text = print_schedule("probe", &p, &sigma);
        let (name, parsed) = parse_schedule(&text, &p).unwrap();
        assert_eq!(name, "probe");
        assert_eq!(parsed, sigma);
        let _ = t;
    }

    #[test]
    fn deadline_round_trips() {
        let src = r#"problem "d" {
          pmax 9W
          deadline 40s
          resource A
          task t on A delay 2s power 1W
        }"#;
        let p = parse_problem(src).unwrap();
        assert_eq!(p.deadline(), Some(Time::from_secs(40)));
        let text = print_problem(&p);
        assert!(text.contains("deadline 40s"), "{text}");
        let q = parse_problem(&text).unwrap();
        assert_eq!(q.deadline(), p.deadline());
    }

    #[test]
    fn keywords_and_odd_names_are_quoted() {
        let quoted = |name| Quoted(name).to_string();
        assert_eq!(quoted("task"), "\"task\"");
        assert_eq!(quoted("heat#1"), "\"heat#1\"");
        assert_eq!(quoted("plain_name2"), "plain_name2");
        assert_eq!(quoted(""), "\"\"");
        assert_eq!(quoted("9lives"), "\"9lives\"");
    }

    #[test]
    fn corners_round_trip_through_the_printer() {
        let src = r#"problem "c" {
          pmax 20W
          resource A
          task hot on A delay 2s power 6W corners 5W 8W
          task flat on A delay 2s power 3W
        }"#;
        let parsed = crate::parser::parse_problem_full(src).unwrap();
        let text = print_problem_full(&parsed.problem, Some(&parsed.ranges));
        assert!(text.contains("corners 5W 8W"), "{text}");
        assert!(!text.contains("corners 3W"), "exact ranges stay implicit");
        let again = crate::parser::parse_problem_full(&text).unwrap();
        assert_eq!(again.ranges, parsed.ranges);
    }

    #[test]
    fn derived_edges_are_not_printed() {
        let (mut p, _) = paper_example();
        // Run the scheduler so the graph gains serialization edges.
        let _ = pas_sched::PowerAwareScheduler::default().schedule(&mut p);
        let text = print_problem(&p);
        let q = parse_problem(&text).unwrap();
        let ser = q
            .graph()
            .edges()
            .filter(|(_, e)| e.kind() == EdgeKind::Serialization)
            .count();
        assert_eq!(ser, 0);
    }
}
