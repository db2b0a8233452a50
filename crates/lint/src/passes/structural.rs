//! Structural sanity: findings that need no path analysis at all.

use super::task_label;
use crate::diag::{Applicability, Diagnostic, LintCode, LintReport, Severity};
use crate::span::SpanTable;
use pas_core::Problem;
use pas_graph::units::{Power, TimeSpan};
use pas_graph::EdgeId;

pub(super) fn check(problem: &Problem, spans: &SpanTable, report: &mut LintReport) {
    let graph = problem.graph();
    let p_max = problem.constraints().p_max();
    let background = problem.background_power();
    let budgeted = p_max != Power::MAX;

    // PAS005: the background draw alone busts the budget — every
    // instant of any schedule spikes, independent of task placement.
    if budgeted && graph.num_tasks() > 0 && background > p_max {
        report.push(
            Diagnostic::new(
                LintCode::BackgroundOverBudget,
                format!("background draw {background} alone exceeds the {p_max} budget"),
            )
            .with_span(spans.background, "background declared here")
            .with_span(spans.pmax, "budget declared here")
            .with_suggestion(format!(
                "raise pmax above {background} or lower the background draw"
            )),
        );
    }

    for (t, task) in graph.tasks() {
        // PAS006: the model requires d(v) ≥ 1 s; zero-length tasks
        // degenerate the half-open interval logic and negative ones
        // run backwards in time.
        if task.delay() <= TimeSpan::ZERO {
            report.push(
                Diagnostic::new(
                    LintCode::NonPositiveDelay,
                    format!(
                        "task {} has non-positive delay {}",
                        task_label(graph, t),
                        task.delay()
                    ),
                )
                .with_span(spans.task(t), "declared here")
                .with_suggestion("give the task a delay of at least 1s"),
            );
        }

        // PAS001: the task can never run without spiking.
        if budgeted && task.power().saturating_add(background) > p_max {
            let mut d = Diagnostic::new(
                LintCode::TaskOverBudget,
                if background > Power::ZERO {
                    format!(
                        "task {} draws {} on top of the {background} background, exceeding the {p_max} budget whenever it runs",
                        task_label(graph, t),
                        task.power(),
                    )
                } else {
                    format!(
                        "task {} draws {}, exceeding the {p_max} budget whenever it runs",
                        task_label(graph, t),
                        task.power(),
                    )
                },
            )
            .with_span(spans.task(t), "declared here")
            .with_span(spans.pmax, "budget declared here");
            d = d.with_suggestion(format!(
                "lower p({}) below {} or raise pmax",
                graph.task(t).name(),
                p_max - background,
            ));
            report.push(d);
        }
    }

    // PAS004: a resource nothing runs on is usually a typo in a
    // `task … on …` clause.
    for (r, resource) in graph.resources() {
        if graph.tasks_on(r).next().is_none() {
            report.push(
                Diagnostic::new(
                    LintCode::DanglingResource,
                    format!("resource \"{}\" has no tasks mapped to it", resource.name()),
                )
                .with_span(spans.resource(r), "declared here")
                .with_suggestion("map a task onto it or delete the declaration"),
            );
        }
    }

    // PAS003 exact duplicates: sort the `(from, to, kind, weight)` keys
    // of the edges that are no self-loop; the first edge declared in a
    // group of equal keys is its smallest id.
    let mut keys: Vec<_> = graph
        .edges()
        .filter(|(_, e)| e.from() != e.to())
        .map(|(id, e)| ((e.from(), e.to(), e.kind(), e.weight()), id))
        .collect();
    keys.sort_unstable();
    let mut first_of: Vec<Option<EdgeId>> = vec![None; graph.num_edges()];
    for pair in keys.windows(2) {
        let ((prev_key, prev), (key, id)) = (pair[0], pair[1]);
        if prev_key == key {
            first_of[id.index()] = Some(first_of[prev.index()].unwrap_or(prev));
        }
    }

    // PAS002 self-loops and PAS003 duplicates, in edge-id order.
    for (id, e) in graph.edges() {
        if e.from() == e.to() {
            let positive = e.weight() > TimeSpan::ZERO;
            let mut d = Diagnostic::new(
                LintCode::SelfLoop,
                format!(
                    "constraint edge loops {0} -> {0} with weight {1}{2}",
                    super::node_label(graph, e.from()),
                    super::signed(e.weight()),
                    if positive {
                        " — a one-node positive cycle"
                    } else {
                        " — the constraint is vacuous"
                    },
                ),
            )
            .with_span(spans.edge(id), "declared here")
            .with_suggestion("remove the self-referential constraint");
            if !positive {
                d = d.with_severity(Severity::Warning);
            }
            report.push(d);
            continue;
        }
        if let Some(first) = first_of[id.index()] {
            report.push(
                Diagnostic::new(
                    LintCode::DuplicateEdge,
                    format!(
                        "duplicate {} constraint {} -> {} (weight {})",
                        e.kind(),
                        super::node_label(graph, e.from()),
                        super::node_label(graph, e.to()),
                        super::signed(e.weight()),
                    ),
                )
                .with_span(spans.edge(id), "duplicate here")
                .with_span(spans.edge(first), "first declared here")
                .with_suggestion("delete one of the two identical constraints")
                .with_fix(spans.edge(id), "", Applicability::MachineApplicable),
            );
        }
    }
}
