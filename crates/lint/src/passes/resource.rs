//! Resource analysis: same-resource task pairs whose separations make
//! serialization impossible.

use super::task_label;
use crate::diag::{Diagnostic, LintCode, LintReport};
use crate::span::SpanTable;
use pas_graph::{ConstraintGraph, TaskId};

/// PAS030 — two tasks share a resource, yet the min/max separations
/// confine their start-time difference entirely inside the overlap
/// band. No time-valid schedule exists, so the timing stage (Fig. 3)
/// must fail: it can only *add* serialization edges, never relax the
/// window that causes the clash.
pub(super) fn check(
    graph: &ConstraintGraph,
    spans: &SpanTable,
    forced_pairs: &[(TaskId, TaskId)],
    report: &mut LintReport,
) {
    for &(u, v) in forced_pairs {
        if !graph.same_resource(u, v) {
            continue;
        }
        let resource = graph.resource(graph.task(u).resource()).name();
        report.push(
            Diagnostic::new(
                LintCode::ForcedResourceOverlap,
                format!(
                    "tasks {} and {} share resource \"{resource}\" but their separations force them to overlap",
                    task_label(graph, u),
                    task_label(graph, v),
                ),
            )
            .with_span(spans.task(u), "first task")
            .with_span(spans.task(v), "second task")
            .with_suggestion(format!(
                "widen the window between them to at least {} (one task's delay) or move one to another resource",
                graph.task(u).delay().min(graph.task(v).delay()),
            )),
        );
    }
}
