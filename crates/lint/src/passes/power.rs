//! Power analysis: forced-overlap budget violations, ASAP/ALAP
//! mandatory-interval profile bounds, and the static utilization
//! upper bound.

use super::{combined_power, critical_path_finish, task_label};
use crate::diag::{Diagnostic, LintCode, LintReport};
use crate::span::SpanTable;
use pas_core::{Problem, Ratio};
use pas_graph::alap::latest_start_times;
use pas_graph::longest_path::LongestPaths;
use pas_graph::units::{Power, Time};
use pas_graph::TaskId;

/// `PAS022` warns when the static utilization bound falls below this
/// fraction, as `(numerator, denominator)`.
const UTILIZATION_WARN_BELOW: (i128, i128) = (1, 2);

/// PAS020 — a pair of tasks (on *different* resources; same-resource
/// pairs are the harder error PAS030) whose separations force them to
/// run simultaneously while their summed draw busts the budget. Any
/// time-valid schedule therefore spikes, so the power stages must
/// fail.
pub(super) fn check_forced_overlap(
    problem: &Problem,
    spans: &SpanTable,
    forced_pairs: &[(TaskId, TaskId)],
    report: &mut LintReport,
) {
    let graph = problem.graph();
    let p_max = problem.constraints().p_max();
    for &(u, v) in forced_pairs {
        let combined = combined_power(problem, u, v);
        if graph.same_resource(u, v) || combined <= p_max {
            continue;
        }
        report.push(
            Diagnostic::new(
                LintCode::ForcedOverlapPower,
                format!(
                    "tasks {} ({}) and {} ({}) are forced to overlap by their separations, stacking {combined} against the {p_max} budget",
                    task_label(graph, u),
                    graph.task(u).power(),
                    task_label(graph, v),
                    graph.task(v).power(),
                ),
            )
            .with_span(spans.task(u), "first task")
            .with_span(spans.task(v), "second task")
            .with_suggestion("widen the separation window between them so one can wait"),
        );
    }
}

/// PAS021 — under the declared deadline, every task must run
/// throughout its *mandatory interval* `[alap(v), asap(v)+d(v))`
/// whenever that interval is non-empty. Summing those intervals gives
/// a lower bound on the profile of every deadline-meeting schedule;
/// if the bound already exceeds `P_max`, the spec is infeasible
/// before any search.
pub(super) fn check_windows(
    problem: &Problem,
    spans: &SpanTable,
    asap: &LongestPaths,
    deadline: Option<Time>,
    report: &mut LintReport,
) {
    let graph = problem.graph();
    let p_max = problem.constraints().p_max();
    let (Some(deadline), true) = (deadline, p_max != Power::MAX) else {
        return;
    };
    // Infeasible deadline ⇒ PAS012 already fired; nothing to bound.
    let Ok(alap) = latest_start_times(graph, deadline) else {
        return;
    };

    let mut intervals: Vec<(TaskId, Time, Time)> = Vec::new();
    let mut events: Vec<(Time, bool, Power)> = Vec::new();
    for (t, task) in graph.tasks() {
        let start = alap.start_time(t);
        let end = asap.start_time(t) + task.delay();
        if start < end {
            intervals.push((t, start, end));
            events.push((start, true, task.power()));
            events.push((end, false, task.power()));
        }
    }
    // Ends (`false`) sort before starts (`true`) at equal times so
    // half-open intervals never double-count a boundary instant.
    events.sort_by_key(|&(t, is_start, _)| (t, is_start));
    let mut level = problem.background_power();
    let mut peak = level;
    let mut peak_at = Time::ZERO;
    for (t, is_start, p) in events {
        if is_start {
            level = level.saturating_add(p);
            if level > peak {
                peak = level;
                peak_at = t;
            }
        } else {
            level -= p;
        }
    }
    if peak <= p_max {
        return;
    }

    let culprits: Vec<String> = intervals
        .iter()
        .filter(|&&(_, s, e)| s <= peak_at && peak_at < e)
        .map(|&(t, _, _)| task_label(graph, t))
        .collect();
    let mut d = Diagnostic::new(
        LintCode::WindowOverload,
        format!(
            "meeting deadline {deadline} forces {} to run simultaneously at {peak_at}, stacking {peak} against the {p_max} budget",
            culprits.join(", "),
        ),
    )
    .with_span(spans.deadline, "deadline declared here")
    .with_span(spans.pmax, "budget declared here");
    for &(t, _, _) in intervals
        .iter()
        .filter(|&&(_, s, e)| s <= peak_at && peak_at < e)
    {
        d = d.with_span(spans.task(t), "mandatory at the peak");
    }
    report.push(d.with_suggestion("extend the deadline or reduce the overlapping tasks' power"));
}

/// PAS022 — static upper bound on the min-power utilization
/// `ρ_σ(P_min)` over *all* schedules:
///
/// ```text
/// ρ ≤ (bg·τ_min + Σ_v d(v)·min(p(v), P_min − bg)) / (P_min · τ_min)
/// ```
///
/// where `τ_min` is the critical-path makespan (the bound is
/// decreasing in the true makespan `τ ≥ τ_min`). A `P_min` whose
/// bound is below [`UTILIZATION_WARN_BELOW`] can never be well
/// utilized, whatever the scheduler does.
pub(super) fn check_utilization(
    problem: &Problem,
    spans: &SpanTable,
    asap: &LongestPaths,
    report: &mut LintReport,
) {
    let graph = problem.graph();
    let p_min = problem.constraints().p_min();
    let background = problem.background_power();
    if p_min <= Power::ZERO || background >= p_min || graph.num_tasks() == 0 {
        return; // ρ is 1 by convention or by the background floor
    }
    let tau = critical_path_finish(graph, asap).since_origin().as_secs() as i128;
    if tau <= 0 {
        return;
    }
    let headroom = p_min - background;
    let capped_energy: i128 = graph
        .tasks()
        .map(|(_, task)| {
            task.delay().as_secs() as i128 * task.power().min(headroom).as_milliwatts() as i128
        })
        .sum();
    let num = background.as_milliwatts() as i128 * tau + capped_energy;
    let den = p_min.as_milliwatts() as i128 * tau;
    if num >= den {
        return; // bound is 1: nothing to warn about
    }
    let bound = Ratio::new(num, den);
    let (thr_num, thr_den) = UTILIZATION_WARN_BELOW;
    // bound < threshold, compared exactly by cross-multiplication.
    if bound.numerator() * thr_den < thr_num * bound.denominator() {
        report.push(
            Diagnostic::new(
                LintCode::HopelessUtilization,
                format!(
                    "pmin {p_min} is hopeless: no schedule can use more than {:.0}% of the free power",
                    bound.to_percent(),
                ),
            )
            .with_span(spans.pmin, "pmin declared here")
            .with_suggestion(format!(
                "lower pmin towards the average demand (≈{}) or accept the wasted free power",
                Power::from_watts_milli((num / tau) as i64),
            )),
        );
    }
}
