//! The static passes, grouped the way the issue groups them:
//! [`structural`] sanity, [`timing`] analysis, [`power`] analysis and
//! [`resource`] analysis.
//!
//! All passes are pure functions of the [`Problem`]. The per-source
//! longest-path searches live here because the timing (`PAS011`),
//! power (`PAS020`) and resource (`PAS030`) passes all read them.

mod interval;
mod power;
mod resource;
mod structural;
mod timing;

use crate::diag::LintReport;
use crate::span::SpanTable;
use pas_core::Problem;
use pas_graph::csr::FixedBitset;
use pas_graph::longest_path::{single_source_longest_paths, LongestPaths, PrunedLongestPaths};
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, EdgeId, EdgeKind, NodeId, TaskId};

/// The quadratic pairwise and window passes (`PAS020`, `PAS030`,
/// `PAS040`, `PAS041`) are skipped above this task count.
const MAX_PAIRWISE_TASKS: usize = 1024;

/// Runs every pass without source spans.
///
/// This is the entry point the scheduling pipeline's guard stage uses
/// on programmatically built problems.
pub fn lint(problem: &Problem) -> LintReport {
    lint_problem(problem, &SpanTable::empty())
}

/// Runs every pass, resolving graph entities to source spans through
/// `spans`. The deadline-relative passes (`PAS012`, `PAS021`,
/// `PAS04x`) use the problem's declared deadline and are skipped when
/// it has none.
pub fn lint_problem(problem: &Problem, spans: &SpanTable) -> LintReport {
    let mut report = LintReport::new();
    let deadline = problem.deadline();
    structural::check(problem, spans, &mut report);

    let graph = problem.graph();
    match single_source_longest_paths(graph, NodeId::ANCHOR) {
        Err(cycle) => timing::report_positive_cycle(graph, spans, &cycle, &mut report),
        Ok(asap) => {
            let pairwise = graph.num_tasks() <= MAX_PAIRWISE_TASKS;
            let paths = PathFindings::search(problem, &asap, pairwise);
            timing::check(graph, spans, &asap, &paths.redundant, deadline, &mut report);
            if pairwise {
                resource::check(graph, spans, &paths.forced_pairs, &mut report);
                power::check_forced_overlap(problem, spans, &paths.forced_pairs, &mut report);
            }
            power::check_windows(problem, spans, &asap, deadline, &mut report);
            power::check_utilization(problem, spans, &asap, &mut report);
            interval::check(problem, spans, deadline, &mut report);
        }
    }

    report.sort();
    report
}

/// What one longest-path search per source finds for the path-based
/// checks, with `L(a, b)` the longest-path distance between nodes:
///
/// * `PAS011` — a separation `s → t` of weight `w` is redundant when
///   `L(s, t) > w`;
/// * `PAS020`/`PAS030` — the start-time difference `x = σ(v) − σ(u)`
///   is confined to `[L(u, v), −L(v, u)]`, and the pair overlaps for a
///   given `x` iff `−d(v) < x < d(u)`. Overlap is *forced* in every
///   time-valid schedule iff the whole interval sits inside that band:
///   `L(u, v) > −d(v)` and `L(v, u) > −d(u)`.
///
/// Every check is "is `L(s, t)` above a threshold?", so each source
/// runs one [`PrunedLongestPaths`] search, potential `π` = the ASAP
/// start times, cut off at the lowest `θ_t − π(t) + π(s)` over its
/// targets. A target whose `θ_t − π(t) + π(s)` is 0 or more can never
/// pass (reweighted distances are at most 0) and is dropped: a
/// separation the ASAP schedule meets with zero slack, or a pair the
/// ASAP schedule itself keeps apart. A source with no target runs no
/// search.
struct PathFindings {
    /// Every dominated separation edge with the longer distance, in
    /// edge-id order.
    redundant: Vec<(EdgeId, TimeSpan)>,
    /// Every task pair `(u, v)`, `u < v`, forced to overlap that
    /// `PAS020` or `PAS030` may report, in ascending order. Empty
    /// unless the pairwise checks run.
    forced_pairs: Vec<(TaskId, TaskId)>,
}

impl PathFindings {
    fn search(problem: &Problem, asap: &LongestPaths, pairwise: bool) -> PathFindings {
        let graph = problem.graph();
        let n = graph.num_tasks();
        let mut search = PrunedLongestPaths::new(graph, asap);
        let mut redundant = Vec::new();
        // Bit `u·n + v`: L(u, v) > −d(v).
        let mut reaches_overlap = FixedBitset::new(if pairwise { n * n } else { 0 });
        let mut separations: Vec<(EdgeId, NodeId, TimeSpan)> = Vec::new();
        // (partner, its bit in `reaches_overlap`)
        let mut partners: Vec<(TaskId, usize)> = Vec::new();

        for s in (0..graph.num_nodes()).map(node_by_index) {
            let pi_s = search.potential(s);
            let mut cutoff = TimeSpan::ZERO;
            separations.clear();
            for (id, e) in graph.out_edges(s) {
                if matches!(e.kind(), EdgeKind::MinSeparation | EdgeKind::MaxSeparation)
                    && e.to() != s
                {
                    let c = e.weight() - search.potential(e.to()) + pi_s;
                    if c < TimeSpan::ZERO {
                        separations.push((id, e.to(), e.weight()));
                        cutoff = cutoff.min(c);
                    }
                }
            }
            partners.clear();
            if let Some(u) = s.task().filter(|_| pairwise) {
                for v in graph.task_ids() {
                    let pi_v = search.potential(v.node());
                    let c = -graph.task(v).delay() - pi_v + pi_s;
                    let back = -graph.task(u).delay() - pi_s + pi_v;
                    if c < TimeSpan::ZERO
                        && back < TimeSpan::ZERO
                        && v != u
                        && overlap_reportable(problem, u, v)
                    {
                        partners.push((v, u.index() * n + v.index()));
                        cutoff = cutoff.min(c);
                    }
                }
            }
            if cutoff == TimeSpan::ZERO {
                continue;
            }

            search.run(s, cutoff);
            for &(id, to, weight) in &separations {
                if let Some(dist) = search.distance(to).filter(|&d| d > weight) {
                    redundant.push((id, dist));
                }
            }
            for &(v, bit) in &partners {
                let threshold = -graph.task(v).delay();
                if search.distance(v.node()).is_some_and(|d| d > threshold) {
                    reaches_overlap.insert(bit);
                }
            }
        }

        redundant.sort_unstable_by_key(|&(id, _)| id);
        let forced_pairs = reaches_overlap
            .ones()
            .map(|i| (i / n, i % n))
            .filter(|&(u, v)| u < v && reaches_overlap.contains(v * n + u))
            .map(|(u, v)| (TaskId::from_index(u), TaskId::from_index(v)))
            .collect();
        PathFindings {
            redundant,
            forced_pairs,
        }
    }
}

/// `true` when `PAS030` (same resource) or `PAS020` (summed draw over
/// `P_max`) would report the pair if it were forced to overlap.
fn overlap_reportable(problem: &Problem, u: TaskId, v: TaskId) -> bool {
    let graph = problem.graph();
    graph.same_resource(u, v) || combined_power(problem, u, v) > problem.constraints().p_max()
}

/// The draw of `u` and `v` running together over the background.
fn combined_power(problem: &Problem, u: TaskId, v: TaskId) -> Power {
    let graph = problem.graph();
    graph
        .task(u)
        .power()
        .saturating_add(graph.task(v).power())
        .saturating_add(problem.background_power())
}

/// The node with dense index `i` (the anchor is 0, task `k` is `k + 1`).
fn node_by_index(i: usize) -> NodeId {
    if i == 0 {
        NodeId::ANCHOR
    } else {
        TaskId::from_index(i - 1).node()
    }
}

/// `"name"`-quoted task label for messages.
fn task_label(graph: &ConstraintGraph, t: TaskId) -> String {
    format!("\"{}\"", graph.task(t).name())
}

/// Node label: the quoted task name, or `anchor`.
fn node_label(graph: &ConstraintGraph, n: NodeId) -> String {
    match n.task() {
        Some(t) => task_label(graph, t),
        None => "anchor".to_string(),
    }
}

/// Latest finish of the ASAP schedule — the shortest possible
/// makespan `τ_min` of any time-valid schedule.
fn critical_path_finish(graph: &ConstraintGraph, asap: &LongestPaths) -> Time {
    graph
        .tasks()
        .map(|(t, task)| asap.start_time(t) + task.delay())
        .max()
        .unwrap_or(Time::ZERO)
}

/// Sign-aware `TimeSpan` display (`+5s` / `-3s`) for constraint
/// chains.
fn signed(span: TimeSpan) -> String {
    if span >= TimeSpan::ZERO {
        format!("+{span}")
    } else {
        span.to_string()
    }
}
