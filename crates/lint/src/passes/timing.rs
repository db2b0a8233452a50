//! Timing analysis: positive-cycle witnesses, redundant separations
//! and the deadline-vs-critical-path precheck.

use super::{node_by_index, node_label, signed};
use crate::diag::{Applicability, Diagnostic, LintCode, LintReport};
use crate::span::SpanTable;
use pas_graph::longest_path::{LongestPaths, PositiveCycle};
use pas_graph::units::{Time, TimeSpan};
use pas_graph::{ConstraintGraph, EdgeId, EdgeKind, NodeId};
use std::collections::BTreeMap;

/// Short constraint-kind tag for chain rendering.
fn kind_tag(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::MinSeparation => "min",
        EdgeKind::MaxSeparation => "max",
        EdgeKind::Serialization => "serialize",
        EdgeKind::Release => "release",
        EdgeKind::Lock => "lock",
        _ => "edge",
    }
}

/// PAS010 — the graph has a positive cycle. Prefers a *minimal*
/// witness (a single mutually-contradictory separation pair) over the
/// possibly long cycle the Bellman–Ford fallback extracted, and
/// renders it as a constraint chain a spec author can follow.
pub(super) fn report_positive_cycle(
    graph: &ConstraintGraph,
    spans: &SpanTable,
    cycle: &PositiveCycle,
    report: &mut LintReport,
) {
    let witness = minimal_witness(graph).unwrap_or_else(|| cycle.nodes.clone());
    let (chain, total, edge_ids) = render_chain(graph, &witness).unwrap_or_else(|| {
        // Witness nodes we cannot stitch edges through (shouldn't
        // happen): fall back to a bare node list.
        let names: Vec<_> = cycle.nodes.iter().map(|&n| node_label(graph, n)).collect();
        (names.join(" -> "), cycle.total_weight, Vec::new())
    });
    let mut d = Diagnostic::new(
        LintCode::PositiveCycle,
        format!(
            "timing constraints are mutually unsatisfiable: {chain} gains {} per loop",
            signed(total),
        ),
    );
    for id in edge_ids {
        d = d.with_span(spans.edge(id), "part of the cycle");
    }
    report.push(
        d.with_suggestion("widen the max separations (or shrink the min separations) on the cycle"),
    );
}

/// Searches for a positive cycle of length ≤ 2 — the smallest
/// explainable witness. Returns the node loop without the repeated
/// closing node. With several such loops the pick is fixed: the one
/// whose node pair `(a, b)`, `a ≤ b`, is smallest, with the anchor as
/// node 0 and task `k` as node `k + 1`.
fn minimal_witness(graph: &ConstraintGraph) -> Option<Vec<NodeId>> {
    // Max edge weight per ordered node pair, in ascending pair order.
    let mut best: BTreeMap<(usize, usize), TimeSpan> = BTreeMap::new();
    for (_, e) in graph.edges() {
        let key = (e.from().index(), e.to().index());
        best.entry(key)
            .and_modify(|w| *w = (*w).max(e.weight()))
            .or_insert_with(|| e.weight());
    }
    for (&(a, b), &w) in &best {
        if a == b && w > TimeSpan::ZERO {
            return Some(vec![node_by_index(a)]);
        }
        if a < b {
            if let Some(&back) = best.get(&(b, a)) {
                if w + back > TimeSpan::ZERO {
                    return Some(vec![node_by_index(a), node_by_index(b)]);
                }
            }
        }
    }
    None
}

/// Renders `a -(min +5s)-> b -(max -3s)-> a` for a node loop, picking
/// the heaviest edge between each consecutive pair. Tries the node
/// order as given and reversed (the Bellman–Ford extraction walks
/// predecessor pointers, which reverses edge direction).
fn render_chain(
    graph: &ConstraintGraph,
    nodes: &[NodeId],
) -> Option<(String, TimeSpan, Vec<EdgeId>)> {
    if nodes.is_empty() {
        return None;
    }
    let reversed: Vec<NodeId> = nodes.iter().rev().copied().collect();
    try_chain(graph, nodes).or_else(|| try_chain(graph, &reversed))
}

fn try_chain(graph: &ConstraintGraph, nodes: &[NodeId]) -> Option<(String, TimeSpan, Vec<EdgeId>)> {
    let mut text = node_label(graph, nodes[0]);
    let mut total = TimeSpan::ZERO;
    let mut ids = Vec::new();
    for i in 0..nodes.len() {
        let from = nodes[i];
        let to = nodes[(i + 1) % nodes.len()];
        let (id, e) = graph
            .out_edges(from)
            .filter(|(_, e)| e.to() == to)
            .max_by_key(|(_, e)| e.weight())?;
        total += e.weight();
        ids.push(id);
        text.push_str(&format!(
            " -({} {})-> {}",
            kind_tag(e.kind()),
            signed(e.weight()),
            node_label(graph, to),
        ));
    }
    if total > TimeSpan::ZERO {
        Some((text, total, ids))
    } else {
        None
    }
}

/// The cycle-free timing checks: PAS011 redundant edges and PAS012
/// deadline reachability.
pub(super) fn check(
    graph: &ConstraintGraph,
    spans: &SpanTable,
    asap: &LongestPaths,
    redundant: &[(EdgeId, TimeSpan)],
    deadline: Option<Time>,
    report: &mut LintReport,
) {
    report_redundant_edges(graph, spans, redundant, report);
    if let Some(deadline) = deadline {
        check_deadline(graph, spans, asap, deadline, report);
    }
}

/// PAS011 — a user separation strictly dominated by another path, one
/// diagnostic per `(edge, longer distance)` in the order given (edge-id
/// order). The graph is cycle-free here, so a strictly longer
/// `from → to` path cannot itself ride through the dominated edge.
fn report_redundant_edges(
    graph: &ConstraintGraph,
    spans: &SpanTable,
    redundant: &[(EdgeId, TimeSpan)],
    report: &mut LintReport,
) {
    for &(id, dist) in redundant {
        let e = graph.edge(id);
        report.push(
            Diagnostic::new(
                LintCode::RedundantEdge,
                format!(
                    "{} constraint {} -> {} (weight {}) is redundant: other constraints already force a separation of {}",
                    kind_tag(e.kind()),
                    node_label(graph, e.from()),
                    node_label(graph, e.to()),
                    signed(e.weight()),
                    signed(dist),
                ),
            )
            .with_span(spans.edge(id), "dominated constraint")
            .with_suggestion("delete it, or tighten it if it was meant to bind")
            .with_fix(spans.edge(id), "", Applicability::MachineApplicable),
        );
    }
}

/// PAS012 — the declared deadline is shorter than the critical path,
/// so *no* time-valid schedule can meet it. The witness chain is the
/// critical path itself.
fn check_deadline(
    graph: &ConstraintGraph,
    spans: &SpanTable,
    asap: &LongestPaths,
    deadline: Time,
    report: &mut LintReport,
) {
    let Some((last, finish)) = graph
        .tasks()
        .map(|(t, task)| (t, asap.start_time(t) + task.delay()))
        .max_by_key(|&(t, f)| (f, t))
    else {
        return;
    };
    if finish <= deadline {
        return;
    }
    let chain = critical_chain(graph, asap, last.node());
    let names: Vec<String> = chain.iter().map(|&n| node_label(graph, n)).collect();
    report.push(
        Diagnostic::new(
            LintCode::DeadlineUnreachable,
            format!(
                "deadline {deadline} is unreachable: the critical path {} needs {finish}",
                names.join(" -> "),
            ),
        )
        .with_span(spans.deadline, "deadline declared here")
        .with_span(
            chain
                .last()
                .and_then(|n| n.task())
                .and_then(|t| spans.task(t)),
            "critical path ends here",
        )
        .with_suggestion(format!(
            "extend the deadline to at least {finish} or shorten the chain"
        ))
        .with_fix(
            spans.deadline,
            format!("deadline {finish}"),
            Applicability::MaybeIncorrect,
        ),
    );
}

/// Walks ASAP predecessor structure back from `target`: repeatedly
/// pick an in-edge whose source distance plus weight equals the node's
/// distance. Terminates at the anchor (or after `num_nodes` hops as a
/// safety net).
fn critical_chain(graph: &ConstraintGraph, asap: &LongestPaths, target: NodeId) -> Vec<NodeId> {
    let mut chain = vec![target];
    let mut current = target;
    for _ in 0..graph.num_nodes() {
        if current.is_anchor() {
            break;
        }
        let here = asap.distance(current).unwrap_or(TimeSpan::ZERO);
        let Some(prev) = graph
            .in_edges(current)
            .filter(|(_, e)| e.from() != current)
            .find(|(_, e)| {
                asap.distance(e.from())
                    .is_some_and(|d| d + e.weight() == here)
            })
            .map(|(_, e)| e.from())
        else {
            break;
        };
        chain.push(prev);
        current = prev;
    }
    chain.reverse();
    // Drop the anchor from the rendered chain; it adds no information.
    if chain.first().is_some_and(|n| n.is_anchor()) && chain.len() > 1 {
        chain.remove(0);
    }
    chain
}
