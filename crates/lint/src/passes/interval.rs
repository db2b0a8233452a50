//! The deep abstract-interpretation pass: joint ASAP/ALAP interval
//! windows propagated over the whole constraint graph
//! ([`propagate_windows`]), interpreted through per-window energy and
//! resource-demand envelopes.
//!
//! Emits the `PAS04x` family — `PAS040` energy-infeasible window,
//! `PAS041` demand-over-capacity interval packing, `PAS042`
//! bound-tightened deadline miss — and **every** diagnostic carries a
//! [`Certificate`] that the independent zero-trust checker
//! ([`verify_certificate`]) validated before emission. A finding
//! that cannot be certified is dropped, so a `PAS04x` report is
//! never a false positive by construction.
//!
//! All three codes are deadline-relative (like `PAS012`/`PAS021`):
//! they prove the declared deadline unreachable, not that the
//! schedulers — which never see the deadline — must fail.

use super::MAX_PAIRWISE_TASKS;
use crate::certificate::{
    mandatory_overlap, verify_certificate, Certificate, MakespanBound, StartClaim, WindowClaim,
};
use crate::diag::{Applicability, Diagnostic, LintCode, LintReport};
use crate::span::SpanTable;
use pas_core::Problem;
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::window::{propagate_windows, TaskWindows};
use pas_graph::{ConstraintGraph, NodeId, TaskId};

/// How many distinct window boundaries the quadratic `PAS040`/`PAS041`
/// enumerations sample per side (stride-sampled when there are more).
const MAX_BOUNDARIES: usize = 64;

pub(super) fn check(
    problem: &Problem,
    spans: &SpanTable,
    deadline: Option<Time>,
    report: &mut LintReport,
) {
    let graph = problem.graph();
    let Some(deadline) = deadline else {
        return;
    };
    if graph.num_tasks() == 0 {
        return;
    }
    // Window propagation fails only on positive cycles (PAS010's
    // domain) or empty windows under the deadline; nothing to
    // interpret either way.
    let Ok(windows) = propagate_windows(graph, deadline) else {
        return;
    };
    // When the critical path itself overshoots, PAS012 already
    // explains the miss with a cheaper witness; the deep pass only
    // speaks where the bound genuinely *tightens* plain reachability.
    let crit = graph
        .tasks()
        .map(|(t, task)| windows.asap(t) + task.delay())
        .max()
        .unwrap_or(Time::ZERO);
    if crit > deadline {
        return;
    }

    check_tightened_deadline(problem, spans, &windows, deadline, report);
    if graph.num_tasks() <= MAX_PAIRWISE_TASKS {
        check_energy_windows(problem, spans, &windows, deadline, report);
        check_resource_packing(problem, spans, &windows, deadline, report);
    }
}

/// Window bound of a node: the anchor is pinned at 0.
fn node_asap(windows: &TaskWindows, n: NodeId) -> Time {
    n.task().map_or(Time::ZERO, |t| windows.asap(t))
}

fn node_alap(windows: &TaskWindows, n: NodeId) -> Time {
    n.task().map_or(Time::ZERO, |t| windows.alap(t))
}

/// Walks the fixpoint's binding in-edges from `task` back to a node
/// whose `asap` is 0 (the `σ ≥ 0` axiom), yielding a path that
/// *derives* `σ(task) ≥ asap(task)`. At the fixpoint every positive
/// bound has an achieving in-edge, so the walk only fails on a
/// zero-weight binding cycle — in which case the claim is dropped.
fn asap_witness(
    graph: &ConstraintGraph,
    windows: &TaskWindows,
    task: TaskId,
) -> Option<Vec<NodeId>> {
    let mut path = vec![task.node()];
    let mut cur = task.node();
    let mut fuel = graph.num_nodes() + 1;
    while node_asap(windows, cur) > Time::ZERO {
        fuel = fuel.checked_sub(1)?;
        let here = node_asap(windows, cur);
        let from = graph
            .in_edges(cur)
            .filter(|(_, e)| e.from() != cur)
            .find(|(_, e)| node_asap(windows, e.from()) + e.weight() == here)
            .map(|(_, e)| e.from())?;
        cur = from;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Walks the fixpoint's binding out-edges from `task` forward to a
/// node whose `alap` is pinned by an axiom (a task at `D − d`, or the
/// anchor at 0), yielding a path that derives `σ(task) ≤ alap(task)`.
fn alap_witness(
    graph: &ConstraintGraph,
    windows: &TaskWindows,
    deadline: Time,
    task: TaskId,
) -> Option<Vec<NodeId>> {
    let mut path = vec![task.node()];
    let mut cur = task.node();
    let mut fuel = graph.num_nodes() + 1;
    loop {
        match cur.task() {
            None => return Some(path), // anchor: σ = 0 axiom
            Some(t) => {
                if windows.alap(t) == deadline - graph.task(t).delay() {
                    return Some(path); // deadline axiom binds here
                }
            }
        }
        fuel = fuel.checked_sub(1)?;
        let here = node_alap(windows, cur);
        let to = graph
            .out_edges(cur)
            .filter(|(_, e)| e.to() != cur)
            .find(|(_, e)| node_alap(windows, e.to()) - e.weight() == here)
            .map(|(_, e)| e.to())?;
        cur = to;
        path.push(cur);
    }
}

/// Full window claim (both obligations) for one task.
fn window_claim(
    graph: &ConstraintGraph,
    windows: &TaskWindows,
    deadline: Time,
    task: TaskId,
) -> Option<WindowClaim> {
    Some(WindowClaim {
        task,
        task_name: graph.task(task).name().to_string(),
        asap: windows.asap(task),
        alap: windows.alap(task),
        asap_path: asap_witness(graph, windows, task)?,
        alap_path: alap_witness(graph, windows, deadline, task)?,
    })
}

/// At most [`MAX_BOUNDARIES`] evenly strided values from a sorted,
/// deduplicated boundary list, always keeping the extremes.
fn sample_boundaries(mut values: Vec<Time>) -> Vec<Time> {
    values.sort_unstable();
    values.dedup();
    if values.len() <= MAX_BOUNDARIES {
        return values;
    }
    let last = *values.last().expect("non-empty");
    let stride = values.len().div_ceil(MAX_BOUNDARIES);
    let mut sampled: Vec<Time> = values.into_iter().step_by(stride).collect();
    if sampled.last() != Some(&last) {
        sampled.push(last);
    }
    sampled
}

fn fmt_joules(mws: i128) -> String {
    format!("{:.1} J", mws as f64 / 1000.0)
}

/// PAS040 — sweep candidate windows `[a, b)` spanned by ASAP starts
/// and ALAP finishes; inside each, every task must run for its
/// mandatory overlap, so the summed mandatory energy must fit the
/// budget headroom times the window width. Reports the most violated
/// window.
fn check_energy_windows(
    problem: &Problem,
    spans: &SpanTable,
    windows: &TaskWindows,
    deadline: Time,
    report: &mut LintReport,
) {
    let graph = problem.graph();
    let p_max = problem.constraints().p_max();
    if p_max == Power::MAX {
        return;
    }
    let headroom = (p_max - problem.background_power()).as_milliwatts().max(0) as i128;
    let tasks: Vec<TaskId> = graph.task_ids().collect();
    let starts = sample_boundaries(tasks.iter().map(|&t| windows.asap(t)).collect());
    let ends = sample_boundaries(
        tasks
            .iter()
            .map(|&t| windows.alap(t) + graph.task(t).delay())
            .collect(),
    );

    let mut best: Option<(Time, Time, i128, i128)> = None;
    for &a in &starts {
        for &b in &ends {
            if b <= a {
                continue;
            }
            let capacity = headroom * (b - a).as_secs() as i128;
            let energy: i128 = tasks
                .iter()
                .map(|&t| {
                    let m = mandatory_overlap(
                        windows.asap(t),
                        windows.alap(t),
                        graph.task(t).delay(),
                        a,
                        b,
                    );
                    m as i128 * graph.task(t).power().as_milliwatts() as i128
                })
                .sum();
            if energy > capacity && best.map_or(true, |(_, _, e, c)| energy - capacity > e - c) {
                best = Some((a, b, energy, capacity));
            }
        }
    }
    let Some((a, b, energy, capacity)) = best else {
        return;
    };

    let mut claims = Vec::new();
    for &t in &tasks {
        if mandatory_overlap(
            windows.asap(t),
            windows.alap(t),
            graph.task(t).delay(),
            a,
            b,
        ) > 0
        {
            let Some(claim) = window_claim(graph, windows, deadline, t) else {
                return; // unwitnessable claim: stay silent, never unsound
            };
            claims.push(claim);
        }
    }
    let cert = Certificate::EnergyWindow {
        deadline,
        window: (a, b),
        claims,
        mandatory_energy_mws: energy,
        capacity_mws: capacity,
    };
    if verify_certificate(problem, &cert).is_err() {
        return;
    }
    let culprits = culprit_list(&cert);
    let mut d = Diagnostic::new(
        LintCode::EnergyInfeasibleWindow,
        format!(
            "meeting deadline {deadline} forces {} of mandatory work by {culprits} into the window [{a}, {b}), but the {p_max} budget can only deliver {} there",
            fmt_joules(energy),
            fmt_joules(capacity),
        ),
    )
    .with_span(spans.deadline, "deadline declared here")
    .with_span(spans.pmax, "budget declared here");
    if let Certificate::EnergyWindow { claims, .. } = &cert {
        for c in claims {
            d = d.with_span(spans.task(c.task), "mandatory inside the window");
        }
    }
    report.push(
        d.with_suggestion("extend the deadline, raise pmax, or spread the tasks' windows apart")
            .with_certificate(cert),
    );
}

/// PAS041 — per exclusive resource, the mandatory execution demand
/// inside a window cannot exceed the window's width. Reports the most
/// violated window per resource.
fn check_resource_packing(
    problem: &Problem,
    spans: &SpanTable,
    windows: &TaskWindows,
    deadline: Time,
    report: &mut LintReport,
) {
    let graph = problem.graph();
    for (r, resource) in graph.resources() {
        let tasks: Vec<TaskId> = graph.tasks_on(r).collect();
        if tasks.len() < 2 {
            continue;
        }
        let starts = sample_boundaries(tasks.iter().map(|&t| windows.asap(t)).collect());
        let ends = sample_boundaries(
            tasks
                .iter()
                .map(|&t| windows.alap(t) + graph.task(t).delay())
                .collect(),
        );
        let mut best: Option<(Time, Time, i64, i64)> = None;
        for &a in &starts {
            for &b in &ends {
                if b <= a {
                    continue;
                }
                let capacity = (b - a).as_secs();
                let demand: i64 = tasks
                    .iter()
                    .map(|&t| {
                        mandatory_overlap(
                            windows.asap(t),
                            windows.alap(t),
                            graph.task(t).delay(),
                            a,
                            b,
                        )
                    })
                    .sum();
                if demand > capacity
                    && best.map_or(true, |(_, _, de, ca)| demand - capacity > de - ca)
                {
                    best = Some((a, b, demand, capacity));
                }
            }
        }
        let Some((a, b, demand, capacity)) = best else {
            continue;
        };

        let mut claims = Vec::new();
        let mut witnessable = true;
        for &t in &tasks {
            if mandatory_overlap(
                windows.asap(t),
                windows.alap(t),
                graph.task(t).delay(),
                a,
                b,
            ) > 0
            {
                match window_claim(graph, windows, deadline, t) {
                    Some(claim) => claims.push(claim),
                    None => {
                        witnessable = false;
                        break;
                    }
                }
            }
        }
        if !witnessable {
            continue;
        }
        let cert = Certificate::ResourcePacking {
            deadline,
            resource: r,
            resource_name: resource.name().to_string(),
            window: (a, b),
            claims,
            demand_secs: demand,
            capacity_secs: capacity,
        };
        if verify_certificate(problem, &cert).is_err() {
            continue;
        }
        let culprits = culprit_list(&cert);
        let mut d = Diagnostic::new(
            LintCode::DemandOverCapacity,
            format!(
                "meeting deadline {deadline} packs {demand}s of mandatory work by {culprits} onto resource \"{}\" inside the window [{a}, {b}), which only holds {capacity}s",
                resource.name(),
            ),
        )
        .with_span(spans.deadline, "deadline declared here")
        .with_span(spans.resource(r), "saturated resource");
        if let Certificate::ResourcePacking { claims, .. } = &cert {
            for c in claims {
                d = d.with_span(spans.task(c.task), "mandatory inside the window");
            }
        }
        report.push(
            d.with_suggestion(
                "extend the deadline or move one of the packed tasks to another resource",
            )
            .with_certificate(cert),
        );
    }
}

/// PAS042 — admissible makespan lower bounds (total energy over
/// budget headroom; per-resource release + serial demand) that exceed
/// the deadline even though the critical path fits. The strongest
/// violated bound wins.
fn check_tightened_deadline(
    problem: &Problem,
    spans: &SpanTable,
    windows: &TaskWindows,
    deadline: Time,
    report: &mut LintReport,
) {
    let graph = problem.graph();
    let p_max = problem.constraints().p_max();
    let mut best: Option<(Time, MakespanBound)> = None;

    if p_max != Power::MAX {
        let budget = (p_max - problem.background_power()).as_milliwatts();
        if budget > 0 {
            let energy: i128 = graph
                .tasks()
                .map(|(_, t)| t.delay().as_secs() as i128 * t.power().as_milliwatts() as i128)
                .sum();
            let lb_secs =
                crate::certificate::ceil_div(energy, budget as i128).min(i64::MAX as i128) as i64;
            let lb = Time::from_secs(lb_secs);
            if lb > deadline {
                best = Some((
                    lb,
                    MakespanBound::Energy {
                        total_energy_mws: energy,
                        budget_mw: budget,
                        lower_bound: lb,
                    },
                ));
            }
        }
    }

    for (r, resource) in graph.resources() {
        let tasks: Vec<TaskId> = graph.tasks_on(r).collect();
        if tasks.is_empty() {
            continue;
        }
        let release = tasks
            .iter()
            .map(|&t| windows.asap(t))
            .min()
            .expect("non-empty");
        let serial: i64 = tasks.iter().map(|&t| graph.task(t).delay().as_secs()).sum();
        let lb = release + TimeSpan::from_secs(serial);
        if lb <= deadline || best.as_ref().is_some_and(|&(b, _)| lb <= b) {
            continue;
        }
        let mut claims = Vec::new();
        let mut witnessable = true;
        for &t in &tasks {
            match asap_witness(graph, windows, t) {
                Some(path) => claims.push(StartClaim {
                    task: t,
                    task_name: graph.task(t).name().to_string(),
                    lower_bound: windows.asap(t),
                    path,
                }),
                None => {
                    witnessable = false;
                    break;
                }
            }
        }
        if !witnessable {
            continue;
        }
        best = Some((
            lb,
            MakespanBound::ResourceSerial {
                resource: r,
                resource_name: resource.name().to_string(),
                release,
                release_claims: claims,
                serial_secs: serial,
                lower_bound: lb,
            },
        ));
    }

    let Some((lb, bound)) = best else {
        return;
    };
    let cert = Certificate::TightenedDeadline { deadline, bound };
    if verify_certificate(problem, &cert).is_err() {
        return;
    }
    let detail = match &cert {
        Certificate::TightenedDeadline {
            bound: MakespanBound::Energy {
                total_energy_mws, ..
            },
            ..
        } => format!(
            "total task energy {} cannot flow through the {p_max} budget any faster",
            fmt_joules(*total_energy_mws),
        ),
        Certificate::TightenedDeadline {
            bound:
                MakespanBound::ResourceSerial {
                    resource_name,
                    release,
                    serial_secs,
                    ..
                },
            ..
        } => format!(
            "resource \"{resource_name}\" must run {serial_secs}s back-to-back starting no earlier than {release}",
        ),
        _ => unreachable!("constructed as TightenedDeadline above"),
    };
    report.push(
        Diagnostic::new(
            LintCode::TightenedDeadlineMiss,
            format!(
                "deadline {deadline} is unreachable even though the critical path fits: no schedule finishes before {lb} — {detail}",
            ),
        )
        .with_span(spans.deadline, "deadline declared here")
        .with_suggestion(format!("extend the deadline to at least {lb}"))
        .with_fix(
            spans.deadline,
            format!("deadline {lb}"),
            Applicability::MaybeIncorrect,
        )
        .with_certificate(cert),
    );
}

/// Comma-joined quoted task names from a certificate's claims, capped
/// at four with an ellipsis.
fn culprit_list(cert: &Certificate) -> String {
    let names: Vec<&str> = match cert {
        Certificate::EnergyWindow { claims, .. } | Certificate::ResourcePacking { claims, .. } => {
            claims.iter().map(|c| c.task_name.as_str()).collect()
        }
        Certificate::TightenedDeadline { .. } => Vec::new(),
    };
    let mut out: Vec<String> = names.iter().take(4).map(|n| format!("\"{n}\"")).collect();
    if names.len() > 4 {
        out.push(format!("… ({} tasks)", names.len()));
    }
    out.join(", ")
}
