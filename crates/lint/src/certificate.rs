//! Machine-checkable infeasibility certificates for the deep
//! (`PAS04x`) diagnostics, plus the independent zero-trust checker
//! that validates them.
//!
//! A certificate is *self-contained evidence*: witness tasks, the
//! constraint-graph paths that pin their start-time windows, and the
//! arithmetic inequality that proves no schedule can meet the
//! declared deadline. [`verify_certificate`] re-derives every bound
//! from the graph and the paths alone — it never trusts the fixpoint
//! analysis that produced the certificate — so an emitted `PAS04x`
//! diagnostic is never a false positive by construction (same spirit
//! as `pas-replay`'s `cross_check`).
//!
//! ## Proof obligations
//!
//! Each [`WindowClaim`] claims a conservative start-time window
//! `[asap, alap]` for one task and must justify both ends:
//!
//! * **`asap` (lower bound)** — a path `s → … → task` from any node.
//!   Every edge `u → v` of weight `w` encodes `σ(v) ≥ σ(u) + w`, and
//!   every start time satisfies `σ ≥ 0` (the anchor is pinned at 0),
//!   so the path's (max-weight-per-hop) sum `W` proves
//!   `σ(task) ≥ σ(s) + W ≥ W`; the claim is valid when `asap ≤ W`.
//!   An empty path appeals to the `σ ≥ 0` axiom alone and is valid
//!   when `asap ≤ 0`.
//! * **`alap` (upper bound)** — a forward path `task → … → z`.
//!   Chaining the same inequalities gives `σ(z) ≥ σ(task) + W`; with
//!   the deadline axiom `σ(z) ≤ D − d(z)` (or `σ(anchor) = 0` when
//!   the path ends at the anchor) this derives
//!   `σ(task) ≤ D − d(z) − W`, and the claim is valid when `alap` is
//!   at least that derived bound.
//!
//! The *mandatory overlap* of a task with a window `[a, b)` — the
//! execution time it must spend inside the window in **every**
//! deadline-meeting schedule — is then `min(ov(asap), ov(alap))`
//! where `ov(s) = max(0, min(s+d, b) − max(s, a))`: `ov` is concave
//! in `s`, so its minimum over the claimed window sits at an
//! endpoint, and a wider (more conservative) claim only shrinks the
//! bound. Summing mandatory energy or mandatory resource demand
//! against the window's capacity yields the infeasibility inequality
//! each [`Certificate`] variant carries.

use core::fmt::Write as _;
use pas_core::{json, Problem};
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, NodeId, ResourceId, TaskId};

/// A conservative start-time window for one task, with the
/// constraint-graph paths that justify both ends (see the module
/// docs for the proof obligations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowClaim {
    /// The witness task.
    pub task: TaskId,
    /// Its name, captured for rendering (display only — the checker
    /// identifies the task by id).
    pub task_name: String,
    /// Claimed lower bound on the task's start time.
    pub asap: Time,
    /// Claimed upper bound on the task's start time under the
    /// deadline.
    pub alap: Time,
    /// Node path ending at the task proving `σ(task) ≥ asap` (the
    /// first node contributes the `σ ≥ 0` axiom); empty when
    /// `asap ≤ 0`.
    pub asap_path: Vec<NodeId>,
    /// Forward node path `task → … → z` proving
    /// `σ(task) ≤ D − d(z) − Σw`; must start at the task itself (the
    /// single-node path derives `σ(task) ≤ D − d(task)`).
    pub alap_path: Vec<NodeId>,
}

/// A lower bound on one task's start time with its anchor-rooted
/// path witness — the `asap` half of a [`WindowClaim`], used by the
/// resource-serial makespan bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartClaim {
    /// The witness task.
    pub task: TaskId,
    /// Its name (display only).
    pub task_name: String,
    /// Claimed lower bound on the task's start time.
    pub lower_bound: Time,
    /// Node path ending at the task proving it (first node
    /// contributes `σ ≥ 0`); empty when `lower_bound ≤ 0`.
    pub path: Vec<NodeId>,
}

/// The makespan lower bound inside a
/// [`TightenedDeadline`](Certificate::TightenedDeadline) certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MakespanBound {
    /// Total task energy over deliverable power: every schedule needs
    /// `⌈E / (P_max − background)⌉` seconds to push `E` through the
    /// budget.
    Energy {
        /// `Σ p(v)·d(v)` over **all** tasks, in milliwatt-seconds.
        total_energy_mws: i128,
        /// `P_max − background`, in milliwatts.
        budget_mw: i64,
        /// The derived makespan lower bound.
        lower_bound: Time,
    },
    /// Serial execution on one exclusive resource: its tasks all
    /// start at or after `release` and must run back-to-back.
    ResourceSerial {
        /// The saturated resource.
        resource: ResourceId,
        /// Its name (display only).
        resource_name: String,
        /// A start-time lower bound common to every claimed task.
        release: Time,
        /// One proved lower bound per claimed task, each ≥ `release`.
        release_claims: Vec<StartClaim>,
        /// `Σ d(v)` over the claimed tasks, in seconds.
        serial_secs: i64,
        /// `release + serial`: the derived makespan lower bound.
        lower_bound: Time,
    },
}

/// A machine-checkable proof that no schedule can meet the deadline,
/// attached to every `PAS04x` diagnostic and validated by
/// [`verify_certificate`] before emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// `PAS040` — the mandatory energy inside `[window.0, window.1)`
    /// exceeds what the power budget can deliver over the window.
    EnergyWindow {
        /// The deadline the proof is relative to.
        deadline: Time,
        /// The half-open infeasible window `[a, b)`.
        window: (Time, Time),
        /// Window claims for the contributing tasks.
        claims: Vec<WindowClaim>,
        /// `Σ p(v) · mandatory(v)` in milliwatt-seconds.
        mandatory_energy_mws: i128,
        /// `(P_max − background) · (b − a)` in milliwatt-seconds.
        capacity_mws: i128,
    },
    /// `PAS041` — tasks sharing one exclusive resource demand more
    /// execution time inside `[window.0, window.1)` than it holds.
    ResourcePacking {
        /// The deadline the proof is relative to.
        deadline: Time,
        /// The saturated resource.
        resource: ResourceId,
        /// Its name (display only).
        resource_name: String,
        /// The half-open infeasible window `[a, b)`.
        window: (Time, Time),
        /// Window claims for the resource's contributing tasks.
        claims: Vec<WindowClaim>,
        /// `Σ mandatory(v)` in seconds.
        demand_secs: i64,
        /// `b − a` in seconds.
        capacity_secs: i64,
    },
    /// `PAS042` — a makespan lower bound exceeds the deadline even
    /// though the critical path fits.
    TightenedDeadline {
        /// The deadline the proof is relative to.
        deadline: Time,
        /// The violated lower bound with its own evidence.
        bound: MakespanBound,
    },
}

impl Certificate {
    /// The deadline this certificate proves unreachable.
    pub fn deadline(&self) -> Time {
        match *self {
            Certificate::EnergyWindow { deadline, .. }
            | Certificate::ResourcePacking { deadline, .. }
            | Certificate::TightenedDeadline { deadline, .. } => deadline,
        }
    }

    /// Stable kind tag used in the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Certificate::EnergyWindow { .. } => "energy-window",
            Certificate::ResourcePacking { .. } => "resource-packing",
            Certificate::TightenedDeadline { .. } => "tightened-deadline",
        }
    }

    /// Self-contained JSON encoding (no serde), documented in
    /// DESIGN.md §14. Names are escaped per RFC 8259; paths are node
    /// indices with `0` the anchor.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"kind\":\"{}\",\"deadline_secs\":{}",
            self.kind(),
            secs(self.deadline()),
        );
        match self {
            Certificate::EnergyWindow {
                window,
                claims,
                mandatory_energy_mws,
                capacity_mws,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"window_secs\":[{},{}],\"mandatory_energy_mws\":{mandatory_energy_mws},\"capacity_mws\":{capacity_mws},\"claims\":{}",
                    secs(window.0),
                    secs(window.1),
                    claims_json(claims),
                );
            }
            Certificate::ResourcePacking {
                resource,
                resource_name,
                window,
                claims,
                demand_secs,
                capacity_secs,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"resource\":{},\"resource_name\":\"",
                    resource.index()
                );
                json::push_escaped(&mut out, resource_name);
                let _ = write!(
                    out,
                    "\",\"window_secs\":[{},{}],\"demand_secs\":{demand_secs},\"capacity_secs\":{capacity_secs},\"claims\":{}",
                    secs(window.0),
                    secs(window.1),
                    claims_json(claims),
                );
            }
            Certificate::TightenedDeadline { bound, .. } => match bound {
                MakespanBound::Energy {
                    total_energy_mws,
                    budget_mw,
                    lower_bound,
                } => {
                    let _ = write!(
                        out,
                        ",\"bound\":\"energy\",\"total_energy_mws\":{total_energy_mws},\"budget_mw\":{budget_mw},\"makespan_lb_secs\":{}",
                        secs(*lower_bound),
                    );
                }
                MakespanBound::ResourceSerial {
                    resource,
                    resource_name,
                    release,
                    release_claims,
                    serial_secs,
                    lower_bound,
                } => {
                    let _ = write!(
                        out,
                        ",\"bound\":\"resource-serial\",\"resource\":{},\"resource_name\":\"",
                        resource.index()
                    );
                    json::push_escaped(&mut out, resource_name);
                    let _ = write!(
                        out,
                        "\",\"release_secs\":{},\"serial_secs\":{serial_secs},\"makespan_lb_secs\":{},\"claims\":[",
                        secs(*release),
                        secs(*lower_bound),
                    );
                    for (i, c) in release_claims.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{{\"task\":{},\"task_name\":\"", c.task.index());
                        json::push_escaped(&mut out, &c.task_name);
                        let _ = write!(
                            out,
                            "\",\"lower_bound_secs\":{},\"path\":{}}}",
                            secs(c.lower_bound),
                            path_json(&c.path),
                        );
                    }
                    out.push(']');
                }
            },
        }
        out.push('}');
        out
    }
}

fn claims_json(claims: &[WindowClaim]) -> String {
    let mut out = String::from("[");
    for (i, c) in claims.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"task\":{},\"task_name\":\"", c.task.index());
        json::push_escaped(&mut out, &c.task_name);
        let _ = write!(
            out,
            "\",\"asap_secs\":{},\"alap_secs\":{},\"asap_path\":{},\"alap_path\":{}}}",
            secs(c.asap),
            secs(c.alap),
            path_json(&c.asap_path),
            path_json(&c.alap_path),
        );
    }
    out.push(']');
    out
}

fn path_json(path: &[NodeId]) -> String {
    let mut out = String::from("[");
    for (i, n) in path.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", n.index());
    }
    out.push(']');
    out
}

fn secs(t: Time) -> i64 {
    t.since_origin().as_secs()
}

/// Why a certificate failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateError {
    /// Human-readable reason (first failed obligation).
    pub reason: String,
}

impl core::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "certificate rejected: {}", self.reason)
    }
}

impl std::error::Error for CertificateError {}

fn reject<T>(reason: impl Into<String>) -> Result<T, CertificateError> {
    Err(CertificateError {
        reason: reason.into(),
    })
}

/// `⌈a / b⌉` for non-negative `a` and positive `b`. Hand-rolled
/// because `i128::div_ceil` is unstable on the MSRV toolchain.
pub(crate) fn ceil_div(a: i128, b: i128) -> i128 {
    debug_assert!(a >= 0 && b > 0);
    (a + b - 1) / b
}

/// Mandatory execution time of a task with start window
/// `[asap, alap]` and delay `d` inside the half-open window `[a, b)`,
/// in seconds. Zero when the claimed window is empty (`alap < asap`):
/// such a task constrains nothing.
pub(crate) fn mandatory_overlap(asap: Time, alap: Time, d: TimeSpan, a: Time, b: Time) -> i64 {
    if alap < asap {
        return 0;
    }
    let ov = |s: Time| -> i64 {
        let lo = s.max(a).since_origin().as_secs();
        let hi = (s + d).min(b).since_origin().as_secs();
        (hi - lo).max(0)
    };
    ov(asap).min(ov(alap))
}

/// Max edge weight from `from` to `to`, if any edge exists. Using the
/// heaviest parallel edge is sound: every edge is a true constraint,
/// and the heaviest gives the strongest derived bound.
fn max_edge_weight(graph: &ConstraintGraph, from: NodeId, to: NodeId) -> Option<TimeSpan> {
    graph
        .out_edges(from)
        .filter(|(_, e)| e.to() == to)
        .map(|(_, e)| e.weight())
        .max()
}

/// Sum of max-weight hops along `path`; rejects missing edges.
fn path_weight(graph: &ConstraintGraph, path: &[NodeId]) -> Result<TimeSpan, CertificateError> {
    let mut total = TimeSpan::ZERO;
    for pair in path.windows(2) {
        match max_edge_weight(graph, pair[0], pair[1]) {
            Some(w) => total += w,
            None => {
                return reject(format!(
                    "no edge {} -> {} in witness path",
                    pair[0], pair[1]
                ))
            }
        }
    }
    Ok(total)
}

fn node_in_range(graph: &ConstraintGraph, n: NodeId) -> bool {
    n.index() < graph.num_nodes()
}

/// Checks the `asap` obligation: the path derives
/// `σ(task) ≥ claimed`.
fn verify_start_lower_bound(
    graph: &ConstraintGraph,
    task: TaskId,
    claimed: Time,
    path: &[NodeId],
) -> Result<(), CertificateError> {
    if path.is_empty() {
        if claimed <= Time::ZERO {
            return Ok(()); // σ ≥ 0 axiom
        }
        return reject(format!(
            "asap {claimed} claimed for task {task} without a path"
        ));
    }
    if *path.last().expect("non-empty") != task.node() {
        return reject("asap path does not end at the claimed task");
    }
    if path.iter().any(|&n| !node_in_range(graph, n)) {
        return reject("asap path mentions a node outside the graph");
    }
    let derived = Time::ZERO + path_weight(graph, path)?;
    if claimed <= derived {
        Ok(())
    } else {
        reject(format!(
            "asap path only derives σ ≥ {derived}, claim was {claimed}"
        ))
    }
}

/// Checks the `alap` obligation: the path derives
/// `σ(task) ≤ derived ≤ claimed` under the deadline.
fn verify_start_upper_bound(
    graph: &ConstraintGraph,
    deadline: Time,
    task: TaskId,
    claimed: Time,
    path: &[NodeId],
) -> Result<(), CertificateError> {
    let Some(&first) = path.first() else {
        return reject("alap path is empty");
    };
    if first != task.node() {
        return reject("alap path does not start at the claimed task");
    }
    if path.iter().any(|&n| !node_in_range(graph, n)) {
        return reject("alap path mentions a node outside the graph");
    }
    let w = path_weight(graph, path)?;
    let terminal = *path.last().expect("non-empty");
    let derived = match terminal.task() {
        // σ(z) ≤ D − d(z) and σ(z) ≥ σ(task) + W.
        Some(z) => deadline - graph.task(z).delay() - w,
        // σ(anchor) = 0 and σ(anchor) ≥ σ(task) + W.
        None => Time::ZERO - w,
    };
    if claimed >= derived {
        Ok(())
    } else {
        reject(format!(
            "alap path derives σ ≤ {derived}, claim {claimed} is tighter than proven"
        ))
    }
}

fn verify_window_claims(
    graph: &ConstraintGraph,
    deadline: Time,
    claims: &[WindowClaim],
) -> Result<(), CertificateError> {
    let mut seen = vec![false; graph.num_tasks()];
    for c in claims {
        if c.task.index() >= graph.num_tasks() {
            return reject(format!("claim names unknown task {}", c.task));
        }
        if core::mem::replace(&mut seen[c.task.index()], true) {
            return reject(format!("task {} claimed twice (double counting)", c.task));
        }
        verify_start_lower_bound(graph, c.task, c.asap, &c.asap_path)?;
        verify_start_upper_bound(graph, deadline, c.task, c.alap, &c.alap_path)?;
    }
    Ok(())
}

/// Validates `cert` against `problem` from first principles.
///
/// Every numeric field is recomputed from the constraint graph, the
/// power constraints and the witness paths; the claimed inequality
/// must hold on the recomputed values, and the stored values must
/// match the recomputation exactly. `Ok(())` therefore means: *no
/// schedule of this problem can meet the certificate's deadline*.
pub fn verify_certificate(problem: &Problem, cert: &Certificate) -> Result<(), CertificateError> {
    let graph = problem.graph();
    let p_max = problem.constraints().p_max();
    let background = problem.background_power();
    match cert {
        Certificate::EnergyWindow {
            deadline,
            window: (a, b),
            claims,
            mandatory_energy_mws,
            capacity_mws,
        } => {
            if a >= b {
                return reject("energy window is empty");
            }
            if p_max == Power::MAX {
                return reject("energy window against an unconstrained budget");
            }
            verify_window_claims(graph, *deadline, claims)?;
            let energy: i128 = claims
                .iter()
                .map(|c| {
                    let m = mandatory_overlap(c.asap, c.alap, graph.task(c.task).delay(), *a, *b);
                    m as i128 * graph.task(c.task).power().as_milliwatts() as i128
                })
                .sum();
            let headroom = (p_max - background).as_milliwatts().max(0) as i128;
            let capacity = headroom * (*b - *a).as_secs() as i128;
            if energy != *mandatory_energy_mws || capacity != *capacity_mws {
                return reject("stored energy/capacity disagree with recomputation");
            }
            if energy > capacity {
                Ok(())
            } else {
                reject(format!(
                    "mandatory energy {energy} mW·s fits the window capacity {capacity} mW·s"
                ))
            }
        }
        Certificate::ResourcePacking {
            deadline,
            resource,
            window: (a, b),
            claims,
            demand_secs,
            capacity_secs,
            ..
        } => {
            if a >= b {
                return reject("packing window is empty");
            }
            verify_window_claims(graph, *deadline, claims)?;
            for c in claims {
                if graph.task(c.task).resource() != *resource {
                    return reject(format!("task {} is not on the packed resource", c.task));
                }
            }
            let demand: i64 = claims
                .iter()
                .map(|c| mandatory_overlap(c.asap, c.alap, graph.task(c.task).delay(), *a, *b))
                .sum();
            let capacity = (*b - *a).as_secs();
            if demand != *demand_secs || capacity != *capacity_secs {
                return reject("stored demand/capacity disagree with recomputation");
            }
            if demand > capacity {
                Ok(())
            } else {
                reject(format!(
                    "mandatory demand {demand}s fits inside the {capacity}s window"
                ))
            }
        }
        Certificate::TightenedDeadline { deadline, bound } => match bound {
            MakespanBound::Energy {
                total_energy_mws,
                budget_mw,
                lower_bound,
            } => {
                if p_max == Power::MAX {
                    return reject("energy bound against an unconstrained budget");
                }
                let energy: i128 = graph
                    .tasks()
                    .map(|(_, t)| t.delay().as_secs() as i128 * t.power().as_milliwatts() as i128)
                    .sum();
                let budget = (p_max - background).as_milliwatts();
                if energy != *total_energy_mws || budget != *budget_mw {
                    return reject("stored energy/budget disagree with recomputation");
                }
                if budget <= 0 {
                    // Positive task energy with zero deliverable power
                    // is infeasible for any deadline.
                    return if energy > 0 {
                        Ok(())
                    } else {
                        reject("no task energy to starve")
                    };
                }
                // E > budget · D ⟺ pushing E through the budget
                // needs strictly more than D seconds.
                let lb_secs = ceil_div(energy, budget as i128);
                if Time::from_secs(lb_secs.min(i64::MAX as i128) as i64) != *lower_bound {
                    return reject("stored energy lower bound disagrees with recomputation");
                }
                if energy > budget as i128 * secs(*deadline) as i128 {
                    Ok(())
                } else {
                    reject(format!(
                        "total energy {energy} mW·s fits within the deadline"
                    ))
                }
            }
            MakespanBound::ResourceSerial {
                resource,
                release,
                release_claims,
                serial_secs,
                lower_bound,
                ..
            } => {
                let mut seen = vec![false; graph.num_tasks()];
                for c in release_claims {
                    if c.task.index() >= graph.num_tasks() {
                        return reject(format!("claim names unknown task {}", c.task));
                    }
                    if core::mem::replace(&mut seen[c.task.index()], true) {
                        return reject(format!("task {} claimed twice", c.task));
                    }
                    if graph.task(c.task).resource() != *resource {
                        return reject(format!("task {} is not on the serial resource", c.task));
                    }
                    if c.lower_bound < *release {
                        return reject(format!(
                            "task {} release {} is below the common release {release}",
                            c.task, c.lower_bound
                        ));
                    }
                    verify_start_lower_bound(graph, c.task, c.lower_bound, &c.path)?;
                }
                if release_claims.is_empty() {
                    return reject("resource-serial bound with no claimed tasks");
                }
                let serial: i64 = release_claims
                    .iter()
                    .map(|c| graph.task(c.task).delay().as_secs())
                    .sum();
                if serial != *serial_secs {
                    return reject("stored serial time disagrees with recomputation");
                }
                if *release + TimeSpan::from_secs(serial) != *lower_bound {
                    return reject("stored serial lower bound disagrees with recomputation");
                }
                // The claimed tasks share an exclusive resource, so
                // they execute back-to-back at best, starting no
                // earlier than `release`.
                if *lower_bound > *deadline {
                    Ok(())
                } else {
                    reject(format!(
                        "serial bound {lower_bound} does not exceed the deadline"
                    ))
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::PowerConstraints;
    use pas_graph::{Resource, ResourceKind, Task};

    /// Two 5 s tasks on one resource, deadline 9 s: packing demand
    /// 10 s > 9 s.
    fn packed() -> (Problem, TaskId, TaskId) {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
        let a = g.add_task(Task::new(
            "a",
            r,
            TimeSpan::from_secs(5),
            Power::from_watts(1),
        ));
        let b = g.add_task(Task::new(
            "b",
            r,
            TimeSpan::from_secs(5),
            Power::from_watts(1),
        ));
        let p = Problem::new(
            "packed",
            g,
            PowerConstraints::max_only(Power::from_watts(100)),
        )
        .with_deadline(Time::from_secs(9));
        (p, a, b)
    }

    fn packing_claim(task: TaskId, name: &str, deadline: i64, delay: i64) -> WindowClaim {
        WindowClaim {
            task,
            task_name: name.to_string(),
            asap: Time::ZERO,
            alap: Time::from_secs(deadline - delay),
            asap_path: Vec::new(),
            alap_path: vec![task.node()],
        }
    }

    fn packing_certificate() -> Certificate {
        let (_, a, b) = packed();
        Certificate::ResourcePacking {
            deadline: Time::from_secs(9),
            resource: ResourceId::from_index(0),
            resource_name: "cpu".to_string(),
            window: (Time::ZERO, Time::from_secs(9)),
            claims: vec![packing_claim(a, "a", 9, 5), packing_claim(b, "b", 9, 5)],
            demand_secs: 10,
            capacity_secs: 9,
        }
    }

    #[test]
    fn valid_packing_certificate_verifies() {
        let (p, _, _) = packed();
        verify_certificate(&p, &packing_certificate()).unwrap();
    }

    #[test]
    fn checker_rejects_tampered_arithmetic() {
        let (p, _, _) = packed();
        let mut cert = packing_certificate();
        if let Certificate::ResourcePacking { demand_secs, .. } = &mut cert {
            *demand_secs = 11; // lie about the demand
        }
        assert!(verify_certificate(&p, &cert).is_err());
    }

    #[test]
    fn checker_rejects_double_counted_tasks() {
        let (p, a, _) = packed();
        let mut cert = packing_certificate();
        if let Certificate::ResourcePacking {
            claims,
            demand_secs,
            ..
        } = &mut cert
        {
            claims[1] = packing_claim(a, "a", 9, 5);
            *demand_secs = 10;
        }
        assert!(verify_certificate(&p, &cert).is_err());
    }

    #[test]
    fn checker_rejects_unproven_asap() {
        let (p, _, _) = packed();
        let mut cert = packing_certificate();
        if let Certificate::ResourcePacking { claims, .. } = &mut cert {
            claims[0].asap = Time::from_secs(3); // positive bound, no path
        }
        let err = verify_certificate(&p, &cert).unwrap_err();
        assert!(err.reason.contains("without a path"), "{err}");
    }

    #[test]
    fn checker_rejects_overtight_alap() {
        let (p, _, _) = packed();
        let mut cert = packing_certificate();
        if let Certificate::ResourcePacking {
            claims,
            demand_secs,
            ..
        } = &mut cert
        {
            // Claiming alap 2 would raise the mandatory overlap to
            // 5 s + 5 s = 10 s against... still 10; tighten to check
            // the path obligation itself: derived bound is 9 − 5 = 4.
            claims[0].alap = Time::from_secs(2);
            *demand_secs = 10;
        }
        let err = verify_certificate(&p, &cert).unwrap_err();
        assert!(err.reason.contains("tighter than proven"), "{err}");
    }

    #[test]
    fn asap_paths_derive_real_lower_bounds() {
        // a → b with a 5 s precedence: path [anchor, a, b]… the
        // precedence edge is a → b weight 5, plus the anchor release
        // edge is implicit (no edge), so the path [a.node, b.node]
        // cannot start at the anchor and an anchored claim of 5 must
        // ride an actual anchor edge if one exists. Use a release.
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
        let a = g.add_task(Task::new(
            "a",
            r,
            TimeSpan::from_secs(5),
            Power::from_watts(1),
        ));
        let b = g.add_task(Task::new(
            "b",
            r,
            TimeSpan::from_secs(5),
            Power::from_watts(1),
        ));
        g.release(a, Time::from_secs(3));
        g.precedence(a, b);
        let p = Problem::new("t", g, PowerConstraints::unconstrained());
        // b starts ≥ 3 + 5 = 8 via anchor → a → b.
        verify_start_lower_bound(
            p.graph(),
            b,
            Time::from_secs(8),
            &[NodeId::ANCHOR, a.node(), b.node()],
        )
        .unwrap();
        // Claiming 9 through the same path must fail.
        assert!(verify_start_lower_bound(
            p.graph(),
            b,
            Time::from_secs(9),
            &[NodeId::ANCHOR, a.node(), b.node()],
        )
        .is_err());
    }

    #[test]
    fn alap_paths_derive_real_upper_bounds() {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
        let a = g.add_task(Task::new(
            "a",
            r,
            TimeSpan::from_secs(5),
            Power::from_watts(1),
        ));
        let b = g.add_task(Task::new(
            "b",
            r,
            TimeSpan::from_secs(7),
            Power::from_watts(1),
        ));
        g.precedence(a, b);
        let g2 = g;
        // Deadline 20: σ(a) ≤ 20 − 7 − 5 = 8 via a → b.
        verify_start_upper_bound(
            &g2,
            Time::from_secs(20),
            a,
            Time::from_secs(8),
            &[a.node(), b.node()],
        )
        .unwrap();
        assert!(verify_start_upper_bound(
            &g2,
            Time::from_secs(20),
            a,
            Time::from_secs(7), // tighter than the path proves
            &[a.node(), b.node()],
        )
        .is_err());
    }

    #[test]
    fn json_encoding_is_self_contained_and_escaped() {
        let mut cert = packing_certificate();
        if let Certificate::ResourcePacking { resource_name, .. } = &mut cert {
            *resource_name = "cp\"u\n".to_string();
        }
        let json = cert.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""kind":"resource-packing""#));
        assert!(json.contains(r#"cp\"u\n"#));
        assert!(json.contains(r#""demand_secs":10"#));
        assert!(json.contains(r#""window_secs":[0,9]"#));
    }

    #[test]
    fn mandatory_overlap_is_endpoint_minimal() {
        let d = TimeSpan::from_secs(5);
        let (a, b) = (Time::from_secs(5), Time::from_secs(15));
        // Window [5,5] (pinned): full 5 s inside [5,15).
        assert_eq!(
            mandatory_overlap(Time::from_secs(5), Time::from_secs(5), d, a, b),
            5
        );
        // Window [0,10]: at s=0 only [5,5+?]… ov(0)=0? [0,5) ∩ [5,15) = 0.
        assert_eq!(
            mandatory_overlap(Time::ZERO, Time::from_secs(10), d, a, b),
            0
        );
        // Empty claimed window contributes nothing.
        assert_eq!(
            mandatory_overlap(Time::from_secs(9), Time::from_secs(3), d, a, b),
            0
        );
    }
}
