//! Causal "why does this task start here" explanations.
//!
//! An explanation walks the binding-predecessor chain recorded in the
//! trace: starting from the asked-about task, each link names the
//! constraint that pinned its start time, and the chain follows the
//! binding predecessors back to the anchor (or to a task held purely
//! by a power-stage decision). Power-stage decisions that touched the
//! task (victim delays, zero-slack locks, accepted gap moves) are
//! attached as notes.

use std::fmt::Write as _;

use pas_core::{json, Problem, Ratio};
use pas_graph::units::{Time, TimeSpan};
use pas_graph::TaskId;
use pas_obs::{Binding, StageKind, TraceEvent};

use crate::state::Replay;

/// One link of the binding chain: a task, its start, and what pinned
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// The task this link describes.
    pub task: TaskId,
    /// Its name in the problem.
    pub name: String,
    /// Its committed start time.
    pub start: Time,
    /// The constraint that pinned it.
    pub binding: Binding,
}

/// A power-stage decision that touched the explained task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PowerNote {
    /// Max-power victim delay: pushed `delta` later (slack was
    /// `slack`).
    Delayed {
        /// Slack available when the delay was applied.
        slack: TimeSpan,
        /// How far the task was pushed.
        delta: TimeSpan,
    },
    /// Max-power zero-slack lock at `at`.
    Locked {
        /// The locked start time.
        at: Time,
    },
    /// Accepted min-power gap move by `delta`.
    Moved {
        /// Signed move distance.
        delta: TimeSpan,
        /// Utilization before the move.
        rho_before: Ratio,
        /// Utilization after the move.
        rho_after: Ratio,
    },
}

/// A full causal explanation for one task's start time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// The explained task.
    pub task: TaskId,
    /// Its name in the problem.
    pub name: String,
    /// The stage whose committed schedule is being explained.
    pub stage: StageKind,
    /// Binding chain from the task back to its root cause; the first
    /// link is the task itself.
    pub chain: Vec<ChainLink>,
    /// Power-stage decisions that touched the task, in trace order.
    pub power: Vec<PowerNote>,
}

/// Builds the explanation for `task` from the last provenance group
/// of `stage` in `replay`.
///
/// # Errors
/// Returns a description of what is missing when the trace has no
/// outcome for `stage` or does not bind `task`.
pub fn explain(
    problem: &Problem,
    replay: &Replay,
    task: TaskId,
    stage: StageKind,
) -> Result<Explanation, String> {
    let graph = problem.graph();
    if task.index() >= graph.num_tasks() {
        return Err(format!("problem has no task {task}"));
    }
    let outcome = replay
        .outcome_for(stage)
        .ok_or_else(|| format!("trace has no outcome for stage {stage}"))?;
    let bound: std::collections::HashMap<TaskId, _> = outcome
        .bound
        .iter()
        .map(|b| (b.task, (b.start, b.binding.clone())))
        .collect();

    let mut chain = Vec::new();
    let mut visited = std::collections::HashSet::new();
    let mut current = task;
    loop {
        if !visited.insert(current) {
            return Err(format!(
                "binding chain loops back to {current} — corrupt trace"
            ));
        }
        let (start, binding) = bound
            .get(&current)
            .ok_or_else(|| format!("trace outcome for {stage} does not bind {current}"))?
            .clone();
        let next = match &binding {
            Binding::Edge { pred, .. } => Some(*pred),
            Binding::Anchor | Binding::Power => None,
        };
        chain.push(ChainLink {
            task: current,
            name: graph.task(current).name().to_string(),
            start,
            binding,
        });
        match next {
            Some(pred) => current = pred,
            None => break,
        }
    }

    let power = replay
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::VictimDelayed {
                task: t,
                slack,
                delta,
            } if *t == task => Some(PowerNote::Delayed {
                slack: *slack,
                delta: *delta,
            }),
            TraceEvent::ZeroSlackLocked { task: t, at } if *t == task => {
                Some(PowerNote::Locked { at: *at })
            }
            TraceEvent::MoveAccepted {
                task: t,
                delta,
                rho_before,
                rho_after,
            } if *t == task => Some(PowerNote::Moved {
                delta: *delta,
                rho_before: *rho_before,
                rho_after: *rho_after,
            }),
            _ => None,
        })
        .collect();

    Ok(Explanation {
        task,
        name: graph.task(task).name().to_string(),
        stage,
        chain,
        power,
    })
}

impl Explanation {
    /// Renders the explanation as a short human-readable report.
    pub fn render_human(&self, problem: &Problem) -> String {
        let graph = problem.graph();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "why {} \"{}\" starts at {}s ({} stage):",
            self.task,
            self.name,
            self.chain[0].start.since_origin().as_secs(),
            self.stage,
        );
        for link in &self.chain {
            let phrase = match &link.binding {
                Binding::Edge { pred, kind, weight } => {
                    let pred_name = graph.task(*pred).name().to_string();
                    match kind.as_str() {
                        "min" => format!(
                            "min separation after \"{pred_name}\" (+{}s)",
                            weight.as_secs()
                        ),
                        "max" => {
                            format!("max window before \"{pred_name}\" ({}s)", weight.as_secs())
                        }
                        "serialize" => format!(
                            "serialized after \"{pred_name}\" on {} (+{}s)",
                            graph.resource(graph.task(link.task).resource()).name(),
                            weight.as_secs()
                        ),
                        other => format!(
                            "{other} edge after \"{pred_name}\" (+{}s)",
                            weight.as_secs()
                        ),
                    }
                }
                Binding::Anchor => format!(
                    "released at t={}s (anchor)",
                    link.start.since_origin().as_secs()
                ),
                Binding::Power => {
                    "held by the power stage (no timing constraint is tight)".to_string()
                }
            };
            let _ = writeln!(
                out,
                "  \"{}\" @ {}s <- {}",
                link.name,
                link.start.since_origin().as_secs(),
                phrase
            );
        }
        for note in &self.power {
            let line = match note {
                PowerNote::Delayed { slack, delta } => format!(
                    "note: delayed {}s by max-power (slack was {}s)",
                    delta.as_secs(),
                    slack.as_secs()
                ),
                PowerNote::Locked { at } => format!(
                    "note: locked at {}s (zero slack)",
                    at.since_origin().as_secs()
                ),
                PowerNote::Moved {
                    delta,
                    rho_before,
                    rho_after,
                } => format!(
                    "note: moved {}s by min-power (rho {rho_before} -> {rho_after})",
                    delta.as_secs()
                ),
            };
            let _ = writeln!(out, "  {line}");
        }
        out
    }

    /// Renders the explanation as a single JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"task\":{},\"name\":\"", self.task.index());
        json::push_escaped(&mut out, &self.name);
        let _ = write!(out, "\",\"stage\":\"{}\",\"chain\":[", self.stage);
        for (i, link) in self.chain.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"task\":{},\"name\":\"", link.task.index());
            json::push_escaped(&mut out, &link.name);
            let _ = write!(out, "\",\"start\":{}", link.start.since_origin().as_secs());
            link.binding.push_json_members(&mut out);
            out.push('}');
        }
        out.push_str("],\"power\":[");
        for (i, note) in self.power.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match note {
                PowerNote::Delayed { slack, delta } => {
                    let _ = write!(
                        out,
                        "{{\"note\":\"delayed\",\"slack\":{},\"delta\":{}}}",
                        slack.as_secs(),
                        delta.as_secs()
                    );
                }
                PowerNote::Locked { at } => {
                    let _ = write!(
                        out,
                        "{{\"note\":\"locked\",\"at\":{}}}",
                        at.since_origin().as_secs()
                    );
                }
                PowerNote::Moved {
                    delta,
                    rho_before,
                    rho_after,
                } => {
                    let _ = write!(
                        out,
                        "{{\"note\":\"moved\",\"delta\":{},\"rho_before\":\"{rho_before}\",\"rho_after\":\"{rho_after}\"}}",
                        delta.as_secs()
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}
