//! The timing search takes the same decisions with the incremental
//! engine on and off, under heavy backtracking.
//!
//! With `SchedulerConfig::incremental` on, each serialization is
//! checked by the engine's verdict-only refresh, which proves a closed
//! positive cycle from the relaxation's parent pointers (DESIGN.md
//! §10); with it off, every check is a full longest-path solve. The
//! searches must commit, serialize and backtrack identically, event for
//! event, and end in the same schedule or the same error (a
//! `ScheduleError::Infeasible` with the same cycle included), both as a
//! timing-only run and inside the full pipeline, where max-power's
//! recursions re-run the search. The inputs are problems of the
//! benchmark's `plan_verdict` shape (16 tasks on 2 resources under
//! tight windows), two sabotaged ones with the lint guard off, and two
//! of its 200-task `plan_large` shape.

use impacct::core::{Problem, Schedule};
use impacct::obs::{RecordingObserver, TraceEvent};
use impacct::sched::{PowerAwareScheduler, ScheduleError, SchedulerConfig};
use impacct::workload::{generate, sabotage, GeneratorConfig, Sabotage, Topology};

/// Backtrack budget: large enough that most verdict-shaped searches
/// finish, small enough that a give-up stays cheap.
const BUDGET: usize = 600;

fn verdict_shaped(seed: u64) -> Problem {
    generate(&GeneratorConfig {
        seed,
        tasks: 16,
        resources: 2,
        window_margin: 0.5,
        max_window_probability: 0.6,
        p_max_factor: 3.0,
        ..GeneratorConfig::default()
    })
}

fn large_shaped(seed: u64) -> Problem {
    generate(&GeneratorConfig {
        seed,
        tasks: 200,
        resources: 16,
        topology: Topology::Layered { layers: 8 },
        window_margin: 8.0,
        ..GeneratorConfig::default()
    })
}

/// The timing search's decision events, in order.
fn search_decisions(recorder: RecordingObserver) -> Vec<TraceEvent> {
    recorder
        .into_events()
        .into_iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::TaskCommitted { .. }
                    | TraceEvent::SerializationAdded { .. }
                    | TraceEvent::TopoBacktrack { .. }
            )
        })
        .collect()
}

/// Runs `problem` timing-only or through the full pipeline.
fn run(
    problem: &Problem,
    incremental: bool,
    full_pipeline: bool,
) -> (Result<Schedule, ScheduleError>, Vec<TraceEvent>) {
    let scheduler = PowerAwareScheduler::new(SchedulerConfig {
        incremental,
        lint_guard: false,
        max_backtracks: BUDGET,
        ..SchedulerConfig::default()
    });
    let mut p = problem.clone();
    let mut recorder = RecordingObserver::new();
    let outcome = if full_pipeline {
        scheduler.schedule_with(&mut p, &mut recorder)
    } else {
        scheduler.schedule_timing_only_with(&mut p, &mut recorder)
    };
    (outcome.map(|o| o.schedule), search_decisions(recorder))
}

#[test]
fn timing_decisions_match_full_recompute_under_backtracking() {
    // Seeds 2..=12 hold searches of 0 to 566 backtracks and one give-up.
    let mut problems: Vec<(String, Problem)> = (2..=12)
        .map(|seed| (format!("verdict seed {seed}"), verdict_shaped(seed)))
        .collect();
    for (kind, seed) in [
        (Sabotage::ContradictoryWindow, 3),
        (Sabotage::ForcedResourceOverlap, 4),
    ] {
        let mut p = verdict_shaped(seed);
        sabotage(&mut p, kind, seed);
        problems.push((format!("{kind:?}"), p));
    }
    for seed in [1, 2] {
        problems.push((format!("large seed {seed}"), large_shaped(seed)));
    }

    let (mut backtracks, mut infeasible, mut exhausted) = (0, 0, 0);
    for (label, problem) in &problems {
        for full_pipeline in [false, true] {
            let label = format!("{label}, full pipeline {full_pipeline}");
            let (on, off) = (
                run(problem, true, full_pipeline),
                run(problem, false, full_pipeline),
            );
            assert_eq!(on.0, off.0, "{label}: outcomes diverge");
            assert_eq!(on.1.len(), off.1.len(), "{label}: decision counts diverge");
            for (i, (a, b)) in on.1.iter().zip(&off.1).enumerate() {
                assert_eq!(a, b, "{label}: decision {i} diverges");
            }
            backtracks +=
                on.1.iter()
                    .filter(|e| matches!(e, TraceEvent::TopoBacktrack { .. }))
                    .count();
            match on.0 {
                Err(ScheduleError::Infeasible(_)) => infeasible += 1,
                Err(ScheduleError::TimingSearchExhausted { .. }) => exhausted += 1,
                _ => {}
            }
        }
    }
    assert!(backtracks > 5_000, "only {backtracks} backtracks compared");
    assert!(infeasible > 0, "no Infeasible cycle compared");
    assert!(exhausted > 0, "no exhausted search compared");
}
