//! Window-scored min-power gap filling takes the same decisions as
//! full recomputation.
//!
//! With `SchedulerConfig::incremental` on, the min-power stage scores
//! each candidate move from the profile segments it touches and builds
//! only the moves it accepts (DESIGN.md §10); with it off, the stage
//! rebuilds the moved schedule and profile for every candidate. The
//! stage's recorded decisions must match event for event: every gap,
//! every accepted and rejected move with its `ρ` before and after, and
//! every pass. This is a fast subset of the 256-problem sweep in
//! `crates/workload/tests/incremental_equivalence.rs`, and it includes
//! one problem of the 200-task benchmark shape.

use impacct::core::{PowerProfile, Schedule};
use impacct::graph::units::{Power, Time, TimeSpan};
use impacct::graph::{ConstraintGraph, Resource, ResourceKind, Task};
use impacct::obs::{RecordingObserver, TraceEvent};
use impacct::sched::{improve_gaps_observed, PowerAwareScheduler, SchedulerConfig};
use impacct::workload::{generate, GeneratorConfig, Topology};

/// The min-power stage's decision events, in order.
fn min_power_decisions(recorder: RecordingObserver) -> Vec<TraceEvent> {
    recorder
        .into_events()
        .into_iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::GapScanStarted { .. }
                    | TraceEvent::GapFound { .. }
                    | TraceEvent::MoveAccepted { .. }
                    | TraceEvent::MoveRejected { .. }
                    | TraceEvent::GapScanFinished { .. }
            )
        })
        .collect()
}

fn assert_same_decisions(label: &str, on: &[TraceEvent], off: &[TraceEvent]) {
    assert_eq!(on.len(), off.len(), "{label}: decision counts diverge");
    for (i, (a, b)) in on.iter().zip(off).enumerate() {
        assert_eq!(a, b, "{label}: decision {i} diverges");
    }
}

#[test]
fn window_scoring_matches_full_recompute_on_generated_problems() {
    let shapes = [
        GeneratorConfig {
            seed: 11,
            tasks: 12,
            resources: 3,
            topology: Topology::Layered { layers: 3 },
            ..GeneratorConfig::default()
        },
        GeneratorConfig {
            seed: 12,
            tasks: 16,
            resources: 4,
            topology: Topology::Chains { chains: 3 },
            ..GeneratorConfig::default()
        },
        GeneratorConfig {
            seed: 13,
            tasks: 24,
            resources: 5,
            topology: Topology::Random,
            ..GeneratorConfig::default()
        },
        // The benchmark's `plan_large` shape.
        GeneratorConfig {
            seed: 14,
            tasks: 200,
            resources: 16,
            topology: Topology::Layered { layers: 8 },
            window_margin: 8.0,
            ..GeneratorConfig::default()
        },
    ];
    let mut rejected = 0usize;
    for generator in &shapes {
        let problem = generate(generator);
        for reduce_jitter in [false, true] {
            let label = format!(
                "{} tasks, seed {}, reduce_jitter {reduce_jitter}",
                generator.tasks, generator.seed
            );
            let run = |incremental: bool| {
                let mut p = problem.clone();
                let config = SchedulerConfig {
                    incremental,
                    reduce_jitter,
                    ..SchedulerConfig::default()
                };
                let mut recorder = RecordingObserver::new();
                let outcome = PowerAwareScheduler::new(config)
                    .schedule_with(&mut p, &mut recorder)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                (outcome.schedule, min_power_decisions(recorder))
            };
            let (on, off) = (run(true), run(false));
            assert_eq!(on.0, off.0, "{label}: schedules diverge");
            assert_same_decisions(&label, &on.1, &off.1);
            rejected +=
                on.1.iter()
                    .filter(|e| matches!(e, TraceEvent::MoveRejected { .. }))
                    .count();
        }
    }
    assert!(rejected > 0, "no rejected move was compared");
}

#[test]
fn an_input_that_already_spikes_is_scored_like_the_oracle() {
    // x, y, w (4 s @ 8 W) stacked over z (8 s @ 6 W): 30 W, then a 6 W
    // gap. Moving one of x/y/w into the gap raises only the gap to
    // 14 W, but 22 W still spikes above P_max = 20 W where they were,
    // so no move is valid. A spike test that read only the moved
    // window would accept one.
    let mut g = ConstraintGraph::new();
    for (name, secs, watts) in [("x", 4, 8), ("y", 4, 8), ("w", 4, 8), ("z", 8, 6)] {
        let r = g.add_resource(Resource::new(name.to_uppercase(), ResourceKind::Compute));
        g.add_task(Task::new(
            name,
            r,
            TimeSpan::from_secs(secs),
            Power::from_watts(watts),
        ));
    }
    let sigma = Schedule::from_starts(vec![Time::ZERO; 4]);
    let (p_max, p_min) = (Power::from_watts(20), Power::from_watts(14));
    assert!(!PowerProfile::of_schedule(&g, &sigma, Power::ZERO)
        .spikes(p_max)
        .is_empty());
    let run = |incremental: bool| {
        let config = SchedulerConfig {
            incremental,
            ..SchedulerConfig::default()
        };
        let mut recorder = RecordingObserver::new();
        let improved = improve_gaps_observed(
            &g,
            sigma.clone(),
            p_max,
            p_min,
            Power::ZERO,
            &config,
            &mut recorder,
        );
        (improved, min_power_decisions(recorder))
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.0, sigma, "no move can clear the spike");
    assert_eq!(on.0, off.0);
    assert_same_decisions("spiking input", &on.1, &off.1);
    assert!(on
        .1
        .iter()
        .any(|e| matches!(e, TraceEvent::MoveRejected { .. })));
}
