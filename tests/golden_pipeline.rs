//! Golden test: the full pipeline's decision stream, byte for byte.
//!
//! `PowerAwareScheduler::schedule_with` runs the lint guard, the
//! max-power stage (timing runs inside it) and min-power gap filling.
//! Every event it emits, rendered with `to_json`, and the final start
//! times are pinned here:
//!
//! * by event count, byte count and a 64-bit FNV-1a digest for a
//!   problem of the benchmark's `plan_large` shape, a 32-task problem
//!   under a tightened power envelope, one run with `reduce_jitter` on
//!   and one with the incremental engine off;
//! * in full for one small problem, whose `MoveAccepted` and
//!   `MoveRejected` lines carry exact `ρ` ratios. That file also joins
//!   the trace reader's hostile-input sweep in `golden_max_power.rs`.
//!
//! `min_power_equivalence.rs` compares the engine on against off within
//! one build; these goldens catch a change that moves both sides.
//! Regenerate with `BLESS=1 cargo test --test golden_pipeline` after an
//! intentional change, and review the diff like any other code.

mod support;

use impacct::core::{PowerConstraints, PowerProfile, Problem};
use impacct::graph::units::Power;
use impacct::obs::{RecordingObserver, TraceEvent};
use impacct::sched::{PowerAwareScheduler, SchedulerConfig};
use impacct::workload::{generate, GeneratorConfig, Topology};
use support::{check_golden, digest, render_trace};

/// Runs the whole pipeline and renders its events and outcome.
fn trace(problem: &Problem, config: SchedulerConfig) -> String {
    let mut problem = problem.clone();
    let mut rec = RecordingObserver::new();
    let result = PowerAwareScheduler::new(config).schedule_with(&mut problem, &mut rec);
    render_trace(
        &rec.into_events(),
        result
            .as_ref()
            .map(|o| &o.schedule)
            .map_err(|e| e.to_string()),
    )
}

/// A 200-task problem of the benchmark's `plan_large` shape.
fn plan_large(seed: u64) -> Problem {
    generate(&GeneratorConfig {
        seed,
        tasks: 200,
        resources: 16,
        topology: Topology::Layered { layers: 8 },
        window_margin: 8.0,
        ..GeneratorConfig::default()
    })
}

/// A 32-task problem whose `P_max` is lowered to just below the peak
/// of its default schedule, and whose `P_min` is raised to 90% of the
/// new `P_max`: the max-power stage must reschedule, and gap filling
/// works against a high floor.
fn tightened() -> Problem {
    let mut problem = generate(&GeneratorConfig {
        seed: 7,
        tasks: 32,
        resources: 6,
        topology: Topology::Layered { layers: 4 },
        ..GeneratorConfig::default()
    });
    let schedule = PowerAwareScheduler::default()
        .schedule(&mut problem.clone())
        .expect("the untightened problem schedules")
        .schedule;
    let peak =
        PowerProfile::of_schedule(problem.graph(), &schedule, problem.background_power()).peak();
    let p_max = Power::from_watts_milli(peak.as_milliwatts() - 1);
    let p_min = Power::from_watts_milli(p_max.as_milliwatts() * 9 / 10);
    problem.set_constraints(PowerConstraints::new(p_max, p_min));
    problem
}

#[test]
fn pipeline_runs_match_the_golden_digests() {
    let large = plan_large(1);
    let mut actual = digest(
        "plan_large_seed1",
        &trace(&large, SchedulerConfig::default()),
    );
    actual.push_str(&digest(
        "plan_large_seed1_engine_off",
        &trace(
            &large,
            SchedulerConfig {
                incremental: false,
                ..SchedulerConfig::default()
            },
        ),
    ));
    let tight = tightened();
    actual.push_str(&digest(
        "tightened_32",
        &trace(&tight, SchedulerConfig::default()),
    ));
    actual.push_str(&digest(
        "tightened_32_reduce_jitter",
        &trace(
            &tight,
            SchedulerConfig {
                reduce_jitter: true,
                ..SchedulerConfig::default()
            },
        ),
    ));
    check_golden("pipeline_digests.txt", &actual);
}

#[test]
fn small_pipeline_matches_the_golden_trace() {
    let problem = generate(&GeneratorConfig {
        seed: 3,
        tasks: 10,
        resources: 3,
        topology: Topology::Layered { layers: 3 },
        ..GeneratorConfig::default()
    });
    let actual = trace(&problem, SchedulerConfig::default());
    let has = |name: &str| {
        actual
            .lines()
            .filter_map(|line| TraceEvent::from_json(line).ok())
            .any(|e| e.name() == name)
    };
    assert!(has("MoveAccepted") && has("MoveRejected"), "{actual}");
    check_golden("pipeline_small.jsonl", &actual);
}
