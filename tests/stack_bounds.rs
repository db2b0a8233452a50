//! The scheduling stages' native stack must not grow with the task
//! count or the rescheduling depth: both searches keep their levels on
//! the heap. Nor may the JSON reader's grow with the nesting depth of
//! an untrusted trace line. Each case runs on a thread with an explicit
//! stack size, and this file holds nothing else, because an overflow
//! aborts the whole test binary. CI also runs it under `--release`, whose frame
//! sizes differ from the test profile's.

mod support;

use impacct::core::{is_time_valid, json, PowerProfile, Schedule};
use impacct::graph::units::{Power, Time, TimeSpan};
use impacct::graph::{ConstraintGraph, Resource, ResourceKind, Task};
use impacct::obs::TraceEvent;
use impacct::sched::{
    schedule_max_power, schedule_timing, ScheduleError, SchedulerConfig, SchedulerStats,
};
use support::staircase;

/// Runs `f` on a fresh thread with a `stack`-byte stack.
fn on_stack<T: Send + 'static>(stack: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(stack)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("the stage ran to completion")
}

/// A precedence chain of `n` 1 W tasks, one resource per task.
fn chain(n: usize) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    let mut prev = None;
    for i in 0..n {
        let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
        let t = g.add_task(Task::new(
            format!("t{i}"),
            r,
            TimeSpan::from_secs(1),
            Power::from_watts(1),
        ));
        if let Some(p) = prev {
            g.precedence(p, t);
        }
        prev = Some(t);
    }
    g
}

fn max_power(g: &mut ConstraintGraph, watts: i64) -> (Result<Schedule, ScheduleError>, usize) {
    let mut stats = SchedulerStats::default();
    let result = schedule_max_power(
        g,
        Power::from_watts(watts),
        Power::ZERO,
        &SchedulerConfig::default(),
        &mut stats,
    );
    (result, stats.power_recursions)
}

#[test]
fn staircase_of_201_nested_reschedules_fits_a_256_kib_stack() {
    let (sigma, recursions) = on_stack(256 * 1024, || {
        let mut g = staircase(200);
        let (result, recursions) = max_power(&mut g, 8);
        let sigma = result.expect("the staircase is schedulable");
        assert!(is_time_valid(&g, &sigma));
        let profile = PowerProfile::of_schedule(&g, &sigma, Power::ZERO);
        assert!(profile.peak() <= Power::from_watts(8));
        (sigma, recursions)
    });
    assert_eq!(recursions, 200, "one reschedule per locked step");
    assert_eq!(
        sigma.iter().nth(200).map(|(_, t)| t),
        Some(Time::from_secs(400))
    );
}

#[test]
fn a_4000_task_chain_fits_a_2_mib_stack() {
    let n = 4_000;
    on_stack(2 * 1024 * 1024, move || {
        let mut g = chain(n);
        let mut stats = SchedulerStats::default();
        let sigma = schedule_timing(&mut g, &SchedulerConfig::default(), &mut stats)
            .expect("a chain is schedulable");
        assert!(is_time_valid(&g, &sigma));
        assert_eq!(sigma.finish_time(&g), Time::from_secs(n as i64));

        let mut g = chain(n);
        let (result, _) = max_power(&mut g, 2);
        let sigma = result.expect("a chain never spikes");
        assert!(is_time_valid(&g, &sigma));
        let profile = PowerProfile::of_schedule(&g, &sigma, Power::ZERO);
        assert!(profile.peak() <= Power::from_watts(2));
        assert_eq!(sigma.finish_time(&g), Time::from_secs(n as i64));
    });
}

#[test]
fn a_million_nested_brackets_are_an_error_on_a_256_kib_stack() {
    on_stack(256 * 1024, || {
        let deep = "[".repeat(1_000_000);
        assert!(json::parse(&deep).is_err());
        let line = format!("{{\"event\":\"X\",\"a\":{deep}");
        assert!(TraceEvent::from_json(&line).is_err());
    });
}
