//! Golden test: the max-power stage's full event stream and outcome,
//! byte for byte, on cases whose recursion order matters:
//!
//! * a staircase of locked tasks that one task must climb, one nested
//!   reschedule per step;
//! * generated problems whose recursion hits its limit and respins,
//!   once succeeding and once failing after every respin (under a
//!   small recursion limit, so the traces stay a few hundred lines);
//! * the same two situations under the default limit, where the
//!   traces run to tens of thousands of events: those are pinned by
//!   event count, byte count and a 64-bit FNV-1a digest.
//!
//! Each full golden file is JSONL: every `TraceEvent` the stage emits,
//! then one `{"outcome": …}` line with the schedule's start times or
//! the error. Regenerate with `BLESS=1 cargo test --test
//! golden_max_power` after an intentional change, and review the diff
//! like any other code.
//!
//! The full golden files, with `golden_pipeline.rs`'s small pipeline
//! trace, double as the trace reader's hostile-input corpus: every
//! event line must read back to the same bytes, and no mutant of any
//! line may panic the reader.

mod support;

use impacct::core::json;
use impacct::core::Problem;
use impacct::graph::units::Power;
use impacct::graph::ConstraintGraph;
use impacct::obs::{RecordingObserver, TraceEvent};
use impacct::sched::{schedule_max_power_observed, SchedulerConfig};
use impacct::workload::{generate, GeneratorConfig, Topology};
use support::{check_golden, digest, golden_path, render_trace, staircase, Lcg};

/// Runs the max-power stage and renders its events and outcome.
fn trace(
    graph: &mut ConstraintGraph,
    p_max: Power,
    background: Power,
    config: &SchedulerConfig,
) -> String {
    let mut rec = RecordingObserver::new();
    let result = schedule_max_power_observed(graph, p_max, background, config, &mut rec);
    render_trace(
        &rec.into_events(),
        result.as_ref().map_err(|e| e.to_string()),
    )
}

/// A layered generated problem under a given budget factor and
/// recursion limit.
fn generated(
    seed: u64,
    tasks: usize,
    resources: usize,
    layers: usize,
    p_max_factor: f64,
    max_recursions: usize,
) -> String {
    let mut problem: Problem = generate(&GeneratorConfig {
        seed,
        tasks,
        resources,
        topology: Topology::Layered { layers },
        p_max_factor,
        ..GeneratorConfig::default()
    });
    let p_max = problem.constraints().p_max();
    let background = problem.background_power();
    let config = SchedulerConfig {
        max_recursions,
        ..SchedulerConfig::default()
    };
    trace(problem.graph_mut(), p_max, background, &config)
}

#[test]
fn staircase_recursion_matches_the_golden_trace() {
    let config = SchedulerConfig::default();
    let actual = trace(
        &mut staircase(8),
        Power::from_watts(8),
        Power::ZERO,
        &config,
    );
    assert!(actual.contains("{\"event\":\"PowerRecursion\",\"depth\":8}"));
    check_golden("max_power_staircase8.jsonl", &actual);
}

#[test]
fn respin_that_succeeds_matches_the_golden_trace() {
    let actual = generated(36, 6, 2, 2, 1.0, 6);
    assert!(actual.contains("RespinStarted") && actual.ends_with("]}\n"));
    check_golden("max_power_respin_ok.jsonl", &actual);
}

#[test]
fn respin_that_fails_matches_the_golden_trace() {
    let actual = generated(5, 10, 3, 2, 0.95, 6);
    assert!(actual.contains("{\"event\":\"RespinStarted\",\"attempt\":4}"));
    check_golden("max_power_respin_fail.jsonl", &actual);
}

#[test]
fn default_limit_recursions_match_the_golden_digests() {
    let mut actual = digest("nested_respin_ok", &generated(0, 12, 4, 3, 1.05, 2_048));
    actual.push_str(&digest("respin_fail", &generated(18, 8, 2, 2, 0.95, 2_048)));
    check_golden("max_power_default_digests.txt", &actual);
}

/// The full golden files, line by line (with the pipeline's, whose
/// move lines carry exact `ρ` ratios): each event line reads
/// back through `TraceEvent::from_json` and re-encodes to the same
/// bytes, each outcome line (valid JSON, but no `"event"`) is an
/// error, and a dozen deterministic mutants of every line — cuts, bit
/// flips, and an inserted `\`, `"`, `{` or `[` — go through the
/// reader without a panic.
#[test]
fn golden_lines_round_trip_and_their_mutants_never_panic() {
    let mut rng = Lcg::new(0x5eed);
    let (mut lines, mut events, mut mutants) = (0, 0, 0);
    for file in [
        "max_power_staircase8.jsonl",
        "max_power_respin_ok.jsonl",
        "max_power_respin_fail.jsonl",
        "pipeline_small.jsonl",
    ] {
        let text = std::fs::read_to_string(golden_path(file)).expect("golden file exists");
        for line in text.lines() {
            lines += 1;
            match TraceEvent::from_json(line) {
                Ok(event) => {
                    assert!(!matches!(event, TraceEvent::Unknown { .. }), "{line}");
                    assert_eq!(event.to_json(), line);
                    events += 1;
                }
                Err(_) => {
                    assert!(json::parse(line).is_ok(), "{line}");
                    assert!(line.starts_with("{\"outcome\":"), "{line}");
                }
            }
            let variants = rng.mutants(line.as_bytes(), 4, &[b"\\", b"\"", b"{", b"["]);
            for variant in variants {
                if let Ok(event) = TraceEvent::from_json(&String::from_utf8_lossy(&variant)) {
                    let _ = event.to_json();
                }
                mutants += 1;
            }
        }
    }
    assert_eq!((lines, events, mutants), (1_443, 1_439, 17_316));
}
