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
//! The full golden files double as the trace reader's hostile-input
//! corpus: every event line must read back to the same bytes, and no
//! mutant of any line may panic the reader.

mod support;

use impacct::core::json;
use impacct::core::Problem;
use impacct::graph::units::Power;
use impacct::graph::ConstraintGraph;
use impacct::obs::{RecordingObserver, TraceEvent};
use impacct::sched::{schedule_max_power_observed, SchedulerConfig};
use impacct::workload::{generate, GeneratorConfig, Topology};
use support::{staircase, Lcg};

/// Runs the max-power stage and renders its events and outcome.
fn trace(
    graph: &mut ConstraintGraph,
    p_max: Power,
    background: Power,
    config: &SchedulerConfig,
) -> String {
    let mut rec = RecordingObserver::new();
    let result = schedule_max_power_observed(graph, p_max, background, config, &mut rec);
    let mut out = String::new();
    for event in rec.into_events() {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    match result {
        Ok(sigma) => {
            let starts: Vec<String> = sigma.iter().map(|(_, t)| t.as_secs().to_string()).collect();
            out.push_str(&format!(
                "{{\"outcome\":\"ok\",\"starts\":[{}]}}\n",
                starts.join(",")
            ));
        }
        Err(e) => {
            out.push_str("{\"outcome\":\"error\",\"message\":\"");
            json::push_escaped(&mut out, &e.to_string());
            out.push_str("\"}\n");
        }
    }
    out
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

/// One summary line: event count, byte count, FNV-1a digest and the
/// outcome line.
fn digest(name: &str, trace: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in trace.bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    let lines: Vec<&str> = trace.lines().collect();
    format!(
        "{name} events={} bytes={} fnv1a64={hash:016x} {}\n",
        lines.len() - 1,
        trace.len(),
        lines.last().expect("an outcome line")
    )
}

fn golden_path(file: &str) -> String {
    format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn check(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file exists");
    assert!(
        actual == expected,
        "the max-power trace drifted from {path}; \
         run with BLESS=1 to regenerate after an intentional change"
    );
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
    check("max_power_staircase8.jsonl", &actual);
}

#[test]
fn respin_that_succeeds_matches_the_golden_trace() {
    let actual = generated(36, 6, 2, 2, 1.0, 6);
    assert!(actual.contains("RespinStarted") && actual.ends_with("]}\n"));
    check("max_power_respin_ok.jsonl", &actual);
}

#[test]
fn respin_that_fails_matches_the_golden_trace() {
    let actual = generated(5, 10, 3, 2, 0.95, 6);
    assert!(actual.contains("{\"event\":\"RespinStarted\",\"attempt\":4}"));
    check("max_power_respin_fail.jsonl", &actual);
}

#[test]
fn default_limit_recursions_match_the_golden_digests() {
    let mut actual = digest("nested_respin_ok", &generated(0, 12, 4, 3, 1.05, 2_048));
    actual.push_str(&digest("respin_fail", &generated(18, 8, 2, 2, 0.95, 2_048)));
    check("max_power_default_digests.txt", &actual);
}

/// The three full golden files, line by line: each event line reads
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
    assert_eq!((lines, events, mutants), (1_203, 1_200, 14_436));
}
