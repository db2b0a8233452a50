//! Integration tests for the `impacct-cli` binary: real process
//! invocations over temp files.

use std::path::PathBuf;
use std::process::{Command, Output};

use pas_core::json::{self, Value};

const PROBLEM: &str = r#"
problem "cli-demo" {
  pmax 9W
  pmin 6W
  background 1W
  resource cpu compute
  resource radio other
  task sense on cpu delay 4s power 3W
  task uplink on radio delay 6s power 5W
  precedence sense -> uplink
  max sense -> uplink 30s
}
"#;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_impacct-cli"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("impacct-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("binary should spawn")
}

#[test]
fn schedule_prints_chart_and_metrics() {
    let problem = write_temp("p1.pasdl", PROBLEM);
    let out = run(&["schedule", problem.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== cli-demo =="));
    assert!(stdout.contains("Pmax"));
    assert!(stdout.contains("rho="));
}

#[test]
fn schedule_emits_parseable_schedule_and_svg() {
    let problem = write_temp("p2.pasdl", PROBLEM);
    let svg = problem.with_extension("svg");
    let out = run(&[
        "schedule",
        problem.to_str().unwrap(),
        "--quiet",
        "--emit-schedule",
        "--svg",
        svg.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.starts_with("schedule "),
        "emitted PASDL schedule: {stdout}"
    );

    // The emitted schedule validates cleanly through the validate
    // subcommand.
    let sched_path = write_temp("s2.pasdl", &stdout);
    let v = run(&[
        "validate",
        problem.to_str().unwrap(),
        sched_path.to_str().unwrap(),
    ]);
    assert!(v.status.success(), "{}", String::from_utf8_lossy(&v.stderr));
    assert!(String::from_utf8(v.stdout).unwrap().contains("VALID"));

    // And the SVG landed on disk.
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg"));
}

#[test]
fn report_flag_prints_the_summary_tables() {
    let problem = write_temp("p7.pasdl", PROBLEM);
    let out = run(&["schedule", problem.to_str().unwrap(), "--quiet", "--report"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("RESOURCE"));
    assert!(stdout.contains("uplink"));
    assert!(
        !stdout.contains("== cli-demo =="),
        "--quiet hides the chart"
    );
}

#[test]
fn validate_rejects_a_broken_schedule() {
    let problem = write_temp("p3.pasdl", PROBLEM);
    // uplink before sense completes: invalid.
    let schedule = write_temp(
        "s3.pasdl",
        "schedule \"bad\" { start sense 0s start uplink 1s }",
    );
    let out = run(&[
        "validate",
        problem.to_str().unwrap(),
        schedule.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("timing violation"));
}

#[test]
fn validate_rejects_trailing_input_after_the_schedule() {
    let problem = write_temp("p14.pasdl", PROBLEM);
    let out = run(&[
        "schedule",
        problem.to_str().unwrap(),
        "--quiet",
        "--emit-schedule",
    ]);
    assert!(out.status.success());
    let emitted = String::from_utf8(out.stdout).unwrap();
    let schedule = write_temp("s14.pasdl", &format!("{emitted}trailing junk here\n"));
    let v = run(&[
        "validate",
        problem.to_str().unwrap(),
        schedule.to_str().unwrap(),
    ]);
    assert!(!v.status.success());
    let stderr = String::from_utf8(v.stderr).unwrap();
    assert!(
        stderr.contains("trailing input after the schedule block"),
        "{stderr}"
    );
}

#[test]
fn print_round_trips_the_problem() {
    let problem = write_temp("p4.pasdl", PROBLEM);
    let out = run(&["print", problem.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("problem \"cli-demo\""));
    // Printing the printed output parses again (fixpoint).
    let round = write_temp("p4b.pasdl", &text);
    let out2 = run(&["print", round.to_str().unwrap()]);
    assert!(out2.status.success());
    assert_eq!(text, String::from_utf8(out2.stdout).unwrap());
}

#[test]
fn stage_selection_and_errors() {
    let problem = write_temp("p5.pasdl", PROBLEM);
    for stage in ["timing", "max", "min"] {
        let out = run(&[
            "schedule",
            problem.to_str().unwrap(),
            "--stage",
            stage,
            "--quiet",
        ]);
        assert!(out.status.success(), "stage {stage}");
    }
    let bad = run(&["schedule", problem.to_str().unwrap(), "--stage", "bogus"]);
    assert!(!bad.status.success());

    let missing = run(&["schedule", "/nonexistent/file.pasdl"]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot read"));

    let nocmd = run(&["frobnicate"]);
    assert!(!nocmd.status.success());
    assert!(String::from_utf8_lossy(&nocmd.stderr).contains("unknown command"));

    let help = run(&["--help"]);
    assert!(help.status.success());
}

#[test]
fn corners_flag_runs_corner_analysis() {
    let problem = write_temp(
        "p8.pasdl",
        r#"problem "corners" {
          pmax 9W
          pmin 5W
          resource cpu compute
          resource radio other
          task sense on cpu delay 4s power 3W corners 2W 5W
          task uplink on radio delay 6s power 5W corners 4W 7W
          precedence sense -> uplink
        }"#,
    );
    let out = run(&[
        "schedule",
        problem.to_str().unwrap(),
        "--quiet",
        "--corners",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("corner analysis:"));
    assert!(stdout.contains("min"));
    assert!(stdout.contains("max"));
    // Tasks never overlap (precedence), so even the max corner (7 W)
    // fits the 9 W budget.
    assert_eq!(stdout.matches("VALID").count(), 3, "{stdout}");
}

#[test]
fn restarts_flag_runs_the_portfolio() {
    let problem = write_temp("p9.pasdl", PROBLEM);
    let out = run(&[
        "schedule",
        problem.to_str().unwrap(),
        "--quiet",
        "--report",
        "--restarts",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout).unwrap().contains("tau="));
    let bad = run(&["schedule", problem.to_str().unwrap(), "--restarts", "x"]);
    assert!(!bad.status.success());
}

#[test]
fn unschedulable_problem_reports_failure() {
    // A single 12 W task under a 9 W budget can never fit.
    let problem = write_temp(
        "p6.pasdl",
        "problem \"hot\" { pmax 9W resource r task t on r delay 2s power 12W }",
    );
    let out = run(&["schedule", problem.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("scheduling failed"));
}

#[test]
fn trace_replay_explain_diff_round_trip() {
    let problem = write_temp("p10.pasdl", PROBLEM);
    let trace = problem.with_extension("jsonl");

    let out = run(&[
        "schedule",
        problem.to_str().unwrap(),
        "--quiet",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // replay: reconstructs and cross-checks, --live re-runs and compares.
    let out = run(&[
        "replay",
        problem.to_str().unwrap(),
        trace.to_str().unwrap(),
        "--live",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("live run matches the replayed schedule bit-identically"));
    assert!(stdout.contains("OK"));

    // explain: human and JSON forms for a real task.
    let out = run(&[
        "explain",
        problem.to_str().unwrap(),
        trace.to_str().unwrap(),
        "uplink",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let human = String::from_utf8(out.stdout).unwrap();
    assert!(human.contains("why"), "{human}");
    assert!(human.contains("\"uplink\""), "{human}");

    let out = run(&[
        "explain",
        problem.to_str().unwrap(),
        trace.to_str().unwrap(),
        "uplink",
        "--json",
    ]);
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"name\":\"uplink\""), "{json}");
    assert!(json.contains("\"chain\":["), "{json}");

    let out = run(&[
        "explain",
        problem.to_str().unwrap(),
        trace.to_str().unwrap(),
        "no-such-task",
    ]);
    assert!(!out.status.success());

    // diff: a trace against itself is clean; against a different run
    // (timing-only) it diverges with exit code 1.
    let out = run(&["diff", trace.to_str().unwrap(), trace.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("traces are identical"));

    let timing_trace = problem.with_extension("timing.jsonl");
    let out = run(&[
        "schedule",
        problem.to_str().unwrap(),
        "--quiet",
        "--stage",
        "timing",
        "--trace",
        timing_trace.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "diff",
        trace.to_str().unwrap(),
        timing_trace.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("first divergence"));
}

#[test]
fn explain_json_escapes_control_characters_in_task_names() {
    // A quoted PASDL name may hold a tab; the paper example with task
    // `a` renamed to "a<TAB>x" must still explain as valid JSON.
    let source = include_str!("../../../assets/paper_example.pasdl")
        .replace("task a on", "task \"a\tx\" on")
        .replace("min a ->", "min \"a\tx\" ->")
        .replace("max a ->", "max \"a\tx\" ->");
    let problem = write_temp("tab.pasdl", &source);
    let trace = problem.with_extension("jsonl");
    let (problem, trace) = (problem.to_str().unwrap(), trace.to_str().unwrap());
    let out = run(&["schedule", problem, "--quiet", "--trace", trace]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(&["explain", problem, trace, "a\tx", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON ({e}): {text:?}"));
    assert_eq!(doc.get("name").and_then(Value::as_str), Some("a\tx"));
}

#[test]
fn trace_dash_streams_jsonl_to_stdout() {
    let problem = write_temp("p11.pasdl", PROBLEM);
    let out = run(&[
        "schedule",
        problem.to_str().unwrap(),
        "--quiet",
        "--trace",
        "-",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // With --quiet, every stdout line is a JSON event object — the
    // stream stays machine-readable.
    assert!(stdout.lines().count() > 0);
    for line in stdout.lines() {
        assert!(
            line.starts_with("{\"event\":"),
            "non-JSONL line on stdout: {line:?}"
        );
    }

    // Without --quiet the chart joins stdout, but the trace summary
    // goes to stderr so it never corrupts the piped stream.
    let out = run(&["schedule", problem.to_str().unwrap(), "--trace", "-"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("trace events to stdout"));
}

#[test]
fn metrics_and_chrome_trace_files_are_written() {
    let problem = write_temp("p12.pasdl", PROBLEM);
    let prom = problem.with_extension("prom");
    let chrome = problem.with_extension("chrome.json");
    let out = run(&[
        "schedule",
        problem.to_str().unwrap(),
        "--quiet",
        "--metrics",
        prom.to_str().unwrap(),
        "--chrome-trace",
        chrome.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("# TYPE pas_events_total counter"));
    assert!(prom_text.contains("pas_events_total{counter=\"tasks_committed\"}"));
    assert!(prom_text.contains("pas_stage_latency_microseconds_bucket{le=\"+Inf\"}"));

    let chrome_text = std::fs::read_to_string(&chrome).unwrap();
    assert!(chrome_text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(chrome_text.contains("\"ph\":\"X\""));
}

#[test]
fn profile_writes_the_v2_report() {
    let problem = write_temp("p13.pasdl", PROBLEM);
    let report = problem.with_extension("profile.json");
    let out = run(&[
        "profile",
        problem.to_str().unwrap(),
        "--threads-list",
        "1,2",
        "--max-nodes",
        "2000",
        "--quiet",
        "--out",
        report.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(&report).unwrap();
    assert!(
        json.contains("\"schema\": \"impacct-profile/v2\""),
        "{json}"
    );
    for key in [
        "model",
        "tasks",
        "frontier",
        "available_parallelism",
        "max_nodes",
        "sample_every",
        "lint_bounds",
        "dominance",
        "prune_notes",
        "sweep",
        "diagnosis",
        "wall_s",
        "prunes",
        "budget_utilization",
        "branch_nodes_cov",
        "workers",
        "busy_fraction",
    ] {
        assert!(
            json.contains(&format!("\"{key}\": ")),
            "missing {key}: {json}"
        );
    }
    assert!(!json.contains("shared_min"), "{json}");
    assert!(!json.contains("shared_bound_wall_s"), "{json}");
    assert_eq!(json.matches("{\"threads\": ").count(), 2, "{json}");

    let report = json::parse(&json).unwrap_or_else(|e| panic!("invalid JSON ({e}): {json}"));
    let cause = report
        .get("diagnosis")
        .and_then(|diagnosis| diagnosis.get("dominant_cause"))
        .and_then(Value::as_str)
        .expect("a dominant cause");
    assert!(
        [
            "pool-capped",
            "frontier-shortage",
            "budget-skew",
            "idle-starvation",
            "none"
        ]
        .contains(&cause),
        "unexpected cause {cause:?}"
    );
}
