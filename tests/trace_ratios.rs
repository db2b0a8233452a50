//! Exact `ρ` ratios near `i128::MAX` in a JSONL trace are read,
//! compared and reported as a divergence, never a panic.
//!
//! The trace reader accepts any non-negative numerator over any
//! positive denominator in `"rho"` and `"rho_after"`. `Ratio` keeps its
//! value unreduced and compares by cross multiplication when both
//! products fit `i128`, so these lines reach its overflow-free fallback
//! through `TraceEvent`'s `==`, `diff_traces` and `cross_check`, and
//! its `Display` through the diff report.

use impacct::core::example::paper_example;
use impacct::core::{Problem, Ratio};
use impacct::obs::{RecordingObserver, TraceEvent};
use impacct::replay::{cross_check, diff_traces, Replay};
use impacct::sched::PowerAwareScheduler;

const MAX: i128 = i128::MAX;

/// The paper example before scheduling, the JSONL lines of its
/// pipeline trace, and the final `ρ`.
fn recorded() -> (Problem, Vec<String>, Ratio) {
    let (mut problem, _) = paper_example();
    let original = problem.clone();
    let mut rec = RecordingObserver::new();
    let live = PowerAwareScheduler::default()
        .schedule_with(&mut problem, &mut rec)
        .expect("the paper example schedules");
    let lines = rec.into_events().iter().map(TraceEvent::to_json).collect();
    (original, lines, live.analysis.utilization)
}

fn read(lines: &[String]) -> Vec<TraceEvent> {
    lines
        .iter()
        .map(|line| TraceEvent::from_json(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect()
}

/// `lines` with the ratio under `key` in line `at` replaced by
/// `num/den`.
fn with_ratio(lines: &[String], at: usize, key: &str, (num, den): (i128, i128)) -> Vec<String> {
    let mut lines = lines.to_vec();
    let line = &lines[at];
    let field = format!("\"{key}\":\"");
    let start = line.find(&field).expect("the key is present") + field.len();
    let end = start + line[start..].find('"').expect("a closing quote");
    lines[at] = format!("{}{num}/{den}{}", &line[..start], &line[end..]);
    lines
}

#[test]
fn extreme_ratios_report_a_divergence_and_never_panic() {
    let (problem, lines, rho) = recorded();
    let original = Replay::from_events(read(&lines));
    assert!(cross_check(&problem, &original).is_ok());

    let outcome = lines
        .iter()
        .rposition(|l| l.contains("\"rho\":\""))
        .expect("an OutcomeRecorded line");
    let rejected = lines
        .iter()
        .position(|l| l.starts_with("{\"event\":\"MoveRejected\""))
        .expect("a MoveRejected line");
    let (num, den) = rho.reduced();
    let scale = MAX / den;
    let values = [
        (MAX, 1),
        (MAX - 1, 1),
        (MAX, MAX - 1),
        (MAX - 1, MAX - 2),
        (1, MAX),
        (0, MAX),
        (MAX, MAX),
        (MAX / 3, MAX / 7),
        (MAX / 7, MAX / 3),
        // The true `ρ`, scaled until the cross products overflow.
        (num * scale, den * scale),
    ];

    let mut divergences = 0;
    for (at, key) in [(outcome, "rho"), (rejected, "rho_after")] {
        let was = read(&lines[at..=at]).remove(0);
        for value in values {
            let mutated = with_ratio(&lines, at, key, value);
            let events = read(&mutated);
            let decoded = Ratio::new(value.0, value.1);
            let (rn, rd) = decoded.reduced();
            assert!(events[at]
                .to_json()
                .contains(&format!("\"{key}\":\"{rn}/{rd}\"")));
            let unchanged = events[at] == was;
            let truth = match &was {
                TraceEvent::OutcomeRecorded { utilization, .. } => *utilization,
                TraceEvent::MoveRejected { rho_after, .. } => *rho_after,
                other => panic!("unexpected event {other:?}"),
            };
            assert_eq!(unchanged, decoded == truth, "{key} = {value:?}");

            let replay = Replay::from_events(events);
            let diff = diff_traces(&original, &replay);
            let report = diff.render();
            assert_eq!(diff.is_clean(), unchanged, "{key} = {value:?}: {report}");
            if !unchanged {
                assert!(report.contains(&format!("first divergence at event {at}")));
                divergences += 1;
            }

            let checked = cross_check(&problem, &replay);
            if key == "rho" && !unchanged {
                let errors = checked.expect_err("a wrong ρ must not cross-check");
                assert!(
                    errors.iter().any(|e| e.starts_with("utilization diverges")),
                    "{errors:?}"
                );
            } else {
                assert!(checked.is_ok(), "{key} = {value:?}");
            }
        }
    }
    assert!(divergences >= 2 * (values.len() - 3), "{divergences}");
}
