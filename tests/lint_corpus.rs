//! Lint corpus: every analyzer rule has a minimal PASDL witness under
//! `tests/lint_corpus/` that must make exactly that rule fire, and
//! the shipped example specs under `assets/` must stay error-clean.

use pas_lint::{lint_problem, LintCode, LintReport, Severity};
use pas_spec::parse_problem_spanned;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One witness spec per rule. `PAS006` (non-positive delay) has no
/// witness: the PASDL front-end cannot construct such a task — the
/// rule only guards programmatically built problems.
const CORPUS: [(&str, LintCode); 15] = [
    ("pas001_task_over_budget.pasdl", LintCode::TaskOverBudget),
    ("pas002_self_loop.pasdl", LintCode::SelfLoop),
    ("pas003_duplicate_edge.pasdl", LintCode::DuplicateEdge),
    ("pas004_dangling_resource.pasdl", LintCode::DanglingResource),
    (
        "pas005_background_over_budget.pasdl",
        LintCode::BackgroundOverBudget,
    ),
    ("pas010_positive_cycle.pasdl", LintCode::PositiveCycle),
    ("pas011_redundant_edge.pasdl", LintCode::RedundantEdge),
    (
        "pas012_deadline_unreachable.pasdl",
        LintCode::DeadlineUnreachable,
    ),
    (
        "pas020_forced_overlap_power.pasdl",
        LintCode::ForcedOverlapPower,
    ),
    ("pas021_window_overload.pasdl", LintCode::WindowOverload),
    ("pas022_hopeless_pmin.pasdl", LintCode::HopelessUtilization),
    (
        "pas030_forced_resource_overlap.pasdl",
        LintCode::ForcedResourceOverlap,
    ),
    (
        "pas040_energy_window.pasdl",
        LintCode::EnergyInfeasibleWindow,
    ),
    (
        "pas041_demand_over_capacity.pasdl",
        LintCode::DemandOverCapacity,
    ),
    (
        "pas042_tightened_deadline.pasdl",
        LintCode::TightenedDeadlineMiss,
    ),
];

/// Feasible instances one notch away from the deep witnesses above.
/// The deep passes must stay silent on them: their certificates are
/// checker-validated before emission, so a diagnostic here would be a
/// provable false positive.
const NEAR_MISSES: [&str; 3] = [
    "near_miss_pas040.pasdl",
    "near_miss_pas041.pasdl",
    "near_miss_pas042.pasdl",
];

fn lint_file(path: &Path) -> LintReport {
    let source = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let spanned = parse_problem_spanned(&source)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
    lint_problem(&spanned.problem, &spanned.spans)
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus")
}

#[test]
fn every_corpus_spec_fires_its_code_with_spans() {
    for (file, code) in CORPUS {
        let report = lint_file(&corpus_dir().join(file));
        let found = report.diagnostics().iter().find(|d| d.code == code);
        let Some(d) = found else {
            panic!(
                "{file}: expected {code} but report was {:?}",
                report
                    .diagnostics()
                    .iter()
                    .map(|d| d.code.as_str())
                    .collect::<Vec<_>>()
            );
        };
        assert_eq!(d.severity, code.severity(), "{file}: severity drifted");
        assert!(
            d.primary_span().is_some(),
            "{file}: {code} carries no source span"
        );
    }
}

#[test]
fn corpus_covers_at_least_eight_distinct_codes() {
    let codes: BTreeSet<&str> = CORPUS.iter().map(|(_, c)| c.as_str()).collect();
    assert!(codes.len() >= 8, "only {} codes covered", codes.len());
}

#[test]
fn error_witnesses_are_error_level_rejects() {
    for (file, code) in CORPUS {
        let report = lint_file(&corpus_dir().join(file));
        if code.severity() == Severity::Error {
            assert!(
                report.has_errors(),
                "{file}: expected an error-level report"
            );
        }
    }
}

#[test]
fn shipped_specs_lint_error_clean() {
    let assets = Path::new(env!("CARGO_MANIFEST_DIR")).join("assets");
    let mut checked = 0;
    for entry in std::fs::read_dir(&assets).expect("assets/ directory") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "pasdl") {
            let report = lint_file(&path);
            assert_eq!(
                report.error_count(),
                0,
                "{}: shipped spec has lint errors: {:?}",
                path.display(),
                report.diagnostics()
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "expected the four shipped specs, saw {checked}"
    );
}

/// Parses a corpus spec and lints it, keeping the problem around for
/// certificate verification.
fn lint_file_with_problem(path: &Path) -> (impacct::core::Problem, LintReport) {
    let source = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let spanned = parse_problem_spanned(&source)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
    let report = lint_problem(&spanned.problem, &spanned.spans);
    (spanned.problem, report)
}

#[test]
fn deep_witnesses_carry_verified_certificates() {
    let deep = [
        LintCode::EnergyInfeasibleWindow,
        LintCode::DemandOverCapacity,
        LintCode::TightenedDeadlineMiss,
    ];
    for (file, code) in CORPUS {
        if !deep.contains(&code) {
            continue;
        }
        let (problem, report) = lint_file_with_problem(&corpus_dir().join(file));
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("{file}: {code} did not fire"));
        let cert = d
            .certificate
            .as_ref()
            .unwrap_or_else(|| panic!("{file}: {code} carries no certificate"));
        pas_lint::verify_certificate(&problem, cert)
            .unwrap_or_else(|e| panic!("{file}: certificate rejected: {e}"));
    }
}

#[test]
fn near_misses_stay_clean_of_deep_diagnostics() {
    for file in NEAR_MISSES {
        let report = lint_file(&corpus_dir().join(file));
        assert_eq!(
            report.error_count(),
            0,
            "{file}: near-miss negative must lint error-clean, got {:?}",
            report
                .diagnostics()
                .iter()
                .map(|d| d.code.as_str())
                .collect::<Vec<_>>()
        );
    }
}
