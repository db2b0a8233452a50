//! Golden test: the rendered diagnostics for the whole lint corpus
//! are locked byte-for-byte, in both the rustc-style human form and
//! the JSON form (certificates included). Any change to spans,
//! wording, severities, certificate payloads, or JSON escaping shows
//! up as a reviewable diff here instead of silently reaching users.
//!
//! Regenerate with `BLESS=1 cargo test --test golden_lint` after an
//! intentional format change, and review the diff like any other
//! code.

use pas_lint::{lint_problem, render_human, render_json, SourceFile};
use pas_spec::parse_problem_spanned;
use std::path::PathBuf;

const HUMAN_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lint_corpus.human.txt"
);
const JSON_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_corpus.json");

/// Renders every corpus spec (sorted by file name for determinism)
/// into one human transcript and one JSON-lines transcript.
fn render_corpus() -> (String, String) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint_corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus dir exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .filter(|n| n.ends_with(".pasdl"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "empty corpus");

    let mut human = String::new();
    let mut json = String::new();
    for name in &names {
        let source = std::fs::read_to_string(dir.join(name)).expect("readable spec");
        let spanned = parse_problem_spanned(&source).expect("corpus specs parse");
        let report = lint_problem(&spanned.problem, &spanned.spans);
        let file = SourceFile {
            name,
            text: &source,
        };
        human.push_str(&format!("== {name} ==\n"));
        if report.is_empty() {
            human.push_str("clean\n");
        } else {
            human.push_str(&render_human(&report, Some(file)));
        }
        human.push('\n');
        json.push_str(&render_json(&report, Some(file)));
        json.push('\n');
    }
    (human, json)
}

#[test]
fn corpus_renders_match_the_golden_files() {
    let (human, json) = render_corpus();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(HUMAN_GOLDEN, &human).expect("write human golden");
        std::fs::write(JSON_GOLDEN, &json).expect("write json golden");
        return;
    }
    let expected_human = std::fs::read_to_string(HUMAN_GOLDEN).expect("human golden exists");
    let expected_json = std::fs::read_to_string(JSON_GOLDEN).expect("json golden exists");
    assert_eq!(
        human, expected_human,
        "human renders drifted from the golden file; \
         run with BLESS=1 to regenerate after an intentional change"
    );
    assert_eq!(
        json, expected_json,
        "JSON renders drifted from the golden file; \
         run with BLESS=1 to regenerate after an intentional change"
    );
}
