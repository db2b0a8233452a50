//! Golden test: `parse_problem_spanned` on hostile PASDL text.
//!
//! Every file in `assets/` and `tests/lint_corpus/`, a hand-written
//! spec using every statement, and generated 32-task and 200-task
//! specs seed a deterministic mutator: cuts, bit flips (read as lossy
//! UTF-8, so U+FFFD reaches the non-ASCII paths), and spliced-in
//! punctuation, comment and string openers, newlines, non-ASCII
//! letters and spaces, and digit runs that overflow. No mutant may
//! panic the parser, and each one's outcome must equal the line
//! recorded in `tests/golden/pasdl_mutants.txt`: the `ParseError` as
//! displayed, or a digest of the canonical print (corners included)
//! and of every span the `SpanTable` hands out.
//!
//! Regenerate with `BLESS=1 cargo test --test golden_pasdl` after an
//! intentional change, and review the diff like any other code.

mod support;

use impacct::core::Problem;
use impacct::graph::units::Power;
use impacct::lint::Span;
use impacct::spec::{parse_problem_spanned, print_problem, print_problem_full, SpannedProblem};
use impacct::workload::{generate, GeneratorConfig, Topology};
use std::fmt::Write as _;
use std::path::Path;
use support::Lcg;

/// Every statement kind, decimals, corners, quoted names, comments and
/// negative separations.
const EVERY_STATEMENT: &str = r#"# every statement once
problem "sweep #1" {
  pmax 20.5W
  pmin 2.125W
  background 0.5W   # always on
  deadline 90s
  resource A compute
  resource "heater #1" thermal
  resource M mechanical
  resource O other
  resource bare
  task a on A delay 5s power 6W corners 5W 7.25W
  task "warm up" on "heater #1" delay 3s power 2W
  task m_2 on M delay 10s power 0W
  precedence a -> "warm up"
  min a -> m_2 -5s
  max "warm up" -> m_2 40s
}
"#;

/// Snippets spliced into every seed, each at its own random point.
const INSERTS: [&[u8]; 12] = [
    b"\"",
    b"{",
    b"}",
    b"-",
    b">",
    b"#",
    b"\n",
    "\u{e9}t\u{e9}".as_bytes(),
    "\u{a0}".as_bytes(),
    "x\u{663}".as_bytes(),
    b"99999999999999999999",
    b" 9223372036854775807W",
];

fn golden_path() -> String {
    format!(
        "{}/tests/golden/pasdl_mutants.txt",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The seeds: repository specs in name order, then the inline and
/// generated ones.
fn seeds() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut seeds = Vec::new();
    for dir in ["assets", "tests/lint_corpus"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .expect("spec directory")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "pasdl"))
            .collect();
        files.sort();
        for path in files {
            let name = format!("{dir}/{}", path.file_name().unwrap().to_string_lossy());
            seeds.push((name, std::fs::read_to_string(&path).expect("spec file")));
        }
    }
    seeds.push(("every_statement".into(), EVERY_STATEMENT.into()));
    for seed in [1, 2] {
        let problem: Problem = generate(&GeneratorConfig {
            seed,
            tasks: 32,
            ..GeneratorConfig::default()
        });
        seeds.push((format!("generated_32_seed{seed}"), print_problem(&problem)));
    }
    let problem: Problem = generate(&GeneratorConfig {
        seed: 1,
        tasks: 200,
        resources: 16,
        topology: Topology::Layered { layers: 8 },
        window_margin: 8.0,
        ..GeneratorConfig::default()
    });
    seeds.push(("generated_200_seed1".into(), print_problem(&problem)));
    seeds
}

/// FNV-1a 64 of the canonical print with corners, then every span the
/// table hands out: the headers, and each task, resource and edge by
/// id.
fn digest(parsed: &SpannedProblem) -> u64 {
    let graph = parsed.problem.graph();
    let spans = &parsed.spans;
    let mut text = print_problem_full(&parsed.problem, Some(&parsed.ranges));
    let headers = [
        spans.problem,
        spans.pmax,
        spans.pmin,
        spans.background,
        spans.deadline,
    ];
    let _ = writeln!(text, "{headers:?}");
    let tasks: Vec<Option<Span>> = graph.tasks().map(|(id, _)| spans.task(id)).collect();
    let resources: Vec<Option<Span>> = graph
        .resources()
        .map(|(id, _)| spans.resource(id))
        .collect();
    let edges: Vec<Option<Span>> = graph.edges().map(|(id, _)| spans.edge(id)).collect();
    let _ = writeln!(text, "{tasks:?}\n{resources:?}\n{edges:?}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per input: its name, its index among the seed's inputs
/// (0 is the unmutated seed) and its outcome.
fn outcome(name: &str, index: usize, source: &str) -> String {
    match parse_problem_spanned(source) {
        Ok(parsed) => {
            // The problem is usable: its envelope holds.
            let c = parsed.problem.constraints();
            assert!(Power::ZERO <= c.p_min() && c.p_min() <= c.p_max());
            assert!(parsed.problem.background_power() >= Power::ZERO);
            format!("{name}#{index} ok {:016x}\n", digest(&parsed))
        }
        Err(e) => format!("{name}#{index} error {:?}\n", e.to_string()),
    }
}

#[test]
fn mutated_specs_parse_to_the_golden_outcomes() {
    let mut rng = Lcg::new(0x9a5d1);
    let mut actual = String::new();
    let mut inputs = 0;
    for (name, text) in seeds() {
        actual.push_str(&outcome(&name, 0, &text));
        inputs += 1;
        // The 200-task seed takes one pass: its parses cost the most.
        let passes = if text.len() > 20_000 { 1 } else { 2 };
        let mut index = 0;
        for _ in 0..passes {
            for variant in rng.mutants(text.as_bytes(), 8, &INSERTS) {
                index += 1;
                let source = String::from_utf8_lossy(&variant);
                actual.push_str(&outcome(&name, index, &source));
                inputs += 1;
            }
        }
    }
    assert!(inputs > 1_000, "{inputs} inputs");

    let path = golden_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file exists");
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(got, want, "a PASDL outcome drifted from {path}");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "the sweep's input count drifted from {path}"
    );
}
