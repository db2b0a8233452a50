//! Instances and a mutator shared by several integration tests. Each
//! test binary uses only some of them.

#![allow(dead_code)]

use impacct::core::{json, Schedule};
use impacct::graph::units::{Power, Time, TimeSpan};
use impacct::graph::{ConstraintGraph, Resource, ResourceKind, Task};
use impacct::obs::TraceEvent;

/// `k` locked 6 W, 2 s tasks back to back, and one free 6 W, 2 s task
/// tied to a 0 W partner by an exact 2 s separation. Under an 8 W
/// budget the free task has no slack, so each locked step it collides
/// with costs the max-power stage one nested reschedule: `k` steps
/// nest `k + 1` levels.
pub fn staircase(k: usize) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    let two = TimeSpan::from_secs(2);
    for i in 0..k {
        let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
        let t = g.add_task(Task::new(format!("s{i}"), r, two, Power::from_watts(6)));
        g.lock(t, Time::from_secs(2 * i as i64));
    }
    let r = g.add_resource(Resource::new("X", ResourceKind::Compute));
    let x = g.add_task(Task::new("x", r, two, Power::from_watts(6)));
    let r = g.add_resource(Resource::new("Y", ResourceKind::Compute));
    let y = g.add_task(Task::new("y", r, two, Power::ZERO));
    g.min_separation(x, y, two);
    g.max_separation(x, y, two);
    g
}

/// A 64-bit LCG (Knuth's MMIX constants): deterministic, no deps. The
/// hostile-input sweeps draw their mutation points from it.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed)
    }

    /// The next draw, reduced into `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % n
    }

    /// Mutants of a non-empty `bytes`: `rounds` pairs of a cut at a
    /// random length and a random bit flip, then one copy per entry of
    /// `inserts` with that entry spliced in at a random point.
    pub fn mutants(&mut self, bytes: &[u8], rounds: usize, inserts: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut variants = Vec::new();
        for _ in 0..rounds {
            variants.push(bytes[..self.below(bytes.len())].to_vec());
            let mut flipped = bytes.to_vec();
            flipped[self.below(bytes.len())] ^= 1 << self.below(8);
            variants.push(flipped);
        }
        for insert in inserts {
            let at = self.below(bytes.len() + 1);
            let mut inserted = bytes.to_vec();
            inserted.splice(at..at, insert.iter().copied());
            variants.push(inserted);
        }
        variants
    }
}

/// A golden trace: one `to_json` line per event, then one
/// `{"outcome": …}` line with the schedule's start times or the error.
pub fn render_trace(events: &[TraceEvent], result: Result<&Schedule, String>) -> String {
    let mut out = String::new();
    for event in events {
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
        Err(message) => {
            out.push_str("{\"outcome\":\"error\",\"message\":\"");
            json::push_escaped(&mut out, &message);
            out.push_str("\"}\n");
        }
    }
    out
}

/// One summary line of a rendered trace: event count, byte count,
/// 64-bit FNV-1a digest and the outcome line.
pub fn digest(name: &str, trace: &str) -> String {
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

/// The path of a file under `tests/golden/`.
pub fn golden_path(file: &str) -> String {
    format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Compares `actual` with the golden `file`, or rewrites the file when
/// `BLESS` is set.
pub fn check_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file exists");
    assert!(
        actual == expected,
        "the trace drifted from {path}; \
         run with BLESS=1 to regenerate after an intentional change"
    );
}
