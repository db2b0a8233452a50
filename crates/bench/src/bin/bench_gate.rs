//! Bench regression gate: compares a freshly generated bench JSON
//! against the committed baseline and fails (non-zero exit) when any
//! speedup regresses by more than the tolerance.
//!
//! ```text
//! cargo run --release -p pas-bench --bin bench_gate -- \
//!     <baseline.json> <fresh.json> [--tolerance 0.25] [--measured-tolerance 0.5]
//! ```
//!
//! The gate compares **dimensionless speedup ratios**, never raw
//! wall-clock: `BENCH_incremental.json` speedups are incremental-vs-
//! full on the same run, and `BENCH_parallel.json` speedups are the
//! queue-model projection from per-attempt durations measured on the
//! same run. Both are stable across runner hardware, so a failure
//! means the *code* got slower (or the decomposition got worse), not
//! that CI drew a noisy neighbor.
//!
//! Rows carrying a `measured_speedup` (sequential measured wall over
//! this row's measured wall, from `bench_parallel`) are additionally
//! gated under the laxer `--measured-tolerance`: real wall-clock is
//! hardware-sensitive, but a collapse — the 8-thread cliff — still
//! trips the gate. The measured comparison only runs when *both*
//! baseline and fresh rows carry the field, so old baselines stay
//! valid.
//!
//! Deterministic decision counters are gated **exactly**: a row whose
//! baseline and fresh lines both carry one of [`COUNTERS`]
//! (`BENCH_incremental.json`'s cache hits, deltas and fallbacks,
//! `BENCH_lint.json`'s search nodes and bound prunes) fails unless the
//! values are equal, whatever the tolerance. A counter that moved
//! means the code now takes different decisions, which no timing
//! tolerance should absorb.
//!
//! The files are read as JSON documents: rows come from the
//! `"results"` array, and `host_cores` from the document's own field
//! or, failing that, its provenance object.
//!
//! Rows are keyed by `workload` (plus `threads` where present). A row
//! present in the baseline but missing from the fresh results fails
//! the gate; new rows in the fresh results are allowed (the next
//! baseline refresh picks them up).
//!
//! Thread-sweep wall-clock checks are **host-core-aware**: when the
//! fresh file carries a `host_cores` field and the host has fewer
//! cores than a row's thread count, that row's measured-wall-clock
//! comparison is skipped with a logged warning — an N-thread run
//! time-slicing fewer cores measures the OS scheduler, not the code.
//! The queue-model `speedup` comparison always runs (it is projected
//! from per-attempt durations and does not depend on core count).
//!
//! When the fresh file has ≥8 host cores, the gate additionally
//! enforces **threads monotonicity** on `generated_500`: the 8-thread
//! measured wall must be ≤ 1.05× the 4-thread wall. This is the
//! regression check for the "8-thread cliff".

use std::process::ExitCode;

use pas_core::json::{self, Value};

/// Deterministic decision counters, gated exactly when both the
/// baseline and the fresh row carry them.
const COUNTERS: [&str; 6] = [
    "cache_hits",
    "deltas",
    "fallbacks",
    "nodes_baseline",
    "nodes_bounded",
    "bound_prunes",
];

/// One comparable bench row.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    workload: String,
    threads: Option<u64>,
    speedup: f64,
    measured_speedup: Option<f64>,
    wall_ms: Option<f64>,
    /// The [`COUNTERS`] this row carries, in that order.
    counters: Vec<(&'static str, u64)>,
}

impl Row {
    fn key(&self) -> String {
        match self.threads {
            Some(t) => format!("{}@{}", self.workload, t),
            None => self.workload.clone(),
        }
    }
}

/// What the gate reads from one bench file.
struct BenchFile {
    rows: Vec<Row>,
    /// The core count the file was recorded with, when it says.
    host_cores: Option<u64>,
    provenance: Option<String>,
}

fn number(object: &Value, key: &str) -> Option<f64> {
    object.get(key).and_then(Value::as_f64)
}

/// Parses a bench JSON file. Every object in `"results"` with a
/// string `workload` and a numeric `speedup` is a row.
fn parse_bench(text: &str) -> Result<BenchFile, String> {
    let doc = json::parse(text).map_err(|e| format!("not a JSON document: {e}"))?;
    let results = doc.get("results").and_then(Value::as_array);
    let rows = results
        .unwrap_or_default()
        .iter()
        .filter_map(|row| {
            Some(Row {
                workload: row.get("workload")?.as_str()?.to_string(),
                threads: number(row, "threads").map(|t| t as u64),
                speedup: number(row, "speedup")?,
                measured_speedup: number(row, "measured_speedup"),
                wall_ms: number(row, "wall_ms"),
                counters: COUNTERS
                    .iter()
                    .filter_map(|&name| Some((name, number(row, name)? as u64)))
                    .collect(),
            })
        })
        .collect();
    let host_cores = number(&doc, "host_cores")
        .or_else(|| number(doc.get("provenance")?, "host_cores"))
        .map(|c| c as u64);
    Ok(BenchFile {
        rows,
        host_cores,
        provenance: parse_provenance(text),
    })
}

/// One message per counter both rows carry with different values.
fn counter_drift(baseline: &Row, fresh: &Row) -> Vec<String> {
    baseline
        .counters
        .iter()
        .filter_map(|&(name, b)| {
            let &(_, f) = fresh.counters.iter().find(|(n, _)| *n == name)?;
            (f != b).then(|| {
                format!(
                    "{}: counter {name} is {f}, baseline {b} (counters are gated exactly)",
                    baseline.key()
                )
            })
        })
        .collect()
}

/// The one-line `"provenance"` object a bench file was stamped with,
/// when present (absent in files written before the field existed).
/// Returned verbatim so a human can eyeball git SHA, hostname, and
/// core count without this binary having to model the object.
fn parse_provenance(text: &str) -> Option<String> {
    text.lines()
        .find(|l| l.contains("\"provenance\""))
        .map(|l| l.trim().trim_end_matches(',').to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut tolerance = 0.25f64;
    let mut measured_tolerance = 0.5f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                tolerance = it
                    .next()
                    .ok_or("--tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("bad tolerance: {e}"))?
            }
            "--measured-tolerance" => {
                measured_tolerance = it
                    .next()
                    .ok_or("--measured-tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("bad measured tolerance: {e}"))?
            }
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        return Err(
            "usage: bench_gate <baseline.json> <fresh.json> [--tolerance 0.25] \
             [--measured-tolerance 0.5]"
                .into(),
        );
    };
    let read = |path: &str| -> Result<BenchFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let file = parse_bench(&text).map_err(|e| format!("{path}: {e}"))?;
        if file.rows.is_empty() {
            return Err(format!("{path}: no bench rows found"));
        }
        Ok(file)
    };
    let BenchFile {
        rows: baseline,
        provenance: baseline_provenance,
        ..
    } = read(baseline_path)?;
    let BenchFile {
        rows: fresh,
        host_cores: fresh_host_cores,
        provenance: fresh_provenance,
    } = read(fresh_path)?;

    let mut failures = Vec::new();
    println!(
        "{:<28} {:>10} {:>10} {:>9}  verdict",
        "row", "baseline", "fresh", "ratio"
    );
    for b in &baseline {
        let Some(f) = fresh.iter().find(|f| f.key() == b.key()) else {
            println!(
                "{:<28} {:>10.3} {:>10} {:>9}  MISSING",
                b.key(),
                b.speedup,
                "-",
                "-"
            );
            failures.push(format!("{}: missing from fresh results", b.key()));
            continue;
        };
        let floor = b.speedup * (1.0 - tolerance);
        let ratio = f.speedup / b.speedup;
        let ok = f.speedup >= floor;
        println!(
            "{:<28} {:>9.3}x {:>9.3}x {:>8.2}x  {}",
            b.key(),
            b.speedup,
            f.speedup,
            ratio,
            if ok { "ok" } else { "REGRESSED" }
        );
        if !ok {
            failures.push(format!(
                "{}: speedup {:.3} fell below {:.3} (baseline {:.3}, tolerance {:.0}%)",
                b.key(),
                f.speedup,
                floor,
                b.speedup,
                tolerance * 100.0
            ));
        }
        for drift in counter_drift(b, f) {
            println!("{drift}  DRIFTED");
            failures.push(drift);
        }
        if let (Some(bm), Some(fm)) = (b.measured_speedup, f.measured_speedup) {
            // Wall-clock thread-sweep rows are only meaningful when
            // the fresh run actually had that many cores: time-sliced
            // threads measure the OS scheduler, not the code.
            if let (Some(host), Some(threads)) = (fresh_host_cores, f.threads) {
                if host < threads {
                    println!(
                        "{:<28} {:>10} {:>10} {:>9}  SKIPPED (measured: host has \
                         {host} core(s) < {threads} threads)",
                        b.key(),
                        "-",
                        "-",
                        "-"
                    );
                    continue;
                }
            }
            let floor = bm * (1.0 - measured_tolerance);
            let ok = fm >= floor;
            println!(
                "{:<28} {:>9.3}x {:>9.3}x {:>8.2}x  {} (measured)",
                b.key(),
                bm,
                fm,
                if bm > 0.0 { fm / bm } else { 0.0 },
                if ok { "ok" } else { "REGRESSED" }
            );
            if !ok {
                failures.push(format!(
                    "{}: measured speedup {:.3} fell below {:.3} (baseline {:.3}, \
                     measured tolerance {:.0}%)",
                    b.key(),
                    fm,
                    floor,
                    bm,
                    measured_tolerance * 100.0
                ));
            }
        }
    }
    // Threads-monotonicity check on the fresh sweep: going from 4 to
    // 8 workers must not cost wall-clock (≤ 5% slack) on the 500-task
    // workload — the 8-thread-cliff regression guard. Only meaningful
    // on a host that can actually run 8 threads in parallel.
    const MONO_WORKLOAD: &str = "generated_500";
    const MONO_SLACK: f64 = 1.05;
    let wall_at = |threads: u64| -> Option<f64> {
        fresh
            .iter()
            .find(|r| r.workload == MONO_WORKLOAD && r.threads == Some(threads))
            .and_then(|r| r.wall_ms)
    };
    match (fresh_host_cores, wall_at(4), wall_at(8)) {
        (Some(host), _, _) if host < 8 => {
            println!(
                "threads-monotonicity: SKIPPED (host has {host} core(s) < 8; \
                 an oversubscribed sweep cannot witness the cliff)"
            );
        }
        (None, _, _) => {
            println!("threads-monotonicity: SKIPPED (fresh file has no host_cores field)");
        }
        (Some(_), Some(w4), Some(w8)) => {
            let ok = w8 <= w4 * MONO_SLACK;
            println!(
                "threads-monotonicity ({MONO_WORKLOAD}): 4t {w4:.1} ms, 8t {w8:.1} ms  {}",
                if ok { "ok" } else { "REGRESSED" }
            );
            if !ok {
                failures.push(format!(
                    "{MONO_WORKLOAD}: 8-thread wall {w8:.1} ms exceeds {MONO_SLACK}x \
                     the 4-thread wall {w4:.1} ms (the 8-thread cliff)"
                ));
            }
        }
        (Some(_), w4, w8) => {
            println!(
                "threads-monotonicity: SKIPPED (missing {MONO_WORKLOAD} wall_ms rows: \
                 4t={w4:?}, 8t={w8:?})"
            );
        }
    }

    if failures.is_empty() {
        println!(
            "gate passed: {} row(s) within {:.0}%",
            baseline.len(),
            tolerance * 100.0
        );
        Ok(())
    } else {
        // A fired gate is where cross-machine comparisons bite, so
        // surface where each file came from next to the failures: a
        // baseline recorded on different hardware or an older commit
        // is the first thing to rule out.
        let mut msg = failures;
        msg.push(format!(
            "baseline provenance ({baseline_path}): {}",
            baseline_provenance.as_deref().unwrap_or("(not recorded)")
        ));
        msg.push(format!(
            "fresh provenance ({fresh_path}): {}",
            fresh_provenance.as_deref().unwrap_or("(not recorded)")
        ));
        Err(msg.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_provenance_returns_the_trimmed_line() {
        let text = "{\n  \"bench\": \"parallel\",\n  \"provenance\": \
                    {\"schema\": \"impacct-provenance/v1\", \"git_sha\": \"abc\"},\n\
                    \n  \"results\": [\n  ]\n}\n";
        let line = parse_provenance(text).unwrap();
        assert_eq!(
            line,
            "\"provenance\": {\"schema\": \"impacct-provenance/v1\", \"git_sha\": \"abc\"}"
        );
    }

    #[test]
    fn parse_provenance_is_none_for_old_files() {
        assert!(parse_provenance("{\n  \"bench\": \"parallel\"\n}\n").is_none());
    }

    const INCREMENTAL_ROW: &str = "{\"workload\": \"generated_500\", \"tasks\": 500, \
        \"incremental_ms\": 60.1, \"full_ms\": 1478.3, \"speedup\": 24.6, \
        \"cache_hits\": 1142, \"deltas\": 960, \"fallbacks\": 1}";

    /// The row of a one-row document around `object`.
    fn row(object: &str) -> Row {
        let doc = format!("{{\"results\": [{object}]}}");
        parse_bench(&doc)
            .expect("a bench document")
            .rows
            .pop()
            .expect("one row")
    }

    #[test]
    fn a_drifted_counter_fails() {
        let baseline = row(INCREMENTAL_ROW);
        let fresh = row(&INCREMENTAL_ROW.replace("\"deltas\": 960", "\"deltas\": 961"));
        assert_eq!(
            counter_drift(&baseline, &fresh),
            ["generated_500: counter deltas is 961, baseline 960 (counters are gated exactly)"]
        );
    }

    #[test]
    fn an_equal_counter_passes_whatever_the_timings() {
        let baseline = row(INCREMENTAL_ROW);
        let fresh = row(&INCREMENTAL_ROW.replace("60.1", "184.0"));
        assert_eq!(fresh.counters.len(), 3);
        assert!(counter_drift(&baseline, &fresh).is_empty());
        let lint = row(
            "{\"workload\": \"bnb_lint_bounds\", \"nodes_baseline\": 13097072, \
             \"nodes_bounded\": 501, \"bound_prunes\": 1, \"speedup\": 26141.9}",
        );
        assert_eq!(
            lint.counters,
            [
                ("nodes_baseline", 13_097_072),
                ("nodes_bounded", 501),
                ("bound_prunes", 1)
            ]
        );
        assert!(counter_drift(&lint, &lint.clone()).is_empty());
    }

    #[test]
    fn a_row_without_counters_is_unaffected() {
        let server = row("{\"workload\": \"server_fresh\", \"requests\": 300, \
             \"p50_us\": 450, \"speedup\": 1.0}");
        assert!(server.counters.is_empty());
        // A counter only one side carries is not gated either.
        assert!(counter_drift(&server, &row(INCREMENTAL_ROW)).is_empty());
        assert!(counter_drift(&row(INCREMENTAL_ROW), &server).is_empty());
    }

    #[test]
    fn provenance_line_is_not_mistaken_for_a_row() {
        let frag = pas_bench::provenance_json();
        let file = parse_bench(&format!("{{{frag}}}")).expect("a bench document");
        assert!(file.rows.is_empty());
        // The provenance host_cores is the same value bench_parallel
        // writes as its own header field, so a document with only the
        // provenance object still says how many cores it had.
        assert!(file.host_cores.is_some());
    }
}
