//! End-to-end and per-layer benchmark of the power-aware planner and
//! the `pas-server` daemon. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics of an untraced run, `--trace 1` the
//! per-layer metrics of a traced run. `--repeat-check` instead runs the
//! workload twice on one seed and exits non-zero unless every
//! deterministic count repeats exactly.

mod layers;
mod plan;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;

use report::Report;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics of a traced run.
    pub trace: bool,
    /// Run twice and compare deterministic counts.
    pub repeat_check: bool,
}

/// A run that cannot report a result.
#[derive(Debug)]
pub struct RunError(pub String);

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["plan_large", "plan_exact", "plan_verdict", "serve_mix"];

/// Metrics that must repeat exactly on one seed: outcome quality and
/// decision counts, never wall-clock.
const DETERMINISTIC: [&str; 24] = [
    "solved_share",
    "finish_stretch",
    "quality.battery_share",
    "utilization_mean",
    "run.fail_share",
    "min_power.moves_accepted",
    "min_power.moves_rejected",
    "exact.nodes",
    "exact.pruned_bound",
    "exact.pruned_dominance",
    "exact.win_ratio",
    "timing.backtracks",
    "timing.serializations",
    "graph.spfa_hits",
    "graph.spfa_deltas",
    "graph.spfa_fallbacks",
    "max_power.spike_delays",
    "max_power.recursions",
    "lint.rejections",
    "verdict.skipped",
    "cache.exact_hits",
    "cache.region_hits",
    "cache.misses",
    "cache.incremental",
];

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat_check = false;
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat-check" => repeat_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        repeat_check,
    })
}

fn run(args: &Args) -> Result<Report, RunError> {
    let mut report = Report::default();
    if plan::is_plan(&args.workload) {
        plan::run(args, &mut report)?;
    } else {
        serve::run(args, &mut report)?;
    }
    let missing = report.missing(args.trace);
    if !missing.is_empty() {
        return Err(RunError(format!("metrics not reported: {missing:?}")));
    }
    Ok(report)
}

fn provenance(args: &Args) -> String {
    // Keep git's repository search inside the working directory: the
    // benchmark reads nothing outside its checkout.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    format!(
        "{{{}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        pas_bench::provenance_json(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// Runs the workload twice on one seed (traced, so decision counts are
/// recorded) and compares every deterministic metric.
fn repeat_check(args: &Args) -> Result<(), RunError> {
    let traced = Args {
        trace: true,
        ..args.clone()
    };
    let first = run(&traced)?;
    let second = run(&traced)?;
    let mut mismatches = Vec::new();
    for name in DETERMINISTIC {
        let (a, b) = (first.value(name), second.value(name));
        println!("{name:<28} {:>16} {:>16}", fmt(a), fmt(b));
        if a != b {
            mismatches.push(name);
        }
    }
    if first.failed != 0 || second.failed != 0 {
        return Err(RunError(format!(
            "failed operations: {} then {}",
            first.failed, second.failed
        )));
    }
    if mismatches.is_empty() {
        println!(
            "repeat check passed: {} counts repeat exactly",
            DETERMINISTIC.len()
        );
        Ok(())
    } else {
        Err(RunError(format!(
            "counts differ between runs: {mismatches:?}"
        )))
    }
}

fn fmt(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.repeat_check {
        return match repeat_check(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: repeat check failed: {}", e.0);
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            let correct = report.failed == 0;
            report.print(args.trace, correct, &provenance(&args));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}", e.0);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn command_line_arguments_parse() {
        let args = parse("--workload serve_mix --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(args.workload, "serve_mix");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace && !args.repeat_check);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload plan_large").is_err());
        assert!(parse("--workload plan_large --seed 1 --trace 2").is_err());
        assert!(parse("--workload plan_large --seed 1 --seconds 0").is_err());
        assert!(parse("--workload plan_large --seed 1 --bogus").is_err());
    }

    #[test]
    fn deterministic_metrics_are_reported_metrics() {
        for name in DETERMINISTIC {
            assert!(
                report::END_TO_END.contains(&name) || report::PER_LAYER.contains(&name),
                "{name}"
            );
        }
    }
}
