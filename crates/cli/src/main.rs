//! `impacct-cli` — drive the power-aware scheduler from PASDL files.
//!
//! ```text
//! impacct-cli schedule <problem.pasdl> [--stage timing|max|min]
//!                      [--svg <out.svg>] [--emit-schedule] [--report]
//!                      [--corners] [--restarts <n>] [--seed <n>] [--quiet]
//!                      [--threads off|auto|<n>]
//!                      [--trace <out.jsonl|->] [--profile] [--no-incremental]
//!                      [--no-lint-bounds] [--no-dominance]
//!                      [--metrics <out.prom>] [--chrome-trace <out.json>]
//! impacct-cli replay <problem.pasdl> <trace.jsonl> [--stage timing|max|min]
//!                    [--live] [--restarts <n>] [--threads off|auto|<n>]
//!                    [--seed <n>]
//! impacct-cli explain <problem.pasdl> <trace.jsonl> <task-name>
//!                     [--stage timing|max|min] [--json]
//! impacct-cli diff <a.jsonl> <b.jsonl>
//! impacct-cli validate <problem.pasdl> <schedule.pasdl>
//! impacct-cli lint <problem.pasdl> [--format human|json]
//!                  [--fix [--fix-maybe-incorrect]]
//! impacct-cli lint --explain PASnnn       # extended per-code help
//! impacct-cli print <problem.pasdl>       # parse + pretty-print
//! impacct-cli generate <tasks> [--seed <n>] [--layers <n>]  # synthetic PASDL
//! impacct-cli profile <problem.pasdl> [--threads-list 1,2,4,8]
//!                     [--max-nodes <n>] [--sample-every <n>] [--lint-bounds]
//!                     [--dominance]
//!                     [--out BENCH_profile.json] [--chrome-trace <out.json>]
//!                     [--metrics <out.prom>] [--collapsed <out.txt>] [--quiet]
//! impacct-cli serve [--addr <host:port>] [--workers <n>] [--window <secs>]
//!                   [--slow-ms <n>] [--audit <dir>] [--sessions <n>]
//!                   [--max-inflight <n>] [--queue-depth <n>] [--keep-alive on|off]
//!                   [--keep-alive-requests <n>] [--header-timeout-ms <n>]
//!                   [--idle-timeout-ms <n>] [--retry-after <secs>]
//! impacct-cli top [--addr <host:port>] [--interval-ms <n>] [--once]
//! ```
//!
//! `schedule` runs the pipeline up to the requested stage (default
//! `min`, the full pipeline), prints the power-aware Gantt chart and
//! metrics, and optionally writes an SVG and/or the schedule as
//! PASDL. `--threads` enables the deterministic parallel engine
//! (portfolio fan-out and frontier-split branch and bound); the
//! schedule is bit-identical for any
//! thread count, and with a trace enabled the per-attempt buffers
//! are stitched in attempt order so traces are identical too. `--trace` streams every scheduling decision as JSONL
//! [`pas_obs::TraceEvent`]s (`-` streams to stdout for piping);
//! `--profile` prints a per-stage profile table; `--metrics` writes a
//! Prometheus text exposition of the run's counters and histograms;
//! `--chrome-trace` writes the stage spans as a Chrome-trace JSON
//! loadable in Perfetto; `--no-incremental` disables the incremental
//! scheduling engine (delta longest paths + cached power profiles,
//! DESIGN.md §10) and forces full recomputation — results are
//! identical, only slower, so the flag exists for ablation and
//! cross-checking. `--no-lint-bounds` likewise disables the
//! lint-derived admissible pruning bounds the exact stage feeds its
//! branch and bound (DESIGN.md §14): schedules stay bit-identical,
//! the search just explores more nodes. `--no-dominance` disables
//! dominance/symmetry breaking on interchangeable tasks (DESIGN.md
//! §15, on by default) — again bit-identical schedules, more nodes.
//!
//! `replay` reconstructs the schedule recorded in a trace and
//! cross-checks it against the problem (bit-exact metrics, every
//! binding re-validated); `--live` additionally re-runs the scheduler
//! and requires the reconstruction to match it bit-identically.
//! `explain` prints the causal "why this start time" report for one
//! task. `diff` aligns two traces and exits non-zero when they
//! diverge.
//!
//! `validate` checks a hand-written schedule against a
//! problem, reporting every violation. `lint` runs the `pas-lint`
//! static passes (including the deep abstract-interpretation
//! `PAS04x` family, whose Deny diagnostics carry machine-checkable
//! infeasibility certificates) over a problem without scheduling it
//! and exits non-zero when any error-level diagnostic fires.
//! `lint --fix` rewrites the file in place by applying the
//! machine-applicable fix suggestions (add `--fix-maybe-incorrect`
//! to also take deadline rewrites), round-tripping the result
//! through the parser before writing; `lint --explain PASnnn`
//! prints the extended rustc-style help for one code.
//!
//! `profile` sweeps the frontier-split exact branch-and-bound over a
//! list of thread counts and reports, per count, the worker threads
//! the pool actually spawned, the measured wall time, per-worker
//! busy/idle fractions, the prune-reason breakdown, and per-branch
//! budget utilization — then runs an explicit heuristic over the
//! evidence to name the dominant cause of any parallel regression (a
//! pool capped below the requested workers, frontier shortage, budget
//! skew, or generic starvation). The search telemetry is deterministic
//! (node-count-sampled, DESIGN.md §12/§13), and the command
//! cross-checks that the trace is byte-identical at every thread
//! count; wall-clock numbers come from the `pas-par` side channel
//! (`PoolProfile`) and are never traced. Results are written as
//! `BENCH_profile.json` (schema `impacct-profile/v2`).
//!
//! `serve` boots the `pas-server` daemon (see that crate's docs for
//! the endpoint surface) and blocks until SIGTERM or
//! `POST /shutdown` drains it; `top` polls the daemon's `/metrics`
//! and `/slowlog` into a refreshing terminal dashboard, validating
//! every scrape against the Prometheus text-exposition grammar
//! (`--once` prints a single frame, for scripts and CI).

mod live;

use pas_core::analyze;
use pas_core::describe_spike;
use pas_core::json;
use pas_core::power_model::analyze_corners;
use pas_gantt::{render_ascii, render_svg, summary_report, AsciiOptions, GanttChart, SvgOptions};
use pas_lint::{lint_problem, render_human, render_json, LintCode, SourceFile};
use pas_obs::{
    parse_jsonl, JsonlWriter, MetricsRegistry, NullObserver, Observer, StageKind, StageProfiler,
    Tee,
};
use pas_replay::{cross_check_stage, diff_traces, explain, Replay};
use pas_sched::{Parallelism, PowerAwareScheduler, SchedulerConfig};
use pas_spec::{
    parse_problem, parse_problem_full, parse_problem_spanned, parse_schedule, print_problem,
    print_schedule,
};
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("impacct-cli: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "schedule" => cmd_schedule(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "lint" => cmd_lint(&args[1..]),
        "print" => cmd_print(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "profile" => cmd_profile(&args[1..]),
        "serve" => live::cmd_serve(&args[1..]),
        "top" => live::cmd_top(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  impacct-cli schedule <problem.pasdl> [--stage timing|max|min] \
     [--svg <out.svg>] [--emit-schedule] [--report] [--corners] [--restarts <n>] \
     [--seed <n>] [--quiet] [--threads off|auto|<n>] [--trace <out.jsonl|->] \
     [--profile] [--no-incremental] [--no-lint-bounds] [--no-dominance] \
     [--metrics <out.prom>] [--chrome-trace <out.json>]\n  \
     impacct-cli replay <problem.pasdl> <trace.jsonl> [--stage timing|max|min] [--live] \
     [--restarts <n>] [--threads off|auto|<n>] [--seed <n>]\n  \
     impacct-cli explain <problem.pasdl> <trace.jsonl> <task-name> \
     [--stage timing|max|min] [--json]\n  \
     impacct-cli diff <a.jsonl> <b.jsonl>\n  \
     impacct-cli validate <problem.pasdl> <schedule.pasdl>\n  \
     impacct-cli lint <problem.pasdl> [--format human|json] \
     [--fix [--fix-maybe-incorrect]]\n  \
     impacct-cli lint --explain PASnnn\n  \
     impacct-cli print <problem.pasdl>\n  \
     impacct-cli generate <tasks> [--seed <n>] [--layers <n>]\n  \
     impacct-cli profile <problem.pasdl> [--threads-list 1,2,4,8] [--max-nodes <n>] \
     [--sample-every <n>] [--lint-bounds] [--dominance] [--out BENCH_profile.json] \
     [--chrome-trace <out.json>] \
     [--metrics <out.prom>] [--collapsed <out.txt>] [--quiet]\n  \
     impacct-cli serve [--addr <host:port>] [--workers <n>] [--window <secs>] \
     [--slow-ms <n>] [--audit <dir>] [--sessions <n>] [--max-inflight <n>] \
     [--queue-depth <n>] [--keep-alive on|off] [--keep-alive-requests <n>] \
     [--header-timeout-ms <n>] [--idle-timeout-ms <n>] [--retry-after <secs>]\n  \
     impacct-cli top [--addr <host:port>] [--interval-ms <n>] [--once]"
        .to_string()
}

/// Maps the user-facing stage spelling onto the pipeline stage whose
/// committed schedule is meant.
fn parse_stage(stage: &str) -> Result<StageKind, String> {
    match stage {
        "timing" => Ok(StageKind::Timing),
        "max" => Ok(StageKind::MaxPower),
        "min" => Ok(StageKind::MinPower),
        other => Err(format!("unknown stage {other:?} (timing|max|min)")),
    }
}

/// Reads and parses a JSONL trace file into a replayed state machine.
fn read_replay(path: &str) -> Result<Replay, String> {
    let events = parse_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    Ok(Replay::from_events(events))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn cmd_schedule(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut stage = "min".to_string();
    let mut svg_out = None;
    let mut emit_schedule = false;
    let mut report = false;
    let mut corners = false;
    let mut quiet = false;
    let mut seed = None;
    let mut restarts = 0usize;
    let mut trace_out = None;
    let mut profile = false;
    let mut incremental = true;
    let mut lint_bounds = true;
    let mut dominance = true;
    let mut metrics_out = None;
    let mut chrome_out = None;
    let mut threads = Parallelism::Off;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stage" => stage = it.next().ok_or("--stage needs a value")?.clone(),
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("--threads needs a value (off|auto|<n>)")?
                    .parse::<Parallelism>()
                    .map_err(|e| format!("bad --threads value: {e}"))?
            }
            "--svg" => svg_out = Some(it.next().ok_or("--svg needs a path")?.clone()),
            "--emit-schedule" => emit_schedule = true,
            "--report" => report = true,
            "--corners" => corners = true,
            "--quiet" => quiet = true,
            "--trace" => trace_out = Some(it.next().ok_or("--trace needs a path")?.clone()),
            "--profile" => profile = true,
            "--no-incremental" => incremental = false,
            "--no-lint-bounds" => lint_bounds = false,
            "--no-dominance" => dominance = false,
            "--metrics" => metrics_out = Some(it.next().ok_or("--metrics needs a path")?.clone()),
            "--chrome-trace" => {
                chrome_out = Some(it.next().ok_or("--chrome-trace needs a path")?.clone())
            }
            "--restarts" => {
                restarts = it
                    .next()
                    .ok_or("--restarts needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad restart count: {e}"))?
            }
            "--seed" => {
                seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad seed: {e}"))?,
                )
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or_else(usage)?;
    let parsed = parse_problem_full(&read(&path)?).map_err(|e| e.to_string())?;
    let ranges = parsed.ranges;
    let mut problem = parsed.problem;

    let mut config = SchedulerConfig::default();
    if let Some(seed) = seed {
        config.seed = seed;
    }
    config.incremental = incremental;
    config.lint_bounds = lint_bounds;
    config.dominance = dominance;
    config.parallelism = threads;
    let scheduler = PowerAwareScheduler::new(config);

    // Compose the optional trace, profile, and metrics sinks; a
    // NullObserver stands in for every missing side, so with no flags
    // the whole observation path folds to the unobserved one.
    let mut trace_writer = match &trace_out {
        Some(path) => Some(
            JsonlWriter::create_or_stdout(path)
                .map_err(|e| format!("cannot create {path}: {e}"))?,
        ),
        None => None,
    };
    let mut profiler = profile.then(StageProfiler::new);
    let mut registry = (metrics_out.is_some() || chrome_out.is_some()).then(MetricsRegistry::new);
    let (mut null_a, mut null_b, mut null_c) = (NullObserver, NullObserver, NullObserver);
    let trace_side: &mut dyn Observer = match trace_writer.as_mut() {
        Some(w) => w,
        None => &mut null_a,
    };
    let profile_side: &mut dyn Observer = match profiler.as_mut() {
        Some(p) => p,
        None => &mut null_b,
    };
    let metrics_side: &mut dyn Observer = match registry.as_mut() {
        Some(r) => r,
        None => &mut null_c,
    };
    let mut obs = Tee(trace_side, Tee(profile_side, metrics_side));

    let outcome = match stage.as_str() {
        "timing" => scheduler.schedule_timing_only_with(&mut problem, &mut obs),
        "max" => scheduler.schedule_power_valid_with(&mut problem, &mut obs),
        "min" if restarts > 0 => {
            scheduler.schedule_portfolio_with(&mut problem, restarts, &mut obs)
        }
        "min" => scheduler.schedule_with(&mut problem, &mut obs),
        other => return Err(format!("unknown stage {other:?} (timing|max|min)")),
    }
    .map_err(|e| format!("scheduling failed: {e}"))?;

    if let Some(profiler) = &profiler {
        print!("{}", profiler.render_table());
    }
    if let Some(writer) = trace_writer.take() {
        let path = trace_out.unwrap_or_default();
        let lines = writer
            .finish()
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if !quiet {
            // Keep stdout clean when the trace itself streams there.
            if path == "-" {
                eprintln!("wrote {lines} trace events to stdout");
            } else {
                println!("wrote {lines} trace events to {path}");
            }
        }
    }
    if let Some(registry) = &registry {
        if let Some(path) = &metrics_out {
            std::fs::write(path, registry.render_prometheus())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !quiet {
                println!("wrote {path}");
            }
        }
        if let Some(path) = &chrome_out {
            std::fs::write(path, registry.chrome_trace())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !quiet {
                println!("wrote {path}");
            }
        }
    }

    let chart = GanttChart::from_analysis(&problem, &outcome.schedule, &outcome.analysis);
    if !quiet {
        print!("{}", render_ascii(&chart, &AsciiOptions::default()));
    }
    if report {
        print!("{}", summary_report(&chart));
    }
    if corners {
        println!("corner analysis:");
        for r in analyze_corners(&problem, &ranges, &outcome.schedule) {
            let a = &r.analysis;
            println!(
                "  {:8} peak={} Ec={} spikes={} => {}",
                r.corner.to_string(),
                a.peak_power,
                a.energy_cost,
                a.spikes.len(),
                if a.is_valid() { "VALID" } else { "INVALID" }
            );
        }
    }
    if let Some(svg_path) = svg_out {
        std::fs::write(&svg_path, render_svg(&chart, &SvgOptions::default()))
            .map_err(|e| format!("cannot write {svg_path}: {e}"))?;
        if !quiet {
            println!("wrote {svg_path}");
        }
    }
    if emit_schedule {
        print!(
            "{}",
            print_schedule(
                &format!("{}-{stage}", problem.name()),
                &problem,
                &outcome.schedule
            )
        );
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut problem_path = None;
    let mut trace_path = None;
    let mut stage = "min".to_string();
    let mut live = false;
    let mut restarts = 0usize;
    let mut threads = Parallelism::Off;
    let mut seed = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stage" => stage = it.next().ok_or("--stage needs a value")?.clone(),
            "--live" => live = true,
            "--restarts" => {
                restarts = it
                    .next()
                    .ok_or("--restarts needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad restart count: {e}"))?
            }
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("--threads needs a value (off|auto|<n>)")?
                    .parse::<Parallelism>()
                    .map_err(|e| format!("bad --threads value: {e}"))?
            }
            "--seed" => {
                seed = Some(
                    it.next()
                        .ok_or("--seed needs a value")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad seed: {e}"))?,
                )
            }
            other if problem_path.is_none() => problem_path = Some(other.to_string()),
            other if trace_path.is_none() => trace_path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let problem_path = problem_path.ok_or_else(usage)?;
    let trace_path = trace_path.ok_or_else(usage)?;
    let stage = parse_stage(&stage)?;

    let problem = parse_problem(&read(&problem_path)?).map_err(|e| e.to_string())?;
    let replay = read_replay(&trace_path)?;
    for anomaly in &replay.anomalies {
        eprintln!("warning: {anomaly}");
    }

    let checked = cross_check_stage(&problem, &replay, stage).map_err(|errors| {
        for e in &errors {
            eprintln!("divergence: {e}");
        }
        format!(
            "trace does not reconstruct ({} divergence(s))",
            errors.len()
        )
    })?;
    let a = &checked.analysis;
    println!(
        "replayed {} events: {} stage tau={} Ec={} rho={} peak={}",
        replay.len(),
        checked.stage,
        a.finish_time,
        a.energy_cost,
        a.utilization,
        a.peak_power
    );

    if live {
        let mut fresh = problem.clone();
        // The live rerun must use the same configuration the trace
        // was recorded under: a portfolio trace reconstructs to the
        // portfolio *winner*, which a plain single-attempt run only
        // matches by luck. Pass the recording run's --restarts (and
        // --threads / --seed, if any) to reproduce it.
        let mut config = SchedulerConfig::default();
        if let Some(seed) = seed {
            config.seed = seed;
        }
        config.parallelism = threads;
        let scheduler = PowerAwareScheduler::new(config);
        let mut obs = NullObserver;
        let outcome = match stage {
            StageKind::Timing => scheduler.schedule_timing_only_with(&mut fresh, &mut obs),
            StageKind::MaxPower => scheduler.schedule_power_valid_with(&mut fresh, &mut obs),
            _ if restarts > 0 => scheduler.schedule_portfolio_with(&mut fresh, restarts, &mut obs),
            _ => scheduler.schedule_with(&mut fresh, &mut obs),
        }
        .map_err(|e| format!("live run failed: {e}"))?;
        if outcome.schedule != checked.schedule {
            return Err("replayed schedule differs from a live run".to_string());
        }
        println!("live run matches the replayed schedule bit-identically");
    }
    println!("OK");
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let mut problem_path = None;
    let mut trace_path = None;
    let mut task_name = None;
    let mut stage = "min".to_string();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stage" => stage = it.next().ok_or("--stage needs a value")?.clone(),
            "--json" => json = true,
            other if problem_path.is_none() => problem_path = Some(other.to_string()),
            other if trace_path.is_none() => trace_path = Some(other.to_string()),
            other if task_name.is_none() => task_name = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let problem_path = problem_path.ok_or_else(usage)?;
    let trace_path = trace_path.ok_or_else(usage)?;
    let task_name = task_name.ok_or_else(usage)?;
    let stage = parse_stage(&stage)?;

    let problem = parse_problem(&read(&problem_path)?).map_err(|e| e.to_string())?;
    let task = problem
        .graph()
        .tasks()
        .find(|(_, t)| t.name() == task_name)
        .map(|(id, _)| id)
        .ok_or_else(|| format!("problem has no task named {task_name:?}"))?;
    let replay = read_replay(&trace_path)?;

    let explanation = explain(&problem, &replay, task, stage)?;
    if json {
        println!("{}", explanation.render_json());
    } else {
        print!("{}", explanation.render_human(&problem));
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err(usage());
    };
    let a = read_replay(a_path)?;
    let b = read_replay(b_path)?;
    let diff = diff_traces(&a, &b);
    print!("{}", diff.render());
    if diff.is_clean() {
        Ok(())
    } else {
        Err("traces diverge".to_string())
    }
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let [problem_path, schedule_path] = args else {
        return Err(usage());
    };
    let problem = parse_problem(&read(problem_path)?).map_err(|e| e.to_string())?;
    let (name, schedule) =
        parse_schedule(&read(schedule_path)?, &problem).map_err(|e| e.to_string())?;
    let a = analyze(&problem, &schedule);
    println!(
        "schedule {name:?}: tau={} Ec={} rho={} peak={}",
        a.finish_time, a.energy_cost, a.utilization, a.peak_power
    );
    for v in &a.timing_violations {
        println!("  timing violation: {}", v.describe(problem.graph()));
    }
    for s in &a.spikes {
        println!(
            "  power spike: {}",
            describe_spike(problem.graph(), &schedule, s)
        );
    }
    for g in &a.gaps {
        println!("  power gap: {g}");
    }
    if a.is_valid() {
        println!("VALID");
        Ok(())
    } else {
        Err("schedule is INVALID".to_string())
    }
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut format = "human".to_string();
    let mut fix = false;
    let mut fix_maybe_incorrect = false;
    let mut explain_code = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => format = it.next().ok_or("--format needs a value")?.clone(),
            "--fix" => fix = true,
            "--fix-maybe-incorrect" => fix_maybe_incorrect = true,
            "--explain" => {
                explain_code = Some(it.next().ok_or("--explain needs a PASnnn code")?.clone())
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if let Some(code) = explain_code {
        let code = LintCode::ALL
            .into_iter()
            .find(|c| c.as_str() == code)
            .ok_or_else(|| {
                let known = LintCode::ALL.map(LintCode::as_str).join(", ");
                format!("unknown lint code {code:?} (known: {known})")
            })?;
        println!("{}", pas_lint::explain(code));
        return Ok(());
    }
    let path = path.ok_or_else(usage)?;
    let mut source = read(&path)?;
    let spanned = parse_problem_spanned(&source).map_err(|e| e.to_string())?;
    let mut report = lint_problem(&spanned.problem, &spanned.spans);

    if fix || fix_maybe_incorrect {
        let outcome = pas_lint::apply_fixes(&source, &report, fix_maybe_incorrect);
        if outcome.applied > 0 {
            // Never write back a file the parser would reject: the
            // fixes are span-level text edits, so round-trip the
            // rewritten source and re-lint before committing it.
            let respanned = parse_problem_spanned(&outcome.source)
                .map_err(|e| format!("{path}: fixes produced unparsable PASDL ({e}); aborting"))?;
            report = lint_problem(&respanned.problem, &respanned.spans);
            std::fs::write(&path, &outcome.source)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            source = outcome.source;
        }
        println!(
            "{path}: applied {} fix(es), skipped {} overlapping",
            outcome.applied, outcome.skipped
        );
    }

    let file = SourceFile {
        name: &path,
        text: &source,
    };
    match format.as_str() {
        "human" => {
            if report.is_empty() {
                println!("{path}: clean");
            } else {
                print!("{}", render_human(&report, Some(file)));
            }
        }
        "json" => println!("{}", render_json(&report, Some(file))),
        other => return Err(format!("unknown format {other:?} (human|json)")),
    }
    if report.has_errors() {
        Err(format!(
            "{path}: {} error-level lint diagnostic(s)",
            report.error_count()
        ))
    } else {
        Ok(())
    }
}

fn cmd_print(args: &[String]) -> Result<(), String> {
    let [path] = args else { return Err(usage()) };
    let problem = parse_problem(&read(path)?).map_err(|e| e.to_string())?;
    print!("{}", print_problem(&problem));
    Ok(())
}

/// Emits a synthetic layered workload as PASDL on stdout: the same
/// generator the benches use, so CI determinism checks can schedule
/// a reproducible 100-task instance without committing fixture files.
fn cmd_generate(args: &[String]) -> Result<(), String> {
    let mut tasks = None;
    let mut seed = 0xA11CEu64;
    let mut layers = 6usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--layers" => {
                layers = it
                    .next()
                    .ok_or("--layers needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad layer count: {e}"))?
            }
            other if tasks.is_none() => {
                tasks = Some(
                    other
                        .parse::<usize>()
                        .map_err(|e| format!("bad task count {other:?}: {e}"))?,
                )
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let tasks = tasks.ok_or_else(usage)?;
    let problem = pas_workload::generate(&pas_workload::GeneratorConfig {
        seed,
        tasks,
        resources: (tasks / 8).max(4),
        topology: pas_workload::Topology::Layered { layers },
        ..pas_workload::GeneratorConfig::default()
    });
    print!("{}", print_problem(&problem));
    Ok(())
}

/// One thread count's worth of profile evidence.
struct SweepPoint {
    threads: usize,
    outcome: String,
    nodes: u64,
    prunes: [u64; 5],
    max_depth: u32,
    budget_utilization: f64,
    branch_nodes: Vec<u64>,
    /// The branch fan-out's wall clock, one entry per spawned worker.
    pool: pas_sched::PoolProfile,
}

/// What the profile report says the `dominance` prune counter holds.
const DOMINANCE_PRUNES_NOTE: &str = "symmetry skips (--dominance) plus infeasible placements \
                                     (edge-window, resource and power-budget rejections)";

/// Coefficient of variation (stddev / mean) of per-branch node
/// counts — the budget-skew signal. `0.0` for fewer than two branches.
fn nodes_cov(branch_nodes: &[u64]) -> f64 {
    if branch_nodes.len() < 2 {
        return 0.0;
    }
    let n = branch_nodes.len() as f64;
    let mean = branch_nodes.iter().map(|&x| x as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = branch_nodes
        .iter()
        .map(|&x| (x as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Classifies a search result for the profile report.
fn outcome_label(
    result: &Result<pas_sched::optimal::OptimalOutcome, pas_sched::ScheduleError>,
) -> String {
    match result {
        Ok(_) => "optimal".to_string(),
        Err(pas_sched::ScheduleError::TimingSearchExhausted { .. }) => "exhausted".to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// The explicit dominant-cause heuristic over the max-thread-count
/// evidence, checked in order of diagnostic specificity. Returns
/// `(cause, explanation)`.
fn diagnose(point: &SweepPoint, available: usize, frontier: usize) -> (String, String) {
    let threads = point.threads;
    let spawned = point.pool.workers.len();
    let idle = point.pool.mean_idle_fraction();
    let cov = nodes_cov(&point.branch_nodes);
    if spawned < threads.min(frontier) {
        return (
            "pool-capped".into(),
            format!(
                "the sweep requested {threads} workers but the pool spawned {spawned}: \
                 pas-par never spawns more threads than the host's available parallelism \
                 ({available}), so the requested workers beyond it do not exist"
            ),
        );
    }
    if frontier < threads {
        return (
            "frontier-shortage".into(),
            format!(
                "the depth-0 frontier has only {frontier} branch(es) for {threads} requested \
                 workers; the pool spawned {spawned} and the other {excess} have no branch to \
                 run (mean idle {idle:.0}%)",
                excess = threads - spawned,
                idle = idle * 100.0
            ),
        );
    }
    if cov > 0.75 && idle > 0.25 {
        return (
            "budget-skew".into(),
            format!(
                "per-branch node counts vary wildly (CoV {cov:.2}) while workers sit idle \
                 {idle:.0}% of the wall on average: the even max_nodes split starves small \
                 branches and the big branch serializes the tail",
                idle = idle * 100.0
            ),
        );
    }
    if idle > 0.5 {
        return (
            "idle-starvation".into(),
            format!(
                "workers average {idle:.0}% idle with no single dominating signal; the \
                 search does not decompose into enough parallel work at this size",
                idle = idle * 100.0
            ),
        );
    }
    (
        "none".into(),
        "workers stay busy and branch sizes are balanced".into(),
    )
}

/// `profile` — threads sweep over the frontier-split exact B&B with
/// the search telemetry and the `pas-par` wall-clock side channel, plus the
/// dominant-cause heuristic. See the module docs for the report's
/// shape.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut path = None;
    let mut threads_list = vec![1usize, 2, 4, 8];
    let mut max_nodes = 200_000u64;
    let mut sample_every_flag: Option<u64> = None;
    let mut out = "BENCH_profile.json".to_string();
    let mut chrome_out = None;
    let mut metrics_out = None;
    let mut collapsed_out = None;
    let mut quiet = false;
    let mut lint_bounds = false;
    let mut dominance = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--lint-bounds" => lint_bounds = true,
            "--dominance" => dominance = true,
            "--threads-list" => {
                threads_list = it
                    .next()
                    .ok_or("--threads-list needs a comma-separated list")?
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|n| *n > 0)
                            .ok_or_else(|| format!("bad thread count {t:?}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if threads_list.is_empty() {
                    return Err("--threads-list needs at least one thread count".into());
                }
            }
            "--max-nodes" => {
                max_nodes = it
                    .next()
                    .ok_or("--max-nodes needs a value")?
                    .parse::<u64>()
                    .map_err(|e| format!("bad --max-nodes: {e}"))?
            }
            "--sample-every" => {
                sample_every_flag = Some(
                    it.next()
                        .ok_or("--sample-every needs a value")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --sample-every: {e}"))?,
                )
            }
            "--out" => out = it.next().ok_or("--out needs a path")?.clone(),
            "--chrome-trace" => {
                chrome_out = Some(it.next().ok_or("--chrome-trace needs a path")?.clone())
            }
            "--metrics" => metrics_out = Some(it.next().ok_or("--metrics needs a path")?.clone()),
            "--collapsed" => {
                collapsed_out = Some(it.next().ok_or("--collapsed needs a path")?.clone())
            }
            "--quiet" => quiet = true,
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or_else(usage)?;
    let problem = parse_problem(&read(&path)?).map_err(|e| e.to_string())?;
    let model = problem.name().to_string();
    let graph = problem.graph();
    let p_max = problem.constraints().p_max();
    let background = problem.background_power();
    let config = pas_sched::optimal::OptimalConfig {
        max_nodes,
        horizon: None,
        use_lint_bounds: lint_bounds,
        use_dominance: dominance,
    };
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Default the sample interval to ~256 samples over the node
    // budget (still node-count-triggered, so still deterministic);
    // the library default interval would under-sample small budgets.
    let sample_every = sample_every_flag
        .unwrap_or_else(|| pas_sched::SEARCH_SAMPLE_INTERVAL.min((max_nodes / 256).max(1)));

    let mut reference_trace: Option<Vec<pas_obs::TraceEvent>> = None;
    let mut points: Vec<SweepPoint> = Vec::new();
    for &threads in &threads_list {
        // Deterministic frontier-split search: telemetry + pool profile.
        let mut rec = pas_obs::RecordingObserver::new();
        let (result, pool) = pas_sched::optimal::minimize_finish_time(
            graph,
            p_max,
            background,
            &config,
            Some(threads),
            sample_every,
            &mut rec,
        );
        let events = rec.into_events();
        // The determinism contract, enforced: the sampled trace must
        // be byte-identical at every thread count.
        match &reference_trace {
            None => reference_trace = Some(events.clone()),
            Some(reference) => {
                if *reference != events {
                    return Err(format!(
                        "telemetry diverged at {threads} thread(s): the search trace must \
                         be identical at every thread count (DESIGN.md §12)"
                    ));
                }
            }
        }
        let mut prunes = [0u64; 5];
        let mut nodes = 0u64;
        let mut budget_total = 0u64;
        let mut max_depth = 0u32;
        let mut branch_nodes = Vec::new();
        for event in &events {
            if let pas_obs::TraceEvent::SearchStatsRecorded {
                nodes: n,
                pruned_incumbent,
                pruned_dominance,
                pruned_horizon,
                pruned_budget,
                pruned_bound,
                max_depth: depth,
                budget,
                ..
            } = event
            {
                prunes[0] += pruned_incumbent;
                prunes[1] += pruned_dominance;
                prunes[2] += pruned_horizon;
                prunes[3] += pruned_budget;
                prunes[4] += pruned_bound;
                nodes += n;
                budget_total += budget;
                max_depth = max_depth.max(*depth);
                branch_nodes.push(*n);
            }
        }

        points.push(SweepPoint {
            threads,
            outcome: outcome_label(&result),
            nodes,
            prunes,
            max_depth,
            budget_utilization: if budget_total == 0 {
                0.0
            } else {
                nodes as f64 / budget_total as f64
            },
            branch_nodes,
            pool,
        });
    }

    let frontier = points.first().map(|p| p.branch_nodes.len()).unwrap_or(0);
    let max_point = points
        .iter()
        .max_by_key(|p| p.threads)
        .expect("at least one thread count");
    let wall_s = |p: &SweepPoint| p.pool.wall.as_secs_f64();
    let best_other_wall = points
        .iter()
        .filter(|p| p.threads < max_point.threads)
        .map(wall_s)
        .fold(f64::INFINITY, f64::min);
    let regression = best_other_wall.is_finite() && wall_s(max_point) > best_other_wall * 1.05;
    let (cause, explanation) = diagnose(max_point, available, frontier);

    if !quiet {
        let on_off = |flag: bool| if flag { "on" } else { "off" };
        println!("profile: {model} ({} tasks, frontier {frontier}, max_nodes {max_nodes}, host parallelism {available}, lint bounds {}, dominance {})",
                 graph.num_tasks(), on_off(lint_bounds), on_off(dominance));
        println!(
            "{:>8} {:>8} {:>10} {:>12} {:>10} {:>10} {:>12}",
            "threads", "spawned", "wall s", "nodes", "outcome", "idle %", "budget use"
        );
        for p in &points {
            println!(
                "{:>8} {:>8} {:>10.3} {:>12} {:>10} {:>9.0}% {:>11.0}%",
                p.threads,
                p.pool.workers.len(),
                wall_s(p),
                p.nodes,
                p.outcome,
                p.pool.mean_idle_fraction() * 100.0,
                p.budget_utilization * 100.0,
            );
        }
        println!(
            "prune breakdown (all branches): incumbent={} dominance={} horizon={} budget={} bound={}",
            max_point.prunes[0],
            max_point.prunes[1],
            max_point.prunes[2],
            max_point.prunes[3],
            max_point.prunes[4]
        );
        println!("  dominance = {DOMINANCE_PRUNES_NOTE}");
        println!("per-worker accounting at {} thread(s):", max_point.threads);
        for w in &max_point.pool.workers {
            println!(
                "  worker {:>2}: items={:>4} busy={:>8.3}s wait={:>8.3}s busy_fraction={:.2}",
                w.worker,
                w.items,
                w.busy.as_secs_f64(),
                w.wait.as_secs_f64(),
                w.busy_fraction(max_point.pool.wall),
            );
        }
        if regression {
            println!(
                "regression: wall at {} thread(s) ({:.3}s) exceeds the best smaller-count wall ({:.3}s)",
                max_point.threads,
                wall_s(max_point),
                best_other_wall
            );
        }
        println!("dominant cause: {cause} — {explanation}");
    }

    // Fold the (thread-count-invariant) telemetry into a registry for
    // the optional Prometheus / Chrome-trace / collapsed-stack exports.
    if metrics_out.is_some() || chrome_out.is_some() || collapsed_out.is_some() {
        let mut registry = MetricsRegistry::new();
        registry.set_source(&model);
        if let Some(events) = &reference_trace {
            for event in events {
                registry.on_event(event);
            }
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, registry.render_prometheus())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !quiet {
                println!("wrote {path}");
            }
        }
        if let Some(path) = &chrome_out {
            std::fs::write(path, registry.chrome_trace())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !quiet {
                println!("wrote {path}");
            }
        }
        if let Some(path) = &collapsed_out {
            std::fs::write(path, registry.render_collapsed())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !quiet {
                println!("wrote {path}");
            }
        }
    }

    let mut rows = Vec::new();
    for p in &points {
        let workers = p
            .pool
            .workers
            .iter()
            .map(|w| {
                format!(
                    concat!(
                        "{{\"worker\": {}, \"items\": {}, \"busy_s\": {:.6}, ",
                        "\"wait_s\": {:.6}, \"busy_fraction\": {:.4}, \"idle_fraction\": {:.4}}}"
                    ),
                    w.worker,
                    w.items,
                    w.busy.as_secs_f64(),
                    w.wait.as_secs_f64(),
                    w.busy_fraction(p.pool.wall),
                    w.idle_fraction(p.pool.wall),
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let branch_nodes = p
            .branch_nodes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let mut row = format!("    {{\"threads\": {}, \"outcome\": \"", p.threads);
        json::push_escaped(&mut row, &p.outcome);
        let _ = write!(
            row,
            concat!(
                "\", \"wall_s\": {:.6}, ",
                "\"nodes\": {}, \"max_depth\": {}, ",
                "\"prunes\": {{\"incumbent\": {}, \"dominance\": {}, \"horizon\": {}, ",
                "\"budget\": {}, \"bound\": {}}}, \"budget_utilization\": {:.4}, ",
                "\"branch_nodes\": [{}], \"branch_nodes_cov\": {:.4}, ",
                "\"workers\": [{}]}}"
            ),
            wall_s(p),
            p.nodes,
            p.max_depth,
            p.prunes[0],
            p.prunes[1],
            p.prunes[2],
            p.prunes[3],
            p.prunes[4],
            p.budget_utilization,
            branch_nodes,
            nodes_cov(&p.branch_nodes),
            workers,
        );
        rows.push(row);
    }
    let mut report = format!(
        "{{\n  \"schema\": \"impacct-profile/v2\",\n  {},\n  \"model\": \"",
        pas_bench::provenance_json()
    );
    json::push_escaped(&mut report, &model);
    let _ = write!(
        report,
        concat!(
            "\",\n  \"tasks\": {},\n  \"frontier\": {},\n  \"available_parallelism\": {},\n",
            "  \"max_nodes\": {},\n  \"sample_every\": {},\n  \"lint_bounds\": {},\n",
            "  \"dominance\": {},\n  \"prune_notes\": {{\"dominance\": \""
        ),
        graph.num_tasks(),
        frontier,
        available,
        max_nodes,
        sample_every,
        lint_bounds,
        dominance,
    );
    json::push_escaped(&mut report, DOMINANCE_PRUNES_NOTE);
    let _ = write!(
        report,
        concat!(
            "\"}},\n  \"sweep\": [\n{}\n  ],\n",
            "  \"diagnosis\": {{\"regression_at_max_threads\": {}, \"dominant_cause\": \""
        ),
        rows.join(",\n"),
        regression,
    );
    json::push_escaped(&mut report, &cause);
    report.push_str("\", \"explanation\": \"");
    json::push_escaped(&mut report, &explanation);
    report.push_str("\"}\n}\n");
    std::fs::write(&out, &report).map_err(|e| format!("cannot write {out}: {e}"))?;
    if !quiet {
        println!("wrote {out}");
    }
    Ok(())
}
