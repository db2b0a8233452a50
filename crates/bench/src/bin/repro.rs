//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [fig2|fig5|fig7|fig8|fig9|fig10|fig11|table3|table4|all]
//!       [--trace <file.jsonl|->] [--profile] [--threads off|auto|<n>]
//! ```
//!
//! Figures are printed as ASCII power-aware Gantt charts (Fig. 8 as
//! Graphviz DOT); tables in the paper's layout with paper-reported
//! values alongside for comparison. Everything is deterministic.
//!
//! `--trace <path>` streams every scheduling decision of the
//! instrumented targets (figs 2/5/7 and 9–11) as JSONL
//! [`TraceEvent`]s (`-` streams to stdout); `--profile` prints a
//! per-stage wall-time and decision-count table after the run.
//! `--threads` selects [`Parallelism`] for the instrumented targets;
//! every figure and table is bit-identical at any setting (that
//! contract is what the determinism CI job checks).

use pas_bench::{figure_block, metrics_row};
use pas_core::analyze;
use pas_graph::dot::{to_dot, DotOptions};
use pas_mission::{
    improvement_percent, jpl_plan, power_aware_plan, power_aware_plan_standalone, simulate,
    MissionReport, Scenario,
};
use pas_obs::{JsonlWriter, Observer, StageProfiler, TraceEvent};
use pas_rover::{build_rover_problem, jpl_schedule, power_aware_schedule, EnvCase};
use pas_sched::{Parallelism, PowerAwareScheduler, SchedulerConfig};
use std::io::Write;
use std::process::ExitCode;

/// The optional sinks behind `--trace` and `--profile`, composed into
/// one observer handed down to the instrumented targets.
#[derive(Default)]
struct ReproObserver {
    trace: Option<JsonlWriter<Box<dyn Write>>>,
    profiler: Option<StageProfiler>,
}

impl Observer for ReproObserver {
    fn is_enabled(&self) -> bool {
        self.trace.is_some() || self.profiler.is_some()
    }

    fn on_event(&mut self, event: &TraceEvent) {
        if let Some(w) = &mut self.trace {
            w.on_event(event);
        }
        if let Some(p) = &mut self.profiler {
            p.on_event(event);
        }
    }
}

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cli(args: Vec<String>) -> Result<(), String> {
    let mut what: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut profile = false;
    let mut threads = Parallelism::Off;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                let path = it.next().ok_or("--trace requires a file path")?;
                trace_path = Some(path);
            }
            "--profile" => profile = true,
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("--threads requires off, auto, or a thread count")?
                    .parse::<Parallelism>()
                    .map_err(|e| e.to_string())?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag {flag:?} (--trace <path>|--profile|--threads <p>)"
                ))
            }
            target => {
                if let Some(prev) = what.replace(target.to_string()) {
                    return Err(format!("multiple targets given ({prev:?} and {target:?})"));
                }
            }
        }
    }

    let mut obs = ReproObserver {
        trace: match &trace_path {
            Some(path) => Some(
                JsonlWriter::create_or_stdout(path).map_err(|e| format!("--trace {path}: {e}"))?,
            ),
            None => None,
        },
        profiler: profile.then(StageProfiler::new),
    };

    run(what.as_deref().unwrap_or("all"), threads, &mut obs)?;

    if let Some(profiler) = &obs.profiler {
        println!("---- Stage profile ----");
        print!("{}", profiler.render_table());
    }
    if let Some(writer) = obs.trace.take() {
        let path = trace_path.unwrap_or_default();
        let lines = writer
            .finish()
            .map_err(|e| format!("--trace {path}: {e}"))?;
        if path == "-" {
            // The trace itself went to stdout; keep it parseable.
            eprintln!("wrote {lines} trace events to stdout");
        } else {
            println!("wrote {lines} trace events to {path}");
        }
    }
    Ok(())
}

fn run(what: &str, threads: Parallelism, obs: &mut ReproObserver) -> Result<(), String> {
    match what {
        "fig2" | "fig5" | "fig7" => figs257(what, threads, obs),
        "fig8" => fig8(),
        "fig9" => rover_fig(
            EnvCase::Best,
            "Fig. 9 (best case, 2 iterations)",
            2,
            threads,
            obs,
        ),
        "fig10" => rover_fig(EnvCase::Typical, "Fig. 10 (typical case)", 1, threads, obs),
        "fig11" => rover_fig(EnvCase::Worst, "Fig. 11 (worst case)", 1, threads, obs),
        "table3" => table3(),
        "table4" => table4(),
        "ablation" => ablation(),
        "optgap" => optimality_gap(),
        "gen-assets" => gen_assets(),
        "all" => {
            for w in [
                "fig2", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "table3", "table4",
                "ablation", "optgap",
            ] {
                run(w, threads, obs)?;
                println!();
            }
            Ok(())
        }
        other => Err(format!(
            "unknown target {other:?} \
             (fig2|fig5|fig7|fig8|fig9|fig10|fig11|table3|table4|ablation|optgap|all)"
        )),
    }
}

/// Figs. 2, 5, 7: the pipeline stages on the 9-task example.
fn figs257(which: &str, threads: Parallelism, obs: &mut ReproObserver) -> Result<(), String> {
    let (mut problem, _) = pas_core::example::paper_example();
    let stages = PowerAwareScheduler::new(SchedulerConfig {
        parallelism: threads,
        ..SchedulerConfig::default()
    })
    .schedule_stages_with(&mut problem, obs)
    .map_err(|e| e.to_string())?;
    let (title, outcome) = match which {
        "fig2" => (
            "Fig. 2 — time-valid schedule (spikes + gaps)",
            &stages.time_valid,
        ),
        "fig5" => (
            "Fig. 5 — valid schedule after max-power scheduling",
            &stages.power_valid,
        ),
        _ => (
            "Fig. 7 — improved schedule after min-power scheduling",
            &stages.improved,
        ),
    };
    print!("{}", figure_block(title, &problem, &outcome.schedule));
    if which == "fig7" {
        let region = pas_sched::ValidityRegion::of(
            problem.graph(),
            &stages.improved.schedule,
            problem.background_power(),
        );
        println!("validity region: {region}");
        println!("(paper: \"applies to all cases with P_max >= 16, P_min <= 14\")");
    }
    Ok(())
}

/// Fig. 8: the rover constraint graph, as DOT.
fn fig8() -> Result<(), String> {
    let rover = build_rover_problem(EnvCase::Typical, 1);
    println!("---- Fig. 8 — Mars rover constraint graph (Graphviz DOT) ----");
    print!(
        "{}",
        to_dot(
            rover.problem.graph(),
            &DotOptions {
                name: "mars_rover".into(),
                include_derived_edges: false,
                attribute_labels: true,
            }
        )
    );
    Ok(())
}

/// Figs. 9–11: rover schedules per case.
fn rover_fig(
    case: EnvCase,
    title: &str,
    iterations: usize,
    threads: Parallelism,
    obs: &mut ReproObserver,
) -> Result<(), String> {
    let mut rover = build_rover_problem(case, iterations);
    let outcome = PowerAwareScheduler::new(SchedulerConfig {
        parallelism: threads,
        ..SchedulerConfig::default()
    })
    .schedule_with(&mut rover.problem, obs)
    .map_err(|e| e.to_string())?;
    print!("{}", figure_block(title, &rover.problem, &outcome.schedule));
    Ok(())
}

/// Table 3: energy cost / utilization / finish time, JPL vs
/// power-aware, three cases.
fn table3() -> Result<(), String> {
    println!("---- Table 3 — performance and energy cost of the schedules ----");
    println!("(paper values in parentheses; JPL column is an exact-by-construction target)");
    let paper = [
        (
            "(paper: Ec=0J rho=60% tau=75s)",
            "(paper: Ec=79.5J/6J rho=81% tau=50s)",
        ),
        (
            "(paper: Ec=55J rho=91% tau=75s)",
            "(paper: Ec=147J rho=94% tau=60s)",
        ),
        (
            "(paper: Ec=388J rho=100% tau=75s)",
            "(paper: Ec=388J rho=100% tau=75s)",
        ),
    ];
    let config = SchedulerConfig::default();
    for (case, (jpl_note, pa_note)) in EnvCase::ALL.into_iter().zip(paper) {
        // Lint the pristine problem (pre-scheduling, so no derived
        // edges) — the static verdict rides along with each case.
        let lint = pas_lint::lint(&build_rover_problem(case, 1).problem);
        let verdict = if lint.is_empty() {
            "clean".to_string()
        } else {
            lint.summary()
        };
        println!("case {case}  [lint: {verdict}]");
        let (jp, js) = jpl_schedule(case).map_err(|e| e.to_string())?;
        let ja = analyze(&jp.problem, &js);
        println!("  {}  {jpl_note}", metrics_row("jpl", &ja));
        let (pp, ps) = power_aware_schedule(case, &config).map_err(|e| e.to_string())?;
        let pa = analyze(&pp.problem, &ps);
        println!("  {}  {pa_note}", metrics_row("power-aware", &pa));
    }
    Ok(())
}

fn print_mission(report: &MissionReport) {
    println!("{}:", report.plan_label);
    for ph in &report.phases {
        println!(
            "  {:8} [{:>5}..{:>5}] distance={:>2} steps  time={:>5}  energy cost={}",
            ph.case.label(),
            ph.start.to_string(),
            ph.end.to_string(),
            ph.steps,
            ph.time_spent,
            ph.battery_cost
        );
    }
    println!(
        "  total: distance={} steps  time={}  energy cost={}",
        report.total_steps, report.total_time, report.total_cost
    );
}

/// Table 4: the 48-step mission under decaying solar power.
fn table4() -> Result<(), String> {
    println!("---- Table 4 — comparison under the mission scenario ----");
    let config = SchedulerConfig::default();
    let scenario = Scenario::table4();
    let jpl = simulate(&scenario, &jpl_plan().map_err(|e| e.to_string())?);
    let pa = simulate(
        &scenario,
        &power_aware_plan(&config).map_err(|e| e.to_string())?,
    );
    let pa_standalone = simulate(
        &scenario,
        &power_aware_plan_standalone(&config).map_err(|e| e.to_string())?,
    );
    print_mission(&jpl);
    print_mission(&pa);
    print_mission(&pa_standalone);
    for (label, ours) in [
        ("power-aware", &pa),
        ("power-aware-standalone", &pa_standalone),
    ] {
        println!(
            "improvement ({label}): time {:.1}%  energy {:.1}%",
            improvement_percent(jpl.total_time.as_secs(), ours.total_time.as_secs()),
            improvement_percent(
                jpl.total_cost.as_millijoules(),
                ours.total_cost.as_millijoules()
            ),
        );
    }
    println!("(paper: JPL 48 steps / 1800s / 3554J; power-aware 48 steps / 1350s / 2391.5J;");
    println!(" improvements 33.3% time, 32.7% energy)");
    Ok(())
}

/// Regenerates the committed PASDL assets under `assets/` from the
/// in-code models (run from the workspace root).
fn gen_assets() -> Result<(), String> {
    use pas_spec::{print_problem, print_problem_full};
    std::fs::create_dir_all("assets").map_err(|e| e.to_string())?;
    let (example, _) = pas_core::example::paper_example();
    std::fs::write("assets/paper_example.pasdl", print_problem(&example))
        .map_err(|e| e.to_string())?;
    for case in EnvCase::ALL {
        let rover = build_rover_problem(case, 1);
        // Rover tasks carry their temperature corners so the CLI's
        // --corners analysis is meaningful straight from the file.
        let ranges = rover.power_ranges();
        std::fs::write(
            format!("assets/rover_{}.pasdl", case.label()),
            print_problem_full(&rover.problem, Some(&ranges)),
        )
        .map_err(|e| e.to_string())?;
    }
    println!("wrote assets/paper_example.pasdl and assets/rover_{{best,typical,worst}}.pasdl");
    Ok(())
}

/// Schedule-quality ablation of the §5 heuristics (DESIGN.md §5):
/// each variant flips one knob against the default; quality is
/// reported on the paper example and the typical rover case.
fn ablation() -> Result<(), String> {
    use pas_sched::{DelayPolicy, ScanOrder, SlotPolicy, VictimOrder};
    println!("---- Heuristic ablation (schedule quality) ----");
    let base = SchedulerConfig::default();
    let variants: Vec<(&str, SchedulerConfig)> = vec![
        ("default", base.clone()),
        (
            "victim=random",
            SchedulerConfig {
                victim_order: VictimOrder::Random,
                ..base.clone()
            },
        ),
        (
            "delay=execution-time",
            SchedulerConfig {
                delay_policy: DelayPolicy::ExecutionTime,
                ..base.clone()
            },
        ),
        (
            "delay=next-breakpoint",
            SchedulerConfig {
                delay_policy: DelayPolicy::NextBreakpoint,
                ..base.clone()
            },
        ),
        (
            "no-locking",
            SchedulerConfig {
                lock_remaining: false,
                ..base.clone()
            },
        ),
        (
            "reduce-jitter",
            SchedulerConfig {
                reduce_jitter: true,
                ..base.clone()
            },
        ),
        (
            "no-compaction",
            SchedulerConfig {
                compact: false,
                ..base.clone()
            },
        ),
        (
            "single-forward-scan",
            SchedulerConfig {
                scan_orders: vec![ScanOrder::Forward],
                slot_policies: vec![SlotPolicy::StartAtGap],
                max_scans: 1,
                ..base.clone()
            },
        ),
    ];
    for (name, config) in variants {
        let sched = PowerAwareScheduler::new(config);
        let (mut example, _) = pas_core::example::paper_example();
        let ex = sched
            .schedule(&mut example)
            .map(|o| metrics_row("", &o.analysis))
            .unwrap_or_else(|e| format!("FAILED: {e}"));
        let mut rover = build_rover_problem(EnvCase::Typical, 1);
        let rv = sched
            .schedule(&mut rover.problem)
            .map(|o| metrics_row("", &o.analysis))
            .unwrap_or_else(|e| format!("FAILED: {e}"));
        println!("{name:<22} example: {ex}");
        println!("{:<22} rover:   {rv}", "");
    }
    Ok(())
}

/// Optimality gap of the heuristic pipeline against exhaustive branch
/// and bound (small instances only).
fn optimality_gap() -> Result<(), String> {
    use pas_sched::optimal::{minimize_finish_time, OptimalConfig};
    // The single-budget search, unobserved.
    let exact = |problem: &pas_core::Problem| {
        minimize_finish_time(
            problem.graph(),
            problem.constraints().p_max(),
            problem.background_power(),
            &OptimalConfig::default(),
            None,
            0,
            &mut pas_obs::NullObserver,
        )
        .0
        .map_err(|e| e.to_string())
    };
    println!("---- Optimality gap (heuristic vs exhaustive B&B) ----");

    let (mut example, _) = pas_core::example::paper_example();
    let heuristic = PowerAwareScheduler::default()
        .schedule(&mut example)
        .map_err(|e| e.to_string())?;
    let (fresh, _) = pas_core::example::paper_example();
    let best = exact(&fresh)?;
    println!(
        "paper example: heuristic tau={} vs optimal tau={} ({} nodes explored)",
        heuristic.analysis.finish_time, best.finish_time, best.nodes_explored
    );

    for case in EnvCase::ALL {
        let mut rover = build_rover_problem(case, 1);
        let heuristic = PowerAwareScheduler::default()
            .schedule(&mut rover.problem)
            .map_err(|e| e.to_string())?;
        let best = exact(&build_rover_problem(case, 1).problem)?;
        println!(
            "rover {:8} heuristic tau={} vs optimal tau={} ({} nodes explored)",
            case.label(),
            heuristic.analysis.finish_time,
            best.finish_time,
            best.nodes_explored
        );
    }
    Ok(())
}
