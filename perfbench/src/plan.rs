//! The planner workloads: `plan_large`, `plan_exact` and `plan_verdict`.
//!
//! Each builds a seeded corpus of PASDL texts, sets the program up by
//! parsing it, warms up, then times interleaved passes of one public
//! entry point over the whole corpus. Per-problem medians across the
//! passes feed the latency percentiles. Outputs are checked against
//! the validity oracle after the timed phase.

use std::ops::Range;
use std::time::{Duration, Instant};

use pas_core::{analyze, is_power_valid, is_time_valid, Problem, Schedule};
use pas_graph::longest_path::single_source_longest_paths;
use pas_graph::NodeId;
use pas_obs::{NullObserver, Observer, StageKind};
use pas_sched::{Outcome, PowerAwareScheduler, ScheduleError, SchedulerConfig};
use pas_spec::{parse_problem, print_problem};
use pas_workload::{generate, GeneratorConfig, Topology};

use crate::layers::{LayerObserver, Span};
use crate::report::{Report, Unit};
use crate::stats::{
    median, per_problem_medians, percentile, permutation, rate_at_medians, splitmix64,
};
use crate::{Args, RunError};

/// The public entry point a planner workload times.
#[derive(Debug, Clone, Copy)]
enum Call {
    /// `PowerAwareScheduler::schedule` with the default config.
    Schedule,
    /// `PowerAwareScheduler::schedule_portfolio` with this many
    /// restarts.
    Portfolio(usize),
}

/// How a problem ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// A schedule came back.
    Solved,
    /// The lint guard proved the problem unschedulable.
    LintRejected,
    /// The timing search exhausted its backtrack budget.
    GaveUp,
    /// Any other error: not a verdict this workload expects.
    Failed,
}

impl Verdict {
    fn of(result: &Result<Outcome, ScheduleError>) -> Verdict {
        match result {
            Ok(_) => Verdict::Solved,
            Err(ScheduleError::LintRejected { .. }) => Verdict::LintRejected,
            Err(ScheduleError::TimingSearchExhausted { .. }) => Verdict::GaveUp,
            Err(_) => Verdict::Failed,
        }
    }
}

/// The candidates a stratum admits, by a deterministic count from the
/// selection run.
#[derive(Debug, Clone)]
enum Band {
    /// Solved, with the exact search's node count in the range.
    ExactNodes(Range<u64>),
    /// Solved, with the pipeline's timing backtracks in the range.
    Backtracks(Range<u64>),
    /// Rejected by the lint guard.
    LintRejected,
}

/// A band and how many candidates from it the corpus holds.
struct Stratum {
    quota: usize,
    band: Band,
}

impl Stratum {
    fn new(quota: usize, band: Band) -> Stratum {
        Stratum { quota, band }
    }

    fn admits(&self, verdict: Verdict, layers: &LayerObserver) -> bool {
        match &self.band {
            Band::ExactNodes(range) => {
                verdict == Verdict::Solved && range.contains(&layers.exact.nodes)
            }
            Band::Backtracks(range) => {
                verdict == Verdict::Solved && range.contains(&layers.counts.topo_backtracks)
            }
            Band::LintRejected => verdict == Verdict::LintRejected,
        }
    }
}

/// One planner workload.
struct PlanWorkload {
    call: Call,
    /// Corpus size when no strata are given.
    problems: usize,
    /// Generator config for a derived per-candidate seed.
    generator: fn(u64) -> GeneratorConfig,
    /// Stratified selection: the corpus takes exactly `quota`
    /// candidates of each stratum, in candidate order. Empty means the
    /// first `problems` candidates.
    strata: Vec<Stratum>,
    /// Most candidates the selection may examine.
    max_candidates: usize,
    /// Backtrack budget of the timing-only run that screens candidates:
    /// a candidate whose first timing search needs more is skipped and
    /// counted. This keeps selection cheap where the default budget's
    /// give-ups take about a second each, and keeps out instances whose
    /// search would outlast the run.
    probe_backtracks: usize,
    /// Whether the traced run times one default-budget give-up among the
    /// skipped candidates. Only small problems give up in about a second;
    /// a skipped 200-task candidate can search for minutes.
    times_giveup: bool,
    /// From-scratch parses of the corpus in one set-up sample, so a
    /// sample of a small corpus lasts tens of milliseconds, not a few.
    setup_parses: usize,
}

/// Timed passes at least, even when `--seconds` is short.
const MIN_PASSES: usize = 3;

/// Set-up samples timed per run at least; `setup_s` is their median,
/// per parse of the corpus. One runs before every timed pass, so they
/// spread over the run like the passes do.
const MIN_SETUPS: usize = 11;

/// Skipped candidates the traced run probes for a default-budget
/// give-up to time.
const GIVEUP_PROBES: usize = 8;

fn workload(name: &str) -> Option<PlanWorkload> {
    Some(match name {
        // Large loose problems: min-power gap filling dominates.
        "plan_large" => PlanWorkload {
            call: Call::Schedule,
            problems: 40,
            generator: |seed| GeneratorConfig {
                seed,
                tasks: 200,
                resources: 16,
                topology: Topology::Layered { layers: 8 },
                window_margin: 8.0,
                ..GeneratorConfig::default()
            },
            strata: Vec::new(),
            max_candidates: 80,
            // These problems need no backtracking; about one candidate
            // in 300 sends the timing search into minutes of it instead.
            probe_backtracks: 200,
            times_giveup: false,
            setup_parses: 1,
        },
        // Small problems under the exact-portfolio limit, banded by the
        // exact search's nodes: the exact branch-and-bound attempt
        // dominates, and heavier instances (up to seconds each) are left
        // out so no single problem rules a pass.
        "plan_exact" => PlanWorkload {
            call: Call::Portfolio(8),
            problems: 0,
            generator: |seed| GeneratorConfig {
                seed,
                tasks: 9,
                resources: 4,
                topology: Topology::Layered { layers: 3 },
                ..GeneratorConfig::default()
            },
            strata: [8_000, 16_000, 32_000, 64_000]
                .into_iter()
                .map(|lo| Stratum::new(12, Band::ExactNodes(lo..2 * lo)))
                .collect(),
            max_candidates: 1_000,
            probe_backtracks: SchedulerConfig::default().max_backtracks,
            times_giveup: false,
            setup_parses: 16,
        },
        // Tight windows on few resources under a loose power budget: the
        // timing search and its incremental longest paths do the work.
        // Bands on the pipeline's backtracks fix how many heavy searches
        // each seed's corpus holds. The p50 and the p75 tail are the
        // tenth problem of the second and third bands; a problem's time
        // there follows its backtracks, so those bands are narrow, which
        // keeps the two percentiles alike across seeds.
        "plan_verdict" => PlanWorkload {
            call: Call::Schedule,
            problems: 0,
            generator: |seed| GeneratorConfig {
                seed,
                tasks: 16,
                resources: 2,
                window_margin: 0.5,
                max_window_probability: 0.6,
                p_max_factor: 3.0,
                ..GeneratorConfig::default()
            },
            strata: vec![
                Stratum::new(8, Band::LintRejected),
                Stratum::new(22, Band::Backtracks(0..10)),
                Stratum::new(20, Band::Backtracks(65..85)),
                Stratum::new(20, Band::Backtracks(215..265)),
                Stratum::new(10, Band::Backtracks(800..1_200)),
            ],
            max_candidates: 12_000,
            probe_backtracks: 1_200,
            times_giveup: true,
            setup_parses: 8,
        },
        _ => return None,
    })
}

/// Whether `name` is a planner workload.
pub fn is_plan(name: &str) -> bool {
    workload(name).is_some()
}

/// The PASDL text of candidate `index` under `seed`.
fn candidate(w: &PlanWorkload, seed: u64, index: usize) -> String {
    let mut state = seed ^ (index as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let generator_seed = splitmix64(&mut state);
    print_problem(&generate(&(w.generator)(generator_seed)))
}

impl Call {
    fn run(self, problem: &mut Problem, obs: &mut dyn Observer) -> Result<Outcome, ScheduleError> {
        let scheduler = PowerAwareScheduler::default();
        match self {
            Call::Schedule => scheduler.schedule_with(problem, obs),
            Call::Portfolio(restarts) => scheduler.schedule_portfolio_with(problem, restarts, obs),
        }
    }
}

/// The corpus and what its selection skipped.
#[derive(Debug, Default)]
struct Selection {
    corpus: Vec<String>,
    /// Candidates skipped because their first timing search needs more
    /// backtracks than the screening budget, in candidate order.
    skipped: Vec<String>,
}

/// Picks the corpus. A bounded timing-only run screens each candidate
/// first (see [`PlanWorkload::probe_backtracks`]). Without strata the
/// corpus is the first `problems` candidates that pass. With strata
/// every passing candidate is run once, untimed, and kept while a band
/// that admits it has room, so each seed's corpus carries the same mix
/// of easy and hard instances and the metrics compare across seeds.
fn select(w: &PlanWorkload, seed: u64) -> Result<Selection, RunError> {
    let mut selection = Selection::default();
    let mut filled = vec![0usize; w.strata.len()];
    let done = |selection: &Selection, filled: &[usize]| {
        if w.strata.is_empty() {
            selection.corpus.len() == w.problems
        } else {
            filled.iter().zip(&w.strata).all(|(f, s)| *f == s.quota)
        }
    };
    for index in 0..w.max_candidates {
        if done(&selection, &filled) {
            return Ok(selection);
        }
        let text = candidate(w, seed, index);
        let problem = parse_problem(&text).map_err(|e| RunError(format!("candidate: {e}")))?;
        let probe = PowerAwareScheduler::new(SchedulerConfig {
            max_backtracks: w.probe_backtracks,
            ..SchedulerConfig::default()
        })
        .schedule_timing_only(&mut problem.clone());
        if matches!(probe, Err(ScheduleError::TimingSearchExhausted { .. })) {
            selection.skipped.push(text);
            continue;
        }
        if w.strata.is_empty() {
            selection.corpus.push(text);
            continue;
        }
        let mut layers = LayerObserver::default();
        let verdict = Verdict::of(&w.call.run(&mut problem.clone(), &mut layers));
        let slot = w
            .strata
            .iter()
            .zip(&filled)
            .position(|(s, f)| *f < s.quota && s.admits(verdict, &layers));
        if let Some(slot) = slot {
            filled[slot] += 1;
            selection.corpus.push(text);
        }
    }
    if done(&selection, &filled) {
        return Ok(selection);
    }
    Err(RunError(format!(
        "{} candidates did not fill the corpus (bands filled {filled:?})",
        w.max_candidates
    )))
}

/// Parses the corpus from scratch.
fn set_up(corpus: &[String]) -> Result<Vec<Problem>, RunError> {
    corpus
        .iter()
        .map(|text| parse_problem(text).map_err(|e| RunError(format!("parse: {e}"))))
        .collect()
}

/// One pass over the corpus in a seeded order, traced when `layers` is
/// given: per-problem wall times (indexed by problem) and the results.
fn pass(
    call: Call,
    problems: &[Problem],
    order: &[usize],
    mut layers: Option<&mut LayerObserver>,
) -> (Vec<f64>, Vec<Result<Outcome, ScheduleError>>) {
    let mut times = vec![0.0; problems.len()];
    let mut results: Vec<Option<Result<Outcome, ScheduleError>>> = vec![None; problems.len()];
    for &i in order {
        let mut problem = problems[i].clone();
        if let Some(layers) = layers.as_deref_mut() {
            layers.begin_call();
        }
        let started = Instant::now();
        let result = match layers.as_deref_mut() {
            Some(layers) => call.run(&mut problem, layers),
            None => call.run(&mut problem, &mut NullObserver),
        };
        times[i] = started.elapsed().as_secs_f64();
        if let Some(layers) = layers.as_deref_mut() {
            layers.end_call();
        }
        results[i] = Some(result);
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("the order covers every problem"))
        .collect();
    (times, results)
}

/// Checks outputs against the oracle and tallies verdicts and quality.
#[derive(Debug, Default)]
struct Checked {
    solved: usize,
    lint_rejected: usize,
    gave_up: usize,
    failed: usize,
    stretch_sum: f64,
    energy_cost_mj: i64,
    total_energy_mj: i64,
    utilization_sum: f64,
}

fn check(
    problems: &[Problem],
    results: &[Result<Outcome, ScheduleError>],
    analyze_span: &mut Span,
) -> Checked {
    let mut c = Checked::default();
    for (original, result) in problems.iter().zip(results) {
        match Verdict::of(result) {
            Verdict::LintRejected => c.lint_rejected += 1,
            Verdict::GaveUp => c.gave_up += 1,
            Verdict::Failed => c.failed += 1,
            Verdict::Solved => {
                let schedule = &result.as_ref().expect("solved").schedule;
                if !is_time_valid(original.graph(), schedule) || !is_power_valid(original, schedule)
                {
                    c.failed += 1;
                    continue;
                }
                let analysis = analyze_span.time(|| analyze(original, schedule));
                let Some(bound) = timing_lower_bound(original) else {
                    c.failed += 1;
                    continue;
                };
                c.solved += 1;
                c.stretch_sum += analysis.finish_time.as_secs() as f64 / bound as f64;
                c.energy_cost_mj += analysis.energy_cost.as_millijoules();
                c.total_energy_mj += analysis.total_energy.as_millijoules();
                c.utilization_sum += analysis.utilization.to_f64();
            }
        }
    }
    c
}

/// The finish time of the unserialised graph's ASAP schedule: no
/// schedule of the problem can finish earlier.
pub fn timing_lower_bound(problem: &Problem) -> Option<i64> {
    let graph = problem.graph();
    let paths = single_source_longest_paths(graph, NodeId::ANCHOR).ok()?;
    let finish = Schedule::from_longest_paths(graph, &paths)
        .finish_time(graph)
        .as_secs();
    (finish > 0).then_some(finish)
}

/// Runs a planner workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) -> Result<(), RunError> {
    let w = workload(&args.workload).expect("dispatched on is_plan");
    let selection = select(&w, args.seed)?;
    let corpus = &selection.corpus;
    let n = corpus.len();

    // Set-up is parsing the corpus: one untimed parse and an untimed
    // warm-up pass, then timed passes, each after a timed set-up sample
    // of from-scratch parses.
    let problems = set_up(corpus)?;
    let order_seed = args.seed ^ 0x5EED_0F0D_E125_u64;
    pass(w.call, &problems, &permutation(n, order_seed), None);
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut setups = Vec::new();
    let (passes, results, untraced_wall) =
        timed_passes(&w, corpus, &problems, budget, order_seed, None, &mut setups)?;
    while setups.len() < MIN_SETUPS {
        timed_set_up(corpus, w.setup_parses, &mut setups)?;
    }

    let mut analyze_span = Span::default();
    let checked = check(&problems, &results, &mut analyze_span);
    report.attempted = n as u64;
    report.failed = checked.failed as u64;
    report.note(format!(
        "corpus: {n} problems; verdicts: {} solved, {} lint-rejected, {} gave up, {} failed",
        checked.solved, checked.lint_rejected, checked.gave_up, checked.failed
    ));

    {
        let medians = per_problem_medians(&passes);
        let mut sorted_ms: Vec<f64> = medians.iter().map(|s| s * 1e3).collect();
        sorted_ms.sort_by(f64::total_cmp);
        let tail_q = crate::stats::tail_percentile(n)
            .ok_or_else(|| RunError(format!("{n} problems leave no tail percentile")))?;
        report.note(format!(
            "{} timed passes; latency over {n} per-problem medians; tail is p{tail_q} ({} beyond)",
            passes.len(),
            crate::stats::beyond(n, tail_q)
        ));
        let solved = checked.solved.max(1) as f64;
        report.metric("setup_s", median(&setups), Unit::S);
        report.metric("latency_p50_ms", percentile(&sorted_ms, 50.0), Unit::Ms);
        report.metric("latency_tail_ms", percentile(&sorted_ms, tail_q), Unit::Ms);
        // Verdicts per second of a pass in which every problem takes its
        // median time. A pass's own wall time keeps every burst of host
        // noise that lands in it, and on a shared host most passes catch
        // one; per-problem medians drop them, as for the percentiles.
        let verdicts = (n - checked.failed) as f64;
        report.metric(
            "throughput_per_s",
            rate_at_medians(verdicts, &medians),
            Unit::PerS,
        );
        report.metric(
            "solved_share",
            checked.solved as f64 / n as f64,
            Unit::Ratio,
        );
        report.metric("finish_stretch", checked.stretch_sum / solved, Unit::Ratio);
        report.metric(
            "quality.battery_share",
            checked.energy_cost_mj as f64 / checked.total_energy_mj.max(1) as f64,
            Unit::Ratio,
        );
        report.metric(
            "utilization_mean",
            checked.utilization_sum / solved,
            Unit::Ratio,
        );
        report.metric("run.peak_rss_mib", crate::report::peak_rss_mib(), Unit::MiB);
        report.metric(
            "run.fail_share",
            checked.failed as f64 / n as f64,
            Unit::Ratio,
        );
    }
    if !args.trace {
        return Ok(());
    }

    // Traced run: the same passes with the layer observer attached.
    let mut layers = LayerObserver::default();
    let (traced_passes, traced_results, traced_wall) = timed_passes(
        &w,
        corpus,
        &problems,
        budget,
        order_seed,
        Some(&mut layers),
        &mut Vec::new(),
    )?;
    let traced_checked = check(&problems, &traced_results, &mut Span::default());
    if traced_checked.failed != checked.failed || traced_checked.solved != checked.solved {
        report.failed += 1;
        report.note("traced verdicts differ from untraced verdicts".to_string());
    }
    let k = traced_passes.len() as f64;
    pipeline_layers(report, &layers, k);
    timing_layer(report, &problems);
    let mut parse_span = Span::default();
    for text in corpus {
        parse_span
            .time(|| parse_problem(text))
            .map_err(|e| RunError(format!("parse: {e}")))?;
    }
    report.metric(
        "verdict.skipped",
        selection.skipped.len() as f64,
        Unit::Count,
    );
    let giveup = if w.times_giveup {
        giveup_ms(&selection.skipped)?
    } else {
        0.0
    };
    report.metric("verdict.giveup_ms", giveup, Unit::Ms);
    report.metric("spec.parse_ms", parse_span.mean_ms(), Unit::Ms);
    report.metric("core.analyze_ms", analyze_span.mean_ms(), Unit::Ms);
    report.serve_layers_flat();
    report.metric(
        "trace.overhead_ratio",
        (traced_wall / k) / (untraced_wall / passes.len() as f64),
        Unit::Ratio,
    );
    Ok(())
}

/// Reports the stage layers seen by `layers` over `passes` passes:
/// milliseconds per call, share of the calls' wall time, and decision
/// counts per pass.
pub fn pipeline_layers(report: &mut Report, layers: &LayerObserver, passes: f64) {
    let calls = layers.calls.max(1) as f64;
    let total_ms = layers.call_time.as_secs_f64() * 1e3;
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / calls;
    let share = |d: Duration| {
        if total_ms > 0.0 {
            d.as_secs_f64() * 1e3 / total_ms
        } else {
            0.0
        }
    };
    let per_pass = |total: u64| total as f64 / passes;
    let c = &layers.counts;
    let exact = layers.exact;
    for (name, stage) in [
        ("min_power", StageKind::MinPower),
        ("max_power", StageKind::MaxPower),
        ("lint", StageKind::Lint),
    ] {
        report.metric(&format!("{name}.ms"), ms(layers.stage(stage)), Unit::Ms);
        report.metric(
            &format!("{name}.share"),
            share(layers.stage(stage)),
            Unit::Ratio,
        );
    }
    report.metric(
        "min_power.moves_accepted",
        per_pass(c.moves_accepted),
        Unit::Count,
    );
    report.metric(
        "min_power.moves_rejected",
        per_pass(c.moves_rejected),
        Unit::Count,
    );
    report.metric(
        "min_power.accept_ratio",
        ratio(c.moves_accepted, c.moves_accepted + c.moves_rejected),
        Unit::Ratio,
    );
    report.metric("exact.ms", ms(layers.exact_time), Unit::Ms);
    report.metric("exact.share", share(layers.exact_time), Unit::Ratio);
    report.metric("exact.nodes", per_pass(exact.nodes), Unit::Count);
    report.metric(
        "exact.pruned_bound",
        per_pass(exact.pruned_bound),
        Unit::Count,
    );
    report.metric(
        "exact.pruned_dominance",
        per_pass(exact.pruned_dominance),
        Unit::Count,
    );
    report.metric(
        "exact.win_ratio",
        ratio(exact.wins, exact.searches),
        Unit::Ratio,
    );
    report.metric("attempts.ms", ms(layers.attempts_time), Unit::Ms);
    report.metric(
        "graph.spfa_hits",
        per_pass(c.incremental_cache_hits),
        Unit::Count,
    );
    report.metric(
        "graph.spfa_deltas",
        per_pass(c.incremental_deltas),
        Unit::Count,
    );
    report.metric(
        "graph.spfa_fallbacks",
        per_pass(c.incremental_fallbacks),
        Unit::Count,
    );
    report.metric(
        "max_power.spike_delays",
        per_pass(c.victim_delays),
        Unit::Count,
    );
    report.metric(
        "max_power.recursions",
        per_pass(c.power_recursions),
        Unit::Count,
    );
    report.metric("lint.rejections", per_pass(c.lint_rejections), Unit::Count);
    report.metric("pipeline.ms", ms(layers.call_time), Unit::Ms);
}

/// The timing layer. Inside the pipeline the max-power stage replays
/// its events after its solver thread joins, so the timing search is
/// timed through the timing-only entry point, which runs it inline:
/// one run per problem, the first timing run the pipeline makes.
pub fn timing_layer(report: &mut Report, problems: &[Problem]) {
    let mut timing = LayerObserver::default();
    for problem in problems {
        let mut problem = problem.clone();
        let _ = PowerAwareScheduler::default().schedule_timing_only_with(&mut problem, &mut timing);
    }
    let timing_ms = timing.stage(StageKind::Timing).as_secs_f64() * 1e3;
    let backtracks = timing.counts.topo_backtracks;
    let per_problem = timing_ms / problems.len().max(1) as f64;
    report.metric("timing.ms", per_problem, Unit::Ms);
    let pipeline_ms = report.value("pipeline.ms").unwrap_or(0.0);
    report.metric(
        "timing.share",
        if pipeline_ms > 0.0 {
            per_problem / pipeline_ms
        } else {
            0.0
        },
        Unit::Ratio,
    );
    report.metric("timing.backtracks", backtracks as f64, Unit::Count);
    report.metric(
        "timing.us_per_backtrack",
        if backtracks == 0 {
            0.0
        } else {
            timing_ms * 1e3 / backtracks as f64
        },
        Unit::Us,
    );
    report.metric(
        "timing.serializations",
        timing.counts.serializations as f64,
        Unit::Count,
    );
}

/// Keeps the slow give-up path in view: the timing-only wall time of
/// the first skipped candidate whose timing search spends the whole
/// default backtrack budget (`0` when none of the first few does).
fn giveup_ms(skipped: &[String]) -> Result<f64, RunError> {
    let budget = SchedulerConfig::default().max_backtracks as u64;
    for text in skipped.iter().take(GIVEUP_PROBES) {
        let mut problem = parse_problem(text).map_err(|e| RunError(format!("parse: {e}")))?;
        let mut timing = LayerObserver::default();
        let result =
            PowerAwareScheduler::default().schedule_timing_only_with(&mut problem, &mut timing);
        if result.is_err() && timing.counts.topo_backtracks >= budget {
            return Ok(timing.stage(StageKind::Timing).as_secs_f64() * 1e3);
        }
    }
    Ok(0.0)
}

/// Times one set-up sample: `parses` from-scratch parses of the corpus,
/// recorded as seconds per parse.
fn timed_set_up(corpus: &[String], parses: usize, setups: &mut Vec<f64>) -> Result<(), RunError> {
    let started = Instant::now();
    for _ in 0..parses {
        std::hint::black_box(set_up(corpus)?);
    }
    setups.push(started.elapsed().as_secs_f64() / parses as f64);
    Ok(())
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-pass per-problem seconds, the first pass's results, and the
/// summed wall time of the passes.
type Passes = (Vec<Vec<f64>>, Vec<Result<Outcome, ScheduleError>>, f64);

/// Timed passes of `w`'s call until `budget` seconds have passed (at
/// least [`MIN_PASSES`]), each in its own seeded order and each after a
/// timed set-up sample recorded in `setups`.
fn timed_passes(
    w: &PlanWorkload,
    corpus: &[String],
    problems: &[Problem],
    budget: f64,
    order_seed: u64,
    mut layers: Option<&mut LayerObserver>,
    setups: &mut Vec<f64>,
) -> Result<Passes, RunError> {
    let mut passes = Vec::new();
    let mut first = None;
    let mut wall = 0.0;
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < budget {
        timed_set_up(corpus, w.setup_parses, setups)?;
        let order = permutation(
            problems.len(),
            order_seed.wrapping_add(1 + passes.len() as u64),
        );
        let (times, results) = pass(w.call, problems, &order, layers.as_deref_mut());
        wall += times.iter().sum::<f64>();
        passes.push(times);
        first.get_or_insert(results);
    }
    Ok((passes, first.expect("at least one pass"), wall))
}
