//! The three-stage scheduling pipeline facade.
//!
//! §5 of the paper: "We use an incremental approach by solving one
//! type of constraint at a time" — timing, then max power, then min
//! power. [`PowerAwareScheduler::schedule_stages`] returns all three
//! intermediate schedules (the paper's Figs. 2, 5 and 7);
//! [`PowerAwareScheduler::schedule`] returns only the final one.

use crate::config::{SchedulerConfig, SchedulerStats};
use crate::error::ScheduleError;
use crate::max_power::schedule_max_power_seeded;
use crate::min_power::improve_gaps_observed;
use crate::session::SessionContext;
use crate::timing::schedule_timing_observed;
use pas_core::{analyze, Problem, Schedule, ScheduleAnalysis};
use pas_graph::units::TimeSpan;
use pas_graph::{binding_in_edge, NodeId};
use pas_obs::{
    stitch_segment, Binding, CountingObserver, NullObserver, Observer, RecordingObserver,
    StageKind, Tee, TraceEvent,
};
use pas_par::Parallelism;

/// Result of a pipeline run: the schedule, its analysis against the
/// problem, and the work counters.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The computed schedule.
    pub schedule: Schedule,
    /// Metrics/validity of `schedule` for the problem it was computed
    /// from.
    pub analysis: ScheduleAnalysis,
    /// Scheduler work counters.
    pub stats: SchedulerStats,
}

/// All three intermediate schedules of one pipeline run, mirroring the
/// paper's walkthrough on the Fig. 1 example.
#[derive(Debug, Clone)]
pub struct StageOutcomes {
    /// After timing scheduling only (Fig. 2): time-valid, may contain
    /// spikes and gaps.
    pub time_valid: Outcome,
    /// After max-power scheduling (Fig. 5): valid (spike-free).
    pub power_valid: Outcome,
    /// After min-power scheduling (Fig. 7): valid with best-effort
    /// gap filling.
    pub improved: Outcome,
}

/// The power-aware scheduler: a configured pipeline over a
/// [`Problem`].
///
/// # Examples
/// ```
/// use pas_core::example::paper_example;
/// use pas_sched::PowerAwareScheduler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (mut problem, _) = paper_example();
/// let outcome = PowerAwareScheduler::default().schedule(&mut problem)?;
/// assert!(outcome.analysis.is_valid());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerAwareScheduler {
    config: SchedulerConfig,
}

impl PowerAwareScheduler {
    /// Creates a scheduler with an explicit configuration.
    pub fn new(config: SchedulerConfig) -> Self {
        PowerAwareScheduler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The guard stage: runs `pas-lint` over the untouched problem
    /// and rejects it without searching when the analyzer *proves*
    /// the pipeline must fail (error-level findings). Emits a lint
    /// stage span with one `LintFinding` per diagnostic and a
    /// `LintVerdict`. No-op when
    /// [`SchedulerConfig::lint_guard`] is off.
    fn lint_guard(&self, problem: &Problem, obs: &mut dyn Observer) -> Result<(), ScheduleError> {
        if !self.config.lint_guard {
            return Ok(());
        }
        let report = in_stage(obs, StageKind::Lint, |obs| {
            emit(
                obs,
                TraceEvent::LintStarted {
                    tasks: problem.graph().num_tasks() as u64,
                    edges: problem.graph().num_edges() as u64,
                },
            );
            let report = pas_lint::lint(problem);
            for d in report.diagnostics() {
                emit(
                    obs,
                    TraceEvent::LintFinding {
                        code: d.code.to_string(),
                        severity: d.severity.as_str().to_string(),
                    },
                );
            }
            emit(
                obs,
                TraceEvent::LintVerdict {
                    errors: report.error_count() as u64,
                    warnings: report.warning_count() as u64,
                    rejected: report.has_errors(),
                },
            );
            report
        });
        if report.has_errors() {
            Err(ScheduleError::LintRejected { report })
        } else {
            Ok(())
        }
    }

    /// Stage 1 only: timing scheduling (§5.1). Serialization edges are
    /// left in the problem's graph.
    ///
    /// # Errors
    /// See [`crate::schedule_timing`].
    pub fn schedule_timing_only(&self, problem: &mut Problem) -> Result<Outcome, ScheduleError> {
        self.schedule_timing_only_with(problem, &mut NullObserver)
    }

    /// [`Self::schedule_timing_only`] with an [`Observer`] receiving
    /// the stage's decision events bracketed by
    /// `StageStarted`/`StageFinished` markers.
    ///
    /// # Errors
    /// See [`crate::schedule_timing`].
    pub fn schedule_timing_only_with(
        &self,
        problem: &mut Problem,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, ScheduleError> {
        self.lint_guard(problem, obs)?;
        self.timing_stage(problem, obs)
    }

    /// Stages 1–2: timing + max-power scheduling (§5.2).
    ///
    /// # Errors
    /// See [`crate::schedule_max_power`].
    pub fn schedule_power_valid(&self, problem: &mut Problem) -> Result<Outcome, ScheduleError> {
        self.schedule_power_valid_with(problem, &mut NullObserver)
    }

    /// [`Self::schedule_power_valid`] with an [`Observer`]. The whole
    /// run (including the internal timing re-runs) is reported as one
    /// max-power stage span.
    ///
    /// # Errors
    /// See [`crate::schedule_max_power`].
    pub fn schedule_power_valid_with(
        &self,
        problem: &mut Problem,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, ScheduleError> {
        self.lint_guard(problem, obs)?;
        let mut counter = CountingObserver::new();
        let schedule = self.max_power_stage(problem, None, &mut counter, obs)?;
        Ok(self.outcome_observed(
            problem,
            schedule,
            counter.counts().into(),
            StageKind::MaxPower,
            obs,
        ))
    }

    /// The full pipeline (§5.1–5.3): returns the final improved
    /// schedule.
    ///
    /// # Errors
    /// See [`crate::schedule_max_power`]; min-power improvement itself
    /// never fails.
    pub fn schedule(&self, problem: &mut Problem) -> Result<Outcome, ScheduleError> {
        self.schedule_with(problem, &mut NullObserver)
    }

    /// [`Self::schedule`] with an [`Observer`] receiving every
    /// decision event of the run, bracketed into max-power and
    /// min-power stage spans (timing runs inside the former).
    ///
    /// # Errors
    /// See [`Self::schedule`].
    pub fn schedule_with(
        &self,
        problem: &mut Problem,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, ScheduleError> {
        self.run_full(problem, None, obs)
    }

    /// [`Self::schedule_with`] served through a long-lived
    /// [`SessionContext`] (DESIGN.md §16): the session's warm
    /// longest-path engine seeds every max-power attempt, so a
    /// request whose constraint graph the session has seen before
    /// starts from a journal-validated cache hit instead of a cold
    /// full SPFA.
    ///
    /// The returned schedule is bit-identical to
    /// [`Self::schedule_with`] on the same problem: distances are
    /// unique, the warm engine only changes how they are computed.
    /// A warm-up failure (infeasible base graph, divergent journal)
    /// is silently absorbed — the solver rediscovers the condition
    /// through the cold machinery, so errors match the offline
    /// pipeline too. With [`SchedulerConfig::incremental`] off this
    /// is exactly [`Self::schedule_with`].
    ///
    /// # Errors
    /// See [`Self::schedule`].
    pub fn schedule_session_with(
        &self,
        problem: &mut Problem,
        session: &mut SessionContext,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, ScheduleError> {
        self.run_full(problem, Some(session), obs)
    }

    /// The one full-pipeline driver behind [`Self::schedule_with`] and
    /// [`Self::schedule_session_with`]: lint guard, a max-power span
    /// (timing runs inside it, seeded from `session`'s warm engine
    /// when there is one), then a min-power span.
    fn run_full(
        &self,
        problem: &mut Problem,
        mut session: Option<&mut SessionContext>,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, ScheduleError> {
        self.lint_guard(problem, obs)?;
        let mut counter = CountingObserver::new();
        let valid = self.max_power_stage(problem, session.as_deref_mut(), &mut counter, obs)?;
        let improved = self.min_power_stage(problem, valid, &mut counter, obs);
        if let Some(session) = session {
            session.count_serve();
        }
        Ok(self.outcome_observed(
            problem,
            improved,
            counter.counts().into(),
            StageKind::MinPower,
            obs,
        ))
    }

    /// The timing stage (§5.1) in its own span, with its outcome.
    fn timing_stage(
        &self,
        problem: &mut Problem,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, ScheduleError> {
        let mut counter = CountingObserver::new();
        let schedule = in_stage(obs, StageKind::Timing, |obs| {
            schedule_timing_observed(
                problem.graph_mut(),
                &self.config,
                &mut Tee(&mut counter, obs),
            )
        })?;
        Ok(self.outcome_observed(
            problem,
            schedule,
            counter.counts().into(),
            StageKind::Timing,
            obs,
        ))
    }

    /// The max-power stage (§5.2, timing re-runs included) in its own
    /// span. With a session and [`SchedulerConfig::incremental`] on,
    /// the session's warm engine seeds every attempt; the warm-up
    /// event lands inside the span.
    fn max_power_stage(
        &self,
        problem: &mut Problem,
        session: Option<&mut SessionContext>,
        counter: &mut CountingObserver,
        obs: &mut dyn Observer,
    ) -> Result<Schedule, ScheduleError> {
        let p_max = problem.constraints().p_max();
        let background = problem.background_power();
        in_stage(obs, StageKind::MaxPower, |obs| {
            let warm = match session {
                Some(session) if self.config.incremental => session
                    .warm_for(problem.graph(), &mut Tee(&mut *counter, &mut *obs))
                    .ok(),
                _ => None,
            };
            schedule_max_power_seeded(
                problem.graph_mut(),
                p_max,
                background,
                &self.config,
                warm,
                &mut Tee(counter, obs),
            )
        })
    }

    /// The min-power stage (§5.3 gap filling) in its own span.
    fn min_power_stage(
        &self,
        problem: &Problem,
        valid: Schedule,
        counter: &mut CountingObserver,
        obs: &mut dyn Observer,
    ) -> Schedule {
        let constraints = problem.constraints();
        in_stage(obs, StageKind::MinPower, |obs| {
            improve_gaps_observed(
                problem.graph(),
                valid,
                constraints.p_max(),
                constraints.p_min(),
                problem.background_power(),
                &self.config,
                &mut Tee(counter, obs),
            )
        })
    }

    /// Runs the pipeline capturing every intermediate schedule
    /// (Figs. 2 → 5 → 7 of the paper). The problem's graph
    /// accumulates the pinning edges of the final stage.
    ///
    /// # Errors
    /// See [`crate::schedule_max_power`].
    pub fn schedule_stages(&self, problem: &mut Problem) -> Result<StageOutcomes, ScheduleError> {
        self.schedule_stages_with(problem, &mut NullObserver)
    }

    /// [`Self::schedule_stages`] with an [`Observer`]: each of the
    /// three stages is bracketed by its own
    /// `StageStarted`/`StageFinished` markers, and each
    /// [`Outcome::stats`] is derived from the events of its span.
    ///
    /// # Errors
    /// See [`crate::schedule_max_power`].
    pub fn schedule_stages_with(
        &self,
        problem: &mut Problem,
        obs: &mut dyn Observer,
    ) -> Result<StageOutcomes, ScheduleError> {
        self.lint_guard(problem, obs)?;
        let time_valid = self.timing_stage(problem, obs)?;

        let mut counter = CountingObserver::new();
        let valid = self.max_power_stage(problem, None, &mut counter, obs)?;
        let power_valid = self.outcome_observed(
            problem,
            valid.clone(),
            counter.counts().into(),
            StageKind::MaxPower,
            obs,
        );

        let mut counter = CountingObserver::new();
        let improved = self.min_power_stage(problem, valid, &mut counter, obs);
        let improved = self.outcome_observed(
            problem,
            improved,
            counter.counts().into(),
            StageKind::MinPower,
            obs,
        );

        Ok(StageOutcomes {
            time_valid,
            power_valid,
            improved,
        })
    }

    /// Portfolio scheduling: runs the full pipeline `restarts`
    /// additional times with diversified serialization orders (§5.3:
    /// "better schedules could be found if the schedule can be
    /// scanned in various orders") and keeps the best result —
    /// fastest finish time, energy cost as tie-break. The first
    /// attempt always uses the configured deterministic heuristics,
    /// so the portfolio never does worse than [`Self::schedule`].
    /// Restart attempts alternate seeded-random commit orders with
    /// RNG-free [`crate::CommitOrder::Rotated`] variations, and when
    /// the instance has at most
    /// [`SchedulerConfig::exact_portfolio_limit`] tasks the portfolio
    /// finishes with one exact branch-and-bound attempt, closing the
    /// optimality gap on small problems deterministically.
    ///
    /// On success `problem`'s graph carries the winning attempt's
    /// serialization edges (none when the exact attempt wins — its
    /// schedule needs no added edges to be valid).
    ///
    /// # Errors
    /// Fails only when *every* attempt fails, with the first error.
    pub fn schedule_portfolio(
        &self,
        problem: &mut Problem,
        restarts: usize,
    ) -> Result<Outcome, ScheduleError> {
        self.schedule_portfolio_with(problem, restarts, &mut NullObserver)
    }

    /// [`Self::schedule_portfolio`] with an [`Observer`]: every
    /// attempt's events are forwarded, so the trace contains one pair
    /// of max-power/min-power stage spans per attempt.
    ///
    /// With [`SchedulerConfig::parallelism`] off, attempts run
    /// sequentially and stream their events inline — the trace shape
    /// of previous releases. With parallelism enabled (any thread
    /// count, including 1), attempts fan out across a thread pool,
    /// each recording into a private buffer; the buffers are stitched
    /// into `obs` in attempt order, bracketed by
    /// [`TraceEvent::WorkerStarted`]/[`TraceEvent::WorkerFinished`]
    /// markers carrying the attempt index. The winner is reduced in
    /// attempt order by strict `(finish_time, energy_cost)`
    /// improvement, so the chosen schedule — and the stitched trace —
    /// are bit-identical for any thread count (`DESIGN.md` §12).
    ///
    /// # Errors
    /// See [`Self::schedule_portfolio`].
    pub fn schedule_portfolio_with(
        &self,
        problem: &mut Problem,
        restarts: usize,
        obs: &mut dyn Observer,
    ) -> Result<Outcome, ScheduleError> {
        // Guard once up front; the attempts all see the same problem,
        // so re-linting every restart would only repeat the verdict.
        self.lint_guard(problem, obs)?;
        // Attempts never re-lint and never parallelize internally: in
        // the fan-out path each attempt *is* the unit of parallel
        // work, and in the sequential path the inner stages must
        // behave exactly as previous releases.
        let base = SchedulerConfig {
            lint_guard: false,
            parallelism: Parallelism::Off,
            ..self.config.clone()
        };
        let mut best: Option<(Problem, Outcome)> = None;
        let mut first_err = None;

        // A 1-worker pool with no observer is pure overhead: per-
        // attempt problem clones feed a thread pool that can only run
        // them in attempt order anyway, and there is no trace whose
        // stitched shape needs preserving. Route it through the
        // sequential loop below — the winner reduction is identical
        // (strict improvement in attempt order), so the outcome is
        // bit-identical; only the `measured_speedup ≈ 0.95` buffer/
        // stitch tax at threads=1 disappears. When an observer *is*
        // attached, 1-worker runs keep the fan-out path so the
        // stitched `WorkerStarted`-tagged trace stays byte-identical
        // across every enabled thread count (`DESIGN.md` §12).
        let observing = obs.is_enabled();
        let fan_out = self.config.parallelism.is_enabled()
            && (self.config.parallelism.worker_count() > 1 || observing);
        if fan_out {
            let workers = self.config.parallelism.worker_count();
            let shared_problem: &Problem = problem;
            let (runs, _) = pas_par::par_map(
                workers,
                (0..=restarts).collect::<Vec<usize>>(),
                |_, attempt| {
                    let mut candidate_problem = shared_problem.clone();
                    let scheduler = PowerAwareScheduler::new(self.attempt_config(&base, attempt));
                    if observing {
                        let mut recorder = RecordingObserver::new();
                        let result = scheduler.schedule_with(&mut candidate_problem, &mut recorder);
                        (
                            result.map(|outcome| (candidate_problem, outcome)),
                            recorder.into_events(),
                        )
                    } else {
                        let result =
                            scheduler.schedule_with(&mut candidate_problem, &mut NullObserver);
                        (
                            result.map(|outcome| (candidate_problem, outcome)),
                            Vec::new(),
                        )
                    }
                },
            );
            for (attempt, (result, events)) in runs.into_iter().enumerate() {
                stitch_segment(&mut *obs, attempt as u32, events);
                match result {
                    Ok((candidate_problem, outcome)) => {
                        if strictly_better(&outcome, &best) {
                            best = Some((candidate_problem, outcome));
                        }
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
        } else {
            for attempt in 0..=restarts {
                let mut candidate_problem = problem.clone();
                let config = self.attempt_config(&base, attempt);
                match PowerAwareScheduler::new(config).schedule_with(&mut candidate_problem, obs) {
                    Ok(outcome) => {
                        if strictly_better(&outcome, &best) {
                            best = Some((candidate_problem, outcome));
                        }
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
        }

        // Final exact attempt on small instances: random restarts
        // sample serializations blindly, while branch and bound
        // certifies the optimum — and is affordable below the
        // configured task-count ceiling. Both paths run the
        // frontier-split search: its success-or-exhaustion outcome is
        // a pure function of the problem (the node budget is split
        // evenly across independent branches), so the portfolio
        // winner cannot depend on the thread count even on instances
        // that blow the budget (DESIGN.md §12).
        if restarts > 0 && problem.graph().num_tasks() <= self.config.exact_portfolio_limit {
            let constraints = problem.constraints();
            let exact_config = crate::optimal::OptimalConfig {
                max_nodes: 5_000_000,
                horizon: None,
                use_lint_bounds: self.config.lint_bounds,
                use_dominance: self.config.dominance,
            };
            let exact_workers = if self.config.parallelism.is_enabled() {
                self.config.parallelism.worker_count()
            } else {
                1
            };
            // The search telemetry (per-branch samples and
            // SearchStatsRecorded events) is replayed in frontier
            // order with fixed per-branch budgets, so the trace stays
            // byte-identical at every thread count (DESIGN.md §12).
            let (exact, _) = crate::optimal::minimize_finish_time(
                problem.graph(),
                constraints.p_max(),
                problem.background_power(),
                &exact_config,
                Some(exact_workers),
                crate::telemetry::SEARCH_SAMPLE_INTERVAL,
                obs,
            );
            if let Ok(exact) = exact {
                let candidate_problem = problem.clone();
                let outcome = self.outcome(
                    &candidate_problem,
                    exact.schedule,
                    SchedulerStats::default(),
                );
                if strictly_better(&outcome, &best) {
                    best = Some((candidate_problem, outcome));
                }
            }
        }

        match best {
            Some((winning_problem, outcome)) => {
                *problem = winning_problem;
                // Re-emit the winner's provenance as the final group:
                // replay tooling takes the last group per stage, so
                // this also covers an exact-B&B winner (which ran
                // outside the observed attempts).
                if obs.is_enabled() {
                    emit_provenance(problem, &outcome, StageKind::MinPower, obs);
                }
                Ok(outcome)
            }
            None => Err(first_err.expect("at least one attempt ran")),
        }
    }

    /// The exact configuration the portfolio gives `attempt`
    /// (0 = the configured deterministic heuristics). Public so
    /// benches and tooling can run or time attempts individually —
    /// the portfolio derives its attempts from this same method, so
    /// a standalone run reproduces an attempt bit-exactly.
    pub fn portfolio_attempt_config(&self, attempt: usize) -> SchedulerConfig {
        let base = SchedulerConfig {
            lint_guard: false,
            parallelism: Parallelism::Off,
            ..self.config.clone()
        };
        self.attempt_config(&base, attempt)
    }

    /// The diversified configuration for portfolio `attempt`
    /// (attempt 0 is always the configured deterministic heuristics;
    /// odd attempts use seeded-random commit orders, even attempts
    /// RNG-free rotations).
    fn attempt_config(&self, base: &SchedulerConfig, attempt: usize) -> SchedulerConfig {
        if attempt == 0 {
            base.clone()
        } else if attempt % 2 == 1 {
            SchedulerConfig {
                commit_order: crate::config::CommitOrder::Random,
                seed: self.restart_seed(attempt as u64),
                ..base.clone()
            }
        } else {
            SchedulerConfig {
                commit_order: crate::config::CommitOrder::Rotated(attempt / 2),
                ..base.clone()
            }
        }
    }

    /// Seed for restart `attempt`'s random commit order.
    ///
    /// Without [`SchedulerConfig::portfolio_base_seed`] the
    /// derivation is the affine walk from the timing seed that
    /// previous releases used, preserving every published trace.
    /// With a base seed set, each attempt seeds from the splitmix64
    /// hash of `base + attempt·φ`, so two portfolios with different
    /// base seeds explore decorrelated serialization orders while
    /// each remains fully reproducible.
    fn restart_seed(&self, attempt: u64) -> u64 {
        match self.config.portfolio_base_seed {
            None => self
                .config
                .seed
                .wrapping_add(attempt.wrapping_mul(0xA24B_AED4_963E_E407)),
            Some(base) => {
                splitmix64(base.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            }
        }
    }

    fn outcome(&self, problem: &Problem, schedule: Schedule, stats: SchedulerStats) -> Outcome {
        let analysis = analyze(problem, &schedule);
        Outcome {
            schedule,
            analysis,
            stats,
        }
    }

    /// [`Self::outcome`] followed by a provenance group: one
    /// `TaskBound` per task naming its binding constraint in the
    /// committed schedule, closed by an `OutcomeRecorded` with the
    /// stage's headline metrics.
    fn outcome_observed(
        &self,
        problem: &Problem,
        schedule: Schedule,
        stats: SchedulerStats,
        stage: StageKind,
        obs: &mut dyn Observer,
    ) -> Outcome {
        let outcome = self.outcome(problem, schedule, stats);
        if obs.is_enabled() {
            emit_provenance(problem, &outcome, stage, obs);
        }
        outcome
    }
}

/// The portfolio's total-order winner predicate: strictly better on
/// `(finish_time, energy_cost)`. Reducing candidates with it in
/// attempt order selects the minimum under the total order
/// `(finish_time, energy_cost, attempt_index)` — the same winner
/// whether attempts ran sequentially or fanned out across threads.
fn strictly_better(candidate: &Outcome, incumbent: &Option<(Problem, Outcome)>) -> bool {
    match incumbent {
        None => true,
        Some((_, best)) => {
            (
                candidate.analysis.finish_time,
                candidate.analysis.energy_cost,
            ) < (best.analysis.finish_time, best.analysis.energy_cost)
        }
    }
}

/// splitmix64 finalizer (Steele et al. 2014): spreads a structured
/// base-seed-plus-stride input over the full 64-bit space.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Emits the causal provenance of a committed schedule: for every
/// task, the in-edge that is *tight* under the schedule (the paper's
/// binding constraint — the longest-path predecessor once
/// serialization edges are in place), or [`Binding::Power`] when no
/// timing constraint is tight and the start time is held purely by a
/// power-stage decision (max-power delay or min-power move).
fn emit_provenance(problem: &Problem, outcome: &Outcome, stage: StageKind, obs: &mut dyn Observer) {
    let graph = problem.graph();
    let sigma = &outcome.schedule;
    let value = |n: NodeId| -> Option<TimeSpan> {
        if n.is_anchor() {
            Some(TimeSpan::ZERO)
        } else {
            n.task().map(|t| sigma.start(t).since_origin())
        }
    };
    for (task, _) in graph.tasks() {
        let binding = match binding_in_edge(graph, task.node(), value) {
            Some(edge_id) => {
                let edge = graph.edge(edge_id);
                match edge.from().task() {
                    Some(pred) => Binding::Edge {
                        pred,
                        kind: edge.kind().to_string(),
                        weight: edge.weight(),
                    },
                    None => Binding::Anchor,
                }
            }
            None => Binding::Power,
        };
        obs.on_event(&TraceEvent::TaskBound {
            stage,
            task,
            start: sigma.start(task),
            binding,
        });
    }
    obs.on_event(&TraceEvent::OutcomeRecorded {
        stage,
        tau: outcome.analysis.finish_time,
        energy_cost: outcome.analysis.energy_cost,
        utilization: outcome.analysis.utilization,
        peak: outcome.analysis.peak_power,
    });
}

/// Emits `event` to `obs` unless observation is disabled.
fn emit(obs: &mut dyn Observer, event: TraceEvent) {
    if obs.is_enabled() {
        obs.on_event(&event);
    }
}

/// Runs `body` inside a `StageStarted`/`StageFinished` bracket for
/// `stage` — the one place stage spans are emitted.
fn in_stage<T>(
    obs: &mut dyn Observer,
    stage: StageKind,
    body: impl FnOnce(&mut dyn Observer) -> T,
) -> T {
    emit(obs, TraceEvent::StageStarted { stage });
    let out = body(&mut *obs);
    emit(obs, TraceEvent::StageFinished { stage });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::example::paper_example;

    #[test]
    fn full_pipeline_on_paper_example_is_valid() {
        let (mut problem, _) = paper_example();
        let outcome = PowerAwareScheduler::default()
            .schedule(&mut problem)
            .unwrap();
        assert!(outcome.analysis.is_valid());
        assert!(outcome.analysis.peak_power <= problem.constraints().p_max());
    }

    #[test]
    fn stages_reproduce_the_fig2_fig5_fig7_narrative() {
        let (mut problem, _) = paper_example();
        let stages = PowerAwareScheduler::default()
            .schedule_stages(&mut problem)
            .unwrap();

        // Fig. 2: time-valid but with a spike and gaps.
        assert!(stages.time_valid.analysis.timing_violations.is_empty());
        assert!(!stages.time_valid.analysis.spikes.is_empty());
        assert!(!stages.time_valid.analysis.gaps.is_empty());

        // Fig. 5: valid.
        assert!(stages.power_valid.analysis.is_valid());

        // Fig. 7: still valid, utilization not worse.
        assert!(stages.improved.analysis.is_valid());
        assert!(stages.improved.analysis.utilization >= stages.power_valid.analysis.utilization);
    }

    #[test]
    fn timing_only_matches_stage_one() {
        let (mut p1, _) = paper_example();
        let (mut p2, _) = paper_example();
        let sched = PowerAwareScheduler::default();
        let t = sched.schedule_timing_only(&mut p1).unwrap();
        let stages = sched.schedule_stages(&mut p2).unwrap();
        assert_eq!(t.schedule, stages.time_valid.schedule);
    }

    #[test]
    fn portfolio_never_does_worse_than_the_default() {
        let (mut p1, _) = paper_example();
        let single = PowerAwareScheduler::default().schedule(&mut p1).unwrap();
        let (mut p2, _) = paper_example();
        let portfolio = PowerAwareScheduler::default()
            .schedule_portfolio(&mut p2, 8)
            .unwrap();
        assert!(portfolio.analysis.is_valid());
        assert!(portfolio.analysis.finish_time <= single.analysis.finish_time);
        // The winner's schedule is valid against the returned problem.
        assert!(pas_core::is_time_valid(p2.graph(), &portfolio.schedule));
    }

    #[test]
    fn parallel_portfolio_is_bit_identical_to_sequential() {
        let (mut seq_problem, _) = paper_example();
        let sequential = PowerAwareScheduler::default()
            .schedule_portfolio(&mut seq_problem, 8)
            .unwrap();
        for threads in [1, 2, 4, 8] {
            let (mut par_problem, _) = paper_example();
            let config = SchedulerConfig {
                parallelism: Parallelism::Threads(threads),
                ..SchedulerConfig::default()
            };
            let parallel = PowerAwareScheduler::new(config)
                .schedule_portfolio(&mut par_problem, 8)
                .unwrap();
            assert_eq!(
                parallel.schedule, sequential.schedule,
                "threads={threads}: schedule must be bit-identical"
            );
            assert_eq!(
                parallel.analysis.finish_time,
                sequential.analysis.finish_time
            );
            assert_eq!(
                parallel.analysis.energy_cost,
                sequential.analysis.energy_cost
            );
        }
    }

    #[test]
    fn parallel_portfolio_traces_are_identical_across_thread_counts() {
        let trace_at = |threads: usize| {
            let (mut problem, _) = paper_example();
            let config = SchedulerConfig {
                parallelism: Parallelism::Threads(threads),
                ..SchedulerConfig::default()
            };
            let mut recorder = pas_obs::RecordingObserver::new();
            PowerAwareScheduler::new(config)
                .schedule_portfolio_with(&mut problem, 6, &mut recorder)
                .unwrap();
            recorder.into_events()
        };
        let one = trace_at(1);
        assert_eq!(
            one,
            trace_at(8),
            "stitched trace must not depend on threads"
        );
        // Every attempt is bracketed by worker markers carrying the
        // attempt index.
        let starts: Vec<u32> = one
            .iter()
            .filter_map(|e| match e {
                TraceEvent::WorkerStarted { worker } => Some(*worker),
                _ => None,
            })
            .collect();
        assert_eq!(starts, (0..=6).collect::<Vec<u32>>());
    }

    #[test]
    fn portfolio_base_seed_default_preserves_legacy_seed_walk() {
        let sched = PowerAwareScheduler::default();
        let legacy = sched
            .config
            .seed
            .wrapping_add(3u64.wrapping_mul(0xA24B_AED4_963E_E407));
        assert_eq!(sched.restart_seed(3), legacy);

        let seeded = PowerAwareScheduler::new(SchedulerConfig {
            portfolio_base_seed: Some(42),
            ..SchedulerConfig::default()
        });
        assert_ne!(seeded.restart_seed(3), legacy);
        // Reproducible: the same base seed gives the same walk.
        assert_eq!(seeded.restart_seed(3), seeded.restart_seed(3));
        // Decorrelated: nearby bases diverge.
        let other = PowerAwareScheduler::new(SchedulerConfig {
            portfolio_base_seed: Some(43),
            ..SchedulerConfig::default()
        });
        assert_ne!(seeded.restart_seed(3), other.restart_seed(3));
    }

    #[test]
    fn portfolio_with_zero_restarts_equals_default() {
        let (mut p1, _) = paper_example();
        let single = PowerAwareScheduler::default().schedule(&mut p1).unwrap();
        let (mut p2, _) = paper_example();
        let portfolio = PowerAwareScheduler::default()
            .schedule_portfolio(&mut p2, 0)
            .unwrap();
        assert_eq!(single.schedule, portfolio.schedule);
    }

    #[test]
    fn observed_pipeline_matches_unobserved_and_brackets_stages() {
        let (mut p1, _) = paper_example();
        let plain = PowerAwareScheduler::default().schedule(&mut p1).unwrap();

        let (mut p2, _) = paper_example();
        let mut recorder = pas_obs::RecordingObserver::new();
        let observed = PowerAwareScheduler::default()
            .schedule_with(&mut p2, &mut recorder)
            .unwrap();
        assert_eq!(plain.schedule, observed.schedule);
        assert_eq!(plain.stats, observed.stats);

        // The stream opens with the lint guard span, then a max-power
        // span, and contains a min-power span after it.
        let events: Vec<_> = recorder.into_events();
        assert!(matches!(
            events.first(),
            Some(TraceEvent::StageStarted {
                stage: StageKind::Lint
            })
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::StageStarted {
                stage: StageKind::MaxPower
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::StageStarted {
                stage: StageKind::MinPower
            }
        )));
        // After the final StageFinished comes the provenance group,
        // closed by the run's OutcomeRecorded.
        assert!(matches!(
            events.last(),
            Some(TraceEvent::OutcomeRecorded {
                stage: StageKind::MinPower,
                ..
            })
        ));

        // Replaying the recorded stream reproduces the stats exactly.
        let replayed: SchedulerStats = pas_obs::EventCounts::from_events(&events).into();
        assert_eq!(replayed, observed.stats);
    }

    #[test]
    fn provenance_names_one_binding_per_task_and_the_true_metrics() {
        let (mut problem, _) = paper_example();
        let mut recorder = pas_obs::RecordingObserver::new();
        let stages = PowerAwareScheduler::default()
            .schedule_stages_with(&mut problem, &mut recorder)
            .unwrap();
        let events: Vec<_> = recorder.into_events();
        let n = problem.graph().num_tasks();

        for (stage, outcome) in [
            (StageKind::Timing, &stages.time_valid),
            (StageKind::MaxPower, &stages.power_valid),
            (StageKind::MinPower, &stages.improved),
        ] {
            let bound: Vec<_> = events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::TaskBound {
                        stage: s,
                        task,
                        start,
                        binding,
                    } if *s == stage => Some((*task, *start, binding)),
                    _ => None,
                })
                .collect();
            assert_eq!(bound.len(), n, "one TaskBound per task for {stage}");
            for (task, start, binding) in &bound {
                assert_eq!(*start, outcome.schedule.start(*task));
                // An Edge binding must actually be tight under σ.
                if let pas_obs::Binding::Edge { pred, weight, .. } = binding {
                    assert_eq!(
                        outcome.schedule.start(*pred).since_origin() + *weight,
                        outcome.schedule.start(*task).since_origin(),
                        "binding edge not tight for {task} in {stage}"
                    );
                }
            }
            let recorded = events.iter().find_map(|e| match e {
                TraceEvent::OutcomeRecorded {
                    stage: s,
                    tau,
                    energy_cost,
                    utilization,
                    peak,
                } if *s == stage => Some((*tau, *energy_cost, *utilization, *peak)),
                _ => None,
            });
            assert_eq!(
                recorded,
                Some((
                    outcome.analysis.finish_time,
                    outcome.analysis.energy_cost,
                    outcome.analysis.utilization,
                    outcome.analysis.peak_power,
                )),
                "OutcomeRecorded mismatch for {stage}"
            );
        }
    }

    #[test]
    fn stage_outcome_stats_are_per_span() {
        let (mut problem, _) = paper_example();
        let mut recorder = pas_obs::RecordingObserver::new();
        let stages = PowerAwareScheduler::default()
            .schedule_stages_with(&mut problem, &mut recorder)
            .unwrap();
        // Stage 1 does no power work; stage 3 does no timing work.
        assert_eq!(stages.time_valid.stats.spike_delays, 0);
        assert_eq!(stages.improved.stats.serializations, 0);
        // Trace carries all three spans in pipeline order.
        let starts: Vec<StageKind> = recorder
            .events()
            .filter_map(|e| match e {
                TraceEvent::StageStarted { stage } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            vec![
                StageKind::Lint,
                StageKind::Timing,
                StageKind::MaxPower,
                StageKind::MinPower
            ]
        );
    }

    #[test]
    fn lint_guard_rejects_before_searching() {
        use pas_graph::units::{Power, TimeSpan};
        use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};

        let mut g = ConstraintGraph::new();
        let cpu = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
        let a = g.add_task(Task::new(
            "a",
            cpu,
            TimeSpan::from_secs(5),
            Power::from_watts(4),
        ));
        let b = g.add_task(Task::new(
            "b",
            cpu,
            TimeSpan::from_secs(5),
            Power::from_watts(4),
        ));
        // Contradictory window: min 10 s but max 4 s.
        g.min_separation(a, b, TimeSpan::from_secs(10));
        g.max_separation(a, b, TimeSpan::from_secs(4));
        let mut problem =
            pas_core::Problem::new("broken", g, pas_core::PowerConstraints::unconstrained());

        let mut recorder = pas_obs::RecordingObserver::new();
        let err = PowerAwareScheduler::default()
            .schedule_with(&mut problem, &mut recorder)
            .unwrap_err();
        let ScheduleError::LintRejected { report } = err else {
            panic!("expected LintRejected, got {err:?}");
        };
        assert!(report.has_errors());
        assert!(report.proves_scheduler_failure());

        // The trace is only the lint span: no search stage ever ran.
        let events: Vec<_> = recorder.into_events();
        assert!(events.iter().all(|e| e.stage() == Some(StageKind::Lint)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::LintVerdict { rejected: true, .. })));

        // With the guard off the full search runs — and still fails.
        let config = SchedulerConfig {
            lint_guard: false,
            max_backtracks: 100,
            ..SchedulerConfig::default()
        };
        let err = PowerAwareScheduler::new(config)
            .schedule(&mut problem)
            .unwrap_err();
        assert!(!matches!(err, ScheduleError::LintRejected { .. }));
    }

    #[test]
    fn power_valid_stage_is_spike_free() {
        let (mut p, _) = paper_example();
        let o = PowerAwareScheduler::default()
            .schedule_power_valid(&mut p)
            .unwrap();
        assert!(o.analysis.spikes.is_empty());
    }
}
