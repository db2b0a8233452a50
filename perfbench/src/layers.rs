//! Per-layer accounting for the traced run.
//!
//! [`LayerObserver`] is a plain [`Observer`]: it timestamps the stage
//! markers and search events the pipeline already emits and tallies
//! every event, so the program carries no benchmark-specific tracing.
//! Two facts about the event stream shape what it can time:
//!
//! * The max-power stage runs its search (including the nested timing
//!   re-runs) on a solver thread and replays the buffered events after
//!   the join, so only the stage's own `StageStarted`/`StageFinished`
//!   markers carry wall-clock meaning. Timing-stage time therefore
//!   comes from a separate timing-only call (see `plan.rs`).
//! * The portfolio's exact branch-and-bound attempt also replays its
//!   telemetry after the search. Its first search event arrives when
//!   the search has finished, so the exact attempt's wall time is the
//!   gap between that event and the event before it.

use std::time::{Duration, Instant};

use pas_graph::units::{Energy, Time};
use pas_obs::{EventCounts, Observer, StageKind, TraceEvent};

/// Totals of the portfolio's exact attempts, from their
/// `SearchStatsRecorded` events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactTotals {
    /// Calls in which an exact search reported.
    pub searches: u64,
    /// Calls whose final schedule came from the exact search.
    pub wins: u64,
    /// Nodes expanded, summed over branches.
    pub nodes: u64,
    /// Subtrees cut by lint-derived bounds.
    pub pruned_bound: u64,
    /// Placements skipped by dominance or feasibility checks.
    pub pruned_dominance: u64,
}

/// Observer accumulating stage wall time, exact-search totals and
/// event tallies across the calls bracketed by
/// [`LayerObserver::begin_call`] / [`LayerObserver::end_call`].
#[derive(Debug)]
pub struct LayerObserver {
    /// Every event tallied by variant.
    pub counts: EventCounts,
    /// Wall time inside each stage's spans, indexed by
    /// [`StageKind::index`].
    pub stage_time: [Duration; StageKind::ALL.len()],
    /// Wall time of the portfolio's exact attempts.
    pub exact_time: Duration,
    /// Wall time of the portfolio's heuristic attempts: from the end
    /// of the lint guard to the start of the exact attempt.
    pub attempts_time: Duration,
    /// Exact-search totals.
    pub exact: ExactTotals,
    /// Calls closed by [`LayerObserver::end_call`] and their summed
    /// wall time.
    pub calls: u64,
    /// See [`LayerObserver::calls`].
    pub call_time: Duration,
    open: Vec<(StageKind, Instant)>,
    last_event: Instant,
    call: CallState,
}

/// Per-call state for the exact-attempt boundaries and the winner.
#[derive(Debug, Default)]
struct CallState {
    start: Option<Instant>,
    lint_end: Option<Instant>,
    exact_start: Option<Instant>,
    exact_end: Option<Instant>,
    /// Best `(τ, Ec)` among the outcomes recorded before the exact
    /// search, and the last outcome recorded after it.
    best_attempt: Option<(Time, Energy)>,
    final_outcome: Option<(Time, Energy)>,
}

impl Default for LayerObserver {
    fn default() -> Self {
        LayerObserver {
            counts: EventCounts::default(),
            stage_time: [Duration::ZERO; StageKind::ALL.len()],
            exact_time: Duration::ZERO,
            attempts_time: Duration::ZERO,
            exact: ExactTotals::default(),
            calls: 0,
            call_time: Duration::ZERO,
            open: Vec::new(),
            last_event: Instant::now(),
            call: CallState::default(),
        }
    }
}

impl LayerObserver {
    /// Wall time spent in `stage` spans.
    pub fn stage(&self, stage: StageKind) -> Duration {
        self.stage_time[stage.index()]
    }

    /// Marks the start of one public call.
    pub fn begin_call(&mut self) {
        let now = Instant::now();
        self.call = CallState {
            start: Some(now),
            ..CallState::default()
        };
        self.last_event = now;
    }

    /// Closes the call opened by [`Self::begin_call`], folding its exact
    /// attempt (if any) into the totals.
    pub fn end_call(&mut self) {
        let call = std::mem::take(&mut self.call);
        if let Some(start) = call.start {
            self.calls += 1;
            self.call_time += start.elapsed();
        }
        let (Some(start), Some(exact_start), Some(exact_end)) =
            (call.start, call.exact_start, call.exact_end)
        else {
            return;
        };
        self.exact.searches += 1;
        self.exact_time += exact_end.saturating_duration_since(exact_start);
        self.attempts_time += exact_start.saturating_duration_since(call.lint_end.unwrap_or(start));
        let won = match (call.final_outcome, call.best_attempt) {
            (Some(last), Some(best)) => last < best,
            (Some(_), None) => true,
            _ => false,
        };
        self.exact.wins += u64::from(won);
    }

    fn in_stage(&self) -> bool {
        !self.open.is_empty()
    }
}

impl Observer for LayerObserver {
    fn on_event(&mut self, event: &TraceEvent) {
        let now = Instant::now();
        self.counts.record(event);
        match event {
            TraceEvent::StageStarted { stage } => self.open.push((*stage, now)),
            TraceEvent::StageFinished { stage } => {
                if let Some(pos) = self.open.iter().rposition(|(s, _)| s == stage) {
                    let (_, started) = self.open.remove(pos);
                    self.stage_time[stage.index()] += now.saturating_duration_since(started);
                }
                if *stage == StageKind::Lint {
                    self.call.lint_end = Some(now);
                }
            }
            TraceEvent::SearchSample { .. } | TraceEvent::IncumbentImproved { .. }
                if !self.in_stage() =>
            {
                self.call.exact_start.get_or_insert(self.last_event);
                self.call.exact_end = Some(now);
            }
            TraceEvent::SearchStatsRecorded {
                nodes,
                pruned_dominance,
                pruned_bound,
                ..
            } if !self.in_stage() => {
                self.call.exact_start.get_or_insert(self.last_event);
                self.call.exact_end = Some(now);
                self.exact.nodes += nodes;
                self.exact.pruned_dominance += pruned_dominance;
                self.exact.pruned_bound += pruned_bound;
            }
            TraceEvent::OutcomeRecorded {
                stage: StageKind::MinPower,
                tau,
                energy_cost,
                ..
            } => {
                let outcome = (*tau, *energy_cost);
                if self.call.exact_start.is_some() {
                    self.call.final_outcome = Some(outcome);
                } else if self.call.best_attempt.is_none_or(|best| outcome < best) {
                    self.call.best_attempt = Some(outcome);
                }
            }
            _ => {}
        }
        self.last_event = now;
    }
}

/// Wall time the benchmark measured around its own calls into one
/// layer, with the number of calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Summed wall time.
    pub total: Duration,
    /// Calls timed.
    pub calls: u64,
}

impl Span {
    /// Runs `f`, adding its wall time to the span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.total += started.elapsed();
        self.calls += 1;
        out
    }

    /// Mean milliseconds per call (`0` before the first call).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.calls as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::example::paper_example;
    use pas_sched::PowerAwareScheduler;

    #[test]
    fn stage_spans_and_tallies_match_a_counting_run() {
        let (mut problem, _) = paper_example();
        let mut layers = LayerObserver::default();
        layers.begin_call();
        let outcome = PowerAwareScheduler::default()
            .schedule_with(&mut problem, &mut layers)
            .expect("the paper example schedules");
        layers.end_call();
        assert_eq!(layers.counts.lint_runs, 1);
        assert_eq!(
            layers.counts.moves_accepted,
            outcome.stats.min_power_moves as u64
        );
        assert!(layers.stage(StageKind::MaxPower) > Duration::ZERO);
        assert!(layers.stage(StageKind::MinPower) > Duration::ZERO);
        // No exact attempt runs outside the portfolio.
        assert_eq!(layers.exact, ExactTotals::default());
    }

    #[test]
    fn portfolio_exact_attempt_is_detected_outside_stage_spans() {
        let (mut problem, _) = paper_example();
        let mut layers = LayerObserver::default();
        layers.begin_call();
        PowerAwareScheduler::default()
            .schedule_portfolio_with(&mut problem, 2, &mut layers)
            .expect("the paper example schedules");
        layers.end_call();
        assert_eq!(layers.exact.searches, 1);
        assert!(layers.exact.nodes > 0);
        assert!(layers.exact_time > Duration::ZERO);
        assert!(layers.attempts_time > Duration::ZERO);
        // The timing scheduler's own SearchStatsRecorded events arrive
        // inside max-power spans and must not count as exact search.
        assert!(layers.counts.search_stats > layers.exact.searches);
    }
}
