//! The max-power scheduler (Fig. 4 of the paper).
//!
//! Starting from a time-valid schedule, scans the power profile for
//! the first **power spike** (`P_σ(t) > P_max`) and eliminates it by
//! delaying simultaneously-active tasks, chosen in slack order:
//!
//! 1. tasks with slack are delayed *within* their slack — a local move
//!    that provably keeps the schedule time-valid;
//! 2. when only zero-slack (or insufficient-slack) tasks remain, a
//!    task is still delayed past the spike, the start times of the
//!    other simultaneous tasks are **locked**, and the whole scheduler
//!    recurses (re-running the timing scheduler) to absorb the global
//!    timing consequences;
//! 3. if the recursion fails, the speculative edges are undone and the
//!    spike is retried with additional victims ("the algorithm will
//!    choose one task from them to make further delay and continue
//!    recursion").
//!
//! Like the paper's heuristic, this is deliberately incomplete: it
//! does not enumerate all partial orders, so it may fail on extreme
//! instances that are technically schedulable.

use crate::config::{DelayPolicy, SchedulerConfig, SchedulerStats, VictimOrder};
use crate::context::{CtxMark, ScheduleContext};
use crate::error::ScheduleError;
use crate::timing::schedule_timing_ctx;
use pas_core::{slack, DeltaArena, Interval, PowerProfile, ProfileMove, Schedule};
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, TaskId};
use pas_obs::{CountingObserver, Observer, StageKind, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hard cap on spike-elimination rounds, independent of problem size;
/// purely a guard against pathological non-termination.
const MAX_SPIKE_ROUNDS: usize = 100_000;

/// Runs the max-power scheduler: timing scheduling, spike elimination
/// under `p_max`, and a final left-edge compaction pass (see
/// [`crate::compact_schedule`]). `background` is the constant base
/// draw included in the profile.
///
/// On success the graph retains only the serialization edges matching
/// the returned schedule's per-resource order (speculative release
/// and lock edges used during the search are rolled back); on failure
/// it is fully restored.
///
/// # Errors
/// Everything [`crate::schedule_timing`] returns, plus
/// [`ScheduleError::SpikeUnresolvable`] and
/// [`ScheduleError::RecursionLimit`].
///
/// # Examples
/// ```
/// use pas_graph::units::{Power, TimeSpan};
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
/// use pas_sched::{schedule_max_power, SchedulerConfig, SchedulerStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = ConstraintGraph::new();
/// let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
/// let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
/// g.add_task(Task::new("a", r0, TimeSpan::from_secs(4), Power::from_watts(6)));
/// g.add_task(Task::new("b", r1, TimeSpan::from_secs(4), Power::from_watts(6)));
/// let mut stats = SchedulerStats::default();
/// // Budget admits only one task at a time: they get staggered.
/// let sigma = schedule_max_power(&mut g, Power::from_watts(8), Power::ZERO,
///                                &SchedulerConfig::default(), &mut stats)?;
/// let profile = pas_core::PowerProfile::of_schedule(&g, &sigma, Power::ZERO);
/// assert!(profile.peak() <= Power::from_watts(8));
/// # Ok(())
/// # }
/// ```
pub fn schedule_max_power(
    graph: &mut ConstraintGraph,
    p_max: Power,
    background: Power,
    config: &SchedulerConfig,
    stats: &mut SchedulerStats,
) -> Result<Schedule, ScheduleError> {
    let mut counter = CountingObserver::new();
    let result = schedule_max_power_observed(graph, p_max, background, config, &mut counter);
    *stats += SchedulerStats::from(counter.counts());
    result
}

/// [`schedule_max_power`] with a caller-supplied [`Observer`]
/// receiving a [`TraceEvent`] for every spike, victim delay, lock,
/// recursion and respin (plus the timing events of the internal
/// re-runs).
///
/// # Errors
/// See [`schedule_max_power`].
pub fn schedule_max_power_observed<O: Observer>(
    graph: &mut ConstraintGraph,
    p_max: Power,
    background: Power,
    config: &SchedulerConfig,
    obs: &mut O,
) -> Result<Schedule, ScheduleError> {
    schedule_max_power_seeded(graph, p_max, background, config, None, obs)
}

/// [`schedule_max_power_observed`] with an optional warm longest-path
/// engine seeding each attempt's [`ScheduleContext`] (the
/// cross-request session path, DESIGN.md §16).
///
/// Each attempt clones the seed, so the caller's engine stays pinned
/// at the base-graph state it was warmed on. Longest-path distances
/// are unique, so a warm seed changes how distances are *computed*
/// (cache hit instead of full init), never their values — the
/// returned schedule is bit-identical to the cold path. When
/// [`SchedulerConfig::incremental`] is off the seed is ignored.
///
/// # Errors
/// See [`schedule_max_power`].
pub(crate) fn schedule_max_power_seeded<O: Observer>(
    graph: &mut ConstraintGraph,
    p_max: Power,
    background: Power,
    config: &SchedulerConfig,
    warm: Option<&pas_graph::incremental::IncrementalLongestPaths>,
    obs: &mut O,
) -> Result<Schedule, ScheduleError> {
    // A task whose own draw (plus background) exceeds the budget can
    // never be scheduled: delaying only moves the spike.
    for (_, task) in graph.tasks() {
        let alone = task.power().saturating_add(background);
        if alone > p_max {
            return Err(ScheduleError::SpikeUnresolvable {
                at: Time::ZERO,
                level: alone,
                budget: p_max,
            });
        }
    }

    // The greedy delay-only search can dig itself into a corner the
    // paper acknowledges ("may not find a valid schedule even though
    // one exists"). Diversify: after the configured heuristics fail,
    // retry from scratch with random victim order and rotated delay
    // policies under fresh seeds.
    let mut attempt_configs = vec![config.clone()];
    for k in 1..=config.max_respins as u64 {
        let policy = match k % 3 {
            0 => DelayPolicy::PastSpike,
            1 => DelayPolicy::NextBreakpoint,
            _ => DelayPolicy::ExecutionTime,
        };
        attempt_configs.push(SchedulerConfig {
            victim_order: VictimOrder::Random,
            delay_policy: policy,
            seed: config
                .seed
                .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..config.clone()
        });
    }

    let outer_mark = graph.mark();
    let mut last_err = None;
    for (k, attempt) in attempt_configs.iter().enumerate() {
        if k > 0 && obs.is_enabled() {
            obs.on_event(&TraceEvent::RespinStarted { attempt: k as u32 });
        }
        let mut rng = StdRng::seed_from_u64(attempt.seed);
        let mut recursions = 0usize;
        // One incremental context per attempt: the timing re-runs of
        // the recursion share it, so the speculative release/lock
        // edges are absorbed as longest-path deltas. A session seed
        // turns the attempt's first refresh into a cache hit.
        let mut ctx = match warm.filter(|_| attempt.incremental) {
            Some(engine) => ScheduleContext::with_engine(engine.clone(), StageKind::MaxPower),
            None => ScheduleContext::new(attempt.incremental, StageKind::MaxPower),
        };
        let result = solve(
            graph,
            &mut ctx,
            p_max,
            background,
            attempt,
            &mut rng,
            &mut recursions,
            obs,
        );
        // Roll back every speculative edge (serializations, releases,
        // locks). On success, re-document the final serialization
        // order and close the idle holes the victim delays left
        // behind.
        graph.undo_to(outer_mark);
        match result {
            Ok(sigma) => {
                crate::compact::replay_serialization(graph, &sigma);
                let sigma = if config.compact {
                    crate::compact::compact_schedule(graph, sigma, p_max, background)
                } else {
                    sigma
                };
                return Ok(sigma);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

/// One attempt of the `MaxPowerScheduler` recursion (Fig. 4): a
/// timing run, then spike elimination, where a spike that needs a
/// global reschedule nests a new [`Level`] — another timing run under
/// the release and lock edges just added.
///
/// The levels live on an explicit stack, so the native stack stays
/// flat however deep the rescheduling nests (up to
/// [`SchedulerConfig::max_recursions`] levels: the counter is
/// cumulative, so nesting never exceeds it), and the attempt runs on
/// the caller's thread with its events streamed live. The first level
/// to reach a power-valid schedule ends the attempt; a level that
/// fails hands its error to its parent, which undoes the elimination
/// that nested it and tries its next one.
#[allow(clippy::too_many_arguments)]
fn solve<O: Observer>(
    graph: &mut ConstraintGraph,
    ctx: &mut ScheduleContext,
    p_max: Power,
    background: Power,
    config: &SchedulerConfig,
    rng: &mut StdRng,
    recursions: &mut usize,
    obs: &mut O,
) -> Result<Schedule, ScheduleError> {
    let mut levels: Vec<Level> = Vec::new();
    // `None` enters a new level; `Some` is the error of the level
    // that just failed, for its parent.
    let mut failed: Option<ScheduleError> = None;
    loop {
        if failed.is_none() {
            match schedule_timing_ctx(graph, config, ctx, obs) {
                Ok(sigma) => levels.push(Level::new(graph, sigma, background)),
                Err(e) => failed = Some(e),
            }
        }
        let Some(level) = levels.last_mut() else {
            return Err(failed.expect("only a failure empties the stack"));
        };
        match level.eliminate_spikes(
            failed.take(),
            graph,
            ctx,
            p_max,
            background,
            config,
            rng,
            recursions,
            obs,
        ) {
            Step::PowerValid => return Ok(levels.pop().expect("the level just run").sigma),
            Step::Nest => {}
            Step::Failed(e) => {
                levels.pop();
                failed = Some(e);
            }
        }
    }
}

/// One level of the recursion: a time-valid schedule, its power
/// profile, and where its spike scan stands.
struct Level {
    sigma: Schedule,
    /// Rebuilt in full once per timing run and then delta-maintained
    /// across spike rounds: each round moves a handful of victims, and
    /// `with_moves` reproduces the canonical profile of the updated
    /// schedule exactly (see `pas_core::PowerProfile`).
    profile: PowerProfile,
    /// Breakpoint arena for the delta rebuilds: each accepted move
    /// batch retires the previous profile, whose storage is recycled
    /// into the next rebuild — the loop is allocation-free in the
    /// steady state (`DESIGN.md` §15). One per level, and only the top
    /// level runs, so arena reuse cannot race.
    delta_arena: DeltaArena,
    /// Spike rounds started, bounded by [`MAX_SPIKE_ROUNDS`].
    rounds: usize,
    /// The spike being eliminated (start, end), if any.
    spike: Option<(Time, Time)>,
    /// The elimination attempt on that spike: how many victims beyond
    /// the necessary ones it delays.
    attempt: usize,
    /// Why the previous attempt on that spike failed.
    last_err: Option<ScheduleError>,
    /// The rollback point of the elimination whose nested level is
    /// running.
    mark: Option<CtxMark>,
}

/// How a level's spike scan stopped.
enum Step {
    /// No spike is left: the level's schedule is the result.
    PowerValid,
    /// An elimination needs a global reschedule: run a nested level.
    Nest,
    /// Every elimination of a spike failed.
    Failed(ScheduleError),
}

impl Level {
    fn new(graph: &ConstraintGraph, sigma: Schedule, background: Power) -> Level {
        let profile = PowerProfile::of_schedule(graph, &sigma, background);
        Level {
            sigma,
            profile,
            delta_arena: DeltaArena::new(),
            rounds: 0,
            spike: None,
            attempt: 0,
            last_err: None,
            mark: None,
        }
    }

    /// Scans for spikes and eliminates them until the schedule is
    /// power-valid, a reschedule must nest, or a spike defeats every
    /// attempt. `nested` is the error of this level's failed nested
    /// level, if it resumes after one: that elimination is undone and
    /// counts as a failed attempt.
    #[allow(clippy::too_many_arguments)]
    fn eliminate_spikes<O: Observer>(
        &mut self,
        nested: Option<ScheduleError>,
        graph: &mut ConstraintGraph,
        ctx: &mut ScheduleContext,
        p_max: Power,
        background: Power,
        config: &SchedulerConfig,
        rng: &mut StdRng,
        recursions: &mut usize,
        obs: &mut O,
    ) -> Step {
        if let Some(e) = nested {
            let mark = self.mark.take().expect("a level resumes after nesting");
            ctx.undo_to(graph, &mark);
            if let Err(e) = self.attempt_failed(e) {
                return Step::Failed(e);
            }
        }
        loop {
            let (t, spike_end) = match self.spike {
                Some(spike) => spike,
                None => {
                    if self.rounds == MAX_SPIKE_ROUNDS {
                        return Step::Failed(ScheduleError::RecursionLimit {
                            limit: MAX_SPIKE_ROUNDS,
                        });
                    }
                    self.rounds += 1;
                    let Some(spike) = self.profile.segments().find(|s| s.power > p_max) else {
                        return Step::PowerValid;
                    };
                    if obs.is_enabled() {
                        obs.on_event(&TraceEvent::SpikeDetected {
                            t: spike.start,
                            power: spike.power,
                            budget: p_max,
                        });
                    }
                    self.spike = Some((spike.start, spike.end));
                    self.attempt = 0;
                    self.last_err = None;
                    (spike.start, spike.end)
                }
            };
            if self.attempt > config.max_respins {
                return Step::Failed(self.last_err.take().expect("an attempt failed"));
            }
            match eliminate_spike(
                graph,
                ctx,
                &self.sigma,
                &self.profile,
                t,
                spike_end,
                self.attempt,
                p_max,
                config,
                rng,
                recursions,
                obs,
            ) {
                Ok(Elimination::Local(new_sigma, moves)) => {
                    self.sigma = new_sigma;
                    if config.incremental {
                        let updated = self.profile.with_moves_in(
                            &moves,
                            self.sigma.finish_time(graph),
                            &mut self.delta_arena,
                        );
                        if obs.is_enabled() {
                            obs.on_event(&TraceEvent::IncrementalDelta {
                                stage: StageKind::MaxPower,
                                edges: moves.len() as u64,
                                relaxations: updated.segments().count() as u64,
                            });
                        }
                        self.delta_arena
                            .recycle(std::mem::replace(&mut self.profile, updated));
                    } else {
                        self.profile = PowerProfile::of_schedule(graph, &self.sigma, background);
                    }
                    self.spike = None;
                }
                Ok(Elimination::Nest(mark)) => {
                    self.mark = Some(mark);
                    return Step::Nest;
                }
                Err(e) => {
                    if let Err(e) = self.attempt_failed(e) {
                        return Step::Failed(e);
                    }
                }
            }
        }
    }

    /// Records a failed elimination attempt and moves to the next. A
    /// recursion limit is returned instead: no further attempt may
    /// recurse, so it fails the level.
    fn attempt_failed(&mut self, e: ScheduleError) -> Result<(), ScheduleError> {
        if matches!(e, ScheduleError::RecursionLimit { .. }) {
            return Err(e);
        }
        self.last_err = Some(e);
        self.attempt += 1;
        Ok(())
    }
}

enum Elimination {
    /// The spike was removed purely by within-slack delays; the
    /// updated (still time-valid) schedule continues the outer scan.
    /// Carries the applied window moves so the caller can
    /// delta-rebuild its power profile.
    Local(Schedule, Vec<ProfileMove>),
    /// A global reschedule is required: the victims are released and
    /// the remaining simultaneous tasks locked. Carries the rollback
    /// point taken before any of that, for when the nested level
    /// fails.
    Nest(CtxMark),
}

/// Removes the spike at `t`, delaying `extra` additional victims
/// beyond the strictly necessary ones (the retry knob).
#[allow(clippy::too_many_arguments)]
fn eliminate_spike<O: Observer>(
    graph: &mut ConstraintGraph,
    ctx: &mut ScheduleContext,
    sigma: &Schedule,
    profile: &PowerProfile,
    t: Time,
    spike_end: Time,
    extra: usize,
    p_max: Power,
    config: &SchedulerConfig,
    rng: &mut StdRng,
    recursions: &mut usize,
    obs: &mut O,
) -> Result<Elimination, ScheduleError> {
    let mark = ctx.mark(graph);
    let mut sigma = sigma.clone();
    let mut active: Vec<TaskId> = sigma.active_tasks_at(t, graph);
    let mut level = profile.power_at(t);
    let mut reschedule = false;
    let mut remaining_extra = extra;
    let mut moves: Vec<ProfileMove> = Vec::new();

    while level > p_max || remaining_extra > 0 {
        let over_budget = level > p_max;
        let Some(v) = extract_victim(graph, &sigma, &mut active, config, rng) else {
            if over_budget {
                ctx.undo_to(graph, &mark);
                return Err(ScheduleError::SpikeUnresolvable {
                    at: t,
                    level,
                    budget: p_max,
                });
            }
            // Extra (retry) delays are best-effort: stop when no
            // victims remain.
            break;
        };
        if !over_budget {
            remaining_extra -= 1;
        }

        let start = sigma.start(v);
        let exit = t - start + TimeSpan::from_secs(1); // minimal delay that leaves t
        let slack_v = slack(graph, &sigma, v);
        let d_v = graph.task(v).delay();

        if slack_v >= exit {
            // Case (1): the victim fits its exit within slack — a
            // purely local, validity-preserving move.
            let cap = slack_v.min(d_v).max(exit);
            let delta = delay_distance(config.delay_policy, exit, cap, t, start, profile);
            if obs.is_enabled() {
                obs.on_event(&TraceEvent::VictimDelayed {
                    task: v,
                    slack: slack_v,
                    delta,
                });
            }
            graph.release(v, start + delta);
            sigma = sigma.with_delayed(v, delta);
            level -= graph.task(v).power();
            moves.push(ProfileMove {
                power: graph.task(v).power(),
                from: Interval {
                    start,
                    end: start + d_v,
                },
                to: Interval {
                    start: start + delta,
                    end: start + delta + d_v,
                },
            });
        } else {
            // Case (2): not enough slack — force the exit and demand a
            // global reschedule. Rescheduling is expensive (a full
            // timing re-run per recursion), so the victim jumps past
            // the entire spike segment, still capped by its execution
            // time as in the paper.
            let exit_segment = (spike_end - start).min(d_v).max(exit);
            let delta = delay_distance(
                config.delay_policy,
                exit_segment,
                d_v.max(exit_segment),
                t,
                start,
                profile,
            );
            if obs.is_enabled() {
                obs.on_event(&TraceEvent::VictimDelayed {
                    task: v,
                    slack: slack_v,
                    delta,
                });
            }
            graph.release(v, start + delta);
            level -= graph.task(v).power();
            reschedule = true;
        }
    }

    if !reschedule {
        return Ok(Elimination::Local(sigma, moves));
    }

    *recursions += 1;
    if obs.is_enabled() {
        obs.on_event(&TraceEvent::PowerRecursion {
            depth: *recursions as u32,
        });
    }
    if *recursions > config.max_recursions {
        ctx.undo_to(graph, &mark);
        return Err(ScheduleError::RecursionLimit {
            limit: config.max_recursions,
        });
    }

    // Lock the remaining simultaneous tasks at their current start
    // times (§5.2) so the reschedule does not disturb them; if that
    // turns out over-constrained the nested level fails and the caller
    // retries without them (undoing the mark removes the locks too).
    if config.lock_remaining {
        for &u in &active {
            if obs.is_enabled() {
                obs.on_event(&TraceEvent::ZeroSlackLocked {
                    task: u,
                    at: sigma.start(u),
                });
            }
            graph.lock(u, sigma.start(u));
        }
    }

    Ok(Elimination::Nest(mark))
}

/// Pops the next spike victim from `active` according to the
/// configured ordering heuristic.
///
/// Locked tasks are never victims: a release edge past a lock is an
/// immediate positive cycle at the next timing run, so delaying one
/// can never succeed — the spike must be resolved by moving the
/// unlocked participants (or fail as unresolvable).
fn extract_victim(
    graph: &ConstraintGraph,
    sigma: &Schedule,
    active: &mut Vec<TaskId>,
    config: &SchedulerConfig,
    rng: &mut StdRng,
) -> Option<TaskId> {
    active.retain(|&v| !is_locked(graph, v));
    if active.is_empty() {
        return None;
    }
    let idx = match config.victim_order {
        VictimOrder::LargestSlackFirst => {
            let slacks: Vec<TimeSpan> = active.iter().map(|&v| slack(graph, sigma, v)).collect();
            let max_slack = *slacks.iter().max().expect("non-empty");
            if max_slack <= TimeSpan::ZERO {
                // All zero slack: the paper selects randomly.
                rng.gen_range(0..active.len())
            } else {
                // Largest slack first; ties broken by smallest id for
                // determinism.
                (0..active.len())
                    .filter(|&i| slacks[i] == max_slack)
                    .min_by_key(|&i| active[i])
                    .expect("non-empty")
            }
        }
        VictimOrder::Random => rng.gen_range(0..active.len()),
    };
    Some(active.swap_remove(idx))
}

/// `true` when `v` carries a lock edge pinning its start time.
fn is_locked(graph: &ConstraintGraph, v: TaskId) -> bool {
    graph
        .out_edges(v.node())
        .any(|(_, e)| e.kind() == pas_graph::EdgeKind::Lock)
}

/// Delay distance heuristic (§5.2): at least `exit` (so the victim
/// leaves the spike), at most `cap` (`min(slack, d(v))` or `d(v)`).
fn delay_distance(
    policy: DelayPolicy,
    exit: TimeSpan,
    cap: TimeSpan,
    t: Time,
    start: Time,
    profile: &PowerProfile,
) -> TimeSpan {
    match policy {
        DelayPolicy::PastSpike => exit,
        DelayPolicy::ExecutionTime => cap,
        DelayPolicy::NextBreakpoint => {
            let next = profile
                .breakpoints()
                .into_iter()
                .find(|&b| b > t)
                .unwrap_or(t + exit);
            (next - start).max(exit).min(cap)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::{is_time_valid, PowerProfile};
    use pas_graph::units::Power;
    use pas_graph::{Resource, ResourceKind, Task};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    fn parallel_pair(p0: i64, p1: i64) -> ConstraintGraph {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(4),
            Power::from_watts(p0),
        ));
        g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(4),
            Power::from_watts(p1),
        ));
        g
    }

    fn run(g: &mut ConstraintGraph, pmax: i64) -> Result<Schedule, ScheduleError> {
        let mut stats = SchedulerStats::default();
        schedule_max_power(g, Power::from_watts(pmax), Power::ZERO, &cfg(), &mut stats)
    }

    #[test]
    fn no_spike_returns_asap_schedule() {
        let mut g = parallel_pair(3, 4);
        let s = run(&mut g, 10).unwrap();
        assert_eq!(s.start(pas_graph::TaskId::from_index(0)).as_secs(), 0);
        assert_eq!(s.start(pas_graph::TaskId::from_index(1)).as_secs(), 0);
    }

    #[test]
    fn spike_is_staggered_under_budget() {
        let mut g = parallel_pair(6, 6);
        let s = run(&mut g, 8).unwrap();
        assert!(is_time_valid(&g, &s));
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        assert!(
            p.peak() <= Power::from_watts(8),
            "peak {} too high",
            p.peak()
        );
    }

    #[test]
    fn single_task_over_budget_is_unresolvable() {
        let mut g = parallel_pair(12, 2);
        match run(&mut g, 10) {
            Err(ScheduleError::SpikeUnresolvable { level, budget, .. }) => {
                assert!(level > budget);
            }
            other => panic!("expected SpikeUnresolvable, got {other:?}"),
        }
    }

    #[test]
    fn graph_is_restored_on_failure() {
        let mut g = parallel_pair(12, 2);
        let before = g.num_edges();
        assert!(run(&mut g, 10).is_err());
        assert_eq!(g.num_edges(), before);
    }

    #[test]
    fn background_power_counts_against_budget() {
        let mut g = parallel_pair(4, 4);
        let mut stats = SchedulerStats::default();
        // 4+4+3 = 11 > 10 → must stagger; each task alone is 7 ≤ 10.
        let s = schedule_max_power(
            &mut g,
            Power::from_watts(10),
            Power::from_watts(3),
            &cfg(),
            &mut stats,
        )
        .unwrap();
        let p = PowerProfile::of_schedule(&g, &s, Power::from_watts(3));
        assert!(p.peak() <= Power::from_watts(10));
        assert!(stats.spike_delays > 0);
    }

    #[test]
    fn three_way_overlap_resolved() {
        let mut g = ConstraintGraph::new();
        for i in 0..3 {
            let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
            g.add_task(Task::new(
                format!("t{i}"),
                r,
                TimeSpan::from_secs(5),
                Power::from_watts(5),
            ));
        }
        let s = run(&mut g, 10).unwrap();
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        assert!(p.peak() <= Power::from_watts(10));
        assert!(is_time_valid(&g, &s));
        // Exactly two tasks may overlap; finish time must cover at
        // least two staggered executions.
        assert!(s.finish_time(&g).as_secs() >= 10);
    }

    #[test]
    fn respects_max_separation_while_delaying() {
        // Two parallel 5 W tasks under an 8 W budget, but the second
        // must start within 3 s of the first: the scheduler has to
        // delay the *first* one's peer… the only valid arrangements
        // keep both within the window.
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        let a = g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(2),
            Power::from_watts(5),
        ));
        let b = g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(2),
            Power::from_watts(5),
        ));
        g.max_separation(a, b, TimeSpan::from_secs(3));
        let s = run(&mut g, 8).unwrap();
        assert!(is_time_valid(&g, &s));
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        assert!(p.peak() <= Power::from_watts(8));
        assert!((s.start(b) - s.start(a)).as_secs() <= 3);
    }

    #[test]
    fn observed_variant_matches_wrapper_and_null_observer() {
        let mut g1 = parallel_pair(6, 6);
        let mut stats = SchedulerStats::default();
        let s1 = schedule_max_power(
            &mut g1,
            Power::from_watts(8),
            Power::ZERO,
            &cfg(),
            &mut stats,
        )
        .unwrap();

        let mut g2 = parallel_pair(6, 6);
        let mut counter = pas_obs::CountingObserver::new();
        let s2 = schedule_max_power_observed(
            &mut g2,
            Power::from_watts(8),
            Power::ZERO,
            &cfg(),
            &mut counter,
        )
        .unwrap();
        assert_eq!(s1, s2);
        assert_eq!(stats, SchedulerStats::from(counter.counts()));
        assert!(counter.counts().spikes_detected > 0, "spike was observed");

        let mut g3 = parallel_pair(6, 6);
        let s3 = schedule_max_power_observed(
            &mut g3,
            Power::from_watts(8),
            Power::ZERO,
            &cfg(),
            &mut pas_obs::NullObserver,
        )
        .unwrap();
        assert_eq!(s1, s3, "observation must not perturb the schedule");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mk = || {
            let mut g = ConstraintGraph::new();
            for i in 0..4 {
                let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(3),
                    Power::from_watts(4),
                ));
            }
            g
        };
        let mut g1 = mk();
        let mut g2 = mk();
        let s1 = run(&mut g1, 9).unwrap();
        let s2 = run(&mut g2, 9).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn disabling_compaction_can_leave_idle_holes() {
        // Under a tight budget the victim delays scatter tasks; with
        // compaction off the finish time can only be worse or equal.
        let mk = || {
            let mut g = ConstraintGraph::new();
            for i in 0..4 {
                let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(4),
                    Power::from_watts(5),
                ));
            }
            g
        };
        let run = |compact: bool| {
            let mut g = mk();
            let mut stats = SchedulerStats::default();
            let cfg = SchedulerConfig {
                compact,
                ..SchedulerConfig::default()
            };
            schedule_max_power(&mut g, Power::from_watts(9), Power::ZERO, &cfg, &mut stats)
                .unwrap()
                .finish_time(&g)
        };
        assert!(run(false) >= run(true));
    }

    #[test]
    fn zero_slack_chain_forces_reschedule_path() {
        // a→b chained tightly (lock-step), parallel to c; a+c spike.
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        let a = g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(4),
            Power::from_watts(6),
        ));
        let b = g.add_task(Task::new(
            "b",
            r0,
            TimeSpan::from_secs(4),
            Power::from_watts(2),
        ));
        let c = g.add_task(Task::new(
            "c",
            r1,
            TimeSpan::from_secs(4),
            Power::from_watts(6),
        ));
        // b exactly 4 s after a (min+max): a has zero slack through b…
        g.min_separation(a, b, TimeSpan::from_secs(4));
        g.max_separation(a, b, TimeSpan::from_secs(4));
        // …and c is pinned to start at 0? No: leave c free so the
        // scheduler can delay the a–b block or c.
        let mut stats = SchedulerStats::default();
        let s = schedule_max_power(
            &mut g,
            Power::from_watts(8),
            Power::ZERO,
            &cfg(),
            &mut stats,
        )
        .unwrap();
        assert!(is_time_valid(&g, &s));
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        assert!(p.peak() <= Power::from_watts(8));
        // The a–b window stayed exact.
        assert_eq!((s.start(b) - s.start(a)).as_secs(), 4);
        let _ = c;
    }
}
