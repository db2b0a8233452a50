//! The min-power scheduler (Fig. 6 of the paper).
//!
//! Starting from a *valid* (time- and max-power-valid) schedule,
//! improves the min-power utilization `ρ_σ(P_min)` by re-placing
//! slack-owning tasks into **power gaps** (`P_σ(t) < P_min`):
//!
//! * instants are visited in a heuristic order (forward / reverse /
//!   seeded-random, cycling across passes);
//! * for a gap at `t`, candidate tasks are those that started before
//!   `t` and have enough slack to still be active at `t`
//!   (`Δ_σ(v) ≥ t − σ(v) − d(v)`);
//! * a candidate is tentatively delayed into the gap (slot policy:
//!   start-at-gap / finish-at-gap-end / random) and the move is kept
//!   only when the new schedule is still valid **and** strictly
//!   improves `ρ`;
//! * passes repeat until a full pass yields no improvement or `ρ = 1`.
//!
//! The min power constraint is soft: residual gaps are tolerated after
//! best effort.

use crate::config::{ScanOrder, SchedulerConfig, SchedulerStats, SlotPolicy};
use crate::error::ScheduleError;
use crate::max_power::schedule_max_power_observed;
use pas_core::{
    free_energy_used, is_move_valid, is_time_valid, slack, utilization, utilization_of, Interval,
    PowerProfile, Ratio, Schedule,
};
use pas_graph::units::{Energy, Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, TaskId};
use pas_obs::{CountingObserver, Observer, ScanKind, SlotKind, StageKind, TraceEvent};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Runs the full three-stage pipeline ending with min-power gap
/// filling. The graph retains only the serialization edges matching
/// the returned schedule (gap filling itself never mutates it).
///
/// # Errors
/// Everything [`crate::schedule_max_power`] can return; gap filling itself is
/// best-effort and never fails.
///
/// # Examples
/// ```
/// use pas_graph::units::{Power, TimeSpan};
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
/// use pas_sched::{schedule_min_power, SchedulerConfig, SchedulerStats};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = ConstraintGraph::new();
/// let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
/// let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", r0, TimeSpan::from_secs(4), Power::from_watts(6)));
/// let b = g.add_task(Task::new("b", r1, TimeSpan::from_secs(8), Power::from_watts(6)));
/// // a could hide inside b's window instead of leaving a 6 W tail.
/// let mut stats = SchedulerStats::default();
/// let sigma = schedule_min_power(&mut g, Power::from_watts(16), Power::from_watts(12),
///                                Power::ZERO, &SchedulerConfig::default(), &mut stats)?;
/// let p = pas_core::PowerProfile::of_schedule(&g, &sigma, Power::ZERO);
/// assert!(p.peak() <= Power::from_watts(16));
/// # Ok(())
/// # }
/// ```
pub fn schedule_min_power(
    graph: &mut ConstraintGraph,
    p_max: Power,
    p_min: Power,
    background: Power,
    config: &SchedulerConfig,
    stats: &mut SchedulerStats,
) -> Result<Schedule, ScheduleError> {
    let mut counter = CountingObserver::new();
    let result = schedule_min_power_observed(graph, p_max, p_min, background, config, &mut counter);
    *stats += SchedulerStats::from(counter.counts());
    result
}

/// [`schedule_min_power`] with a caller-supplied [`Observer`]
/// receiving a [`TraceEvent`] for every scan pass, gap, and
/// accepted/rejected move (plus the events of the earlier stages).
///
/// # Errors
/// See [`schedule_min_power`].
pub fn schedule_min_power_observed<O: Observer>(
    graph: &mut ConstraintGraph,
    p_max: Power,
    p_min: Power,
    background: Power,
    config: &SchedulerConfig,
    obs: &mut O,
) -> Result<Schedule, ScheduleError> {
    let sigma = schedule_max_power_observed(graph, p_max, background, config, obs)?;
    Ok(improve_gaps_observed(
        graph, sigma, p_max, p_min, background, config, obs,
    ))
}

/// Best-effort gap filling on an already-valid schedule (the tail of
/// Fig. 6). Exposed separately so callers holding a valid schedule
/// from elsewhere (e.g. a hand schedule) can improve it too.
///
/// `sigma` must be time-valid (as the paper's Fig. 6 assumes). With
/// [`SchedulerConfig::incremental`] enabled, each candidate move is
/// scored without building anything: the localized [`is_move_valid`]
/// check against the unmoved schedule, plus
/// [`PowerProfile::move_effect`] over the segments the move touches,
/// which gives the new peak and, with a running `∫ min(P, P_min)`,
/// the exact new `ρ`. Only accepted moves (and `reduce_jitter` ties)
/// build the moved profile, and per-task slacks are maintained across
/// accepts. A `sigma` whose profile already spikes above `p_max` is
/// scored by full recomputation instead, since the window query
/// answers the spike test only on a spike-free base. Both paths are
/// decision-identical on a valid input schedule.
pub fn improve_gaps(
    graph: &ConstraintGraph,
    sigma: Schedule,
    p_max: Power,
    p_min: Power,
    background: Power,
    config: &SchedulerConfig,
    stats: &mut SchedulerStats,
) -> Schedule {
    let mut counter = CountingObserver::new();
    let improved =
        improve_gaps_observed(graph, sigma, p_max, p_min, background, config, &mut counter);
    *stats += SchedulerStats::from(counter.counts());
    improved
}

/// [`improve_gaps`] with a caller-supplied [`Observer`].
#[allow(clippy::too_many_arguments)]
pub fn improve_gaps_observed<O: Observer>(
    graph: &ConstraintGraph,
    mut sigma: Schedule,
    p_max: Power,
    p_min: Power,
    background: Power,
    config: &SchedulerConfig,
    obs: &mut O,
) -> Schedule {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED_6A95);
    // Invariant (incremental path): `current_profile` always equals
    // `PowerProfile::of_schedule(graph, &sigma, background)`, `used`
    // its `∫ min(P, P_min)`, and `slacks` `pas_core::slacks(graph,
    // &sigma)` — accepted moves update all three exactly, so decisions
    // based on them are bit-identical to the rebuild-every-time path.
    let mut current_profile = PowerProfile::of_schedule(graph, &sigma, background);
    let mut rho = utilization(&current_profile, p_min);
    if rho.is_one() {
        return sigma;
    }
    // Window scoring answers the spike test only on a spike-free base
    // (a hand-made `sigma` may spike); such inputs take the oracle path.
    let incremental = config.incremental && current_profile.spikes(p_max).is_empty();
    let mut used = free_energy_used(&current_profile, p_min);
    let mut slacks = pas_core::slacks(graph, &sigma);
    // Dense per-task reads for the candidate scan: delays and powers
    // never change, and `ends` follows every accepted move on both
    // paths.
    let delays: Vec<TimeSpan> = graph.tasks().map(|(_, task)| task.delay()).collect();
    let powers: Vec<Power> = graph.tasks().map(|(_, task)| task.power()).collect();
    let mut ends: Vec<Time> = sigma
        .iter()
        .map(|(v, start)| start + delays[v.index()])
        .collect();

    // Passes sweep the full cross product of scan orders × slot
    // policies ("we scan the schedule multiple times while altering
    // some of the heuristics during each scan"); the loop only stops
    // once a whole combination cycle produced no improvement.
    let orders = config.scan_orders.len().max(1);
    let policies = config.slot_policies.len().max(1);
    let combination_cycle = orders * policies;
    let mut barren_passes = 0usize;

    for pass in 0..config.max_scans.max(combination_cycle) {
        let scan_order = cycle(&config.scan_orders, pass % orders, ScanOrder::Forward);
        let slot_policy = cycle(&config.slot_policies, pass / orders, SlotPolicy::StartAtGap);
        if obs.is_enabled() {
            obs.on_event(&TraceEvent::GapScanStarted {
                pass: pass as u32 + 1,
                order: scan_kind(scan_order),
                slot: slot_kind(slot_policy),
            });
        }
        let mut pass_moves = 0u64;
        let mut improved = false;

        if incremental {
            // The maintained profile already matches `sigma`.
            if obs.is_enabled() {
                obs.on_event(&TraceEvent::IncrementalCacheHit {
                    stage: StageKind::MinPower,
                });
            }
        } else {
            current_profile = PowerProfile::of_schedule(graph, &sigma, background);
        }
        let mut instants: Vec<Time> = current_profile
            .segments()
            .filter(|s| s.power < p_min)
            .map(|s| s.start)
            .collect();
        match scan_order {
            ScanOrder::Forward => {}
            ScanOrder::Reverse => instants.reverse(),
            ScanOrder::Random => instants.shuffle(&mut rng),
        }

        for t in instants {
            // The schedule may have changed since the pass started;
            // re-check that t is still a gap. The oracle path also
            // recomputes every slack, which checks the maintained ones.
            if !incremental {
                current_profile = PowerProfile::of_schedule(graph, &sigma, background);
                slacks = pas_core::slacks(graph, &sigma);
            }
            let Some(gap) = current_profile.segment_at(t).filter(|s| s.power < p_min) else {
                continue;
            };
            if obs.is_enabled() {
                obs.on_event(&TraceEvent::GapFound {
                    t,
                    power: gap.power,
                    floor: p_min,
                });
            }

            // Candidates, in id order: started before t but no longer
            // active there (so finished by t), with enough slack to
            // cover t. The scan stops at the first accepted move.
            let mut accepted = false;
            for i in 0..ends.len() {
                let (end, slack_v) = (ends[i], slacks[i]);
                if end > t || slack_v <= t - end {
                    continue;
                }
                let v = TaskId::from_index(i);
                let start = sigma.start(v);
                let delta =
                    slot_delta(start, delays[i], slack_v, t, gap.end, slot_policy, &mut rng);
                if !delta.is_positive() {
                    continue;
                }
                let mv = Candidate::new(v, powers[i], Interval { start, end }, delta);
                let base = Base {
                    sigma: &sigma,
                    profile: &current_profile,
                    rho,
                    used,
                };
                let scored = if incremental {
                    score_window(graph, base, config, p_max, p_min, mv)
                } else {
                    score_rebuild(graph, base, background, config, p_max, p_min, mv)
                };

                if !scored.accept {
                    if obs.is_enabled() {
                        obs.on_event(&TraceEvent::MoveRejected {
                            task: v,
                            delta,
                            rho_before: rho,
                            rho_after: scored.new_rho,
                        });
                    }
                    continue;
                }
                if obs.is_enabled() {
                    obs.on_event(&TraceEvent::MoveAccepted {
                        task: v,
                        delta,
                        rho_before: rho,
                        rho_after: scored.new_rho,
                    });
                }
                sigma = sigma.with_delayed(v, delta);
                ends[i] = end + delta;
                debug_assert_eq!(ends[i], sigma.end(v, graph));
                if let Some(moved) = scored.moved {
                    current_profile = moved;
                    used += scored.capped_delta;
                    refresh_slacks(graph, &sigma, &mut slacks, v);
                    debug_assert_eq!(used, free_energy_used(&current_profile, p_min));
                    debug_assert_eq!(slacks, pas_core::slacks(graph, &sigma));
                    if obs.is_enabled() {
                        obs.on_event(&TraceEvent::IncrementalDelta {
                            stage: StageKind::MinPower,
                            edges: 1,
                            relaxations: current_profile.segments().count() as u64,
                        });
                    }
                }
                rho = scored.new_rho;
                pass_moves += 1;
                accepted = true;
                break;
            }
            if accepted {
                improved = true;
                if rho.is_one() {
                    if obs.is_enabled() {
                        obs.on_event(&TraceEvent::GapScanFinished {
                            pass: pass as u32 + 1,
                            moves: pass_moves,
                        });
                    }
                    return sigma;
                }
                // Re-derive the gap structure for this t on the next
                // instant.
            }
        }

        if obs.is_enabled() {
            obs.on_event(&TraceEvent::GapScanFinished {
                pass: pass as u32 + 1,
                moves: pass_moves,
            });
        }
        if improved {
            barren_passes = 0;
        } else {
            barren_passes += 1;
            if barren_passes >= combination_cycle {
                break;
            }
        }
    }
    sigma
}

/// A candidate re-placement: `task` (of power `power`) delayed by
/// `delta`, from window `from` to window `to`.
#[derive(Clone, Copy)]
struct Candidate {
    task: TaskId,
    delta: TimeSpan,
    power: Power,
    from: Interval,
    to: Interval,
}

impl Candidate {
    fn new(task: TaskId, power: Power, from: Interval, delta: TimeSpan) -> Self {
        Candidate {
            task,
            delta,
            power,
            from,
            to: Interval {
                start: from.start + delta,
                end: from.end + delta,
            },
        }
    }
}

/// The standing state a candidate is scored against: the schedule,
/// its profile, its `ρ`, and its `∫ min(P, P_min)` (maintained on the
/// incremental path only).
#[derive(Clone, Copy)]
struct Base<'a> {
    sigma: &'a Schedule,
    profile: &'a PowerProfile,
    rho: Ratio,
    used: Energy,
}

/// One scored gap-fill candidate: whether the Fig. 6 accept rule
/// takes it, the utilization it reaches, and — window-scored and
/// accepted — the moved profile and its `∫ min(P, P_min)` change.
struct Scored {
    accept: bool,
    new_rho: Ratio,
    moved: Option<PowerProfile>,
    capped_delta: Energy,
}

/// Scores `mv` from the segments it touches ([`PowerProfile::move_effect`]
/// plus the running `base.used`) and the local validity check. Builds
/// the moved profile only when the move is taken or a `reduce_jitter`
/// tie needs its curve. `base.profile` must be free of spikes above
/// `p_max`.
fn score_window(
    graph: &ConstraintGraph,
    base: Base<'_>,
    config: &SchedulerConfig,
    p_max: Power,
    p_min: Power,
    mv: Candidate,
) -> Scored {
    let Candidate {
        task,
        power,
        from,
        to,
        ..
    } = mv;
    let effect = base.profile.move_effect(power, from, to, p_min);
    let new_rho = utilization_of(base.used + effect.capped_delta, p_min, effect.end);
    let improves = new_rho > base.rho;
    let tie = config.reduce_jitter && new_rho == base.rho;
    let mut built = None;
    let accept = (improves || tie)
        && effect.peak <= p_max
        && is_move_valid(graph, base.sigma, task, to.start)
        && (improves || {
            let moved = base.profile.with_task_moved(power, from, to, effect.end);
            let flatter = flattens(&moved, base.profile);
            built = Some(moved);
            flatter
        });
    Scored {
        accept,
        new_rho,
        moved: accept.then(|| {
            built.unwrap_or_else(|| base.profile.with_task_moved(power, from, to, effect.end))
        }),
        capped_delta: effect.capped_delta,
    }
}

/// Scores `mv` by rebuilding the moved schedule and profile and
/// running the full checks: the oracle the window scoring must agree
/// with.
fn score_rebuild(
    graph: &ConstraintGraph,
    base: Base<'_>,
    background: Power,
    config: &SchedulerConfig,
    p_max: Power,
    p_min: Power,
    mv: Candidate,
) -> Scored {
    let tentative = base.sigma.with_delayed(mv.task, mv.delta);
    let moved = PowerProfile::of_schedule(graph, &tentative, background);
    let valid = is_time_valid(graph, &tentative) && moved.spikes(p_max).is_empty();
    let new_rho = utilization(&moved, p_min);
    let jitter_win = config.reduce_jitter && new_rho == base.rho && flattens(&moved, base.profile);
    Scored {
        accept: valid && (new_rho > base.rho || jitter_win),
        new_rho,
        moved: None,
        capped_delta: Energy::ZERO,
    }
}

/// The `reduce_jitter` tie-break: the moved profile is flatter and
/// ends no later.
fn flattens(moved: &PowerProfile, current: &PowerProfile) -> bool {
    pas_core::power_jitter(moved) < pas_core::power_jitter(current) && moved.end() <= current.end()
}

/// Recomputes the slacks a move of `moved` can change: its own (its
/// start moved) and those of the sources of its in-edges (their
/// out-edges point at it). Every other slack reads unchanged starts.
fn refresh_slacks(
    graph: &ConstraintGraph,
    sigma: &Schedule,
    slacks: &mut [TimeSpan],
    moved: TaskId,
) {
    slacks[moved.index()] = slack(graph, sigma, moved);
    for (_, e) in graph.in_edges(moved.node()) {
        if let Some(u) = e.from().task() {
            slacks[u.index()] = slack(graph, sigma, u);
        }
    }
}

/// Wire representation of a [`ScanOrder`].
fn scan_kind(order: ScanOrder) -> ScanKind {
    match order {
        ScanOrder::Forward => ScanKind::Forward,
        ScanOrder::Reverse => ScanKind::Reverse,
        ScanOrder::Random => ScanKind::Random,
    }
}

/// Wire representation of a [`SlotPolicy`].
fn slot_kind(policy: SlotPolicy) -> SlotKind {
    match policy {
        SlotPolicy::StartAtGap => SlotKind::StartAtGap,
        SlotPolicy::FinishAtGapEnd => SlotKind::FinishAtGapEnd,
        SlotPolicy::Random => SlotKind::Random,
    }
}

fn cycle<T: Copy>(items: &[T], index: usize, default: T) -> T {
    if items.is_empty() {
        default
    } else {
        items[index % items.len()]
    }
}

/// How far to delay a task starting at `start`, of delay `d_v` and
/// slack `slack_v`, so that it is active at `t`, according to the slot
/// policy. Returns a non-positive span when no admissible slot exists
/// (callers skip the candidate).
fn slot_delta(
    start: Time,
    d_v: TimeSpan,
    slack_v: TimeSpan,
    t: Time,
    gap_end: Time,
    policy: SlotPolicy,
    rng: &mut StdRng,
) -> TimeSpan {
    // Starts that keep v active at t: (t − d(v), t].
    let earliest = (t - d_v + TimeSpan::from_secs(1)).max(start + TimeSpan::from_secs(1));
    let latest_by_slack = start + slack_v.min(TimeSpan::from_secs(i64::MAX / 4));
    let latest = t.min(latest_by_slack);
    if latest < earliest {
        return TimeSpan::ZERO;
    }
    let target = match policy {
        SlotPolicy::StartAtGap => latest, // start at t (or as late as slack allows)
        SlotPolicy::FinishAtGapEnd => (gap_end - d_v).max(earliest).min(latest),
        SlotPolicy::Random => {
            let lo = earliest.as_secs();
            let hi = latest.as_secs();
            Time::from_secs(rng.gen_range(lo..=hi))
        }
    };
    target - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_core::is_time_valid;
    use pas_graph::{Resource, ResourceKind, Task};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::default()
    }

    /// x, y (4 s @ 8 W) stacked over z (8 s @ 6 W): the ASAP profile
    /// is 22 W then 6 W. With `P_min = 14` the second half is a gap
    /// burning free power; moving one of x/y there flattens the
    /// profile to exactly 14 W (`ρ = 1`).
    fn stacked_gap_graph() -> (ConstraintGraph, TaskId, TaskId, TaskId) {
        let mut g = ConstraintGraph::new();
        let rx = g.add_resource(Resource::new("X", ResourceKind::Compute));
        let ry = g.add_resource(Resource::new("Y", ResourceKind::Compute));
        let rz = g.add_resource(Resource::new("Z", ResourceKind::Compute));
        let x = g.add_task(Task::new(
            "x",
            rx,
            TimeSpan::from_secs(4),
            Power::from_watts(8),
        ));
        let y = g.add_task(Task::new(
            "y",
            ry,
            TimeSpan::from_secs(4),
            Power::from_watts(8),
        ));
        let z = g.add_task(Task::new(
            "z",
            rz,
            TimeSpan::from_secs(8),
            Power::from_watts(6),
        ));
        (g, x, y, z)
    }

    #[test]
    fn gap_is_filled_to_full_utilization() {
        let (mut g, x, y, z) = stacked_gap_graph();
        let mut stats = SchedulerStats::default();
        let sigma = schedule_min_power(
            &mut g,
            Power::from_watts(22),
            Power::from_watts(14),
            Power::ZERO,
            &cfg(),
            &mut stats,
        )
        .unwrap();
        let profile = PowerProfile::of_schedule(&g, &sigma, Power::ZERO);
        let rho = utilization(&profile, Power::from_watts(14));
        assert!(rho.is_one(), "expected flat 14 W profile, ρ = {rho}");
        assert!(is_time_valid(&g, &sigma));
        assert_eq!(sigma.start(z).as_secs(), 0);
        // Exactly one of x/y moved into the gap.
        let moved = [x, y]
            .iter()
            .filter(|&&t| sigma.start(t).as_secs() == 4)
            .count();
        assert_eq!(moved, 1);
        assert!(stats.min_power_moves >= 1);
    }

    #[test]
    fn already_full_utilization_returns_unchanged() {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("A", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r,
            TimeSpan::from_secs(4),
            Power::from_watts(6),
        ));
        let mut stats = SchedulerStats::default();
        let sigma = schedule_min_power(
            &mut g,
            Power::from_watts(16),
            Power::from_watts(6),
            Power::ZERO,
            &cfg(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(sigma.start(TaskId::from_index(0)).as_secs(), 0);
        assert_eq!(stats.min_power_moves, 0);
    }

    #[test]
    fn moves_never_create_spikes_or_invalidate_timing() {
        // Three parallel tasks with a 13 W budget; p_min high enough
        // that gaps exist but not every move is admissible.
        let mut g = ConstraintGraph::new();
        for i in 0..3 {
            let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
            g.add_task(Task::new(
                format!("t{i}"),
                r,
                TimeSpan::from_secs(3 + i as i64),
                Power::from_watts(6),
            ));
        }
        let mut stats = SchedulerStats::default();
        let sigma = schedule_min_power(
            &mut g,
            Power::from_watts(13),
            Power::from_watts(11),
            Power::ZERO,
            &cfg(),
            &mut stats,
        )
        .unwrap();
        let profile = PowerProfile::of_schedule(&g, &sigma, Power::ZERO);
        assert!(profile.peak() <= Power::from_watts(13));
        assert!(is_time_valid(&g, &sigma));
    }

    #[test]
    fn constrained_task_is_not_moved_past_its_window() {
        // x and y must start within 1 s of z's start: neither may be
        // pushed into the tail gap, so the gap survives and the
        // schedule keeps its (valid) shape.
        let (mut g, x, y, z) = stacked_gap_graph();
        g.max_separation(z, x, TimeSpan::from_secs(1));
        g.max_separation(z, y, TimeSpan::from_secs(1));
        let mut stats = SchedulerStats::default();
        let sigma = schedule_min_power(
            &mut g,
            Power::from_watts(22),
            Power::from_watts(14),
            Power::ZERO,
            &cfg(),
            &mut stats,
        )
        .unwrap();
        assert!(is_time_valid(&g, &sigma));
        assert!((sigma.start(x) - sigma.start(z)).as_secs() <= 1);
        assert!((sigma.start(y) - sigma.start(z)).as_secs() <= 1);
    }

    #[test]
    fn observed_variant_matches_wrapper_and_null_observer() {
        let p_max = Power::from_watts(22);
        let p_min = Power::from_watts(14);

        let (mut g1, _, _, _) = stacked_gap_graph();
        let mut stats = SchedulerStats::default();
        let s1 =
            schedule_min_power(&mut g1, p_max, p_min, Power::ZERO, &cfg(), &mut stats).unwrap();

        let (mut g2, _, _, _) = stacked_gap_graph();
        let mut counter = pas_obs::CountingObserver::new();
        let s2 =
            schedule_min_power_observed(&mut g2, p_max, p_min, Power::ZERO, &cfg(), &mut counter)
                .unwrap();
        assert_eq!(s1, s2);
        assert_eq!(stats, SchedulerStats::from(counter.counts()));
        assert!(counter.counts().gaps_found > 0, "gap was observed");
        assert_eq!(
            counter.counts().gap_scans,
            counter.counts().gap_scan_finishes,
            "every scan pass is bracketed"
        );

        let (mut g3, _, _, _) = stacked_gap_graph();
        let s3 = schedule_min_power_observed(
            &mut g3,
            p_max,
            p_min,
            Power::ZERO,
            &cfg(),
            &mut pas_obs::NullObserver,
        )
        .unwrap();
        assert_eq!(s1, s3, "observation must not perturb the schedule");
    }

    #[test]
    fn gap_filling_is_deterministic_for_seed() {
        let run = || {
            let (mut g, _, _, _) = stacked_gap_graph();
            let mut stats = SchedulerStats::default();
            schedule_min_power(
                &mut g,
                Power::from_watts(22),
                Power::from_watts(14),
                Power::ZERO,
                &cfg(),
                &mut stats,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jitter_reduction_accepts_utilization_ties_when_enabled() {
        // a, b (4 s @ 6 W) stacked over c (8 s @ 2 W) with P_min = 14:
        // staggering a into the tail keeps ρ identical (both
        // arrangements stay under P_min throughout) but flattens the
        // curve from 14/2 W to a constant 8 W.
        let build = || {
            let mut g = ConstraintGraph::new();
            let ra = g.add_resource(Resource::new("A", ResourceKind::Compute));
            let rb = g.add_resource(Resource::new("B", ResourceKind::Compute));
            let rc = g.add_resource(Resource::new("C", ResourceKind::Compute));
            g.add_task(Task::new(
                "a",
                ra,
                TimeSpan::from_secs(4),
                Power::from_watts(6),
            ));
            g.add_task(Task::new(
                "b",
                rb,
                TimeSpan::from_secs(4),
                Power::from_watts(6),
            ));
            g.add_task(Task::new(
                "c",
                rc,
                TimeSpan::from_secs(8),
                Power::from_watts(2),
            ));
            g
        };

        let run = |jitter: bool| {
            let mut g = build();
            let cfg = SchedulerConfig {
                reduce_jitter: jitter,
                ..SchedulerConfig::default()
            };
            let mut stats = SchedulerStats::default();
            let sigma = schedule_min_power(
                &mut g,
                Power::from_watts(16),
                Power::from_watts(14),
                Power::ZERO,
                &cfg,
                &mut stats,
            )
            .unwrap();
            let profile = PowerProfile::of_schedule(&g, &sigma, Power::ZERO);
            (
                utilization(&profile, Power::from_watts(14)),
                pas_core::power_jitter(&profile),
            )
        };

        let (rho_default, jitter_default) = run(false);
        let (rho_flat, jitter_flat) = run(true);
        assert_eq!(rho_default, rho_flat, "utilization must tie");
        assert_eq!(
            jitter_default,
            Power::from_watts(12),
            "14 W peak, 2 W floor"
        );
        assert_eq!(jitter_flat, Power::ZERO, "flattened to a constant 8 W");
    }

    #[test]
    fn improve_gaps_accepts_only_strict_improvements() {
        // A single task cannot improve its own profile: ρ stays put
        // and no moves are recorded.
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("A", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r,
            TimeSpan::from_secs(4),
            Power::from_watts(2),
        ));
        let mut stats = SchedulerStats::default();
        let sigma = schedule_min_power(
            &mut g,
            Power::from_watts(16),
            Power::from_watts(10),
            Power::ZERO,
            &cfg(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.min_power_moves, 0);
        assert_eq!(sigma.start(TaskId::from_index(0)).as_secs(), 0);
    }
}
