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
    is_move_valid, is_time_valid, slack, utilization, Interval, PowerProfile, Ratio, Schedule,
};
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, TaskId};
use pas_obs::{CountingObserver, Observer, ScanKind, SlotKind, StageKind, TraceEvent};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Minimum candidate count before a gap's evaluation fans out to the
/// worker pool: below this, thread handoff costs more than the
/// speculative profile evaluations it saves.
const PARALLEL_EVAL_MIN_CANDIDATES: usize = 8;

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
/// [`SchedulerConfig::incremental`] enabled, tentative moves are
/// validated with the localized [`is_move_valid`] check and the power
/// profile is delta-maintained across accepted moves — both are
/// decision-identical to the full recomputation path on a valid input
/// schedule.
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
    let workers = config.parallelism.worker_count();
    // Invariant (incremental path): `current_profile` always equals
    // `PowerProfile::of_schedule(graph, &sigma, background)` — the
    // delta update on accepted moves reproduces the canonical profile
    // exactly, so decisions based on it are bit-identical to the
    // rebuild-every-time path.
    let mut current_profile = PowerProfile::of_schedule(graph, &sigma, background);
    let mut rho = utilization(&current_profile, p_min);
    if rho.is_one() {
        return sigma;
    }

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

        if config.incremental {
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
            // re-check that t is still a gap.
            if !config.incremental {
                current_profile = PowerProfile::of_schedule(graph, &sigma, background);
            }
            let profile = &current_profile;
            if profile.power_at(t) >= p_min || t >= profile.end() {
                continue;
            }
            if obs.is_enabled() {
                obs.on_event(&TraceEvent::GapFound {
                    t,
                    power: profile.power_at(t),
                    floor: p_min,
                });
            }
            let gap_end = profile
                .segments()
                .find(|s| s.start <= t && t < s.end)
                .map(|s| s.end)
                .unwrap_or(profile.end());

            // Candidates: started before t, enough slack to cover t.
            let candidates: Vec<TaskId> = sigma
                .started_before(t, graph)
                .into_iter()
                .filter(|&v| !sigma.is_active_at(v, t, graph))
                .filter(|&v| {
                    let needed = t - sigma.end(v, graph) + TimeSpan::from_secs(1);
                    !needed.is_positive() || slack(graph, &sigma, v) >= needed
                })
                .collect();

            // Random-slot passes draw from the shared RNG per
            // candidate, so their evaluation stays on the sequential
            // path; the pure policies are stateless per candidate and
            // may be evaluated speculatively in parallel.
            let mut accepted = false;
            if workers > 1
                && slot_policy != SlotPolicy::Random
                && candidates.len() >= PARALLEL_EVAL_MIN_CANDIDATES
            {
                let pairs: Vec<(TaskId, TimeSpan)> = candidates
                    .iter()
                    .map(|&v| {
                        (
                            v,
                            slot_delta(graph, &sigma, v, t, gap_end, slot_policy, &mut rng),
                        )
                    })
                    .filter(|(_, delta)| delta.is_positive())
                    .collect();
                // Speculative evaluation: every candidate is scored
                // against the same base schedule/profile the lazy
                // sequential loop would use (they only change on an
                // accept, which ends the loop), so committing the
                // first accepting candidate *in candidate order* —
                // and rejecting exactly the ones before it —
                // reproduces the sequential decisions and trace
                // bit-for-bit (DESIGN.md §12).
                let (evals, _) = pas_par::par_map(workers, pairs, |_, (v, delta)| {
                    evaluate_candidate(
                        graph,
                        &sigma,
                        &current_profile,
                        config,
                        p_max,
                        p_min,
                        background,
                        rho,
                        v,
                        delta,
                    )
                });
                for eval in evals {
                    if commit_candidate(
                        eval,
                        config,
                        obs,
                        &mut sigma,
                        &mut current_profile,
                        &mut rho,
                        &mut pass_moves,
                    ) {
                        accepted = true;
                        break;
                    }
                }
            } else {
                for v in candidates {
                    let delta = slot_delta(graph, &sigma, v, t, gap_end, slot_policy, &mut rng);
                    if !delta.is_positive() {
                        continue;
                    }
                    let eval = evaluate_candidate(
                        graph,
                        &sigma,
                        &current_profile,
                        config,
                        p_max,
                        p_min,
                        background,
                        rho,
                        v,
                        delta,
                    );
                    if commit_candidate(
                        eval,
                        config,
                        obs,
                        &mut sigma,
                        &mut current_profile,
                        &mut rho,
                        &mut pass_moves,
                    ) {
                        accepted = true;
                        break;
                    }
                }
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

/// One scored gap-fill candidate: the tentative schedule/profile a
/// move would produce and whether the Fig. 6 accept rule takes it.
struct CandidateEval {
    task: TaskId,
    delta: TimeSpan,
    accept: bool,
    new_rho: Ratio,
    tentative: Schedule,
    tentative_profile: PowerProfile,
}

/// Scores one candidate move against the current schedule and
/// profile. Pure: reads only shared state, so evaluations of distinct
/// candidates are independent and may run on worker threads.
#[allow(clippy::too_many_arguments)]
fn evaluate_candidate(
    graph: &ConstraintGraph,
    sigma: &Schedule,
    current_profile: &PowerProfile,
    config: &SchedulerConfig,
    p_max: Power,
    p_min: Power,
    background: Power,
    rho: Ratio,
    v: TaskId,
    delta: TimeSpan,
) -> CandidateEval {
    let tentative = sigma.with_delayed(v, delta);
    // Incremental path: the tentative profile is a single-window
    // delta off the maintained one, and the single-move validity
    // check replaces the full oracle (equivalent on a valid base
    // schedule).
    let (tentative_profile, time_ok) = if config.incremental {
        let from = Interval {
            start: sigma.start(v),
            end: sigma.end(v, graph),
        };
        let to = Interval {
            start: from.start + delta,
            end: from.end + delta,
        };
        let p = current_profile.with_task_moved(
            graph.task(v).power(),
            from,
            to,
            tentative.finish_time(graph),
        );
        (p, is_move_valid(graph, &tentative, v))
    } else {
        (
            PowerProfile::of_schedule(graph, &tentative, background),
            is_time_valid(graph, &tentative),
        )
    };
    let valid = time_ok && tentative_profile.spikes(p_max).is_empty();
    let new_rho = utilization(&tentative_profile, p_min);
    // Optional secondary objective: flatten the power curve when
    // utilization ties.
    let jitter_win = config.reduce_jitter && new_rho == rho && {
        pas_core::power_jitter(&tentative_profile) < pas_core::power_jitter(current_profile)
            && tentative_profile.end() <= current_profile.end()
    };
    CandidateEval {
        task: v,
        delta,
        accept: valid && (new_rho > rho || jitter_win),
        new_rho,
        tentative,
        tentative_profile,
    }
}

/// Applies one evaluated candidate: emits `MoveAccepted` (plus the
/// incremental delta event) and installs the tentative state when the
/// move was accepted, or emits `MoveRejected` otherwise. Returns
/// whether the move was accepted.
fn commit_candidate<O: Observer>(
    eval: CandidateEval,
    config: &SchedulerConfig,
    obs: &mut O,
    sigma: &mut Schedule,
    current_profile: &mut PowerProfile,
    rho: &mut Ratio,
    pass_moves: &mut u64,
) -> bool {
    if eval.accept {
        if obs.is_enabled() {
            obs.on_event(&TraceEvent::MoveAccepted {
                task: eval.task,
                delta: eval.delta,
                rho_before: *rho,
                rho_after: eval.new_rho,
            });
            if config.incremental {
                obs.on_event(&TraceEvent::IncrementalDelta {
                    stage: StageKind::MinPower,
                    edges: 1,
                    relaxations: eval.tentative_profile.segments().count() as u64,
                });
            }
        }
        *sigma = eval.tentative;
        if config.incremental {
            *current_profile = eval.tentative_profile;
        }
        *rho = eval.new_rho;
        *pass_moves += 1;
        true
    } else {
        if obs.is_enabled() {
            obs.on_event(&TraceEvent::MoveRejected {
                task: eval.task,
                delta: eval.delta,
                rho_before: *rho,
                rho_after: eval.new_rho,
            });
        }
        false
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

/// How far to delay `v` so that it is active at `t`, according to the
/// slot policy. Returns a non-positive span when no admissible slot
/// exists (callers skip the candidate).
fn slot_delta(
    graph: &ConstraintGraph,
    sigma: &Schedule,
    v: TaskId,
    t: Time,
    gap_end: Time,
    policy: SlotPolicy,
    rng: &mut StdRng,
) -> TimeSpan {
    let start = sigma.start(v);
    let d_v = graph.task(v).delay();
    let slack_v = slack(graph, sigma, v);
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
