//! Property tests for power profiles, slack, and metrics.

use pas_core::{
    analyze, free_energy_used, power_jitter, slack, utilization, utilization_of, Interval,
    PowerConstraints, PowerProfile, Problem, Ratio, Schedule,
};
use pas_graph::units::{Energy, Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task, TaskId};
use proptest::prelude::*;

/// Checks [`PowerProfile::move_effect`] for `v` delayed by `delta`
/// against the moved profile built by `with_task_moved` (itself pinned
/// to `of_schedule`): peak over `to \ from`, spike test, `Σ min(P,
/// cap)` change, utilization and horizon.
fn check_move_effect(
    g: &ConstraintGraph,
    s: &Schedule,
    background: Power,
    v: TaskId,
    delta: TimeSpan,
    cap: Power,
) -> Result<(), TestCaseError> {
    let base = PowerProfile::of_schedule(g, s, background);
    let power = g.task(v).power();
    let from = Interval {
        start: s.start(v),
        end: s.end(v, g),
    };
    let to = Interval {
        start: from.start + delta,
        end: from.end + delta,
    };
    let moved = s.with_delayed(v, delta);
    let effect = base.move_effect(power, from, to, cap);
    let built = base.with_task_moved(power, from, to, moved.finish_time(g));
    prop_assert_eq!(&built, &PowerProfile::of_schedule(g, &moved, background));

    prop_assert_eq!(effect.end, built.end());
    prop_assert_eq!(
        effect.capped_delta,
        built.energy_capped(cap) - base.energy_capped(cap)
    );
    prop_assert_eq!(
        utilization_of(
            base.energy_capped(cap) + effect.capped_delta,
            cap,
            effect.end
        ),
        utilization(&built, cap)
    );
    // The peak is the built profile's highest level over `to \ from`.
    let rises = Interval {
        start: from.end.max(to.start),
        end: to.end,
    };
    let peak = built
        .segments()
        .filter(|seg| seg.start < rises.end && rises.start < seg.end)
        .map(|seg| seg.power)
        .max()
        .unwrap_or(Power::ZERO);
    prop_assert_eq!(effect.peak, peak);
    // On a spike-free base it is the whole spike test, at every budget
    // from the base peak up.
    for p_max in [base.peak(), effect.peak, base.peak().max(effect.peak)] {
        if base.spikes(p_max).is_empty() {
            prop_assert_eq!(built.spikes(p_max).is_empty(), effect.peak <= p_max);
        }
    }
    Ok(())
}

/// A random problem with explicit start times (not necessarily
/// valid): profile properties must hold for *any* schedule.
fn arb_problem_and_schedule() -> impl Strategy<Value = (ConstraintGraph, Schedule)> {
    (1usize..10)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec((1i64..12, 0i64..15_000, 0i64..40), n..=n),
                Just(n),
            )
        })
        .prop_map(|(specs, _n)| {
            let mut g = ConstraintGraph::new();
            let mut starts = Vec::new();
            for (i, (delay, power_mw, start)) in specs.into_iter().enumerate() {
                let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
                g.add_task(Task::new(
                    format!("t{i}"),
                    r,
                    TimeSpan::from_secs(delay),
                    Power::from_watts_milli(power_mw),
                ));
                starts.push(Time::from_secs(start));
            }
            (g, Schedule::from_starts(starts))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Segments partition `[0, τ)` contiguously with merged levels.
    #[test]
    fn segments_partition_the_domain((g, s) in arb_problem_and_schedule()) {
        let p = PowerProfile::of_schedule(&g, &s, Power::from_watts(1));
        let segs: Vec<_> = p.segments().collect();
        if let Some(first) = segs.first() {
            prop_assert_eq!(first.start, Time::ZERO);
            prop_assert_eq!(segs.last().unwrap().end, p.end());
        }
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
            prop_assert_ne!(w[0].power, w[1].power, "adjacent segments must be merged");
        }
    }

    /// `power_at` agrees with the segment containing the instant.
    #[test]
    fn power_at_matches_segments((g, s) in arb_problem_and_schedule()) {
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        for seg in p.segments() {
            prop_assert_eq!(p.power_at(seg.start), seg.power);
            let mid = seg.start + TimeSpan::from_secs(seg.duration().as_secs() / 2);
            prop_assert_eq!(p.power_at(mid), seg.power);
        }
    }

    /// Total energy equals the sum of task energies plus background
    /// over the span; the above/capped split is exact at every level.
    #[test]
    fn energy_identities((g, s) in arb_problem_and_schedule(), level in 0i64..20_000) {
        let bg = Power::from_watts(2);
        let p = PowerProfile::of_schedule(&g, &s, bg);
        let task_sum: Energy = g.tasks().map(|(_, t)| t.energy()).sum();
        let bg_energy = bg * (p.end() - Time::ZERO);
        prop_assert_eq!(p.total_energy(), task_sum + bg_energy);
        let level = Power::from_watts_milli(level);
        prop_assert_eq!(p.energy_above(level) + p.energy_capped(level), p.total_energy());
        // Monotonicity: cost shrinks as the free level rises.
        let higher = level + Power::from_watts(1);
        prop_assert!(p.energy_above(higher) <= p.energy_above(level));
    }

    /// Spikes and gaps are disjoint, within-domain, and consistent
    /// with `power_at`.
    #[test]
    fn spikes_and_gaps_are_consistent(
        (g, s) in arb_problem_and_schedule(),
        p_max in 1i64..20_000,
        p_min in 0i64..20_000,
    ) {
        let profile = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        let p_max = Power::from_watts_milli(p_max);
        let p_min = Power::from_watts_milli(p_min);
        for spike in profile.spikes(p_max) {
            prop_assert!(spike.start < spike.end);
            prop_assert!(profile.power_at(spike.start) > p_max);
            prop_assert!(spike.end <= profile.end());
        }
        for gap in profile.gaps(p_min) {
            prop_assert!(profile.power_at(gap.start) < p_min);
        }
        // No instant is both a spike and a gap when p_min ≤ p_max.
        if p_min <= p_max {
            for spike in profile.spikes(p_max) {
                for gap in profile.gaps(p_min) {
                    prop_assert!(spike.end <= gap.start || gap.end <= spike.start);
                }
            }
        }
    }

    /// Utilization is an exact ratio in [0, 1], equal to
    /// used / (p_min · τ), and 1 when the floor clears p_min.
    #[test]
    fn utilization_bounds((g, s) in arb_problem_and_schedule(), p_min in 1i64..20_000) {
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        let p_min = Power::from_watts_milli(p_min);
        let rho = utilization(&p, p_min);
        prop_assert!(rho >= Ratio::ZERO && rho <= Ratio::ONE);
        if p.end() > Time::ZERO && p.floor() >= p_min {
            prop_assert!(rho.is_one());
        }
        let used = free_energy_used(&p, p_min).as_millijoules();
        let avail = (p_min * (p.end() - Time::ZERO)).as_millijoules();
        if avail > 0 {
            prop_assert_eq!(rho, Ratio::new(used as i128, avail as i128));
        }
    }

    /// Jitter is non-negative and zero exactly for flat profiles.
    #[test]
    fn jitter_properties((g, s) in arb_problem_and_schedule()) {
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        let j = power_jitter(&p);
        prop_assert!(j >= Power::ZERO);
        if p.segments().count() <= 1 {
            prop_assert_eq!(j, Power::ZERO);
        }
    }

    /// `analyze` is internally consistent for arbitrary (even
    /// invalid) schedules.
    #[test]
    fn analyze_consistency((g, s) in arb_problem_and_schedule(), p_max in 1i64..25_000) {
        let p_max = Power::from_watts_milli(p_max);
        let problem = Problem::new("prop", g, PowerConstraints::max_only(p_max));
        let a = analyze(&problem, &s);
        prop_assert_eq!(a.energy_cost + a.free_energy_used, a.total_energy);
        prop_assert_eq!(a.spikes.is_empty(), a.peak_power <= p_max);
        prop_assert_eq!(a.is_valid(), a.timing_violations.is_empty() && a.spikes.is_empty());
    }

    /// Slack of a task with no outgoing constraints is unbounded;
    /// otherwise delaying by slack+1 breaks some edge.
    #[test]
    fn slack_is_tight((g, s) in arb_problem_and_schedule()) {
        // Give the schedule some real constraints first.
        let mut g = g;
        let n = g.num_tasks();
        if n >= 2 {
            let a = pas_graph::TaskId::from_index(0);
            let b = pas_graph::TaskId::from_index(n - 1);
            if a != b {
                g.max_separation(a, b, TimeSpan::from_secs(30));
            }
        }
        for v in g.task_ids() {
            let d = slack(&g, &s, v);
            if d == TimeSpan::MAX || d.is_negative() {
                continue;
            }
            // Delaying by exactly the slack keeps every edge of v
            // satisfied; one more second breaks at least one.
            let edge_ok = |sch: &Schedule| {
                g.out_edges(v.node()).all(|(_, e)| {
                    let to = match e.to().task() {
                        Some(t) => sch.start(t),
                        None => Time::ZERO,
                    };
                    to - sch.start(v) >= e.weight()
                })
            };
            prop_assert!(edge_ok(&s.with_delayed(v, d)));
            prop_assert!(!edge_ok(&s.with_delayed(v, d + TimeSpan::from_secs(1))));
        }
    }

    /// The window query agrees with the built profile for later moves
    /// of one task that overlap its old window, clear it, or start at
    /// or past the old horizon, at any cap.
    #[test]
    fn move_effect_matches_the_built_profile(
        (g, s) in arb_problem_and_schedule(),
        pick in 0usize..64,
        shape in 0u8..3,
        step in 0i64..30,
        background_mw in 1i64..3_000,
        cap_mw in 0i64..30_000,
    ) {
        let v = TaskId::from_index(pick % g.num_tasks());
        let d = g.task(v).delay().as_secs();
        let horizon = s.finish_time(&g).as_secs();
        let delta = match shape {
            // Overlapping the old window.
            0 => 1 + step % d,
            // Clear of it.
            1 => d + step,
            // Starting at or past the old horizon.
            _ => horizon - s.start(v).as_secs() + step,
        };
        check_move_effect(
            &g,
            &s,
            Power::from_watts_milli(background_mw),
            v,
            TimeSpan::from_secs(delta),
            Power::from_watts_milli(cap_mw),
        )?;
    }

    /// The cancelling-boundary shape: `b` starts where `a` ends at the
    /// same power, so the base profile has no breakpoint there; moving
    /// `b` later must re-expose the step.
    #[test]
    fn move_effect_handles_cancelling_boundaries(
        watts in 1i64..9,
        da in 1i64..6,
        db in 1i64..6,
        delta in 1i64..15,
        background_mw in 1i64..3_000,
        cap_mw in 0i64..20_000,
    ) {
        let mut g = ConstraintGraph::new();
        for (name, d) in [("a", da), ("b", db)] {
            let r = g.add_resource(Resource::new(name.to_uppercase(), ResourceKind::Compute));
            g.add_task(Task::new(name, r, TimeSpan::from_secs(d), Power::from_watts(watts)));
        }
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(da)]);
        let background = Power::from_watts_milli(background_mw);
        prop_assert_eq!(PowerProfile::of_schedule(&g, &s, background).segments().count(), 1);
        check_move_effect(
            &g,
            &s,
            background,
            TaskId::from_index(1),
            TimeSpan::from_secs(delta),
            Power::from_watts_milli(cap_mw),
        )?;
    }
}
