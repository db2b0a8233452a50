//! Power/performance metrics of a schedule (§4.2) and the combined
//! analysis report.

use crate::problem::Problem;
use crate::profile::{Interval, PowerProfile};
use crate::ratio::Ratio;
use crate::schedule::Schedule;
use pas_graph::units::{Energy, Power, Time};

/// Energy cost `Ec_σ(P_min)`: energy drawn from the non-renewable
/// source, `∫ max(0, P_σ(t) − P_min) dt`.
pub fn energy_cost(profile: &PowerProfile, p_min: Power) -> Energy {
    profile.energy_above(p_min)
}

/// Free energy actually used: `∫ min(P_σ(t), P_min) dt`.
pub fn free_energy_used(profile: &PowerProfile, p_min: Power) -> Energy {
    profile.energy_capped(p_min)
}

/// Min-power utilization `ρ_σ(P_min)`: the ratio of free energy used
/// to free energy available. By convention `ρ = 1` when `P_min = 0`
/// or the schedule is empty (there is nothing to waste).
pub fn utilization(profile: &PowerProfile, p_min: Power) -> Ratio {
    utilization_of(free_energy_used(profile, p_min), p_min, profile.end())
}

/// [`utilization`] from its parts: the free energy used, `used = ∫
/// min(P_σ(t), P_min) dt`, over the free energy available, `P_min ·
/// τ_σ`, for a schedule ending at `end`. Lets a caller that maintains
/// the used energy as a running sum score a schedule without its
/// profile.
pub fn utilization_of(used: Energy, p_min: Power, end: Time) -> Ratio {
    let avail = p_min * end.since_origin();
    if avail == Energy::ZERO {
        return Ratio::ONE;
    }
    Ratio::new(
        used.as_millijoules() as i128,
        avail.as_millijoules() as i128,
    )
}

/// Peak-to-floor power jitter of the profile — the secondary
/// motivation for the min power constraint (battery-friendly flat
/// power curves).
pub fn power_jitter(profile: &PowerProfile) -> Power {
    profile.peak() - profile.floor()
}

/// A complete quantitative report on one schedule for one problem:
/// everything Table 3 reports, plus validity detail.
///
/// # Examples
/// ```
/// use pas_core::{analyze, Problem, PowerConstraints, Schedule};
/// use pas_graph::units::{Power, Time, TimeSpan};
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
///
/// let mut g = ConstraintGraph::new();
/// let r = g.add_resource(Resource::new("A", ResourceKind::Compute));
/// g.add_task(Task::new("a", r, TimeSpan::from_secs(10), Power::from_watts(12)));
/// let p = Problem::new("demo", g,
///     PowerConstraints::new(Power::from_watts(16), Power::from_watts(9)));
/// let s = Schedule::from_starts(vec![Time::ZERO]);
/// let a = analyze(&p, &s);
/// assert!(a.is_valid());
/// assert_eq!(a.energy_cost.as_joules_f64(), 30.0); // (12−9) W × 10 s
/// assert!(a.utilization.is_one());
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleAnalysis {
    /// Finish time `τ_σ`.
    pub finish_time: Time,
    /// The power profile the metrics were computed from.
    pub profile: PowerProfile,
    /// Peak power of the profile.
    pub peak_power: Power,
    /// Total energy `∫ P_σ`.
    pub total_energy: Energy,
    /// Energy cost `Ec_σ(P_min)` (battery draw).
    pub energy_cost: Energy,
    /// Free energy used (solar draw).
    pub free_energy_used: Energy,
    /// Min-power utilization `ρ_σ(P_min)`.
    pub utilization: Ratio,
    /// Power spikes (max-power violations).
    pub spikes: Vec<Interval>,
    /// Power gaps (min-power shortfalls).
    pub gaps: Vec<Interval>,
    /// Timing violations (empty for a time-valid schedule).
    pub timing_violations: Vec<crate::validity::TimingViolation>,
}

impl ScheduleAnalysis {
    /// `true` when the schedule is time-valid and spike-free — the
    /// paper's *valid* schedule.
    pub fn is_valid(&self) -> bool {
        self.timing_violations.is_empty() && self.spikes.is_empty()
    }

    /// `true` when additionally there are no power gaps (full
    /// min-power utilization).
    pub fn is_gap_free(&self) -> bool {
        self.is_valid() && self.gaps.is_empty()
    }
}

/// Analyzes `schedule` against `problem`, computing the profile, all
/// §4.2 metrics, and validity diagnostics.
pub fn analyze(problem: &Problem, schedule: &Schedule) -> ScheduleAnalysis {
    let graph = problem.graph();
    let constraints = problem.constraints();
    let profile = PowerProfile::of_schedule(graph, schedule, problem.background_power());
    let peak_power = profile.peak();
    let total_energy = profile.total_energy();
    let ec = energy_cost(&profile, constraints.p_min());
    let used = free_energy_used(&profile, constraints.p_min());
    let rho = utilization(&profile, constraints.p_min());
    let spikes = profile.spikes(constraints.p_max());
    let gaps = profile.gaps(constraints.p_min());
    let timing_violations = crate::validity::time_violations(graph, schedule);
    ScheduleAnalysis {
        finish_time: schedule.finish_time(graph),
        profile,
        peak_power,
        total_energy,
        energy_cost: ec,
        free_energy_used: used,
        utilization: rho,
        spikes,
        gaps,
        timing_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PowerConstraints;
    use pas_graph::units::TimeSpan;
    use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};

    /// One 10 s task at 12 W against P_max 16 / P_min 9.
    fn one_task() -> (Problem, Schedule) {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("A", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r,
            TimeSpan::from_secs(10),
            Power::from_watts(12),
        ));
        let p = Problem::new(
            "t",
            g,
            PowerConstraints::new(Power::from_watts(16), Power::from_watts(9)),
        );
        (p, Schedule::from_starts(vec![Time::ZERO]))
    }

    #[test]
    fn metric_identities() {
        let (p, s) = one_task();
        let a = analyze(&p, &s);
        assert_eq!(a.total_energy, a.energy_cost + a.free_energy_used);
        assert_eq!(a.energy_cost, Energy::from_joules(30));
        assert_eq!(a.free_energy_used, Energy::from_joules(90));
        assert_eq!(a.finish_time, Time::from_secs(10));
        assert_eq!(a.peak_power, Power::from_watts(12));
        assert!(a.utilization.is_one());
        assert!(a.is_valid());
        assert!(a.is_gap_free());
    }

    #[test]
    fn gap_reduces_utilization() {
        // Two 5 s @ 12 W tasks with a 5 s idle hole between them.
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(5),
            Power::from_watts(12),
        ));
        g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(5),
            Power::from_watts(12),
        ));
        let p = Problem::new(
            "g",
            g,
            PowerConstraints::new(Power::from_watts(16), Power::from_watts(9)),
        );
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(10)]);
        let a = analyze(&p, &s);
        assert!(a.is_valid());
        assert!(!a.is_gap_free());
        assert_eq!(a.gaps.len(), 1);
        // used = 9·5 + 0·5 + 9·5 = 90; available = 9·15 = 135 → 2/3.
        assert_eq!(a.utilization, crate::ratio::Ratio::new(2, 3));
    }

    #[test]
    fn spike_invalidates() {
        let (mut p, _) = one_task();
        p.set_constraints(PowerConstraints::new(
            Power::from_watts(11),
            Power::from_watts(9),
        ));
        let s = Schedule::from_starts(vec![Time::ZERO]);
        let a = analyze(&p, &s);
        assert!(!a.is_valid());
        assert_eq!(a.spikes.len(), 1);
    }

    #[test]
    fn zero_pmin_gives_full_utilization_and_zero_free_energy() {
        let (mut p, s) = one_task();
        p.set_constraints(PowerConstraints::max_only(Power::from_watts(16)));
        let a = analyze(&p, &s);
        assert!(a.utilization.is_one());
        assert_eq!(a.free_energy_used, Energy::ZERO);
        assert_eq!(a.energy_cost, a.total_energy);
    }

    #[test]
    fn jitter_is_peak_minus_floor() {
        let (p, s) = one_task();
        let a = analyze(&p, &s);
        assert_eq!(power_jitter(&a.profile), Power::ZERO);
    }
}
