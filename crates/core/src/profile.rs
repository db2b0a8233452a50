//! Piecewise-constant power profiles `P_σ(t)` (§4.2).

use crate::schedule::Schedule;
use pas_graph::units::{Energy, Power, Time, TimeSpan};
use pas_graph::ConstraintGraph;

/// A half-open constant-power segment `[start, end)` of a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Segment start (inclusive).
    pub start: Time,
    /// Segment end (exclusive).
    pub end: Time,
    /// Power level over the segment.
    pub power: Power,
}

impl Segment {
    /// Segment duration.
    #[inline]
    pub fn duration(&self) -> TimeSpan {
        self.end - self.start
    }

    /// Energy delivered over the segment.
    #[inline]
    pub fn energy(&self) -> Energy {
        self.power * self.duration()
    }
}

/// The power profile of a schedule: a piecewise-constant function of
/// time over `[0, τ_σ)`, equal to the sum of the powers of all active
/// tasks plus the problem's background power.
///
/// # Examples
/// ```
/// use pas_core::{PowerProfile, Schedule};
/// use pas_graph::units::{Power, Time, TimeSpan};
/// use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
///
/// let mut g = ConstraintGraph::new();
/// let r = g.add_resource(Resource::new("A", ResourceKind::Compute));
/// let a = g.add_task(Task::new("a", r, TimeSpan::from_secs(4), Power::from_watts(3)));
/// let sigma = Schedule::from_starts(vec![Time::from_secs(1)]);
/// let profile = PowerProfile::of_schedule(&g, &sigma, Power::from_watts(1));
/// assert_eq!(profile.power_at(Time::ZERO), Power::from_watts(1));
/// assert_eq!(profile.power_at(Time::from_secs(2)), Power::from_watts(4));
/// assert_eq!(profile.peak(), Power::from_watts(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerProfile {
    /// Segment boundaries: `levels[i]` holds on `[times[i], times[i+1])`;
    /// the last level holds until `end`.
    times: Vec<Time>,
    levels: Vec<Power>,
    end: Time,
    background: Power,
}

impl PowerProfile {
    /// Computes the profile of `schedule` over `[0, τ_σ)` including a
    /// constant `background` draw.
    ///
    /// The profile is empty (zero-length) when the graph has no tasks.
    pub fn of_schedule(graph: &ConstraintGraph, schedule: &Schedule, background: Power) -> Self {
        Self::of_schedule_filtered(graph, schedule, background, |_| true)
    }

    /// Like [`PowerProfile::of_schedule`], but only tasks for which
    /// `include` returns `true` contribute power (the domain still
    /// spans the full schedule). Used by compaction-style algorithms
    /// that ask "what does the profile look like without task v?".
    pub fn of_schedule_filtered(
        graph: &ConstraintGraph,
        schedule: &Schedule,
        background: Power,
        include: impl Fn(pas_graph::TaskId) -> bool,
    ) -> Self {
        let mut events: Vec<(Time, Power, bool)> = Vec::with_capacity(graph.num_tasks() * 2);
        for (id, task) in graph.tasks() {
            // Zero-span executions contribute no energy; skip them so
            // they can never perturb the event sweep. ([`Task::new`]
            // rejects non-positive delays, so this is a hardening
            // guard, not a reachable branch.)
            if !include(id) || task.delay().is_zero() {
                continue;
            }
            let s = schedule.start(id);
            events.push((s, task.power(), true));
            events.push((s + task.delay(), task.power(), false));
        }
        let end = schedule.finish_time(graph);
        Self::from_events(events, end, background)
    }

    /// Builds a profile from raw `(instant, power, is_start)` events
    /// over `[0, end)`. Used by [`of_schedule`](Self::of_schedule) and
    /// by the extended power models in
    /// [`power_model`](crate::power_model).
    pub(crate) fn from_events(
        mut events: Vec<(Time, Power, bool)>,
        end: Time,
        background: Power,
    ) -> Self {
        events.sort_by_key(|&(t, _, is_start)| (t, is_start)); // ends before starts at equal t
        let mut times = vec![Time::ZERO];
        let mut levels = vec![background];
        let mut level = background;
        for (t, p, is_start) in events {
            if is_start {
                level += p;
            } else {
                level -= p;
            }
            let t = t.max(Time::ZERO);
            if *times.last().expect("non-empty") == t {
                *levels.last_mut().expect("non-empty") = level;
            } else {
                times.push(t);
                levels.push(level);
            }
        }
        // Matched start/end pairs cancel exactly, so the profile must
        // be back at the background level at the horizon — a non-zero
        // residue means an event leaked power past the end of the
        // schedule.
        debug_assert!(
            level == background,
            "profile does not return to background at the horizon"
        );
        // Merge adjacent equal levels.
        let mut mt = Vec::with_capacity(times.len());
        let mut ml = Vec::with_capacity(levels.len());
        for (t, l) in times.into_iter().zip(levels) {
            if ml.last() == Some(&l) {
                continue;
            }
            mt.push(t);
            ml.push(l);
        }
        PowerProfile {
            times: mt,
            levels: ml,
            end,
            background,
        }
    }

    /// Rebuilds the profile after moving one task's execution window,
    /// without touching the other tasks' events: the result is
    /// **identical** (by `==`) to calling
    /// [`of_schedule`](Self::of_schedule) on the updated schedule.
    /// `new_end` is the updated schedule finish time `τ_σ`.
    pub fn with_task_moved(
        &self,
        power: Power,
        from: Interval,
        to: Interval,
        new_end: Time,
    ) -> Self {
        self.with_moves(&[ProfileMove { power, from, to }], new_end)
    }

    /// Applies a batch of task window moves (see
    /// [`with_task_moved`](Self::with_task_moved)). The moved
    /// intervals are interpreted against this profile's schedule: each
    /// `from` window stops contributing its power and the matching
    /// `to` window starts.
    pub fn with_moves(&self, moves: &[ProfileMove], new_end: Time) -> Self {
        self.with_moves_in(moves, new_end, &mut DeltaArena::new())
    }

    /// [`with_moves`](Self::with_moves) against a caller-owned
    /// [`DeltaArena`]: the candidate-breakpoint scratch and the
    /// result's breakpoint vectors are drawn from the arena instead of
    /// fresh heap allocations, so a rebuild loop that
    /// [recycles](DeltaArena::recycle) superseded profiles runs
    /// allocation-free in the steady state. The returned profile is
    /// identical (by `==`) to the plain variant's — `Vec` equality
    /// ignores capacity.
    pub fn with_moves_in(
        &self,
        moves: &[ProfileMove],
        new_end: Time,
        arena: &mut DeltaArena,
    ) -> Self {
        // Candidate breakpoints: every instant where the new function
        // can change level — the old breakpoints plus the moved window
        // boundaries (clamped to the origin like the event sweep).
        let extra: &mut Vec<Time> = &mut arena.extra;
        extra.clear();
        extra.reserve(moves.len() * 4 + 1);
        for m in moves {
            extra.push(m.from.start.max(Time::ZERO));
            extra.push(m.from.end.max(Time::ZERO));
            extra.push(m.to.start.max(Time::ZERO));
            extra.push(m.to.end.max(Time::ZERO));
        }
        extra.push(new_end);
        extra.sort();
        extra.dedup();

        // The new level at `t`: the old function (background outside
        // `[0, old_end)`, exactly like `power_at`) minus the moved-out
        // windows plus the moved-in windows.
        let eval = |t: Time| {
            let mut level = self.power_at(t);
            for m in moves {
                if m.power == Power::ZERO {
                    continue;
                }
                if m.from.contains(t) && m.from.start.max(Time::ZERO) <= t {
                    level -= m.power;
                }
                if m.to.contains(t) && m.to.start.max(Time::ZERO) <= t {
                    level += m.power;
                }
            }
            level
        };

        // Merge-sweep the two sorted breakpoint sources, keeping only
        // level changes — the same canonical form `from_events`
        // produces (first entry at 0, trailing entry at the horizon
        // only when the level just before it differs from background).
        let (mut times, mut levels) = arena.pool.pop().unwrap_or_default();
        times.reserve(self.times.len() + extra.len());
        levels.reserve(self.times.len() + extra.len());
        times.push(Time::ZERO);
        levels.push(eval(Time::ZERO));
        let push = |t: Time, times: &mut Vec<Time>, levels: &mut Vec<Power>| {
            if t <= Time::ZERO || t > new_end {
                return;
            }
            let level = eval(t);
            if *levels.last().expect("seeded with origin") != level {
                times.push(t);
                levels.push(level);
            }
        };
        let (mut i, mut j) = (0, 0);
        while i < self.times.len() || j < extra.len() {
            let t = match (self.times.get(i), extra.get(j)) {
                (Some(&a), Some(&b)) if a <= b => {
                    i += 1;
                    if a == b {
                        j += 1;
                    }
                    a
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (_, Some(&b)) => {
                    j += 1;
                    b
                }
                (None, None) => unreachable!("loop condition"),
            };
            push(t, &mut times, &mut levels);
        }

        PowerProfile {
            times,
            levels,
            end: new_end,
            background: self.background,
        }
    }

    /// What moving one task of power `power` later, from window `from`
    /// to the equally long window `to`, does to this profile, without
    /// building the moved profile. Only the segments under `from \ to`
    /// (level falls by `power`) and `to \ from` (level rises by
    /// `power`) are walked, each after a binary search; the level past
    /// `τ_σ` is taken as the background.
    ///
    /// Only `to \ from` rises, so on a profile with no spike above
    /// `p_max` the moved profile has none exactly when
    /// [`MoveEffect::peak`] `≤ p_max`. Every field equals what the
    /// built profile ([`with_task_moved`](Self::with_task_moved) with
    /// the new horizon) gives: its levels, its
    /// [`energy_capped(cap)`](Self::energy_capped) minus this one's,
    /// and its [`end`](Self::end).
    ///
    /// **Precondition:** `from` lies in `[0, τ_σ)`, `to.start ≥
    /// from.start`, and both windows have the same length.
    pub fn move_effect(
        &self,
        power: Power,
        from: Interval,
        to: Interval,
        cap: Power,
    ) -> MoveEffect {
        debug_assert!(Time::ZERO <= from.start && from.end <= self.end);
        debug_assert!(from.start <= to.start && from.duration() == to.duration());
        let vacated = Interval {
            start: from.start,
            end: from.end.min(to.start),
        };
        let occupied = Interval {
            start: from.end.max(to.start),
            end: to.end,
        };
        let (_, lost) = self.shifted(vacated, Power::ZERO - power, cap);
        let (peak, gained) = self.shifted(occupied, power, cap);
        // Background-only instants between the old horizon and a `to`
        // that starts past it join the domain.
        let idle = if self.end < to.start {
            self.background.min(cap) * (to.start - self.end)
        } else {
            Energy::ZERO
        };
        MoveEffect {
            peak,
            capped_delta: lost + gained + idle,
            end: self.end.max(to.end),
        }
    }

    /// Walks the segments under `window` with every level shifted by
    /// `shift`: the highest shifted level ([`Power::ZERO`] for an empty
    /// window) and the change in `∫ min(P, cap)` over the window. Past
    /// `τ_σ` the old level is the background, and only the shifted
    /// profile's domain covers it.
    fn shifted(&self, window: Interval, shift: Power, cap: Power) -> (Power, Energy) {
        let mut peak = Power::ZERO;
        let mut capped = Energy::ZERO;
        let mut i = self
            .times
            .partition_point(|&t| t <= window.start)
            .saturating_sub(1);
        let mut x = window.start;
        while x < window.end {
            if x >= self.end {
                let level = self.background + shift;
                peak = peak.max(level);
                capped += level.min(cap) * (window.end - x);
                break;
            }
            let next = self
                .times
                .get(i + 1)
                .map_or(self.end, |&t| t.min(self.end))
                .min(window.end);
            let old = self.levels[i];
            let level = old + shift;
            peak = peak.max(level);
            capped += (level.min(cap) - old.min(cap)) * (next - x);
            x = next;
            i += 1;
        }
        (peak, capped)
    }

    /// The constant segment holding `t`, found by binary search
    /// (`None` outside `[0, τ_σ)`).
    pub fn segment_at(&self, t: Time) -> Option<Segment> {
        if t < Time::ZERO || t >= self.end {
            return None;
        }
        let i = self.times.partition_point(|&s| s <= t).checked_sub(1)?;
        Some(Segment {
            start: self.times[i],
            end: self.times.get(i + 1).copied().unwrap_or(self.end),
            power: self.levels[i],
        })
    }

    /// End of the profile's domain (the schedule finish time `τ_σ`).
    #[inline]
    pub fn end(&self) -> Time {
        self.end
    }

    /// The background power included in every level.
    #[inline]
    pub fn background(&self) -> Power {
        self.background
    }

    /// Instantaneous power `P_σ(t)`.
    ///
    /// Returns the background level for `t` outside `[0, τ_σ)`.
    pub fn power_at(&self, t: Time) -> Power {
        self.segment_at(t).map_or(self.background, |s| s.power)
    }

    /// Iterates the constant segments covering `[0, τ_σ)`.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.times.len();
        (0..n).filter_map(move |i| {
            let start = self.times[i];
            let end = if i + 1 < n {
                self.times[i + 1]
            } else {
                self.end
            };
            if end > start {
                Some(Segment {
                    start,
                    end,
                    power: self.levels[i],
                })
            } else {
                None
            }
        })
    }

    /// The distinct breakpoint instants of the profile (segment
    /// starts), plus the end time. These are the only instants where
    /// the power level can change, so scanning algorithms visit them
    /// instead of every clock tick.
    pub fn breakpoints(&self) -> Vec<Time> {
        let mut v = self.times.clone();
        v.push(self.end);
        v.dedup();
        v
    }

    /// Maximum power level over `[0, τ_σ)` (background if empty).
    pub fn peak(&self) -> Power {
        self.segments()
            .map(|s| s.power)
            .max()
            .unwrap_or(self.background)
    }

    /// Minimum power level over `[0, τ_σ)` (background if empty).
    pub fn floor(&self) -> Power {
        self.segments()
            .map(|s| s.power)
            .min()
            .unwrap_or(self.background)
    }

    /// Total energy `∫ P_σ(t) dt` over `[0, τ_σ)`.
    pub fn total_energy(&self) -> Energy {
        self.segments().map(|s| s.energy()).sum()
    }

    /// Energy drawn **above** `level`: `∫ max(0, P_σ(t) − level) dt`.
    ///
    /// With `level = P_min` this is the paper's energy cost
    /// `Ec_σ(P_min)` — the draw on the non-renewable source.
    pub fn energy_above(&self, level: Power) -> Energy {
        self.segments()
            .map(|s| {
                if s.power > level {
                    (s.power - level) * s.duration()
                } else {
                    Energy::ZERO
                }
            })
            .sum()
    }

    /// Energy drawn at or below `level`: `∫ min(P_σ(t), level) dt` —
    /// the free energy actually utilized.
    pub fn energy_capped(&self, level: Power) -> Energy {
        self.segments()
            .map(|s| s.power.min(level) * s.duration())
            .sum()
    }

    /// Intervals where `P_σ(t) > p_max` — the **power spikes** (§4.2).
    /// Adjacent violating segments are coalesced.
    pub fn spikes(&self, p_max: Power) -> Vec<Interval> {
        self.violations(|p| p > p_max)
    }

    /// Intervals where `P_σ(t) < p_min` — the **power gaps** (§4.2).
    pub fn gaps(&self, p_min: Power) -> Vec<Interval> {
        self.violations(|p| p < p_min)
    }

    fn violations(&self, pred: impl Fn(Power) -> bool) -> Vec<Interval> {
        let mut out: Vec<Interval> = Vec::new();
        for s in self.segments() {
            if pred(s.power) {
                if let Some(last) = out.last_mut() {
                    if last.end == s.start {
                        last.end = s.end;
                        continue;
                    }
                }
                out.push(Interval {
                    start: s.start,
                    end: s.end,
                });
            }
        }
        out
    }
}

/// Reusable storage for delta profile rebuilds
/// ([`PowerProfile::with_moves_in`]): a scratch vector for candidate
/// breakpoints plus a free pool of retired breakpoint vectors. The
/// max-power spike-elimination loop rebuilds the standing profile
/// once per accepted move; recycling the superseded profile into the
/// arena makes the steady state allocation-free (`DESIGN.md` §15).
#[derive(Debug, Default)]
pub struct DeltaArena {
    /// Candidate-breakpoint scratch (cleared per rebuild).
    extra: Vec<Time>,
    /// Retired `(times, levels)` breakpoint storage, cleared and ready
    /// for reuse.
    pool: Vec<(Vec<Time>, Vec<Power>)>,
}

impl DeltaArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a superseded profile's breakpoint storage to the free
    /// pool for the next [`PowerProfile::with_moves_in`] call.
    pub fn recycle(&mut self, profile: PowerProfile) {
        let PowerProfile {
            mut times,
            mut levels,
            ..
        } = profile;
        times.clear();
        levels.clear();
        self.pool.push((times, levels));
    }
}

/// One task-window move for [`PowerProfile::with_moves`]: the task's
/// `power` stops drawing over `from` and starts drawing over `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileMove {
    /// The task's constant power draw.
    pub power: Power,
    /// The execution window in the profile's current schedule.
    pub from: Interval,
    /// The execution window in the updated schedule.
    pub to: Interval,
}

/// The effect of moving one task later, answered by
/// [`PowerProfile::move_effect`] without building the moved profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoveEffect {
    /// Highest new level over `to \ from` (the only instants whose
    /// level rises); [`Power::ZERO`] when that set is empty.
    pub peak: Power,
    /// Exact change in `∫ min(P, cap) dt` over the profile's domain.
    pub capped_delta: Energy,
    /// The new horizon `max(τ_σ, to.end)`.
    pub end: Time,
}

/// A half-open time interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Interval start (inclusive).
    pub start: Time,
    /// Interval end (exclusive).
    pub end: Time,
}

impl Interval {
    /// Interval length.
    #[inline]
    pub fn duration(&self) -> TimeSpan {
        self.end - self.start
    }

    /// `true` when `t` lies within the interval.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }
}

impl core::fmt::Display for Interval {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_graph::units::Power;
    use pas_graph::{Resource, ResourceKind, Task, TaskId};

    /// Two overlapping tasks: a = [0,4)@3W, b = [2,8)@5W, background 1W.
    fn sample() -> (ConstraintGraph, Schedule) {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(4),
            Power::from_watts(3),
        ));
        g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(6),
            Power::from_watts(5),
        ));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(2)]);
        (g, s)
    }

    fn profile() -> PowerProfile {
        let (g, s) = sample();
        PowerProfile::of_schedule(&g, &s, Power::from_watts(1))
    }

    #[test]
    fn levels_by_time() {
        let p = profile();
        assert_eq!(p.power_at(Time::ZERO), Power::from_watts(4)); // 1+3
        assert_eq!(p.power_at(Time::from_secs(2)), Power::from_watts(9)); // 1+3+5
        assert_eq!(p.power_at(Time::from_secs(4)), Power::from_watts(6)); // 1+5
        assert_eq!(p.power_at(Time::from_secs(7)), Power::from_watts(6));
        assert_eq!(p.power_at(Time::from_secs(8)), Power::from_watts(1)); // outside
        assert_eq!(p.power_at(Time::from_secs(-1)), Power::from_watts(1));
        assert_eq!(p.end(), Time::from_secs(8));
    }

    #[test]
    fn segments_partition_domain() {
        let p = profile();
        let segs: Vec<_> = p.segments().collect();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].start, Time::ZERO);
        assert_eq!(segs[2].end, Time::from_secs(8));
        for w in segs.windows(2) {
            assert_eq!(w[0].end, w[1].start, "segments must be contiguous");
            assert_ne!(w[0].power, w[1].power, "adjacent segments merged");
        }
    }

    #[test]
    fn peak_floor_energy() {
        let p = profile();
        assert_eq!(p.peak(), Power::from_watts(9));
        assert_eq!(p.floor(), Power::from_watts(4));
        // 4*2 + 9*2 + 6*4 = 50 J
        assert_eq!(p.total_energy(), Energy::from_joules(50));
    }

    #[test]
    fn energy_above_and_capped_sum_to_total() {
        let p = profile();
        let level = Power::from_watts(5);
        assert_eq!(
            p.energy_above(level) + p.energy_capped(level),
            p.total_energy()
        );
        // Above 5 W: (9-5)*2 + (6-5)*4 = 12 J
        assert_eq!(p.energy_above(level), Energy::from_joules(12));
    }

    #[test]
    fn spike_and_gap_intervals() {
        let p = profile();
        let spikes = p.spikes(Power::from_watts(8));
        assert_eq!(
            spikes,
            vec![Interval {
                start: Time::from_secs(2),
                end: Time::from_secs(4)
            }]
        );
        let gaps = p.gaps(Power::from_watts(6));
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].start, Time::ZERO);
        assert_eq!(gaps[0].duration(), TimeSpan::from_secs(2));
        assert!(p.spikes(Power::from_watts(9)).is_empty());
        assert!(p.gaps(Power::from_watts(4)).is_empty());
    }

    #[test]
    fn adjacent_violations_coalesce() {
        // Tasks: [0,2)@10, [2,4)@9 with pmax 8 → one spike [0,4).
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(2),
            Power::from_watts(10),
        ));
        g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(2),
            Power::from_watts(9),
        ));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(2)]);
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        let spikes = p.spikes(Power::from_watts(8));
        assert_eq!(spikes.len(), 1);
        assert_eq!(spikes[0].duration(), TimeSpan::from_secs(4));
    }

    #[test]
    fn back_to_back_tasks_on_same_level_merge() {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("A", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r,
            TimeSpan::from_secs(2),
            Power::from_watts(5),
        ));
        g.add_task(Task::new(
            "b",
            r,
            TimeSpan::from_secs(3),
            Power::from_watts(5),
        ));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(2)]);
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        assert_eq!(p.segments().count(), 1);
        assert_eq!(p.power_at(Time::from_secs(2)), Power::from_watts(5));
    }

    #[test]
    fn empty_graph_profile() {
        let g = ConstraintGraph::new();
        let s = Schedule::from_starts(vec![]);
        let p = PowerProfile::of_schedule(&g, &s, Power::from_watts(2));
        assert_eq!(p.end(), Time::ZERO);
        assert_eq!(p.segments().count(), 0);
        assert_eq!(p.peak(), Power::from_watts(2));
        assert_eq!(p.total_energy(), Energy::ZERO);
    }

    #[test]
    fn breakpoints_cover_changes() {
        let p = profile();
        assert_eq!(
            p.breakpoints(),
            vec![
                Time::ZERO,
                Time::from_secs(2),
                Time::from_secs(4),
                Time::from_secs(8)
            ]
        );
    }

    #[test]
    fn interval_queries() {
        let i = Interval {
            start: Time::from_secs(1),
            end: Time::from_secs(4),
        };
        assert!(i.contains(Time::from_secs(1)));
        assert!(!i.contains(Time::from_secs(4)));
        assert_eq!(i.to_string(), "[1s, 4s)");
    }

    #[test]
    fn filtered_profile_excludes_tasks_but_keeps_domain() {
        let (g, s) = sample();
        let without_b = PowerProfile::of_schedule_filtered(&g, &s, Power::from_watts(1), |t| {
            t != TaskId::from_index(1)
        });
        // Only a contributes: 1+3 over [0,4), then background.
        assert_eq!(without_b.power_at(Time::from_secs(3)), Power::from_watts(4));
        assert_eq!(without_b.power_at(Time::from_secs(5)), Power::from_watts(1));
        // Domain still runs to b's end (finish time of the schedule).
        assert_eq!(without_b.end(), Time::from_secs(8));
    }

    #[test]
    fn zero_span_events_never_leak_into_the_tail() {
        // ISSUE 3 regression guard: a start/end pair at the same
        // instant must cancel exactly — the equal-instant overwrite in
        // the event sweep already guarantees this (and `Task::new`
        // rejects zero delays, so such pairs cannot even be produced
        // by a schedule), but the invariant is pinned here against the
        // raw event interface.
        let bg = Power::from_watts(1);
        let end = Time::from_secs(10);
        let base = vec![
            (Time::from_secs(2), Power::from_watts(3), true),
            (Time::from_secs(6), Power::from_watts(3), false),
        ];
        let mut with_zero_span = base.clone();
        with_zero_span.push((Time::from_secs(4), Power::from_watts(7), true));
        with_zero_span.push((Time::from_secs(4), Power::from_watts(7), false));
        let clean = PowerProfile::from_events(base, end, bg);
        let noisy = PowerProfile::from_events(with_zero_span, end, bg);
        assert_eq!(clean, noisy, "zero-span pair must contribute nothing");
        // The profile returns to background at (and beyond) the horizon.
        assert_eq!(noisy.power_at(Time::from_secs(7)), bg);
        assert_eq!(noisy.power_at(end), bg);
        assert_eq!(
            noisy.segments().last().map(|s| s.power),
            Some(bg),
            "tail level must be the background"
        );
    }

    #[test]
    fn moved_task_delta_matches_full_rebuild() {
        // Exhaustive small sweep: move task b to every start in
        // [0, 12] and compare the delta-maintained profile against a
        // full rebuild — they must be identical, not just equivalent.
        let (g, s) = sample();
        let b = TaskId::from_index(1);
        let bg = Power::from_watts(1);
        let profile = PowerProfile::of_schedule(&g, &s, bg);
        let d = g.task(b).delay();
        let p = g.task(b).power();
        for secs in 0..=12 {
            let to_start = Time::from_secs(secs);
            let mut moved = s.clone();
            moved = Schedule::from_starts(vec![moved.start(TaskId::from_index(0)), to_start]);
            let new_end = moved.finish_time(&g);
            let delta = profile.with_task_moved(
                p,
                Interval {
                    start: s.start(b),
                    end: s.start(b) + d,
                },
                Interval {
                    start: to_start,
                    end: to_start + d,
                },
                new_end,
            );
            let full = PowerProfile::of_schedule(&g, &moved, bg);
            assert_eq!(delta, full, "delta != rebuild for b@{secs}s");
        }
    }

    #[test]
    fn batched_moves_match_full_rebuild() {
        let (g, s) = sample();
        let a = TaskId::from_index(0);
        let b = TaskId::from_index(1);
        let bg = Power::from_watts(2);
        let profile = PowerProfile::of_schedule(&g, &s, bg);
        let moved = Schedule::from_starts(vec![Time::from_secs(5), Time::ZERO]);
        let mk = |t: TaskId, sch: &Schedule| Interval {
            start: sch.start(t),
            end: sch.start(t) + g.task(t).delay(),
        };
        let delta = profile.with_moves(
            &[
                ProfileMove {
                    power: g.task(a).power(),
                    from: mk(a, &s),
                    to: mk(a, &moved),
                },
                ProfileMove {
                    power: g.task(b).power(),
                    from: mk(b, &s),
                    to: mk(b, &moved),
                },
            ],
            moved.finish_time(&g),
        );
        assert_eq!(delta, PowerProfile::of_schedule(&g, &moved, bg));
    }

    #[test]
    fn delta_handles_cancelling_boundaries() {
        // a ends exactly where b starts with equal power: the old
        // profile has no breakpoint there. Moving b away must
        // re-expose the jump — this is the case a naive "old
        // breakpoints only" sweep would miss.
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = g.add_resource(Resource::new("B", ResourceKind::Compute));
        g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(3),
            Power::from_watts(5),
        ));
        g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(3),
            Power::from_watts(5),
        ));
        let s = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(3)]);
        let profile = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        assert_eq!(profile.segments().count(), 1, "boundary cancels");
        let b = TaskId::from_index(1);
        let moved = Schedule::from_starts(vec![Time::ZERO, Time::from_secs(8)]);
        let delta = profile.with_task_moved(
            Power::from_watts(5),
            Interval {
                start: Time::from_secs(3),
                end: Time::from_secs(6),
            },
            Interval {
                start: Time::from_secs(8),
                end: Time::from_secs(11),
            },
            moved.finish_time(&g),
        );
        assert_eq!(delta, PowerProfile::of_schedule(&g, &moved, Power::ZERO));
        assert_eq!(delta.power_at(s.start(b)), Power::ZERO);
    }

    #[test]
    fn single_task_profile_matches_task_energy() {
        let mut g = ConstraintGraph::new();
        let r = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let t = g.add_task(Task::new(
            "drive",
            r,
            TimeSpan::from_secs(10),
            Power::from_watts_milli(10_900),
        ));
        let s = Schedule::from_starts(vec![Time::ZERO]);
        let p = PowerProfile::of_schedule(&g, &s, Power::ZERO);
        assert_eq!(
            p.total_energy(),
            g.task(TaskId::from_index(t.index())).energy()
        );
    }
}
