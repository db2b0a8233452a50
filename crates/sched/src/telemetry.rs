//! Search telemetry: branch-free counters over the two tree searches
//! (the exact B&B of [`crate::optimal`] and the timing scheduler's
//! backtracking commit search) plus the deterministic sampling rule
//! their observed runs follow.
//!
//! Everything here obeys the determinism contract of `DESIGN.md` §12:
//! counters advance on *search events* (node expansions, commits),
//! never on wall-clock time, and sampled [`pas_obs::TraceEvent`]s are
//! triggered purely by node counts — so traces stay byte-identical at
//! every thread count. Wall-clock measurements live in `pas-par`'s
//! side channel (`PoolProfile`) instead and are never traced.

use pas_obs::{Observer, TraceEvent};

/// Default node interval between [`TraceEvent::SearchSample`]
/// emissions in observed searches. At the exact B&B's
/// typical node rates this keeps sampled traces a few hundred events
/// per million nodes.
pub const SEARCH_SAMPLE_INTERVAL: u64 = 4096;

/// Counters describing one search (or one branch of a partitioned
/// search). All fields advance by plain integer increments on the hot
/// path — no branching beyond what the search already does — so they
/// are collected unconditionally; observers only control whether the
/// *events* derived from them are emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search nodes expanded (B&B `descend` entries, or timing-search
    /// task commits).
    pub nodes: u64,
    /// Candidate branches cut by the incumbent finish-time bound.
    pub pruned_incumbent: u64,
    /// Candidate placements discarded by the symmetry rule *or* found
    /// infeasible (resource exclusivity, edge windows, power budget —
    /// or an infeasible serialization in the timing search). Nonzero
    /// with dominance off: infeasible placements alone count here.
    pub pruned_dominance: u64,
    /// Candidate starts cut by the search horizon.
    pub pruned_horizon: u64,
    /// Searches (or branches) stopped by the node/backtrack budget.
    pub pruned_budget: u64,
    /// Candidate branches cut by lint-derived admissible bounds
    /// (completion tails) or unwound by the makespan lower-bound
    /// early stop. Zero when the search runs without lint bounds.
    pub pruned_bound: u64,
    /// Times the incumbent (best complete schedule) improved.
    pub incumbent_improvements: u64,
    /// Deepest node expanded.
    pub max_depth: u32,
    /// The node (or backtrack) budget this search ran under.
    pub budget: u64,
}

impl SearchStats {
    /// Total branches pruned, all reasons.
    pub fn total_prunes(&self) -> u64 {
        self.pruned_incumbent
            .saturating_add(self.pruned_dominance)
            .saturating_add(self.pruned_horizon)
            .saturating_add(self.pruned_budget)
            .saturating_add(self.pruned_bound)
    }

    /// Fraction of the budget consumed (`0.0` when no budget).
    pub fn budget_utilization(&self) -> f64 {
        if self.budget == 0 {
            0.0
        } else {
            self.nodes as f64 / self.budget as f64
        }
    }

    /// Folds another search's counters into this one (budgets add,
    /// depths max) — the reduction used across partitioned branches.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes = self.nodes.saturating_add(other.nodes);
        self.pruned_incumbent = self.pruned_incumbent.saturating_add(other.pruned_incumbent);
        self.pruned_dominance = self.pruned_dominance.saturating_add(other.pruned_dominance);
        self.pruned_horizon = self.pruned_horizon.saturating_add(other.pruned_horizon);
        self.pruned_budget = self.pruned_budget.saturating_add(other.pruned_budget);
        self.pruned_bound = self.pruned_bound.saturating_add(other.pruned_bound);
        self.incumbent_improvements = self
            .incumbent_improvements
            .saturating_add(other.incumbent_improvements);
        self.max_depth = self.max_depth.max(other.max_depth);
        self.budget = self.budget.saturating_add(other.budget);
    }

    /// The [`TraceEvent::SearchStatsRecorded`] projection of these
    /// counters, attributed to `worker`.
    pub fn to_event(&self, worker: u32) -> TraceEvent {
        TraceEvent::SearchStatsRecorded {
            worker,
            nodes: self.nodes,
            pruned_incumbent: self.pruned_incumbent,
            pruned_dominance: self.pruned_dominance,
            pruned_horizon: self.pruned_horizon,
            pruned_budget: self.pruned_budget,
            pruned_bound: self.pruned_bound,
            max_depth: self.max_depth,
            budget: self.budget,
        }
    }

    /// Emits [`SearchStats::to_event`] when `obs` is enabled.
    pub fn emit<O: Observer + ?Sized>(&self, worker: u32, obs: &mut O) {
        if obs.is_enabled() {
            obs.on_event(&self.to_event(worker));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_obs::CountingObserver;

    fn sample() -> SearchStats {
        SearchStats {
            nodes: 100,
            pruned_incumbent: 10,
            pruned_dominance: 20,
            pruned_horizon: 3,
            pruned_budget: 1,
            pruned_bound: 2,
            incumbent_improvements: 4,
            max_depth: 9,
            budget: 500,
        }
    }

    #[test]
    fn prunes_and_utilization_derive_from_counters() {
        let s = sample();
        assert_eq!(s.total_prunes(), 36);
        assert!((s.budget_utilization() - 0.2).abs() < 1e-12);
        assert_eq!(SearchStats::default().budget_utilization(), 0.0);
    }

    #[test]
    fn absorb_sums_counts_and_maxes_depth() {
        let mut a = sample();
        let b = SearchStats {
            max_depth: 30,
            ..sample()
        };
        a.absorb(&b);
        assert_eq!(a.nodes, 200);
        assert_eq!(a.budget, 1000);
        assert_eq!(a.max_depth, 30);
        assert_eq!(a.incumbent_improvements, 8);
    }

    #[test]
    fn to_event_round_trips_every_counter() {
        let s = sample();
        let event = s.to_event(3);
        let TraceEvent::SearchStatsRecorded {
            worker,
            nodes,
            pruned_incumbent,
            pruned_dominance,
            pruned_horizon,
            pruned_budget,
            pruned_bound,
            max_depth,
            budget,
        } = event
        else {
            panic!("wrong projection");
        };
        assert_eq!(worker, 3);
        assert_eq!(nodes, s.nodes);
        assert_eq!(pruned_incumbent, s.pruned_incumbent);
        assert_eq!(pruned_dominance, s.pruned_dominance);
        assert_eq!(pruned_horizon, s.pruned_horizon);
        assert_eq!(pruned_budget, s.pruned_budget);
        assert_eq!(pruned_bound, s.pruned_bound);
        assert_eq!(max_depth, s.max_depth);
        assert_eq!(budget, s.budget);
    }

    #[test]
    fn emit_respects_observer_enablement() {
        let mut counter = CountingObserver::new();
        sample().emit(0, &mut counter);
        assert_eq!(counter.counts().search_stats, 1);
        sample().emit(0, &mut pas_obs::NullObserver); // must be a no-op
    }
}
