//! Scheduler configuration: every heuristic knob from §5 of the paper
//! is explicit here, so benches can ablate them.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

use pas_obs::EventCounts;
use pas_par::Parallelism;

/// How the timing scheduler orders commit candidates when exploring
/// topological orderings (Fig. 3 traverses successors in an
/// unspecified order; the choice shapes which serialization is found
/// first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum CommitOrder {
    /// Earliest ASAP start first, task id as tie-break (deterministic
    /// and usually the natural order).
    #[default]
    EarliestFirst,
    /// Earliest-first, then deterministically shuffled (a SplitMix64-
    /// driven Fisher–Yates keyed on this variation index and the
    /// commit depth). `Rotated(0)` equals
    /// [`CommitOrder::EarliestFirst`]; increasing indices visit
    /// systematically different serializations. Used by the portfolio
    /// scheduler as an RNG-free diversification.
    Rotated(usize),
    /// Seeded-random order — used by the portfolio scheduler to
    /// sample alternative serializations.
    Random,
}

/// How the max-power scheduler picks the next spike victim among the
/// simultaneously active tasks (§5.2: "a slack-based ordering
/// function is used to order simultaneous tasks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum VictimOrder {
    /// The paper's heuristic: largest slack first; zero-slack tasks
    /// only when no slack remains.
    #[default]
    LargestSlackFirst,
    /// Ablation baseline: uniformly random victim order.
    Random,
}

/// How far a spike victim is delayed (§5.2: "we heuristically set the
/// upper bound of the delay distance to the execution time of the
/// task", further bounded by its slack when it has one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum DelayPolicy {
    /// Delay just past the spike instant (the minimal distance that
    /// removes the task from the offending time).
    #[default]
    PastSpike,
    /// Delay to the next power-profile breakpoint after the spike.
    NextBreakpoint,
    /// Delay by the full upper bound `min(slack, d(v))`.
    ExecutionTime,
}

/// The order in which the min-power scheduler visits instants when
/// hunting for power gaps (§5.3: "incremental order, reverse order,
/// or random order").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ScanOrder {
    /// Increasing time.
    #[default]
    Forward,
    /// Decreasing time.
    Reverse,
    /// Seeded-random permutation.
    Random,
}

/// Where a task is re-placed when filling a power gap (§5.3:
/// "starting v at t, finishing v at the end of the power gap
/// beginning at t, or a randomly chosen time slot").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum SlotPolicy {
    /// Start the task exactly at the gap instant.
    #[default]
    StartAtGap,
    /// Finish the task at the end of the gap (clamped so it still
    /// covers the gap instant).
    FinishAtGapEnd,
    /// A seeded-random slot that keeps the task active at the gap
    /// instant.
    Random,
}

/// Configuration of the complete three-stage scheduler.
///
/// [`SchedulerConfig::default`] reproduces the paper's heuristics; the
/// other knobs exist for the ablation benches.
///
/// # Examples
/// ```
/// use pas_sched::{ScanOrder, SchedulerConfig};
/// let cfg = SchedulerConfig { seed: 7, ..SchedulerConfig::default() };
/// assert_eq!(cfg.scan_orders[0], ScanOrder::Forward);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Seed for all randomized heuristics (runs are deterministic for
    /// a fixed seed).
    pub seed: u64,
    /// Commit-candidate ordering in the timing scheduler.
    pub commit_order: CommitOrder,
    /// Spike-victim ordering heuristic.
    pub victim_order: VictimOrder,
    /// Spike-victim delay distance heuristic.
    pub delay_policy: DelayPolicy,
    /// Lock the start times of remaining simultaneous tasks before
    /// recursing (§5.2). Disabling is an ablation.
    pub lock_remaining: bool,
    /// Also accept gap-filling moves that keep utilization equal but
    /// strictly reduce power jitter without extending the finish time
    /// — the paper's secondary motivation for the min power
    /// constraint ("control the jitter in the system-level power
    /// curve to improve battery usage"). Off by default so default
    /// results match the pure Fig. 6 acceptance rule.
    pub reduce_jitter: bool,
    /// Run the left-edge compaction pass after spike elimination
    /// (closes the idle holes victim delays leave behind; see
    /// DESIGN.md §6). Disabling is an ablation — e.g. the worst-case
    /// rover degrades from the paper's 75 s to 85 s without it.
    pub compact: bool,
    /// Scan orders tried by the min-power scheduler, cycled across
    /// passes ("we scan the schedule multiple times while altering
    /// some of the heuristics during each scan").
    pub scan_orders: Vec<ScanOrder>,
    /// Gap-fill slot policies, cycled across passes.
    pub slot_policies: Vec<SlotPolicy>,
    /// Upper bound on full min-power passes.
    pub max_scans: usize,
    /// Upper bound on timing-scheduler backtracks before giving up.
    pub max_backtracks: usize,
    /// Upper bound on max-power rescheduling recursions.
    pub max_recursions: usize,
    /// How many alternative victims to try when a max-power recursion
    /// fails ("the algorithm will choose one task from them to make
    /// further delay and continue recursion").
    pub max_respins: usize,
    /// Instance-size ceiling (in tasks) below which the portfolio
    /// scheduler finishes with one exact branch-and-bound attempt
    /// ([`crate::optimal::minimize_finish_time`]). Random restarts
    /// sample serializations blindly; on small instances the exact
    /// attempt closes the optimality gap deterministically. `0`
    /// disables it.
    pub exact_portfolio_limit: usize,
    /// Run the `pas-lint` static analyzer before the first stage and
    /// reject problems with error-level findings without searching
    /// (every such finding is a proof the pipeline must fail; see
    /// [`pas_lint::LintCode::implies_scheduler_failure`]). Disable to
    /// force the full search on known-broken inputs, e.g. to measure
    /// the guard's early-reject savings.
    pub lint_guard: bool,
    /// Feed lint-derived admissible bounds
    /// ([`pas_lint::lint_bounds`]) to the portfolio's exact
    /// branch-and-bound attempt: per-task completion tails prune
    /// never-winning subtrees and the makespan lower bound stops the
    /// search once the incumbent provably cannot be beaten. The
    /// schedule is bit-identical either way (the bounds are
    /// admissible); only the node counts and
    /// `SearchStats::pruned_bound` telemetry change, so this is purely
    /// a performance knob. Disable to measure the bounds' pruning
    /// efficacy (`impacct-cli profile` reports both).
    pub lint_bounds: bool,
    /// Enable dominance/symmetry breaking in the portfolio's exact
    /// branch-and-bound attempt: interchangeable tasks (identical
    /// delay, power, resource, and precedence signature — see
    /// `DESIGN.md` §15) are branched in canonical id order only, so
    /// the search skips permutations of task sets it has already
    /// explored. The returned schedule is bit-identical either way —
    /// every pruned branch has an already-enumerated twin with the
    /// same finish time — so, like [`SchedulerConfig::lint_bounds`],
    /// this is purely a performance knob; only node counts and
    /// `SearchStats::pruned_dominance` telemetry change. Disable to
    /// measure the rule's pruning efficacy.
    pub dominance: bool,
    /// Use the incremental scheduling engine: delta-maintained anchor
    /// longest paths across the timing scheduler's search tree (see
    /// [`pas_graph::IncrementalLongestPaths`]), delta-rebuilt power
    /// profiles in the max-power stage, and window-scored moves in the
    /// min-power stage ([`crate::improve_gaps`]). Results are
    /// bit-identical to the full recomputation path — longest-path
    /// distances are unique and the profile deltas and window queries
    /// reproduce the canonical profile's figures — so this is purely a
    /// performance knob (DESIGN.md §10). Disabling it is an ablation /
    /// oracle for the equivalence tests.
    pub incremental: bool,
    /// Parallel execution of the independent searches: portfolio
    /// restarts and the exact-B&B top-level frontier. Min-power gap
    /// filling always runs sequentially: a window-scored move costs
    /// far less than a thread handoff. Results are **bit-identical**
    /// to the sequential run for every setting (DESIGN.md §12) — the
    /// winner reduction and frontier order are keyed on deterministic
    /// unit indices, never on completion order — so this is purely a
    /// wall-clock knob. [`Parallelism::Off`] (the
    /// default) additionally preserves the legacy *streamed* trace
    /// shape; the enabled settings stitch per-worker trace buffers
    /// with `WorkerStarted`/`WorkerFinished` tags instead.
    pub parallelism: Parallelism,
    /// Base seed for the portfolio's restart diversification. `None`
    /// (the default) derives restart seeds from [`SchedulerConfig::seed`]
    /// exactly as previous releases did, so two runs with the same
    /// config are reproducible by construction; `Some(b)` decouples
    /// the restart stream from the heuristic seed so sweeps can vary
    /// one without the other.
    pub portfolio_base_seed: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            seed: 0x1A9C_C701,
            commit_order: CommitOrder::EarliestFirst,
            victim_order: VictimOrder::LargestSlackFirst,
            delay_policy: DelayPolicy::PastSpike,
            lock_remaining: true,
            reduce_jitter: false,
            compact: true,
            scan_orders: vec![ScanOrder::Forward, ScanOrder::Reverse, ScanOrder::Random],
            slot_policies: vec![
                SlotPolicy::StartAtGap,
                SlotPolicy::FinishAtGapEnd,
                SlotPolicy::Random,
            ],
            max_scans: 16,
            max_backtracks: 50_000,
            max_recursions: 2_048,
            max_respins: 4,
            exact_portfolio_limit: 10,
            lint_guard: true,
            lint_bounds: true,
            dominance: true,
            incremental: true,
            parallelism: Parallelism::Off,
            portfolio_base_seed: None,
        }
    }
}

/// Counters describing the work a scheduling run performed; useful in
/// reports and for asserting heuristic behaviour in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Serialization edges added by the timing scheduler.
    pub serializations: usize,
    /// Branches abandoned by the timing scheduler.
    pub timing_backtracks: usize,
    /// Tasks delayed to eliminate power spikes.
    pub spike_delays: usize,
    /// Max-power rescheduling recursions taken.
    pub power_recursions: usize,
    /// Full passes performed by the min-power scheduler.
    pub min_power_scans: usize,
    /// Accepted gap-filling moves.
    pub min_power_moves: usize,
    /// Longest-path / profile refreshes served from cache.
    pub incremental_cache_hits: usize,
    /// Refreshes served by delta re-relaxation or profile deltas.
    pub incremental_deltas: usize,
    /// Refreshes that fell back to a full recomputation.
    pub incremental_fallbacks: usize,
}

impl SchedulerStats {
    /// Sums the counters of two runs (e.g. across pipeline stages).
    #[deprecated(since = "0.1.0", note = "use `+` / `+=` / `Sum` instead")]
    pub fn merged(self, other: SchedulerStats) -> SchedulerStats {
        self + other
    }
}

impl Add for SchedulerStats {
    type Output = SchedulerStats;

    fn add(mut self, other: SchedulerStats) -> SchedulerStats {
        self += other;
        self
    }
}

impl AddAssign for SchedulerStats {
    fn add_assign(&mut self, other: SchedulerStats) {
        self.serializations += other.serializations;
        self.timing_backtracks += other.timing_backtracks;
        self.spike_delays += other.spike_delays;
        self.power_recursions += other.power_recursions;
        self.min_power_scans += other.min_power_scans;
        self.min_power_moves += other.min_power_moves;
        self.incremental_cache_hits += other.incremental_cache_hits;
        self.incremental_deltas += other.incremental_deltas;
        self.incremental_fallbacks += other.incremental_fallbacks;
    }
}

impl Sum for SchedulerStats {
    fn sum<I: Iterator<Item = SchedulerStats>>(iter: I) -> SchedulerStats {
        iter.fold(SchedulerStats::default(), Add::add)
    }
}

/// The counters are a projection of the observability event stream:
/// each field is the tally of one [`pas_obs::TraceEvent`] variant.
impl From<EventCounts> for SchedulerStats {
    fn from(c: EventCounts) -> SchedulerStats {
        SchedulerStats {
            serializations: c.serializations as usize,
            timing_backtracks: c.topo_backtracks as usize,
            spike_delays: c.victim_delays as usize,
            power_recursions: c.power_recursions as usize,
            min_power_scans: c.gap_scans as usize,
            min_power_moves: c.moves_accepted as usize,
            incremental_cache_hits: c.incremental_cache_hits as usize,
            incremental_deltas: c.incremental_deltas as usize,
            incremental_fallbacks: c.incremental_fallbacks as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_heuristics() {
        let cfg = SchedulerConfig::default();
        assert_eq!(cfg.victim_order, VictimOrder::LargestSlackFirst);
        assert!(cfg.lock_remaining);
        assert_eq!(cfg.scan_orders.len(), 3);
        assert!(cfg.max_scans >= 2, "paper requires multiple scans");
        assert!(cfg.lint_guard, "static guard is on by default");
        assert!(cfg.lint_bounds, "lint-derived B&B bounds on by default");
        assert!(cfg.dominance, "dominance/symmetry breaking on by default");
        assert!(cfg.incremental, "incremental engine is on by default");
        assert_eq!(cfg.parallelism, Parallelism::Off, "sequential by default");
        assert_eq!(
            cfg.portfolio_base_seed, None,
            "restart seeds derive from `seed` by default"
        );
    }

    fn sample_stats() -> SchedulerStats {
        SchedulerStats {
            serializations: 1,
            timing_backtracks: 2,
            spike_delays: 3,
            power_recursions: 4,
            min_power_scans: 5,
            min_power_moves: 6,
            ..SchedulerStats::default()
        }
    }

    #[test]
    fn stats_add_sums_counters() {
        let a = sample_stats();
        let m = a + a;
        assert_eq!(m.serializations, 2);
        assert_eq!(m.min_power_moves, 12);

        let mut acc = SchedulerStats::default();
        acc += a;
        acc += a;
        assert_eq!(acc, m);

        let summed: SchedulerStats = [a, a, a].into_iter().sum();
        assert_eq!(summed.spike_delays, 9);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_merged_still_adds() {
        let a = sample_stats();
        assert_eq!(a.merged(a), a + a);
    }

    #[test]
    fn stats_project_from_event_counts() {
        let counts = EventCounts {
            serializations: 3,
            topo_backtracks: 2,
            victim_delays: 7,
            power_recursions: 1,
            gap_scans: 4,
            moves_accepted: 5,
            moves_rejected: 99, // not part of the projection
            ..EventCounts::default()
        };
        let stats = SchedulerStats::from(counts);
        assert_eq!(stats.serializations, 3);
        assert_eq!(stats.timing_backtracks, 2);
        assert_eq!(stats.spike_delays, 7);
        assert_eq!(stats.power_recursions, 1);
        assert_eq!(stats.min_power_scans, 4);
        assert_eq!(stats.min_power_moves, 5);
    }
}
