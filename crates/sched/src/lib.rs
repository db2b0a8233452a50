//! # pas-sched — the DAC 2001 power-aware scheduling algorithms
//!
//! Implements the paper's three core algorithms and the machinery
//! around them:
//!
//! * [`schedule_timing`] — Fig. 3: serialization of resource-sharing
//!   tasks by backtracking over topological orders, start times from
//!   anchor longest paths;
//! * [`schedule_max_power`] — Fig. 4: power-spike elimination under
//!   the hard `P_max` budget using slack-ordered victim delays, locks
//!   and recursion;
//! * [`schedule_min_power`] — Fig. 6: best-effort power-gap filling to
//!   maximize min-power utilization `ρ_σ(P_min)`;
//! * [`PowerAwareScheduler`] — the three-stage pipeline facade with
//!   per-stage outcomes (the paper's Figs. 2 → 5 → 7);
//! * [`baseline`] — the JPL-style fully-serialized schedule and the
//!   power-unaware ASAP schedule the paper compares against;
//! * [`ScheduleRepertoire`] / [`ValidityRegion`] — quasi-static
//!   runtime scheduling over precomputed schedules (§5.3).
//!
//! Every heuristic knob of §5 is exposed in [`SchedulerConfig`] so the
//! ablation benches can flip them. All randomized heuristics are
//! seeded: runs are fully deterministic.
//!
//! The three stage algorithms also exist in `_observed` variants (and
//! the pipeline facade in `_with` variants) generic over a
//! [`pas_obs::Observer`], emitting a structured [`pas_obs::TraceEvent`]
//! at each algorithmic decision. The plain entry points are thin
//! wrappers that derive their [`SchedulerStats`] from a
//! [`pas_obs::CountingObserver`]. The exact search,
//! [`optimal::minimize_finish_time`], is one function that takes its
//! observer directly (unobserved callers pass
//! [`pas_obs::NullObserver`]). Observation never perturbs the computed
//! schedule.
//!
//! ## Example
//!
//! ```
//! use pas_core::example::paper_example;
//! use pas_sched::PowerAwareScheduler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (mut problem, _) = paper_example();
//! let stages = PowerAwareScheduler::default().schedule_stages(&mut problem)?;
//! // Fig. 2 has a spike; Fig. 5 is valid; Fig. 7 is no worse.
//! assert!(!stages.time_valid.analysis.spikes.is_empty());
//! assert!(stages.power_valid.analysis.is_valid());
//! assert!(stages.improved.analysis.utilization
//!         >= stages.power_valid.analysis.utilization);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod compact;
mod config;
mod context;
mod error;
mod max_power;
mod min_power;
pub mod optimal;
mod pipeline;
mod runtime;
mod session;
pub mod telemetry;
mod timing;

pub use compact::compact_schedule;
pub use config::{
    CommitOrder, DelayPolicy, ScanOrder, SchedulerConfig, SchedulerStats, SlotPolicy, VictimOrder,
};
pub use error::ScheduleError;
pub use max_power::{schedule_max_power, schedule_max_power_observed};
pub use min_power::{
    improve_gaps, improve_gaps_observed, schedule_min_power, schedule_min_power_observed,
};
pub use pas_par::{Parallelism, PoolProfile, WorkerProfile};
pub use pipeline::{Outcome, PowerAwareScheduler, StageOutcomes};
pub use runtime::{RepertoireEntry, ScheduleRepertoire, ValidityRegion};
pub use session::SessionContext;
pub use telemetry::{SearchStats, SEARCH_SAMPLE_INTERVAL};
pub use timing::{schedule_timing, schedule_timing_observed};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchedulerConfig>();
        assert_send_sync::<ScheduleError>();
        assert_send_sync::<PowerAwareScheduler>();
        assert_send_sync::<ScheduleRepertoire>();
    }
}
