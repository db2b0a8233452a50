//! # pas-core — model and metrics for power-aware scheduling
//!
//! Core data model for the DAC 2001 power-aware scheduling framework:
//!
//! * [`Problem`] — a [`pas_graph::ConstraintGraph`] plus system-level
//!   [`PowerConstraints`] (`P_max` hard budget, `P_min` free-power
//!   goal) and a constant background draw;
//! * [`Schedule`] — start-time assignments `σ(v)`;
//! * [`PowerProfile`] — the piecewise-constant `P_σ(t)` with spike/gap
//!   extraction and exact energy integrals;
//! * [`slack`]/[`slacks`] — the paper's slack analysis `Δ_σ(v)`;
//! * [validity checking](validity) — independent oracles for
//!   time-validity and power-validity;
//! * [metrics] — energy cost `Ec_σ(P_min)`, min-power utilization
//!   `ρ_σ(P_min)` as an exact [`Ratio`], jitter, and the combined
//!   [`ScheduleAnalysis`] report;
//! * [`example::paper_example`] — the paper's 9-task running example;
//! * [`json`] — the workspace's one JSON escaper and strict reader.
//!
//! All arithmetic is exact integer fixed point (see
//! [`pas_graph::units`]).
//!
//! ## Example
//!
//! ```
//! use pas_core::{analyze, Problem, PowerConstraints, Schedule};
//! use pas_graph::longest_path::single_source_longest_paths;
//! use pas_graph::units::{Power, TimeSpan};
//! use pas_graph::{ConstraintGraph, NodeId, Resource, ResourceKind, Task};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = ConstraintGraph::new();
//! let cpu = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
//! let radio = g.add_resource(Resource::new("radio", ResourceKind::Other));
//! let compress = g.add_task(Task::new("compress", cpu, TimeSpan::from_secs(4),
//!                                     Power::from_watts(3)));
//! let transmit = g.add_task(Task::new("transmit", radio, TimeSpan::from_secs(6),
//!                                     Power::from_watts(5)));
//! g.precedence(compress, transmit);
//!
//! let problem = Problem::new("uplink", g,
//!     PowerConstraints::new(Power::from_watts(8), Power::from_watts(2)));
//! let lp = single_source_longest_paths(problem.graph(), NodeId::ANCHOR)?;
//! let sigma = Schedule::from_longest_paths(problem.graph(), &lp);
//! let report = analyze(&problem, &sigma);
//! assert!(report.is_valid());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod example;
pub mod json;
pub mod metrics;
pub mod power_model;
mod problem;
mod profile;
mod ratio;
mod schedule;
mod slack;
pub mod validity;

pub use metrics::{
    analyze, energy_cost, free_energy_used, power_jitter, utilization, utilization_of,
    ScheduleAnalysis,
};
pub use problem::{PowerConstraints, Problem};
pub use profile::{DeltaArena, Interval, MoveEffect, PowerProfile, ProfileMove, Segment};
pub use ratio::Ratio;
pub use schedule::Schedule;
pub use slack::{slack, slacks};
pub use validity::{
    describe_spike, is_move_valid, is_power_valid, is_time_valid, time_violations, TimingViolation,
};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Problem>();
        assert_send_sync::<Schedule>();
        assert_send_sync::<PowerProfile>();
        assert_send_sync::<ScheduleAnalysis>();
        assert_send_sync::<Ratio>();
    }
}
