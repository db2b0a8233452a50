//! Observational identity of the incremental scheduling engine.
//!
//! The incremental engine (`SchedulerConfig::incremental`, DESIGN.md
//! §10) must be a pure performance knob: for every problem the
//! pipeline must produce the *bit-identical* schedule, energy cost
//! `Ec_σ` and min-power utilization `ρ_σ` with the engine on and off,
//! and fail with the same error class when it fails. The min-power
//! stage must also take the same decisions: its recorded gap, move
//! and pass events — each rejected move's `ρ` included — must match
//! event for event. This sweep runs the full three-stage pipeline on
//! 256 generated problems across all topologies and a range of power
//! tightness — deliberately including power-infeasible instances so
//! the failure paths are compared too.

use pas_obs::{RecordingObserver, TraceEvent};
use pas_sched::{PowerAwareScheduler, SchedulerConfig};
use pas_workload::{generate, GeneratorConfig, Topology};

/// The min-power stage's decision events, in order.
fn min_power_decisions(recorder: RecordingObserver) -> Vec<TraceEvent> {
    recorder
        .into_events()
        .into_iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::GapScanStarted { .. }
                    | TraceEvent::GapFound { .. }
                    | TraceEvent::MoveAccepted { .. }
                    | TraceEvent::MoveRejected { .. }
                    | TraceEvent::GapScanFinished { .. }
            )
        })
        .collect()
}

#[test]
fn incremental_pipeline_is_bit_identical_to_full_recompute() {
    let mut solved = 0usize;
    let mut failed = 0usize;
    let mut rejected_moves = 0usize;
    for case in 0..256u64 {
        let topology = match case % 3 {
            0 => Topology::Layered {
                layers: 3 + (case % 4) as usize,
            },
            1 => Topology::Chains {
                chains: 2 + (case % 3) as usize,
            },
            _ => Topology::Random,
        };
        let generator = GeneratorConfig {
            seed: 0xC0FF_EE00 ^ case,
            tasks: 6 + (case % 11) as usize,
            resources: 2 + (case % 5) as usize,
            topology,
            p_max_factor: 1.2 + 0.1 * (case % 14) as f64,
            p_min_fraction: 0.3 + 0.05 * (case % 12) as f64,
            ..GeneratorConfig::default()
        };
        let problem = generate(&generator);

        let run = |incremental: bool| {
            let mut p = problem.clone();
            let config = SchedulerConfig {
                incremental,
                seed: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED,
                ..SchedulerConfig::default()
            };
            let mut recorder = RecordingObserver::new();
            PowerAwareScheduler::new(config)
                .schedule_with(&mut p, &mut recorder)
                .map(|o| {
                    (
                        o.schedule,
                        o.analysis.energy_cost,
                        o.analysis.utilization,
                        min_power_decisions(recorder),
                    )
                })
        };

        match (run(true), run(false)) {
            (Ok(on), Ok(off)) => {
                assert_eq!(on.0, off.0, "case {case}: schedules diverge");
                assert_eq!(on.1, off.1, "case {case}: energy cost Ec diverges");
                assert_eq!(on.2, off.2, "case {case}: utilization rho diverges");
                assert_eq!(
                    on.3.len(),
                    off.3.len(),
                    "case {case}: min-power decision counts diverge"
                );
                for (i, (a, b)) in on.3.iter().zip(&off.3).enumerate() {
                    assert_eq!(a, b, "case {case}: min-power decision {i} diverges");
                }
                rejected_moves +=
                    on.3.iter()
                        .filter(|e| matches!(e, TraceEvent::MoveRejected { .. }))
                        .count();
                solved += 1;
            }
            (Err(on), Err(off)) => {
                assert_eq!(
                    std::mem::discriminant(&on),
                    std::mem::discriminant(&off),
                    "case {case}: error class diverges ({on:?} vs {off:?})"
                );
                failed += 1;
            }
            (on, off) => {
                panic!("case {case}: feasibility diverges: on={on:?} off={off:?}")
            }
        }
    }
    // The sweep must exercise both outcomes, and mostly solvable
    // instances (a generator drift that made everything infeasible
    // would make the identity check vacuous).
    assert_eq!(solved + failed, 256);
    assert!(solved >= 128, "only {solved}/256 cases solvable");
    assert!(rejected_moves > 0, "no rejected move was compared");
}
