//! Observational identity of dominance/symmetry breaking.
//!
//! `SchedulerConfig::dominance` (DESIGN.md §15) must be a pure
//! performance knob: branching only the canonical (smallest-id)
//! member of each interchangeable-task class may only skip subtrees
//! whose completions have an already-enumerated twin with the same
//! finish time, so for every problem the scheduler must produce the
//! *bit-identical* schedule, energy cost `Ec_σ` and utilization `ρ_σ`
//! with the rule on and off — at every thread count — and fail with
//! the same error class when it fails.
//!
//! Two layers are swept over 200 generated problems (all topologies,
//! a range of power tightness, infeasible instances included):
//!
//! * the full portfolio pipeline (whose exact attempt inherits the
//!   flag) at threads {1, 2, 4, 8};
//! * the exact branch-and-bound directly on the small instances,
//!   where the node counts also witness that the rule actually
//!   prunes.

use pas_obs::NullObserver;
use pas_sched::optimal::{minimize_finish_time, OptimalConfig};
use pas_sched::{Parallelism, PowerAwareScheduler, SchedulerConfig};
use pas_workload::{generate, GeneratorConfig, Topology};

#[test]
fn dominance_pruning_is_observationally_sound() {
    let mut solved = 0usize;
    let mut failed = 0usize;
    let mut exact_checked = 0usize;
    let mut exact_pruned = 0usize;
    for case in 0..200u64 {
        let topology = match case % 3 {
            0 => Topology::Layered {
                layers: 3 + (case % 4) as usize,
            },
            1 => Topology::Chains {
                chains: 2 + (case % 3) as usize,
            },
            _ => Topology::Random,
        };
        let mut generator = GeneratorConfig {
            seed: 0xD0_71A4CE ^ case,
            tasks: 6 + (case % 11) as usize,
            resources: 2 + (case % 5) as usize,
            topology,
            p_max_factor: 1.2 + 0.1 * (case % 14) as f64,
            p_min_fraction: 0.3 + 0.05 * (case % 12) as f64,
            ..GeneratorConfig::default()
        };
        // Every fifth case swaps in a twin-rich family: the default
        // ranges draw delay and power uniformly from wide intervals,
        // so exact `(delay, power, resource, edges)` signature
        // collisions — what the dominance rule keys on — essentially
        // never occur. A Backbone spine with an edge-free fringe of
        // quantized tasks on two resources makes twins near-certain,
        // so the sweep witnesses real pruning, not just vacuous
        // on/off agreement.
        if case % 5 == 4 {
            generator.tasks = 6 + (case % 5) as usize;
            generator.resources = 2;
            generator.topology = Topology::Backbone {
                fringe: generator.tasks / 2,
            };
            generator.delay_secs = (2, 3);
            generator.power_milliwatts = (2_000, 2_000);
        }
        let problem = generate(&generator);
        let restarts = 2 + (case % 3) as usize;
        let threads = [1usize, 2, 4, 8][(case % 4) as usize];

        let run = |dominance: bool| {
            let mut p = problem.clone();
            let config = SchedulerConfig {
                dominance,
                parallelism: Parallelism::Threads(threads),
                seed: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD011,
                ..SchedulerConfig::default()
            };
            PowerAwareScheduler::new(config)
                .schedule_portfolio(&mut p, restarts)
                .map(|o| (o.schedule, o.analysis.energy_cost, o.analysis.utilization))
        };

        let off = run(false);
        let on = run(true);
        match (&off, &on) {
            (Ok(off), Ok(on)) => {
                assert_eq!(
                    on.0, off.0,
                    "case {case} threads {threads}: schedules diverge"
                );
                assert_eq!(
                    on.1, off.1,
                    "case {case} threads {threads}: energy cost Ec diverges"
                );
                assert_eq!(
                    on.2, off.2,
                    "case {case} threads {threads}: utilization rho diverges"
                );
            }
            (Err(off), Err(on)) => {
                assert_eq!(
                    std::mem::discriminant(off),
                    std::mem::discriminant(on),
                    "case {case} threads {threads}: error class diverges \
                     ({off:?} vs {on:?})"
                );
            }
            (off, on) => panic!(
                "case {case} threads {threads}: feasibility diverges: \
                 off={off:?} on={on:?}"
            ),
        }
        match off {
            Ok(_) => solved += 1,
            Err(_) => failed += 1,
        }

        // Direct exact-search comparison on the small instances: the
        // schedule must be bit-identical, with the rule only ever
        // *removing* explored nodes.
        let graph = problem.graph();
        if graph.num_tasks() <= 10 {
            let p_max = problem.constraints().p_max();
            let background = problem.background_power();
            let config = |dominance: bool| OptimalConfig {
                // The pipeline's exact-attempt budget: ample for every
                // instance this sweep generates, so the on/off
                // comparison never straddles the budget boundary
                // (where any pruning knob — lint bounds included —
                // can flip exhaustion into success).
                max_nodes: 5_000_000,
                horizon: None,
                use_lint_bounds: false,
                use_dominance: dominance,
            };
            let exact = |dominance: bool, split: Option<usize>| {
                let config = config(dominance);
                minimize_finish_time(
                    graph,
                    p_max,
                    background,
                    &config,
                    split,
                    0,
                    &mut NullObserver,
                )
                .0
            };
            let off = exact(false, None);
            let on = exact(true, None);
            match (off, on) {
                (Ok(off), Ok(on)) => {
                    exact_checked += 1;
                    assert_eq!(on.schedule, off.schedule, "case {case}: exact schedule");
                    assert_eq!(on.finish_time, off.finish_time, "case {case}: exact finish");
                    assert!(
                        on.nodes_explored <= off.nodes_explored,
                        "case {case}: dominance grew the tree ({} vs {})",
                        on.nodes_explored,
                        off.nodes_explored
                    );
                    if on.nodes_explored < off.nodes_explored {
                        exact_pruned += 1;
                    }
                    // The frontier-split search stays worker-count
                    // invariant with the rule on. It may legitimately
                    // exhaust where the single-budget search succeeds
                    // — its budget is split per branch (DESIGN.md
                    // §12) — but the outcome must be identical at
                    // every worker count, and any schedule it does
                    // return must be the single-budget one.
                    let part_one = exact(true, Some(1));
                    let part_n = exact(true, Some(threads));
                    match (part_one, part_n) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.schedule, b.schedule, "case {case}: partitioned workers");
                            assert_eq!(a.nodes_explored, b.nodes_explored, "case {case}");
                            assert_eq!(a.schedule, on.schedule, "case {case}: partitioned vs seq");
                        }
                        (Err(a), Err(b)) => assert_eq!(
                            std::mem::discriminant(&a),
                            std::mem::discriminant(&b),
                            "case {case}: partitioned error class varies with workers \
                             ({a:?} vs {b:?})"
                        ),
                        (a, b) => panic!(
                            "case {case}: partitioned outcome varies with workers: \
                             1={a:?} {threads}={b:?}"
                        ),
                    }
                }
                (Err(off), Err(on)) => {
                    assert_eq!(
                        std::mem::discriminant(&off),
                        std::mem::discriminant(&on),
                        "case {case}: exact error class diverges ({off:?} vs {on:?})"
                    );
                }
                (off, on) => {
                    panic!("case {case}: exact feasibility diverges: off={off:?} on={on:?}")
                }
            }
        }
    }
    assert_eq!(solved + failed, 200);
    assert!(solved >= 100, "only {solved}/200 cases solvable");
    assert!(
        exact_checked >= 50,
        "only {exact_checked} direct exact comparisons ran"
    );
    assert!(
        exact_pruned >= 10,
        "dominance never pruned ({exact_pruned}/{exact_checked} cases) — \
         the sweep is not exercising the rule"
    );
}
