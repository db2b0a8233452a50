//! Measures what the lint layer buys end to end, and writes
//! `BENCH_lint.json` for the CI regression gate (`bench_gate`).
//!
//! ```text
//! cargo run --release --example lint_early_reject
//! ```
//!
//! Three experiments:
//!
//! * **Early reject** — a batch of generated instances, sabotaged
//!   with every [`Sabotage`] kind in turn, under three treatments:
//!   `lint-only` (run the analyzer, observe the error-level verdict),
//!   `guard-on` (the default pipeline, which early-rejects), and
//!   `guard-off` (`lint_guard: false`). For the structural kinds the
//!   unguarded scheduler burns bounded backtracking before failing;
//!   for the deadline kinds it *succeeds* — schedulers never read the
//!   deadline — and ships a schedule that sails past it, so the whole
//!   search effort is wasted rather than merely slow.
//! * **Deep-pass overhead** — the interval fixpoint passes
//!   (`PAS02x`/`PAS04x`) only arm once a deadline exists, so linting
//!   the same feasible batch with and without a generous deadline
//!   isolates their cost.
//! * **Bound efficacy** — the exact B&B on a 500-task
//!   [`Topology::Backbone`] model with `use_lint_bounds` off vs on:
//!   byte-identical schedules, strictly fewer nodes.
//!
//! Results feed the "Static analysis" section of EXPERIMENTS.md.

use impacct::core::Problem;
use impacct::lint::lint;
use impacct::obs::NullObserver;
use impacct::sched::optimal::{minimize_finish_time, OptimalConfig};
use impacct::sched::{PowerAwareScheduler, ScheduleError, SchedulerConfig};
use impacct::workload::{
    can_energy_starve, can_pack_resource, generate, sabotage, GeneratorConfig, Sabotage, Topology,
};
use std::time::Instant;

const BATCH: usize = 40;
const TASKS: usize = 48;
const BNB_TASKS: usize = 500;

/// A feasible generated instance. Deadline sabotage needs headroom
/// for the tightened bound to bite, so those kinds get a shallow
/// two-layer graph whose critical path sits far below both the
/// per-resource serial load and the energy floor.
fn base(deadline_kind: bool, i: u64) -> Problem {
    // Deadline kinds also drop max windows: the unguarded pipeline
    // must *succeed* (past the deadline), so the instance has to stay
    // serializable under arbitrary resource stretching.
    let (topology, max_window_probability) = if deadline_kind {
        (Topology::Layered { layers: 2 }, 0.0)
    } else {
        (Topology::Layered { layers: 6 }, 0.3)
    };
    generate(&GeneratorConfig {
        seed: 1000 + i,
        tasks: TASKS,
        resources: 6,
        topology,
        max_window_probability,
        ..Default::default()
    })
}

fn batch(kind: Sabotage) -> Vec<Problem> {
    (0..BATCH)
        .map(|i| {
            let mut p = base(!kind.defeats_scheduler(), i as u64);
            match kind {
                Sabotage::EnergyStarvedDeadline => {
                    assert!(can_energy_starve(&p), "seed {i}: cannot energy-starve")
                }
                Sabotage::PackedResourceDeadline => {
                    assert!(can_pack_resource(&p), "seed {i}: cannot pack a resource")
                }
                _ => {}
            }
            sabotage(&mut p, kind, i as u64);
            p
        })
        .collect()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let mut rows: Vec<String> = Vec::new();

    println!("lint early-reject: {BATCH} sabotaged {TASKS}-task instances per kind\n");
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>8}",
        "sabotage", "lint-only", "guard-on", "guard-off", "speedup"
    );
    for kind in Sabotage::ALL {
        // Lint only: prove infeasibility, no scheduling at all.
        let problems = batch(kind);
        let t = Instant::now();
        let mut rejected = 0;
        for p in &problems {
            if lint(p).has_errors() {
                rejected += 1;
            }
        }
        let lint_only = t.elapsed();
        assert_eq!(rejected, BATCH, "{kind:?}: lint missed an instance");

        // Guard on (the default): the pipeline early-rejects.
        let mut problems = batch(kind);
        let t = Instant::now();
        for p in problems.iter_mut() {
            let err = PowerAwareScheduler::default()
                .schedule(p)
                .expect_err("sabotaged instance scheduled");
            assert!(
                matches!(err, ScheduleError::LintRejected { .. }),
                "{kind:?}: expected an early reject, got {err}"
            );
        }
        let guard_on = t.elapsed();

        // Guard off: the structural kinds make the scheduler burn
        // search effort to fail (bounded so the bench terminates);
        // the deadline kinds let it "succeed" past the deadline it
        // never reads, so they keep the full backtrack budget.
        let unguarded = if kind.defeats_scheduler() {
            PowerAwareScheduler::new(SchedulerConfig {
                lint_guard: false,
                max_backtracks: 500,
                ..SchedulerConfig::default()
            })
        } else {
            PowerAwareScheduler::new(SchedulerConfig {
                lint_guard: false,
                ..SchedulerConfig::default()
            })
        };
        let mut problems = batch(kind);
        let t = Instant::now();
        for p in problems.iter_mut() {
            if kind.defeats_scheduler() {
                let err = unguarded
                    .schedule(p)
                    .expect_err("sabotaged instance scheduled");
                assert!(!matches!(err, ScheduleError::LintRejected { .. }));
            } else {
                let out = unguarded
                    .schedule(p)
                    .expect("deadline-doomed instance must still timing-schedule");
                let deadline = p.deadline().expect("sabotage set a deadline");
                assert!(
                    out.schedule.finish_time(p.graph()) > deadline,
                    "{kind:?}: unguarded schedule met a deadline lint proved unreachable"
                );
            }
        }
        let guard_off = t.elapsed();

        // Clamped below at 1.0 for the gate: fast-fail kinds (an
        // overloaded task dies in the pipeline's first stage in
        // microseconds) make the raw ratio pure timer noise, and the
        // gate only guards collapse of genuine search burn.
        let speedup = (guard_off.as_secs_f64() / guard_on.as_secs_f64().max(1e-9)).max(1.0);
        println!(
            "{:<24} {:>10.2?} {:>10.2?} {:>10.2?} {:>7.1}x",
            format!("{kind:?}"),
            lint_only,
            guard_on,
            guard_off,
            speedup
        );
        rows.push(format!(
            concat!(
                "    {{\"workload\": \"early_reject_{:?}\", \"tasks\": {}, \"batch\": {}, ",
                "\"lint_only_ms\": {:.3}, \"guard_on_ms\": {:.3}, \"guard_off_ms\": {:.3}, ",
                "\"speedup\": {:.3}}}"
            ),
            kind,
            TASKS,
            BATCH,
            ms(lint_only),
            ms(guard_on),
            ms(guard_off),
            speedup,
        ));
    }
    println!("\n(guard-on ≈ lint-only plus pipeline setup; guard-off pays the search)");

    // -- Deep-pass overhead -------------------------------------------
    // Same feasible batch linted twice: without a deadline the
    // interval fixpoint passes stay dormant; with a generous one
    // (4x the critical finish) they run and must stay quiet.
    let mut shallow_batch: Vec<Problem> = (0..BATCH).map(|i| base(false, i as u64)).collect();
    let t = Instant::now();
    let shallow_errors: usize = shallow_batch.iter().map(|p| lint(p).error_count()).sum();
    let shallow = t.elapsed();
    for p in shallow_batch.iter_mut() {
        let g = p.graph();
        let starts = impacct::graph::longest_path::earliest_start_times(g)
            .expect("generated instances are acyclic");
        let finish = starts
            .iter()
            .map(|&(v, s)| s + g.task(v).delay())
            .max()
            .expect("non-empty graph");
        p.set_deadline(Some(impacct::graph::units::Time::from_secs(
            finish.as_secs() * 4,
        )));
    }
    let t = Instant::now();
    let deep_errors: usize = shallow_batch.iter().map(|p| lint(p).error_count()).sum();
    let deep = t.elapsed();
    assert_eq!(
        deep_errors, shallow_errors,
        "deep passes flagged a feasible instance under a 4x-slack deadline"
    );
    let overhead_ratio = shallow.as_secs_f64() / deep.as_secs_f64().max(1e-9);
    println!(
        "\ndeep-pass overhead: shallow {:.2?} vs deep {:.2?} over {BATCH} instances \
         (shallow/deep = {overhead_ratio:.2})",
        shallow, deep
    );
    rows.push(format!(
        concat!(
            "    {{\"workload\": \"deep_pass_overhead\", \"tasks\": {}, \"batch\": {}, ",
            "\"shallow_ms\": {:.3}, \"deep_ms\": {:.3}, \"speedup\": {:.3}}}"
        ),
        TASKS,
        BATCH,
        ms(shallow),
        ms(deep),
        overhead_ratio,
    ));

    // -- Lint-derived admissible bounds in the exact search -----------
    // A 500-task Backbone model: the spine pins the critical path, so
    // the lint makespan lower bound is met by the very first greedy
    // descent and the bounded search stops there, while the baseline
    // proves optimality the hard way. Node counts are deterministic;
    // the wall-clock ratio rides along as `measured_speedup`.
    let p500 = generate(&GeneratorConfig {
        seed: 0xB0B5,
        tasks: BNB_TASKS,
        resources: 8,
        topology: Topology::Backbone { fringe: 1 },
        ..Default::default()
    });
    let g = p500.graph();
    let (p_max, bg) = (p500.constraints().p_max(), p500.background_power());
    let t = Instant::now();
    let baseline = minimize_finish_time(
        g,
        p_max,
        bg,
        &OptimalConfig::default(),
        None,
        0,
        &mut NullObserver,
    )
    .0
    .expect("backbone search completes");
    let baseline_wall = t.elapsed();
    let t = Instant::now();
    let bounded = minimize_finish_time(
        g,
        p_max,
        bg,
        &OptimalConfig {
            use_lint_bounds: true,
            ..OptimalConfig::default()
        },
        None,
        0,
        &mut NullObserver,
    )
    .0
    .expect("bounded backbone search completes");
    let bounded_wall = t.elapsed();
    assert_eq!(
        bounded.schedule, baseline.schedule,
        "lint bounds changed the schedule"
    );
    assert!(
        bounded.nodes_explored < baseline.nodes_explored,
        "bounds must cut nodes: {} vs {}",
        bounded.nodes_explored,
        baseline.nodes_explored
    );
    assert!(bounded.stats.pruned_bound > 0, "{:?}", bounded.stats);
    let node_ratio = baseline.nodes_explored as f64 / bounded.nodes_explored as f64;
    let wall_ratio = baseline_wall.as_secs_f64() / bounded_wall.as_secs_f64().max(1e-9);
    println!(
        "\nB&B lint bounds ({BNB_TASKS}-task backbone): {} nodes / {:.2?} baseline vs \
         {} nodes / {:.2?} bounded ({node_ratio:.0}x fewer nodes, identical schedule)",
        baseline.nodes_explored, baseline_wall, bounded.nodes_explored, bounded_wall
    );
    rows.push(format!(
        concat!(
            "    {{\"workload\": \"bnb_lint_bounds\", \"tasks\": {}, ",
            "\"nodes_baseline\": {}, \"nodes_bounded\": {}, \"bound_prunes\": {}, ",
            "\"baseline_ms\": {:.3}, \"bounded_ms\": {:.3}, ",
            "\"speedup\": {:.3}, \"measured_speedup\": {:.3}}}"
        ),
        BNB_TASKS,
        baseline.nodes_explored,
        bounded.nodes_explored,
        bounded.stats.pruned_bound,
        ms(baseline_wall),
        ms(bounded_wall),
        node_ratio,
        wall_ratio,
    ));

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"lint\",\n  {},\n  \"batch\": {},\n",
            "  \"speedup_model\": \"within-run ratios: guard-off/guard-on wall, ",
            "shallow/deep wall, baseline/bounded search nodes\",\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        pas_bench::provenance_json(),
        BATCH,
        rows.join(",\n")
    );
    std::fs::write("BENCH_lint.json", &json).expect("write BENCH_lint.json");
    println!("\nwrote BENCH_lint.json");
}
