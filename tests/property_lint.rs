//! Property tests for the static analyzer: lint errors are *proofs*
//! of scheduler failure, and lint never falsely rejects a schedulable
//! problem.
//!
//! Soundness direction: sabotaged instances (known-infeasible by
//! construction) must both carry an error-level lint finding and
//! actually defeat the schedulers when the guard is bypassed.
//! Completeness direction (no false positives): generated instances
//! and every shipped model lint clean at error level, so the
//! default-on guard never rejects anything the pipeline could have
//! scheduled.

use impacct::core::{analyze, example::paper_example};
use impacct::lint::{lint, LintCode};
use impacct::rover::{build_rover_problem, EnvCase};
use impacct::sched::{
    schedule_timing, PowerAwareScheduler, ScheduleError, SchedulerConfig, SchedulerStats,
};
use impacct::workload::strategies::generator_configs;
use impacct::workload::{generate, sabotage, Sabotage};
use proptest::prelude::*;

fn sabotages() -> impl Strategy<Value = Sabotage> {
    prop_oneof![
        Just(Sabotage::OverloadTask),
        Just(Sabotage::ContradictoryWindow),
        Just(Sabotage::ForcedResourceOverlap),
    ]
}

/// [`Sabotage::ForcedResourceOverlap`] needs a same-resource task
/// pair; random configs may map every task to its own resource.
/// Substitute the always-applicable contradictory window then.
fn applicable(kind: Sabotage, problem: &impacct::core::Problem) -> Sabotage {
    let g = problem.graph();
    let has_pair = g
        .task_ids()
        .any(|u| g.task_ids().any(|v| u < v && g.same_resource(u, v)));
    if kind == Sabotage::ForcedResourceOverlap && !has_pair {
        Sabotage::ContradictoryWindow
    } else {
        kind
    }
}

/// A bounded scheduler with the lint guard bypassed, so failures come
/// from the search itself, not the guard under test.
fn unguarded() -> PowerAwareScheduler {
    PowerAwareScheduler::new(SchedulerConfig {
        lint_guard: false,
        max_backtracks: 200,
        ..SchedulerConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Timing-class lint errors (positive cycle, forced resource
    /// overlap) defeat the raw timing scheduler — no guard involved.
    #[test]
    fn timing_lint_errors_defeat_the_timing_scheduler(
        cfg in generator_configs(16),
        timing_kind in prop_oneof![
            Just(Sabotage::ContradictoryWindow),
            Just(Sabotage::ForcedResourceOverlap),
        ],
        seed in 0u64..1_000,
    ) {
        let mut problem = generate(&cfg);
        let timing_kind = applicable(timing_kind, &problem);
        sabotage(&mut problem, timing_kind, seed);
        let report = lint(&problem);
        prop_assert!(report.has_errors(), "{timing_kind:?} left no lint error");
        prop_assert!(
            report.diagnostics().iter().any(|d| d.code.implies_scheduler_failure()),
            "{timing_kind:?} finding does not prove failure"
        );
        let mut stats = SchedulerStats::default();
        let result =
            schedule_timing(problem.graph_mut(), &SchedulerConfig::default(), &mut stats);
        prop_assert!(result.is_err(), "{timing_kind:?}: timing scheduler succeeded");
    }

    /// Every sabotage kind defeats the full (unguarded, bounded)
    /// pipeline, and the guard-on pipeline rejects it *before*
    /// searching.
    #[test]
    fn sabotaged_problems_fail_with_and_without_the_guard(
        cfg in generator_configs(12),
        kind in sabotages(),
        seed in 0u64..1_000,
    ) {
        let mut problem = generate(&cfg);
        let kind = applicable(kind, &problem);
        sabotage(&mut problem, kind, seed);

        let mut unguarded_problem = problem.clone();
        prop_assert!(
            unguarded().schedule(&mut unguarded_problem).is_err(),
            "{kind:?}: unguarded pipeline found a schedule"
        );

        let guarded = PowerAwareScheduler::default().schedule(&mut problem);
        prop_assert!(
            matches!(guarded, Err(ScheduleError::LintRejected { .. })),
            "{kind:?}: guard did not early-reject"
        );
    }

    /// No false positives: generated (unsabotaged) instances never
    /// carry an error-level finding that proves scheduler failure, so
    /// the default-on guard is invisible on them; and whenever the
    /// pipeline succeeds, the independent validity oracle agrees.
    #[test]
    fn lint_clean_schedules_pass_the_oracle(cfg in generator_configs(20)) {
        let mut problem = generate(&cfg);
        let report = lint(&problem);
        prop_assert!(
            !report.diagnostics().iter()
                .any(|d| d.code.implies_scheduler_failure()
                     && d.severity == impacct::lint::Severity::Error),
            "generator produced a provably infeasible instance: {:?}",
            report.diagnostics()
        );
        match PowerAwareScheduler::default().schedule(&mut problem) {
            Ok(outcome) => {
                let a = analyze(&problem, &outcome.schedule);
                prop_assert!(a.timing_violations.is_empty(), "{:?}", a.timing_violations);
                prop_assert!(a.spikes.is_empty(), "peak {}", a.peak_power);
            }
            Err(e) => prop_assert!(
                !matches!(e, ScheduleError::LintRejected { .. }),
                "guard rejected a generated instance: {e}"
            ),
        }
    }
}

/// Deterministic zero-false-positive check over every shipped model:
/// the paper's 9-task example and the three rover cases are all
/// schedulable, so lint must not report a single error on them.
#[test]
fn shipped_models_lint_error_clean() {
    let (example, _) = paper_example();
    let mut models = vec![("paper_example".to_string(), example)];
    for case in EnvCase::ALL {
        models.push((
            format!("rover_{}", case.label()),
            build_rover_problem(case, 1).problem,
        ));
    }
    for (name, problem) in models {
        let report = lint(&problem);
        assert_eq!(
            report.error_count(),
            0,
            "{name}: {:?}",
            report.diagnostics()
        );
        // And the guard therefore schedules them untouched.
        let mut p = problem.clone();
        PowerAwareScheduler::default()
            .schedule(&mut p)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The witness corpus promise, programmatically: every code that
/// claims to prove scheduler failure is error-level.
#[test]
fn failure_proving_codes_are_error_level() {
    for code in LintCode::ALL {
        if code.implies_scheduler_failure() {
            assert_eq!(
                code.severity(),
                impacct::lint::Severity::Error,
                "{code} proves failure but is not an error"
            );
        }
    }
}

/// Deterministic 256-problem sweep of the deep abstract-interpretation
/// passes, both directions at once.
///
/// Zero false positives: each generated instance is scheduled once
/// (unguarded, no deadline) and the achieved finish time becomes the
/// declared deadline — an existence witness, so deep lint must stay
/// error-clean at exactly that deadline.
///
/// Certified rejections: the instance is then re-broken with a
/// deadline-based sabotage (resource packing where applicable, energy
/// starvation otherwise). The deep passes must reject it with a
/// `PAS04x` error whose certificate the independent zero-trust
/// checker accepts; the guard-on pipeline must early-reject; and for
/// the packing kind the unguarded pipeline still "succeeds" — past
/// the deadline — proving the miss is invisible to the scheduler.
#[test]
fn deep_lint_sweep_256_zero_false_positives_with_certified_rejections() {
    use impacct::lint::verify_certificate;
    use impacct::workload::{
        can_energy_starve, can_pack_resource, energy_starved_deadline, packed_resource_deadline,
        GeneratorConfig, Topology,
    };

    let mut scheduled = 0usize;
    let mut certified = 0usize;
    for seed in 0..256u64 {
        let cfg = GeneratorConfig {
            seed: 0xDEE9_1137 ^ seed,
            tasks: 8 + (seed % 9) as usize,
            resources: 2 + (seed % 3) as usize,
            topology: match seed % 3 {
                0 => Topology::Layered {
                    layers: 2 + (seed % 3) as usize,
                },
                1 => Topology::Chains {
                    chains: 2 + (seed % 2) as usize,
                },
                _ => Topology::Random,
            },
            ..GeneratorConfig::default()
        };
        let problem = generate(&cfg);

        // Witness schedule: no deadline, guard irrelevant.
        let mut witness = problem.clone();
        let Ok(outcome) = PowerAwareScheduler::new(SchedulerConfig {
            lint_guard: false,
            ..SchedulerConfig::default()
        })
        .schedule(&mut witness) else {
            continue; // power-tight corner the generator dialed up
        };
        scheduled += 1;
        let finish = outcome.schedule.finish_time(problem.graph());

        // The witness proves the deadline `finish` is feasible, so
        // the deep passes must not reject it.
        let mut at_witness = problem.clone();
        at_witness.set_deadline(Some(finish));
        let report = lint(&at_witness);
        assert_eq!(
            report.error_count(),
            0,
            "seed {seed}: false positive at the witnessed deadline {finish}: {:?}",
            report
                .diagnostics()
                .iter()
                .map(|d| d.code.as_str())
                .collect::<Vec<_>>()
        );

        // Certified-rejection direction, where a deadline sabotage
        // applies.
        let mut broken = problem.clone();
        let packed = if can_pack_resource(&broken) {
            packed_resource_deadline(&mut broken, seed);
            true
        } else if can_energy_starve(&broken) {
            energy_starved_deadline(&mut broken, seed);
            false
        } else {
            continue;
        };
        let report = lint(&broken);
        let deep: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| {
                matches!(
                    d.code,
                    LintCode::EnergyInfeasibleWindow
                        | LintCode::DemandOverCapacity
                        | LintCode::TightenedDeadlineMiss
                )
            })
            .collect();
        assert!(
            !deep.is_empty(),
            "seed {seed}: deadline sabotage escaped the deep passes"
        );
        for d in &deep {
            let cert = d
                .certificate
                .as_ref()
                .unwrap_or_else(|| panic!("seed {seed}: {} without certificate", d.code));
            verify_certificate(&broken, cert)
                .unwrap_or_else(|e| panic!("seed {seed}: {} certificate rejected: {e}", d.code));
        }
        certified += 1;

        // Guard on: early reject, no search.
        let guarded = PowerAwareScheduler::default().schedule(&mut broken.clone());
        assert!(
            matches!(guarded, Err(ScheduleError::LintRejected { .. })),
            "seed {seed}: guard did not early-reject the deadline sabotage"
        );

        // Packing only rewrites the deadline, so the original witness
        // schedule is still constraint-valid — it just lands late.
        // The scheduler (deadline-blind) therefore still succeeds,
        // past the deadline only deep lint enforces.
        if packed {
            let deadline = broken.deadline().expect("sabotage declared one");
            assert!(
                finish > deadline,
                "seed {seed}: witness finish {finish} within sabotaged deadline {deadline}"
            );
        }
    }
    assert!(
        scheduled >= 200,
        "only {scheduled}/256 instances scheduled — sweep lost its teeth"
    );
    assert!(
        certified >= 64,
        "only {certified}/256 instances produced certified deep rejections"
    );
}

/// The parent computation of the path-based checks, kept as an oracle:
/// one full `single_source_longest_paths` row per source, then the
/// `PAS011` edges in edge-id order and the `PAS030`/`PAS020` pairs in
/// ascending pair order, rendered as the lint renders them. A problem
/// with a positive cycle gets `PAS010` instead, and none of these.
fn path_check_oracle(problem: &impacct::core::Problem) -> [Vec<String>; 3] {
    use impacct::graph::longest_path::single_source_longest_paths;
    use impacct::graph::units::TimeSpan;
    use impacct::graph::{EdgeKind, NodeId};

    let g = problem.graph();
    if single_source_longest_paths(g, NodeId::ANCHOR).is_err() {
        return Default::default();
    }
    let label = |n: NodeId| match n.task() {
        Some(t) => format!("\"{}\"", g.task(t).name()),
        None => "anchor".to_string(),
    };
    let signed = |s: TimeSpan| {
        if s >= TimeSpan::ZERO {
            format!("+{s}")
        } else {
            s.to_string()
        }
    };
    let row = |n: NodeId| single_source_longest_paths(g, n).expect("cycle-free sweep problem");
    let rows: Vec<_> = g.task_ids().map(|t| row(t.node())).collect();

    let mut redundant = Vec::new();
    for (_, e) in g.edges() {
        let tag = match e.kind() {
            EdgeKind::MinSeparation => "min",
            EdgeKind::MaxSeparation => "max",
            _ => continue,
        };
        if e.from() == e.to() {
            continue;
        }
        let dist = match e.from().task() {
            Some(t) => rows[t.index()].distance(e.to()),
            None => row(e.from()).distance(e.to()),
        };
        if let Some(dist) = dist.filter(|&d| d > e.weight()) {
            redundant.push(format!(
                "{tag} constraint {} -> {} (weight {}) is redundant: other constraints already force a separation of {}",
                label(e.from()),
                label(e.to()),
                signed(e.weight()),
                signed(dist),
            ));
        }
    }

    let (mut resource, mut power) = (Vec::new(), Vec::new());
    let p_max = problem.constraints().p_max();
    let tasks: Vec<_> = g.task_ids().collect();
    for (i, &u) in tasks.iter().enumerate() {
        for &v in &tasks[i + 1..] {
            let forced = match (
                rows[u.index()].distance(v.node()),
                rows[v.index()].distance(u.node()),
            ) {
                (Some(lo), Some(rev)) => -rev < g.task(u).delay() && lo > -g.task(v).delay(),
                _ => false,
            };
            if !forced {
                continue;
            }
            let (nu, nv) = (label(u.node()), label(v.node()));
            if g.same_resource(u, v) {
                let r = g.resource(g.task(u).resource()).name();
                resource.push(format!(
                    "tasks {nu} and {nv} share resource \"{r}\" but their separations force them to overlap"
                ));
                continue;
            }
            let (pu, pv) = (g.task(u).power(), g.task(v).power());
            let combined = pu
                .saturating_add(pv)
                .saturating_add(problem.background_power());
            if combined > p_max {
                power.push(format!(
                    "tasks {nu} ({pu}) and {nv} ({pv}) are forced to overlap by their separations, stacking {combined} against the {p_max} budget"
                ));
            }
        }
    }
    [redundant, resource, power]
}

/// The per-source pruned searches behind `PAS011`, `PAS030` and
/// `PAS020` name exactly the edges and pairs that full per-source
/// longest paths name, in the same order, on 60-task Random and
/// Layered problems with dense max windows, tight and loose: plain
/// (`PAS011`; tight windows force `PAS030` too), with a forced
/// same-resource overlap (`PAS030`, or `PAS010` when the sabotage
/// closes a positive cycle), and under a tight `P_max` (`PAS020`).
#[test]
fn path_checks_match_full_per_source_longest_paths() {
    use impacct::workload::{GeneratorConfig, Topology};

    let codes = [
        LintCode::RedundantEdge,
        LintCode::ForcedResourceOverlap,
        LintCode::ForcedOverlapPower,
    ];
    let mut fired = [0usize; 3];
    for seed in 0..16u64 {
        for topology in [Topology::Random, Topology::Layered { layers: 6 }] {
            for variant in 0..3 {
                let mut problem = generate(&GeneratorConfig {
                    seed: 0x5EA_2C4 + seed,
                    tasks: 60,
                    resources: 8,
                    topology,
                    max_window_probability: 0.5,
                    window_margin: if seed % 2 == 0 { 0.5 } else { 4.0 },
                    p_max_factor: if variant == 2 { 0.5 } else { 1.8 },
                    ..GeneratorConfig::default()
                });
                if variant == 1 {
                    sabotage(&mut problem, Sabotage::ForcedResourceOverlap, seed);
                }
                let report = lint(&problem);
                let expected = path_check_oracle(&problem);
                for (k, code) in codes.into_iter().enumerate() {
                    let got: Vec<&str> = report.by_code(code).map(|d| d.message.as_str()).collect();
                    assert_eq!(
                        got, expected[k],
                        "seed {seed}, {topology:?}, variant {variant}: {code} differs"
                    );
                    fired[k] += got.len();
                }
            }
        }
    }
    for (code, n) in codes.into_iter().zip(fired) {
        assert!(
            n >= 10,
            "{code} fired only {n} times: the sweep lost its teeth"
        );
    }
}

/// `PAS010` names the same contradiction on every run: with several
/// independent min/max contradictions, the witness is the one with the
/// smallest node pair, whatever order the edges were added in.
#[test]
fn positive_cycle_witness_is_the_same_every_time() {
    use impacct::core::{PowerConstraints, Problem};
    use impacct::graph::units::{Power, TimeSpan};
    use impacct::graph::{ConstraintGraph, Resource, ResourceKind, Task};

    let mut g = ConstraintGraph::new();
    let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
    let ids: Vec<_> = ["a", "b", "c", "d", "e", "f", "g", "h"]
        .into_iter()
        .map(|name| g.add_task(Task::new(name, r, TimeSpan::from_secs(1), Power::ZERO)))
        .collect();
    // Four independent contradictions, the smallest pair added last.
    for pair in ids.chunks(2).rev() {
        g.min_separation(pair[0], pair[1], TimeSpan::from_secs(10));
        g.max_separation(pair[0], pair[1], TimeSpan::from_secs(4));
    }
    let problem = Problem::new("contradictions", g, PowerConstraints::unconstrained());
    let witness = |p: &Problem| {
        let report = lint(p);
        let found: Vec<String> = report
            .by_code(LintCode::PositiveCycle)
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(found.len(), 1, "{found:?}");
        found.into_iter().next().unwrap()
    };
    let first = witness(&problem);
    assert!(
        first.contains("\"a\" -(min +10s)-> \"b\" -(max -4s)-> \"a\""),
        "{first}"
    );
    for _ in 0..12 {
        assert_eq!(witness(&problem), first);
    }
}

/// Span-less `PAS011` warnings come out in edge-id order, so linting
/// the same problem twice in one process gives the same sequence.
#[test]
fn redundant_edge_order_repeats_within_one_process() {
    use impacct::core::{PowerConstraints, Problem};
    use impacct::graph::units::{Power, TimeSpan};
    use impacct::graph::{ConstraintGraph, Resource, ResourceKind, Task};

    let mut g = ConstraintGraph::new();
    let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
    let t: Vec<_> = (0..8)
        .map(|i| {
            g.add_task(Task::new(
                format!("t{i}"),
                r,
                TimeSpan::from_secs(2),
                Power::ZERO,
            ))
        })
        .collect();
    for w in t.windows(2) {
        g.precedence(w[0], w[1]);
    }
    // Dominated separations from six different sources, added out of
    // source order.
    let dominated = [(5, 7), (0, 2), (3, 6), (1, 4), (4, 6), (2, 5)];
    for &(u, v) in &dominated {
        g.min_separation(t[u], t[v], TimeSpan::from_secs(1));
    }
    let problem = Problem::new("redundant", g, PowerConstraints::unconstrained());
    let messages = || -> Vec<String> {
        lint(&problem)
            .by_code(LintCode::RedundantEdge)
            .map(|d| d.message.clone())
            .collect()
    };
    let first = messages();
    assert_eq!(first.len(), dominated.len(), "{first:?}");
    for (m, &(u, v)) in first.iter().zip(&dominated) {
        assert!(
            m.starts_with(&format!("min constraint \"t{u}\" -> \"t{v}\" (weight +1s)")),
            "{m}"
        );
    }
    assert_eq!(messages(), first);
}
