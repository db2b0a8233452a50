//! # pas-lint — static analysis for power-aware scheduling problems
//!
//! A rustc-style diagnostics engine plus a battery of static passes
//! over [`Problem`](pas_core::Problem)/constraint graphs that prove
//! many specs broken *before* the exponential schedulers run:
//!
//! * **structural sanity** — `PAS001` task over budget, `PAS002`
//!   self-loops, `PAS003` duplicate edges, `PAS004` dangling
//!   resources, `PAS005` background over budget, `PAS006`
//!   non-positive delays;
//! * **timing analysis** — `PAS010` positive cycles with a minimal
//!   witness rendered as a constraint chain, `PAS011` redundant
//!   (path-dominated) separations, `PAS012` deadline vs. critical
//!   path;
//! * **power analysis** — `PAS020` forced-overlap pairs whose summed
//!   draw busts `P_max`, `PAS021` ASAP/ALAP mandatory-interval
//!   profile bound under a deadline, `PAS022` static upper bound on
//!   the min-power utilization `ρ_σ(P_min)`;
//! * **resource analysis** — `PAS030` same-resource pairs forced to
//!   overlap;
//! * **deep abstract interpretation** — joint ASAP/ALAP interval
//!   windows with per-window energy/demand envelopes: `PAS040`
//!   energy-infeasible windows, `PAS041` demand-over-capacity
//!   interval packing, `PAS042` bound-tightened deadline misses.
//!   Every `PAS04x` diagnostic carries a machine-checkable
//!   [`Certificate`] validated by the independent zero-trust
//!   [`verify_certificate`] checker before emission, and the same
//!   analysis exports [`LintBounds`] that `pas-sched`'s exact B&B
//!   reuses as admissible pruning bounds.
//!
//! Error-level findings of every non-deadline code are *proofs* that
//! the scheduling pipeline must fail (see
//! [`LintCode::implies_scheduler_failure`]), which is what licenses
//! `pas-sched`'s early-reject guard stage.
//!
//! Diagnostics carry byte [`Span`]s resolved through a [`SpanTable`]
//! that `pas-spec`'s parser populates, so findings point at the
//! offending spec statements; problems built programmatically lint
//! identically, just without source excerpts.
//!
//! ## Example
//!
//! ```
//! use pas_core::{Problem, PowerConstraints};
//! use pas_graph::units::{Power, TimeSpan};
//! use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
//! use pas_lint::{lint, LintCode};
//!
//! let mut g = ConstraintGraph::new();
//! let cpu = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
//! g.add_task(Task::new("burn", cpu, TimeSpan::from_secs(5), Power::from_watts(30)));
//! let p = Problem::new("demo", g, PowerConstraints::max_only(Power::from_watts(16)));
//!
//! let report = lint(&p);
//! assert!(report.has_errors());
//! assert_eq!(report.by_code(LintCode::TaskOverBudget).count(), 1);
//! assert!(report.proves_scheduler_failure());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod certificate;
mod diag;
mod explain;
mod fixit;
mod passes;
mod render;
mod span;

pub use bounds::{lint_bounds, LintBounds, WindowDemand};
pub use certificate::{
    verify_certificate, Certificate, CertificateError, MakespanBound, StartClaim, WindowClaim,
};
pub use diag::{Applicability, Diagnostic, Fix, LabeledSpan, LintCode, LintReport, Severity};
pub use explain::explain;
pub use fixit::{apply_fixes, FixOutcome};
pub use passes::{lint, lint_problem};
pub use render::{render_human, render_json, SourceFile};
pub use span::{Span, SpanTable};

#[cfg(test)]
mod crate_tests {
    use super::*;
    use pas_core::{PowerConstraints, Problem};
    use pas_graph::units::{Power, Time, TimeSpan};
    use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task, TaskId};

    fn two_task_graph(same_resource: bool) -> (ConstraintGraph, TaskId, TaskId) {
        let mut g = ConstraintGraph::new();
        let r0 = g.add_resource(Resource::new("A", ResourceKind::Compute));
        let r1 = if same_resource {
            r0
        } else {
            g.add_resource(Resource::new("B", ResourceKind::Other))
        };
        let a = g.add_task(Task::new(
            "a",
            r0,
            TimeSpan::from_secs(5),
            Power::from_watts(4),
        ));
        let b = g.add_task(Task::new(
            "b",
            r1,
            TimeSpan::from_secs(5),
            Power::from_watts(4),
        ));
        (g, a, b)
    }

    fn unconstrained(g: ConstraintGraph) -> Problem {
        Problem::new("t", g, PowerConstraints::unconstrained())
    }

    #[test]
    fn clean_problem_is_clean() {
        let (mut g, a, b) = two_task_graph(false);
        g.precedence(a, b);
        let report = lint(&unconstrained(g));
        assert!(!report.has_errors(), "{report:?}");
        assert!(report.is_empty(), "{report:?}");
    }

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Diagnostic>();
        assert_send_sync::<LintReport>();
        assert_send_sync::<SpanTable>();
    }

    #[test]
    fn positive_cycle_gets_minimal_witness() {
        let (mut g, a, b) = two_task_graph(false);
        g.min_separation(a, b, TimeSpan::from_secs(10));
        g.max_separation(a, b, TimeSpan::from_secs(4)); // window [10, 4]: impossible
        let report = lint(&unconstrained(g));
        let d: Vec<_> = report.by_code(LintCode::PositiveCycle).collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("\"a\""), "{}", d[0].message);
        assert!(d[0].message.contains("\"b\""), "{}", d[0].message);
        assert!(d[0].message.contains("min"), "{}", d[0].message);
        assert!(report.proves_timing_failure());
    }

    #[test]
    fn forced_same_resource_overlap_detected() {
        let (mut g, a, b) = two_task_graph(true);
        // x = σb − σa confined to [0, 4] while overlap band is (−5, 5).
        g.min_separation(a, b, TimeSpan::ZERO);
        g.max_separation(a, b, TimeSpan::from_secs(4));
        let report = lint(&unconstrained(g));
        assert_eq!(report.by_code(LintCode::ForcedResourceOverlap).count(), 1);
        assert!(report.proves_timing_failure());
        // The identical window on different resources is fine power-wise
        // (p_max unconstrained): no error.
        let (mut g2, a2, b2) = two_task_graph(false);
        g2.min_separation(a2, b2, TimeSpan::ZERO);
        g2.max_separation(a2, b2, TimeSpan::from_secs(4));
        assert!(!lint(&unconstrained(g2)).has_errors());
    }

    #[test]
    fn forced_overlap_power_detected_across_resources() {
        let (mut g, a, b) = two_task_graph(false);
        g.min_separation(a, b, TimeSpan::ZERO);
        g.max_separation(a, b, TimeSpan::from_secs(4));
        // 4 W + 4 W against a 7 W budget: forced spike.
        let p = Problem::new("t", g, PowerConstraints::max_only(Power::from_watts(7)));
        let report = lint(&p);
        assert_eq!(report.by_code(LintCode::ForcedOverlapPower).count(), 1);
        assert!(report.proves_scheduler_failure());
        assert!(!report.proves_timing_failure());
    }

    #[test]
    fn slack_window_is_not_forced_overlap() {
        let (mut g, a, b) = two_task_graph(true);
        // Window [0, 8] allows x = 5 ≥ d(a): serializable.
        g.min_separation(a, b, TimeSpan::ZERO);
        g.max_separation(a, b, TimeSpan::from_secs(8));
        assert!(!lint(&unconstrained(g)).has_errors());
    }

    #[test]
    fn deadline_precheck_fires_only_when_unreachable() {
        let (mut g, a, b) = two_task_graph(false);
        g.precedence(a, b); // critical path 10 s
        let p = unconstrained(g).with_deadline(Time::from_secs(8));
        let report = lint(&p);
        let d: Vec<_> = report.by_code(LintCode::DeadlineUnreachable).collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("10s"), "{}", d[0].message);
        assert!(!report.proves_scheduler_failure());

        let (mut g, a, b) = two_task_graph(false);
        g.precedence(a, b);
        let p = unconstrained(g).with_deadline(Time::from_secs(10));
        assert!(!lint(&p).has_errors());
    }

    #[test]
    fn window_overload_under_deadline() {
        let (g, _, _) = two_task_graph(false);
        // Deadline equal to a single delay: both tasks are mandatory
        // over [0, 5), drawing 8 W against 7 W.
        let p = Problem::new("t", g, PowerConstraints::max_only(Power::from_watts(7)))
            .with_deadline(Time::from_secs(5));
        let report = lint(&p);
        assert_eq!(report.by_code(LintCode::WindowOverload).count(), 1);
        // With a relaxed deadline the windows decouple.
        let (g, _, _) = two_task_graph(false);
        let p = Problem::new("t", g, PowerConstraints::max_only(Power::from_watts(7)))
            .with_deadline(Time::from_secs(10));
        assert!(!lint(&p).has_errors());
    }

    #[test]
    fn hopeless_pmin_warns() {
        let (g, _, _) = two_task_graph(true);
        // Two 5 s / 4 W tasks vs pmin 20 W: bound 40 %.
        let p = Problem::new(
            "t",
            g,
            PowerConstraints::new(Power::from_watts(20), Power::from_watts(20)),
        );
        let report = lint(&p);
        assert_eq!(report.by_code(LintCode::HopelessUtilization).count(), 1);
        assert!(!report.has_errors());
    }

    #[test]
    fn structural_findings() {
        let mut g = ConstraintGraph::new();
        let cpu = g.add_resource(Resource::new("cpu", ResourceKind::Compute));
        let idle = g.add_resource(Resource::new("idle", ResourceKind::Other));
        let _ = idle;
        let a = g.add_task(Task::new(
            "a",
            cpu,
            TimeSpan::from_secs(3),
            Power::from_watts(2),
        ));
        let b = g.add_task(Task::new(
            "b",
            cpu,
            TimeSpan::from_secs(3),
            Power::from_watts(2),
        ));
        g.min_separation(a, b, TimeSpan::from_secs(3));
        g.min_separation(a, b, TimeSpan::from_secs(3)); // duplicate
        let report = lint(&unconstrained(g));
        assert_eq!(report.by_code(LintCode::DuplicateEdge).count(), 1);
        assert_eq!(report.by_code(LintCode::DanglingResource).count(), 1);
        assert!(!report.has_errors());
    }

    #[test]
    fn background_over_budget_is_fatal() {
        let (g, _, _) = two_task_graph(false);
        let p = Problem::with_background(
            "t",
            g,
            PowerConstraints::max_only(Power::from_watts(5)),
            Power::from_watts(4),
        );
        // 4 W background + 4 W task > 5 W: PAS001 on both tasks.
        let report = lint(&p);
        assert_eq!(report.by_code(LintCode::TaskOverBudget).count(), 2);
        let p2 = Problem::with_background(
            "t",
            two_task_graph(false).0,
            PowerConstraints::max_only(Power::from_watts(3)),
            Power::from_watts(4),
        );
        assert_eq!(lint(&p2).by_code(LintCode::BackgroundOverBudget).count(), 1);
    }

    #[test]
    fn redundant_edge_warns() {
        let (mut g, a, b) = two_task_graph(false);
        g.precedence(a, b); // forces 5 s
        g.min_separation(a, b, TimeSpan::from_secs(2)); // dominated
        let report = lint(&unconstrained(g));
        assert_eq!(report.by_code(LintCode::RedundantEdge).count(), 1);
        assert!(!report.has_errors());
    }
}
