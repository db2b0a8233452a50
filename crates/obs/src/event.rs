//! The trace-event vocabulary: one variant per algorithmic decision in
//! the scheduling pipeline, plus a dependency-free JSONL codec.
//!
//! Events are deliberately *value-typed* — no references into the
//! constraint graph — so a recorded stream stays valid after the graph
//! is mutated, can be shipped across threads, and round-trips through
//! the line-oriented JSON encoding ([`TraceEvent::to_json`] /
//! [`TraceEvent::from_json`]) without loss.
//!
//! Encoding conventions (kept stable for external tooling):
//!
//! * every event is one flat JSON object on one line;
//! * the discriminant is the `"event"` key, spelled exactly like the
//!   variant name;
//! * tasks are raw arena indices (`TaskId::index`), times and spans
//!   are integer seconds, powers are integer milliwatts;
//! * exact rationals ([`Ratio`]) are `"num/den"` strings so no
//!   precision is lost.

use std::fmt;

use pas_core::Ratio;
use pas_graph::units::{Energy, Power, Time, TimeSpan};
use pas_graph::TaskId;

/// Pipeline stage (or runtime phase) a trace span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// Stage 0 — static lint guard (pas-lint): rejects provably
    /// broken problems before any search runs.
    Lint,
    /// Stage 1 — timing scheduler (paper Fig. 3): backtracking search
    /// over resource serializations.
    Timing,
    /// Stage 2 — max-power spike elimination (paper Fig. 4).
    MaxPower,
    /// Stage 3 — min-power gap filling (paper Fig. 6).
    MinPower,
    /// Runtime dispatch of a finished schedule (pas-exec).
    Dispatch,
}

impl StageKind {
    /// All stages in pipeline order.
    pub const ALL: [StageKind; 5] = [
        StageKind::Lint,
        StageKind::Timing,
        StageKind::MaxPower,
        StageKind::MinPower,
        StageKind::Dispatch,
    ];

    /// Stable wire name (`"lint"`, `"timing"`, `"max-power"`, …).
    pub const fn as_str(self) -> &'static str {
        match self {
            StageKind::Lint => "lint",
            StageKind::Timing => "timing",
            StageKind::MaxPower => "max-power",
            StageKind::MinPower => "min-power",
            StageKind::Dispatch => "dispatch",
        }
    }

    /// Dense index into [`StageKind::ALL`].
    pub const fn index(self) -> usize {
        match self {
            StageKind::Lint => 0,
            StageKind::Timing => 1,
            StageKind::MaxPower => 2,
            StageKind::MinPower => 3,
            StageKind::Dispatch => 4,
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "lint" => StageKind::Lint,
            "timing" => StageKind::Timing,
            "max-power" => StageKind::MaxPower,
            "min-power" => StageKind::MinPower,
            "dispatch" => StageKind::Dispatch,
            _ => return None,
        })
    }
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Direction a min-power gap scan walks the schedule in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanKind {
    /// Earliest gap first.
    Forward,
    /// Latest gap first.
    Reverse,
    /// Randomised order.
    Random,
}

impl ScanKind {
    /// Stable wire name.
    pub const fn as_str(self) -> &'static str {
        match self {
            ScanKind::Forward => "forward",
            ScanKind::Reverse => "reverse",
            ScanKind::Random => "random",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "forward" => ScanKind::Forward,
            "reverse" => ScanKind::Reverse,
            "random" => ScanKind::Random,
            _ => return None,
        })
    }
}

impl fmt::Display for ScanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a min-power move places the task inside the gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// Task starts exactly at the gap start.
    StartAtGap,
    /// Task finishes exactly at the gap end.
    FinishAtGapEnd,
    /// Randomised placement within the gap.
    Random,
}

impl SlotKind {
    /// Stable wire name.
    pub const fn as_str(self) -> &'static str {
        match self {
            SlotKind::StartAtGap => "start-at-gap",
            SlotKind::FinishAtGapEnd => "finish-at-gap-end",
            SlotKind::Random => "random",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "start-at-gap" => SlotKind::StartAtGap,
            "finish-at-gap-end" => SlotKind::FinishAtGapEnd,
            "random" => SlotKind::Random,
            _ => return None,
        })
    }
}

impl fmt::Display for SlotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What pins a task's committed start time — the payload of
/// [`TraceEvent::TaskBound`].
///
/// A schedule assigns every task the largest lower bound among its
/// in-edges (`σ(v) ≥ σ(u) + w`), unless a power-stage decision holds
/// it even later. The binding records which case applied, giving
/// `explain` its causal chain without re-running the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// An anchor edge is tight: the task sits at its release/lock
    /// offset from `t = 0` and no task-to-task constraint pins it.
    Anchor,
    /// A task-to-task constraint edge is tight:
    /// `start == start(pred) + weight`.
    Edge {
        /// The binding predecessor task.
        pred: TaskId,
        /// Edge-kind wire name (fixed vocabulary: `"min"`, `"max"`,
        /// `"serialize"`).
        kind: String,
        /// The tight edge's weight (negative for max windows).
        weight: TimeSpan,
    },
    /// The task sits strictly above every timing bound: a power-stage
    /// decision (max-power compaction or a min-power gap move) holds
    /// it there.
    Power,
}

/// One algorithmic decision somewhere in the scheduling pipeline.
///
/// Variants map one-to-one onto the decision points of the three
/// paper algorithms plus the runtime dispatcher; see the crate docs
/// for the full vocabulary table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A pipeline stage began.
    StageStarted {
        /// Which stage.
        stage: StageKind,
    },
    /// A pipeline stage finished (successfully or not).
    StageFinished {
        /// Which stage.
        stage: StageKind,
    },
    /// The lint guard began analyzing a problem.
    LintStarted {
        /// Number of tasks in the problem.
        tasks: u64,
        /// Number of constraint edges in the problem.
        edges: u64,
    },
    /// The lint guard produced one finding.
    LintFinding {
        /// The stable `PASnnn` code (fixed vocabulary, escape-free).
        code: String,
        /// `"error"` or `"warning"`.
        severity: String,
    },
    /// The lint guard finished with a verdict.
    LintVerdict {
        /// Error-level findings.
        errors: u64,
        /// Warning-level findings.
        warnings: u64,
        /// `true` when the pipeline rejected the problem.
        rejected: bool,
    },
    /// Timing scheduler committed a task onto its resource.
    TaskCommitted {
        /// The committed task.
        task: TaskId,
    },
    /// Timing scheduler undid a commitment and backtracked.
    TopoBacktrack {
        /// The task whose commitment was undone.
        task: TaskId,
    },
    /// Timing scheduler added a serialization edge between two tasks
    /// sharing a resource.
    SerializationAdded {
        /// Task committed to run first.
        committed: TaskId,
        /// Task forced to wait for `committed`.
        serialized: TaskId,
    },
    /// Max-power stage found a segment exceeding the power budget.
    SpikeDetected {
        /// Segment start time.
        t: Time,
        /// Aggregate power of the offending segment.
        power: Power,
        /// The maximum-power budget it violates.
        budget: Power,
    },
    /// Max-power stage delayed a victim task to dissolve a spike.
    VictimDelayed {
        /// The delayed task.
        task: TaskId,
        /// The victim's slack when chosen.
        slack: TimeSpan,
        /// How far it was pushed.
        delta: TimeSpan,
    },
    /// Max-power stage locked a zero-slack task at its start time
    /// before recursing.
    ZeroSlackLocked {
        /// The locked task.
        task: TaskId,
        /// The start time it is pinned to.
        at: Time,
    },
    /// Max-power stage recursed after a forced exit re-timing.
    PowerRecursion {
        /// Recursion depth reached (1 = first recursion).
        depth: u32,
    },
    /// Max-power stage restarted with a rotated configuration.
    RespinStarted {
        /// Respin attempt number (1-based).
        attempt: u32,
    },
    /// Min-power stage began one scan pass over the schedule.
    GapScanStarted {
        /// Pass number (1-based across the whole stage).
        pass: u32,
        /// Direction of the scan.
        order: ScanKind,
        /// Slot placement policy for the scan.
        slot: SlotKind,
    },
    /// Min-power stage finished one scan pass.
    GapScanFinished {
        /// Pass number matching the corresponding start event.
        pass: u32,
        /// Moves accepted during the pass.
        moves: u64,
    },
    /// Min-power stage found a gap below the power floor.
    GapFound {
        /// Gap instant considered.
        t: Time,
        /// Aggregate power at the gap.
        power: Power,
        /// The minimum-power floor it undershoots.
        floor: Power,
    },
    /// Min-power stage accepted a candidate move into a gap.
    MoveAccepted {
        /// The moved task.
        task: TaskId,
        /// Signed shift applied to its start time.
        delta: TimeSpan,
        /// Power utilization ρ before the move.
        rho_before: Ratio,
        /// Power utilization ρ after the move.
        rho_after: Ratio,
    },
    /// Min-power stage evaluated and rejected a candidate move.
    MoveRejected {
        /// The candidate task.
        task: TaskId,
        /// Signed shift that was evaluated.
        delta: TimeSpan,
        /// Power utilization ρ before the hypothetical move.
        rho_before: Ratio,
        /// Power utilization ρ the move would have produced.
        rho_after: Ratio,
    },
    /// The incremental engine served a longest-paths query straight
    /// from its cache (the constraint graph was unchanged).
    IncrementalCacheHit {
        /// The stage whose query was served.
        stage: StageKind,
    },
    /// The incremental engine brought its cache up to date by
    /// relaxing only the newly added constraint edges.
    IncrementalDelta {
        /// The stage whose query was served.
        stage: StageKind,
        /// Number of journal edges applied by the delta.
        edges: u64,
        /// Number of distance improvements performed.
        relaxations: u64,
    },
    /// The incremental engine fell back to a full recomputation.
    IncrementalFallback {
        /// The stage whose query was served.
        stage: StageKind,
        /// Why the delta path was not applicable (fixed vocabulary:
        /// `"init"`, `"resize"`, `"removal"`, `"cycle-suspect"`,
        /// `"budget"`).
        reason: String,
    },
    /// Runtime dispatcher released a task.
    TaskDispatched {
        /// The released task.
        task: TaskId,
        /// Static (planned) start time.
        planned: Time,
        /// Actual release time under jitter.
        actual: Time,
    },
    /// Runtime dispatcher observed a task completing.
    TaskCompleted {
        /// The finished task.
        task: TaskId,
        /// Actual completion time.
        at: Time,
    },
    /// Runtime dispatcher detected a violated max-separation window.
    WindowFaultDetected {
        /// Window source task.
        from: TaskId,
        /// Window sink task.
        to: TaskId,
        /// Maximum allowed separation.
        allowed: TimeSpan,
        /// Observed separation.
        actual: TimeSpan,
    },
    /// Provenance for one task of a stage's committed schedule: its
    /// final start time and the constraint that pins it there. Emitted
    /// once per task after each stage outcome, so the last group in a
    /// trace describes the final schedule.
    TaskBound {
        /// The stage whose outcome this belongs to.
        stage: StageKind,
        /// The task.
        task: TaskId,
        /// Its committed start time.
        start: Time,
        /// What pins the start time.
        binding: Binding,
    },
    /// Committed metrics of a stage's outcome schedule, closing the
    /// stage's `TaskBound` group.
    OutcomeRecorded {
        /// The stage whose outcome this summarizes.
        stage: StageKind,
        /// Finish time τ of the schedule.
        tau: Time,
        /// Energy cost `Ec` (energy drawn above the free/background
        /// supply).
        energy_cost: Energy,
        /// Min-power utilization ρ.
        utilization: Ratio,
        /// Peak aggregate power.
        peak: Power,
    },
    /// A parallel worker's stitched trace segment begins. Emitted by
    /// the trace stitcher when per-worker buffers are merged into one
    /// causally-ordered stream; the id is the worker's *deterministic*
    /// unit-of-work index (portfolio attempt, B&B frontier branch),
    /// never an OS thread id, so stitched traces are identical across
    /// thread counts.
    WorkerStarted {
        /// Deterministic worker id.
        worker: u32,
    },
    /// A parallel worker's stitched trace segment ends, closing the
    /// matching [`TraceEvent::WorkerStarted`].
    WorkerFinished {
        /// Deterministic worker id.
        worker: u32,
    },
    /// Periodic search-telemetry sample, emitted every N expanded
    /// nodes by the exact B&B and the backtracking timing scheduler.
    /// Sampling is **node-count-triggered, never wall-clock**, so a
    /// trace with telemetry enabled is still bit-identical across
    /// thread counts (see DESIGN.md §13).
    SearchSample {
        /// Deterministic worker id (frontier branch / portfolio
        /// attempt), `0` for sequential searches.
        worker: u32,
        /// Nodes expanded by this worker when the sample fired.
        nodes: u64,
        /// Search depth at the sampling instant.
        depth: u32,
        /// Incumbent finish time in seconds, or `-1` while no
        /// incumbent exists yet.
        best: i64,
    },
    /// The search found a new incumbent (a strictly better complete
    /// solution), timestamped in *nodes expanded* — the deterministic
    /// clock of the search.
    IncumbentImproved {
        /// Deterministic worker id, `0` for sequential searches.
        worker: u32,
        /// Nodes expanded by this worker when the incumbent improved.
        nodes: u64,
        /// The new incumbent finish time.
        finish: Time,
    },
    /// End-of-search summary for one worker: nodes, prunes by reason,
    /// deepest level reached, and the node budget the worker was
    /// given (so budget utilization is `nodes / budget`).
    SearchStatsRecorded {
        /// Deterministic worker id, `0` for sequential searches.
        worker: u32,
        /// Total nodes expanded.
        nodes: u64,
        /// Subtrees cut because they could not beat the incumbent.
        pruned_incumbent: u64,
        /// Candidate placements skipped by the symmetry rule or
        /// rejected as infeasible.
        pruned_dominance: u64,
        /// Candidate start times past the optimality horizon.
        pruned_horizon: u64,
        /// Searches cut short by the node/backtrack budget (0 or 1
        /// for the B&B; backtracks consumed for the timing stage).
        pruned_budget: u64,
        /// Subtrees cut by lint-derived admissible bounds (completion
        /// tails / makespan lower-bound early stop); 0 when the
        /// search ran without lint bounds.
        pruned_bound: u64,
        /// Deepest search level reached.
        max_depth: u32,
        /// The node (or backtrack) budget this worker was given.
        budget: u64,
    },
    /// An event this build of the codec does not understand — a trace
    /// written by a newer binary. The raw line is preserved verbatim
    /// so re-encoding is lossless.
    Unknown {
        /// The wire name carried in the `"event"` field.
        name: String,
        /// The trimmed original JSON line.
        line: String,
    },
}

impl TraceEvent {
    /// The variant name, as spelled on the wire. For
    /// [`TraceEvent::Unknown`] this is the foreign name the line
    /// carried.
    pub fn name(&self) -> &str {
        match self {
            TraceEvent::StageStarted { .. } => "StageStarted",
            TraceEvent::StageFinished { .. } => "StageFinished",
            TraceEvent::LintStarted { .. } => "LintStarted",
            TraceEvent::LintFinding { .. } => "LintFinding",
            TraceEvent::LintVerdict { .. } => "LintVerdict",
            TraceEvent::TaskCommitted { .. } => "TaskCommitted",
            TraceEvent::TopoBacktrack { .. } => "TopoBacktrack",
            TraceEvent::SerializationAdded { .. } => "SerializationAdded",
            TraceEvent::SpikeDetected { .. } => "SpikeDetected",
            TraceEvent::VictimDelayed { .. } => "VictimDelayed",
            TraceEvent::ZeroSlackLocked { .. } => "ZeroSlackLocked",
            TraceEvent::PowerRecursion { .. } => "PowerRecursion",
            TraceEvent::RespinStarted { .. } => "RespinStarted",
            TraceEvent::GapScanStarted { .. } => "GapScanStarted",
            TraceEvent::GapScanFinished { .. } => "GapScanFinished",
            TraceEvent::GapFound { .. } => "GapFound",
            TraceEvent::MoveAccepted { .. } => "MoveAccepted",
            TraceEvent::MoveRejected { .. } => "MoveRejected",
            TraceEvent::IncrementalCacheHit { .. } => "IncrementalCacheHit",
            TraceEvent::IncrementalDelta { .. } => "IncrementalDelta",
            TraceEvent::IncrementalFallback { .. } => "IncrementalFallback",
            TraceEvent::TaskDispatched { .. } => "TaskDispatched",
            TraceEvent::TaskCompleted { .. } => "TaskCompleted",
            TraceEvent::WindowFaultDetected { .. } => "WindowFaultDetected",
            TraceEvent::TaskBound { .. } => "TaskBound",
            TraceEvent::OutcomeRecorded { .. } => "OutcomeRecorded",
            TraceEvent::WorkerStarted { .. } => "WorkerStarted",
            TraceEvent::WorkerFinished { .. } => "WorkerFinished",
            TraceEvent::SearchSample { .. } => "SearchSample",
            TraceEvent::IncumbentImproved { .. } => "IncumbentImproved",
            TraceEvent::SearchStatsRecorded { .. } => "SearchStatsRecorded",
            TraceEvent::Unknown { name, .. } => name,
        }
    }

    /// Serializes the event as one flat JSON object (no trailing
    /// newline). [`TraceEvent::Unknown`] returns its preserved
    /// original line, so re-encoding a replayed trace is lossless.
    pub fn to_json(&self) -> String {
        if let TraceEvent::Unknown { line, .. } = self {
            return line.clone();
        }
        let mut w = JsonObject::new(self.name());
        match self {
            TraceEvent::StageStarted { stage } | TraceEvent::StageFinished { stage } => {
                w.str_field("stage", stage.as_str());
            }
            TraceEvent::LintStarted { tasks, edges } => {
                w.int_field("tasks", *tasks as i128);
                w.int_field("edges", *edges as i128);
            }
            TraceEvent::LintFinding { code, severity } => {
                w.str_field("code", code);
                w.str_field("severity", severity);
            }
            TraceEvent::LintVerdict {
                errors,
                warnings,
                rejected,
            } => {
                w.int_field("errors", *errors as i128);
                w.int_field("warnings", *warnings as i128);
                w.int_field("rejected", *rejected as i128);
            }
            TraceEvent::TaskCommitted { task } | TraceEvent::TopoBacktrack { task } => {
                w.int_field("task", task.index() as i128);
            }
            TraceEvent::SerializationAdded {
                committed,
                serialized,
            } => {
                w.int_field("committed", committed.index() as i128);
                w.int_field("serialized", serialized.index() as i128);
            }
            TraceEvent::SpikeDetected { t, power, budget } => {
                w.int_field("t", t.as_secs() as i128);
                w.int_field("power", power.as_milliwatts() as i128);
                w.int_field("budget", budget.as_milliwatts() as i128);
            }
            TraceEvent::VictimDelayed { task, slack, delta } => {
                w.int_field("task", task.index() as i128);
                w.int_field("slack", slack.as_secs() as i128);
                w.int_field("delta", delta.as_secs() as i128);
            }
            TraceEvent::ZeroSlackLocked { task, at } => {
                w.int_field("task", task.index() as i128);
                w.int_field("at", at.as_secs() as i128);
            }
            TraceEvent::PowerRecursion { depth } => {
                w.int_field("depth", *depth as i128);
            }
            TraceEvent::RespinStarted { attempt } => {
                w.int_field("attempt", *attempt as i128);
            }
            TraceEvent::GapScanStarted { pass, order, slot } => {
                w.int_field("pass", *pass as i128);
                w.str_field("order", order.as_str());
                w.str_field("slot", slot.as_str());
            }
            TraceEvent::GapScanFinished { pass, moves } => {
                w.int_field("pass", *pass as i128);
                w.int_field("moves", *moves as i128);
            }
            TraceEvent::GapFound { t, power, floor } => {
                w.int_field("t", t.as_secs() as i128);
                w.int_field("power", power.as_milliwatts() as i128);
                w.int_field("floor", floor.as_milliwatts() as i128);
            }
            TraceEvent::MoveAccepted {
                task,
                delta,
                rho_before,
                rho_after,
            }
            | TraceEvent::MoveRejected {
                task,
                delta,
                rho_before,
                rho_after,
            } => {
                w.int_field("task", task.index() as i128);
                w.int_field("delta", delta.as_secs() as i128);
                w.ratio_field("rho_before", *rho_before);
                w.ratio_field("rho_after", *rho_after);
            }
            TraceEvent::IncrementalCacheHit { stage } => {
                w.str_field("stage", stage.as_str());
            }
            TraceEvent::IncrementalDelta {
                stage,
                edges,
                relaxations,
            } => {
                w.str_field("stage", stage.as_str());
                w.int_field("edges", *edges as i128);
                w.int_field("relaxations", *relaxations as i128);
            }
            TraceEvent::IncrementalFallback { stage, reason } => {
                w.str_field("stage", stage.as_str());
                w.str_field("reason", reason);
            }
            TraceEvent::TaskDispatched {
                task,
                planned,
                actual,
            } => {
                w.int_field("task", task.index() as i128);
                w.int_field("planned", planned.as_secs() as i128);
                w.int_field("actual", actual.as_secs() as i128);
            }
            TraceEvent::TaskCompleted { task, at } => {
                w.int_field("task", task.index() as i128);
                w.int_field("at", at.as_secs() as i128);
            }
            TraceEvent::WindowFaultDetected {
                from,
                to,
                allowed,
                actual,
            } => {
                w.int_field("from", from.index() as i128);
                w.int_field("to", to.index() as i128);
                w.int_field("allowed", allowed.as_secs() as i128);
                w.int_field("actual", actual.as_secs() as i128);
            }
            TraceEvent::TaskBound {
                stage,
                task,
                start,
                binding,
            } => {
                w.str_field("stage", stage.as_str());
                w.int_field("task", task.index() as i128);
                w.int_field("start", start.as_secs() as i128);
                match binding {
                    Binding::Anchor => w.str_field("via", "anchor"),
                    Binding::Power => w.str_field("via", "power"),
                    Binding::Edge { pred, kind, weight } => {
                        w.str_field("via", "edge");
                        w.int_field("pred", pred.index() as i128);
                        w.str_field("kind", kind);
                        w.int_field("weight", weight.as_secs() as i128);
                    }
                }
            }
            TraceEvent::OutcomeRecorded {
                stage,
                tau,
                energy_cost,
                utilization,
                peak,
            } => {
                w.str_field("stage", stage.as_str());
                w.int_field("tau", tau.as_secs() as i128);
                w.int_field("ec", energy_cost.as_millijoules() as i128);
                w.ratio_field("rho", *utilization);
                w.int_field("peak", peak.as_milliwatts() as i128);
            }
            TraceEvent::WorkerStarted { worker } | TraceEvent::WorkerFinished { worker } => {
                w.int_field("worker", *worker as i128);
            }
            TraceEvent::SearchSample {
                worker,
                nodes,
                depth,
                best,
            } => {
                w.int_field("worker", *worker as i128);
                w.int_field("nodes", *nodes as i128);
                w.int_field("depth", *depth as i128);
                w.int_field("best", *best as i128);
            }
            TraceEvent::IncumbentImproved {
                worker,
                nodes,
                finish,
            } => {
                w.int_field("worker", *worker as i128);
                w.int_field("nodes", *nodes as i128);
                w.int_field("finish", finish.as_secs() as i128);
            }
            TraceEvent::SearchStatsRecorded {
                worker,
                nodes,
                pruned_incumbent,
                pruned_dominance,
                pruned_horizon,
                pruned_budget,
                pruned_bound,
                max_depth,
                budget,
            } => {
                w.int_field("worker", *worker as i128);
                w.int_field("nodes", *nodes as i128);
                w.int_field("pruned_incumbent", *pruned_incumbent as i128);
                w.int_field("pruned_dominance", *pruned_dominance as i128);
                w.int_field("pruned_horizon", *pruned_horizon as i128);
                w.int_field("pruned_budget", *pruned_budget as i128);
                w.int_field("pruned_bound", *pruned_bound as i128);
                w.int_field("max_depth", *max_depth as i128);
                w.int_field("budget", *budget as i128);
            }
            TraceEvent::Unknown { .. } => unreachable!("handled above"),
        }
        w.finish()
    }

    /// Parses one JSON line produced by [`TraceEvent::to_json`].
    ///
    /// Forward compatibility: a structurally valid line that this
    /// build cannot interpret exactly — an unknown event name,
    /// missing/extra fields, or unknown vocabulary strings written by
    /// a newer binary — parses as a lossless [`TraceEvent::Unknown`]
    /// instead of an error, so old binaries can replay newer traces.
    /// Only malformed JSON (or a line without the `"event"`
    /// discriminant) is rejected.
    pub fn from_json(line: &str) -> Result<Self, TraceParseError> {
        let fields = parse_flat_object(line)?;
        let ctx = Fields::new(&fields);
        let name = ctx.str("event")?;
        match Self::parse_known(name, &ctx) {
            Ok(event) if event.field_keys_match(&fields) => Ok(event),
            _ => Ok(TraceEvent::Unknown {
                name: name.to_string(),
                line: line.trim().to_string(),
            }),
        }
    }

    /// Parses a known variant from its decoded fields. Any mismatch
    /// (including an unrecognized `name`) is an error; `from_json`
    /// degrades those to [`TraceEvent::Unknown`].
    fn parse_known(name: &str, ctx: &Fields<'_>) -> Result<Self, TraceParseError> {
        let event = match name {
            "StageStarted" => TraceEvent::StageStarted {
                stage: ctx.stage("stage")?,
            },
            "StageFinished" => TraceEvent::StageFinished {
                stage: ctx.stage("stage")?,
            },
            "LintStarted" => TraceEvent::LintStarted {
                tasks: ctx.u64("tasks")?,
                edges: ctx.u64("edges")?,
            },
            "LintFinding" => TraceEvent::LintFinding {
                code: ctx.str("code")?.to_string(),
                severity: ctx.str("severity")?.to_string(),
            },
            "LintVerdict" => TraceEvent::LintVerdict {
                errors: ctx.u64("errors")?,
                warnings: ctx.u64("warnings")?,
                rejected: ctx.u64("rejected")? != 0,
            },
            "TaskCommitted" => TraceEvent::TaskCommitted {
                task: ctx.task("task")?,
            },
            "TopoBacktrack" => TraceEvent::TopoBacktrack {
                task: ctx.task("task")?,
            },
            "SerializationAdded" => TraceEvent::SerializationAdded {
                committed: ctx.task("committed")?,
                serialized: ctx.task("serialized")?,
            },
            "SpikeDetected" => TraceEvent::SpikeDetected {
                t: ctx.time("t")?,
                power: ctx.power("power")?,
                budget: ctx.power("budget")?,
            },
            "VictimDelayed" => TraceEvent::VictimDelayed {
                task: ctx.task("task")?,
                slack: ctx.span("slack")?,
                delta: ctx.span("delta")?,
            },
            "ZeroSlackLocked" => TraceEvent::ZeroSlackLocked {
                task: ctx.task("task")?,
                at: ctx.time("at")?,
            },
            "PowerRecursion" => TraceEvent::PowerRecursion {
                depth: ctx.u32("depth")?,
            },
            "RespinStarted" => TraceEvent::RespinStarted {
                attempt: ctx.u32("attempt")?,
            },
            "GapScanStarted" => TraceEvent::GapScanStarted {
                pass: ctx.u32("pass")?,
                order: ctx.scan("order")?,
                slot: ctx.slot("slot")?,
            },
            "GapScanFinished" => TraceEvent::GapScanFinished {
                pass: ctx.u32("pass")?,
                moves: ctx.u64("moves")?,
            },
            "GapFound" => TraceEvent::GapFound {
                t: ctx.time("t")?,
                power: ctx.power("power")?,
                floor: ctx.power("floor")?,
            },
            "MoveAccepted" => TraceEvent::MoveAccepted {
                task: ctx.task("task")?,
                delta: ctx.span("delta")?,
                rho_before: ctx.ratio("rho_before")?,
                rho_after: ctx.ratio("rho_after")?,
            },
            "MoveRejected" => TraceEvent::MoveRejected {
                task: ctx.task("task")?,
                delta: ctx.span("delta")?,
                rho_before: ctx.ratio("rho_before")?,
                rho_after: ctx.ratio("rho_after")?,
            },
            "IncrementalCacheHit" => TraceEvent::IncrementalCacheHit {
                stage: ctx.stage("stage")?,
            },
            "IncrementalDelta" => TraceEvent::IncrementalDelta {
                stage: ctx.stage("stage")?,
                edges: ctx.u64("edges")?,
                relaxations: ctx.u64("relaxations")?,
            },
            "IncrementalFallback" => TraceEvent::IncrementalFallback {
                stage: ctx.stage("stage")?,
                reason: ctx.str("reason")?.to_string(),
            },
            "TaskDispatched" => TraceEvent::TaskDispatched {
                task: ctx.task("task")?,
                planned: ctx.time("planned")?,
                actual: ctx.time("actual")?,
            },
            "TaskCompleted" => TraceEvent::TaskCompleted {
                task: ctx.task("task")?,
                at: ctx.time("at")?,
            },
            "WindowFaultDetected" => TraceEvent::WindowFaultDetected {
                from: ctx.task("from")?,
                to: ctx.task("to")?,
                allowed: ctx.span("allowed")?,
                actual: ctx.span("actual")?,
            },
            "TaskBound" => TraceEvent::TaskBound {
                stage: ctx.stage("stage")?,
                task: ctx.task("task")?,
                start: ctx.time("start")?,
                binding: match ctx.str("via")? {
                    "anchor" => Binding::Anchor,
                    "power" => Binding::Power,
                    "edge" => Binding::Edge {
                        pred: ctx.task("pred")?,
                        kind: ctx.str("kind")?.to_string(),
                        weight: ctx.span("weight")?,
                    },
                    other => {
                        return Err(TraceParseError::new(format!(
                            "field \"via\" has unknown binding {other:?}"
                        )))
                    }
                },
            },
            "OutcomeRecorded" => TraceEvent::OutcomeRecorded {
                stage: ctx.stage("stage")?,
                tau: ctx.time("tau")?,
                energy_cost: ctx.energy("ec")?,
                utilization: ctx.ratio("rho")?,
                peak: ctx.power("peak")?,
            },
            "WorkerStarted" => TraceEvent::WorkerStarted {
                worker: ctx.u32("worker")?,
            },
            "WorkerFinished" => TraceEvent::WorkerFinished {
                worker: ctx.u32("worker")?,
            },
            "SearchSample" => TraceEvent::SearchSample {
                worker: ctx.u32("worker")?,
                nodes: ctx.u64("nodes")?,
                depth: ctx.u32("depth")?,
                best: ctx.i64("best")?,
            },
            "IncumbentImproved" => TraceEvent::IncumbentImproved {
                worker: ctx.u32("worker")?,
                nodes: ctx.u64("nodes")?,
                finish: ctx.time("finish")?,
            },
            "SearchStatsRecorded" => TraceEvent::SearchStatsRecorded {
                worker: ctx.u32("worker")?,
                nodes: ctx.u64("nodes")?,
                pruned_incumbent: ctx.u64("pruned_incumbent")?,
                pruned_dominance: ctx.u64("pruned_dominance")?,
                pruned_horizon: ctx.u64("pruned_horizon")?,
                pruned_budget: ctx.u64("pruned_budget")?,
                pruned_bound: ctx.u64("pruned_bound")?,
                max_depth: ctx.u32("max_depth")?,
                budget: ctx.u64("budget")?,
            },
            other => {
                return Err(TraceParseError::new(format!(
                    "unknown event name {other:?}"
                )))
            }
        };
        Ok(event)
    }

    /// Whether the decoded input carried exactly the fields this
    /// event's canonical encoding has — catches extra (newer-writer)
    /// fields that `parse_known`'s by-name lookups would silently
    /// ignore.
    fn field_keys_match(&self, fields: &[(String, JsonValue)]) -> bool {
        let own = parse_flat_object(&self.to_json()).expect("to_json emits valid flat objects");
        own.len() == fields.len()
            && own
                .iter()
                .all(|(k, _)| fields.iter().any(|(k2, _)| k2 == k))
    }

    /// Which pipeline stage this event is intrinsic to, if any.
    ///
    /// Stage markers themselves return their payload stage; events
    /// that can only be emitted by one stage return that stage.
    /// [`TraceEvent::Unknown`] has no known stage.
    pub const fn stage(&self) -> Option<StageKind> {
        Some(match self {
            TraceEvent::Unknown { .. } => return None,
            // Worker markers bracket a whole unit of parallel work,
            // which may span multiple stages: intrinsically stage-less.
            TraceEvent::WorkerStarted { .. } | TraceEvent::WorkerFinished { .. } => return None,
            // Search telemetry comes from both the timing scheduler
            // and the exact B&B (which is not a pipeline stage), so
            // the events carry a worker id rather than a stage.
            TraceEvent::SearchSample { .. }
            | TraceEvent::IncumbentImproved { .. }
            | TraceEvent::SearchStatsRecorded { .. } => return None,
            TraceEvent::StageStarted { stage } | TraceEvent::StageFinished { stage } => *stage,
            TraceEvent::LintStarted { .. }
            | TraceEvent::LintFinding { .. }
            | TraceEvent::LintVerdict { .. } => StageKind::Lint,
            TraceEvent::TaskCommitted { .. }
            | TraceEvent::TopoBacktrack { .. }
            | TraceEvent::SerializationAdded { .. } => StageKind::Timing,
            TraceEvent::SpikeDetected { .. }
            | TraceEvent::VictimDelayed { .. }
            | TraceEvent::ZeroSlackLocked { .. }
            | TraceEvent::PowerRecursion { .. }
            | TraceEvent::RespinStarted { .. } => StageKind::MaxPower,
            TraceEvent::GapScanStarted { .. }
            | TraceEvent::GapScanFinished { .. }
            | TraceEvent::GapFound { .. }
            | TraceEvent::MoveAccepted { .. }
            | TraceEvent::MoveRejected { .. } => StageKind::MinPower,
            TraceEvent::IncrementalCacheHit { stage }
            | TraceEvent::IncrementalDelta { stage, .. }
            | TraceEvent::IncrementalFallback { stage, .. } => *stage,
            TraceEvent::TaskDispatched { .. }
            | TraceEvent::TaskCompleted { .. }
            | TraceEvent::WindowFaultDetected { .. } => StageKind::Dispatch,
            TraceEvent::TaskBound { stage, .. } | TraceEvent::OutcomeRecorded { stage, .. } => {
                *stage
            }
        })
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Error from [`TraceEvent::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    message: String,
}

impl TraceParseError {
    fn new(message: String) -> Self {
        TraceParseError { message }
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for TraceParseError {}

// ---------------------------------------------------------------------
// Flat-JSON writer
// ---------------------------------------------------------------------

struct JsonObject {
    buf: String,
}

impl JsonObject {
    fn new(event: &str) -> Self {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"event\":\"");
        buf.push_str(event);
        buf.push('"');
        JsonObject { buf }
    }

    fn int_field(&mut self, key: &str, value: i128) {
        self.key(key);
        self.buf.push_str(&value.to_string());
    }

    fn str_field(&mut self, key: &str, value: &str) {
        self.key(key);
        self.buf.push('"');
        // Wire strings are fixed vocabularies without escapes; assert
        // that stays true rather than silently corrupting output.
        debug_assert!(!value.contains(['"', '\\']));
        self.buf.push_str(value);
        self.buf.push('"');
    }

    fn ratio_field(&mut self, key: &str, value: Ratio) {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&value.numerator().to_string());
        self.buf.push('/');
        self.buf.push_str(&value.denominator().to_string());
        self.buf.push('"');
    }

    fn key(&mut self, key: &str) {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

// ---------------------------------------------------------------------
// Flat-JSON reader
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum JsonValue {
    Int(i128),
    Str(String),
}

/// Parses a single-line flat JSON object with integer and string
/// values only (exactly the shape [`TraceEvent::to_json`] emits,
/// though whitespace between tokens is tolerated).
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, TraceParseError> {
    let mut fields = Vec::new();
    let mut chars = line.trim().char_indices().peekable();
    let src = line.trim();

    let err = |msg: &str| TraceParseError::new(format!("{msg} in {src:?}"));

    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err(err("expected '{'")),
    }

    loop {
        // Skip whitespace.
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        match chars.peek() {
            Some((_, '}')) => {
                chars.next();
                break;
            }
            Some((_, ',')) if !fields.is_empty() => {
                chars.next();
                while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
                    chars.next();
                }
            }
            Some((_, '"')) if fields.is_empty() => {}
            _ => return Err(err("expected ',' or '}'")),
        }

        // Key.
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(err("expected '\"' starting a key")),
        }
        let mut key = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => break,
                Some((_, c)) if c != '\\' => key.push(c),
                _ => return Err(err("unterminated or escaped key")),
            }
        }

        // Colon.
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(err("expected ':'")),
        }
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }

        // Value: integer or string.
        let value = match chars.peek() {
            Some((_, '"')) => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some((_, '"')) => break,
                        Some((_, c)) if c != '\\' => s.push(c),
                        _ => return Err(err("unterminated or escaped string value")),
                    }
                }
                JsonValue::Str(s)
            }
            Some((_, c)) if *c == '-' || c.is_ascii_digit() => {
                let mut digits = String::new();
                if let Some((_, '-')) = chars.peek() {
                    digits.push('-');
                    chars.next();
                }
                while matches!(chars.peek(), Some((_, c)) if c.is_ascii_digit()) {
                    digits.push(chars.next().unwrap().1);
                }
                let n: i128 = digits.parse().map_err(|_| err("invalid integer literal"))?;
                JsonValue::Int(n)
            }
            _ => return Err(err("expected a value")),
        };

        fields.push((key, value));
    }

    while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
        chars.next();
    }
    if chars.next().is_some() {
        return Err(err("trailing garbage after '}'"));
    }
    Ok(fields)
}

/// Typed field accessors over a parsed flat object.
struct Fields<'a> {
    fields: &'a [(String, JsonValue)],
}

impl<'a> Fields<'a> {
    fn new(fields: &'a [(String, JsonValue)]) -> Self {
        Fields { fields }
    }

    fn get(&self, key: &str) -> Result<&'a JsonValue, TraceParseError> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| TraceParseError::new(format!("missing field {key:?}")))
    }

    fn str(&self, key: &str) -> Result<&'a str, TraceParseError> {
        match self.get(key)? {
            JsonValue::Str(s) => Ok(s),
            JsonValue::Int(_) => Err(TraceParseError::new(format!(
                "field {key:?} should be a string"
            ))),
        }
    }

    fn int(&self, key: &str) -> Result<i128, TraceParseError> {
        match self.get(key)? {
            JsonValue::Int(n) => Ok(*n),
            JsonValue::Str(_) => Err(TraceParseError::new(format!(
                "field {key:?} should be an integer"
            ))),
        }
    }

    fn i64(&self, key: &str) -> Result<i64, TraceParseError> {
        i64::try_from(self.int(key)?)
            .map_err(|_| TraceParseError::new(format!("field {key:?} overflows i64")))
    }

    fn u32(&self, key: &str) -> Result<u32, TraceParseError> {
        u32::try_from(self.int(key)?)
            .map_err(|_| TraceParseError::new(format!("field {key:?} overflows u32")))
    }

    fn u64(&self, key: &str) -> Result<u64, TraceParseError> {
        u64::try_from(self.int(key)?)
            .map_err(|_| TraceParseError::new(format!("field {key:?} overflows u64")))
    }

    fn task(&self, key: &str) -> Result<TaskId, TraceParseError> {
        let idx = self.int(key)?;
        let idx = usize::try_from(idx)
            .map_err(|_| TraceParseError::new(format!("field {key:?} is not a task index")))?;
        if idx > u32::MAX as usize {
            return Err(TraceParseError::new(format!(
                "field {key:?} exceeds the task-id range"
            )));
        }
        Ok(TaskId::from_index(idx))
    }

    fn time(&self, key: &str) -> Result<Time, TraceParseError> {
        Ok(Time::from_secs(self.i64(key)?))
    }

    fn span(&self, key: &str) -> Result<TimeSpan, TraceParseError> {
        Ok(TimeSpan::from_secs(self.i64(key)?))
    }

    fn power(&self, key: &str) -> Result<Power, TraceParseError> {
        Ok(Power::from_watts_milli(self.i64(key)?))
    }

    fn energy(&self, key: &str) -> Result<Energy, TraceParseError> {
        Ok(Energy::from_millijoules(self.i64(key)?))
    }

    fn ratio(&self, key: &str) -> Result<Ratio, TraceParseError> {
        let s = self.str(key)?;
        let (num, den) = s
            .split_once('/')
            .ok_or_else(|| TraceParseError::new(format!("field {key:?} is not \"num/den\"")))?;
        let num: i128 = num
            .parse()
            .map_err(|_| TraceParseError::new(format!("field {key:?} has a bad numerator")))?;
        let den: i128 = den
            .parse()
            .map_err(|_| TraceParseError::new(format!("field {key:?} has a bad denominator")))?;
        if den == 0 {
            return Err(TraceParseError::new(format!(
                "field {key:?} has a zero denominator"
            )));
        }
        Ok(Ratio::new(num, den))
    }

    fn stage(&self, key: &str) -> Result<StageKind, TraceParseError> {
        let s = self.str(key)?;
        StageKind::parse(s)
            .ok_or_else(|| TraceParseError::new(format!("field {key:?} has unknown stage {s:?}")))
    }

    fn scan(&self, key: &str) -> Result<ScanKind, TraceParseError> {
        let s = self.str(key)?;
        ScanKind::parse(s).ok_or_else(|| {
            TraceParseError::new(format!("field {key:?} has unknown scan order {s:?}"))
        })
    }

    fn slot(&self, key: &str) -> Result<SlotKind, TraceParseError> {
        let s = self.str(key)?;
        SlotKind::parse(s).ok_or_else(|| {
            TraceParseError::new(format!("field {key:?} has unknown slot policy {s:?}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let t = TaskId::from_index;
        vec![
            TraceEvent::LintStarted { tasks: 6, edges: 9 },
            TraceEvent::LintFinding {
                code: "PAS011".to_string(),
                severity: "warning".to_string(),
            },
            TraceEvent::LintVerdict {
                errors: 0,
                warnings: 1,
                rejected: false,
            },
            TraceEvent::StageStarted {
                stage: StageKind::Timing,
            },
            TraceEvent::TaskCommitted { task: t(0) },
            TraceEvent::SerializationAdded {
                committed: t(0),
                serialized: t(3),
            },
            TraceEvent::TopoBacktrack { task: t(3) },
            TraceEvent::StageFinished {
                stage: StageKind::Timing,
            },
            TraceEvent::StageStarted {
                stage: StageKind::MaxPower,
            },
            TraceEvent::SpikeDetected {
                t: Time::from_secs(4),
                power: Power::from_watts_milli(22_000),
                budget: Power::from_watts_milli(16_000),
            },
            TraceEvent::VictimDelayed {
                task: t(2),
                slack: TimeSpan::from_secs(5),
                delta: TimeSpan::from_secs(2),
            },
            TraceEvent::ZeroSlackLocked {
                task: t(1),
                at: Time::from_secs(0),
            },
            TraceEvent::PowerRecursion { depth: 1 },
            TraceEvent::RespinStarted { attempt: 2 },
            TraceEvent::StageFinished {
                stage: StageKind::MaxPower,
            },
            TraceEvent::GapScanStarted {
                pass: 1,
                order: ScanKind::Forward,
                slot: SlotKind::StartAtGap,
            },
            TraceEvent::GapFound {
                t: Time::from_secs(9),
                power: Power::from_watts_milli(4_000),
                floor: Power::from_watts_milli(8_000),
            },
            TraceEvent::MoveAccepted {
                task: t(4),
                delta: TimeSpan::from_secs(-3),
                rho_before: Ratio::new(5, 8),
                rho_after: Ratio::new(3, 4),
            },
            TraceEvent::MoveRejected {
                task: t(5),
                delta: TimeSpan::from_secs(1),
                rho_before: Ratio::new(3, 4),
                rho_after: Ratio::new(1, 2),
            },
            TraceEvent::GapScanFinished { pass: 1, moves: 1 },
            TraceEvent::IncrementalCacheHit {
                stage: StageKind::Timing,
            },
            TraceEvent::IncrementalDelta {
                stage: StageKind::MinPower,
                edges: 2,
                relaxations: 7,
            },
            TraceEvent::IncrementalFallback {
                stage: StageKind::MaxPower,
                reason: "removal".to_string(),
            },
            TraceEvent::TaskDispatched {
                task: t(0),
                planned: Time::from_secs(0),
                actual: Time::from_secs(1),
            },
            TraceEvent::TaskCompleted {
                task: t(0),
                at: Time::from_secs(11),
            },
            TraceEvent::WindowFaultDetected {
                from: t(0),
                to: t(2),
                allowed: TimeSpan::from_secs(10),
                actual: TimeSpan::from_secs(12),
            },
            TraceEvent::TaskBound {
                stage: StageKind::Timing,
                task: t(1),
                start: Time::from_secs(5),
                binding: Binding::Edge {
                    pred: t(0),
                    kind: "min".to_string(),
                    weight: TimeSpan::from_secs(5),
                },
            },
            TraceEvent::TaskBound {
                stage: StageKind::MaxPower,
                task: t(0),
                start: Time::from_secs(0),
                binding: Binding::Anchor,
            },
            TraceEvent::TaskBound {
                stage: StageKind::MinPower,
                task: t(4),
                start: Time::from_secs(17),
                binding: Binding::Power,
            },
            TraceEvent::OutcomeRecorded {
                stage: StageKind::MinPower,
                tau: Time::from_secs(45),
                energy_cost: Energy::from_millijoules(388_000),
                utilization: Ratio::new(449, 500),
                peak: Power::from_watts_milli(16_000),
            },
            TraceEvent::WorkerStarted { worker: 3 },
            TraceEvent::SearchSample {
                worker: 3,
                nodes: 4096,
                depth: 7,
                best: -1,
            },
            TraceEvent::IncumbentImproved {
                worker: 3,
                nodes: 5000,
                finish: Time::from_secs(45),
            },
            TraceEvent::SearchStatsRecorded {
                worker: 3,
                nodes: 6200,
                pruned_incumbent: 410,
                pruned_dominance: 77,
                pruned_horizon: 12,
                pruned_budget: 0,
                pruned_bound: 5,
                max_depth: 9,
                budget: 10_000,
            },
            TraceEvent::WorkerFinished { worker: 3 },
            TraceEvent::Unknown {
                name: "FutureEvent".to_string(),
                line: r#"{"event":"FutureEvent","frobs":3}"#.to_string(),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for event in sample_events() {
            let line = event.to_json();
            let parsed = TraceEvent::from_json(&line)
                .unwrap_or_else(|e| panic!("failed to parse {line}: {e}"));
            assert_eq!(parsed, event, "round trip mismatch for {line}");
        }
    }

    #[test]
    fn json_shape_is_flat_and_stable() {
        let event = TraceEvent::SpikeDetected {
            t: Time::from_secs(4),
            power: Power::from_watts_milli(22_000),
            budget: Power::from_watts_milli(16_000),
        };
        assert_eq!(
            event.to_json(),
            r#"{"event":"SpikeDetected","t":4,"power":22000,"budget":16000}"#
        );
        let event = TraceEvent::MoveAccepted {
            task: TaskId::from_index(4),
            delta: TimeSpan::from_secs(-3),
            rho_before: Ratio::new(5, 8),
            rho_after: Ratio::new(3, 4),
        };
        assert_eq!(
            event.to_json(),
            r#"{"event":"MoveAccepted","task":4,"delta":-3,"rho_before":"5/8","rho_after":"3/4"}"#
        );
    }

    #[test]
    fn parser_tolerates_whitespace() {
        let line = r#" { "event" : "PowerRecursion" , "depth" : 3 } "#;
        assert_eq!(
            TraceEvent::from_json(line).unwrap(),
            TraceEvent::PowerRecursion { depth: 3 }
        );
    }

    #[test]
    fn parser_rejects_structurally_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            r#"{"event":"PowerRecursion","depth":3} trailing"#,
        ] {
            assert!(
                TraceEvent::from_json(bad).is_err(),
                "expected parse failure for {bad:?}"
            );
        }
    }

    #[test]
    fn unrecognized_lines_degrade_to_lossless_unknown() {
        for (line, name) in [
            (r#"{"event":"NoSuchEvent"}"#, "NoSuchEvent"),
            (r#"{"event":"PowerRecursion"}"#, "PowerRecursion"),
            (
                r#"{"event":"PowerRecursion","depth":"three"}"#,
                "PowerRecursion",
            ),
            (
                r#"{"event":"TaskCommitted","task":3,"flux":9}"#,
                "TaskCommitted",
            ),
            (
                r#"{"event":"MoveAccepted","task":1,"delta":0,"rho_before":"1:2","rho_after":"1/2"}"#,
                "MoveAccepted",
            ),
            (
                r#"{"event":"MoveAccepted","task":1,"delta":0,"rho_before":"1/0","rho_after":"1/2"}"#,
                "MoveAccepted",
            ),
            (
                r#" {"event":"TaskBound","stage":"timing","task":0,"start":0,"via":"teleport"} "#,
                "TaskBound",
            ),
        ] {
            let parsed = TraceEvent::from_json(line)
                .unwrap_or_else(|e| panic!("expected Unknown for {line:?}, got error {e}"));
            match &parsed {
                TraceEvent::Unknown {
                    name: got_name,
                    line: got_line,
                } => {
                    assert_eq!(got_name, name, "wrong name for {line:?}");
                    assert_eq!(got_line, line.trim(), "Unknown must store the raw line");
                }
                other => panic!("expected Unknown for {line:?}, got {other:?}"),
            }
            assert_eq!(parsed.stage(), None, "Unknown events carry no stage");
            assert_eq!(
                parsed.to_json(),
                line.trim(),
                "Unknown must round-trip losslessly"
            );
        }
    }

    #[test]
    fn events_know_their_stage() {
        assert_eq!(
            TraceEvent::LintVerdict {
                errors: 1,
                warnings: 0,
                rejected: true
            }
            .stage(),
            Some(StageKind::Lint)
        );
        assert_eq!(
            TraceEvent::TaskCommitted {
                task: TaskId::from_index(0)
            }
            .stage(),
            Some(StageKind::Timing)
        );
        assert_eq!(
            TraceEvent::PowerRecursion { depth: 1 }.stage(),
            Some(StageKind::MaxPower)
        );
        assert_eq!(
            TraceEvent::GapScanFinished { pass: 1, moves: 0 }.stage(),
            Some(StageKind::MinPower)
        );
        assert_eq!(
            TraceEvent::TaskCompleted {
                task: TaskId::from_index(0),
                at: Time::from_secs(0)
            }
            .stage(),
            Some(StageKind::Dispatch)
        );
        assert_eq!(TraceEvent::WorkerStarted { worker: 0 }.stage(), None);
        assert_eq!(TraceEvent::WorkerFinished { worker: 7 }.stage(), None);
        assert_eq!(
            TraceEvent::SearchSample {
                worker: 0,
                nodes: 1024,
                depth: 3,
                best: 45
            }
            .stage(),
            None
        );
        assert_eq!(
            TraceEvent::IncumbentImproved {
                worker: 1,
                nodes: 10,
                finish: Time::from_secs(45)
            }
            .stage(),
            None
        );
    }
}
