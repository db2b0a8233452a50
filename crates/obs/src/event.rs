//! The trace-event vocabulary: one variant per algorithmic decision in
//! the scheduling pipeline, plus its table-driven JSONL codec.
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
//!
//! The variants are declared once, in a table that also gives each
//! field's key; the writer, the reader and the exact-key check are
//! generated from it. Lines are read by the workspace's strict reader,
//! [`pas_core::json::parse`], and strings are escaped by
//! [`pas_core::json::push_escaped`].

use std::fmt::{self, Write};

use pas_core::json::{self, Value};
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

/// Declares [`TraceEvent`] and its JSONL codec from one table.
///
/// Each variant's wire name is its identifier, and each field is one
/// member keyed by the field's name unless the table gives a key
/// (`energy_cost: Energy => "ec"`). The field's type decides how the
/// member is written and read (see [`Wire`]). `name()`, `to_json()`
/// and the decoder behind `from_json()` are all generated from the
/// table, plus the one variant outside it, [`TraceEvent::Unknown`].
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty $(=> $key:literal)?
                    ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant {
                    $( $(#[$fmeta])* $field: $ty, )*
                },
            )*
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
                    $( TraceEvent::$variant { .. } => stringify!($variant), )*
                    TraceEvent::Unknown { name, .. } => name,
                }
            }

            /// Serializes the event as one flat JSON object (no trailing
            /// newline). [`TraceEvent::Unknown`] returns its preserved
            /// original line, so re-encoding a replayed trace is lossless.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(96);
                match self {
                    $(
                        TraceEvent::$variant { $($field),* } => {
                            out.push_str(concat!("{\"event\":\"", stringify!($variant), "\""));
                            $( Wire::put($field, wire_key!($field $(=> $key)?), &mut out); )*
                        }
                    )*
                    TraceEvent::Unknown { line, .. } => return line.clone(),
                }
                out.push('}');
                out
            }

            /// The known variant `name` read from a line's members, or
            /// `None` when `name` is not in the table or a member is
            /// missing, mistyped or out of range.
            fn decode(name: &str, members: &mut Members<'_>) -> Option<Self> {
                Some(match name {
                    $(
                        stringify!($variant) => TraceEvent::$variant {
                            $(
                                $field: <$ty as Wire>::take(wire_key!($field $(=> $key)?), members)?,
                            )*
                        },
                    )*
                    _ => return None,
                })
            }
        }
    };
}

/// A table field's key: the given one, else the field's name.
macro_rules! wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident => $key:literal) => {
        $key
    };
}

trace_events! {
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
            rejected: bool, // on the wire as 0/1
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
            binding: Binding, // flattened into via/pred/kind/weight
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
            energy_cost: Energy => "ec",
            /// Min-power utilization ρ.
            utilization: Ratio => "rho",
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
    }
}

impl TraceEvent {
    /// Parses one JSON line produced by [`TraceEvent::to_json`].
    ///
    /// Forward compatibility: any JSON object with a string `"event"`
    /// member that this build cannot interpret exactly — an unknown
    /// event name, missing/extra/duplicated fields, values of another
    /// type, or unknown vocabulary strings written by a newer binary —
    /// parses as a lossless [`TraceEvent::Unknown`] instead of an
    /// error, so old binaries can replay newer traces. Only malformed
    /// JSON (see [`pas_core::json::parse`]), a line that is not an
    /// object, or one without the `"event"` discriminant is rejected.
    pub fn from_json(line: &str) -> Result<Self, TraceParseError> {
        let line = line.trim();
        let err = |msg: String| TraceParseError::new(format!("{msg} in {line:?}"));
        let value = json::parse(line).map_err(|e| err(e.to_string()))?;
        let list = value
            .as_object()
            .ok_or_else(|| err("expected an object".to_string()))?;
        let name = value
            .get("event")
            .ok_or_else(|| err("missing field \"event\"".to_string()))?
            .as_str()
            .ok_or_else(|| err("field \"event\" should be a string".to_string()))?;
        // The `"event"` member counts as read; a line that has any
        // member its variant does not read is not this build's event.
        let mut members = Members { list, read: 1 };
        match Self::decode(name, &mut members) {
            Some(event) if members.read == list.len() => Ok(event),
            _ => Ok(TraceEvent::Unknown {
                name: name.to_string(),
                line: line.to_string(),
            }),
        }
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

impl Binding {
    /// Appends the binding's members to a JSON object under
    /// construction: `,"via":"anchor"`, `,"via":"power"`, or
    /// `,"via":"edge","pred":…,"kind":…,"weight":…`. `TaskBound` trace
    /// lines and `explain --json` chain links share this shape.
    pub fn push_json_members(&self, out: &mut String) {
        match self {
            Binding::Anchor => put_str("via", "anchor", out),
            Binding::Power => put_str("via", "power", out),
            Binding::Edge { pred, kind, weight } => {
                put_str("via", "edge", out);
                pred.put("pred", out);
                kind.put("kind", out);
                weight.put("weight", out);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Field encodings
// ---------------------------------------------------------------------

/// How a field type sits in a trace line.
trait Wire: Sized {
    /// Appends the field as `,"key":value`.
    fn put(&self, key: &str, out: &mut String);
    /// Reads the field back; `None` when its member is missing, has
    /// another type or is out of range.
    fn take(key: &str, members: &mut Members<'_>) -> Option<Self>;
}

/// A decoded line's members. It counts its lookups: a line on which
/// every lookup of a variant succeeded, and which has no member beyond
/// those, carries exactly the variant's keys.
struct Members<'a> {
    list: &'a [(String, Value)],
    read: usize,
}

impl<'a> Members<'a> {
    fn get(&mut self, key: &str) -> Option<&'a Value> {
        self.read += 1;
        self.list.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Integer fields: counts, task indices, seconds, milliwatts and
/// millijoules, and `bool` as 0/1 (any non-zero count reads as true).
macro_rules! int_wire {
    ($($ty:ty: $put:expr, $take:expr;)*) => {$(
        impl Wire for $ty {
            fn put(&self, key: &str, out: &mut String) {
                let n: i128 = ($put)(*self);
                let _ = write!(out, ",\"{key}\":{n}");
            }
            fn take(key: &str, members: &mut Members<'_>) -> Option<Self> {
                ($take)(members.get(key)?.as_i128()?)
            }
        }
    )*};
}

int_wire! {
    u32: i128::from, |n| u32::try_from(n).ok();
    u64: i128::from, |n| u64::try_from(n).ok();
    i64: i128::from, |n| i64::try_from(n).ok();
    bool: i128::from, |n| u64::try_from(n).ok().map(|n| n != 0);
    TaskId: |t: TaskId| t.index() as i128,
        |n| u32::try_from(n).ok().map(|i| TaskId::from_index(i as usize));
    Time: |t: Time| t.as_secs().into(), |n| i64::try_from(n).ok().map(Time::from_secs);
    TimeSpan: |t: TimeSpan| t.as_secs().into(),
        |n| i64::try_from(n).ok().map(TimeSpan::from_secs);
    Power: |p: Power| p.as_milliwatts().into(),
        |n| i64::try_from(n).ok().map(Power::from_watts_milli);
    Energy: |e: Energy| e.as_millijoules().into(),
        |n| i64::try_from(n).ok().map(Energy::from_millijoules);
}

fn put_str(key: &str, value: &str, out: &mut String) {
    let _ = write!(out, ",\"{key}\":\"");
    json::push_escaped(out, value);
    out.push('"');
}

impl Wire for String {
    fn put(&self, key: &str, out: &mut String) {
        put_str(key, self, out);
    }
    fn take(key: &str, members: &mut Members<'_>) -> Option<Self> {
        members.get(key)?.as_str().map(str::to_string)
    }
}

/// Fixed vocabularies, by their stable wire names.
macro_rules! name_wire {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, key: &str, out: &mut String) {
                put_str(key, self.as_str(), out);
            }
            fn take(key: &str, members: &mut Members<'_>) -> Option<Self> {
                <$ty>::parse(members.get(key)?.as_str()?)
            }
        }
    )*};
}

name_wire!(StageKind, ScanKind, SlotKind);

/// Exact rationals as `"num/den"` strings, so no precision is lost.
impl Wire for Ratio {
    fn put(&self, key: &str, out: &mut String) {
        let (num, den) = (self.numerator(), self.denominator());
        let _ = write!(out, ",\"{key}\":\"{num}/{den}\"");
    }
    fn take(key: &str, members: &mut Members<'_>) -> Option<Self> {
        let (num, den) = members.get(key)?.as_str()?.split_once('/')?;
        let (num, den): (i128, i128) = (num.parse().ok()?, den.parse().ok()?);
        // `Ratio` is non-negative with a positive denominator.
        (num >= 0 && den > 0).then(|| Ratio::new(num, den))
    }
}

/// `TaskBound`'s binding is flattened rather than keyed by its field:
/// `"via"` names the case, and an edge adds `"pred"`, `"kind"` and
/// `"weight"`.
impl Wire for Binding {
    fn put(&self, _key: &str, out: &mut String) {
        self.push_json_members(out);
    }
    fn take(_key: &str, members: &mut Members<'_>) -> Option<Self> {
        Some(match members.get("via")?.as_str()? {
            "anchor" => Binding::Anchor,
            "power" => Binding::Power,
            "edge" => Binding::Edge {
                pred: Wire::take("pred", members)?,
                kind: Wire::take("kind", members)?,
                weight: Wire::take("weight", members)?,
            },
            _ => return None,
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
            (r#"{"event":"FutureEvent","ok":true}"#, "FutureEvent"),
            (r#"{"event":"FutureEvent","x":1.5}"#, "FutureEvent"),
            (r#"{"event":"FutureEvent","name":"a\"b"}"#, "FutureEvent"),
            (r#"{"event":"FutureEvent","a":{"b":[1,2]}}"#, "FutureEvent"),
            (
                r#"{"event":"TaskCommitted","task":1,"task":2}"#,
                "TaskCommitted",
            ),
            (
                r#"{"event":"MoveAccepted","task":1,"delta":0,"rho_before":"-1/2","rho_after":"1/2"}"#,
                "MoveAccepted",
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
    fn strings_are_escaped_and_read_back() {
        let event = TraceEvent::LintFinding {
            code: "PAS\"0\\1\t".to_string(),
            severity: "warn\u{1}ing".to_string(),
        };
        let line = event.to_json();
        assert_eq!(
            line,
            r#"{"event":"LintFinding","code":"PAS\"0\\1\t","severity":"warn\u0001ing"}"#
        );
        assert_eq!(TraceEvent::from_json(&line), Ok(event));
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
