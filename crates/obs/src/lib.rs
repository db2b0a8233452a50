//! # pas-obs — observability for the power-aware scheduling pipeline
//!
//! Zero-cost-when-disabled structured tracing, metrics, and profiling
//! hooks for the DAC 2001 scheduling pipeline:
//!
//! * [`TraceEvent`] — one variant per algorithmic decision across all
//!   three scheduler stages (timing, max-power, min-power) and the
//!   runtime dispatcher, with a table-driven JSONL codec: the variants
//!   are declared once with their wire keys, and lines are escaped and
//!   read by [`pas_core::json`], the workspace's one JSON codec;
//! * [`Observer`] — the sink trait the schedulers are generic over.
//!   [`NullObserver`] (the default) reports itself disabled and
//!   monomorphizes to nothing; [`CountingObserver`] keeps per-variant
//!   tallies; [`RecordingObserver`] keeps the events themselves in a
//!   ring buffer; [`JsonlWriter`] streams them to disk; [`Tee`] fans
//!   out to two sinks at once; [`SharedObserver`] makes any sink
//!   clonable and thread-safe for multi-threaded request handling;
//! * [`StageProfiler`] — turns `StageStarted`/`StageFinished` markers
//!   into per-stage wall-clock [`StageProfile`]s without perturbing
//!   the deterministic event payloads, and keeps individual
//!   [`SpanRecord`]s for Chrome-trace (Perfetto-loadable) export;
//! * [`MetricsRegistry`] — counters plus log-bucketed [`Histogram`]s
//!   over the event stream, rendered as Prometheus text exposition;
//! * sliding-window instruments for long-running services:
//!   [`RollingCounter`] (per-second rates) and [`WindowedHistogram`]
//!   (windowed latency quantiles via [`Histogram::quantile`]).
//!
//! ## Event vocabulary
//!
//! | Stage | Events |
//! |---|---|
//! | lint (pas-lint guard) | `LintStarted`, `LintFinding`, `LintVerdict` |
//! | timing (Fig. 3) | `TaskCommitted`, `SerializationAdded`, `TopoBacktrack` |
//! | max-power (Fig. 4) | `SpikeDetected`, `VictimDelayed`, `ZeroSlackLocked`, `PowerRecursion`, `RespinStarted` |
//! | min-power (Fig. 6) | `GapScanStarted`, `GapFound`, `MoveAccepted`, `MoveRejected`, `GapScanFinished` |
//! | dispatch | `TaskDispatched`, `TaskCompleted`, `WindowFaultDetected` |
//! | incremental engine | `IncrementalCacheHit`, `IncrementalDelta`, `IncrementalFallback` |
//! | provenance (per stage outcome) | `TaskBound` (with a [`Binding`]), `OutcomeRecorded` |
//! | parallel trace stitching | `WorkerStarted`, `WorkerFinished` |
//! | search telemetry (B&B + timing backtracker) | `SearchSample`, `IncumbentImproved`, `SearchStatsRecorded` |
//! | all | `StageStarted`, `StageFinished` |
//!
//! Lines written by newer binaries that this build does not recognize
//! parse as `TraceEvent::Unknown`, preserving the raw line losslessly
//! so replay and diff tools can pass them through. Any JSON object with
//! a string `"event"` member is such a line, whatever else it holds;
//! only malformed JSON (strict RFC 8259, nesting capped at
//! [`pas_core::json::MAX_DEPTH`]) is an error.
//!
//! ## Example
//!
//! ```
//! use pas_obs::{CountingObserver, Observer, TraceEvent, StageKind};
//!
//! let mut obs = CountingObserver::new();
//! if obs.is_enabled() {
//!     obs.on_event(&TraceEvent::StageStarted { stage: StageKind::Timing });
//! }
//! assert_eq!(obs.counts().stage_starts, 1);
//!
//! // Every event round-trips through its one-line JSON form.
//! let line = TraceEvent::PowerRecursion { depth: 2 }.to_json();
//! assert_eq!(line, r#"{"event":"PowerRecursion","depth":2}"#);
//! assert_eq!(
//!     TraceEvent::from_json(&line).unwrap(),
//!     TraceEvent::PowerRecursion { depth: 2 },
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod expo;
mod jsonl;
mod metrics;
mod observer;
mod profile;
mod stitch;

pub use event::{Binding, ScanKind, SlotKind, StageKind, TraceEvent, TraceParseError};
pub use jsonl::{parse_jsonl, JsonlWriter};
pub use metrics::{
    collapsed_stacks, escape_label_value, HighWater, Histogram, MetricsRegistry, RollingCounter,
    WindowedHistogram,
};
pub use observer::{
    CountingObserver, EventCounts, NullObserver, Observer, RecordingObserver, SharedObserver, Tee,
};
pub use profile::{render_profile_table, SpanRecord, StageProfile, StageProfiler};
pub use stitch::{stitch_all, stitch_segment};
