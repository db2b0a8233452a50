//! Structural validation of the exported metric formats.
//!
//! The Prometheus check drives the hand-written exposition-format
//! validator (now shipped as [`pas_obs::expo`] so live `/metrics`
//! consumers can reuse it); the Chrome-trace check reads the export
//! with the workspace's strict JSON reader, [`pas_core::json`], and
//! walks the schema over the parsed value. Neither pulls in a
//! dependency — the point is to fail when the exporters drift from
//! what real consumers (Prometheus scrapers, Perfetto) accept.

use pas_core::json::{self, Value};
use pas_core::Ratio;
use pas_graph::units::TimeSpan;
use pas_graph::TaskId;
use pas_obs::expo::{parse_labels, validate_prometheus};
use pas_obs::{MetricsRegistry, Observer, ScanKind, SlotKind, StageKind, TraceEvent};

/// Feeds the registry a synthetic but representative pipeline run.
fn populated_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let t = TaskId::from_index;
    let events = [
        TraceEvent::StageStarted {
            stage: StageKind::Timing,
        },
        TraceEvent::TaskCommitted { task: t(0) },
        TraceEvent::TaskCommitted { task: t(1) },
        TraceEvent::TopoBacktrack { task: t(1) },
        TraceEvent::TaskCommitted { task: t(1) },
        TraceEvent::StageFinished {
            stage: StageKind::Timing,
        },
        TraceEvent::StageStarted {
            stage: StageKind::MaxPower,
        },
        TraceEvent::VictimDelayed {
            task: t(0),
            slack: TimeSpan::from_secs(9),
            delta: TimeSpan::from_secs(4),
        },
        TraceEvent::RespinStarted { attempt: 1 },
        TraceEvent::StageFinished {
            stage: StageKind::MaxPower,
        },
        TraceEvent::StageStarted {
            stage: StageKind::MinPower,
        },
        TraceEvent::GapScanStarted {
            pass: 1,
            order: ScanKind::Forward,
            slot: SlotKind::StartAtGap,
        },
        TraceEvent::MoveAccepted {
            task: t(1),
            delta: TimeSpan::from_secs(-2),
            rho_before: Ratio::new(440, 500),
            rho_after: Ratio::new(449, 500),
        },
        TraceEvent::GapScanFinished { pass: 1, moves: 1 },
        TraceEvent::StageFinished {
            stage: StageKind::MinPower,
        },
    ];
    for e in &events {
        reg.on_event(e);
    }
    reg
}

#[test]
fn prometheus_exposition_is_structurally_valid() {
    let text = populated_registry().render_prometheus();
    validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{text}"));
}

#[test]
fn chrome_trace_is_structurally_valid_json_with_the_expected_schema() {
    let chrome = populated_registry().chrome_trace();
    let value = json::parse(&chrome).unwrap_or_else(|e| panic!("invalid JSON: {e}\n---\n{chrome}"));

    assert!(value.as_object().is_some(), "top level must be an object");
    assert_eq!(
        value.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms"),
        "displayTimeUnit must be the string \"ms\""
    );
    let Some(events) = value.get("traceEvents").and_then(Value::as_array) else {
        panic!("traceEvents must be an array");
    };
    assert_eq!(events.len(), 3, "one complete span per finished stage");
    for event in events {
        assert!(
            event.as_object().is_some(),
            "every trace event must be an object"
        );
        for key in ["name", "cat", "ph"] {
            assert!(
                matches!(event.get(key), Some(Value::String(_))),
                "trace event field {key:?} must be a string"
            );
        }
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(
                matches!(event.get(key), Some(Value::Number(_))),
                "trace event field {key:?} must be a number"
            );
        }
        assert_eq!(
            event.get("ph").and_then(Value::as_str),
            Some("X"),
            "stage spans are complete events (ph = X)"
        );
    }
}

#[test]
fn hostile_source_names_render_valid_escaped_exposition() {
    // A PASDL task (or model file) named with quotes, backslashes, and
    // newlines must not corrupt the exposition text.
    let hostile = "a\"b\\c\nd";
    let mut reg = populated_registry();
    reg.set_source(hostile);
    let text = reg.render_prometheus();
    validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{text}"));

    // The escaped value must decode back to the original name.
    let info_line = text
        .lines()
        .find(|l| l.starts_with("pas_source_info{"))
        .expect("pas_source_info sample present");
    let body = info_line
        .split_once('{')
        .and_then(|(_, rest)| rest.rsplit_once('}'))
        .map(|(body, _)| body)
        .expect("label set present");
    let labels = parse_labels(body).expect("labels parse");
    assert_eq!(labels, vec![("model".to_string(), hostile.to_string())]);
}

#[test]
fn search_telemetry_metrics_pass_the_validator() {
    let mut reg = populated_registry();
    let events = [
        TraceEvent::WorkerStarted { worker: 0 },
        TraceEvent::SearchSample {
            worker: 0,
            nodes: 4096,
            depth: 7,
            best: -1,
        },
        TraceEvent::IncumbentImproved {
            worker: 0,
            nodes: 5000,
            finish: pas_graph::units::Time::from_secs(45),
        },
        TraceEvent::SearchSample {
            worker: 0,
            nodes: 8192,
            depth: 9,
            best: 45,
        },
        TraceEvent::SearchStatsRecorded {
            worker: 0,
            nodes: 9000,
            pruned_incumbent: 410,
            pruned_dominance: 77,
            pruned_horizon: 12,
            pruned_budget: 0,
            pruned_bound: 3,
            max_depth: 11,
            budget: 10_000,
        },
        TraceEvent::WorkerFinished { worker: 0 },
    ];
    for e in &events {
        reg.on_event(e);
    }
    let text = reg.render_prometheus();
    validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n---\n{text}"));
    for needle in [
        "pas_search_sample_depth_bucket",
        "pas_search_nodes_bucket",
        "pas_search_prunes_total{reason=\"incumbent\"} 410",
        "pas_search_budget_utilization 0.9",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The Chrome export gains a worker lane and counter samples while
    // staying structurally valid JSON.
    let chrome = reg.chrome_trace();
    let value = json::parse(&chrome).unwrap_or_else(|e| panic!("invalid JSON: {e}\n---\n{chrome}"));
    let Some(events) = value.get("traceEvents").and_then(Value::as_array) else {
        panic!("traceEvents must be an array");
    };
    let mut phases: Vec<&str> = Vec::new();
    for event in events {
        assert!(
            event.as_object().is_some(),
            "every trace event must be an object"
        );
        let Some(ph) = event.get("ph").and_then(Value::as_str) else {
            panic!("trace event without ph");
        };
        phases.push(ph);
    }
    assert_eq!(
        phases.iter().filter(|p| **p == "C").count(),
        2,
        "one counter sample per SearchSample"
    );
    assert!(
        chrome.contains(r#""name":"worker-0""#),
        "worker lane present in:\n{chrome}"
    );
}
