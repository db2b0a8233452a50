//! End-to-end daemon tests over real loopback sockets: byte-identity
//! with the offline pipeline, both cache levels, the observability
//! endpoints, and the graceful drain with audit flush.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;

use pas_core::{is_power_valid, is_time_valid, PowerConstraints, Problem};
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, Resource, ResourceKind, Task};
use pas_obs::expo::validate_prometheus;
use pas_obs::{parse_jsonl, NullObserver};
use pas_sched::{PowerAwareScheduler, SchedulerConfig};
use pas_server::{Server, ServerConfig, ServerHandle, ServerReport};
use pas_spec::{parse_problem, parse_schedule, print_problem, print_schedule};
use pas_workload::{generate, GeneratorConfig, Topology};

fn start_server(audit_dir: Option<PathBuf>) -> (ServerHandle, thread::JoinHandle<ServerReport>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        slow_ms: 0, // every request lands in the slow log
        audit_dir,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let handle = server.handle().expect("handle");
    let join = thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

/// Sends one request and returns `(status, headers, body)`.
/// One connection per call: `Connection: close` so `read_to_end`
/// returns as soon as the response is flushed.
fn http(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head");
    let head = String::from_utf8(raw[..split].to_vec()).unwrap();
    let body = raw[split + 4..].to_vec();
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    (status, headers, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn problem_text(seed: u64) -> String {
    let problem = generate(&GeneratorConfig {
        seed,
        tasks: 12,
        resources: 4,
        topology: Topology::Layered { layers: 3 },
        ..GeneratorConfig::default()
    });
    print_problem(&problem)
}

/// What `impacct-cli schedule --quiet --emit-schedule` prints for the
/// same problem — the byte-identity anchor.
fn offline_pasdl(source: &str) -> String {
    let mut problem = parse_problem(source).expect("offline parse");
    let scheduler = PowerAwareScheduler::new(SchedulerConfig::default());
    let outcome = scheduler
        .schedule_with(&mut problem, &mut NullObserver)
        .expect("offline pipeline");
    print_schedule(
        &format!("{}-min", problem.name()),
        &problem,
        &outcome.schedule,
    )
}

#[test]
fn schedule_pasdl_is_byte_identical_to_the_offline_pipeline() {
    let (handle, join) = start_server(None);
    let source = problem_text(7);
    let expected = offline_pasdl(&source);

    let (status, headers, body) = http(
        handle.addr(),
        "POST",
        "/schedule?format=pasdl",
        source.as_bytes(),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(header(&headers, "X-Pas-Served"), Some("fresh"));
    assert_eq!(String::from_utf8(body).unwrap(), expected);

    // The repeat is served from the exact cache — still the same bytes.
    let (status, headers, body) = http(
        handle.addr(),
        "POST",
        "/schedule?format=pasdl",
        source.as_bytes(),
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Pas-Served"), Some("cache-exact"));
    assert_eq!(String::from_utf8(body).unwrap(), expected);

    // cache=off forces a fresh run and must again agree byte-for-byte.
    let (status, headers, body) = http(
        handle.addr(),
        "POST",
        "/schedule?format=pasdl&cache=off",
        source.as_bytes(),
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Pas-Served"), Some("fresh"));
    assert_eq!(String::from_utf8(body).unwrap(), expected);

    handle.shutdown();
    join.join().unwrap();
}

/// A precedence chain of `n` 1 W tasks, one resource each, under a
/// 2 W budget.
fn chain_text(n: usize) -> String {
    let mut g = ConstraintGraph::new();
    let mut prev = None;
    for i in 0..n {
        let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
        let t = g.add_task(Task::new(
            format!("t{i}"),
            r,
            TimeSpan::from_secs(1),
            Power::from_watts(1),
        ));
        if let Some(p) = prev {
            g.precedence(p, t);
        }
        prev = Some(t);
    }
    let constraints = PowerConstraints::new(Power::from_watts(2), Power::from_watts(1));
    print_problem(&Problem::new(format!("chain{n}"), g, constraints))
}

#[test]
fn a_4000_task_chain_is_scheduled_on_a_pool_worker() {
    // Pool workers run with the default 2 MiB thread stack, and the
    // stages run on them directly: their native stack must not grow
    // with the task count.
    let (handle, join) = start_server(None);
    let source = chain_text(4_000);
    let expected = offline_pasdl(&source);

    let (status, _, body) = http(
        handle.addr(),
        "POST",
        "/schedule?format=pasdl",
        source.as_bytes(),
    );
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let served = String::from_utf8(body).unwrap();
    let problem = parse_problem(&source).unwrap();
    let (_, schedule) = parse_schedule(&served, &problem).expect("a schedule comes back");
    assert!(is_time_valid(problem.graph(), &schedule));
    assert!(is_power_valid(&problem, &schedule));
    assert_eq!(served, expected);

    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.panicked, 0);
}

#[test]
fn region_cache_reuses_schedules_across_power_envelopes() {
    let (handle, join) = start_server(None);
    let source = problem_text(11);
    let (status, _, _) = http(handle.addr(), "POST", "/schedule", source.as_bytes());
    assert_eq!(status, 200);

    // Same constraint graph, looser P_max: the §5.3 region cache must
    // serve the cached schedule without a new pipeline run.
    let mut problem = parse_problem(&source).unwrap();
    let constraints = problem.constraints();
    problem.set_constraints(PowerConstraints::new(
        constraints.p_max().saturating_add(Power::from_watts(50)),
        constraints.p_min(),
    ));
    let relaxed = print_problem(&problem);
    assert_ne!(relaxed, source, "the envelope change must be visible");

    let (status, headers, body) = http(handle.addr(), "POST", "/schedule", relaxed.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(header(&headers, "X-Pas-Served"), Some("cache-region"));
    let body = String::from_utf8(body).unwrap();
    assert!(body.contains("\"served\":\"cache-region\""), "{body}");
    assert!(body.contains("\"valid\":true"), "{body}");
    assert!(body.contains("\"repertoire_entry\":"), "{body}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_scrape_is_prometheus_valid_and_live() {
    let (handle, join) = start_server(None);
    let source = problem_text(3);
    for _ in 0..2 {
        let (status, _, _) = http(handle.addr(), "POST", "/schedule", source.as_bytes());
        assert_eq!(status, 200);
    }

    let (status, _, body) = http(handle.addr(), "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert!(
        text.contains("pas_server_schedule_requests_total 2"),
        "{text}"
    );
    assert!(
        text.contains("pas_server_cache_events_total{kind=\"exact_hit\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("pas_server_cache_events_total{kind=\"miss\"} 1"),
        "{text}"
    );
    // The pipeline-event registry rides along in the same scrape.
    assert!(text.contains("pas_events_total"), "{text}");
    assert!(
        text.contains("pas_server_stage_timing_latency_microseconds_count"),
        "{text}"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn trace_healthz_buildinfo_and_slowlog_are_served() {
    let (handle, join) = start_server(None);
    let source = problem_text(5);
    let (status, headers, body) = http(handle.addr(), "POST", "/schedule", source.as_bytes());
    assert_eq!(status, 200);
    let trace_id = header(&headers, "X-Pas-Trace-Id")
        .expect("trace id")
        .to_string();
    let body = String::from_utf8(body).unwrap();
    assert!(
        body.contains(&format!("\"trace_id\":\"{trace_id}\"")),
        "{body}"
    );

    let (status, _, trace) = http(handle.addr(), "GET", &format!("/trace/{trace_id}"), b"");
    assert_eq!(status, 200);
    let trace = String::from_utf8(trace).unwrap();
    assert!(trace.contains("traceEvents"), "Chrome trace shape: {trace}");
    assert!(trace.contains("min-power"), "{trace}");

    let (status, _, missing) = http(handle.addr(), "GET", "/trace/r999999-0", b"");
    assert_eq!(status, 404, "{}", String::from_utf8_lossy(&missing));

    let (status, _, health) = http(handle.addr(), "GET", "/healthz", b"");
    assert_eq!(status, 200);
    assert!(String::from_utf8(health)
        .unwrap()
        .contains("\"status\":\"ok\""));

    let (status, _, info) = http(handle.addr(), "GET", "/buildinfo", b"");
    assert_eq!(status, 200);
    let info = String::from_utf8(info).unwrap();
    assert!(info.contains("\"schema\":\"pas-server/v1\""), "{info}");

    // slow_ms = 0, so the schedule request is in the slow log.
    let (status, _, slow) = http(handle.addr(), "GET", "/slowlog", b"");
    assert_eq!(status, 200);
    assert!(String::from_utf8(slow).unwrap().contains(&trace_id));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_drains_and_flushes_the_audit_trail() {
    let audit = std::env::temp_dir().join(format!("pas-server-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&audit);
    let (handle, join) = start_server(Some(audit.clone()));
    let source = problem_text(9);
    let (status, headers, _) = http(handle.addr(), "POST", "/schedule", source.as_bytes());
    assert_eq!(status, 200);
    let trace_id = header(&headers, "X-Pas-Trace-Id").unwrap().to_string();

    let (status, _, body) = http(handle.addr(), "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    assert!(String::from_utf8(body).unwrap().contains("draining"));
    let report = join.join().unwrap();
    assert!(report.requests >= 2);
    assert_eq!(report.panicked, 0);

    // The audit pair is on disk: the problem as received and a JSONL
    // stream that parses back into pipeline events.
    let pasdl = std::fs::read_to_string(audit.join(format!("{trace_id}.pasdl"))).unwrap();
    assert_eq!(pasdl, source);
    let jsonl = std::fs::read_to_string(audit.join(format!("{trace_id}.jsonl"))).unwrap();
    let events = parse_jsonl(&jsonl).expect("audit JSONL parses");
    assert!(
        !events.is_empty(),
        "audit stream must hold the run's events"
    );
    let _ = std::fs::remove_dir_all(&audit);
}

#[test]
fn bad_bodies_get_400_and_infeasible_problems_422() {
    let (handle, join) = start_server(None);

    // Garbage, and envelopes the power model cannot hold: each is a
    // 400 from the parser, never a panicked worker.
    for garbage in [
        &b"not pasdl at all"[..],
        b"problem p { pmax 5W pmin -1W resource A task a on A delay 1s power 1W }",
        b"problem p { pmax 5W background -1W resource A task a on A delay 1s power 1W }",
    ] {
        let (status, _, body) = http(handle.addr(), "POST", "/schedule", garbage);
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
        assert!(String::from_utf8(body).unwrap().contains("parse error"));
    }

    // A deadline of zero with positive task delays is provably
    // infeasible; the daemon reports it without crashing a worker.
    let mut problem = parse_problem(&problem_text(13)).unwrap();
    problem.set_deadline(Some(Time::ZERO));
    let doomed = print_problem(&problem);
    let (status, headers, body) = http(handle.addr(), "POST", "/schedule", doomed.as_bytes());
    assert_eq!(status, 422, "{}", String::from_utf8_lossy(&body));
    assert!(header(&headers, "X-Pas-Trace-Id").is_some());

    let (status, _, _) = http(handle.addr(), "GET", "/nowhere", b"");
    assert_eq!(status, 404);
    let (status, _, _) = http(handle.addr(), "GET", "/schedule", b"");
    assert_eq!(status, 405);

    handle.shutdown();
    let report = join.join().unwrap();
    assert_eq!(report.panicked, 0);

    let _ = (report.pool_jobs, report.uptime_s);
}
