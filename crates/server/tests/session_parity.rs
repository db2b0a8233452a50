//! Byte-parity of the session-incremental serving path against the
//! offline pipeline (DESIGN.md §16).
//!
//! For each generated problem the test opens a session with a fresh
//! run, then *tightens* `P_max` to just below the cached schedule's
//! validity region — a repertoire miss on a known graph, the exact
//! shape that routes through the session's warm incremental engine
//! (`X-Pas-Served: fresh-incremental`). The response must be
//! byte-identical to `impacct-cli schedule --quiet --emit-schedule`
//! on the tightened problem (or agree that it is infeasible).
//!
//! Problem count defaults small so tier-1 stays fast; CI's
//! server-smoke job sweeps the full corpus with
//! `PAS_PARITY_PROBLEMS=200`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;

use pas_core::json::{self, Value};
use pas_core::PowerConstraints;
use pas_graph::units::Power;
use pas_obs::NullObserver;
use pas_sched::{PowerAwareScheduler, SchedulerConfig};
use pas_server::{Server, ServerConfig};
use pas_spec::{parse_problem, print_problem, print_schedule};
use pas_workload::{generate, GeneratorConfig, Topology};

fn http(addr: SocketAddr, target: &str, body: &[u8]) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
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

fn served(headers: &[(String, String)]) -> &str {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("X-Pas-Served"))
        .map(|(_, v)| v.as_str())
        .unwrap_or("")
}

#[test]
fn repertoire_misses_on_known_graphs_are_served_incrementally_and_byte_identical() {
    let problems: u64 = std::env::var("PAS_PARITY_PROBLEMS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let join = thread::spawn(move || server.run().expect("server run"));

    let scheduler = PowerAwareScheduler::new(SchedulerConfig::default());
    let mut incremental_serves = 0u64;
    for i in 0..problems {
        let source = print_problem(&generate(&GeneratorConfig {
            seed: 9_000 + i,
            tasks: 16,
            resources: 4,
            topology: Topology::Layered { layers: 3 },
            ..GeneratorConfig::default()
        }));

        // Open the session: a cold fresh run caches the schedule and
        // reports its validity region.
        let (status, headers, body) = http(addr, "/schedule", source.as_bytes());
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(served(&headers), "fresh", "seed {i}");
        let body = String::from_utf8(body).unwrap();
        let doc = json::parse(&body).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {body}"));
        let floor = doc
            .get("region")
            .and_then(|region| region.get("min_p_max_mw"));
        let Some(floor_mw) = floor
            .and_then(Value::as_i128)
            .and_then(|mw| u64::try_from(mw).ok())
        else {
            panic!("fresh response lost its region: {body}")
        };
        if floor_mw == 0 {
            continue; // region admits everything; cannot force a miss
        }

        // Tighten P_max below the region: same graph key, repertoire
        // miss — the session-incremental path.
        let mut problem = parse_problem(&source).unwrap();
        let p_max = Power::from_watts_milli(floor_mw as i64 - 1);
        problem.set_constraints(PowerConstraints::new(
            p_max,
            problem.constraints().p_min().min(p_max),
        ));
        let tightened = print_problem(&problem);

        let offline = {
            let mut problem = parse_problem(&tightened).unwrap();
            scheduler
                .schedule_with(&mut problem, &mut NullObserver)
                .map(|outcome| {
                    print_schedule(
                        &format!("{}-min", problem.name()),
                        &problem,
                        &outcome.schedule,
                    )
                })
        };

        let (status, headers, body) = http(addr, "/schedule?format=pasdl", tightened.as_bytes());
        match offline {
            Ok(expected) => {
                assert_eq!(status, 200, "seed {i}: {}", String::from_utf8_lossy(&body));
                assert_eq!(served(&headers), "fresh-incremental", "seed {i}");
                assert_eq!(
                    String::from_utf8(body).unwrap(),
                    expected,
                    "seed {i}: incremental serve diverged from the offline pipeline"
                );
                incremental_serves += 1;
            }
            Err(_) => {
                // Tightening landed below feasibility; both sides must
                // agree on that too.
                assert_eq!(status, 422, "seed {i}: {}", String::from_utf8_lossy(&body));
            }
        }
    }
    assert!(
        incremental_serves > 0,
        "no problem exercised the incremental path — tighten logic is dead"
    );

    // The serves above are visible on the metrics surface.
    let (status, _, metrics) = {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let split = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let head = String::from_utf8_lossy(&raw[..split]).into_owned();
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap();
        (
            status,
            head,
            String::from_utf8_lossy(&raw[split + 4..]).into_owned(),
        )
    };
    assert_eq!(status, 200);
    let line = metrics
        .lines()
        .find(|l| l.starts_with("pas_server_cache_events_total{kind=\"incremental\"}"))
        .expect("incremental cache-event family");
    let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(count, incremental_serves, "{line}");

    handle.shutdown();
    join.join().unwrap();
}
