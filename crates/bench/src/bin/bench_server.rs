//! Replay load bench for the `pas-server` daemon.
//!
//! Boots an in-process server on a loopback port, replays a mixed
//! stream of generated problems from concurrent clients — unique
//! problems (fresh pipeline runs), verbatim repeats (exact-cache
//! hits), relaxed power envelopes over known graphs (§5.3
//! region-cache hits), and *tightened* envelopes below the cached
//! validity region (session-incremental serves, §16) — and writes
//! `BENCH_server.json`: client-side p50/p99 per serving class,
//! daemon-side p50/p99 per pipeline stage from a final `/metrics`
//! scrape, and the dimensionless cache speedups (`fresh p50 / hit
//! p50`) that `bench_gate` compares against the committed baseline.
//!
//! Clients hold HTTP/1.1 keep-alive connections by default,
//! reconnecting only when the daemon answers `Connection: close`
//! (request cap, drain). A second pass replays exact-cache hits over
//! one fresh TCP connection per request, so the file records both
//! serving modes: the `server_exact_no_keepalive` row and the
//! `server_keepalive_gain` ratio (connection-per-request p50 over
//! keep-alive p50, same run) price the handshake that connection
//! reuse stops paying. `--no-keepalive` forces the legacy
//! connection-per-request client for the whole replay.
//!
//! ```text
//! cargo run --release -p pas-bench --bin bench_server -- \
//!     [--requests 1200] [--models 40] [--clients 4] [--workers 0] \
//!     [--tasks 16] [--no-keepalive] [--out BENCH_server.json]
//! ```
//!
//! Wall-clock latencies are hardware-sensitive, but the speedup rows
//! are same-run ratios: a cold cache, a broken repertoire select, or
//! an exact-cache miss storm collapses them on any machine.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::Instant;

use pas_core::json::{self, Value};
use pas_core::PowerConstraints;
use pas_graph::units::Power;
use pas_obs::NullObserver;
use pas_sched::{PowerAwareScheduler, SchedulerConfig};
use pas_server::{Server, ServerConfig};
use pas_spec::{parse_problem, print_problem};
use pas_workload::{generate, GeneratorConfig, Topology};

/// One replayed request: which class the daemon reported serving it
/// from (`fresh`, `cache-exact`, `cache-region`, `fresh-incremental`)
/// and the client-side wall latency in microseconds.
struct Sample {
    served: String,
    micros: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A replay client: one kept-alive connection when `keep_alive`,
/// reconnecting only when the daemon says `Connection: close` (or the
/// socket goes stale between requests); one fresh connection per
/// request otherwise — the legacy mode kept behind `--no-keepalive`.
struct Client {
    addr: SocketAddr,
    keep_alive: bool,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    fn new(addr: SocketAddr, keep_alive: bool) -> Client {
        Client {
            addr,
            keep_alive,
            stream: None,
        }
    }

    /// Sends one request and returns `(status, served-header, body)`.
    /// A request attempted on a reused connection that has gone away
    /// (request cap, idle close) is retried once on a fresh one.
    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> (u16, String, String) {
        for _ in 0..2 {
            let reused = self.stream.is_some();
            let mut stream = match self.stream.take() {
                Some(stream) => stream,
                None => {
                    let raw = TcpStream::connect(self.addr).expect("connect to bench server");
                    // Kept-alive exchanges are latency-bound; Nagle +
                    // delayed ACK would stall every request.
                    let _ = raw.set_nodelay(true);
                    BufReader::new(raw)
                }
            };
            match self.try_request(&mut stream, method, target, body) {
                Ok((status, served, resp, close)) => {
                    if self.keep_alive && !close {
                        self.stream = Some(stream);
                    }
                    return (status, served, resp);
                }
                // A stale kept-alive socket surfaces as an IO error on
                // the *reused* connection only; a failure on a fresh
                // connection is a real daemon fault.
                Err(_) if reused => continue,
                Err(e) => panic!("request on a fresh connection failed: {e}"),
            }
        }
        unreachable!("second attempt always runs on a fresh connection")
    }

    fn try_request(
        &self,
        stream: &mut BufReader<TcpStream>,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, String, String, bool)> {
        let connection = if self.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        let head = format!(
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nConnection: {connection}\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        // One write for head + body: a second small write on a reused
        // socket invites a Nagle/delayed-ACK stall.
        let mut raw = head.into_bytes();
        raw.extend_from_slice(body);
        stream.get_mut().write_all(&raw)?;

        // `Content-Length`-framed read: the connection stays open for
        // the next request, so read_to_end would hang until the idle
        // timeout.
        let mut head = String::new();
        loop {
            let mut line = String::new();
            if stream.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ));
            }
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let header = |name: &str| {
            head.lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
                .map(|(_, v)| v.trim().to_string())
        };
        let served = header("x-pas-served").unwrap_or_default();
        let close = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .expect("content length");
        let mut resp = vec![0u8; length];
        stream.read_exact(&mut resp)?;
        Ok((
            status,
            served,
            String::from_utf8_lossy(&resp).into_owned(),
            close,
        ))
    }
}

/// One-shot request on its own connection, for control-plane calls
/// (warm-up, `/metrics`, `/shutdown`).
fn http(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> (u16, String, String) {
    Client::new(addr, false).request(method, target, body)
}

fn problem_text(seed: u64, tasks: usize) -> String {
    let problem = generate(&GeneratorConfig {
        seed,
        tasks,
        resources: 4,
        topology: Topology::Layered { layers: 3 },
        ..GeneratorConfig::default()
    });
    print_problem(&problem)
}

/// The same constraint graph under a relaxed power envelope: the
/// request shape the §5.3 region cache exists for.
fn relaxed_envelope(source: &str, extra_watts: u32) -> String {
    let mut problem = parse_problem(source).expect("reparse base problem");
    let constraints = problem.constraints();
    problem.set_constraints(PowerConstraints::new(
        constraints
            .p_max()
            .saturating_add(Power::from_watts(extra_watts as i64)),
        constraints.p_min(),
    ));
    print_problem(&problem)
}

/// The same constraint graph *tightened* below a cached schedule's
/// validity floor: a repertoire miss on a known graph — the request
/// shape the §16 session-incremental path exists for. `floor_mw` is
/// the cached schedule's `min_p_max_mw`; `step` walks the envelope
/// further down so replayed requests stay textually distinct.
fn tightened_envelope(source: &str, floor_mw: u64, step: u64) -> String {
    let mut problem = parse_problem(source).expect("reparse base problem");
    let p_max = Power::from_watts_milli(floor_mw as i64 - 1 - step as i64);
    let p_min = problem.constraints().p_min().min(p_max);
    problem.set_constraints(PowerConstraints::new(p_max, p_min));
    print_problem(&problem)
}

/// Per-stage `(stage, value)` samples of one gauge family in a
/// Prometheus scrape, e.g. `pas_server_stage_p50_microseconds`.
fn stage_samples(scrape: &str, family: &str) -> Vec<(String, f64)> {
    let marker = format!("{family}{{stage=\"");
    scrape
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(marker.as_str())?;
            let (stage, rest) = rest.split_once('"')?;
            let value: f64 = rest.trim_start_matches('}').trim().parse().ok()?;
            Some((stage.to_string(), value))
        })
        .collect()
}

/// A base model admitted to the tightened-envelope class: its source
/// text and the validity floor reported when it was warmed.
#[derive(Clone)]
struct IncrementalModel {
    source: String,
    floor_mw: u64,
}

struct Knobs {
    requests: usize,
    models: usize,
    clients: usize,
    workers: usize,
    tasks: usize,
    keep_alive: bool,
    out: String,
}

/// Replays `requests` requests from `knobs.clients` concurrent
/// clients, each walking a stride-disjoint slice of the index space.
fn replay(
    addr: SocketAddr,
    keep_alive: bool,
    requests: usize,
    knobs: &Knobs,
    base: &[String],
    incremental: &[IncrementalModel],
    seed_base: u64,
) -> Result<(Vec<Sample>, f64), String> {
    let start = Instant::now();
    let mut threads = Vec::new();
    for c in 0..knobs.clients {
        let base = base.to_vec();
        let incremental = incremental.to_vec();
        let (clients, tasks) = (knobs.clients, knobs.tasks);
        let thread = std::thread::spawn(move || -> Result<Vec<Sample>, String> {
            let mut client = Client::new(addr, keep_alive);
            let mut samples = Vec::new();
            let mut i = c;
            while i < requests {
                // Index i decides the traffic class; the daemon's
                // X-Pas-Served header decides the bucket the latency
                // lands in, so misclassified intents can't skew a
                // class.
                let body: String = match i % 4 {
                    0 => problem_text(seed_base + i as u64, tasks),
                    1 => base[i % base.len()].clone(),
                    2 => relaxed_envelope(&base[i % base.len()], 10 + (i % 997) as u32),
                    _ => {
                        let idx = i / 4;
                        let model = &incremental[idx % incremental.len()];
                        tightened_envelope(
                            &model.source,
                            model.floor_mw,
                            (idx / incremental.len()) as u64,
                        )
                    }
                };
                let t = Instant::now();
                let (status, served, resp) = client.request("POST", "/schedule", body.as_bytes());
                if status != 200 {
                    return Err(format!("replay request {i} failed ({status}): {resp}"));
                }
                samples.push(Sample {
                    served,
                    micros: t.elapsed().as_micros() as u64,
                });
                i += clients;
            }
            Ok(samples)
        });
        threads.push(thread);
    }
    let mut samples = Vec::new();
    for thread in threads {
        match thread.join() {
            Ok(Ok(batch)) => samples.extend(batch),
            Ok(Err(e)) => return Err(e),
            Err(_) => return Err("client thread panicked".into()),
        }
    }
    Ok((samples, start.elapsed().as_secs_f64()))
}

/// Everything between boot and shutdown: warm-up, the keep-alive
/// replay, the reconnect-per-request pass, and the metrics scrape.
/// Factored out so `run` owns exactly one shutdown-and-join on both
/// the success and the failure path.
struct Driven {
    samples: Vec<Sample>,
    replay_secs: f64,
    reconnect_samples: Vec<Sample>,
    scrape: String,
    warmed: usize,
}

fn drive(addr: SocketAddr, knobs: &Knobs) -> Result<Driven, String> {
    // Warm phase: every base model runs the pipeline once, so its
    // exact entry and repertoire session exist before replay starts.
    // The fresh response's validity floor decides whether the model
    // can also carry tightened-envelope (session-incremental)
    // traffic: the deepest tightening the replay could reach must
    // still be offline-feasible, or the daemon would answer 422.
    let offline = PowerAwareScheduler::new(SchedulerConfig::default());
    let deepest_step = (knobs.requests / 4) as u64; // all class-3 hits on one model
    let base: Vec<String> = (0..knobs.models)
        .map(|i| problem_text(1000 + i as u64, knobs.tasks))
        .collect();
    let mut incremental = Vec::new();
    for source in &base {
        let (status, served, body) = http(addr, "POST", "/schedule", source.as_bytes());
        if status != 200 {
            return Err(format!("warm-up request failed ({status}): {body}"));
        }
        if served != "fresh" {
            return Err(format!("warm-up served {served:?}, expected a fresh run"));
        }
        let doc =
            json::parse(&body).map_err(|e| format!("warm-up reply is not JSON ({e}): {body}"))?;
        let floor = doc
            .get("region")
            .and_then(|region| region.get("min_p_max_mw"));
        let Some(floor_mw) = floor
            .and_then(Value::as_i128)
            .and_then(|mw| u64::try_from(mw).ok())
        else {
            return Err(format!("fresh response lost its region: {body}"));
        };
        if floor_mw <= deepest_step + 1 {
            continue; // tightening would cross zero power
        }
        let tightened = tightened_envelope(source, floor_mw, deepest_step);
        let mut probe = parse_problem(&tightened).expect("reparse tightened problem");
        if offline.schedule_with(&mut probe, &mut NullObserver).is_ok() {
            incremental.push(IncrementalModel {
                source: source.clone(),
                floor_mw,
            });
        }
    }
    if incremental.is_empty() {
        return Err("no base model survives tightening; raise --tasks or --models".into());
    }
    println!(
        "warmed {} models; {} admit tightened-envelope traffic",
        knobs.models,
        incremental.len()
    );

    let (samples, replay_secs) = replay(
        addr,
        knobs.keep_alive,
        knobs.requests,
        knobs,
        &base,
        &incremental,
        50_000,
    )?;

    // Mode pass: the same traffic mix, one fresh TCP connection per
    // request. Its exact-cache row against the keep-alive exact row
    // prices the handshake connection reuse stops paying.
    let reconnect_requests = (knobs.requests / 2).max(knobs.clients * 4);
    let (reconnect_samples, _) = replay(
        addr,
        false,
        reconnect_requests,
        knobs,
        &base,
        &incremental,
        70_000,
    )?;

    // Daemon-side per-stage quantiles, scraped before shutdown.
    let (status, _, scrape) = http(addr, "GET", "/metrics", b"");
    if status != 200 {
        return Err(format!("/metrics scrape failed ({status})"));
    }
    Ok(Driven {
        samples,
        replay_secs,
        reconnect_samples,
        scrape,
        warmed: base.len(),
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let mut knobs = Knobs {
        requests: 1200,
        models: 40,
        clients: 4,
        workers: 0,
        tasks: 16,
        keep_alive: true,
        out: "BENCH_server.json".to_string(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--requests" => {
                knobs.requests = value("--requests")?.parse().map_err(|e| format!("{e}"))?
            }
            "--models" => knobs.models = value("--models")?.parse().map_err(|e| format!("{e}"))?,
            "--clients" => {
                knobs.clients = value("--clients")?.parse().map_err(|e| format!("{e}"))?
            }
            "--workers" => {
                knobs.workers = value("--workers")?.parse().map_err(|e| format!("{e}"))?
            }
            "--tasks" => knobs.tasks = value("--tasks")?.parse().map_err(|e| format!("{e}"))?,
            "--no-keepalive" => knobs.keep_alive = false,
            "--out" => knobs.out = value("--out")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    knobs.models = knobs.models.max(1);
    knobs.clients = knobs.clients.max(1);

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: knobs.workers,
        // The unique-problem class floods the FIFO session cache; at
        // the default cap it would evict the warm base sessions and
        // the bench would measure eviction, not the serving classes.
        session_cap: knobs.requests.max(256),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
    let addr = handle.addr();
    let server_thread = std::thread::spawn(move || server.run());

    println!(
        "bench_server: daemon on {addr}, {} requests, {} models, {} client(s), keep-alive {}",
        knobs.requests,
        knobs.models,
        knobs.clients,
        if knobs.keep_alive { "on" } else { "off" }
    );

    let driven = drive(addr, &knobs);
    let report = {
        let shutdown = match &driven {
            // The driver already failed; tear the daemon down hard.
            Err(_) => {
                handle.shutdown();
                true
            }
            Ok(_) => {
                let (status, _, _) = http(addr, "POST", "/shutdown", b"");
                status == 200
            }
        };
        if !shutdown {
            handle.shutdown();
        }
        server_thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server run: {e}"))?
    };
    let Driven {
        samples,
        replay_secs,
        reconnect_samples,
        scrape,
        warmed,
    } = driven?;

    let stage_p50 = stage_samples(&scrape, "pas_server_stage_p50_microseconds");
    let stage_p99 = stage_samples(&scrape, "pas_server_stage_p99_microseconds");

    // Client-side latency per serving class.
    let class = |pool: &[Sample], name: &str| -> Vec<u64> {
        let mut v: Vec<u64> = pool
            .iter()
            .filter(|s| s.served == name)
            .map(|s| s.micros)
            .collect();
        v.sort_unstable();
        v
    };
    let fresh = class(&samples, "fresh");
    let exact = class(&samples, "cache-exact");
    let region = class(&samples, "cache-region");
    let incr = class(&samples, "fresh-incremental");
    let exact_reconnect = class(&reconnect_samples, "cache-exact");
    let fresh_p50 = percentile(&fresh, 0.50).max(1);
    let exact_p50 = percentile(&exact, 0.50).max(1);

    let mut rows = Vec::new();
    let mut push_row = |name: &str, lat: &[u64], speedup: f64| {
        let p50 = percentile(lat, 0.50).max(1);
        println!(
            "{name:<26} n={:<5} p50={:>8} us  p99={:>8} us  speedup={speedup:.2}x",
            lat.len(),
            p50,
            percentile(lat, 0.99),
        );
        rows.push(format!(
            "    {{\"workload\": \"{name}\", \"requests\": {}, \"p50_us\": {}, \"p99_us\": {}, \"speedup\": {:.4}}}",
            lat.len(),
            p50,
            percentile(lat, 0.99),
            speedup,
        ));
    };
    for (name, lat) in [
        ("server_fresh", &fresh),
        ("server_exact_cache", &exact),
        ("server_region_cache", &region),
        ("server_incremental", &incr),
        ("server_exact_no_keepalive", &exact_reconnect),
    ] {
        if lat.is_empty() {
            return Err(format!("traffic mix produced no {name} samples"));
        }
        let p50 = percentile(lat, 0.50).max(1);
        push_row(name, lat, fresh_p50 as f64 / p50 as f64);
    }
    // The keep-alive gain as its own dimensionless row: p50 of an
    // exact-cache hit paying a TCP handshake over p50 of the same hit
    // on a reused connection, same run. Pinned to 1.0 under
    // --no-keepalive, where both passes reconnect per request.
    let reconnect_p50 = percentile(&exact_reconnect, 0.50).max(1);
    push_row(
        "server_keepalive_gain",
        &exact_reconnect,
        if knobs.keep_alive {
            reconnect_p50 as f64 / exact_p50 as f64
        } else {
            1.0
        },
    );

    let mut stage_lines = Vec::new();
    for (stage, p50) in &stage_p50 {
        let p99 = stage_p99
            .iter()
            .find(|(s, _)| s == stage)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        stage_lines.push(format!(
            "    {{\"stage\": \"{stage}\", \"p50_us\": {p50:.1}, \"p99_us\": {p99:.1}}}"
        ));
    }

    let total = samples.len() + reconnect_samples.len() + warmed;
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"server\",\n  {},\n  \"requests\": {},\n",
            "  \"clients\": {},\n  \"keep_alive\": {},\n  \"server_jobs\": {},\n",
            "  \"sheds\": {},\n",
            "  \"throughput_rps\": {:.1},\n",
            "  \"speedup_model\": \"client p50 of fresh runs over client p50 of \
             this serving class, same run; server_keepalive_gain is \
             reconnect-per-request p50 over keep-alive p50 of the same \
             exact-cache hit\",\n",
            "  \"stages\": [\n{}\n  ],\n  \"results\": [\n{}\n  ]\n}}\n"
        ),
        pas_bench::provenance_json(),
        total,
        knobs.clients,
        knobs.keep_alive,
        report.pool_jobs,
        report.sheds,
        samples.len() as f64 / replay_secs.max(1e-9),
        stage_lines.join(",\n"),
        rows.join(",\n"),
    );
    std::fs::write(&knobs.out, &json).map_err(|e| format!("cannot write {}: {e}", knobs.out))?;
    println!(
        "replayed {total} requests in {replay_secs:.1}s ({:.0} req/s); wrote {}",
        samples.len() as f64 / replay_secs.max(1e-9),
        knobs.out
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_server: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 0.5), 30);
        assert_eq!(percentile(&v, 1.0), 50);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn stage_samples_parse_labeled_gauges() {
        let scrape = "# TYPE pas_server_stage_p50_microseconds gauge\n\
                      pas_server_stage_p50_microseconds{stage=\"parse\"} 12\n\
                      pas_server_stage_p50_microseconds{stage=\"total\"} 340.5\n\
                      pas_server_other{stage=\"parse\"} 9\n";
        let samples = stage_samples(scrape, "pas_server_stage_p50_microseconds");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0], ("parse".to_string(), 12.0));
        assert_eq!(samples[1].1, 340.5);
    }

    #[test]
    fn tightened_envelope_lands_below_the_floor() {
        let source = problem_text(7, 12);
        let tightened = tightened_envelope(&source, 4_000, 25);
        let problem = parse_problem(&tightened).unwrap();
        assert_eq!(
            problem.constraints().p_max().as_milliwatts(),
            4_000 - 1 - 25
        );
        assert!(problem.constraints().p_min() <= problem.constraints().p_max());
    }
}
