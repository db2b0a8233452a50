//! The daemon workload: `serve_mix`.
//!
//! An in-process `pas-server` with its default config is driven in a
//! closed loop by keep-alive callers, at most one per pool worker. The
//! run is a series of epochs. Each epoch binds a fresh daemon and warms
//! it with the workload's known graphs over one connection (the
//! set-up), closes that connection, then lets every caller replay its
//! own fixed request sequence:
//!
//! * exact repeats of a known graph (served `cache-exact`);
//! * the known graph under relaxed envelopes (§5.3, `cache-region`);
//! * the known graph tightened just below its cached schedule's peak
//!   (`fresh-incremental`, through the session's warm engine);
//! * new graphs (`fresh`), inserted into the cache beside the reads.
//!
//! An epoch's requests are fixed whatever the host; only how they are
//! split across callers follows its cores. Callers never share a graph,
//! and an epoch inserts far fewer entries than the cache's FIFO caps, so
//! every request's serving class is fixed by the sequence alone: a
//! response in any other class counts as a failure. Latency is
//! client-side; percentiles are taken over per-request medians across
//! epochs.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use pas_core::{analyze, is_power_valid, is_time_valid, PowerConstraints, Problem};
use pas_graph::units::Power;
use pas_sched::{PowerAwareScheduler, SchedulerConfig, ValidityRegion};
use pas_server::cache::fnv1a64;
use pas_server::{Server, ServerConfig};
use pas_spec::{parse_problem, parse_schedule, print_problem, print_schedule};
use pas_workload::{generate, GeneratorConfig};

use crate::layers::{LayerObserver, Span};
use crate::report::{Report, Unit};
use crate::stats::{
    median, per_problem_medians, percentile, permutation, rate_at_medians, splitmix64,
    tail_percentile,
};
use crate::{Args, RunError};

/// Known graphs per epoch, warmed in every set-up and split across the
/// callers. With one new graph per known graph an epoch opens 128
/// sessions and at most 192 exact entries on any host: half the
/// daemon's default session cap and under its exact-entry cap, so
/// neither FIFO evicts.
const KNOWN: usize = 64;
/// Most callers. Below it there is one per core, so callers never
/// outnumber the daemon's pool workers; at it each caller still sends
/// the requests of eight known graphs.
const MAX_CALLERS: usize = 8;
/// Requests per known graph and epoch: `EXACT_REPEATS` exact repeats,
/// `RELAXED` relaxed envelopes, one tightened envelope and one new
/// graph. The repository's `bench_server` sends these four classes
/// 1:1:1:1, which makes hits exactly half the requests and puts the p50
/// on the edge between a 0.3 ms hit and a 2 ms pipeline run. Doubling
/// both hit classes (2:2:1:1) keeps each pair of classes equal, as
/// there, and makes hits two thirds of the requests, so the p50 is the
/// hits' own p75.
const EXACT_REPEATS: usize = 2;
/// Relaxed envelopes of each known graph per epoch.
const RELAXED: usize = 2;
/// Tasks per generated graph.
const TASKS: usize = 32;
/// Epochs at least, even when `--seconds` is short.
const MIN_EPOCHS: usize = 3;
/// Backtrack budget of the timing-only run that screens drawn graphs.
const PROBE_BACKTRACKS: usize = 200;
/// Most graphs drawn while building the inputs.
const MAX_DRAWS: usize = 1_000;
/// Each class must make up at least this share of its intended count.
const CLASS_FLOOR: f64 = 0.9;

/// The daemon's serving classes, as its `X-Pas-Served` header names
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Class {
    Exact,
    Region,
    Fresh,
    Incremental,
}

impl Class {
    const ALL: [Class; 4] = [
        Class::Exact,
        Class::Region,
        Class::Fresh,
        Class::Incremental,
    ];

    fn header(self) -> &'static str {
        match self {
            Class::Exact => "cache-exact",
            Class::Region => "cache-region",
            Class::Fresh => "fresh",
            Class::Incremental => "fresh-incremental",
        }
    }

    fn of_header(value: &str) -> Option<Class> {
        Class::ALL.into_iter().find(|c| c.header() == value)
    }
}

/// One request of a caller's sequence.
#[derive(Debug, Clone)]
struct Request {
    body: String,
    intended: Class,
}

/// What a caller saw for one request.
#[derive(Debug, Clone)]
struct Sample {
    micros: f64,
    status: u16,
    served: Option<Class>,
    body_hash: u64,
}

/// A minimal HTTP/1.1 keep-alive client. It opens a connection lazily
/// and reconnects only after the daemon answers `Connection: close`
/// (its per-connection request cap); it never retries a request.
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Connections opened so far.
    pub connects: u64,
}

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// `X-Pas-Served`, if present.
    pub served: Option<String>,
    /// Whether the server closes the connection after this response.
    pub close: bool,
    /// The body.
    pub body: Vec<u8>,
}

impl Client {
    /// A client for `addr` with no connection open yet.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            connects: 0,
        }
    }

    /// Sends `POST target` with `body` and reads the response.
    pub fn post(&mut self, target: &str, body: &[u8]) -> std::io::Result<Response> {
        let mut stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                let raw = TcpStream::connect(self.addr)?;
                // Latency-bound request/response: Nagle plus delayed
                // ACK would stall every exchange.
                raw.set_nodelay(true)?;
                self.connects += 1;
                BufReader::new(raw)
            }
        };
        let mut request = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body);
        stream.get_mut().write_all(&request)?;
        let response = read_response(&mut stream)?;
        if !response.close {
            self.stream = Some(stream);
        }
        Ok(response)
    }
}

fn read_response(stream: &mut BufReader<TcpStream>) -> std::io::Result<Response> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut head = Vec::new();
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
        head.push(line.trim_end().to_string());
    }
    let status = head
        .first()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let header = |name: &str| {
        head.iter()
            .skip(1)
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim().to_string())
    };
    let length: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("no content length"))?;
    if length > 64 << 20 {
        return Err(bad("response body over 64 MiB"));
    }
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body)?;
    Ok(Response {
        status,
        served: header("x-pas-served"),
        close: header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")),
        body,
    })
}

/// The offline pipeline's answer for one request text.
struct Reference {
    /// `print_schedule` of the offline schedule, as the daemon prints
    /// fresh responses.
    pasdl: String,
    /// Whether the offline schedule passes the validity oracle against
    /// the problem as parsed. Responses matched against an invalid
    /// reference fail their check.
    valid: bool,
    /// The problem as parsed from the request (before scheduling).
    problem: Problem,
    /// Peak power of the offline schedule: the validity floor the
    /// daemon's region cache records for it.
    floor: Power,
    stretch: f64,
    energy_cost_mj: i64,
    total_energy_mj: i64,
    utilization: f64,
}

/// Runs the offline pipeline on `text`; `None` when it does not parse or
/// schedule, or when its first timing search needs more than
/// [`PROBE_BACKTRACKS`] (a search that could outlast the run).
fn reference(text: &str) -> Option<Reference> {
    let original = parse_problem(text).ok()?;
    PowerAwareScheduler::new(SchedulerConfig {
        max_backtracks: PROBE_BACKTRACKS,
        ..SchedulerConfig::default()
    })
    .schedule_timing_only(&mut original.clone())
    .ok()?;
    let mut problem = original.clone();
    let outcome = PowerAwareScheduler::default().schedule(&mut problem).ok()?;
    let pasdl = print_schedule(
        &format!("{}-min", problem.name()),
        &problem,
        &outcome.schedule,
    );
    let analysis = analyze(&original, &outcome.schedule);
    let bound = crate::plan::timing_lower_bound(&original)?;
    Some(Reference {
        floor: ValidityRegion::of(
            problem.graph(),
            &outcome.schedule,
            problem.background_power(),
        )
        .min_p_max,
        pasdl,
        valid: is_time_valid(original.graph(), &outcome.schedule)
            && is_power_valid(&original, &outcome.schedule),
        stretch: analysis.finish_time.as_secs() as f64 / bound as f64,
        energy_cost_mj: analysis.energy_cost.as_millijoules(),
        total_energy_mj: analysis.total_energy.as_millijoules(),
        utilization: analysis.utilization.to_f64(),
        problem: original,
    })
}

fn with_envelope(problem: &Problem, p_max: Power, p_min: Power) -> String {
    let mut problem = problem.clone();
    problem.set_constraints(PowerConstraints::new(p_max, p_min.min(p_max)));
    print_problem(&problem)
}

/// The inputs of one run: every caller's request sequence, the known
/// texts warmed in set-up, and the offline reference of every text.
struct Inputs {
    known: Vec<String>,
    sequences: Vec<Vec<Request>>,
    references: HashMap<String, Reference>,
}

/// Draws [`KNOWN`] known graphs from the seed (each schedulable both as
/// drawn and tightened below its schedule's peak), then as many new
/// graphs (schedulable as drawn), and deals each known graph's requests
/// and one new graph to caller `i % callers`. The draws do not depend
/// on `callers`.
fn inputs(seed: u64, callers: usize) -> Result<Inputs, RunError> {
    let mut state = seed;
    let mut draws = 0;
    let mut draw = || {
        draws += 1;
        if draws > MAX_DRAWS {
            return Err(RunError("too few schedulable graphs drawn".into()));
        }
        Ok(print_problem(&generate(&GeneratorConfig {
            seed: splitmix64(&mut state),
            tasks: TASKS,
            ..GeneratorConfig::default()
        })))
    };
    let mut references = HashMap::new();
    let mut known: Vec<(String, String)> = Vec::new();
    while known.len() < KNOWN {
        let text = draw()?;
        let Some(base) = reference(&text) else {
            continue;
        };
        let tightened = with_envelope(
            &base.problem,
            Power::from_watts_milli(base.floor.as_milliwatts() - 1),
            base.problem.constraints().p_min(),
        );
        let Some(tight) = reference(&tightened) else {
            continue;
        };
        references.insert(tightened.clone(), tight);
        references.insert(text.clone(), base);
        known.push((text, tightened));
    }
    let mut fresh = Vec::new();
    while fresh.len() < KNOWN {
        let text = draw()?;
        if references.contains_key(&text) {
            continue;
        }
        let Some(r) = reference(&text) else {
            continue;
        };
        references.insert(text.clone(), r);
        fresh.push(text);
    }

    let mut requests: Vec<Vec<Request>> = vec![Vec::new(); callers];
    for (i, ((text, tightened), new)) in known.iter().zip(fresh).enumerate() {
        let requests = &mut requests[i % callers];
        let problem = &references[text].problem;
        let constraints = problem.constraints();
        for _ in 0..EXACT_REPEATS {
            requests.push(Request {
                body: text.clone(),
                intended: Class::Exact,
            });
        }
        for j in 1..=RELAXED {
            let relaxed = with_envelope(
                problem,
                constraints
                    .p_max()
                    .saturating_add(Power::from_watts(j as i64)),
                constraints.p_min(),
            );
            requests.push(Request {
                body: relaxed,
                intended: Class::Region,
            });
        }
        requests.push(Request {
            body: tightened.clone(),
            intended: Class::Incremental,
        });
        requests.push(Request {
            body: new,
            intended: Class::Fresh,
        });
    }
    let sequences = requests
        .into_iter()
        .enumerate()
        .map(|(caller, requests)| {
            let order = permutation(
                requests.len(),
                seed ^ (caller as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
            );
            order.into_iter().map(|i| requests[i].clone()).collect()
        })
        .collect();
    Ok(Inputs {
        known: known.into_iter().map(|(text, _)| text).collect(),
        sequences,
        references,
    })
}

/// Region-serve bodies one caller kept, by `(position, body hash)`.
type Bodies = HashMap<(usize, u64), Vec<u8>>;

/// One epoch: set-up time, traffic wall time, every caller's samples,
/// and the daemon's shed count.
struct Epoch {
    setup: f64,
    traffic: f64,
    samples: Vec<Vec<Sample>>,
    sheds: u64,
}

fn epoch(inputs: &Inputs, kept: &mut [Bodies]) -> Result<Epoch, RunError> {
    let io = |e: std::io::Error| RunError(format!("daemon: {e}"));
    let started = Instant::now();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .map_err(io)?;
    let addr = server.local_addr().map_err(io)?;
    let handle = server.handle().map_err(io)?;
    let daemon = std::thread::spawn(move || server.run());
    let result = drive(inputs, kept, addr, started);
    handle.shutdown();
    let report = daemon
        .join()
        .map_err(|_| RunError("daemon thread panicked".into()))?
        .map_err(io)?;
    let (setup, traffic, samples) = result?;
    Ok(Epoch {
        setup,
        traffic,
        samples,
        sheds: report.sheds,
    })
}

type Driven = (f64, f64, Vec<Vec<Sample>>);

/// Warms the daemon over one connection, closes it, then runs every
/// caller's sequence concurrently.
fn drive(
    inputs: &Inputs,
    kept: &mut [Bodies],
    addr: SocketAddr,
    started: Instant,
) -> Result<Driven, RunError> {
    {
        let mut warm = Client::new(addr);
        for text in &inputs.known {
            let response = warm
                .post("/schedule?format=pasdl", text.as_bytes())
                .map_err(|e| RunError(format!("warm-up: {e}")))?;
            if response.status != 200 || response.served.as_deref() != Some("fresh") {
                return Err(RunError(format!(
                    "warm-up answered {} {:?}",
                    response.status, response.served
                )));
            }
        }
        // Dropping the client closes the warm-up connection, releasing
        // the pool worker it held before the callers connect.
    }
    let setup = started.elapsed().as_secs_f64();
    let traffic_start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let callers: Vec<_> = inputs
            .sequences
            .iter()
            .zip(kept.iter_mut())
            .map(|(sequence, kept)| scope.spawn(move || caller(addr, sequence, kept)))
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller thread"))
            .collect::<Vec<_>>()
    });
    Ok((setup, traffic_start.elapsed().as_secs_f64(), samples))
}

/// Replays one caller's sequence. Region-serve bodies are kept once per
/// distinct `(position, hash)` for the checks; every other body is
/// checked by hash.
fn caller(addr: SocketAddr, sequence: &[Request], kept: &mut Bodies) -> Vec<Sample> {
    let mut client = Client::new(addr);
    sequence
        .iter()
        .enumerate()
        .map(|(position, request)| {
            let started = Instant::now();
            let response = client.post("/schedule?format=pasdl", request.body.as_bytes());
            let micros = started.elapsed().as_secs_f64() * 1e6;
            match response {
                Ok(r) => {
                    let body_hash = fnv1a64(&r.body);
                    if request.intended == Class::Region {
                        kept.entry((position, body_hash)).or_insert(r.body);
                    }
                    Sample {
                        micros,
                        status: r.status,
                        served: r.served.as_deref().and_then(Class::of_header),
                        body_hash,
                    }
                }
                Err(_) => {
                    client = Client::new(addr);
                    Sample {
                        micros,
                        status: 0,
                        served: None,
                        body_hash: 0,
                    }
                }
            }
        })
        .collect()
}

/// Checks one response against the offline reference: byte-equal to a
/// valid offline schedule for exact, fresh and incremental serves,
/// valid under the request's own envelope for region serves.
fn response_ok(request: &Request, sample: &Sample, body: Option<&str>, inputs: &Inputs) -> bool {
    if sample.status != 200 || sample.served != Some(request.intended) {
        return false;
    }
    match request.intended {
        Class::Region => {
            let (Some(body), Ok(problem)) = (body, parse_problem(&request.body)) else {
                return false;
            };
            parse_schedule(body, &problem).is_ok_and(|(_, schedule)| {
                is_time_valid(problem.graph(), &schedule) && is_power_valid(&problem, &schedule)
            })
        }
        _ => inputs
            .references
            .get(&request.body)
            .is_some_and(|r| r.valid && fnv1a64(r.pasdl.as_bytes()) == sample.body_hash),
    }
}

/// Runs `serve_mix` and fills `report`.
pub fn run(args: &Args, report: &mut Report) -> Result<(), RunError> {
    let callers = pas_bench::host_cores().clamp(1, MAX_CALLERS);
    let inputs = inputs(args.seed, callers)?;
    let per_epoch: usize = inputs.sequences.iter().map(Vec::len).sum();

    // Untimed warm-up epoch, then timed epochs.
    let mut kept: Vec<Bodies> = vec![Bodies::new(); callers];
    epoch(&inputs, &mut kept)?;
    let mut epochs = Vec::new();
    let mut traffic = 0.0;
    while epochs.len() < MIN_EPOCHS || traffic < args.seconds {
        let e = epoch(&inputs, &mut kept)?;
        traffic += e.traffic;
        epochs.push(e);
    }

    // Checks, outside the timed phase: region serves by content, the
    // other classes by hash against the offline reference.
    let flat: Vec<&Request> = inputs.sequences.iter().flatten().collect();
    let offsets: Vec<usize> = inputs
        .sequences
        .iter()
        .scan(0, |start, seq| {
            let offset = *start;
            *start += seq.len();
            Some(offset)
        })
        .collect();
    let mut failed = 0u64;
    let mut tallies: HashMap<Class, u64> = HashMap::new();
    let mut checked: HashMap<(usize, u64, u16, Option<Class>), bool> = HashMap::new();
    for e in &epochs {
        for (c, samples) in e.samples.iter().enumerate() {
            for (position, sample) in samples.iter().enumerate() {
                let i = offsets[c] + position;
                if let Some(class) = sample.served {
                    *tallies.entry(class).or_default() += 1;
                }
                let key = (i, sample.body_hash, sample.status, sample.served);
                let ok = *checked.entry(key).or_insert_with(|| {
                    let body = kept[c]
                        .get(&(position, sample.body_hash))
                        .map(|b| String::from_utf8_lossy(b).into_owned());
                    response_ok(flat[i], sample, body.as_deref(), &inputs)
                });
                failed += u64::from(!ok);
            }
        }
    }
    let attempted = (epochs.len() * per_epoch) as u64;
    report.attempted = attempted;
    report.failed = failed;

    // Serving-class guard: every class must reach its floor.
    let n_epochs = epochs.len() as f64;
    for class in Class::ALL {
        let intended = flat.iter().filter(|r| r.intended == class).count() as f64 * n_epochs;
        let got = tallies.get(&class).copied().unwrap_or(0) as f64;
        report.note(format!(
            "class {:<18} {got:>8} responses ({:.1} per epoch, intended {:.1})",
            class.header(),
            got / n_epochs,
            intended / n_epochs
        ));
        if got < CLASS_FLOOR * intended {
            report.failed = report.failed.max(1);
            report.note(format!("class {} is under its floor", class.header()));
        }
    }

    // Latency: per-request medians across epochs.
    let passes: Vec<Vec<f64>> = epochs
        .iter()
        .map(|e| e.samples.iter().flatten().map(|s| s.micros / 1e3).collect())
        .collect();
    let medians = per_problem_medians(&passes);
    let mut sorted = medians.clone();
    sorted.sort_by(f64::total_cmp);
    let tail_q = tail_percentile(sorted.len())
        .ok_or_else(|| RunError("too few requests for a tail percentile".into()))?;
    report.note(format!(
        "{} callers, {} epochs of {per_epoch} requests; latency over {} per-request medians; tail is p{tail_q} ({} beyond)",
        callers,
        epochs.len(),
        sorted.len(),
        crate::stats::beyond(sorted.len(), tail_q)
    ));

    let fresh: Vec<&Reference> = flat
        .iter()
        .filter(|r| matches!(r.intended, Class::Fresh | Class::Incremental))
        .filter_map(|r| inputs.references.get(&r.body))
        .collect();
    let count = fresh.len().max(1) as f64;
    let setups: Vec<f64> = epochs.iter().map(|e| e.setup).collect();
    report.metric("setup_s", median(&setups), Unit::S);
    report.metric("latency_p50_ms", percentile(&sorted, 50.0), Unit::Ms);
    report.metric("latency_tail_ms", percentile(&sorted, tail_q), Unit::Ms);
    // Responses per second of the closed loop when every request takes
    // its median latency: each caller always waits on one request, so
    // the loop answers the callers over the mean per-request median
    // (Little's law). An epoch's own wall time keeps every burst of host
    // noise that lands in it; per-request medians drop them, as for the
    // percentiles. The medians are in milliseconds.
    let responses = (callers * medians.len()) as f64;
    report.metric(
        "throughput_per_s",
        rate_at_medians(responses, &medians) * 1e3,
        Unit::PerS,
    );
    report.metric(
        "solved_share",
        (attempted - failed.min(attempted)) as f64 / attempted as f64,
        Unit::Ratio,
    );
    report.metric(
        "finish_stretch",
        fresh.iter().map(|r| r.stretch).sum::<f64>() / count,
        Unit::Ratio,
    );
    report.metric(
        "quality.battery_share",
        fresh.iter().map(|r| r.energy_cost_mj).sum::<i64>() as f64
            / fresh.iter().map(|r| r.total_energy_mj).sum::<i64>().max(1) as f64,
        Unit::Ratio,
    );
    report.metric(
        "utilization_mean",
        fresh.iter().map(|r| r.utilization).sum::<f64>() / count,
        Unit::Ratio,
    );
    report.metric("run.peak_rss_mib", crate::report::peak_rss_mib(), Unit::MiB);
    report.metric(
        "run.fail_share",
        report.failed as f64 / attempted as f64,
        Unit::Ratio,
    );
    if !args.trace {
        return Ok(());
    }

    // Per-class client latency (per-request medians), cache tallies per
    // epoch, sheds, and the pipeline layers of the offline references.
    let class_p50 = |class: Class| {
        let values: Vec<f64> = medians
            .iter()
            .zip(&flat)
            .filter(|(_, r)| r.intended == class)
            .map(|(m, _)| *m)
            .collect();
        median(&values)
    };
    let per_epoch_tally =
        |class: Class| tallies.get(&class).copied().unwrap_or(0) as f64 / n_epochs;
    let hits = per_epoch_tally(Class::Exact) + per_epoch_tally(Class::Region);
    report.metric("serve.exact_ms", class_p50(Class::Exact), Unit::Ms);
    report.metric("serve.region_ms", class_p50(Class::Region), Unit::Ms);
    report.metric("serve.fresh_ms", class_p50(Class::Fresh), Unit::Ms);
    report.metric(
        "serve.incremental_ms",
        class_p50(Class::Incremental),
        Unit::Ms,
    );
    report.metric(
        "cache.exact_hits",
        per_epoch_tally(Class::Exact),
        Unit::Count,
    );
    report.metric(
        "cache.region_hits",
        per_epoch_tally(Class::Region),
        Unit::Count,
    );
    report.metric("cache.misses", per_epoch_tally(Class::Fresh), Unit::Count);
    report.metric(
        "cache.incremental",
        per_epoch_tally(Class::Incremental),
        Unit::Count,
    );
    report.metric("cache.hit_ratio", hits / per_epoch as f64, Unit::Ratio);
    report.metric(
        "server.sheds",
        epochs.iter().map(|e| e.sheds).sum::<u64>() as f64 / n_epochs,
        Unit::Count,
    );
    // Pipeline layers: the texts the daemon schedules in the timed
    // traffic (fresh and tightened), run offline with the layer
    // observer, once per epoch's worth; the same computations the
    // daemon makes. The benchmark's tracing overhead is those runs
    // against an untraced rerun of the same texts.
    let scheduled: Vec<&str> = flat
        .iter()
        .filter(|r| matches!(r.intended, Class::Fresh | Class::Incremental))
        .map(|r| r.body.as_str())
        .collect();
    let parse = |text: &str| parse_problem(text).map_err(|e| RunError(format!("parse: {e}")));
    let mut layers = LayerObserver::default();
    let mut untraced = Span::default();
    let mut analyze_span = Span::default();
    let mut pipeline = Vec::new();
    for text in &scheduled {
        let problem = parse(text)?;
        untraced.time(|| {
            PowerAwareScheduler::default()
                .schedule(&mut problem.clone())
                .is_ok()
        });
        layers.begin_call();
        let outcome =
            PowerAwareScheduler::default().schedule_with(&mut problem.clone(), &mut layers);
        layers.end_call();
        if let Ok(outcome) = outcome {
            analyze_span.time(|| analyze(&problem, &outcome.schedule));
        }
        pipeline.push(problem);
    }
    crate::plan::pipeline_layers(report, &layers, 1.0);
    crate::plan::timing_layer(report, &pipeline);
    // The spec layer over every distinct request body the callers send.
    let mut parse_span = Span::default();
    let mut bodies: Vec<&str> = flat.iter().map(|r| r.body.as_str()).collect();
    bodies.sort_unstable();
    bodies.dedup();
    for body in bodies {
        parse_span.time(|| parse(body))?;
    }
    report.metric("verdict.skipped", 0.0, Unit::Count);
    report.metric("verdict.giveup_ms", 0.0, Unit::Ms);
    report.metric("spec.parse_ms", parse_span.mean_ms(), Unit::Ms);
    report.metric("core.analyze_ms", analyze_span.mean_ms(), Unit::Ms);
    let traced_ms = layers.call_time.as_secs_f64() * 1e3 / layers.calls.max(1) as f64;
    report.metric(
        "trace.overhead_ratio",
        traced_ms / untraced.mean_ms(),
        Unit::Ratio,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-request-per-connection server: answers every request with
    /// `Connection: close` and closes, like the daemon at its cap.
    #[test]
    fn client_reconnects_after_connection_close() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            for n in 0..3 {
                let (stream, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(stream);
                let mut length = 0usize;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("read");
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().expect("length");
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).expect("body");
                let reply = format!("reply {n}");
                let head = format!(
                    "HTTP/1.1 200 OK\r\nConnection: close\r\nX-Pas-Served: fresh\r\nContent-Length: {}\r\n\r\n{reply}",
                    reply.len()
                );
                reader.get_mut().write_all(head.as_bytes()).expect("write");
            }
        });
        let mut client = Client::new(addr);
        for n in 0..3 {
            let response = client.post("/schedule", b"problem").expect("request");
            assert_eq!(response.status, 200);
            assert!(response.close);
            assert_eq!(response.served.as_deref(), Some("fresh"));
            assert_eq!(response.body, format!("reply {n}").into_bytes());
        }
        assert_eq!(client.connects, 3, "one connection per closed exchange");
        server.join().expect("server thread");
    }

    #[test]
    fn an_epoch_is_the_same_on_any_host_and_never_evicts() {
        let requests = |callers: usize| {
            let inputs = inputs(1, callers).expect("inputs");
            assert_eq!(inputs.sequences.len(), callers);
            let mut all: Vec<(String, Class)> = inputs
                .sequences
                .iter()
                .flatten()
                .map(|r| (r.body.clone(), r.intended))
                .collect();
            all.sort();
            all
        };
        let one = requests(1);
        assert_eq!(one.len(), KNOWN * (EXACT_REPEATS + RELAXED + 2));
        for callers in [2, 3, MAX_CALLERS] {
            assert_eq!(requests(callers), one, "{callers} callers");
        }
        // Each known and each new graph opens one session; each fresh or
        // incremental serve inserts one exact entry.
        let distinct = |classes: &[Class]| {
            let mut bodies: Vec<&str> = one
                .iter()
                .filter(|(_, c)| classes.contains(c))
                .map(|(b, _)| b.as_str())
                .collect();
            bodies.dedup();
            bodies.len()
        };
        let cap = ServerConfig::default().session_cap;
        assert!(2 * distinct(&[Class::Exact, Class::Fresh]) <= cap);
        assert!(distinct(&[Class::Exact, Class::Fresh, Class::Incremental]) <= 4 * cap);
    }

    #[test]
    fn classes_round_trip_through_the_header() {
        for class in Class::ALL {
            assert_eq!(Class::of_header(class.header()), Some(class));
        }
        assert_eq!(Class::of_header("cache"), None);
    }
}
