//! The live-operations subcommands: `serve` (run the daemon) and
//! `top` (poll `/metrics` + `/slowlog` into a terminal dashboard).
//!
//! `top` speaks plain HTTP over `TcpStream` and consumes exactly what
//! a Prometheus scraper would: every scrape is checked with
//! [`validate_prometheus`] before a single number is displayed, so
//! the dashboard doubles as a live conformance test of the exporter.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use pas_core::json::{self, Value};
use pas_obs::expo::{parse_labels, validate_prometheus};
use pas_server::{signal, Server, ServerConfig};

/// `impacct-cli serve` — boot the scheduling daemon and block until
/// SIGTERM/SIGINT (or `POST /shutdown`) drains it.
pub fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = it.next().ok_or("--addr needs a host:port")?.clone();
            }
            "--workers" => {
                config.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--workers needs a count")?;
            }
            "--window" => {
                config.window_secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--window needs seconds")?;
            }
            "--slow-ms" => {
                config.slow_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--slow-ms needs milliseconds")?;
            }
            "--audit" => {
                config.audit_dir = Some(it.next().ok_or("--audit needs a directory")?.into());
            }
            "--sessions" => {
                config.session_cap = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--sessions needs a count")?;
            }
            "--max-inflight" => {
                config.max_inflight = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--max-inflight needs a count (0 = one per worker)")?;
            }
            "--queue-depth" => {
                config.queue_depth = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--queue-depth needs a count")?;
            }
            "--keep-alive" => {
                config.keep_alive = match it.next().map(String::as_str) {
                    Some("on") => true,
                    Some("off") => false,
                    _ => return Err("--keep-alive needs on|off".into()),
                };
            }
            "--keep-alive-requests" => {
                config.keep_alive_requests = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--keep-alive-requests needs a count")?;
            }
            "--header-timeout-ms" => {
                config.header_timeout_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--header-timeout-ms needs milliseconds")?;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--idle-timeout-ms needs milliseconds")?;
            }
            "--retry-after" => {
                config.retry_after_s = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--retry-after needs seconds")?;
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }

    signal::install();
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
    println!("pas-server listening on http://{addr}");
    println!("  POST /schedule   PASDL in, schedule + analysis out (?format=pasdl, ?cache=off)");
    println!("  GET  /metrics    Prometheus exposition (try: impacct-cli top --addr {addr})");
    println!("  GET  /healthz /buildinfo /slowlog /trace/<id>");
    println!("  POST /shutdown   graceful drain (also SIGTERM)");
    let report = server.run().map_err(|e| format!("serve: {e}"))?;
    println!(
        "drained: {} requests over {} s ({} pool jobs, {} panicked, {} shed)",
        report.requests, report.uptime_s, report.pool_jobs, report.panicked, report.sheds
    );
    Ok(())
}

/// One scraped sample: metric name, labels, value.
type Sample = (String, Vec<(String, String)>, f64);

/// `impacct-cli top` — the polling dashboard.
pub fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut interval_ms: u64 = 1000;
    let mut once = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a host:port")?.clone(),
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--interval-ms needs milliseconds")?;
            }
            "--once" => once = true,
            other => return Err(format!("unknown top flag {other:?}")),
        }
    }

    loop {
        let scrape = http_get(&addr, "/metrics")?;
        validate_prometheus(&scrape)
            .map_err(|e| format!("{addr}/metrics is not valid Prometheus exposition: {e}"))?;
        let samples = parse_samples(&scrape)?;
        let slowlog = http_get(&addr, "/slowlog").unwrap_or_default();
        let frame = render_dashboard(&addr, &samples, &slowlog);
        if once {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then repaint.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(interval_ms.max(100)));
    }
}

/// Issues a bare HTTP/1.1 GET and returns the body on a 200.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{path}: malformed HTTP response"))?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .unwrap_or("?");
    if status != "200" {
        return Err(format!("{path}: HTTP {status}"));
    }
    Ok(body.to_string())
}

/// Parses sample lines of an exposition document (comments skipped;
/// the document has already been validated).
fn parse_samples(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name_and_labels, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: f64 = value.parse().map_err(|e| format!("{line:?}: {e}"))?;
        match name_and_labels.split_once('{') {
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').unwrap_or(rest);
                samples.push((name.to_string(), parse_labels(body)?, value));
            }
            None => samples.push((name_and_labels.to_string(), Vec::new(), value)),
        }
    }
    Ok(samples)
}

fn gauge(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .find(|(n, labels, _)| n == name && labels.is_empty())
        .map_or(0.0, |(_, _, v)| *v)
}

fn labeled(samples: &[Sample], name: &str, key: &str, value: &str) -> f64 {
    samples
        .iter()
        .find(|(n, labels, _)| n == name && labels.iter().any(|(k, v)| k == key && v == value))
        .map_or(0.0, |(_, _, v)| *v)
}

/// `s` with every control character but tab replaced by U+FFFD: a
/// slowlog model name is client input and must not drive the
/// operator's terminal.
fn printable(s: &str) -> String {
    s.replace(|c: char| c.is_control() && c != '\t', "\u{fffd}")
}

fn render_dashboard(addr: &str, samples: &[Sample], slowlog: &str) -> String {
    let mut out = String::new();
    let uptime = gauge(samples, "pas_server_uptime_seconds");
    let workers = gauge(samples, "pas_server_workers");
    let busy = gauge(samples, "pas_server_workers_busy");
    let util = gauge(samples, "pas_server_worker_utilization");
    out.push_str(&format!(
        "pas-server @ {addr}  up {uptime:.0}s  workers {workers:.0} (busy {busy:.0}, util {:.0}%)\n",
        util * 100.0
    ));

    let requests = gauge(samples, "pas_server_requests_total");
    let rate = gauge(samples, "pas_server_request_rate_per_s");
    let inflight = gauge(samples, "pas_server_inflight_requests");
    let slow = gauge(samples, "pas_server_slow_requests_total");
    out.push_str(&format!(
        "requests {requests:.0}  rate {rate:.1}/s  inflight {inflight:.0}  slow {slow:.0}\n"
    ));

    let conns = gauge(samples, "pas_server_connections_total");
    let reuses = gauge(samples, "pas_server_keepalive_reuses_total");
    let admitted = gauge(samples, "pas_server_admitted");
    let capacity = gauge(samples, "pas_server_admission_capacity");
    let queue = gauge(samples, "pas_server_queue_depth");
    let queue_hw = gauge(samples, "pas_server_queue_high_water");
    out.push_str(&format!(
        "conns  {conns:.0}  keep-alive reuses {reuses:.0}  admitted {admitted:.0}/{capacity:.0}  queue {queue:.0} (hw {queue_hw:.0})\n"
    ));

    let shed_cap = labeled(samples, "pas_server_shed_total", "reason", "capacity");
    let shed_drain = labeled(samples, "pas_server_shed_total", "reason", "draining");
    let shed_drop = labeled(samples, "pas_server_shed_total", "reason", "dropped");
    let shed_rate = gauge(samples, "pas_server_shed_rate_per_s");
    out.push_str(&format!(
        "shed   capacity {shed_cap:.0}  draining {shed_drain:.0}  dropped {shed_drop:.0}  rate {shed_rate:.1}/s\n"
    ));

    let exact = labeled(
        samples,
        "pas_server_cache_events_total",
        "kind",
        "exact_hit",
    );
    let region = labeled(
        samples,
        "pas_server_cache_events_total",
        "kind",
        "region_hit",
    );
    let incr = labeled(
        samples,
        "pas_server_cache_events_total",
        "kind",
        "incremental",
    );
    let miss = labeled(samples, "pas_server_cache_events_total", "kind", "miss");
    let evict = labeled(samples, "pas_server_cache_events_total", "kind", "eviction");
    let lookups = exact + region + miss;
    let hit_pct = if lookups > 0.0 {
        (exact + region) / lookups * 100.0
    } else {
        0.0
    };
    out.push_str(&format!(
        "cache  exact {exact:.0}  region {region:.0}  incr {incr:.0}  miss {miss:.0}  evicted {evict:.0}  hit {hit_pct:.1}%  sessions {:.0}  stored {:.0}\n",
        gauge(samples, "pas_server_sessions"),
        gauge(samples, "pas_server_cached_responses"),
    ));

    out.push_str(&format!(
        "\n{:<12} {:>12} {:>12} {:>10}\n",
        "stage", "p50 µs", "p99 µs", "window n"
    ));
    for stage in pas_server::STAGES {
        let p50 = labeled(samples, "pas_server_stage_p50_microseconds", "stage", stage);
        let p99 = labeled(samples, "pas_server_stage_p99_microseconds", "stage", stage);
        let n = labeled(samples, "pas_server_stage_window_samples", "stage", stage);
        out.push_str(&format!("{stage:<12} {p50:>12.0} {p99:>12.0} {n:>10.0}\n"));
    }

    out.push_str("\nslowest recent requests\n");
    let mut any = false;
    // A slowlog that does not parse shows as empty, like an
    // unreachable one: the dashboard never fails on it.
    let slowlog = json::parse(slowlog).ok();
    let entries = slowlog.as_ref().and_then(|doc| doc.get("slow"));
    for entry in entries.and_then(Value::as_array).unwrap_or_default() {
        let field = |key| entry.get(key).and_then(Value::as_str).map(printable);
        if let (Some(id), Some(model), Some(us)) = (
            field("trace_id"),
            field("model"),
            entry.get("total_us").and_then(Value::as_f64),
        ) {
            let served = field("served").unwrap_or_else(|| "?".into());
            out.push_str(&format!("  {id:<18} {model:<20} {us:>10.0} µs  {served}\n"));
            any = true;
        }
    }
    if !any {
        out.push_str("  (none yet)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_parsing_handles_labels_and_bare_names() {
        let samples = parse_samples("# TYPE x counter\nx 3\ny{stage=\"timing\"} 4.5\n").unwrap();
        assert_eq!(gauge(&samples, "x"), 3.0);
        assert_eq!(labeled(&samples, "y", "stage", "timing"), 4.5);
        assert_eq!(labeled(&samples, "y", "stage", "absent"), 0.0);
    }

    #[test]
    fn dashboard_renders_from_a_synthetic_scrape() {
        let scrape = "pas_server_uptime_seconds 12\npas_server_workers 4\n\
                      pas_server_workers_busy 1\npas_server_worker_utilization 0.25\n\
                      pas_server_requests_total 10\npas_server_request_rate_per_s 2.5\n\
                      pas_server_connections_total 6\npas_server_keepalive_reuses_total 4\n\
                      pas_server_admitted 3\npas_server_admission_capacity 68\n\
                      pas_server_queue_depth 2\npas_server_queue_high_water 9\n\
                      pas_server_shed_total{reason=\"capacity\"} 5\n\
                      pas_server_shed_rate_per_s 1.5\n\
                      pas_server_cache_events_total{kind=\"exact_hit\"} 4\n\
                      pas_server_cache_events_total{kind=\"incremental\"} 2\n\
                      pas_server_cache_events_total{kind=\"miss\"} 4\n";
        let samples = parse_samples(scrape).unwrap();
        let slowlog = "{\"slow\":[{\"trace_id\":\"r000001-aa\",\"model\":\"m\",\"total_us\":9000,\"served\":\"fresh\",\"at_s\":3},\
                       {\"trace_id\":\"r000002-bb\",\"model\":\"a\\\\b\\tc\",\"total_us\":8000,\"served\":\"fresh\",\"at_s\":4},\
                       {\"trace_id\":\"r000003-cc\",\"model\":\"\\u001b[2Jx\",\"total_us\":7000,\"served\":\"fresh\",\"at_s\":5}]}";
        let frame = render_dashboard("127.0.0.1:7171", &samples, slowlog);
        assert!(frame.contains("requests 10"), "{frame}");
        assert!(frame.contains("admitted 3/68"), "{frame}");
        assert!(frame.contains("queue 2 (hw 9)"), "{frame}");
        assert!(frame.contains("shed   capacity 5"), "{frame}");
        assert!(frame.contains("keep-alive reuses 4"), "{frame}");
        assert!(frame.contains("incr 2"), "{frame}");
        assert!(frame.contains("hit 50.0%"), "{frame}");
        assert!(frame.contains("r000001-aa"), "{frame}");
        assert!(frame.contains("r000002-bb         a\\b\tc"), "{frame}");
        assert!(frame.contains("r000003-cc         \u{fffd}[2Jx"), "{frame}");
    }

    #[test]
    fn slowlog_field_extraction_is_tolerant() {
        let doc = json::parse("{\"a\":\"b\",\"n\":42}").unwrap();
        assert_eq!(doc.get("a").and_then(Value::as_str), Some("b"));
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(42.0));
        assert_eq!(json::parse("{}").unwrap().get("n"), None);
        for slowlog in [
            "",
            "not json",
            "{\"slow\":7}",
            "{\"slow\":[{\"trace_id\":1}]}",
        ] {
            let frame = render_dashboard("127.0.0.1:7171", &[], slowlog);
            assert!(frame.ends_with("(none yet)\n"), "{slowlog:?}: {frame}");
        }
    }
}
