//! Metric names, units and the result line.

use crate::stats::{is_metric_name, is_unit};

/// Units the benchmark reports in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Seconds.
    S,
    /// Milliseconds.
    Ms,
    /// Microseconds.
    Us,
    /// Events per second.
    PerS,
    /// A dimensionless ratio.
    Ratio,
    /// A count.
    Count,
    /// Mebibytes.
    MiB,
}

impl Unit {
    /// The unit as printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::PerS => "1/s",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
            Unit::MiB => "MiB",
        }
    }
}

/// End-to-end metrics (untraced run), in print order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "throughput_per_s",
    "solved_share",
    "finish_stretch",
    "utilization_mean",
];

/// Per-layer metrics (traced run), in print order.
pub const PER_LAYER: [&str; 46] = [
    "pipeline.ms",
    "min_power.ms",
    "min_power.share",
    "min_power.moves_accepted",
    "min_power.moves_rejected",
    "min_power.accept_ratio",
    "exact.ms",
    "exact.share",
    "exact.nodes",
    "exact.pruned_bound",
    "exact.pruned_dominance",
    "exact.win_ratio",
    "attempts.ms",
    "timing.ms",
    "timing.share",
    "timing.backtracks",
    "timing.us_per_backtrack",
    "timing.serializations",
    "graph.spfa_hits",
    "graph.spfa_deltas",
    "graph.spfa_fallbacks",
    "max_power.ms",
    "max_power.share",
    "max_power.spike_delays",
    "max_power.recursions",
    "lint.ms",
    "lint.share",
    "lint.rejections",
    "verdict.skipped",
    "verdict.giveup_ms",
    "spec.parse_ms",
    "core.analyze_ms",
    "serve.exact_ms",
    "serve.region_ms",
    "serve.fresh_ms",
    "serve.incremental_ms",
    "cache.exact_hits",
    "cache.region_hits",
    "cache.misses",
    "cache.incremental",
    "cache.hit_ratio",
    "server.sheds",
    "trace.overhead_ratio",
    "run.fail_share",
    "quality.battery_share",
    "run.peak_rss_mib",
];

/// Per-layer metrics of the daemon; flat (zero) on planner workloads.
pub const SERVE_LAYERS: [&str; 10] = [
    "serve.exact_ms",
    "serve.region_ms",
    "serve.fresh_ms",
    "serve.incremental_ms",
    "cache.exact_hits",
    "cache.region_hits",
    "cache.misses",
    "cache.incremental",
    "cache.hit_ratio",
    "server.sheds",
];

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check or errored unexpectedly.
    pub failed: u64,
    metrics: Vec<(String, f64, Unit)>,
    notes: Vec<String>,
}

impl Report {
    /// Records one metric; a later value under the same name wins.
    pub fn metric(&mut self, name: &str, value: f64, unit: Unit) {
        assert!(
            is_metric_name(name) && is_unit(unit.as_str()),
            "bad metric {name}"
        );
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The value recorded under `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Sets the daemon's per-layer metrics to zero.
    pub fn serve_layers_flat(&mut self) {
        for name in SERVE_LAYERS {
            let unit = if name.ends_with("_ms") {
                Unit::Ms
            } else if name.ends_with("ratio") {
                Unit::Ratio
            } else {
                Unit::Count
            };
            self.metric(name, 0.0, unit);
        }
    }

    /// Names the run must report and does not.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        let wanted: &[&'static str] = if trace { &PER_LAYER } else { &END_TO_END };
        wanted
            .iter()
            .copied()
            .filter(|name| self.value(name).is_none())
            .collect()
    }

    /// Prints the notes, every metric by name and unit, and the result
    /// line restricted to the metrics of this mode.
    pub fn print(&self, trace: bool, correct: bool, provenance: &str) {
        for note in &self.notes {
            println!("# {note}");
        }
        println!("# {provenance}");
        let wanted: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for name in wanted {
            if let Some((_, value, unit)) = self.metrics.iter().find(|(n, _, _)| n == name) {
                println!("{name:<28} {value:>16.6} {}", unit.as_str());
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(*value),
                    unit.as_str()
                ));
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// A finite JSON number with all its digits.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_follows_the_charset_and_is_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert!(all.iter().all(|n| is_metric_name(n)));
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "a metric name is listed twice");
        assert!(SERVE_LAYERS.iter().all(|n| PER_LAYER.contains(n)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (section, names) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed: Vec<&str> = body
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    &rest[..rest.find('"').expect("name closes")]
                })
                .collect();
            assert_eq!(listed, names, "{section} differs from the benchmark's list");
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
