//! The benchmark's own statistics: medians, the tail rule, per-problem
//! medians across passes and rates over them, and the metric-name
//! charset.

/// Percentiles the tail rule may pick from, highest last.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even lengths);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100] of `sorted` (ascending): the
/// smallest sample with at least `q`% of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    let rank = (q / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// The tail rule: the highest percentile of [`TAIL_LADDER`] that has
/// at least [`TAIL_BEYOND`] of `n` samples strictly beyond its nearest
/// rank. `None` when even the median leaves fewer than that.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| n >= nearest_rank(n, q) + TAIL_BEYOND)
}

/// Samples of `n` strictly beyond the nearest rank of percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// Per-problem medians across passes: `passes[p][i]` is problem `i`'s
/// time in pass `p`. Every pass must cover the same problems.
pub fn per_problem_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let problems = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|pass| pass.len() == problems),
        "every pass must time every problem"
    );
    (0..problems)
        .map(|i| median(&passes.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

/// Events per unit of time in a pass where every item takes its median
/// time across passes: `events` over the sum of `medians`. A burst that
/// slows an item in a pass moves that pass's wall time, not this rate.
pub fn rate_at_medians(events: f64, medians: &[f64]) -> f64 {
    events / medians.iter().sum::<f64>()
}

/// Whether `name` is a valid metric name: it starts with a letter or
/// digit and is at most 64 letters, digits, `_`, `.` and `-`.
pub fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn is_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Splitmix64 step: the benchmark's own deterministic stream for
/// deriving generator seeds and pass orders from `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 90.0), 90.0);
        assert_eq!(percentile(&sorted, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly ten beyond, p95 only five.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..3_000 {
            let q = tail_percentile(n).expect("n >= 20 has a tail");
            let beyond = beyond(n, q);
            assert!(beyond >= TAIL_BEYOND, "n={n} q={q} beyond={beyond}");
            if let Some(&next) = TAIL_LADDER.iter().find(|&&l| l > q) {
                assert!(
                    n - nearest_rank(n, next) < TAIL_BEYOND,
                    "n={n}: {next} also fits"
                );
            }
        }
    }

    #[test]
    fn per_problem_median_is_taken_across_passes() {
        // Problem 0 spikes in pass 1, problem 1 in pass 2: the medians
        // ignore both spikes, which a per-pass percentile would not.
        let passes = vec![
            vec![1.0, 10.0, 5.0],
            vec![9.0, 11.0, 5.0],
            vec![2.0, 90.0, 6.0],
        ];
        assert_eq!(per_problem_medians(&passes), vec![2.0, 11.0, 5.0]);
        assert_eq!(per_problem_medians(&[vec![4.0, 2.0]]), vec![4.0, 2.0]);
    }

    #[test]
    fn rate_at_medians_drops_bursts_that_hit_most_passes() {
        // Two of three passes each catch one burst, so the median pass
        // lasts 6; every problem's median is still 1.
        let passes = vec![vec![1.0, 1.0], vec![5.0, 1.0], vec![1.0, 5.0]];
        let walls: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
        assert_eq!(2.0 / median(&walls), 1.0 / 3.0);
        assert_eq!(rate_at_medians(2.0, &per_problem_medians(&passes)), 1.0);
    }

    #[test]
    #[should_panic(expected = "every pass must time every problem")]
    fn per_problem_median_rejects_ragged_passes() {
        per_problem_medians(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn metric_names_and_units_follow_the_charset() {
        for ok in [
            "setup_s",
            "min_power.accept_ratio",
            "graph.spfa-hits",
            "9lives",
        ] {
            assert!(is_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ρ", &"x".repeat(65)] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        assert!(is_metric_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "ratio", "MiB", "%"] {
            assert!(is_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "milliseconds/req!", &"u".repeat(17)] {
            assert!(!is_unit(bad), "{bad}");
        }
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(50, 7);
        assert_eq!(a, permutation(50, 7));
        assert_ne!(a, permutation(50, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
