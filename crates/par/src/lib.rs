//! Deterministic parallel execution primitives.
//!
//! The scheduling pipeline parallelizes two independent searches —
//! portfolio restarts and the exact B&B frontier — and in both cases
//! the contract is the same: the result must be **bit-identical** to
//! the sequential run, regardless of the worker count or of how the OS
//! interleaves the threads. This crate
//! provides the primitives that make that contract easy to keep:
//!
//! * [`par_map`] — an indexed map over owned items on scoped threads.
//!   Items are handed out through a shared queue (so the *execution*
//!   order is nondeterministic) but the results are returned in item
//!   order (so the *observable* order is deterministic). Any reduction
//!   applied to the returned `Vec` in index order therefore matches
//!   the sequential fold exactly.
//! * [`TaskPool`] — a long-lived worker pool for open-ended request
//!   streams (the `pas-server` daemon), with submit/drain/shutdown
//!   and per-worker utilization accounting.
//!
//! Everything here is plain `std`: scoped threads, a mutex-guarded
//! queue, and atomics. No work-stealing runtime is spun up, which
//! keeps the primitives predictable and the crate dependency-free.
//!
//! ## Telemetry side channel
//!
//! [`par_map`] also returns a *wall-clock* [`PoolProfile`] of
//! per-worker busy/wait time for the profiler. These numbers are
//! inherently nondeterministic (they measure the OS, not the
//! algorithm), so per the determinism contract (`DESIGN.md` §12) they
//! are **never** folded into traces or reproducible output: they travel
//! only through this side channel into profile reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{TaskPool, TaskPoolStats};

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How much parallelism a pipeline stage may use.
///
/// The default is [`Parallelism::Off`], which keeps every legacy code
/// path byte-for-byte unchanged (including streamed traces). The
/// parallel paths — selected by `Threads` or `Auto`, *even with one
/// worker* — produce schedules bit-identical to `Off` but stitch their
/// traces from per-worker buffers, tagging each segment with a
/// deterministic worker id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Fully sequential legacy behavior (the default).
    #[default]
    Off,
    /// Use exactly `n` workers (clamped to at least 1).
    Threads(usize),
    /// Use one worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The number of workers this setting resolves to on this machine.
    ///
    /// `Off` resolves to 1; `Auto` queries
    /// [`std::thread::available_parallelism`] and falls back to 1 when
    /// the query fails (e.g. in restricted sandboxes).
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// `true` when the parallel (worker-tagged) code paths are
    /// selected, even if they resolve to a single worker.
    pub fn is_enabled(self) -> bool {
        !matches!(self, Parallelism::Off)
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Off => write!(f, "off"),
            Parallelism::Threads(n) => write!(f, "{n}"),
            Parallelism::Auto => write!(f, "auto"),
        }
    }
}

/// Error returned when a `--threads` style value fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseParallelismError(String);

impl fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid parallelism {:?}: expected \"off\", \"auto\", or a thread count",
            self.0
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl FromStr for Parallelism {
    type Err = ParseParallelismError;

    /// Parses the CLI surface syntax: `off`, `auto`, or a positive
    /// integer thread count.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Parallelism::Off),
            "auto" => Ok(Parallelism::Auto),
            _ => s
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .map(Parallelism::Threads)
                .ok_or_else(|| ParseParallelismError(s.to_string())),
        }
    }
}

/// The number of OS threads actually worth spawning for a pool of
/// `workers` logical workers over `n` items: never more than the
/// host's [`std::thread::available_parallelism`]. Spawning past the
/// core count cannot add throughput — the items drain from one shared
/// queue, so fewer threads process exactly the same work — and it
/// actively hurts: oversubscribed threads evict each other's caches
/// and inflate the join tail (the "8-thread cliff" on small hosts,
/// `DESIGN.md` §15). Results are **unchanged** by the clamp: the
/// queue hands out items in index order and results are reassembled
/// by index, so every pool size produces identical output.
fn spawn_count(workers: usize, n: usize) -> usize {
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    workers.min(n).min(host).max(1)
}

/// Per-worker wall-clock accounting for one [`par_map`] run.
///
/// `busy` is time spent inside the mapped closure; `wait` is time
/// spent acquiring the queue lock and popping. Anything left over up
/// to the pool's wall time — start-up, join, and the tail after the
/// queue drains — is idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerProfile {
    /// Worker index within the pool (`0..workers`).
    pub worker: u32,
    /// Items this worker pulled from the queue.
    pub items: u64,
    /// Total time spent executing the mapped closure.
    pub busy: Duration,
    /// Total time spent waiting on the shared queue.
    pub wait: Duration,
}

impl WorkerProfile {
    /// Fraction of `wall` this worker spent in the closure.
    pub fn busy_fraction(&self, wall: Duration) -> f64 {
        if wall.is_zero() {
            0.0
        } else {
            (self.busy.as_secs_f64() / wall.as_secs_f64()).min(1.0)
        }
    }

    /// Fraction of `wall` this worker spent *not* in the closure
    /// (queue waits, start-up, and the post-drain tail).
    pub fn idle_fraction(&self, wall: Duration) -> f64 {
        1.0 - self.busy_fraction(wall)
    }
}

/// Wall-clock profile of one [`par_map`] run: total wall time plus one
/// [`WorkerProfile`] per spawned worker (or the single inline
/// pseudo-worker when the map ran on the caller's thread), so
/// `workers.len()` is the number of threads that actually ran.
///
/// These are OS-level measurements — nondeterministic by nature — and
/// must never be folded into traces or reproducible output
/// (`DESIGN.md` §12); they exist for profile reports only.
#[derive(Debug, Clone, Default)]
pub struct PoolProfile {
    /// Wall time from just before item distribution to after the join.
    pub wall: Duration,
    /// Per-worker accounting, indexed by worker id.
    pub workers: Vec<WorkerProfile>,
}

impl PoolProfile {
    /// Mean idle fraction across workers — the "workers are starved"
    /// signal. `0.0` for an empty pool.
    pub fn mean_idle_fraction(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .workers
            .iter()
            .map(|w| w.idle_fraction(self.wall))
            .sum();
        total / self.workers.len() as f64
    }

    /// The largest per-worker idle fraction — the worst-starved worker.
    pub fn max_idle_fraction(&self) -> f64 {
        self.workers
            .iter()
            .map(|w| w.idle_fraction(self.wall))
            .fold(0.0, f64::max)
    }
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning
/// the results **in item order** together with the run's
/// [`PoolProfile`].
///
/// `f` receives each item's original index alongside the item, so
/// per-item seeding (`derive(base_seed, index)`) stays identical to
/// the sequential loop. With `workers <= 1` or fewer than two items
/// the map runs inline on the caller's thread — same closure, same
/// order, no spawn cost — and the profile reports one pseudo-worker.
/// Spawned thread counts are additionally clamped to the host's
/// available parallelism (see `spawn_count`); the result is identical
/// either way.
///
/// Panics in `f` are propagated to the caller after the scope joins.
pub fn par_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> (Vec<R>, PoolProfile)
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let session = Instant::now();
    if workers <= 1 || n <= 1 {
        let mut busy = Duration::ZERO;
        let results: Vec<R> = items
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let begun = Instant::now();
                let r = f(i, t);
                busy += begun.elapsed();
                r
            })
            .collect();
        let profile = PoolProfile {
            wall: session.elapsed(),
            workers: vec![WorkerProfile {
                worker: 0,
                items: n as u64,
                busy,
                wait: Duration::ZERO,
            }],
        };
        return (results, profile);
    }

    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    // One worker's loop: take the lock only to pop, run `f` outside it.
    let drain = |worker: usize| {
        let mut done: Vec<(usize, R)> = Vec::new();
        let mut profile = WorkerProfile {
            worker: worker as u32,
            ..WorkerProfile::default()
        };
        loop {
            let waited = Instant::now();
            let next = queue.lock().expect("par_map queue poisoned").pop_front();
            profile.wait += waited.elapsed();
            let Some((index, item)) = next else { break };
            let begun = Instant::now();
            done.push((index, f(index, item)));
            profile.busy += begun.elapsed();
            profile.items += 1;
        }
        (done, profile)
    };
    let runs: Vec<(Vec<(usize, R)>, WorkerProfile)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawn_count(workers, n))
            .map(|worker| {
                let drain = &drain;
                scope.spawn(move || drain(worker))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut profiles = Vec::with_capacity(runs.len());
    for (done, profile) in runs {
        for (index, result) in done {
            slots[index] = Some(result);
        }
        profiles.push(profile);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("par_map: worker exited without producing its result"))
        .collect();
    let profile = PoolProfile {
        wall: session.elapsed(),
        workers: profiles,
    };
    (results, profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolves_worker_counts() {
        assert_eq!(Parallelism::Off.worker_count(), 1);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert_eq!(Parallelism::Threads(6).worker_count(), 6);
        assert!(Parallelism::Auto.worker_count() >= 1);
        assert!(!Parallelism::Off.is_enabled());
        assert!(Parallelism::Threads(1).is_enabled());
        assert!(Parallelism::Auto.is_enabled());
    }

    #[test]
    fn parallelism_parses_cli_syntax() {
        assert_eq!("off".parse(), Ok(Parallelism::Off));
        assert_eq!("auto".parse(), Ok(Parallelism::Auto));
        assert_eq!("4".parse(), Ok(Parallelism::Threads(4)));
        assert!("0".parse::<Parallelism>().is_err());
        assert!("-2".parse::<Parallelism>().is_err());
        assert!("fast".parse::<Parallelism>().is_err());
        assert_eq!(Parallelism::Threads(8).to_string(), "8");
        assert_eq!(Parallelism::Auto.to_string(), "auto");
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let (got, _) = par_map(workers, items.clone(), |i, x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, empty, |_, x: u32| x).0.is_empty());
        assert_eq!(par_map(8, vec![7u32], |i, x| (i, x)).0, vec![(0, 7)]);
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, (0..64).collect::<Vec<u32>>(), |_, x| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn par_map_accounts_workers() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 4, 8] {
            let (got, profile) = par_map(workers, items.clone(), |_, x| {
                // Make busy time observable even on coarse clocks.
                std::hint::black_box((0..2_000u64).fold(x, |a, b| a.wrapping_add(b)));
                x * x
            });
            assert_eq!(got, expected, "workers={workers}");
            assert_eq!(profile.workers.len(), spawn_count(workers, items.len()));
            let pulled: u64 = profile.workers.iter().map(|w| w.items).sum();
            assert_eq!(pulled, items.len() as u64, "workers={workers}");
            for (i, w) in profile.workers.iter().enumerate() {
                assert_eq!(w.worker, i as u32);
                assert!(w.busy <= profile.wall + Duration::from_millis(50));
            }
            let idle = profile.mean_idle_fraction();
            assert!((0.0..=1.0).contains(&idle), "idle={idle}");
            assert!(profile.max_idle_fraction() >= idle);
        }
    }

    #[test]
    fn par_map_inline_path_reports_one_pseudo_worker() {
        let (got, profile) = par_map(1, vec![1u32, 2, 3], |_, x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(profile.workers.len(), 1);
        assert_eq!(profile.workers[0].items, 3);
        assert_eq!(profile.workers[0].wait, Duration::ZERO);
        let empty: Vec<u32> = Vec::new();
        let (none, profile) = par_map(8, empty, |_, x: u32| x);
        assert!(none.is_empty());
        assert_eq!(profile.workers.len(), 1);
        assert_eq!(profile.workers[0].items, 0);
        assert_eq!(PoolProfile::default().mean_idle_fraction(), 0.0);
    }
}
