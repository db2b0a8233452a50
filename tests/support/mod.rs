//! Instances and a mutator shared by several integration tests. Each
//! test binary uses only some of them.

#![allow(dead_code)]

use impacct::graph::units::{Power, Time, TimeSpan};
use impacct::graph::{ConstraintGraph, Resource, ResourceKind, Task};

/// `k` locked 6 W, 2 s tasks back to back, and one free 6 W, 2 s task
/// tied to a 0 W partner by an exact 2 s separation. Under an 8 W
/// budget the free task has no slack, so each locked step it collides
/// with costs the max-power stage one nested reschedule: `k` steps
/// nest `k + 1` levels.
pub fn staircase(k: usize) -> ConstraintGraph {
    let mut g = ConstraintGraph::new();
    let two = TimeSpan::from_secs(2);
    for i in 0..k {
        let r = g.add_resource(Resource::new(format!("R{i}"), ResourceKind::Compute));
        let t = g.add_task(Task::new(format!("s{i}"), r, two, Power::from_watts(6)));
        g.lock(t, Time::from_secs(2 * i as i64));
    }
    let r = g.add_resource(Resource::new("X", ResourceKind::Compute));
    let x = g.add_task(Task::new("x", r, two, Power::from_watts(6)));
    let r = g.add_resource(Resource::new("Y", ResourceKind::Compute));
    let y = g.add_task(Task::new("y", r, two, Power::ZERO));
    g.min_separation(x, y, two);
    g.max_separation(x, y, two);
    g
}

/// A 64-bit LCG (Knuth's MMIX constants): deterministic, no deps. The
/// hostile-input sweeps draw their mutation points from it.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed)
    }

    /// The next draw, reduced into `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) as usize % n
    }

    /// Mutants of a non-empty `bytes`: `rounds` pairs of a cut at a
    /// random length and a random bit flip, then one copy per entry of
    /// `inserts` with that entry spliced in at a random point.
    pub fn mutants(&mut self, bytes: &[u8], rounds: usize, inserts: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut variants = Vec::new();
        for _ in 0..rounds {
            variants.push(bytes[..self.below(bytes.len())].to_vec());
            let mut flipped = bytes.to_vec();
            flipped[self.below(bytes.len())] ^= 1 << self.below(8);
            variants.push(flipped);
        }
        for insert in inserts {
            let at = self.below(bytes.len() + 1);
            let mut inserted = bytes.to_vec();
            inserted.splice(at..at, insert.iter().copied());
            variants.push(inserted);
        }
        variants
    }
}
