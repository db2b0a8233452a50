//! Instances shared by several integration tests.

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
