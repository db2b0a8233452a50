//! Property tests for the constraint-graph substrate:
//! SPFA-vs-reference longest paths, the pruned per-source search
//! against SPFA, journal undo, and topological order invariants on
//! random graphs.

use pas_graph::longest_path::{
    bellman_ford_reference, single_source_longest_paths, PrunedLongestPaths,
};
use pas_graph::topo::{reaches, topological_order};
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, NodeId, Resource, ResourceKind, Task, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random constraint graph from a seed: forward min edges
/// over the index order (acyclic skeleton), random max windows (which
/// may create infeasibility), and random release/lock edges.
fn random_graph(seed: u64, tasks: usize, edge_density: f64) -> ConstraintGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = ConstraintGraph::new();
    let r = g.add_resource(Resource::new("R", ResourceKind::Compute));
    let ids: Vec<TaskId> = (0..tasks)
        .map(|i| {
            g.add_task(Task::new(
                format!("t{i}"),
                r,
                TimeSpan::from_secs(rng.gen_range(1..=8)),
                Power::from_watts(rng.gen_range(0..5)),
            ))
        })
        .collect();
    for i in 0..tasks {
        for j in (i + 1)..tasks {
            if rng.gen_bool(edge_density) {
                g.min_separation(ids[i], ids[j], TimeSpan::from_secs(rng.gen_range(0..10)));
            }
            if rng.gen_bool(edge_density / 3.0) {
                g.max_separation(ids[i], ids[j], TimeSpan::from_secs(rng.gen_range(0..25)));
            }
        }
    }
    if tasks > 0 && rng.gen_bool(0.5) {
        let v = ids[rng.gen_range(0..tasks)];
        g.release(v, Time::from_secs(rng.gen_range(0..10)));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The worklist SPFA and the textbook Bellman–Ford agree on both
    /// feasibility and every distance.
    #[test]
    fn spfa_matches_reference(seed in any::<u64>(), tasks in 1usize..14, density in 0.05f64..0.6) {
        let g = random_graph(seed, tasks, density);
        let a = single_source_longest_paths(&g, NodeId::ANCHOR);
        let b = bellman_ford_reference(&g, NodeId::ANCHOR);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                for t in g.task_ids() {
                    prop_assert_eq!(x.start_time(t), y.start_time(t));
                }
            }
            (Err(_), Err(_)) => {} // both infeasible
            (x, y) => prop_assert!(false, "disagreement: {x:?} vs {y:?}"),
        }
    }

    /// The pruned search against full SPFA rows, with the anchor's
    /// distances as the potential `π`. For every source and cutoff `c`
    /// (each reweighted distance the oracle reaches, so some node sits
    /// exactly on the cutoff, one below all of them, and one random),
    /// every node must hold exactly the longest `d(u) + w` over its
    /// in-edges from nodes whose oracle reweighted distance is above
    /// `c` (the source holds 0). So the row equals the oracle wherever
    /// the oracle is above the cutoff, never exceeds it anywhere, and
    /// nothing at or below the cutoff is expanded.
    #[test]
    fn pruned_search_is_exact_above_the_cutoff(
        seed in any::<u64>(),
        tasks in 1usize..14,
        density in 0.05f64..0.6,
        random_cutoff in -40i64..2,
    ) {
        let g = random_graph(seed, tasks, density);
        let Ok(asap) = single_source_longest_paths(&g, NodeId::ANCHOR) else {
            return Ok(()); // a positive cycle: no feasible potential
        };
        let nodes: Vec<NodeId> = std::iter::once(NodeId::ANCHOR)
            .chain(g.task_ids().map(|t| t.node()))
            .collect();
        let pi = |n: NodeId| asap.distance(n).expect("the anchor reaches every node");
        let mut search = PrunedLongestPaths::new(&g, &asap);
        for &s in &nodes {
            let oracle = single_source_longest_paths(&g, s).expect("feasible graph");
            let reweighted = |n: NodeId| oracle.distance(n).map(|d| d - pi(n) + pi(s));
            let mut cutoffs: Vec<TimeSpan> = nodes.iter().filter_map(|&n| reweighted(n)).collect();
            let lowest = cutoffs.iter().copied().min().unwrap_or(TimeSpan::ZERO);
            cutoffs.push(lowest - TimeSpan::from_secs(1));
            cutoffs.push(TimeSpan::from_secs(random_cutoff));
            for c in cutoffs {
                search.run(s, c);
                for &v in &nodes {
                    let expected = if v == s {
                        Some(TimeSpan::ZERO)
                    } else {
                        g.in_edges(v)
                            .filter(|(_, e)| reweighted(e.from()).is_some_and(|r| r > c))
                            .map(|(_, e)| oracle.distance(e.from()).unwrap() + e.weight())
                            .max()
                    };
                    prop_assert_eq!(search.distance(v), expected, "source {} cutoff {} node {}", s, c, v);
                    if reweighted(v).is_some_and(|r| r > c) {
                        prop_assert_eq!(search.distance(v), oracle.distance(v));
                    }
                    if let Some(d) = search.distance(v) {
                        prop_assert!(oracle.distance(v).is_some_and(|o| d <= o));
                    }
                }
            }
        }
    }

    /// A reported positive cycle really is one: its edge weights sum
    /// to a strictly positive value along existing edges.
    #[test]
    fn reported_cycles_are_genuine(seed in any::<u64>(), tasks in 2usize..12) {
        let g = random_graph(seed, tasks, 0.5);
        if let Err(cycle) = bellman_ford_reference(&g, NodeId::ANCHOR) {
            prop_assert!(cycle.total_weight.is_positive());
            prop_assert!(!cycle.nodes.is_empty());
            // Every consecutive pair is connected by some edge.
            let n = cycle.nodes.len();
            for i in 0..n {
                let (u, v) = (cycle.nodes[i], cycle.nodes[(i + 1) % n]);
                prop_assert!(
                    g.out_edges(u).any(|(_, e)| e.to() == v),
                    "missing edge {u} -> {v} in reported cycle"
                );
            }
        }
    }

    /// Distances from the anchor satisfy every edge inequality
    /// (definition of longest path as the ASAP fixpoint).
    #[test]
    fn distances_satisfy_all_edges(seed in any::<u64>(), tasks in 1usize..14) {
        let g = random_graph(seed, tasks, 0.3);
        if let Ok(lp) = single_source_longest_paths(&g, NodeId::ANCHOR) {
            for (_, e) in g.edges() {
                let (Some(df), Some(dt)) = (lp.distance(e.from()), lp.distance(e.to())) else {
                    continue;
                };
                prop_assert!(dt >= df + e.weight(), "edge {e:?} violated");
            }
        }
    }

    /// mark/undo restores the exact edge set and the exact longest
    /// paths, whatever was added in between.
    #[test]
    fn journal_undo_is_exact(seed in any::<u64>(), tasks in 2usize..10) {
        let mut g = random_graph(seed, tasks, 0.2);
        let before_edges = g.num_edges();
        let before = single_source_longest_paths(&g, NodeId::ANCHOR);
        let mark = g.mark();
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        // Arbitrary speculative additions.
        let a = TaskId::from_index(rng.gen_range(0..tasks));
        let b = TaskId::from_index(rng.gen_range(0..tasks));
        g.release(a, Time::from_secs(rng.gen_range(0..20)));
        g.lock(b, Time::from_secs(rng.gen_range(0..20)));
        if a != b {
            g.serialize_after(a, b);
        }
        g.undo_to(mark);
        prop_assert_eq!(g.num_edges(), before_edges);
        let after = single_source_longest_paths(&g, NodeId::ANCHOR);
        match (before, after) {
            (Ok(x), Ok(y)) => {
                for t in g.task_ids() {
                    prop_assert_eq!(x.start_time(t), y.start_time(t));
                }
            }
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "undo changed feasibility: {x:?} vs {y:?}"),
        }
    }

    /// Kahn's order is consistent with precedence reachability.
    #[test]
    fn topological_order_respects_reachability(seed in any::<u64>(), tasks in 1usize..12) {
        let g = random_graph(seed, tasks, 0.3);
        if let Ok(order) = topological_order(&g) {
            prop_assert_eq!(order.len(), g.num_nodes());
            let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
            for (_, e) in g.edges() {
                if e.is_precedence() {
                    prop_assert!(pos(e.from()) < pos(e.to()));
                }
            }
            // Reachability is consistent with the order.
            for t in g.task_ids() {
                if reaches(&g, NodeId::ANCHOR, t.node()) {
                    prop_assert!(pos(NodeId::ANCHOR) < pos(t.node()));
                }
            }
        }
    }
}
