//! Integration test: every plain index agrees with the transitive
//! closure on every graph shape the workload generators produce —
//! the central cross-index invariant of the workspace.

use reach_bench::workloads::Shape;
use reachability::graph::PreparedGraph;
use reachability::plain::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reachability::prelude::*;
use std::sync::Arc;

/// Builds registry entry `name` over `prepared` with default options.
fn build(name: &str, prepared: &PreparedGraph) -> Box<dyn ReachIndex> {
    PLAIN_REGISTRY
        .build(name, prepared, &BuildOpts::default())
        .expect("registry name")
        .0
}

fn check_shape(shape: Shape, n: usize, seed: u64) {
    let g = Arc::new(shape.generate(n, seed));
    let tc = TransitiveClosure::build(&g);
    let prepared = PreparedGraph::new_shared(Arc::clone(&g));
    for name in PLAIN_REGISTRY.names() {
        if !PLAIN_REGISTRY.feasible(name, g.num_vertices(), g.num_edges()) {
            continue;
        }
        let idx = build(name, &prepared);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    idx.query(s, t),
                    tc.reaches(s, t),
                    "{name} on {} at {s:?}->{t:?}",
                    shape.name()
                );
            }
        }
    }
}

#[test]
fn all_indexes_agree_on_sparse_dags() {
    check_shape(Shape::Sparse, 60, 1);
}

#[test]
fn all_indexes_agree_on_dense_dags() {
    check_shape(Shape::Dense, 50, 2);
}

#[test]
fn all_indexes_agree_on_deep_dags() {
    check_shape(Shape::Deep, 100, 3);
}

#[test]
fn all_indexes_agree_on_power_law_dags() {
    check_shape(Shape::PowerLaw, 70, 4);
}

#[test]
fn all_indexes_agree_on_tree_like_dags() {
    check_shape(Shape::TreeLike, 80, 5);
}

#[test]
fn all_indexes_agree_on_cyclic_graphs() {
    check_shape(Shape::Cyclic, 60, 6);
}

#[test]
fn all_indexes_agree_on_edge_cases() {
    // empty graph, single edge, self-contained clique
    for edges in [vec![], vec![(0u32, 1u32)], vec![(0, 1), (1, 2), (2, 0)]] {
        let g = Arc::new(DiGraph::from_edges(3, &edges));
        let tc = TransitiveClosure::build(&g);
        let prepared = PreparedGraph::new_shared(Arc::clone(&g));
        for name in PLAIN_REGISTRY.names() {
            let idx = build(name, &prepared);
            for s in g.vertices() {
                for t in g.vertices() {
                    assert_eq!(idx.query(s, t), tc.reaches(s, t), "{name} on {edges:?}");
                }
            }
        }
    }
}

#[test]
fn two_builds_on_one_prepared_graph_share_the_condensation() {
    let g = Arc::new(Shape::Cyclic.generate(80, 21));
    let prepared = PreparedGraph::new_shared(Arc::clone(&g));
    let a = reach_core::Condensed::from_prepared(&prepared, |dag| {
        reach_core::tree_cover::TreeCover::build(dag)
    });
    let b = reach_core::Condensed::from_prepared(&prepared, |dag| reach_core::pll::Pll::build(dag));
    assert!(Arc::ptr_eq(
        &a.shared_condensation(),
        &b.shared_condensation()
    ));
    assert!(Arc::ptr_eq(
        &a.shared_condensation(),
        prepared.condensation()
    ));
    assert_eq!(prepared.condensation_runs(), 1);
    // the prepared graph also hands out the original digraph by Arc,
    // never by deep copy
    assert!(Arc::ptr_eq(prepared.graph(), &g));
}

#[test]
fn sizes_are_reported_consistently() {
    let prepared = PreparedGraph::new(Shape::Sparse.generate(120, 9));
    for name in PLAIN_REGISTRY.names() {
        if !PLAIN_REGISTRY.feasible(name, 120, prepared.num_edges()) {
            continue;
        }
        let idx = build(name, &prepared);
        if name.starts_with("online") {
            assert_eq!(idx.size_bytes(), 0, "{name}");
        } else {
            assert!(idx.size_bytes() > 0, "{name} must report a footprint");
            assert!(idx.size_entries() > 0, "{name} must report entries");
        }
    }
}
