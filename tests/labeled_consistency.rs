//! Integration test: every LCR index agrees with the
//! label-constrained BFS oracle, the RLC index agrees with the
//! product-space BFS, and the general automaton evaluator subsumes
//! both fragments.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_bench::workloads::Shape;
use reachability::labeled::online::{lcr_bfs, rlc_bfs, rpq_bfs};
use reachability::labeled::rlc::RlcIndex;
use reachability::labeled::LCR_REGISTRY;
use reachability::labeled::{parse, Nfa};
use reachability::plain::BuildOpts;
use reachability::prelude::*;
use std::sync::Arc;

fn check_lcr_shape(shape: Shape, n: usize, k: usize, seed: u64) {
    let g = Arc::new(shape.generate_labeled(n, k, seed));
    for name in LCR_REGISTRY.names() {
        if !LCR_REGISTRY.feasible(name, n, g.num_edges()) {
            continue;
        }
        let idx = LCR_REGISTRY
            .build(name, &g, &BuildOpts::default())
            .unwrap()
            .0;
        for s in g.vertices() {
            for t in g.vertices() {
                for mask in 0..(1u64 << k) {
                    let allowed = LabelSet(mask);
                    assert_eq!(
                        idx.query(s, t, allowed),
                        lcr_bfs(&g, s, t, allowed),
                        "{name} on {} at {s:?}->{t:?} under {allowed:?}",
                        shape.name()
                    );
                }
            }
        }
    }
}

#[test]
fn lcr_indexes_agree_on_sparse_dags() {
    check_lcr_shape(Shape::Sparse, 30, 3, 1);
}

#[test]
fn lcr_indexes_agree_on_cyclic_graphs() {
    check_lcr_shape(Shape::Cyclic, 25, 3, 2);
}

#[test]
fn lcr_indexes_agree_on_power_law_graphs() {
    check_lcr_shape(Shape::PowerLaw, 30, 4, 3);
}

#[test]
fn lcr_indexes_agree_on_tree_like_graphs() {
    check_lcr_shape(Shape::TreeLike, 35, 3, 4);
}

#[test]
fn rlc_index_agrees_with_product_bfs() {
    let mut rng = SmallRng::seed_from_u64(5);
    for shape in [Shape::Sparse, Shape::Cyclic] {
        let g = Arc::new(shape.generate_labeled(20, 3, 6));
        let idx = RlcIndex::build(&g, 2).unwrap();
        for _ in 0..120 {
            let len = 1 + rng.random_range(0..2usize);
            let unit: Vec<Label> = (0..len).map(|_| Label(rng.random_range(0..3u8))).collect();
            for s in g.vertices() {
                for t in g.vertices() {
                    assert_eq!(
                        idx.try_query(s, t, &unit),
                        Some(rlc_bfs(&g, s, t, &unit)),
                        "unit {unit:?} at {s:?}->{t:?} on {}",
                        shape.name()
                    );
                }
            }
        }
    }
}

#[test]
fn automaton_evaluator_subsumes_alternation() {
    let g = Shape::Cyclic.generate_labeled(20, 3, 7);
    let alphabet = ["a", "b", "c"];
    for (expr, mask) in [
        ("(a)*", 0b001u64),
        ("(a ∪ b)*", 0b011),
        ("(a ∪ b ∪ c)*", 0b111),
    ] {
        let nfa = Nfa::compile(&parse(expr, &alphabet).unwrap());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    rpq_bfs(&g, s, t, &nfa),
                    lcr_bfs(&g, s, t, LabelSet(mask)),
                    "{expr} at {s:?}->{t:?}"
                );
            }
        }
    }
}

#[test]
fn automaton_evaluator_subsumes_concatenation() {
    let g = Shape::Sparse.generate_labeled(20, 3, 8);
    let alphabet = ["a", "b", "c"];
    for (expr, unit) in [
        ("(a·b)*", vec![Label(0), Label(1)]),
        ("(c)*", vec![Label(2)]),
        ("(b·b)*", vec![Label(1), Label(1)]),
    ] {
        let nfa = Nfa::compile(&parse(expr, &alphabet).unwrap());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    rpq_bfs(&g, s, t, &nfa),
                    rlc_bfs(&g, s, t, &unit),
                    "{expr} at {s:?}->{t:?}"
                );
            }
        }
    }
}

#[test]
fn lcr_indexes_handle_degenerate_graphs() {
    // no edges; single labeled edge; parallel multi-labeled edges
    for edges in [
        vec![],
        vec![(0u32, 0u8, 1u32)],
        vec![(0, 0, 1), (0, 1, 1), (1, 2, 0)],
    ] {
        let g = Arc::new(LabeledGraph::from_edges(3, 3, &edges));
        for name in LCR_REGISTRY.names() {
            let idx = LCR_REGISTRY
                .build(name, &g, &BuildOpts::default())
                .unwrap()
                .0;
            for s in g.vertices() {
                for t in g.vertices() {
                    for mask in 0..8u64 {
                        let allowed = LabelSet(mask);
                        assert_eq!(
                            idx.query(s, t, allowed),
                            lcr_bfs(&g, s, t, allowed),
                            "{name} on {edges:?}"
                        );
                    }
                }
            }
        }
    }
}
