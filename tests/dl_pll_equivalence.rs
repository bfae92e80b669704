//! Integration test for the survey's §3.2 claim: *"It has been proven
//! that DL and PLL are equivalent"* — both are TOL instantiated with
//! the degree order, one with canonical labels, one with
//! coverage-pruned labels, and they must answer identically.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use reach_bench::workloads::{Shape, ALL_SHAPES};
use reachability::plain::pll::Pll;
use reachability::plain::tol::build_dl;
use reachability::prelude::*;

#[test]
fn dl_and_pll_answer_identically_on_every_shape() {
    for shape in ALL_SHAPES {
        let g = shape.generate(80, 13);
        let dl = build_dl(&g, 1);
        let pll = Pll::build(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    dl.query(s, t),
                    pll.query(s, t),
                    "{} at {s:?}->{t:?}",
                    shape.name()
                );
            }
        }
    }
}

#[test]
fn pll_labels_are_never_larger_than_canonical_dl_labels() {
    // the pruning is the whole point: PLL ⊆ canonical label volume
    let mut sizes = Vec::new();
    for shape in [Shape::Sparse, Shape::PowerLaw, Shape::Dense] {
        let g = shape.generate(300, 17);
        let dl = build_dl(&g, 1);
        let pll = Pll::build(&g);
        assert!(
            pll.size_entries() <= dl.size_entries(),
            "{}: PLL {} > DL {}",
            shape.name(),
            pll.size_entries(),
            dl.size_entries()
        );
        sizes.push((shape.name(), pll.size_entries(), dl.size_entries()));
    }
    // and on at least one hub-heavy shape the pruning actually bites
    assert!(
        sizes.iter().any(|&(_, p, d)| p < d),
        "pruning never removed anything: {sizes:?}"
    );
}

#[test]
fn both_share_the_degree_order() {
    let mut rng = SmallRng::seed_from_u64(19);
    let g = reachability::graph::generators::random_digraph(60, 200, &mut rng);
    let dl = build_dl(&g, 1);
    let pll = Pll::build(&g);
    for v in g.vertices() {
        assert_eq!(
            dl.labels().order().rank_of(v),
            pll.labels().order().rank_of(v),
            "order mismatch at {v:?}"
        );
    }
}
