//! Integration test: every worked example of the survey's Figure 1,
//! verified against every implemented index (the claim-by-claim list
//! is DESIGN.md §4, rows "Figure 1(a)" and "Figure 1(b)").

use reachability::graph::fixtures::{
    self, A, B, C, D, FOLLOWS, FRIEND_OF, G, H, K, L, M, WORKS_FOR,
};
use reachability::graph::PreparedGraph;
use reachability::labeled::online::{lcr_bfs, rlc_bfs};
use reachability::labeled::rlc::RlcIndex;
use reachability::labeled::zou::single_source_gtc;
use reachability::labeled::LCR_REGISTRY;
use reachability::plain::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reachability::prelude::*;
use std::sync::Arc;

#[test]
fn qr_a_g_is_true_for_every_plain_index() {
    // §2.1: "Qr(A,G) = true because of an s-t path (A, D, H, G)"
    let g = Arc::new(fixtures::figure1a());
    assert!(g.has_edge(A, D) && g.has_edge(D, H) && g.has_edge(H, G));
    let prepared = PreparedGraph::new_shared(g);
    for name in PLAIN_REGISTRY.names() {
        let (idx, _) = PLAIN_REGISTRY
            .build(name, &prepared, &BuildOpts::default())
            .unwrap();
        assert!(idx.query(A, G), "{name}: Qr(A,G) must be true");
    }
}

#[test]
fn alternation_example_is_false_for_every_lcr_index() {
    // §2.2: "Qr(A, G, (friendOf ∪ follows)*) = false … because every
    // path from A to G includes worksFor"
    let g = Arc::new(fixtures::figure1b());
    let constraint = LabelSet::from_labels([FRIEND_OF, FOLLOWS]);
    assert!(!lcr_bfs(&g, A, G, constraint));
    for name in LCR_REGISTRY.names() {
        let idx = LCR_REGISTRY
            .build(name, &g, &BuildOpts::default())
            .unwrap()
            .0;
        assert!(!idx.query(A, G, constraint), "{name}");
        assert!(idx.query(A, G, LabelSet::full(3)), "{name}: unconstrained");
    }
}

#[test]
fn spls_l_to_m_example() {
    // §4.1: p1 = (L,worksFor,C,worksFor,M), p2 = (L,follows,K,worksFor,M);
    // p1's label set is the SPLS.
    let g = fixtures::figure1b();
    // both witness paths exist
    let has = |u: VertexId, l: Label, v: VertexId| g.out_edges(u).any(|(w, el)| w == v && el == l);
    assert!(has(L, WORKS_FOR, C) && has(C, WORKS_FOR, M));
    assert!(has(L, FOLLOWS, K) && has(K, WORKS_FOR, M));
    let rows = single_source_gtc(&g, L, true);
    assert_eq!(rows[M.index()].sets(), &[LabelSet::singleton(WORKS_FOR)]);
}

#[test]
fn spls_transitivity_example() {
    // §4.1: SPLS(A→M) = {follows, worksFor} = SPLS(A→L) × SPLS(L→M)
    let g = fixtures::figure1b();
    let from_a = single_source_gtc(&g, A, true);
    let from_l = single_source_gtc(&g, L, true);
    assert_eq!(from_a[L.index()].sets(), &[LabelSet::singleton(FOLLOWS)]);
    assert_eq!(from_l[M.index()].sets(), &[LabelSet::singleton(WORKS_FOR)]);
    let product = from_a[L.index()].cross_product(&from_l[M.index()]);
    assert_eq!(from_a[M.index()], product);
    assert_eq!(
        from_a[M.index()].sets(),
        &[LabelSet::from_labels([FOLLOWS, WORKS_FOR])]
    );
}

#[test]
fn zou_dijkstra_example() {
    // §4.1.2: among p3 = (L,worksFor,C,worksFor,H) (1 distinct label)
    // and p4 = (L,worksFor,D,friendOf,H) (2), p3 wins.
    let g = fixtures::figure1b();
    let rows = single_source_gtc(&g, L, true);
    assert_eq!(rows[H.index()].sets(), &[LabelSet::singleton(WORKS_FOR)]);
    // and the dominated set is genuinely a path label set
    assert!(rows[H.index()].satisfies(LabelSet::from_labels([WORKS_FOR])));
    assert!(!rows[H.index()]
        .sets()
        .contains(&LabelSet::from_labels([WORKS_FOR, FRIEND_OF])));
}

#[test]
fn mr_example_and_rlc_query() {
    // §4.2: the path (L,worksFor,D,friendOf,H,worksFor,G,friendOf,B)
    // has MR (worksFor, friendOf), so Qr(L,B,(worksFor·friendOf)*) = true
    let g = fixtures::figure1b();
    assert!(rlc_bfs(&g, L, B, &[WORKS_FOR, FRIEND_OF]));
    let idx = RlcIndex::build(&g, 2).unwrap();
    assert_eq!(idx.try_query(L, B, &[WORKS_FOR, FRIEND_OF]), Some(true));
    // and the MR really is minimal: neither single label suffices
    assert_eq!(idx.try_query(L, B, &[WORKS_FOR]), Some(false));
    assert_eq!(idx.try_query(L, B, &[FRIEND_OF]), Some(false));
}

#[test]
fn figure1_reachability_matrix_is_consistent_across_all_indexes() {
    let g = Arc::new(fixtures::figure1a());
    let tc = TransitiveClosure::build(&g);
    let prepared = PreparedGraph::new_shared(Arc::clone(&g));
    for name in PLAIN_REGISTRY.names() {
        let (idx, _) = PLAIN_REGISTRY
            .build(name, &prepared, &BuildOpts::default())
            .unwrap();
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "{name} at {s:?}->{t:?}");
            }
        }
    }
}

#[test]
fn figure1_lcr_matrix_is_consistent_across_all_indexes() {
    let g = Arc::new(fixtures::figure1b());
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
                        "{name} at {s:?}->{t:?} under {allowed:?}"
                    );
                }
            }
        }
    }
}
