//! Replays every worked example of the survey's **Figure 1** against
//! the implemented indexes, printing each claim and its verification.
//!
//! ```text
//! cargo run -p reach-bench --bin figure1
//! ```

use reach_bench::args;
use reach_core::pipeline::{BuildOpts, PLAIN_REGISTRY};
use reach_graph::fixtures::{
    self, label_name, vertex_name, A, B, D, FOLLOWS, FRIEND_OF, G, H, L, M, WORKS_FOR,
};
use reach_graph::LabelSet;
use reach_graph::PreparedGraph;
use reach_labeled::online::rlc_bfs;
use reach_labeled::rlc::RlcIndex;
use reach_labeled::zou::single_source_gtc;
use reach_labeled::LCR_REGISTRY;
use std::sync::Arc;

fn main() {
    args::from_env(&[], "figure1", |_| Ok(()));
    let plain = Arc::new(fixtures::figure1a());
    let labeled = Arc::new(fixtures::figure1b());

    println!(
        "Figure 1 fixtures: {} vertices, {} labeled edges",
        plain.num_vertices(),
        labeled.num_edges()
    );
    for (u, l, v) in labeled.edges() {
        println!(
            "  {} -{}-> {}",
            vertex_name(u),
            label_name(l),
            vertex_name(v)
        );
    }

    // §2.1: Qr(A,G) = true because of the s-t path (A, D, H, G)
    println!("\n§2.1  Qr(A,G) on the plain graph:");
    assert!(plain.has_edge(A, D) && plain.has_edge(D, H) && plain.has_edge(H, G));
    println!("  witness path (A, D, H, G) exists in the fixture ✓");
    let prepared = PreparedGraph::new_shared(Arc::clone(&plain));
    let (opts, names) = (BuildOpts::default(), PLAIN_REGISTRY.names());
    for name in &names {
        let (idx, _) = PLAIN_REGISTRY
            .build(name, &prepared, &opts)
            .expect("registry name");
        assert!(idx.query(A, G), "{name}");
    }
    println!("  all {} plain indexes answer true ✓", names.len());

    // §2.2: Qr(A, G, (friendOf ∪ follows)*) = false
    println!("\n§2.2  Qr(A, G, (friendOf ∪ follows)*):");
    let constraint = LabelSet::from_labels([FRIEND_OF, FOLLOWS]);
    let names = LCR_REGISTRY.names();
    for name in &names {
        let (idx, _) = LCR_REGISTRY
            .build(name, &labeled, &opts)
            .expect("registry name");
        assert!(!idx.query(A, G, constraint), "{name}");
    }
    println!("  all {} LCR indexes answer false ✓", names.len());

    // §4.1: SPLS examples
    println!("\n§4.1  sufficient path-label sets:");
    let from_l = single_source_gtc(&labeled, L);
    assert_eq!(from_l[M.index()].sets(), &[LabelSet::singleton(WORKS_FOR)]);
    println!("  SPLS(L→M) = {{worksFor}} (p1 dominates p2) ✓");
    let from_a = single_source_gtc(&labeled, A);
    assert_eq!(
        from_a[M.index()].sets(),
        &[LabelSet::from_labels([FOLLOWS, WORKS_FOR])]
    );
    assert_eq!(from_a[L.index()].sets(), &[LabelSet::singleton(FOLLOWS)]);
    println!("  SPLS(A→M) = {{follows, worksFor}} = SPLS(A→L) × SPLS(L→M) ✓");

    // §4.1.2: the Dijkstra-like expansion example
    println!("\n§4.1.2  label-count Dijkstra from L:");
    assert_eq!(from_l[H.index()].sets(), &[LabelSet::singleton(WORKS_FOR)]);
    println!("  p3 = (L,worksFor,C,worksFor,H) with 1 distinct label wins over");
    println!("  p4 = (L,worksFor,D,friendOf,H) with 2 ✓");

    // §4.2: the MR example
    println!("\n§4.2  Qr(L, B, (worksFor · friendOf)*):");
    assert!(rlc_bfs(&labeled, L, B, &[WORKS_FOR, FRIEND_OF]));
    let rlc = RlcIndex::build(&labeled, 2).expect("3 labels, kmax 2: 12 units");
    assert_eq!(rlc.try_query(L, B, &[WORKS_FOR, FRIEND_OF]), Some(true));
    println!("  MR (worksFor, friendOf) found by both the online product-BFS");
    println!("  and the RLC index ✓");

    println!("\nAll Figure-1 claims reproduced.");
}
