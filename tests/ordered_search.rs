//! The order cut of guided search on condensation DAGs.
//!
//! A condensation's component ids are reverse topological, so a search
//! built over it skips every neighbour on the wrong side of the query
//! pair and answers `s < t` with false at once. That must change only
//! the work, never an answer: on condensations of seeded general graphs
//! and of every workload shape, each ordered guided index answers every
//! pair as BFS does, its batch answers equal its per-pair answers, and
//! it does no more filter lookups in total than the same filter over
//! the same DAG without the order property.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use reach_bench::workloads::ALL_SHAPES;
use reachability::graph::generators::random_digraph;
use reachability::graph::traverse::{bfs_reaches, VisitMap};
use reachability::graph::Condensation;
use reachability::plain::bfl::build_bfl;
use reachability::plain::feline::build_feline;
use reachability::plain::ferrari::build_ferrari;
use reachability::plain::grail::build_grail;
use reachability::plain::hl::Hl;
use reachability::plain::ip::build_ip;
use reachability::plain::oreach::build_oreach;
use reachability::plain::preach::Preach;
use reachability::prelude::*;

/// The DAGs one general graph yields: its condensation, which has the
/// order property, and the same graph and topological order without it.
fn dags(g: &DiGraph) -> (Dag, Dag) {
    let ordered = Condensation::new(g).dag().clone();
    let plain = Dag::from_parts(ordered.graph().clone(), ordered.topo_order().to_vec());
    assert!(ordered.ids_reverse_topological());
    assert!(!plain.ids_reverse_topological());
    (ordered, plain)
}

/// Every ordered pair of `dag` with its BFS answer.
fn all_pairs(dag: &Dag) -> (Vec<(VertexId, VertexId)>, Vec<bool>) {
    let mut visit = VisitMap::new(dag.num_vertices());
    let pairs: Vec<(VertexId, VertexId)> = dag
        .vertices()
        .flat_map(|s| dag.vertices().map(move |t| (s, t)))
        .collect();
    let truth = pairs
        .iter()
        .map(|&(s, t)| bfs_reaches(dag, s, t, &mut visit))
        .collect();
    (pairs, truth)
}

/// Checks one guided index built by `build` on both DAGs; returns the
/// summed lookups of the ordered and the plain search.
fn check<F: ReachFilter>(
    case: &str,
    name: &str,
    (ordered, plain): (&Dag, &Dag),
    build: impl Fn(&Dag) -> GuidedSearch<F>,
) -> (usize, usize) {
    let (pairs, truth) = all_pairs(ordered);
    let (fast, slow) = (build(ordered), build(plain));
    let mut lookups = (0, 0);
    for (&(s, t), &expect) in pairs.iter().zip(&truth) {
        let (answer, stats) = fast.query_counted(s, t);
        assert_eq!(answer, expect, "{case}: ordered {name} at {s:?}->{t:?}");
        lookups.0 += stats.lookups;
        let (answer, stats) = slow.query_counted(s, t);
        assert_eq!(answer, expect, "{case}: plain {name} at {s:?}->{t:?}");
        lookups.1 += stats.lookups;
    }
    assert_eq!(fast.query_batch(&pairs), truth, "{case}: {name} batch");
    assert!(
        lookups.0 <= lookups.1,
        "{case}: ordered {name} looked up more ({} > {})",
        lookups.0,
        lookups.1
    );
    lookups
}

/// Every guided index of the registry on one general graph.
fn check_all(case: &str, g: &DiGraph) {
    let (ordered, plain) = dags(g);
    let both = (&ordered, &plain);
    let totals = [
        check(case, "BFL", both, |d| build_bfl(d, 64, 3)),
        check(case, "Feline", both, build_feline),
        check(case, "Ferrari", both, |d| build_ferrari(d, 2)),
        check(case, "GRAIL", both, |d| build_grail(d, 2, 5, 1)),
        check(case, "IP", both, |d| build_ip(d, 4, 7)),
        check(case, "O'Reach", both, |d| build_oreach(d, 4)),
        check(case, "PReaCH", both, Preach::build),
    ];
    let (fast, slow) = totals.iter().fold((0, 0), |(a, b), &(x, y)| (a + x, b + y));
    if ordered.num_vertices() > 1 {
        assert!(fast < slow, "{case}: the order cut saved no lookup");
    }
    // HL wraps its guided search behind a landmark scan
    let (pairs, truth) = all_pairs(&ordered);
    let hl = Hl::build(&ordered, 4, 1);
    for (&(s, t), &expect) in pairs.iter().zip(&truth) {
        assert_eq!(hl.query(s, t), expect, "{case}: HL at {s:?}->{t:?}");
    }
    assert_eq!(hl.query_batch(&pairs), truth, "{case}: HL batch");
}

#[test]
fn ordered_search_matches_bfs_on_condensed_general_graphs() {
    for seed in 0..6 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_digraph(140, 180 + 40 * seed as usize, &mut rng);
        check_all(&format!("random seed {seed}"), &g);
    }
}

#[test]
fn ordered_search_matches_bfs_on_every_shape() {
    for shape in ALL_SHAPES {
        for seed in [1, 2] {
            check_all(
                &format!("{} seed {seed}", shape.name()),
                &shape.generate(120, seed),
            );
        }
    }
}

#[test]
fn condensed_indexes_cut_backward_pairs_before_the_inner_index() {
    // a chain 0 -> 1 -> 2 -> 3 condenses to ids 3, 2, 1, 0
    let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let (ordered, _) = dags(&g);
    let grail = build_grail(&ordered, 2, 5, 1);
    let (answer, stats) = grail.query_counted(VertexId(0), VertexId(3));
    assert!(!answer);
    assert_eq!((stats.lookups, stats.expanded), (0, 0));
    let (answer, stats) = grail.query_counted(VertexId(3), VertexId(0));
    assert!(answer);
    assert!(stats.expanded <= 3, "{stats:?}");
}
