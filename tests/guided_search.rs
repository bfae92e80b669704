//! Integration test for §5's guided-traversal mechanics: the filters
//! must demonstrably *reduce work*, not just stay correct — a partial
//! index whose lookups never prune would silently degenerate to DFS.

use rand::SeedableRng;
use reach_bench::queries::query_mix;
use reach_bench::workloads::Shape;
use reachability::plain::dagger::DynamicGrail;
use reachability::plain::dbl::Dbl;
use reachability::plain::engine::{GuidedSearch, Oblivious};
use reachability::plain::grail::GrailFilter;
use reachability::plain::{bfl, ferrari, grail};
use reachability::prelude::*;

fn oblivious_meta() -> IndexMeta {
    IndexMeta {
        name: "oblivious",
        citation: "[-]",
        framework: Framework::Other,
        completeness: Completeness::Partial,
        input: InputClass::Dag,
        dynamism: Dynamism::Static,
    }
}

#[test]
fn real_filters_expand_fewer_vertices_than_dfs() {
    let graph = Shape::Sparse.generate(2_000, 55);
    let dag = Dag::new(graph).unwrap();
    let shared = dag.shared_graph();
    let mix = query_mix(&shared, 400, 0.5, 3);
    // DAGGER's intervals after widening: built without every fifth
    // edge, which the updates then put back
    let edges: Vec<(VertexId, VertexId)> = shared.edges().collect();
    let kept: Vec<(u32, u32)> = edges
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 != 0)
        .map(|(_, &(u, v))| (u.0, v.0))
        .collect();
    let mut dagger =
        DynamicGrail::build(&Dag::new(DiGraph::from_edges(2_000, &kept)).unwrap(), 3, 9);
    for &(u, v) in edges.iter().step_by(5) {
        dagger.insert_edge(u, v);
    }

    let baseline = GuidedSearch::new(shared.clone(), Oblivious, oblivious_meta());
    let candidates: Vec<(&str, GuidedSearch<Box<dyn ReachFilter>>)> = vec![
        (
            "GRAIL",
            GuidedSearch::new(
                shared.clone(),
                Box::new(GrailFilter::build(&dag, 3, 9, 1)) as Box<dyn ReachFilter>,
                oblivious_meta(),
            ),
        ),
        (
            "Ferrari",
            GuidedSearch::new(
                shared.clone(),
                Box::new(ferrari::FerrariFilter::build(&dag, 4)),
                oblivious_meta(),
            ),
        ),
        (
            "BFL",
            GuidedSearch::new(
                shared.clone(),
                Box::new(bfl::BflFilter::build(&dag, 256, 1)),
                oblivious_meta(),
            ),
        ),
        (
            "DAGGER",
            GuidedSearch::new(
                shared.clone(),
                Box::new(dagger.filter().clone()),
                oblivious_meta(),
            ),
        ),
        (
            "DBL",
            GuidedSearch::new(
                shared.clone(),
                Box::new(Dbl::build(&shared).filter().clone()),
                oblivious_meta(),
            ),
        ),
    ];

    let mut base_work = 0usize;
    for &(s, t) in &mix.pairs {
        base_work += baseline.query_counted(s, t).1.expanded;
    }
    for (name, idx) in &candidates {
        let mut work = 0usize;
        for &(s, t) in &mix.pairs {
            let (answer, stats) = idx.query_counted(s, t);
            assert_eq!(answer, baseline.query(s, t), "{name} wrong at {s:?}->{t:?}");
            work += stats.expanded;
        }
        assert!(
            work * 2 < base_work,
            "{name} should prune at least half the DFS expansions \
             ({work} vs baseline {base_work})"
        );
    }
}

#[test]
fn definite_positive_filters_short_circuit() {
    // Ferrari's exact intervals answer reachable tree pairs with zero
    // expansions
    let mut rng = rand::rngs::SmallRng::seed_from_u64(10);
    let dag = reachability::graph::generators::random_tree_plus_edges(500, 5, &mut rng);
    let idx = grail::build_grail(&dag, 2, 3, 1);
    let ferrari = ferrari::build_ferrari(&dag, 8);
    let mut zero_expansion_hits = 0;
    for s in dag.vertices().step_by(7) {
        for t in dag.vertices().step_by(11) {
            let (answer, stats) = ferrari.query_counted(s, t);
            assert_eq!(answer, idx.query(s, t));
            if answer && stats.expanded == 0 {
                zero_expansion_hits += 1;
            }
        }
    }
    assert!(
        zero_expansion_hits > 0,
        "exact intervals should answer some positives by lookup alone"
    );
}
