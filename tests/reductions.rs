//! Integration test for §3.4's observation that graph reductions
//! (SCARAB / ER / RCN slot) are *orthogonal* to the indexing
//! techniques: any index built on a reduced graph answers exactly the
//! queries of the original.

use reach_bench::workloads::Shape;
use reachability::graph::reduction::{equivalence_reduction, transitive_reduction};
use reachability::graph::PreparedGraph;
use reachability::plain::pipeline::{build_plain, plain_feasible, plain_names, BuildOpts};
use reachability::prelude::*;
use std::sync::Arc;

#[test]
fn transitive_reduction_composes_with_every_index() {
    let g = Shape::Dense.generate(60, 31);
    let dag = Dag::new(g.clone()).unwrap();
    let reduced = Arc::new(transitive_reduction(&dag));
    assert!(
        reduced.num_edges() < g.num_edges(),
        "dense DAGs have shortcuts"
    );
    let tc = TransitiveClosure::build(&g);
    let prepared = PreparedGraph::new_shared(reduced);
    for name in plain_names() {
        if !plain_feasible(name, 60, g.num_edges()) {
            continue;
        }
        let (idx, _) = build_plain(name, &prepared, &BuildOpts::default()).unwrap();
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    idx.query(s, t),
                    tc.reaches(s, t),
                    "{name} on the reduced graph at {s:?}->{t:?}"
                );
            }
        }
    }
}

#[test]
fn equivalence_reduction_composes_with_every_index() {
    // a layered DAG has many same-neighborhood twins
    let g = Shape::Deep.generate(100, 7);
    let er = equivalence_reduction(&g);
    assert!(
        er.graph.num_vertices() <= g.num_vertices(),
        "reduction never grows the graph"
    );
    let tc = TransitiveClosure::build(&g);
    let reduced = Arc::new(er.graph.clone());
    let reduced_tc = TransitiveClosure::build(&reduced);
    let prepared = PreparedGraph::new_shared(Arc::clone(&reduced));
    for name in ["GRAIL", "BFL", "PLL", "Feline"] {
        let (idx, _) = build_plain(name, &prepared, &BuildOpts::default()).unwrap();
        for s in g.vertices() {
            for t in g.vertices() {
                let (cs, ct) = (er.class_of[s.index()], er.class_of[t.index()]);
                if cs == ct {
                    // distinct same-class endpoints reach each other
                    // iff a nontrivial cycle passes through the class
                    let cycles = reduced
                        .out_neighbors(cs)
                        .iter()
                        .any(|&d| reduced_tc.reaches(d, cs));
                    let expect = s == t || cycles;
                    assert_eq!(tc.reaches(s, t), expect, "class semantics at {s:?}->{t:?}");
                    continue;
                }
                assert_eq!(
                    idx.query(cs, ct),
                    tc.reaches(s, t),
                    "{name} via classes at {s:?}->{t:?}"
                );
            }
        }
    }
}

#[test]
fn reductions_preserve_index_size_ordering() {
    // the point of reducing first: indexes get smaller, answers don't change
    let g = Shape::Dense.generate(300, 13);
    let dag = Dag::new(g.clone()).unwrap();
    let reduced = PreparedGraph::new(transitive_reduction(&dag));
    let original = PreparedGraph::new(g);
    let opts = BuildOpts::default();
    for name in ["Tree cover", "PLL", "TFL"] {
        let (full, _) = build_plain(name, &original, &opts).unwrap();
        let (slim, _) = build_plain(name, &reduced, &opts).unwrap();
        assert!(
            slim.size_entries() <= full.size_entries(),
            "{name}: reduction should not grow the index ({} > {})",
            slim.size_entries(),
            full.size_entries()
        );
    }
}
