//! The two set-up shortcuts of the §3.1 reduction, each checked against
//! the plain construction it replaces.
//!
//! * `Condensation::new` writes the condensed out-lists inside Tarjan's
//!   DFS, as each component pops. It must give the same component map,
//!   out-lists, in-lists and topological order as relabeling the input
//!   edges to component ids and building the DAG from that edge list.
//! * A `DiGraph` transposes its in-lists on first use. They must equal
//!   a brute-force transpose however and whenever they are first asked
//!   for, and the builds that never read them must leave them unbuilt.
//!
//! Every random case comes from a seeded `SmallRng`; failures print
//! the case number.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reachability::graph::scc::tarjan_scc;
use reachability::graph::{Condensation, Dag, DiGraph, PreparedGraph, VertexId};
use reachability::plain::pipeline::BuildOpts;
use reachability::plain::IndexService;
use std::sync::{Arc, Barrier};

/// The relabel the fused condensation replaced: every input edge
/// mapped to component ids, intra-component edges dropped, and the
/// DAG built from that list with the order `nc-1, …, 1, 0`.
fn reference(g: &DiGraph) -> (Vec<u32>, Dag) {
    let scc = tarjan_scc(g);
    let comp = scc.components().to_vec();
    let nc = scc.num_components();
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (comp[u.index()], comp[v.index()]))
        .filter(|&(cu, cv)| cu != cv)
        .collect();
    let order = (0..nc as u32).rev().map(VertexId).collect();
    (
        comp,
        Dag::from_parts(DiGraph::from_edges(nc, &edges), order),
    )
}

fn assert_condensation_matches(case: &str, g: &DiGraph) {
    let (comp, expect) = reference(g);
    let c = Condensation::new(g);
    assert_eq!(c.scc().components(), &comp[..], "{case}: component map");
    let dag = c.dag();
    assert_eq!(dag.num_vertices(), expect.num_vertices(), "{case}");
    assert_eq!(dag.num_edges(), expect.num_edges(), "{case}");
    assert_eq!(dag.topo_order(), expect.topo_order(), "{case}: order");
    assert!(dag.ids_reverse_topological(), "{case}");
    for v in dag.vertices() {
        assert_eq!(
            dag.out_neighbors(v),
            expect.out_neighbors(v),
            "{case}: out {v:?}"
        );
        assert_eq!(
            dag.in_neighbors(v),
            expect.in_neighbors(v),
            "{case}: in {v:?}"
        );
        assert_eq!(dag.topo_rank(v), expect.topo_rank(v), "{case}: rank");
    }
}

/// A general graph with self-loops, duplicate edges and 2-cycles; when
/// `giant`, one cycle also threads most of the vertices into one SCC.
fn general_graph(rng: &mut SmallRng, giant: bool) -> DiGraph {
    let n = rng.random_range(2usize..80);
    let m = rng.random_range(0..4 * n);
    let mut edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
        .collect();
    for _ in 0..rng.random_range(0..4) {
        let v = rng.random_range(0..n as u32);
        edges.push((v, v));
    }
    for _ in 0..rng.random_range(0..4) {
        let (u, v) = (rng.random_range(0..n as u32), rng.random_range(0..n as u32));
        edges.extend([(u, v), (v, u), (u, v)]);
    }
    if giant {
        let mut ring: Vec<u32> = (0..n as u32)
            .filter(|_| rng.random_range(0..10) < 9)
            .collect();
        for i in (1..ring.len()).rev() {
            ring.swap(i, rng.random_range(0..=i));
        }
        for (i, &u) in ring.iter().enumerate() {
            edges.push((u, ring[(i + 1) % ring.len()]));
        }
    }
    DiGraph::from_edges(n, &edges)
}

#[test]
fn fused_condensation_matches_the_reference_relabel() {
    for case in 0..150u64 {
        let mut rng = SmallRng::seed_from_u64(case ^ 0x5cc);
        let g = general_graph(&mut rng, case % 3 == 0);
        assert_condensation_matches(&format!("case {case}"), &g);
    }
    assert_condensation_matches("n = 0", &DiGraph::from_edges(0, &[]));
    assert_condensation_matches("n = 1", &DiGraph::from_edges(1, &[]));
    assert_condensation_matches("n = 1 loop", &DiGraph::from_edges(1, &[(0, 0)]));
    let n = 200_000u32;
    let path: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    assert_condensation_matches("path", &DiGraph::from_edges(n as usize, &path));
}

/// In-lists built by scanning every edge and sorting.
fn brute_force_in_lists(g: &DiGraph) -> Vec<Vec<VertexId>> {
    let mut inn = vec![Vec::new(); g.num_vertices()];
    for (u, v) in g.edges() {
        inn[v.index()].push(u);
    }
    for list in &mut inn {
        list.sort_unstable();
    }
    inn
}

fn in_lists(g: &DiGraph) -> Vec<Vec<VertexId>> {
    g.vertices().map(|v| g.in_neighbors(v).to_vec()).collect()
}

#[test]
fn lazy_in_lists_equal_a_brute_force_transpose() {
    for case in 0..100u64 {
        let mut rng = SmallRng::seed_from_u64(case ^ 0x1a2e);
        let g = general_graph(&mut rng, case % 2 == 0);
        assert!(!g.in_lists_built(), "case {case}");
        let expect = brute_force_in_lists(&g);
        let before = g.clone();
        assert_eq!(in_lists(&g), expect, "case {case}");
        assert!(g.in_lists_built(), "case {case}");
        let after = g.clone();
        assert!(!before.in_lists_built() && after.in_lists_built());
        assert_eq!(before, after, "case {case}");
        assert_eq!(in_lists(&before), in_lists(&after), "case {case}");
        let back = g.reverse().reverse();
        assert_eq!(back, g, "case {case}");
        assert_eq!(in_lists(&back), expect, "case {case}");
        assert_eq!(g.size_bytes(), before.size_bytes(), "case {case}");
    }
}

#[test]
fn racing_first_calls_see_one_transpose() {
    let mut rng = SmallRng::seed_from_u64(4);
    let g = general_graph(&mut rng, true);
    let expect = brute_force_in_lists(&g);
    let start = Barrier::new(4);
    let seen: Vec<Vec<&[VertexId]>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    g.vertices().map(|v| g.in_neighbors(v)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for lists in &seen {
        for (v, list) in lists.iter().enumerate() {
            assert_eq!(*list, &expect[v][..]);
            // the same slice of the one transpose, not an equal copy
            assert_eq!(list.as_ptr(), seen[0][v].as_ptr());
        }
    }
}

#[test]
fn out_list_builds_leave_in_lists_unbuilt() {
    let mut rng = SmallRng::seed_from_u64(27);
    let edges: Vec<(u32, u32)> = (0..2400)
        .map(|_| (rng.random_range(0..600), rng.random_range(0..600)))
        .collect();
    let g = DiGraph::from_edges(600, &edges);
    let build = |name| {
        let p = PreparedGraph::new(g.clone());
        IndexService::build(name, Arc::clone(&p), &BuildOpts::default(), 2).unwrap();
        (p.graph().in_lists_built(), p.dag().in_lists_built())
    };
    // GRAIL's labelings and guided DFS read out-lists only
    assert_eq!(build("GRAIL"), (false, false));
    // BFL's `Lin` sweep reads the condensation's in-lists
    assert_eq!(build("BFL"), (false, true));
    // a bidirectional search walks in-lists, so its build makes them
    assert_eq!(build("online-BiBFS"), (true, false));
    assert_eq!(build("PReaCH"), (false, true));
}
