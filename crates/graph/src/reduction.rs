//! Graph reduction preprocessing (§3.4: the SCARAB / ER / RCN slot).
//!
//! Reductions shrink the graph *before* any index is built, and are
//! orthogonal to the indexing technique — any index can be composed
//! with them. Two classic reductions are provided:
//!
//! * **transitive reduction** — remove every edge implied by a longer
//!   path (the minimal graph with the same transitive closure);
//! * **equivalence reduction** (the core of ER \[54\]) — merge vertices
//!   with identical out- and in-neighborhoods, which answer every
//!   reachability query identically.

use crate::digraph::{Dag, DiGraph, DiGraphBuilder};
use crate::vertex::VertexId;
use std::collections::HashMap;

/// Computes the transitive reduction of a DAG.
///
/// An edge `(u, v)` is redundant iff some other out-neighbor of `u`
/// reaches `v`. Runs one reverse-topological sweep maintaining
/// per-vertex descendant bitsets, so it is `O(n·m / 64)` time and
/// `O(n² / 64)` space — intended for the moderate graph sizes used in
/// ablation sweeps, not for million-vertex inputs.
pub fn transitive_reduction(dag: &Dag) -> DiGraph {
    let n = dag.num_vertices();
    let words = n.div_ceil(64);
    // closure[v] = bitset of vertices reachable from v (excluding v)
    let mut closure = vec![0u64; n * words];
    let mut keep: Vec<(VertexId, VertexId)> = Vec::new();

    for &u in dag.topo_order().iter().rev() {
        // A neighbor v is redundant if it is already in the closure of
        // some other (kept or not — closures are full) neighbor.
        for &v in dag.out_neighbors(u) {
            let mut implied = false;
            for &w in dag.out_neighbors(u) {
                if w == v {
                    continue;
                }
                let bits = &closure[w.index() * words..(w.index() + 1) * words];
                if bits[v.index() / 64] >> (v.index() % 64) & 1 == 1 {
                    implied = true;
                    break;
                }
            }
            if !implied {
                keep.push((u, v));
            }
        }
        // closure[u] = union of ({v} ∪ closure[v]) over all out-neighbors
        let neighbors: Vec<VertexId> = dag.out_neighbors(u).to_vec();
        for v in neighbors {
            let (head, tail) = if u.index() < v.index() {
                let (a, b) = closure.split_at_mut(v.index() * words);
                (
                    &mut a[u.index() * words..u.index() * words + words],
                    &b[..words],
                )
            } else {
                let (a, b) = closure.split_at_mut(u.index() * words);
                (
                    &mut b[..words],
                    &a[v.index() * words..v.index() * words + words] as &[u64],
                )
            };
            for w in 0..words {
                head[w] |= tail[w];
            }
            closure[u.index() * words + v.index() / 64] |= 1u64 << (v.index() % 64);
        }
    }

    let mut b = DiGraphBuilder::with_capacity(n, keep.len());
    for (u, v) in keep {
        b.add_edge(u, v);
    }
    b.build()
}

/// Result of an equivalence reduction: the reduced graph and the
/// original-vertex → reduced-vertex map.
#[derive(Debug, Clone)]
pub struct EquivalenceReduction {
    /// The reduced graph over equivalence-class representatives.
    pub graph: DiGraph,
    /// Class id of each original vertex.
    pub class_of: Vec<VertexId>,
}

/// Merges vertices whose out-neighbor *and* in-neighbor lists are
/// identical. Such vertices are reachability-equivalent: any query
/// `Qr(s, t)` can be answered on the reduced graph with the mapped
/// endpoints (distinct same-class endpoints are handled by the caller
/// noting that equivalent vertices reach each other iff they reach the
/// class, i.e. never directly unless a self-class edge exists — in a
/// simple digraph, `s ≠ t` in one class means `Qr(s,t)` is `false`
/// unless the class has an edge to itself in the reduced graph).
pub fn equivalence_reduction(g: &DiGraph) -> EquivalenceReduction {
    let n = g.num_vertices();
    let mut classes: HashMap<(Vec<VertexId>, Vec<VertexId>), u32> = HashMap::new();
    let mut class_of = vec![VertexId(0); n];
    for v in g.vertices() {
        let key = (g.out_neighbors(v).to_vec(), g.in_neighbors(v).to_vec());
        let next = classes.len() as u32;
        let id = *classes.entry(key).or_insert(next);
        class_of[v.index()] = VertexId(id);
    }
    let nc = classes.len();
    let mut b = DiGraphBuilder::with_capacity(nc, g.num_edges());
    for (u, v) in g.edges() {
        b.add_edge(class_of[u.index()], class_of[v.index()]);
    }
    EquivalenceReduction {
        graph: b.build(),
        class_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse::{bfs_reaches, VisitMap};

    #[test]
    fn reduction_drops_shortcut_edges() {
        // chain with a shortcut 0 -> 2
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let dag = Dag::new(g).unwrap();
        let r = transitive_reduction(&dag);
        assert_eq!(r.num_edges(), 2);
        assert!(!r.has_edge(VertexId(0), VertexId(2)));
    }

    #[test]
    fn reduction_preserves_reachability() {
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (0, 3),
                (3, 4),
                (1, 4),
                (4, 5),
                (0, 5),
            ],
        );
        let dag = Dag::new(g.clone()).unwrap();
        let r = transitive_reduction(&dag);
        assert!(r.num_edges() < g.num_edges());
        let mut vm1 = VisitMap::new(g.num_vertices());
        let mut vm2 = VisitMap::new(g.num_vertices());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    bfs_reaches(&g, s, t, &mut vm1),
                    bfs_reaches(&r, s, t, &mut vm2),
                    "mismatch at {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn reduction_of_reduced_graph_is_identity() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let dag = Dag::new(g.clone()).unwrap();
        assert_eq!(transitive_reduction(&dag), g);
    }

    #[test]
    fn equivalence_merges_twins() {
        // 1 and 2 have identical in/out neighborhoods
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let r = equivalence_reduction(&g);
        assert_eq!(r.graph.num_vertices(), 3);
        assert_eq!(r.class_of[1], r.class_of[2]);
        assert_ne!(r.class_of[0], r.class_of[3]);
    }

    #[test]
    fn equivalence_preserves_cross_class_reachability() {
        let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let r = equivalence_reduction(&g);
        let mut vm1 = VisitMap::new(g.num_vertices());
        let mut vm2 = VisitMap::new(r.graph.num_vertices());
        for s in g.vertices() {
            for t in g.vertices() {
                if r.class_of[s.index()] == r.class_of[t.index()] {
                    continue; // same-class pairs handled separately by callers
                }
                assert_eq!(
                    bfs_reaches(&g, s, t, &mut vm1),
                    bfs_reaches(
                        &r.graph,
                        r.class_of[s.index()],
                        r.class_of[t.index()],
                        &mut vm2
                    ),
                );
            }
        }
    }

    #[test]
    fn distinct_neighborhoods_stay_separate() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let r = equivalence_reduction(&g);
        assert_eq!(r.graph.num_vertices(), 3);
    }
}
