//! Feline \[45\]: dominance-drawing coordinates (§3.4).
//!
//! Every vertex gets a 2-D coordinate `(x, y)` from two topological
//! orders chosen to disagree wherever the DAG leaves freedom. If `s`
//! reaches `t` then `s` strictly dominates `t` in both coordinates, so
//! a failed dominance test is a proof of non-reachability — Feline is
//! a pure negative filter with a tiny (two u32 per vertex) footprint,
//! refined online by the guided search.

use crate::engine::{GuidedSearch, Traversal};
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter,
};
use reach_graph::{Dag, DiGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The two-coordinate dominance filter.
#[derive(Debug, Clone)]
pub struct FelineFilter {
    x: Vec<u32>,
    y: Vec<u32>,
}

/// Kahn topological order with a caller-chosen tie-break.
fn kahn_order(g: &DiGraph, prefer_small_ids: bool) -> Vec<u32> {
    let n = g.num_vertices();
    let mut in_deg: Vec<u32> = (0..n)
        .map(|v| g.in_degree(VertexId::new(v)) as u32)
        .collect();
    let mut rank = vec![0u32; n];
    let mut next = 0u32;
    if prefer_small_ids {
        let mut heap: BinaryHeap<Reverse<VertexId>> = g
            .vertices()
            .filter(|&v| in_deg[v.index()] == 0)
            .map(Reverse)
            .collect();
        while let Some(Reverse(u)) = heap.pop() {
            rank[u.index()] = next;
            next += 1;
            for &v in g.out_neighbors(u) {
                in_deg[v.index()] -= 1;
                if in_deg[v.index()] == 0 {
                    heap.push(Reverse(v));
                }
            }
        }
    } else {
        let mut heap: BinaryHeap<VertexId> =
            g.vertices().filter(|&v| in_deg[v.index()] == 0).collect();
        while let Some(u) = heap.pop() {
            rank[u.index()] = next;
            next += 1;
            for &v in g.out_neighbors(u) {
                in_deg[v.index()] -= 1;
                if in_deg[v.index()] == 0 {
                    heap.push(v);
                }
            }
        }
    }
    debug_assert_eq!(next as usize, n, "kahn_order requires a DAG");
    rank
}

impl FelineFilter {
    /// Builds the coordinates from two tie-break-opposed Kahn orders.
    pub fn build(dag: &Dag) -> Self {
        FelineFilter {
            x: kahn_order(dag.graph(), true),
            y: kahn_order(dag.graph(), false),
        }
    }

    /// The coordinate pair of `v`.
    pub fn coordinates(&self, v: VertexId) -> (u32, u32) {
        (self.x[v.index()], self.y[v.index()])
    }
}

impl ReachFilter for FelineFilter {
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        if s == t {
            return Certainty::Reachable;
        }
        if self.x[s.index()] >= self.x[t.index()] || self.y[s.index()] >= self.y[t.index()] {
            Certainty::Unreachable
        } else {
            Certainty::Unknown
        }
    }

    fn guarantees(&self) -> FilterGuarantees {
        FilterGuarantees {
            definite_positive: false,
            definite_negative: true,
        }
    }

    fn size_bytes(&self) -> usize {
        8 * self.x.len()
    }

    fn size_entries(&self) -> usize {
        self.x.len()
    }
}

/// Feline as an exact oracle.
pub type Feline = GuidedSearch<FelineFilter>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "Feline",
    citation: "[45]",
    framework: Framework::Other,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

/// Builds Feline over a DAG.
pub fn build_feline(dag: &Dag) -> Feline {
    let filter = FelineFilter::build(dag);
    GuidedSearch::on_dag(dag, filter, META, Traversal::Dfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReachIndex;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::random_dag;

    #[test]
    fn filter_has_no_false_negatives() {
        let mut rng = SmallRng::seed_from_u64(161);
        let dag = random_dag(100, 260, &mut rng);
        let f = FelineFilter::build(&dag);
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                if tc.reaches(s, t) {
                    assert_ne!(f.certain(s, t), Certainty::Unreachable);
                }
            }
        }
    }

    #[test]
    fn oracle_is_exact() {
        let mut rng = SmallRng::seed_from_u64(162);
        let dag = random_dag(80, 210, &mut rng);
        let idx = build_feline(&dag);
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t));
            }
        }
    }

    #[test]
    fn figure1_queries() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let idx = build_feline(&dag);
        assert!(idx.query(fixtures::A, fixtures::G));
        assert!(!idx.query(fixtures::H, fixtures::C));
    }

    #[test]
    fn coordinates_disagree_on_incomparable_vertices() {
        // two parallel chains: the orders should rank them differently
        // somewhere, giving the filter pruning power
        let g = reach_graph::DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let dag = Dag::new(g).unwrap();
        let f = FelineFilter::build(&dag);
        let pruned = dag
            .vertices()
            .flat_map(|s| dag.vertices().map(move |t| (s, t)))
            .filter(|&(s, t)| s != t && f.certain(s, t) == Certainty::Unreachable)
            .count();
        assert!(pruned > 0);
    }

    #[test]
    fn both_coordinates_are_topological() {
        let mut rng = SmallRng::seed_from_u64(163);
        let dag = random_dag(60, 150, &mut rng);
        let f = FelineFilter::build(&dag);
        for (u, v) in dag.graph().edges() {
            let (xu, yu) = f.coordinates(u);
            let (xv, yv) = f.coordinates(v);
            assert!(xu < xv && yu < yv);
        }
    }
}
