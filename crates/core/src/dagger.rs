//! DAGGER \[51\]: GRAIL for dynamic graphs.
//!
//! Maintains the `k` GRAIL interval labelings under edge updates by
//! *conservative widening*: an inserted edge `(u, v)` forces `L_v ⊆
//! L_u` along the new edge (and transitively backward), which keeps
//! the labels an over-approximation of reachability — the
//! no-false-negative invariant guided search needs. Deletions leave
//! labels untouched (reachability only shrinks, so the
//! over-approximation stays valid); the intervals merely lose pruning
//! power until [`DynamicGrail::rebuild`] re-tightens them. This is the
//! soundness-first reading of DAGGER's design: the index never answers
//! wrongly, it only degrades toward plain DFS between rebuilds.

use crate::engine::GuidedSearch;
use crate::grail::GrailFilter;
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass};
use reach_graph::{Dag, EditGraph, VertexId};

/// The dynamic GRAIL index: GRAIL's `k` interval labelings over an
/// editable adjacency, queried by guided DFS. Each labeling keeps the
/// invariant `s` reaches `t` ⇒ interval of `t` ⊆ interval of `s`.
pub type DynamicGrail = GuidedSearch<GrailFilter, EditGraph>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "DAGGER",
    citation: "[51]",
    framework: Framework::TreeCover,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::InsertDelete,
};

impl DynamicGrail {
    /// Builds the index from a DAG snapshot with `k` labelings.
    pub fn build(dag: &Dag, k: usize, seed: u64) -> Self {
        GuidedSearch::new(
            EditGraph::from_graph(dag.graph()),
            GrailFilter::build(dag, k, seed, 1),
            META,
        )
    }

    /// Inserts `u -> v`, widening intervals backward from `v` until the
    /// edge-wise containment invariant holds again.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        let (graph, filter) = self.parts_mut();
        if graph.insert(u, v) {
            for labeling in filter.labelings_mut() {
                graph.spread(labeling, [v], false, |(lo, hi), (ylo, yhi)| {
                    (lo.min(ylo), hi.max(yhi))
                });
            }
        }
    }

    /// Deletes `u -> v`. Labels are left as a (still sound)
    /// over-approximation; call [`rebuild`](Self::rebuild) to
    /// re-tighten once drift accumulates.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        self.parts_mut().0.remove(u, v);
    }

    /// Recomputes tight labels from the current graph. Returns `false`
    /// (leaving the sound wide labels in place) if updates have made
    /// the graph cyclic.
    pub fn rebuild(&mut self) -> bool {
        let (graph, filter) = self.parts_mut();
        match Dag::new(graph.to_digraph()) {
            Ok(dag) => {
                *filter = GrailFilter::build(&dag, filter.num_labelings(), filter.seed(), 1);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReachIndex;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures;
    use reach_graph::generators::random_dag;
    use reach_graph::DiGraph;

    fn check_exact(edges: &[(u32, u32)], n: usize, idx: &DynamicGrail) {
        let g = DiGraph::from_edges(n, edges);
        let tc = TransitiveClosure::build(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn static_queries_match_grail() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let idx = DynamicGrail::build(&dag, 2, 5);
        let edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        check_exact(&edges, 9, &idx);
    }

    #[test]
    fn insertions_stay_exact() {
        let mut rng = SmallRng::seed_from_u64(191);
        let dag = random_dag(30, 50, &mut rng);
        let mut idx = DynamicGrail::build(&dag, 2, 7);
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..25 {
            let u = rng.random_range(0..30u32);
            let mut v = rng.random_range(0..29u32);
            if v >= u {
                v += 1;
            }
            idx.insert_edge(VertexId(u), VertexId(v));
            if !edges.contains(&(u, v)) {
                edges.push((u, v));
            }
            check_exact(&edges, 30, &idx);
        }
    }

    #[test]
    fn deletions_stay_exact() {
        let mut rng = SmallRng::seed_from_u64(192);
        let dag = random_dag(30, 90, &mut rng);
        let mut idx = DynamicGrail::build(&dag, 3, 9);
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..30 {
            if edges.is_empty() {
                break;
            }
            let i = rng.random_range(0..edges.len());
            let (u, v) = edges.swap_remove(i);
            idx.delete_edge(VertexId(u), VertexId(v));
            check_exact(&edges, 30, &idx);
        }
    }

    #[test]
    fn cycle_creating_insert_stays_exact() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let dag = Dag::new(g).unwrap();
        let mut idx = DynamicGrail::build(&dag, 2, 3);
        idx.insert_edge(VertexId(3), VertexId(0));
        check_exact(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4, &idx);
        // rebuild must refuse (graph is cyclic) but stay correct
        assert!(!idx.rebuild());
        check_exact(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4, &idx);
    }

    #[test]
    fn rebuild_retightens_after_deletions() {
        let mut rng = SmallRng::seed_from_u64(193);
        let dag = random_dag(40, 120, &mut rng);
        let mut idx = DynamicGrail::build(&dag, 2, 11);
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..40 {
            let i = rng.random_range(0..edges.len());
            let (u, v) = edges.swap_remove(i);
            idx.delete_edge(VertexId(u), VertexId(v));
        }
        assert!(idx.rebuild());
        check_exact(&edges, 40, &idx);
    }

    #[test]
    fn mixed_workload_stays_exact() {
        let mut rng = SmallRng::seed_from_u64(194);
        let dag = random_dag(20, 35, &mut rng);
        let mut idx = DynamicGrail::build(&dag, 2, 13);
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..40 {
            if rng.random_bool(0.6) || edges.is_empty() {
                let u = rng.random_range(0..20u32);
                let mut v = rng.random_range(0..19u32);
                if v >= u {
                    v += 1;
                }
                idx.insert_edge(VertexId(u), VertexId(v));
                if !edges.contains(&(u, v)) {
                    edges.push((u, v));
                }
            } else {
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                idx.delete_edge(VertexId(u), VertexId(v));
            }
            check_exact(&edges, 20, &idx);
        }
    }
}
