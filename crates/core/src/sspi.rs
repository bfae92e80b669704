//! Tree + SSPI \[9\]: spanning-tree intervals plus a surrogate
//! predecessor index over non-tree edges.
//!
//! A partial tree-cover index: the spanning-forest interval answers
//! tree-descendant pairs in O(1); everything else is resolved by
//! hopping *backward* over non-tree edges — if some non-tree edge
//! `(u, v)` has the current target inside `v`'s subtree, then reaching
//! `u` suffices, so `u` joins the target frontier. Any `s`–`t` path
//! decomposes into tree segments joined by non-tree edges, which makes
//! the hop traversal exact.

use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::interval::SpanningForest;
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{Dag, ScratchPool, VertexId};

/// The Tree+SSPI index.
pub struct TreeSspi {
    forest: SpanningForest,
    /// the surrogate predecessor index: for each vertex `v`, the tails
    /// `u` of non-tree edges `(u, v)` entering it
    tails_by_head: Vec<Vec<VertexId>>,
    num_non_tree: usize,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    /// vertices already pushed onto the hop frontier
    frontier: VisitMap,
    /// ancestors whose surrogate-predecessor lists were already drained
    processed: VisitMap,
    stack: Vec<VertexId>,
}

impl TreeSspi {
    /// Builds the index for a DAG.
    pub fn build(dag: &Dag) -> Self {
        let forest = SpanningForest::build(dag);
        let n = dag.num_vertices();
        let mut tails_by_head: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        for &(u, v) in forest.non_tree_edges() {
            tails_by_head[v.index()].push(u);
        }
        TreeSspi {
            num_non_tree: forest.non_tree_edges().len(),
            forest,
            tails_by_head,
            scratch: ScratchPool::new(),
        }
    }

    /// The spanning forest the index is built on.
    pub fn forest(&self) -> &SpanningForest {
        &self.forest
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "Tree+SSPI",
    citation: "[9]",
    framework: Framework::TreeCover,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

impl ReachIndex for TreeSspi {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        if self.forest.contains(s, t) {
            return true;
        }
        // Backward hop search: a frontier vertex w is reachable from s
        // through some non-tree edge (u, v) with v a tree ancestor of w
        // — so walk w's ancestor chain once (Forward marks), pushing
        // each ancestor's surrogate predecessors (Backward marks).
        let n = self.forest.num_vertices();
        let scratch = &mut *self.scratch.checkout(|| Scratch {
            frontier: VisitMap::new(n),
            processed: VisitMap::new(n),
            stack: Vec::new(),
        });
        scratch.frontier.reset();
        scratch.processed.reset();
        scratch.stack.clear();
        scratch.stack.push(t);
        scratch.frontier.mark(t, Side::Backward);
        while let Some(w) = scratch.stack.pop() {
            if self.forest.contains(s, w) {
                return true;
            }
            let mut a = Some(w);
            while let Some(v) = a {
                // ancestors above a processed vertex were processed with it
                if !scratch.processed.mark(v, Side::Forward) {
                    break;
                }
                for &u in &self.tails_by_head[v.index()] {
                    if scratch.frontier.mark(u, Side::Backward) {
                        scratch.stack.push(u);
                    }
                }
                a = self.forest.parent(v);
            }
        }
        false
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        // two interval bounds per vertex + the surrogate predecessor lists
        8 * self.forest.num_vertices() + 8 * self.num_non_tree
    }

    fn size_entries(&self) -> usize {
        self.forest.num_vertices() + self.num_non_tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{random_dag, random_tree_plus_edges};

    fn check(dag: &Dag) {
        let idx = TreeSspi::build(dag);
        let tc = TransitiveClosure::build_dag(dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check(&Dag::new(fixtures::figure1a()).unwrap());
    }

    #[test]
    fn exact_on_tree_heavy_dags() {
        let mut rng = SmallRng::seed_from_u64(51);
        check(&random_tree_plus_edges(100, 12, &mut rng));
    }

    #[test]
    fn exact_on_dense_dags() {
        let mut rng = SmallRng::seed_from_u64(52);
        check(&random_dag(60, 220, &mut rng));
    }

    #[test]
    fn pure_tree_answers_without_hops() {
        let mut rng = SmallRng::seed_from_u64(53);
        let dag = random_tree_plus_edges(80, 0, &mut rng);
        let idx = TreeSspi::build(&dag);
        assert!(idx.forest().non_tree_edges().is_empty());
        check(&dag);
    }

    #[test]
    fn index_size_counts_tree_and_links() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let idx = TreeSspi::build(&dag);
        let nontree = idx.forest().non_tree_edges().len();
        assert_eq!(idx.size_entries(), 9 + nontree);
        assert_eq!(nontree, 13 - 8, "9 vertices, 1 root => 8 tree edges");
    }
}
