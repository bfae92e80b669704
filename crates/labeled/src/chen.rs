//! Chen & Singh \[12\]: spanning-tree decomposition with a non-tree
//! summary (§4.1.1).
//!
//! The approach decomposes the graph into a tree-like structure `T`
//! (answered by interval labels + root-path label counts, as in
//! [`crate::jin`]) and a summary holding exactly the edges that can
//! transfer reachability *across* subtrees. Here the recursion is
//! realized at depth one: queries chain non-tree edges through the
//! summary online, checking each tree segment against the label
//! constraint in O(|L|) via the count trick — trading the partial GTC
//! of Jin et al. for a smaller index and more query-time work, which
//! is precisely the design axis §4.1.1 contrasts.

use crate::forest::LabeledForest;
use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{LabelSet, LabeledGraph, ScratchPool, VertexId};

/// The Chen & Singh LCR index (one-level decomposition).
pub struct ChenIndex {
    /// spanning forest; its non-tree edges are the summary, and the
    /// hops available inside a subtree form one contiguous slice
    forest: LabeledForest,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    seen: VisitMap,
    stack: Vec<VertexId>,
}

impl ChenIndex {
    /// Builds the index over a general edge-labeled graph.
    pub fn build(g: &LabeledGraph) -> Self {
        ChenIndex {
            forest: LabeledForest::build(g),
            scratch: ScratchPool::new(),
        }
    }

    /// Number of summary (non-tree) edges.
    pub fn summary_size(&self) -> usize {
        self.forest.non_tree.len()
    }
}

pub(crate) const META: LabeledIndexMeta = LabeledIndexMeta {
    name: "Chen et al.",
    citation: "[12]",
    framework: LcrFramework::TreeCover,
    constraint: ConstraintClass::Alternation,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl LcrIndex for ChenIndex {
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        if s == t {
            return true;
        }
        let forest = &self.forest;
        let scratch = &mut *self.scratch.checkout(|| Scratch {
            seen: VisitMap::new(forest.num_vertices()),
            stack: Vec::new(),
        });
        scratch.seen.reset();
        scratch.stack.clear();
        scratch.stack.push(s);
        scratch.seen.mark(s, Side::Forward);
        while let Some(x) = scratch.stack.pop() {
            if forest.segment_ok(x, t, allowed) {
                return true;
            }
            for &(_, u, l, v) in &forest.non_tree[forest.in_subtree(x)] {
                if !allowed.contains(l) || scratch.seen.is_marked(v, Side::Forward) {
                    continue;
                }
                if forest.path_labels(x, u).is_subset_of(allowed) {
                    scratch.seen.mark(v, Side::Forward);
                    scratch.stack.push(v);
                }
            }
        }
        false
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        self.forest.size_bytes() + 16 * self.summary_size()
    }

    fn size_entries(&self) -> usize {
        self.forest.num_vertices() + self.summary_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::lcr_bfs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn check_exact(g: &LabeledGraph) {
        let idx = ChenIndex::build(g);
        let nl = g.num_labels();
        for s in g.vertices() {
            for t in g.vertices() {
                for mask in 0..(1u64 << nl) {
                    let allowed = LabelSet(mask);
                    assert_eq!(
                        idx.query(s, t, allowed),
                        lcr_bfs(g, s, t, allowed),
                        "at {s:?}->{t:?} under {allowed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check_exact(&fixtures::figure1b());
    }

    #[test]
    fn exact_on_random_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(241);
        for _ in 0..3 {
            check_exact(&random_labeled_digraph(
                25,
                70,
                3,
                LabelDistribution::Zipf,
                &mut rng,
            ));
        }
    }

    #[test]
    fn index_is_much_smaller_than_jin() {
        // the design axis: Chen trades the partial GTC for query work
        let mut rng = SmallRng::seed_from_u64(242);
        let g = random_labeled_digraph(50, 150, 4, LabelDistribution::Uniform, &mut rng);
        let chen = ChenIndex::build(&g);
        let jin = crate::jin::JinIndex::build(&g);
        assert!(chen.size_bytes() < jin.size_bytes());
    }

    #[test]
    fn summary_slice_matches_linear_scan() {
        let g = fixtures::figure1b();
        let idx = ChenIndex::build(&g);
        for w in g.vertices() {
            let slice = idx.forest.in_subtree(w);
            let expect = idx
                .forest
                .non_tree
                .iter()
                .filter(|&&(_, u, _, _)| idx.forest.contains(w, u))
                .count();
            assert_eq!(slice.len(), expect);
        }
    }

    #[test]
    fn pure_tree_graph_has_empty_summary() {
        let g = LabeledGraph::from_edges(5, 2, &[(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)]);
        let idx = ChenIndex::build(&g);
        assert_eq!(idx.summary_size(), 0);
        check_exact(&g);
    }
}
