//! GRIPP \[43\]: pre/post-order indexing with hop traversal, directly on
//! general graphs.
//!
//! GRIPP stores the DFS (pre, post) instance table of a spanning
//! forest and answers queries by *forward* hop traversal: starting
//! from `s`, if the target lies in the current vertex's subtree the
//! answer is true; otherwise every non-tree edge whose tail lies in
//! the current subtree offers a hop to a new subtree. Unlike GRAIL or
//! Ferrari, the index lookup is a *positive* filter (no false
//! positives): when it answers `false`, traversal must continue — the
//! weakness §3.1 of the survey calls out in comparing it to the
//! no-false-negative designs.

use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::interval::SpanningForest;
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{DiGraph, ScratchPool, VertexId};

/// The GRIPP index (simplified: the order-instance table is realized
/// as the spanning forest's interval labels plus the non-tree edge
/// list).
pub struct Gripp {
    forest: SpanningForest,
    /// Non-tree edges sorted by the tail's post-order number, so the
    /// hops available inside a subtree form a contiguous range.
    hops: Vec<(u32, VertexId)>,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    visit: VisitMap,
    stack: Vec<VertexId>,
}

impl Gripp {
    /// Builds the index for an arbitrary digraph.
    pub fn build(g: &DiGraph) -> Self {
        let forest = SpanningForest::build_general(g);
        let mut hops: Vec<(u32, VertexId)> = forest
            .non_tree_edges()
            .iter()
            .map(|&(u, v)| (forest.end(u), v))
            .collect();
        hops.sort_unstable_by_key(|&(post, _)| post);
        Gripp {
            forest,
            hops,
            scratch: ScratchPool::new(),
        }
    }

    /// The spanning forest the index is built on.
    pub fn forest(&self) -> &SpanningForest {
        &self.forest
    }

    /// Non-tree hops with tails inside `w`'s subtree: a binary-searched
    /// contiguous slice of the sorted hop table.
    fn hops_in_subtree(&self, w: VertexId) -> &[(u32, VertexId)] {
        let lo = self.forest.start(w);
        let hi = self.forest.end(w);
        let a = self.hops.partition_point(|&(post, _)| post < lo);
        let b = self.hops.partition_point(|&(post, _)| post <= hi);
        &self.hops[a..b]
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "GRIPP",
    citation: "[43]",
    framework: Framework::TreeCover,
    completeness: Completeness::Partial,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl ReachIndex for Gripp {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        if self.forest.contains(s, t) {
            return true;
        }
        let scratch = &mut *self.scratch.checkout(|| Scratch {
            visit: VisitMap::new(self.forest.num_vertices()),
            stack: Vec::new(),
        });
        scratch.visit.reset();
        scratch.stack.clear();
        scratch.stack.push(s);
        scratch.visit.mark(s, Side::Forward);
        while let Some(w) = scratch.stack.pop() {
            if self.forest.contains(w, t) {
                return true;
            }
            for &(_, v) in self.hops_in_subtree(w) {
                if scratch.visit.mark(v, Side::Forward) {
                    scratch.stack.push(v);
                }
            }
        }
        false
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        8 * self.forest.num_vertices() + 8 * self.hops.len()
    }

    fn size_entries(&self) -> usize {
        self.forest.num_vertices() + self.hops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{random_digraph, random_tree_plus_edges};

    fn check(g: &DiGraph) {
        let idx = Gripp::build(g);
        let tc = TransitiveClosure::build(g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check(&fixtures::figure1a());
    }

    #[test]
    fn exact_on_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(61);
        for _ in 0..4 {
            check(&random_digraph(50, 140, &mut rng));
        }
    }

    #[test]
    fn exact_on_tree_heavy_dags() {
        let mut rng = SmallRng::seed_from_u64(62);
        check(random_tree_plus_edges(90, 10, &mut rng).graph());
    }

    #[test]
    fn subtree_hop_slice_is_correct() {
        let g = fixtures::figure1a();
        let idx = Gripp::build(&g);
        for w in g.vertices() {
            let slice = idx.hops_in_subtree(w);
            // every hop in the slice has its tail inside w's subtree
            for &(post, _) in slice {
                assert!(idx.forest.start(w) <= post && post <= idx.forest.end(w));
            }
            // and the count matches a linear scan
            let expect = idx
                .forest
                .non_tree_edges()
                .iter()
                .filter(|&&(u, _)| idx.forest.contains(w, u))
                .count();
            assert_eq!(slice.len(), expect);
        }
    }

    #[test]
    fn strongly_connected_graph() {
        // a single big cycle: everything reaches everything
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        check(&g);
    }
}
