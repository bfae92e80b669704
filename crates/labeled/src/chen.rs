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

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{Label, LabelSet, LabeledGraph, ScratchPool, VertexId};

/// The Chen & Singh LCR index (one-level decomposition).
pub struct ChenIndex {
    start: Vec<u32>,
    end: Vec<u32>,
    counts: Vec<Vec<u16>>,
    /// summary: non-tree edges sorted by the tail's post-order number,
    /// so the hops available inside a subtree form a contiguous range
    summary: Vec<(u32, VertexId, Label, VertexId)>,
    num_labels: usize,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    seen: VisitMap,
    stack: Vec<VertexId>,
}

impl ChenIndex {
    /// Builds the index over a general edge-labeled graph.
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_vertices();
        let k = g.num_labels();
        let mut visited = vec![false; n];
        let mut start = vec![0u32; n];
        let mut end = vec![0u32; n];
        let mut counts: Vec<Vec<u16>> = vec![vec![0; k]; n];
        let mut non_tree: Vec<(VertexId, Label, VertexId)> = Vec::new();
        let mut counter = 0u32;

        struct Frame {
            v: VertexId,
            edges: Vec<(VertexId, Label)>,
            cursor: usize,
            entry: u32,
        }
        let mut stack: Vec<Frame> = Vec::new();
        for root in g.vertices() {
            if visited[root.index()] {
                continue;
            }
            visited[root.index()] = true;
            stack.push(Frame {
                v: root,
                edges: g.out_edges(root).collect(),
                cursor: 0,
                entry: counter,
            });
            while let Some(top) = stack.last_mut() {
                if top.cursor < top.edges.len() {
                    let (w, l) = top.edges[top.cursor];
                    let v = top.v;
                    top.cursor += 1;
                    if visited[w.index()] {
                        non_tree.push((v, l, w));
                    } else {
                        visited[w.index()] = true;
                        counts[w.index()] = counts[v.index()].clone();
                        counts[w.index()][l.index()] += 1;
                        stack.push(Frame {
                            v: w,
                            edges: g.out_edges(w).collect(),
                            cursor: 0,
                            entry: counter,
                        });
                    }
                } else {
                    counter += 1;
                    start[top.v.index()] = top.entry + 1;
                    end[top.v.index()] = counter;
                    stack.pop();
                }
            }
        }
        let mut summary: Vec<(u32, VertexId, Label, VertexId)> = non_tree
            .into_iter()
            .map(|(u, l, v)| (end[u.index()], u, l, v))
            .collect();
        summary.sort_unstable_by_key(|&(post, ..)| post);
        ChenIndex {
            start,
            end,
            counts,
            summary,
            num_labels: k,
            scratch: ScratchPool::new(),
        }
    }

    #[inline]
    fn tree_contains(&self, s: VertexId, t: VertexId) -> bool {
        self.start[s.index()] <= self.end[t.index()] && self.end[t.index()] <= self.end[s.index()]
    }

    /// Tree segment check: `t` in `s`'s subtree with path labels ⊆ allowed.
    fn tree_segment_ok(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        if !self.tree_contains(s, t) {
            return false;
        }
        for l in 0..self.num_labels {
            if self.counts[t.index()][l] > self.counts[s.index()][l]
                && !allowed.contains(Label(l as u8))
            {
                return false;
            }
        }
        true
    }

    /// Summary edges whose tail lies in `w`'s subtree.
    fn summary_in_subtree(&self, w: VertexId) -> &[(u32, VertexId, Label, VertexId)] {
        let lo = self.start[w.index()];
        let hi = self.end[w.index()];
        let a = self.summary.partition_point(|&(post, ..)| post < lo);
        let b = self.summary.partition_point(|&(post, ..)| post <= hi);
        &self.summary[a..b]
    }

    /// Number of summary (non-tree) edges.
    pub fn summary_size(&self) -> usize {
        self.summary.len()
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
        let scratch = &mut *self.scratch.checkout(|| Scratch {
            seen: VisitMap::new(self.start.len()),
            stack: Vec::new(),
        });
        scratch.seen.reset();
        scratch.stack.clear();
        scratch.stack.push(s);
        scratch.seen.mark(s, Side::Forward);
        while let Some(x) = scratch.stack.pop() {
            if self.tree_segment_ok(x, t, allowed) {
                return true;
            }
            for &(_, u, l, v) in self.summary_in_subtree(x) {
                if !allowed.contains(l) || scratch.seen.is_marked(v, Side::Forward) {
                    continue;
                }
                if self.tree_segment_ok(x, u, allowed) {
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
        8 * self.start.len() + 2 * self.num_labels * self.counts.len() + 16 * self.summary.len()
    }

    fn size_entries(&self) -> usize {
        self.counts.len() + self.summary.len()
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
            let slice = idx.summary_in_subtree(w);
            let expect = idx
                .summary
                .iter()
                .filter(|&&(_, u, _, _)| idx.tree_contains(w, u))
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
