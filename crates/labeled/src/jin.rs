//! Jin et al. \[21\]: the first LCR index — spanning tree + partial GTC
//! (§4.1.1).
//!
//! Paths are split into (1) a maximal prefix of spanning-tree edges
//! and (2) the remainder starting at the first non-tree edge. Case (1)
//! is answered from the tree alone using the paper's second
//! optimization: *recording the occurrences of individual edge labels
//! on root-to-vertex paths*, so the (unique) tree path `s → t` has
//! label set `{l : cnt_l(t) > cnt_l(s)}`. Case (2) is answered by a
//! partial GTC materialized from the head of every non-tree edge.

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use crate::spls::SplsSet;
use crate::zou::single_source_gtc;
use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};

/// The Jin et al. LCR index.
pub struct JinIndex {
    /// tree intervals: `[start, end]` post-order containment
    start: Vec<u32>,
    end: Vec<u32>,
    /// per-vertex label counts on the root-to-vertex tree path
    counts: Vec<Vec<u16>>,
    /// non-tree edges `(u, l, v)`
    non_tree: Vec<(VertexId, Label, VertexId)>,
    /// partial GTC: single-source rows from each distinct non-tree head
    head_rows: Vec<(VertexId, Vec<SplsSet>)>,
    num_labels: usize,
}

impl JinIndex {
    /// Builds the index over a general edge-labeled graph.
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_vertices();
        let k = g.num_labels();
        // DFS spanning forest over the labeled graph, tracking the
        // discovery label so root-path counts can be accumulated
        let mut parent_label: Vec<Option<Label>> = vec![None; n];
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
                        parent_label[w.index()] = Some(l);
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

        // partial GTC from each distinct non-tree head
        let mut heads: Vec<VertexId> = non_tree.iter().map(|&(_, _, v)| v).collect();
        heads.sort_unstable();
        heads.dedup();
        let head_rows = heads
            .into_iter()
            .map(|h| (h, single_source_gtc(g, h)))
            .collect();

        JinIndex {
            start,
            end,
            counts,
            non_tree,
            head_rows,
            num_labels: k,
        }
    }

    /// Whether `t` is in the tree subtree of `s`.
    #[inline]
    fn tree_contains(&self, s: VertexId, t: VertexId) -> bool {
        self.start[s.index()] <= self.end[t.index()] && self.end[t.index()] <= self.end[s.index()]
    }

    /// Label set of the unique tree path `s → t` (requires
    /// `tree_contains(s, t)`): the paper's count-subtraction trick.
    fn tree_path_labels(&self, s: VertexId, t: VertexId) -> LabelSet {
        let mut set = LabelSet::EMPTY;
        for l in 0..self.num_labels {
            if self.counts[t.index()][l] > self.counts[s.index()][l] {
                set = set.insert(Label(l as u8));
            }
        }
        set
    }

    fn head_gtc(&self, h: VertexId) -> Option<&Vec<SplsSet>> {
        self.head_rows
            .binary_search_by_key(&h, |&(v, _)| v)
            .ok()
            .map(|i| &self.head_rows[i].1)
    }

    /// Number of non-tree edges (the partial-GTC trigger points).
    pub fn num_non_tree_edges(&self) -> usize {
        self.non_tree.len()
    }
}

pub(crate) const META: LabeledIndexMeta = LabeledIndexMeta {
    name: "Jin et al.",
    citation: "[21]",
    framework: LcrFramework::TreeCover,
    constraint: ConstraintClass::Alternation,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl LcrIndex for JinIndex {
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        if s == t {
            return true;
        }
        // case 1: pure tree path
        if self.tree_contains(s, t) && self.tree_path_labels(s, t).is_subset_of(allowed) {
            return true;
        }
        // case 2: tree prefix to the tail of a non-tree edge, then the
        // head's GTC covers the rest of the graph exactly
        for &(u, l, v) in &self.non_tree {
            if !allowed.contains(l) {
                continue;
            }
            let prefix_ok =
                self.tree_contains(s, u) && self.tree_path_labels(s, u).is_subset_of(allowed);
            if !prefix_ok {
                continue;
            }
            let rows = self.head_gtc(v).expect("head has a GTC row");
            if rows[t.index()].satisfies(allowed) {
                return true;
            }
        }
        false
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        let gtc: usize = self
            .head_rows
            .iter()
            .flat_map(|(_, rows)| rows.iter())
            .map(|s| 8 * s.len())
            .sum();
        gtc + 2 * self.num_labels * self.counts.len() + 8 * self.start.len()
    }

    fn size_entries(&self) -> usize {
        self.head_rows
            .iter()
            .flat_map(|(_, rows)| rows.iter())
            .map(|s| s.len())
            .sum::<usize>()
            + self.counts.len()
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
        let idx = JinIndex::build(g);
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
    fn paper_claims_hold() {
        let g = fixtures::figure1b();
        let idx = JinIndex::build(&g);
        assert!(!idx.query(
            fixtures::A,
            fixtures::G,
            LabelSet::from_labels([fixtures::FRIEND_OF, fixtures::FOLLOWS])
        ));
        assert!(idx.query(fixtures::A, fixtures::G, LabelSet::full(3)));
        // L reaches M with worksFor only (SPLS {worksFor})
        assert!(idx.query(
            fixtures::L,
            fixtures::M,
            LabelSet::singleton(fixtures::WORKS_FOR)
        ));
    }

    #[test]
    fn exact_on_random_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(231);
        for _ in 0..3 {
            check_exact(&random_labeled_digraph(
                25,
                70,
                3,
                LabelDistribution::Uniform,
                &mut rng,
            ));
        }
    }

    #[test]
    fn tree_only_graph_needs_no_gtc() {
        // a labeled path: every edge is a tree edge
        let g = LabeledGraph::from_edges(4, 2, &[(0, 0, 1), (1, 1, 2), (2, 0, 3)]);
        let idx = JinIndex::build(&g);
        assert_eq!(idx.num_non_tree_edges(), 0);
        check_exact(&g);
    }

    #[test]
    fn tree_path_label_counts_are_exact() {
        let g = fixtures::figure1b();
        let idx = JinIndex::build(&g);
        // A -follows-> L is a tree edge (A is the DFS root); the tree
        // path label set must be exactly {follows} or the edge is
        // non-tree — either way queries stay exact, but when it is a
        // tree path the counts must match
        if idx.tree_contains(fixtures::A, fixtures::L) {
            let labels = idx.tree_path_labels(fixtures::A, fixtures::L);
            assert!(labels.is_subset_of(LabelSet::from_labels([
                fixtures::FOLLOWS,
                fixtures::FRIEND_OF,
                fixtures::WORKS_FOR
            ])));
        }
    }
}
