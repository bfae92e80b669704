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

use crate::forest::{LabeledForest, NonTreeEdge};
use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use crate::spls::SplsSet;
use crate::zou::single_source_gtc;
use reach_graph::{LabelSet, LabeledGraph, VertexId};

/// The Jin et al. LCR index.
pub struct JinIndex {
    /// spanning forest: intervals, root-path label counts, non-tree edges
    forest: LabeledForest,
    /// for each non-tree edge, in the forest's order, its head's row
    /// in `head_rows`
    head_row: Vec<u32>,
    /// partial GTC: one single-source row set per distinct non-tree head
    head_rows: Vec<Vec<SplsSet>>,
}

impl JinIndex {
    /// Builds the index over a general edge-labeled graph.
    pub fn build(g: &LabeledGraph) -> Self {
        let forest = LabeledForest::build(g);
        // partial GTC from each distinct non-tree head, in id order
        let mut heads: Vec<VertexId> = forest.non_tree.iter().map(|e| e.3).collect();
        heads.sort_unstable();
        heads.dedup();
        let head_rows = heads
            .iter()
            .map(|&h| single_source_gtc(g, h, true))
            .collect();
        let row_of = |e: &NonTreeEdge| heads.partition_point(|&h| h < e.3) as u32;
        let head_row = forest.non_tree.iter().map(row_of).collect();
        JinIndex {
            forest,
            head_row,
            head_rows,
        }
    }

    /// Number of non-tree edges (the partial-GTC trigger points).
    pub fn num_non_tree_edges(&self) -> usize {
        self.forest.non_tree.len()
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
        let forest = &self.forest;
        // case 1: pure tree path
        if forest.segment_ok(s, t, allowed) {
            return true;
        }
        // case 2: tree prefix to the tail of a non-tree edge in s's
        // subtree, then the head's GTC covers the rest of the graph
        // exactly
        let range = forest.in_subtree(s);
        for (&(_, u, l, _), &row) in forest.non_tree[range.clone()]
            .iter()
            .zip(&self.head_row[range])
        {
            if allowed.contains(l)
                && forest.path_labels(s, u).is_subset_of(allowed)
                && self.head_rows[row as usize][t.index()].satisfies(allowed)
            {
                return true;
            }
        }
        false
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        let gtc: usize = self.head_rows.iter().flatten().map(|s| 8 * s.len()).sum();
        gtc + self.forest.size_bytes()
    }

    fn size_entries(&self) -> usize {
        let gtc: usize = self.head_rows.iter().flatten().map(SplsSet::len).sum();
        gtc + self.forest.num_vertices()
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
        if idx.forest.contains(fixtures::A, fixtures::L) {
            let labels = idx.forest.path_labels(fixtures::A, fixtures::L);
            assert!(labels.is_subset_of(LabelSet::from_labels([
                fixtures::FOLLOWS,
                fixtures::FRIEND_OF,
                fixtures::WORKS_FOR
            ])));
        }
    }
}
