//! The labeled spanning forest of the tree-cover LCR indexes (§4.1.1).
//!
//! Jin et al. \[21\] and Chen & Singh \[12\] both split a path into
//! spanning-tree segments joined by non-tree edges. A tree segment
//! `s → t` exists iff `t` lies in `s`'s subtree, and *the occurrences
//! of individual edge labels on root-to-vertex paths* give its label
//! set: `{l : cnt_l(t) > cnt_l(s)}`.

use reach_core::interval::{Intervals, SpanningForest};
use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};
use std::ops::Range;

/// A non-tree edge: `(post-order number of the tail, tail, label, head)`.
pub(crate) type NonTreeEdge = (u32, VertexId, Label, VertexId);

/// The plain graph's DFS spanning forest (roots and children in id
/// order, [`SpanningForest::build_general`]) with root-path label counts:
/// of the parallel edges `parent(w) -> w`, the one with the smallest
/// label is the tree edge, as a DFS over the labeled lists would take it.
pub(crate) struct LabeledForest {
    intervals: Intervals,
    /// `counts[v * num_labels + l]`: edges labeled `l` on the tree path
    /// from `v`'s root to `v`
    counts: Vec<u16>,
    num_labels: usize,
    /// the non-tree edges, stably sorted by the tail's post-order
    /// number, so those leaving one subtree form one slice
    pub non_tree: Vec<NonTreeEdge>,
}

impl LabeledForest {
    /// Grows the forest over `g`.
    pub fn build(g: &LabeledGraph) -> Self {
        let tree = SpanningForest::build_general(&g.to_digraph());
        let (n, k) = (g.num_vertices(), g.num_labels());
        let mut by_post = vec![VertexId(0); n];
        for v in g.vertices() {
            by_post[tree.end(v) as usize - 1] = v;
        }
        let mut counts = vec![0u16; n * k];
        let mut non_tree: Vec<NonTreeEdge> = Vec::new();
        // descending post-order visits every tree parent before its children
        for &u in by_post.iter().rev() {
            let (targets, labels) = g.lists(u, true);
            for (i, (&w, &l)) in targets.iter().zip(labels).enumerate() {
                if tree.parent(w) == Some(u) && (i == 0 || targets[i - 1] != w) {
                    counts.copy_within(u.index() * k..(u.index() + 1) * k, w.index() * k);
                    counts[w.index() * k + l.index()] += 1;
                } else {
                    non_tree.push((tree.end(u), u, l, w));
                }
            }
        }
        non_tree.sort_by_key(|e| e.0);
        LabeledForest {
            intervals: tree.into_intervals(),
            counts,
            num_labels: k,
            non_tree,
        }
    }

    /// Whether `t` is in the tree subtree of `s`.
    #[inline]
    pub fn contains(&self, s: VertexId, t: VertexId) -> bool {
        self.intervals.contains(s, t)
    }

    /// Label set of the tree path `s → t` (requires `contains(s, t)`):
    /// the labels whose root-path count grows from `s` to `t`.
    #[inline]
    pub fn path_labels(&self, s: VertexId, t: VertexId) -> LabelSet {
        let k = self.num_labels;
        let (at_s, at_t) = (&self.counts[s.index() * k..], &self.counts[t.index() * k..]);
        let grown = (0..k).filter(|&l| at_t[l] > at_s[l]);
        LabelSet::from_labels(grown.map(|l| Label(l as u8)))
    }

    /// Whether a tree path `s → t` exists using only `allowed` labels.
    #[inline]
    pub fn segment_ok(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        self.contains(s, t) && self.path_labels(s, t).is_subset_of(allowed)
    }

    /// The positions in `non_tree` of the edges whose tail lies in
    /// `w`'s subtree.
    pub fn in_subtree(&self, w: VertexId) -> Range<usize> {
        let (lo, hi) = (self.intervals.start(w), self.intervals.end(w));
        self.non_tree.partition_point(|e| e.0 < lo)..self.non_tree.partition_point(|e| e.0 <= hi)
    }

    /// Number of vertices the forest spans.
    pub fn num_vertices(&self) -> usize {
        self.intervals.num_vertices()
    }

    /// Bytes of the intervals (8 per vertex) and the label counts (2
    /// per vertex and label).
    pub fn size_bytes(&self) -> usize {
        self.intervals.size_bytes() + 2 * self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_edge_is_a_tree_edge_or_a_non_tree_edge() {
        // 0 -a-> 1 -b-> 2, 0 -b-> 2, 2 -a-> 0: the DFS from 0 takes
        // 0->1 and 1->2, and leaves 0->2 and 2->0
        let g = LabeledGraph::from_edges(3, 2, &[(0, 0, 1), (1, 1, 2), (0, 1, 2), (2, 0, 0)]);
        let f = LabeledForest::build(&g);
        let ends: Vec<(u32, u32)> = f.non_tree.iter().map(|e| (e.1 .0, e.3 .0)).collect();
        // sorted by the tail's post-order: 2 finishes before 0
        assert_eq!(ends, [(2, 0), (0, 2)]);
        assert_eq!(f.in_subtree(VertexId(0)), 0..2);
        assert_eq!(f.in_subtree(VertexId(1)), 0..1);
        assert!(f.contains(VertexId(0), VertexId(2)));
        assert!(!f.contains(VertexId(2), VertexId(0)));
        assert_eq!(
            f.path_labels(VertexId(0), VertexId(2)),
            LabelSet::from_labels([Label(0), Label(1)])
        );
        assert_eq!(
            f.path_labels(VertexId(1), VertexId(2)),
            LabelSet::singleton(Label(1))
        );
        assert!(f.segment_ok(VertexId(1), VertexId(2), LabelSet::singleton(Label(1))));
        assert!(!f.segment_ok(VertexId(0), VertexId(2), LabelSet::singleton(Label(1))));
    }
}
