//! Edge-labeled graphs and bitset label sets (§2.2 of the survey).

use crate::digraph::{DiGraph, DiGraphBuilder, Successors};
use crate::error::GraphError;
use crate::vertex::VertexId;
use std::fmt;

/// Maximum alphabet size supported by [`LabelSet`].
pub const MAX_LABELS: usize = 64;

/// An edge label: an index into a small alphabet (`0..64`).
///
/// All path-constrained indexing work surveyed in §4 assumes a small
/// label alphabet (the paper's running example has three labels:
/// `friendOf`, `follows`, `worksFor`); 64 labels lets every
/// sufficient-path-label-set operation run on a single machine word.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Label(pub u8);

impl Label {
    /// Builds a label, checking it fits the alphabet.
    pub fn try_new(l: u32) -> Result<Self, GraphError> {
        if (l as usize) < MAX_LABELS {
            Ok(Label(l as u8))
        } else {
            Err(GraphError::LabelOutOfRange { label: l })
        }
    }

    /// The label as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A set of edge labels, packed into one `u64`.
///
/// This is the currency of label-constrained reachability: an
/// alternation constraint `(l1 ∪ l2 ∪ …)*` *is* a `LabelSet`, and the
/// sufficient path-label sets of §4.1 are `LabelSet`s ordered by
/// inclusion.
///
/// ```
/// use reach_graph::{Label, LabelSet};
///
/// let s = LabelSet::from_labels([Label(0), Label(2)]);
/// assert!(s.contains(Label(2)) && !s.contains(Label(1)));
/// assert!(LabelSet::singleton(Label(0)).is_subset_of(s));
/// assert_eq!(s.union(LabelSet::singleton(Label(1))), LabelSet::full(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LabelSet(pub u64);

impl LabelSet {
    /// The empty label set.
    pub const EMPTY: LabelSet = LabelSet(0);

    /// The set containing every label of a `k`-label alphabet.
    pub fn full(k: usize) -> Self {
        assert!(k <= MAX_LABELS);
        if k == MAX_LABELS {
            LabelSet(u64::MAX)
        } else {
            LabelSet((1u64 << k) - 1)
        }
    }

    /// The singleton set `{l}`.
    #[inline]
    pub fn singleton(l: Label) -> Self {
        LabelSet(1u64 << l.0)
    }

    /// Builds a set from an iterator of labels.
    pub fn from_labels<I: IntoIterator<Item = Label>>(labels: I) -> Self {
        labels.into_iter().fold(LabelSet::EMPTY, |s, l| s.insert(l))
    }

    /// Set with `l` added.
    #[inline]
    #[must_use]
    pub fn insert(self, l: Label) -> Self {
        LabelSet(self.0 | (1u64 << l.0))
    }

    /// Whether `l` is a member.
    #[inline]
    pub fn contains(self, l: Label) -> bool {
        self.0 & (1u64 << l.0) != 0
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub fn union(self, other: LabelSet) -> Self {
        LabelSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    #[must_use]
    pub fn intersect(self, other: LabelSet) -> Self {
        LabelSet(self.0 & other.0)
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(self, other: LabelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of labels in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates the member labels in ascending order.
    pub fn iter(self) -> impl Iterator<Item = Label> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let l = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Some(Label(l))
            }
        })
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", l.0)?;
        }
        write!(f, "}}")
    }
}

/// Mutable builder for [`LabeledGraph`].
#[derive(Debug, Clone, Default)]
pub struct LabeledGraphBuilder {
    num_vertices: usize,
    num_labels: usize,
    edges: Vec<(u32, u32, u8)>,
}

impl LabeledGraphBuilder {
    /// Creates a builder for `n` vertices and a `k`-label alphabet.
    ///
    /// # Panics
    /// Panics if `k > 64`.
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k <= MAX_LABELS, "label alphabet capped at {MAX_LABELS}");
        LabeledGraphBuilder {
            num_vertices: n,
            num_labels: k,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with a capacity hint for the edge list.
    ///
    /// # Panics
    /// Panics if `k > 64`.
    pub fn with_capacity(n: usize, k: usize, m: usize) -> Self {
        let mut b = Self::new(n, k);
        b.edges.reserve(m);
        b
    }

    /// Adds a fresh vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = VertexId::new(self.num_vertices);
        self.num_vertices += 1;
        v
    }

    /// Adds the labeled edge `u -l-> v`.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints or labels; use
    /// [`try_add_edge`](Self::try_add_edge) for fallible insertion.
    pub fn add_edge(&mut self, u: VertexId, l: Label, v: VertexId) {
        self.try_add_edge(u, l, v).expect("invalid labeled edge");
    }

    /// Adds the labeled edge `u -l-> v`, checking bounds.
    pub fn try_add_edge(&mut self, u: VertexId, l: Label, v: VertexId) -> Result<(), GraphError> {
        for w in [u, v] {
            if w.index() >= self.num_vertices {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: w.0,
                    num_vertices: self.num_vertices,
                });
            }
        }
        if l.index() >= self.num_labels {
            return Err(GraphError::LabelOutOfRange { label: l.0 as u32 });
        }
        self.edges.push((u.0, v.0, l.0));
        Ok(())
    }

    /// Freezes the builder into a [`LabeledGraph`]. Multi-edges with
    /// different labels are kept; exact duplicates are removed.
    pub fn build(mut self) -> LabeledGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        LabeledGraph::from_sorted_edges(self.num_vertices, self.num_labels, &self.edges)
    }
}

/// An immutable edge-labeled digraph in CSR form (§2.2's
/// `G = (V, E, L)`), with forward and reverse adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledGraph {
    num_labels: usize,
    out_offsets: Vec<u32>,
    out_targets: Vec<VertexId>,
    out_labels: Vec<Label>,
    in_offsets: Vec<u32>,
    in_sources: Vec<VertexId>,
    in_labels: Vec<Label>,
}

impl LabeledGraph {
    /// Builds a labeled graph from an explicit `(u, label, v)` edge list.
    pub fn from_edges(n: usize, k: usize, edges: &[(u32, u8, u32)]) -> Self {
        let mut b = LabeledGraphBuilder::new(n, k);
        for &(u, l, v) in edges {
            b.add_edge(VertexId(u), Label(l), VertexId(v));
        }
        b.build()
    }

    fn from_sorted_edges(n: usize, k: usize, edges: &[(u32, u32, u8)]) -> Self {
        let m = edges.len();
        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for &(u, v, _) in edges {
            out_offsets[u as usize + 1] += 1;
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut out_targets = vec![VertexId(0); m];
        let mut out_labels = vec![Label(0); m];
        let mut in_sources = vec![VertexId(0); m];
        let mut in_labels = vec![Label(0); m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for &(u, v, l) in edges {
            let o = &mut out_cursor[u as usize];
            out_targets[*o as usize] = VertexId(v);
            out_labels[*o as usize] = Label(l);
            *o += 1;
            let i = &mut in_cursor[v as usize];
            in_sources[*i as usize] = VertexId(u);
            in_labels[*i as usize] = Label(l);
            *i += 1;
        }
        LabeledGraph {
            num_labels: k,
            out_offsets,
            out_targets,
            out_labels,
            in_offsets,
            in_sources,
            in_labels,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of labeled edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Size of the label alphabet.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterator over all edges as `(source, label, target)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, Label, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.out_edges(u).map(move |(v, l)| (u, l, v)))
    }

    /// `v`'s out-neighbours if `forward`, else its in-neighbours (the
    /// [`Successors`] lists), and the labels of those edges in step.
    #[inline]
    pub fn lists(&self, v: VertexId, forward: bool) -> (&[VertexId], &[Label]) {
        let (offsets, ends, labels) = if forward {
            (&self.out_offsets, &self.out_targets, &self.out_labels)
        } else {
            (&self.in_offsets, &self.in_sources, &self.in_labels)
        };
        let span = offsets[v.index()] as usize..offsets[v.index() + 1] as usize;
        (&ends[span.clone()], &labels[span])
    }

    /// `v`'s out-edges if `forward`, else its in-edges, as `(other end,
    /// label)` pairs (so `adjacent(v, true)` is [`out_edges`](Self::out_edges)).
    #[inline]
    pub fn adjacent(
        &self,
        v: VertexId,
        forward: bool,
    ) -> impl Iterator<Item = (VertexId, Label)> + '_ {
        let (ends, labels) = self.lists(v, forward);
        ends.iter().copied().zip(labels.iter().copied())
    }

    /// Out-edges of `v` as `(target, label)` pairs.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Label)> + '_ {
        self.adjacent(v, true)
    }

    /// Out-degree of `v` (labeled multi-edges counted individually).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]) as usize
    }

    /// Total degree of `v`: out-edges plus in-edges.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.lists(v, false).0.len()
    }

    /// Forgets labels, producing the underlying plain digraph
    /// (parallel edges with distinct labels collapse to one).
    pub fn to_digraph(&self) -> DiGraph {
        self.project(LabelSet::full(self.num_labels))
    }

    /// The subgraph containing only edges whose label lies in `allowed`
    /// (the "projection" a label-constrained query restricts traversal to).
    pub fn project(&self, allowed: LabelSet) -> DiGraph {
        let mut b = DiGraphBuilder::with_capacity(self.num_vertices(), self.num_edges());
        for (u, l, v) in self.edges() {
            if allowed.contains(l) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        4 * (self.out_offsets.len() + self.in_offsets.len())
            + 5 * (self.out_targets.len() + self.in_sources.len())
    }
}

/// The labeled CSR lists, labels aside: a guided search walks them in
/// place and reads each edge's label from [`LabeledGraph::lists`].
impl Successors for LabeledGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        LabeledGraph::num_vertices(self)
    }
    #[inline]
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.lists(v, true).0
    }
    #[inline]
    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.lists(v, false).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_label_graph() -> LabeledGraph {
        // 0 -a-> 1 -b-> 2, 0 -b-> 2
        LabeledGraph::from_edges(3, 2, &[(0, 0, 1), (1, 1, 2), (0, 1, 2)])
    }

    #[test]
    fn label_set_algebra() {
        let a = Label(0);
        let b = Label(1);
        let s = LabelSet::singleton(a).insert(b);
        assert!(s.contains(a) && s.contains(b));
        assert_eq!(s.len(), 2);
        assert!(LabelSet::singleton(a).is_subset_of(s));
        assert!(!s.is_subset_of(LabelSet::singleton(a)));
        assert_eq!(s.intersect(LabelSet::singleton(b)), LabelSet::singleton(b));
        assert_eq!(LabelSet::singleton(a).union(LabelSet::singleton(b)), s);
        assert!(LabelSet::EMPTY.is_empty());
        assert_eq!(LabelSet::full(3).len(), 3);
        assert_eq!(LabelSet::full(64).len(), 64);
    }

    #[test]
    fn label_set_iter_ascending() {
        let s = LabelSet::from_labels([Label(5), Label(1), Label(63)]);
        let got: Vec<u8> = s.iter().map(|l| l.0).collect();
        assert_eq!(got, vec![1, 5, 63]);
    }

    #[test]
    fn label_set_debug_format() {
        let s = LabelSet::from_labels([Label(2), Label(0)]);
        assert_eq!(format!("{s:?}"), "{0,2}");
    }

    #[test]
    fn labeled_adjacency() {
        let g = two_label_graph();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_labels(), 2);
        let out0: Vec<_> = g.out_edges(VertexId(0)).collect();
        assert_eq!(out0, vec![(VertexId(1), Label(0)), (VertexId(2), Label(1))]);
        let in2: Vec<_> = g.adjacent(VertexId(2), false).collect();
        assert_eq!(in2, vec![(VertexId(0), Label(1)), (VertexId(1), Label(1))]);
    }

    #[test]
    fn search_lists_carry_labels_at_the_same_positions() {
        let g = two_label_graph();
        assert_eq!(g.out_neighbors(VertexId(0)), [VertexId(1), VertexId(2)]);
        assert_eq!(g.lists(VertexId(0), true).1, [Label(0), Label(1)]);
        assert_eq!(g.in_neighbors(VertexId(2)), [VertexId(0), VertexId(1)]);
        assert_eq!(g.lists(VertexId(2), false).1, [Label(1), Label(1)]);
        assert_eq!(Successors::num_vertices(&g), 3);
    }

    #[test]
    fn multi_edges_with_distinct_labels_kept() {
        let g = LabeledGraph::from_edges(2, 2, &[(0, 0, 1), (0, 1, 1), (0, 1, 1)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn builder_validates() {
        let mut b = LabeledGraphBuilder::new(2, 2);
        assert!(b.try_add_edge(VertexId(0), Label(5), VertexId(1)).is_err());
        assert!(b.try_add_edge(VertexId(0), Label(1), VertexId(9)).is_err());
        assert!(b.try_add_edge(VertexId(0), Label(1), VertexId(1)).is_ok());
    }

    #[test]
    fn projection_filters_labels() {
        let g = two_label_graph();
        let only_a = g.project(LabelSet::singleton(Label(0)));
        assert_eq!(only_a.num_edges(), 1);
        assert!(only_a.has_edge(VertexId(0), VertexId(1)));
        let only_b = g.project(LabelSet::singleton(Label(1)));
        assert_eq!(only_b.num_edges(), 2);
    }

    #[test]
    fn to_digraph_collapses_parallel_edges() {
        let g = LabeledGraph::from_edges(2, 2, &[(0, 0, 1), (0, 1, 1)]);
        assert_eq!(g.to_digraph().num_edges(), 1);
    }

    #[test]
    fn label_try_new_bounds() {
        assert!(Label::try_new(63).is_ok());
        assert!(Label::try_new(64).is_err());
    }
}
