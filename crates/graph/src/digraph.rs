//! Frozen CSR digraphs and the checked [`Dag`] wrapper.

use crate::error::GraphError;
use crate::topo;
use crate::vertex::VertexId;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Mutable builder for [`DiGraph`].
///
/// Collects edges in insertion order, then [`build`](Self::build)
/// freezes them into CSR form. Duplicate edges are deduplicated and
/// self-loops are kept (they matter for SCC condensation of general
/// graphs but are rejected by [`Dag::new`]).
#[derive(Debug, Clone, Default)]
pub struct DiGraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl DiGraphBuilder {
    /// Creates a builder for a graph with `n` vertices `0..n`.
    pub fn new(n: usize) -> Self {
        DiGraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with a capacity hint for the edge list.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        DiGraphBuilder {
            num_vertices: n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds a fresh vertex and returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let v = VertexId::new(self.num_vertices);
        self.num_vertices += 1;
        v
    }

    /// Adds the directed edge `u -> v`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of bounds; use
    /// [`try_add_edge`](Self::try_add_edge) for fallible insertion.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.try_add_edge(u, v)
            .expect("edge endpoint out of bounds");
    }

    /// Adds the directed edge `u -> v`, checking bounds.
    pub fn try_add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        for w in [u, v] {
            if w.index() >= self.num_vertices {
                return Err(GraphError::VertexOutOfBounds {
                    vertex: w.0,
                    num_vertices: self.num_vertices,
                });
            }
        }
        self.edges.push((u.0, v.0));
        Ok(())
    }

    /// Freezes the builder into a CSR [`DiGraph`] in O(n + m) plus the
    /// per-vertex sorts: a counting sort buckets targets by source, and
    /// each out-list is sorted and deduplicated in place. The in-lists
    /// are transposed from the out-lists on first use (see
    /// [`DiGraph::in_neighbors`]).
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` edges were added (the CSR
    /// offsets are `u32`); the edge-list readers reject such inputs.
    pub fn build(self) -> DiGraph {
        DiGraph::from_edge_parts(self.num_vertices, vec![self.edges])
    }
}

/// Turns per-slot counts stored at `offsets[i + 1]` into offsets.
fn prefix_sum(offsets: &mut [u32]) {
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
}

/// One side of a CSR adjacency: an offset array plus a flat neighbor
/// array, each list sorted by vertex id.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
}

impl Csr {
    #[inline]
    fn list(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The other side of the same edges. Sources are scanned in
    /// ascending order, so its lists come out sorted.
    fn transpose(&self) -> Csr {
        let n = self.offsets.len() - 1;
        let mut offsets = vec![0u32; n + 1];
        for &v in &self.targets {
            offsets[v.index() + 1] += 1;
        }
        prefix_sum(&mut offsets);
        let mut targets = vec![VertexId(0); self.targets.len()];
        let mut cursor = offsets.clone();
        for u in 0..n {
            for &v in self.list(VertexId::new(u)) {
                let c = &mut cursor[v.index()];
                targets[*c as usize] = VertexId::new(u);
                *c += 1;
            }
        }
        Csr { offsets, targets }
    }
}

/// An immutable directed graph in compressed-sparse-row form.
///
/// Stores forward (`out`) and reverse (`in`) adjacency, each as an
/// offset array plus a flat neighbor array, so the per-vertex neighbor
/// lists are contiguous slices with no pointer chasing. Neighbor lists
/// are sorted by vertex id. The in-lists are built from the out-lists
/// the first time [`in_neighbors`](Self::in_neighbors) (or anything
/// that reads in-degrees) is called, so a graph whose users walk only
/// out-lists never pays for them. Equality compares the out-lists,
/// which determine the in-lists.
///
/// ```
/// use reach_graph::{DiGraph, VertexId};
///
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// assert_eq!(g.out_neighbors(VertexId(0)), &[VertexId(1), VertexId(2)]);
/// assert_eq!(g.in_degree(VertexId(2)), 2);
/// assert!(g.has_edge(VertexId(0), VertexId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct DiGraph {
    out: Csr,
    /// The transpose of `out`, built on first use.
    inn: OnceLock<Csr>,
}

impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        self.out == other.out
    }
}

impl Eq for DiGraph {}

impl DiGraph {
    /// Builds a graph from an explicit edge list (convenience for
    /// tests and examples).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut b = DiGraphBuilder::with_capacity(n, edges.len());
        for &(u, v) in edges {
            b.add_edge(VertexId(u), VertexId(v));
        }
        b.build()
    }

    /// Freezes edge lists whose endpoints lie in `0..n` (the reader's
    /// per-chunk lists, taken as they are) into CSR form; see
    /// [`DiGraphBuilder::build`].
    ///
    /// # Panics
    /// Panics if the lists hold more than `u32::MAX` edges in total.
    pub(crate) fn from_edge_parts(n: usize, parts: Vec<Vec<(u32, u32)>>) -> Self {
        let m: usize = parts.iter().map(Vec::len).sum();
        assert!(
            m <= u32::MAX as usize,
            "CSR offsets are u32: too many edges"
        );
        debug_assert!(parts
            .iter()
            .flatten()
            .all(|&(u, v)| (u.max(v) as usize) < n));
        let mut out_offsets = vec![0u32; n + 1];
        for &(u, _) in parts.iter().flatten() {
            out_offsets[u as usize + 1] += 1;
        }
        prefix_sum(&mut out_offsets);
        let mut out_targets = vec![VertexId(0); m];
        let mut cursor = out_offsets.clone();
        for &(u, v) in parts.iter().flatten() {
            let c = &mut cursor[u as usize];
            out_targets[*c as usize] = VertexId(v);
            *c += 1;
        }
        drop(parts);

        // Sort and deduplicate each bucket, compacting towards the front.
        let mut write = 0usize;
        let mut lo = 0usize;
        for u in 0..n {
            let hi = out_offsets[u + 1] as usize;
            out_targets[lo..hi].sort_unstable();
            out_offsets[u] = write as u32;
            for i in lo..hi {
                if i == lo || out_targets[i] != out_targets[i - 1] {
                    out_targets[write] = out_targets[i];
                    write += 1;
                }
            }
            lo = hi;
        }
        out_offsets[n] = write as u32;
        out_targets.truncate(write);
        Self::from_out_lists(out_offsets, out_targets)
    }

    /// Wraps finished out-lists: `offsets` has `n + 1` entries starting
    /// at 0, and each list `targets[offsets[u]..offsets[u + 1]]` is
    /// sorted and free of duplicates.
    ///
    /// # Panics
    /// Debug-asserts the shape of `offsets` and that every list is
    /// strictly ascending within `0..n`.
    pub(crate) fn from_out_lists(offsets: Vec<u32>, targets: Vec<VertexId>) -> Self {
        debug_assert!(offsets.first() == Some(&0));
        debug_assert!(offsets.last().map(|&m| m as usize) == Some(targets.len()));
        let out = Csr { offsets, targets };
        debug_assert!((0..out.offsets.len() - 1).all(|u| {
            let list = out.list(VertexId::new(u));
            list.windows(2).all(|w| w[0] < w[1])
                && list.iter().all(|v| v.index() < out.offsets.len() - 1)
        }));
        DiGraph {
            out,
            inn: OnceLock::new(),
        }
    }

    fn in_lists(&self) -> &Csr {
        self.inn.get_or_init(|| self.out.transpose())
    }

    /// Whether the in-lists have been built yet (tests use this to
    /// check that a build path never asks for them).
    #[doc(hidden)]
    pub fn in_lists_built(&self) -> bool {
        self.inn.get().is_some()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.offsets.len() - 1
    }

    /// Number of (deduplicated) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out.targets.len()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Iterator over all edges as `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Out-neighbors of `v`, sorted by id.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.list(v)
    }

    /// In-neighbors of `v`, sorted by id. The first call on a graph
    /// transposes its out-lists into in-lists, in O(n + m); concurrent
    /// first calls wait for one transpose.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_lists().list(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Whether the edge `u -> v` exists (binary search on the sorted
    /// out-list).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// The graph with every edge reversed. Indexes that label "who
    /// reaches v" run on the reverse graph. The copy's in-lists are
    /// this graph's out-lists, so it has both sides at once.
    pub fn reverse(&self) -> DiGraph {
        DiGraph {
            out: self.in_lists().clone(),
            inn: OnceLock::from(self.out.clone()),
        }
    }

    /// Approximate heap footprint in bytes of both adjacency sides,
    /// whether or not the in-lists have been built yet; used by
    /// index-size reporting in the bench harness.
    pub fn size_bytes(&self) -> usize {
        2 * 4 * (self.out.offsets.len() + self.out.targets.len())
    }
}

/// The adjacency a traversal walks: out- and in-neighbours of a
/// vertex in `0..num_vertices()`.
///
/// Implemented by the frozen CSR [`DiGraph`] and by the editable
/// [`EditGraph`](crate::EditGraph) the dynamic indexes own, so one
/// guided-search loop serves both.
pub trait Successors {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Out-neighbours of `v`.
    fn out_neighbors(&self, v: VertexId) -> &[VertexId];
    /// In-neighbours of `v`.
    fn in_neighbors(&self, v: VertexId) -> &[VertexId];
    /// Out-neighbours of `v` if `forward`, else its in-neighbours.
    #[inline]
    fn neighbors(&self, v: VertexId, forward: bool) -> &[VertexId] {
        if forward {
            self.out_neighbors(v)
        } else {
            self.in_neighbors(v)
        }
    }
}

impl Successors for DiGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        DiGraph::num_vertices(self)
    }
    #[inline]
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        DiGraph::out_neighbors(self, v)
    }
    #[inline]
    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        DiGraph::in_neighbors(self, v)
    }
}

impl<S: Successors + ?Sized> Successors for Arc<S> {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        (**self).out_neighbors(v)
    }
    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        (**self).in_neighbors(v)
    }
}

/// A [`DiGraph`] verified to be acyclic, carrying its topological order.
///
/// Most plain reachability indexes in the survey's Table 1 assume DAG
/// input; this wrapper makes that precondition explicit and un-forgeable.
/// General graphs are handled by condensing SCCs first
/// (see [`crate::condense`]), exactly as §3.1 of the survey describes.
///
/// The graph is held behind an [`Arc`] so builders that retain the
/// vertex set (guided search, hop labelings over the original edges)
/// can share one allocation via [`shared_graph`](Self::shared_graph)
/// instead of deep-cloning the CSR arrays per index.
///
/// A DAG made by [`Condensation`](crate::Condensation) also records
/// that its ids are reverse topological (every edge `u -> v` has
/// `u > v`; see [`ids_reverse_topological`](Self::ids_reverse_topological)),
/// which guided search uses to cut its traversal for free.
#[derive(Debug, Clone)]
pub struct Dag {
    graph: Arc<DiGraph>,
    topo_order: Vec<VertexId>,
    /// position of each vertex in `topo_order`
    topo_rank: Vec<u32>,
    /// every edge `u -> v` has `u > v`
    reverse_topological_ids: bool,
}

impl Dag {
    /// Checks acyclicity and wraps the graph.
    pub fn new(graph: DiGraph) -> Result<Self, GraphError> {
        Self::new_shared(Arc::new(graph))
    }

    /// Checks acyclicity and wraps an already-shared graph without
    /// copying it.
    pub fn new_shared(graph: Arc<DiGraph>) -> Result<Self, GraphError> {
        match topo::topological_sort(&graph) {
            Some(order) => {
                let mut rank = vec![0u32; graph.num_vertices()];
                for (i, &v) in order.iter().enumerate() {
                    rank[v.index()] = i as u32;
                }
                Ok(Dag {
                    graph,
                    topo_order: order,
                    topo_rank: rank,
                    reverse_topological_ids: false,
                })
            }
            None => Err(GraphError::NotAcyclic),
        }
    }

    /// Wraps a graph already known to be acyclic together with a valid
    /// topological order. Used by the condensation code, which produces
    /// both at once.
    ///
    /// # Panics
    /// Debug-asserts that `order` is a topological order of `graph`.
    pub fn from_parts(graph: DiGraph, order: Vec<VertexId>) -> Self {
        Self::from_parts_shared(Arc::new(graph), order)
    }

    /// [`from_parts`](Self::from_parts) over an already-shared graph.
    ///
    /// # Panics
    /// Debug-asserts that `order` is a topological order of `graph`.
    pub fn from_parts_shared(graph: Arc<DiGraph>, order: Vec<VertexId>) -> Self {
        debug_assert!(topo::is_topological_order(&graph, &order));
        let mut rank = vec![0u32; graph.num_vertices()];
        for (i, &v) in order.iter().enumerate() {
            rank[v.index()] = i as u32;
        }
        Dag {
            graph,
            topo_order: order,
            topo_rank: rank,
            reverse_topological_ids: false,
        }
    }

    /// Wraps a graph whose ids are reverse topological by construction:
    /// every edge `u -> v` has `u > v`, so `n-1, ..., 1, 0` is its
    /// topological order. Used by the condensation, whose component ids
    /// Tarjan numbers that way; nothing is scanned to check it.
    ///
    /// # Panics
    /// Debug-asserts that every edge runs from a larger id to a smaller.
    pub(crate) fn from_reverse_topological_ids(graph: DiGraph) -> Self {
        debug_assert!(graph.edges().all(|(u, v)| u > v));
        let order = (0..graph.num_vertices() as u32)
            .rev()
            .map(VertexId)
            .collect();
        Dag {
            reverse_topological_ids: true,
            ..Self::from_parts(graph, order)
        }
    }

    /// The vertices in topological order (sources first).
    #[inline]
    pub fn topo_order(&self) -> &[VertexId] {
        &self.topo_order
    }

    /// The position of `v` in the topological order.
    #[inline]
    pub fn topo_rank(&self, v: VertexId) -> u32 {
        self.topo_rank[v.index()]
    }

    /// Whether the ids are reverse topological, so `s` can reach `t`
    /// only if `s >= t`. Only a condensation DAG records this; a DAG
    /// from [`new`](Self::new) or [`from_parts`](Self::from_parts)
    /// reports `false` even when its ids happen to qualify.
    #[inline]
    pub fn ids_reverse_topological(&self) -> bool {
        self.reverse_topological_ids
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// A shared handle to the underlying graph. Cloning the handle is
    /// O(1); every clone points at the same CSR arrays.
    #[inline]
    pub fn shared_graph(&self) -> Arc<DiGraph> {
        Arc::clone(&self.graph)
    }

    /// Consumes the wrapper, returning the underlying graph (cloning
    /// only if other handles to it are still alive).
    pub fn into_graph(self) -> DiGraph {
        Arc::try_unwrap(self.graph).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl Deref for Dag {
    type Target = DiGraph;

    fn deref(&self) -> &DiGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_adjacency() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(VertexId(0)), &[VertexId(1), VertexId(2)]);
        assert_eq!(g.in_neighbors(VertexId(3)), &[VertexId(1), VertexId(2)]);
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.in_degree(VertexId(0)), 0);
        assert_eq!(g.degree(VertexId(1)), 2);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn has_edge_checks_membership() {
        let g = diamond();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(!g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
    }

    #[test]
    fn reverse_swaps_directions() {
        let g = diamond().reverse();
        assert_eq!(g.out_neighbors(VertexId(3)), &[VertexId(1), VertexId(2)]);
        assert_eq!(g.in_neighbors(VertexId(1)), &[VertexId(3)]);
    }

    #[test]
    fn edges_iterator_lists_all() {
        let g = diamond();
        let edges: Vec<_> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn builder_add_vertex_grows() {
        let mut b = DiGraphBuilder::new(0);
        let a = b.add_vertex();
        let c = b.add_vertex();
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.num_vertices(), 2);
        assert!(g.has_edge(a, c));
    }

    #[test]
    fn builder_rejects_out_of_bounds() {
        let mut b = DiGraphBuilder::new(1);
        let err = b.try_add_edge(VertexId(0), VertexId(5)).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfBounds {
                vertex: 5,
                num_vertices: 1
            }
        );
    }

    #[test]
    fn dag_accepts_acyclic_rejects_cyclic() {
        assert!(Dag::new(diamond()).is_ok());
        let cyclic = DiGraph::from_edges(2, &[(0, 1), (1, 0)]);
        assert_eq!(Dag::new(cyclic).unwrap_err(), GraphError::NotAcyclic);
    }

    #[test]
    fn dag_topo_rank_respects_edges() {
        let dag = Dag::new(diamond()).unwrap();
        for (u, v) in dag.graph().edges() {
            assert!(dag.topo_rank(u) < dag.topo_rank(v));
        }
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(Dag::new(g).is_ok());
    }
}
