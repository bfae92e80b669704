//! Interval labeling over spanning forests — the shared primitive of
//! every tree-cover index (§3.1).
//!
//! *"For each vertex v, b_v is v's post-order number obtained by the
//! post-order traversal from the root of the tree, and a_v is the
//! lowest post-order number of all the descendants of v in the tree.
//! `Qr(s,t)` can be processed by checking if b_t ∈ [a_s, b_s]."*

use rand::Rng;
use reach_graph::{Dag, DiGraph, VertexId};

/// The post-order intervals `[a_v, b_v]` of a DFS forest: the part of
/// a [`SpanningForest`] that BFL and PReaCH keep. `contains(u, v)`
/// decides *tree* ancestry in O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intervals {
    /// a_v: lowest post-order number in v's subtree.
    start: Vec<u32>,
    /// b_v: v's own post-order number.
    end: Vec<u32>,
}

impl Intervals {
    /// The intervals of [`SpanningForest::build`]'s forest, from one
    /// DFS that records nothing else.
    pub fn build(dag: &Dag) -> Self {
        Self::build_with_low(dag).0
    }

    /// [`build`](Self::build), plus each vertex's `low`: the smallest
    /// post-order number in its forward closure (GRAIL's low with this
    /// deterministic forest), set in the same DFS.
    pub fn build_with_low(dag: &Dag) -> (Self, Vec<u32>) {
        let n = dag.num_vertices();
        let mut intervals = Intervals {
            start: vec![0; n],
            end: vec![0; n],
        };
        let low = post_order(
            dag.graph(),
            dag.topo_order(),
            None::<&mut rand::rngs::SmallRng>,
            |_, _, _| {},
            |v, a, b, _| {
                intervals.start[v.index()] = a;
                intervals.end[v.index()] = b;
            },
        );
        (intervals, low)
    }

    /// Whether `v` lies in the tree subtree rooted at `u` (including
    /// `u` itself): `b_v ∈ [a_u, b_u]`.
    #[inline]
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.start[u.index()] <= self.end[v.index()] && self.end[v.index()] <= self.end[u.index()]
    }

    /// `a_v`: the lowest post-order number in `v`'s subtree.
    #[inline]
    pub fn start(&self, v: VertexId) -> u32 {
        self.start[v.index()]
    }

    /// `b_v`: the post-order number of `v`.
    #[inline]
    pub fn end(&self, v: VertexId) -> u32 {
        self.end[v.index()]
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.end.len()
    }

    /// The bytes the two interval ends occupy.
    pub fn size_bytes(&self) -> usize {
        4 * (self.start.len() + self.end.len())
    }
}

/// A spanning forest of a digraph: each vertex's discovery parent in a
/// DFS from the unvisited-vertex roots, plus its post-order interval.
///
/// `contains(u, v)` decides *tree* ancestry in O(1); edges of the
/// underlying graph that were not used for discovery are reported as
/// [`non_tree_edges`](Self::non_tree_edges) and are exactly what the
/// different tree-cover techniques handle differently.
///
/// On a DAG the roots are taken in topological order, so every root is
/// a source and each tree reaches as deep as the DAG lets it. Rooting
/// in id order instead would make every vertex of a condensation (whose
/// ids are reverse-topological) a singleton tree.
#[derive(Debug, Clone)]
pub struct SpanningForest {
    parent: Vec<Option<VertexId>>,
    intervals: Intervals,
    non_tree: Vec<(VertexId, VertexId)>,
}

impl SpanningForest {
    /// Builds a deterministic spanning forest of a DAG: roots are tried
    /// in the DAG's topological order, children in ascending id order.
    pub fn build(dag: &Dag) -> Self {
        Self::build_inner(
            dag.graph(),
            dag.topo_order(),
            None::<&mut rand::rngs::SmallRng>,
        )
    }

    /// Builds a deterministic spanning forest of a general digraph,
    /// which has no topological order: roots and children are tried in
    /// ascending id order.
    pub fn build_general(g: &DiGraph) -> Self {
        let roots: Vec<VertexId> = g.vertices().collect();
        Self::build_inner(g, &roots, None::<&mut rand::rngs::SmallRng>)
    }

    /// Builds a randomized spanning forest: root order and child order
    /// are shuffled. Repeated calls give the independent random trees
    /// GRAIL-style techniques need.
    pub fn build_random<R: Rng>(g: &DiGraph, rng: &mut R) -> Self {
        let mut roots: Vec<VertexId> = g.vertices().collect();
        shuffle(&mut roots, rng);
        Self::build_inner(g, &roots, Some(rng))
    }

    fn build_inner<R: Rng>(g: &DiGraph, roots: &[VertexId], rng: Option<&mut R>) -> Self {
        let n = g.num_vertices();
        let mut parent: Vec<Option<VertexId>> = vec![None; n];
        let mut non_tree = Vec::new();
        let mut intervals = Intervals {
            start: vec![0; n],
            end: vec![0; n],
        };
        post_order(
            g,
            roots,
            rng,
            |v, w, tree| {
                if tree {
                    parent[w.index()] = Some(v);
                } else {
                    non_tree.push((v, w));
                }
            },
            |v, a, b, _| {
                intervals.start[v.index()] = a;
                intervals.end[v.index()] = b;
            },
        );
        SpanningForest {
            parent,
            intervals,
            non_tree,
        }
    }

    /// The forest's post-order intervals.
    pub fn intervals(&self) -> &Intervals {
        &self.intervals
    }

    /// The forest's post-order intervals, without the rest.
    pub fn into_intervals(self) -> Intervals {
        self.intervals
    }

    /// Whether `v` lies in the tree subtree rooted at `u` (including
    /// `u` itself): `b_v ∈ [a_u, b_u]`.
    #[inline]
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.intervals.contains(u, v)
    }

    /// `a_v`: the lowest post-order number in `v`'s subtree.
    #[inline]
    pub fn start(&self, v: VertexId) -> u32 {
        self.intervals.start(v)
    }

    /// `b_v`: the post-order number of `v`.
    #[inline]
    pub fn end(&self, v: VertexId) -> u32 {
        self.intervals.end(v)
    }

    /// The DFS parent of `v`, or `None` for forest roots.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.parent[v.index()]
    }

    /// The edges of the graph that are not forest edges, in the order
    /// the DFS encountered them.
    pub fn non_tree_edges(&self) -> &[(VertexId, VertexId)] {
        &self.non_tree
    }

    /// Number of vertices covered by the forest.
    pub fn num_vertices(&self) -> usize {
        self.parent.len()
    }
}

/// One DFS forest over `g`, roots tried in `roots` order and children
/// in out-list order (shuffled on entry when given an RNG, which draws
/// it in discovery order). Reports each out-edge `(v, w)` to `edge`
/// with whether it discovered `w`, and each finished vertex to
/// `finish(v, a_v, b_v, low_v)`. Returns every vertex's low.
///
/// `low_v` is the least of `b_v` and the lows of `v`'s out-neighbours,
/// kept as a running minimum in `v`'s frame: on a DAG every neighbour
/// has finished by the time `v` does, so `low_v` is the smallest
/// post-order number in `v`'s forward closure and needs no second
/// sweep. (On a cyclic graph a neighbour still on the stack does not
/// count, and low means nothing.)
pub(crate) fn post_order<R: Rng>(
    g: &DiGraph,
    roots: &[VertexId],
    mut rng: Option<&mut R>,
    mut edge: impl FnMut(VertexId, VertexId, bool),
    mut finish: impl FnMut(VertexId, u32, u32, u32),
) -> Vec<u32> {
    // low[v]: 0 until v is discovered, u32::MAX while it is open.
    const OPEN: u32 = u32::MAX;
    let mut low = vec![0u32; g.num_vertices()];
    let mut counter = 0u32;

    // Iterative DFS over one flat stack of (vertex, the rest of its
    // out-list, post-order counter at entry — the eventual a_v - 1,
    // running low) frames. A randomized forest shuffles each out-list
    // on entry into its own stretch of `arena` (every vertex is entered
    // once, so m slots suffice).
    let mut arena = vec![VertexId(0); if rng.is_some() { g.num_edges() } else { 0 }];
    let mut free: &mut [VertexId] = &mut arena;
    let mut stack: Vec<(VertexId, &[VertexId], u32, u32)> = Vec::new();

    for &root in roots {
        if low[root.index()] != 0 {
            continue;
        }
        low[root.index()] = OPEN;
        let list = out_list(g, root, &mut free, rng.as_deref_mut());
        stack.push((root, list, counter, OPEN));
        while let Some((v, rest, entry, run)) = stack.last_mut() {
            let v = *v;
            if let Some((&w, tail)) = rest.split_first() {
                *rest = tail;
                let lw = low[w.index()];
                if lw != 0 {
                    *run = (*run).min(lw);
                    edge(v, w, false);
                } else {
                    low[w.index()] = OPEN;
                    edge(v, w, true);
                    let list = out_list(g, w, &mut free, rng.as_deref_mut());
                    stack.push((w, list, counter, OPEN));
                }
            } else {
                counter += 1;
                let (a, lv) = (*entry + 1, (*run).min(counter));
                low[v.index()] = lv;
                finish(v, a, counter, lv);
                stack.pop();
                if let Some(parent) = stack.last_mut() {
                    parent.3 = parent.3.min(lv);
                }
            }
        }
    }
    low
}

/// The out-list of `v` a DFS frame walks: the CSR slice itself, or,
/// given an RNG, a shuffled copy carved off the front of `free`.
fn out_list<'a, R: Rng>(
    g: &'a DiGraph,
    v: VertexId,
    free: &mut &'a mut [VertexId],
    rng: Option<&mut R>,
) -> &'a [VertexId] {
    let list = g.out_neighbors(v);
    let Some(rng) = rng else {
        return list;
    };
    let (copy, rest) = std::mem::take(free).split_at_mut(list.len());
    *free = rest;
    copy.copy_from_slice(list);
    shuffle(copy, rng);
    copy
}

pub(crate) fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::{fixtures, Condensation};

    fn tree() -> Dag {
        //       0
        //      / \
        //     1   2
        //    / \
        //   3   4
        Dag::new(DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)])).unwrap()
    }

    fn figure1() -> Dag {
        Dag::new(fixtures::figure1a()).unwrap()
    }

    #[test]
    fn pure_tree_has_no_non_tree_edges() {
        let f = SpanningForest::build(&tree());
        assert!(f.non_tree_edges().is_empty());
    }

    #[test]
    fn containment_matches_ancestry() {
        let f = SpanningForest::build(&tree());
        let anc = |u: u32, v: u32| f.contains(VertexId(u), VertexId(v));
        assert!(anc(0, 3) && anc(0, 4) && anc(1, 3) && anc(1, 4));
        assert!(anc(0, 0) && anc(3, 3));
        assert!(!anc(2, 3) && !anc(3, 1) && !anc(1, 2));
    }

    #[test]
    fn post_order_numbers_are_a_permutation() {
        let f = SpanningForest::build(&figure1());
        let mut ends: Vec<u32> = (0..f.num_vertices())
            .map(|i| f.end(VertexId::new(i)))
            .collect();
        ends.sort_unstable();
        let expect: Vec<u32> = (1..=f.num_vertices() as u32).collect();
        assert_eq!(ends, expect);
    }

    #[test]
    fn non_tree_edges_complete_the_edge_set() {
        let g = figure1();
        let f = SpanningForest::build(&g);
        let tree_edges = g.edges().filter(|&(u, v)| f.parent(v) == Some(u)).count();
        assert_eq!(tree_edges + f.non_tree_edges().len(), g.num_edges());
    }

    #[test]
    fn tree_descendants_are_reachable() {
        // tree containment is a sound positive filter on the graph
        let g = figure1();
        let f = SpanningForest::build(&g);
        let mut vm = reach_graph::traverse::VisitMap::new(g.num_vertices());
        for u in g.vertices() {
            for v in g.vertices() {
                if f.contains(u, v) {
                    assert!(reach_graph::traverse::bfs_reaches(&g, u, v, &mut vm));
                }
            }
        }
    }

    #[test]
    fn condensed_path_is_one_tree() {
        // Condensed ids are reverse-topological (the sink is component
        // 0); rooting in topological order still yields a single tree.
        let n = 50u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let c = Condensation::new(&DiGraph::from_edges(n as usize, &edges));
        let f = SpanningForest::build(c.dag());
        let roots = c
            .dag()
            .vertices()
            .filter(|&v| f.parent(v).is_none())
            .count();
        assert_eq!(roots, 1);
        assert!(f.non_tree_edges().is_empty());
        let head = c.component_of(VertexId(0));
        let tail = c.component_of(VertexId(n - 1));
        assert!(f.contains(head, tail));
    }

    #[test]
    fn dag_roots_are_exactly_the_sources() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = reach_graph::generators::random_digraph(300, 700, &mut rng);
        let dag = Condensation::new(&g).dag().clone();
        let f = SpanningForest::build(&dag);
        for v in dag.vertices() {
            assert_eq!(f.parent(v).is_none(), dag.in_degree(v) == 0, "{v:?}");
        }
    }

    #[test]
    fn random_forests_differ_but_stay_valid() {
        let g = fixtures::figure1a();
        let mut rng = SmallRng::seed_from_u64(5);
        let forests: Vec<SpanningForest> = (0..8)
            .map(|_| SpanningForest::build_random(&g, &mut rng))
            .collect();
        // all valid positive filters
        let mut vm = reach_graph::traverse::VisitMap::new(g.num_vertices());
        for f in &forests {
            for u in g.vertices() {
                for v in g.vertices() {
                    if f.contains(u, v) {
                        assert!(reach_graph::traverse::bfs_reaches(&g, u, v, &mut vm));
                    }
                }
            }
        }
        // at least two of them disagree on some interval (randomization works)
        let distinct = forests
            .iter()
            .any(|f| (0..9).any(|i| f.end(VertexId(i)) != forests[0].end(VertexId(i))));
        assert!(
            distinct,
            "8 random forests all identical is vanishingly unlikely"
        );
    }

    #[test]
    fn random_forests_keep_their_rng_sequence() {
        // GRAIL's labels depend on the exact order of RNG draws; these
        // post-order numbers pin it across changes to the DFS.
        let mut rng = SmallRng::seed_from_u64(3);
        let dag = reach_graph::generators::random_dag(40, 110, &mut rng);
        let mut rng = SmallRng::seed_from_u64(7);
        let expect: [(&[u32], usize); 2] = [
            (
                &[
                    29, 28, 40, 38, 36, 26, 39, 33, 24, 31, 37, 27, 35, 21, 32, 25, 30, 23, 14, 17,
                    20, 15, 13, 11, 19, 7, 12, 10, 22, 18, 6, 34, 9, 5, 16, 4, 8, 3, 2, 1,
                ],
                78,
            ),
            (
                &[
                    34, 33, 40, 28, 35, 24, 32, 38, 23, 39, 1, 27, 31, 20, 36, 13, 37, 22, 29, 16,
                    19, 26, 25, 15, 18, 8, 12, 11, 21, 17, 7, 30, 9, 6, 14, 5, 10, 4, 3, 2,
                ],
                72,
            ),
        ];
        for (ends, non_tree) in expect {
            let f = SpanningForest::build_random(dag.graph(), &mut rng);
            let got: Vec<u32> = dag.vertices().map(|v| f.end(v)).collect();
            assert_eq!(got, ends);
            assert_eq!(f.non_tree_edges().len(), non_tree);
        }
    }

    #[test]
    fn cyclic_graph_gets_a_forest_too() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let f = SpanningForest::build_general(&g);
        assert_eq!(f.non_tree_edges().len(), 1);
        assert!(f.contains(VertexId(0), VertexId(2)));
    }
}
