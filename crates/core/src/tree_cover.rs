//! The original tree-cover index of Agrawal, Borgida & Jagadish \[2\].
//!
//! Interval labeling over a spanning forest, plus *interval
//! inheritance*: processing vertices in reverse topological order,
//! every vertex absorbs the interval lists of its out-neighbors, so
//! paths through non-tree edges are captured. Adjacent or overlapping
//! intervals are merged for compact storage (§3.1).

use crate::audit::{self, Violation};
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::interval::SpanningForest;
use reach_graph::{Dag, DiGraph, VertexId};

/// The complete tree-cover index: per-vertex merged interval lists
/// over spanning-forest post-order numbers.
///
/// ```
/// use reach_core::tree_cover::TreeCover;
/// use reach_core::ReachIndex;
/// use reach_graph::{Dag, DiGraph, VertexId};
///
/// let dag = Dag::new(DiGraph::from_edges(4, &[(0, 1), (1, 3), (0, 2)])).unwrap();
/// let idx = TreeCover::build(&dag);
/// assert!(idx.query(VertexId(0), VertexId(3)));
/// assert!(!idx.query(VertexId(2), VertexId(3)));
/// ```
#[derive(Debug, Clone)]
pub struct TreeCover {
    /// b_v of each vertex (the value interval membership is tested on).
    post: Vec<u32>,
    /// Per-vertex sorted, disjoint, non-adjacent `[start, end]` intervals.
    intervals: Vec<Vec<(u32, u32)>>,
}

/// Merges a sorted-by-start interval list in place: overlapping or
/// adjacent intervals collapse (the paper’s `[1,6] + [7,8] → [1,8]`).
pub(crate) fn merge_sorted_intervals(list: &mut Vec<(u32, u32)>) {
    let mut w = 0;
    for i in 0..list.len() {
        if w == 0 || list[i].0 > list[w - 1].1 + 1 {
            list[w] = list[i];
            w += 1;
        } else if list[i].1 > list[w - 1].1 {
            list[w - 1].1 = list[i].1;
        }
    }
    list.truncate(w);
}

impl TreeCover {
    /// Builds the index for a DAG: spanning forest intervals plus one
    /// reverse-topological inheritance sweep.
    pub fn build(dag: &Dag) -> Self {
        let forest = SpanningForest::build(dag);
        let n = dag.num_vertices();
        let post: Vec<u32> = (0..n).map(|i| forest.end(VertexId::new(i))).collect();
        let mut intervals: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];

        for &u in dag.topo_order().iter().rev() {
            let mut list: Vec<(u32, u32)> = vec![(forest.start(u), forest.end(u))];
            for &v in dag.out_neighbors(u) {
                list.extend_from_slice(&intervals[v.index()]);
            }
            list.sort_unstable();
            merge_sorted_intervals(&mut list);
            intervals[u.index()] = list;
        }
        TreeCover { post, intervals }
    }

    /// The interval list of `v` (sorted, disjoint).
    pub fn intervals_of(&self, v: VertexId) -> &[(u32, u32)] {
        &self.intervals[v.index()]
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "Tree cover",
    citation: "[2]",
    framework: Framework::TreeCover,
    completeness: Completeness::Complete,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

impl ReachIndex for TreeCover {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        let b = self.post[t.index()];
        // intervals are sorted and disjoint: binary search by start
        let list = &self.intervals[s.index()];
        match list.binary_search_by(|&(start, _)| start.cmp(&b)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => list[i - 1].1 >= b,
        }
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        4 * self.post.len() + 8 * self.size_entries() + 24 * self.intervals.len()
    }

    fn size_entries(&self) -> usize {
        self.intervals.iter().map(Vec::len).sum()
    }

    /// Tree-cover structural invariants: per-vertex interval lists are
    /// sorted, disjoint, and non-adjacent; every vertex's own
    /// post-order number is covered; and intervals *nest* along edges
    /// — inheritance makes each out-neighbor's coverage a subset of
    /// its predecessor's.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let name = "Tree cover";
        if let Some(v) = audit::graph_mismatch(name, "index", self.post.len(), graph) {
            return vec![v];
        }
        let mut out = Vec::new();
        for v in graph.vertices() {
            let list = &self.intervals[v.index()];
            if list.iter().any(|&(s, e)| s > e) || list.windows(2).any(|w| w[1].0 <= w[0].1 + 1) {
                out.push(Violation {
                    index: name,
                    rule: "interval-order",
                    detail: format!("intervals of {v:?} not sorted/disjoint/merged: {list:?}"),
                });
            }
            if !covers(list, self.post[v.index()]) {
                out.push(Violation {
                    index: name,
                    rule: "interval-self",
                    detail: format!("{v:?}'s own post number {} uncovered", self.post[v.index()]),
                });
            }
        }
        for u in graph.vertices() {
            for &v in graph.out_neighbors(u) {
                for &(s, e) in &self.intervals[v.index()] {
                    if !contains_interval(&self.intervals[u.index()], s, e) {
                        out.push(Violation {
                            index: name,
                            rule: "interval-nesting",
                            detail: format!(
                                "edge {u:?}->{v:?}: child interval [{s}, {e}] not nested in \
                                 parent coverage"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

/// Whether `b` lies in some interval of a sorted disjoint list.
fn covers(list: &[(u32, u32)], b: u32) -> bool {
    match list.binary_search_by(|&(start, _)| start.cmp(&b)) {
        Ok(_) => true,
        Err(0) => false,
        Err(i) => list[i - 1].1 >= b,
    }
}

/// Whether `[s, e]` lies inside a single interval of the list.
/// Sufficient for nesting because merged lists have gaps ≥ 2, so a
/// contiguous child interval cannot straddle two parent intervals.
fn contains_interval(list: &[(u32, u32)], s: u32, e: u32) -> bool {
    match list.binary_search_by(|&(start, _)| start.cmp(&s)) {
        Ok(i) => list[i].1 >= e,
        Err(0) => false,
        Err(i) => list[i - 1].1 >= e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::generators::{random_dag, random_tree_plus_edges};
    use reach_graph::{fixtures, DiGraph};

    fn check_against_tc(dag: &Dag) {
        let idx = TreeCover::build(dag);
        let tc = TransitiveClosure::build_dag(dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(
                    idx.query(s, t),
                    tc.reaches(s, t),
                    "mismatch at {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn merge_collapses_adjacent() {
        let mut v = vec![(1, 6), (7, 8)];
        merge_sorted_intervals(&mut v);
        assert_eq!(v, vec![(1, 8)]);
        let mut v = vec![(1, 3), (2, 5), (8, 9)];
        merge_sorted_intervals(&mut v);
        assert_eq!(v, vec![(1, 5), (8, 9)]);
        let mut v: Vec<(u32, u32)> = vec![];
        merge_sorted_intervals(&mut v);
        assert!(v.is_empty());
        let mut v = vec![(1, 10), (2, 3)];
        merge_sorted_intervals(&mut v);
        assert_eq!(v, vec![(1, 10)], "contained interval absorbed");
    }

    #[test]
    fn exact_on_figure1() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        check_against_tc(&dag);
        let idx = TreeCover::build(&dag);
        assert!(
            idx.query(fixtures::A, fixtures::G),
            "the paper's Qr(A,G)=true"
        );
        assert!(!idx.query(fixtures::G, fixtures::A));
    }

    #[test]
    fn exact_on_random_dags() {
        let mut rng = SmallRng::seed_from_u64(21);
        for _ in 0..5 {
            check_against_tc(&random_dag(70, 180, &mut rng));
        }
    }

    #[test]
    fn exact_on_tree_heavy_dags() {
        let mut rng = SmallRng::seed_from_u64(22);
        check_against_tc(&random_tree_plus_edges(120, 15, &mut rng));
    }

    #[test]
    fn pure_tree_needs_one_interval_per_vertex() {
        let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        let idx = TreeCover::build(&Dag::new(g).unwrap());
        assert_eq!(idx.size_entries(), 5);
    }

    #[test]
    fn non_tree_edges_grow_the_index() {
        // a dense-ish DAG needs inherited intervals
        let mut rng = SmallRng::seed_from_u64(23);
        let dag = random_dag(60, 250, &mut rng);
        let idx = TreeCover::build(&dag);
        assert!(idx.size_entries() >= dag.num_vertices());
    }
}
