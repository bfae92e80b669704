//! The materialized transitive closure — the naive baseline of §2.3.
//!
//! *"TC computes and stores the existence of a path between every pair
//! of vertices in the graph. Although query processing with TC
//! requires only constant time, the high computation and storage costs
//! make it infeasible in practice."* It is, however, the perfect test
//! oracle: every other index in this workspace is validated against it.

use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use reach_graph::{Dag, DiGraph, VertexId};

/// A dense bitset transitive closure: one `n`-bit row per vertex.
///
/// `O(n²/8)` bytes and `O(n·m/64)` build time — quadratic storage is
/// exactly the infeasibility the survey points out, so keep it to
/// graphs of at most a few tens of thousands of vertices.
///
/// ```
/// use reach_core::TransitiveClosure;
/// use reach_graph::{DiGraph, VertexId};
///
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// let tc = TransitiveClosure::build(&g);
/// assert!(tc.reaches(VertexId(0), VertexId(2)));
/// assert_eq!(tc.num_pairs(), 3 + 3); // reflexive + path pairs
/// ```
#[derive(Debug, Clone)]
pub struct TransitiveClosure {
    n: usize,
    words: usize,
    rows: Vec<u64>,
}

impl TransitiveClosure {
    /// Builds the closure of a DAG with one reverse-topological sweep
    /// (`row(v) = {v} ∪ ⋃ row(succ)`), the fastest exact method.
    pub fn build_dag(dag: &Dag) -> Self {
        let n = dag.num_vertices();
        let words = n.div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words];
        for &u in dag.topo_order().iter().rev() {
            let ui = u.index();
            for &v in dag.out_neighbors(u) {
                let vi = v.index();
                let (urow, vrow) = if ui < vi {
                    let (a, b) = rows.split_at_mut(vi * words);
                    (&mut a[ui * words..ui * words + words], &b[..words])
                } else {
                    let (a, b) = rows.split_at_mut(ui * words);
                    (
                        &mut b[..words],
                        &a[vi * words..vi * words + words] as &[u64],
                    )
                };
                for w in 0..words {
                    urow[w] |= vrow[w];
                }
            }
            rows[ui * words + ui / 64] |= 1u64 << (ui % 64);
        }
        TransitiveClosure { n, words, rows }
    }

    /// Builds the closure of an arbitrary digraph with one BFS per
    /// vertex (`O(n·m)`).
    pub fn build(g: &DiGraph) -> Self {
        let n = g.num_vertices();
        let words = n.div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words];
        let mut queue: Vec<VertexId> = Vec::new();
        for s in g.vertices() {
            let base = s.index() * words;
            rows[base + s.index() / 64] |= 1u64 << (s.index() % 64);
            queue.clear();
            queue.push(s);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &v in g.out_neighbors(u) {
                    let bit = base + v.index() / 64;
                    let mask = 1u64 << (v.index() % 64);
                    if rows[bit] & mask == 0 {
                        rows[bit] |= mask;
                        queue.push(v);
                    }
                }
            }
        }
        TransitiveClosure { n, words, rows }
    }

    /// Whether the closure contains the pair `(s, t)`.
    #[inline]
    pub fn reaches(&self, s: VertexId, t: VertexId) -> bool {
        self.rows[s.index() * self.words + t.index() / 64] >> (t.index() % 64) & 1 == 1
    }

    /// Number of reachable pairs (including the `n` reflexive pairs) —
    /// the size a full TC materialization would pay for.
    pub fn num_pairs(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.n
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "TC",
    citation: "[2]",
    framework: Framework::TransitiveClosure,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl ReachIndex for TransitiveClosure {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        self.reaches(s, t)
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        self.rows.len() * 8
    }

    fn size_entries(&self) -> usize {
        self.num_pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::generators::{random_dag, random_digraph};
    use reach_graph::traverse::{bfs_reaches, VisitMap};

    #[test]
    fn dag_and_general_builders_agree() {
        let mut rng = SmallRng::seed_from_u64(11);
        let dag = random_dag(80, 200, &mut rng);
        let a = TransitiveClosure::build_dag(&dag);
        let b = TransitiveClosure::build(dag.graph());
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(a.reaches(s, t), b.reaches(s, t));
            }
        }
    }

    #[test]
    fn matches_bfs_on_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(12);
        let g = random_digraph(50, 130, &mut rng);
        let tc = TransitiveClosure::build(&g);
        let mut vm = VisitMap::new(g.num_vertices());
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(tc.reaches(s, t), bfs_reaches(&g, s, t, &mut vm));
            }
        }
    }

    #[test]
    fn reflexive_and_empty() {
        let g = DiGraph::from_edges(3, &[]);
        let tc = TransitiveClosure::build(&g);
        assert!(tc.reaches(VertexId(0), VertexId(0)));
        assert!(!tc.reaches(VertexId(0), VertexId(1)));
        assert_eq!(tc.num_pairs(), 3);
    }

    #[test]
    fn pair_count_of_a_chain() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let tc = TransitiveClosure::build(&g);
        // 4 reflexive + 3+2+1 path pairs
        assert_eq!(tc.num_pairs(), 10);
    }

    #[test]
    fn large_vertex_count_crossing_word_boundary() {
        // 130 vertices spans three 64-bit words per row
        let edges: Vec<(u32, u32)> = (0..129).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(130, &edges);
        let tc = TransitiveClosure::build(&g);
        assert!(tc.reaches(VertexId(0), VertexId(129)));
        assert!(!tc.reaches(VertexId(129), VertexId(0)));
    }
}
