//! PLL \[49\]: pruned landmark labeling for reachability.
//!
//! Processes vertices in degree-descending priority order; from each
//! hop `v` a forward and a backward BFS label the visited vertices —
//! but a visit is *pruned* whenever the labels built so far already
//! answer `Qr(v, u)` (resp. `Qr(u, v)`), which is the survey's
//! *"search space … pruned according to the total order"*. Pruning
//! makes the labels dramatically smaller than the canonical TOL label
//! sets while remaining a complete 2-hop cover. Works directly on
//! general graphs.

use crate::audit::{self, Violation};
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::tol::sorted_intersects;
use reach_graph::{DiGraph, VertexId};

/// The pruned-landmark-labeling index.
///
/// ```
/// use reach_core::pll::Pll;
/// use reach_core::ReachIndex;
/// use reach_graph::{DiGraph, VertexId};
///
/// // works directly on cyclic graphs
/// let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3)]);
/// let pll = Pll::build(&g);
/// assert!(pll.query(VertexId(0), VertexId(3)));
/// assert!(pll.query(VertexId(1), VertexId(0)));
/// assert!(!pll.query(VertexId(3), VertexId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Pll {
    rank_of: Vec<u32>,
    vertex_at: Vec<VertexId>,
    lin: Vec<Vec<u32>>,
    lout: Vec<Vec<u32>>,
}

impl Pll {
    /// Builds the index with the degree-descending order.
    pub fn build(g: &DiGraph) -> Self {
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        Self::build_with_order(g, &order)
    }

    /// Builds the index with an explicit priority order.
    pub fn build_with_order(g: &DiGraph, order: &[VertexId]) -> Self {
        assert_eq!(order.len(), g.num_vertices());
        let n = g.num_vertices();
        let mut rank_of = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank_of[v.index()] = r as u32;
        }
        let mut pll = Pll {
            rank_of,
            vertex_at: order.to_vec(),
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
        };
        let mut queue: Vec<VertexId> = Vec::new();
        let mut seen = vec![false; n];
        for r in 0..n as u32 {
            pll.pruned_bfs(g, r, true, &mut queue, &mut seen);
            pll.pruned_bfs(g, r, false, &mut queue, &mut seen);
        }
        pll
    }

    fn pruned_bfs(
        &mut self,
        g: &DiGraph,
        r: u32,
        forward: bool,
        queue: &mut Vec<VertexId>,
        seen: &mut [bool],
    ) {
        let w = self.vertex_at[r as usize];
        queue.clear();
        queue.push(w);
        seen[w.index()] = true;
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            // prune: the pair (w, x) is already covered by a
            // higher-priority hop
            let covered = if forward {
                sorted_intersects(&self.lout[w.index()], &self.lin[x.index()])
            } else {
                sorted_intersects(&self.lout[x.index()], &self.lin[w.index()])
            };
            if covered {
                continue;
            }
            if forward {
                self.lin[x.index()].push(r); // ranks ascend across hops
            } else {
                self.lout[x.index()].push(r);
            }
            let adj = if forward {
                g.out_neighbors(x)
            } else {
                g.in_neighbors(x)
            };
            for &y in adj {
                if !seen[y.index()] {
                    seen[y.index()] = true;
                    queue.push(y);
                }
            }
        }
        for &x in queue.iter() {
            seen[x.index()] = false;
        }
    }

    /// The in-label of `x` (hop ranks, sorted ascending).
    pub fn lin(&self, x: VertexId) -> &[u32] {
        &self.lin[x.index()]
    }

    /// The out-label of `x` (hop ranks, sorted ascending).
    pub fn lout(&self, x: VertexId) -> &[u32] {
        &self.lout[x.index()]
    }

    /// The rank of `v` in the priority order.
    pub fn rank_of(&self, v: VertexId) -> u32 {
        self.rank_of[v.index()]
    }

    /// The vertex holding rank `r`.
    pub fn vertex_at(&self, r: u32) -> VertexId {
        self.vertex_at[r as usize]
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "PLL",
    citation: "[49]",
    framework: Framework::TwoHop,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl ReachIndex for Pll {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        s == t || sorted_intersects(&self.lout[s.index()], &self.lin[t.index()])
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        4 * self.size_entries() + 48 * self.lin.len()
    }

    fn size_entries(&self) -> usize {
        self.lin.iter().map(Vec::len).sum::<usize>() + self.lout.iter().map(Vec::len).sum::<usize>()
    }

    /// Pruning must leave a *complete and sound* 2-hop cover: the
    /// shared validator checks label order, hub soundness against
    /// true closures, and witness coverage for reachable pairs.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let mut out = Vec::new();
        if graph.num_vertices() != self.lin.len() {
            out.push(Violation {
                index: "PLL",
                rule: "graph-mismatch",
                detail: format!(
                    "index covers {} vertices, graph has {}",
                    self.lin.len(),
                    graph.num_vertices()
                ),
            });
            return out;
        }
        audit::check_two_hop_cover(
            "PLL",
            graph,
            |x| self.lout(x),
            |x| self.lin(x),
            |r| self.vertex_at(r),
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{power_law_dag, random_digraph};

    fn check_exact(g: &DiGraph) {
        let pll = Pll::build(g);
        let tc = TransitiveClosure::build(g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(pll.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check_exact(&fixtures::figure1a());
        let pll = Pll::build(&fixtures::figure1a());
        assert!(pll.query(fixtures::A, fixtures::G));
        assert!(!pll.query(fixtures::G, fixtures::A));
    }

    #[test]
    fn exact_on_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(101);
        for _ in 0..5 {
            check_exact(&random_digraph(45, 130, &mut rng));
        }
    }

    #[test]
    fn exact_on_power_law_dags() {
        let mut rng = SmallRng::seed_from_u64(102);
        check_exact(power_law_dag(150, 2, &mut rng).graph());
    }

    #[test]
    fn labels_are_sound() {
        let mut rng = SmallRng::seed_from_u64(103);
        let g = random_digraph(40, 110, &mut rng);
        let pll = Pll::build(&g);
        let tc = TransitiveClosure::build(&g);
        for x in g.vertices() {
            for &r in pll.lin(x) {
                assert!(tc.reaches(pll.vertex_at(r), x));
            }
            for &r in pll.lout(x) {
                assert!(tc.reaches(x, pll.vertex_at(r)));
            }
        }
    }

    #[test]
    fn labels_are_sorted() {
        let mut rng = SmallRng::seed_from_u64(104);
        let g = random_digraph(40, 110, &mut rng);
        let pll = Pll::build(&g);
        for x in g.vertices() {
            assert!(pll.lin(x).windows(2).all(|w| w[0] < w[1]));
            assert!(pll.lout(x).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn pruning_beats_canonical_tol_on_hub_graphs() {
        // PLL's coverage-based pruning must produce labels no larger
        // than the canonical restricted-closure labels of DL (same order).
        let mut rng = SmallRng::seed_from_u64(105);
        let g = power_law_dag(300, 3, &mut rng).into_graph();
        let pll = Pll::build(&g);
        let dl = crate::tol::build_dl(&g, 1);
        assert!(
            pll.size_entries() <= dl.size_entries(),
            "pll {} > dl {}",
            pll.size_entries(),
            dl.size_entries()
        );
    }
}
