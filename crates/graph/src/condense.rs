//! SCC condensation: the general-graph → DAG reduction of §3.1.
//!
//! Most plain reachability indexes assume DAG input. The survey's
//! standard recipe (after Tarjan \[42\]) is: coalesce every strongly
//! connected component into a representative vertex, index the
//! resulting DAG, and answer `Qr(s,t)` as
//! `same_scc(s,t) || dag_reachable(comp(s), comp(t))`.

use crate::digraph::{Dag, DiGraph};
use crate::scc::{tarjan_scc, SccDecomposition};
use crate::vertex::VertexId;
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one condensation, reported per build by the
/// pipeline layer (`BuildReport` in `reach-core`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CondenseTiming {
    /// Time spent in Tarjan's SCC decomposition.
    pub scc: Duration,
    /// Time spent assembling the condensed DAG and its topo order.
    pub assemble: Duration,
}

impl CondenseTiming {
    /// Total condensation time.
    pub fn total(&self) -> Duration {
        self.scc + self.assemble
    }
}

/// A condensed graph: the SCC DAG plus the vertex → component mapping.
///
/// ```
/// use reach_graph::{Condensation, DiGraph, VertexId};
///
/// // a 3-cycle feeding a sink
/// let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// let c = Condensation::new(&g);
/// assert_eq!(c.dag().num_vertices(), 2);
/// assert!(c.same_component(VertexId(0), VertexId(2)));
/// assert!(!c.same_component(VertexId(0), VertexId(3)));
/// ```
#[derive(Debug, Clone)]
pub struct Condensation {
    scc: SccDecomposition,
    dag: Dag,
}

impl Condensation {
    /// Condenses `g` into its SCC DAG.
    ///
    /// Component ids double as DAG vertex ids. Tarjan numbers
    /// components in reverse topological order, so
    /// `num_components-1, ..., 1, 0` is a valid topological order of
    /// the condensation — no second sort is needed.
    pub fn new(g: &DiGraph) -> Self {
        Self::new_timed(g).0
    }

    /// [`new`](Self::new), additionally reporting how long each phase
    /// took. The pipeline layer stores the timing alongside the shared
    /// artifact so every index built on it can report the (single)
    /// condensation cost.
    pub fn new_timed(g: &DiGraph) -> (Self, CondenseTiming) {
        let start = Instant::now();
        let scc = tarjan_scc(g);
        let scc_time = start.elapsed();
        let assemble_start = Instant::now();
        let nc = scc.num_components();
        let comp = scc.components();
        let mut edges = Vec::with_capacity(g.num_edges());
        for (u, &cu) in comp.iter().enumerate() {
            for &v in g.out_neighbors(VertexId::new(u)) {
                let cv = comp[v.index()];
                if cu != cv {
                    edges.push((cu, cv));
                }
            }
        }
        let dag = Dag::from_reverse_topological_ids(DiGraph::from_edge_parts(nc, vec![edges]));
        let timing = CondenseTiming {
            scc: scc_time,
            assemble: assemble_start.elapsed(),
        };
        (Condensation { scc, dag }, timing)
    }

    /// The SCC DAG. Its vertex ids are component ids, which are
    /// reverse topological ([`Dag::ids_reverse_topological`]).
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The component (= DAG vertex) containing original vertex `v`.
    #[inline]
    pub fn component_of(&self, v: VertexId) -> VertexId {
        VertexId(self.scc.component_of(v))
    }

    /// Whether `s` and `t` lie in the same SCC of the original graph.
    #[inline]
    pub fn same_component(&self, s: VertexId, t: VertexId) -> bool {
        self.scc.same_component(s, t)
    }

    /// The underlying SCC decomposition.
    pub fn scc(&self) -> &SccDecomposition {
        &self.scc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse;

    #[test]
    fn condensing_a_dag_is_isomorphic() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = Condensation::new(&g);
        assert_eq!(c.dag().num_vertices(), 4);
        assert_eq!(c.dag().num_edges(), 4);
    }

    #[test]
    fn condensation_dag_reports_reverse_topological_ids() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        let dag = Condensation::new(&g).dag().clone();
        assert!(dag.ids_reverse_topological());
        for (u, v) in dag.edges() {
            assert!(u > v, "edge {u:?}->{v:?}");
        }
        // the same graph wrapped without the condensation does not claim it
        assert!(!Dag::new(dag.graph().clone())
            .unwrap()
            .ids_reverse_topological());
    }

    #[test]
    fn cycle_collapses_to_point() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let c = Condensation::new(&g);
        assert_eq!(c.dag().num_vertices(), 1);
        assert_eq!(c.dag().num_edges(), 0);
    }

    #[test]
    fn parallel_component_edges_are_merged() {
        // two edges crossing between the same pair of components
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3)]);
        let c = Condensation::new(&g);
        assert_eq!(c.dag().num_vertices(), 2);
        assert_eq!(c.dag().num_edges(), 1);
    }

    #[test]
    fn reachability_is_preserved() {
        // figure-eight-ish general graph
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        let c = Condensation::new(&g);
        let mut visit = traverse::VisitMap::new(g.num_vertices());
        let mut dag_visit = traverse::VisitMap::new(c.dag().num_vertices());
        for s in g.vertices() {
            for t in g.vertices() {
                let direct = traverse::bfs_reaches(&g, s, t, &mut visit);
                let via = c.same_component(s, t)
                    || traverse::bfs_reaches(
                        c.dag().graph(),
                        c.component_of(s),
                        c.component_of(t),
                        &mut dag_visit,
                    );
                assert_eq!(direct, via, "mismatch for {s:?}->{t:?}");
            }
        }
    }
}
