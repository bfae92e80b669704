//! SCC condensation: the general-graph → DAG reduction of §3.1.
//!
//! Most plain reachability indexes assume DAG input. The survey's
//! standard recipe (after Tarjan \[42\]) is: coalesce every strongly
//! connected component into a representative vertex, index the
//! resulting DAG, and answer `Qr(s,t)` as
//! `same_scc(s,t) || dag_reachable(comp(s), comp(t))`.

use crate::digraph::{Dag, DiGraph};
use crate::scc::{tarjan_with, SccDecomposition};
use crate::vertex::VertexId;
use std::time::{Duration, Instant};

/// Wall-clock breakdown of one condensation, reported per build by the
/// pipeline layer (`BuildReport` in `reach-core`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CondenseTiming {
    /// Time spent in Tarjan's SCC decomposition, which also writes the
    /// condensed DAG's out-lists as each component pops.
    pub scc: Duration,
    /// Time spent wrapping those out-lists as a [`Dag`] with its
    /// topological order and ranks.
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
    ///
    /// The condensed out-lists are written during Tarjan's DFS. When a
    /// component pops, its members and every vertex they reach already
    /// hold their component ids, and components pop in id order, so
    /// the component's sorted, deduplicated out-list is appended to the
    /// CSR as it stands. The in-lists are left to the first
    /// [`DiGraph::in_neighbors`] call.
    pub fn new_timed(g: &DiGraph) -> (Self, CondenseTiming) {
        let start = Instant::now();
        let mut offsets = Vec::with_capacity(g.num_vertices() + 1);
        offsets.push(0u32);
        let mut targets: Vec<VertexId> = Vec::with_capacity(g.num_edges());
        let scc = tarjan_with(g, |c| {
            let lo = targets.len();
            for u in c.members() {
                for &w in g.out_neighbors(u) {
                    let cw = c.component_of(w);
                    if cw != c.id() {
                        targets.push(VertexId(cw));
                    }
                }
            }
            targets[lo..].sort_unstable();
            let mut write = lo;
            for i in lo..targets.len() {
                if i == lo || targets[i] != targets[i - 1] {
                    targets[write] = targets[i];
                    write += 1;
                }
            }
            targets.truncate(write);
            offsets.push(write as u32);
        });
        offsets.shrink_to_fit();
        targets.shrink_to_fit();
        let scc_time = start.elapsed();
        let assemble_start = Instant::now();
        let dag = Dag::from_reverse_topological_ids(DiGraph::from_out_lists(offsets, targets));
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
