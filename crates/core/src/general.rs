//! The DAG-only → general-graph adapter of §3.1.
//!
//! *"General graphs with directed cycles can be transformed to a DAG
//! … all the strongly connected components are identified, and each
//! SCC is coarsened into a representative vertex. … `Qr(s,t)` can be
//! processed by first checking whether s and t belong to the same SCC,
//! followed by checking the reachability in the DAG."*

use crate::audit::{self, Violation};
use crate::index::{IndexMeta, InputClass, ReachIndex};
use reach_graph::{Condensation, Dag, DiGraph, PreparedGraph, VertexId};
use std::sync::Arc;

/// Lifts a DAG-only index to general graphs via Tarjan condensation.
///
/// Queries on original vertices are answered as
/// `same_scc(s, t) || inner.query(comp(s), comp(t))`. Component ids
/// are reverse topological, so a pair with `comp(s) < comp(t)` is
/// answered false before the inner index is asked.
///
/// The condensation is held behind an `Arc` so many adapted indexes
/// built over the same [`PreparedGraph`] share one artifact instead of
/// each re-running Tarjan (see
/// [`from_prepared`](Self::from_prepared)).
pub struct Condensed<I> {
    cond: Arc<Condensation>,
    inner: I,
}

impl<I: ReachIndex> Condensed<I> {
    /// Builds the inner index on a [`PreparedGraph`]'s memoized
    /// condensation DAG — no per-index Tarjan run.
    pub fn from_prepared(prepared: &PreparedGraph, build: impl FnOnce(&Dag) -> I) -> Self {
        let cond = Arc::clone(prepared.condensation());
        let inner = build(cond.dag());
        Condensed { cond, inner }
    }

    /// The inner DAG index.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// The condensation this adapter queries through.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// The shared handle to that condensation, for `Arc::ptr_eq`
    /// checks that two adapters really use one artifact.
    pub fn shared_condensation(&self) -> Arc<Condensation> {
        Arc::clone(&self.cond)
    }

    /// Answers a pair of components.
    #[inline]
    fn query_components(&self, cs: VertexId, ct: VertexId) -> bool {
        // an edge between components runs from a larger id to a smaller
        cs == ct || (cs > ct && self.inner.query(cs, ct))
    }
}

impl<I: ReachIndex> ReachIndex for Condensed<I> {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        self.query_components(self.cond.component_of(s), self.cond.component_of(t))
    }

    /// Maps every pair to its components before answering any: the
    /// component-map loads of the whole batch overlap, instead of each
    /// waiting for the previous pair's search to finish.
    fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        let components: Vec<(VertexId, VertexId)> = pairs
            .iter()
            .map(|&(s, t)| (self.cond.component_of(s), self.cond.component_of(t)))
            .collect();
        components
            .into_iter()
            .map(|(cs, ct)| self.query_components(cs, ct))
            .collect()
    }

    fn meta(&self) -> IndexMeta {
        // the composition handles general input; everything else is inherited
        IndexMeta {
            input: InputClass::General,
            ..self.inner.meta()
        }
    }

    fn size_bytes(&self) -> usize {
        // component map + inner index
        4 * self.cond.scc().components().len() + self.inner.size_bytes()
    }

    fn size_entries(&self) -> usize {
        self.inner.size_entries()
    }

    /// Condensation consistency — the §3.1 transform must preserve
    /// reachability structure: `same_component` must agree with the
    /// component map, and every original edge must either stay inside
    /// one SCC or appear as an edge of the condensation DAG.  The
    /// inner index is then validated against that DAG.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let name = self.meta().name;
        let covered = self.cond.scc().components().len();
        if let Some(v) = audit::graph_mismatch(name, "component map", covered, graph) {
            return vec![v];
        }
        let mut out = Vec::new();
        let dag = self.cond.dag();
        for u in graph.vertices() {
            let cu = self.cond.component_of(u);
            if cu.index() >= dag.num_vertices() {
                out.push(Violation {
                    index: name,
                    rule: "condensation-component",
                    detail: format!("{u:?} maps to out-of-range component {cu:?}"),
                });
                continue;
            }
            for &v in graph.out_neighbors(u) {
                let cv = self.cond.component_of(v);
                if self.cond.same_component(u, v) != (cu == cv) {
                    out.push(Violation {
                        index: name,
                        rule: "condensation-component",
                        detail: format!(
                            "same_component({u:?}, {v:?}) disagrees with the component map"
                        ),
                    });
                }
                if cu != cv && !dag.graph().out_neighbors(cu).contains(&cv) {
                    out.push(Violation {
                        index: name,
                        rule: "condensation-edge",
                        detail: format!(
                            "edge {u:?}->{v:?} crosses SCCs {cu:?}->{cv:?} but the \
                             condensation DAG has no such edge"
                        ),
                    });
                }
            }
        }
        out.extend(self.inner.check_invariants(dag.graph()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;

    #[test]
    fn condensed_tc_handles_cycles() {
        // {0,1,2} cycle -> 3 -> {4,5} cycle, 6 isolated
        let g = DiGraph::from_edges(7, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 4)]);
        let idx = Condensed::from_prepared(&PreparedGraph::new(g), TransitiveClosure::build_dag);
        assert!(idx.query(VertexId(0), VertexId(5)));
        assert!(idx.query(VertexId(1), VertexId(0)), "same SCC");
        assert!(idx.query(VertexId(4), VertexId(5)));
        assert!(!idx.query(VertexId(3), VertexId(0)));
        assert!(!idx.query(VertexId(6), VertexId(0)));
        assert!(idx.query(VertexId(6), VertexId(6)));
    }

    #[test]
    fn meta_reports_general_input() {
        let g = DiGraph::from_edges(2, &[(0, 1)]);
        let idx = Condensed::from_prepared(&PreparedGraph::new(g), TransitiveClosure::build_dag);
        assert_eq!(idx.meta().input, InputClass::General);
    }

    #[test]
    fn agrees_with_bfs_on_random_cyclic_graphs() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use reach_graph::generators::random_digraph;
        use reach_graph::traverse::{bfs_reaches, VisitMap};

        let mut rng = SmallRng::seed_from_u64(3);
        for trial in 0..5 {
            let g = random_digraph(60, 150, &mut rng);
            let idx = Condensed::from_prepared(
                &PreparedGraph::new(g.clone()),
                TransitiveClosure::build_dag,
            );
            let mut vm = VisitMap::new(g.num_vertices());
            for s in g.vertices() {
                for t in g.vertices() {
                    assert_eq!(
                        idx.query(s, t),
                        bfs_reaches(&g, s, t, &mut vm),
                        "trial {trial}: mismatch at {s:?}->{t:?}"
                    );
                }
            }
        }
    }
}
