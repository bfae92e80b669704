//! Shared build artifacts: compute condensation and stats at most once
//! per input graph.
//!
//! §5 of the survey compares the whole taxonomy on construction cost,
//! yet a naive sweep over all ~24 plain techniques re-runs SCC
//! condensation and re-derives the topological order once *per index*.
//! [`PreparedGraph`] is the shared substrate: an `Arc`-shared bundle
//! that memoizes each artifact on first use, so a full-registry sweep
//! condenses exactly once. The memoization is observable —
//! [`condensation_runs`](PreparedGraph::condensation_runs) counts how
//! many times the condensation was actually computed, which the test
//! suite pins to 1.

use crate::condense::{Condensation, CondenseTiming};
use crate::digraph::{Dag, DiGraph};
use crate::stats::{graph_stats_with_scc, GraphStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Lazily memoized build artifacts for one input graph.
///
/// Every builder in the registry receives the same `Arc<PreparedGraph>`
/// and pulls whichever artifacts it needs:
///
/// * [`condensation`](Self::condensation) — SCC decomposition,
///   vertex → component map, and the condensed [`Dag`] with topo
///   order/ranks (the §3.1 general-graph reduction);
/// * [`stats`](Self::stats) — the degree/SCC/depth summary printed by
///   the bench harness.
///
/// Each artifact is computed at most once, on first request, and then
/// shared by reference; the input graph itself is behind an `Arc` so
/// builders can retain it without deep-copying CSR arrays.
///
/// ```
/// use reach_graph::{DiGraph, PreparedGraph};
/// use std::sync::Arc;
///
/// let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
/// let prepared = PreparedGraph::new(g);
/// assert_eq!(prepared.condensation_runs(), 0);
/// let a = prepared.condensation();
/// let b = prepared.condensation();
/// assert!(Arc::ptr_eq(a, b));
/// assert_eq!(prepared.condensation_runs(), 1);
/// ```
#[derive(Debug)]
pub struct PreparedGraph {
    graph: Arc<DiGraph>,
    condensation: OnceLock<(Arc<Condensation>, CondenseTiming)>,
    stats: OnceLock<GraphStats>,
    condensation_runs: AtomicUsize,
}

impl PreparedGraph {
    /// Prepares an owned graph.
    pub fn new(graph: DiGraph) -> Arc<Self> {
        Self::new_shared(Arc::new(graph))
    }

    /// Prepares an already-shared graph without copying it.
    pub fn new_shared(graph: Arc<DiGraph>) -> Arc<Self> {
        Arc::new(PreparedGraph {
            graph,
            condensation: OnceLock::new(),
            stats: OnceLock::new(),
            condensation_runs: AtomicUsize::new(0),
        })
    }

    /// The input graph.
    #[inline]
    pub fn graph(&self) -> &Arc<DiGraph> {
        &self.graph
    }

    /// Number of vertices of the input graph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges of the input graph.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn condensation_cell(&self) -> &(Arc<Condensation>, CondenseTiming) {
        self.condensation.get_or_init(|| {
            self.condensation_runs.fetch_add(1, Ordering::Relaxed);
            let (cond, timing) = Condensation::new_timed(&self.graph);
            (Arc::new(cond), timing)
        })
    }

    /// The SCC condensation (memoized; computed on first call).
    pub fn condensation(&self) -> &Arc<Condensation> {
        &self.condensation_cell().0
    }

    /// The condensed DAG with its topological order and ranks.
    pub fn dag(&self) -> &Dag {
        self.condensation().dag()
    }

    /// Wall-clock breakdown of the (single) condensation, forcing it
    /// if it has not run yet.
    pub fn condense_timing(&self) -> CondenseTiming {
        self.condensation_cell().1
    }

    /// How many times the condensation has actually been computed for
    /// this graph — 0 before first use, and never more than 1.
    pub fn condensation_runs(&self) -> usize {
        self.condensation_runs.load(Ordering::Relaxed)
    }

    /// Structural statistics of the input graph (memoized; reuses the
    /// condensation's SCC decomposition instead of re-running Tarjan).
    pub fn stats(&self) -> &GraphStats {
        self.stats
            .get_or_init(|| graph_stats_with_scc(&self.graph, self.condensation().scc()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure_eight() -> DiGraph {
        DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    }

    #[test]
    fn condensation_is_computed_exactly_once() {
        let prepared = PreparedGraph::new(figure_eight());
        assert_eq!(prepared.condensation_runs(), 0);
        for _ in 0..5 {
            let _ = prepared.condensation();
            let _ = prepared.dag();
            let _ = prepared.stats();
        }
        assert_eq!(prepared.condensation_runs(), 1);
    }

    #[test]
    fn artifacts_are_pointer_shared() {
        let prepared = PreparedGraph::new(figure_eight());
        assert!(Arc::ptr_eq(
            prepared.condensation(),
            prepared.condensation()
        ));
    }

    #[test]
    fn dag_matches_direct_condensation() {
        let g = figure_eight();
        let direct = Condensation::new(&g);
        let prepared = PreparedGraph::new(g);
        assert_eq!(prepared.dag().num_vertices(), direct.dag().num_vertices());
        assert_eq!(prepared.dag().num_edges(), direct.dag().num_edges());
        for v in prepared.graph().vertices() {
            assert_eq!(
                prepared.condensation().component_of(v),
                direct.component_of(v)
            );
        }
    }

    #[test]
    fn stats_agree_with_graph() {
        let prepared = PreparedGraph::new(figure_eight());
        assert_eq!(prepared.stats().num_vertices, 6);
        assert_eq!(prepared.stats().num_sccs, 2);
    }
}
