//! A warm-index façade for long-lived query services.
//!
//! The paper's §5 observation — index construction dwarfs query time —
//! only pays off when the index is built *once* and then serves many
//! queries. [`IndexService`] bundles everything a serving layer needs
//! to do that: the prepared graph, the built index, the
//! [`BuildReport`] describing what construction cost, and a
//! [`QueryEngine`] for sharded batch evaluation. `reach-server` holds
//! one of these per process; the CLI `serve` command builds it at
//! startup and answers from it until shutdown.

use crate::index::ReachIndex;
use crate::pipeline::{BuildOpts, BuildReport, UnknownIndex, PLAIN_REGISTRY};
use crate::query_engine::QueryEngine;
use reach_graph::{PreparedGraph, VertexId};
use std::fmt;
use std::sync::Arc;

/// A built plain-reachability index plus everything needed to serve
/// queries from it: the graph it was built over, the build report, and
/// a batch engine with a fixed shard count.
pub struct IndexService {
    prepared: Arc<PreparedGraph>,
    index: Box<dyn ReachIndex>,
    report: BuildReport,
    engine: QueryEngine,
}

impl IndexService {
    /// Builds the named registry technique over `prepared` and wraps
    /// it with a [`QueryEngine`] sharding batches over `threads`.
    pub fn build(
        name: &str,
        prepared: Arc<PreparedGraph>,
        opts: &BuildOpts,
        threads: usize,
    ) -> Result<Self, UnknownIndex> {
        let (index, report) = PLAIN_REGISTRY.build(name, &prepared, opts)?;
        Ok(IndexService {
            prepared,
            index,
            report,
            engine: QueryEngine::new(threads),
        })
    }

    /// The registry name of the technique this service answers with.
    pub fn name(&self) -> &'static str {
        self.report.name
    }

    /// Number of vertices in the served graph; queries must use ids in
    /// `0..num_vertices()`.
    pub fn num_vertices(&self) -> usize {
        self.prepared.num_vertices()
    }

    /// Number of edges in the served graph.
    pub fn num_edges(&self) -> usize {
        self.prepared.num_edges()
    }

    /// The prepared graph the index was built over.
    pub fn prepared(&self) -> &Arc<PreparedGraph> {
        &self.prepared
    }

    /// What building the index cost (phases, size).
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// The underlying index, for callers that need the trait object.
    pub fn index(&self) -> &dyn ReachIndex {
        self.index.as_ref()
    }

    /// Shard count the batch engine uses.
    pub fn engine_threads(&self) -> usize {
        self.engine.threads()
    }

    /// Answers one reachability query.
    pub fn query(&self, s: VertexId, t: VertexId) -> bool {
        self.index.query(s, t)
    }

    /// Answers a batch in input order, sharded over the engine's
    /// threads; identical output at every thread count.
    pub fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        self.engine.run(self.index.as_ref(), pairs)
    }
}

impl fmt::Debug for IndexService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexService")
            .field("name", &self.name())
            .field("n", &self.num_vertices())
            .field("m", &self.num_edges())
            .field("engine_threads", &self.engine_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::generators::random_digraph;

    #[test]
    fn service_matches_direct_index_queries() {
        let mut rng = SmallRng::seed_from_u64(77);
        let g = Arc::new(random_digraph(150, 450, &mut rng));
        let prepared = PreparedGraph::new_shared(g);
        let svc = IndexService::build("BFL", prepared, &BuildOpts::default(), 3).unwrap();
        assert_eq!(svc.name(), "BFL");
        assert_eq!(svc.num_vertices(), 150);
        let pairs: Vec<_> = (0..200)
            .map(|_| {
                (
                    VertexId(rng.random_range(0..150)),
                    VertexId(rng.random_range(0..150)),
                )
            })
            .collect();
        let batch = svc.query_batch(&pairs);
        for (i, &(s, t)) in pairs.iter().enumerate() {
            assert_eq!(batch[i], svc.query(s, t));
        }
    }

    #[test]
    fn unknown_name_is_an_error() {
        let prepared = PreparedGraph::new(reach_graph::fixtures::figure1a());
        let e = IndexService::build("NotAnIndex", prepared, &BuildOpts::default(), 1).unwrap_err();
        assert!(e.to_string().contains("NotAnIndex"));
    }
}
