//! A warm-index façade for serving label-constrained queries.
//!
//! The labeled twin of `reach-core::IndexService`: bundles the labeled
//! graph, a built alternation (LCR) index, and the [`BuildReport`] of
//! its construction, so a serving layer can answer
//! `Qr(s, t, (l1 ∪ …)*)` queries without ever rebuilding.

use crate::lcr::LcrIndex;
use crate::pipeline::LCR_REGISTRY;
use reach_core::pipeline::{BuildOpts, BuildReport, UnknownIndex};
use reach_graph::{LabelSet, LabeledGraph, VertexId};
use std::fmt;
use std::sync::Arc;

/// A built LCR index plus the graph it serves and its build report.
pub struct LcrService {
    graph: Arc<LabeledGraph>,
    index: Box<dyn LcrIndex>,
    report: BuildReport,
}

impl LcrService {
    /// Builds the named registry technique over `graph`.
    pub fn build(
        name: &str,
        graph: Arc<LabeledGraph>,
        opts: &BuildOpts,
    ) -> Result<Self, UnknownIndex> {
        let (index, report) = LCR_REGISTRY.build(name, &graph, opts)?;
        Ok(LcrService {
            graph,
            index,
            report,
        })
    }

    /// The registry name of the technique this service answers with.
    pub fn name(&self) -> &'static str {
        self.report.name
    }

    /// Number of vertices in the served graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Size of the served graph's label alphabet.
    pub fn num_labels(&self) -> usize {
        self.graph.num_labels()
    }

    /// The labeled graph the index was built over.
    pub fn graph(&self) -> &Arc<LabeledGraph> {
        &self.graph
    }

    /// What building the index cost (phases, size).
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// Answers one label-constrained query.
    pub fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        self.index.query(s, t, allowed)
    }
}

impl fmt::Debug for LcrService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LcrService")
            .field("name", &self.name())
            .field("n", &self.num_vertices())
            .field("labels", &self.num_labels())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_graph::fixtures;

    #[test]
    fn service_answers_like_the_direct_index() {
        let g = Arc::new(fixtures::figure1b());
        let svc = LcrService::build("Landmark index", g, &BuildOpts::default()).unwrap();
        assert_eq!(svc.name(), "Landmark index");
        assert_eq!(svc.num_labels(), 3);
        assert_eq!(svc.report().size_entries, svc.index.size_entries());
        let no_works_for = LabelSet::from_labels([fixtures::FRIEND_OF, fixtures::FOLLOWS]);
        assert!(!svc.query(fixtures::A, fixtures::G, no_works_for));
        assert!(svc.query(fixtures::A, fixtures::G, LabelSet::full(3)));
    }

    #[test]
    fn unknown_name_is_an_error() {
        let g = Arc::new(fixtures::figure1b());
        let e = LcrService::build("NotAnIndex", g, &BuildOpts::default()).unwrap_err();
        assert_eq!(e.to_string(), "unknown LCR index \"NotAnIndex\"");
    }
}
