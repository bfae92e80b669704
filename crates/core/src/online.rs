//! Index-free online traversal, packaged as [`ReachIndex`] baselines
//! (§2.3: BFS, DFS, BiBFS).
//!
//! These are the comparators every index must beat; the `claims`
//! harness uses them to reproduce the survey's "an order of magnitude
//! faster than using only graph traversal" observation.

use crate::engine::{GuidedSearch, Oblivious};
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use reach_graph::traverse::{self, VisitMap};
use reach_graph::{DiGraph, ScratchPool, VertexId};
use std::sync::Arc;

/// Which traversal strategy an [`OnlineSearch`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Breadth-first search from the source.
    Bfs,
    /// Depth-first search from the source.
    Dfs,
    /// Bidirectional BFS from both endpoints.
    BiBfs,
}

/// An online-traversal "index": no precomputation, every query is a
/// fresh traversal.
pub struct OnlineSearch {
    strategy: Strategy,
    /// DFS and BiBFS are the guided-search loops over a filter that
    /// never decides.
    search: GuidedSearch<Oblivious>,
    /// BFS scratch: BFS is the oracle traversal, not an engine mode.
    visit: ScratchPool<VisitMap>,
}

impl OnlineSearch {
    /// Wraps `graph` with the chosen traversal strategy.
    pub fn new(graph: Arc<DiGraph>, strategy: Strategy) -> Self {
        let search = match strategy {
            Strategy::Bfs => GuidedSearch::new(graph, Oblivious, BFS_META),
            Strategy::Dfs => GuidedSearch::new(graph, Oblivious, DFS_META),
            Strategy::BiBfs => GuidedSearch::bidirectional(graph, Oblivious, BIBFS_META),
        };
        OnlineSearch {
            strategy,
            search,
            visit: ScratchPool::new(),
        }
    }

    /// The traversal strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

pub(crate) const BFS_META: IndexMeta = IndexMeta {
    name: "online-BFS",
    citation: "[50]",
    framework: Framework::Other,
    completeness: Completeness::Partial,
    input: InputClass::General,
    dynamism: Dynamism::InsertDelete,
};

pub(crate) const DFS_META: IndexMeta = IndexMeta {
    name: "online-DFS",
    ..BFS_META
};

pub(crate) const BIBFS_META: IndexMeta = IndexMeta {
    name: "online-BiBFS",
    ..BFS_META
};

impl ReachIndex for OnlineSearch {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        if self.strategy != Strategy::Bfs {
            return self.search.query(s, t);
        }
        let graph = self.search.graph();
        let visit = &mut *self.visit.checkout(|| VisitMap::new(graph.num_vertices()));
        traverse::bfs_reaches(graph, s, t, visit)
    }

    /// Batch evaluation via multi-source bit-parallel BFS: distinct
    /// sources are packed 64 per machine word and one traversal serves
    /// them all. The strategy only affects per-pair evaluation order,
    /// never the verdicts, so all three share the kernel.
    fn query_batch(&self, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
        traverse::batch_reaches(self.search.graph(), pairs)
    }

    fn meta(&self) -> IndexMeta {
        self.search.meta()
    }

    fn size_bytes(&self) -> usize {
        0
    }

    fn size_entries(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> Arc<DiGraph> {
        Arc::new(DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3)]))
    }

    #[test]
    fn all_strategies_agree() {
        let g = graph();
        let idxs = [
            OnlineSearch::new(g.clone(), Strategy::Bfs),
            OnlineSearch::new(g.clone(), Strategy::Dfs),
            OnlineSearch::new(g.clone(), Strategy::BiBfs),
        ];
        for s in g.vertices() {
            for t in g.vertices() {
                let answers: Vec<bool> = idxs.iter().map(|i| i.query(s, t)).collect();
                assert!(answers.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    #[test]
    fn zero_index_footprint() {
        let idx = OnlineSearch::new(graph(), Strategy::Bfs);
        assert_eq!(idx.size_bytes(), 0);
        assert_eq!(idx.size_entries(), 0);
    }

    #[test]
    fn metas_are_distinct() {
        let g = graph();
        let a = OnlineSearch::new(g.clone(), Strategy::Bfs).meta();
        let b = OnlineSearch::new(g, Strategy::BiBfs).meta();
        assert_ne!(a.name, b.name);
    }
}
