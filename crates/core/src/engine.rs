//! Guided traversal: the machinery that turns a partial index into an
//! exact oracle.
//!
//! §5 of the survey: *"Let v be a current frontier vertex during the
//! online traversal from s. In a partial index without false
//! positives, if the index lookup for evaluating the reachability from
//! v to t returns true, the online traversal can immediately
//! terminate. In the case of a partial index without false negatives,
//! the online traversal does not need to visit the outgoing neighbours
//! of v if the index lookup … returns false."* [`GuidedSearch`] is
//! precisely that loop.

use crate::audit::{self, Violation};
use crate::index::{Certainty, IndexMeta, ReachFilter, ReachIndex};
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{DiGraph, ScratchPool, VertexId};
use std::sync::Arc;

/// Work counters for one guided query, used by the `claims` harness to
/// show how much traversal the filter prunes away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertices whose out-neighbors were expanded.
    pub expanded: usize,
    /// Index lookups performed.
    pub lookups: usize,
}

/// An exact reachability oracle built from a graph plus a pruning
/// filter (a partial index in the survey's terminology).
///
/// `Send + Sync` (for `F: Send + Sync`, which [`ReachFilter`]
/// requires): per-query scratch is checked out of a lock-free
/// [`ScratchPool`], so one `Arc<GuidedSearch<_>>` serves any number of
/// request threads and `query(&self, ..)` still allocates nothing in
/// the steady state.
pub struct GuidedSearch<F> {
    graph: Arc<DiGraph>,
    filter: F,
    meta: IndexMeta,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    visit: VisitMap,
    stack: Vec<VertexId>,
}

impl<F: ReachFilter> GuidedSearch<F> {
    /// Wraps `filter` over `graph`; `meta` describes the resulting
    /// technique (the filter's own name and classification).
    pub fn new(graph: Arc<DiGraph>, filter: F, meta: IndexMeta) -> Self {
        GuidedSearch {
            graph,
            filter,
            meta,
            scratch: ScratchPool::new(),
        }
    }

    fn fresh_scratch(&self) -> Scratch {
        Scratch {
            visit: VisitMap::new(self.graph.num_vertices()),
            stack: Vec::new(),
        }
    }

    /// The underlying filter, for direct lookup experiments.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// The graph the search runs on.
    pub fn graph(&self) -> &Arc<DiGraph> {
        &self.graph
    }

    /// [`ReachIndex::query`] with work counters.
    pub fn query_counted(&self, s: VertexId, t: VertexId) -> (bool, SearchStats) {
        let mut stats = SearchStats::default();
        if s == t {
            return (true, stats);
        }
        stats.lookups += 1;
        match self.filter.certain(s, t) {
            Certainty::Reachable => return (true, stats),
            Certainty::Unreachable => return (false, stats),
            Certainty::Unknown => {}
        }
        let scratch = &mut *self.scratch.checkout(|| self.fresh_scratch());
        scratch.visit.reset();
        scratch.stack.clear();
        scratch.stack.push(s);
        scratch.visit.mark(s, Side::Forward);
        while let Some(u) = scratch.stack.pop() {
            stats.expanded += 1;
            for &v in self.graph.out_neighbors(u) {
                if v == t {
                    return (true, stats);
                }
                if !scratch.visit.mark(v, Side::Forward) {
                    continue;
                }
                stats.lookups += 1;
                match self.filter.certain(v, t) {
                    Certainty::Reachable => return (true, stats),
                    // no-false-negative verdict: v's subtree cannot
                    // contain t, skip it entirely
                    Certainty::Unreachable => {}
                    Certainty::Unknown => scratch.stack.push(v),
                }
            }
        }
        (false, stats)
    }
}

impl<F: ReachFilter> ReachIndex for GuidedSearch<F> {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        self.query_counted(s, t).0
    }

    fn meta(&self) -> IndexMeta {
        self.meta
    }

    fn size_bytes(&self) -> usize {
        self.filter.size_bytes()
    }

    fn size_entries(&self) -> usize {
        self.filter.size_entries()
    }

    /// Probes the filter's definite verdicts against a BFS ground
    /// truth from sampled sources. The guided DFS trusts *every*
    /// `Reachable`/`Unreachable` verdict unconditionally, so a single
    /// wrong definite answer corrupts the lifted oracle — this is the
    /// no-false-negative check for BFL/IP/GRAIL and the
    /// no-false-positive check for Ferrari's exact intervals, at the
    /// verdict level. The filter's own structural hook runs first.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let name = self.meta.name;
        let mut out = self.filter.check_invariants(graph);
        let n = graph.num_vertices();
        if n != self.graph.num_vertices() {
            out.push(Violation {
                index: name,
                rule: "graph-mismatch",
                detail: format!(
                    "search graph has {} vertices, audited graph has {n}",
                    self.graph.num_vertices()
                ),
            });
            return out;
        }
        let mut visit = VisitMap::new(n);
        let mut buf = Vec::new();
        let mut wrong = 0usize;
        for s in audit::sample_vertices(n, 96) {
            let row = audit::closure_row(graph, s, &mut visit, &mut buf);
            for t in graph.vertices() {
                let verdict = self.filter.certain(s, t);
                let bad_rule = match verdict {
                    Certainty::Reachable if !row[t.index()] => "filter-false-positive",
                    Certainty::Unreachable if row[t.index()] => "filter-false-negative",
                    _ => continue,
                };
                wrong += 1;
                if wrong <= 5 {
                    out.push(Violation {
                        index: name,
                        rule: bad_rule,
                        detail: format!(
                            "filter verdict {verdict:?} for {s:?}->{t:?} contradicts traversal"
                        ),
                    });
                }
            }
        }
        if wrong > 5 {
            out.push(Violation {
                index: name,
                rule: "filter-verdicts",
                detail: format!("... and {} more wrong definite verdicts", wrong - 5),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Completeness, Dynamism, FilterGuarantees, Framework, InputClass};

    /// A filter that knows nothing: guided search degenerates to DFS.
    struct Oblivious;
    impl ReachFilter for Oblivious {
        fn certain(&self, _: VertexId, _: VertexId) -> Certainty {
            Certainty::Unknown
        }
        fn guarantees(&self) -> FilterGuarantees {
            FilterGuarantees {
                definite_positive: false,
                definite_negative: false,
            }
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn size_entries(&self) -> usize {
            0
        }
    }

    /// A filter that answers `Unreachable` for one poisoned target
    /// subtree root, to check pruning is actually applied.
    struct BlockVertex(VertexId);
    impl ReachFilter for BlockVertex {
        fn certain(&self, s: VertexId, _: VertexId) -> Certainty {
            if s == self.0 {
                Certainty::Unreachable
            } else {
                Certainty::Unknown
            }
        }
        fn guarantees(&self) -> FilterGuarantees {
            FilterGuarantees {
                definite_positive: false,
                definite_negative: true,
            }
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn size_entries(&self) -> usize {
            0
        }
    }

    fn meta() -> IndexMeta {
        IndexMeta {
            name: "test",
            citation: "[-]",
            framework: Framework::Other,
            completeness: Completeness::Partial,
            input: InputClass::General,
            dynamism: Dynamism::Static,
        }
    }

    fn graph() -> Arc<DiGraph> {
        // 0 -> 1 -> 2 -> 3, and 1 -> 4 (dead end)
        Arc::new(DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)]))
    }

    #[test]
    fn oblivious_filter_is_plain_dfs() {
        let gs = GuidedSearch::new(graph(), Oblivious, meta());
        assert!(gs.query(VertexId(0), VertexId(3)));
        assert!(!gs.query(VertexId(3), VertexId(0)));
        assert!(gs.query(VertexId(2), VertexId(2)));
    }

    #[test]
    fn unreachable_verdict_prunes_subtree() {
        // Block vertex 1: the only route 0 -> 3 goes through it, so a
        // (deliberately wrong) filter makes the search miss it —
        // proving the subtree really was skipped.
        let gs = GuidedSearch::new(graph(), BlockVertex(VertexId(1)), meta());
        assert!(!gs.query(VertexId(0), VertexId(3)));
        // edge directly to target is still found before the lookup
        assert!(gs.query(VertexId(0), VertexId(1)));
    }

    #[test]
    fn stats_count_lookups_and_expansions() {
        let gs = GuidedSearch::new(graph(), Oblivious, meta());
        let (ok, stats) = gs.query_counted(VertexId(0), VertexId(4));
        assert!(ok);
        assert!(stats.lookups >= 1);
        let (ok, stats) = gs.query_counted(VertexId(4), VertexId(0));
        assert!(!ok);
        assert_eq!(stats.expanded, 1, "vertex 4 has no out-neighbors");
    }

    #[test]
    fn scratch_is_reused_across_queries() {
        let gs = GuidedSearch::new(graph(), Oblivious, meta());
        for _ in 0..100 {
            assert!(gs.query(VertexId(0), VertexId(3)));
            assert!(!gs.query(VertexId(4), VertexId(2)));
        }
    }

    #[test]
    fn guided_search_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GuidedSearch<Oblivious>>();
        assert_send_sync::<GuidedSearch<BlockVertex>>();
    }

    #[test]
    fn one_index_serves_many_threads() {
        let gs = std::sync::Arc::new(GuidedSearch::new(graph(), Oblivious, meta()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let gs = std::sync::Arc::clone(&gs);
                scope.spawn(move || {
                    for _ in 0..200 {
                        assert!(gs.query(VertexId(0), VertexId(3)));
                        assert!(!gs.query(VertexId(4), VertexId(2)));
                    }
                });
            }
        });
    }
}
