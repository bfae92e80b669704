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
//!
//! On a condensation DAG the loop also uses §3.1's numbering: component
//! ids are reverse topological, so `v` can reach `t` only if `v >= t`.
//! A search built with [`GuidedSearch::on_dag`] skips every neighbour
//! below `t` before marking or looking it up, and expands the child
//! with the smallest id, the one topologically nearest `t`, first.

use crate::audit::{self, Violation};
use crate::index::{Certainty, FilterGuarantees, IndexMeta, ReachFilter, ReachIndex};
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{Dag, DiGraph, ScratchPool, Successors, VertexId};
use std::sync::Arc;

/// Work counters for one guided query, used by the `claims` harness to
/// show how much traversal the filter prunes away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertices whose out-neighbors (or, on the backward side of a
    /// bidirectional search, in-neighbors) were expanded.
    pub expanded: usize,
    /// Index lookups performed.
    pub lookups: usize,
}

/// An exact reachability oracle built from a graph plus a pruning
/// filter (a partial index in the survey's terminology).
///
/// `G` is the adjacency the search walks: the shared CSR graph for the
/// static indexes, or an [`EditGraph`](reach_graph::EditGraph) the
/// dynamic ones edit in place. The traversal is fixed per index at
/// construction: a pruned DFS ([`new`](Self::new)) or a pruned
/// bidirectional BFS ([`bidirectional`](Self::bidirectional)), either
/// of them cut by the id order when built by [`on_dag`](Self::on_dag)
/// over a condensation DAG.
///
/// `Send + Sync` (for `F: Send + Sync`, which [`ReachFilter`]
/// requires): per-query scratch is checked out of a non-blocking
/// [`ScratchPool`], so one `Arc<GuidedSearch<_>>` serves any number of
/// request threads and `query(&self, ..)` still allocates nothing in
/// the steady state.
pub struct GuidedSearch<F, G = Arc<DiGraph>> {
    graph: G,
    filter: F,
    meta: IndexMeta,
    traversal: Traversal,
    /// Whether the graph's ids are reverse topological (`s` reaches `t`
    /// only if `s >= t`) and its neighbour lists sorted, so the search
    /// may skip ids on the wrong side of the query pair.
    ordered: bool,
    scratch: ScratchPool<Scratch>,
}

/// The search an undecided root lookup is followed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// A pruned DFS from the source.
    Dfs,
    /// A pruned BFS from both ends that expands the smaller frontier.
    Bidirectional,
}

struct Scratch {
    visit: VisitMap,
    /// The DFS stack, or the forward frontier of a bidirectional search.
    stack: Vec<VertexId>,
    /// The backward frontier of a bidirectional search.
    backward: Vec<VertexId>,
    /// The frontier a bidirectional level is expanded into.
    next: Vec<VertexId>,
}

/// A filter that never decides. Guided search over it is plain DFS (or
/// plain bidirectional BFS): the index-free baselines of §2.3.
#[derive(Debug, Clone, Copy, Default)]
pub struct Oblivious;

impl ReachFilter for Oblivious {
    #[inline]
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

impl<F: ReachFilter, G: Successors> GuidedSearch<F, G> {
    /// Wraps `filter` over `graph` with a pruned DFS; `meta` describes
    /// the resulting technique (the filter's own name and
    /// classification).
    pub fn new(graph: G, filter: F, meta: IndexMeta) -> Self {
        GuidedSearch {
            graph,
            filter,
            meta,
            traversal: Traversal::Dfs,
            ordered: false,
            scratch: ScratchPool::new(),
        }
    }

    /// Wraps `filter` over `graph` with a pruned bidirectional BFS: the
    /// forward frontier probes `certain(v, t)`, the backward frontier
    /// `certain(s, v)`, and the smaller frontier expands each level.
    pub fn bidirectional(graph: G, filter: F, meta: IndexMeta) -> Self {
        GuidedSearch {
            traversal: Traversal::Bidirectional,
            ..Self::new(graph, filter, meta)
        }
        .with_in_lists()
    }

    /// The backward frontier walks in-lists, which a CSR graph builds on
    /// first use; asking for one builds them now, in the index's build,
    /// so the first query does not pay for the transpose.
    fn with_in_lists(self) -> Self {
        if self.traversal == Traversal::Bidirectional && self.graph.num_vertices() > 0 {
            self.graph.in_neighbors(VertexId(0));
        }
        self
    }

    fn fresh_scratch(&self) -> Scratch {
        Scratch {
            visit: VisitMap::new(self.graph.num_vertices()),
            stack: Vec::new(),
            backward: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The underlying filter, for direct lookup experiments.
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// The graph the search runs on.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// The graph and the filter, for indexes whose updates edit both.
    pub(crate) fn parts_mut(&mut self) -> (&mut G, &mut F) {
        (&mut self.graph, &mut self.filter)
    }

    /// [`ReachIndex::query`] with work counters.
    pub fn query_counted(&self, s: VertexId, t: VertexId) -> (bool, SearchStats) {
        let mut stats = SearchStats::default();
        if s == t {
            return (true, stats);
        }
        if self.ordered && s < t {
            return (false, stats);
        }
        stats.lookups += 1;
        match self.filter.certain(s, t) {
            Certainty::Reachable => return (true, stats),
            Certainty::Unreachable => return (false, stats),
            Certainty::Unknown => {}
        }
        let scratch = &mut *self.scratch.checkout(|| self.fresh_scratch());
        scratch.visit.reset();
        let found = match (self.traversal, self.ordered) {
            (Traversal::Dfs, false) => self.dfs::<false>(s, t, scratch, &mut stats),
            (Traversal::Dfs, true) => self.dfs::<true>(s, t, scratch, &mut stats),
            (Traversal::Bidirectional, false) => {
                self.bidirectional_bfs::<false>(s, t, scratch, &mut stats)
            }
            (Traversal::Bidirectional, true) => {
                self.bidirectional_bfs::<true>(s, t, scratch, &mut stats)
            }
        };
        (found, stats)
    }

    /// The pruned DFS from `s`: stops on a `Reachable` verdict and never
    /// expands a vertex with an `Unreachable` one. `ORDERED` skips the
    /// out-neighbours below `t` and pops the smallest admissible child
    /// first.
    #[inline]
    fn dfs<const ORDERED: bool>(
        &self,
        s: VertexId,
        t: VertexId,
        scratch: &mut Scratch,
        stats: &mut SearchStats,
    ) -> bool {
        let Scratch { visit, stack, .. } = scratch;
        stack.clear();
        stack.push(s);
        visit.mark(s, Side::Forward);
        while let Some(u) = stack.pop() {
            stats.expanded += 1;
            let mut out = self.graph.out_neighbors(u);
            if ORDERED {
                out = &out[out.partition_point(|&v| v < t)..];
            }
            let pushed = stack.len();
            for &v in out {
                if v == t {
                    return true;
                }
                if !visit.mark(v, Side::Forward) {
                    continue;
                }
                stats.lookups += 1;
                match self.filter.certain(v, t) {
                    Certainty::Reachable => return true,
                    // no-false-negative verdict: v's subtree cannot
                    // contain t, skip it entirely
                    Certainty::Unreachable => {}
                    Certainty::Unknown => stack.push(v),
                }
            }
            if ORDERED {
                stack[pushed..].reverse();
            }
        }
        false
    }

    /// The pruned bidirectional BFS: each level expands the smaller of
    /// the forward frontier (from `s`, probing `certain(v, t)`) and the
    /// backward frontier (from `t`, probing `certain(s, v)`), and the
    /// search answers when the two meet. `ORDERED` skips the forward
    /// neighbours below `t` and the backward ones above `s`.
    #[inline]
    fn bidirectional_bfs<const ORDERED: bool>(
        &self,
        s: VertexId,
        t: VertexId,
        scratch: &mut Scratch,
        stats: &mut SearchStats,
    ) -> bool {
        let Scratch {
            visit,
            stack: forward,
            backward,
            next,
        } = scratch;
        visit.mark(s, Side::Forward);
        visit.mark(t, Side::Backward);
        forward.clear();
        forward.push(s);
        backward.clear();
        backward.push(t);
        while !forward.is_empty() && !backward.is_empty() {
            let ahead = forward.len() <= backward.len();
            let (frontier, side, other) = if ahead {
                (&mut *forward, Side::Forward, Side::Backward)
            } else {
                (&mut *backward, Side::Backward, Side::Forward)
            };
            next.clear();
            for &u in frontier.iter() {
                stats.expanded += 1;
                let neighbors = match (ahead, ORDERED) {
                    (true, false) => self.graph.out_neighbors(u),
                    (false, false) => self.graph.in_neighbors(u),
                    (true, true) => {
                        let out = self.graph.out_neighbors(u);
                        &out[out.partition_point(|&v| v < t)..]
                    }
                    (false, true) => {
                        let inn = self.graph.in_neighbors(u);
                        &inn[..inn.partition_point(|&v| v <= s)]
                    }
                };
                for &v in neighbors {
                    if visit.is_marked(v, other) {
                        return true;
                    }
                    if !visit.mark(v, side) {
                        continue;
                    }
                    stats.lookups += 1;
                    let verdict = if ahead {
                        self.filter.certain(v, t)
                    } else {
                        self.filter.certain(s, v)
                    };
                    match verdict {
                        Certainty::Reachable => return true,
                        Certainty::Unreachable => {}
                        Certainty::Unknown => next.push(v),
                    }
                }
            }
            std::mem::swap(frontier, next);
        }
        false
    }
}

impl<F: ReachFilter> GuidedSearch<F> {
    /// Wraps `filter` over `dag`'s shared graph, searched by
    /// `traversal`. If the DAG's ids are reverse topological (a
    /// condensation's are), the search is ordered: it answers `s < t`
    /// with false at the root, never marks or looks up a neighbour on
    /// the wrong side of the pair, and the DFS descends into the
    /// smallest admissible child first. Answers are the same either way.
    pub fn on_dag(dag: &Dag, filter: F, meta: IndexMeta, traversal: Traversal) -> Self {
        GuidedSearch {
            traversal,
            ordered: dag.ids_reverse_topological(),
            ..Self::new(dag.shared_graph(), filter, meta)
        }
        .with_in_lists()
    }
}

impl<F: ReachFilter, G: Successors + Send + Sync> ReachIndex for GuidedSearch<F, G> {
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
        // a filter shared by several indexes (GRAIL's intervals serve
        // DAGGER too) reports under the index being audited
        for v in &mut out {
            v.index = name;
        }
        if let Some(v) =
            audit::graph_mismatch(name, "search graph", self.graph.num_vertices(), graph)
        {
            out.push(v);
            return out;
        }
        let n = graph.num_vertices();
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
    use crate::index::{Completeness, Dynamism, Framework, InputClass};
    use reach_graph::traverse::bfs_reaches;

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

    /// A filter that answers `Unreachable` whenever the target is one
    /// poisoned vertex: only a backward probe `certain(s, v)` sees it.
    struct BlockTarget(VertexId);
    impl ReachFilter for BlockTarget {
        fn certain(&self, _: VertexId, t: VertexId) -> Certainty {
            if t == self.0 {
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

    /// Both traversals over `Oblivious` against the BFS oracle, every
    /// pair of `g`.
    fn assert_oblivious_modes_match_bfs(g: DiGraph) {
        let g = Arc::new(g);
        let dfs = GuidedSearch::new(Arc::clone(&g), Oblivious, meta());
        let bibfs = GuidedSearch::bidirectional(Arc::clone(&g), Oblivious, meta());
        let mut vm = VisitMap::new(g.num_vertices());
        for s in g.vertices() {
            for t in g.vertices() {
                let expect = bfs_reaches(&g, s, t, &mut vm);
                assert_eq!(dfs.query(s, t), expect, "DFS at {s:?}->{t:?}");
                assert_eq!(bibfs.query(s, t), expect, "BiBFS at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn oblivious_filter_is_plain_dfs_and_bibfs() {
        let gs = GuidedSearch::new(graph(), Oblivious, meta());
        assert!(gs.query(VertexId(0), VertexId(3)));
        assert!(!gs.query(VertexId(3), VertexId(0)));
        assert!(gs.query(VertexId(2), VertexId(2)));
        // chain, dead-end branch and an isolated vertex
        assert_oblivious_modes_match_bfs(DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (1, 4)]));
    }

    #[test]
    fn oblivious_modes_handle_cycles() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let bibfs = GuidedSearch::bidirectional(Arc::new(g.clone()), Oblivious, meta());
        assert!(bibfs.query(VertexId(1), VertexId(0)));
        assert!(bibfs.query(VertexId(0), VertexId(3)));
        assert!(!bibfs.query(VertexId(3), VertexId(0)));
        assert_oblivious_modes_match_bfs(g);
    }

    #[test]
    fn bidirectional_mode_probes_the_filter_on_both_sides() {
        // forward side: certain(v, t) for each new out-neighbour
        let chain = Arc::new(DiGraph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        ));
        let gs = GuidedSearch::bidirectional(chain, BlockVertex(VertexId(1)), meta());
        assert!(!gs.query(VertexId(0), VertexId(5)));
        // backward side: once the forward frontier {1, 2} outgrows the
        // backward one {5}, 5's in-neighbour 4 is probed as certain(0, 4)
        let diamond = Arc::new(DiGraph::from_edges(
            6,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
        ));
        let open = GuidedSearch::bidirectional(Arc::clone(&diamond), Oblivious, meta());
        assert!(open.query(VertexId(0), VertexId(5)));
        let gs = GuidedSearch::bidirectional(diamond, BlockTarget(VertexId(4)), meta());
        let (found, stats) = gs.query_counted(VertexId(0), VertexId(5));
        assert!(!found, "the backward probe pruned vertex 4");
        assert_eq!(stats.expanded, 2, "vertex 0 forward, vertex 5 backward");
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
