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

impl<F, G: Successors> GuidedSearch<F, G> {
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

    /// [`ReachIndex::query`] with work counters: [`search`](Self::search)
    /// asking the filter, over every edge.
    #[inline]
    pub fn query_counted(&self, s: VertexId, t: VertexId) -> (bool, SearchStats)
    where
        F: ReachFilter,
    {
        self.search(s, t, |v, w| self.filter.certain(v, w), |_, _, _| true)
    }

    /// The guided search for one query, asking `verdict(v, w)` where the
    /// filter's `certain(v, w)` would be asked, and following the `i`-th
    /// edge of `u`'s out-list (`forward`) or in-list only if `admit(u,
    /// forward, i)`: the landmark LCR index tests that edge's label.
    pub fn search(
        &self,
        s: VertexId,
        t: VertexId,
        verdict: impl Fn(VertexId, VertexId) -> Certainty,
        admit: impl Fn(VertexId, bool, usize) -> bool,
    ) -> (bool, SearchStats) {
        let mut stats = SearchStats::default();
        if s == t {
            return (true, stats);
        }
        if self.ordered && s < t {
            return (false, stats);
        }
        stats.lookups += 1;
        match verdict(s, t) {
            Certainty::Reachable => return (true, stats),
            Certainty::Unreachable => return (false, stats),
            Certainty::Unknown => {}
        }
        let scratch = &mut *self.scratch.checkout(|| self.fresh_scratch());
        scratch.visit.reset();
        let (v, a, st) = (&verdict, &admit, &mut stats);
        let found = match (self.traversal, self.ordered) {
            (Traversal::Dfs, false) => self.dfs::<false>(s, t, v, a, scratch, st),
            (Traversal::Dfs, true) => self.dfs::<true>(s, t, v, a, scratch, st),
            (Traversal::Bidirectional, false) => {
                self.bidirectional_bfs::<false>(s, t, v, a, scratch, st)
            }
            (Traversal::Bidirectional, true) => {
                self.bidirectional_bfs::<true>(s, t, v, a, scratch, st)
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
        verdict: &impl Fn(VertexId, VertexId) -> Certainty,
        admit: &impl Fn(VertexId, bool, usize) -> bool,
        scratch: &mut Scratch,
        stats: &mut SearchStats,
    ) -> bool {
        let Scratch { visit, stack, .. } = scratch;
        stack.clear();
        stack.push(s);
        visit.mark(s, Side::Forward);
        while let Some(u) = stack.pop() {
            stats.expanded += 1;
            let out = self.graph.out_neighbors(u);
            let lo = if ORDERED {
                out.partition_point(|&v| v < t)
            } else {
                0
            };
            let pushed = stack.len();
            for (i, &v) in out[lo..].iter().enumerate() {
                if !admit(u, true, lo + i) {
                    continue;
                }
                if v == t {
                    return true;
                }
                if !visit.mark(v, Side::Forward) {
                    continue;
                }
                stats.lookups += 1;
                match verdict(v, t) {
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
        verdict: &impl Fn(VertexId, VertexId) -> Certainty,
        admit: &impl Fn(VertexId, bool, usize) -> bool,
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
                let (neighbors, lo) = match (ahead, ORDERED) {
                    (_, false) => (self.graph.neighbors(u, ahead), 0),
                    (true, true) => {
                        let out = self.graph.out_neighbors(u);
                        (out, out.partition_point(|&v| v < t))
                    }
                    (false, true) => {
                        let inn = self.graph.in_neighbors(u);
                        (&inn[..inn.partition_point(|&v| v <= s)], 0)
                    }
                };
                for (i, &v) in neighbors[lo..].iter().enumerate() {
                    if !admit(u, ahead, lo + i) {
                        continue;
                    }
                    if visit.is_marked(v, other) {
                        return true;
                    }
                    if !visit.mark(v, side) {
                        continue;
                    }
                    stats.lookups += 1;
                    let certainty = if ahead { verdict(v, t) } else { verdict(s, v) };
                    match certainty {
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

impl<F> GuidedSearch<F> {
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
        let mut wrong = audit::CappedRule::new(name, "filter-verdicts");
        let sources = audit::sample_vertices(graph.num_vertices(), 96);
        let verdict = |s, t| self.filter.certain(s, t);
        audit::probe_verdicts(graph, &sources, verdict, "", &mut wrong, &mut out);
        wrong.finish(&mut out, "wrong definite verdicts");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{Completeness, Dynamism, Framework, InputClass};
    use reach_graph::traverse::bfs_reaches;
    use reach_graph::{Label, LabelSet, LabeledGraph};

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

    #[test]
    fn wrong_verdicts_are_capped_under_one_rule() {
        // 0 reaches all ten vertices of a path; the filter denies each
        let edges: Vec<(u32, u32)> = (0..9).map(|v| (v, v + 1)).collect();
        let g = Arc::new(DiGraph::from_edges(10, &edges));
        let idx = GuidedSearch::new(Arc::clone(&g), BlockVertex(VertexId(0)), meta());
        let found = idx.check_invariants(&g);
        let rules: Vec<&str> = found.iter().map(|v| v.rule).collect();
        assert_eq!(rules[..5], ["filter-false-negative"; 5]);
        assert_eq!(rules[5..], ["filter-verdicts"]);
        assert_eq!(found[5].detail, "... and 5 more wrong definite verdicts");
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

    /// Guided search over a labeled graph admitting only `allowed`'s
    /// labels, under a verdict that never decides.
    fn labeled_search(
        gs: &GuidedSearch<Oblivious, Arc<LabeledGraph>>,
        s: u32,
        t: u32,
        allowed: LabelSet,
    ) -> (bool, SearchStats) {
        let g = gs.graph();
        gs.search(
            VertexId(s),
            VertexId(t),
            |_, _| Certainty::Unknown,
            |u, forward, i| allowed.contains(g.lists(u, forward).1[i]),
        )
    }

    #[test]
    fn edge_test_is_applied_on_both_sides() {
        // 0 -a-> {1, 2} -a-> 3 -b-> 4: reaching 4 needs label b
        let g = Arc::new(LabeledGraph::from_edges(
            5,
            2,
            &[(0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 3), (3, 1, 4)],
        ));
        let (a, ab) = (LabelSet::singleton(Label(0)), LabelSet::full(2));
        let dfs = GuidedSearch::new(Arc::clone(&g), Oblivious, meta());
        // forward side: the DFS stops at 3's b-edge
        assert!(!labeled_search(&dfs, 0, 4, a).0);
        assert!(labeled_search(&dfs, 0, 4, ab).0);
        assert!(labeled_search(&dfs, 0, 3, a).0);
        // backward side: once the forward frontier {1, 2} outgrows the
        // backward one {4}, 4 is expanded backward; its one in-edge is
        // labeled b, so under {a} the backward frontier empties before
        // it could meet the forward one at 1 or 2
        let bibfs = GuidedSearch::bidirectional(Arc::clone(&g), Oblivious, meta());
        let (found, stats) = labeled_search(&bibfs, 0, 4, a);
        assert!(!found);
        assert_eq!(stats.expanded, 2, "vertex 0 forward, vertex 4 backward");
        assert!(labeled_search(&bibfs, 0, 4, ab).0);
        assert!(labeled_search(&bibfs, 0, 3, a).0);
        // every pair and label set against a projected-graph BFS
        let mut vm = VisitMap::new(5);
        for allowed in (0..4).map(LabelSet) {
            let projected = g.project(allowed);
            for s in 0..5 {
                for t in 0..5 {
                    let expect = bfs_reaches(&projected, VertexId(s), VertexId(t), &mut vm);
                    assert_eq!(labeled_search(&dfs, s, t, allowed).0, expect);
                    assert_eq!(labeled_search(&bibfs, s, t, allowed).0, expect);
                }
            }
        }
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
