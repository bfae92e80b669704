//! The landmark index of Valstar, Fletcher & Yoshida \[44\] (§4.1.2).
//!
//! A *partial* GTC: only the top-`k` highest-degree vertices
//! (landmarks) store a single-source GTC. `Qr(s, t, α)` runs a pruned
//! bidirectional BFS ([`GuidedSearch`]) over the edges `α` allows;
//! whenever it reaches a landmark `v`, its GTC is consulted — if it
//! certifies `t` under `α` the query terminates with `true`, and
//! otherwise everything reachable from `v` under `α` is already
//! accounted for, so `v` is not expanded. This is the survey's exemplar
//! of a partial index *without false positives* (§5's discussion of its
//! limitation: a negative lookup cannot stop the traversal).
//!
//! The paper's final refinement is implemented too: *"the querying
//! process is further improved by computing the reachability and
//! SPLSs of paths from non-landmark vertices to landmark vertices,
//! where the number of indexed paths is controlled by a predefined
//! parameter"* — each vertex stores up to `budget` (landmark, SPLS)
//! entries, and a vertex the search visits answers `true` at once if
//! one of them and its landmark's GTC fit `α`.

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use crate::spls::SplsSet;
use crate::zou::single_source_gtc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_core::audit::{probe_verdicts, sample_vertices, CappedRule, Violation};
use reach_core::engine::{GuidedSearch, SearchStats};
use reach_core::hop_labels::degree_order;
use reach_core::index::{Certainty, Framework, IndexMeta};
use reach_graph::{LabelSet, LabeledGraph, VertexId};
use std::sync::Arc;

/// The landmark LCR index: its [`Landmarks`] tables as the verdict of a
/// guided search over the labeled graph.
pub struct LandmarkIndex {
    search: GuidedSearch<Landmarks, Arc<LabeledGraph>>,
}

/// The lookup half of the index.
struct Landmarks {
    /// landmark slot of each vertex, `u32::MAX` if none
    slot_of: Vec<u32>,
    /// per-landmark single-source GTC rows
    gtc: Vec<Vec<SplsSet>>,
    /// per-vertex shortcuts: up to `budget` (landmark slot, SPLS) pairs
    /// for paths from the vertex *to* that landmark
    shortcuts: Vec<Vec<(u32, SplsSet)>>,
}

impl Landmarks {
    /// The GTC rows of the `k` highest-degree vertices, and up to
    /// `budget` shortcuts per vertex.
    fn build(graph: &LabeledGraph, k: usize, budget: usize) -> Self {
        let n = graph.num_vertices();
        let landmarks = &degree_order(n, |v| graph.degree(v))[..k.min(n)];
        let mut slot_of = vec![u32::MAX; n];
        let mut gtc = Vec::with_capacity(landmarks.len());
        for (i, &lm) in landmarks.iter().enumerate() {
            slot_of[lm.index()] = i as u32;
            gtc.push(single_source_gtc(graph, lm, true));
        }
        // vertex→landmark shortcuts from the landmarks' *backward* GTCs
        let mut shortcuts: Vec<Vec<(u32, SplsSet)>> = vec![Vec::new(); n];
        if budget > 0 {
            for (i, &lm) in landmarks.iter().enumerate() {
                // rows[v] = SPLSs of v→lm paths
                let rows = single_source_gtc(graph, lm, false);
                for (v, to_lm) in rows.into_iter().enumerate() {
                    if v != lm.index() && !to_lm.is_empty() && shortcuts[v].len() < budget {
                        shortcuts[v].push((i as u32, to_lm));
                    }
                }
            }
        }
        Landmarks {
            slot_of,
            gtc,
            shortcuts,
        }
    }

    /// What the tables say about `v ⇝ t` under `allowed`: a landmark's
    /// row decides it either way; a shortcut to a landmark whose row
    /// certifies `t` proves it; nothing else is known.
    #[inline]
    fn verdict(&self, v: VertexId, t: VertexId, allowed: LabelSet) -> Certainty {
        let row_fits = |slot: u32| self.gtc[slot as usize][t.index()].satisfies(allowed);
        let via = |&(slot, ref to_lm): &(u32, SplsSet)| to_lm.satisfies(allowed) && row_fits(slot);
        match self.slot_of[v.index()] {
            u32::MAX if self.shortcuts[v.index()].iter().any(via) => Certainty::Reachable,
            u32::MAX => Certainty::Unknown,
            slot if row_fits(slot) => Certainty::Reachable,
            _ => Certainty::Unreachable,
        }
    }
}

/// The guided search's own description of the index (only [`META`] is
/// ever reported).
const SEARCH_META: IndexMeta = IndexMeta {
    name: META.name,
    citation: META.citation,
    framework: Framework::Other,
    completeness: META.completeness,
    input: META.input,
    dynamism: META.dynamism,
};

impl LandmarkIndex {
    /// Builds the index with `k` landmarks chosen by descending degree
    /// and the default per-vertex shortcut budget of 2.
    pub fn build(graph: Arc<LabeledGraph>, k: usize) -> Self {
        Self::build_with_budget(graph, k, 2)
    }

    /// Builds the index with an explicit per-vertex shortcut budget
    /// (the paper's "predefined parameter"; 0 disables shortcuts).
    pub fn build_with_budget(graph: Arc<LabeledGraph>, k: usize, budget: usize) -> Self {
        let tables = Landmarks::build(&graph, k, budget);
        let search = GuidedSearch::bidirectional(graph, tables, SEARCH_META);
        LandmarkIndex { search }
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.search.filter().gtc.len()
    }

    /// Total vertex→landmark shortcut entries stored.
    pub fn num_shortcuts(&self) -> usize {
        self.search.filter().shortcuts.iter().map(Vec::len).sum()
    }

    /// [`LcrIndex::query`] with the guided search's work counters.
    pub fn query_counted(
        &self,
        s: VertexId,
        t: VertexId,
        allowed: LabelSet,
    ) -> (bool, SearchStats) {
        let (graph, tables) = (self.search.graph(), self.search.filter());
        self.search.search(
            s,
            t,
            |v, w| tables.verdict(v, w, allowed),
            |u, forward, i| allowed.contains(graph.lists(u, forward).1[i]),
        )
    }
}

pub(crate) const META: LabeledIndexMeta = LabeledIndexMeta {
    name: "Landmark index",
    citation: "[44]",
    framework: LcrFramework::Gtc,
    constraint: ConstraintClass::Alternation,
    completeness: Completeness::Partial,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl LcrIndex for LandmarkIndex {
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        self.query_counted(s, t, allowed).0
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        8 * self.size_entries() + 4 * self.search.filter().slot_of.len()
    }

    fn size_entries(&self) -> usize {
        let tables = self.search.filter();
        let gtc: usize = tables.gtc.iter().flatten().map(SplsSet::len).sum();
        let shortcuts: usize = tables
            .shortcuts
            .iter()
            .flatten()
            .map(|(_, s)| s.len())
            .sum();
        gtc + shortcuts
    }

    /// Probes the verdicts the search trusts (every landmark's row and
    /// every shortcut) from each landmark and from sampled vertices,
    /// under the empty, the full and seeded random label sets, against
    /// BFS over the graph projected onto the allowed labels.
    fn check_invariants(&self, graph: &LabeledGraph) -> Vec<Violation> {
        let (name, n, tables) = (META.name, graph.num_vertices(), self.search.filter());
        if tables.slot_of.len() != n {
            let detail = format!(
                "landmark slots cover {} vertices, graph has {n}",
                tables.slot_of.len()
            );
            return vec![Violation {
                index: name,
                rule: "graph-mismatch",
                detail,
            }];
        }
        let landmarks = graph
            .vertices()
            .filter(|v| tables.slot_of[v.index()] != u32::MAX);
        let mut sources: Vec<VertexId> = landmarks.chain(sample_vertices(n, 64)).collect();
        sources.sort_unstable();
        sources.dedup();
        let full = LabelSet::full(graph.num_labels());
        let mut rng = SmallRng::seed_from_u64(0x1A4D);
        let random = (0..6).map(|_| LabelSet(rng.random_range(0..=u64::MAX) & full.0));
        let (mut out, mut wrong) = (Vec::new(), CappedRule::new(name, "filter-verdicts"));
        for allowed in [LabelSet::EMPTY, full].into_iter().chain(random) {
            let verdict = |s, t| tables.verdict(s, t, allowed);
            let under = format!(" under {allowed:?}");
            probe_verdicts(
                &graph.project(allowed),
                &sources,
                verdict,
                &under,
                &mut wrong,
                &mut out,
            );
        }
        wrong.finish(&mut out, "wrong definite verdicts");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::lcr_bfs;
    use reach_graph::fixtures;
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn check_exact(g: Arc<LabeledGraph>, k: usize) {
        let idx = LandmarkIndex::build(g.clone(), k);
        let nl = g.num_labels();
        for s in g.vertices() {
            for t in g.vertices() {
                for mask in 0..(1u64 << nl) {
                    let allowed = LabelSet(mask);
                    assert_eq!(
                        idx.query(s, t, allowed),
                        lcr_bfs(&g, s, t, allowed),
                        "k={k} at {s:?}->{t:?} under {allowed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_on_figure1_for_all_k() {
        let g = Arc::new(fixtures::figure1b());
        for k in [0, 2, 9] {
            check_exact(g.clone(), k);
        }
    }

    #[test]
    fn exact_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(221);
        for _ in 0..3 {
            let g = Arc::new(random_labeled_digraph(
                25,
                70,
                3,
                LabelDistribution::Zipf,
                &mut rng,
            ));
            check_exact(g, 5);
        }
    }

    #[test]
    fn zero_landmarks_is_plain_lcr_bfs() {
        let g = Arc::new(fixtures::figure1b());
        let idx = LandmarkIndex::build(g.clone(), 0);
        assert_eq!(idx.num_landmarks(), 0);
        assert_eq!(idx.size_entries(), 0);
        assert!(idx.query(fixtures::A, fixtures::G, LabelSet::full(3)));
    }

    #[test]
    fn shortcuts_stay_exact_and_within_budget() {
        let mut rng = SmallRng::seed_from_u64(223);
        let g = Arc::new(random_labeled_digraph(
            30,
            90,
            3,
            LabelDistribution::Uniform,
            &mut rng,
        ));
        for budget in [0, 1, 4] {
            let idx = LandmarkIndex::build_with_budget(g.clone(), 5, budget);
            for v in g.vertices() {
                assert!(idx.search.filter().shortcuts[v.index()].len() <= budget);
            }
            if budget == 0 {
                assert_eq!(idx.num_shortcuts(), 0);
            }
            for s in g.vertices() {
                for t in g.vertices() {
                    for mask in 0..8u64 {
                        let allowed = LabelSet(mask);
                        assert_eq!(
                            idx.query(s, t, allowed),
                            lcr_bfs(&g, s, t, allowed),
                            "budget {budget} at {s:?}->{t:?} under {allowed:?}"
                        );
                    }
                }
            }
        }
    }

    fn from_tables(graph: Arc<LabeledGraph>, tables: Landmarks) -> LandmarkIndex {
        let search = GuidedSearch::bidirectional(graph, tables, SEARCH_META);
        LandmarkIndex { search }
    }

    fn seeded_graph(seed: u64) -> Arc<LabeledGraph> {
        let mut rng = SmallRng::seed_from_u64(seed);
        Arc::new(random_labeled_digraph(
            80,
            240,
            3,
            LabelDistribution::Uniform,
            &mut rng,
        ))
    }

    #[test]
    fn verdict_audit_is_clean_and_reports_a_widened_row() {
        let g = seeded_graph(224);
        assert!(LandmarkIndex::build(g.clone(), 6)
            .check_invariants(&g)
            .is_empty());
        // landmark 0's row claims the empty path to every vertex
        let mut tables = Landmarks::build(&g, 6, 2);
        for spls in &mut tables.gtc[0] {
            spls.insert(LabelSet::EMPTY);
        }
        let idx = from_tables(g.clone(), tables);
        let found = idx.check_invariants(&g);
        assert!(found.iter().any(|v| v.rule == "filter-false-positive"));
        assert!(found.len() <= reach_core::audit::MAX_PER_RULE + 1);
    }

    #[test]
    fn verdict_audit_reports_a_missing_row_entry() {
        let g = seeded_graph(225);
        let mut tables = Landmarks::build(&g, 6, 0);
        for spls in &mut tables.gtc[0] {
            *spls = SplsSet::new();
        }
        let idx = from_tables(g.clone(), tables);
        let found = idx.check_invariants(&g);
        assert!(found.iter().any(|v| v.rule == "filter-false-negative"));
    }

    #[test]
    fn landmark_verdicts_expand_fewer_vertices_than_unguided_search() {
        let g = seeded_graph(226);
        let idx = LandmarkIndex::build(g.clone(), 8);
        let unguided = GuidedSearch::bidirectional(g.clone(), (), SEARCH_META);
        let mut rng = SmallRng::seed_from_u64(227);
        let (mut guided_work, mut unguided_work) = (0, 0);
        for _ in 0..400 {
            let s = VertexId(rng.random_range(0..80));
            let t = VertexId(rng.random_range(0..80));
            let allowed = LabelSet(rng.random_range(0..8u64));
            let (found, stats) = idx.query_counted(s, t, allowed);
            let (expect, plain) = unguided.search(
                s,
                t,
                |_, _| Certainty::Unknown,
                |u, forward, i| allowed.contains(g.lists(u, forward).1[i]),
            );
            assert_eq!(found, expect);
            guided_work += stats.expanded;
            unguided_work += plain.expanded;
        }
        assert!(
            guided_work < unguided_work,
            "{guided_work} expansions guided, {unguided_work} unguided"
        );
    }

    #[test]
    fn landmark_storage_scales_with_k() {
        let mut rng = SmallRng::seed_from_u64(222);
        let g = Arc::new(random_labeled_digraph(
            60,
            200,
            4,
            LabelDistribution::Uniform,
            &mut rng,
        ));
        let i2 = LandmarkIndex::build(g.clone(), 2);
        let i8 = LandmarkIndex::build(g.clone(), 8);
        assert!(i8.size_entries() > i2.size_entries());
        assert_eq!(i8.num_landmarks(), 8);
    }
}
