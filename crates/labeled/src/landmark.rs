//! The landmark index of Valstar, Fletcher & Yoshida \[44\] (§4.1.2).
//!
//! A *partial* GTC: only the top-`k` highest-degree vertices
//! (landmarks) store a single-source GTC. `Qr(s, t, α)` runs a
//! label-constrained BFS from `s`; whenever the frontier hits a
//! landmark `v`, its GTC is consulted — if it certifies `t` under `α`
//! the query terminates with `true`, and otherwise everything
//! reachable from `v` under `α` is already accounted for, so `v` is
//! not expanded. This is the survey's exemplar of a partial index
//! *without false positives* (§5's discussion of its limitation: a
//! negative lookup cannot stop the traversal).
//!
//! The paper's final refinement is implemented too: *"the querying
//! process is further improved by computing the reachability and
//! SPLSs of paths from non-landmark vertices to landmark vertices,
//! where the number of indexed paths is controlled by a predefined
//! parameter"* — each vertex stores up to `budget` (landmark, SPLS)
//! entries so that queries can jump straight from the source to a
//! landmark GTC without any traversal.

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use crate::spls::SplsSet;
use crate::zou::single_source_gtc;
use reach_core::hop_labels::degree_order;
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{LabelSet, LabeledGraph, ScratchPool, VertexId};
use std::sync::Arc;

/// The landmark LCR index.
pub struct LandmarkIndex {
    graph: Arc<LabeledGraph>,
    /// landmark slot of each vertex, `u32::MAX` if none
    slot_of: Vec<u32>,
    /// per-landmark single-source GTC rows
    gtc: Vec<Vec<SplsSet>>,
    /// per-vertex shortcuts: up to `budget` (landmark slot, SPLS) pairs
    /// for paths from the vertex *to* that landmark
    shortcuts: Vec<Vec<(u32, SplsSet)>>,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    seen: VisitMap,
    queue: Vec<VertexId>,
}

impl LandmarkIndex {
    /// Builds the index with `k` landmarks chosen by descending degree
    /// and the default per-vertex shortcut budget of 2.
    pub fn build(graph: Arc<LabeledGraph>, k: usize) -> Self {
        Self::build_with_budget(graph, k, 2)
    }

    /// Builds the index with an explicit per-vertex shortcut budget
    /// (the paper's "predefined parameter"; 0 disables shortcuts).
    pub fn build_with_budget(graph: Arc<LabeledGraph>, k: usize, budget: usize) -> Self {
        let n = graph.num_vertices();
        let k = k.min(n);
        let by_degree = degree_order(graph.num_vertices(), |v| graph.degree(v));
        let mut slot_of = vec![u32::MAX; n];
        let mut gtc = Vec::with_capacity(k);
        for (i, &lm) in by_degree.iter().take(k).enumerate() {
            slot_of[lm.index()] = i as u32;
            gtc.push(single_source_gtc(&graph, lm));
        }
        // vertex→landmark shortcuts from the landmarks' *backward* GTCs
        let mut shortcuts: Vec<Vec<(u32, SplsSet)>> = vec![Vec::new(); n];
        if budget > 0 {
            let reversed = reverse_labeled(&graph);
            for (i, &lm) in by_degree.iter().take(k).enumerate() {
                // rows[v] = SPLSs of v→lm paths
                let rows = single_source_gtc(&reversed, lm);
                for v in graph.vertices() {
                    if v == lm || rows[v.index()].is_empty() {
                        continue;
                    }
                    if shortcuts[v.index()].len() < budget {
                        shortcuts[v.index()].push((i as u32, rows[v.index()].clone()));
                    }
                }
            }
        }
        LandmarkIndex {
            graph,
            slot_of,
            gtc,
            shortcuts,
            scratch: ScratchPool::new(),
        }
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.gtc.len()
    }

    /// Total vertex→landmark shortcut entries stored.
    pub fn num_shortcuts(&self) -> usize {
        self.shortcuts.iter().map(Vec::len).sum()
    }
}

/// The same labeled graph with every edge reversed.
fn reverse_labeled(g: &LabeledGraph) -> LabeledGraph {
    let mut b = reach_graph::LabeledGraphBuilder::new(g.num_vertices(), g.num_labels());
    for (u, l, v) in g.edges() {
        b.add_edge(v, l, u);
    }
    b.build()
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
        if s == t {
            return true;
        }
        // shortcut check: s ⇝ landmark ⇝ t entirely by lookup
        for (slot, to_lm) in &self.shortcuts[s.index()] {
            if to_lm.satisfies(allowed) && self.gtc[*slot as usize][t.index()].satisfies(allowed) {
                return true;
            }
        }
        let scratch = &mut *self.scratch.checkout(|| Scratch {
            seen: VisitMap::new(self.graph.num_vertices()),
            queue: Vec::new(),
        });
        scratch.seen.reset();
        scratch.queue.clear();
        scratch.queue.push(s);
        scratch.seen.mark(s, Side::Forward);
        let mut head = 0;
        while head < scratch.queue.len() {
            let u = scratch.queue[head];
            head += 1;
            let slot = self.slot_of[u.index()];
            if slot != u32::MAX {
                // landmark hit: its GTC decides everything beyond u
                if self.gtc[slot as usize][t.index()].satisfies(allowed) {
                    return true;
                }
                continue; // prune: u's α-closure is fully covered
            }
            for (v, l) in self.graph.out_edges(u) {
                if !allowed.contains(l) {
                    continue;
                }
                if v == t {
                    return true;
                }
                if scratch.seen.mark(v, Side::Forward) {
                    scratch.queue.push(v);
                }
            }
        }
        false
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        8 * self.size_entries() + 4 * self.slot_of.len()
    }

    fn size_entries(&self) -> usize {
        let gtc: usize = self
            .gtc
            .iter()
            .flat_map(|row| row.iter())
            .map(|s| s.len())
            .sum();
        let shortcuts: usize = self
            .shortcuts
            .iter()
            .flat_map(|row| row.iter())
            .map(|(_, s)| s.len())
            .sum();
        gtc + shortcuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::lcr_bfs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
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
                assert!(idx.shortcuts[v.index()].len() <= budget);
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
