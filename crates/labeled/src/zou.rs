//! Zou et al. \[48, 56\]: generalized-transitive-closure computation
//! with the label-count Dijkstra and bottom-up sharing (§4.1.2).
//!
//! The fundamental step is the *single-source GTC*: all vertices
//! reachable from a source together with their sufficient path-label
//! sets. The worklist is ordered by the number of distinct labels —
//! the paper's Dijkstra-like simulation of distance (its example:
//! among the two L→H paths of Figure 1(b), the one with 1 distinct
//! label is expanded and the 2-label one ignored).
//!
//! The full index follows the paper's two-part recipe:
//!
//! 1. *"An input graph is first transformed into a DAG, and then the
//!    computation is done by following the topological order of the
//!    DAG so as to share the single-source GTC of vertices in a
//!    bottom-up manner"* — components are processed sinks-first and
//!    every vertex's rows are assembled from its boundary edges'
//!    already-finished targets;
//! 2. *"Each SCC is replaced by a bipartite graph with in-portal and
//!    out-portal vertices … the SPLSs from in-portal to out-portal
//!    vertices are computed and recorded"* — realized here as per-SCC
//!    all-pairs GTCs over the induced subgraph (correct because an
//!    intra-SCC path can never leave its component and return: the
//!    condensation is acyclic), which serve as the portal-to-portal
//!    SPLS tables joining intra- and inter-component segments.

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use crate::spls::SplsSet;
use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes the single-source GTC from `s`: for every vertex, the
/// minimal antichain of path-label sets of `s`-to-it paths
/// (`spls[s] = {∅}` for the empty path).
///
/// States are expanded in ascending distinct-label count, so every
/// popped state that survives the dominance check is a genuine SPLS
/// and redundant label sets are never expanded. With `forward` false
/// it follows in-edges: `rows[v]` then holds the SPLSs of `v`-to-`s` paths.
pub fn single_source_gtc(g: &LabeledGraph, s: VertexId, forward: bool) -> Vec<SplsSet> {
    let mut rows: Vec<SplsSet> = vec![SplsSet::new(); g.num_vertices()];
    let mut heap: BinaryHeap<Reverse<(usize, u64, u32)>> = BinaryHeap::new();
    rows[s.index()].insert(LabelSet::EMPTY);
    heap.push(Reverse((0, 0, s.0)));
    while let Some(Reverse((_, bits, v))) = heap.pop() {
        let ls = LabelSet(bits);
        let v = VertexId(v);
        // stale heap entry: a smaller set has since dominated this one
        if !rows[v.index()].sets().contains(&ls) {
            continue;
        }
        for (w, l) in g.adjacent(v, forward) {
            let nls = ls.insert(l);
            if rows[w.index()].insert(nls) {
                heap.push(Reverse((nls.len(), nls.0, w.0)));
            }
        }
    }
    rows
}

/// The labeled subgraph induced by `group`, with local vertex ids
/// following `group`'s order (the per-SCC "portal" computation space).
fn induced_subgraph(g: &LabeledGraph, group: &[VertexId]) -> LabeledGraph {
    let mut local_of = std::collections::HashMap::with_capacity(group.len());
    for (i, &v) in group.iter().enumerate() {
        local_of.insert(v, i as u32);
    }
    let mut b = reach_graph::LabeledGraphBuilder::new(group.len(), g.num_labels());
    for &v in group {
        for (w, l) in g.out_edges(v) {
            if let Some(&lw) = local_of.get(&w) {
                b.add_edge(VertexId(local_of[&v]), l, VertexId(lw));
            }
        }
    }
    b.build()
}

/// The Zou et al. LCR index: one SPLS row per (source, target) pair.
pub struct ZouIndex {
    /// `rows[s][t]`: minimal SPLS antichain of s→t paths.
    rows: Vec<Vec<SplsSet>>,
    /// retained for dynamic maintenance
    edges: Vec<(VertexId, Label, VertexId)>,
    num_labels: usize,
}

impl ZouIndex {
    /// Builds the index: SCC portal transformation plus bottom-up
    /// sharing along the condensation's topological order. On a DAG
    /// every component is a singleton and this reduces to plain
    /// reverse-topological sharing.
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_vertices();
        let plain = g.to_digraph();
        let scc = reach_graph::scc::tarjan_scc(&plain);
        let nc = scc.num_components();
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); nc];
        for v in g.vertices() {
            members[scc.component_of(v) as usize].push(v);
        }

        let mut rows: Vec<Vec<SplsSet>> = vec![vec![SplsSet::new(); n]; n];
        // Tarjan numbers components in reverse topological order, so
        // ascending component id = sinks first: every boundary edge
        // from component c points into an already-finished component.
        #[allow(clippy::needless_range_loop)] // c is a component id, not a position
        for c in 0..nc {
            let group = &members[c];
            if group.len() == 1 {
                let v = group[0];
                rows[v.index()][v.index()].insert(LabelSet::EMPTY);
            } else {
                // portal table: all-pairs SPLSs inside the SCC (an
                // intra-SCC path cannot leave and return)
                let local = induced_subgraph(g, group);
                for (li, &v) in group.iter().enumerate() {
                    let local_rows = single_source_gtc(&local, VertexId::new(li), true);
                    for (lj, &x) in group.iter().enumerate() {
                        rows[v.index()][x.index()] = local_rows[lj].clone();
                    }
                }
            }
            // boundary edges: SPLS(v→x) ⊇ SPLS_C(v→q) × {l} × SPLS(w→x)
            for &q in group {
                for (w, l) in g.out_edges(q) {
                    if scc.component_of(w) as usize == c {
                        continue;
                    }
                    let unit = LabelSet::singleton(l);
                    for &v in group {
                        if rows[v.index()][q.index()].is_empty() {
                            continue;
                        }
                        let prefix =
                            rows[v.index()][q.index()].cross_product(&SplsSet::singleton(unit));
                        for x in 0..n {
                            if rows[w.index()][x].is_empty() {
                                continue;
                            }
                            let via = prefix.cross_product(&rows[w.index()][x]);
                            rows[v.index()][x].merge(&via);
                        }
                    }
                }
            }
        }
        ZouIndex {
            rows,
            edges: g.edges().collect(),
            num_labels: g.num_labels(),
        }
    }

    /// The SPLS antichain recorded for the pair `(s, t)`.
    pub fn spls(&self, s: VertexId, t: VertexId) -> &SplsSet {
        &self.rows[s.index()][t.index()]
    }

    fn rebuild_from_edges(&mut self) {
        let n = self.rows.len();
        let mut b = reach_graph::LabeledGraphBuilder::new(n, self.num_labels);
        for &(u, l, v) in &self.edges {
            b.add_edge(u, l, v);
        }
        *self = ZouIndex::build(&b.build());
    }

    /// Inserts a labeled edge, propagating new SPLSs to fixpoint.
    pub fn insert_edge(&mut self, u: VertexId, l: Label, v: VertexId) {
        if self.edges.contains(&(u, l, v)) {
            return;
        }
        self.edges.push((u, l, v));
        // monotone fixpoint: rows only gain (smaller) label sets
        let n = self.rows.len();
        let unit = LabelSet::singleton(l);
        let mut changed = true;
        while changed {
            changed = false;
            for a in 0..n {
                if self.rows[a][u.index()].is_empty() {
                    continue;
                }
                let prefix = self.rows[a][u.index()].clone();
                for x in 0..n {
                    if self.rows[v.index()][x].is_empty() {
                        continue;
                    }
                    let suffix = self.rows[v.index()][x].clone();
                    let via = prefix
                        .cross_product(&SplsSet::singleton(unit))
                        .cross_product(&suffix);
                    changed |= self.rows[a][x].merge(&via);
                }
            }
        }
    }

    /// Deletes a labeled edge. SPLSs can shrink arbitrarily, so the
    /// affected rows are recomputed (the survey notes maintenance on
    /// deletion is the hard direction for GTC-based indexes).
    pub fn delete_edge(&mut self, u: VertexId, l: Label, v: VertexId) {
        if let Some(p) = self.edges.iter().position(|&e| e == (u, l, v)) {
            self.edges.remove(p);
            self.rebuild_from_edges();
        }
    }
}

pub(crate) const META: LabeledIndexMeta = LabeledIndexMeta {
    name: "Zou et al.",
    citation: "[48,56]",
    framework: LcrFramework::Gtc,
    constraint: ConstraintClass::Alternation,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::InsertDelete,
};

impl LcrIndex for ZouIndex {
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        s == t || self.rows[s.index()][t.index()].satisfies(allowed)
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        8 * self.size_entries() + 24 * self.rows.len() * self.rows.len()
    }

    fn size_entries(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|row| row.iter())
            .map(|s| s.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::lcr_bfs;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures::{self, C, D, FOLLOWS, FRIEND_OF, H, K, L, WORKS_FOR};
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn check_exact(g: &LabeledGraph, idx: &ZouIndex) {
        let k = g.num_labels();
        for s in g.vertices() {
            for t in g.vertices() {
                for mask in 0..(1u64 << k) {
                    let allowed = LabelSet(mask);
                    assert_eq!(
                        idx.query(s, t, allowed),
                        lcr_bfs(g, s, t, allowed),
                        "mismatch at {s:?}->{t:?} under {allowed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn papers_dijkstra_example() {
        // From L, H is reachable via p3 (worksFor, worksFor) — one
        // distinct label — and p4 (worksFor, friendOf) — two. The
        // single-source GTC from L must record {worksFor} as the SPLS
        // and ignore the 2-label alternative.
        let g = fixtures::figure1b();
        let rows = single_source_gtc(&g, L, true);
        assert_eq!(rows[H.index()].sets(), &[LabelSet::singleton(WORKS_FOR)]);
        // sanity: direct neighbors
        assert_eq!(rows[C.index()].sets(), &[LabelSet::singleton(WORKS_FOR)]);
        assert_eq!(rows[K.index()].sets(), &[LabelSet::singleton(FOLLOWS)]);
        assert_eq!(rows[D.index()].sets(), &[LabelSet::singleton(WORKS_FOR)]);
    }

    #[test]
    fn papers_spls_examples() {
        let g = fixtures::figure1b();
        let idx = ZouIndex::build(&g);
        // SPLS(L→M) = {worksFor}: p1 dominates p2
        assert_eq!(
            idx.spls(L, fixtures::M).sets(),
            &[LabelSet::singleton(WORKS_FOR)]
        );
        // SPLS(A→M) = {follows, worksFor}
        assert_eq!(
            idx.spls(fixtures::A, fixtures::M).sets(),
            &[LabelSet::from_labels([FOLLOWS, WORKS_FOR])]
        );
        // Qr(A, G, (friendOf ∪ follows)*) = false
        assert!(!idx.query(
            fixtures::A,
            fixtures::G,
            LabelSet::from_labels([FRIEND_OF, FOLLOWS])
        ));
    }

    #[test]
    fn exact_on_figure1() {
        let g = fixtures::figure1b();
        check_exact(&g, &ZouIndex::build(&g));
    }

    #[test]
    fn exact_on_random_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(201);
        for _ in 0..3 {
            let g = random_labeled_digraph(25, 70, 3, LabelDistribution::Uniform, &mut rng);
            check_exact(&g, &ZouIndex::build(&g));
        }
    }

    #[test]
    fn dag_sharing_agrees_with_per_source() {
        let mut rng = SmallRng::seed_from_u64(202);
        let g = reach_graph::generators::random_labeled_dag(
            30,
            70,
            3,
            LabelDistribution::Uniform,
            &mut rng,
        );
        let idx = ZouIndex::build(&g);
        for s in g.vertices() {
            let rows = single_source_gtc(&g, s, true);
            for t in g.vertices() {
                assert_eq!(idx.spls(s, t), &rows[t.index()], "row {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn insertions_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(203);
        let g = random_labeled_digraph(15, 25, 3, LabelDistribution::Uniform, &mut rng);
        let mut idx = ZouIndex::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for _ in 0..10 {
            let u = rng.random_range(0..15u32);
            let mut v = rng.random_range(0..14u32);
            if v >= u {
                v += 1;
            }
            let l = rng.random_range(0..3u8);
            idx.insert_edge(VertexId(u), Label(l), VertexId(v));
            if !edges.contains(&(u, l, v)) {
                edges.push((u, l, v));
            }
            let g2 = LabeledGraph::from_edges(15, 3, &edges);
            check_exact(&g2, &idx);
        }
    }

    #[test]
    fn deletions_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(204);
        let g = random_labeled_digraph(12, 35, 3, LabelDistribution::Uniform, &mut rng);
        let mut idx = ZouIndex::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for _ in 0..8 {
            if edges.is_empty() {
                break;
            }
            let i = rng.random_range(0..edges.len());
            let (u, l, v) = edges.swap_remove(i);
            idx.delete_edge(VertexId(u), Label(l), VertexId(v));
            let g2 = LabeledGraph::from_edges(12, 3, &edges);
            check_exact(&g2, &idx);
        }
    }
}
