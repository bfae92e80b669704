//! DBL \[29\]: dynamic double labeling for insertion-only graphs.
//!
//! Two complementary label families, both cheap to maintain under edge
//! insertions because they only ever *grow*:
//!
//! * the **DL label** — bitsets over ≤64 high-degree landmarks:
//!   `dl_out(v)` = landmarks reachable from `v`, `dl_in(v)` =
//!   landmarks reaching `v`. A common landmark is a definite
//!   *positive* answer.
//! * the **BL label** — a 32-bit hash sketch of the full forward /
//!   backward closure. `s → t` implies `closure(t) ⊆ closure(s)` and
//!   therefore `bl_out(t) ⊆ bl_out(s)`; a failed subset test is a
//!   definite *negative* answer (§3.3's contra-positive observation).
//!
//! Queries undecided by both labels fall back to a pruned DFS over the
//! index's own (mutable) adjacency.

use crate::engine::GuidedSearch;
use crate::hop_labels::degree_order;
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter,
};
use reach_graph::{DiGraph, EditGraph, VertexId};
use std::ops::BitOr;

/// DBL's two label families, usable stand-alone as a filter.
#[derive(Debug, Clone)]
pub struct DblFilter {
    /// `dl_in[v]` bit i: landmark i reaches v; `dl_out[v]` bit i: v
    /// reaches landmark i.
    dl_in: Vec<u64>,
    dl_out: Vec<u64>,
    bl_in: Vec<u32>,
    bl_out: Vec<u32>,
}

/// The DBL index: its labels over a mutable copy of the graph, so that
/// [`insert_edge`](Dbl::insert_edge) is self-contained.
pub type Dbl = GuidedSearch<DblFilter, EditGraph>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "DBL",
    citation: "[29]",
    framework: Framework::TwoHop,
    completeness: Completeness::Partial,
    input: InputClass::General,
    dynamism: Dynamism::InsertOnly,
};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl Dbl {
    /// Builds the index: the 64 highest-degree vertices become
    /// landmarks, and the labels spread along the edges the way
    /// [`insert_edge`](Self::insert_edge) spreads them.
    pub fn build(g: &DiGraph) -> Self {
        let n = g.num_vertices();
        let by_degree = degree_order(g.num_vertices(), |v| g.degree(v));
        let mut labels = DblFilter {
            dl_in: vec![0; n],
            dl_out: vec![0; n],
            bl_in: (0..n).map(|i| 1u32 << (splitmix(i as u64) % 32)).collect(),
            bl_out: (0..n).map(|i| 1u32 << (splitmix(i as u64) % 32)).collect(),
        };
        for (i, &lm) in by_degree.iter().take(64).enumerate() {
            labels.dl_in[lm.index()] |= 1 << i;
            labels.dl_out[lm.index()] |= 1 << i;
        }
        // each label is a closure (landmarks reaching / reached, sketch
        // bits below / above), so letting every vertex pass its label on
        // gives the same labels in any order. Ascending ids for labels
        // that flow forward and descending ids for the others mean that
        // on a DAG with topological ids each vertex passes on a finished
        // label.
        let graph = EditGraph::from_graph(g);
        let descending = || (0..n).rev().map(VertexId::new);
        graph.spread(&mut labels.dl_in, g.vertices(), true, BitOr::bitor);
        graph.spread(&mut labels.bl_in, g.vertices(), true, BitOr::bitor);
        graph.spread(&mut labels.dl_out, descending(), false, BitOr::bitor);
        graph.spread(&mut labels.bl_out, descending(), false, BitOr::bitor);
        GuidedSearch::new(graph, labels, META)
    }

    /// Inserts the edge `u -> v`, growing all four label families
    /// monotonically (the insertion-only regime DBL targets).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        let (graph, labels) = self.parts_mut();
        if !graph.insert(u, v) {
            return;
        }
        // what reaches u (dl_in, bl_in) now reaches v and beyond, and
        // what v reaches (dl_out, bl_out) is now reached from u and its
        // ancestors
        graph.spread(&mut labels.dl_in, [u], true, BitOr::bitor);
        graph.spread(&mut labels.bl_in, [u], true, BitOr::bitor);
        graph.spread(&mut labels.dl_out, [v], false, BitOr::bitor);
        graph.spread(&mut labels.bl_out, [v], false, BitOr::bitor);
    }
}

impl DblFilter {
    /// Number of landmarks in use.
    pub fn num_landmarks(&self) -> usize {
        self.dl_in.len().min(64)
    }
}

impl ReachFilter for DblFilter {
    /// A common landmark is a definite positive; a BL sketch that is
    /// not a subset where reachability demands one is a definite
    /// negative.
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        if s == t || self.dl_out[s.index()] & self.dl_in[t.index()] != 0 {
            return Certainty::Reachable;
        }
        if self.bl_out[t.index()] & !self.bl_out[s.index()] != 0
            || self.bl_in[s.index()] & !self.bl_in[t.index()] != 0
        {
            return Certainty::Unreachable;
        }
        Certainty::Unknown
    }

    fn guarantees(&self) -> FilterGuarantees {
        FilterGuarantees {
            definite_positive: true,
            definite_negative: true,
        }
    }

    fn size_bytes(&self) -> usize {
        // dl bitsets (8B) + bl sketches (4B) per side per vertex
        self.dl_in.len() * (8 + 8 + 4 + 4)
    }

    fn size_entries(&self) -> usize {
        2 * self.dl_in.len() + 2 * self.bl_in.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReachIndex;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures;
    use reach_graph::generators::random_digraph;
    use reach_graph::traverse::{backward_closure, forward_closure};

    fn check_exact(g: &DiGraph, dbl: &Dbl) {
        let tc = TransitiveClosure::build(g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(dbl.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        let g = fixtures::figure1a();
        check_exact(&g, &Dbl::build(&g));
    }

    #[test]
    fn exact_on_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(121);
        for _ in 0..4 {
            let g = random_digraph(60, 170, &mut rng);
            check_exact(&g, &Dbl::build(&g));
        }
    }

    #[test]
    fn lookup_verdicts_are_sound() {
        let mut rng = SmallRng::seed_from_u64(122);
        let g = random_digraph(50, 140, &mut rng);
        let dbl = Dbl::build(&g);
        let tc = TransitiveClosure::build(&g);
        let mut decided = 0;
        for s in g.vertices() {
            for t in g.vertices() {
                let ans = match dbl.filter().certain(s, t) {
                    Certainty::Reachable => true,
                    Certainty::Unreachable => false,
                    Certainty::Unknown => continue,
                };
                decided += 1;
                assert_eq!(ans, tc.reaches(s, t), "lookup wrong at {s:?}->{t:?}");
            }
        }
        assert!(decided > 0, "labels should decide at least some pairs");

        // the labels are the closures they stand for
        let g = random_digraph(120, 300, &mut rng);
        let labels = Dbl::build(&g).filter().clone();
        let by_degree = degree_order(g.num_vertices(), |v| g.degree(v));
        let own = |x: VertexId| 1u32 << (splitmix(x.0 as u64) % 32);
        for v in g.vertices() {
            let (fwd, bwd) = (forward_closure(&g, v), backward_closure(&g, v));
            let landmarks_in = |closure: &[VertexId]| -> u64 {
                (by_degree.iter().take(64).enumerate())
                    .filter(|(_, lm)| closure.contains(lm))
                    .map(|(i, _)| 1u64 << i)
                    .sum()
            };
            assert_eq!(labels.dl_in[v.index()], landmarks_in(&bwd), "dl_in({v:?})");
            assert_eq!(
                labels.dl_out[v.index()],
                landmarks_in(&fwd),
                "dl_out({v:?})"
            );
            let sketch = |closure: &[VertexId]| closure.iter().fold(0, |acc, &x| acc | own(x));
            assert_eq!(labels.bl_out[v.index()], sketch(&fwd), "bl_out({v:?})");
            assert_eq!(labels.bl_in[v.index()], sketch(&bwd), "bl_in({v:?})");
        }
    }

    #[test]
    fn insertions_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(123);
        let g = random_digraph(30, 50, &mut rng);
        let mut dbl = Dbl::build(&g);
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..30 {
            let u = rng.random_range(0..30u32);
            let mut v = rng.random_range(0..29u32);
            if v >= u {
                v += 1;
            }
            dbl.insert_edge(VertexId(u), VertexId(v));
            if !edges.contains(&(u, v)) {
                edges.push((u, v));
            }
            let g2 = DiGraph::from_edges(30, &edges);
            check_exact(&g2, &dbl);
        }
    }

    #[test]
    fn landmark_count_is_capped() {
        let mut rng = SmallRng::seed_from_u64(124);
        let g = random_digraph(200, 600, &mut rng);
        let dbl = Dbl::build(&g);
        assert_eq!(dbl.filter().num_landmarks(), 64);
        let small = DiGraph::from_edges(5, &[(0, 1)]);
        assert_eq!(Dbl::build(&small).filter().num_landmarks(), 5);
    }

    #[test]
    fn insert_creating_cycle_stays_exact() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut dbl = Dbl::build(&g);
        dbl.insert_edge(VertexId(3), VertexId(0));
        let g2 = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        check_exact(&g2, &dbl);
    }
}
