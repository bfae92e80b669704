//! DLCR \[10\]: label-constrained 2-hop under edge insertions *and*
//! deletions (§4.1.3).
//!
//! DLCR extends P2H+ with dynamic maintenance. The update problem the
//! survey describes — inserting entries can make old ones redundant,
//! deleting entries can make previously-redundant ones necessary again
//! (the `RIE` bookkeeping) — is solved here by keeping each hop's
//! entries *locally canonical*: hop `w` records the minimal label-set
//! antichain over paths whose interior vertices all have lower
//! priority than `w`. Entries then depend only on the hop's own
//! restricted closure, never on other hops' labels, so an edge update
//! touches exactly the hops whose restricted closure contains an
//! endpoint — no cross-hop redundancy cascade exists by construction
//! (completeness follows from the highest-priority-vertex-on-the-path
//! argument; cf. [`reach_core::tol`] for the plain-graph analogue).

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use crate::p2h::{entry_insert, entry_present, LabelEntry};
use reach_core::hop_labels::{HopEntry, HopLabels, HopOrder};
use reach_graph::{EditGraph, Label, LabelSet, LabeledGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The DLCR index. Owns a mutable copy of the labeled graph.
pub struct Dlcr {
    graph: EditGraph<(VertexId, Label)>,
    labels: HopLabels<LabelEntry>,
}

impl Dlcr {
    /// Builds the index with the degree-descending hop order.
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_vertices();
        let mut idx = Dlcr {
            graph: EditGraph::from_labeled(g),
            labels: HopLabels::new(HopOrder::by_degree(n, |v| g.degree(v))),
        };
        idx.rerun_hops(0..n as u32);
        idx
    }

    /// Runs the restricted label-BFS of every hop in `hops` from scratch.
    fn rerun_hops(&mut self, hops: impl IntoIterator<Item = u32>) {
        for r in hops {
            let w = self.labels.order().vertex_at(r);
            self.extend_hop(r, w, LabelSet::EMPTY, true);
            self.extend_hop(r, w, LabelSet::EMPTY, false);
        }
    }

    /// Resumes hop `r`'s restricted label-BFS from `(start, start_ls)`.
    fn extend_hop(&mut self, r: u32, start: VertexId, start_ls: LabelSet, forward: bool) {
        let mut heap: BinaryHeap<Reverse<(usize, u64, u32)>> = BinaryHeap::new();
        if entry_insert(self.labels.list_mut(forward, start), r, start_ls) {
            heap.push(Reverse((start_ls.len(), start_ls.0, start.0)));
        }
        while let Some(Reverse((_, bits, x))) = heap.pop() {
            let x = VertexId(x);
            let ls = LabelSet(bits);
            if !entry_present(self.labels.list(forward, x), r, ls) {
                continue; // evicted by a dominating set
            }
            // interior restriction: only lower-priority vertices are
            // passed through
            if !self.labels.order().passes(r, x) {
                continue;
            }
            for &(y, l) in self.graph.edges(x, forward) {
                let nls = ls.insert(l);
                if entry_insert(self.labels.list_mut(forward, y), r, nls) {
                    heap.push(Reverse((nls.len(), nls.0, y.0)));
                }
            }
        }
    }

    /// Inserts the labeled edge `u -l-> v`.
    pub fn insert_edge(&mut self, u: VertexId, l: Label, v: VertexId) {
        if !self.graph.insert(u, (v, l)) {
            return;
        }
        for (r, ls) in self.labels.affected_hops(u, true) {
            self.extend_hop(r, v, ls.insert(l), true);
        }
        for (r, ls) in self.labels.affected_hops(v, false) {
            self.extend_hop(r, u, ls.insert(l), false);
        }
    }

    /// Deletes the labeled edge `u -l-> v`, recomputing exactly the
    /// hops whose restricted closure could shrink.
    pub fn delete_edge(&mut self, u: VertexId, l: Label, v: VertexId) {
        if !self.graph.remove(u, (v, l)) {
            return;
        }
        // labels still describe the old graph, so they name the hops
        // the deleted edge may have served
        let fwd = self.labels.affected_hops(u, true);
        let bwd = self.labels.affected_hops(v, false);
        let mut hops: Vec<u32> = fwd.into_iter().chain(bwd).map(HopEntry::hop).collect();
        hops.sort_unstable();
        hops.dedup();
        self.labels.clear_hops(&hops);
        self.rerun_hops(hops);
    }
}

pub(crate) const META: LabeledIndexMeta = LabeledIndexMeta {
    name: "DLCR",
    citation: "[10]",
    framework: LcrFramework::TwoHop,
    constraint: ConstraintClass::Alternation,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::InsertDelete,
};

impl LcrIndex for Dlcr {
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        s == t || self.labels.covers_within(s, t, allowed)
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        self.labels.size_bytes()
    }

    fn size_entries(&self) -> usize {
        self.labels.size_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::lcr_bfs;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures;
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn check_exact(g: &LabeledGraph, idx: &Dlcr) {
        let nl = g.num_labels();
        for s in g.vertices() {
            for t in g.vertices() {
                for mask in 0..(1u64 << nl) {
                    let allowed = LabelSet(mask);
                    assert_eq!(
                        idx.query(s, t, allowed),
                        lcr_bfs(g, s, t, allowed),
                        "at {s:?}->{t:?} under {allowed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        let g = fixtures::figure1b();
        check_exact(&g, &Dlcr::build(&g));
    }

    #[test]
    fn exact_on_random_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(261);
        for _ in 0..3 {
            let g = random_labeled_digraph(22, 60, 3, LabelDistribution::Uniform, &mut rng);
            check_exact(&g, &Dlcr::build(&g));
        }
    }

    #[test]
    fn insertions_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(262);
        let g = random_labeled_digraph(15, 25, 3, LabelDistribution::Uniform, &mut rng);
        let mut idx = Dlcr::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for _ in 0..15 {
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
        let mut rng = SmallRng::seed_from_u64(263);
        let g = random_labeled_digraph(14, 45, 3, LabelDistribution::Uniform, &mut rng);
        let mut idx = Dlcr::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for _ in 0..20 {
            if edges.is_empty() {
                break;
            }
            let i = rng.random_range(0..edges.len());
            let (u, l, v) = edges.swap_remove(i);
            idx.delete_edge(VertexId(u), Label(l), VertexId(v));
            let g2 = LabeledGraph::from_edges(14, 3, &edges);
            check_exact(&g2, &idx);
        }
    }

    #[test]
    fn mixed_updates_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(264);
        let g = random_labeled_digraph(12, 24, 2, LabelDistribution::Uniform, &mut rng);
        let mut idx = Dlcr::build(&g);
        let mut edges: Vec<(u32, u8, u32)> = g.edges().map(|(u, l, v)| (u.0, l.0, v.0)).collect();
        for _ in 0..30 {
            if rng.random_bool(0.5) || edges.is_empty() {
                let u = rng.random_range(0..12u32);
                let mut v = rng.random_range(0..11u32);
                if v >= u {
                    v += 1;
                }
                let l = rng.random_range(0..2u8);
                if !edges.contains(&(u, l, v)) {
                    idx.insert_edge(VertexId(u), Label(l), VertexId(v));
                    edges.push((u, l, v));
                }
            } else {
                let i = rng.random_range(0..edges.len());
                let (u, l, v) = edges.swap_remove(i);
                idx.delete_edge(VertexId(u), Label(l), VertexId(v));
            }
            let g2 = LabeledGraph::from_edges(12, 2, &edges);
            check_exact(&g2, &idx);
        }
    }

    #[test]
    fn duplicate_and_missing_updates_are_noops() {
        let g = fixtures::figure1b();
        let mut idx = Dlcr::build(&g);
        let before = idx.size_entries();
        idx.insert_edge(fixtures::A, fixtures::FRIEND_OF, fixtures::D);
        assert_eq!(idx.size_entries(), before);
        idx.delete_edge(fixtures::B, fixtures::FOLLOWS, fixtures::A);
        check_exact(&g, &idx);
    }
}
