//! P2H+ \[33\]: 2-hop labeling with sufficient path-label sets (§4.1.3).
//!
//! The 2-hop framework carries over to LCR queries by attaching an
//! SPLS to every label entry: `(h, S) ∈ Lout(s)` certifies an `s → h`
//! path with label set `S`, and a query `Qr(s, t, α)` succeeds iff a
//! common hop has `S1 ∪ S2 ⊆ α`. Hops are processed in
//! degree-descending order; each hop's label-BFS expands states in
//! ascending label-set size (the paper's prioritization of edges whose
//! labels are already present) and prunes states already covered by
//! higher-priority hops, so the index contains no redundancy.

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use reach_core::hop_labels::{HopLabels, HopOrder};
use reach_graph::{LabelSet, LabeledGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One label entry: `(hop rank, path-label set)`.
pub(crate) type LabelEntry = (u32, LabelSet);

/// Inserts `(rank, ls)` into a sorted entry list unless a same-rank
/// entry already dominates it; evicts dominated same-rank entries.
/// Returns `true` if inserted.
pub(crate) fn entry_insert(entries: &mut Vec<LabelEntry>, rank: u32, ls: LabelSet) -> bool {
    let seg_start = entries.partition_point(|&(r, _)| r < rank);
    let seg_end = entries.partition_point(|&(r, _)| r <= rank);
    for &(_, existing) in &entries[seg_start..seg_end] {
        if existing.is_subset_of(ls) {
            return false;
        }
    }
    let mut w = seg_start;
    for i in seg_start..seg_end {
        if !ls.is_subset_of(entries[i].1) {
            entries[w] = entries[i];
            w += 1;
        }
    }
    entries.drain(w..seg_end);
    entries.insert(w, (rank, ls));
    true
}

/// Whether `(rank, ls)` is currently present verbatim.
pub(crate) fn entry_present(entries: &[LabelEntry], rank: u32, ls: LabelSet) -> bool {
    let seg = entries.partition_point(|&(r, _)| r < rank);
    entries[seg..]
        .iter()
        .take_while(|&&(r, _)| r == rank)
        .any(|&(_, s)| s == ls)
}

/// The P2H+ index.
///
/// ```
/// use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};
/// use reach_labeled::p2h::P2hPlus;
/// use reach_labeled::LcrIndex;
///
/// // 0 -a-> 1 -b-> 2
/// let g = LabeledGraph::from_edges(3, 2, &[(0, 0, 1), (1, 1, 2)]);
/// let idx = P2hPlus::build(&g);
/// assert!(idx.query(VertexId(0), VertexId(2), LabelSet::full(2)));
/// assert!(!idx.query(VertexId(0), VertexId(2), LabelSet::singleton(Label(0))));
/// ```
pub struct P2hPlus {
    labels: HopLabels<LabelEntry>,
}

impl P2hPlus {
    /// Builds the index with the degree-descending hop order.
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_vertices();
        let mut idx = P2hPlus {
            labels: HopLabels::new(HopOrder::by_degree(n, |v| g.degree(v))),
        };
        for r in 0..n as u32 {
            let w = idx.labels.order().vertex_at(r);
            idx.labeled_bfs(g, w, r, true);
            idx.labeled_bfs(g, w, r, false);
        }
        idx
    }

    fn labeled_bfs(&mut self, g: &LabeledGraph, w: VertexId, r: u32, forward: bool) {
        let mut heap: BinaryHeap<Reverse<(usize, u64, u32)>> = BinaryHeap::new();
        if self.try_add(w, w, r, LabelSet::EMPTY, forward) {
            heap.push(Reverse((0, 0, w.0)));
        }
        while let Some(Reverse((_, bits, x))) = heap.pop() {
            let x = VertexId(x);
            let ls = LabelSet(bits);
            if !entry_present(self.labels.list(forward, x), r, ls) {
                continue; // evicted by a smaller set
            }
            for (y, l) in g.adjacent(x, forward) {
                let nls = ls.insert(l);
                if self.try_add(w, y, r, nls, forward) {
                    heap.push(Reverse((nls.len(), nls.0, y.0)));
                }
            }
        }
    }

    /// Attempts to record that hop `w` (rank `r`) reaches `x` (forward)
    /// or is reached from `x` (backward) under label set `ls`.
    fn try_add(&mut self, w: VertexId, x: VertexId, r: u32, ls: LabelSet, forward: bool) -> bool {
        // redundancy pruning: covered by higher-priority hops already
        let covered = if forward {
            self.labels.covers_within(w, x, ls)
        } else {
            self.labels.covers_within(x, w, ls)
        };
        !covered && entry_insert(self.labels.list_mut(forward, x), r, ls)
    }
}

pub(crate) const META: LabeledIndexMeta = LabeledIndexMeta {
    name: "P2H+",
    citation: "[33]",
    framework: LcrFramework::TwoHop,
    constraint: ConstraintClass::Alternation,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl LcrIndex for P2hPlus {
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
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn check_exact(g: &LabeledGraph) {
        let idx = P2hPlus::build(g);
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
        check_exact(&fixtures::figure1b());
    }

    #[test]
    fn paper_claims_hold() {
        let g = fixtures::figure1b();
        let idx = P2hPlus::build(&g);
        assert!(!idx.query(
            fixtures::A,
            fixtures::G,
            LabelSet::from_labels([fixtures::FRIEND_OF, fixtures::FOLLOWS])
        ));
        assert!(idx.query(
            fixtures::L,
            fixtures::M,
            LabelSet::singleton(fixtures::WORKS_FOR)
        ));
    }

    #[test]
    fn exact_on_random_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(251);
        for _ in 0..4 {
            check_exact(&random_labeled_digraph(
                25,
                70,
                3,
                LabelDistribution::Uniform,
                &mut rng,
            ));
        }
    }

    #[test]
    fn exact_on_denser_alphabets() {
        let mut rng = SmallRng::seed_from_u64(252);
        check_exact(&random_labeled_digraph(
            18,
            60,
            5,
            LabelDistribution::Zipf,
            &mut rng,
        ));
    }

    #[test]
    fn entries_are_rank_sorted_antichains() {
        let mut rng = SmallRng::seed_from_u64(253);
        let g = random_labeled_digraph(30, 90, 3, LabelDistribution::Uniform, &mut rng);
        let idx = P2hPlus::build(&g);
        for x in g.vertices() {
            for entries in [idx.labels.lin(x), idx.labels.lout(x)] {
                assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0), "rank sorted");
                for (i, &(ri, si)) in entries.iter().enumerate() {
                    for (j, &(rj, sj)) in entries.iter().enumerate() {
                        if i != j && ri == rj {
                            assert!(!si.is_subset_of(sj), "antichain per rank");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn entry_insert_unit() {
        let mut e: Vec<LabelEntry> = Vec::new();
        assert!(entry_insert(&mut e, 1, LabelSet(0b11)));
        assert!(!entry_insert(&mut e, 1, LabelSet(0b111)), "dominated");
        assert!(entry_insert(&mut e, 1, LabelSet(0b01)), "evicts superset");
        assert_eq!(e, vec![(1, LabelSet(0b01))]);
        assert!(entry_insert(&mut e, 0, LabelSet(0b10)));
        assert_eq!(e[0].0, 0, "sorted by rank");
    }
}
