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
use reach_graph::{LabelSet, LabeledGraph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One label entry: `(hop rank, path-label set)`.
pub(crate) type LabelEntry = (u32, LabelSet);

/// Tests whether `lout_s` and `lin_t` share a hop whose combined label
/// sets fit inside `allowed`. Both lists are sorted by rank.
pub(crate) fn entries_join(lout_s: &[LabelEntry], lin_t: &[LabelEntry], allowed: LabelSet) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < lout_s.len() && j < lin_t.len() {
        let (ri, _) = lout_s[i];
        let (rj, _) = lin_t[j];
        match ri.cmp(&rj) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = lout_s[i..].iter().take_while(|&&(r, _)| r == ri).count() + i;
                let j_end = lin_t[j..].iter().take_while(|&&(r, _)| r == ri).count() + j;
                for &(_, s1) in &lout_s[i..i_end] {
                    if !s1.is_subset_of(allowed) {
                        continue;
                    }
                    for &(_, s2) in &lin_t[j..j_end] {
                        if s1.union(s2).is_subset_of(allowed) {
                            return true;
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    false
}

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
    rank_of: Vec<u32>,
    lin: Vec<Vec<LabelEntry>>,
    lout: Vec<Vec<LabelEntry>>,
}

impl P2hPlus {
    /// Builds the index with the degree-descending hop order.
    pub fn build(g: &LabeledGraph) -> Self {
        let n = g.num_vertices();
        let mut order: Vec<VertexId> = g.vertices().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        let mut rank_of = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank_of[v.index()] = r as u32;
        }
        let mut idx = P2hPlus {
            rank_of,
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
        };
        for (r, &w) in order.iter().enumerate() {
            idx.labeled_bfs(g, w, r as u32, true);
            idx.labeled_bfs(g, w, r as u32, false);
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
            let table = if forward { &self.lin } else { &self.lout };
            if !entry_present(&table[x.index()], r, ls) {
                continue; // evicted by a smaller set
            }
            if forward {
                for (y, l) in g.out_edges(x) {
                    let nls = ls.insert(l);
                    if self.try_add(w, y, r, nls, true) {
                        heap.push(Reverse((nls.len(), nls.0, y.0)));
                    }
                }
            } else {
                for (y, l) in g.in_edges(x) {
                    let nls = ls.insert(l);
                    if self.try_add(w, y, r, nls, false) {
                        heap.push(Reverse((nls.len(), nls.0, y.0)));
                    }
                }
            }
        }
    }

    /// Attempts to record that hop `w` (rank `r`) reaches `x` (forward)
    /// or is reached from `x` (backward) under label set `ls`.
    fn try_add(&mut self, w: VertexId, x: VertexId, r: u32, ls: LabelSet, forward: bool) -> bool {
        // redundancy pruning: covered by higher-priority hops already
        let covered = if forward {
            entries_join(&self.lout[w.index()], &self.lin[x.index()], ls)
        } else {
            entries_join(&self.lout[x.index()], &self.lin[w.index()], ls)
        };
        if covered {
            return false;
        }
        let table = if forward {
            &mut self.lin
        } else {
            &mut self.lout
        };
        entry_insert(&mut table[x.index()], r, ls)
    }

    /// The in-entries of `x` (sorted by rank).
    pub fn lin(&self, x: VertexId) -> &[LabelEntry] {
        &self.lin[x.index()]
    }

    /// The out-entries of `x` (sorted by rank).
    pub fn lout(&self, x: VertexId) -> &[LabelEntry] {
        &self.lout[x.index()]
    }

    /// The priority rank of `v`.
    pub fn rank_of(&self, v: VertexId) -> u32 {
        self.rank_of[v.index()]
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
        s == t || entries_join(&self.lout[s.index()], &self.lin[t.index()], allowed)
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        12 * self.size_entries() + 48 * self.lin.len()
    }

    fn size_entries(&self) -> usize {
        self.lin.iter().map(Vec::len).sum::<usize>() + self.lout.iter().map(Vec::len).sum::<usize>()
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
            for entries in [idx.lin(x), idx.lout(x)] {
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

    #[test]
    fn entries_join_unit() {
        let lout = vec![(1u32, LabelSet(0b01)), (3, LabelSet(0b10))];
        let lin = vec![(2u32, LabelSet(0b01)), (3, LabelSet(0b01))];
        assert!(entries_join(&lout, &lin, LabelSet(0b11)));
        assert!(
            !entries_join(&lout, &lin, LabelSet(0b01)),
            "rank 3 needs both bits"
        );
        assert!(!entries_join(&lout, &[], LabelSet(0b11)));
    }
}
