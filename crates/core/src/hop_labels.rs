//! The hop-label store shared by every 2-hop index (§3.2, §4.1.3, §4.2).
//!
//! §3.2: *"TFL, DL, and PLL are instantiations of TOL"* — one total
//! order of hubs plus per-vertex `Lin`/`Lout` lists of hub ranks. The
//! labeled 2-hop indexes keep the same lists with a richer entry: P2H+
//! and DLCR attach a path-label set, the RLC index a unit and a phase.
//! [`HopLabels`] holds the order and the lists once for all of them,
//! with their size count, the hop clear of the dynamic indexes and the
//! cover audit. Each index keeps only its builder and its join; the
//! joins live here, next to the layout they read.

use crate::audit::{self, Violation};
use reach_graph::{DiGraph, LabelSet, VertexId};
use std::mem::size_of;

/// One label entry: a hub rank, plus whatever the index attaches.
/// Entries order by hub rank first.
pub trait HopEntry: Copy + Ord {
    /// The hub rank the entry names.
    fn hop(self) -> u32;
}

impl HopEntry for u32 {
    fn hop(self) -> u32 {
        self
    }
}

/// P2H+ and DLCR: `(hub rank, path-label set)`.
impl HopEntry for (u32, LabelSet) {
    fn hop(self) -> u32 {
        self.0
    }
}

/// The RLC index: `(hub rank, unit id, phase)`.
impl HopEntry for (u32, u16, u8) {
    fn hop(self) -> u32 {
        self.0
    }
}

/// The `n` vertices by descending total degree, ties by ascending id:
/// the hub order of PLL, DL, P2H+, DLCR and the RLC index, and the
/// landmark pick of DBL, HL, O'Reach and the landmark LCR index.
pub fn degree_order(n: usize, degree: impl Fn(VertexId) -> usize) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = (0..n).map(VertexId::new).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v.0));
    order
}

/// A total order of hubs: rank 0 is the highest priority.
#[derive(Debug, Clone)]
pub struct HopOrder {
    rank_of: Vec<u32>,
    vertex_at: Vec<VertexId>,
}

impl HopOrder {
    /// The order that gives `order[r]` rank `r`; `order` must be a
    /// permutation of the vertices.
    pub fn new(order: Vec<VertexId>) -> Self {
        let mut rank_of = vec![0u32; order.len()];
        for (r, &v) in order.iter().enumerate() {
            rank_of[v.index()] = r as u32;
        }
        HopOrder {
            rank_of,
            vertex_at: order,
        }
    }

    /// The [`degree_order`] of `n` vertices.
    pub fn by_degree(n: usize, degree: impl Fn(VertexId) -> usize) -> Self {
        Self::new(degree_order(n, degree))
    }

    /// Rank equals vertex id.
    pub fn identity(n: usize) -> Self {
        Self::new((0..n).map(VertexId::new).collect())
    }

    /// The number of vertices ordered.
    pub fn num_vertices(&self) -> usize {
        self.vertex_at.len()
    }

    /// The rank of `v`.
    pub fn rank_of(&self, v: VertexId) -> u32 {
        self.rank_of[v.index()]
    }

    /// The vertex holding rank `r`.
    pub fn vertex_at(&self, r: u32) -> VertexId {
        self.vertex_at[r as usize]
    }

    /// Whether hop `r`'s restricted search may expand from `x`: `x` is
    /// the hop itself or has lower priority (the interior restriction
    /// of DESIGN.md §5a).
    pub fn passes(&self, r: u32, x: VertexId) -> bool {
        self.rank_of[x.index()] >= r
    }
}

/// A total order plus per-vertex `Lin`/`Lout` entry lists, each sorted
/// by hub rank.
#[derive(Debug, Clone)]
pub struct HopLabels<E> {
    order: HopOrder,
    lin: Vec<Vec<E>>,
    lout: Vec<Vec<E>>,
}

impl<E: HopEntry> HopLabels<E> {
    /// Empty labels over `order`.
    pub fn new(order: HopOrder) -> Self {
        let n = order.num_vertices();
        HopLabels {
            order,
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
        }
    }

    /// The hub order.
    pub fn order(&self) -> &HopOrder {
        &self.order
    }

    /// The number of labeled vertices.
    pub fn num_vertices(&self) -> usize {
        self.lin.len()
    }

    /// `Lin(x)`: entries of the hubs that reach `x`.
    pub fn lin(&self, x: VertexId) -> &[E] {
        &self.lin[x.index()]
    }

    /// `Lout(x)`: entries of the hubs that `x` reaches.
    pub fn lout(&self, x: VertexId) -> &[E] {
        &self.lout[x.index()]
    }

    /// `Lin(x)` when `forward`, else `Lout(x)`.
    pub fn list(&self, forward: bool, x: VertexId) -> &[E] {
        if forward {
            self.lin(x)
        } else {
            self.lout(x)
        }
    }

    /// `Lin(x)` when `forward`, else `Lout(x)`, for a builder to edit;
    /// it must keep the list sorted by hub rank.
    pub fn list_mut(&mut self, forward: bool, x: VertexId) -> &mut Vec<E> {
        let side = if forward {
            &mut self.lin
        } else {
            &mut self.lout
        };
        &mut side[x.index()]
    }

    /// Total entries over both sides: the survey's index size.
    pub fn size_entries(&self) -> usize {
        self.lin.iter().chain(&self.lout).map(Vec::len).sum()
    }

    /// Bytes of the entries plus the two list headers per vertex.
    pub fn size_bytes(&self) -> usize {
        size_of::<E>() * self.size_entries() + 2 * size_of::<Vec<E>>() * self.num_vertices()
    }

    /// Removes every entry of the hubs in `hops`, in one pass over the
    /// lists.
    pub fn clear_hops(&mut self, hops: &[u32]) {
        if hops.is_empty() {
            return;
        }
        let mut cleared = vec![0u64; self.num_vertices().div_ceil(64)];
        for &r in hops {
            cleared[r as usize / 64] |= 1 << (r % 64);
        }
        for list in self.lin.iter_mut().chain(&mut self.lout) {
            list.retain(|e| {
                let r = e.hop();
                cleared[r as usize / 64] >> (r % 64) & 1 == 0
            });
        }
    }

    /// The entries of `Lin(end)` (`forward`) or `Lout(end)` whose hub
    /// may pass through `end`: exactly the hubs whose restricted
    /// closure an edge at `end` can change.
    pub fn affected_hops(&self, end: VertexId, forward: bool) -> Vec<E> {
        self.list(forward, end)
            .iter()
            .copied()
            .filter(|e| self.order.passes(e.hop(), end))
            .collect()
    }

    /// Sorts every list and drops repeated entries, for builders that
    /// append out of rank order.
    pub fn sort_and_dedup(&mut self) {
        for list in self.lin.iter_mut().chain(&mut self.lout) {
            list.sort_unstable();
            list.dedup();
        }
    }
}

impl HopLabels<u32> {
    /// Whether `Lout(s)` and `Lin(t)` share a hub: the plain 2-hop join,
    /// without the `s == t` shortcut.
    pub fn covers(&self, s: VertexId, t: VertexId) -> bool {
        sorted_intersects(self.lout(s), self.lin(t))
    }

    /// The 2-hop cover audit — strictly sorted lists, sound hubs and a
    /// complete cover — under the index name `name`. `graph` must be
    /// the graph the labels describe now.
    pub(crate) fn check_cover(&self, name: &'static str, graph: &DiGraph) -> Vec<Violation> {
        if let Some(v) = audit::graph_mismatch(name, "index", self.num_vertices(), graph) {
            return vec![v];
        }
        let mut out = Vec::new();
        audit::check_two_hop_cover(name, graph, self, &mut out);
        out
    }
}

impl HopLabels<(u32, LabelSet)> {
    /// Whether a common hub of `Lout(s)` and `Lin(t)` has label sets
    /// whose union fits in `allowed`, without the `s == t` shortcut.
    pub fn covers_within(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        entries_join(self.lout(s), self.lin(t), allowed)
    }
}

impl HopLabels<(u32, u16, u8)> {
    /// Whether `Lout(s)` and `Lin(t)` share a `(hub, unit, phase)`
    /// entry for unit `uid`, without the `s == t` shortcut.
    pub fn covers_unit(&self, s: VertexId, t: VertexId, uid: u16) -> bool {
        let (lout, lin) = (self.lout(s), self.lin(t));
        let (mut i, mut j) = (0, 0);
        while i < lout.len() && j < lin.len() {
            // compare on the full (rank, unit, phase) key but only
            // accept matches for the queried unit
            match lout[i].cmp(&lin[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal if lout[i].1 == uid => return true,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        false
    }
}

/// Sorted-slice intersection test (the plain 2-hop join).
fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Tests whether `lout_s` and `lin_t` share a hop whose combined label
/// sets fit inside `allowed`. Both lists are sorted by rank.
fn entries_join(lout_s: &[(u32, LabelSet)], lin_t: &[(u32, LabelSet)], allowed: LabelSet) -> bool {
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

/// Drops from `Lin` the first entry whose pair `(hub, x)` no other
/// common hub covers, and returns `(x, rank)`: a label damage the
/// cover audit must report.
#[cfg(test)]
pub(crate) fn drop_a_needed_lin_entry(labels: &mut HopLabels<u32>) -> (VertexId, u32) {
    for x in (0..labels.num_vertices()).map(VertexId::new) {
        for i in 0..labels.lin(x).len() {
            let r = labels.lin(x)[i];
            let hub = labels.order().vertex_at(r);
            let removed = labels.list_mut(true, x).remove(i);
            if hub != x && !labels.covers(hub, x) {
                return (x, r);
            }
            labels.list_mut(true, x).insert(i, removed);
        }
    }
    panic!("every lin entry is redundant");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Random lists over `n` hubs: each side of each vertex gets every
    /// rank with probability 1/3, up to `per_rank` entries per rank.
    fn random_labels<E: HopEntry>(
        n: usize,
        rng: &mut SmallRng,
        mut entry: impl FnMut(u32, &mut SmallRng) -> E,
        per_rank: usize,
    ) -> HopLabels<E> {
        let mut order: Vec<VertexId> = (0..n).map(VertexId::new).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut labels = HopLabels::new(HopOrder::new(order));
        for x in (0..n).map(VertexId::new) {
            for forward in [true, false] {
                for r in 0..n as u32 {
                    if rng.random_range(0..3) == 0 {
                        for _ in 0..rng.random_range(1..=per_rank) {
                            let e = entry(r, rng);
                            labels.list_mut(forward, x).push(e);
                        }
                    }
                }
            }
        }
        labels
    }

    fn random_hops(n: usize, rng: &mut SmallRng) -> Vec<u32> {
        let mut hops: Vec<u32> = (0..rng.random_range(0..8))
            .map(|_| rng.random_range(0..n as u32))
            .collect();
        hops.sort_unstable();
        hops.dedup();
        hops
    }

    #[test]
    fn clear_hops_equals_per_hop_removal() {
        let mut rng = SmallRng::seed_from_u64(41);
        for n in [1, 7, 64, 65, 130] {
            let labels = random_labels(n, &mut rng, |r, _| r, 1);
            let hops = random_hops(n, &mut rng);
            let mut one_pass = labels.clone();
            one_pass.clear_hops(&hops);
            // oracle: TOL's former per-hop clear, a binary search in
            // every list for every hop
            let mut oracle = labels;
            for &r in &hops {
                for list in oracle.lin.iter_mut().chain(oracle.lout.iter_mut()) {
                    if let Ok(pos) = list.binary_search(&r) {
                        list.remove(pos);
                    }
                }
            }
            assert_eq!(one_pass.lin, oracle.lin, "n = {n}, hops {hops:?}");
            assert_eq!(one_pass.lout, oracle.lout, "n = {n}, hops {hops:?}");
        }
        // several entries per rank: DLCR's former per-hop retain
        let labels = random_labels(
            70,
            &mut rng,
            |r, rng| (r, LabelSet(rng.random_range(0..256))),
            3,
        );
        let hops = random_hops(70, &mut rng);
        let mut one_pass = labels.clone();
        one_pass.clear_hops(&hops);
        let mut oracle = labels;
        for &r in &hops {
            for list in oracle.lin.iter_mut().chain(oracle.lout.iter_mut()) {
                list.retain(|&(er, _)| er != r);
            }
        }
        assert_eq!(one_pass.lin, oracle.lin);
        assert_eq!(one_pass.lout, oracle.lout);
    }

    #[test]
    fn affected_hops_equals_brute_force_filter() {
        let mut rng = SmallRng::seed_from_u64(42);
        let labels = random_labels(
            90,
            &mut rng,
            |r, rng| (r, LabelSet(rng.random_range(0..256))),
            2,
        );
        for end in (0..90).map(VertexId::new) {
            for forward in [true, false] {
                let brute: Vec<(u32, LabelSet)> = labels
                    .list(forward, end)
                    .iter()
                    .copied()
                    .filter(|&(r, _)| {
                        labels.order().vertex_at(r) == end || labels.order().rank_of(end) > r
                    })
                    .collect();
                assert_eq!(labels.affected_hops(end, forward), brute, "{end:?}");
            }
        }
    }

    #[test]
    fn size_bytes_counts_entries_and_two_headers_per_vertex() {
        fn check<E: HopEntry>(labels: &HopLabels<E>) {
            let expect = size_of::<E>() * labels.size_entries()
                + 2 * size_of::<Vec<E>>() * labels.num_vertices();
            assert_eq!(labels.size_bytes(), expect);
        }
        let mut rng = SmallRng::seed_from_u64(43);
        let plain = random_labels(40, &mut rng, |r, _| r, 1);
        check(&plain);
        // the plain layout's figure: 4 B per entry, 48 B per vertex
        assert_eq!(plain.size_bytes(), 4 * plain.size_entries() + 48 * 40);
        check(&random_labels(40, &mut rng, |r, _| (r, LabelSet(1)), 2));
        check(&random_labels(40, &mut rng, |r, _| (r, 1u16, 0u8), 2));
        assert_eq!(size_of::<(u32, LabelSet)>(), 16);
        assert_eq!(size_of::<(u32, u16, u8)>(), 8);
    }

    #[test]
    fn degree_order_breaks_ties_by_id() {
        let degree = [1, 3, 3, 0, 1];
        let order = degree_order(5, |v| degree[v.index()]);
        assert_eq!(order, [1, 2, 0, 4, 3].map(VertexId));
        let order = HopOrder::new(order);
        assert_eq!(order.rank_of(VertexId(0)), 2);
        assert_eq!(order.vertex_at(4), VertexId(3));
        assert!(order.passes(2, VertexId(0)) && order.passes(1, VertexId(0)));
        assert!(!order.passes(3, VertexId(0)));
    }

    #[test]
    fn sorted_intersection_unit() {
        assert!(sorted_intersects(&[1, 3, 5], &[5, 9]));
        assert!(!sorted_intersects(&[1, 3, 5], &[0, 2, 4]));
        assert!(!sorted_intersects(&[], &[1]));
        assert!(sorted_intersects(&[7], &[7]));
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

    #[test]
    fn unit_join_accepts_only_the_queried_unit() {
        let mut labels = HopLabels::new(HopOrder::identity(2));
        let (s, t) = (VertexId(0), VertexId(1));
        labels.list_mut(false, s).extend([(0, 1, 0), (1, 2, 1)]);
        labels.list_mut(true, t).extend([(0, 1, 1), (1, 2, 1)]);
        assert!(labels.covers_unit(s, t, 2));
        assert!(!labels.covers_unit(s, t, 1), "phase differs at hub 0");
        assert!(!labels.covers_unit(t, s, 2));
    }

    #[test]
    fn cover_audit_guards_the_vertex_count() {
        let labels: HopLabels<u32> = HopLabels::new(HopOrder::identity(3));
        let v = labels.check_cover("X", &DiGraph::from_edges(4, &[]));
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].index, v[0].rule), ("X", "graph-mismatch"));
    }
}
