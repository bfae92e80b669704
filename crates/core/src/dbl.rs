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

use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{DiGraph, ScratchPool, VertexId};

/// The DBL index. Owns a mutable copy of the graph so that
/// [`insert_edge`](Self::insert_edge) is self-contained.
pub struct Dbl {
    out_adj: Vec<Vec<VertexId>>,
    in_adj: Vec<Vec<VertexId>>,
    /// vertex -> landmark slot (u8::MAX if not a landmark)
    landmark_slot: Vec<u8>,
    dl_in: Vec<u64>,
    dl_out: Vec<u64>,
    bl_in: Vec<u32>,
    bl_out: Vec<u32>,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    stack: Vec<VertexId>,
    visit: VisitMap,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl Dbl {
    /// Builds the index: the 64 highest-degree vertices become
    /// landmarks, BL sketches are computed to fixpoint.
    pub fn build(g: &DiGraph) -> Self {
        let n = g.num_vertices();
        let mut by_degree: Vec<VertexId> = g.vertices().collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        let landmarks: Vec<VertexId> = by_degree.into_iter().take(64).collect();
        let mut landmark_slot = vec![u8::MAX; n];
        for (i, &v) in landmarks.iter().enumerate() {
            landmark_slot[v.index()] = i as u8;
        }

        let mut dbl = Dbl {
            out_adj: g.vertices().map(|v| g.out_neighbors(v).to_vec()).collect(),
            in_adj: g.vertices().map(|v| g.in_neighbors(v).to_vec()).collect(),
            landmark_slot,
            dl_in: vec![0; n],
            dl_out: vec![0; n],
            bl_in: (0..n).map(|i| 1u32 << (splitmix(i as u64) % 32)).collect(),
            bl_out: (0..n).map(|i| 1u32 << (splitmix(i as u64) % 32)).collect(),
            scratch: ScratchPool::new(),
        };
        // landmark reach sets by BFS
        for (i, &lm) in landmarks.iter().enumerate() {
            dbl.mark_closure(lm, 1u64 << i, true);
            dbl.mark_closure(lm, 1u64 << i, false);
        }
        // BL sketches to fixpoint (handles cycles)
        dbl.bl_fixpoint();
        dbl
    }

    fn mark_closure(&mut self, from: VertexId, bit: u64, forward: bool) {
        let mut queue = vec![from];
        let dl = if forward {
            &mut self.dl_in
        } else {
            &mut self.dl_out
        };
        dl[from.index()] |= bit;
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            let adj = if forward {
                &self.out_adj[x.index()]
            } else {
                &self.in_adj[x.index()]
            };
            let dl = if forward {
                &mut self.dl_in
            } else {
                &mut self.dl_out
            };
            for &y in adj {
                if dl[y.index()] & bit == 0 {
                    dl[y.index()] |= bit;
                    queue.push(y);
                }
            }
        }
    }

    fn bl_fixpoint(&mut self) {
        // worklist: bl_out flows backward over edges, bl_in forward
        let n = self.out_adj.len();
        let mut queue: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        let mut queued = vec![true; n];
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            queued[x.index()] = false;
            let mut acc = self.bl_out[x.index()];
            for &y in &self.out_adj[x.index()] {
                acc |= self.bl_out[y.index()];
            }
            if acc != self.bl_out[x.index()] {
                self.bl_out[x.index()] = acc;
                for &p in &self.in_adj[x.index()] {
                    if !queued[p.index()] {
                        queued[p.index()] = true;
                        queue.push(p);
                    }
                }
            }
        }
        let mut queue: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        let mut queued = vec![true; n];
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            queued[x.index()] = false;
            let mut acc = self.bl_in[x.index()];
            for &y in &self.in_adj[x.index()] {
                acc |= self.bl_in[y.index()];
            }
            if acc != self.bl_in[x.index()] {
                self.bl_in[x.index()] = acc;
                for &p in &self.out_adj[x.index()] {
                    if !queued[p.index()] {
                        queued[p.index()] = true;
                        queue.push(p);
                    }
                }
            }
        }
    }

    /// Inserts the edge `u -> v`, growing all four label families
    /// monotonically (the insertion-only regime DBL targets).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        if self.out_adj[u.index()].contains(&v) {
            return;
        }
        self.out_adj[u.index()].push(v);
        self.in_adj[v.index()].push(u);
        // landmarks reaching u now reach closure(v)
        let bits = self.dl_in[u.index()];
        if bits != 0 {
            self.propagate_dl(v, bits, true);
        }
        let bits = self.dl_out[v.index()];
        if bits != 0 {
            self.propagate_dl(u, bits, false);
        }
        // BL: re-establish the edge-wise subset invariant
        self.propagate_bl(u, self.bl_out[v.index()], true);
        self.propagate_bl(v, self.bl_in[u.index()], false);
    }

    fn propagate_dl(&mut self, start: VertexId, bits: u64, forward: bool) {
        let mut queue = vec![start];
        {
            let dl = if forward {
                &mut self.dl_in
            } else {
                &mut self.dl_out
            };
            if dl[start.index()] | bits == dl[start.index()] {
                return;
            }
            dl[start.index()] |= bits;
        }
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            let adj = if forward {
                &self.out_adj[x.index()]
            } else {
                &self.in_adj[x.index()]
            };
            let dl = if forward {
                &mut self.dl_in
            } else {
                &mut self.dl_out
            };
            for &y in adj {
                if dl[y.index()] | bits != dl[y.index()] {
                    dl[y.index()] |= bits;
                    queue.push(y);
                }
            }
        }
    }

    fn propagate_bl(&mut self, start: VertexId, bits: u32, out_side: bool) {
        let mut queue = vec![start];
        {
            let bl = if out_side {
                &mut self.bl_out
            } else {
                &mut self.bl_in
            };
            if bl[start.index()] | bits == bl[start.index()] {
                return;
            }
            bl[start.index()] |= bits;
        }
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            // bl_out flows backward (predecessors absorb), bl_in forward
            let adj = if out_side {
                &self.in_adj[x.index()]
            } else {
                &self.out_adj[x.index()]
            };
            let bl = if out_side {
                &mut self.bl_out
            } else {
                &mut self.bl_in
            };
            let grown = bl[x.index()];
            for &y in adj {
                if bl[y.index()] | grown != bl[y.index()] {
                    bl[y.index()] |= grown;
                    queue.push(y);
                }
            }
        }
    }

    /// One label-only lookup: `Some(true)` / `Some(false)` are
    /// definite, `None` means the labels cannot decide.
    pub fn lookup(&self, s: VertexId, t: VertexId) -> Option<bool> {
        if s == t {
            return Some(true);
        }
        if self.dl_out[s.index()] & self.dl_in[t.index()] != 0 {
            return Some(true);
        }
        if self.bl_out[t.index()] & !self.bl_out[s.index()] != 0 {
            return Some(false);
        }
        if self.bl_in[s.index()] & !self.bl_in[t.index()] != 0 {
            return Some(false);
        }
        None
    }

    /// Number of landmarks in use.
    pub fn num_landmarks(&self) -> usize {
        self.landmark_slot.iter().filter(|&&s| s != u8::MAX).count()
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "DBL",
    citation: "[29]",
    framework: Framework::TwoHop,
    completeness: Completeness::Partial,
    input: InputClass::General,
    dynamism: Dynamism::InsertOnly,
};

impl ReachIndex for Dbl {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        match self.lookup(s, t) {
            Some(answer) => answer,
            None => {
                // pruned DFS over the stored adjacency
                let scratch = &mut *self.scratch.checkout(|| Scratch {
                    stack: Vec::new(),
                    visit: VisitMap::new(self.out_adj.len()),
                });
                scratch.stack.clear();
                scratch.visit.reset();
                scratch.stack.push(s);
                scratch.visit.mark(s, Side::Forward);
                while let Some(x) = scratch.stack.pop() {
                    for &y in &self.out_adj[x.index()] {
                        if y == t {
                            return true;
                        }
                        if !scratch.visit.mark(y, Side::Forward) {
                            continue;
                        }
                        match self.lookup(y, t) {
                            Some(true) => return true,
                            Some(false) => {}
                            None => scratch.stack.push(y),
                        }
                    }
                }
                false
            }
        }
    }

    fn meta(&self) -> IndexMeta {
        META
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
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures;
    use reach_graph::generators::random_digraph;

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
                if let Some(ans) = dbl.lookup(s, t) {
                    decided += 1;
                    assert_eq!(ans, tc.reaches(s, t), "lookup wrong at {s:?}->{t:?}");
                }
            }
        }
        assert!(decided > 0, "labels should decide at least some pairs");
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
        assert_eq!(dbl.num_landmarks(), 64);
        let small = DiGraph::from_edges(5, &[(0, 1)]);
        assert_eq!(Dbl::build(&small).num_landmarks(), 5);
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
