//! DAGGER \[51\]: GRAIL for dynamic graphs.
//!
//! Maintains the `k` GRAIL interval labelings under edge updates by
//! *conservative widening*: an inserted edge `(u, v)` forces `L_v ⊆
//! L_u` along the new edge (and transitively backward), which keeps
//! the labels an over-approximation of reachability — the
//! no-false-negative invariant guided search needs. Deletions leave
//! labels untouched (reachability only shrinks, so the
//! over-approximation stays valid); the intervals merely lose pruning
//! power until [`DynamicGrail::rebuild`] re-tightens them. This is the
//! soundness-first reading of DAGGER's design: the index never answers
//! wrongly, it only degrades toward plain DFS between rebuilds.

use crate::grail::GrailFilter;
use crate::index::{
    Certainty, Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex,
};
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{Dag, DiGraphBuilder, ScratchPool, VertexId};

/// The dynamic GRAIL index.
pub struct DynamicGrail {
    out_adj: Vec<Vec<VertexId>>,
    in_adj: Vec<Vec<VertexId>>,
    /// `k` labelings, each `n` entries of `(low, high)` with the
    /// invariant: `s` reaches `t` ⇒ interval of `t` ⊆ interval of `s`.
    labelings: Vec<Vec<(u32, u32)>>,
    k: usize,
    seed: u64,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    visit: VisitMap,
    stack: Vec<VertexId>,
}

impl DynamicGrail {
    /// Builds the index from a DAG snapshot with `k` labelings.
    pub fn build(dag: &Dag, k: usize, seed: u64) -> Self {
        let filter = GrailFilter::build(dag, k, seed, 1);
        DynamicGrail {
            out_adj: dag
                .vertices()
                .map(|v| dag.out_neighbors(v).to_vec())
                .collect(),
            in_adj: dag
                .vertices()
                .map(|v| dag.in_neighbors(v).to_vec())
                .collect(),
            labelings: filter.into_labelings(),
            k,
            seed,
            scratch: ScratchPool::new(),
        }
    }

    /// Inserts `u -> v`, widening intervals backward from `u` until the
    /// edge-wise containment invariant holds again.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        if self.out_adj[u.index()].contains(&v) {
            return;
        }
        self.out_adj[u.index()].push(v);
        self.in_adj[v.index()].push(u);
        for li in 0..self.labelings.len() {
            let mut queue = vec![u];
            let mut head = 0;
            while head < queue.len() {
                let x = queue[head];
                head += 1;
                let mut widened = false;
                // x must contain the intervals of all its out-neighbors
                let (mut lo, mut hi) = self.labelings[li][x.index()];
                for &y in &self.out_adj[x.index()] {
                    let (ylo, yhi) = self.labelings[li][y.index()];
                    if ylo < lo {
                        lo = ylo;
                        widened = true;
                    }
                    if yhi > hi {
                        hi = yhi;
                        widened = true;
                    }
                }
                if widened || x == u {
                    self.labelings[li][x.index()] = (lo, hi);
                    if widened {
                        for &p in &self.in_adj[x.index()] {
                            queue.push(p);
                        }
                    }
                }
            }
        }
    }

    /// Deletes `u -> v`. Labels are left as a (still sound)
    /// over-approximation; call [`rebuild`](Self::rebuild) to
    /// re-tighten once drift accumulates.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        if let Some(p) = self.out_adj[u.index()].iter().position(|&x| x == v) {
            self.out_adj[u.index()].remove(p);
            let q = self.in_adj[v.index()].iter().position(|&x| x == u).unwrap();
            self.in_adj[v.index()].remove(q);
        }
    }

    /// Recomputes tight labels from the current graph. Returns `false`
    /// (leaving the sound wide labels in place) if updates have made
    /// the graph cyclic.
    pub fn rebuild(&mut self) -> bool {
        let n = self.out_adj.len();
        let mut b = DiGraphBuilder::with_capacity(n, self.out_adj.iter().map(Vec::len).sum());
        for (ui, outs) in self.out_adj.iter().enumerate() {
            for &v in outs {
                b.add_edge(VertexId::new(ui), v);
            }
        }
        match Dag::new(b.build()) {
            Ok(dag) => {
                self.labelings = GrailFilter::build(&dag, self.k, self.seed, 1).into_labelings();
                true
            }
            Err(_) => false,
        }
    }

    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        for labeling in &self.labelings {
            let (ls, hs) = labeling[s.index()];
            let (lt, ht) = labeling[t.index()];
            if !(ls <= lt && ht <= hs) {
                return Certainty::Unreachable;
            }
        }
        Certainty::Unknown
    }

    /// Number of labelings.
    pub fn num_labelings(&self) -> usize {
        self.labelings.len()
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "DAGGER",
    citation: "[51]",
    framework: Framework::TreeCover,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::InsertDelete,
};

impl ReachIndex for DynamicGrail {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        if s == t {
            return true;
        }
        if self.certain(s, t) == Certainty::Unreachable {
            return false;
        }
        let scratch = &mut *self.scratch.checkout(|| Scratch {
            visit: VisitMap::new(self.out_adj.len()),
            stack: Vec::new(),
        });
        scratch.visit.reset();
        scratch.stack.clear();
        scratch.stack.push(s);
        scratch.visit.mark(s, Side::Forward);
        while let Some(x) = scratch.stack.pop() {
            for &y in &self.out_adj[x.index()] {
                if y == t {
                    return true;
                }
                if scratch.visit.mark(y, Side::Forward)
                    && self.certain(y, t) != Certainty::Unreachable
                {
                    scratch.stack.push(y);
                }
            }
        }
        false
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        self.labelings.iter().map(|l| 8 * l.len()).sum()
    }

    fn size_entries(&self) -> usize {
        self.labelings.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures;
    use reach_graph::generators::random_dag;
    use reach_graph::DiGraph;

    fn check_exact(edges: &[(u32, u32)], n: usize, idx: &DynamicGrail) {
        let g = DiGraph::from_edges(n, edges);
        let tc = TransitiveClosure::build(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn static_queries_match_grail() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let idx = DynamicGrail::build(&dag, 2, 5);
        let edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        check_exact(&edges, 9, &idx);
    }

    #[test]
    fn insertions_stay_exact() {
        let mut rng = SmallRng::seed_from_u64(191);
        let dag = random_dag(30, 50, &mut rng);
        let mut idx = DynamicGrail::build(&dag, 2, 7);
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..25 {
            let u = rng.random_range(0..30u32);
            let mut v = rng.random_range(0..29u32);
            if v >= u {
                v += 1;
            }
            idx.insert_edge(VertexId(u), VertexId(v));
            if !edges.contains(&(u, v)) {
                edges.push((u, v));
            }
            check_exact(&edges, 30, &idx);
        }
    }

    #[test]
    fn deletions_stay_exact() {
        let mut rng = SmallRng::seed_from_u64(192);
        let dag = random_dag(30, 90, &mut rng);
        let mut idx = DynamicGrail::build(&dag, 3, 9);
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..30 {
            if edges.is_empty() {
                break;
            }
            let i = rng.random_range(0..edges.len());
            let (u, v) = edges.swap_remove(i);
            idx.delete_edge(VertexId(u), VertexId(v));
            check_exact(&edges, 30, &idx);
        }
    }

    #[test]
    fn cycle_creating_insert_stays_exact() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let dag = Dag::new(g).unwrap();
        let mut idx = DynamicGrail::build(&dag, 2, 3);
        idx.insert_edge(VertexId(3), VertexId(0));
        check_exact(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4, &idx);
        // rebuild must refuse (graph is cyclic) but stay correct
        assert!(!idx.rebuild());
        check_exact(&[(0, 1), (1, 2), (2, 3), (3, 0)], 4, &idx);
    }

    #[test]
    fn rebuild_retightens_after_deletions() {
        let mut rng = SmallRng::seed_from_u64(193);
        let dag = random_dag(40, 120, &mut rng);
        let mut idx = DynamicGrail::build(&dag, 2, 11);
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..40 {
            let i = rng.random_range(0..edges.len());
            let (u, v) = edges.swap_remove(i);
            idx.delete_edge(VertexId(u), VertexId(v));
        }
        assert!(idx.rebuild());
        check_exact(&edges, 40, &idx);
    }

    #[test]
    fn mixed_workload_stays_exact() {
        let mut rng = SmallRng::seed_from_u64(194);
        let dag = random_dag(20, 35, &mut rng);
        let mut idx = DynamicGrail::build(&dag, 2, 13);
        let mut edges: Vec<(u32, u32)> = dag.graph().edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..40 {
            if rng.random_bool(0.6) || edges.is_empty() {
                let u = rng.random_range(0..20u32);
                let mut v = rng.random_range(0..19u32);
                if v >= u {
                    v += 1;
                }
                idx.insert_edge(VertexId(u), VertexId(v));
                if !edges.contains(&(u, v)) {
                    edges.push((u, v));
                }
            } else {
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                idx.delete_edge(VertexId(u), VertexId(v));
            }
            check_exact(&edges, 20, &idx);
        }
    }
}
