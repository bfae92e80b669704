//! TOL \[55\]: the total-order 2-hop labeling framework, with the TFL
//! \[13\] and DL \[25\] instantiations and dynamic maintenance.
//!
//! §3.2: *"TOL is a general approach for computing the 2-hop index
//! with a total order of vertices as input, and TFL, DL, and PLL are
//! instantiations of TOL."* Every vertex `w` labels exactly its
//! *restricted closure*: the vertices reachable from `w` along paths
//! whose interior vertices all have lower priority than `w`. This is
//! the canonical label set of the total order:
//!
//! * **complete** — for any reachable pair `(s, t)`, the
//!   highest-priority vertex on a witness path appears in
//!   `Lout(s) ∩ Lin(t)`;
//! * **local** — whether `w ∈ Lin(x)` depends only on `w`'s restricted
//!   closure, never on other hops' labels, which is what makes edge
//!   insertions *and* deletions maintainable without cascading
//!   invalidation (the property the TOL paper exploits for its
//!   dynamic-graph support).

use crate::audit::Violation;
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::parallel;
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{Dag, DiGraph, EditGraph, VertexId};

/// The vertex total order a TOL instance is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderStrategy {
    /// Topological order of a DAG — the TFL \[13\] instantiation.
    Topological,
    /// Descending total degree — the DL \[25\] instantiation (the same
    /// order family as PLL \[49\]).
    DegreeDescending,
    /// Ascending vertex id, for ablation baselines.
    ById,
}

/// A TOL index instance.
///
/// ```
/// use reach_core::tol::{OrderStrategy, Tol};
/// use reach_core::ReachIndex;
/// use reach_graph::{DiGraph, VertexId};
///
/// let g = DiGraph::from_edges(3, &[(0, 1)]);
/// let mut tol = Tol::build(&g, OrderStrategy::DegreeDescending, 1);
/// assert!(!tol.query(VertexId(0), VertexId(2)));
///
/// tol.insert_edge(VertexId(1), VertexId(2));
/// assert!(tol.query(VertexId(0), VertexId(2)));
///
/// tol.delete_edge(VertexId(0), VertexId(1));
/// assert!(!tol.query(VertexId(0), VertexId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct Tol {
    // the index owns its graph so updates stay local
    graph: EditGraph,
    /// rank 0 = highest priority
    rank_of: Vec<u32>,
    vertex_at: Vec<VertexId>,
    /// `lin[x]`: sorted ranks of hops whose restricted closure contains `x`.
    lin: Vec<Vec<u32>>,
    /// `lout[x]`: sorted ranks of hops whose restricted *backward*
    /// closure contains `x`.
    lout: Vec<Vec<u32>>,
    meta: IndexMeta,
}

fn order_ranks(g: &DiGraph, strategy: OrderStrategy) -> Vec<VertexId> {
    match strategy {
        OrderStrategy::Topological => {
            unreachable!("topological strategy is built via build_tfl")
        }
        OrderStrategy::DegreeDescending => {
            let mut vs: Vec<VertexId> = g.vertices().collect();
            vs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
            vs
        }
        OrderStrategy::ById => g.vertices().collect(),
    }
}

/// Runs the restricted BFS of every hop rank in `hops`, forward then
/// backward, and passes each `(direction, hop rank, member)` fact to
/// `emit`.
fn restricted_closures(
    g: &DiGraph,
    order: &[VertexId],
    rank_of: &[u32],
    hops: impl Iterator<Item = u32>,
    mut emit: impl FnMut(bool, u32, u32),
) {
    let mut seen = vec![false; g.num_vertices()];
    let mut queue: Vec<VertexId> = Vec::new();
    for r in hops {
        let w = order[r as usize];
        for forward in [true, false] {
            queue.clear();
            queue.push(w);
            seen[w.index()] = true;
            let mut head = 0;
            while head < queue.len() {
                let x = queue[head];
                head += 1;
                emit(forward, r, x.0);
                // interior restriction: only lower-priority vertices may
                // be passed through (the hop itself always expands)
                if x == w || rank_of[x.index()] > r {
                    let adj = if forward {
                        g.out_neighbors(x)
                    } else {
                        g.in_neighbors(x)
                    };
                    for &y in adj {
                        if !seen[y.index()] {
                            seen[y.index()] = true;
                            queue.push(y);
                        }
                    }
                }
            }
            for &x in &queue {
                seen[x.index()] = false;
            }
        }
    }
}

pub(crate) const TOL_META: IndexMeta = IndexMeta {
    name: "TOL",
    citation: "[55]",
    framework: Framework::TwoHop,
    completeness: Completeness::Complete,
    input: InputClass::Dag,
    dynamism: Dynamism::InsertDelete,
};

pub(crate) const TFL_META: IndexMeta = IndexMeta {
    name: "TFL",
    citation: "[13]",
    framework: Framework::TwoHop,
    completeness: Completeness::Complete,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

pub(crate) const DL_META: IndexMeta = IndexMeta {
    name: "DL",
    citation: "[25]",
    framework: Framework::TwoHop,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl Tol {
    /// Builds a TOL index over `g` with an explicit vertex order
    /// (`order[0]` is the highest-priority hop). Hops are independent
    /// (each labels exactly its restricted closure), so they are split
    /// over `threads` threads (see [`crate::parallel`]); the labels are
    /// the same at every thread count.
    pub fn build_with_order(
        g: &DiGraph,
        order: &[VertexId],
        meta: IndexMeta,
        threads: usize,
    ) -> Self {
        assert_eq!(
            order.len(),
            g.num_vertices(),
            "order must cover all vertices"
        );
        let n = g.num_vertices();
        let mut rank_of = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank_of[v.index()] = r as u32;
        }
        // Initial construction appends (hop, member) facts — ~3× faster
        // than the sorted-insertion path, which only the incremental
        // updates need. Hops are visited in ascending rank, so every
        // label list comes out sorted.
        let mut lin: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut lout: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut label = |forward: bool, r: u32, x: u32| {
            let labels = if forward { &mut lin } else { &mut lout };
            labels[x as usize].push(r);
        };
        let workers = threads.clamp(1, n.max(1));
        if workers <= 1 {
            restricted_closures(g, order, &rank_of, 0..n as u32, &mut label);
        } else {
            // Closures shrink steeply with rank, so hops are dealt out
            // round-robin (worker w runs hops w, w + workers, …) rather
            // than in contiguous ranges. Each worker buffers its facts;
            // replaying them hop by hop in rank order keeps every label
            // list sorted.
            let mut dealt = parallel::map_chunks(workers, workers, |w| {
                let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
                let hops = (w.start as u32..n as u32).step_by(workers);
                restricted_closures(g, order, &rank_of, hops, |forward, r, x| {
                    if forward { &mut fwd } else { &mut bwd }.push((r, x))
                });
                (fwd.into_iter().peekable(), bwd.into_iter().peekable())
            });
            for r in 0..n as u32 {
                let (fwd, bwd) = &mut dealt[r as usize % workers];
                while let Some((_, x)) = fwd.next_if(|&(hop, _)| hop == r) {
                    label(true, r, x);
                }
                while let Some((_, x)) = bwd.next_if(|&(hop, _)| hop == r) {
                    label(false, r, x);
                }
            }
        }
        Tol {
            graph: EditGraph::from_graph(g),
            rank_of,
            vertex_at: order.to_vec(),
            lin,
            lout,
            meta,
        }
    }

    /// Builds TOL over a general graph with the given order strategy
    /// (not `Topological`, which needs [`build_tfl`]) on `threads`
    /// threads.
    pub fn build(g: &DiGraph, strategy: OrderStrategy, threads: usize) -> Self {
        assert!(
            strategy != OrderStrategy::Topological,
            "use build_tfl for the topological instantiation"
        );
        let order = order_ranks(g, strategy);
        Tol::build_with_order(g, &order, TOL_META, threads)
    }

    /// Removes every label entry contributed by hop `r`.
    fn clear_hop(&mut self, r: u32) {
        for labels in self.lin.iter_mut().chain(self.lout.iter_mut()) {
            if let Ok(pos) = labels.binary_search(&r) {
                labels.remove(pos);
            }
        }
    }

    /// Inserts the edge `u -> v` and extends the labels of every hop
    /// whose restricted closure can grow through it.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        if !self.graph.insert(u, v) {
            return;
        }
        let mut seen = VisitMap::new(self.rank_of.len());
        for r in self.affected_hops(u, true) {
            self.extend_hop(r, v, true, &mut seen);
        }
        for r in self.affected_hops(v, false) {
            self.extend_hop(r, u, false, &mut seen);
        }
    }

    /// Deletes the edge `u -> v` and recomputes the labels of every hop
    /// whose restricted closure may have shrunk.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) {
        if !self.graph.remove(u, v) {
            return;
        }
        // labels still describe the old graph, so they name the hops
        // the deleted edge may have served
        let mut hops = self.affected_hops(u, true);
        hops.extend(self.affected_hops(v, false));
        hops.sort_unstable();
        hops.dedup();
        for &r in &hops {
            self.clear_hop(r);
        }
        let mut seen = VisitMap::new(self.rank_of.len());
        for r in hops {
            let w = self.vertex_at(r);
            self.extend_hop(r, w, true, &mut seen);
            self.extend_hop(r, w, false, &mut seen);
        }
    }

    /// Hops `w` whose restricted (forward/backward) closure contains
    /// `end` with `end` usable as an interior vertex — exactly the
    /// hops whose closure an edge at `end` can affect.
    fn affected_hops(&self, end: VertexId, forward: bool) -> Vec<u32> {
        let labels = if forward {
            &self.lin[end.index()]
        } else {
            &self.lout[end.index()]
        };
        labels
            .iter()
            .copied()
            .filter(|&r| self.vertex_at[r as usize] == end || self.rank_of[end.index()] > r)
            .collect()
    }

    /// Resumes hop `r`'s restricted BFS from `start`, labeling every
    /// vertex it reaches that `r` does not label yet: after an edge
    /// insertion only the newly reachable vertices, after
    /// [`clear_hop`](Self::clear_hop) from `vertex_at(r)` the whole
    /// closure. `seen` is scratch over all vertices, reset here.
    fn extend_hop(&mut self, r: u32, start: VertexId, forward: bool, seen: &mut VisitMap) {
        let w = self.vertex_at[r as usize];
        let labels = if forward {
            &mut self.lin
        } else {
            &mut self.lout
        };
        seen.reset();
        seen.mark(start, Side::Forward);
        let mut queue = vec![start];
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            match labels[x.index()].binary_search(&r) {
                Ok(_) => continue, // reached the previously-labeled region
                Err(pos) => labels[x.index()].insert(pos, r),
            }
            // interior restriction: only lower-priority vertices may be
            // passed through (the hop itself always expands)
            if x != w && self.rank_of[x.index()] < r {
                continue;
            }
            for &y in self.graph.edges(x, forward) {
                if seen.mark(y, Side::Forward) {
                    queue.push(y);
                }
            }
        }
    }

    /// The rank (priority position) of `v` in the total order.
    pub fn rank_of(&self, v: VertexId) -> u32 {
        self.rank_of[v.index()]
    }

    /// The vertex holding rank `r`.
    pub fn vertex_at(&self, r: u32) -> VertexId {
        self.vertex_at[r as usize]
    }

    /// The in-label of `x` as hop ranks, sorted ascending.
    pub fn lin(&self, x: VertexId) -> &[u32] {
        &self.lin[x.index()]
    }

    /// The out-label of `x` as hop ranks, sorted ascending.
    pub fn lout(&self, x: VertexId) -> &[u32] {
        &self.lout[x.index()]
    }
}

/// Sorted-slice intersection test (the 2-hop query primitive).
pub(crate) fn sorted_intersects(a: &[u32], b: &[u32]) -> bool {
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

impl ReachIndex for Tol {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        s == t || sorted_intersects(&self.lout[s.index()], &self.lin[t.index()])
    }

    fn meta(&self) -> IndexMeta {
        self.meta
    }

    fn size_bytes(&self) -> usize {
        4 * self.size_entries() + 48 * self.lin.len()
    }

    fn size_entries(&self) -> usize {
        self.lin.iter().map(Vec::len).sum::<usize>() + self.lout.iter().map(Vec::len).sum::<usize>()
    }

    /// 2-hop cover validation for the whole TOL family (TOL, TFL,
    /// DL): label order, hub soundness, witness completeness.
    /// `graph` must reflect the index's *current* edge set — after
    /// `insert_edge`/`delete_edge`, validate against the updated
    /// graph, not the one the index was first built on.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let name = self.meta.name;
        let mut out = Vec::new();
        if graph.num_vertices() != self.lin.len() {
            out.push(Violation {
                index: name,
                rule: "graph-mismatch",
                detail: format!(
                    "index covers {} vertices, graph has {}",
                    self.lin.len(),
                    graph.num_vertices()
                ),
            });
            return out;
        }
        crate::audit::check_two_hop_cover(
            name,
            graph,
            |x| self.lout(x),
            |x| self.lin(x),
            |r| self.vertex_at(r),
            &mut out,
        );
        out
    }
}

/// Builds TFL \[13\]: TOL instantiated with the topological order of a
/// DAG, on `threads` threads.
pub fn build_tfl(dag: &Dag, threads: usize) -> Tol {
    Tol::build_with_order(dag.graph(), dag.topo_order(), TFL_META, threads)
}

/// Builds DL \[25\]: TOL instantiated with the degree-descending order,
/// directly on a general graph, on `threads` threads.
pub fn build_dl(g: &DiGraph, threads: usize) -> Tol {
    let order = order_ranks(g, OrderStrategy::DegreeDescending);
    Tol::build_with_order(g, &order, DL_META, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures;
    use reach_graph::generators::{random_dag, random_digraph};

    fn check_exact(g: &DiGraph, tol: &Tol) {
        let tc = TransitiveClosure::build(g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(tol.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn tfl_exact_on_figure1() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let tfl = build_tfl(&dag, 1);
        check_exact(dag.graph(), &tfl);
        assert!(tfl.query(fixtures::A, fixtures::G));
    }

    #[test]
    fn dl_exact_on_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(91);
        for _ in 0..4 {
            let g = random_digraph(50, 140, &mut rng);
            check_exact(&g, &build_dl(&g, 1));
        }
    }

    #[test]
    fn all_orders_give_exact_indexes() {
        let mut rng = SmallRng::seed_from_u64(92);
        let dag = random_dag(70, 180, &mut rng);
        check_exact(dag.graph(), &build_tfl(&dag, 1));
        check_exact(
            dag.graph(),
            &Tol::build(dag.graph(), OrderStrategy::DegreeDescending, 1),
        );
        check_exact(
            dag.graph(),
            &Tol::build(dag.graph(), OrderStrategy::ById, 1),
        );
    }

    #[test]
    fn labels_match_incremental_hops_at_every_thread_count() {
        let mut rng = SmallRng::seed_from_u64(97);
        let g = random_digraph(70, 200, &mut rng);
        let one = build_dl(&g, 1);
        let eight = build_dl(&g, 8);
        // reference: the update path's sorted-insertion BFS, run from
        // each hop over empty labels
        let n = g.num_vertices();
        let mut reference = Tol {
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
            ..one.clone()
        };
        let mut seen = VisitMap::new(n);
        for r in 0..n as u32 {
            let w = reference.vertex_at(r);
            reference.extend_hop(r, w, true, &mut seen);
            reference.extend_hop(r, w, false, &mut seen);
        }
        for x in g.vertices() {
            assert_eq!(one.lin(x), reference.lin(x), "lin({x:?})");
            assert_eq!(one.lout(x), reference.lout(x), "lout({x:?})");
            assert_eq!(eight.lin(x), one.lin(x), "lin({x:?}) at 8 threads");
            assert_eq!(eight.lout(x), one.lout(x), "lout({x:?}) at 8 threads");
        }
        assert_eq!(eight.check_invariants(&g), Vec::new());
    }

    #[test]
    fn labels_are_sound() {
        // w ∈ lin(x) implies w reaches x; w ∈ lout(x) implies x reaches w
        let mut rng = SmallRng::seed_from_u64(93);
        let g = random_digraph(40, 100, &mut rng);
        let tol = build_dl(&g, 1);
        let tc = TransitiveClosure::build(&g);
        for x in g.vertices() {
            for &r in tol.lin(x) {
                assert!(tc.reaches(tol.vertex_at(r), x));
            }
            for &r in tol.lout(x) {
                assert!(tc.reaches(x, tol.vertex_at(r)));
            }
        }
    }

    #[test]
    fn every_vertex_labels_itself() {
        let g = fixtures::figure1a();
        let tol = build_dl(&g, 1);
        for v in g.vertices() {
            let r = tol.rank_of(v);
            assert!(tol.lin(v).contains(&r));
            assert!(tol.lout(v).contains(&r));
        }
    }

    #[test]
    fn insertions_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(94);
        let g = random_digraph(30, 40, &mut rng);
        let mut tol = build_dl(&g, 1);
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..25 {
            let u = rng.random_range(0..30u32);
            let mut v = rng.random_range(0..29u32);
            if v >= u {
                v += 1;
            }
            tol.insert_edge(VertexId(u), VertexId(v));
            if !edges.contains(&(u, v)) {
                edges.push((u, v));
            }
            let g2 = DiGraph::from_edges(30, &edges);
            check_exact(&g2, &tol);
        }
    }

    #[test]
    fn deletions_match_rebuild() {
        let mut rng = SmallRng::seed_from_u64(95);
        let g = random_digraph(25, 90, &mut rng);
        let mut tol = build_dl(&g, 1);
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..30 {
            if edges.is_empty() {
                break;
            }
            let i = rng.random_range(0..edges.len());
            let (u, v) = edges.swap_remove(i);
            tol.delete_edge(VertexId(u), VertexId(v));
            let g2 = DiGraph::from_edges(25, &edges);
            check_exact(&g2, &tol);
        }
    }

    #[test]
    fn mixed_update_workload_matches_rebuild() {
        let mut rng = SmallRng::seed_from_u64(96);
        let g = random_digraph(20, 40, &mut rng);
        let mut tol = Tol::build(&g, OrderStrategy::ById, 1);
        let mut edges: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.0, b.0)).collect();
        for _ in 0..40 {
            if rng.random_bool(0.5) || edges.is_empty() {
                let u = rng.random_range(0..20u32);
                let mut v = rng.random_range(0..19u32);
                if v >= u {
                    v += 1;
                }
                if !edges.contains(&(u, v)) {
                    tol.insert_edge(VertexId(u), VertexId(v));
                    edges.push((u, v));
                }
            } else {
                let i = rng.random_range(0..edges.len());
                let (u, v) = edges.swap_remove(i);
                tol.delete_edge(VertexId(u), VertexId(v));
            }
            let g2 = DiGraph::from_edges(20, &edges);
            check_exact(&g2, &tol);
        }
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let g = fixtures::figure1a();
        let mut tol = build_dl(&g, 1);
        let before = tol.size_entries();
        tol.insert_edge(fixtures::A, fixtures::D); // already present
        assert_eq!(tol.size_entries(), before);
        tol.delete_edge(fixtures::B, fixtures::A); // never existed
        check_exact(&g, &tol);
    }

    #[test]
    fn sorted_intersection_unit() {
        assert!(sorted_intersects(&[1, 3, 5], &[5, 9]));
        assert!(!sorted_intersects(&[1, 3, 5], &[0, 2, 4]));
        assert!(!sorted_intersects(&[], &[1]));
        assert!(sorted_intersects(&[7], &[7]));
    }

    #[test]
    fn insert_into_empty_graph() {
        let g = DiGraph::from_edges(5, &[]);
        let mut tol = Tol::build(&g, OrderStrategy::ById, 1);
        tol.insert_edge(VertexId(0), VertexId(1));
        tol.insert_edge(VertexId(1), VertexId(2));
        assert!(tol.query(VertexId(0), VertexId(2)));
        assert!(!tol.query(VertexId(2), VertexId(0)));
    }
}
