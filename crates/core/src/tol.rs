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
use crate::hop_labels::{HopLabels, HopOrder};
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::parallel;
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{Dag, DiGraph, EditGraph, Successors, VertexId};

/// The vertex total order [`Tol::build`] uses; TFL's topological order
/// goes through [`build_tfl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderStrategy {
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
    /// `lin[x]`: ranks of hops whose restricted closure contains `x`;
    /// `lout[x]`: ranks of hops whose restricted *backward* closure
    /// contains `x`.
    labels: HopLabels<u32>,
    meta: IndexMeta,
}

/// Runs the restricted BFS of every hop rank in `hops`, forward then
/// backward, and passes each `(direction, hop rank, member)` fact to
/// `emit`.
fn restricted_closures(
    g: &DiGraph,
    order: &HopOrder,
    hops: impl Iterator<Item = u32>,
    mut emit: impl FnMut(bool, u32, VertexId),
) {
    let mut seen = vec![false; g.num_vertices()];
    let mut queue: Vec<VertexId> = Vec::new();
    for r in hops {
        let w = order.vertex_at(r);
        for forward in [true, false] {
            queue.clear();
            queue.push(w);
            seen[w.index()] = true;
            let mut head = 0;
            while head < queue.len() {
                let x = queue[head];
                head += 1;
                emit(forward, r, x);
                // interior restriction: only lower-priority vertices may
                // be passed through (the hop itself always expands)
                if order.passes(r, x) {
                    let adj = g.neighbors(x, forward);
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
    /// (rank 0 is the highest-priority hop). Hops are independent
    /// (each labels exactly its restricted closure), so they are split
    /// over `threads` threads (see [`crate::parallel`]); the labels are
    /// the same at every thread count.
    pub fn build_with_order(g: &DiGraph, order: HopOrder, meta: IndexMeta, threads: usize) -> Self {
        assert_eq!(
            order.num_vertices(),
            g.num_vertices(),
            "order must cover all vertices"
        );
        let n = g.num_vertices();
        // Initial construction appends (hop, member) facts — ~3× faster
        // than the sorted-insertion path, which only the incremental
        // updates need. Hops are visited in ascending rank, so every
        // label list comes out sorted.
        let mut labels = HopLabels::new(order.clone());
        let workers = threads.clamp(1, n.max(1));
        if workers <= 1 {
            restricted_closures(g, &order, 0..n as u32, |forward, r, x| {
                labels.list_mut(forward, x).push(r)
            });
        } else {
            // Closures shrink steeply with rank, so hops are dealt out
            // round-robin (worker w runs hops w, w + workers, …) rather
            // than in contiguous ranges. Each worker buffers its facts;
            // replaying them hop by hop in rank order keeps every label
            // list sorted.
            let mut dealt = parallel::map_chunks(workers, workers, |w| {
                let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
                let hops = (w.start as u32..n as u32).step_by(workers);
                restricted_closures(g, &order, hops, |forward, r, x| {
                    if forward { &mut fwd } else { &mut bwd }.push((r, x))
                });
                (fwd.into_iter().peekable(), bwd.into_iter().peekable())
            });
            for r in 0..n as u32 {
                let (fwd, bwd) = &mut dealt[r as usize % workers];
                while let Some((_, x)) = fwd.next_if(|&(hop, _)| hop == r) {
                    labels.list_mut(true, x).push(r);
                }
                while let Some((_, x)) = bwd.next_if(|&(hop, _)| hop == r) {
                    labels.list_mut(false, x).push(r);
                }
            }
        }
        Tol {
            graph: EditGraph::from_graph(g),
            labels,
            meta,
        }
    }

    /// Builds TOL over a general graph with the given order strategy on
    /// `threads` threads.
    pub fn build(g: &DiGraph, strategy: OrderStrategy, threads: usize) -> Self {
        let order = match strategy {
            OrderStrategy::DegreeDescending => {
                HopOrder::by_degree(g.num_vertices(), |v| g.degree(v))
            }
            OrderStrategy::ById => HopOrder::identity(g.num_vertices()),
        };
        Tol::build_with_order(g, order, TOL_META, threads)
    }

    /// Inserts the edge `u -> v` and extends the labels of every hop
    /// whose restricted closure can grow through it.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        if !self.graph.insert(u, v) {
            return;
        }
        let mut seen = VisitMap::new(self.labels.num_vertices());
        for r in self.labels.affected_hops(u, true) {
            self.extend_hop(r, v, true, &mut seen);
        }
        for r in self.labels.affected_hops(v, false) {
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
        let mut hops = self.labels.affected_hops(u, true);
        hops.extend(self.labels.affected_hops(v, false));
        hops.sort_unstable();
        hops.dedup();
        self.labels.clear_hops(&hops);
        let mut seen = VisitMap::new(self.labels.num_vertices());
        for r in hops {
            let w = self.labels.order().vertex_at(r);
            self.extend_hop(r, w, true, &mut seen);
            self.extend_hop(r, w, false, &mut seen);
        }
    }

    /// Resumes hop `r`'s restricted BFS from `start`, labeling every
    /// vertex it reaches that `r` does not label yet: after an edge
    /// insertion only the newly reachable vertices, after
    /// [`HopLabels::clear_hops`] from `vertex_at(r)` the whole
    /// closure. `seen` is scratch over all vertices, reset here.
    fn extend_hop(&mut self, r: u32, start: VertexId, forward: bool, seen: &mut VisitMap) {
        seen.reset();
        seen.mark(start, Side::Forward);
        let mut queue = vec![start];
        let mut head = 0;
        while head < queue.len() {
            let x = queue[head];
            head += 1;
            let list = self.labels.list_mut(forward, x);
            match list.binary_search(&r) {
                Ok(_) => continue, // reached the previously-labeled region
                Err(pos) => list.insert(pos, r),
            }
            // interior restriction: only lower-priority vertices may be
            // passed through (the hop itself always expands)
            if !self.labels.order().passes(r, x) {
                continue;
            }
            for &y in self.graph.edges(x, forward) {
                if seen.mark(y, Side::Forward) {
                    queue.push(y);
                }
            }
        }
    }

    /// The hub order and the `Lin`/`Lout` lists of hub ranks.
    pub fn labels(&self) -> &HopLabels<u32> {
        &self.labels
    }
}

impl ReachIndex for Tol {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        s == t || self.labels.covers(s, t)
    }

    fn meta(&self) -> IndexMeta {
        self.meta
    }

    fn size_bytes(&self) -> usize {
        self.labels.size_bytes()
    }

    fn size_entries(&self) -> usize {
        self.labels.size_entries()
    }

    /// 2-hop cover validation for the whole TOL family (TOL, TFL,
    /// DL): label order, hub soundness, witness completeness.
    /// `graph` must reflect the index's *current* edge set — after
    /// `insert_edge`/`delete_edge`, validate against the updated
    /// graph, not the one the index was first built on.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        self.labels.check_cover(self.meta.name, graph)
    }
}

/// Builds TFL \[13\]: TOL instantiated with the topological order of a
/// DAG, on `threads` threads.
pub fn build_tfl(dag: &Dag, threads: usize) -> Tol {
    let order = HopOrder::new(dag.topo_order().to_vec());
    Tol::build_with_order(dag.graph(), order, TFL_META, threads)
}

/// Builds DL \[25\]: TOL instantiated with the degree-descending order,
/// directly on a general graph, on `threads` threads.
pub fn build_dl(g: &DiGraph, threads: usize) -> Tol {
    let order = HopOrder::by_degree(g.num_vertices(), |v| g.degree(v));
    Tol::build_with_order(g, order, DL_META, threads)
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
            labels: HopLabels::new(one.labels.order().clone()),
            ..one.clone()
        };
        let mut seen = VisitMap::new(n);
        for r in 0..n as u32 {
            let w = reference.labels.order().vertex_at(r);
            reference.extend_hop(r, w, true, &mut seen);
            reference.extend_hop(r, w, false, &mut seen);
        }
        for x in g.vertices() {
            assert_eq!(one.labels.lin(x), reference.labels.lin(x), "lin({x:?})");
            assert_eq!(one.labels.lout(x), reference.labels.lout(x), "lout({x:?})");
            assert_eq!(
                eight.labels.lin(x),
                one.labels.lin(x),
                "lin({x:?}) at 8 threads"
            );
            assert_eq!(
                eight.labels.lout(x),
                one.labels.lout(x),
                "lout({x:?}) at 8 threads"
            );
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
            for &r in tol.labels.lin(x) {
                assert!(tc.reaches(tol.labels.order().vertex_at(r), x));
            }
            for &r in tol.labels.lout(x) {
                assert!(tc.reaches(x, tol.labels.order().vertex_at(r)));
            }
        }
    }

    #[test]
    fn every_vertex_labels_itself() {
        let g = fixtures::figure1a();
        let tol = build_dl(&g, 1);
        for v in g.vertices() {
            let r = tol.labels.order().rank_of(v);
            assert!(tol.labels.lin(v).contains(&r));
            assert!(tol.labels.lout(v).contains(&r));
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
    fn insert_into_empty_graph() {
        let g = DiGraph::from_edges(5, &[]);
        let mut tol = Tol::build(&g, OrderStrategy::ById, 1);
        tol.insert_edge(VertexId(0), VertexId(1));
        tol.insert_edge(VertexId(1), VertexId(2));
        assert!(tol.query(VertexId(0), VertexId(2)));
        assert!(!tol.query(VertexId(2), VertexId(0)));
    }
}
