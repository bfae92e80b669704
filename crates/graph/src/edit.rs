//! The editable adjacency the dynamic indexes (TOL, DAGGER, DBL, DLCR)
//! own, so that their edge updates stay self-contained.

use crate::digraph::{DiGraph, DiGraphBuilder, Successors};
use crate::labeled::{Label, LabeledGraph};
use crate::vertex::VertexId;

/// One adjacency-list entry: the vertex at the other end of an edge,
/// plus the edge's payload (nothing for plain graphs, the label for
/// labeled ones).
pub trait EdgeEntry: Copy + PartialEq {
    /// For the entry `self` in the list of `from`: the vertex at the
    /// other end, and the same edge's entry in that vertex's list.
    fn reverse(self, from: VertexId) -> (VertexId, Self);
}

impl EdgeEntry for VertexId {
    fn reverse(self, from: VertexId) -> (VertexId, Self) {
        (self, from)
    }
}

impl EdgeEntry for (VertexId, Label) {
    fn reverse(self, from: VertexId) -> (VertexId, Self) {
        (self.0, (from, self.1))
    }
}

/// A mutable digraph over a fixed vertex set `0..n`: one out-list and
/// one in-list per vertex, of [`VertexId`]s for plain graphs and of
/// `(VertexId, Label)` pairs for labeled ones. Insertions append and
/// deletions keep the remaining order, so traversals stay
/// deterministic.
#[derive(Debug, Clone)]
pub struct EditGraph<E = VertexId> {
    out: Vec<Vec<E>>,
    inn: Vec<Vec<E>>,
}

impl<E: EdgeEntry> EditGraph<E> {
    /// The out-list of `v`.
    pub fn out_edges(&self, v: VertexId) -> &[E] {
        &self.out[v.index()]
    }

    /// The in-list of `v`.
    pub fn in_edges(&self, v: VertexId) -> &[E] {
        &self.inn[v.index()]
    }

    /// The out-list of `v` if `forward`, else its in-list.
    pub fn edges(&self, v: VertexId, forward: bool) -> &[E] {
        if forward {
            self.out_edges(v)
        } else {
            self.in_edges(v)
        }
    }

    /// Inserts the edge `u -> e` unless it is present; returns whether
    /// it was inserted.
    pub fn insert(&mut self, u: VertexId, e: E) -> bool {
        if self.out[u.index()].contains(&e) {
            return false;
        }
        self.out[u.index()].push(e);
        let (v, back) = e.reverse(u);
        self.inn[v.index()].push(back);
        true
    }

    /// Removes the edge `u -> e` from both of its lists; returns
    /// whether it was present.
    pub fn remove(&mut self, u: VertexId, e: E) -> bool {
        let Some(p) = self.out[u.index()].iter().position(|&x| x == e) else {
            return false;
        };
        self.out[u.index()].remove(p);
        let (v, back) = e.reverse(u);
        if let Some(q) = self.inn[v.index()].iter().position(|&x| x == back) {
            self.inn[v.index()].remove(q);
        }
        true
    }
}

impl EditGraph<VertexId> {
    /// An editable copy of `g`.
    pub fn from_graph(g: &DiGraph) -> Self {
        EditGraph {
            out: g.vertices().map(|v| g.out_neighbors(v).to_vec()).collect(),
            inn: g.vertices().map(|v| g.in_neighbors(v).to_vec()).collect(),
        }
    }

    /// A frozen CSR snapshot of the current edge set.
    pub fn to_digraph(&self) -> DiGraph {
        let m = self.out.iter().map(Vec::len).sum();
        let mut b = DiGraphBuilder::with_capacity(self.out.len(), m);
        for (u, outs) in self.out.iter().enumerate() {
            for &v in outs {
                b.add_edge(VertexId::new(u), v);
            }
        }
        b.build()
    }

    /// Lets per-vertex labels flow along out-edges (`forward`) or
    /// in-edges until each edge's head label absorbs its tail label
    /// under `join`: every seed passes its label to its neighbours, and
    /// every neighbour whose label changed passes its own on in turn.
    /// Edges that do not hold yet must start at a seed. With a union for
    /// `join`, the result is the least labeling above the current one
    /// that holds across every edge, whatever order the seeds come in;
    /// the order only decides how often a label is passed on.
    pub fn spread<T: Copy + PartialEq>(
        &self,
        label: &mut [T],
        seeds: impl IntoIterator<Item = VertexId>,
        forward: bool,
        join: impl Fn(T, T) -> T,
    ) {
        let pass_on = |x: VertexId, label: &mut [T], changed: &mut Vec<VertexId>| {
            for &y in self.edges(x, forward) {
                let joined = join(label[y.index()], label[x.index()]);
                if joined != label[y.index()] {
                    label[y.index()] = joined;
                    changed.push(y);
                }
            }
        };
        let mut changed = Vec::new();
        for x in seeds {
            pass_on(x, label, &mut changed);
        }
        let mut head = 0;
        while head < changed.len() {
            let x = changed[head];
            head += 1;
            pass_on(x, label, &mut changed);
        }
    }
}

impl EditGraph<(VertexId, Label)> {
    /// An editable copy of the labeled graph `g`.
    pub fn from_labeled(g: &LabeledGraph) -> Self {
        let inn = |v| g.adjacent(v, false).collect();
        EditGraph {
            out: g.vertices().map(|v| g.out_edges(v).collect()).collect(),
            inn: g.vertices().map(inn).collect(),
        }
    }
}

impl Successors for EditGraph<VertexId> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.out.len()
    }
    #[inline]
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.out[v.index()]
    }
    #[inline]
    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.inn[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_touch_both_sides() {
        let mut g = EditGraph::from_graph(&DiGraph::from_edges(4, &[(0, 1), (0, 2)]));
        assert!(g.insert(VertexId(3), VertexId(1)));
        assert_eq!(g.in_edges(VertexId(1)), &[VertexId(0), VertexId(3)]);
        assert!(g.remove(VertexId(0), VertexId(1)));
        assert!(!g.remove(VertexId(0), VertexId(1)), "already gone");
        assert_eq!(g.out_edges(VertexId(0)), &[VertexId(2)]);
        assert_eq!(g.in_edges(VertexId(1)), &[VertexId(3)]);
        assert_eq!(g.edges(VertexId(1), false), g.in_edges(VertexId(1)));
        assert_eq!(
            g.to_digraph(),
            DiGraph::from_edges(4, &[(0, 2), (3, 1)]),
            "snapshot holds the edited edge set"
        );
    }

    #[test]
    fn spread_reaches_the_least_closed_labeling() {
        // a cycle 0 -> 1 -> 2 -> 0 entered from 3, and a sink 4
        let mut g = EditGraph::from_graph(&DiGraph::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 0), (3, 0), (1, 4)],
        ));
        let or = |a: u8, b: u8| a | b;
        let mut reached_from = [1, 2, 4, 8, 16];
        g.spread(&mut reached_from, (0..5).map(VertexId), true, or);
        assert_eq!(reached_from, [15, 15, 15, 8, 31]);
        let mut reaches = [1, 2, 4, 8, 16];
        g.spread(&mut reaches, (0..5).rev().map(VertexId), false, or);
        assert_eq!(reaches, [23, 23, 23, 31, 16]);
        // an insertion u -> v seeds u forward and v backward
        assert!(g.insert(VertexId(4), VertexId(3)));
        g.spread(&mut reached_from, [VertexId(4)], true, or);
        g.spread(&mut reaches, [VertexId(3)], false, or);
        assert_eq!((reached_from, reaches), ([31; 5], [31; 5]));
    }

    #[test]
    fn labeled_entries_keep_their_label() {
        let lg = LabeledGraph::from_edges(3, 2, &[(0, 0, 1), (0, 1, 1)]);
        let mut g = EditGraph::from_labeled(&lg);
        let (a, b, c) = (VertexId(0), VertexId(1), VertexId(2));
        assert_eq!(g.in_edges(b), &[(a, Label(0)), (a, Label(1))]);
        assert!(!g.insert(a, (b, Label(1))));
        assert!(g.insert(b, (c, Label(1))));
        assert_eq!(g.in_edges(c), &[(b, Label(1))]);
        assert!(g.remove(a, (b, Label(0))));
        assert!(!g.remove(a, (b, Label(0))));
        assert_eq!(g.out_edges(a), &[(b, Label(1))]);
        assert_eq!(g.in_edges(b), &[(a, Label(1))]);
    }
}
