//! GRIPP \[43\]: pre/post-order indexing with hop traversal, directly on
//! general graphs.
//!
//! GRIPP stores the DFS (pre, post) instance table of a spanning
//! forest and answers queries by *forward* hop traversal: starting
//! from `s`, if the target lies in the current vertex's subtree the
//! answer is true; otherwise every non-tree edge whose tail lies in
//! the current subtree offers a hop to a new subtree. Unlike GRAIL or
//! Ferrari, the index lookup is a *positive* filter (no false
//! positives): when it answers `false`, traversal must continue — the
//! weakness §3.1 of the survey calls out in comparing it to the
//! no-false-negative designs.

use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::interval::{Intervals, SpanningForest};
use reach_graph::traverse::{Side, VisitMap};
use reach_graph::{DiGraph, ScratchPool, VertexId};
use std::ops::Range;

/// The GRIPP index (simplified: the order-instance table is realized
/// as the spanning forest's interval labels plus the non-tree edge
/// list).
pub struct Gripp {
    intervals: Intervals,
    /// Targets of the non-tree edges, grouped by the tail's post-order
    /// number, so the hops available inside a subtree form a
    /// contiguous range.
    hops: Vec<VertexId>,
    /// `hop_start[p]`: the index of the first hop whose tail has
    /// post-order number `p` or more (`p` in `1..=n + 1`).
    hop_start: Vec<u32>,
    scratch: ScratchPool<Scratch>,
}

struct Scratch {
    visit: VisitMap,
    stack: Vec<VertexId>,
    examined: Examined,
}

/// The hop-table entries one query has examined, as skip pointers:
/// an entry stamped with the query's epoch is examined, and its
/// pointer leads past it towards the first entry that is not. Paths
/// are compressed as they are followed, so a scan passes an examined
/// stretch in a few steps, and a new query only bumps the epoch.
struct Examined {
    epoch: u32,
    /// `(stamp, next)` per entry, plus a sentinel that is never
    /// examined.
    slots: Vec<(u32, u32)>,
}

impl Examined {
    fn new(entries: usize) -> Self {
        Examined {
            epoch: 1,
            slots: vec![(0, 0); entries + 1],
        }
    }

    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// The first entry from `i` on that this query has not examined.
    fn first_open(&mut self, i: usize) -> usize {
        let mut open = i;
        while self.slots[open].0 == self.epoch {
            open = self.slots[open].1 as usize;
        }
        let mut j = i;
        while j != open {
            j = std::mem::replace(&mut self.slots[j].1, open as u32) as usize;
        }
        open
    }

    /// Marks the entries in `range` examined, calling `fresh` on each
    /// one that was not.
    #[inline]
    fn take(&mut self, range: Range<usize>, mut fresh: impl FnMut(usize)) {
        let mut i = self.first_open(range.start);
        while i < range.end {
            fresh(i);
            self.slots[i] = (self.epoch, i as u32 + 1);
            i = self.first_open(i + 1);
        }
    }
}

impl Gripp {
    /// Builds the index for an arbitrary digraph.
    pub fn build(g: &DiGraph) -> Self {
        let forest = SpanningForest::build_general(g);
        let n = forest.num_vertices();
        // a counting sort of the non-tree edges by their tail's post number
        let mut hop_start = vec![0u32; n + 2];
        for &(u, _) in forest.non_tree_edges() {
            hop_start[forest.end(u) as usize + 1] += 1;
        }
        for p in 1..hop_start.len() {
            hop_start[p] += hop_start[p - 1];
        }
        let mut cursor = hop_start.clone();
        let mut hops = vec![VertexId(0); forest.non_tree_edges().len()];
        for &(u, v) in forest.non_tree_edges() {
            let c = &mut cursor[forest.end(u) as usize];
            hops[*c as usize] = v;
            *c += 1;
        }
        Gripp {
            intervals: forest.into_intervals(),
            hops,
            hop_start,
            scratch: ScratchPool::new(),
        }
    }

    /// The spanning-forest intervals the index is built on.
    pub fn intervals(&self) -> &Intervals {
        &self.intervals
    }

    /// The hop-table range of non-tree hops with tails inside `w`'s
    /// subtree, whose post-order numbers are `start(w)..=end(w)`.
    fn hop_range(&self, w: VertexId) -> Range<usize> {
        let lo = self.intervals.start(w) as usize;
        let hi = self.intervals.end(w) as usize;
        self.hop_start[lo] as usize..self.hop_start[hi + 1] as usize
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "GRIPP",
    citation: "[43]",
    framework: Framework::TreeCover,
    completeness: Completeness::Partial,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl ReachIndex for Gripp {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        if self.intervals.contains(s, t) {
            return true;
        }
        let scratch = &mut *self.scratch.checkout(|| Scratch {
            visit: VisitMap::new(self.intervals.num_vertices()),
            stack: Vec::new(),
            examined: Examined::new(self.hops.len()),
        });
        scratch.visit.reset();
        scratch.stack.clear();
        scratch.examined.clear();
        scratch.stack.push(s);
        scratch.visit.mark(s, Side::Forward);
        while let Some(w) = scratch.stack.pop() {
            if self.intervals.contains(w, t) {
                return true;
            }
            // Subtree ranges nest, so a nested subtree's hops were often
            // examined already: each entry is examined once per query.
            let Scratch {
                visit,
                stack,
                examined,
            } = scratch;
            examined.take(self.hop_range(w), |i| {
                let v = self.hops[i];
                if visit.mark(v, Side::Forward) {
                    stack.push(v);
                }
            });
        }
        false
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        self.intervals.size_bytes() + 4 * (self.hops.len() + self.hop_start.len())
    }

    fn size_entries(&self) -> usize {
        self.intervals.num_vertices() + self.hops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures;
    use reach_graph::generators::{random_digraph, random_tree_plus_edges};

    fn check(g: &DiGraph) {
        let idx = Gripp::build(g);
        let tc = TransitiveClosure::build(g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check(&fixtures::figure1a());
    }

    #[test]
    fn exact_on_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(61);
        for _ in 0..4 {
            check(&random_digraph(50, 140, &mut rng));
        }
    }

    #[test]
    fn exact_on_tree_heavy_dags() {
        let mut rng = SmallRng::seed_from_u64(62);
        check(random_tree_plus_edges(90, 10, &mut rng).graph());
    }

    #[test]
    fn subtree_hop_slice_is_correct() {
        let g = fixtures::figure1a();
        let idx = Gripp::build(&g);
        let forest = SpanningForest::build_general(&g);
        for w in g.vertices() {
            // the slice holds exactly the targets of the non-tree edges
            // whose tails lie in w's subtree
            let mut slice = idx.hops[idx.hop_range(w)].to_vec();
            let mut expect: Vec<VertexId> = forest
                .non_tree_edges()
                .iter()
                .filter(|&&(u, _)| forest.contains(w, u))
                .map(|&(_, v)| v)
                .collect();
            slice.sort_unstable();
            expect.sort_unstable();
            assert_eq!(slice, expect, "{w:?}");
        }
    }

    #[test]
    fn examined_entries_are_reported_once_per_query() {
        // long ranges over short examined ones, for the pointers to skip
        let entries = 2 * 4096 + 100;
        let mut rng = SmallRng::seed_from_u64(63);
        let mut examined = Examined::new(entries);
        // the epoch wraps halfway through
        examined.epoch = u32::MAX - 20;
        for query in 0..40 {
            examined.clear();
            let mut seen = vec![false; entries];
            for _ in 0..30 {
                let a = rng.random_range(0..entries);
                let len = if rng.random_range(0..4) == 0 {
                    5000
                } else {
                    70
                };
                let range = a..(a + rng.random_range(0..len)).min(entries);
                let mut fresh = Vec::new();
                examined.take(range.clone(), |i| fresh.push(i));
                let expect: Vec<usize> = range.filter(|&i| !seen[i]).collect();
                assert_eq!(fresh, expect, "query {query}");
                for i in fresh {
                    seen[i] = true;
                }
            }
        }
    }

    #[test]
    fn strongly_connected_graph() {
        // a single big cycle: everything reaches everything
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        check(&g);
    }
}
