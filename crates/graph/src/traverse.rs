//! Online traversal primitives: the BFS oracle, closures and
//! multi-source bit-parallel BFS.
//!
//! BFS is the index-free baseline of §2.3 of the survey and the ground
//! truth every audit compares against; the DFS and bidirectional-BFS
//! baselines are `reach-core`'s guided search over a filter that never
//! decides. All traversals use an epoch-stamped [`VisitMap`] so
//! repeated queries reuse one buffer without an `O(n)` clear per query.

use crate::digraph::{DiGraph, Successors};
use crate::vertex::VertexId;

/// A reusable visited-set over `0..n` vertices.
///
/// Marking is `O(1)` and resetting between queries is `O(1)` (bump the
/// epoch); the backing array is only rewritten lazily as vertices are
/// marked. The bidirectional search uses two distinct marks per epoch.
#[derive(Debug, Clone)]
pub struct VisitMap {
    stamp: Vec<u64>,
    epoch: u64,
}

/// Which search frontier marked a vertex (for bidirectional search).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The forward frontier (from the source).
    Forward,
    /// The backward frontier (from the target).
    Backward,
}

impl VisitMap {
    /// Creates a visit map for vertex ids `0..n`.
    pub fn new(n: usize) -> Self {
        // epoch starts at 2 so that a zeroed stamp never matches
        // either the forward mark (epoch) or the backward mark (epoch+1)
        VisitMap {
            stamp: vec![0; n],
            epoch: 2,
        }
    }

    /// Starts a fresh traversal: all vertices become unvisited.
    #[inline]
    pub fn reset(&mut self) {
        self.epoch += 2;
    }

    /// Marks `v` as visited by `side`. Returns `true` if it was not
    /// already marked by that side.
    #[inline]
    pub fn mark(&mut self, v: VertexId, side: Side) -> bool {
        let want = match side {
            Side::Forward => self.epoch,
            Side::Backward => self.epoch + 1,
        };
        let s = &mut self.stamp[v.index()];
        if *s == want {
            false
        } else {
            *s = want;
            true
        }
    }

    /// Whether `v` has been marked by `side` in the current traversal.
    #[inline]
    pub fn is_marked(&self, v: VertexId, side: Side) -> bool {
        let want = match side {
            Side::Forward => self.epoch,
            Side::Backward => self.epoch + 1,
        };
        self.stamp[v.index()] == want
    }

    /// Number of vertices the map covers.
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// Whether the map covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }
}

/// Statistics from a single traversal, used by the `claims` harness to
/// reproduce the survey's "online traversal visits a large portion of
/// the graph" observation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Vertices popped from the frontier.
    pub visited: usize,
    /// Edges relaxed.
    pub edges_scanned: usize,
}

/// Breadth-first reachability: does `t` lie in the forward closure of `s`?
pub fn bfs_reaches(g: &DiGraph, s: VertexId, t: VertexId, visit: &mut VisitMap) -> bool {
    bfs_reaches_counted(g, s, t, visit).0
}

/// [`bfs_reaches`] with traversal statistics.
pub fn bfs_reaches_counted(
    g: &DiGraph,
    s: VertexId,
    t: VertexId,
    visit: &mut VisitMap,
) -> (bool, TraversalStats) {
    let mut stats = TraversalStats::default();
    if s == t {
        return (true, stats);
    }
    visit.reset();
    visit.mark(s, Side::Forward);
    let mut queue = vec![s];
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        stats.visited += 1;
        for &v in g.out_neighbors(u) {
            stats.edges_scanned += 1;
            if v == t {
                return (true, stats);
            }
            if visit.mark(v, Side::Forward) {
                queue.push(v);
            }
        }
    }
    (false, stats)
}

/// Collects the full forward closure of `s` (including `s` itself).
pub fn forward_closure(g: &DiGraph, s: VertexId) -> Vec<VertexId> {
    let mut visit = VisitMap::new(g.num_vertices());
    let mut out = Vec::new();
    forward_closure_with(g, s, &mut visit, &mut out);
    out
}

/// Collects the full backward closure of `s` (including `s` itself).
pub fn backward_closure(g: &DiGraph, s: VertexId) -> Vec<VertexId> {
    let mut visit = VisitMap::new(g.num_vertices());
    let mut out = Vec::new();
    backward_closure_with(g, s, &mut visit, &mut out);
    out
}

/// [`forward_closure`] into caller-owned scratch: the epoch-stamped
/// `visit` map is reset in O(1) and `out` is cleared, so repeated
/// closures (one per landmark in the HL-style builders) stop paying an
/// O(n) allocation each.
pub fn forward_closure_with(
    g: &DiGraph,
    s: VertexId,
    visit: &mut VisitMap,
    out: &mut Vec<VertexId>,
) {
    closure_with(g, s, true, visit, out)
}

/// [`backward_closure`] into caller-owned scratch (see
/// [`forward_closure_with`]).
pub fn backward_closure_with(
    g: &DiGraph,
    s: VertexId,
    visit: &mut VisitMap,
    out: &mut Vec<VertexId>,
) {
    closure_with(g, s, false, visit, out)
}

fn closure_with(
    g: &DiGraph,
    s: VertexId,
    forward: bool,
    visit: &mut VisitMap,
    out: &mut Vec<VertexId>,
) {
    visit.reset();
    visit.mark(s, Side::Forward);
    out.clear();
    out.push(s);
    let mut head = 0;
    while head < out.len() {
        let u = out[head];
        head += 1;
        for &v in g.neighbors(u, forward) {
            if visit.mark(v, Side::Forward) {
                out.push(v);
            }
        }
    }
}

/// Multi-source bit-parallel BFS: computes, for up to 64 sources at
/// once, which of them reach each vertex.
///
/// `masks[v]` has bit `i` set iff `sources[i]` reaches `v` (every
/// source reaches itself). One frontier expansion serves all 64
/// sources — the MS-BFS idea: reachability from source `i` is one bit
/// lane of a `u64` word, and an edge relaxation ORs whole words, so a
/// batch of queries costs roughly one traversal instead of 64.
///
/// Works on arbitrary digraphs (the propagation is a monotone
/// fixpoint, so cycles are harmless).
///
/// # Panics
/// Panics if more than 64 sources are given.
pub fn ms_bfs_masks(g: &DiGraph, sources: &[VertexId]) -> Vec<u64> {
    let mut masks = vec![0u64; g.num_vertices()];
    ms_bfs_masks_into(g, sources, &mut masks);
    masks
}

/// [`ms_bfs_masks`] into a caller-owned buffer (zeroed here), so
/// word-batched callers reuse one allocation.
pub fn ms_bfs_masks_into(g: &DiGraph, sources: &[VertexId], masks: &mut Vec<u64>) {
    assert!(
        sources.len() <= 64,
        "one u64 word carries at most 64 sources"
    );
    let n = g.num_vertices();
    masks.clear();
    masks.resize(n, 0);
    let mut in_frontier = vec![false; n];
    let mut cur: Vec<VertexId> = Vec::with_capacity(sources.len());
    for (i, &s) in sources.iter().enumerate() {
        masks[s.index()] |= 1u64 << i;
        if !in_frontier[s.index()] {
            in_frontier[s.index()] = true;
            cur.push(s);
        }
    }
    let mut next: Vec<VertexId> = Vec::new();
    while !cur.is_empty() {
        for &u in &cur {
            in_frontier[u.index()] = false;
        }
        for &u in &cur {
            let mu = masks[u.index()];
            for &v in g.out_neighbors(u) {
                let add = mu & !masks[v.index()];
                if add != 0 {
                    masks[v.index()] |= add;
                    if !in_frontier[v.index()] {
                        in_frontier[v.index()] = true;
                        next.push(v);
                    }
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
        next.clear();
    }
}

/// Answers a batch of reachability pairs with word-batched MS-BFS:
/// distinct sources are packed 64 per `u64` word, one bit-parallel
/// traversal per word, then each pair reads one bit.
///
/// Equivalent to `pairs.map(|(s, t)| bfs_reaches(g, s, t, ..))` but
/// amortizes frontier expansion across sources — the batch evaluation
/// path of the online baselines.
pub fn batch_reaches(g: &DiGraph, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
    let mut out = vec![false; pairs.len()];
    // distinct sources of still-open pairs, in first-appearance order
    let mut word_of_source = vec![u32::MAX; g.num_vertices()];
    let mut sources: Vec<VertexId> = Vec::new();
    for (i, &(s, t)) in pairs.iter().enumerate() {
        if s == t {
            out[i] = true;
            continue;
        }
        if word_of_source[s.index()] == u32::MAX {
            word_of_source[s.index()] = sources.len() as u32;
            sources.push(s);
        }
    }
    let mut masks: Vec<u64> = Vec::new();
    for (word, group) in sources.chunks(64).enumerate() {
        ms_bfs_masks_into(g, group, &mut masks);
        let lo = word as u32 * 64;
        let hi = lo + group.len() as u32;
        for (i, &(s, t)) in pairs.iter().enumerate() {
            let slot = word_of_source[s.index()];
            if s != t && (lo..hi).contains(&slot) {
                out[i] = masks[t.index()] >> (slot - lo) & 1 == 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_and_branch() -> DiGraph {
        // 0 -> 1 -> 2 -> 3, 1 -> 4, 5 isolated
        DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (1, 4)])
    }

    #[test]
    fn bfs_basic() {
        let g = chain_and_branch();
        let mut vm = VisitMap::new(g.num_vertices());
        assert!(bfs_reaches(&g, VertexId(0), VertexId(3), &mut vm));
        assert!(bfs_reaches(&g, VertexId(0), VertexId(4), &mut vm));
        assert!(!bfs_reaches(&g, VertexId(3), VertexId(0), &mut vm));
        assert!(!bfs_reaches(&g, VertexId(0), VertexId(5), &mut vm));
        assert!(bfs_reaches(&g, VertexId(5), VertexId(5), &mut vm));
    }

    #[test]
    fn visit_map_reset_is_cheap_and_correct() {
        let mut vm = VisitMap::new(3);
        assert!(vm.mark(VertexId(0), Side::Forward));
        assert!(!vm.mark(VertexId(0), Side::Forward));
        assert!(vm.is_marked(VertexId(0), Side::Forward));
        vm.reset();
        assert!(!vm.is_marked(VertexId(0), Side::Forward));
        assert!(vm.mark(VertexId(0), Side::Forward));
    }

    #[test]
    fn visit_map_sides_are_independent() {
        let mut vm = VisitMap::new(2);
        // In this map a vertex holds one stamp, so marking the same vertex
        // from the other side overwrites — bidirectional search checks
        // the opposite side *before* marking, which is all it needs.
        assert!(vm.mark(VertexId(1), Side::Forward));
        assert!(vm.is_marked(VertexId(1), Side::Forward));
        assert!(!vm.is_marked(VertexId(1), Side::Backward));
    }

    #[test]
    fn closures() {
        let g = chain_and_branch();
        let mut fwd = forward_closure(&g, VertexId(1));
        fwd.sort();
        assert_eq!(
            fwd,
            vec![VertexId(1), VertexId(2), VertexId(3), VertexId(4)]
        );
        let mut bwd = backward_closure(&g, VertexId(3));
        bwd.sort();
        assert_eq!(
            bwd,
            vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]
        );
    }

    #[test]
    fn closure_with_reuses_scratch() {
        let g = chain_and_branch();
        let mut vm = VisitMap::new(g.num_vertices());
        let mut out = Vec::new();
        for _ in 0..3 {
            forward_closure_with(&g, VertexId(1), &mut vm, &mut out);
            let mut got = out.clone();
            got.sort();
            assert_eq!(
                got,
                vec![VertexId(1), VertexId(2), VertexId(3), VertexId(4)]
            );
            backward_closure_with(&g, VertexId(3), &mut vm, &mut out);
            assert_eq!(out.len(), 4);
        }
    }

    #[test]
    fn ms_bfs_masks_match_per_source_bfs() {
        let g = chain_and_branch();
        let sources: Vec<VertexId> = g.vertices().collect();
        let masks = ms_bfs_masks(&g, &sources);
        let mut vm = VisitMap::new(g.num_vertices());
        for (i, &s) in sources.iter().enumerate() {
            for t in g.vertices() {
                assert_eq!(
                    masks[t.index()] >> i & 1 == 1,
                    bfs_reaches(&g, s, t, &mut vm),
                    "source {s:?} target {t:?}"
                );
            }
        }
    }

    #[test]
    fn ms_bfs_handles_cycles() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let masks = ms_bfs_masks(&g, &[VertexId(3), VertexId(1)]);
        assert_eq!(masks[VertexId(3).index()], 0b11, "1 reaches 3, 3 itself");
        assert_eq!(masks[VertexId(0).index()], 0b10, "1 reaches 0 via cycle");
    }

    #[test]
    fn batch_reaches_agrees_with_bfs_on_random_digraphs() {
        use crate::generators::random_digraph;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(77);
        for trial in 0..4 {
            let g = random_digraph(120, 320, &mut rng);
            let n = g.num_vertices() as u32;
            // more than 64 distinct sources, repeated sources, self-pairs
            let pairs: Vec<(VertexId, VertexId)> = (0..600)
                .map(|_| {
                    (
                        VertexId(rng.random_range(0..n)),
                        VertexId(rng.random_range(0..n)),
                    )
                })
                .collect();
            let got = batch_reaches(&g, &pairs);
            let mut vm = VisitMap::new(g.num_vertices());
            for (i, &(s, t)) in pairs.iter().enumerate() {
                assert_eq!(
                    got[i],
                    bfs_reaches(&g, s, t, &mut vm),
                    "trial {trial} pair {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn traversal_stats_count_work() {
        let g = chain_and_branch();
        let mut vm = VisitMap::new(g.num_vertices());
        let (ok, stats) = bfs_reaches_counted(&g, VertexId(0), VertexId(5), &mut vm);
        assert!(!ok);
        // Visits 0,1,2,3,4 and scans all 4 edges.
        assert_eq!(stats.visited, 5);
        assert_eq!(stats.edges_scanned, 4);
    }
}
