//! The original 2-hop index of Cohen, Halperin, Kaplan & Zwick \[14\],
//! built with the greedy set-cover approximation.
//!
//! §3.2: computing the *minimum* 2-hop index is NP-hard; the original
//! work proposed an approximation whose time complexity is O(n⁴) —
//! *"infeasible for large graphs"*. This implementation is the
//! faithful small-graph reference point the survey's narrative starts
//! from: repeatedly choose the hop vertex covering the most
//! still-uncovered reachable pairs, until every pair is covered.

use crate::audit::Violation;
use crate::hop_labels::{HopLabels, HopOrder};
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::tc::TransitiveClosure;
use reach_graph::{DiGraph, VertexId};

/// The greedily-covered 2-hop index.
#[derive(Debug, Clone)]
pub struct Hop2 {
    /// Hub ranks are vertex ids (the identity order): `lin[x]` holds
    /// the hops with a path hop → x, `lout[x]` those with x → hop.
    labels: HopLabels<u32>,
    rounds: usize,
}

impl Hop2 {
    /// Builds the index. Quadratic memory and roughly O(n³)–O(n⁴)
    /// time: intended for graphs of at most a few hundred vertices
    /// (which is the point the survey makes about this technique).
    pub fn build(g: &DiGraph) -> Self {
        let n = g.num_vertices();
        let tc = TransitiveClosure::build(g);
        let rev_tc = TransitiveClosure::build(&g.reverse());
        // uncovered[s*n + t] for reachable pairs (including reflexive)
        let words = (n * n).div_ceil(64).max(1);
        let mut uncovered = vec![0u64; words];
        let mut remaining = 0usize;
        for s in 0..n {
            for t in 0..n {
                // reflexive pairs are answered by the s == t fast path,
                // so the cover only needs the proper pairs
                if s != t && tc.reaches(VertexId::new(s), VertexId::new(t)) {
                    uncovered[(s * n + t) / 64] |= 1 << ((s * n + t) % 64);
                    remaining += 1;
                }
            }
        }
        let mut labels = HopLabels::new(HopOrder::identity(n));
        let mut rounds = 0;
        while remaining > 0 {
            // pick hop w maximizing the number of uncovered pairs
            // (s, t) with s → w and w → t
            let mut best_w = 0usize;
            let mut best_gain = 0usize;
            for w in 0..n {
                let wv = VertexId::new(w);
                let mut gain = 0usize;
                for s in 0..n {
                    if !rev_tc.reaches(wv, VertexId::new(s)) {
                        continue; // s does not reach w
                    }
                    for t in 0..n {
                        if tc.reaches(wv, VertexId::new(t))
                            && uncovered[(s * n + t) / 64] >> ((s * n + t) % 64) & 1 == 1
                        {
                            gain += 1;
                        }
                    }
                }
                if gain > best_gain {
                    best_gain = gain;
                    best_w = w;
                }
            }
            debug_assert!(best_gain > 0, "greedy cover stalled");
            let wv = VertexId::new(best_w);
            for x in (0..n).map(VertexId::new) {
                if rev_tc.reaches(wv, x) {
                    labels.list_mut(false, x).push(best_w as u32);
                }
                if tc.reaches(wv, x) {
                    labels.list_mut(true, x).push(best_w as u32);
                }
            }
            for s in 0..n {
                if !rev_tc.reaches(wv, VertexId::new(s)) {
                    continue;
                }
                for t in 0..n {
                    let bit = s * n + t;
                    if tc.reaches(wv, VertexId::new(t))
                        && uncovered[bit / 64] >> (bit % 64) & 1 == 1
                    {
                        uncovered[bit / 64] &= !(1 << (bit % 64));
                        remaining -= 1;
                    }
                }
            }
            rounds += 1;
        }
        labels.sort_and_dedup();
        Hop2 { labels, rounds }
    }

    /// Number of hop vertices the greedy cover selected.
    pub fn num_hops(&self) -> usize {
        self.rounds
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "2-Hop",
    citation: "[14]",
    framework: Framework::TwoHop,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl ReachIndex for Hop2 {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        s == t || self.labels.covers(s, t)
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        self.labels.size_bytes()
    }

    fn size_entries(&self) -> usize {
        self.labels.size_entries()
    }

    /// The greedy cover must be sound and complete like any 2-hop
    /// cover; the shared validator checks it.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        self.labels.check_cover(META.name, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::random_digraph;

    fn check_exact(g: &DiGraph) {
        let idx = Hop2::build(g);
        let tc = TransitiveClosure::build(g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check_exact(&fixtures::figure1a());
    }

    #[test]
    fn exact_on_small_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(111);
        for _ in 0..3 {
            check_exact(&random_digraph(25, 60, &mut rng));
        }
    }

    #[test]
    fn greedy_cover_is_smaller_than_tc() {
        let mut rng = SmallRng::seed_from_u64(112);
        let g = random_digraph(40, 120, &mut rng);
        let idx = Hop2::build(&g);
        let tc = TransitiveClosure::build(&g);
        assert!(
            idx.size_entries() < tc.num_pairs(),
            "2-hop ({}) should compress the TC ({} pairs)",
            idx.size_entries(),
            tc.num_pairs()
        );
    }

    #[test]
    fn a_star_graph_needs_one_hop() {
        // all paths go through the center: greedy should pick it once
        let g = DiGraph::from_edges(5, &[(1, 0), (2, 0), (0, 3), (0, 4)]);
        let idx = Hop2::build(&g);
        assert_eq!(idx.num_hops(), 1, "the center covers every pair at once");
        check_exact(&g);
    }

    #[test]
    fn edgeless_graph_covers_reflexive_pairs() {
        let g = DiGraph::from_edges(3, &[]);
        check_exact(&g);
    }

    #[test]
    fn a_dropped_lin_entry_is_reported() {
        let mut rng = SmallRng::seed_from_u64(113);
        let g = random_digraph(30, 80, &mut rng);
        let mut idx = Hop2::build(&g);
        assert_eq!(idx.check_invariants(&g), Vec::new());
        let (x, r) = crate::hop_labels::drop_a_needed_lin_entry(&mut idx.labels);
        let found = idx.check_invariants(&g);
        assert!(
            found
                .iter()
                .any(|v| v.index == "2-Hop" && v.rule.starts_with("2hop-")),
            "dropping rank {r} from lin({x:?}) went unreported: {found:?}"
        );
    }
}
