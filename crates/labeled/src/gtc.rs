//! The generalized transitive closure (§2.3): the naive
//! path-constrained baseline.
//!
//! *"GTC extends TC by adding additional information of edge labels …
//! However, the computation of GTC is more challenging than the
//! computation of TC because of the additional distinction of paths
//! according to a large number of possible path constraints.
//! Consequently, computing GTC is also infeasible in practice."*
//!
//! Like the plain TC, it is the perfect oracle: every LCR index in
//! this crate is validated against it (and against the even simpler
//! label-constrained BFS).

use crate::lcr::{
    Completeness, ConstraintClass, Dynamism, InputClass, LabeledIndexMeta, LcrFramework, LcrIndex,
};
use crate::spls::SplsSet;
use crate::zou::single_source_gtc;
use reach_graph::{LabelSet, LabeledGraph, VertexId};

/// The fully materialized GTC: an SPLS antichain for every ordered
/// pair of vertices. `O(n²)` antichains — the infeasibility the survey
/// points out, kept here as baseline and oracle.
pub struct GtcIndex {
    rows: Vec<Vec<SplsSet>>,
}

impl GtcIndex {
    /// Builds the GTC by running the single-source computation from
    /// every vertex.
    pub fn build(g: &LabeledGraph) -> Self {
        let rows = g.vertices().map(|s| single_source_gtc(g, s, true));
        GtcIndex {
            rows: rows.collect(),
        }
    }

    /// The SPLS antichain for the pair `(s, t)`.
    pub fn spls(&self, s: VertexId, t: VertexId) -> &SplsSet {
        &self.rows[s.index()][t.index()]
    }

    /// Total number of reachable ordered pairs (under no constraint).
    pub fn num_pairs(&self) -> usize {
        self.rows
            .iter()
            .map(|row| row.iter().filter(|s| !s.is_empty()).count())
            .sum()
    }
}

pub(crate) const META: LabeledIndexMeta = LabeledIndexMeta {
    name: "GTC",
    citation: "[21,52]",
    framework: LcrFramework::Gtc,
    constraint: ConstraintClass::Alternation,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl LcrIndex for GtcIndex {
    fn query(&self, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
        s == t || self.rows[s.index()][t.index()].satisfies(allowed)
    }

    fn meta(&self) -> LabeledIndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        8 * self.size_entries() + 24 * self.rows.len() * self.rows.len()
    }

    fn size_entries(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|row| row.iter())
            .map(|s| s.len())
            .sum()
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

    #[test]
    fn matches_bfs_on_figure1_for_all_constraints() {
        let g = fixtures::figure1b();
        let gtc = GtcIndex::build(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                for mask in 0..8u64 {
                    let allowed = LabelSet(mask);
                    assert_eq!(
                        gtc.query(s, t, allowed),
                        lcr_bfs(&g, s, t, allowed),
                        "at {s:?}->{t:?} under {allowed:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_bfs_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(211);
        for _ in 0..3 {
            let g = random_labeled_digraph(30, 90, 4, LabelDistribution::Zipf, &mut rng);
            let gtc = GtcIndex::build(&g);
            for s in g.vertices() {
                for t in g.vertices() {
                    for mask in [0u64, 1, 3, 9, 15] {
                        let allowed = LabelSet(mask);
                        assert_eq!(gtc.query(s, t, allowed), lcr_bfs(&g, s, t, allowed));
                    }
                }
            }
        }
    }

    #[test]
    fn antichains_are_minimal() {
        let mut rng = SmallRng::seed_from_u64(212);
        let g = random_labeled_digraph(25, 75, 4, LabelDistribution::Uniform, &mut rng);
        let gtc = GtcIndex::build(&g);
        for s in g.vertices() {
            for t in g.vertices() {
                let sets = gtc.spls(s, t).sets();
                for (i, &a) in sets.iter().enumerate() {
                    for (j, &b) in sets.iter().enumerate() {
                        if i != j {
                            assert!(!a.is_subset_of(b), "non-minimal antichain");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pair_count_matches_plain_reachability() {
        let g = fixtures::figure1b();
        let gtc = GtcIndex::build(&g);
        let plain = g.to_digraph();
        let tc = reach_core::TransitiveClosure::build(&plain);
        assert_eq!(gtc.num_pairs(), tc.num_pairs());
    }
}
