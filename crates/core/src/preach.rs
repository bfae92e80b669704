//! PReaCH \[31\]: pruned bidirectional search with contraction-style
//! filters (§3.4).
//!
//! PReaCH combines cheap per-vertex certificates — DFS subtree
//! intervals (definite positives), topological levels in both
//! directions (definite negatives) — with a *bidirectional* pruned
//! BFS. Both frontiers consult the certificates: the forward frontier
//! skips vertices that provably cannot reach `t`, the backward
//! frontier skips vertices provably unreachable from `s`, and a
//! frontier meeting or a positive certificate terminates early.

use crate::engine::{GuidedSearch, Traversal};
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter,
};
use crate::interval::Intervals;
use reach_graph::topo::dag_levels;
use reach_graph::{Dag, VertexId};

/// The PReaCH certificate set, usable stand-alone as a filter.
#[derive(Debug, Clone)]
pub struct PreachFilter {
    intervals: Intervals,
    level_fwd: Vec<u32>,
    level_bwd: Vec<u32>,
    /// The smallest DFS post-order number in each vertex's forward closure.
    min_post: Vec<u32>,
}

impl PreachFilter {
    /// Builds the certificates for a DAG.
    pub fn build(dag: &Dag) -> Self {
        let (intervals, min_post) = Intervals::build_with_low(dag);
        let (level_fwd, level_bwd) = dag_levels(dag);
        PreachFilter {
            intervals,
            level_fwd,
            level_bwd,
            min_post,
        }
    }
}

impl ReachFilter for PreachFilter {
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        if s == t {
            return Certainty::Reachable;
        }
        if self.level_fwd[s.index()] >= self.level_fwd[t.index()]
            || self.level_bwd[s.index()] <= self.level_bwd[t.index()]
        {
            return Certainty::Unreachable;
        }
        if self.intervals.contains(s, t) {
            return Certainty::Reachable;
        }
        // GRAIL-style containment: the forward closure of s spans
        // post-order numbers [min_post(s), post(s)]
        let post_t = self.intervals.end(t);
        if post_t < self.min_post[s.index()] || post_t > self.intervals.end(s) {
            return Certainty::Unreachable;
        }
        Certainty::Unknown
    }

    fn guarantees(&self) -> FilterGuarantees {
        FilterGuarantees {
            definite_positive: true,
            definite_negative: true,
        }
    }

    fn size_bytes(&self) -> usize {
        self.intervals.size_bytes()
            + 4 * (self.level_fwd.len() + self.level_bwd.len() + self.min_post.len())
    }

    fn size_entries(&self) -> usize {
        self.level_fwd.len()
    }
}

/// The PReaCH oracle: certificates plus pruned bidirectional BFS.
pub type Preach = GuidedSearch<PreachFilter>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "PReaCH",
    citation: "[31]",
    framework: Framework::Other,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

impl Preach {
    /// Builds PReaCH over a DAG: the certificates, searched from both
    /// ends.
    pub fn build(dag: &Dag) -> Self {
        GuidedSearch::on_dag(
            dag,
            PreachFilter::build(dag),
            META,
            Traversal::Bidirectional,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReachIndex;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{layered_dag, random_dag};

    #[test]
    fn filter_verdicts_are_sound() {
        let mut rng = SmallRng::seed_from_u64(171);
        let dag = random_dag(90, 230, &mut rng);
        let f = PreachFilter::build(&dag);
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                match f.certain(s, t) {
                    Certainty::Reachable => assert!(tc.reaches(s, t)),
                    Certainty::Unreachable => assert!(!tc.reaches(s, t)),
                    Certainty::Unknown => {}
                }
            }
        }
    }

    #[test]
    fn one_pass_certificates_equal_forest_and_sweep() {
        let mut rng = SmallRng::seed_from_u64(175);
        for round in 0..10 {
            let dag = if round % 2 == 0 {
                random_dag(150, 420, &mut rng)
            } else {
                let g = reach_graph::generators::random_digraph(150, 400, &mut rng);
                reach_graph::Condensation::new(&g).dag().clone()
            };
            let f = PreachFilter::build(&dag);
            let forest = crate::interval::SpanningForest::build(&dag);
            assert_eq!(&f.intervals, forest.intervals(), "round {round}");
            let mut min_post: Vec<u32> = dag.vertices().map(|v| forest.end(v)).collect();
            for &u in dag.topo_order().iter().rev() {
                for &v in dag.out_neighbors(u) {
                    min_post[u.index()] = min_post[u.index()].min(min_post[v.index()]);
                }
            }
            assert_eq!(f.min_post, min_post, "round {round}");
        }
    }

    #[test]
    fn oracle_is_exact() {
        let mut rng = SmallRng::seed_from_u64(172);
        for _ in 0..3 {
            let dag = random_dag(75, 200, &mut rng);
            let idx = Preach::build(&dag);
            let tc = TransitiveClosure::build_dag(&dag);
            for s in dag.vertices() {
                for t in dag.vertices() {
                    assert_eq!(idx.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
                }
            }
        }
    }

    #[test]
    fn exact_on_deep_layered_dags() {
        // the level filters' best case
        let mut rng = SmallRng::seed_from_u64(173);
        let dag = layered_dag(10, 6, 2, &mut rng);
        let idx = Preach::build(&dag);
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t));
            }
        }
    }

    #[test]
    fn figure1_queries() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let idx = Preach::build(&dag);
        assert!(idx.query(fixtures::A, fixtures::G));
        assert!(!idx.query(fixtures::M, fixtures::H));
    }

    #[test]
    fn certificates_have_small_footprint() {
        let mut rng = SmallRng::seed_from_u64(174);
        let dag = random_dag(1000, 3000, &mut rng);
        let idx = Preach::build(&dag);
        // constant per-vertex certificate size
        assert_eq!(idx.size_entries(), 1000);
    }
}
