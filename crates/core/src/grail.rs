//! GRAIL \[50\]: k random interval labelings with guided search.
//!
//! Each labeling assigns `L_v = [low_v, rank_v]` where `rank_v` is a
//! randomized DFS post-order number and `low_v` is the minimum rank in
//! `v`'s forward closure. If `s` reaches `t` then `L_t ⊆ L_s` in
//! *every* labeling, so a single failed containment proves
//! non-reachability — no false negatives, the property §5 of the
//! survey singles out. Containment in all `k` labelings proves
//! nothing, so undecided queries fall to the guided DFS.

use crate::audit::{self, Violation};
use crate::engine::{GuidedSearch, Traversal};
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter,
};
use crate::interval;
use crate::parallel;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reach_graph::{Dag, DiGraph, VertexId};

/// The pruning filter: `k` independent `(low, rank)` labelings.
#[derive(Debug, Clone)]
pub struct GrailFilter {
    /// `k` labelings, each `n` entries of `(low, rank)`.
    labelings: Vec<Vec<(u32, u32)>>,
    /// The seed the labelings were drawn with.
    seed: u64,
}

/// Computes GRAIL labeling `i` in one randomized DFS, which sets a
/// vertex's rank (its post-order number) and low (the least rank in
/// its forward closure) when it finishes — the roots and out-lists are
/// shuffled exactly as [`SpanningForest::build_random`] shuffles them.
/// Its RNG depends only on `(seed, i)`, so a labeling comes out the
/// same whichever thread builds it.
///
/// [`SpanningForest::build_random`]: crate::interval::SpanningForest::build_random
fn one_labeling(dag: &Dag, seed: u64, i: usize) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut roots: Vec<VertexId> = dag.vertices().collect();
    interval::shuffle(&mut roots, &mut rng);
    let mut label = vec![(0, 0); dag.num_vertices()];
    interval::post_order(
        dag.graph(),
        &roots,
        Some(&mut rng),
        |_, _, _| {},
        |v, _, rank, low| label[v.index()] = (low, rank),
    );
    label
}

impl GrailFilter {
    /// Builds `k` independent labelings. Given more than one thread,
    /// each labeling gets a thread of its own (see [`crate::parallel`]):
    /// an uneven split of a small `k` over the cores, such as 2 + 1,
    /// would leave a core idle while the larger share finishes. The
    /// filter is the same at every thread count.
    pub fn build(dag: &Dag, k: usize, seed: u64, threads: usize) -> Self {
        assert!(k >= 1, "GRAIL needs at least one labeling");
        let threads = if threads > 1 { k } else { 1 };
        let labelings = parallel::map_chunks(k, threads, |range| {
            range
                .map(|i| one_labeling(dag, seed, i))
                .collect::<Vec<_>>()
        });
        GrailFilter {
            labelings: labelings.into_iter().flatten().collect(),
            seed,
        }
    }

    /// Number of labelings (the `k` parameter).
    pub fn num_labelings(&self) -> usize {
        self.labelings.len()
    }

    /// The seed the labelings were drawn with.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw labelings, for DAGGER's in-place widening.
    pub(crate) fn labelings_mut(&mut self) -> &mut [Vec<(u32, u32)>] {
        &mut self.labelings
    }
}

impl ReachFilter for GrailFilter {
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        for label in &self.labelings {
            let (ls, rs) = label[s.index()];
            let (lt, rt) = label[t.index()];
            if !(ls <= lt && rt <= rs) {
                return Certainty::Unreachable;
            }
        }
        Certainty::Unknown
    }

    fn guarantees(&self) -> FilterGuarantees {
        FilterGuarantees {
            definite_positive: false,
            definite_negative: true,
        }
    }

    fn size_bytes(&self) -> usize {
        self.labelings.iter().map(|l| l.len() * 8).sum()
    }

    fn size_entries(&self) -> usize {
        // one interval per vertex per labeling
        self.labelings.iter().map(Vec::len).sum()
    }

    /// GRAIL's no-false-negative guarantee rests on interval nesting
    /// along edges: in every labeling, an edge `(u, v)` must satisfy
    /// `L_v ⊆ L_u` (so containment failing anywhere on a path proves
    /// non-reachability), and each label must be a well-formed
    /// interval `low ≤ rank`.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let name = "GRAIL";
        let mut out = Vec::new();
        for (k, label) in self.labelings.iter().enumerate() {
            if let Some(v) =
                audit::graph_mismatch(name, &format!("labeling {k}"), label.len(), graph)
            {
                out.push(v);
                continue;
            }
            for u in graph.vertices() {
                let (lu, ru) = label[u.index()];
                if lu > ru {
                    out.push(Violation {
                        index: name,
                        rule: "grail-interval",
                        detail: format!("labeling {k}: {u:?} has low {lu} > rank {ru}"),
                    });
                }
                for &v in graph.out_neighbors(u) {
                    let (lv, rv) = label[v.index()];
                    if !(lu <= lv && rv <= ru) {
                        out.push(Violation {
                            index: name,
                            rule: "grail-containment",
                            detail: format!(
                                "labeling {k}: edge {u:?}->{v:?} breaks nesting \
                                 ([{lu}, {ru}] does not contain [{lv}, {rv}])"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

/// GRAIL as an exact oracle: the filter plus guided DFS.
pub type Grail = GuidedSearch<GrailFilter>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "GRAIL",
    citation: "[50]",
    framework: Framework::TreeCover,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

/// Builds GRAIL with `k` random labelings on `threads` threads.
pub fn build_grail(dag: &Dag, k: usize, seed: u64, threads: usize) -> Grail {
    GuidedSearch::on_dag(
        dag,
        GrailFilter::build(dag, k, seed, threads),
        META,
        Traversal::Dfs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReachIndex;
    use crate::tc::TransitiveClosure;
    use reach_graph::fixtures;
    use reach_graph::generators::random_dag;

    #[test]
    fn filter_has_no_false_negatives() {
        let mut rng = SmallRng::seed_from_u64(31);
        let dag = random_dag(100, 260, &mut rng);
        let filter = GrailFilter::build(&dag, 3, 31, 1);
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                if tc.reaches(s, t) {
                    assert_ne!(
                        filter.certain(s, t),
                        Certainty::Unreachable,
                        "false negative at {s:?}->{t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_is_exact() {
        let mut rng = SmallRng::seed_from_u64(32);
        for k in [1, 2, 5] {
            let dag = random_dag(80, 200, &mut rng);
            let grail = build_grail(&dag, k, 99, 1);
            let tc = TransitiveClosure::build_dag(&dag);
            for s in dag.vertices() {
                for t in dag.vertices() {
                    assert_eq!(grail.query(s, t), tc.reaches(s, t));
                }
            }
        }
    }

    #[test]
    fn identical_at_every_thread_count() {
        let mut rng = SmallRng::seed_from_u64(36);
        let dag = random_dag(120, 300, &mut rng);
        let one = build_grail(&dag, 5, 9, 1);
        let eight = build_grail(&dag, 5, 9, 8);
        assert_eq!(one.filter().labelings, eight.filter().labelings);
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(eight.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn single_pass_labels_equal_forest_and_sweep() {
        // the two-pass reference: a random spanning forest drawn from
        // the same RNG, then low_v = min(rank_v, lows of out-neighbours)
        // in one reverse-topological sweep
        let reference = |dag: &Dag, seed: u64, i: usize| {
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let forest = crate::interval::SpanningForest::build_random(dag.graph(), &mut rng);
            let mut label: Vec<(u32, u32)> = dag
                .vertices()
                .map(|v| (forest.end(v), forest.end(v)))
                .collect();
            for &u in dag.topo_order().iter().rev() {
                for &v in dag.out_neighbors(u) {
                    label[u.index()].0 = label[u.index()].0.min(label[v.index()].0);
                }
            }
            label
        };
        for seed in 0..30 {
            let mut rng = SmallRng::seed_from_u64(900 + seed);
            let dag = if seed % 2 == 0 {
                random_dag(120, 360, &mut rng)
            } else {
                let g = reach_graph::generators::random_digraph(150, 400, &mut rng);
                reach_graph::Condensation::new(&g).dag().clone()
            };
            let f = GrailFilter::build(&dag, 3, seed, 2);
            for (i, label) in f.labelings.iter().enumerate() {
                assert_eq!(label, &reference(&dag, seed, i), "seed {seed} labeling {i}");
            }
        }
    }

    #[test]
    fn figure1_queries() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let grail = build_grail(&dag, 2, 7, 1);
        assert!(grail.query(fixtures::A, fixtures::G));
        assert!(!grail.query(fixtures::M, fixtures::G));
    }

    #[test]
    fn more_labelings_never_weaken_pruning() {
        // With more labelings the filter can only answer Unreachable
        // at least as often (each labeling is an independent chance).
        let mut rng = SmallRng::seed_from_u64(33);
        let dag = random_dag(60, 150, &mut rng);
        let f1 = GrailFilter::build(&dag, 1, 1, 1);
        let f4 = GrailFilter {
            labelings: {
                let mut ls = f1.labelings.clone();
                ls.extend(GrailFilter::build(&dag, 3, 2, 1).labelings);
                ls
            },
            seed: 1,
        };
        let mut pruned1 = 0;
        let mut pruned4 = 0;
        for s in dag.vertices() {
            for t in dag.vertices() {
                if f1.certain(s, t) == Certainty::Unreachable {
                    pruned1 += 1;
                    assert_eq!(f4.certain(s, t), Certainty::Unreachable);
                }
                if f4.certain(s, t) == Certainty::Unreachable {
                    pruned4 += 1;
                }
            }
        }
        assert!(pruned4 >= pruned1);
    }

    #[test]
    fn size_scales_with_k() {
        let mut rng = SmallRng::seed_from_u64(34);
        let dag = random_dag(50, 120, &mut rng);
        let f2 = GrailFilter::build(&dag, 2, 34, 1);
        let f5 = GrailFilter::build(&dag, 5, 35, 1);
        assert_eq!(f2.size_entries(), 2 * 50);
        assert_eq!(f5.size_entries(), 5 * 50);
        assert!(f5.size_bytes() > f2.size_bytes());
    }
}
