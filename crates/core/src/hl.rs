//! HL \[25\]: the hierarchical landmark reachability oracle (§3.4).
//!
//! Jin & Wang's "simple, fast, and scalable reachability oracle":
//! a small set of high-degree landmarks stores *complete* forward and
//! backward reach bitsets, answering every pair whose witness path
//! touches a landmark by two bit probes. Pairs connected only through
//! the landmark-free residual graph are answered by a DFS that skips
//! landmarks — bounded because removing the hubs shatters real graphs.
//! The combination is a complete index: lookups plus residual search
//! decide every query exactly.

use crate::audit::{self, Violation};
use crate::engine::{GuidedSearch, Traversal};
use crate::hop_labels::degree_order;
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter, ReachIndex,
};
use crate::parallel;
use reach_graph::traverse::{backward_closure_with, forward_closure_with, VisitMap};
use reach_graph::{Dag, DiGraph, VertexId};

/// The landmarks' complete reach rows.
pub struct HlFilter {
    /// landmark order: `landmarks[i]` owns bit row `i`
    landmarks: Vec<VertexId>,
    is_landmark: Vec<bool>,
    words: usize,
    /// `fwd[i]`: bitset of vertices reachable from landmark i
    fwd: Vec<u64>,
    /// `bwd[i]`: bitset of vertices reaching landmark i
    bwd: Vec<u64>,
}

/// The hierarchical-labeling oracle: a landmark scan, then a guided
/// DFS whose filter stops at every landmark.
pub struct Hl {
    search: GuidedSearch<HlFilter>,
}

impl Hl {
    /// Builds the oracle with `k` landmarks chosen by descending
    /// degree. The landmarks' closures are independent, so they are
    /// split over `threads` threads (see [`crate::parallel`]); the
    /// oracle is the same at every thread count. Acyclicity is not
    /// actually required by the construction, but the technique is
    /// classified as DAG-input in the survey.
    pub fn build(dag: &Dag, k: usize, threads: usize) -> Self {
        let graph = dag.graph();
        let n = graph.num_vertices();
        let k = k.min(n);
        let words = n.div_ceil(64).max(1);
        let by_degree = degree_order(graph.num_vertices(), |v| graph.degree(v));
        let landmarks: Vec<VertexId> = by_degree.into_iter().take(k).collect();
        let mut is_landmark = vec![false; n];
        for &lm in &landmarks {
            is_landmark[lm.index()] = true;
        }
        let rows = parallel::map_chunks(k, threads, |range| {
            let mut fwd = vec![0u64; range.len() * words];
            let mut bwd = vec![0u64; range.len() * words];
            // one visit map + closure buffer reused across the chunk's
            // landmarks, instead of a fresh `vec![false; n]` per traversal
            let mut visit = VisitMap::new(n);
            let mut closure = Vec::new();
            for (row, &lm) in landmarks[range].iter().enumerate() {
                forward_closure_with(graph, lm, &mut visit, &mut closure);
                for &v in &closure {
                    fwd[row * words + v.index() / 64] |= 1 << (v.index() % 64);
                }
                backward_closure_with(graph, lm, &mut visit, &mut closure);
                for &v in &closure {
                    bwd[row * words + v.index() / 64] |= 1 << (v.index() % 64);
                }
            }
            (fwd, bwd)
        });
        let (fwd, bwd): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        let filter = HlFilter {
            landmarks,
            is_landmark,
            words,
            fwd: fwd.concat(),
            bwd: bwd.concat(),
        };
        Hl {
            search: GuidedSearch::on_dag(dag, filter, META, Traversal::Dfs),
        }
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.search.filter().landmarks.len()
    }
}

impl HlFilter {
    #[inline]
    fn bit(table: &[u64], row: usize, words: usize, v: VertexId) -> bool {
        table[row * words + v.index() / 64] >> (v.index() % 64) & 1 == 1
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "HL",
    citation: "[25]",
    framework: Framework::Other,
    completeness: Completeness::Complete,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

impl ReachFilter for HlFilter {
    /// A landmark's own forward row decides exactly; any other source
    /// is `Unknown`. In [`Hl`]'s residual DFS every landmark comes out
    /// `Unreachable` (the root scan already tried them all), so the
    /// search never expands one, and a non-landmark costs one byte
    /// check.
    #[inline]
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        if !self.is_landmark[s.index()] {
            return Certainty::Unknown;
        }
        let row = self.landmarks.iter().position(|&lm| lm == s);
        match row {
            Some(i) if Self::bit(&self.fwd, i, self.words, t) => Certainty::Reachable,
            _ => Certainty::Unreachable,
        }
    }

    fn guarantees(&self) -> FilterGuarantees {
        FilterGuarantees {
            definite_positive: true,
            definite_negative: true,
        }
    }

    fn size_bytes(&self) -> usize {
        8 * (self.fwd.len() + self.bwd.len()) + self.is_landmark.len()
    }

    fn size_entries(&self) -> usize {
        // set bits are the materialized reachability facts
        self.fwd
            .iter()
            .chain(self.bwd.iter())
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// HL's lookup is only as good as its landmark bitsets: each
    /// landmark's forward (resp. backward) row must equal its exact
    /// forward (resp. backward) closure — a stale or truncated row
    /// silently turns lookups into guesses the residual DFS can't
    /// repair (it skips landmarks by design).
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let name = "HL";
        if let Some(v) = audit::graph_mismatch(name, "index", self.is_landmark.len(), graph) {
            return vec![v];
        }
        let mut out = Vec::new();
        let n = graph.num_vertices();
        let mut visit = VisitMap::new(n);
        let mut closure = Vec::new();
        for (i, &lm) in self.landmarks.iter().enumerate() {
            if !self.is_landmark[lm.index()] {
                out.push(Violation {
                    index: name,
                    rule: "hl-landmark-set",
                    detail: format!("landmark {lm:?} missing from the is_landmark map"),
                });
            }
            for (table, table_name, closure_of) in [
                (
                    &self.fwd,
                    "forward",
                    forward_closure_with
                        as fn(&DiGraph, VertexId, &mut VisitMap, &mut Vec<VertexId>),
                ),
                (&self.bwd, "backward", backward_closure_with),
            ] {
                closure_of(graph, lm, &mut visit, &mut closure);
                let mut expected = vec![false; n];
                for &v in &closure {
                    expected[v.index()] = true;
                }
                for v in graph.vertices() {
                    if Self::bit(table, i, self.words, v) != expected[v.index()] {
                        out.push(Violation {
                            index: name,
                            rule: "hl-landmark-closure",
                            detail: format!(
                                "landmark {lm:?} {table_name} row disagrees with its true \
                                 closure at {v:?}"
                            ),
                        });
                        break;
                    }
                }
            }
        }
        out
    }
}

impl ReachIndex for Hl {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        if s == t {
            return true;
        }
        // landmark lookup: any landmark on some s-t path decides
        let f = self.search.filter();
        for i in 0..f.landmarks.len() {
            if HlFilter::bit(&f.bwd, i, f.words, s) && HlFilter::bit(&f.fwd, i, f.words, t) {
                return true;
            }
        }
        // residual search: paths avoiding every landmark
        if f.is_landmark[s.index()] || f.is_landmark[t.index()] {
            // any path from/to a landmark endpoint touches a landmark,
            // so the lookup above was already conclusive
            return false;
        }
        self.search.query(s, t)
    }

    fn meta(&self) -> IndexMeta {
        self.search.meta()
    }

    fn size_bytes(&self) -> usize {
        self.search.size_bytes()
    }

    fn size_entries(&self) -> usize {
        self.search.size_entries()
    }

    /// The landmark rows against their true closures, then every
    /// definite verdict against BFS.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        self.search.check_invariants(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{power_law_dag, random_dag};

    fn check(dag: &Dag, k: usize) {
        let idx = Hl::build(dag, k, 1);
        let tc = TransitiveClosure::build_dag(dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "k={k} at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1_for_all_k() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        for k in [0, 1, 3, 9] {
            check(&dag, k);
        }
    }

    #[test]
    fn exact_on_random_dags() {
        let mut rng = SmallRng::seed_from_u64(181);
        for _ in 0..3 {
            check(&random_dag(70, 190, &mut rng), 8);
        }
    }

    #[test]
    fn exact_on_hub_graphs() {
        let mut rng = SmallRng::seed_from_u64(182);
        check(&power_law_dag(150, 2, &mut rng), 10);
    }

    #[test]
    fn rows_are_the_true_closures_at_every_thread_count() {
        use reach_graph::traverse::{backward_closure, forward_closure};
        let mut rng = SmallRng::seed_from_u64(184);
        let dag = power_law_dag(150, 3, &mut rng);
        let (one, eight) = (Hl::build(&dag, 12, 1), Hl::build(&dag, 12, 8));
        let (one, eight) = (one.search.filter(), eight.search.filter());
        assert_eq!(one.landmarks, eight.landmarks);
        assert_eq!(one.fwd, eight.fwd);
        assert_eq!(one.bwd, eight.bwd);
        for (i, &lm) in eight.landmarks.iter().enumerate() {
            for (table, closure) in [
                (&eight.fwd, forward_closure(dag.graph(), lm)),
                (&eight.bwd, backward_closure(dag.graph(), lm)),
            ] {
                for v in dag.vertices() {
                    assert_eq!(
                        HlFilter::bit(table, i, eight.words, v),
                        closure.contains(&v),
                        "landmark {lm:?} row at {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_landmarks_degenerates_to_search() {
        let mut rng = SmallRng::seed_from_u64(183);
        check(&random_dag(40, 100, &mut rng), 0);
    }

    #[test]
    fn landmark_endpoint_pairs_use_lookup_only() {
        // s itself a landmark: every s-t path "touches a landmark" at s
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let idx = Hl::build(&dag, 9, 1); // all vertices are landmarks
        assert_eq!(idx.num_landmarks(), 9);
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t));
            }
        }
    }
}
