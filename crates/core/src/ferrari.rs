//! Ferrari \[40\]: tree-cover with a per-vertex interval budget.
//!
//! Like the tree cover, every vertex inherits intervals from its
//! out-neighbors — but at most `k` intervals are kept. When the list
//! exceeds the budget, the two intervals with the smallest gap are
//! merged into one *approximate* interval that may cover unreachable
//! post-order numbers. Exact intervals answer `Reachable`
//! definitively; approximate ones answer `Unknown`; a miss on all
//! intervals answers `Unreachable` definitively (merging only ever
//! grows coverage, so there are no false negatives). Ferrari is thus
//! the rare filter with *both* guarantees of §5.

use crate::audit::{self, Violation};
use crate::engine::{GuidedSearch, Traversal};
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter,
};
use crate::interval::SpanningForest;
use reach_graph::traverse::VisitMap;
use reach_graph::{Dag, DiGraph, VertexId};

/// One Ferrari interval: `[start, end]` plus whether it is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FerrariInterval {
    /// Inclusive lower bound on covered post-order numbers.
    pub start: u32,
    /// Inclusive upper bound.
    pub end: u32,
    /// `true` if every covered number is genuinely reachable.
    pub exact: bool,
}

/// The budgeted-interval filter.
#[derive(Debug, Clone)]
pub struct FerrariFilter {
    post: Vec<u32>,
    intervals: Vec<Vec<FerrariInterval>>,
    budget: usize,
}

/// Merges a sorted interval list, preserving exactness where the merge
/// is lossless (overlapping or adjacent), then enforces the budget by
/// closing smallest gaps first (lossy merges become approximate).
fn merge_with_budget(list: &mut Vec<FerrariInterval>, budget: usize) {
    list.sort_unstable_by_key(|iv| (iv.start, iv.end));
    // lossless pass
    let mut w = 0usize;
    for i in 0..list.len() {
        if w == 0 || list[i].start > list[w - 1].end + 1 {
            list[w] = list[i];
            w += 1;
        } else {
            // overlapping/adjacent: union is exact only if both are
            // exact (an approximate part stays approximate)
            let cur = list[i];
            let prev = &mut list[w - 1];
            prev.exact = prev.exact && cur.exact;
            prev.end = prev.end.max(cur.end);
        }
    }
    list.truncate(w);
    // lossy pass: close the smallest gap until within budget
    while list.len() > budget {
        let mut best = 1usize;
        let mut best_gap = u32::MAX;
        for i in 1..list.len() {
            let gap = list[i].start - list[i - 1].end;
            if gap < best_gap {
                best_gap = gap;
                best = i;
            }
        }
        list[best - 1].end = list[best].end;
        list[best - 1].exact = false;
        list.remove(best);
    }
}

impl FerrariFilter {
    /// Builds the filter with at most `budget` intervals per vertex.
    pub fn build(dag: &Dag, budget: usize) -> Self {
        assert!(
            budget >= 1,
            "Ferrari needs a budget of at least one interval"
        );
        let forest = SpanningForest::build(dag);
        let n = dag.num_vertices();
        let post: Vec<u32> = (0..n).map(|i| forest.end(VertexId::new(i))).collect();
        let mut intervals: Vec<Vec<FerrariInterval>> = vec![Vec::new(); n];
        for &u in dag.topo_order().iter().rev() {
            let mut list = vec![FerrariInterval {
                start: forest.start(u),
                end: forest.end(u),
                exact: true,
            }];
            for &v in dag.out_neighbors(u) {
                list.extend_from_slice(&intervals[v.index()]);
            }
            merge_with_budget(&mut list, budget);
            intervals[u.index()] = list;
        }
        FerrariFilter {
            post,
            intervals,
            budget,
        }
    }

    /// The per-vertex interval budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The interval list of `v`.
    pub fn intervals_of(&self, v: VertexId) -> &[FerrariInterval] {
        &self.intervals[v.index()]
    }
}

impl ReachFilter for FerrariFilter {
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        let b = self.post[t.index()];
        for iv in &self.intervals[s.index()] {
            if iv.start > b {
                break; // sorted: no later interval can contain b
            }
            if b <= iv.end {
                return if iv.exact {
                    Certainty::Reachable
                } else {
                    Certainty::Unknown
                };
            }
        }
        Certainty::Unreachable
    }

    fn guarantees(&self) -> FilterGuarantees {
        FilterGuarantees {
            definite_positive: true,
            definite_negative: true,
        }
    }

    fn size_bytes(&self) -> usize {
        4 * self.post.len() + 12 * self.size_entries() + 24 * self.intervals.len()
    }

    fn size_entries(&self) -> usize {
        self.intervals.iter().map(Vec::len).sum()
    }

    /// Ferrari structural invariants: interval lists are sorted,
    /// disjoint, non-adjacent, and within budget; every vertex covers
    /// its own post number; coverage nests along edges (the
    /// no-false-negative side); and on sampled vertices every *exact*
    /// interval covers only genuinely reachable post numbers (the
    /// no-false-positive side, against a BFS ground truth).
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        let name = "Ferrari";
        if let Some(v) = audit::graph_mismatch(name, "index", self.post.len(), graph) {
            return vec![v];
        }
        let mut out = Vec::new();
        let n = graph.num_vertices();
        for v in graph.vertices() {
            let list = &self.intervals[v.index()];
            if list.len() > self.budget {
                out.push(Violation {
                    index: name,
                    rule: "ferrari-budget",
                    detail: format!(
                        "{v:?} keeps {} intervals, budget is {}",
                        list.len(),
                        self.budget
                    ),
                });
            }
            if list.iter().any(|iv| iv.start > iv.end)
                || list.windows(2).any(|w| w[1].start <= w[0].end + 1)
            {
                out.push(Violation {
                    index: name,
                    rule: "ferrari-interval-order",
                    detail: format!("intervals of {v:?} not sorted/disjoint/merged: {list:?}"),
                });
            }
            let own = self.post[v.index()];
            if !list.iter().any(|iv| iv.start <= own && own <= iv.end) {
                out.push(Violation {
                    index: name,
                    rule: "ferrari-self",
                    detail: format!("{v:?}'s own post number {own} uncovered"),
                });
            }
        }
        // Nesting: a child's coverage must survive into the parent
        // (merging only grows coverage). Gaps are ≥ 2 after merging,
        // so a child interval fits inside a single parent interval.
        for u in graph.vertices() {
            for &v in graph.out_neighbors(u) {
                for child in &self.intervals[v.index()] {
                    let parent = &self.intervals[u.index()];
                    let nested = parent
                        .iter()
                        .any(|iv| iv.start <= child.start && child.end <= iv.end);
                    if !nested {
                        out.push(Violation {
                            index: name,
                            rule: "ferrari-nesting",
                            detail: format!(
                                "edge {u:?}->{v:?}: child interval [{}, {}] not covered by parent",
                                child.start, child.end
                            ),
                        });
                    }
                }
            }
        }
        // Exactness: exact intervals may only cover reachable posts.
        // Post-order numbers are 1-based (slot 0 stays unused).
        let mut vertex_of_post = vec![VertexId(0); n + 1];
        for v in graph.vertices() {
            vertex_of_post[self.post[v.index()] as usize] = v;
        }
        let mut visit = VisitMap::new(n);
        let mut buf = Vec::new();
        for u in audit::sample_vertices(n, 64) {
            let row = audit::closure_row(graph, u, &mut visit, &mut buf);
            for iv in self.intervals[u.index()].iter().filter(|iv| iv.exact) {
                for p in iv.start..=iv.end {
                    let covered = vertex_of_post[p as usize];
                    if !row[covered.index()] {
                        out.push(Violation {
                            index: name,
                            rule: "ferrari-exactness",
                            detail: format!(
                                "exact interval [{}, {}] of {u:?} covers unreachable {covered:?}",
                                iv.start, iv.end
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

/// Ferrari as an exact oracle.
pub type Ferrari = GuidedSearch<FerrariFilter>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "Ferrari",
    citation: "[40]",
    framework: Framework::TreeCover,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

/// Builds Ferrari with at most `budget` intervals per vertex.
pub fn build_ferrari(dag: &Dag, budget: usize) -> Ferrari {
    let filter = FerrariFilter::build(dag, budget);
    GuidedSearch::on_dag(dag, filter, META, Traversal::Dfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReachIndex;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::random_dag;

    #[test]
    fn budget_is_respected() {
        let mut rng = SmallRng::seed_from_u64(41);
        let dag = random_dag(120, 400, &mut rng);
        for budget in [1, 2, 4] {
            let f = FerrariFilter::build(&dag, budget);
            for v in dag.vertices() {
                assert!(f.intervals_of(v).len() <= budget);
            }
        }
    }

    #[test]
    fn filter_verdicts_are_sound() {
        let mut rng = SmallRng::seed_from_u64(42);
        let dag = random_dag(90, 240, &mut rng);
        let f = FerrariFilter::build(&dag, 2);
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                match f.certain(s, t) {
                    Certainty::Reachable => {
                        assert!(tc.reaches(s, t), "false positive at {s:?}->{t:?}")
                    }
                    Certainty::Unreachable => {
                        assert!(!tc.reaches(s, t), "false negative at {s:?}->{t:?}")
                    }
                    Certainty::Unknown => {}
                }
            }
        }
    }

    #[test]
    fn oracle_is_exact_across_budgets() {
        let mut rng = SmallRng::seed_from_u64(43);
        let dag = random_dag(80, 220, &mut rng);
        let tc = TransitiveClosure::build_dag(&dag);
        for budget in [1, 3, 8] {
            let idx = build_ferrari(&dag, budget);
            for s in dag.vertices() {
                for t in dag.vertices() {
                    assert_eq!(idx.query(s, t), tc.reaches(s, t));
                }
            }
        }
    }

    #[test]
    fn generous_budget_keeps_everything_exact() {
        // with a huge budget Ferrari degenerates to the full tree
        // cover: every interval stays exact
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let f = FerrariFilter::build(&dag, 64);
        for v in dag.vertices() {
            for iv in f.intervals_of(v) {
                assert!(iv.exact);
            }
        }
        // and then the filter alone is already a complete oracle
        let tc = TransitiveClosure::build_dag(&dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                if s == t {
                    continue;
                }
                let expect = if tc.reaches(s, t) {
                    Certainty::Reachable
                } else {
                    Certainty::Unreachable
                };
                assert_eq!(f.certain(s, t), expect);
            }
        }
    }

    #[test]
    fn tight_budget_produces_approximate_intervals() {
        let mut rng = SmallRng::seed_from_u64(44);
        let dag = random_dag(150, 500, &mut rng);
        let f = FerrariFilter::build(&dag, 1);
        let any_approx = dag
            .vertices()
            .any(|v| f.intervals_of(v).iter().any(|iv| !iv.exact));
        assert!(
            any_approx,
            "budget 1 on a dense DAG must force lossy merges"
        );
    }

    #[test]
    fn merge_with_budget_unit() {
        let mut list = vec![
            FerrariInterval {
                start: 1,
                end: 2,
                exact: true,
            },
            FerrariInterval {
                start: 4,
                end: 5,
                exact: true,
            },
            FerrariInterval {
                start: 9,
                end: 9,
                exact: true,
            },
        ];
        merge_with_budget(&mut list, 2);
        // gap 4-2=2 < 9-5=4: first two merge, approximately
        assert_eq!(list.len(), 2);
        assert_eq!((list[0].start, list[0].end, list[0].exact), (1, 5, false));
        assert_eq!((list[1].start, list[1].end, list[1].exact), (9, 9, true));
    }
}
