//! O'Reach \[18\]: k supportive vertices plus topological-order
//! observations.
//!
//! A partial index in the 2-hop family: `k ≤ 32` high-degree
//! *supportive* vertices store their full forward and backward reach
//! sets, giving every vertex two k-bit signatures. Four O(1)
//! observations answer most queries:
//!
//! 1. positive — `s` reaches a supporter that reaches `t`;
//! 2. negative — a supporter reaches `s` but not `t` (if `s → t` it
//!    would reach `t` too);
//! 3. negative — `t` reaches a supporter `s` does not reach;
//! 4. negative — `s` does not precede `t` in some topological order.
//!
//! Undecided queries fall to the guided DFS.

use crate::engine::{GuidedSearch, Traversal};
use crate::hop_labels::degree_order;
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter,
};
use reach_graph::{Dag, DiGraph, VertexId};

/// The supportive-vertex filter.
#[derive(Debug, Clone)]
pub struct OReachFilter {
    /// bit i set: supporter i reaches v
    from_supp: Vec<u32>,
    /// bit i set: v reaches supporter i
    to_supp: Vec<u32>,
    /// two independent topological ranks
    topo_a: Vec<u32>,
    topo_b: Vec<u32>,
    num_supports: usize,
}

impl OReachFilter {
    /// Builds the filter with `k ≤ 32` supportive vertices chosen by
    /// descending degree.
    pub fn build(dag: &Dag, k: usize) -> Self {
        let k = k.min(32).min(dag.num_vertices());
        let g = dag.graph();
        let n = g.num_vertices();
        let by_degree = degree_order(g.num_vertices(), |v| g.degree(v));
        let supports: Vec<VertexId> = by_degree.into_iter().take(k).collect();

        let mut from_supp = vec![0u32; n];
        let mut to_supp = vec![0u32; n];
        let mut visit = reach_graph::traverse::VisitMap::new(n);
        let mut closure = Vec::new();
        for (i, &sp) in supports.iter().enumerate() {
            reach_graph::traverse::forward_closure_with(g, sp, &mut visit, &mut closure);
            for &v in &closure {
                from_supp[v.index()] |= 1 << i;
            }
            reach_graph::traverse::backward_closure_with(g, sp, &mut visit, &mut closure);
            for &v in &closure {
                to_supp[v.index()] |= 1 << i;
            }
        }
        // order A: the DAG's own topological order; order B: a second
        // order from the reversed-id Kahn run, to break different ties
        let mut topo_a = vec![0u32; n];
        for (i, &v) in dag.topo_order().iter().enumerate() {
            topo_a[v.index()] = i as u32;
        }
        let topo_b = second_topo_order(g);
        OReachFilter {
            from_supp,
            to_supp,
            topo_a,
            topo_b,
            num_supports: k,
        }
    }

    /// Number of supportive vertices in use.
    pub fn num_supports(&self) -> usize {
        self.num_supports
    }
}

/// A Kahn topological order preferring *high* vertex ids, so it
/// disagrees with the primary order wherever the DAG leaves freedom.
fn second_topo_order(g: &DiGraph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut in_deg: Vec<u32> = (0..n)
        .map(|v| g.in_degree(VertexId::new(v)) as u32)
        .collect();
    let mut heap: std::collections::BinaryHeap<VertexId> =
        g.vertices().filter(|&v| in_deg[v.index()] == 0).collect();
    let mut rank = vec![0u32; n];
    let mut next = 0u32;
    while let Some(u) = heap.pop() {
        rank[u.index()] = next;
        next += 1;
        for &v in g.out_neighbors(u) {
            in_deg[v.index()] -= 1;
            if in_deg[v.index()] == 0 {
                heap.push(v);
            }
        }
    }
    debug_assert_eq!(next as usize, n, "second_topo_order requires a DAG");
    rank
}

impl ReachFilter for OReachFilter {
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        if s == t {
            return Certainty::Reachable;
        }
        // observation 4: topological orders
        if self.topo_a[s.index()] >= self.topo_a[t.index()]
            || self.topo_b[s.index()] >= self.topo_b[t.index()]
        {
            return Certainty::Unreachable;
        }
        // observation 1: s -> supporter -> t
        if self.to_supp[s.index()] & self.from_supp[t.index()] != 0 {
            return Certainty::Reachable;
        }
        // observation 2: a supporter reaches s but not t
        if self.from_supp[s.index()] & !self.from_supp[t.index()] != 0 {
            return Certainty::Unreachable;
        }
        // observation 3: t reaches a supporter s does not reach
        if self.to_supp[t.index()] & !self.to_supp[s.index()] != 0 {
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
        self.from_supp.len() * (4 + 4 + 4 + 4)
    }

    fn size_entries(&self) -> usize {
        2 * self.from_supp.len()
    }
}

/// O'Reach as an exact oracle.
pub type OReach = GuidedSearch<OReachFilter>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "O'Reach",
    citation: "[18]",
    framework: Framework::TwoHop,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

/// Builds O'Reach with `k` supportive vertices.
pub fn build_oreach(dag: &Dag, k: usize) -> OReach {
    let filter = OReachFilter::build(dag, k);
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
    use reach_graph::generators::{power_law_dag, random_dag};

    #[test]
    fn filter_verdicts_are_sound() {
        let mut rng = SmallRng::seed_from_u64(131);
        let dag = random_dag(90, 250, &mut rng);
        let f = OReachFilter::build(&dag, 16);
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
    fn oracle_is_exact() {
        let mut rng = SmallRng::seed_from_u64(132);
        for k in [0, 4, 32] {
            let dag = random_dag(70, 180, &mut rng);
            let idx = build_oreach(&dag, k);
            let tc = TransitiveClosure::build_dag(&dag);
            for s in dag.vertices() {
                for t in dag.vertices() {
                    assert_eq!(idx.query(s, t), tc.reaches(s, t), "k={k} at {s:?}->{t:?}");
                }
            }
        }
    }

    #[test]
    fn figure1_queries() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        let idx = build_oreach(&dag, 4);
        assert!(idx.query(fixtures::A, fixtures::G));
        assert!(!idx.query(fixtures::B, fixtures::A));
    }

    #[test]
    fn hub_supporters_decide_most_pairs() {
        let mut rng = SmallRng::seed_from_u64(133);
        let dag = power_law_dag(300, 3, &mut rng);
        let f = OReachFilter::build(&dag, 32);
        let mut undecided = 0usize;
        let mut total = 0usize;
        for s in dag.vertices().step_by(7) {
            for t in dag.vertices().step_by(5) {
                total += 1;
                if f.certain(s, t) == Certainty::Unknown {
                    undecided += 1;
                }
            }
        }
        assert!(
            (undecided as f64) < 0.25 * total as f64,
            "expected most pairs decided, {undecided}/{total} unknown"
        );
    }

    #[test]
    fn k_is_capped_at_32_and_n() {
        let mut rng = SmallRng::seed_from_u64(134);
        let dag = random_dag(10, 20, &mut rng);
        assert_eq!(OReachFilter::build(&dag, 100).num_supports(), 10);
        let dag = random_dag(100, 300, &mut rng);
        assert_eq!(OReachFilter::build(&dag, 100).num_supports(), 32);
    }
}
