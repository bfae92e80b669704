//! IP \[46, 47\]: independent-permutation labeling — the first
//! approximate-transitive-closure index (§3.3).
//!
//! Each vertex keeps the `k` smallest values of a random permutation
//! hash over its forward closure (and dually its backward closure).
//! Because the hash is a permutation, the label preserves the
//! contra-positive condition exactly: any hash in `AP(Out(t))` below
//! `max(AP(Out(s)))` that is missing from `AP(Out(s))` proves
//! `Out(t) ⊄ Out(s)`, hence non-reachability — no false negatives.
//! As a bonus the permutation is injective, so finding `h(t)` inside
//! `AP(Out(s))` is a definite *positive*.

use crate::engine::{GuidedSearch, Traversal};
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_graph::topo::dag_levels;
use reach_graph::{Dag, VertexId};

/// One k-min-wise label: the `k` smallest permutation hashes of a
/// closure, sorted ascending. `exact` means the closure had fewer than
/// `k` distinct hashes, so the label *is* the closure's hash set.
#[derive(Debug, Clone, Default)]
struct KMin {
    values: Vec<u32>,
    exact: bool,
}

/// The IP filter.
#[derive(Debug, Clone)]
pub struct IpFilter {
    hash: Vec<u32>,
    out_label: Vec<KMin>,
    in_label: Vec<KMin>,
    level_fwd: Vec<u32>,
    level_bwd: Vec<u32>,
    k: usize,
}

/// Merges `own` and the already-k-min lists of `others` into a k-min list.
fn kmin_merge(own: u32, others: &[&KMin], k: usize) -> KMin {
    let mut vals: Vec<u32> = Vec::with_capacity(k + 1);
    vals.push(own);
    let mut all_exact = true;
    for o in others {
        vals.extend_from_slice(&o.values);
        all_exact &= o.exact;
    }
    vals.sort_unstable();
    vals.dedup();
    if vals.len() > k {
        vals.truncate(k);
        KMin {
            values: vals,
            exact: false,
        }
    } else {
        // exact only if every input was exact (a truncated input hides
        // hashes that may exceed our max)
        let exact = all_exact && vals.len() < k;
        KMin {
            values: vals,
            exact,
        }
    }
}

/// The subset test: can `sub`'s closure be contained in `sup`'s?
/// Returns `false` only when containment is *provably* violated.
fn maybe_subset(sub: &KMin, sup: &KMin) -> bool {
    let bound = if sup.exact {
        u32::MAX
    } else {
        *sup.values.last().unwrap_or(&0)
    };
    for &e in &sub.values {
        if e > bound {
            break; // values are sorted; the rest are unobservable
        }
        if sup.values.binary_search(&e).is_err() {
            return false;
        }
    }
    true
}

impl IpFilter {
    /// Builds the filter with `k`-min-wise labels.
    pub fn build(dag: &Dag, k: usize, seed: u64) -> Self {
        assert!(k >= 1);
        let g = dag.graph();
        let n = g.num_vertices();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut hash: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            hash.swap(i, rng.random_range(0..=i));
        }
        let mut out_label: Vec<KMin> = vec![KMin::default(); n];
        for &u in dag.topo_order().iter().rev() {
            let others: Vec<&KMin> = g
                .out_neighbors(u)
                .iter()
                .map(|v| &out_label[v.index()])
                .collect();
            let merged = kmin_merge(hash[u.index()], &others, k);
            out_label[u.index()] = merged;
        }
        let mut in_label: Vec<KMin> = vec![KMin::default(); n];
        for &u in dag.topo_order() {
            let others: Vec<&KMin> = g
                .in_neighbors(u)
                .iter()
                .map(|v| &in_label[v.index()])
                .collect();
            let merged = kmin_merge(hash[u.index()], &others, k);
            in_label[u.index()] = merged;
        }
        let (level_fwd, level_bwd) = dag_levels(dag);
        IpFilter {
            hash,
            out_label,
            in_label,
            level_fwd,
            level_bwd,
            k,
        }
    }

    /// The `k` parameter.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl ReachFilter for IpFilter {
    fn certain(&self, s: VertexId, t: VertexId) -> Certainty {
        if s == t {
            return Certainty::Reachable;
        }
        // level filters: a path strictly increases the forward level
        // and strictly decreases the backward one
        if self.level_fwd[s.index()] >= self.level_fwd[t.index()]
            || self.level_bwd[s.index()] <= self.level_bwd[t.index()]
        {
            return Certainty::Unreachable;
        }
        let (s_out, t_out) = (&self.out_label[s.index()], &self.out_label[t.index()]);
        // permutation injectivity: h(t) visible in s's out label is a proof
        if s_out.values.binary_search(&self.hash[t.index()]).is_ok() {
            return Certainty::Reachable;
        }
        if !maybe_subset(t_out, s_out) {
            return Certainty::Unreachable;
        }
        let (s_in, t_in) = (&self.in_label[s.index()], &self.in_label[t.index()]);
        if t_in.values.binary_search(&self.hash[s.index()]).is_ok() {
            return Certainty::Reachable;
        }
        if !maybe_subset(s_in, t_in) {
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
        let labels: usize = self
            .out_label
            .iter()
            .chain(self.in_label.iter())
            .map(|l| 4 * l.values.len())
            .sum();
        labels + 12 * self.hash.len()
    }

    fn size_entries(&self) -> usize {
        self.out_label
            .iter()
            .chain(self.in_label.iter())
            .map(|l| l.values.len())
            .sum()
    }
}

/// IP as an exact oracle.
pub type Ip = GuidedSearch<IpFilter>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "IP",
    citation: "[46,47]",
    framework: Framework::ApproximateTc,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    // the paper's Table 1 lists IP as dynamic via DAGGER-based
    // relabeling; this implementation is static (see DESIGN.md)
    dynamism: Dynamism::Static,
};

/// Builds IP with `k`-min-wise labels.
pub fn build_ip(dag: &Dag, k: usize, seed: u64) -> Ip {
    let filter = IpFilter::build(dag, k, seed);
    GuidedSearch::on_dag(dag, filter, META, Traversal::Dfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReachIndex;
    use crate::tc::TransitiveClosure;
    use reach_graph::fixtures;
    use reach_graph::generators::{layered_dag, random_dag};

    #[test]
    fn filter_verdicts_are_sound() {
        let mut rng = SmallRng::seed_from_u64(141);
        for k in [2, 5, 16] {
            let dag = random_dag(80, 220, &mut rng);
            let f = IpFilter::build(&dag, k, 7);
            let tc = TransitiveClosure::build_dag(&dag);
            for s in dag.vertices() {
                for t in dag.vertices() {
                    match f.certain(s, t) {
                        Certainty::Reachable => {
                            assert!(tc.reaches(s, t), "k={k} FP at {s:?}->{t:?}")
                        }
                        Certainty::Unreachable => {
                            assert!(!tc.reaches(s, t), "k={k} FN at {s:?}->{t:?}")
                        }
                        Certainty::Unknown => {}
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_is_exact() {
        let mut rng = SmallRng::seed_from_u64(142);
        let dag = random_dag(70, 190, &mut rng);
        let idx = build_ip(&dag, 4, 3);
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
        let idx = build_ip(&dag, 3, 1);
        assert!(idx.query(fixtures::A, fixtures::G));
        assert!(!idx.query(fixtures::K, fixtures::D));
    }

    #[test]
    fn small_closures_have_exact_labels() {
        // sinks have singleton closures: exact for any k >= 2
        let mut rng = SmallRng::seed_from_u64(143);
        let dag = layered_dag(4, 6, 2, &mut rng);
        let f = IpFilter::build(&dag, 8, 5);
        for v in dag.vertices() {
            if dag.out_degree(v) == 0 {
                assert!(f.out_label[v.index()].exact);
                assert_eq!(f.out_label[v.index()].values, vec![f.hash[v.index()]]);
            }
        }
    }

    #[test]
    fn larger_k_decides_more() {
        let mut rng = SmallRng::seed_from_u64(144);
        let dag = random_dag(120, 330, &mut rng);
        let count_unknown = |k: usize| {
            let f = IpFilter::build(&dag, k, 11);
            let mut unknown = 0;
            for s in dag.vertices() {
                for t in dag.vertices() {
                    if f.certain(s, t) == Certainty::Unknown {
                        unknown += 1;
                    }
                }
            }
            unknown
        };
        assert!(count_unknown(16) <= count_unknown(2));
    }

    #[test]
    fn kmin_merge_unit() {
        let a = KMin {
            values: vec![1, 4, 9],
            exact: false,
        };
        let b = KMin {
            values: vec![2, 4],
            exact: true,
        };
        let m = kmin_merge(0, &[&a, &b], 3);
        assert_eq!(m.values, vec![0, 1, 2]);
        assert!(!m.exact);
        let m = kmin_merge(7, &[&b], 8);
        assert_eq!(m.values, vec![2, 4, 7]);
        assert!(m.exact);
        let m = kmin_merge(7, &[&a], 8);
        assert!(!m.exact, "inexact input keeps the merge inexact");
    }

    #[test]
    fn maybe_subset_unit() {
        let sup = KMin {
            values: vec![1, 3, 5],
            exact: false,
        };
        // 2 < 5 and missing: provably not a subset
        assert!(!maybe_subset(
            &KMin {
                values: vec![2],
                exact: true
            },
            &sup
        ));
        // 9 > max(sup) and sup inexact: unobservable
        assert!(maybe_subset(
            &KMin {
                values: vec![9],
                exact: true
            },
            &sup
        ));
        let sup_exact = KMin {
            values: vec![1, 3, 5],
            exact: true,
        };
        assert!(!maybe_subset(
            &KMin {
                values: vec![9],
                exact: true
            },
            &sup_exact
        ));
        assert!(maybe_subset(
            &KMin {
                values: vec![1, 5],
                exact: true
            },
            &sup_exact
        ));
    }
}
