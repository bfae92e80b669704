//! BFL \[41\]: Bloom-filter labeling — the state-of-the-art
//! approximate-transitive-closure index (§3.3).
//!
//! Replaces IP's k-min-wise sketch with a Bloom filter: every vertex
//! hashes to one of `B` buckets, and `Lout(v)` is the exact union of
//! the buckets of `v`'s forward closure (dually `Lin`). Containment of
//! closures implies containment of bucket sets, so a failed subset
//! test is a proof of non-reachability. A spanning-forest interval
//! provides definite positives and topological levels an extra
//! negative filter; the remaining pairs go to the guided DFS.

use crate::engine::{GuidedSearch, Traversal};
use crate::index::{
    Certainty, Completeness, Dynamism, FilterGuarantees, Framework, IndexMeta, InputClass,
    ReachFilter,
};
use crate::interval::Intervals;
use crate::parallel;
use reach_graph::{Dag, VertexId};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The Bloom-filter-labeling filter.
#[derive(Debug, Clone)]
pub struct BflFilter {
    /// per-vertex Bloom labels, `words` u64s each
    lout: Vec<u64>,
    lin: Vec<u64>,
    words: usize,
    /// spanning-forest intervals: definite positives
    intervals: Intervals,
    level_fwd: Vec<u32>,
    level_bwd: Vec<u32>,
}

impl BflFilter {
    /// Builds the filter with `bits`-bucket Bloom labels (rounded up
    /// to a multiple of 64, minimum 64).
    ///
    /// `Lout` and the backward level come from one reverse-topological
    /// sweep, `Lin` and the forward level from one topological sweep;
    /// the two sweeps run on two threads once the DAG is large enough
    /// (see [`parallel::setup_threads`]).
    pub fn build(dag: &Dag, bits: usize, seed: u64) -> Self {
        let g = dag.graph();
        let n = g.num_vertices();
        let words = bits.div_ceil(64).max(1);
        let buckets = (words * 64) as u64;
        let bucket = |u: usize| (splitmix(seed ^ (u as u64)) % buckets) as usize;
        let threads = parallel::setup_threads(n + g.num_edges());
        // The interval DFS rides with the shorter sweep (`Lout`, which
        // walks the condensed ids in ascending order).
        let (((lout, level_bwd), intervals), (lin, level_fwd)) = parallel::join(
            threads,
            || {
                let order = dag.topo_order().iter().rev();
                let lout = sweep(n, words, order, |u| g.out_neighbors(u), bucket);
                (lout, Intervals::build(dag))
            },
            || {
                let order = dag.topo_order().iter();
                sweep(n, words, order, |u| g.in_neighbors(u), bucket)
            },
        );
        BflFilter {
            lout,
            lin,
            words,
            intervals,
            level_fwd,
            level_bwd,
        }
    }

    fn row(table: &[u64], i: usize, words: usize) -> &[u64] {
        &table[i * words..(i + 1) * words]
    }

    /// Number of Bloom buckets per label.
    pub fn num_buckets(&self) -> usize {
        self.words * 64
    }
}

/// One label sweep over `order`, in which every vertex comes after the
/// neighbours `next` gives it: `label(u)` is `u`'s own bucket plus the
/// union of its neighbours' labels, and `level(u)` is one more than
/// the highest neighbour level (0 without neighbours). Pulled from
/// out-neighbours in reverse topological order this is `Lout` and the
/// backward level; from in-neighbours in topological order, `Lin` and
/// the forward level.
fn sweep<'g>(
    n: usize,
    words: usize,
    order: impl Iterator<Item = &'g VertexId>,
    next: impl Fn(VertexId) -> &'g [VertexId],
    bucket: impl Fn(usize) -> usize,
) -> (Vec<u64>, Vec<u32>) {
    let mut label = vec![0u64; n * words];
    let mut level = vec![0u32; n];
    for &u in order {
        let ui = u.index();
        let mut lu = 0;
        for &v in next(u) {
            or_rows(&mut label, ui, v.index(), words);
            lu = lu.max(level[v.index()] + 1);
        }
        level[ui] = lu;
        let b = bucket(ui);
        label[ui * words + b / 64] |= 1 << (b % 64);
    }
    (label, level)
}

/// `table[dst] |= table[src]`, rows of `words` u64s.
fn or_rows(table: &mut [u64], dst: usize, src: usize, words: usize) {
    debug_assert_ne!(dst, src);
    let (d, s) = if dst < src {
        let (a, b) = table.split_at_mut(src * words);
        (&mut a[dst * words..dst * words + words], &b[..words])
    } else {
        let (a, b) = table.split_at_mut(dst * words);
        (
            &mut b[..words],
            &a[src * words..src * words + words] as &[u64],
        )
    };
    for w in 0..words {
        d[w] |= s[w];
    }
}

impl ReachFilter for BflFilter {
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
        let s_out = Self::row(&self.lout, s.index(), self.words);
        let t_out = Self::row(&self.lout, t.index(), self.words);
        for w in 0..self.words {
            if t_out[w] & !s_out[w] != 0 {
                return Certainty::Unreachable;
            }
        }
        let s_in = Self::row(&self.lin, s.index(), self.words);
        let t_in = Self::row(&self.lin, t.index(), self.words);
        for w in 0..self.words {
            if s_in[w] & !t_in[w] != 0 {
                return Certainty::Unreachable;
            }
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
        8 * (self.lout.len() + self.lin.len())
            + 4 * (self.level_fwd.len() + self.level_bwd.len())
            + self.intervals.size_bytes()
    }

    fn size_entries(&self) -> usize {
        self.lout.len() + self.lin.len()
    }
}

/// BFL as an exact oracle.
pub type Bfl = GuidedSearch<BflFilter>;

pub(crate) const META: IndexMeta = IndexMeta {
    name: "BFL",
    citation: "[41]",
    framework: Framework::ApproximateTc,
    completeness: Completeness::Partial,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

/// Builds BFL with `bits`-bucket Bloom labels.
pub fn build_bfl(dag: &Dag, bits: usize, seed: u64) -> Bfl {
    let filter = BflFilter::build(dag, bits, seed);
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
        let mut rng = SmallRng::seed_from_u64(151);
        for bits in [64, 256] {
            let dag = random_dag(90, 240, &mut rng);
            let f = BflFilter::build(&dag, bits, 9);
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
    }

    #[test]
    fn pulled_levels_and_intervals_equal_references() {
        let mut rng = SmallRng::seed_from_u64(154);
        for round in 0..10 {
            let dag = if round % 2 == 0 {
                random_dag(150, 420, &mut rng)
            } else {
                let g = reach_graph::generators::random_digraph(150, 400, &mut rng);
                reach_graph::Condensation::new(&g).dag().clone()
            };
            let f = BflFilter::build(&dag, 128, round);
            let (fwd, bwd) = reach_graph::topo::dag_levels(&dag);
            assert_eq!(f.level_fwd, fwd, "round {round}");
            assert_eq!(f.level_bwd, bwd, "round {round}");
            let forest = crate::interval::SpanningForest::build(&dag);
            assert_eq!(&f.intervals, forest.intervals(), "round {round}");
        }
    }

    #[test]
    fn oracle_is_exact() {
        let mut rng = SmallRng::seed_from_u64(152);
        let dag = random_dag(75, 200, &mut rng);
        let idx = build_bfl(&dag, 128, 4);
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
        let idx = build_bfl(&dag, 64, 2);
        assert!(idx.query(fixtures::A, fixtures::G));
        assert!(!idx.query(fixtures::G, fixtures::D));
    }

    #[test]
    fn more_bits_decide_more() {
        let mut rng = SmallRng::seed_from_u64(153);
        let dag = power_law_dag(250, 2, &mut rng);
        let count_unknown = |bits: usize| {
            let f = BflFilter::build(&dag, bits, 17);
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
        assert!(count_unknown(512) <= count_unknown(64));
    }

    #[test]
    fn forest_decides_tree_descendants_on_a_condensed_dag() {
        // Condensed ids are reverse-topological; the forest must still
        // hold the whole path, so its interval proves head -> tail.
        let edges: Vec<(u32, u32)> = (0..29).map(|i| (i, i + 1)).collect();
        let c = reach_graph::Condensation::new(&reach_graph::DiGraph::from_edges(30, &edges));
        let f = BflFilter::build(c.dag(), 64, 3);
        let head = c.component_of(VertexId(0));
        let tail = c.component_of(VertexId(29));
        assert!(f.intervals.contains(head, tail));
        assert_eq!(f.certain(head, tail), Certainty::Reachable);
    }

    #[test]
    fn bucket_rounding() {
        let dag = Dag::new(fixtures::figure1a()).unwrap();
        assert_eq!(BflFilter::build(&dag, 1, 0).num_buckets(), 64);
        assert_eq!(BflFilter::build(&dag, 100, 0).num_buckets(), 128);
    }
}
