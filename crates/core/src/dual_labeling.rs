//! Dual labeling \[17\]: constant-time queries for graphs with few
//! non-tree edges.
//!
//! The index is *dual*: a spanning-forest interval label handles
//! tree-descendant pairs, and a transitive link table over the `t`
//! non-tree edges handles everything else. With the link table's
//! transitive closure materialized, a query touches only the interval
//! labels and an O(t²) scan of the (assumed tiny) link matrix —
//! constant time when `t` is a constant, which is the regime
//! (XML-like, almost-tree data) the technique was designed for; the
//! survey notes it "works well only if the number of non-tree edges is
//! very low".

use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use crate::interval::SpanningForest;
use reach_graph::{Dag, VertexId};

/// The dual-labeling index.
#[derive(Debug)]
pub struct DualLabeling {
    forest: SpanningForest,
    /// The non-tree "transitive links" `(u_i, v_i)`.
    links: Vec<(VertexId, VertexId)>,
    /// `link_tc[i * stride + j/64] bit j%64`: taking link `i`, can one
    /// subsequently take link `j`? Reflexive by construction.
    link_tc: Vec<u64>,
    stride: usize,
}

impl DualLabeling {
    /// Builds the index for a DAG.
    pub fn build(dag: &Dag) -> Self {
        let forest = SpanningForest::build(dag);
        let links: Vec<(VertexId, VertexId)> = forest.non_tree_edges().to_vec();
        let t = links.len();
        let stride = t.div_ceil(64).max(1);
        let mut link_tc = vec![0u64; t * stride];
        // direct relation: after link i (landing at v_i), link j is
        // usable if u_j is a tree descendant of v_i
        for i in 0..t {
            link_tc[i * stride + i / 64] |= 1 << (i % 64);
            for j in 0..t {
                if forest.contains(links[i].1, links[j].0) {
                    link_tc[i * stride + j / 64] |= 1 << (j % 64);
                }
            }
        }
        // Floyd–Warshall over the t×t bit matrix
        for k in 0..t {
            for i in 0..t {
                if link_tc[i * stride + k / 64] >> (k % 64) & 1 == 1 {
                    let (a, b) = if i < k {
                        let (x, y) = link_tc.split_at_mut(k * stride);
                        (&mut x[i * stride..i * stride + stride], &y[..stride])
                    } else if i > k {
                        let (x, y) = link_tc.split_at_mut(i * stride);
                        (
                            &mut y[..stride],
                            &x[k * stride..k * stride + stride] as &[u64],
                        )
                    } else {
                        continue;
                    };
                    for w in 0..stride {
                        a[w] |= b[w];
                    }
                }
            }
        }
        DualLabeling {
            forest,
            links,
            link_tc,
            stride,
        }
    }

    /// Number of transitive links (non-tree edges).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    #[inline]
    fn link_reaches(&self, i: usize, j: usize) -> bool {
        self.link_tc[i * self.stride + j / 64] >> (j % 64) & 1 == 1
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "Dual labeling",
    citation: "[17]",
    framework: Framework::TreeCover,
    completeness: Completeness::Complete,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

impl ReachIndex for DualLabeling {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        if self.forest.contains(s, t) {
            return true;
        }
        // s ⤳tree u_i, link chain i→j, v_j ⤳tree t
        for (i, &(u_i, _)) in self.links.iter().enumerate() {
            if !self.forest.contains(s, u_i) {
                continue;
            }
            for (j, &(_, v_j)) in self.links.iter().enumerate() {
                if self.link_reaches(i, j) && self.forest.contains(v_j, t) {
                    return true;
                }
            }
        }
        false
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        8 * self.forest.num_vertices() + 8 * self.links.len() + 8 * self.link_tc.len()
    }

    fn size_entries(&self) -> usize {
        self.forest.num_vertices() + self.links.len() * self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{random_dag, random_tree_plus_edges};

    fn check(dag: &Dag) {
        let idx = DualLabeling::build(dag);
        let tc = TransitiveClosure::build_dag(dag);
        for s in dag.vertices() {
            for t in dag.vertices() {
                assert_eq!(idx.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check(&Dag::new(fixtures::figure1a()).unwrap());
    }

    #[test]
    fn exact_on_almost_trees() {
        let mut rng = SmallRng::seed_from_u64(71);
        for extra in [0, 3, 8] {
            check(&random_tree_plus_edges(80, extra, &mut rng));
        }
    }

    #[test]
    fn exact_even_when_links_are_many() {
        // correctness must not depend on the sparse-links assumption
        let mut rng = SmallRng::seed_from_u64(72);
        check(&random_dag(50, 180, &mut rng));
    }

    #[test]
    fn pure_tree_has_empty_link_table() {
        let mut rng = SmallRng::seed_from_u64(73);
        let dag = random_tree_plus_edges(60, 0, &mut rng);
        let idx = DualLabeling::build(&dag);
        assert_eq!(idx.num_links(), 0);
        check(&dag);
    }

    #[test]
    fn link_closure_is_transitive() {
        let mut rng = SmallRng::seed_from_u64(74);
        let dag = random_tree_plus_edges(70, 10, &mut rng);
        let idx = DualLabeling::build(&dag);
        let t = idx.num_links();
        for i in 0..t {
            assert!(idx.link_reaches(i, i), "reflexive");
            for j in 0..t {
                for k in 0..t {
                    if idx.link_reaches(i, j) && idx.link_reaches(j, k) {
                        assert!(idx.link_reaches(i, k), "transitive {i}->{j}->{k}");
                    }
                }
            }
        }
    }
}
