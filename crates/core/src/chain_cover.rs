//! Chain cover: transitive-closure compression over a chain
//! decomposition (Jagadish \[20\]).
//!
//! This module fills the path/chain-decomposition slot of Table 1: it
//! is the direct ancestor of Path-tree \[24, 27\] (which arranges the
//! paths of the decomposition into a tree) and the decomposition
//! underlying 3-hop \[26\] (which uses chains as the intermediate
//! structure of reachability paths); see DESIGN.md §2 for the
//! substitution note.
//!
//! The DAG is greedily decomposed into vertex-disjoint chains. Every
//! vertex stores, per chain, the *smallest position on that chain it
//! can reach* — `O(n·C)` entries for `C` chains, against `O(n²)` for
//! the full TC. `Qr(s,t)` is one array lookup:
//! `best[s][chain(t)] ≤ pos(t)`.

use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use reach_graph::{Dag, VertexId};

const UNREACHED: u32 = u32::MAX;

/// The chain-cover index.
#[derive(Debug, Clone)]
pub struct ChainCover {
    chain_of: Vec<u32>,
    pos_of: Vec<u32>,
    num_chains: usize,
    /// `best[v * num_chains + c]`: minimum position on chain `c`
    /// reachable from `v` (including `v` itself), or `UNREACHED`.
    best: Vec<u32>,
}

impl ChainCover {
    /// Builds the index: greedy chain decomposition along the
    /// topological order, then one reverse-topological min-sweep.
    pub fn build(dag: &Dag) -> Self {
        let n = dag.num_vertices();
        let mut chain_of = vec![u32::MAX; n];
        let mut pos_of = vec![0u32; n];
        // tail[c] = last vertex currently on chain c
        let mut tails: Vec<VertexId> = Vec::new();
        let mut chain_len: Vec<u32> = Vec::new();
        for &v in dag.topo_order() {
            // extend a chain whose tail is an in-neighbor, if any
            let mut assigned = false;
            for &u in dag.in_neighbors(v) {
                let c = chain_of[u.index()];
                if tails[c as usize] == u {
                    chain_of[v.index()] = c;
                    pos_of[v.index()] = chain_len[c as usize];
                    chain_len[c as usize] += 1;
                    tails[c as usize] = v;
                    assigned = true;
                    break;
                }
            }
            if !assigned {
                let c = tails.len() as u32;
                chain_of[v.index()] = c;
                pos_of[v.index()] = 0;
                tails.push(v);
                chain_len.push(1);
            }
        }
        let num_chains = tails.len();

        let mut best = vec![UNREACHED; n * num_chains];
        for &u in dag.topo_order().iter().rev() {
            let ui = u.index();
            for &v in dag.out_neighbors(u) {
                let vi = v.index();
                // elementwise min of u's row and v's row
                let (urow, vrow) = if ui < vi {
                    let (a, b) = best.split_at_mut(vi * num_chains);
                    (
                        &mut a[ui * num_chains..(ui + 1) * num_chains],
                        &b[..num_chains],
                    )
                } else {
                    let (a, b) = best.split_at_mut(ui * num_chains);
                    (
                        &mut b[..num_chains],
                        &a[vi * num_chains..(vi + 1) * num_chains] as &[u32],
                    )
                };
                for c in 0..num_chains {
                    urow[c] = urow[c].min(vrow[c]);
                }
            }
            let own = ui * num_chains + chain_of[ui] as usize;
            best[own] = best[own].min(pos_of[ui]);
        }
        ChainCover {
            chain_of,
            pos_of,
            num_chains,
            best,
        }
    }

    /// Number of chains in the decomposition.
    pub fn num_chains(&self) -> usize {
        self.num_chains
    }

    /// The chain id and position of `v`.
    pub fn chain_position(&self, v: VertexId) -> (u32, u32) {
        (self.chain_of[v.index()], self.pos_of[v.index()])
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "Chain cover",
    citation: "[20,24,26]",
    framework: Framework::TreeCover,
    completeness: Completeness::Complete,
    input: InputClass::Dag,
    dynamism: Dynamism::Static,
};

impl ReachIndex for ChainCover {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        let c = self.chain_of[t.index()] as usize;
        self.best[s.index() * self.num_chains + c] <= self.pos_of[t.index()]
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        4 * (self.best.len() + self.chain_of.len() + self.pos_of.len())
    }

    fn size_entries(&self) -> usize {
        // non-trivial entries only: reachable (vertex, chain) pairs
        self.best.iter().filter(|&&x| x != UNREACHED).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{layered_dag, random_dag};
    use reach_graph::DiGraph;

    fn check(dag: &Dag) {
        let idx = ChainCover::build(dag);
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
    fn exact_on_random_dags() {
        let mut rng = SmallRng::seed_from_u64(81);
        for _ in 0..4 {
            check(&random_dag(70, 190, &mut rng));
        }
    }

    #[test]
    fn exact_on_layered_dags() {
        let mut rng = SmallRng::seed_from_u64(82);
        check(&layered_dag(6, 8, 2, &mut rng));
    }

    #[test]
    fn a_path_is_a_single_chain() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let idx = ChainCover::build(&Dag::new(g).unwrap());
        assert_eq!(idx.num_chains(), 1);
        // labels: each vertex needs only its own chain entry
        assert_eq!(idx.size_entries(), 5);
    }

    #[test]
    fn an_antichain_needs_one_chain_per_vertex() {
        let g = DiGraph::from_edges(4, &[]);
        let idx = ChainCover::build(&Dag::new(g).unwrap());
        assert_eq!(idx.num_chains(), 4);
    }

    #[test]
    fn positions_increase_along_chains() {
        let mut rng = SmallRng::seed_from_u64(83);
        let dag = random_dag(60, 150, &mut rng);
        let idx = ChainCover::build(&dag);
        let tc = TransitiveClosure::build_dag(&dag);
        // same-chain vertices at increasing positions must be reachable
        for s in dag.vertices() {
            for t in dag.vertices() {
                let (cs, ps) = idx.chain_position(s);
                let (ct, pt) = idx.chain_position(t);
                if cs == ct && ps <= pt {
                    assert!(tc.reaches(s, t));
                }
            }
        }
    }
}
