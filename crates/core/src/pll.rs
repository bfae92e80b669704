//! PLL \[49\]: pruned landmark labeling for reachability.
//!
//! Processes vertices in degree-descending priority order; from each
//! hop `v` a forward and a backward BFS label the visited vertices —
//! but a visit is *pruned* whenever the labels built so far already
//! answer `Qr(v, u)` (resp. `Qr(u, v)`), which is the survey's
//! *"search space … pruned according to the total order"*. Pruning
//! makes the labels dramatically smaller than the canonical TOL label
//! sets while remaining a complete 2-hop cover. Works directly on
//! general graphs.

use crate::audit::Violation;
use crate::hop_labels::{HopLabels, HopOrder};
use crate::index::{Completeness, Dynamism, Framework, IndexMeta, InputClass, ReachIndex};
use reach_graph::{DiGraph, Successors, VertexId};

/// The pruned-landmark-labeling index.
///
/// ```
/// use reach_core::pll::Pll;
/// use reach_core::ReachIndex;
/// use reach_graph::{DiGraph, VertexId};
///
/// // works directly on cyclic graphs
/// let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3)]);
/// let pll = Pll::build(&g);
/// assert!(pll.query(VertexId(0), VertexId(3)));
/// assert!(pll.query(VertexId(1), VertexId(0)));
/// assert!(!pll.query(VertexId(3), VertexId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Pll {
    labels: HopLabels<u32>,
}

impl Pll {
    /// Builds the index with the degree-descending order.
    pub fn build(g: &DiGraph) -> Self {
        let n = g.num_vertices();
        let mut labels = HopLabels::new(HopOrder::by_degree(n, |v| g.degree(v)));
        let mut queue: Vec<VertexId> = Vec::new();
        let mut seen = vec![false; n];
        for r in 0..n as u32 {
            pruned_bfs(&mut labels, g, r, true, &mut queue, &mut seen);
            pruned_bfs(&mut labels, g, r, false, &mut queue, &mut seen);
        }
        Pll { labels }
    }

    /// The hub order and the `Lin`/`Lout` lists of hub ranks.
    pub fn labels(&self) -> &HopLabels<u32> {
        &self.labels
    }
}

fn pruned_bfs(
    labels: &mut HopLabels<u32>,
    g: &DiGraph,
    r: u32,
    forward: bool,
    queue: &mut Vec<VertexId>,
    seen: &mut [bool],
) {
    let w = labels.order().vertex_at(r);
    queue.clear();
    queue.push(w);
    seen[w.index()] = true;
    let mut head = 0;
    while head < queue.len() {
        let x = queue[head];
        head += 1;
        // prune: the pair (w, x) is already covered by a
        // higher-priority hop
        let covered = if forward {
            labels.covers(w, x)
        } else {
            labels.covers(x, w)
        };
        if covered {
            continue;
        }
        labels.list_mut(forward, x).push(r); // ranks ascend across hops
        let adj = g.neighbors(x, forward);
        for &y in adj {
            if !seen[y.index()] {
                seen[y.index()] = true;
                queue.push(y);
            }
        }
    }
    for &x in queue.iter() {
        seen[x.index()] = false;
    }
}

pub(crate) const META: IndexMeta = IndexMeta {
    name: "PLL",
    citation: "[49]",
    framework: Framework::TwoHop,
    completeness: Completeness::Complete,
    input: InputClass::General,
    dynamism: Dynamism::Static,
};

impl ReachIndex for Pll {
    fn query(&self, s: VertexId, t: VertexId) -> bool {
        s == t || self.labels.covers(s, t)
    }

    fn meta(&self) -> IndexMeta {
        META
    }

    fn size_bytes(&self) -> usize {
        self.labels.size_bytes()
    }

    fn size_entries(&self) -> usize {
        self.labels.size_entries()
    }

    /// Pruning must leave a *complete and sound* 2-hop cover: the
    /// shared validator checks label order, hub soundness against
    /// true closures, and witness coverage for reachable pairs.
    fn check_invariants(&self, graph: &DiGraph) -> Vec<Violation> {
        self.labels.check_cover("PLL", graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tc::TransitiveClosure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{power_law_dag, random_digraph};

    fn check_exact(g: &DiGraph) {
        let pll = Pll::build(g);
        let tc = TransitiveClosure::build(g);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(pll.query(s, t), tc.reaches(s, t), "at {s:?}->{t:?}");
            }
        }
    }

    #[test]
    fn exact_on_figure1() {
        check_exact(&fixtures::figure1a());
        let pll = Pll::build(&fixtures::figure1a());
        assert!(pll.query(fixtures::A, fixtures::G));
        assert!(!pll.query(fixtures::G, fixtures::A));
    }

    #[test]
    fn exact_on_cyclic_graphs() {
        let mut rng = SmallRng::seed_from_u64(101);
        for _ in 0..5 {
            check_exact(&random_digraph(45, 130, &mut rng));
        }
    }

    #[test]
    fn exact_on_power_law_dags() {
        let mut rng = SmallRng::seed_from_u64(102);
        check_exact(power_law_dag(150, 2, &mut rng).graph());
    }

    #[test]
    fn labels_are_sound() {
        let mut rng = SmallRng::seed_from_u64(103);
        let g = random_digraph(40, 110, &mut rng);
        let pll = Pll::build(&g);
        let tc = TransitiveClosure::build(&g);
        for x in g.vertices() {
            for &r in pll.labels().lin(x) {
                assert!(tc.reaches(pll.labels().order().vertex_at(r), x));
            }
            for &r in pll.labels().lout(x) {
                assert!(tc.reaches(x, pll.labels().order().vertex_at(r)));
            }
        }
    }

    #[test]
    fn labels_are_sorted() {
        let mut rng = SmallRng::seed_from_u64(104);
        let g = random_digraph(40, 110, &mut rng);
        let pll = Pll::build(&g);
        for x in g.vertices() {
            assert!(pll.labels().lin(x).windows(2).all(|w| w[0] < w[1]));
            assert!(pll.labels().lout(x).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn pruning_beats_canonical_tol_on_hub_graphs() {
        // PLL's coverage-based pruning must produce labels no larger
        // than the canonical restricted-closure labels of DL (same order).
        let mut rng = SmallRng::seed_from_u64(105);
        let g = power_law_dag(300, 3, &mut rng).into_graph();
        let pll = Pll::build(&g);
        let dl = crate::tol::build_dl(&g, 1);
        assert!(
            pll.size_entries() <= dl.size_entries(),
            "pll {} > dl {}",
            pll.size_entries(),
            dl.size_entries()
        );
    }

    #[test]
    fn a_dropped_lin_entry_is_reported() {
        let mut rng = SmallRng::seed_from_u64(106);
        let g = random_digraph(40, 110, &mut rng);
        let mut idx = Pll::build(&g);
        assert_eq!(idx.check_invariants(&g), Vec::new());
        let (x, r) = crate::hop_labels::drop_a_needed_lin_entry(&mut idx.labels);
        let found = idx.check_invariants(&g);
        assert!(
            found
                .iter()
                .any(|v| v.index == "PLL" && v.rule.starts_with("2hop-")),
            "dropping rank {r} from lin({x:?}) went unreported: {found:?}"
        );
    }
}
