//! Witness-path extraction: the paths behind a `true` answer.
//!
//! Reachability indexes answer *whether* an `s`–`t` path exists; real
//! deployments (the survey's fraud-detection and biology use cases in
//! §2.2) usually need to show *which* path. [`rpq_witness`] recovers a
//! shortest witness for any constraint, so any index answer can be
//! explained or audited.

use crate::constraint::Nfa;
use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};
use std::collections::VecDeque;

/// A witness path: the visited vertices and the labels of the edges
/// between them (`labels.len() + 1 == vertices.len()`, both empty-free).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Vertices in path order, starting at the source.
    pub vertices: Vec<VertexId>,
    /// Edge labels in path order.
    pub labels: Vec<Label>,
}

impl Witness {
    /// Number of edges on the path.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether this is the empty (single-vertex) path.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label set of the path (an SPLS candidate).
    pub fn label_set(&self) -> LabelSet {
        LabelSet::from_labels(self.labels.iter().copied())
    }
}

/// Shortest witness for a regular path query over `nfa`: a path whose
/// label word the automaton accepts, with the fewest edges. Every query
/// class compiles to an automaton — plain reachability is `(l1∪…∪lk)*`
/// over the whole alphabet — so this is the one witness search.
///
/// A 0-1 BFS over the product graph: ε-moves cost nothing and graph
/// edges cost one, so `(t, accept)` is settled at its shortest length.
pub fn rpq_witness(g: &LabeledGraph, s: VertexId, t: VertexId, nfa: &Nfa) -> Option<Witness> {
    let ns = nfa.num_states();
    let slot = |v: VertexId, q: u32| v.index() * ns + q as usize;
    let mut dist = vec![u32::MAX; g.num_vertices() * ns];
    let mut pred: Vec<Option<(VertexId, u32, Option<Label>)>> = vec![None; dist.len()];
    dist[slot(s, nfa.start())] = 0;
    let mut deque = VecDeque::from([(s, nfa.start())]);
    while let Some((u, q)) = deque.pop_front() {
        if u == t && q == nfa.accept() {
            return Some(unwind(&pred, (u, q), ns));
        }
        let d = dist[slot(u, q)];
        for (v, qq, label) in nfa.product_successors(g, u, q) {
            let dv = d + u32::from(label.is_some());
            if dv < dist[slot(v, qq)] {
                dist[slot(v, qq)] = dv;
                pred[slot(v, qq)] = Some((u, q, label));
                if label.is_some() {
                    deque.push_back((v, qq));
                } else {
                    deque.push_front((v, qq));
                }
            }
        }
    }
    None
}

/// Follows the predecessor chain from `end` back to the source (the
/// one product vertex without a predecessor); ε-moves add no edge.
fn unwind(
    pred: &[Option<(VertexId, u32, Option<Label>)>],
    end: (VertexId, u32),
    ns: usize,
) -> Witness {
    let (mut v, mut q) = end;
    let mut vertices = vec![v];
    let mut labels = Vec::new();
    while let Some((u, p, label)) = pred[v.index() * ns + q as usize] {
        if let Some(l) = label {
            labels.push(l);
            vertices.push(u);
        }
        (v, q) = (u, p);
    }
    vertices.reverse();
    labels.reverse();
    Witness { vertices, labels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{parse, Ast};
    use crate::online::{lcr_bfs, rlc_bfs, rpq_bfs};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use reach_graph::fixtures::{self, A, B, D, FOLLOWS, FRIEND_OF, G, H, L, WORKS_FOR};
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    fn verify_witness(g: &LabeledGraph, s: VertexId, t: VertexId, w: &Witness) {
        assert_eq!(w.vertices.first(), Some(&s));
        assert_eq!(w.vertices.last(), Some(&t));
        assert_eq!(w.vertices.len(), w.labels.len() + 1);
        for (i, &l) in w.labels.iter().enumerate() {
            let (u, v) = (w.vertices[i], w.vertices[i + 1]);
            assert!(
                g.out_edges(u).any(|(x, el)| x == v && el == l),
                "edge {u:?} -{l:?}-> {v:?} not in graph"
            );
        }
    }

    /// The automaton of an unconstrained query: any label, any length.
    fn any_path(g: &LabeledGraph) -> Nfa {
        Nfa::compile(&Ast::Star(Box::new(Ast::Labels(LabelSet::full(
            g.num_labels(),
        )))))
    }

    fn compile(expr: &str) -> Nfa {
        Nfa::compile(&parse(expr, &["friendOf", "follows", "worksFor"]).unwrap())
    }

    #[test]
    fn plain_witness_on_figure1() {
        let g = fixtures::figure1b();
        let any = any_path(&g);
        let w = rpq_witness(&g, A, G, &any).expect("A reaches G");
        verify_witness(&g, A, G, &w);
        // the shortest A→G path is the paper's (A, D, H, G)
        assert_eq!(w.vertices, vec![A, D, H, G]);
        assert!(rpq_witness(&g, G, A, &any).is_none());
        assert_eq!(rpq_witness(&g, A, A, &any).unwrap().len(), 0);
    }

    #[test]
    fn lcr_witness_respects_the_constraint() {
        let g = fixtures::figure1b();
        let nfa = compile("(friendOf ∪ follows)*");
        assert!(
            rpq_witness(&g, A, G, &nfa).is_none(),
            "the paper's false query"
        );
        let w = rpq_witness(&g, A, H, &nfa).expect("A→D→H avoids worksFor");
        verify_witness(&g, A, H, &w);
        assert!(w
            .label_set()
            .is_subset_of(LabelSet::from_labels([FRIEND_OF, FOLLOWS])));
    }

    #[test]
    fn rlc_witness_is_a_full_repetition() {
        let g = fixtures::figure1b();
        let unit = [WORKS_FOR, FRIEND_OF];
        let w = rpq_witness(&g, L, B, &compile("(worksFor · friendOf)*"))
            .expect("the paper's MR example");
        verify_witness(&g, L, B, &w);
        assert_eq!(w.labels.len() % unit.len(), 0);
        for (i, &l) in w.labels.iter().enumerate() {
            assert_eq!(l, unit[i % unit.len()], "phase-aligned repetition");
        }
        assert!(rpq_witness(&g, L, B, &compile("(friendOf · worksFor)*")).is_none());
    }

    #[test]
    fn rpq_witness_word_is_accepted() {
        let g = fixtures::figure1b();
        let nfa = compile("follows · worksFor+");
        for s in g.vertices() {
            for t in g.vertices() {
                match rpq_witness(&g, s, t, &nfa) {
                    Some(w) => {
                        verify_witness(&g, s, t, &w);
                        assert!(nfa.accepts(&w.labels), "witness word rejected");
                    }
                    None => assert!(!rpq_bfs(&g, s, t, &nfa)),
                }
            }
        }
    }

    #[test]
    fn witness_existence_matches_the_boolean_evaluators() {
        let mut rng = SmallRng::seed_from_u64(401);
        let g = random_labeled_digraph(30, 90, 3, LabelDistribution::Uniform, &mut rng);
        for _ in 0..60 {
            let s = VertexId(rng.random_range(0..30));
            let t = VertexId(rng.random_range(0..30));
            let allowed = LabelSet(rng.random_range(0..8));
            let nfa = Nfa::compile(&Ast::Star(Box::new(Ast::Labels(allowed))));
            match rpq_witness(&g, s, t, &nfa) {
                Some(w) => {
                    verify_witness(&g, s, t, &w);
                    assert!(w.label_set().is_subset_of(allowed));
                    assert!(lcr_bfs(&g, s, t, allowed));
                }
                None => assert!(!lcr_bfs(&g, s, t, allowed)),
            }
            let unit = [Label(rng.random_range(0..3)), Label(rng.random_range(0..3))];
            let expr = format!("({} · {})*", unit[0].0, unit[1].0);
            match rpq_witness(&g, s, t, &Nfa::compile(&parse(&expr, &[]).unwrap())) {
                Some(w) => {
                    verify_witness(&g, s, t, &w);
                    assert!(rlc_bfs(&g, s, t, &unit));
                }
                None => assert!(!rlc_bfs(&g, s, t, &unit)),
            }
        }
    }

    #[test]
    fn witnesses_are_shortest() {
        // diamond with a long detour: witness must take the short arm
        let g = LabeledGraph::from_edges(
            5,
            2,
            &[(0, 0, 1), (1, 0, 4), (0, 0, 2), (2, 0, 3), (3, 0, 4)],
        );
        let w = rpq_witness(&g, VertexId(0), VertexId(4), &any_path(&g)).unwrap();
        assert_eq!(w.len(), 2);
        // ε-moves are free: `0*·0*·0*` still finds the two-edge path
        let w = rpq_witness(
            &g,
            VertexId(0),
            VertexId(4),
            &Nfa::compile(&parse("0*·0*·0*", &[]).unwrap()),
        );
        assert_eq!(w.map(|w| w.len()), Some(2));
    }
}
