//! A prototype index for *general* regular path constraints — §5's
//! second open challenge (*"It will be of great interest to have one
//! indexing technique for general path constraints and thus the
//! entire fragment of regular path queries"*).
//!
//! The construction is the classical product reduction: reachability
//! under a regular constraint `α` on `G` equals plain reachability on
//! the product graph `G × NFA(α)`. Any plain index then serves; this
//! prototype uses PLL, so after the (per-constraint) build, queries
//! are microsecond label intersections for *any* `α` — at the cost of
//! an `n·|states|` blow-up that explains why the challenge is open:
//! the index answers one constraint, not the whole query class.

use crate::constraint::{Ast, Nfa};
use reach_core::pll::Pll;
use reach_core::ReachIndex;
use reach_graph::{DiGraphBuilder, LabeledGraph, VertexId};

/// A per-constraint RPQ index: PLL over the `G × NFA(α)` product.
pub struct RpqIndex {
    nfa: Nfa,
    pll: Pll,
}

impl RpqIndex {
    /// Builds the index for the constraint `ast` over `g`.
    pub fn build(g: &LabeledGraph, ast: &Ast) -> Self {
        let nfa = Nfa::compile(ast);
        let ns = nfa.num_states();
        // product vertex (v, q) = v * ns + q; its edges are the NFA's
        // label moves along graph edges and its ε-moves in place
        let mut b = DiGraphBuilder::new(g.num_vertices() * ns);
        for v in g.vertices() {
            for q in 0..ns as u32 {
                for (w, qq, _) in nfa.product_successors(g, v, q) {
                    b.add_edge(product(&nfa, v, q), product(&nfa, w, qq));
                }
            }
        }
        RpqIndex {
            pll: Pll::build(&b.build()),
            nfa,
        }
    }

    /// Whether an `s`–`t` path satisfying the constraint exists
    /// (the empty path counts only if the constraint accepts ε).
    pub fn query(&self, s: VertexId, t: VertexId) -> bool {
        let from = product(&self.nfa, s, self.nfa.start());
        self.pll
            .query(from, product(&self.nfa, t, self.nfa.accept()))
    }

    /// Size of the underlying product labeling (exposes the blow-up
    /// that makes the general-constraint challenge hard).
    pub fn size_entries(&self) -> usize {
        self.pll.size_entries()
    }

    /// Number of NFA states the product was built over.
    pub fn num_states(&self) -> usize {
        self.nfa.num_states()
    }
}

fn product(nfa: &Nfa, v: VertexId, q: u32) -> VertexId {
    VertexId((v.index() * nfa.num_states()) as u32 + q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::parse;
    use crate::online::rpq_bfs;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use reach_graph::fixtures;
    use reach_graph::generators::{random_labeled_digraph, LabelDistribution};

    const ALPHABET: &[&str] = &["friendOf", "follows", "worksFor"];

    fn check(g: &LabeledGraph, expr: &str, alphabet: &[&str]) {
        let ast = parse(expr, alphabet).unwrap();
        let idx = RpqIndex::build(g, &ast);
        let nfa = Nfa::compile(&ast);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    idx.query(s, t),
                    rpq_bfs(g, s, t, &nfa),
                    "{expr} at {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn matches_online_on_figure1_across_fragments() {
        let g = fixtures::figure1b();
        // alternation, concatenation, and general constraints all work
        check(&g, "(friendOf ∪ follows)*", ALPHABET);
        check(&g, "(worksFor · friendOf)*", ALPHABET);
        check(&g, "follows · worksFor+", ALPHABET);
        check(&g, "worksFor* · friendOf · follows*", ALPHABET);
        check(&g, "friendOf", ALPHABET);
    }

    #[test]
    fn matches_online_on_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(501);
        let g = random_labeled_digraph(25, 70, 3, LabelDistribution::Uniform, &mut rng);
        for expr in ["(0 ∪ 1)*", "0 · (1 ∪ 2)* · 0", "(0 · 1)+ ∪ 2*"] {
            check(&g, expr, &[]);
        }
    }

    #[test]
    fn empty_word_semantics() {
        let g = fixtures::figure1b();
        let star = RpqIndex::build(&g, &parse("worksFor*", ALPHABET).unwrap());
        assert!(star.query(fixtures::A, fixtures::A), "ε ∈ L(worksFor*)");
        let single = RpqIndex::build(&g, &parse("worksFor", ALPHABET).unwrap());
        assert!(!single.query(fixtures::A, fixtures::A), "ε ∉ L(worksFor)");
    }

    #[test]
    fn product_blowup_is_visible() {
        let g = fixtures::figure1b();
        let small = RpqIndex::build(&g, &parse("friendOf*", ALPHABET).unwrap());
        let large = RpqIndex::build(
            &g,
            &parse(
                "(friendOf · follows · worksFor)+ ∪ (follows · friendOf)*",
                ALPHABET,
            )
            .unwrap(),
        );
        assert!(large.num_states() > small.num_states());
        assert!(large.size_entries() >= small.size_entries());
    }

    /// The "after" columns of EXPERIMENTS.md's §5 general-constraint
    /// table: `(num_states, size_entries)` on Figure 1(b) and on the
    /// 200-vertex cyclic workload with 3 Zipf labels, seed 9.
    #[test]
    fn product_sizes_match_the_experiments_table() {
        use reach_graph::generators::{label_edges, random_digraph};
        // `Shape::Cyclic.generate_labeled(200, 3, 9)` in reach-bench
        let cyclic = {
            let g = random_digraph(200, 800, &mut SmallRng::seed_from_u64(9));
            let mut rng = SmallRng::seed_from_u64(9 ^ 0x1abe1);
            label_edges(&g, 3, LabelDistribution::Zipf, &mut rng)
        };
        let table = [
            ("(0 ∪ 1)*", (3, 88), (3, 1620)),
            ("(0 · 1)*", (4, 96), (4, 2562)),
            ("1 · 2+", (5, 152), (5, 4090)),
            ("2* · 0 · 1*", (6, 192), (6, 9234)),
            ("0", (2, 39), (2, 1207)),
            ("0 · (1 ∪ 2)* · 0", (5, 158), (5, 4062)),
            ("(0 · 1)+ ∪ 2*", (6, 177), (6, 4595)),
            ("(0 · 1 · 2)+ ∪ (1 · 0)*", (8, 218), (8, 8333)),
        ];
        let sizes = |g: &LabeledGraph, expr: &str| {
            let idx = RpqIndex::build(g, &parse(expr, &[]).unwrap());
            (idx.num_states(), idx.size_entries())
        };
        for (expr, figure1b, cyclic_200) in table {
            assert_eq!(sizes(&fixtures::figure1b(), expr), figure1b, "{expr}");
            assert_eq!(sizes(&cyclic, expr), cyclic_200, "{expr}");
        }
    }
}
