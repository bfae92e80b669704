//! Online evaluation of path-constrained queries (§2.3): the
//! index-free baselines every Table-2 technique is compared against,
//! and the test oracles for the whole crate.

use crate::constraint::Nfa;
use reach_graph::{Label, LabelSet, LabeledGraph, VertexId};

/// Label-constrained BFS: is there an `s`–`t` path using only labels
/// in `allowed`? (The LCR oracle.)
pub fn lcr_bfs(g: &LabeledGraph, s: VertexId, t: VertexId, allowed: LabelSet) -> bool {
    if s == t {
        return true;
    }
    let mut seen = vec![false; g.num_vertices()];
    seen[s.index()] = true;
    let mut queue = vec![s];
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for (v, l) in g.out_edges(u) {
            if !allowed.contains(l) {
                continue;
            }
            if v == t {
                return true;
            }
            if !seen[v.index()] {
                seen[v.index()] = true;
                queue.push(v);
            }
        }
    }
    false
}

/// Recursive-label-concatenated BFS: is there an `s`–`t` path whose
/// label sequence is one or more full repetitions of `unit`? (The RLC
/// oracle; `s == t` is true via the empty repetition.)
///
/// Runs over the product space (vertex, phase) where phase is the
/// position inside the repeating unit.
pub fn rlc_bfs(g: &LabeledGraph, s: VertexId, t: VertexId, unit: &[Label]) -> bool {
    assert!(!unit.is_empty(), "concatenation unit must be non-empty");
    if s == t {
        return true;
    }
    let k = unit.len();
    let n = g.num_vertices();
    let mut seen = vec![false; n * k];
    seen[s.index() * k] = true;
    let mut queue = vec![(s, 0usize)];
    let mut head = 0;
    while head < queue.len() {
        let (u, phase) = queue[head];
        head += 1;
        let want = unit[phase];
        let next_phase = (phase + 1) % k;
        for (v, l) in g.out_edges(u) {
            if l != want {
                continue;
            }
            if v == t && next_phase == 0 {
                return true;
            }
            if !seen[v.index() * k + next_phase] {
                seen[v.index() * k + next_phase] = true;
                queue.push((v, next_phase));
            }
        }
    }
    false
}

/// Automaton-guided BFS for an arbitrary regular path constraint
/// (§2.3: *"a finite automaton can be built according to the regular
/// expression α … and then the traversal is guided by the FA"*).
///
/// Runs over the product space (vertex, NFA state), ε-moves included,
/// from `(s, start)` to `(t, accept)`. Note that unlike
/// [`lcr_bfs`]/[`rlc_bfs`], the empty path only counts if the
/// automaton accepts ε.
pub fn rpq_bfs(g: &LabeledGraph, s: VertexId, t: VertexId, nfa: &Nfa) -> bool {
    let ns = nfa.num_states();
    let slot = |v: VertexId, q: u32| v.index() * ns + q as usize;
    let mut seen = vec![false; g.num_vertices() * ns];
    seen[slot(s, nfa.start())] = true;
    let mut queue = vec![(s, nfa.start())];
    let mut head = 0;
    while head < queue.len() {
        let (u, q) = queue[head];
        head += 1;
        if u == t && q == nfa.accept() {
            return true;
        }
        for (v, qq, _) in nfa.product_successors(g, u, q) {
            if !seen[slot(v, qq)] {
                seen[slot(v, qq)] = true;
                queue.push((v, qq));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::parse;
    use reach_graph::fixtures::{self, A, B, FOLLOWS, FRIEND_OF, G, L, M, WORKS_FOR};

    const ALPHABET: &[&str] = &["friendOf", "follows", "worksFor"];

    #[test]
    fn paper_example_alternation_is_false() {
        // Qr(A, G, (friendOf ∪ follows)*) = false
        let g = fixtures::figure1b();
        let allowed = LabelSet::from_labels([FRIEND_OF, FOLLOWS]);
        assert!(!lcr_bfs(&g, A, G, allowed));
        // but unconstrained, A reaches G
        assert!(lcr_bfs(&g, A, G, LabelSet::full(3)));
    }

    #[test]
    fn paper_example_concatenation_is_true() {
        // Qr(L, B, (worksFor · friendOf)*) = true via
        // (L, worksFor, D, friendOf, H, worksFor, G, friendOf, B)
        let g = fixtures::figure1b();
        assert!(rlc_bfs(&g, L, B, &[WORKS_FOR, FRIEND_OF]));
        // the reversed unit does not match
        assert!(!rlc_bfs(&g, L, B, &[FRIEND_OF, WORKS_FOR]));
    }

    #[test]
    fn rlc_requires_full_repetitions() {
        let g = fixtures::figure1b();
        // L -worksFor-> C reaches M with (worksFor, worksFor):
        // one repeat of the 2-unit (worksFor, worksFor)
        assert!(rlc_bfs(&g, L, M, &[WORKS_FOR, WORKS_FOR]));
        // but a 3-unit starting worksFor,worksFor,worksFor has no
        // complete repetition ending at M
        assert!(!rlc_bfs(&g, L, M, &[WORKS_FOR, WORKS_FOR, WORKS_FOR]));
    }

    #[test]
    fn rpq_agrees_with_lcr_on_alternations() {
        let g = fixtures::figure1b();
        let ast = parse("(friendOf ∪ follows)*", ALPHABET).unwrap();
        let nfa = Nfa::compile(&ast);
        let allowed = LabelSet::from_labels([FRIEND_OF, FOLLOWS]);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    rpq_bfs(&g, s, t, &nfa),
                    lcr_bfs(&g, s, t, allowed),
                    "mismatch at {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn rpq_agrees_with_rlc_on_concatenations() {
        let g = fixtures::figure1b();
        let ast = parse("(worksFor · friendOf)*", ALPHABET).unwrap();
        let nfa = Nfa::compile(&ast);
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(
                    rpq_bfs(&g, s, t, &nfa),
                    rlc_bfs(&g, s, t, &[WORKS_FOR, FRIEND_OF]),
                    "mismatch at {s:?}->{t:?}"
                );
            }
        }
    }

    #[test]
    fn rpq_handles_non_kleene_constraints() {
        let g = fixtures::figure1b();
        // a single worksFor edge
        let nfa = Nfa::compile(&parse("worksFor", ALPHABET).unwrap());
        assert!(rpq_bfs(&g, L, fixtures::C, &nfa));
        assert!(!rpq_bfs(&g, A, fixtures::C, &nfa), "needs exactly one edge");
        // empty path only with ε in the language
        assert!(!rpq_bfs(&g, A, A, &nfa));
        let star = Nfa::compile(&parse("worksFor*", ALPHABET).unwrap());
        assert!(rpq_bfs(&g, A, A, &star));
    }

    #[test]
    fn empty_label_set_still_reaches_self() {
        let g = fixtures::figure1b();
        assert!(lcr_bfs(&g, A, A, LabelSet::EMPTY));
        assert!(!lcr_bfs(&g, A, B, LabelSet::EMPTY));
    }
}
