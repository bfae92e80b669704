//! Randomized tests for the dynamic indexes (the "Dynamic" columns of
//! Tables 1 and 2): arbitrary edit scripts must leave every dynamic
//! index equivalent to a fresh rebuild, and the constraint parser must
//! be total (never panic) on arbitrary input.
//!
//! Each test draws its cases from a seeded `SmallRng`, so failures are
//! reproducible from the printed case seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reachability::graph::traverse::{bfs_reaches, VisitMap};
use reachability::labeled::dlcr::Dlcr;
use reachability::labeled::online::lcr_bfs;
use reachability::labeled::{Ast, Nfa};
use reachability::plain::dagger::DynamicGrail;
use reachability::plain::dbl::Dbl;
use reachability::prelude::*;

const CASES: u64 = 48;

/// An edit: insert (op = 0) or delete (op = 1) the edge derived from
/// `(x, y)` on an `n`-vertex graph.
type Edit = (u8, u32, u32);

fn apply_plain(edits: &[Edit], n: u32, edges: &mut Vec<(u32, u32)>) -> Vec<(u8, u32, u32)> {
    let mut resolved = Vec::new();
    for &(op, x, y) in edits {
        let u = x % n;
        let mut v = y % n;
        if v == u {
            v = (v + 1) % n;
        }
        resolved.push((op % 2, u, v));
        if op % 2 == 0 {
            if !edges.contains(&(u, v)) {
                edges.push((u, v));
            }
        } else {
            edges.retain(|&e| e != (u, v));
        }
    }
    resolved
}

#[test]
fn dbl_inserts_match_rebuild() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xDB1_0000 + case);
        let n = 15u32;
        let mut edges: Vec<(u32, u32)> = (0..rng.random_range(0usize..30))
            .map(|_| (rng.random_range(0..15u32), rng.random_range(0..15u32)))
            .filter(|&(u, v)| u != v)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let g = DiGraph::from_edges(n as usize, &edges);
        let mut dbl = Dbl::build(&g);
        for _ in 0..rng.random_range(1usize..15) {
            let u = rng.random_range(0..15u32);
            let mut v = rng.random_range(0..15u32) % n;
            if v == u {
                v = (v + 1) % n;
            }
            dbl.insert_edge(VertexId(u), VertexId(v));
            if !edges.contains(&(u, v)) {
                edges.push((u, v));
            }
        }
        let now = DiGraph::from_edges(n as usize, &edges);
        // the grown labels' definite verdicts, probed against BFS
        assert_eq!(dbl.check_invariants(&now), Vec::new(), "case {case}");
        let mut vm = VisitMap::new(n as usize);
        for s in now.vertices() {
            for t in now.vertices() {
                assert_eq!(
                    dbl.query(s, t),
                    bfs_reaches(&now, s, t, &mut vm),
                    "case {case}: at {s}->{t}"
                );
            }
        }
    }
}

#[test]
fn dagger_survives_arbitrary_edit_scripts() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xDA6_0000 + case);
        let m = rng.random_range(0usize..40);
        let edits: Vec<Edit> = (0..rng.random_range(1usize..20))
            .map(|_| {
                (
                    rng.random_range(0u8..2),
                    rng.random_range(0u32..12),
                    rng.random_range(0u32..12),
                )
            })
            .collect();
        let seed = rng.random_range(0u64..100);
        // base DAG: forward edges derived from the seed
        let n = 12u32;
        let mut gen = SmallRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let u = gen.random_range(0..n - 1);
                let v = gen.random_range(u + 1..n);
                (u, v)
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let dag = Dag::new(DiGraph::from_edges(n as usize, &edges)).unwrap();
        let mut dagger = DynamicGrail::build(&dag, 2, seed);
        // DAGGER tolerates arbitrary (even cycle-creating) edits
        let resolved = apply_plain(&edits, n, &mut edges);
        for (op, u, v) in resolved {
            if op == 0 {
                dagger.insert_edge(VertexId(u), VertexId(v));
            } else {
                dagger.delete_edge(VertexId(u), VertexId(v));
            }
        }
        let now = DiGraph::from_edges(n as usize, &edges);
        // the widened intervals: nesting along every edge left, and
        // every definite verdict against BFS
        assert_eq!(dagger.check_invariants(&now), Vec::new(), "case {case}");
        let mut vm = VisitMap::new(n as usize);
        for s in now.vertices() {
            for t in now.vertices() {
                assert_eq!(
                    dagger.query(s, t),
                    bfs_reaches(&now, s, t, &mut vm),
                    "case {case}: at {s}->{t}"
                );
            }
        }
    }
}

#[test]
fn dlcr_edit_scripts_match_rebuild() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD1C2_0000 + case);
        let n = 10u32;
        let mut edges: Vec<(u32, u8, u32)> = (0..rng.random_range(0usize..20))
            .map(|_| {
                (
                    rng.random_range(0..10u32),
                    rng.random_range(0..2u8),
                    rng.random_range(0..10u32),
                )
            })
            .filter(|&(u, _, v)| u != v)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let g = LabeledGraph::from_edges(n as usize, 2, &edges);
        let mut dlcr = Dlcr::build(&g);
        for _ in 0..rng.random_range(1usize..10) {
            let op = rng.random_range(0u8..2);
            let u = rng.random_range(0..10u32);
            let l = rng.random_range(0..2u8);
            let mut v = rng.random_range(0..10u32) % n;
            if v == u {
                v = (v + 1) % n;
            }
            if op % 2 == 0 {
                dlcr.insert_edge(VertexId(u), Label(l), VertexId(v));
                if !edges.contains(&(u, l, v)) {
                    edges.push((u, l, v));
                }
            } else {
                dlcr.delete_edge(VertexId(u), Label(l), VertexId(v));
                edges.retain(|&e| e != (u, l, v));
            }
        }
        let now = LabeledGraph::from_edges(n as usize, 2, &edges);
        for s in now.vertices() {
            for t in now.vertices() {
                for mask in 0..4u64 {
                    let allowed = LabelSet(mask);
                    assert_eq!(
                        dlcr.query(s, t, allowed),
                        lcr_bfs(&now, s, t, allowed),
                        "case {case}: at {s}->{t} under {allowed:?}"
                    );
                }
            }
        }
    }
}

/// End positions `j` such that `word[i..j]` spells a word of `ast`: a
/// direct reading of the grammar, independent of the NFA.
fn ends(ast: &Ast, word: &[Label], i: usize) -> Vec<usize> {
    let mut out: Vec<usize> = match ast {
        Ast::Labels(set) => word
            .get(i)
            .filter(|&&l| set.contains(l))
            .map(|_| i + 1)
            .into_iter()
            .collect(),
        Ast::Alt(terms) => terms.iter().flat_map(|x| ends(x, word, i)).collect(),
        Ast::Concat(terms) => terms.iter().fold(vec![i], |at, x| {
            at.iter().flat_map(|&j| ends(x, word, j)).collect()
        }),
        Ast::Star(x) | Ast::Plus(x) => {
            let mut reached = if matches!(ast, Ast::Star(_)) {
                vec![i]
            } else {
                vec![]
            };
            let mut frontier = vec![i];
            while let Some(j) = frontier.pop() {
                for k in ends(x, word, j) {
                    if !reached.contains(&k) {
                        reached.push(k);
                        frontier.push(k);
                    }
                }
            }
            reached
        }
    };
    out.sort_unstable();
    out.dedup();
    out
}

fn matches(ast: &Ast, word: &[Label]) -> bool {
    ends(ast, word, 0).contains(&word.len())
}

/// A random valid α over `a`, `b`, `c` (depth ≤ `depth`, ≤ 6 terms per
/// chain) and the tree it spells, nested as written (not normalized).
fn random_alpha(rng: &mut SmallRng, depth: u32) -> (String, Ast) {
    let kind = if depth == 0 {
        0
    } else {
        rng.random_range(0..5)
    };
    let group = |(text, ast): (String, Ast)| match ast {
        Ast::Labels(_) => (text, ast),
        _ => (format!("({text})"), ast),
    };
    match kind {
        0 => {
            let l = rng.random_range(0..3u8);
            let name = ["a", "b", "c"][l as usize].to_string();
            (name, Ast::Labels(LabelSet::singleton(Label(l))))
        }
        1 | 2 => {
            let (texts, terms): (Vec<String>, Vec<Ast>) = (0..rng.random_range(2..=6))
                .map(|_| group(random_alpha(rng, depth - 1)))
                .unzip();
            match kind {
                1 => (
                    texts.join(["·", "."][rng.random_range(0..2)]),
                    Ast::Concat(terms),
                ),
                _ => (
                    texts.join(["∪", "|"][rng.random_range(0..2)]),
                    Ast::Alt(terms),
                ),
            }
        }
        _ => {
            let (text, inner) = group(random_alpha(rng, depth - 1));
            match kind {
                3 => (format!("{text}*"), Ast::Star(Box::new(inner))),
                _ => (format!("{text}+"), Ast::Plus(Box::new(inner))),
            }
        }
    }
}

fn random_word(rng: &mut SmallRng) -> Vec<Label> {
    (0..rng.random_range(0..=6))
        .map(|_| Label(rng.random_range(0..3)))
        .collect()
}

#[test]
fn constraint_parser_is_total() {
    // printable-ish alphabet plus the grammar's own tokens: the parser
    // must never panic, only parse or report a positioned error; what
    // parses must classify, compile and run without panicking too
    let pool: Vec<char> = ('!'..='~')
        .chain(['∪', '∘', '*', '(', ')', ' ', 'a', 'b', 'c', '⋅', 'λ', '∅'])
        .collect();
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x9A25_0000 + case);
        let len = rng.random_range(0usize..=40);
        let input: String = (0..len)
            .map(|_| pool[rng.random_range(0..pool.len())])
            .collect();
        if let Ok(ast) = reachability::labeled::parse(&input, &["a", "b", "c"]) {
            let _ = ast.classify();
            let _ = Nfa::compile(&ast).accepts(&random_word(&mut rng));
        }
    }
    // valid α: the parsed, normalized tree and its NFA accept exactly
    // the words the written tree spells, and the classification agrees
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0x9A26_0000 + case);
        let (text, written) = random_alpha(&mut rng, 4);
        let ast = reachability::labeled::parse(&text, &["a", "b", "c"])
            .unwrap_or_else(|e| panic!("case {case}: {text}: {e}"));
        let kind = ast.classify();
        let nfa = Nfa::compile(&ast);
        for _ in 0..16 {
            let word = random_word(&mut rng);
            let expect = matches(&written, &word);
            assert_eq!(
                matches(&ast, &word),
                expect,
                "case {case}: {text} on {word:?}"
            );
            assert_eq!(
                nfa.accepts(&word),
                expect,
                "case {case}: {text} on {word:?}"
            );
            let in_fragment = match &kind {
                ConstraintKind::Alternation(set) => word.iter().all(|&l| set.contains(l)),
                ConstraintKind::Concatenation(unit) => {
                    word.len().is_multiple_of(unit.len())
                        && word.iter().zip(unit.iter().cycle()).all(|(a, b)| a == b)
                }
                ConstraintKind::General => expect,
            };
            assert_eq!(
                in_fragment, expect,
                "case {case}: {text} as {kind:?} on {word:?}"
            );
        }
    }
}

#[test]
fn parser_roundtrips_valid_alternations() {
    let names = ["a", "b", "c"];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9A40_0000 + case);
        let labels: Vec<u8> = (0..rng.random_range(1usize..4))
            .map(|_| rng.random_range(0u8..3))
            .collect();
        let expr = format!(
            "({})*",
            labels
                .iter()
                .map(|&l| names[l as usize])
                .collect::<Vec<_>>()
                .join(" ∪ ")
        );
        let ast = reachability::labeled::parse(&expr, &names).unwrap();
        let expect = LabelSet::from_labels(labels.iter().map(|&l| Label(l)));
        assert_eq!(
            ast.classify(),
            ConstraintKind::Alternation(expect),
            "case {case}: {expr}"
        );
    }
}

#[test]
fn io_roundtrip_is_identity() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x10F0_0000 + case);
        let edges: Vec<(u32, u8, u32)> = (0..rng.random_range(0usize..50))
            .map(|_| {
                (
                    rng.random_range(0..20u32),
                    rng.random_range(0..4u8),
                    rng.random_range(0..20u32),
                )
            })
            .collect();
        let g = LabeledGraph::from_edges(20, 4, &edges);
        let text = reachability::graph::io::write_labeled(&g);
        let back = reachability::graph::io::read_labeled(&text).unwrap();
        assert_eq!(g, back, "case {case}");
    }
}
