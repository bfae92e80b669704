//! Differential tests for the edge-list readers and the CSR builder.
//!
//! * `io::read_digraph` / `io::read_labeled` (single-pass byte scanners)
//!   are checked against the line-based readers they replaced, kept
//!   below as the oracle, on seeded mutated inputs: comments, CRLF,
//!   tabs, Unicode whitespace, leading `+`, overflowing numbers,
//!   trailing and missing tokens, out-of-range ids, duplicate edges and
//!   self-loops. Both must return the same graph or the same error.
//!   The plain reader is also run with its body cut into 1–4 chunks,
//!   so the CSR build takes one edge list per chunk.
//! * The counting-sort `DiGraphBuilder::build` and the condensation it
//!   feeds are checked against a sort + dedup reference.
//!
//! Each test draws its cases from a seeded `SmallRng`, so failures are
//! reproducible from the printed case seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reachability::graph::io::{
    max_declared_vertices, read_digraph, read_digraph_with_threads, read_labeled,
};
use reachability::graph::{Condensation, DiGraph, GraphError, VertexId};

const CASES: u64 = 3000;

/// The line-based readers the byte scanners replaced, verbatim apart
/// from paths.
mod oracle {
    use reachability::graph::labeled::{Label, LabeledGraph, LabeledGraphBuilder, MAX_LABELS};
    use reachability::graph::{DiGraph, DiGraphBuilder, GraphError, VertexId};

    fn parse_err(line: usize, message: impl Into<String>) -> GraphError {
        GraphError::Parse {
            line,
            message: message.into(),
        }
    }

    fn significant_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
        text.lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
    }

    fn parse_u32(tok: &str, line: usize, what: &str) -> Result<u32, GraphError> {
        tok.parse::<u32>()
            .map_err(|_| parse_err(line, format!("invalid {what}: {tok:?}")))
    }

    pub fn read_digraph(text: &str) -> Result<DiGraph, GraphError> {
        let mut lines = significant_lines(text);
        let (lno, header) = lines
            .next()
            .ok_or_else(|| parse_err(0, "missing header line"))?;
        let n = parse_u32(header, lno, "vertex count")? as usize;
        let mut b = DiGraphBuilder::new(n);
        for (lno, line) in lines {
            let mut toks = line.split_whitespace();
            let u = parse_u32(
                toks.next()
                    .ok_or_else(|| parse_err(lno, "missing source"))?,
                lno,
                "source",
            )?;
            let v = parse_u32(
                toks.next()
                    .ok_or_else(|| parse_err(lno, "missing target"))?,
                lno,
                "target",
            )?;
            if toks.next().is_some() {
                return Err(parse_err(lno, "trailing tokens on edge line"));
            }
            b.try_add_edge(VertexId(u), VertexId(v))
                .map_err(|e| parse_err(lno, e.to_string()))?;
        }
        Ok(b.build())
    }

    pub fn read_labeled(text: &str) -> Result<LabeledGraph, GraphError> {
        let mut lines = significant_lines(text);
        let (lno, header) = lines
            .next()
            .ok_or_else(|| parse_err(0, "missing header line"))?;
        let mut toks = header.split_whitespace();
        let n = parse_u32(
            toks.next()
                .ok_or_else(|| parse_err(lno, "missing vertex count"))?,
            lno,
            "vertex count",
        )? as usize;
        let k = parse_u32(
            toks.next()
                .ok_or_else(|| parse_err(lno, "missing label count"))?,
            lno,
            "label count",
        )? as usize;
        if k > MAX_LABELS {
            return Err(parse_err(lno, format!("label alphabet {k} exceeds 64")));
        }
        let mut b = LabeledGraphBuilder::new(n, k);
        for (lno, line) in lines {
            let mut toks = line.split_whitespace();
            let u = parse_u32(
                toks.next()
                    .ok_or_else(|| parse_err(lno, "missing source"))?,
                lno,
                "source",
            )?;
            let l = parse_u32(
                toks.next().ok_or_else(|| parse_err(lno, "missing label"))?,
                lno,
                "label",
            )?;
            let v = parse_u32(
                toks.next()
                    .ok_or_else(|| parse_err(lno, "missing target"))?,
                lno,
                "target",
            )?;
            if toks.next().is_some() {
                return Err(parse_err(lno, "trailing tokens on edge line"));
            }
            let l = Label::try_new(l).map_err(|e| parse_err(lno, e.to_string()))?;
            b.try_add_edge(VertexId(u), l, VertexId(v))
                .map_err(|e| parse_err(lno, e.to_string()))?;
        }
        Ok(b.build())
    }
}

/// Separators: ASCII whitespace (with vertical tab and form feed),
/// Unicode whitespace, and look-alikes that are *not* whitespace
/// (zero-width space, U+001C).
const SPACES: &[&str] = &[
    " ", " ", " ", "\t", "  ", "\x0b", "\x0c", "\r", "\u{a0}", "\u{85}", "\u{2003}", "\u{3000}",
    "\u{2028}", "\u{200b}", "\x1c",
];

/// Odd tokens: signs, overflow, non-ASCII digits, junk.
const ODD_TOKENS: &[&str] = &[
    "+5",
    "+",
    "-1",
    "-0",
    "++1",
    "4294967295",
    "4294967296",
    "99999999999999999999",
    "0000000000000000001",
    "x",
    "1x",
    "#",
    "0#",
    "\u{661}",
    "é",
    "",
];

fn pick<'a>(rng: &mut SmallRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

fn sep(rng: &mut SmallRng) -> &'static str {
    if rng.random_range(0..4) == 0 {
        pick(rng, SPACES)
    } else {
        " "
    }
}

/// A number token: usually in range, sometimes just past `bound`,
/// sometimes `+`-prefixed, sometimes an odd token.
fn number(rng: &mut SmallRng, bound: u32) -> String {
    match rng.random_range(0..20) {
        0 => pick(rng, ODD_TOKENS).to_string(),
        1 => format!("+{}", rng.random_range(0..bound.max(1))),
        2 => (bound + rng.random_range(0..3)).to_string(),
        _ => rng.random_range(0..bound.max(1)).to_string(),
    }
}

/// One line of a mutated edge list with `fields` numbers per record.
fn line(rng: &mut SmallRng, fields: &[u32]) -> String {
    let mut out = String::new();
    match rng.random_range(0..24) {
        0 => return String::new(),
        1 => return format!("{}# comment 1 2", sep(rng)),
        2 => return sep(rng).to_string(),
        _ => {}
    }
    if rng.random_range(0..6) == 0 {
        out.push_str(sep(rng));
    }
    // Occasionally drop or add a field.
    let count = match rng.random_range(0..30) {
        0 => fields.len().saturating_sub(1),
        1 => fields.len() + 1,
        _ => fields.len(),
    };
    for i in 0..count {
        if i > 0 {
            out.push_str(sep(rng));
        }
        let bound = fields.get(i).copied().unwrap_or(3);
        out.push_str(&number(rng, bound));
    }
    match rng.random_range(0..12) {
        0 => out.push_str(sep(rng)),
        1 => out.push_str(" # trailing comment"),
        _ => {}
    }
    out
}

/// A seeded mutated edge list: header, then records, with mixed line
/// endings. Records repeat, so the builder sees duplicate edges.
fn mutated_text(rng: &mut SmallRng, labeled: bool) -> String {
    let n = rng.random_range(0u32..12);
    let k = rng.random_range(0u32..5);
    let mut lines = Vec::new();
    for _ in 0..rng.random_range(0..3) {
        lines.push(line(rng, &[]));
    }
    let header = match rng.random_range(0..12) {
        0 => format!("{n} {k}"),
        1 => n.to_string(),
        2 => format!("+{n}{}{k} extra", sep(rng)),
        3 => format!("{}{n}{}{k}{}", sep(rng), sep(rng), sep(rng)),
        4 => format!("{n} 65"),
        5 => pick(rng, ODD_TOKENS).to_string(),
        _ if labeled => format!("{n} {k}"),
        _ => n.to_string(),
    };
    lines.push(header);
    let fields: &[u32] = if labeled { &[n, k, n] } else { &[n, n] };
    for _ in 0..rng.random_range(0..16) {
        let l = if !lines.is_empty() && rng.random_range(0..5) == 0 {
            lines[rng.random_range(0..lines.len())].clone()
        } else {
            line(rng, fields)
        };
        lines.push(l);
    }
    let mut text = String::new();
    for l in &lines {
        text.push_str(l);
        text.push_str(match rng.random_range(0..4) {
            0 => "\r\n",
            _ => "\n",
        });
    }
    if rng.random_range(0..3) == 0 {
        text.pop();
    }
    text
}

fn assert_same<T: PartialEq + std::fmt::Debug>(
    case: u64,
    text: &str,
    new: Result<T, GraphError>,
    old: impl FnOnce() -> Result<T, GraphError>,
) {
    // The new readers bound the declared vertex count; the oracle would
    // allocate whatever the header says, so it is only consulted below
    // the bound.
    if let Err(GraphError::Parse { message, .. }) = &new {
        if message.contains("exceeds") && message.contains("limit") {
            return;
        }
    }
    assert_eq!(new, old(), "case {case}: input {text:?}");
}

#[test]
fn plain_reader_matches_the_line_based_oracle() {
    let mut oks = 0;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let text = mutated_text(&mut rng, false);
        let new = read_digraph(&text);
        oks += usize::from(new.is_ok());
        assert_same(case, &text, new, || oracle::read_digraph(&text));
        for threads in 1..=4 {
            let split = read_digraph_with_threads(&text, threads);
            assert_same(case, &text, split, || oracle::read_digraph(&text));
        }
    }
    assert!(oks > CASES as usize / 20, "too few valid inputs: {oks}");
}

#[test]
fn chunked_reader_reports_the_first_error_in_file_order() {
    // errors on lines 4 and 7: whichever chunks they land in, line 4 wins
    let text = "# header next\n5\n0 1\n1 x\n2 3\n3 4\n4 9\n0 4\n";
    for threads in 1..=8 {
        let err = read_digraph_with_threads(text, threads).unwrap_err();
        assert_eq!(
            err,
            GraphError::Parse {
                line: 4,
                message: "invalid target: \"x\"".into()
            },
            "threads={threads}"
        );
    }
    let late = "5\n0 1\n\n# c\n1 2\n2 3\n3 4\n4 9\n";
    for threads in 1..=8 {
        match read_digraph_with_threads(late, threads) {
            Err(GraphError::Parse { line: 8, message }) => {
                assert!(message.contains("out of bounds"), "{message}")
            }
            other => panic!("threads={threads}: {other:?}"),
        }
    }
}

#[test]
fn labeled_reader_matches_the_line_based_oracle() {
    let mut oks = 0;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case ^ 0x1abe1);
        let text = mutated_text(&mut rng, true);
        let new = read_labeled(&text);
        oks += usize::from(new.is_ok());
        assert_same(case, &text, new, || oracle::read_labeled(&text));
    }
    assert!(oks > CASES as usize / 20, "too few valid inputs: {oks}");
}

#[test]
fn readers_agree_on_fixed_edge_cases() {
    let cases = [
        "",
        "\n\n",
        "# only a comment",
        "3",
        "3\r\n0 1\r\n1 2\r\n",
        "\u{feff}3\n0 1",
        "3\n0\u{a0}1\n\u{3000}1\t2\u{85}\n",
        "3\n0 1\r1 2\n",
        "3\n0 1 # comment\n",
        "  # indented comment\n3\n\t#\n0 2",
        "+3\n+0 +2\n",
        "3\n0 3\n",
        "3\n4294967296 0\n",
        "3\n0\n",
        "3\n0 1 2\n",
        "3 4\n0 1\n",
        "3\n1 1\n1 1\n0 1\n",
    ];
    for text in cases {
        assert_eq!(read_digraph(text), oracle::read_digraph(text), "{text:?}");
    }
    for text in [
        "3 2\n0 1 2\n",
        "3 2 junk\n0 1 2",
        "3\n",
        "3 65\n",
        "3 2\n0 2 1\n",
    ] {
        assert_eq!(read_labeled(text), oracle::read_labeled(text), "{text:?}");
    }
}

#[test]
fn declared_vertex_count_is_bounded_by_the_input_size() {
    // both headers are 8 bytes long
    let limit = max_declared_vertices(8);
    assert_eq!(limit, 8 * 8 + (1 << 20));
    let over = format!("{}\n", limit + 1);
    match read_digraph(&over) {
        Err(GraphError::Parse { line: 1, .. }) => {}
        other => panic!("expected a header error, got {other:?}"),
    }
    let g = read_digraph(&format!("{limit}\n")).unwrap();
    assert_eq!(g.num_vertices(), limit);
}

/// Sort + dedup reference adjacency for an edge list.
fn reference_lists(n: usize, edges: &[(u32, u32)]) -> (Vec<Vec<VertexId>>, Vec<Vec<VertexId>>) {
    let mut sorted = edges.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut out = vec![Vec::new(); n];
    let mut inn = vec![Vec::new(); n];
    for &(u, v) in &sorted {
        out[u as usize].push(VertexId(v));
        inn[v as usize].push(VertexId(u));
    }
    (out, inn)
}

fn assert_csr_matches(case: u64, g: &DiGraph, n: usize, edges: &[(u32, u32)]) {
    let (out, inn) = reference_lists(n, edges);
    assert_eq!(g.num_vertices(), n, "case {case}");
    assert_eq!(
        g.num_edges(),
        out.iter().map(Vec::len).sum::<usize>(),
        "case {case}"
    );
    for v in g.vertices() {
        assert_eq!(
            g.out_neighbors(v),
            &out[v.index()][..],
            "case {case} out {v:?}"
        );
        assert_eq!(
            g.in_neighbors(v),
            &inn[v.index()][..],
            "case {case} in {v:?}"
        );
    }
}

#[test]
fn counting_sort_csr_matches_sort_and_dedup() {
    for case in 0..400 {
        let mut rng = SmallRng::seed_from_u64(case);
        let n = rng.random_range(1usize..40);
        let m = rng.random_range(0usize..200);
        // a small id range for some sources forces long, duplicate-heavy lists
        let hot = rng.random_range(1..=n as u32);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| {
                let u = if rng.random_range(0..3) == 0 {
                    rng.random_range(0..hot)
                } else {
                    rng.random_range(0..n as u32)
                };
                (u, rng.random_range(0..n as u32))
            })
            .collect();
        let g = DiGraph::from_edges(n, &edges);
        assert_csr_matches(case, &g, n, &edges);
    }
}

#[test]
fn condensation_matches_relabel_sort_and_dedup() {
    for case in 0..200 {
        let mut rng = SmallRng::seed_from_u64(case ^ 0xc0de);
        let n = rng.random_range(1usize..40);
        let m = rng.random_range(0usize..120);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.random_range(0..n as u32), rng.random_range(0..n as u32)))
            .collect();
        let g = DiGraph::from_edges(n, &edges);
        let c = Condensation::new(&g);
        let comp = |v: u32| c.component_of(VertexId(v)).0;
        let relabeled: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(u, v)| (comp(u), comp(v)))
            .filter(|&(cu, cv)| cu != cv)
            .collect();
        let dag = c.dag();
        assert_csr_matches(case, dag.graph(), dag.num_vertices(), &relabeled);
        // components stay numbered in reverse topological order
        for (u, v) in dag.edges() {
            assert!(u > v, "case {case}: edge {u:?}->{v:?}");
        }
        let order: Vec<u32> = dag.topo_order().iter().map(|v| v.0).collect();
        let expect: Vec<u32> = (0..dag.num_vertices() as u32).rev().collect();
        assert_eq!(order, expect, "case {case}");
    }
}
