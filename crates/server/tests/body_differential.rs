//! Differential test for the `/query` and `/batch` body parsers.
//!
//! `body::parse_query` and `body::parse_batch` read the common body in
//! one byte pass and fall back to the line parser for anything else.
//! The line parser they replaced is kept below, verbatim apart from
//! names, as the oracle. Both run on seeded mutated bodies: `+7`,
//! tabs, CRLF, `#` comments, blank lines, Unicode spaces, 10-digit
//! ids, ids at or past `n`, three tokens and empty bodies. Each body
//! must give the same pairs or the same error string.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reach_graph::VertexId;
use reach_server::body::{parse_batch, parse_query};

const CASES: u64 = 4000;

/// The line parser of the `/query` and `/batch` handlers.
mod oracle {
    use reach_graph::VertexId;

    fn parse_vertex(tok: &str, n: usize) -> Result<VertexId, String> {
        let id: u32 = tok
            .parse()
            .map_err(|_| format!("bad vertex id {tok:?}\n"))?;
        if id as usize >= n {
            return Err(format!("vertex id {id} out of range (n = {n})\n"));
        }
        Ok(VertexId(id))
    }

    fn parse_pair(line: &str, n: usize) -> Result<(VertexId, VertexId), String> {
        let mut toks = line.split_whitespace();
        let (Some(s), Some(t), None) = (toks.next(), toks.next(), toks.next()) else {
            return Err(format!("expected \"<s> <t>\", got {line:?}\n"));
        };
        Ok((parse_vertex(s, n)?, parse_vertex(t, n)?))
    }

    pub fn query(body: &str, n: usize) -> Result<(VertexId, VertexId), String> {
        parse_pair(body.trim(), n)
    }

    pub fn batch(body: &str, n: usize) -> Result<Vec<(VertexId, VertexId)>, String> {
        let pairs: Vec<(VertexId, VertexId)> = body
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| parse_pair(l, n))
            .collect::<Result<_, _>>()?;
        if pairs.is_empty() {
            return Err("empty batch: send one \"<s> <t>\" pair per line\n".into());
        }
        Ok(pairs)
    }
}

/// Whitespace the line parser skips: ASCII and Unicode spaces.
const SPACES: &[&str] = &["\t", "  ", "\u{a0}", "\u{2003}", "\u{3000}", "\x0b"];

fn pick<'a>(rng: &mut SmallRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

/// A separator: usually one space, sometimes other whitespace.
fn sep(rng: &mut SmallRng) -> &'static str {
    if rng.random_range(0..5) == 0 {
        pick(rng, SPACES)
    } else {
        " "
    }
}

/// An id token: usually in range, sometimes at or past `n`, `+`-signed,
/// zero-padded, ten digits long or not a number.
fn id(rng: &mut SmallRng, n: u32) -> String {
    match rng.random_range(0..24) {
        0 => format!("+{}", rng.random_range(0..n)),
        1 => (n + rng.random_range(0..3)).to_string(),
        2 => format!("00{}", rng.random_range(0..n)),
        3 => pick(
            rng,
            &["1234567890", "4294967295", "4294967296", "0000000001"],
        )
        .to_string(),
        4 => pick(rng, &["x", "-1", "1.5", "", "\u{661}"]).to_string(),
        _ => rng.random_range(0..n).to_string(),
    }
}

/// One body line: usually a clean pair, sometimes blank, a comment,
/// padded, one token short or one too many.
fn line(rng: &mut SmallRng, n: u32) -> String {
    match rng.random_range(0..30) {
        0 => return String::new(),
        1 => return format!("{}# comment 1 2", sep(rng)),
        2 => return sep(rng).to_string(),
        3 => return id(rng, n),
        4 => return format!("{} {} {}", id(rng, n), id(rng, n), id(rng, n)),
        _ => {}
    }
    let mut out = String::new();
    if rng.random_range(0..8) == 0 {
        out.push_str(sep(rng));
    }
    out.push_str(&id(rng, n));
    out.push_str(sep(rng));
    out.push_str(&id(rng, n));
    if rng.random_range(0..10) == 0 {
        out.push_str(sep(rng));
    }
    out
}

/// A seeded body of up to 20 lines with mixed line endings, sometimes
/// without the last one.
fn mutated_body(rng: &mut SmallRng, n: u32) -> String {
    let mut body = String::new();
    for _ in 0..rng.random_range(0..20) {
        body.push_str(&line(rng, n));
        body.push_str(if rng.random_range(0..6) == 0 {
            "\r\n"
        } else {
            "\n"
        });
    }
    if rng.random_range(0..3) == 0 {
        body.pop();
    }
    body
}

#[test]
fn body_parsers_match_the_line_parser() {
    let (mut batch_oks, mut query_oks) = (0, 0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let n = rng.random_range(1u32..2000);
        let body = if rng.random_range(0..4) == 0 {
            // a lone pair, the shape of a `/query` body
            line(&mut rng, n)
        } else {
            mutated_body(&mut rng, n)
        };
        let batch = parse_batch(&body, n as usize);
        batch_oks += usize::from(batch.is_ok());
        assert_eq!(
            batch,
            oracle::batch(&body, n as usize),
            "case {case}: {body:?}"
        );
        let query = parse_query(&body, n as usize);
        query_oks += usize::from(query.is_ok());
        assert_eq!(
            query,
            oracle::query(&body, n as usize),
            "case {case}: {body:?}"
        );
    }
    assert!(
        batch_oks > CASES as usize / 10,
        "too few valid batches: {batch_oks}"
    );
    assert!(
        query_oks > CASES as usize / 20,
        "too few valid queries: {query_oks}"
    );
}

#[test]
fn body_parsers_agree_on_fixed_edge_cases() {
    let pair = (VertexId(0), VertexId(5));
    for body in [
        "",
        "\n",
        "0 5",
        "0 5\n",
        "0 +5\n",
        "0\t5\r\n",
        "# c\r\n0 5\r\n",
        "0 2000\n",
        "1 2 3\n",
        "4294967296 1\n",
        "0000000000 5\n",
        "0 5\n\n0 5\n",
        "0\u{3000}5\n",
        "0 5\n0 5",
    ] {
        for n in [5, 6, 2000] {
            assert_eq!(
                parse_batch(body, n),
                oracle::batch(body, n),
                "{body:?} n={n}"
            );
            assert_eq!(
                parse_query(body, n),
                oracle::query(body, n),
                "{body:?} n={n}"
            );
        }
    }
    assert_eq!(parse_query("0 +5", 6), Ok(pair));
}
