//! Request-body parsers for `POST /query` and `POST /batch`.
//!
//! A body is one `<s> <t>` pair (`/query`) or one pair per line
//! (`/batch`, where blank lines and `#` comments are skipped). Ids are
//! decimal `u32`s below the graph's vertex count.
//!
//! The body clients send, lines of `digits SP digits LF` with in-range
//! ids (the last LF optional), is read in one pass over its bytes. Any
//! other body goes through the line parser (`trim`, `split_whitespace`,
//! `str::parse`), so both paths accept the same bodies with the same
//! pairs and reject the rest with the same error string.

use reach_graph::io::plain_id;
use reach_graph::VertexId;

/// Parses a `/query` body: one `<s> <t>` pair with ids below `n`.
pub fn parse_query(body: &str, n: usize) -> Result<(VertexId, VertexId), String> {
    match plain_pairs(body, n).as_deref() {
        Some(&[pair]) => Ok(pair),
        _ => parse_pair(body.trim(), n),
    }
}

/// Parses a `/batch` body: one `<s> <t>` pair per line, ids below `n`,
/// at least one pair.
pub fn parse_batch(body: &str, n: usize) -> Result<Vec<(VertexId, VertexId)>, String> {
    let pairs = match plain_pairs(body, n) {
        Some(pairs) => pairs,
        None => body
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| parse_pair(l, n))
            .collect::<Result<_, _>>()?,
    };
    if pairs.is_empty() {
        return Err("empty batch: send one \"<s> <t>\" pair per line\n".into());
    }
    Ok(pairs)
}

/// Parses one vertex id below `n`.
pub(crate) fn parse_vertex(tok: &str, n: usize) -> Result<VertexId, String> {
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

/// The pairs of a body made only of `digits SP digits LF` lines (the
/// last LF optional) whose ids are below `n`, or `None` for any other
/// body.
fn plain_pairs(body: &str, n: usize) -> Option<Vec<(VertexId, VertexId)>> {
    let bytes = body.as_bytes();
    // the shortest line, `0 1\n`, has four bytes
    let mut pairs = Vec::with_capacity(bytes.len() / 4);
    let mut pos = 0;
    while pos < bytes.len() {
        let (s, after_s) = plain_id(bytes, pos, n)?;
        if bytes.get(after_s) != Some(&b' ') {
            return None;
        }
        let (t, after_t) = plain_id(bytes, after_s + 1, n)?;
        pos = match bytes.get(after_t) {
            Some(b'\n') => after_t + 1,
            None => after_t,
            Some(_) => return None,
        };
        pairs.push((VertexId(s), VertexId(t)));
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: u32, t: u32) -> (VertexId, VertexId) {
        (VertexId(s), VertexId(t))
    }

    #[test]
    fn plain_bodies_take_the_byte_pass() {
        assert_eq!(
            plain_pairs("1 2\n30 4\n", 50),
            Some(vec![v(1, 2), v(30, 4)])
        );
        assert_eq!(plain_pairs("1 2", 50), Some(vec![v(1, 2)]));
        assert_eq!(plain_pairs("007 0\n", 50), Some(vec![v(7, 0)]));
        assert_eq!(plain_pairs("", 50), Some(vec![]));
        for other in [
            "1 50\n", "1  2\n", "1 2\r\n", "+1 2\n", "1 2 3\n", "\n", "1\n", "1 2\n\n",
        ] {
            assert_eq!(plain_pairs(other, 50), None, "{other:?}");
        }
        assert_eq!(plain_pairs("1234567890 1\n", usize::MAX), None);
    }

    #[test]
    fn both_paths_give_one_answer() {
        assert_eq!(parse_batch("1 2\n", 5), parse_batch(" 1 2\n", 5));
        assert_eq!(parse_batch("#c\n1 2\r\n\n", 5), Ok(vec![v(1, 2)]));
        assert_eq!(parse_query("3 +4\n", 5), Ok(v(3, 4)));
        assert_eq!(parse_query("3 4", 5), Ok(v(3, 4)));
        assert_eq!(
            parse_query("3 4\n1 2\n", 5),
            Err("expected \"<s> <t>\", got \"3 4\\n1 2\"\n".into())
        );
        assert_eq!(
            parse_batch("1 2\n0 5\n", 5),
            Err("vertex id 5 out of range (n = 5)\n".into())
        );
        assert_eq!(
            parse_batch("", 5),
            Err("empty batch: send one \"<s> <t>\" pair per line\n".into())
        );
    }
}
