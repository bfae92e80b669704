//! Plain-text edge-list serialization.
//!
//! Format (one record per line, `#` comments allowed):
//!
//! ```text
//! # plain:   <num_vertices>    then   <u> <v>
//! # labeled: <num_vertices> <num_labels>   then   <u> <label> <v>
//! ```
//!
//! This is the interchange format used by most published reachability
//! index implementations, which makes it easy to feed real datasets to
//! the bench harness.
//!
//! Lines are separated by `\n`; blank lines and lines whose first
//! non-whitespace character is `#` are skipped; tokens are separated by
//! any Unicode whitespace (so `\r\n` endings and tabs are fine); numbers
//! are decimal `u32`s with an optional leading `+`. Errors carry the
//! 1-based line number of the offending line (0 for a missing header).
//!
//! The readers are single-pass byte scanners whose allocations are
//! bounded by the input size, never by a number the input declares:
//!
//! * the header's vertex count may be at most
//!   [`max_declared_vertices`]`(text.len())` = 8 · bytes + 2²⁰, since a
//!   larger count would make the CSR offset arrays outgrow the file;
//! * at most `u32::MAX` edge lines are accepted, the range of the CSR
//!   offsets.

use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::labeled::{Label, LabeledGraph, LabeledGraphBuilder, MAX_LABELS};
use crate::parallel;
use crate::vertex::VertexId;
use std::fmt::Write as _;

/// The largest vertex count a header may declare in an input of
/// `bytes` bytes: 8 · bytes + 2²⁰. Isolated vertices cost no text, so
/// the bound leaves generous room for them while keeping the vertex
/// tables within a small multiple of the input size.
pub fn max_declared_vertices(bytes: usize) -> usize {
    bytes.saturating_mul(8).saturating_add(1 << 20)
}

/// The most edge lines one input may hold (the CSR offsets are `u32`).
const MAX_EDGE_LINES: usize = u32::MAX as usize;

fn parse_err(line: usize, message: impl Into<String>) -> GraphError {
    GraphError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_u32(tok: &str, line: usize, what: &str) -> Result<u32, GraphError> {
    tok.parse::<u32>()
        .map_err(|_| parse_err(line, format!("invalid {what}: {tok:?}")))
}

/// The byte length of the leading character of `s` if it is Unicode
/// whitespace. Kept out of line: edge lists are almost always ASCII.
#[cold]
fn unicode_space(s: &str) -> Option<usize> {
    s.chars()
        .next()
        .filter(|c| c.is_whitespace())
        .map(char::len_utf8)
}

/// A cursor over the significant lines of an edge list. It scans the
/// bytes once; non-ASCII bytes are decoded only to test for Unicode
/// whitespace.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based number of the line `pos` is on.
    line: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// The byte length of the whitespace character at `pos`, if there
    /// is one (`\n` ends the line and does not count). Only non-ASCII
    /// bytes are decoded, to test for Unicode whitespace.
    fn space_at(&self, pos: usize) -> Option<usize> {
        match *self.text.as_bytes().get(pos)? {
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => Some(1),
            b if b < 0x80 => None,
            _ => unicode_space(&self.text[pos..]),
        }
    }

    fn skip_spaces(&mut self) {
        while let Some(len) = self.space_at(self.pos) {
            self.pos += len;
        }
    }

    /// Moves past the end of the current line.
    fn skip_line(&mut self) {
        match self.text.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(i) => {
                self.pos += i + 1;
                self.line += 1;
            }
            None => self.pos = self.text.len(),
        }
    }

    /// Advances to the first token of the next line that is neither
    /// blank nor a comment and returns its line number, or `None` at
    /// the end of the input.
    fn next_line(&mut self) -> Option<usize> {
        loop {
            self.skip_spaces();
            match self.text.as_bytes().get(self.pos) {
                None => return None,
                Some(b'\n' | b'#') => self.skip_line(),
                Some(_) => return Some(self.line),
            }
        }
    }

    /// The next token on the current line, or `None` at its end.
    fn token(&mut self) -> Option<&'a str> {
        self.skip_spaces();
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'\n' || self.space_at(self.pos).is_some() {
                break;
            }
            self.pos += match b {
                0x00..=0x7f => 1,
                0xc0..=0xdf => 2,
                0xe0..=0xef => 3,
                _ => 4,
            };
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    /// The rest of the current line without surrounding whitespace;
    /// moves past the line.
    fn rest_of_line(&mut self) -> &'a str {
        let start = self.pos;
        self.skip_line();
        self.text[start..self.pos].trim()
    }

    /// Parses the next token of line `lno` as a `u32`.
    ///
    /// The common case, a run of at most nine ASCII digits ending the
    /// token, is read in place; anything else (a `+` sign, ten digits,
    /// junk) goes through [`token`] and `str::parse`.
    ///
    /// [`token`]: Self::token
    fn number(&mut self, lno: usize, what: &str) -> Result<u32, GraphError> {
        self.skip_spaces();
        let bytes = self.text.as_bytes();
        let mut end = self.pos;
        let mut value = 0u32;
        while end - self.pos < 9 {
            match bytes.get(end) {
                Some(&b @ b'0'..=b'9') => value = value * 10 + u32::from(b - b'0'),
                _ => break,
            }
            end += 1;
        }
        let ends_token = match bytes.get(end) {
            None | Some(b'\n' | b' ') => true,
            Some(_) => self.space_at(end).is_some(),
        };
        if end > self.pos && ends_token {
            self.pos = end;
            return Ok(value);
        }
        let tok = self
            .token()
            .ok_or_else(|| parse_err(lno, format!("missing {what}")))?;
        parse_u32(tok, lno, what)
    }

    /// Ends edge line `lno`, which must hold no further token.
    fn end_edge_line(&mut self, lno: usize) -> Result<(), GraphError> {
        if self.text.as_bytes().get(self.pos) == Some(&b'\n') {
            self.pos += 1;
            self.line += 1;
            return Ok(());
        }
        if self.token().is_some() {
            return Err(parse_err(lno, "trailing tokens on edge line"));
        }
        self.skip_line();
        Ok(())
    }
}

/// Checks a header's vertex count against [`max_declared_vertices`].
fn vertex_count(n: u32, text: &str, lno: usize) -> Result<usize, GraphError> {
    let limit = max_declared_vertices(text.len());
    if n as usize > limit {
        return Err(parse_err(
            lno,
            format!(
                "vertex count {n} exceeds {limit}, the limit for a {}-byte input",
                text.len()
            ),
        ));
    }
    Ok(n as usize)
}

/// Counts one more edge line, rejecting inputs the CSR offsets cannot hold.
fn count_edge(m: &mut usize, lno: usize) -> Result<(), GraphError> {
    *m += 1;
    if *m > MAX_EDGE_LINES {
        return Err(parse_err(lno, format!("more than {MAX_EDGE_LINES} edges")));
    }
    Ok(())
}

/// Whether `text` is a labeled edge list: its header, the first line
/// that is neither blank nor a comment, holds a token after the vertex
/// count. [`read_labeled`] takes that token as the label count and
/// ignores any further ones; a plain header is the vertex count alone.
pub fn is_labeled(text: &str) -> bool {
    let mut lines = Lines::new(text);
    lines.next_line().is_some() && lines.token().is_some() && lines.token().is_some()
}

/// Serializes a plain digraph to the edge-list format.
pub fn write_digraph(g: &DiGraph) -> String {
    let mut out = String::with_capacity(16 + 12 * g.num_edges());
    let _ = writeln!(out, "{}", g.num_vertices());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{} {}", u.0, v.0);
    }
    out
}

/// Parses a plain digraph from the edge-list format. Once the input is
/// large enough (see [`parallel::setup_threads`]) the body after the
/// header is cut at line ends into chunks, each scanned on its own
/// thread.
pub fn read_digraph(text: &str) -> Result<DiGraph, GraphError> {
    read_digraph_with_threads(text, parallel::setup_threads(text.len()))
}

/// [`read_digraph`] with the body cut into at most `threads` chunks,
/// whatever the input's size, so tests can force a split on a short
/// text. Every thread count gives the same graph, or the same error:
/// the first one in file order, with its 1-based line number.
#[doc(hidden)]
pub fn read_digraph_with_threads(text: &str, threads: usize) -> Result<DiGraph, GraphError> {
    let mut lines = Lines::new(text);
    let lno = lines
        .next_line()
        .ok_or_else(|| parse_err(0, "missing header line"))?;
    let n = parse_u32(lines.rest_of_line(), lno, "vertex count")?;
    let n = vertex_count(n, text, lno)?;
    let body = &text[lines.pos..];
    // An input holds at most (bytes + 1) / 4 edge lines (`0 1\n`), so
    // only inputs of 16 GiB and more can hold too many; one chunk's
    // running count reports the exact line for those.
    let chunks = if (text.len() + 1) / 4 > MAX_EDGE_LINES {
        vec![body]
    } else {
        line_chunks(body, threads)
    };
    let scanned = parallel::map_chunks(chunks.len(), chunks.len(), |range| {
        range.map(|i| scan_edges(chunks[i], n)).collect::<Vec<_>>()
    });
    // Chunks start on line boundaries, so a chunk's lines are numbered
    // from the newlines before it.
    let mut before = lines.line - 1;
    let mut parts = Vec::with_capacity(chunks.len());
    for chunk in scanned.into_iter().flatten() {
        match chunk {
            Ok((edges, newlines)) => {
                parts.push(edges);
                before += newlines;
            }
            Err(GraphError::Parse { line, message }) => {
                return Err(parse_err(before + line, message))
            }
            Err(other) => return Err(other),
        }
    }
    Ok(DiGraph::from_edge_parts(n, parts))
}

/// Cuts `body` into at most `count` non-empty pieces of near-equal
/// length, each ending just after a newline (the last at the end).
fn line_chunks(body: &str, count: usize) -> Vec<&str> {
    let count = count.clamp(1, body.len().max(1));
    let bytes = body.as_bytes();
    let mut pieces = Vec::new();
    let mut start = 0;
    for k in 1..=count {
        let target = (body.len() * k / count).max(start);
        let end = match bytes[target..].iter().position(|&b| b == b'\n') {
            Some(i) if k < count => target + i + 1,
            _ => body.len(),
        };
        if end > start {
            pieces.push(&body[start..end]);
            start = end;
        }
    }
    pieces
}

/// Scans the edge lines of `chunk`, a run of whole lines, for a graph
/// on `n` vertices. Returns the edges and the chunk's newline count,
/// or the first error with its line number counted from the chunk's
/// first line.
///
/// Lines of the form `digits SP digits LF` with ids below `n` are read
/// in place; any other line (blank, a comment, other whitespace, a
/// sign, a long number, an error) goes through [`Lines`], one line at
/// a time, so errors come out exactly as the general scanner reports
/// them.
fn scan_edges(chunk: &str, n: usize) -> Result<(Vec<(u32, u32)>, usize), GraphError> {
    let mut lines = Lines::new(chunk);
    // The shortest edge line, `0 1\n`, has four bytes; real edge lists
    // average over eight, so this rarely reallocates and never
    // reserves more than the text's own size.
    let mut edges = Vec::with_capacity(chunk.len() / 8);
    let mut m = 0;
    let bytes = chunk.as_bytes();
    loop {
        while let Some((u, v, end)) = plain_edge(bytes, lines.pos, n) {
            count_edge(&mut m, lines.line)?;
            edges.push((u, v));
            lines.pos = end;
            lines.line += 1;
        }
        let Some(lno) = lines.next_line() else {
            break;
        };
        let u = lines.number(lno, "source")?;
        let v = lines.number(lno, "target")?;
        lines.end_edge_line(lno)?;
        count_edge(&mut m, lno)?;
        if let Some(vertex) = [u, v].into_iter().find(|&w| w as usize >= n) {
            let e = GraphError::VertexOutOfBounds {
                vertex,
                num_vertices: n,
            };
            return Err(parse_err(lno, e.to_string()));
        }
        edges.push((u, v));
    }
    Ok((edges, lines.line - 1))
}

/// The edge on the line at `pos` if it reads `digits SP digits LF`,
/// each id one to nine digits and below `n`, with the position after
/// the line; `None` for any other line.
#[inline]
fn plain_edge(bytes: &[u8], pos: usize, n: usize) -> Option<(u32, u32, usize)> {
    let (u, end) = plain_id(bytes, pos, n)?;
    if bytes.get(end) != Some(&b' ') {
        return None;
    }
    let (v, end) = plain_id(bytes, end + 1, n)?;
    (bytes.get(end) == Some(&b'\n')).then_some((u, v, end + 1))
}

/// The id spelled by the one to nine ASCII digits at `pos`, if it is
/// below `n`, and the position after them. Longer runs, which may not
/// fit a `u32`, are left to the general parsers. Shared with the HTTP
/// service's request-body parser.
#[inline]
pub fn plain_id(bytes: &[u8], pos: usize, n: usize) -> Option<(u32, usize)> {
    let mut end = pos;
    let mut id = 0u32;
    while let Some(&b @ b'0'..=b'9') = bytes.get(end) {
        if end - pos == 9 {
            return None;
        }
        id = id * 10 + u32::from(b - b'0');
        end += 1;
    }
    (end > pos && (id as usize) < n).then_some((id, end))
}

/// Serializes a labeled digraph to the edge-list format.
pub fn write_labeled(g: &LabeledGraph) -> String {
    let mut out = String::with_capacity(16 + 14 * g.num_edges());
    let _ = writeln!(out, "{} {}", g.num_vertices(), g.num_labels());
    for (u, l, v) in g.edges() {
        let _ = writeln!(out, "{} {} {}", u.0, l.0, v.0);
    }
    out
}

/// Parses a labeled digraph from the edge-list format. Header tokens
/// after the label count are ignored.
pub fn read_labeled(text: &str) -> Result<LabeledGraph, GraphError> {
    let mut lines = Lines::new(text);
    let lno = lines
        .next_line()
        .ok_or_else(|| parse_err(0, "missing header line"))?;
    let n = lines.number(lno, "vertex count")?;
    let k = lines.number(lno, "label count")? as usize;
    lines.skip_line();
    if k > MAX_LABELS {
        return Err(parse_err(lno, format!("label alphabet {k} exceeds 64")));
    }
    let n = vertex_count(n, text, lno)?;
    let mut b = LabeledGraphBuilder::with_capacity(n, k, text.len() / 12);
    let mut m = 0;
    while let Some(lno) = lines.next_line() {
        let u = lines.number(lno, "source")?;
        let l = lines.number(lno, "label")?;
        let v = lines.number(lno, "target")?;
        lines.end_edge_line(lno)?;
        count_edge(&mut m, lno)?;
        let l = Label::try_new(l).map_err(|e| parse_err(lno, e.to_string()))?;
        b.try_add_edge(VertexId(u), l, VertexId(v))
            .map_err(|e| parse_err(lno, e.to_string()))?;
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn plain_round_trip() {
        let g = fixtures::figure1a();
        let text = write_digraph(&g);
        let back = read_digraph(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn labeled_round_trip() {
        let g = fixtures::figure1b();
        let text = write_labeled(&g);
        let back = read_labeled(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn the_header_decides_plain_or_labeled() {
        for (text, labeled) in [
            ("3\n0 1\n", false),
            ("# c\n\n  3 \n", false),
            ("3 2\n0 1 2\n", true),
            ("3 2 extra\n0 1 2\n", true),
            ("3 2 # note\n0 1 2\n", true),
            ("", false),
        ] {
            assert_eq!(is_labeled(text), labeled, "{text:?}");
            if labeled {
                let g = read_labeled(text).unwrap();
                assert_eq!((g.num_vertices(), g.num_labels(), g.num_edges()), (3, 2, 1));
            }
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let g = read_digraph("# a comment\n\n3\n0 1\n# another\n1 2\n").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(read_digraph("").is_err());
        assert!(read_digraph("x").is_err());
        assert!(read_digraph("2\n0").is_err());
        assert!(read_digraph("2\n0 1 9").is_err());
        assert!(read_digraph("2\n0 7").is_err(), "out-of-bounds target");
        assert!(read_labeled("2\n0 0 1").is_err(), "missing label count");
        assert!(read_labeled("2 2\n0 9 1").is_err(), "label out of alphabet");
        assert!(read_labeled("2 100\n").is_err(), "alphabet too large");
    }

    #[test]
    fn huge_declared_vertex_count_is_rejected_before_allocating() {
        for text in ["4294967295", "4294967295\n0 1\n"] {
            match read_digraph(text) {
                Err(GraphError::Parse { line: 1, message }) => {
                    assert!(message.contains("exceeds"), "{message}")
                }
                other => panic!("expected a header error, got {other:?}"),
            }
        }
        assert!(matches!(
            read_labeled("4294967295 3\n"),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn parse_error_reports_line() {
        let err = read_digraph("3\n0 1\nbogus line\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
