//! A minimal HTTP/1.1 implementation over `std::net` — the build
//! environment is offline, so the server carries exactly the subset of
//! the protocol it needs: request-line + headers + `Content-Length`
//! bodies in, fixed-length responses out, with keep-alive.
//!
//! Admission control lives here: header blocks are capped at
//! [`MAX_HEAD_BYTES`] (431 on overflow) and bodies at the configured
//! limit (413), both *before* any allocation proportional to the
//! declared size, so an abusive client cannot balloon the server.

use std::io::{BufRead, Read, Write};

/// Upper bound on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// Request path (`/query`, …), query strings not split off.
    pub path: String,
    /// Decoded body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why reading a request failed. Each variant maps to one response (or
/// to silently closing, for a clean EOF between requests).
#[derive(Debug)]
pub enum RecvError {
    /// Clean close: EOF before the first request byte.
    Closed,
    /// The socket read timed out mid-request (408).
    Timeout,
    /// Declared body exceeds the admission limit (413).
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Header block exceeds [`MAX_HEAD_BYTES`] (431).
    HeadTooLarge,
    /// Anything else unparseable (400).
    Malformed(String),
    /// Transport error; the connection is dropped without a response.
    Io(std::io::Error),
}

impl From<std::io::Error> for RecvError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RecvError::Timeout,
            std::io::ErrorKind::UnexpectedEof => {
                RecvError::Malformed("connection closed mid-request".into())
            }
            _ => RecvError::Io(e),
        }
    }
}

/// Reads one request from the connection's buffered reader.
///
/// `max_body` is the admission-control cap: a `Content-Length` above
/// it fails *before* reading the body.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, RecvError> {
    let mut head_bytes = 0;
    let line = read_head_line(reader, &mut head_bytes)?;
    if line.is_empty() {
        return Err(RecvError::Closed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RecvError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| RecvError::Malformed("request line missing path".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| RecvError::Malformed("request line missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close
    let mut keep_alive = version != "HTTP/1.0";
    loop {
        let header = read_head_line(reader, &mut head_bytes)?;
        if header.is_empty() {
            return Err(RecvError::Malformed("EOF inside header block".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(RecvError::Malformed(format!("bad header line {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| RecvError::Malformed(format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }

    if content_length > max_body {
        return Err(RecvError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| RecvError::Malformed("request body is not UTF-8".into()))?;
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// Reads one line of the head (through its `\n`, or up to EOF) and adds
/// its length to `head_bytes`; an empty string means EOF.
///
/// The read stops one byte past the [`MAX_HEAD_BYTES`] left, so a line
/// that never ends costs at most that much buffer before
/// [`RecvError::HeadTooLarge`], and a head within the limit reads
/// exactly as an unbounded `read_line` would.
fn read_head_line(reader: &mut impl BufRead, head_bytes: &mut usize) -> Result<String, RecvError> {
    let left = (MAX_HEAD_BYTES + 1).saturating_sub(*head_bytes) as u64;
    let mut line = Vec::new();
    *head_bytes += reader.take(left).read_until(b'\n', &mut line)?;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(RecvError::HeadTooLarge);
    }
    // a line that is not UTF-8 fails the way `read_line` fails on it
    String::from_utf8(line)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e).into())
}

/// Canonical reason phrase for the statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one fixed-length plain-text response.
pub fn write_response(
    mut stream: impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    // one buffer, one write: two small writes interact badly with
    // Nagle + delayed ACK (~40ms stalls per response)
    let mut msg = String::with_capacity(128 + body.len());
    use std::fmt::Write as _;
    let _ = write!(
        msg,
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(msg.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    /// Feeds `raw` to a loopback socket, closes it, and parses it
    /// server-side.
    fn parse(raw: &str, max_body: usize) -> Result<Request, RecvError> {
        parse_sent(raw, max_body, false)
    }

    /// Like [`parse`], but with `hold_open` the client keeps the socket
    /// open until the server has returned, so a read that waits for more
    /// bytes than `raw` holds ends in [`RecvError::Timeout`].
    fn parse_sent(raw: &str, max_body: usize, hold_open: bool) -> Result<Request, RecvError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            if hold_open {
                let _ = done_rx.recv();
            }
        });
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let req = read_request(&mut reader, max_body);
        let _ = done_tx.send(());
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\n3 901",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, "3 901");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n", 64).unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let err = parse(
            "POST /batch HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            1024,
        )
        .unwrap_err();
        match err {
            RecvError::BodyTooLarge { declared, limit } => {
                assert_eq!(declared, 999_999);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_block_is_rejected() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(
            parse(&raw, 64).unwrap_err(),
            RecvError::HeadTooLarge
        ));
        // a request line with no newline is cut off at the limit, not
        // read to EOF and then rejected as malformed
        let raw = "a".repeat(MAX_HEAD_BYTES + 1);
        assert!(matches!(
            parse(&raw, 64).unwrap_err(),
            RecvError::HeadTooLarge
        ));
        // so is a header line, without waiting for the rest of it
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(
            parse_sent(&raw, 64, true).unwrap_err(),
            RecvError::HeadTooLarge
        ));
        // a head of exactly the limit is still read
        let pad = MAX_HEAD_BYTES - "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(pad));
        assert_eq!(parse(&raw, 64).unwrap().path, "/");
    }

    #[test]
    fn malformed_requests_are_malformed() {
        assert!(matches!(
            parse("\r\n", 64).unwrap_err(),
            RecvError::Malformed(_)
        ));
        assert!(matches!(
            parse("GET /\r\n\r\n", 64).unwrap_err(),
            RecvError::Malformed(_)
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n", 64).unwrap_err(),
            RecvError::Malformed(_)
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: soon\r\n\r\n", 64).unwrap_err(),
            RecvError::Malformed(_)
        ));
        assert!(matches!(parse("", 64).unwrap_err(), RecvError::Closed));
    }
}
