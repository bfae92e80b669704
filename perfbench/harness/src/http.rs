//! A keep-alive HTTP/1.1 client of the benchmark's own, so the load
//! generator does not change when the server crate does. With `trace`
//! on it splits each request into three spans seen from the client:
//! writing the request, waiting for the first response byte, and
//! reading the rest of the response.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
    line: Vec<u8>,
}

/// Client-side spans of one request; all zero unless traced.
#[derive(Default, Clone, Copy)]
pub struct Phases {
    pub send: Duration,
    pub wait: Duration,
    pub recv: Duration,
}

pub struct Response {
    pub status: u16,
    pub keep_alive: bool,
    pub phases: Phases,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            out: Vec::with_capacity(4096),
            line: Vec::with_capacity(256),
        })
    }

    /// Sends one request and reads the response body into `body`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        payload: &[u8],
        body: &mut Vec<u8>,
        trace: bool,
    ) -> io::Result<Response> {
        let t0 = trace.then(Instant::now);
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        )?;
        self.out.extend_from_slice(payload);
        self.stream.write_all(&self.out)?;
        let sent = trace.then(Instant::now);
        if self.reader.fill_buf()?.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let first = trace.then(Instant::now);

        self.line.clear();
        self.reader.read_until(b'\n', &mut self.line)?;
        let status = std::str::from_utf8(&self.line)
            .ok()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut keep_alive = true;
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                return Err(bad("EOF inside response headers"));
            }
            let header = std::str::from_utf8(&self.line).map_err(|_| bad("non-UTF-8 header"))?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        let phases = match (t0, sent, first) {
            (Some(t0), Some(sent), Some(first)) => Phases {
                send: sent - t0,
                wait: first - sent,
                recv: first.elapsed(),
            },
            _ => Phases::default(),
        };
        Ok(Response {
            status,
            keep_alive,
            phases,
        })
    }
}
