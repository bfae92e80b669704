//! A minimal blocking HTTP/1.1 client with keep-alive — just enough
//! to drive the server from its integration tests and the CLI's
//! `serve` round-trip test without external dependencies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Decoded body.
    pub body: String,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

/// A persistent connection to one server.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    open: bool,
}

impl Client {
    /// Connects with the given I/O timeouts.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            open: true,
        })
    }

    /// Whether the last response kept the connection alive.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Sends one request and reads the full response. After a
    /// `Connection: close` response the client must be reconnected.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        if !self.open {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "connection closed by a previous response",
            ));
        }
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: reach\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(msg.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            self.open = false;
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a status line",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut content_length = 0usize;
        let mut keep_alive = true;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("EOF inside response headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| bad("bad Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?;
        self.open = keep_alive;
        Ok(Response {
            status,
            body,
            keep_alive,
        })
    }
}

/// One-shot convenience: connect, send, read, close.
pub fn request_once(
    addr: impl ToSocketAddrs,
    timeout: Duration,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    Client::connect(addr, timeout)?.request(method, path, body)
}
