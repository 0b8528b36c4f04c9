//! A minimal HTTP/1.1 client for the daemon's one-request-per-connection
//! protocol, with the client-side span boundaries of each request.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Response {
    pub status: u16,
    /// The `X-Trace-Id` header the daemon echoed, if any.
    pub trace_id: Option<String>,
    pub body: String,
}

/// Client-side span boundaries of one request.
pub struct Timing {
    pub start: Instant,
    pub connected: Instant,
    pub sent: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    trace_id: &str,
    timeout: Duration,
) -> io::Result<(Response, Timing)> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nX-Trace-Id: {trace_id}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut msg = head.into_bytes();
    msg.extend_from_slice(body.as_bytes());
    stream.write_all(&msg)?;
    let sent = Instant::now();

    let mut raw = Vec::new();
    let mut buf = [0u8; 16384];
    let n = stream.read(&mut buf)?;
    let first_byte = Instant::now();
    raw.extend_from_slice(&buf[..n]);
    if n > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let done = Instant::now();

    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated response"))?;
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let trace_id = lines.find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim().eq_ignore_ascii_case("x-trace-id").then(|| v.trim().to_string())
    });
    let response = Response { status, trace_id, body: body.to_string() };
    Ok((response, Timing { start, connected, sent, first_byte, done }))
}
