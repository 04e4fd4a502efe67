//! A blocking HTTP/1.1 client for the daemon's wire model: one request
//! per connection, the server closes after its reply. Each request is
//! split into the phases the `labd` layer metrics report.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use v6portal::http::{HttpRequest, HttpResponse};

/// Reply wait before a request counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// One completed exchange: the parsed reply and when each phase ended,
/// in seconds after the request started.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// TCP connect finished.
    pub connected: f64,
    /// Request bytes written.
    pub written: f64,
    /// First reply byte read.
    pub first_byte: f64,
    /// Reply read to the server's close.
    pub done: f64,
}

/// Send `raw` to `addr` and read the whole reply.
pub fn exchange(addr: SocketAddr, raw: &str) -> Result<Exchange, String> {
    let t = Instant::now();
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connected = t.elapsed().as_secs_f64();
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let written = t.elapsed().as_secs_f64();
    let mut reply = Vec::with_capacity(1024);
    let mut buf = [0u8; 16 * 1024];
    let mut first_byte = None;
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(|| t.elapsed().as_secs_f64());
        reply.extend_from_slice(&buf[..n]);
    }
    let done = t.elapsed().as_secs_f64();
    let resp = HttpResponse::parse(&reply).ok_or("reply does not parse as HTTP")?;
    Ok(Exchange {
        status: resp.status,
        body: resp.body,
        connected,
        written,
        first_byte: first_byte.unwrap_or(done),
        done,
    })
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> Result<Exchange, String> {
    exchange(addr, &HttpRequest::format_get("localhost", path))
}

/// `POST path` with a body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> Result<Exchange, String> {
    exchange(addr, &HttpRequest::format_post("localhost", path, body))
}
