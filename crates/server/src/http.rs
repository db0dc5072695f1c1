//! Minimal HTTP/1.1 framing: enough to read one request and write one
//! response over a `TcpStream`. Connections are one-shot (`Connection:
//! close`); there is no keep-alive, chunking or TLS — the daemon serves
//! trusted lab traffic, not the open internet.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use tdo_fault::Site;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased).
    pub method: String,
    /// The request path, query string included.
    pub path: String,
    /// The request body (empty when there is none).
    pub body: String,
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// Returns `InvalidData` on malformed requests and over-limit heads or
/// bodies, and propagates transport errors (including read timeouts).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(bad("request head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("missing method"))?.to_ascii_uppercase();
    let path = parts.next().ok_or_else(|| bad("missing path"))?.to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad("request body too large"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
    // Injected transport failure, fired only once the whole request is in:
    // closing with request bytes unread lets the kernel reset the
    // connection before the client reads the 400, which would make the
    // client's view of one fault depend on timing.
    if tdo_fault::fire(Site::ServerReadFail).is_some() {
        return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected read failure"));
    }
    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Maps a [`read_request`] failure to the stable `reason` label on
/// `tdo_server_bad_requests_total` — every malformed-request early-return
/// path gets its own bucket so reject spikes are attributable.
#[must_use]
pub fn reject_reason(e: &io::Error) -> &'static str {
    match e.to_string().as_str() {
        "request head too large" => "head_too_large",
        "request body too large" => "body_too_large",
        "connection closed mid-request" | "connection closed mid-body" => "closed_early",
        "non-UTF-8 head" | "non-UTF-8 body" => "bad_encoding",
        "empty request" | "missing method" | "missing path" => "bad_request_line",
        "bad Content-Length" => "bad_content_length",
        _ => "read_failed", // transport errors, timeouts, injected faults
    }
}

/// The reason phrase for the status codes this daemon emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response and flushes. Errors are returned for the
/// caller to log; the connection is closed either way.
///
/// # Errors
///
/// Propagates transport errors (including write timeouts).
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    write_response_typed(stream, status, "application/json", body)
}

/// Like [`write_response`] with an explicit `Content-Type` (the metrics
/// endpoint serves Prometheus text exposition as `text/plain`).
///
/// # Errors
///
/// Propagates transport errors (including write timeouts).
pub fn write_response_typed(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    if let Some(token) = tdo_fault::fire(Site::ServerSlowClient) {
        // Injected slow client: stall the response without failing it. The
        // server must stay responsive to everyone else.
        std::thread::sleep(std::time::Duration::from_millis(token % 25));
    }
    if tdo_fault::fire(Site::ServerWriteFail).is_some() {
        // Injected transport failure while writing the response.
        return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected write failure"));
    }
    // Echo the request's trace id so a client can quote it back when
    // filing a report (and tests can join responses to flight records).
    // The accept thread installs the context before any response is
    // written, so this sees the right trace on every path.
    let trace = tdo_obs::span::current().trace;
    let trace_header =
        if trace != 0 { format!("X-Tdo-Trace: {trace:016x}\r\n") } else { String::new() };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{trace_header}Connection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reject_message_maps_to_a_stable_reason() {
        let data = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        for (msg, reason) in [
            ("request head too large", "head_too_large"),
            ("request body too large", "body_too_large"),
            ("connection closed mid-request", "closed_early"),
            ("connection closed mid-body", "closed_early"),
            ("non-UTF-8 head", "bad_encoding"),
            ("non-UTF-8 body", "bad_encoding"),
            ("empty request", "bad_request_line"),
            ("missing method", "bad_request_line"),
            ("missing path", "bad_request_line"),
            ("bad Content-Length", "bad_content_length"),
        ] {
            assert_eq!(reject_reason(&data(msg)), reason, "`{msg}`");
        }
        // Transport errors — timeouts, resets, injected read faults — all
        // land in the read_failed bucket.
        let timeout = io::Error::new(io::ErrorKind::TimedOut, "read timed out");
        assert_eq!(reject_reason(&timeout), "read_failed");
        let reset = io::Error::new(io::ErrorKind::ConnectionReset, "injected read failure");
        assert_eq!(reject_reason(&reset), "read_failed");
    }
}
