//! The in-repo HTTP client behind `tdo ping` — the CI image has no `curl`,
//! so tests and the smoke pipeline talk to the daemon through this.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed response: status code and body.
#[derive(Clone, Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: String,
    /// The request's trace id from the `X-Tdo-Trace` response header
    /// (16 lowercase hex digits), when the daemon sent one.
    pub trace: Option<String>,
}

impl Response {
    /// Whether the status is 2xx.
    #[must_use]
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Sends one request and reads the full response (the daemon always closes
/// the connection after one exchange).
///
/// # Errors
///
/// Returns transport errors, timeouts (120 s read — simulations can take a
/// while at paper scale) and malformed response framing.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Shorthand for a GET.
///
/// # Errors
///
/// See [`request`].
pub fn get(addr: &str, path: &str) -> io::Result<Response> {
    request(addr, "GET", path, None)
}

/// Shorthand for a POST with a JSON body.
///
/// # Errors
///
/// See [`request`].
pub fn post(addr: &str, path: &str, body: &str) -> io::Result<Response> {
    request(addr, "POST", path, Some(body))
}

/// Parses one raw HTTP/1.1 response (status, `X-Tdo-Trace`, UTF-8 body).
///
/// # Errors
///
/// `InvalidData` on broken framing, a bad status line or non-UTF-8 bytes.
pub fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let status_line = head.split("\r\n").next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let trace = head.split("\r\n").skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("x-tdo-trace").then(|| value.trim().to_string())
    });
    let body = String::from_utf8(raw[head_end + 4..].to_vec())
        .map_err(|_| bad("non-UTF-8 response body"))?;
    Ok(Response { status, body, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, "{}");
        assert!(!r.ok());
        assert_eq!(r.trace, None);
    }

    #[test]
    fn captures_the_trace_header() {
        let raw =
            b"HTTP/1.1 200 OK\r\nX-Tdo-Trace: 00000000000000ab\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.trace.as_deref(), Some("00000000000000ab"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }
}
