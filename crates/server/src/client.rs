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

/// Sends one request in a single write and reads the response (the daemon
/// always closes the connection after one exchange).
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
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()?;
    read_response(&mut stream)
}

/// Reads one response: the head, then exactly `Content-Length` body bytes,
/// or everything up to EOF when the head has no `Content-Length`.
///
/// Reading stops once the response is complete. The daemon may reset the
/// connection right after answering (it closes without reading a request
/// it rejected early), and a read past the response would turn that reset
/// into an error even though the whole response had arrived.
///
/// # Errors
///
/// Transport errors before the response is complete, EOF inside it, and
/// malformed framing (see [`parse_response`]).
pub fn read_response(stream: &mut impl Read) -> io::Result<Response> {
    let mut raw = Vec::with_capacity(1024);
    let end = loop {
        if let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..head_end]).unwrap_or("");
            match header(head, "content-length").and_then(|v| v.parse().ok()) {
                // Saturating: an absurd length reads to EOF and fails there.
                Some(n) => break (head_end + 4).saturating_add(n),
                None => {
                    stream.read_to_end(&mut raw)?;
                    break raw.len();
                }
            }
        }
        read_more(stream, &mut raw)?;
    };
    while raw.len() < end {
        read_more(stream, &mut raw)?;
    }
    raw.truncate(end);
    parse_response(&raw)
}

/// Appends the next read to `raw`; EOF is an error, since the caller
/// still expects bytes.
fn read_more(stream: &mut impl Read, raw: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk)? {
        0 => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed inside the response",
        )),
        n => {
            raw.extend_from_slice(&chunk[..n]);
            Ok(())
        }
    }
}

/// The trimmed value of header `name` (case-insensitive) in a response
/// head.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.split("\r\n").skip(1).find_map(|line| {
        let (n, value) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| value.trim())
    })
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
    let trace = header(head, "x-tdo-trace").map(str::to_string);
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

    /// Yields its bytes in small reads, then fails every read the way a
    /// reset connection does.
    struct ThenReset<'a>(&'a [u8]);

    impl Read for ThenReset<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset"));
            }
            let n = buf.len().min(self.0.len()).min(7);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_reset_after_the_whole_response_is_not_an_error() {
        let wire = b"HTTP/1.1 400 Bad Request\r\nContent-Length: 2\r\n\r\n{}";
        let r = read_response(&mut ThenReset(wire)).unwrap();
        assert_eq!((r.status, r.body.as_str()), (400, "{}"));
        // A reset inside the announced body still fails the exchange, and
        // so does EOF, also under a length no body could reach.
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}";
        assert!(read_response(&mut ThenReset(short)).is_err());
        assert!(read_response(&mut &short[..]).is_err());
        let absurd = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n{}";
        assert!(read_response(&mut &absurd[..]).is_err());
        // Without a length the body runs to EOF.
        let r = read_response(&mut &b"HTTP/1.1 200 OK\r\n\r\nall of it"[..]).unwrap();
        assert_eq!(r.body, "all of it");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }
}
