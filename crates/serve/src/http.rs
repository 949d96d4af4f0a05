//! Bounded HTTP/1.1 request parsing and response writing.
//!
//! Deliberately minimal: `GET`/`POST`, `Content-Length` bodies only
//! (no chunked transfer — rejecting it keeps the parser's memory
//! bound provable), keep-alive, and hard caps on head and body size.
//! Every malformed or oversized input maps to a typed status, never a
//! panic; every read is under a short poll timeout so a slow-loris
//! client costs one worker at most its idle budget.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on the request head (request line + headers). 8 KiB is
/// the conventional serverside default (Apache/nginx); our requests
/// are a short query string, so this is generous.
pub(crate) const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Hard cap on a request body (POST /query JSON). Far above any
/// realistic query payload, far below anything that could pressure
/// memory across `ACCEPT_DEPTH` concurrent connections.
pub(crate) const MAX_BODY_BYTES: usize = 64 * 1024;

/// Cap on header count, to bound the parsed-header Vec.
const MAX_HEADERS: usize = 64;

/// Socket read-poll granularity. Reads block at most this long per
/// syscall so the loop can re-check the cumulative idle budget and
/// the drain flag between polls.
pub(crate) const READ_POLL: Duration = Duration::from_millis(50);

/// One parsed request.
#[derive(Debug)]
pub(crate) struct Request {
    pub method: String,
    /// Raw request target (path plus optional `?query`).
    pub target: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close after this response.
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Typed protocol violations, each with its response status.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// Malformed request line, header, or body framing.
    Bad(&'static str),
    /// Head grew past [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Declared body larger than [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// POST without a `Content-Length` (chunked is unsupported).
    LengthRequired,
}

impl HttpError {
    pub(crate) fn status(&self) -> u16 {
        match self {
            HttpError::Bad(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::LengthRequired => 411,
        }
    }

    pub(crate) fn message(&self) -> &'static str {
        match self {
            HttpError::Bad(m) => m,
            HttpError::HeadTooLarge => "request head exceeds 8 KiB",
            HttpError::BodyTooLarge => "request body exceeds 64 KiB",
            HttpError::LengthRequired => {
                "POST requires Content-Length (chunked transfer unsupported)"
            }
        }
    }
}

/// What one read attempt produced.
pub(crate) enum ReadOutcome {
    Request(Request),
    /// Clean EOF before any request bytes (client closed keep-alive).
    Closed,
    /// Protocol violation — answer `err.status()`, then close.
    Error(HttpError),
    /// Idle past the read budget — answer 408 best-effort, close.
    TimedOut,
    /// Idle between requests while the server drains — close quietly.
    Draining,
}

/// Read one request from `stream`. `carry` holds bytes read past the
/// previous request on this connection (keep-alive pipelining) and is
/// left holding any bytes past this one. The caller must have set the
/// stream's read timeout to [`READ_POLL`]; `idle_budget` bounds the
/// *cumulative* time spent waiting without receiving a byte.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    idle_budget: Duration,
    draining: &dyn Fn() -> bool,
) -> ReadOutcome {
    let mut buf = std::mem::take(carry);
    let start_len = buf.len();
    let mut idle = Duration::ZERO;
    let mut chunk = [0u8; 4096];
    // Hard wall-clock bound for the whole request: a slow-loris
    // client trickling one byte per poll resets the idle counter, so
    // idle time alone cannot bound it. 4x the idle budget is plenty
    // for any legitimate client of requests this small.
    let t_start = Instant::now();
    let total_budget = idle_budget.saturating_mul(4);

    // Phase 1: accumulate until the head terminator.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if !buf.is_empty() && t_start.elapsed() >= total_budget {
            return ReadOutcome::TimedOut;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return ReadOutcome::Error(HttpError::HeadTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Error(HttpError::Bad("truncated request head"))
                };
            }
            Ok(n) => {
                idle = Duration::ZERO;
                // A sane `Read` impl never returns n > chunk.len();
                // stay total anyway so the connection path cannot
                // index out of bounds on a misbehaving stream.
                buf.extend_from_slice(chunk.get(..n).unwrap_or(chunk.as_slice()));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if buf.len() == start_len && buf.is_empty() && draining() {
                    return ReadOutcome::Draining;
                }
                idle += READ_POLL;
                if idle >= idle_budget {
                    return if buf.is_empty() {
                        ReadOutcome::Draining
                    } else {
                        ReadOutcome::TimedOut
                    };
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    };

    if head_end.0 > MAX_HEAD_BYTES {
        // The terminator can arrive in the same burst as an oversized
        // head, so the in-loop cap alone is not enough.
        return ReadOutcome::Error(HttpError::HeadTooLarge);
    }
    // `find_head_end` guarantees `head_end.0 + head_end.1 <= buf.len()`;
    // use the total accessors anyway — this path must stay panic-free
    // whatever a future terminator scan returns.
    let (head, rest) = (
        buf.get(..head_end.0).unwrap_or_default(),
        buf.get(head_end.0 + head_end.1..).unwrap_or_default(),
    );
    let head = match std::str::from_utf8(head) {
        Ok(h) => h,
        Err(_) => return ReadOutcome::Error(HttpError::Bad("request head is not UTF-8")),
    };
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return ReadOutcome::Error(HttpError::Bad("malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return ReadOutcome::Error(HttpError::Bad("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return ReadOutcome::Error(HttpError::HeadTooLarge);
        }
        let Some((k, v)) = line.split_once(':') else {
            return ReadOutcome::Error(HttpError::Bad("malformed header line"));
        };
        headers.push((k.trim().to_string(), v.trim().to_string()));
    }
    let mut req = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    };

    // Phase 2: body framing.
    if req
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return ReadOutcome::Error(HttpError::Bad("chunked transfer unsupported"));
    }
    let content_length = match req.header("content-length") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return ReadOutcome::Error(HttpError::Bad("invalid Content-Length")),
        },
        None if req.method == "POST" => return ReadOutcome::Error(HttpError::LengthRequired),
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return ReadOutcome::Error(HttpError::BodyTooLarge);
    }
    let mut body = rest.to_vec();
    let mut idle = Duration::ZERO;
    while body.len() < content_length {
        if t_start.elapsed() >= total_budget {
            return ReadOutcome::TimedOut;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Error(HttpError::Bad("truncated request body")),
            Ok(n) => {
                idle = Duration::ZERO;
                body.extend_from_slice(chunk.get(..n).unwrap_or(chunk.as_slice()));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                idle += READ_POLL;
                if idle >= idle_budget {
                    return ReadOutcome::TimedOut;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
    *carry = body.split_off(content_length);
    req.body = body;
    ReadOutcome::Request(req)
}

/// Find the end of the head: byte offset of the terminator and its
/// length (supports both `\r\n\r\n` and bare `\n\n`).
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n");
    let lf = buf.windows(2).position(|w| w == b"\n\n");
    match (crlf, lf) {
        (Some(c), Some(l)) if l + 1 < c => Some((l, 2)),
        (Some(c), _) => Some((c, 4)),
        (None, Some(l)) => Some((l, 2)),
        (None, None) => None,
    }
}

/// One response to write.
pub(crate) struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`, `X-Request-Id`).
    pub extra: Vec<(&'static str, String)>,
    pub close: bool,
}

impl Response {
    pub(crate) fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra: Vec::new(),
            close: false,
        }
    }

    pub(crate) fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: body.as_bytes().to_vec(),
            extra: Vec::new(),
            close: false,
        }
    }

    pub(crate) fn with(mut self, name: &'static str, value: String) -> Response {
        self.extra.push((name, value));
        self
    }

    pub(crate) fn closing(mut self) -> Response {
        self.close = true;
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Serialize and send `resp`. Write errors are returned for the
/// caller to drop the connection; they are never fatal to the worker.
pub(crate) fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (k, v) in &resp.extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str(if resp.close {
        "Connection: close\r\n\r\n"
    } else {
        "Connection: keep-alive\r\n\r\n"
    });
    let mut out = head.into_bytes();
    out.extend_from_slice(&resp.body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Split a request target into (path, query-string).
pub(crate) fn split_target(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    }
}

/// Extract and percent-decode one query-string parameter. Returns
/// `Some(Err(()))` for present-but-undecodable values so the caller
/// can answer 400 rather than silently dropping the parameter.
pub(crate) fn query_param(qs: &str, key: &str) -> Option<Result<String, ()>> {
    qs.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (k == key).then(|| percent_decode(v).ok_or(()))
    })
}

/// Percent-decode, treating `+` as space. `None` on malformed escapes
/// or non-UTF-8 results.
pub(crate) fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&byte) = bytes.get(i) {
        match byte {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_params() {
        let (p, q) = split_target("/query?q=car+engine&top=5");
        assert_eq!(p, "/query");
        assert_eq!(query_param(q, "q"), Some(Ok("car engine".to_string())));
        assert_eq!(query_param(q, "top"), Some(Ok("5".to_string())));
        assert_eq!(query_param(q, "missing"), None);
        assert_eq!(query_param("q=%zz", "q"), Some(Err(())));
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b%2Bc"), Some("a b+c".to_string()));
        assert_eq!(percent_decode("caf%C3%A9"), Some("café".to_string()));
        assert_eq!(percent_decode("%4"), None);
        assert_eq!(percent_decode("%gg"), None);
        assert_eq!(percent_decode("%FF"), None); // invalid UTF-8
    }

    #[test]
    fn head_end_variants() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some((14, 4)));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nrest"), Some((14, 2)));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
