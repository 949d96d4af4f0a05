//! A minimal HTTP/1.1 client for the daemon's GET endpoints: one
//! keep-alive connection, requests sent one at a time, responses framed
//! by `Content-Length` (or by the peer closing when it sends none).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout for every read and write: far above any healthy
/// response time, and it bounds a run if the daemon hangs.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Largest response head accepted.
const MAX_HEAD: usize = 16 * 1024;

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server will close the connection after this response.
    pub close: bool,
}

/// `r.read`, retried when a signal interrupts it (a stopped and resumed
/// process sees that on sockets with a timeout, even without handlers).
fn read_some<R: Read>(r: &mut R, chunk: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(chunk) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            result => return result,
        }
    }
}

/// Read one response from `r`. `buf` carries bytes read past the end of
/// the previous response; on return it holds those past this one.
pub fn read_response<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> io::Result<Response> {
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > MAX_HEAD {
            return Err(bad("response head too large"));
        }
        let n = read_some(r, &mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| bad("bad Content-Length"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let body = match length {
        Some(len) => {
            while buf.len() < head_end + len {
                let n = read_some(r, &mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside a response body",
                    ));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = buf[head_end..head_end + len].to_vec();
            buf.drain(..head_end + len);
            body
        }
        None if close => {
            // No length: the body runs to the end of the connection.
            r.read_to_end(buf)?;
            let body = buf[head_end..].to_vec();
            buf.clear();
            body
        }
        None => {
            return Err(bad(
                "response has neither Content-Length nor Connection: close",
            ))
        }
    };
    Ok(Response {
        status,
        body,
        close,
    })
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// A client holding at most one keep-alive connection, reconnecting
/// after the server closes it.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, Vec<u8>)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    /// `GET target`; the connection is kept for the next request unless
    /// either side asked to close it or the exchange failed.
    pub fn get(&mut self, target: &str) -> io::Result<Response> {
        self.get_with(target, || {})
    }

    /// [`Client::get`], calling `on_sent` once the whole request has
    /// been written to the socket.
    pub fn get_with(&mut self, target: &str, on_sent: impl FnOnce()) -> io::Result<Response> {
        self.send(target, 0, on_sent)
    }

    /// [`Client::get`] with the request's last byte held back until
    /// `between` has run, so meanwhile the server holds a request it has
    /// started to receive and must still answer.
    pub fn get_split(&mut self, target: &str, between: impl FnOnce()) -> io::Result<Response> {
        self.send(target, 1, between)
    }

    /// Write all but the last `held` bytes of the request, call `hook`,
    /// write the rest and read the response.
    fn send(&mut self, target: &str, held: usize, hook: impl FnOnce()) -> io::Result<Response> {
        let (stream, buf) = match &mut self.conn {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
                stream.set_write_timeout(Some(IO_TIMEOUT))?;
                self.conn.insert((stream, Vec::new()))
            }
        };
        let request = format!("GET {target} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr);
        let (head, tail) = request.as_bytes().split_at(request.len() - held);
        let result = stream.write_all(head).and_then(|()| {
            hook();
            stream.write_all(tail)?;
            read_response(stream, buf)
        });
        if !matches!(&result, Ok(resp) if !resp.close) {
            self.conn = None;
        }
        result
    }

    /// `GET target` on a fresh connection that is closed afterwards, so
    /// it holds none of the daemon's connection workers between calls.
    pub fn get_once(addr: SocketAddr, target: &str) -> io::Result<Response> {
        let mut client = Client::new(addr);
        let resp = client.get(target);
        client.conn = None;
        resp
    }
}

/// `/query` target for a top-10 query, percent-encoding the text.
pub fn query_target(text: &str) -> String {
    let mut out = String::from("/query?top=10&q=");
    for b in text.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes in fixed-size pieces, like a
    /// socket delivering a response across several reads.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Fails every other read with `Interrupted`, as a signal would.
    struct Interrupting(Trickle, bool);

    impl Read for Interrupting {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            self.0.read(out)
        }
    }

    fn trickle(data: &[u8], step: usize) -> Trickle {
        Trickle {
            data: data.to_vec(),
            pos: 0,
            step,
        }
    }

    #[test]
    fn reads_back_to_back_keep_alive_responses_by_content_length() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}\
HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\nRetry-After: 1\r\n\r\nno";
        for step in [1, 5, 4096] {
            let mut r = trickle(wire, step);
            let mut buf = Vec::new();
            let first = read_response(&mut r, &mut buf).unwrap();
            assert_eq!(
                (first.status, first.body.as_slice(), first.close),
                (200, &b"{\"a\":1}"[..], false)
            );
            let second = read_response(&mut r, &mut buf).unwrap();
            assert_eq!((second.status, second.body.as_slice()), (503, &b"no"[..]));
            assert!(buf.is_empty());
            assert!(read_response(&mut r, &mut buf).is_err(), "EOF is an error");
        }
    }

    #[test]
    fn honours_connection_close_with_and_without_length() {
        let mut buf = Vec::new();
        let with_len = b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok";
        let resp = read_response(&mut trickle(with_len, 3), &mut buf).unwrap();
        assert!(resp.close);
        assert_eq!(resp.body, b"ok");

        let to_eof =
            b"HTTP/1.1 408 Request Timeout\r\nConnection: Close\r\n\r\nrequest read timed out\n";
        let resp = read_response(&mut trickle(to_eof, 7), &mut buf).unwrap();
        assert_eq!(resp.status, 408);
        assert!(resp.close);
        assert_eq!(resp.body, b"request read timed out\n");
    }

    #[test]
    fn retries_reads_interrupted_by_signals() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let mut r = Interrupting(trickle(wire, 4), false);
        let resp = read_response(&mut r, &mut Vec::new()).unwrap();
        assert_eq!((resp.status, resp.body.as_slice()), (200, &b"hello"[..]));
    }

    #[test]
    fn rejects_truncated_and_unframed_responses() {
        let mut buf = Vec::new();
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_response(&mut trickle(short, 64), &mut buf).is_err());
        buf.clear();
        let unframed = b"HTTP/1.1 200 OK\r\n\r\nabc";
        assert!(read_response(&mut trickle(unframed, 64), &mut buf).is_err());
    }

    #[test]
    fn split_request_holds_back_its_last_byte_until_the_hook_ran() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (partial_tx, partial_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut got = Vec::new();
            let mut chunk = [0u8; 1024];
            while !got.ends_with(b"\r\n\r\n") {
                let n = s.read(&mut chunk).unwrap();
                got.extend_from_slice(&chunk[..n]);
                if got.ends_with(b"\r\n\r") {
                    partial_tx.send(()).unwrap();
                }
            }
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
        });
        let resp = Client::new(addr)
            .get_split("/x", || {
                partial_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("the server received the request without its last byte");
            })
            .unwrap();
        assert_eq!((resp.status, resp.body.as_slice()), (200, &b"ok"[..]));
        server.join().unwrap();
    }

    #[test]
    fn query_target_encodes_text() {
        assert_eq!(query_target("c1syn0 bg7"), "/query?top=10&q=c1syn0+bg7");
        assert_eq!(query_target("a&b"), "/query?top=10&q=a%26b");
    }
}
