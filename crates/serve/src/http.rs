//! A minimal HTTP/1.1 server-side codec over blocking sockets.
//!
//! The daemon speaks just enough HTTP for `curl`, browsers, and the
//! benchmark's clients: strict head and body size limits, socket
//! read/write deadlines so a stalled peer can never pin a worker, and
//! the keep-alive connection loop every role runs on
//! ([`Node`](crate::node::Node)) answers `Connection: keep-alive` unless
//! the client asked to close.
//! Anything malformed maps to a 4xx — never a panic, never a hang.
//! [`read_request_buffered`] supports pipelining: bytes received past
//! the current request's `Content-Length` are parked in the caller's
//! `pending` buffer and parsed as the start of the next request.

use std::io::{Read, Write};
use std::net::TcpStream;

use crate::json::Json;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/sessions/3/feedback`).
    pub path: String,
    /// Raw query string without the `?` (may be empty).
    pub query: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter value by name (no percent-decoding — the
    /// protocol's values are indices, counts, and policy labels).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// Whether the client asked to close the connection after this
    /// request (`Connection: close`). HTTP/1.1 defaults to keep-alive,
    /// so the absence of the header means the connection may persist.
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed before sending any bytes (a clean no-op, e.g. a
    /// health prober).
    Closed,
    /// The socket deadline expired mid-request.
    Timeout,
    /// The request head exceeded [`MAX_HEAD`].
    HeadTooLarge,
    /// `Content-Length` exceeded the configured body limit.
    BodyTooLarge,
    /// Anything else: bad request line, truncated body, invalid
    /// `Content-Length`, …
    Malformed(String),
}

/// Reads one complete request from `stream` (generic over [`Read`] so
/// tests can inject fault schedules without a socket), consuming any
/// bytes parked in `pending` before touching the socket and leaving
/// everything received past the current request's body in `pending` for
/// the next call. This is what makes HTTP/1.1 pipelining work on the
/// keep-alive connection loop: a
/// client may write several requests back-to-back, and each call parses
/// exactly one, in order, without dropping or double-reading a byte.
///
/// Error paths discard `pending` — every [`ReadError`] tears the
/// connection down, so there is no next request to preserve bytes for.
///
/// # Errors
/// [`ReadError`] for anything other than a complete well-formed request.
pub fn read_request_buffered<S: Read>(
    stream: &mut S,
    pending: &mut Vec<u8>,
    max_body: usize,
) -> Result<Request, ReadError> {
    let mut head = std::mem::take(pending);
    let mut chunk = [0u8; 1024];
    let head_end;
    // Accumulate until the blank line ends the head (leftover pipelined
    // bytes may already contain one or more complete requests, in which
    // case the socket is never read).
    loop {
        if let Some(end) = find_head_end(&head) {
            head_end = end;
            break;
        }
        if head.len() >= MAX_HEAD {
            return Err(ReadError::HeadTooLarge);
        }
        let n = read_retrying(stream, &mut chunk)?;
        if n == 0 {
            if head.is_empty() {
                return Err(ReadError::Closed);
            }
            return Err(ReadError::Malformed("truncated request head".into()));
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let body_prefix = head.split_off(head_end.1);
    head.truncate(head_end.0);

    let text = std::str::from_utf8(&head)
        .map_err(|_| ReadError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: body_prefix,
    };
    let content_length = match request.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed(format!("invalid Content-Length {v:?}")))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge);
    }
    // Bytes past the body belong to the next pipelined request.
    if request.body.len() > content_length {
        let leftover = request.body.split_off(content_length);
        *pending = leftover;
        return Ok(request);
    }
    while request.body.len() < content_length {
        let n = read_retrying(stream, &mut chunk)?;
        if n == 0 {
            return Err(ReadError::Malformed("truncated request body".into()));
        }
        let need = content_length - request.body.len();
        let take = n.min(need);
        request.body.extend_from_slice(&chunk[..take]);
        if take < n {
            *pending = chunk[take..n].to_vec();
        }
    }
    Ok(request)
}

/// Position of the end-of-head marker: `(head_len, body_start)`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| (i, i + 4))
}

/// One `read` that retries `EINTR`. A signal landing mid-header used to
/// surface as `Malformed` (the connection was torn down as if the peer
/// had sent garbage); `Interrupted` is transient by contract and must
/// simply be retried.
fn read_retrying<S: Read>(stream: &mut S, buf: &mut [u8]) -> Result<usize, ReadError> {
    loop {
        match stream.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(classify_io(e)),
        }
    }
}

fn classify_io(e: std::io::Error) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ReadError::Timeout,
        _ => ReadError::Malformed(e.to_string()),
    }
}

/// The standard reason phrase for the status codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one complete JSON response and flushes. The connection always
/// closes afterwards (`Connection: close`).
///
/// # Errors
/// Propagates socket write failures (the peer may already be gone).
pub(crate) fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    body: &Json,
) -> std::io::Result<()> {
    respond_bytes(
        stream,
        status,
        "application/json",
        body.dump().as_bytes(),
        false,
    )
}

/// [`respond_json`] with an explicit connection disposition: the
/// keep-alive loop answers `Connection: keep-alive` unless this response
/// ends the connection.
///
/// # Errors
/// Propagates socket write failures (the peer may already be gone).
pub(crate) fn respond_json_conn(
    stream: &mut TcpStream,
    status: u16,
    body: &Json,
    keep_alive: bool,
) -> std::io::Result<()> {
    respond_bytes(
        stream,
        status,
        "application/json",
        body.dump().as_bytes(),
        keep_alive,
    )
}

/// Writes one complete response with an arbitrary (possibly binary)
/// body — the shard-streaming endpoints serve raw `.milr` files as
/// `application/octet-stream` — and flushes. `keep_alive` selects the
/// `Connection` disposition.
///
/// # Errors
/// Propagates socket write failures (the peer may already be gone).
pub(crate) fn respond_bytes(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One buffer, one write: on a keep-alive socket a small head write
    // followed by a small body write stalls ~40ms on the Nagle +
    // delayed-ACK interaction before the client sees the body.
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )
    .into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// Builds the uniform error body `{"error": message}`.
pub(crate) fn error_body(message: impl Into<String>) -> Json {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Feeds raw bytes through a real socket pair and parses them.
    fn parse(raw: &[u8], max_body: usize) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(&raw).unwrap();
            // Close the write side by dropping the stream.
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let result = read_request_buffered(&mut server_side, &mut Vec::new(), max_body);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(
            b"GET /rank?positives=1,2&k=5 HTTP/1.1\r\nHost: x\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/rank");
        assert_eq!(req.query_param("positives"), Some("1,2"));
        assert_eq!(req.query_param("k"), Some("5"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /sessions HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn oversized_body_rejected_by_declared_length() {
        let err = parse(
            b"POST /sessions HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert!(matches!(err, ReadError::BodyTooLarge));
    }

    #[test]
    fn truncated_body_is_malformed() {
        let err = parse(
            b"POST /sessions HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
            1024,
        )
        .unwrap_err();
        assert!(matches!(err, ReadError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn truncated_head_is_malformed() {
        let err = parse(b"GET /rank HTTP/1.1\r\nHost:", 1024).unwrap_err();
        assert!(matches!(err, ReadError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn immediate_close_reports_closed() {
        let err = parse(b"", 1024).unwrap_err();
        assert!(matches!(err, ReadError::Closed));
    }

    #[test]
    fn garbage_request_line_is_malformed() {
        for raw in [
            &b"NONSENSE\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x SPDY/9\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        ] {
            let err = parse(raw, 1024).unwrap_err();
            assert!(matches!(err, ReadError::Malformed(_)), "{raw:?} -> {err:?}");
        }
    }

    /// A reader that yields one byte per call and raises
    /// `ErrorKind::Interrupted` before every byte — the worst-case EINTR
    /// storm over a slow-loris trickle.
    struct InterruptedTrickle {
        data: Vec<u8>,
        pos: usize,
        interrupt_next: bool,
    }

    impl Read for InterruptedTrickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "signal",
                ));
            }
            self.interrupt_next = true;
            match self.data.get(self.pos) {
                Some(&b) => {
                    buf[0] = b;
                    self.pos += 1;
                    Ok(1)
                }
                None => Ok(0),
            }
        }
    }

    #[test]
    fn interrupted_reads_are_retried_not_fatal() {
        // Regression: EINTR mid-header (or mid-body) used to map to
        // ReadError::Malformed, killing the connection.
        let mut stream = InterruptedTrickle {
            data: b"POST /sessions HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec(),
            pos: 0,
            interrupt_next: true,
        };
        let req = read_request_buffered(&mut stream, &mut Vec::new(), 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_buffer() {
        // Two full requests written back-to-back: the first parse must
        // leave the second intact in `pending`, and the second parse
        // must complete without touching the (now-EOF) socket.
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b?k=2 HTTP/1.1\r\nHost: x\r\n\r\n";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(raw).unwrap();
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let mut pending = Vec::new();
        let first = read_request_buffered(&mut server_side, &mut pending, 1024).unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"abc");
        assert!(!pending.is_empty(), "second request must be parked");
        let second = read_request_buffered(&mut server_side, &mut pending, 1024).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/b");
        assert_eq!(second.query_param("k"), Some("2"));
        assert!(second.body.is_empty());
        assert!(pending.is_empty());
        writer.join().unwrap();
    }

    #[test]
    fn pipelined_body_split_across_reads_lands_in_pending() {
        // The boundary between request body and the next request may
        // fall anywhere inside a read chunk; the excess must be parked.
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2000\r\n\r\n";
        let mut full = raw.to_vec();
        full.extend(vec![b'z'; 2000]);
        full.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(&full).unwrap();
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let mut pending = Vec::new();
        let first = read_request_buffered(&mut server_side, &mut pending, 4096).unwrap();
        assert_eq!(first.body.len(), 2000);
        assert!(first.body.iter().all(|&b| b == b'z'));
        let second = read_request_buffered(&mut server_side, &mut pending, 4096).unwrap();
        assert_eq!(second.path, "/next");
        writer.join().unwrap();
    }

    #[test]
    fn wants_close_matches_connection_header() {
        let close = parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n", 1024).unwrap();
        assert!(close.wants_close());
        let keep = parse(b"GET /x HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", 1024).unwrap();
        assert!(!keep.wants_close());
        let none = parse(b"GET /x HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert!(!none.wants_close());
    }

    #[test]
    fn oversized_head_rejected() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend(vec![b'a'; MAX_HEAD + 10]);
        let err = parse(&raw, 1024).unwrap_err();
        assert!(matches!(err, ReadError::HeadTooLarge));
    }
}
