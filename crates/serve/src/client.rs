//! A tiny blocking HTTP/1.1 client — just enough to drive the daemon
//! from the integration tests and the cluster coordinator. The
//! free functions ([`request`], [`get`], [`post_json`]) speak one
//! request per connection, mirroring the single-node server's
//! `Connection: close`; [`Connection`] is the keep-alive counterpart
//! the cluster coordinator pools for its worker fan-out — one
//! persistent socket per worker instead of a dial per scatter.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::Json;

/// A completed exchange: status code and raw body bytes.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Parses the body as JSON.
    ///
    /// # Errors
    /// A description of invalid UTF-8 or malformed JSON.
    pub fn json(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| e.to_string())?;
        Json::parse(text)
    }
}

/// Sends one request and reads the full response.
///
/// # Errors
/// A description of any connect, write, read, or parse failure.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let body = body.unwrap_or(&[]);
    // One buffer, one write: a head-then-body pair of small writes
    // interacts with Nagle + delayed ACK for a ~40ms stall per request.
    let mut request = format!(
        "{method} {target} HTTP/1.1\r\nHost: milrd\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream
        .write_all(&request)
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

/// `GET` convenience wrapper.
///
/// # Errors
/// See [`request`].
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> Result<Response, String> {
    request(addr, "GET", target, None, timeout)
}

/// `POST` convenience wrapper with a JSON body.
///
/// # Errors
/// See [`request`].
pub fn post_json(
    addr: SocketAddr,
    target: &str,
    body: &Json,
    timeout: Duration,
) -> Result<Response, String> {
    request(addr, "POST", target, Some(body.dump().as_bytes()), timeout)
}

/// A persistent HTTP/1.1 keep-alive connection.
///
/// Requests are sent with `Connection: keep-alive` and responses are
/// read by `Content-Length` (not to EOF), so the socket survives
/// across exchanges. The server remains free to close: a response
/// carrying `Connection: close` (or no `Content-Length`) drops the
/// socket after the body, and the next request redials. A request that
/// fails on a *reused* socket — the server may have closed it between
/// exchanges, which is indistinguishable from a stale socket until the
/// write or read fails — is retried exactly once on a fresh dial;
/// failures on a fresh socket surface immediately.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    dials: u64,
}

impl Connection {
    /// A connection to `addr`; nothing is dialled until the first
    /// request.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            stream: None,
            dials: 0,
        }
    }

    /// The remote address this connection dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many TCP dials the connection has made — the socket-reuse
    /// regression tests pin this to 1 across N sequential requests.
    pub fn dials(&self) -> u64 {
        self.dials
    }

    /// Drops the cached socket (the next request redials).
    pub fn reset(&mut self) {
        self.stream = None;
    }

    /// Sends one request and reads the full response, reusing the
    /// cached socket when one is alive.
    ///
    /// # Errors
    /// A description of any connect, write, read, or parse failure
    /// (after the single stale-socket retry described on
    /// [`Connection`]).
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> Result<Response, String> {
        let reused = self.stream.is_some();
        match self.exchange(method, target, body) {
            Err(e) if reused => {
                // The server may have closed the pooled socket between
                // requests; retry once on a fresh dial.
                self.stream = None;
                self.exchange(method, target, body)
                    .map_err(|retry| format!("{retry} (after stale keep-alive socket: {e})"))
            }
            other => other,
        }
    }

    /// `GET` convenience wrapper.
    ///
    /// # Errors
    /// See [`Self::request`].
    pub fn get(&mut self, target: &str) -> Result<Response, String> {
        self.request("GET", target, None)
    }

    /// `POST` convenience wrapper with a JSON body.
    ///
    /// # Errors
    /// See [`Self::request`].
    pub fn post_json(&mut self, target: &str, body: &Json) -> Result<Response, String> {
        self.request("POST", target, Some(body.dump().as_bytes()))
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> Result<Response, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
                .map_err(|e| format!("connect: {e}"))?;
            stream
                .set_read_timeout(Some(self.timeout))
                .map_err(|e| e.to_string())?;
            stream
                .set_write_timeout(Some(self.timeout))
                .map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            self.stream = Some(stream);
            self.dials += 1;
        }
        let stream = self.stream.as_mut().expect("stream just ensured");
        let body = body.unwrap_or(&[]);
        // One buffer, one write — on a reused keep-alive socket a
        // small head write followed by a small body write hits the
        // Nagle/delayed-ACK interaction for a ~40ms stall per exchange.
        let mut request = format!(
            "{method} {target} HTTP/1.1\r\nHost: milrd\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len(),
        )
        .into_bytes();
        request.extend_from_slice(body);
        let result = stream
            .write_all(&request)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_keep_alive_response(stream));
        match result {
            Ok((response, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Reads one `Content-Length`-framed response off a keep-alive socket.
/// Returns the response plus whether the server asked to close (also
/// set when the response carries no `Content-Length`, in which case the
/// body is read to EOF exactly like the one-shot client).
fn read_keep_alive_response(stream: &mut TcpStream) -> Result<(Response, bool), String> {
    let mut raw = Vec::with_capacity(512);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response head".into());
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let status_line = head.lines().next().ok_or("empty response")?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut close = false;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid Content-Length {value:?}"))?,
            );
        } else if name == "connection" {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = raw[head_end + 4..].to_vec();
    match content_length {
        Some(length) => {
            while body.len() < length {
                let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
                if n == 0 {
                    return Err("connection closed mid-response body".into());
                }
                body.extend_from_slice(&chunk[..n]);
            }
            if body.len() > length {
                return Err("body longer than Content-Length".into());
            }
            Ok((Response { status, body }, close))
        }
        None => {
            // No framing: the exchange degenerates to read-to-EOF and
            // the socket cannot be reused.
            stream
                .read_to_end(&mut body)
                .map_err(|e| format!("read: {e}"))?;
            Ok((Response { status, body }, true))
        }
    }
}

fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator in response")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let status_line = head.lines().next().ok_or("empty response")?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    Ok(Response {
        status,
        body: raw[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_response() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Length: 9\r\n\r\n{\"id\": 1}";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 201);
        assert_eq!(
            response.json().unwrap().get("id").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 unknown\r\n\r\n").is_err());
    }
}
