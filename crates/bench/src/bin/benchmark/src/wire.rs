//! The load generator's side of the wire: a keep-alive HTTP/1.1 client
//! that times each exchange in three phases, and a parser for the
//! daemon's Prometheus text exposition.
//!
//! Latency is client-observed, from the first request byte written to
//! the last body byte read. Dialling is timed separately and never
//! counted in a request's latency.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One completed exchange and where its time went.
#[derive(Debug)]
pub struct Exchange {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// When the first request byte was written.
    pub start: Instant,
    /// Writing the request.
    pub write: Duration,
    /// From the last request byte to the first response byte.
    pub wait: Duration,
    /// From the first response byte to the last body byte.
    pub read: Duration,
}

impl Exchange {
    /// Client-observed latency of the exchange.
    pub fn latency(&self) -> Duration {
        self.write + self.wait + self.read
    }
}

/// A keep-alive connection to one daemon. Every socket operation has a
/// timeout, so a hung daemon becomes failed operations and not a hung
/// benchmark.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    /// TCP dials made so far.
    pub dials: u64,
    /// Time spent dialling, excluded from every latency.
    pub connect_time: Duration,
}

impl Client {
    /// A client for `addr`; nothing is dialled until [`Self::dial`] or
    /// the first request.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            stream: None,
            dials: 0,
            connect_time: Duration::ZERO,
        }
    }

    /// Dials now (a no-op on a live socket), so the measured phase
    /// starts on an established connection.
    pub fn dial(&mut self) -> Result<(), String> {
        if self.stream.is_some() {
            return Ok(());
        }
        let begin = Instant::now();
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        self.stream = Some(stream);
        self.dials += 1;
        self.connect_time += begin.elapsed();
        Ok(())
    }

    /// `GET target`.
    pub fn get(&mut self, target: &str) -> Result<Exchange, String> {
        self.request("GET", target, &[])
    }

    /// Sends one request and reads the whole response. A failure on a
    /// *reused* socket is retried once on a fresh dial: the daemon may
    /// have closed it between exchanges (keep-alive budget, idle
    /// timeout), which only shows when the write or read fails.
    pub fn request(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Exchange, String> {
        let reused = self.stream.is_some();
        match self.exchange(method, target, body) {
            Err(first) if reused => self
                .exchange(method, target, body)
                .map_err(|retry| format!("{retry} (after stale socket: {first})")),
            other => other,
        }
    }

    fn exchange(&mut self, method: &str, target: &str, body: &[u8]) -> Result<Exchange, String> {
        self.dial()?;
        let stream = self.stream.as_mut().expect("dialled above");
        let request = request_bytes(method, target, body);
        let start = Instant::now();
        let outcome = stream
            .write_all(&request)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(stream, start));
        match outcome {
            Ok((exchange, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(exchange)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// The bytes of one keep-alive request. One buffer, so one write: a
/// head-then-body pair of small writes meets Nagle and delayed ACK for a
/// ~40 ms stall.
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "{method} {target} HTTP/1.1\r\nHost: milrd\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// Reads one `Content-Length`-framed response; the flag says whether
/// the server asked to close the connection.
fn read_response(stream: &mut TcpStream, start: Instant) -> Result<(Exchange, bool), String> {
    let written = Instant::now();
    let mut raw = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8192];
    let mut first_byte = None;
    let head_end = loop {
        if let Some(i) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response head".into());
        }
        first_byte.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or("empty response")?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let (mut length, mut close) = (None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("invalid Content-Length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let mut body = raw.split_off(head_end + 4);
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
    let done = Instant::now();
    let first_byte = first_byte.expect("the head was read from the socket");
    Ok((
        Exchange {
            status,
            body,
            start,
            write: written - start,
            wait: first_byte - written,
            read: done - first_byte,
        },
        close,
    ))
}

/// Parses Prometheus text exposition into `series -> value`, the series
/// keyed exactly as written (`name` or `name{label="v"}`); comment and
/// malformed lines are skipped.
pub fn parse_prometheus(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.trim().rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Counter series of one daemon (or the sum over several) read twice;
/// the accessors are deltas between the two reads.
pub struct Scrape {
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
}

impl Scrape {
    /// Pairs two reads of the same series.
    pub fn new(before: HashMap<String, f64>, after: HashMap<String, f64>) -> Self {
        Self { before, after }
    }

    /// Growth of `series` between the reads (0 for a series the daemon
    /// never registered).
    pub fn delta(&self, series: &str) -> f64 {
        self.after.get(series).copied().unwrap_or(0.0)
            - self.before.get(series).copied().unwrap_or(0.0)
    }

    /// Value of `series` at the second read.
    pub fn last(&self, series: &str) -> f64 {
        self.after.get(series).copied().unwrap_or(0.0)
    }

    /// `delta(numerator) / (delta(numerator) + delta(rest))`, 0 when
    /// nothing was counted.
    pub fn share(&self, numerator: &str, rest: &str) -> f64 {
        let (n, r) = (self.delta(numerator), self.delta(rest));
        if n + r > 0.0 {
            n / (n + r)
        } else {
            0.0
        }
    }
}

/// Scrapes `/metrics?format=prometheus` from every address and sums
/// equal series (one daemon's counters, or a cluster's).
pub fn scrape(addrs: &[SocketAddr], timeout: Duration) -> Result<HashMap<String, f64>, String> {
    let mut total: HashMap<String, f64> = HashMap::new();
    for &addr in addrs {
        let reply = Client::new(addr, timeout).get("/metrics?format=prometheus")?;
        if reply.status != 200 {
            return Err(format!("/metrics on {addr} answered {}", reply.status));
        }
        let text = String::from_utf8(reply.body).map_err(|_| "/metrics is not UTF-8")?;
        for (series, value) in parse_prometheus(&text) {
            *total.entry(series).or_insert(0.0) += value;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_text_parses_plain_and_labelled_series() {
        let text = "# HELP milrd_queue_peak peak\n# TYPE milrd_queue_peak gauge\n\
                    milrd_queue_peak 3\n\
                    milrd_connections_total{outcome=\"accepted\"} 41\n\
                    milr_train_last_nldd 0.31195511018993527\n\
                    milrd_request_latency_us_bucket{endpoint=\"/rank\",le=\"+Inf\"} 2\n\
                    garbage\n\n";
        let parsed = parse_prometheus(text);
        assert_eq!(parsed["milrd_queue_peak"], 3.0);
        assert_eq!(
            parsed["milrd_connections_total{outcome=\"accepted\"}"],
            41.0
        );
        assert_eq!(parsed["milr_train_last_nldd"], 0.31195511018993527);
        assert_eq!(
            parsed["milrd_request_latency_us_bucket{endpoint=\"/rank\",le=\"+Inf\"}"],
            2.0
        );
        assert_eq!(parsed.len(), 4);
    }

    #[test]
    fn scrape_deltas_and_shares() {
        let read = |hits: f64, misses: f64| {
            HashMap::from([("hits".to_string(), hits), ("misses".to_string(), misses)])
        };
        let scrape = Scrape::new(read(10.0, 5.0), read(40.0, 15.0));
        assert_eq!(scrape.delta("hits"), 30.0);
        assert_eq!(scrape.delta("absent"), 0.0);
        assert_eq!(scrape.last("misses"), 15.0);
        assert_eq!(scrape.share("hits", "misses"), 0.75);
        assert_eq!(scrape.share("absent", "also_absent"), 0.0);
    }
}
