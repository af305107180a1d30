//! The server loop every milrd role runs on — the single-node daemon,
//! the cluster coordinator and the cluster worker each mount a
//! [`Router`] on one [`Node`]. The node answers what every role answers
//! alike: `POST /admin/shutdown` (`{"status":"draining"}`, then a
//! graceful drain) and the fallback for a request the router declines —
//! `405` on one of the role's paths, `404` anywhere else.
//!
//! Concurrency model — one acceptor thread and `workers` handler
//! threads around a bounded queue:
//!
//! * the acceptor pushes `(connection, enqueued_at)` and sheds with an
//!   immediate `503` once the queue is `queue_depth` deep;
//! * a handler pops, and first checks how long the connection waited —
//!   one that overstayed `handle_deadline` is answered `503` without
//!   paying for training (the client has likely timed out already);
//! * a handler then serves the connection's whole **HTTP/1.1
//!   keep-alive** life, pipelined requests included, until the peer
//!   closes, asks to close, idles past `read_timeout`, or the node
//!   drains;
//! * at every burst boundary — every `keepalive_burst` requests, or any
//!   response once the connection consumed a `keepalive_turn` of
//!   handler time — it answers `Connection: close` if other connections
//!   wait, so one chatty peer never starves the queue;
//! * every socket carries read/write deadlines, so a stalled peer costs
//!   a handler at most the timeout, never forever;
//! * shutdown is graceful: the flag flips, the acceptor is unblocked by
//!   a self-connection, handlers drain the queue and exit.
//!
//! Connection accounting resolves every admitted connection **exactly
//! once**, so at quiescence `accepted == completed + closed +
//! read_error + deadline_shed + handler_panics` (the law the chaos
//! suite asserts):
//!
//! * `completed` — served at least one request and ended cleanly (peer
//!   EOF or idle expiry after a response, `Connection: close`, a
//!   burst-boundary yield, shutdown, or a failed response write);
//! * `closed` — the peer closed (or idled out) before sending a request;
//! * `read_error` — a request failed to parse; it is answered with a
//!   4xx and recorded under the `(unreadable)` endpoint;
//! * `deadline_shed` — overstayed the queue and was answered `503`;
//! * `handler_panics` — a route panicked: the request is answered `500`
//!   and the connection closed, and the handler thread serves on, so a
//!   panic costs one request, never a thread.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{self, ReadError, Request};
use crate::metrics::Metrics;
use crate::Json;

/// Everything tunable about the server loop.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// Bind address (port `0` picks an ephemeral one).
    pub addr: String,
    /// Handler threads (at least one).
    pub workers: usize,
    /// Accepted connections allowed to wait; beyond this the acceptor
    /// sheds with `503`.
    pub queue_depth: usize,
    /// Socket read **and** write deadline, set once at accept — doubling
    /// as the keep-alive idle timeout between requests on one
    /// connection.
    pub read_timeout: Duration,
    /// Longest a connection may wait in the queue and still be served;
    /// older ones are answered `503` instead of trained for.
    pub handle_deadline: Duration,
    /// Requests served per scheduling turn before a keep-alive handler
    /// checks the accept queue and yields (`Connection: close`) if other
    /// connections wait. `0` checks after every request.
    pub keepalive_burst: usize,
    /// Handler time a connection may consume before every further
    /// response also checks the queue. Requests are not uniform cost —
    /// a burst of cached ranks is milliseconds, one cold train is
    /// seconds — so the turn quantum, not the request count, is what
    /// bounds head-of-line latency for waiting connections.
    pub keepalive_turn: Duration,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
}

impl Default for NodeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            handle_deadline: Duration::from_secs(10),
            keepalive_burst: 32,
            keepalive_turn: Duration::from_millis(50),
            max_body: 8 * 1024 * 1024,
        }
    }
}

impl NodeOptions {
    /// Overrides every field named on the command line: `--addr`,
    /// `--workers`, `--queue-depth`, `--read-timeout-ms`,
    /// `--handle-deadline-ms`, `--keepalive-burst`, `--keepalive-turn-ms`
    /// and `--max-body`. The first occurrence of a flag wins.
    ///
    /// # Errors
    /// A message naming the flag whose value does not parse (or
    /// `--workers 0`).
    pub fn apply_flags(&mut self, args: &[String]) -> Result<(), String> {
        if let Some(addr) = flag(args, "--addr") {
            self.addr = addr;
        }
        if let Some(workers) = parse_flag(args, "--workers")? {
            if workers == 0 {
                return Err("invalid --workers \"0\" (at least one is required)".into());
            }
            self.workers = workers;
        }
        if let Some(depth) = parse_flag(args, "--queue-depth")? {
            self.queue_depth = depth;
        }
        if let Some(timeout) = parse_ms(args, "--read-timeout-ms")? {
            self.read_timeout = timeout;
        }
        if let Some(deadline) = parse_ms(args, "--handle-deadline-ms")? {
            self.handle_deadline = deadline;
        }
        if let Some(burst) = parse_flag(args, "--keepalive-burst")? {
            self.keepalive_burst = burst;
        }
        if let Some(turn) = parse_ms(args, "--keepalive-turn-ms")? {
            self.keepalive_turn = turn;
        }
        if let Some(bytes) = parse_flag(args, "--max-body")? {
            self.max_body = bytes;
        }
        Ok(())
    }
}

/// The value following the first `name` in `args` — the command-line
/// grammar of every serving role.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// [`flag`], parsed.
///
/// # Errors
/// `invalid NAME "…"` when the value does not parse.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|text| {
            text.parse::<T>()
                .map_err(|_| format!("invalid {name} {text:?}"))
        })
        .transpose()
}

/// [`flag`], parsed as a millisecond count.
///
/// # Errors
/// As [`parse_flag`].
pub fn parse_ms(args: &[String], name: &str) -> Result<Option<Duration>, String> {
    Ok(parse_flag(args, name)?.map(Duration::from_millis))
}

/// A response body: JSON for the protocol proper, raw bytes for the
/// Prometheus exposition and the shard-streaming endpoints.
#[derive(Debug)]
pub enum Body {
    /// A JSON payload (`application/json`).
    Json(Json),
    /// A byte payload with an explicit content type.
    Bytes(&'static str, Vec<u8>),
}

/// One routed reply.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Body,
}

impl Reply {
    /// A JSON reply.
    pub fn json(status: u16, body: Json) -> Self {
        Self {
            status,
            body: Body::Json(body),
        }
    }

    /// A raw-bytes reply.
    pub fn bytes(status: u16, content_type: &'static str, data: Vec<u8>) -> Self {
        Self {
            status,
            body: Body::Bytes(content_type, data),
        }
    }

    /// A `200` Prometheus text-exposition reply.
    pub fn prometheus(text: String) -> Self {
        Self::bytes(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            text.into_bytes(),
        )
    }

    /// The uniform `{"error": …}` reply.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Self::json(status, http::error_body(message))
    }

    /// A `400` naming the caller's mistake.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::error(400, message)
    }
}

/// The routing callback: the endpoint label (it keys the per-endpoint
/// metrics, so dynamic path segments must collapse into placeholders)
/// and the reply, or [`None`] for a request the role does not serve —
/// the node then answers it with the shared fallback.
pub type Router = dyn Fn(&Request) -> Option<(&'static str, Reply)> + Send + Sync;

/// The one route the node serves for every role.
const SHUTDOWN: &str = "/admin/shutdown";

struct Inner {
    options: NodeOptions,
    metrics: Arc<Metrics>,
    /// The role's fixed paths: a declined request on one of them is a
    /// method mismatch, not an unknown route.
    paths: &'static [&'static str],
    router: Box<Router>,
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    available: Condvar,
    shutdown: AtomicBool,
    addr: SocketAddr,
}

/// A running server loop.
pub struct Node {
    inner: Arc<Inner>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Node {
    /// Binds and starts the accept loop plus the handler pool, serving
    /// `router` on the role's fixed `paths`.
    ///
    /// # Errors
    /// A description of `workers == 0`, a bind failure, or a thread
    /// that could not be spawned.
    pub fn start(
        options: NodeOptions,
        metrics: Arc<Metrics>,
        paths: &'static [&'static str],
        router: Box<Router>,
    ) -> Result<Self, String> {
        if options.workers == 0 {
            return Err("at least one worker thread is required".into());
        }
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let inner = Arc::new(Inner {
            options,
            metrics,
            paths,
            router,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            addr,
        });
        let workers = (0..inner.options.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("milrd-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cannot spawn a handler thread: {e}"))?;
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("milrd-accept".into())
                .spawn(move || accept_loop(&listener, &inner))
                .map_err(|e| format!("cannot spawn the acceptor: {e}"))?
        };
        Ok(Self {
            inner,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The node's connection/endpoint metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// Begins a graceful drain: stop accepting, finish queued
    /// connections. Idempotent.
    pub fn request_shutdown(&self) {
        request_shutdown(&self.inner);
    }

    /// Blocks until the acceptor and every handler thread has drained.
    pub fn wait(self) {
        self.acceptor.join().ok();
        for handle in self.workers {
            handle.join().ok();
        }
    }
}

fn request_shutdown(inner: &Inner) {
    if inner.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Unblock the acceptor with a throwaway self-connection.
    TcpStream::connect(inner.addr).ok();
    inner.available.notify_all();
}

fn accept_loop(listener: &TcpListener, inner: &Inner) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            return; // the unblocking self-connection, or a late client
        }
        stream
            .set_read_timeout(Some(inner.options.read_timeout))
            .ok();
        stream
            .set_write_timeout(Some(inner.options.read_timeout))
            .ok();
        // Keep-alive turns this into a request/response ping-pong
        // socket; without NODELAY, Nagle + delayed ACK stalls every
        // small response ~40ms.
        stream.set_nodelay(true).ok();
        let mut queue = inner.queue.lock().expect("node queue mutex");
        if queue.len() >= inner.options.queue_depth {
            drop(queue);
            inner.metrics.shed_total.inc();
            // Refuse on a throwaway thread so a slow peer cannot stall
            // the acceptor.
            std::thread::spawn(move || {
                let mut stream = stream;
                http::respond_json(
                    &mut stream,
                    503,
                    &http::error_body("server saturated; request shed"),
                )
                .ok();
                drain_before_close(&mut stream);
            });
            continue;
        }
        inner.metrics.accepted_total.inc();
        queue.push_back((stream, Instant::now()));
        inner.metrics.set_queue_depth(queue.len());
        drop(queue);
        inner.available.notify_one();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let popped = {
            let mut queue = inner.queue.lock().expect("node queue mutex");
            loop {
                if let Some(item) = queue.pop_front() {
                    inner.metrics.set_queue_depth(queue.len());
                    break Some(item);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = inner
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("node queue mutex");
                queue = guard;
            }
        };
        let Some((stream, enqueued)) = popped else {
            return;
        };
        handle_connection(inner, stream, enqueued);
    }
}

/// Serves one connection to completion, counting exactly one outcome.
fn handle_connection(inner: &Inner, mut stream: TcpStream, enqueued: Instant) {
    if enqueued.elapsed() > inner.options.handle_deadline {
        inner.metrics.deadline_shed_total.inc();
        http::respond_json(
            &mut stream,
            503,
            &http::error_body("request overstayed the queue deadline"),
        )
        .ok();
        drain_before_close(&mut stream);
        return;
    }
    let mut pending = Vec::new();
    let mut served = 0usize;
    let turn_started = Instant::now();
    loop {
        let read_started = Instant::now();
        let req =
            match http::read_request_buffered(&mut stream, &mut pending, inner.options.max_body) {
                Ok(req) => req,
                Err(ReadError::Closed) => {
                    // Peer EOF at a request boundary: a completed keep-alive
                    // exchange if anything was served, a prober otherwise.
                    if served > 0 {
                        inner.metrics.completed_total.inc();
                    } else {
                        inner.metrics.closed_total.inc();
                    }
                    return;
                }
                Err(ReadError::Timeout) if served > 0 => {
                    // Keep-alive idle expiry between requests.
                    inner.metrics.completed_total.inc();
                    drain_before_close(&mut stream);
                    return;
                }
                Err(err) => {
                    let (status, message) = match err {
                        ReadError::Timeout => (408, "timed out reading the request".to_string()),
                        ReadError::HeadTooLarge => (431, "request head too large".to_string()),
                        ReadError::BodyTooLarge => (413, "request body too large".to_string()),
                        ReadError::Malformed(msg) => (400, msg),
                        ReadError::Closed => unreachable!("handled above"),
                    };
                    let us = read_started.elapsed().as_micros() as u64;
                    inner.metrics.record("(unreadable)", status, us);
                    inner.metrics.read_error_total.inc();
                    http::respond_json(&mut stream, status, &http::error_body(message)).ok();
                    drain_before_close(&mut stream);
                    return;
                }
            };
        if served > 0 {
            inner.metrics.keepalive_reused_total.inc();
        }
        let started = Instant::now();
        let routed = {
            let _span = milr_obs::span::enter("serve.request");
            std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(inner, &req)))
        };
        let Ok((endpoint, reply)) = routed else {
            let us = started.elapsed().as_micros() as u64;
            inner.metrics.record("(panicked)", 500, us);
            inner.metrics.handler_panics_total.inc();
            let body = http::error_body("internal error: the request handler panicked");
            http::respond_json(&mut stream, 500, &body).ok();
            drain_before_close(&mut stream);
            return;
        };
        let wants_drain = endpoint == SHUTDOWN;
        served += 1;
        // Yield policy: pipelined bytes are always finished first; at a
        // burst boundary the handler closes if other connections wait,
        // so a busy client amortises dials without starving the queue.
        let at_burst_boundary = served.is_multiple_of(inner.options.keepalive_burst.max(1))
            || turn_started.elapsed() >= inner.options.keepalive_turn;
        let keep = !wants_drain
            && !req.wants_close()
            && !inner.shutdown.load(Ordering::SeqCst)
            && (!pending.is_empty()
                || !at_burst_boundary
                || inner.queue.lock().expect("node queue mutex").is_empty());
        inner
            .metrics
            .record(endpoint, reply.status, started.elapsed().as_micros() as u64);
        let io = match &reply.body {
            Body::Json(json) => http::respond_json_conn(&mut stream, reply.status, json, keep),
            Body::Bytes(content_type, data) => {
                http::respond_bytes(&mut stream, reply.status, content_type, data, keep)
            }
        };
        if wants_drain {
            request_shutdown(inner);
        }
        if io.is_err() || !keep {
            inner.metrics.completed_total.inc();
            drain_before_close(&mut stream);
            return;
        }
    }
}

/// Routes one request: `POST /admin/shutdown` answers alike on every
/// role (the caller drains the node after the reply); anything else
/// goes to the role's router, and what it declines gets `405` on a
/// known path, `404` elsewhere.
fn dispatch(inner: &Inner, req: &Request) -> (&'static str, Reply) {
    let (method, path) = (req.method.as_str(), req.path.as_str());
    if (method, path) == ("POST", SHUTDOWN) {
        let body = Json::Obj(vec![("status".into(), Json::str("draining"))]);
        return (SHUTDOWN, Reply::json(200, body));
    }
    if let Some(routed) = (inner.router)(req) {
        return routed;
    }
    if path == SHUTDOWN || inner.paths.contains(&path) {
        let message = format!("{method} not supported on {path}");
        ("(method-mismatch)", Reply::error(405, message))
    } else {
        (
            "(unmatched)",
            Reply::error(404, format!("no route for {path}")),
        )
    }
}

/// Consumes (bounded) whatever the peer already sent before the socket
/// closes. Required on every path that responds without reading the
/// full request: closing with unread bytes in the receive buffer makes
/// the kernel send an RST, which can discard the in-flight response
/// before the client reads it — a shed would then look like a
/// connection reset instead of a clean `503`.
fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::series::series;
    use std::io::Write;

    fn start_echo_node() -> Node {
        echo_node(NodeOptions {
            read_timeout: Duration::from_millis(400),
            ..NodeOptions::default()
        })
    }

    fn echo_node(options: NodeOptions) -> Node {
        Node::start(
            options,
            Arc::new(Metrics::default()),
            &["/echo"],
            Box::new(|req: &Request| {
                let len = Json::num(req.body.len() as f64);
                (req.path == "/echo").then(|| {
                    (
                        "/echo",
                        Reply::json(200, Json::Obj(vec![("len".into(), len)])),
                    )
                })
            }),
        )
        .expect("node starts")
    }

    /// Polls until every admitted connection has resolved.
    fn quiesce(node: &Node, accepted: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !(node.metrics().connections_balanced()
            && node.metrics().accepted_total.get() == accepted)
        {
            assert!(Instant::now() < deadline, "node never quiesced");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_socket() {
        let node = start_echo_node();
        let mut conn = client::Connection::new(node.addr(), Duration::from_secs(2));
        for i in 0..16 {
            let response = conn
                .post_json("/echo", &Json::Obj(vec![("i".into(), Json::num(i as f64))]))
                .expect("keep-alive request");
            assert_eq!(response.status, 200);
        }
        assert_eq!(conn.dials(), 1, "all 16 requests reuse one socket");
        assert_eq!(node.metrics().accepted_total.get(), 1);
        assert_eq!(node.metrics().keepalive_reused_total.get(), 15);
        // Idle past the read timeout: the node counts the connection
        // completed and the law balances at quiescence.
        std::thread::sleep(Duration::from_millis(600));
        assert!(node.metrics().connections_balanced());
        assert_eq!(node.metrics().completed_total.get(), 1);
        node.request_shutdown();
        node.wait();
    }

    #[test]
    fn pipelined_pair_gets_two_ordered_responses() {
        // Both requests in one write: the second one's bytes arrive with
        // the first and must be served next, not rejected as excess body.
        let node = start_echo_node();
        let mut stream = TcpStream::connect(node.addr()).expect("connect");
        stream
            .write_all(
                b"POST /echo HTTP/1.1\r\nContent-Length: 1\r\n\r\na\
                  POST /echo HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\nbb",
            )
            .expect("write the pair");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read both responses");
        let text = String::from_utf8_lossy(&raw);
        assert_eq!(text.matches("HTTP/1.1 200").count(), 2, "{text}");
        let first = text.find("{\"len\":1}").expect("first response body");
        let second = text.find("{\"len\":2}").expect("second response body");
        assert!(first < second, "responses must come back in order: {text}");
        quiesce(&node, 1);
        assert_eq!(node.metrics().completed_total.get(), 1);
        assert_eq!(node.metrics().read_error_total.get(), 0);
        node.request_shutdown();
        node.wait();
    }

    #[test]
    fn busy_keep_alive_clients_take_turns_on_one_handler() {
        // One handler, two keep-alive clients that never pause between
        // requests. Only the burst-boundary yield lets the queued
        // connection in: without it the first client holds the handler
        // for its whole window and the second one's first request waits
        // that long.
        const WINDOW: Duration = Duration::from_millis(1500);
        let node = echo_node(NodeOptions {
            workers: 1,
            ..NodeOptions::default()
        });
        let addr = node.addr();
        // Both windows open together, so the two clients overlap.
        let start_line = Arc::new(std::sync::Barrier::new(2));
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let start_line = Arc::clone(&start_line);
                std::thread::spawn(move || {
                    let mut conn = client::Connection::new(addr, Duration::from_secs(5));
                    let (mut served, mut slowest) = (0u32, Duration::ZERO);
                    start_line.wait();
                    let started = Instant::now();
                    while started.elapsed() < WINDOW {
                        let sent = Instant::now();
                        let response = conn.get("/echo").expect("echo request");
                        assert_eq!(response.status, 200);
                        slowest = slowest.max(sent.elapsed());
                        served += 1;
                    }
                    (served, slowest)
                })
            })
            .collect();
        for handle in clients {
            let (served, slowest) = handle.join().expect("client thread");
            assert!(served > 1, "a client made no progress: {served} requests");
            assert!(
                slowest < Duration::from_secs(1),
                "a request waited {slowest:?} behind the other connection"
            );
        }
        node.request_shutdown();
        node.wait();
    }

    #[test]
    fn connection_close_and_probes_resolve_distinctly() {
        let node = start_echo_node();
        // One-shot client sends Connection: close → completed.
        let response = client::get(node.addr(), "/echo", Duration::from_secs(2)).expect("one-shot");
        assert_eq!(response.status, 200);
        // A probe that connects and closes without a byte → closed.
        drop(TcpStream::connect(node.addr()).expect("probe connects"));
        // Garbage → read_error (and a 400).
        let mut garbage = TcpStream::connect(node.addr()).expect("garbage connects");
        garbage.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        garbage.read_to_end(&mut raw).ok();
        assert!(String::from_utf8_lossy(&raw).contains("400"), "{raw:?}");
        drop(garbage);
        quiesce(&node, 3);
        assert_eq!(node.metrics().completed_total.get(), 1);
        assert_eq!(node.metrics().closed_total.get(), 1);
        assert_eq!(node.metrics().read_error_total.get(), 1);
        let text = node.metrics().registry().render_prometheus();
        let unreadable = "milrd_endpoint_requests_total{endpoint=\"(unreadable)\"}";
        assert_eq!(series(&text, unreadable), 1.0);
        node.request_shutdown();
        node.wait();
    }

    #[test]
    fn a_panicking_route_costs_one_request_not_the_handler() {
        let node = Node::start(
            NodeOptions {
                workers: 1,
                ..NodeOptions::default()
            },
            Arc::new(Metrics::default()),
            &["/echo", "/panic"],
            Box::new(|req: &Request| match req.path.as_str() {
                "/panic" => panic!("route panics on purpose"),
                "/echo" => Some(("/echo", Reply::json(200, Json::Obj(vec![])))),
                _ => None,
            }),
        )
        .expect("node starts");
        let timeout = Duration::from_secs(2);
        for _ in 0..3 {
            let response = client::get(node.addr(), "/panic", timeout).expect("answered");
            assert_eq!(response.status, 500);
        }
        // The one handler thread survived all three and still serves.
        let response = client::get(node.addr(), "/echo", timeout).expect("served");
        assert_eq!(response.status, 200);
        quiesce(&node, 4);
        assert_eq!(node.metrics().handler_panics_total.get(), 3);
        assert_eq!(node.metrics().completed_total.get(), 1);
        let text = node.metrics().registry().render_prometheus();
        let panicked = "milrd_endpoint_requests_total{endpoint=\"(panicked)\"}";
        assert_eq!(series(&text, panicked), 3.0);
        node.request_shutdown();
        node.wait();
    }

    #[test]
    fn zero_workers_are_refused() {
        let options = NodeOptions {
            workers: 0,
            ..NodeOptions::default()
        };
        let refused = Node::start(
            options,
            Arc::new(Metrics::default()),
            &[],
            Box::new(|_: &Request| None),
        );
        assert!(refused.is_err());
    }

    #[test]
    fn shutdown_endpoint_drains_the_node() {
        let node = start_echo_node();
        let addr = node.addr();
        let response = client::post_json(
            addr,
            "/admin/shutdown",
            &Json::Obj(vec![]),
            Duration::from_secs(2),
        )
        .expect("shutdown accepted");
        assert_eq!(response.status, 200);
        assert_eq!(response.json().unwrap().dump(), r#"{"status":"draining"}"#);
        node.wait();
        assert!(
            client::get(addr, "/echo", Duration::from_millis(300)).is_err(),
            "drained node no longer serves"
        );
    }
}
