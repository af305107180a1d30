//! The single-node retrieval daemon: its router and request handlers,
//! mounted on the shared [`Node`] server loop (acceptor, bounded handler
//! pool, keep-alive, shedding, drain — see [`crate::node`]).
//!
//! On top of the loop the daemon adds:
//!
//! * priority shedding: under overload (queue past `priority_shed_fill`,
//!   read from the node's queue-depth gauge), uncached train-heavy
//!   rank/feedback requests are shed with `503` first; cached ranks are
//!   cheap and keep flowing;
//! * a handler trains and ranks on its own thread and holds no daemon
//!   lock across either, so `workers` cached pages scan at once;
//! * one background thread that sweeps expired sessions every 100 ms
//!   and, under `watch_snapshot`, polls the snapshot for changes.
//!
//! All request state lives in the private `Daemon` struct: the current
//! snapshot **epoch** (database + generation, swapped atomically by
//! `POST /snapshot/reload` or the snapshot watcher — in-flight requests
//! and live sessions keep serving the epoch they pinned via `Arc`), the
//! shared config, the concept cache (keyed by generation), the session
//! store and the metrics registry.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use milr_baseline::feature_backend;
use milr_core::{
    BackendTag, CoreError, FeatureBackend, QuerySession, RankRequest, RetrievalConfig,
    RetrievalDatabase,
};
use milr_imgproc::{pnm, Rect};
use milr_mil::{Bag, BagAggregator, WeightPolicy};

use crate::base64;
use crate::cache::{CachedConcept, ConceptCache, ConceptKey};
use crate::http::{self, Request};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::node::{flag, parse_flag, parse_ms, Action, Node, NodeOptions, Reply};
use crate::sessions::SessionStore;

/// How often the background thread sweeps expired sessions.
const SWEEP_TICK: Duration = Duration::from_millis(100);

/// Everything tunable about the daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The server loop: bind address (`127.0.0.1:7878` by default),
    /// handler pool, queue, timeouts, keep-alive yield, body limit.
    pub node: NodeOptions,
    /// Accept-queue fill ratio at which priority shedding starts:
    /// uncached (train-heavy) rank/feedback requests are answered `503`
    /// while cached ranks and cheap endpoints keep flowing. Values
    /// above 1.0 can never trip (the queue sheds at the acceptor
    /// first), which disables the policy.
    pub priority_shed_fill: f64,
    /// Concept-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Idle time after which a session expires.
    pub session_ttl: Duration,
    /// Most sessions kept live at once (0 disables sessions).
    pub session_capacity: usize,
    /// Ranking page size when a request names no `k`.
    pub default_page: usize,
    /// Training/ranking configuration shared by every request.
    pub retrieval: RetrievalConfig,
    /// Enables `GET /debug/sleep` — a worker-stalling endpoint the shed
    /// tests need; never enable in real service.
    pub debug_endpoints: bool,
    /// Snapshot the daemon serves — a monolithic `.milr` file or a
    /// sharded v3 directory. Required for `POST /snapshot/reload` and
    /// the snapshot watcher; [`None`] disables both.
    pub snapshot_path: Option<PathBuf>,
    /// Feature backend id the served snapshot must have been
    /// preprocessed with (`gray-block`, `sbn`, …). [`None`] accepts
    /// whatever backend the snapshot's manifest records. Either way,
    /// region/image uploads are featurised with the *snapshot's*
    /// backend, and a hot reload that would change the feature space is
    /// refused.
    pub backend: Option<String>,
    /// Polls `snapshot_path` for modification and hot-reloads
    /// automatically when it changes.
    pub watch_snapshot: bool,
    /// Poll interval of the snapshot watcher.
    pub watch_interval: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            node: NodeOptions {
                addr: "127.0.0.1:7878".into(),
                ..NodeOptions::default()
            },
            priority_shed_fill: 0.75,
            cache_capacity: 128,
            session_ttl: Duration::from_secs(15 * 60),
            session_capacity: 256,
            default_page: 10,
            retrieval: RetrievalConfig::default(),
            debug_endpoints: false,
            snapshot_path: None,
            backend: None,
            watch_snapshot: false,
            watch_interval: Duration::from_secs(2),
        }
    }
}

impl ServeOptions {
    /// The options `milrd` and `milr serve` run with: the defaults, with
    /// every flag on the command line applied — the server-loop flags of
    /// [`NodeOptions::apply_flags`] plus `--snapshot`,
    /// `--priority-shed-fill`, `--cache-capacity`,
    /// `--session-ttl-s`, `--session-capacity`, `--page`, `--policy`,
    /// `--backend`, `--debug-endpoints`, `--watch-snapshot` and
    /// `--watch-interval-ms`. Ranking runs one thread per request: the
    /// daemon's parallelism is across requests, not within them (results
    /// are identical either way).
    ///
    /// # Errors
    /// A message naming the flag whose value does not parse.
    pub fn from_flags(args: &[String]) -> Result<Self, String> {
        let mut options = Self::default();
        options.node.apply_flags(args)?;
        options.snapshot_path = flag(args, "--snapshot").map(PathBuf::from);
        if let Some(fill) = parse_flag(args, "--priority-shed-fill")? {
            options.priority_shed_fill = fill;
        }
        if let Some(capacity) = parse_flag(args, "--cache-capacity")? {
            options.cache_capacity = capacity;
        }
        if let Some(secs) = parse_flag(args, "--session-ttl-s")? {
            options.session_ttl = Duration::from_secs(secs);
        }
        if let Some(capacity) = parse_flag(args, "--session-capacity")? {
            options.session_capacity = capacity;
        }
        if let Some(page) = parse_flag(args, "--page")? {
            options.default_page = page;
        }
        if let Some(spec) = flag(args, "--policy") {
            options.retrieval.policy = parse_policy(&spec)?;
        }
        options.retrieval.threads = 1;
        options.backend = flag(args, "--backend");
        options.debug_endpoints = args.iter().any(|a| a == "--debug-endpoints");
        options.watch_snapshot = args.iter().any(|a| a == "--watch-snapshot");
        if let Some(interval) = parse_ms(args, "--watch-interval-ms")? {
            options.watch_interval = interval;
        }
        Ok(options)
    }
}

/// Parses a policy spec (`original | identical | alpha:A | constraint:B`
/// — the same grammar as the CLI).
///
/// # Errors
/// A description of the unrecognised spec.
pub fn parse_policy(spec: &str) -> Result<WeightPolicy, String> {
    if spec == "original" {
        return Ok(WeightPolicy::OriginalDd);
    }
    if spec == "identical" {
        return Ok(WeightPolicy::Identical);
    }
    if let Some(a) = spec.strip_prefix("alpha:") {
        let alpha: f64 = a.parse().map_err(|_| format!("bad alpha in {spec:?}"))?;
        return Ok(WeightPolicy::AlphaHack { alpha });
    }
    if let Some(b) = spec.strip_prefix("constraint:") {
        let beta: f64 = b.parse().map_err(|_| format!("bad beta in {spec:?}"))?;
        return Ok(WeightPolicy::SumConstraint { beta });
    }
    Err(format!("unknown policy {spec:?}"))
}

/// One immutable snapshot generation. Requests clone the `Arc` once up
/// front and serve entirely from that epoch; a concurrent reload swaps
/// the daemon's pointer without disturbing them, and live sessions pin
/// their epoch's database for as long as they exist.
struct Epoch {
    db: Arc<RetrievalDatabase>,
    /// Every database index — the ranking pool of new sessions.
    all_indices: Vec<usize>,
    /// Monotonic across reloads (concept-cache key component).
    generation: u64,
    /// Shards behind this epoch's snapshot (1 for monolithic files).
    shards: usize,
    /// Feature backend the snapshot was preprocessed with; region and
    /// image uploads are featurised through the same backend so every
    /// query bag lives in the snapshot's feature space.
    backend: BackendTag,
}

impl Epoch {
    fn new(db: RetrievalDatabase, generation: u64, shards: usize, backend: BackendTag) -> Self {
        Self {
            all_indices: (0..db.len()).collect(),
            db: Arc::new(db),
            generation,
            shards,
            backend,
        }
    }

    /// The upload featuriser for this epoch's backend. Pre-tag
    /// snapshots carry the default gray-block tag, so this only fails
    /// for a manifest naming a backend this build does not know —
    /// which `open`-time checks normally reject first.
    fn feature_backend(&self) -> Result<std::sync::Arc<dyn FeatureBackend>, String> {
        feature_backend(&self.backend.id).ok_or_else(|| {
            format!(
                "snapshot names unknown feature backend {:?}",
                self.backend.id
            )
        })
    }
}

/// Shared state behind the router and the background thread.
struct Daemon {
    epoch: Mutex<Arc<Epoch>>,
    config: Arc<RetrievalConfig>,
    options: ServeOptions,
    metrics: Arc<Metrics>,
    cache: Mutex<ConceptCache>,
    sessions: SessionStore,
    started: Instant,
}

impl Daemon {
    /// The epoch currently serving. One pointer clone; the caller works
    /// against this epoch for its whole request, immune to concurrent
    /// swaps.
    fn epoch(&self) -> Arc<Epoch> {
        Arc::clone(&self.epoch.lock().expect("epoch mutex"))
    }

    /// Loads `snapshot_path` and swaps it in as the next epoch. The
    /// generation is forced monotonic (`max(manifest, current + 1)`), so
    /// even re-reading an unchanged v2 file — which carries no
    /// generation of its own — invalidates the concept cache. On error
    /// the old epoch keeps serving untouched.
    fn reload_snapshot(&self) -> Result<Arc<Epoch>, String> {
        let path = self
            .options
            .snapshot_path
            .as_ref()
            .ok_or("no snapshot path configured")?;
        let snapshot = milr_store::load_snapshot(path).map_err(|e| {
            self.metrics.snapshot_reload_failures_total.inc();
            e.to_string()
        })?;
        if let Some(expected) = &self.options.backend {
            if &snapshot.backend.id != expected {
                self.metrics.snapshot_reload_failures_total.inc();
                return Err(format!(
                    "snapshot was preprocessed with feature backend {:?} but the daemon requires {expected:?}",
                    snapshot.backend.id
                ));
            }
        }
        let mut current = self.epoch.lock().expect("epoch mutex");
        // A reload must never change the feature space underneath live
        // concepts and sessions: same-backend snapshots only.
        if snapshot.backend.id != current.backend.id {
            let msg = format!(
                "reload refused: snapshot backend {:?} differs from the serving backend {:?}",
                snapshot.backend.id, current.backend.id
            );
            drop(current);
            self.metrics.snapshot_reload_failures_total.inc();
            return Err(msg);
        }
        let generation = snapshot.generation.max(current.generation + 1);
        let fresh = Arc::new(Epoch::new(
            snapshot.database,
            generation,
            snapshot.shards,
            snapshot.backend,
        ));
        *current = Arc::clone(&fresh);
        drop(current);
        self.metrics.snapshot_reloads_total.inc();
        self.metrics.snapshot_generation.set(generation as f64);
        self.metrics.snapshot_shards.set(fresh.shards as f64);
        Ok(fresh)
    }
}

/// A running daemon: handle for address discovery and shutdown.
pub struct Server {
    node: Node,
    /// Dropped to stop the background thread.
    stop: Sender<()>,
    background: JoinHandle<()>,
}

impl Server {
    /// Serves a loaded [`milr_store::Snapshot`]: binds, spawns the
    /// server loop and the background thread, and returns immediately.
    /// The snapshot's generation, shard count and feature-backend tag
    /// seed the serving epoch (`/healthz`, the concept-cache keys, the
    /// upload featuriser). When `options.backend` names a required
    /// backend, a snapshot preprocessed with any other one is refused.
    ///
    /// # Errors
    /// A description of a bind failure, invalid configuration, or
    /// backend mismatch.
    pub fn start(snapshot: milr_store::Snapshot, options: ServeOptions) -> Result<Server, String> {
        if let Some(expected) = &options.backend {
            if &snapshot.backend.id != expected {
                return Err(format!(
                    "snapshot was preprocessed with feature backend {:?} but the daemon requires {expected:?}",
                    snapshot.backend.id
                ));
            }
        }
        options.retrieval.validate()?;
        let metrics = Arc::new(Metrics::default());
        metrics.snapshot_generation.set(snapshot.generation as f64);
        metrics.snapshot_shards.set(snapshot.shards as f64);
        let epoch = Epoch::new(
            snapshot.database,
            snapshot.generation,
            snapshot.shards,
            snapshot.backend,
        );
        let daemon = Arc::new(Daemon {
            epoch: Mutex::new(Arc::new(epoch)),
            config: Arc::new(options.retrieval.clone()),
            cache: Mutex::new(ConceptCache::new(options.cache_capacity)),
            sessions: SessionStore::new(options.session_ttl, options.session_capacity),
            metrics: Arc::clone(&metrics),
            started: Instant::now(),
            options,
        });
        let (stop, stopped) = mpsc::channel();
        let background = {
            let daemon = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name("milrd-background".into())
                .spawn(move || background_loop(&daemon, &stopped))
                .map_err(|e| format!("cannot spawn the background thread: {e}"))?
        };
        let router = {
            let daemon = Arc::clone(&daemon);
            Box::new(move |req: &Request| route(&daemon, req))
        };
        let node = match Node::start(daemon.options.node.clone(), metrics, router) {
            Ok(node) => node,
            Err(err) => {
                drop(stop);
                let _ = background.join();
                return Err(err);
            }
        };
        Ok(Server {
            node,
            stop,
            background,
        })
    }

    /// Loads `options.snapshot_path` (with [`milr_store::load_snapshot`],
    /// or its backend-checking twin when `options.backend` is set) and
    /// starts serving it. Returns the server and the `milrd listening on
    /// ADDR (...)` line the binaries print — test harnesses parse it.
    ///
    /// # Errors
    /// A missing path, a snapshot that does not load, or any
    /// [`Self::start`] failure.
    pub fn open(options: ServeOptions) -> Result<(Server, String), String> {
        let path = options
            .snapshot_path
            .clone()
            .ok_or("--snapshot is required")?;
        let loaded = match options.backend.as_deref() {
            Some(expected) => milr_store::load_snapshot_expecting(&path, expected),
            None => milr_store::load_snapshot(&path),
        }
        .map_err(|e| e.to_string())?;
        let db = &loaded.database;
        let summary = format!(
            "{} images, {} categories, dim {}, generation {}, {} shard{}, backend {}",
            db.len(),
            db.category_count(),
            db.feature_dim(),
            loaded.generation,
            loaded.shards,
            if loaded.shards == 1 { "" } else { "s" },
            loaded.backend.id,
        );
        let server = Self::start(loaded, options)?;
        let banner = format!("milrd listening on {} ({summary})", server.local_addr());
        Ok((server, banner))
    }

    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.node.addr()
    }

    /// Begins a graceful drain: stop accepting, finish queued requests.
    /// Idempotent; also triggered by `POST /admin/shutdown`.
    pub fn shutdown(&self) {
        self.node.request_shutdown();
    }

    /// Blocks until the server loop has drained (i.e. until someone
    /// calls [`Self::shutdown`] or posts `/admin/shutdown`, and the
    /// queue has drained), then stops the background thread.
    pub fn wait(self) {
        self.node.wait();
        drop(self.stop);
        let _ = self.background.join();
    }
}

/// The daemon's background thread: sweeps expired sessions every
/// [`SWEEP_TICK`] — so an idle daemon still reclaims them — and, under
/// `watch_snapshot`, polls the snapshot path's modification time and
/// hot-reloads when it changes. A v3 directory is watched through its
/// manifest — shard files are written first, the manifest last, so a
/// manifest mtime bump means a complete snapshot. Runs until `stop`'s
/// sender is dropped.
fn background_loop(daemon: &Daemon, stop: &Receiver<()>) {
    let options = &daemon.options;
    let watched = options
        .snapshot_path
        .as_ref()
        .filter(|_| options.watch_snapshot)
        .map(|path| {
            if path.is_dir() {
                path.join(milr_store::MANIFEST_FILE)
            } else {
                path.clone()
            }
        });
    let tick = match watched {
        Some(_) => SWEEP_TICK.min(options.watch_interval),
        None => SWEEP_TICK,
    };
    let mtime = |p: &std::path::Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let mut last = watched.as_deref().and_then(mtime);
    let mut polled = Instant::now();
    while stop.recv_timeout(tick) == Err(RecvTimeoutError::Timeout) {
        daemon.sessions.sweep();
        let Some(path) = &watched else { continue };
        if polled.elapsed() < options.watch_interval {
            continue;
        }
        polled = Instant::now();
        let current = mtime(path);
        // A failed reload (say, a manifest not yet flushed) leaves
        // `last` put, so the next poll retries.
        if current.is_some() && current != last && daemon.reload_snapshot().is_ok() {
            last = current;
            milr_obs::counter!("milrd_snapshot_watch_reloads_total").inc();
        }
    }
}

/// Dispatches one parsed request. Returns the endpoint label — it keys
/// the metrics registry, so dynamic path segments collapse into
/// placeholders — and the reply.
///
/// `GET /metrics?format=prometheus` is the one non-JSON route and
/// `POST /admin/shutdown` the one that drains the node; everything else
/// delegates to [`route_json`].
fn route(daemon: &Daemon, req: &Request) -> (&'static str, Action) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") if req.query_param("format") == Some("prometheus") => (
            "/metrics",
            Action::Reply(Reply::prometheus(metrics_prometheus(daemon))),
        ),
        ("POST", "/admin/shutdown") => (
            "/admin/shutdown",
            Action::Shutdown(Reply::json(
                200,
                Json::Obj(vec![("draining".into(), Json::Bool(true))]),
            )),
        ),
        _ => {
            let (endpoint, status, json) = route_json(daemon, req);
            (endpoint, Action::Reply(Reply::json(status, json)))
        }
    }
}

fn route_json(daemon: &Daemon, req: &Request) -> (&'static str, u16, Json) {
    let method = req.method.as_str();
    let path = req.path.as_str();
    match (method, path) {
        ("GET", "/healthz") => ("/healthz", 200, healthz(daemon)),
        ("GET", "/metrics") => ("/metrics", 200, metrics_json(daemon)),
        ("GET", "/trace") => ("/trace", 200, trace_json(req)),
        ("GET", "/rank") => {
            let (status, body) = handle_rank(daemon, req);
            ("/rank", status, body)
        }
        ("POST", "/rank") => {
            let (status, body) = handle_rank_region(daemon, req);
            ("/rank (region)", status, body)
        }
        ("POST", "/sessions") => {
            let (status, body) = handle_create_session(daemon, req);
            ("/sessions", status, body)
        }
        ("POST", "/snapshot/reload") => {
            let (status, body) = handle_reload(daemon);
            ("/snapshot/reload", status, body)
        }
        ("GET", "/debug/sleep") if daemon.options.debug_endpoints => {
            let ms = req
                .query_param("ms")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(100)
                .min(10_000);
            std::thread::sleep(Duration::from_millis(ms));
            (
                "/debug/sleep",
                200,
                Json::Obj(vec![("slept_ms".into(), Json::num(ms as f64))]),
            )
        }
        _ => {
            if let Some(rest) = path.strip_prefix("/sessions/") {
                return route_session(daemon, req, rest);
            }
            let known = matches!(
                path,
                "/healthz"
                    | "/metrics"
                    | "/trace"
                    | "/rank"
                    | "/sessions"
                    | "/snapshot/reload"
                    | "/admin/shutdown"
            );
            if known {
                (
                    "(method-mismatch)",
                    405,
                    http::error_body(format!("{method} not supported on {path}")),
                )
            } else {
                (
                    "(unmatched)",
                    404,
                    http::error_body(format!("no route for {path}")),
                )
            }
        }
    }
}

fn route_session(daemon: &Daemon, req: &Request, rest: &str) -> (&'static str, u16, Json) {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return (
            "(unmatched)",
            404,
            http::error_body(format!("invalid session id {id_text:?}")),
        );
    };
    match (req.method.as_str(), tail) {
        ("GET", None) => {
            let (status, body) = session_info(daemon, id);
            ("/sessions/{id}", status, body)
        }
        ("DELETE", None) => {
            if daemon.sessions.remove(id) {
                (
                    "/sessions/{id}",
                    200,
                    Json::Obj(vec![("deleted".into(), Json::Bool(true))]),
                )
            } else {
                ("/sessions/{id}", 404, http::error_body("no such session"))
            }
        }
        ("POST", Some("feedback")) => {
            let (status, body) = handle_feedback(daemon, req, id);
            ("/sessions/{id}/feedback", status, body)
        }
        (_, None) => (
            "(method-mismatch)",
            405,
            http::error_body("use GET or DELETE on a session"),
        ),
        (_, Some("feedback")) => (
            "(method-mismatch)",
            405,
            http::error_body("use POST on /sessions/{id}/feedback"),
        ),
        _ => ("(unmatched)", 404, http::error_body("no such route")),
    }
}

fn healthz(daemon: &Daemon) -> Json {
    let epoch = daemon.epoch();
    Json::Obj(vec![
        ("status".into(), Json::str("ok")),
        ("images".into(), Json::num(epoch.db.len() as f64)),
        (
            "categories".into(),
            Json::num(epoch.db.category_count() as f64),
        ),
        (
            "feature_dim".into(),
            Json::num(epoch.db.feature_dim() as f64),
        ),
        ("generation".into(), Json::num(epoch.generation as f64)),
        ("shards".into(), Json::num(epoch.shards as f64)),
        ("backend".into(), Json::str(epoch.backend.id.clone())),
        (
            "uptime_s".into(),
            Json::num(daemon.started.elapsed().as_secs_f64()),
        ),
    ])
}

/// Parses an optional aggregator label: absent means the paper's
/// min-distance fold, anything unrecognised is the caller's mistake.
fn parse_aggregator(label: Option<&str>) -> Result<BagAggregator, String> {
    match label {
        None => Ok(BagAggregator::MinDistance),
        Some(label) => {
            BagAggregator::parse(label).ok_or_else(|| format!("unknown aggregator {label:?}"))
        }
    }
}

/// Extracts the optional `"aggregator"` string field of a JSON body.
fn body_aggregator(body: &Json) -> Result<BagAggregator, String> {
    match body.get("aggregator") {
        None => Ok(BagAggregator::MinDistance),
        Some(value) => parse_aggregator(Some(value.as_str().ok_or("aggregator must be a string")?)),
    }
}

/// `POST /snapshot/reload` — loads the configured snapshot path and
/// swaps the serving epoch. `409` when the daemon was started without a
/// snapshot path; `500` (old epoch untouched) when the load fails.
fn handle_reload(daemon: &Daemon) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.snapshot_reload");
    if daemon.options.snapshot_path.is_none() {
        return (
            409,
            http::error_body("daemon was started without a snapshot path; reload is disabled"),
        );
    }
    match daemon.reload_snapshot() {
        Ok(epoch) => (
            200,
            Json::Obj(vec![
                ("generation".into(), Json::num(epoch.generation as f64)),
                ("shards".into(), Json::num(epoch.shards as f64)),
                ("images".into(), Json::num(epoch.db.len() as f64)),
            ]),
        ),
        Err(msg) => (500, http::error_body(format!("reload failed: {msg}"))),
    }
}

fn metrics_json(daemon: &Daemon) -> Json {
    let cache = daemon.cache.lock().expect("concept cache mutex");
    let cache_json = Json::Obj(vec![
        ("hits".into(), Json::num(cache.hits() as f64)),
        ("misses".into(), Json::num(cache.misses() as f64)),
        ("entries".into(), Json::num(cache.len() as f64)),
        ("capacity".into(), Json::num(cache.capacity() as f64)),
    ]);
    drop(cache);
    let sessions = daemon.sessions.stats();
    let sessions_json = Json::Obj(vec![
        ("active".into(), Json::num(sessions.active as f64)),
        (
            "created_total".into(),
            Json::num(sessions.created_total as f64),
        ),
        (
            "expired_total".into(),
            Json::num(sessions.expired_total as f64),
        ),
        (
            "evicted_total".into(),
            Json::num(sessions.evicted_total as f64),
        ),
    ]);
    let mut fields = vec![
        (
            "uptime_s".into(),
            Json::num(daemon.started.elapsed().as_secs_f64()),
        ),
        (
            "requests_total".into(),
            Json::num(daemon.metrics.total_requests() as f64),
        ),
    ];
    fields.extend(daemon.metrics.connections_json());
    fields.extend([
        (
            "keepalive_reused_total".into(),
            Json::num(daemon.metrics.keepalive_reused_total.get() as f64),
        ),
        (
            "priority_shed_total".into(),
            Json::num(daemon.metrics.priority_shed_total.get() as f64),
        ),
        (
            "queue_depth".into(),
            Json::num(daemon.metrics.queue_depth.get()),
        ),
        (
            "queue_peak".into(),
            Json::num(daemon.metrics.queue_peak.get()),
        ),
        ("concept_cache".into(), cache_json),
        ("sessions".into(), sessions_json),
        ("rank".into(), crate::metrics::rank_counters_json()),
        ("train".into(), crate::metrics::train_counters_json()),
        ("endpoints".into(), daemon.metrics.endpoints_json()),
    ]);
    Json::Obj(fields)
}

/// Prometheus text exposition: the daemon's own registry (connection
/// outcomes, per-endpoint series, queue gauges, cache/session state
/// mirrored into gauges just before rendering) followed by the
/// process-wide engine registry (solver, ranking, preprocessing).
fn metrics_prometheus(daemon: &Daemon) -> String {
    let registry = daemon.metrics.registry();
    registry
        .gauge("milrd_uptime_seconds")
        .set(daemon.started.elapsed().as_secs_f64());
    {
        let cache = daemon.cache.lock().expect("concept cache mutex");
        registry
            .gauge("milrd_concept_cache_hits")
            .set(cache.hits() as f64);
        registry
            .gauge("milrd_concept_cache_misses")
            .set(cache.misses() as f64);
        registry
            .gauge("milrd_concept_cache_entries")
            .set(cache.len() as f64);
        registry
            .gauge("milrd_concept_cache_capacity")
            .set(cache.capacity() as f64);
    }
    let sessions = daemon.sessions.stats();
    registry
        .gauge("milrd_sessions_active")
        .set(sessions.active as f64);
    registry
        .gauge("milrd_sessions_created")
        .set(sessions.created_total as f64);
    registry
        .gauge("milrd_sessions_expired")
        .set(sessions.expired_total as f64);
    registry
        .gauge("milrd_sessions_evicted")
        .set(sessions.evicted_total as f64);
    daemon.metrics.render_prometheus()
}

/// `GET /trace` — the most recent spans (all threads, oldest first) as a
/// JSON array; `?n=` caps the count (default 256).
fn trace_json(req: &Request) -> Json {
    let n = req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(256);
    let spans = milr_obs::recent_spans(n);
    Json::Obj(vec![(
        "spans".into(),
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name)),
                        ("thread".into(), Json::num(s.thread as f64)),
                        ("start_us".into(), Json::num(s.start_us as f64)),
                        ("dur_ns".into(), Json::num(s.dur_ns as f64)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Maps a core failure to an HTTP status: caller mistakes are 4xx,
/// anything else is the daemon's fault. Shared by every role's handlers.
pub fn core_error_status(err: &CoreError) -> u16 {
    match err {
        CoreError::IndexOutOfBounds { .. }
        | CoreError::NoExamples
        | CoreError::NotTrained
        | CoreError::UnknownCategory { .. }
        | CoreError::NoTargetCategory => 400,
        CoreError::Mil(milr_mil::MilError::DimensionMismatch { .. }) => 400,
        _ => 500,
    }
}

fn core_error_response(err: &CoreError) -> (u16, Json) {
    (core_error_status(err), http::error_body(err.to_string()))
}

/// A ranked page as the wire's `[{"index": …, "distance": …}, …]` array.
pub fn ranking_json(ranking: &[(usize, f64)]) -> Json {
    Json::Arr(
        ranking
            .iter()
            .map(|&(index, distance)| {
                Json::Obj(vec![
                    ("index".into(), Json::num(index as f64)),
                    ("distance".into(), Json::Num(distance)),
                ])
            })
            .collect(),
    )
}

/// Parses a comma-separated index list (`"3,1,4"`), the `positives` /
/// `negatives` query grammar of `/rank` and `/cluster/rank`.
///
/// # Errors
/// A description of the first entry that is not an index.
pub fn parse_index_list(text: &str) -> Result<Vec<usize>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid index {part:?}"))
        })
        .collect()
}

/// Resolves the session config for an optional `policy` spec: the shared
/// default when absent, a copy with the policy swapped in when present.
fn config_for_policy(
    daemon: &Daemon,
    spec: Option<&str>,
) -> Result<(Arc<RetrievalConfig>, String), String> {
    match spec {
        None => Ok((Arc::clone(&daemon.config), daemon.config.policy.label())),
        Some(spec) => {
            let policy = parse_policy(spec)?;
            policy.validate()?;
            let label = policy.label();
            let mut config = (*daemon.config).clone();
            config.policy = policy;
            Ok((Arc::new(config), label))
        }
    }
}

/// Whether the accept queue is deep enough that train-heavy work should
/// be shed, read lock-free from the node's queue-depth gauge. The
/// threshold is a fill ratio of `queue_depth`; anything above 1.0 can
/// never trip because the acceptor sheds at full depth.
fn priority_overloaded(daemon: &Daemon) -> bool {
    let queue_depth = daemon.options.node.queue_depth as f64;
    let threshold = (daemon.options.priority_shed_fill * queue_depth).ceil();
    daemon.metrics.queue_depth.get() >= threshold.max(1.0)
}

/// The uniform `503` for a train-heavy request shed under overload.
fn priority_shed_response(daemon: &Daemon) -> (u16, Json) {
    daemon.metrics.priority_shed_total.inc();
    (
        503,
        http::error_body("overloaded; uncached training request shed — retry later"),
    )
}

/// Fetches a concept for an example configuration through the cache:
/// either a hit, or a fresh training run whose result is inserted.
fn concept_via_cache(
    daemon: &Daemon,
    key: ConceptKey,
    train: impl FnOnce() -> Result<CachedConcept, CoreError>,
) -> Result<(CachedConcept, bool), CoreError> {
    let cached = daemon.cache.lock().expect("concept cache mutex").get(&key);
    if let Some(hit) = cached {
        return Ok((hit, true));
    }
    // Train outside the cache lock — concurrent identical misses may
    // train twice, but they converge on the same deterministic concept,
    // and never serialise unrelated requests behind one training run.
    let fresh = train()?;
    daemon
        .cache
        .lock()
        .expect("concept cache mutex")
        .insert(key, fresh.clone());
    Ok((fresh, false))
}

/// `GET /rank` — the stateless one-shot: train (or fetch the cached
/// concept) for the query-string example sets and return the top-k page.
fn handle_rank(daemon: &Daemon, req: &Request) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.rank");
    let positives = match parse_index_list(req.query_param("positives").unwrap_or("")) {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let negatives = match parse_index_list(req.query_param("negatives").unwrap_or("")) {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    if positives.is_empty() {
        return (
            400,
            http::error_body("at least one positive example index is required"),
        );
    }
    let k = match req.query_param("k") {
        None => daemon.options.default_page,
        Some(v) => match v.parse::<usize>() {
            Ok(k) => k,
            Err(_) => return (400, http::error_body(format!("invalid k {v:?}"))),
        },
    };
    let (config, policy_label) = match config_for_policy(daemon, req.query_param("policy")) {
        Ok(pair) => pair,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let aggregator = match parse_aggregator(req.query_param("aggregator")) {
        Ok(aggregator) => aggregator,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let epoch = daemon.epoch();
    // The aggregator is deliberately absent from the cache key: it
    // shapes ranking, not training, so every fold shares one concept.
    let key = ConceptKey::new(&positives, &negatives, &policy_label, epoch.generation);
    // Priority shedding: under overload a cached rank is cheap (one
    // bounded scan), an uncached one buys a whole DD training run — shed
    // the expensive kind first so the cheap kind keeps flowing.
    if priority_overloaded(daemon)
        && !daemon
            .cache
            .lock()
            .expect("concept cache mutex")
            .contains(&key)
    {
        return priority_shed_response(daemon);
    }
    let trained = concept_via_cache(daemon, key, || {
        let mut session = QuerySession::builder(Arc::clone(&epoch.db))
            .config(config)
            .positives(positives.clone())
            .negatives(negatives.clone())
            .pool(Vec::new()) // the page is ranked directly below; no pool needed
            .build()?;
        session.train_round()?;
        Ok(CachedConcept {
            concept: session.shared_concept().expect("just trained"),
            nldd: session.nldd(),
        })
    });
    let (cached, cache_hit) = match trained {
        Ok(pair) => pair,
        Err(err) => return core_error_response(&err),
    };
    // Rank on this handler thread, holding no daemon lock: concurrent
    // cache-hit pages scan in parallel, one per worker.
    let request = RankRequest::all()
        .top(k)
        .threads(daemon.config.threads)
        .aggregator(aggregator);
    let ranking = match epoch.db.rank(&cached.concept, &request) {
        Ok(ranking) => ranking,
        Err(err) => return core_error_response(&err),
    };
    (
        200,
        Json::Obj(vec![
            ("ranking".into(), ranking_json(&ranking)),
            ("cache_hit".into(), Json::Bool(cache_hit)),
            ("nldd".into(), Json::Num(cached.nldd)),
            ("aggregator".into(), Json::str(aggregator.label())),
        ]),
    )
}

/// `POST /rank` — the stateless sub-image query of the Luo & Nascimento
/// relevance-feedback scenario: the client uploads a picture (base64
/// PGM) plus an optional region of interest, the daemon crops to the
/// ROI, featurises it with the snapshot's backend, trains one Diverse
/// Density concept against the optional negatives (database indices,
/// whole-image uploads, or further regions), and returns the top-k page
/// under the requested aggregator.
///
/// Body:
/// ```json
/// {
///   "image_pgm": "<base64 PGM>",
///   "roi": {"x": 8, "y": 8, "width": 48, "height": 48},
///   "negatives": [7, 12],
///   "negative_pgm": ["<base64 PGM>"],
///   "negative_regions": [{"image_pgm": "...", "roi": {...}}],
///   "k": 10,
///   "policy": "original",
///   "aggregator": "logsumexp"
/// }
/// ```
/// Everything but `image_pgm` is optional. For feedback rounds over the
/// wire, create a session with `positive_regions` instead — this
/// endpoint trains fresh every call (region queries have no index
/// identity, so there is nothing to cache).
fn handle_rank_region(daemon: &Daemon, req: &Request) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.rank_region");
    let text = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return (400, http::error_body("body is not UTF-8")),
    };
    let body = match Json::parse(text) {
        Ok(body) => body,
        Err(msg) => return (400, http::error_body(format!("invalid JSON: {msg}"))),
    };
    if body.get("image_pgm").is_none() {
        return (400, http::error_body("image_pgm is required"));
    }
    let k = match body.get("k") {
        None => daemon.options.default_page,
        Some(value) => match value.as_u64() {
            Some(k) => k as usize,
            None => return (400, http::error_body("k must be a non-negative integer")),
        },
    };
    let aggregator = match body_aggregator(&body) {
        Ok(aggregator) => aggregator,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let policy_spec = match body.get("policy") {
        None => None,
        Some(value) => match value.as_str() {
            Some(spec) => Some(spec),
            None => return (400, http::error_body("policy must be a string")),
        },
    };
    let (config, _policy_label) = match config_for_policy(daemon, policy_spec) {
        Ok(pair) => pair,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let negatives = match body_indices(&body, "negatives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    // A region query always trains (no cacheable index identity), so
    // under overload it is shed unconditionally.
    if priority_overloaded(daemon) {
        return priority_shed_response(daemon);
    }
    let epoch = daemon.epoch();
    let backend = match epoch.feature_backend() {
        Ok(backend) => backend,
        Err(msg) => return (500, http::error_body(msg)),
    };
    let query_bag = match region_bag(&body, &*backend, &config) {
        Ok(bag) => bag,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let mut negative_bags = match decode_uploads(&body, "negative_pgm", &*backend, &config) {
        Ok(bags) => bags,
        Err(msg) => return (400, http::error_body(msg)),
    };
    match decode_region_uploads(&body, "negative_regions", &*backend, &config) {
        Ok(bags) => negative_bags.extend(bags),
        Err(msg) => return (400, http::error_body(msg)),
    }
    let mut session = match QuerySession::builder(Arc::clone(&epoch.db))
        .config(config)
        .positives(Vec::new())
        .negatives(negatives)
        .pool(epoch.all_indices.clone())
        .build()
    {
        Ok(session) => session,
        Err(err) => return core_error_response(&err),
    };
    if let Err(err) = session.add_positive_bag(query_bag) {
        return core_error_response(&err);
    }
    for bag in negative_bags {
        if let Err(err) = session.add_negative_bag(bag) {
            return core_error_response(&err);
        }
    }
    if let Err(err) = session.train_round() {
        return core_error_response(&err);
    }
    let ranking = match session.rank(&RankRequest::pool().top(k).aggregator(aggregator)) {
        Ok(ranking) => ranking,
        Err(err) => return core_error_response(&err),
    };
    (
        200,
        Json::Obj(vec![
            ("ranking".into(), ranking_json(&ranking)),
            ("nldd".into(), Json::Num(session.nldd())),
            ("aggregator".into(), Json::str(aggregator.label())),
            ("backend".into(), Json::str(epoch.backend.id.clone())),
        ]),
    )
}

/// Decodes one base64 PGM payload into a gray image.
fn decode_pgm(text: &str) -> Result<milr_imgproc::GrayImage, String> {
    let bytes = base64::decode(text)?;
    pnm::read_pgm(&bytes[..]).map_err(|e| e.to_string())
}

/// Parses a `{"x":..,"y":..,"width":..,"height":..}` region object.
fn parse_roi(value: &Json) -> Result<Rect, String> {
    let field = |name: &str| -> Result<usize, String> {
        value
            .get(name)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| format!("roi.{name} must be a non-negative integer"))
    };
    Ok(Rect::new(
        field("x")?,
        field("y")?,
        field("width")?,
        field("height")?,
    ))
}

/// Decodes the `*_pgm` upload arrays of a session body into feature
/// bags through the serving epoch's feature backend.
fn decode_uploads(
    body: &Json,
    field: &str,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> Result<Vec<Bag>, String> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of base64 strings"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let text = item
                .as_str()
                .ok_or_else(|| format!("{field}[{i}] must be a base64 string"))?;
            let image = decode_pgm(text).map_err(|e| format!("{field}[{i}]: {e}"))?;
            backend
                .gray_bag(&image, config)
                .map_err(|e| format!("{field}[{i}]: {e}"))
        })
        .collect()
}

/// Decodes the `*_regions` arrays of a body — objects of the form
/// `{"image_pgm": "<base64>", "roi": {"x":..,"y":..,"width":..,
/// "height":..}}`, `roi` optional (whole image) — into feature bags:
/// the sub-image query of Luo & Nascimento's relevance-feedback
/// scenario, where the user marks a region of a picture rather than a
/// whole picture.
fn decode_region_uploads(
    body: &Json,
    field: &str,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> Result<Vec<Bag>, String> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of region objects"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            region_bag(item, backend, config).map_err(|e| format!("{field}[{i}]: {e}"))
        })
        .collect()
}

/// Featurises one region object: decode, crop to the ROI when present,
/// run the backend.
fn region_bag(
    item: &Json,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> Result<Bag, String> {
    let text = item
        .get("image_pgm")
        .and_then(Json::as_str)
        .ok_or("image_pgm must be a base64 string")?;
    let image = decode_pgm(text)?;
    let image = match item.get("roi") {
        None => image,
        Some(value) => {
            let roi = parse_roi(value)?;
            image.crop(roi).map_err(|e| e.to_string())?
        }
    };
    backend.gray_bag(&image, config).map_err(|e| e.to_string())
}

/// Extracts an index array field (`"positives": [3, 1]`) from a JSON
/// body.
fn body_indices(body: &Json, field: &str) -> Result<Vec<usize>, String> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of image indices"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| format!("{field}[{i}] must be a non-negative integer"))
        })
        .collect()
}

/// `POST /sessions` — creates a feedback session from explicit marks
/// and/or uploaded PGM images.
fn handle_create_session(daemon: &Daemon, req: &Request) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.session_create");
    let text = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return (400, http::error_body("body is not UTF-8")),
    };
    let body = match Json::parse(text) {
        Ok(body) => body,
        Err(msg) => return (400, http::error_body(format!("invalid JSON: {msg}"))),
    };
    let positives = match body_indices(&body, "positives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let negatives = match body_indices(&body, "negatives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let policy_spec = match body.get("policy") {
        None => None,
        Some(value) => match value.as_str() {
            Some(spec) => Some(spec),
            None => return (400, http::error_body("policy must be a string")),
        },
    };
    let (config, policy_label) = match config_for_policy(daemon, policy_spec) {
        Ok(pair) => pair,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let epoch = daemon.epoch();
    let backend = match epoch.feature_backend() {
        Ok(backend) => backend,
        Err(msg) => return (500, http::error_body(msg)),
    };
    let mut positive_bags = match decode_uploads(&body, "positive_pgm", &*backend, &config) {
        Ok(bags) => bags,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let mut negative_bags = match decode_uploads(&body, "negative_pgm", &*backend, &config) {
        Ok(bags) => bags,
        Err(msg) => return (400, http::error_body(msg)),
    };
    match decode_region_uploads(&body, "positive_regions", &*backend, &config) {
        Ok(bags) => positive_bags.extend(bags),
        Err(msg) => return (400, http::error_body(msg)),
    }
    match decode_region_uploads(&body, "negative_regions", &*backend, &config) {
        Ok(bags) => negative_bags.extend(bags),
        Err(msg) => return (400, http::error_body(msg)),
    }
    if positives.is_empty() && positive_bags.is_empty() {
        return (
            400,
            http::error_body(
                "at least one positive example (index, upload, or region) is required",
            ),
        );
    }
    let mut session = match QuerySession::builder(Arc::clone(&epoch.db))
        .config(config)
        .positives(positives)
        .negatives(negatives)
        .pool(epoch.all_indices.clone())
        // Retrains of a live session seed the DD multi-start from its
        // previous winning solver vector, ascending fresh only from
        // newly marked positive bags. Warm concepts depend on session
        // history, so they never enter the shared concept cache (cold
        // first rounds still do).
        .warm_start(true)
        .build()
    {
        Ok(session) => session,
        Err(err) => return core_error_response(&err),
    };
    for bag in positive_bags {
        if let Err(err) = session.add_positive_bag(bag) {
            return core_error_response(&err);
        }
    }
    for bag in negative_bags {
        if let Err(err) = session.add_negative_bag(bag) {
            return core_error_response(&err);
        }
    }
    let (positive_count, negative_count) = (
        session.positives().len() + session.external_example_counts().0,
        session.negatives().len() + session.external_example_counts().1,
    );
    match daemon
        .sessions
        .create(session, policy_label, epoch.generation)
    {
        Some(id) => (
            201,
            Json::Obj(vec![
                ("id".into(), Json::num(id as f64)),
                ("positives".into(), Json::num(positive_count as f64)),
                ("negatives".into(), Json::num(negative_count as f64)),
            ]),
        ),
        None => (503, http::error_body("session store is full or disabled")),
    }
}

fn session_info(daemon: &Daemon, id: u64) -> (u16, Json) {
    let Some(handle) = daemon.sessions.get(id) else {
        return (404, http::error_body("no such session"));
    };
    let session = handle.lock().expect("session mutex");
    let (ext_pos, ext_neg) = session.query.external_example_counts();
    (
        200,
        Json::Obj(vec![
            ("id".into(), Json::num(id as f64)),
            ("positives".into(), Json::indices(session.query.positives())),
            ("negatives".into(), Json::indices(session.query.negatives())),
            ("external_positives".into(), Json::num(ext_pos as f64)),
            ("external_negatives".into(), Json::num(ext_neg as f64)),
            (
                "rounds_run".into(),
                Json::num(session.query.rounds_run() as f64),
            ),
            ("policy".into(), Json::str(session.policy_label.clone())),
            ("generation".into(), Json::num(session.generation as f64)),
        ]),
    )
}

/// `POST /sessions/{id}/feedback` — applies new marks, retrains (or
/// installs a cached concept), and returns the next ranked page.
fn handle_feedback(daemon: &Daemon, req: &Request, id: u64) -> (u16, Json) {
    let _span = milr_obs::span::enter("serve.feedback");
    let text = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return (400, http::error_body("body is not UTF-8")),
    };
    let body = match Json::parse(if text.trim().is_empty() { "{}" } else { text }) {
        Ok(body) => body,
        Err(msg) => return (400, http::error_body(format!("invalid JSON: {msg}"))),
    };
    let positives = match body_indices(&body, "positives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let negatives = match body_indices(&body, "negatives") {
        Ok(list) => list,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let k = match body.get("k") {
        None => daemon.options.default_page,
        Some(value) => match value.as_u64() {
            Some(k) => k as usize,
            None => return (400, http::error_body("k must be a non-negative integer")),
        },
    };
    let aggregator = match body_aggregator(&body) {
        Ok(aggregator) => aggregator,
        Err(msg) => return (400, http::error_body(msg)),
    };
    let epoch = daemon.epoch();
    let backend = match epoch.feature_backend() {
        Ok(backend) => backend,
        Err(msg) => return (500, http::error_body(msg)),
    };
    // Featurise region marks before touching the session: a 400 here
    // must leave the session exactly as it was.
    let positive_region_bags =
        match decode_region_uploads(&body, "positive_regions", &*backend, &daemon.config) {
            Ok(bags) => bags,
            Err(msg) => return (400, http::error_body(msg)),
        };
    let negative_region_bags =
        match decode_region_uploads(&body, "negative_regions", &*backend, &daemon.config) {
            Ok(bags) => bags,
            Err(msg) => return (400, http::error_body(msg)),
        };
    let uploads_regions = !positive_region_bags.is_empty() || !negative_region_bags.is_empty();
    let Some(handle) = daemon.sessions.get(id) else {
        return (404, http::error_body("no such session"));
    };
    let mut session = handle.lock().expect("session mutex");
    // Priority shedding, checked *before* the marks mutate the session
    // so a shed request can be retried verbatim. Feedback is cheap only
    // when the prospective example set already has a cached concept —
    // region marks have no index identity, so they always retrain.
    if priority_overloaded(daemon) {
        let would_hit = !uploads_regions && session.query.external_example_counts() == (0, 0) && {
            let mut pos = session.query.positives().to_vec();
            pos.extend_from_slice(&positives);
            let mut neg = session.query.negatives().to_vec();
            neg.extend_from_slice(&negatives);
            let key = ConceptKey::new(&pos, &neg, &session.policy_label, session.generation);
            daemon
                .cache
                .lock()
                .expect("concept cache mutex")
                .contains(&key)
        };
        if !would_hit {
            return priority_shed_response(daemon);
        }
    }
    if let Err(err) = session.query.add_positives(&positives) {
        return core_error_response(&err);
    }
    if let Err(err) = session.query.add_negatives(&negatives) {
        return core_error_response(&err);
    }
    for bag in positive_region_bags {
        if let Err(err) = session.query.add_positive_bag(bag) {
            return core_error_response(&err);
        }
    }
    for bag in negative_region_bags {
        if let Err(err) = session.query.add_negative_bag(bag) {
            return core_error_response(&err);
        }
    }
    // Sessions whose examples are all database indices share concepts
    // through the cache; uploads have no index identity, so sessions
    // holding external bags always train for themselves.
    let cacheable = session.query.external_example_counts() == (0, 0);
    let mut cache_hit = false;
    let mut warm = false;
    if cacheable {
        let key = ConceptKey::new(
            session.query.positives(),
            session.query.negatives(),
            &session.policy_label,
            session.generation,
        );
        let cached = daemon.cache.lock().expect("concept cache mutex").get(&key);
        match cached {
            Some(hit) => {
                if let Err(err) = session.query.adopt_concept(hit.concept, hit.nldd) {
                    return core_error_response(&err);
                }
                cache_hit = true;
            }
            None => {
                warm = session.query.warm_ready();
                if let Err(err) = session.query.train_round() {
                    return core_error_response(&err);
                }
                // A warm concept depends on this session's training
                // history, not just the example sets — caching it would
                // let one session's trajectory leak into every other
                // request with the same marks. Only cold (history-free)
                // rounds feed the shared cache.
                if !warm {
                    daemon.cache.lock().expect("concept cache mutex").insert(
                        key,
                        CachedConcept {
                            concept: session.query.shared_concept().expect("just trained"),
                            nldd: session.query.nldd(),
                        },
                    );
                }
            }
        }
    } else {
        warm = session.query.warm_ready();
        if let Err(err) = session.query.train_round() {
            return core_error_response(&err);
        }
    }
    let ranking = match session
        .query
        .rank(&RankRequest::pool().top(k).aggregator(aggregator))
    {
        Ok(ranking) => ranking,
        Err(err) => return core_error_response(&err),
    };
    (
        200,
        Json::Obj(vec![
            ("id".into(), Json::num(id as f64)),
            ("round".into(), Json::num(session.query.rounds_run() as f64)),
            ("nldd".into(), Json::Num(session.query.nldd())),
            ("cache_hit".into(), Json::Bool(cache_hit)),
            ("warm".into(), Json::Bool(warm)),
            ("aggregator".into(), Json::str(aggregator.label())),
            ("ranking".into(), ranking_json(&ranking)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_specs_parse_like_the_cli() {
        assert!(matches!(
            parse_policy("original"),
            Ok(WeightPolicy::OriginalDd)
        ));
        assert!(matches!(
            parse_policy("identical"),
            Ok(WeightPolicy::Identical)
        ));
        assert!(
            matches!(parse_policy("alpha:0.3"), Ok(WeightPolicy::AlphaHack { alpha }) if alpha == 0.3)
        );
        assert!(
            matches!(parse_policy("constraint:0.5"), Ok(WeightPolicy::SumConstraint { beta }) if beta == 0.5)
        );
        assert!(parse_policy("nonsense").is_err());
        assert!(parse_policy("alpha:x").is_err());
    }

    #[test]
    fn default_options_are_sane() {
        let options = ServeOptions::default();
        assert!(options.node.workers >= 1);
        assert!(options.node.queue_depth >= options.node.workers);
        assert!(options.node.max_body >= 1024 * 1024);
        assert!(!options.debug_endpoints);
    }

    #[test]
    fn flags_fill_node_and_daemon_options() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let options = ServeOptions::from_flags(&args(&[
            "--snapshot",
            "db.milr",
            "--workers",
            "3",
            "--keepalive-turn-ms",
            "7",
            "--session-ttl-s",
            "9",
            "--watch-snapshot",
        ]))
        .unwrap();
        assert_eq!(options.node.workers, 3);
        assert_eq!(options.node.keepalive_turn, Duration::from_millis(7));
        assert_eq!(
            options.node.addr, "127.0.0.1:7878",
            "unset flags keep defaults"
        );
        assert_eq!(options.session_ttl, Duration::from_secs(9));
        assert_eq!(options.snapshot_path, Some(PathBuf::from("db.milr")));
        assert!(options.watch_snapshot);
        for bad in [
            ["--workers", "0"],
            ["--read-timeout-ms", "-1"],
            ["--page", "x"],
        ] {
            let err = ServeOptions::from_flags(&args(&bad)).unwrap_err();
            assert!(err.contains(bad[0]), "{err}");
        }
    }
}
