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
//! snapshot **epoch** (the sharded store + generation, swapped atomically by
//! `POST /snapshot/reload` or the snapshot watcher — in-flight requests
//! and live sessions keep serving the epoch they pinned via `Arc`), the
//! rank [`Front`] (shared config and the concept cache, keyed by
//! generation) the coordinator's `/cluster/rank` also answers through,
//! the session store and the metrics registry.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use milr_baseline::feature_backend;
use milr_core::{BackendTag, Corpus, FeatureBackend, QuerySession, RankScope, RetrievalConfig};
use milr_imgproc::{pnm, Rect};
use milr_mil::{Bag, BagAggregator};
use milr_store::ShardedDatabase;

use crate::base64;
use crate::cache::{CachedConcept, ConceptKey};
use crate::epoch::{reload_reply, Epochs, Snapshot};
use crate::front::{parse_aggregator, ranking_json, Front, FrontOptions};
use crate::http::Request;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::node::{flag, parse_flag, parse_ms, Body, Node, NodeOptions, Reply};
use crate::sessions::{SessionHandle, SessionStore};

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
    /// The rank front: training/ranking configuration, concept-cache
    /// capacity and default page size.
    pub front: FrontOptions,
    /// Idle time after which a session expires.
    pub session_ttl: Duration,
    /// Most sessions kept live at once (0 disables sessions).
    pub session_capacity: usize,
    /// Enables `GET /debug/sleep` — a worker-stalling endpoint the shed
    /// tests need; never enable in real service.
    pub debug_endpoints: bool,
    /// Snapshot directory the daemon serves (see `milr preprocess`).
    /// Required for `POST /snapshot/reload` and the snapshot watcher;
    /// [`None`] disables both.
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
            front: FrontOptions::default(),
            session_ttl: Duration::from_secs(15 * 60),
            session_capacity: 256,
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
    /// [`NodeOptions::apply_flags`], the rank-front flags of
    /// [`FrontOptions::apply_flags`], plus `--snapshot`,
    /// `--priority-shed-fill`, `--session-ttl-s`, `--session-capacity`,
    /// `--backend`, `--debug-endpoints`, `--watch-snapshot` and
    /// `--watch-interval-ms`.
    ///
    /// # Errors
    /// A message naming the flag whose value does not parse.
    pub fn from_flags(args: &[String]) -> Result<Self, String> {
        let mut options = Self::default();
        options.node.apply_flags(args)?;
        options.front.apply_flags(args)?;
        options.snapshot_path = flag(args, "--snapshot").map(PathBuf::from);
        if let Some(fill) = parse_flag(args, "--priority-shed-fill")? {
            options.priority_shed_fill = fill;
        }
        if let Some(secs) = parse_flag(args, "--session-ttl-s")? {
            options.session_ttl = Duration::from_secs(secs);
        }
        if let Some(capacity) = parse_flag(args, "--session-capacity")? {
            options.session_capacity = capacity;
        }
        options.backend = flag(args, "--backend");
        options.debug_endpoints = args.iter().any(|a| a == "--debug-endpoints");
        options.watch_snapshot = args.iter().any(|a| a == "--watch-snapshot");
        if let Some(interval) = parse_ms(args, "--watch-interval-ms")? {
            options.watch_interval = interval;
        }
        Ok(options)
    }
}

/// One immutable snapshot generation. Requests clone the `Arc` once up
/// front and serve entirely from that epoch; a concurrent reload swaps
/// the daemon's pointer without disturbing them, and live sessions pin
/// their epoch's store for as long as they exist.
///
/// The store ranks in place; clients address its live view (index `i` =
/// the `i`-th live bag, see the store's [`Corpus`] impl), so tombstones
/// never show on the wire.
struct Epoch {
    db: Arc<ShardedDatabase>,
    /// Every live index — the candidates of `/rank` pages and the
    /// ranking pool of new sessions.
    all_indices: Vec<usize>,
    /// Monotonic across reloads (concept-cache key component).
    generation: u64,
}

impl Epoch {
    fn new(db: ShardedDatabase, generation: u64) -> Self {
        Self {
            all_indices: (0..db.bag_count()).collect(),
            db: Arc::new(db),
            generation,
        }
    }

    /// Feature backend the snapshot was preprocessed with; region and
    /// image uploads are featurised through the same backend so every
    /// query bag lives in the snapshot's feature space.
    fn backend(&self) -> &BackendTag {
        self.db.backend()
    }

    /// The upload featuriser for this epoch's backend. This only fails
    /// for a manifest naming a backend this build does not know.
    fn feature_backend(&self) -> Result<Arc<dyn FeatureBackend>, Reply> {
        feature_backend(&self.backend().id).ok_or_else(|| {
            let id = &self.backend().id;
            Reply::error(
                500,
                format!("snapshot names unknown feature backend {id:?}"),
            )
        })
    }
}

impl Snapshot for Epoch {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn shards(&self) -> usize {
        self.db.shard_count()
    }
}

/// Refuses a store preprocessed with another backend than the
/// `required` one, if any.
fn check_backend(store: &ShardedDatabase, required: Option<&str>) -> Result<(), String> {
    match required {
        Some(expected) if store.backend().id != expected => Err(format!(
            "snapshot was preprocessed with feature backend {:?} but the daemon requires {expected:?}",
            store.backend().id
        )),
        _ => Ok(()),
    }
}

/// Shared state behind the router and the background thread.
struct Daemon {
    epochs: Epochs<Epoch>,
    front: Front,
    options: ServeOptions,
    metrics: Arc<Metrics>,
    sessions: SessionStore,
    started: Instant,
}

impl Daemon {
    /// The epoch currently serving; the caller works against it for its
    /// whole request, immune to concurrent swaps.
    fn epoch(&self) -> Arc<Epoch> {
        self.epochs.current()
    }

    /// Loads `snapshot_path` and swaps it in as the next epoch. The
    /// generation is forced monotonic (`max(manifest, current + 1)`), so
    /// even re-reading an unchanged snapshot, or one rebuilt from
    /// scratch whose manifest restarts at generation 1, invalidates the
    /// concept cache. On error the old epoch keeps serving untouched.
    fn reload_snapshot(&self) -> Result<Arc<Epoch>, String> {
        let path = self
            .options
            .snapshot_path
            .as_ref()
            .ok_or("no snapshot path configured")?;
        let loaded = ShardedDatabase::open(path)
            .map_err(|e| e.to_string())
            .and_then(|store| {
                check_backend(&store, self.options.backend.as_deref()).map(|()| store)
            });
        self.epochs.reload(loaded, |store, current| {
            // A reload must never change the feature space underneath
            // live concepts and sessions: same-backend snapshots only.
            if store.backend().id != current.backend().id {
                return Err(format!(
                    "reload refused: snapshot backend {:?} differs from the serving backend {:?}",
                    store.backend().id,
                    current.backend().id
                ));
            }
            let generation = store.generation().max(current.generation + 1);
            Ok(Epoch::new(store, generation))
        })
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
    /// Serves an opened [`ShardedDatabase`] in place: binds, spawns the
    /// server loop and the background thread, and returns immediately.
    /// The store's generation, shard count and feature-backend tag seed
    /// the serving epoch (`/healthz`, the concept-cache keys, the upload
    /// featuriser). When `options.backend` names a required backend, a
    /// snapshot preprocessed with any other one is refused.
    ///
    /// # Errors
    /// A description of a bind failure, invalid configuration, or
    /// backend mismatch.
    pub fn start(store: ShardedDatabase, options: ServeOptions) -> Result<Server, String> {
        check_backend(&store, options.backend.as_deref())?;
        let front = Front::new(&options.front).map_err(|e| e.to_string())?;
        let metrics = Arc::new(Metrics::default());
        let generation = store.generation();
        let daemon = Arc::new(Daemon {
            epochs: Epochs::new(Epoch::new(store, generation), Arc::clone(&metrics)),
            front,
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
        let node = match Node::start(daemon.options.node.clone(), metrics, PATHS, router) {
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

    /// Opens `options.snapshot_path` with [`ShardedDatabase::open`] and
    /// starts serving it. Returns the server and the `milrd listening
    /// on ADDR (...)` line the binaries print — test harnesses parse it.
    ///
    /// # Errors
    /// A missing path, a snapshot that does not open, or any
    /// [`Self::start`] failure.
    pub fn open(options: ServeOptions) -> Result<(Server, String), String> {
        let path = options
            .snapshot_path
            .clone()
            .ok_or("--snapshot is required")?;
        let store = ShardedDatabase::open(&path).map_err(|e| e.to_string())?;
        let shards = store.shard_count();
        let summary = format!(
            "{} images, {} categories, dim {}, generation {}, {} shard{}, backend {}",
            store.live_len(),
            store.category_count(),
            store.feature_dim(),
            store.generation(),
            shards,
            if shards == 1 { "" } else { "s" },
            store.backend().id,
        );
        let server = Self::start(store, options)?;
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
/// `watch_snapshot`, polls `DIR/manifest.milr`'s modification time and
/// hot-reloads when it changes — shard files are written first, the
/// manifest last, so a manifest mtime bump means a complete snapshot.
/// Runs until `stop`'s sender is dropped.
fn background_loop(daemon: &Daemon, stop: &Receiver<()>) {
    let options = &daemon.options;
    let watched = options
        .snapshot_path
        .as_ref()
        .filter(|_| options.watch_snapshot)
        .map(|dir| dir.join(milr_store::MANIFEST_FILE));
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

/// The daemon's fixed paths (the session routes answer their own
/// method mismatches).
const PATHS: &[&str] = &[
    "/healthz",
    "/metrics",
    "/trace",
    "/rank",
    "/sessions",
    "/snapshot/reload",
];

/// A handler's outcome: the reply, or the error reply that cut it short
/// (what `?` returns on a [`CoreError`] or a [`Reply::bad_request`]).
type Handled = Result<Reply, Reply>;

/// Dispatches one parsed request to its handler; [`None`] leaves it to
/// the node's fallback.
fn route(daemon: &Daemon, req: &Request) -> Option<(&'static str, Reply)> {
    let (endpoint, handled) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("/healthz", Ok(Reply::json(200, healthz(daemon)))),
        ("GET", "/metrics") => ("/metrics", Ok(Reply::prometheus(metrics(daemon)))),
        ("GET", "/trace") => ("/trace", Ok(Reply::json(200, trace_json(req)))),
        ("GET", "/rank") => ("/rank", handle_rank(daemon, req)),
        ("POST", "/rank") => ("/rank (region)", handle_rank_region(daemon, req)),
        ("POST", "/sessions") => ("/sessions", handle_create_session(daemon, req)),
        ("POST", "/snapshot/reload") => ("/snapshot/reload", handle_reload(daemon)),
        ("GET", "/debug/sleep") if daemon.options.debug_endpoints => {
            let ms = req
                .query_param("ms")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(100)
                .min(10_000);
            std::thread::sleep(Duration::from_millis(ms));
            let body = Json::Obj(vec![("slept_ms".into(), Json::num(ms as f64))]);
            ("/debug/sleep", Ok(Reply::json(200, body)))
        }
        (_, path) => route_session(daemon, req, path.strip_prefix("/sessions/")?),
    };
    Some((endpoint, handled.unwrap_or_else(|reply| reply)))
}

fn route_session(daemon: &Daemon, req: &Request, rest: &str) -> (&'static str, Handled) {
    let (id_text, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        let message = format!("invalid session id {id_text:?}");
        return ("(unmatched)", Err(Reply::error(404, message)));
    };
    match (req.method.as_str(), tail) {
        ("GET", None) => ("/sessions/{id}", session_info(daemon, id)),
        ("DELETE", None) => {
            let deleted = Json::Obj(vec![("deleted".into(), Json::Bool(true))]);
            let handled = if daemon.sessions.remove(id) {
                Ok(Reply::json(200, deleted))
            } else {
                Err(Reply::error(404, "no such session"))
            };
            ("/sessions/{id}", handled)
        }
        ("POST", Some("feedback")) => ("/sessions/{id}/feedback", handle_feedback(daemon, req, id)),
        (_, None) => (
            "(method-mismatch)",
            Err(Reply::error(405, "use GET or DELETE on a session")),
        ),
        (_, Some("feedback")) => (
            "(method-mismatch)",
            Err(Reply::error(405, "use POST on /sessions/{id}/feedback")),
        ),
        _ => ("(unmatched)", Err(Reply::error(404, "no such route"))),
    }
}

fn healthz(daemon: &Daemon) -> Json {
    let epoch = daemon.epoch();
    Json::Obj(vec![
        ("status".into(), Json::str("ok")),
        ("images".into(), Json::num(epoch.db.live_len() as f64)),
        (
            "categories".into(),
            Json::num(epoch.db.category_count() as f64),
        ),
        (
            "feature_dim".into(),
            Json::num(epoch.db.feature_dim() as f64),
        ),
        ("generation".into(), Json::num(epoch.generation as f64)),
        ("shards".into(), Json::num(epoch.db.shard_count() as f64)),
        ("backend".into(), Json::str(epoch.backend().id.clone())),
        (
            "uptime_s".into(),
            Json::num(daemon.started.elapsed().as_secs_f64()),
        ),
    ])
}

/// Parses a request body as JSON; a blank body reads as `{}`.
fn json_body(req: &Request) -> Result<Json, Reply> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Reply::bad_request("body is not UTF-8"))?;
    let text = if text.trim().is_empty() { "{}" } else { text };
    Json::parse(text).map_err(|msg| Reply::bad_request(format!("invalid JSON: {msg}")))
}

/// The optional string field `field` of a JSON body.
fn body_str<'a>(body: &'a Json, field: &str) -> Result<Option<&'a str>, Reply> {
    body.get(field)
        .map(|value| {
            let message = || Reply::bad_request(format!("{field} must be a string"));
            value.as_str().ok_or_else(message)
        })
        .transpose()
}

/// The optional `"aggregator"` field of a JSON body.
fn body_aggregator(body: &Json) -> Result<BagAggregator, Reply> {
    parse_aggregator(body_str(body, "aggregator")?).map_err(Reply::bad_request)
}

/// The optional `"k"` field of a JSON body, or the default page.
fn body_k(daemon: &Daemon, body: &Json) -> Result<usize, Reply> {
    match body.get("k") {
        None => Ok(daemon.front.default_page()),
        Some(value) => value
            .as_u64()
            .map(|k| k as usize)
            .ok_or_else(|| Reply::bad_request("k must be a non-negative integer")),
    }
}

/// The training config for the optional `"policy"` field of a JSON
/// body, and the policy's label.
fn body_config(daemon: &Daemon, body: &Json) -> Result<(Arc<RetrievalConfig>, String), Reply> {
    let spec = body_str(body, "policy")?;
    daemon
        .front
        .config_for_policy(spec)
        .map_err(Reply::bad_request)
}

/// `POST /snapshot/reload` — loads the configured snapshot path and
/// swaps the serving epoch. `409` when the daemon was started without a
/// snapshot path; `500` (old epoch untouched) when the load fails.
fn handle_reload(daemon: &Daemon) -> Handled {
    let _span = milr_obs::span::enter("serve.snapshot_reload");
    if daemon.options.snapshot_path.is_none() {
        let message = "daemon was started without a snapshot path; reload is disabled";
        return Err(Reply::error(409, message));
    }
    let reloaded = daemon.reload_snapshot();
    let mut reply = reload_reply(&reloaded);
    if let (Ok(epoch), Body::Json(Json::Obj(fields))) = (&reloaded, &mut reply.body) {
        fields.push(("images".into(), Json::num(epoch.db.live_len() as f64)));
    }
    Ok(reply)
}

/// `GET /metrics` — the Prometheus text exposition of the daemon's own
/// registry (connection outcomes, per-endpoint series, queue gauges,
/// cache/session state mirrored into gauges just before rendering)
/// followed by the process-wide engine registry (solver, ranking,
/// preprocessing).
fn metrics(daemon: &Daemon) -> String {
    let registry = daemon.metrics.registry();
    registry
        .gauge("milrd_uptime_seconds")
        .set(daemon.started.elapsed().as_secs_f64());
    {
        let cache = daemon.front.cache();
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
fn priority_shed(daemon: &Daemon) -> Reply {
    daemon.metrics.priority_shed_total.inc();
    Reply::error(
        503,
        "overloaded; uncached training request shed — retry later",
    )
}

/// `GET /rank` — the stateless one-shot: train (or fetch the cached
/// concept) for the query-string example sets and return the top-k page.
fn handle_rank(daemon: &Daemon, req: &Request) -> Handled {
    let _span = milr_obs::span::enter("serve.rank");
    let query = daemon.front.parse_rank(req).map_err(Reply::bad_request)?;
    let epoch = daemon.epoch();
    let key = query.key(epoch.generation);
    // Priority shedding: under overload a cached rank is cheap (one
    // bounded scan), an uncached one buys a whole DD training run — shed
    // the expensive kind first so the cheap kind keeps flowing.
    if priority_overloaded(daemon) && !daemon.front.cache().contains(&key) {
        return Err(priority_shed(daemon));
    }
    let (cached, cache_hit) = daemon.front.concept(key, &*epoch.db, &query)?;
    // Rank on this handler thread, holding no daemon lock: concurrent
    // cache-hit pages scan in parallel, one per worker.
    let request = daemon.front.page(RankScope::All, query.k, query.aggregator);
    let ranking = epoch
        .db
        .rank_candidates(&cached.concept, &epoch.all_indices, &request)?;
    Ok(Reply::json(
        200,
        Json::Obj(vec![
            ("ranking".into(), ranking_json(&ranking)),
            ("cache_hit".into(), Json::Bool(cache_hit)),
            ("nldd".into(), Json::Num(cached.nldd)),
            ("aggregator".into(), Json::str(query.aggregator.label())),
        ]),
    ))
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
fn handle_rank_region(daemon: &Daemon, req: &Request) -> Handled {
    let _span = milr_obs::span::enter("serve.rank_region");
    let body = json_body(req)?;
    if body.get("image_pgm").is_none() {
        return Err(Reply::bad_request("image_pgm is required"));
    }
    let k = body_k(daemon, &body)?;
    let aggregator = body_aggregator(&body)?;
    let (config, _policy_label) = body_config(daemon, &body)?;
    let negatives = body_indices(&body, "negatives")?;
    // A region query always trains (no cacheable index identity), so
    // under overload it is shed unconditionally.
    if priority_overloaded(daemon) {
        return Err(priority_shed(daemon));
    }
    let epoch = daemon.epoch();
    let backend = epoch.feature_backend()?;
    let query_bag = region_bag(&body, &*backend, &config).map_err(Reply::bad_request)?;
    let negative_bags = uploaded_bags(&body, "negative", &*backend, &config)?;
    let mut session = QuerySession::builder(Arc::clone(&epoch.db))
        .config(config)
        .positives(Vec::new())
        .negatives(negatives)
        .pool(epoch.all_indices.clone())
        .build()?;
    session.add_positive_bag(query_bag)?;
    for bag in negative_bags {
        session.add_negative_bag(bag)?;
    }
    session.train_round()?;
    let ranking = session.rank(&daemon.front.page(RankScope::Pool, k, aggregator))?;
    Ok(Reply::json(
        200,
        Json::Obj(vec![
            ("ranking".into(), ranking_json(&ranking)),
            ("nldd".into(), Json::Num(session.nldd())),
            ("aggregator".into(), Json::str(aggregator.label())),
            ("backend".into(), Json::str(epoch.backend().id.clone())),
        ]),
    ))
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

/// The example bags a body uploads under `{prefix}_pgm` (whole images)
/// and `{prefix}_regions` (regions of interest).
fn uploaded_bags(
    body: &Json,
    prefix: &str,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> Result<Vec<Bag>, Reply> {
    let mut bags = decode_uploads(body, &format!("{prefix}_pgm"), backend, config)?;
    bags.extend(decode_region_uploads(
        body,
        &format!("{prefix}_regions"),
        backend,
        config,
    )?);
    Ok(bags)
}

/// Decodes the `*_pgm` upload arrays of a session body into feature
/// bags through the serving epoch's feature backend.
fn decode_uploads(
    body: &Json,
    field: &str,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> Result<Vec<Bag>, Reply> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of base64 strings"));
    items
        .and_then(|items| {
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
        })
        .map_err(Reply::bad_request)
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
) -> Result<Vec<Bag>, Reply> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of region objects"));
    items
        .and_then(|items| {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    region_bag(item, backend, config).map_err(|e| format!("{field}[{i}]: {e}"))
                })
                .collect()
        })
        .map_err(Reply::bad_request)
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
fn body_indices(body: &Json, field: &str) -> Result<Vec<usize>, Reply> {
    let Some(value) = body.get(field) else {
        return Ok(Vec::new());
    };
    let items = value
        .as_array()
        .ok_or_else(|| format!("{field} must be an array of image indices"));
    items
        .and_then(|items| {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    item.as_u64()
                        .map(|v| v as usize)
                        .ok_or_else(|| format!("{field}[{i}] must be a non-negative integer"))
                })
                .collect()
        })
        .map_err(Reply::bad_request)
}

/// `POST /sessions` — creates a feedback session from explicit marks
/// and/or uploaded PGM images.
fn handle_create_session(daemon: &Daemon, req: &Request) -> Handled {
    let _span = milr_obs::span::enter("serve.session_create");
    let body = json_body(req)?;
    let positives = body_indices(&body, "positives")?;
    let negatives = body_indices(&body, "negatives")?;
    let (config, policy_label) = body_config(daemon, &body)?;
    let epoch = daemon.epoch();
    let backend = epoch.feature_backend()?;
    let positive_bags = uploaded_bags(&body, "positive", &*backend, &config)?;
    let negative_bags = uploaded_bags(&body, "negative", &*backend, &config)?;
    if positives.is_empty() && positive_bags.is_empty() {
        return Err(Reply::bad_request(
            "at least one positive example (index, upload, or region) is required",
        ));
    }
    let mut session = QuerySession::builder(Arc::clone(&epoch.db))
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
        .build()?;
    for bag in positive_bags {
        session.add_positive_bag(bag)?;
    }
    for bag in negative_bags {
        session.add_negative_bag(bag)?;
    }
    let (positive_count, negative_count) = (
        session.positives().len() + session.external_example_counts().0,
        session.negatives().len() + session.external_example_counts().1,
    );
    let id = daemon
        .sessions
        .create(session, policy_label, epoch.generation)
        .ok_or_else(|| Reply::error(503, "session store is full or disabled"))?;
    Ok(Reply::json(
        201,
        Json::Obj(vec![
            ("id".into(), Json::num(id as f64)),
            ("positives".into(), Json::num(positive_count as f64)),
            ("negatives".into(), Json::num(negative_count as f64)),
        ]),
    ))
}

/// The live session `id`, or the `404` for a missing one.
fn session(daemon: &Daemon, id: u64) -> Result<SessionHandle, Reply> {
    daemon
        .sessions
        .get(id)
        .ok_or_else(|| Reply::error(404, "no such session"))
}

fn session_info(daemon: &Daemon, id: u64) -> Handled {
    let handle = session(daemon, id)?;
    let session = handle.lock().expect("session mutex");
    let (ext_pos, ext_neg) = session.query.external_example_counts();
    Ok(Reply::json(
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
    ))
}

/// `POST /sessions/{id}/feedback` — applies new marks, retrains (or
/// installs a cached concept), and returns the next ranked page.
fn handle_feedback(daemon: &Daemon, req: &Request, id: u64) -> Handled {
    let _span = milr_obs::span::enter("serve.feedback");
    let body = json_body(req)?;
    let positives = body_indices(&body, "positives")?;
    let negatives = body_indices(&body, "negatives")?;
    let k = body_k(daemon, &body)?;
    let aggregator = body_aggregator(&body)?;
    let epoch = daemon.epoch();
    let backend = epoch.feature_backend()?;
    // Featurise region marks before touching the session: a 400 here
    // must leave the session exactly as it was.
    let config = daemon.front.config();
    let positive_region_bags = decode_region_uploads(&body, "positive_regions", &*backend, config)?;
    let negative_region_bags = decode_region_uploads(&body, "negative_regions", &*backend, config)?;
    let uploads_regions = !positive_region_bags.is_empty() || !negative_region_bags.is_empty();
    let handle = session(daemon, id)?;
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
            daemon.front.cache().contains(&key)
        };
        if !would_hit {
            return Err(priority_shed(daemon));
        }
    }
    session.query.add_positives(&positives)?;
    session.query.add_negatives(&negatives)?;
    for bag in positive_region_bags {
        session.query.add_positive_bag(bag)?;
    }
    for bag in negative_region_bags {
        session.query.add_negative_bag(bag)?;
    }
    // Sessions whose examples are all database indices share concepts
    // through the cache; uploads have no index identity, so sessions
    // holding external bags always train for themselves.
    let key = (session.query.external_example_counts() == (0, 0)).then(|| {
        ConceptKey::new(
            session.query.positives(),
            session.query.negatives(),
            &session.policy_label,
            session.generation,
        )
    });
    let hit = key.as_ref().and_then(|key| daemon.front.cache().get(key));
    let cache_hit = hit.is_some();
    let warm = !cache_hit && session.query.warm_ready();
    match hit {
        Some(hit) => session.query.adopt_concept(hit.concept, hit.nldd)?,
        None => {
            session.query.train_round()?;
            // A warm concept depends on this session's training history,
            // not just the example sets — caching it would let one
            // session's trajectory leak into every other request with the
            // same marks. Only cold (history-free) rounds feed the shared
            // cache.
            if let (Some(key), false) = (key, warm) {
                let concept = CachedConcept {
                    concept: session.query.shared_concept().expect("just trained"),
                    nldd: session.query.nldd(),
                };
                daemon.front.cache().insert(key, concept);
            }
        }
    }
    let ranking = session
        .query
        .rank(&daemon.front.page(RankScope::Pool, k, aggregator))?;
    Ok(Reply::json(
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
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::front::parse_policy;
    use milr_core::RetrievalDatabase;
    use milr_mil::WeightPolicy;
    use std::path::Path;

    const TIMEOUT: Duration = Duration::from_secs(30);

    /// Writes a gray-block snapshot of eight two-category bags at a fresh
    /// directory named after `name`, and returns the directory.
    fn gray_block_snapshot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("milrd_server_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bags = (0..8)
            .map(|i| {
                let c = (i % 2) as f32 * 3.0;
                Bag::new(vec![vec![c, 0.1 * i as f32, 1.0, c]; 2]).unwrap()
            })
            .collect();
        let labels = (0..8).map(|i| i % 2).collect();
        let db = RetrievalDatabase::from_bags(bags, labels).unwrap();
        ShardedDatabase::from_database(&db, &dir, 4)
            .unwrap()
            .flush()
            .unwrap();
        dir
    }

    fn options(snapshot: &Path, backend: Option<&str>) -> ServeOptions {
        let mut options = ServeOptions {
            snapshot_path: Some(snapshot.to_path_buf()),
            backend: backend.map(str::to_string),
            ..ServeOptions::default()
        };
        options.node.addr = "127.0.0.1:0".into();
        options
    }

    #[test]
    fn start_refuses_a_snapshot_of_another_backend() {
        let dir = gray_block_snapshot("start_backend");
        let store = ShardedDatabase::open(&dir).unwrap();
        let err = Server::start(store, options(&dir, Some("sbn")))
            .err()
            .expect("a gray-block snapshot must not serve as sbn");
        assert!(
            err.contains("\"gray-block\"") && err.contains("\"sbn\""),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn start_refuses_an_invalid_policy() {
        let dir = gray_block_snapshot("start_policy");
        let mut options = options(&dir, None);
        options.front.retrieval.policy = WeightPolicy::SumConstraint { beta: 2.0 };
        let err = Server::start(ShardedDatabase::open(&dir).unwrap(), options)
            .err()
            .expect("a daemon with β = 2 must not start");
        assert!(err.contains("SumConstraint"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_refuses_a_snapshot_of_another_backend() {
        // With and without a required backend, a reload onto an sbn
        // snapshot fails and the gray-block epoch keeps answering.
        for required in [None, Some("gray-block")] {
            let dir = gray_block_snapshot("reload_backend");
            let (server, _) = Server::open(options(&dir, required)).unwrap();
            let addr = server.local_addr();
            let health = || {
                client::get(addr, "/healthz", TIMEOUT)
                    .unwrap()
                    .json()
                    .unwrap()
            };
            let generation = health().get("generation").and_then(Json::as_u64);

            let mut store = ShardedDatabase::open(&dir).unwrap();
            store.set_backend(BackendTag {
                id: "sbn".into(),
                params: Vec::new(),
            });
            store.flush().unwrap();
            let reload = client::request(addr, "POST", "/snapshot/reload", None, TIMEOUT).unwrap();
            assert_eq!(reload.status, 500, "{required:?}");
            let body = String::from_utf8(reload.body).unwrap();
            assert!(
                body.contains("reload failed") && body.contains("sbn"),
                "{body}"
            );

            let after = health();
            assert_eq!(after.get("generation").and_then(Json::as_u64), generation);
            assert_eq!(
                after.get("backend").and_then(Json::as_str),
                Some("gray-block")
            );
            let page = client::get(addr, "/rank?positives=0,2&k=3", TIMEOUT).unwrap();
            assert_eq!(
                page.status, 200,
                "{required:?}: the old epoch must keep ranking"
            );
            server.shutdown();
            server.wait();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

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
            ["--cache-capacity", "-3"],
            ["--policy", "alpha:"],
        ] {
            let err = ServeOptions::from_flags(&args(&bad)).unwrap_err();
            assert!(err.contains(bad[0]), "{err}");
        }
    }
}
