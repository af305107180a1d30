//! The coordinator milrd: trains concepts locally on the sharded store
//! through the same rank [`Front`] as the single-node `/rank`, scatters
//! `POST /worker/rank` calls over the worker fleet (each worker owning
//! the shard subset [`assign_shards`] gives it), and k-way-merges the
//! per-worker top-k pages with the same
//! [`merge_rankings`](milr_store::merge_rankings) the single-node
//! scatter uses — so a healthy cluster's ranking is **bit-identical**
//! to single-node ranking by construction.
//!
//! Robustness model:
//!
//! * every worker call carries a deadline; a transport failure is
//!   retried once on a fresh dial, a `409` generation rejection is
//!   answered by resyncing the worker (`POST /snapshot/reload`) and
//!   retrying once — cross-generation results never merge silently;
//! * a worker whose failures reach `eviction_threshold` consecutively
//!   is evicted: skipped by the scatter (its shards are reported
//!   missing instantly) until a health probe succeeds and it rejoins;
//! * a crashed worker can also rejoin at a **new** address with
//!   `POST /cluster/workers` — re-registration clears the slot's
//!   connection pool and failure count;
//! * when any worker drops out of a scatter the client still gets a
//!   well-formed page: the exact top-k over the surviving shards,
//!   flagged `"partial": true` with the missing shard ids and bag-index
//!   ranges attached.
//!
//! The conservation law tying it together (asserted by the chaos
//! suite): every rank accounts for every shard, ranked or missing —
//! `shards_ranked_total + shards_missing_total ==
//! rank_total × total_shards`.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use milr_core::database::Ranking;
use milr_core::error::CoreError;
use milr_core::storage::storage_err;
use milr_mil::{BagAggregator, Concept};
use milr_serve::client;
use milr_serve::epoch::{reload_reply, Epochs, Snapshot};
use milr_serve::front::ranking_json;
use milr_serve::http::Request;
use milr_serve::metrics::Metrics;
use milr_serve::node::{flag, parse_flag, parse_ms};
use milr_serve::{Front, FrontOptions, Json, Node, NodeOptions, Reply};
use milr_store::{read_manifest, shard_file_name, ManifestSummary, ShardedDatabase, MANIFEST_FILE};

use crate::protocol::{
    assign_shards, gather, missing_ranges, GatherInput, WorkerRankRequest, WorkerRankResponse,
};

/// Everything tunable about a coordinator daemon.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Server-loop options (bind address, pool sizes, timeouts).
    pub node: NodeOptions,
    /// The rank front: training/ranking configuration, concept-cache
    /// capacity and default page size.
    pub front: FrontOptions,
    /// The sharded snapshot directory (for local training and for
    /// streaming shards to joining workers).
    pub snapshot_dir: PathBuf,
    /// Worker addresses; list position is the worker's index in the
    /// shard assignment.
    pub workers: Vec<SocketAddr>,
    /// Deadline per worker exchange (connect + write + read).
    pub worker_deadline: Duration,
    /// Interval between health probes of the fleet.
    pub health_interval: Duration,
    /// Consecutive failures after which a worker is evicted.
    pub eviction_threshold: u64,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        Self {
            node: NodeOptions::default(),
            front: FrontOptions::default(),
            snapshot_dir: PathBuf::new(),
            workers: Vec::new(),
            worker_deadline: Duration::from_secs(2),
            health_interval: Duration::from_millis(500),
            eviction_threshold: 2,
        }
    }
}

impl CoordinatorOptions {
    /// The options `milr serve --role coordinator` runs with: the
    /// defaults, with the flags of [`NodeOptions::apply_flags`] and
    /// [`FrontOptions::apply_flags`] applied, plus `--snapshot` and
    /// `--worker-addrs` (both required), `--worker-deadline-ms`,
    /// `--health-interval-ms` and `--eviction-threshold`.
    ///
    /// # Errors
    /// A message naming the flag that is missing or does not parse.
    pub fn from_flags(args: &[String]) -> Result<Self, String> {
        let mut options = Self::default();
        options.node.apply_flags(args)?;
        options.front.apply_flags(args)?;
        options.snapshot_dir = flag(args, "--snapshot")
            .ok_or("--snapshot is required")?
            .into();
        let addrs = flag(args, "--worker-addrs").ok_or("--worker-addrs is required")?;
        options.workers = addrs
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|part| {
                let addr = part.trim().parse();
                addr.map_err(|_| format!("invalid worker address {part:?}"))
            })
            .collect::<Result<_, _>>()?;
        if options.workers.is_empty() {
            return Err("--worker-addrs names no workers".into());
        }
        if let Some(deadline) = parse_ms(args, "--worker-deadline-ms")? {
            options.worker_deadline = deadline;
        }
        if let Some(interval) = parse_ms(args, "--health-interval-ms")? {
            options.health_interval = interval;
        }
        if let Some(threshold) = parse_flag(args, "--eviction-threshold")? {
            options.eviction_threshold = threshold;
        }
        Ok(options)
    }
}

/// One worker's slot in the fleet: address (re-registration may move
/// it), health state, and the keep-alive connection pool.
struct WorkerSlot {
    index: usize,
    addr: Mutex<SocketAddr>,
    healthy: AtomicBool,
    consecutive_failures: AtomicU64,
    /// Generation last reported by a health probe (0 before the first).
    seen_generation: AtomicU64,
    /// Idle keep-alive connections to this worker. A checkout pops,
    /// a clean exchange pushes back — so sequential traffic reuses one
    /// socket and concurrent traffic grows the pool organically.
    pool: Mutex<Vec<client::Connection>>,
    latency_us: Arc<milr_obs::Histogram>,
}

impl WorkerSlot {
    fn checkout(&self, deadline: Duration) -> client::Connection {
        let pooled = self.pool.lock().expect("worker pool mutex").pop();
        pooled
            .unwrap_or_else(|| client::Connection::new(*self.addr.lock().expect("addr"), deadline))
    }

    fn checkin(&self, conn: client::Connection) {
        // An address change (re-registration) while this connection was
        // out invalidates it; drop instead of pooling.
        if conn.addr() == *self.addr.lock().expect("addr") {
            self.pool.lock().expect("worker pool mutex").push(conn);
        }
    }
}

/// One loaded snapshot epoch. In-flight requests pin it via `Arc`, so a
/// reload never tears ranking out from under a scatter.
struct CoordinatorEpoch {
    /// The whole store, for local concept training; sessions address its
    /// live (tombstone-compacted) view, like single-node clients do.
    db: Arc<ShardedDatabase>,
    summary: ManifestSummary,
    /// Manifest generation **verbatim** (not bumped like the single-node
    /// daemon's reload counter) so coordinator and workers reading the
    /// same directory converge on the same number.
    generation: u64,
    /// `assignment[i]` = shard ids owned by worker `i`.
    assignment: Vec<Vec<u64>>,
}

impl Snapshot for CoordinatorEpoch {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn shards(&self) -> usize {
        self.summary.shards.len()
    }
}

struct ClusterCounters {
    rank_total: Arc<milr_obs::Counter>,
    partial_responses_total: Arc<milr_obs::Counter>,
    shards_ranked_total: Arc<milr_obs::Counter>,
    shards_missing_total: Arc<milr_obs::Counter>,
    worker_retries_total: Arc<milr_obs::Counter>,
    worker_evictions_total: Arc<milr_obs::Counter>,
    worker_rejoins_total: Arc<milr_obs::Counter>,
    generation_mismatch_total: Arc<milr_obs::Counter>,
    worker_resyncs_total: Arc<milr_obs::Counter>,
}

struct CoordinatorDaemon {
    options: CoordinatorOptions,
    front: Front,
    epochs: Epochs<CoordinatorEpoch>,
    slots: Vec<WorkerSlot>,
    counters: ClusterCounters,
    metrics: Arc<Metrics>,
    stop: AtomicBool,
    started: Instant,
}

impl CoordinatorDaemon {
    fn epoch(&self) -> Arc<CoordinatorEpoch> {
        self.epochs.current()
    }

    fn load_epoch(options: &CoordinatorOptions) -> Result<CoordinatorEpoch, CoreError> {
        let summary = read_manifest(&options.snapshot_dir)?;
        let db = Arc::new(ShardedDatabase::open(&options.snapshot_dir)?);
        let assignment = assign_shards(
            &summary.shards.iter().map(|s| s.id).collect::<Vec<_>>(),
            options.workers.len(),
        );
        let generation = summary.generation;
        Ok(CoordinatorEpoch {
            db,
            summary,
            generation,
            assignment,
        })
    }

    fn reload(&self) -> Reply {
        let loaded = Self::load_epoch(&self.options).map_err(|e| e.to_string());
        reload_reply(&self.epochs.reload(loaded, |epoch, _| Ok(epoch)))
    }

    fn note_success(&self, slot: &WorkerSlot) {
        slot.consecutive_failures.store(0, Ordering::Relaxed);
        if !slot.healthy.swap(true, Ordering::Relaxed) {
            self.counters.worker_rejoins_total.inc();
        }
    }

    fn note_failure(&self, slot: &WorkerSlot) {
        let failures = slot.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if failures >= self.options.eviction_threshold
            && slot.healthy.swap(false, Ordering::Relaxed)
        {
            self.counters.worker_evictions_total.inc();
        }
    }

    /// Asks `slot`'s worker to reload its subset from the snapshot
    /// directory (or from us, if it joined with `--join`).
    fn resync_worker(&self, slot: &WorkerSlot) -> Result<(), String> {
        self.counters.worker_resyncs_total.inc();
        let mut conn = slot.checkout(self.options.worker_deadline);
        let result = conn.post_json("/snapshot/reload", &Json::Obj(Vec::new()));
        match result {
            Ok(response) if response.status == 200 => {
                slot.checkin(conn);
                Ok(())
            }
            Ok(response) => Err(format!("worker resync answered {}", response.status)),
            Err(e) => Err(format!("worker resync failed: {e}")),
        }
    }

    /// One worker exchange of the scatter: send, and on failure retry
    /// once — resync-then-retry for a `409` generation rejection, a
    /// fresh dial for a transport error. Returns the worker's subset
    /// top-k, or [`None`] when the worker is degraded out of this rank.
    /// `body` is the scatter's one serialised [`WorkerRankRequest`],
    /// sent unchanged on every leg and retry.
    fn query_worker(
        &self,
        slot: &WorkerSlot,
        epoch: &CoordinatorEpoch,
        body: &Json,
    ) -> Option<Ranking> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let mut conn = slot.checkout(self.options.worker_deadline);
            let start = Instant::now();
            let outcome = conn.post_json("/worker/rank", body);
            match outcome {
                Ok(response) if response.status == 200 => {
                    let parsed = response
                        .json()
                        .and_then(|json| WorkerRankResponse::from_json(&json));
                    match parsed {
                        Ok(reply) if reply.generation == epoch.generation => {
                            slot.latency_us.record(
                                start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                            );
                            slot.checkin(conn);
                            self.note_success(slot);
                            return Some(reply.ranking);
                        }
                        // A malformed body or a generation that changed
                        // between gate and reply: treat as a failed
                        // attempt like any other.
                        _ => {}
                    }
                }
                Ok(response) if response.status == 409 => {
                    self.counters.generation_mismatch_total.inc();
                    if attempt == 1 && self.resync_worker(slot).is_ok() {
                        continue;
                    }
                }
                Ok(_) | Err(_) => {}
            }
            if attempt == 1 {
                self.counters.worker_retries_total.inc();
                continue;
            }
            self.note_failure(slot);
            return None;
        }
    }

    /// Fans the concept out over the fleet and returns the per-worker
    /// gather inputs in slot order. Unhealthy workers and workers that
    /// fail both attempts surface as `ranking: None`.
    fn scatter(
        &self,
        epoch: &CoordinatorEpoch,
        concept: &Concept,
        k: usize,
        aggregator: BagAggregator,
    ) -> Vec<GatherInput> {
        let body = WorkerRankRequest {
            generation: epoch.generation,
            k,
            concept: concept.clone(),
            aggregator,
        }
        .to_json();
        let jobs: Vec<&WorkerSlot> = self
            .slots
            .iter()
            .filter(|slot| !epoch.assignment[slot.index].is_empty())
            .collect();
        let results: Vec<Option<Ranking>> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|slot| {
                    let body = &body;
                    scope.spawn(move || {
                        if slot.healthy.load(Ordering::Relaxed) {
                            self.query_worker(slot, epoch, body)
                        } else {
                            None
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scatter thread"))
                .collect()
        });
        let mut by_index: Vec<Option<Ranking>> = vec![Some(Vec::new()); self.slots.len()];
        for (slot, ranking) in jobs.iter().zip(results) {
            by_index[slot.index] = ranking;
        }
        // Shards assigned past the worker list (no slot to serve them —
        // possible only when the worker list is empty) are missing.
        epoch
            .assignment
            .iter()
            .enumerate()
            .map(|(index, shard_ids)| GatherInput {
                shard_ids: shard_ids.clone(),
                ranking: if shard_ids.is_empty() {
                    Some(Vec::new())
                } else if index < by_index.len() {
                    by_index[index].take()
                } else {
                    None
                },
            })
            .collect()
    }

    fn handle_cluster_rank(&self, req: &Request) -> Result<Reply, Reply> {
        let _span = milr_obs::span::enter("cluster.rank");
        let query = self.front.parse_rank(req).map_err(Reply::bad_request)?;
        let epoch = self.epoch();
        let key = query.key(epoch.generation);
        let (cached, cache_hit) = self.front.concept(key, &*epoch.db, &query)?;
        let (k, aggregator) = (query.k, query.aggregator);
        let inputs = self.scatter(&epoch, &cached.concept, k, aggregator);
        for input in &inputs {
            let owned = input.shard_ids.len() as u64;
            if input.ranking.is_some() {
                self.counters.shards_ranked_total.add(owned);
            } else {
                self.counters.shards_missing_total.add(owned);
            }
        }
        let gathered = gather(inputs, k);
        self.counters.rank_total.inc();
        if gathered.partial {
            self.counters.partial_responses_total.inc();
        }
        // Workers rank in the global (tombstone-including) index space;
        // clients address the live view, exactly like single-node
        // `/rank`.
        let mut live_ranking = Vec::with_capacity(gathered.ranking.len());
        for &(global, distance) in &gathered.ranking {
            let live = epoch.summary.live_rank(global).ok_or_else(|| {
                let message =
                    format!("worker returned tombstoned or out-of-range bag index {global}");
                Reply::error(502, message)
            })?;
            live_ranking.push((live, distance));
        }
        let ranges = missing_ranges(&epoch.summary, &gathered.missing_shards);
        Ok(Reply::json(
            200,
            Json::Obj(vec![
                ("ranking".into(), ranking_json(&live_ranking)),
                ("aggregator".into(), Json::str(aggregator.label())),
                ("cache_hit".into(), Json::Bool(cache_hit)),
                ("nldd".into(), Json::Num(cached.nldd)),
                ("partial".into(), Json::Bool(gathered.partial)),
                ("generation".into(), Json::num(epoch.generation as f64)),
                (
                    "missing_shards".into(),
                    Json::Arr(
                        gathered
                            .missing_shards
                            .iter()
                            .map(|&id| Json::num(id as f64))
                            .collect(),
                    ),
                ),
                (
                    "missing_ranges".into(),
                    Json::Arr(
                        ranges
                            .iter()
                            .map(|&(start, end)| {
                                Json::Obj(vec![
                                    ("start".into(), Json::num(start as f64)),
                                    ("end".into(), Json::num(end as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ))
    }

    fn handle_status(&self) -> Reply {
        let epoch = self.epoch();
        let workers = self
            .slots
            .iter()
            .map(|slot| {
                let latency = slot.latency_us.snapshot();
                Json::Obj(vec![
                    ("index".into(), Json::num(slot.index as f64)),
                    (
                        "addr".into(),
                        Json::str(slot.addr.lock().expect("addr").to_string()),
                    ),
                    (
                        "healthy".into(),
                        Json::Bool(slot.healthy.load(Ordering::Relaxed)),
                    ),
                    (
                        "consecutive_failures".into(),
                        Json::num(slot.consecutive_failures.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "generation".into(),
                        Json::num(slot.seen_generation.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "shards".into(),
                        Json::Arr(
                            epoch.assignment[slot.index]
                                .iter()
                                .map(|&id| Json::num(id as f64))
                                .collect(),
                        ),
                    ),
                    (
                        "latency_us".into(),
                        Json::Obj(vec![
                            ("count".into(), Json::num(latency.count() as f64)),
                            ("mean".into(), Json::num(latency.mean())),
                            (
                                "p99".into(),
                                Json::num(latency.quantile_upper_bound(0.99) as f64),
                            ),
                            ("max".into(), Json::num(latency.max() as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Reply::json(
            200,
            Json::Obj(vec![
                ("role".into(), Json::str("coordinator")),
                ("generation".into(), Json::num(epoch.generation as f64)),
                (
                    "total_shards".into(),
                    Json::num(epoch.summary.shards.len() as f64),
                ),
                (
                    "live_bags".into(),
                    Json::num(epoch.summary.live_len() as f64),
                ),
                ("workers".into(), Json::Arr(workers)),
                ("cluster".into(), self.cluster_counters_json()),
            ]),
        )
    }

    fn cluster_counters_json(&self) -> Json {
        let c = &self.counters;
        Json::Obj(vec![
            ("rank_total".into(), Json::num(c.rank_total.get() as f64)),
            (
                "partial_responses_total".into(),
                Json::num(c.partial_responses_total.get() as f64),
            ),
            (
                "shards_ranked_total".into(),
                Json::num(c.shards_ranked_total.get() as f64),
            ),
            (
                "shards_missing_total".into(),
                Json::num(c.shards_missing_total.get() as f64),
            ),
            (
                "worker_retries_total".into(),
                Json::num(c.worker_retries_total.get() as f64),
            ),
            (
                "worker_evictions_total".into(),
                Json::num(c.worker_evictions_total.get() as f64),
            ),
            (
                "worker_rejoins_total".into(),
                Json::num(c.worker_rejoins_total.get() as f64),
            ),
            (
                "generation_mismatch_total".into(),
                Json::num(c.generation_mismatch_total.get() as f64),
            ),
            (
                "worker_resyncs_total".into(),
                Json::num(c.worker_resyncs_total.get() as f64),
            ),
        ])
    }

    fn handle_register_worker(&self, req: &Request) -> Reply {
        let body = match std::str::from_utf8(&req.body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(Json::parse)
        {
            Ok(json) => json,
            Err(msg) => return Reply::error(400, msg),
        };
        let Some(index) = body.get("index").and_then(Json::as_u64) else {
            return Reply::error(400, "missing worker index");
        };
        let index = index as usize;
        let Some(slot) = self.slots.get(index) else {
            return Reply::error(
                400,
                format!(
                    "worker index {index} out of range for {} slots",
                    self.slots.len()
                ),
            );
        };
        let Some(addr) = body
            .get("addr")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<SocketAddr>().ok())
        else {
            return Reply::error(400, "missing or invalid worker addr");
        };
        *slot.addr.lock().expect("addr") = addr;
        slot.pool.lock().expect("worker pool mutex").clear();
        slot.consecutive_failures.store(0, Ordering::Relaxed);
        if !slot.healthy.swap(true, Ordering::Relaxed) {
            self.counters.worker_rejoins_total.inc();
        }
        Reply::json(
            200,
            Json::Obj(vec![
                ("status".into(), Json::str("registered")),
                ("index".into(), Json::num(index as f64)),
                ("addr".into(), Json::str(addr.to_string())),
            ]),
        )
    }

    fn handle_manifest(&self) -> Reply {
        match std::fs::read(self.options.snapshot_dir.join(MANIFEST_FILE)) {
            Ok(bytes) => Reply::bytes(200, "application/octet-stream", bytes),
            Err(e) => Reply::error(500, format!("read manifest: {e}")),
        }
    }

    fn handle_shard(&self, path: &str) -> Reply {
        let Some(id) = path
            .strip_prefix("/cluster/shard/")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            return Reply::error(400, "invalid shard id");
        };
        let epoch = self.epoch();
        if !epoch.summary.shards.iter().any(|s| s.id == id) {
            return Reply::error(404, format!("no shard {id} in the current manifest"));
        }
        match std::fs::read(self.options.snapshot_dir.join(shard_file_name(id))) {
            Ok(bytes) => Reply::bytes(200, "application/octet-stream", bytes),
            Err(e) => Reply::error(500, format!("read shard {id}: {e}")),
        }
    }

    fn healthz(&self) -> Json {
        let epoch = self.epoch();
        let healthy = self
            .slots
            .iter()
            .filter(|s| s.healthy.load(Ordering::Relaxed))
            .count();
        Json::Obj(vec![
            ("status".into(), Json::str("ok")),
            ("role".into(), Json::str("coordinator")),
            ("generation".into(), Json::num(epoch.generation as f64)),
            (
                "total_shards".into(),
                Json::num(epoch.summary.shards.len() as f64),
            ),
            (
                "live_bags".into(),
                Json::num(epoch.summary.live_len() as f64),
            ),
            ("workers".into(), Json::num(self.slots.len() as f64)),
            ("healthy_workers".into(), Json::num(healthy as f64)),
            (
                "uptime_s".into(),
                Json::num(self.started.elapsed().as_secs_f64()),
            ),
        ])
    }

    fn route(&self, req: &Request) -> Option<(&'static str, Reply)> {
        Some(match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/cluster/rank") => {
                let reply = self.handle_cluster_rank(req).unwrap_or_else(|reply| reply);
                ("/cluster/rank", reply)
            }
            ("GET", "/cluster/status") => ("/cluster/status", self.handle_status()),
            ("GET", "/cluster/manifest") => ("/cluster/manifest", self.handle_manifest()),
            ("GET", path) if path.starts_with("/cluster/shard/") => {
                ("/cluster/shard", self.handle_shard(path))
            }
            ("POST", "/cluster/workers") => ("/cluster/workers", self.handle_register_worker(req)),
            ("GET", "/healthz") => ("/healthz", Reply::json(200, self.healthz())),
            ("GET", "/metrics") => (
                "/metrics",
                Reply::prometheus(self.metrics.render_prometheus()),
            ),
            ("POST", "/snapshot/reload") => ("/snapshot/reload", self.reload()),
            _ => return None,
        })
    }

    /// One probe round over the fleet.
    fn probe_workers(&self) {
        let epoch = self.epoch();
        for slot in &self.slots {
            let mut conn = slot.checkout(self.options.worker_deadline);
            let outcome = conn.get("/healthz");
            match outcome {
                Ok(response) if response.status == 200 => {
                    slot.checkin(conn);
                    self.note_success(slot);
                    let generation = response
                        .json()
                        .ok()
                        .and_then(|json| json.get("generation").and_then(Json::as_u64))
                        .unwrap_or(0);
                    slot.seen_generation.store(generation, Ordering::Relaxed);
                    if generation != epoch.generation {
                        // Idle skew (no rank traffic to trip the 409
                        // path): push the worker back in sync.
                        let _ = self.resync_worker(slot);
                    }
                }
                _ => self.note_failure(slot),
            }
        }
    }
}

fn health_loop(daemon: &Arc<CoordinatorDaemon>) {
    let tick = Duration::from_millis(25);
    loop {
        let mut slept = Duration::ZERO;
        while slept < daemon.options.health_interval {
            if daemon.stop.load(Ordering::Relaxed) {
                return;
            }
            let step = tick.min(daemon.options.health_interval - slept);
            std::thread::sleep(step);
            slept += step;
        }
        if daemon.stop.load(Ordering::Relaxed) {
            return;
        }
        daemon.probe_workers();
    }
}

/// The coordinator's fixed paths.
const PATHS: &[&str] = &[
    "/cluster/rank",
    "/cluster/status",
    "/cluster/manifest",
    "/cluster/workers",
    "/healthz",
    "/metrics",
    "/snapshot/reload",
];

/// A running coordinator daemon.
pub struct Coordinator {
    node: Node,
    daemon: Arc<CoordinatorDaemon>,
    health: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Opens the snapshot, builds the worker slots, and starts serving
    /// plus the health-probe loop.
    ///
    /// # Errors
    /// [`CoreError::Config`] naming the first invalid retrieval-config
    /// field, [`CoreError::Storage`] on snapshot problems, or the bind
    /// failure mapped through the same type.
    pub fn start(options: CoordinatorOptions) -> Result<Self, CoreError> {
        let front = Front::new(&options.front)?;
        let epoch = CoordinatorDaemon::load_epoch(&options)?;
        let metrics = Arc::new(Metrics::default());
        let registry = metrics.registry();
        let counters = ClusterCounters {
            rank_total: registry.counter("milrd_cluster_rank_total"),
            partial_responses_total: registry.counter("milrd_cluster_partial_responses_total"),
            shards_ranked_total: registry.counter("milrd_cluster_shards_ranked_total"),
            shards_missing_total: registry.counter("milrd_cluster_shards_missing_total"),
            worker_retries_total: registry.counter("milrd_cluster_worker_retries_total"),
            worker_evictions_total: registry.counter("milrd_cluster_worker_evictions_total"),
            worker_rejoins_total: registry.counter("milrd_cluster_worker_rejoins_total"),
            generation_mismatch_total: registry.counter("milrd_cluster_generation_mismatch_total"),
            worker_resyncs_total: registry.counter("milrd_cluster_worker_resyncs_total"),
        };
        let slots = options
            .workers
            .iter()
            .enumerate()
            .map(|(index, &addr)| WorkerSlot {
                index,
                addr: Mutex::new(addr),
                healthy: AtomicBool::new(true),
                consecutive_failures: AtomicU64::new(0),
                seen_generation: AtomicU64::new(0),
                pool: Mutex::new(Vec::new()),
                latency_us: registry.histogram(&milr_obs::labelled(
                    "milrd_cluster_worker_latency_us",
                    &[("worker", &index.to_string())],
                )),
            })
            .collect();
        let daemon = Arc::new(CoordinatorDaemon {
            front,
            epochs: Epochs::new(epoch, Arc::clone(&metrics)),
            slots,
            counters,
            metrics: Arc::clone(&metrics),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            options: options.clone(),
        });
        let router = {
            let daemon = Arc::clone(&daemon);
            Box::new(move |req: &Request| daemon.route(req))
        };
        let node = Node::start(options.node.clone(), metrics, PATHS, router)
            .map_err(|e| storage_err(&options.snapshot_dir, e))?;
        let health = {
            let daemon = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name("milrd-health".into())
                .spawn(move || health_loop(&daemon))
                .expect("spawn health thread")
        };
        Ok(Self {
            node,
            daemon,
            health: Some(health),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.node.addr()
    }

    /// The node's connection/endpoint metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.daemon.metrics
    }

    /// The generation of the currently-loaded snapshot.
    pub fn generation(&self) -> u64 {
        self.daemon.epoch().generation
    }

    /// The `milrd listening on ADDR (...)` line the binaries print —
    /// test harnesses parse it.
    pub fn banner(&self) -> String {
        let workers = self.daemon.slots.len();
        format!(
            "milrd listening on {} (coordinator, {workers} worker{}, generation {})",
            self.addr(),
            if workers == 1 { "" } else { "s" },
            self.generation(),
        )
    }

    /// Flips the shutdown flag and unblocks the acceptor.
    pub fn request_shutdown(&self) {
        self.daemon.stop.store(true, Ordering::Relaxed);
        self.node.request_shutdown();
    }

    /// Blocks until the node has drained, then stops the health loop.
    pub fn wait(mut self) {
        self.node.wait();
        self.daemon.stop.store(true, Ordering::Relaxed);
        if let Some(health) = self.health.take() {
            let _ = health.join();
        }
    }
}
