//! The worker milrd: owns a subset of the snapshot's shards (assigned
//! round-robin from the manifest) and answers `POST /worker/rank` with
//! its subset top-k in the global index space.
//!
//! A worker never trains — concepts arrive fully formed from the
//! coordinator — so its request path is exactly one
//! [`ShardSubset::rank_top_k_with`] call. Generation discipline is strict:
//! a request stamped with a different generation than the loaded
//! subset is answered `409` before any ranking happens, so
//! cross-generation results can never merge silently; the coordinator
//! reacts by asking the worker to `POST /snapshot/reload` and retrying
//! once.
//!
//! A worker can also bootstrap its snapshot directory from the
//! coordinator ([`sync_from_coordinator`]): sealed shards are immutable
//! and digest-pinned by the manifest, so distribution is a plain byte
//! copy that [`ShardSubset`] re-verifies at open.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use milr_core::error::CoreError;
use milr_core::storage::storage_err;
use milr_serve::client;
use milr_serve::epoch::{reload_reply, Epochs, Snapshot};
use milr_serve::http::Request;
use milr_serve::metrics::Metrics;
use milr_serve::node::{flag, parse_flag};
use milr_serve::{Json, Node, NodeOptions, Reply};
use milr_store::{read_manifest, shard_file_name, ManifestSummary, ShardSubset};

use crate::protocol::{assign_shards, WorkerRankRequest, WorkerRankResponse};

/// Everything tunable about a worker daemon.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Server-loop options (bind address, pool sizes, timeouts).
    pub node: NodeOptions,
    /// The sharded snapshot directory to serve from.
    pub snapshot_dir: PathBuf,
    /// This worker's position in the coordinator's worker list.
    pub worker_index: usize,
    /// Total workers the assignment is split across.
    pub worker_count: usize,
    /// Rank threads per request (the subset scatter fan-out).
    pub threads: usize,
    /// Coordinator address to stream missing shard files from (at
    /// startup and on every reload). [`None`] requires the snapshot
    /// directory to be complete locally.
    pub join: Option<SocketAddr>,
    /// Timeout for shard-streaming fetches from the coordinator.
    pub join_timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            node: NodeOptions::default(),
            snapshot_dir: PathBuf::new(),
            worker_index: 0,
            worker_count: 1,
            threads: 1,
            join: None,
            join_timeout: Duration::from_secs(10),
        }
    }
}

impl WorkerOptions {
    /// The options `milr serve --role worker` runs with: the defaults,
    /// with the flags of [`NodeOptions::apply_flags`] applied, plus
    /// `--snapshot`, `--worker-index` and `--worker-count` (all
    /// required), `--threads` and `--join`.
    ///
    /// # Errors
    /// A message naming the flag that is missing or does not parse.
    pub fn from_flags(args: &[String]) -> Result<Self, String> {
        let required = |name: &str| -> Result<usize, String> {
            parse_flag(args, name)?.ok_or_else(|| format!("{name} is required"))
        };
        let positive = |name: &str, n: usize| match n {
            0 => Err(format!("invalid {name} \"0\"")),
            n => Ok(n),
        };
        let mut options = Self {
            snapshot_dir: flag(args, "--snapshot")
                .ok_or("--snapshot is required")?
                .into(),
            worker_index: required("--worker-index")?,
            worker_count: positive("--worker-count", required("--worker-count")?)?,
            join: parse_flag(args, "--join")?,
            ..Self::default()
        };
        options.node.apply_flags(args)?;
        if let Some(threads) = parse_flag(args, "--threads")? {
            options.threads = positive("--threads", threads)?;
        }
        Ok(options)
    }
}

/// One loaded epoch: the shard subset pinned by in-flight requests.
struct WorkerEpoch {
    subset: ShardSubset,
}

impl Snapshot for WorkerEpoch {
    fn generation(&self) -> u64 {
        self.subset.generation()
    }

    fn shards(&self) -> usize {
        self.subset.shard_ids().len()
    }
}

/// Shared state behind the worker's router.
struct WorkerDaemon {
    options: WorkerOptions,
    epochs: Epochs<WorkerEpoch>,
    metrics: Arc<Metrics>,
    ranks_total: Arc<milr_obs::Counter>,
    generation_rejects_total: Arc<milr_obs::Counter>,
    aggregator_rejects_total: Arc<milr_obs::Counter>,
    started: Instant,
}

impl WorkerDaemon {
    fn epoch(&self) -> Arc<WorkerEpoch> {
        self.epochs.current()
    }

    /// (Re)opens this worker's shard subset from the snapshot
    /// directory, streaming missing shard files from the coordinator
    /// first when a join address is configured.
    fn load_epoch(options: &WorkerOptions) -> Result<WorkerEpoch, CoreError> {
        if let Some(coordinator) = options.join {
            sync_from_coordinator(
                coordinator,
                &options.snapshot_dir,
                options.worker_index,
                options.worker_count,
                options.join_timeout,
            )
            .map_err(|e| storage_err(&options.snapshot_dir, e))?;
        }
        let summary = read_manifest(&options.snapshot_dir)?;
        let assignment = assign_shards(
            &summary.shards.iter().map(|s| s.id).collect::<Vec<_>>(),
            options.worker_count,
        );
        let ids = assignment
            .get(options.worker_index)
            .cloned()
            .unwrap_or_default();
        let subset = ShardSubset::from_manifest_with(
            &milr_core::storage::OsFs,
            &options.snapshot_dir,
            &summary,
            &ids,
        )?;
        Ok(WorkerEpoch { subset })
    }

    fn reload(&self) -> Reply {
        let loaded = Self::load_epoch(&self.options).map_err(|e| e.to_string());
        reload_reply(&self.epochs.reload(loaded, |epoch, _| Ok(epoch)))
    }

    fn handle_rank(&self, req: &Request) -> Reply {
        let json = match std::str::from_utf8(&req.body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(Json::parse)
        {
            Ok(json) => json,
            Err(msg) => return Reply::error(400, msg),
        };
        // An aggregator label this worker does not recognise is protocol
        // skew (a newer coordinator), not a malformed request: reject it
        // 409-style like a generation mismatch, so the coordinator
        // degrades to a clean partial page instead of merging a page
        // this worker would have scored under a different key.
        if let Some(label) = json.get("aggregator").and_then(Json::as_str) {
            if milr_mil::BagAggregator::parse(label).is_none() {
                self.aggregator_rejects_total.inc();
                return Reply::json(
                    409,
                    Json::Obj(vec![(
                        "error".into(),
                        Json::str(format!("unknown aggregator '{label}'")),
                    )]),
                );
            }
        }
        let body = match WorkerRankRequest::from_json(&json) {
            Ok(parsed) => parsed,
            Err(msg) => return Reply::error(400, msg),
        };
        let epoch = self.epoch();
        let generation = epoch.subset.generation();
        if body.generation != generation {
            self.generation_rejects_total.inc();
            return Reply::json(
                409,
                Json::Obj(vec![
                    (
                        "error".into(),
                        Json::str(format!(
                            "generation skew: worker at {generation}, request at {}",
                            body.generation
                        )),
                    ),
                    ("generation".into(), Json::num(generation as f64)),
                ]),
            );
        }
        let scan = match epoch.subset.rank_top_k_with(
            &body.concept,
            body.k,
            f64::INFINITY,
            self.options.threads,
            body.aggregator,
        ) {
            Ok(scan) => scan,
            Err(err) => return Reply::error(400, err.to_string()),
        };
        self.ranks_total.inc();
        Reply::json(
            200,
            WorkerRankResponse {
                generation,
                ranking: scan.ranking,
            }
            .to_json(),
        )
    }

    fn healthz(&self) -> Json {
        let epoch = self.epoch();
        Json::Obj(vec![
            ("status".into(), Json::str("ok")),
            ("role".into(), Json::str("worker")),
            (
                "generation".into(),
                Json::num(epoch.subset.generation() as f64),
            ),
            (
                "shards".into(),
                Json::num(epoch.subset.shard_ids().len() as f64),
            ),
            (
                "total_shards".into(),
                Json::num(epoch.subset.total_shards() as f64),
            ),
            (
                "live_bags".into(),
                Json::num(epoch.subset.live_len() as f64),
            ),
            (
                "worker_index".into(),
                Json::num(self.options.worker_index as f64),
            ),
            (
                "worker_count".into(),
                Json::num(self.options.worker_count as f64),
            ),
            (
                "uptime_s".into(),
                Json::num(self.started.elapsed().as_secs_f64()),
            ),
        ])
    }

    fn route(&self, req: &Request) -> Option<(&'static str, Reply)> {
        Some(match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/worker/rank") => ("/worker/rank", self.handle_rank(req)),
            ("GET", "/healthz") => ("/healthz", Reply::json(200, self.healthz())),
            ("GET", "/metrics") => (
                "/metrics",
                Reply::prometheus(self.metrics.render_prometheus()),
            ),
            ("POST", "/snapshot/reload") => ("/snapshot/reload", self.reload()),
            _ => return None,
        })
    }
}

/// The worker's fixed paths.
const PATHS: &[&str] = &["/worker/rank", "/healthz", "/metrics", "/snapshot/reload"];

/// A running worker daemon.
pub struct Worker {
    node: Node,
    daemon: Arc<WorkerDaemon>,
}

impl Worker {
    /// Loads the shard subset (streaming missing shards from the
    /// coordinator when joining) and starts serving.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on snapshot problems, or the bind failure
    /// mapped through the same type.
    pub fn start(options: WorkerOptions) -> Result<Self, CoreError> {
        if options.worker_index >= options.worker_count {
            return Err(storage_err(
                &options.snapshot_dir,
                format!(
                    "worker index {} out of range for {} workers",
                    options.worker_index, options.worker_count
                ),
            ));
        }
        let epoch = WorkerDaemon::load_epoch(&options)?;
        let metrics = Arc::new(Metrics::default());
        let registry = metrics.registry();
        let daemon = Arc::new(WorkerDaemon {
            ranks_total: registry.counter("milrd_worker_ranks_total"),
            generation_rejects_total: registry.counter("milrd_worker_generation_rejects_total"),
            aggregator_rejects_total: registry.counter("milrd_worker_aggregator_rejects_total"),
            epochs: Epochs::new(epoch, Arc::clone(&metrics)),
            metrics: Arc::clone(&metrics),
            options: options.clone(),
            started: Instant::now(),
        });
        let router = {
            let daemon = Arc::clone(&daemon);
            Box::new(move |req: &Request| daemon.route(req))
        };
        let node = Node::start(options.node.clone(), metrics, PATHS, router)
            .map_err(|e| storage_err(&options.snapshot_dir, e))?;
        Ok(Self { node, daemon })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.node.addr()
    }

    /// The node's connection/endpoint metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.daemon.metrics
    }

    /// The generation of the currently-loaded subset.
    pub fn generation(&self) -> u64 {
        self.daemon.epoch().subset.generation()
    }

    /// Shard ids this worker owns.
    pub fn shard_ids(&self) -> Vec<u64> {
        self.daemon.epoch().subset.shard_ids()
    }

    /// The `milrd listening on ADDR (...)` line the binaries print —
    /// test harnesses parse it.
    pub fn banner(&self) -> String {
        let options = &self.daemon.options;
        let shards = self.shard_ids().len();
        format!(
            "milrd listening on {} (worker {}/{}, generation {}, {shards} shard{})",
            self.addr(),
            options.worker_index,
            options.worker_count,
            self.generation(),
            if shards == 1 { "" } else { "s" },
        )
    }

    /// Flips the shutdown flag and unblocks the acceptor.
    pub fn request_shutdown(&self) {
        self.node.request_shutdown();
    }

    /// Blocks until the node has drained.
    pub fn wait(self) {
        self.node.wait();
    }
}

/// Streams the manifest plus this worker's assigned shard files from a
/// coordinator into `dir`. Only files that are missing locally are
/// fetched — sealed shards are immutable, and any stale or truncated
/// copy is caught when [`ShardSubset`] digest-verifies the directory
/// against the freshly-fetched manifest.
///
/// Returns the synced manifest summary.
///
/// # Errors
/// A description of any transport failure, non-200 response, or local
/// write failure.
pub fn sync_from_coordinator(
    coordinator: SocketAddr,
    dir: &Path,
    worker_index: usize,
    worker_count: usize,
    timeout: Duration,
) -> Result<ManifestSummary, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut conn = client::Connection::new(coordinator, timeout);
    let manifest = conn.get("/cluster/manifest")?;
    if manifest.status != 200 {
        return Err(format!(
            "coordinator answered {} for /cluster/manifest",
            manifest.status
        ));
    }
    let manifest_path = dir.join(milr_store::MANIFEST_FILE);
    std::fs::write(&manifest_path, &manifest.body)
        .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;
    let summary = read_manifest(dir).map_err(|e| e.to_string())?;
    let assignment = assign_shards(
        &summary.shards.iter().map(|s| s.id).collect::<Vec<_>>(),
        worker_count,
    );
    let ids = assignment.get(worker_index).cloned().unwrap_or_default();
    for id in ids {
        let path = dir.join(shard_file_name(id));
        if path.is_file() {
            continue;
        }
        let response = conn.get(&format!("/cluster/shard/{id}"))?;
        if response.status != 200 {
            return Err(format!(
                "coordinator answered {} for shard {id}",
                response.status
            ));
        }
        std::fs::write(&path, &response.body)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(summary)
}
