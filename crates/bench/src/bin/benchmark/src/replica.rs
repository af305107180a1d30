//! An in-process replica of the daemon's request path, and the naive
//! oracle every sampled page is compared with.
//!
//! The replica calls the layers' public functions in the daemon's order
//! — parse, cache, train, rank, dump — each inside a span, so the traced
//! run can say which layer an operation's time belongs to. The oracle
//! is deliberately naive: train through a [`QuerySession`] on the same
//! examples and policy, fold every bag with
//! [`Concept::instance_distance_sq`], sort. It reads only the snapshot
//! the harness wrote itself.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use milr_cluster::protocol::{ranking_from_json, ranking_to_json};
use milr_cluster::{assign_shards, gather, GatherInput};
use milr_core::{QuerySession, RankRequest, Ranking, RetrievalConfig, RetrievalDatabase};
use milr_mil::{BagAggregator, Concept, TrainResult};
use milr_serve::cache::{CachedConcept, ConceptCache, ConceptKey};
use milr_serve::{http, Json};
use milr_store::{load_snapshot, read_manifest, ShardSubset};

use crate::trace::{Recorder, SpanId};
use crate::wire::request_bytes;

/// Largest request body the replica's parser accepts (the daemon's
/// default `--max-body`).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// Workers in the replayed cluster, as in the `cluster_scan` workload.
pub const CLUSTER_WORKERS: usize = 2;

/// What one cold or warm training run cost.
#[derive(Debug, Clone)]
pub struct Training {
    /// Whether the round was seeded from the previous round's winner.
    pub warm: bool,
    /// Wall time of `QuerySession::train_round`.
    pub seconds: f64,
    /// Starts, evaluations and convergence per start.
    pub result: TrainResult,
}

/// The snapshot loaded in process, plus the daemon's serving state in
/// miniature.
pub struct Replica {
    /// The corpus, exactly as `milr serve` loads it.
    pub db: Arc<RetrievalDatabase>,
    /// The daemon's retrieval configuration (`threads = 1`).
    pub config: Arc<RetrievalConfig>,
    generation: u64,
    cache: ConceptCache,
    /// One shard subset per cluster worker (`cluster_scan` only).
    legs: Vec<(Vec<u64>, ShardSubset)>,
    /// Every training run made so far, in order.
    pub trainings: Vec<Training>,
}

impl Replica {
    /// Loads `snapshot` the way `milr serve` does; with `cluster`, also
    /// opens the two workers' shard subsets.
    pub fn open(snapshot: &Path, cluster: bool) -> Result<Self, String> {
        let loaded = load_snapshot(snapshot).map_err(|e| format!("load snapshot: {e}"))?;
        let mut legs = Vec::new();
        if cluster {
            let manifest = read_manifest(snapshot).map_err(|e| format!("read manifest: {e}"))?;
            let ids: Vec<u64> = manifest.shards.iter().map(|shard| shard.id).collect();
            for assigned in assign_shards(&ids, CLUSTER_WORKERS) {
                let subset = ShardSubset::open(snapshot, &assigned)
                    .map_err(|e| format!("open shard subset: {e}"))?;
                legs.push((assigned, subset));
            }
        }
        Ok(Self {
            db: Arc::new(loaded.database),
            config: Arc::new(RetrievalConfig {
                threads: 1,
                ..RetrievalConfig::default()
            }),
            generation: loaded.generation,
            cache: ConceptCache::new(128),
            legs,
            trainings: Vec::new(),
        })
    }

    /// A session over the whole corpus with warm-started retraining on,
    /// as `POST /sessions` opens it.
    pub fn session(
        &self,
        positives: &[usize],
        negatives: &[usize],
    ) -> Result<QuerySession<'static>, String> {
        QuerySession::builder(Arc::clone(&self.db))
            .config(Arc::clone(&self.config))
            .positives(positives.to_vec())
            .negatives(negatives.to_vec())
            .pool((0..self.db.len()).collect())
            .warm_start(true)
            .build()
            .map_err(|e| format!("open session: {e}"))
    }

    /// Trains `session` one round inside a `core.train_round` span and
    /// logs what the round cost.
    pub fn train(
        &mut self,
        session: &mut QuerySession<'static>,
        rec: &mut Recorder,
        parent: SpanId,
    ) -> Result<(), String> {
        let warm = session.warm_ready();
        let begin = Instant::now();
        let result = rec
            .within("core.train_round", parent, |_, _| {
                session.train_round_traced()
            })
            .map_err(|e| format!("train: {e}"))?;
        self.trainings.push(Training {
            warm,
            seconds: begin.elapsed().as_secs_f64(),
            result,
        });
        Ok(())
    }

    /// Serves one `GET /rank` (or `/cluster/rank`) request given as raw
    /// bytes: parse, cache, train on a miss, rank, dump. Returns the
    /// page it would have sent.
    pub fn rank_op(
        &mut self,
        rec: &mut Recorder,
        op: usize,
        target: &str,
    ) -> Result<Ranking, String> {
        let raw = request_bytes("GET", target, &[]);
        let root = rec.open_root("op", op);
        let request = rec.within("serve.http_parse", root, |_, _| {
            let mut pending = Vec::new();
            http::read_request_buffered(&mut raw.as_slice(), &mut pending, MAX_BODY)
        });
        let request = request.map_err(|e| format!("parse request: {e:?}"))?;
        let list = |name: &str| -> Result<Vec<usize>, String> {
            request
                .query_param(name)
                .unwrap_or("")
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse().map_err(|_| format!("bad index {s:?}")))
                .collect()
        };
        let (positives, negatives) = (list("positives")?, list("negatives")?);
        let k: usize = request
            .query_param("k")
            .and_then(|v| v.parse().ok())
            .ok_or("request without k")?;
        let policy = self.config.policy.label();
        let cached = rec.within("serve.cache", root, |_, _| {
            let key = ConceptKey::new(&positives, &negatives, &policy, self.generation);
            (self.cache.get(&key), key)
        });
        let concept = match cached {
            (Some(hit), _) => hit.concept,
            (None, key) => {
                let mut session = self.session(&positives, &negatives)?;
                self.train(&mut session, rec, root)?;
                let concept = session.shared_concept().expect("just trained");
                self.cache.insert(
                    key,
                    CachedConcept {
                        concept: Arc::clone(&concept),
                        nldd: session.nldd(),
                    },
                );
                concept
            }
        };
        let ranking = if self.legs.is_empty() {
            rec.within("core.rank", root, |_, _| {
                self.db
                    .rank(&concept, &RankRequest::all().top(k).threads(1))
                    .map_err(|e| format!("rank: {e}"))
            })?
        } else {
            self.cluster_rank(rec, root, &concept, k)?
        };
        rec.within("serve.json_dump", root, |_, _| {
            std::hint::black_box(page_json(&ranking).dump());
        });
        rec.close(root);
        Ok(ranking)
    }

    /// The coordinator's scatter and gather, in process: each leg ranks
    /// its shard subset, each answer crosses the line codec, and the two
    /// pages are merged. The legs run one after the other here (the
    /// coordinator runs them in parallel); whoever reads the spans
    /// charges an operation the slower leg, since a result waits for
    /// both.
    fn cluster_rank(
        &self,
        rec: &mut Recorder,
        root: SpanId,
        concept: &Concept,
        k: usize,
    ) -> Result<Ranking, String> {
        let rankings = rec.within("cluster.scatter", root, |rec, scatter| {
            self.legs
                .iter()
                .map(|(_, subset)| {
                    rec.within("store.rank_subset", scatter, |_, _| {
                        subset
                            .rank_top_k_with(
                                concept,
                                k,
                                f64::INFINITY,
                                1,
                                BagAggregator::MinDistance,
                            )
                            .map(|ranked| ranked.ranking)
                            .map_err(|e| format!("leg rank: {e}"))
                    })
                })
                .collect::<Result<Vec<Ranking>, String>>()
        })?;
        let decoded = rec.within("cluster.codec", root, |_, _| {
            rankings
                .iter()
                .map(|ranking| {
                    let line = ranking_to_json(ranking).dump();
                    Json::parse(&line).and_then(|json| ranking_from_json(&json))
                })
                .collect::<Result<Vec<Ranking>, String>>()
        })?;
        let inputs = self
            .legs
            .iter()
            .zip(decoded)
            .map(|((ids, _), ranking)| GatherInput {
                shard_ids: ids.clone(),
                ranking: Some(ranking),
            })
            .collect();
        Ok(rec.within("cluster.gather", root, |_, _| gather(inputs, k).ranking))
    }

    /// One `POST /sessions/{id}/feedback` round on `session`: parse the
    /// JSON body, apply the marks, retrain, rank the pool, dump.
    pub fn feedback_op(
        &mut self,
        session: &mut QuerySession<'static>,
        rec: &mut Recorder,
        op: usize,
        body: &str,
    ) -> Result<Ranking, String> {
        let root = rec.open_root("op", op);
        let parsed = rec.within("serve.json_parse", root, |_, _| Json::parse(body))?;
        let indices = |field: &str| -> Vec<usize> {
            parsed
                .get(field)
                .and_then(Json::as_array)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|v| v.as_u64().map(|n| n as usize))
                        .collect()
                })
                .unwrap_or_default()
        };
        let k = parsed
            .get("k")
            .and_then(Json::as_u64)
            .ok_or("feedback body without k")? as usize;
        session
            .add_positives(&indices("positives"))
            .and_then(|_| session.add_negatives(&indices("negatives")))
            .map_err(|e| format!("apply marks: {e}"))?;
        self.train(session, rec, root)?;
        let ranking = rec
            .within("core.rank", root, |_, _| {
                session.rank(&RankRequest::pool().top(k))
            })
            .map_err(|e| format!("rank: {e}"))?;
        rec.within("serve.json_dump", root, |_, _| {
            std::hint::black_box(page_json(&ranking).dump());
        });
        rec.close(root);
        Ok(ranking)
    }

    /// The oracle: every bag folded with the per-instance distance, the
    /// whole corpus sorted by `(distance, index)`, cut at `k`.
    pub fn naive_rank(&self, concept: &Concept, k: usize) -> Ranking {
        let mut scored: Ranking = (0..self.db.len())
            .map(|index| {
                let bag = self.db.bag(index).expect("index below len");
                let distance = bag
                    .instances()
                    .map(|instance| concept.instance_distance_sq(instance))
                    .fold(f64::INFINITY, f64::min);
                (index, distance)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("distances are finite")
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
    }

    /// The concept the cache holds for an example set, if any.
    pub fn cached_concept(
        &mut self,
        positives: &[usize],
        negatives: &[usize],
    ) -> Option<Arc<Concept>> {
        let key = ConceptKey::new(
            positives,
            negatives,
            &self.config.policy.label(),
            self.generation,
        );
        self.cache.get(&key).map(|hit| hit.concept)
    }
}

/// The `/rank` response body for a page, shaped as the daemon shapes it.
pub fn page_json(ranking: &Ranking) -> Json {
    let entries = ranking
        .iter()
        .map(|&(index, distance)| {
            Json::Obj(vec![
                ("index".into(), Json::num(index as f64)),
                ("distance".into(), Json::Num(distance)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("ranking".into(), Json::Arr(entries)),
        ("cache_hit".into(), Json::Bool(true)),
        ("nldd".into(), Json::Num(0.5)),
        ("aggregator".into(), Json::str("min-distance")),
    ])
}
