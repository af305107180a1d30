//! The `loadgen` experiment: hammers a live `milrd` daemon over real
//! sockets with named workload mixes and reports per-mix throughput and
//! latency percentiles to `BENCH_serve.json`.
//!
//! The daemon is started in-process (same code path as the `milrd`
//! binary: real `TcpListener`, worker pool, concept cache, keep-alive
//! connections) on an ephemeral port — one fresh daemon per mix so the
//! concept cache starts cold where the mix demands it. The mixes:
//!
//! * `cached` — keep-alive clients rotate a small set of combinations;
//!   after warm-up every request is a concept-cache hit (the steady-state
//!   hot path, and the back-compat top-level numbers).
//! * `cold` — every request carries a never-seen example combination,
//!   so every request buys a DD training run (hit rate gated < 0.1).
//! * `feedback` — multi-round sessions driving `POST feedback`, run
//!   twice (warm-start training off, then on) to measure the
//!   cold-vs-warm objective-evaluation ratio (`warm_start_speedup`).
//! * `zipf` — popularity-skewed rotation over a wide combo set: the
//!   head hits the cache, the tail keeps training.
//!
//! A final distributed phase shards the same database and serves it
//! through a 1-coordinator / 2-worker cluster (real sockets between all
//! three nodes), with keep-alive clients driving `/cluster/rank`. Its
//! health numbers — zero errors, zero degraded (`partial`) pages — are
//! hard-gated by `bench_gate`. Client connect time (a dial that loses a
//! SYN to a busy accept backlog retransmits on a 1s/2s clock) is
//! accounted separately from request service time everywhere, so the
//! latency tail reports serving behaviour, not TCP handshake retries.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use milr_bench::{scene_database, Scale};
use milr_cluster::{Coordinator, CoordinatorOptions, Worker, WorkerOptions};
use milr_core::{RetrievalConfig, RetrievalDatabase};
use milr_serve::{client, Json, NodeOptions, ServeOptions, Server};
use milr_store::ShardedDatabase;

/// Concurrent client threads (the acceptance bar: ≥ 32 in flight).
const CLIENTS: usize = 32;

/// Ranked page size requested per query.
const PAGE: usize = 16;

/// Distinct example combinations rotated through by the `cached` mix.
const COMBOS: usize = 8;

/// Distinct combinations in the `zipf` mix's popularity distribution.
const ZIPF_COMBOS: usize = 64;

/// Sessions (client threads) per `feedback` sub-phase.
const FEEDBACK_SESSIONS: usize = 8;

/// Feedback rounds per session (each trains or adopts a concept).
const FEEDBACK_ROUNDS: usize = 4;

/// Keep-alive client threads in the distributed phase.
const DIST_CLIENTS: usize = 8;

/// Workers in the distributed phase's cluster.
const DIST_WORKERS: usize = 2;

/// Client-side request timeout for every mix.
const TIMEOUT: Duration = Duration::from_secs(30);

/// The mixes in execution order.
const MIXES: &[&str] = &["cached", "cold", "feedback", "zipf"];

pub fn loadgen(scale: Scale, seed: u64, mix_filter: Option<&str>) {
    let duration = match scale {
        Scale::Full => Duration::from_secs(5),
        Scale::Quick => Duration::from_secs(2),
    };
    let selected: Vec<&str> = match mix_filter {
        None => MIXES.to_vec(),
        Some(name) => {
            assert!(
                MIXES.contains(&name),
                "unknown mix {name:?}; expected one of {MIXES:?}"
            );
            vec![name]
        }
    };
    let config = RetrievalConfig::default();
    let db_src = scene_database(scale, seed);
    eprintln!("preprocessing {} scene images ...", db_src.len());
    let db = RetrievalDatabase::from_labelled_images(db_src.gray_images(), &config)
        .expect("preprocessing failed");
    let images = db.len();

    // Full per-category image lists: the cached mix takes a small prefix,
    // cold/zipf enumerate unique combinations across the whole space.
    let by_category: Vec<Vec<usize>> = (0..db.category_count())
        .map(|c| (0..db.len()).filter(|&i| db.labels()[i] == c).collect())
        .collect();
    let combos: Vec<String> = (0..COMBOS)
        .map(|j| {
            let c = j % by_category.len();
            let positives: Vec<usize> = by_category[c].iter().copied().take(3).collect();
            let negatives = &by_category[(c + 1) % by_category.len()];
            format!(
                "/rank?positives={}&negatives={}&k={PAGE}",
                join(&positives),
                join(&negatives[..negatives.len().min(2)]),
            )
        })
        .collect();

    // Shard the corpus to disk now, before the daemons consume clones of
    // `db`: the distributed phase serves this snapshot after the mixes.
    let cluster_dir =
        std::env::temp_dir().join(format!("milr_loadgen_cluster_{}", std::process::id()));
    std::fs::remove_dir_all(&cluster_dir).ok();
    std::fs::create_dir_all(&cluster_dir).expect("cluster scratch dir");
    let snapshot = cluster_dir.join("db.shards");
    let shards = {
        let mut store = ShardedDatabase::from_database(&db, &snapshot, db.len().div_ceil(4).max(1))
            .expect("shard the snapshot");
        store.flush().expect("flush the snapshot");
        store.shard_count()
    };

    let mut reports: Vec<MixReport> = Vec::new();
    for name in &selected {
        let report = match *name {
            "cached" => cached_mix(db.clone(), &config, &combos, duration),
            "cold" => cold_mix(db.clone(), &config, &by_category, duration),
            "feedback" => feedback_mix(db.clone(), &config, &by_category),
            "zipf" => zipf_mix(db.clone(), &config, &by_category, duration, seed),
            other => unreachable!("mix {other} filtered above"),
        };
        report.print();
        reports.push(report);
    }

    let distributed = distributed_phase(&snapshot, shards, &combos, scale);
    std::fs::remove_dir_all(&cluster_dir).ok();

    // Top-level fields mirror the first mix run (the `cached` mix on an
    // unfiltered run) for back-compat with older gate/baseline readers.
    let first = &reports[0];
    let reg = milr_obs::global()
        .histogram("milr_loadgen_latency_us")
        .snapshot();
    let mixes_json = reports
        .iter()
        .map(|r| format!("\"{}\": {}", r.name, r.json()))
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        "{{\n  \"experiment\": \"loadgen\",\n  \"scale\": \"{scale:?}\",\n  \"seed\": {seed},\n  \
         \"database_images\": {images},\n  \"clients\": {},\n  \"page\": {PAGE},\n  \
         \"combos\": {COMBOS},\n  \"duration_s\": {:.3},\n  \
         \"completed\": {},\n  \"errors\": {},\n  \"shed_503\": {},\n  \
         \"throughput_rps\": {:.3},\n  \
         \"latency_us\": {},\n  \
         \"registry_latency_us\": {{ \"count\": {}, \"mean\": {:.1}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {} }},\n  \
         \"concept_cache\": {},\n  \
         \"mixes\": {{\n    {mixes_json}\n  }},\n  \
         \"distributed\": {distributed}\n}}\n",
        first.clients,
        first.elapsed,
        first.completed,
        first.errors,
        first.shed,
        first.throughput(),
        first.latency_json(),
        reg.count(),
        reg.mean(),
        reg.quantile_upper_bound(0.50),
        reg.quantile_upper_bound(0.90),
        reg.quantile_upper_bound(0.99),
        reg.max(),
        first.cache_json(),
    );
    let path = "BENCH_serve.json";
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("\nwrote {path}");
}

/// One mix's outcome, ready to serialize.
struct MixReport {
    name: &'static str,
    clients: usize,
    elapsed: f64,
    /// Sorted request service latencies (connect time excluded).
    latencies_us: Vec<u64>,
    completed: u64,
    errors: u64,
    shed: u64,
    connects: u64,
    retries: u64,
    cache_hits: u64,
    cache_misses: u64,
    keepalive_reused: u64,
    /// Mix-specific scalar fields appended to the JSON object.
    extra: Vec<(&'static str, f64)>,
}

impl MixReport {
    fn throughput(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.completed as f64 / self.elapsed
        } else {
            0.0
        }
    }

    fn hit_rate(&self) -> f64 {
        if self.cache_hits + self.cache_misses > 0 {
            self.cache_hits as f64 / (self.cache_hits + self.cache_misses) as f64
        } else {
            0.0
        }
    }

    fn latency_json(&self) -> String {
        let pct = |q: f64| percentile(&self.latencies_us, q);
        format!(
            "{{ \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {} }}",
            mean(&self.latencies_us),
            pct(0.50),
            pct(0.90),
            pct(0.99),
            pct(1.0),
        )
    }

    fn cache_json(&self) -> String {
        format!(
            "{{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }}",
            self.cache_hits,
            self.cache_misses,
            self.hit_rate()
        )
    }

    fn json(&self) -> String {
        let extra = self
            .extra
            .iter()
            .map(|(key, value)| format!(", \"{key}\": {value:.4}"))
            .collect::<String>();
        format!(
            "{{ \"clients\": {}, \"duration_s\": {:.3}, \"completed\": {}, \
             \"errors\": {}, \"shed_503\": {}, \"connects\": {}, \"retries\": {}, \
             \"throughput_rps\": {:.3}, \"latency_us\": {}, \"concept_cache\": {}, \
             \"keepalive_reused\": {}{extra} }}",
            self.clients,
            self.elapsed,
            self.completed,
            self.errors,
            self.shed,
            self.connects,
            self.retries,
            self.throughput(),
            self.latency_json(),
            self.cache_json(),
            self.keepalive_reused,
        )
    }

    fn print(&self) {
        let pct = |q: f64| percentile(&self.latencies_us, q);
        println!(
            "mix {name}: {completed} requests in {elapsed:.1}s  ->  {rps:.0} req/s  \
             (errors {errors}, shed {shed}, connects {connects}, retries {retries})\n\
             mix {name} latency µs  mean {mean:.0}  p50 {p50}  p90 {p90}  p99 {p99}  max {max}\n\
             mix {name} cache {hits} hits / {misses} misses (hit rate {rate:.3}), \
             keep-alive reuses {reused}",
            name = self.name,
            completed = self.completed,
            elapsed = self.elapsed,
            rps = self.throughput(),
            errors = self.errors,
            shed = self.shed,
            connects = self.connects,
            retries = self.retries,
            mean = mean(&self.latencies_us),
            p50 = pct(0.50),
            p90 = pct(0.90),
            p99 = pct(0.99),
            max = pct(1.0),
            hits = self.cache_hits,
            misses = self.cache_misses,
            rate = self.hit_rate(),
            reused = self.keepalive_reused,
        );
        for (key, value) in &self.extra {
            println!("mix {name} {key} = {value:.4}", name = self.name);
        }
        if self.errors > 0 {
            println!(
                "WARNING: mix {} saw {} hard errors under load",
                self.name, self.errors
            );
        }
    }
}

/// Starts a fresh in-process daemon over a clone of the corpus.
fn spawn_daemon(db: RetrievalDatabase, config: &RetrievalConfig, warm_train: bool) -> Server {
    Server::start(
        db,
        ServeOptions {
            node: NodeOptions {
                workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
                // Cold DD trains take whole seconds on a small machine;
                // the feedback mix must measure convergence, not
                // deadline sheds.
                handle_deadline: Duration::from_secs(60),
                ..NodeOptions::default()
            },
            warm_train,
            retrieval: RetrievalConfig {
                threads: 1,
                ..config.clone()
            },
            ..ServeOptions::default()
        },
    )
    .expect("daemon start failed")
}

/// Counters scraped from `/metrics` before shutdown.
#[derive(Default)]
struct Scrape {
    cache_hits: u64,
    cache_misses: u64,
    keepalive_reused: u64,
}

fn scrape(addr: std::net::SocketAddr) -> Scrape {
    let Some(metrics) = client::get(addr, "/metrics", Duration::from_secs(10))
        .ok()
        .and_then(|r| r.json().ok())
    else {
        return Scrape::default();
    };
    let number = |path: &[&str]| -> u64 {
        let mut node: &Json = &metrics;
        for key in path {
            match node.get(key) {
                Some(next) => node = next,
                None => return 0,
            }
        }
        node.as_u64().unwrap_or(0)
    };
    Scrape {
        cache_hits: number(&["concept_cache", "hits"]),
        cache_misses: number(&["concept_cache", "misses"]),
        keepalive_reused: number(&["keepalive_reused_total"]),
    }
}

fn shutdown(server: Server, addr: std::net::SocketAddr) {
    let _ = client::request(
        addr,
        "POST",
        "/admin/shutdown",
        None,
        Duration::from_secs(10),
    );
    server.wait();
}

/// What the timed client threads bring home.
struct DriveResult {
    latencies_us: Vec<u64>,
    errors: u64,
    shed: u64,
    connects: u64,
    retries: u64,
    elapsed: f64,
}

/// Runs `clients` keep-alive client threads against `addr` for
/// `duration`, each asking its generator for the next target. Request
/// service time excludes connection establishment ([`client::ExchangeInfo`]).
fn drive<G>(
    addr: std::net::SocketAddr,
    duration: Duration,
    clients: usize,
    record_registry: bool,
    factory: impl Fn(usize) -> G,
) -> DriveResult
where
    G: FnMut(u64) -> String + Send + 'static,
{
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let stop = Arc::clone(&stop);
            let mut next_target = factory(id);
            std::thread::spawn(move || {
                let mut conn = client::Connection::new(addr, TIMEOUT);
                let mut latencies_us: Vec<u64> = Vec::new();
                let (mut errors, mut shed) = (0u64, 0u64);
                let (mut connects, mut retries) = (0u64, 0u64);
                let mut turn = id as u64; // de-phase the clients
                while !stop.load(Ordering::Relaxed) {
                    let target = next_target(turn);
                    turn += 1;
                    let begin = Instant::now();
                    match conn.request_with_info("GET", &target, None) {
                        Ok((response, info)) => {
                            connects += info.dials;
                            retries += u64::from(info.retried);
                            match response.status {
                                200 => {
                                    let us = begin.elapsed().saturating_sub(info.connect);
                                    let us = us.as_micros() as u64;
                                    if record_registry {
                                        milr_obs::histogram!("milr_loadgen_latency_us").record(us);
                                    }
                                    latencies_us.push(us);
                                }
                                503 => shed += 1,
                                _ => errors += 1,
                            }
                        }
                        Err(_) => errors += 1,
                    }
                }
                (latencies_us, errors, shed, connects, retries)
            })
        })
        .collect();
    let begin = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut result = DriveResult {
        latencies_us: Vec::new(),
        errors: 0,
        shed: 0,
        connects: 0,
        retries: 0,
        elapsed: 0.0,
    };
    for handle in handles {
        let (l, e, s, c, r) = handle.join().expect("client thread");
        result.latencies_us.extend(l);
        result.errors += e;
        result.shed += s;
        result.connects += c;
        result.retries += r;
    }
    result.elapsed = begin.elapsed().as_secs_f64();
    result.latencies_us.sort_unstable();
    result
}

/// `cached`: rotate a small warm combo set — the concept-cache hot path.
fn cached_mix(
    db: RetrievalDatabase,
    config: &RetrievalConfig,
    combos: &[String],
    duration: Duration,
) -> MixReport {
    let server = spawn_daemon(db, config, true);
    let addr = server.local_addr();
    eprintln!("mix cached: daemon on {addr}, {CLIENTS} clients ...");
    for target in combos {
        let response = client::get(addr, target, Duration::from_secs(120)).expect("warm-up query");
        assert_eq!(response.status, 200, "warm-up failed: {response:?}");
    }
    let combos = combos.to_vec();
    let result = drive(addr, duration, CLIENTS, true, |_| {
        let combos = combos.clone();
        move |turn: u64| combos[turn as usize % combos.len()].clone()
    });
    let scraped = scrape(addr);
    shutdown(server, addr);
    finish("cached", CLIENTS, result, scraped, Vec::new())
}

/// `cold`: every request is a never-seen combination — every request
/// trains. The gate pins this mix's hit rate below 0.1.
fn cold_mix(
    db: RetrievalDatabase,
    config: &RetrievalConfig,
    by_category: &[Vec<usize>],
    duration: Duration,
) -> MixReport {
    let server = spawn_daemon(db, config, true);
    let addr = server.local_addr();
    eprintln!("mix cold: daemon on {addr}, {CLIENTS} clients, unique concepts ...");
    let counter = Arc::new(AtomicU64::new(0));
    let cats: Arc<Vec<Vec<usize>>> = Arc::new(by_category.to_vec());
    let result = drive(addr, duration, CLIENTS, false, |_| {
        let counter = Arc::clone(&counter);
        let cats = Arc::clone(&cats);
        move |_| unique_combo(counter.fetch_add(1, Ordering::Relaxed), &cats)
    });
    let scraped = scrape(addr);
    shutdown(server, addr);
    let unique = counter.load(Ordering::Relaxed) as f64;
    finish(
        "cold",
        CLIENTS,
        result,
        scraped,
        vec![("unique_concepts", unique)],
    )
}

/// `zipf`: popularity-skewed rotation over [`ZIPF_COMBOS`] combinations
/// (weight of rank r proportional to 1/(r+1)): the head lives in the
/// cache, the tail keeps the trainer busy.
fn zipf_mix(
    db: RetrievalDatabase,
    config: &RetrievalConfig,
    by_category: &[Vec<usize>],
    duration: Duration,
    seed: u64,
) -> MixReport {
    let server = spawn_daemon(db, config, true);
    let addr = server.local_addr();
    eprintln!("mix zipf: daemon on {addr}, {CLIENTS} clients, {ZIPF_COMBOS} combos ...");
    let targets: Arc<Vec<String>> = Arc::new(
        (0..ZIPF_COMBOS as u64)
            .map(|r| unique_combo(r, by_category))
            .collect(),
    );
    // Cumulative 1/(r+1) weights for inverse-transform sampling.
    let cumulative: Arc<Vec<f64>> = Arc::new(
        (0..targets.len())
            .scan(0.0f64, |acc, r| {
                *acc += 1.0 / (r as f64 + 1.0);
                Some(*acc)
            })
            .collect(),
    );
    let result = drive(addr, duration, CLIENTS, false, |id| {
        let targets = Arc::clone(&targets);
        let cumulative = Arc::clone(&cumulative);
        let mut rng = XorShift::new(seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        move |_| {
            let total = *cumulative.last().expect("non-empty distribution");
            let u = rng.next_f64() * total;
            let rank = cumulative
                .partition_point(|&c| c < u)
                .min(targets.len() - 1);
            targets[rank].clone()
        }
    });
    let scraped = scrape(addr);
    shutdown(server, addr);
    finish(
        "zipf",
        CLIENTS,
        result,
        scraped,
        vec![("distinct_combos", ZIPF_COMBOS as f64)],
    )
}

/// `feedback`: multi-round sessions, run twice — warm-start training off
/// then on — against identical mark scripts. The objective-evaluation
/// ratio between the sub-phases is the warm-start speedup the gate pins
/// at ≥ 1.0. Stats (latency, throughput) come from the warm sub-phase,
/// the daemon's default serving configuration.
fn feedback_mix(
    db: RetrievalDatabase,
    config: &RetrievalConfig,
    by_category: &[Vec<usize>],
) -> MixReport {
    let cold = feedback_phase(db.clone(), config, by_category, false);
    let warm = feedback_phase(db, config, by_category, true);
    let speedup = if warm.evaluations > 0 {
        cold.evaluations as f64 / warm.evaluations as f64
    } else {
        0.0
    };
    eprintln!(
        "mix feedback: cold {} evaluations vs warm {} ({speedup:.2}x)",
        cold.evaluations, warm.evaluations
    );
    let mut report = finish(
        "feedback",
        FEEDBACK_SESSIONS,
        warm.result,
        warm.scraped,
        vec![
            ("cold_evaluations", cold.evaluations as f64),
            ("warm_evaluations", warm.evaluations as f64),
            ("warm_start_speedup", speedup),
            ("warm_trained", warm.warm_trained as f64),
            ("rounds_per_session", FEEDBACK_ROUNDS as f64),
        ],
    );
    report.errors += cold.result.errors;
    report.shed += cold.result.shed;
    report
}

struct FeedbackPhase {
    result: DriveResult,
    scraped: Scrape,
    evaluations: u64,
    warm_trained: u64,
}

/// One feedback sub-phase: fresh daemon, [`FEEDBACK_SESSIONS`] sessions,
/// each session applying [`FEEDBACK_ROUNDS`] scripted mark rounds. Marks
/// are disjoint across sessions so no session ever adopts another's
/// concept from the cache — the evaluation counts measure training.
fn feedback_phase(
    db: RetrievalDatabase,
    config: &RetrievalConfig,
    by_category: &[Vec<usize>],
    warm_train: bool,
) -> FeedbackPhase {
    let evaluations_before = milr_obs::global()
        .counter("milr_multistart_evaluations_total")
        .get();
    let server = spawn_daemon(db, config, warm_train);
    let addr = server.local_addr();
    eprintln!(
        "mix feedback (warm_train {warm_train}): daemon on {addr}, \
         {FEEDBACK_SESSIONS} sessions x {FEEDBACK_ROUNDS} rounds ..."
    );
    let warm_trained = Arc::new(AtomicU64::new(0));
    let cats: Arc<Vec<Vec<usize>>> = Arc::new(by_category.to_vec());
    let begin = Instant::now();
    let handles: Vec<_> = (0..FEEDBACK_SESSIONS)
        .map(|id| {
            let cats = Arc::clone(&cats);
            let warm_trained = Arc::clone(&warm_trained);
            std::thread::spawn(move || {
                let mut conn = client::Connection::new(addr, TIMEOUT);
                let mut latencies_us: Vec<u64> = Vec::new();
                let (mut errors, mut shed, mut connects, mut retries) = (0u64, 0u64, 0u64, 0u64);
                let c = id % cats.len();
                let slot = id / cats.len();
                let positives = &cats[c];
                let negatives = &cats[(c + 1) % cats.len()];
                // Disjoint per-session mark windows.
                let pb = slot * (2 + FEEDBACK_ROUNDS);
                let nb = slot * (1 + FEEDBACK_ROUNDS);
                assert!(
                    pb + 2 + FEEDBACK_ROUNDS <= positives.len()
                        && nb + 1 + FEEDBACK_ROUNDS <= negatives.len(),
                    "corpus too small for disjoint feedback sessions"
                );
                let create = Json::Obj(vec![
                    ("positives".into(), Json::indices(&positives[pb..pb + 2])),
                    ("negatives".into(), Json::indices(&negatives[nb..nb + 1])),
                ]);
                let response = conn
                    .post_json("/sessions", &create)
                    .expect("session create");
                assert_eq!(response.status, 201, "session create failed: {response:?}");
                let session_id = response
                    .json()
                    .ok()
                    .and_then(|j| j.get("id").and_then(Json::as_u64))
                    .expect("session id");
                let target = format!("/sessions/{session_id}/feedback");
                for round in 0..FEEDBACK_ROUNDS {
                    let body = Json::Obj(vec![
                        (
                            "positives".into(),
                            Json::indices(&[positives[pb + 2 + round]]),
                        ),
                        (
                            "negatives".into(),
                            Json::indices(&[negatives[nb + 1 + round]]),
                        ),
                        ("k".into(), Json::num(PAGE as f64)),
                    ]);
                    let mut attempt = 0u64;
                    loop {
                        attempt += 1;
                        let begin = Instant::now();
                        match conn.request_with_info("POST", &target, Some(body.dump().as_bytes()))
                        {
                            Ok((response, info)) if response.status == 200 => {
                                connects += info.dials;
                                retries += u64::from(info.retried);
                                let us = begin.elapsed().saturating_sub(info.connect);
                                latencies_us.push(us.as_micros() as u64);
                                if response
                                    .json()
                                    .ok()
                                    .and_then(|j| j.get("warm").and_then(Json::as_bool))
                                    == Some(true)
                                {
                                    warm_trained.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            // The daemon sheds feedback *before* the
                            // session's marks mutate, so a verbatim
                            // retry of the same round is safe.
                            Ok((response, _)) if response.status == 503 && attempt < 8 => {
                                shed += 1;
                                std::thread::sleep(Duration::from_millis(25 * attempt));
                            }
                            _ => {
                                errors += 1;
                                break;
                            }
                        }
                    }
                }
                (latencies_us, errors, shed, connects, retries)
            })
        })
        .collect();
    let mut result = DriveResult {
        latencies_us: Vec::new(),
        errors: 0,
        shed: 0,
        connects: 0,
        retries: 0,
        elapsed: 0.0,
    };
    for handle in handles {
        let (l, e, s, c, r) = handle.join().expect("feedback session thread");
        result.latencies_us.extend(l);
        result.errors += e;
        result.shed += s;
        result.connects += c;
        result.retries += r;
    }
    result.elapsed = begin.elapsed().as_secs_f64();
    result.latencies_us.sort_unstable();
    let scraped = scrape(addr);
    shutdown(server, addr);
    let evaluations = milr_obs::global()
        .counter("milr_multistart_evaluations_total")
        .get()
        - evaluations_before;
    FeedbackPhase {
        result,
        scraped,
        evaluations,
        warm_trained: warm_trained.load(Ordering::Relaxed),
    }
}

fn finish(
    name: &'static str,
    clients: usize,
    result: DriveResult,
    scraped: Scrape,
    extra: Vec<(&'static str, f64)>,
) -> MixReport {
    MixReport {
        name,
        clients,
        elapsed: result.elapsed,
        completed: result.latencies_us.len() as u64,
        latencies_us: result.latencies_us,
        errors: result.errors,
        shed: result.shed,
        connects: result.connects,
        retries: result.retries,
        cache_hits: scraped.cache_hits,
        cache_misses: scraped.cache_misses,
        keepalive_reused: scraped.keepalive_reused,
        extra,
    }
}

/// The `n`-th unique example combination: enumerates (category,
/// positive pair, negative singleton) coordinates so no two `n` below
/// `categories × pairs × negatives` share a concept-cache key.
fn unique_combo(n: u64, by_category: &[Vec<usize>]) -> String {
    let cats = by_category.len() as u64;
    let c = (n % cats) as usize;
    let list = &by_category[c];
    let len = list.len() as u64;
    let pairs = len * (len - 1) / 2;
    let mut pair = (n / cats) % pairs;
    // Triangular decode of the pair index into ordered (a, b), a < b.
    let mut a = 0u64;
    loop {
        let row = len - 1 - a;
        if pair < row {
            break;
        }
        pair -= row;
        a += 1;
    }
    let b = a + 1 + pair;
    let negatives = &by_category[(c + 1) % by_category.len()];
    let ni = ((n / (cats * pairs)) % negatives.len() as u64) as usize;
    format!(
        "/rank?positives={},{}&negatives={}&k={PAGE}",
        list[a as usize], list[b as usize], negatives[ni],
    )
}

/// Tiny xorshift64 PRNG: deterministic per (seed, client) with no
/// dependencies — good enough to drive a popularity distribution.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// Phase 2: serves the sharded `snapshot` through an in-process
/// 1-coordinator / `DIST_WORKERS`-worker cluster (real sockets between
/// all nodes) and drives `/cluster/rank` from keep-alive clients.
/// Returns the `"distributed"` JSON object for `BENCH_serve.json`;
/// `bench_gate` hard-fails on any error or degraded (`partial`) page.
/// Latencies exclude connect time — the gate pins the max below 1s.
fn distributed_phase(
    snapshot: &std::path::Path,
    shards: usize,
    combos: &[String],
    scale: Scale,
) -> String {
    let duration = match scale {
        Scale::Full => Duration::from_secs(5),
        Scale::Quick => Duration::from_secs(2),
    };
    let workers: Vec<Worker> = (0..DIST_WORKERS)
        .map(|index| {
            Worker::start(WorkerOptions {
                node: NodeOptions {
                    // Keep pooled coordinator sockets alive across
                    // client think-time and training pauses.
                    read_timeout: Duration::from_secs(30),
                    ..NodeOptions::default()
                },
                snapshot_dir: snapshot.to_path_buf(),
                worker_index: index,
                worker_count: DIST_WORKERS,
                ..WorkerOptions::default()
            })
            .expect("worker start failed")
        })
        .collect();
    let coordinator = Coordinator::start(CoordinatorOptions {
        node: NodeOptions {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            ..NodeOptions::default()
        },
        snapshot_dir: snapshot.to_path_buf(),
        workers: workers.iter().map(Worker::addr).collect(),
        retrieval: RetrievalConfig {
            threads: 1,
            ..RetrievalConfig::default()
        },
        worker_deadline: Duration::from_secs(30),
        ..CoordinatorOptions::default()
    })
    .expect("coordinator start failed");
    let addr = coordinator.addr();
    let targets: Vec<String> = combos
        .iter()
        .map(|combo| combo.replacen("/rank", "/cluster/rank", 1))
        .collect();
    eprintln!(
        "cluster on {addr} ({DIST_WORKERS} workers, {shards} shards), \
         {DIST_CLIENTS} keep-alive clients, {}s ...",
        duration.as_secs()
    );

    // Warm-up: train each combination once on the coordinator.
    for target in &targets {
        let response =
            client::get(addr, target, Duration::from_secs(120)).expect("cluster warm-up query");
        assert_eq!(response.status, 200, "cluster warm-up failed: {response:?}");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..DIST_CLIENTS)
        .map(|id| {
            let targets = targets.to_vec();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn = client::Connection::new(addr, TIMEOUT);
                let mut latencies_us: Vec<u64> = Vec::new();
                let (mut errors, mut partial) = (0u64, 0u64);
                let (mut connects, mut retries) = (0u64, 0u64);
                let mut turn = id; // de-phase the clients
                while !stop.load(Ordering::Relaxed) {
                    let target = &targets[turn % targets.len()];
                    turn += 1;
                    let begin = Instant::now();
                    match conn.get_with_info(target) {
                        Ok((response, info)) if response.status == 200 => {
                            connects += info.dials;
                            retries += u64::from(info.retried);
                            // A degraded page is not an error but it is
                            // a gate violation: every worker is healthy
                            // here, so every page must be complete.
                            match response.json() {
                                Ok(page)
                                    if page.get("partial").and_then(|p| p.as_bool())
                                        == Some(false) =>
                                {
                                    let us = begin.elapsed().saturating_sub(info.connect);
                                    latencies_us.push(us.as_micros() as u64);
                                }
                                _ => partial += 1,
                            }
                        }
                        _ => errors += 1,
                    }
                }
                (latencies_us, errors, partial, connects, retries)
            })
        })
        .collect();

    let begin = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut latencies_us: Vec<u64> = Vec::new();
    let (mut errors, mut partial) = (0u64, 0u64);
    let (mut connects, mut retries) = (0u64, 0u64);
    for handle in clients {
        let (l, e, p, c, r) = handle.join().expect("cluster client thread");
        latencies_us.extend(l);
        errors += e;
        partial += p;
        connects += c;
        retries += r;
    }
    let elapsed = begin.elapsed().as_secs_f64();
    latencies_us.sort_unstable();

    // Coordinator first: its pooled keep-alive sockets must close
    // before the workers drain their connection books.
    coordinator.request_shutdown();
    coordinator.wait();
    for worker in workers {
        worker.request_shutdown();
        worker.wait();
    }

    let completed = latencies_us.len() as u64;
    let throughput = completed as f64 / elapsed;
    let pct = |q: f64| percentile(&latencies_us, q);
    let (p50, p90, p99, max) = (pct(0.50), pct(0.90), pct(0.99), pct(1.0));
    let mean = mean(&latencies_us);
    println!(
        "distributed: {completed} requests in {elapsed:.1}s  ->  {throughput:.0} req/s  \
         (errors {errors}, partial {partial}, connects {connects}, retries {retries})\n\
         distributed latency µs  mean {mean:.0}  p50 {p50}  p90 {p90}  p99 {p99}  max {max}"
    );
    format!(
        "{{ \"workers\": {DIST_WORKERS}, \"shards\": {shards}, \"clients\": {DIST_CLIENTS}, \
         \"duration_s\": {elapsed:.3}, \"completed\": {completed}, \"errors\": {errors}, \
         \"partial\": {partial}, \"connects\": {connects}, \"retries\": {retries}, \
         \"throughput_rps\": {throughput:.3}, \
         \"latency_us\": {{ \"mean\": {mean:.1}, \"p50\": {p50}, \"p90\": {p90}, \
         \"p99\": {p99}, \"max\": {max} }} }}"
    )
}

fn join(indices: &[usize]) -> String {
    indices
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}
