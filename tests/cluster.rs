//! Cluster e2e suite: real `milr serve --role coordinator|worker`
//! processes talking HTTP over loopback, plus a single-node `milr
//! serve` over the same sharded snapshot as the ground truth.
//!
//! The externally visible contract under test:
//!
//! * a healthy cluster's `/cluster/rank` page is **bit-identical**
//!   (indices, distance bits, NLDD bits) to single-node `/rank`;
//! * killing a worker mid-load never surfaces a client error — every
//!   request still answers `200`, flagged `"partial": true` with the
//!   missing shard ids/ranges, and the degraded page is exactly the
//!   single-node ranking with the missing bag ranges filtered out;
//! * a replacement worker registered at a new address restores full
//!   pages (and the eviction/rejoin counters record the episode);
//! * a worker serving an older snapshot generation is resynced, never
//!   silently merged.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use milr::serve::Json;
use milr::testkit::synthetic_database;

/// Scratch directory holding the sharded snapshot; removed on drop.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// The sharded snapshot path every daemon in the test serves.
    fn snapshot(&self) -> PathBuf {
        self.dir.join("db.shards")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Writes the standard e2e corpus — 24 bags over 4 shards (capacity
/// 6), generation 1, no tombstones (so global and live indices agree).
fn sharded_scratch(test: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("milr_cluster_e2e_{test}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let scratch = Scratch { dir };
    let db = synthetic_database(24, 8, 3);
    let mut store = milr::store::ShardedDatabase::from_database(&db, scratch.snapshot(), 6)
        .expect("shard the snapshot");
    store.flush().expect("flush the snapshot");
    assert_eq!(store.shard_count(), 4, "the scenario expects 4 shards");
    scratch
}

/// A `milr` child process bound to an ephemeral port, killed on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_milr"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn milr");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        let addr = banner
            .strip_prefix("milrd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"));
        Daemon { child, addr }
    }

    /// Spawns a worker over `snapshot` with a long keep-alive idle
    /// timeout (pooled coordinator sockets must survive debug-build
    /// training pauses between scatters).
    fn worker(snapshot: &Path, index: usize, count: usize) -> Daemon {
        Daemon::spawn(&[
            "serve",
            "--role",
            "worker",
            "--snapshot",
            snapshot.to_str().unwrap(),
            "--worker-index",
            &index.to_string(),
            "--worker-count",
            &count.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--read-timeout-ms",
            "30000",
        ])
    }

    /// Spawns a coordinator fanning out to `workers`, with the health
    /// probe and per-worker deadline knobs under test control.
    fn coordinator(snapshot: &Path, workers: &[&Daemon], extra_args: &[&str]) -> Daemon {
        let addrs = workers
            .iter()
            .map(|w| w.addr.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut args = vec![
            "serve",
            "--role",
            "coordinator",
            "--snapshot",
            snapshot.to_str().unwrap(),
            "--worker-addrs",
            &addrs,
            "--addr",
            "127.0.0.1:0",
        ];
        args.extend_from_slice(extra_args);
        Daemon::spawn(&args)
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends `request` raw to `addr` and reads the full response to EOF.
fn raw_roundtrip(addr: SocketAddr, request: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request)?;
    stream.shutdown(Shutdown::Write)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(response)
}

fn get(addr: SocketAddr, path: &str) -> Vec<u8> {
    raw_roundtrip(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("request succeeds")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Vec<u8> {
    raw_roundtrip(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("request succeeds")
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(response);
    let rest = text.strip_prefix("HTTP/1.1 ")?;
    rest.split_whitespace().next()?.parse().ok()
}

fn json_of(response: &[u8]) -> Json {
    let text = String::from_utf8_lossy(response);
    let body = match text.split_once("\r\n\r\n") {
        Some((_, body)) => body,
        None => "",
    };
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON body ({e}): {body:?}"))
}

/// Extracts `(index, distance bit pattern)` pairs — the bit-identity
/// comparison unit shared with the in-crate integration tests.
fn ranking_pairs(json: &Json) -> Vec<(u64, u64)> {
    let Some(entries) = json.get("ranking").and_then(Json::as_array) else {
        panic!("response has no ranking array: {}", json.dump());
    };
    entries
        .iter()
        .map(|entry| {
            let index = entry
                .get("index")
                .and_then(Json::as_u64)
                .expect("ranking entry index");
            let distance = match entry.get("distance") {
                Some(Json::Num(d)) => *d,
                other => panic!("ranking entry distance missing: {other:?}"),
            };
            (index, distance.to_bits())
        })
        .collect()
}

fn nldd_bits(json: &Json) -> u64 {
    match json.get("nldd") {
        Some(Json::Num(v)) => v.to_bits(),
        other => panic!("response has no nldd: {other:?}"),
    }
}

fn counter(status: &Json, key: &str) -> u64 {
    status
        .get("cluster")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {key} missing: {}", status.dump()))
}

#[test]
fn healthy_cluster_pages_are_bit_identical_to_single_node_over_the_wire() {
    let scratch = sharded_scratch("identity");
    let snapshot = scratch.snapshot();
    let worker_a = Daemon::worker(&snapshot, 0, 2);
    let worker_b = Daemon::worker(&snapshot, 1, 2);
    let coordinator = Daemon::coordinator(
        &snapshot,
        &[&worker_a, &worker_b],
        &[
            "--worker-deadline-ms",
            "10000",
            "--health-interval-ms",
            "60000",
        ],
    );
    let single = Daemon::spawn(&[
        "serve",
        "--snapshot",
        snapshot.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);

    // Distinct concepts, a k past the corpus size, and a repeat (cache
    // hit) — every page must match bit for bit.
    let queries = [
        "positives=0,4&negatives=1&k=8",
        "positives=2,9&negatives=5,11&k=24",
        "positives=7&k=5",
        "positives=0,4&negatives=1&k=8",
    ];
    for query in queries {
        let response = get(coordinator.addr, &format!("/cluster/rank?{query}"));
        assert_eq!(status_of(&response), Some(200), "query {query} must serve");
        let cluster = json_of(&response);
        assert_eq!(
            cluster.get("partial").and_then(Json::as_bool),
            Some(false),
            "healthy cluster must never degrade: {}",
            cluster.dump()
        );
        let reference = json_of(&get(single.addr, &format!("/rank?{query}")));
        assert_eq!(
            ranking_pairs(&cluster),
            ranking_pairs(&reference),
            "cluster page diverged from single-node for {query}"
        );
        assert_eq!(
            nldd_bits(&cluster),
            nldd_bits(&reference),
            "trained concept diverged for {query}"
        );
    }

    // The `milr cluster status` CLI reads the same coordinator.
    let output = Command::new(env!("CARGO_BIN_EXE_milr"))
        .args(["cluster", "status", "--addr", &coordinator.addr.to_string()])
        .output()
        .expect("run milr cluster status");
    assert!(output.status.success(), "cluster status must exit 0");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(
        text.contains("coordinator") && text.contains("ranks 4 (partial 0)"),
        "status output accounts for the 4 ranks: {text}"
    );
}

#[test]
fn non_default_aggregators_scatter_gather_bit_identically_to_single_node() {
    let scratch = sharded_scratch("aggregators");
    let snapshot = scratch.snapshot();
    let worker_a = Daemon::worker(&snapshot, 0, 2);
    let worker_b = Daemon::worker(&snapshot, 1, 2);
    let coordinator = Daemon::coordinator(
        &snapshot,
        &[&worker_a, &worker_b],
        &[
            "--worker-deadline-ms",
            "10000",
            "--health-interval-ms",
            "60000",
        ],
    );
    let single = Daemon::spawn(&[
        "serve",
        "--snapshot",
        snapshot.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);

    // Every non-default aggregator must survive the scatter-gather —
    // the workers take the exact fold, the coordinator merges their
    // keys like any other page — and still page bit-identically
    // to the single node. The same concept is reused across
    // aggregators (cache hit on the repeats), so any divergence is
    // the fold itself, not training.
    let base = "positives=0,4&negatives=1&k=8";
    for aggregator in ["logsumexp", "generalized-mean", "noisy-or", "min-distance"] {
        let query = format!("{base}&aggregator={aggregator}");
        let response = get(coordinator.addr, &format!("/cluster/rank?{query}"));
        assert_eq!(
            status_of(&response),
            Some(200),
            "aggregator {aggregator} must serve"
        );
        let cluster = json_of(&response);
        assert_eq!(
            cluster.get("partial").and_then(Json::as_bool),
            Some(false),
            "healthy cluster must never degrade: {}",
            cluster.dump()
        );
        assert_eq!(
            cluster.get("aggregator").and_then(Json::as_str),
            Some(aggregator),
            "response must echo the aggregator: {}",
            cluster.dump()
        );
        let reference = json_of(&get(single.addr, &format!("/rank?{query}")));
        assert_eq!(
            ranking_pairs(&cluster),
            ranking_pairs(&reference),
            "cluster page diverged from single-node under {aggregator}"
        );
        assert_eq!(
            nldd_bits(&cluster),
            nldd_bits(&reference),
            "trained concept diverged under {aggregator}"
        );
    }

    // An explicit min-distance page is bit-identical to the implicit
    // default — the wire contract for requests that never name one.
    let implicit = json_of(&get(coordinator.addr, &format!("/cluster/rank?{base}")));
    let explicit = json_of(&get(
        coordinator.addr,
        &format!("/cluster/rank?{base}&aggregator=min-distance"),
    ));
    assert_eq!(
        implicit.get("aggregator").and_then(Json::as_str),
        Some("min-distance"),
        "the default must be echoed as min-distance: {}",
        implicit.dump()
    );
    assert_eq!(ranking_pairs(&implicit), ranking_pairs(&explicit));

    // An unknown label is a client error on both surfaces, not a
    // silent fallback to the default fold.
    for (addr, route) in [(coordinator.addr, "/cluster/rank"), (single.addr, "/rank")] {
        let response = get(addr, &format!("{route}?{base}&aggregator=softmax"));
        assert_eq!(
            status_of(&response),
            Some(400),
            "unknown aggregator must be rejected on {route}: {}",
            String::from_utf8_lossy(&response)
        );
    }
}

#[test]
fn worker_loss_degrades_gracefully_and_rejoin_restores_full_pages() {
    let scratch = sharded_scratch("degrade");
    let snapshot = scratch.snapshot();
    let worker_a = Daemon::worker(&snapshot, 0, 2);
    let worker_b = Daemon::worker(&snapshot, 1, 2);
    let coordinator = Daemon::coordinator(
        &snapshot,
        &[&worker_a, &worker_b],
        &[
            "--worker-deadline-ms",
            "2000",
            "--health-interval-ms",
            "100",
            "--eviction-threshold",
            "2",
        ],
    );
    let single = Daemon::spawn(&[
        "serve",
        "--snapshot",
        snapshot.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);

    // k covers the whole corpus so the degraded page is the complete
    // ranking over the surviving bags.
    let query = "positives=0,4&negatives=1&k=24";
    let healthy = json_of(&get(coordinator.addr, &format!("/cluster/rank?{query}")));
    assert_eq!(healthy.get("partial").and_then(Json::as_bool), Some(false));
    assert_eq!(
        healthy
            .get("ranking")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(24)
    );

    worker_b.kill();

    // Mid-load after the kill: zero client errors, every page flagged
    // partial with worker 1's shards (manifest positions 1 and 3).
    let mut degraded = None;
    for attempt in 0..6 {
        let response = get(coordinator.addr, &format!("/cluster/rank?{query}"));
        assert_eq!(
            status_of(&response),
            Some(200),
            "attempt {attempt}: a lost worker must never surface a client error"
        );
        let json = json_of(&response);
        assert_eq!(
            json.get("partial").and_then(Json::as_bool),
            Some(true),
            "attempt {attempt} must be flagged partial: {}",
            json.dump()
        );
        let missing: Vec<u64> = json
            .get("missing_shards")
            .and_then(Json::as_array)
            .expect("missing_shards")
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(missing, vec![1, 3], "attempt {attempt}: {}", json.dump());
        degraded = Some(json);
    }
    let degraded = degraded.expect("at least one degraded page");

    // The degraded page is exactly the healthy ranking with the
    // reported missing bag ranges filtered out.
    let ranges: Vec<(u64, u64)> = degraded
        .get("missing_ranges")
        .and_then(Json::as_array)
        .expect("missing_ranges")
        .iter()
        .map(|range| {
            (
                range.get("start").and_then(Json::as_u64).expect("start"),
                range.get("end").and_then(Json::as_u64).expect("end"),
            )
        })
        .collect();
    assert!(!ranges.is_empty(), "degraded pages must report bag ranges");
    let reference = json_of(&get(single.addr, &format!("/rank?{query}")));
    let expected: Vec<(u64, u64)> = ranking_pairs(&reference)
        .into_iter()
        .filter(|&(index, _)| {
            !ranges
                .iter()
                .any(|&(start, end)| index >= start && index < end)
        })
        .collect();
    assert_eq!(
        ranking_pairs(&degraded),
        expected,
        "degraded page must be the exact ranking over surviving shards"
    );

    // The health loop evicts the dead worker.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = json_of(&get(coordinator.addr, "/cluster/status"));
        let evicted = status
            .get("workers")
            .and_then(Json::as_array)
            .and_then(|workers| workers.get(1))
            .and_then(|w| w.get("healthy"))
            .and_then(Json::as_bool)
            == Some(false);
        if evicted {
            assert!(counter(&status, "worker_evictions_total") >= 1);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker 1 never evicted: {}",
            status.dump()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // A replacement at a fresh port re-registers and restores full
    // pages bit-identical to the healthy baseline.
    let replacement = Daemon::worker(&snapshot, 1, 2);
    let response = post(
        coordinator.addr,
        "/cluster/workers",
        &format!(r#"{{"index": 1, "addr": "{}"}}"#, replacement.addr),
    );
    assert_eq!(status_of(&response), Some(200), "re-registration succeeds");
    let restored = json_of(&get(coordinator.addr, &format!("/cluster/rank?{query}")));
    assert_eq!(restored.get("partial").and_then(Json::as_bool), Some(false));
    assert_eq!(
        ranking_pairs(&restored),
        ranking_pairs(&healthy),
        "rejoined cluster must serve the full page again"
    );
    let status = json_of(&get(coordinator.addr, "/cluster/status"));
    assert!(
        counter(&status, "worker_rejoins_total") >= 1,
        "{}",
        status.dump()
    );
}

#[test]
fn generation_skew_is_resynced_never_silently_merged() {
    let scratch = sharded_scratch("skew");
    let snapshot = scratch.snapshot();
    let worker_a = Daemon::worker(&snapshot, 0, 2);
    let worker_b = Daemon::worker(&snapshot, 1, 2);
    // A huge health interval keeps the probe loop out of the episode:
    // the rank path itself must detect and repair the skew.
    let coordinator = Daemon::coordinator(
        &snapshot,
        &[&worker_a, &worker_b],
        &[
            "--worker-deadline-ms",
            "10000",
            "--health-interval-ms",
            "600000",
        ],
    );

    // Advance the snapshot a generation on disk, then reload only the
    // coordinator: both workers are now one generation behind.
    let mut store = milr::store::ShardedDatabase::open(&snapshot).expect("reopen snapshot");
    store.flush().expect("bump the generation");
    let response = post(coordinator.addr, "/snapshot/reload", "");
    assert_eq!(status_of(&response), Some(200), "coordinator reload");

    // The next rank must answer at the new generation with a full page:
    // stale workers are rejected (409) and resynced within the request,
    // never silently merged into the new epoch.
    let json = json_of(&get(
        coordinator.addr,
        "/cluster/rank?positives=0,4&negatives=1&k=8",
    ));
    assert_eq!(
        json.get("generation").and_then(Json::as_u64),
        Some(2),
        "{}",
        json.dump()
    );
    assert_eq!(
        json.get("partial").and_then(Json::as_bool),
        Some(false),
        "resynced workers must serve the full page: {}",
        json.dump()
    );
    assert_eq!(
        json.get("ranking")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(8)
    );

    let status = json_of(&get(coordinator.addr, "/cluster/status"));
    assert!(
        counter(&status, "generation_mismatch_total") >= 1,
        "the skew must be detected, not ignored: {}",
        status.dump()
    );
    assert!(
        counter(&status, "worker_resyncs_total") >= 1,
        "stale workers must be resynced: {}",
        status.dump()
    );
}

#[test]
fn tombstoned_snapshot_serves_the_live_view_on_single_node_and_cluster() {
    use milr::core::{QuerySession, RankRequest, RetrievalConfig};

    // Four bags deleted across three shards and flushed without
    // compaction: the files keep them, the manifest tombstones them.
    let scratch = sharded_scratch("tombstones");
    let snapshot = scratch.snapshot();
    let mut store = milr::store::ShardedDatabase::open(&snapshot).expect("reopen snapshot");
    for global in [2, 7, 8, 19] {
        store.delete(global).expect("tombstone a bag");
    }
    store.flush().expect("flush the tombstones");
    assert_eq!(store.tombstone_count(), 4);
    // The oracle: the live bags as a monolithic database, whose indices
    // are the live view clients address.
    let live = store.to_database().expect("live bags");
    assert_eq!(live.len(), 20);

    let worker_a = Daemon::worker(&snapshot, 0, 2);
    let worker_b = Daemon::worker(&snapshot, 1, 2);
    let coordinator = Daemon::coordinator(
        &snapshot,
        &[&worker_a, &worker_b],
        &[
            "--worker-deadline-ms",
            "10000",
            "--health-interval-ms",
            "60000",
        ],
    );
    let single = Daemon::spawn(&[
        "serve",
        "--snapshot",
        snapshot.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);
    let health = json_of(&get(single.addr, "/healthz"));
    assert_eq!(health.get("images").and_then(Json::as_u64), Some(20));
    let health = json_of(&get(coordinator.addr, "/healthz"));
    assert_eq!(health.get("live_bags").and_then(Json::as_u64), Some(20));

    let config = RetrievalConfig {
        threads: 1,
        ..RetrievalConfig::default()
    };
    let oracle = |positives: Vec<usize>, negatives: Vec<usize>, k: usize| {
        let mut session = QuerySession::builder(&live)
            .config(&config)
            .positives(positives)
            .negatives(negatives)
            .build()
            .unwrap();
        session.train_round().unwrap();
        session
            .rank(&RankRequest::all().top(k))
            .unwrap()
            .into_iter()
            .map(|(index, distance)| (index as u64, distance.to_bits()))
            .collect::<Vec<_>>()
    };
    // Live examples 6 and 17 sit past tombstones (globals 9 and 21), and
    // a page of 20 covers every live bag.
    for (query, positives, negatives, k) in [
        ("positives=6,17&negatives=2&k=8", vec![6, 17], vec![2], 8),
        (
            "positives=0,3&negatives=7,12&k=20",
            vec![0, 3],
            vec![7, 12],
            20,
        ),
    ] {
        let expected = oracle(positives, negatives, k);
        let single_page = json_of(&get(single.addr, &format!("/rank?{query}")));
        assert_eq!(
            ranking_pairs(&single_page),
            expected,
            "single node, {query}"
        );
        let cluster_page = json_of(&get(coordinator.addr, &format!("/cluster/rank?{query}")));
        assert_eq!(
            cluster_page.get("partial").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(ranking_pairs(&cluster_page), expected, "cluster, {query}");
    }

    // A session page ranks its pool — the live view — the same way.
    let created = json_of(&post(
        single.addr,
        "/sessions",
        r#"{"positives": [6, 17], "negatives": [2]}"#,
    ));
    let id = created
        .get("id")
        .and_then(Json::as_u64)
        .expect("session id");
    let page = json_of(&post(
        single.addr,
        &format!("/sessions/{id}/feedback"),
        r#"{"k": 8}"#,
    ));
    assert_eq!(ranking_pairs(&page), oracle(vec![6, 17], vec![2], 8));
}

#[test]
fn overflowing_distances_cross_the_wire_as_infinity() {
    // A point at 1e300 on dimension 0 (weight 1) overflows every bag's
    // weighted square distance to +∞. The ranker keeps such bags, so
    // the workers' answers must carry the fold of all-infinite
    // distances (+∞, or 1 for noisy-or) under every aggregator and
    // merge into the single-node page bit for bit — and a worker that
    // answered them all keeps serving ordinary requests.
    use milr::cluster::protocol::{WorkerRankRequest, WorkerRankResponse};
    use milr::core::RankRequest;
    use milr::mil::{BagAggregator, Concept};

    let scratch = sharded_scratch("overflow");
    let snapshot = scratch.snapshot();
    let workers = [
        Daemon::worker(&snapshot, 0, 2),
        Daemon::worker(&snapshot, 1, 2),
    ];
    let store = milr::store::ShardedDatabase::open(&snapshot).expect("open snapshot");
    let bits = |ranking: &[(usize, f64)]| -> Vec<(usize, u64)> {
        ranking.iter().map(|&(i, d)| (i, d.to_bits())).collect()
    };
    let scatter = |concept: &Concept, k: usize, aggregator: BagAggregator| {
        let request = WorkerRankRequest {
            generation: 1,
            k,
            concept: concept.clone(),
            aggregator,
        };
        let body = request.to_json().dump();
        let rankings: Vec<_> = workers
            .iter()
            .map(|worker| {
                let reply = post(worker.addr, "/worker/rank", &body);
                assert_eq!(status_of(&reply), Some(200), "{aggregator}");
                WorkerRankResponse::from_json(&json_of(&reply))
                    .unwrap_or_else(|e| panic!("worker answer must parse: {e}"))
                    .ranking
            })
            .collect();
        let page = milr::store::merge_rankings(rankings, Some(k));
        let expected = store
            .rank(concept, &RankRequest::all().top(k).aggregator(aggregator))
            .expect("single-node rank");
        assert_eq!(bits(&page), bits(&expected), "{aggregator}");
        page
    };

    let mut point = vec![0.0; 8];
    point[0] = 1e300;
    let mut weights = vec![0.0; 8];
    weights[0] = 1.0;
    let far = Concept::new(point, weights.clone());
    // More requests than a worker has handler threads.
    for _ in 0..2 {
        for aggregator in BagAggregator::ALL {
            let page = scatter(&far, 5, aggregator);
            assert_eq!(page.len(), 5);
            let key = if aggregator == BagAggregator::NoisyOr {
                1.0
            } else {
                f64::INFINITY
            };
            assert!(
                page.iter().all(|&(_, d)| d == key),
                "{aggregator}: {page:?}"
            );
        }
    }
    let near = Concept::new(vec![0.0; 8], weights);
    let page = scatter(&near, 5, BagAggregator::MinDistance);
    assert!(page.iter().all(|&(_, d)| d.is_finite()), "{page:?}");
}

#[test]
fn every_role_answers_through_one_request_front() {
    let scratch = sharded_scratch("front");
    let snapshot = scratch.snapshot();
    let worker_a = Daemon::worker(&snapshot, 0, 2);
    let worker_b = Daemon::worker(&snapshot, 1, 2);
    let coordinator = Daemon::coordinator(
        &snapshot,
        &[&worker_a, &worker_b],
        &[
            "--worker-deadline-ms",
            "10000",
            "--health-interval-ms",
            "60000",
        ],
    );
    let single = Daemon::spawn(&[
        "serve",
        "--snapshot",
        snapshot.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);

    // A page size past the corpus is forwarded to every worker and
    // answers every live bag, exactly as the single node does.
    let query = "positives=0,4&k=1000000000000";
    let cluster = get(coordinator.addr, &format!("/cluster/rank?{query}"));
    assert_eq!(status_of(&cluster), Some(200));
    let cluster = json_of(&cluster);
    assert_eq!(cluster.get("partial").and_then(Json::as_bool), Some(false));
    assert_eq!(ranking_pairs(&cluster).len(), 24);
    let reference = json_of(&get(single.addr, &format!("/rank?{query}")));
    assert_eq!(ranking_pairs(&cluster), ranking_pairs(&reference));

    // `/rank` and `/cluster/rank` parse, key and train through one
    // front, so every bad input earns the same status and message.
    for query in [
        "",
        "positives=",
        "negatives=1",
        "positives=zero",
        "positives=0,x",
        "positives=999",
        "positives=0&negatives=-1",
        "positives=0&k=ten",
        "positives=0&k=-1",
        "positives=0&aggregator=bogus",
        "positives=0&policy=bogus",
        "positives=0&policy=alpha:x",
    ] {
        let single_reply = get(single.addr, &format!("/rank?{query}"));
        let cluster_reply = get(coordinator.addr, &format!("/cluster/rank?{query}"));
        assert_eq!(status_of(&single_reply), Some(400), "/rank?{query}");
        assert_eq!(
            status_of(&cluster_reply),
            status_of(&single_reply),
            "{query}"
        );
        assert_eq!(
            json_of(&cluster_reply).get("error"),
            json_of(&single_reply).get("error"),
            "{query}"
        );
    }

    // The node answers the fallback and the drain alike on every role;
    // the drain comes last, coordinator before its workers.
    let roles = [&single, &coordinator, &worker_a, &worker_b];
    for daemon in roles {
        assert_eq!(status_of(&post(daemon.addr, "/healthz", "")), Some(405));
        assert_eq!(status_of(&get(daemon.addr, "/no/such/route")), Some(404));
        assert_eq!(status_of(&get(daemon.addr, "/healthz")), Some(200));
    }
    for daemon in roles {
        let response = post(daemon.addr, "/admin/shutdown", "");
        assert_eq!(status_of(&response), Some(200));
        assert_eq!(json_of(&response).dump(), r#"{"status":"draining"}"#);
    }
}
