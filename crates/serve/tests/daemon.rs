//! End-to-end tests of the `milrd` daemon: a real subprocess (via
//! `CARGO_BIN_EXE_milrd`) on an ephemeral port, driven over real
//! sockets.
//!
//! The flagship assertion is *bit-identity*: rankings served over the
//! wire must equal an in-process [`QuerySession`] on the same snapshot
//! exactly — distances compared with `f64` equality, not tolerance —
//! which holds because training is deterministic and the JSON codec
//! prints `f64` with shortest-round-trip formatting.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use milr_baseline::feature_backend;
use milr_core::{QuerySession, RankRequest, RetrievalConfig, RetrievalDatabase};
use milr_imgproc::{pnm, GrayImage, Rect};
use milr_mil::{Bag, BagAggregator};
use milr_serve::{base64, client, Json};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Deterministic clustered test database: `images` bags of `instances`
/// instances, category `i % 4` centred at its own point so DD training
/// separates them quickly.
fn test_database(images: usize, dim: usize, instances: usize) -> RetrievalDatabase {
    let mut state = 0x243F_6A88_85A3_08D3_u64;
    let mut noise = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u32 << 24) as f32 // in [0, 1)
    };
    let mut bags = Vec::new();
    let mut labels = Vec::new();
    for i in 0..images {
        let category = i % 4;
        let instances: Vec<Vec<f32>> = (0..instances)
            .map(|_| {
                (0..dim)
                    .map(|d| {
                        let centre = if d % 4 == category { 2.0 } else { 0.0 };
                        centre + 0.3 * noise()
                    })
                    .collect()
            })
            .collect();
        bags.push(Bag::new(instances).expect("non-empty instances"));
        labels.push(category);
    }
    RetrievalDatabase::from_bags(bags, labels).expect("valid test database")
}

/// Writes `db` as a snapshot directory at `dir` (replacing whatever was
/// there) with `shard_capacity` bags per shard, exactly as `milr
/// preprocess` would.
fn write_snapshot(dir: &Path, db: &RetrievalDatabase, shard_capacity: usize) {
    let mut store = milr_store::ShardedDatabase::from_database(db, dir, shard_capacity)
        .expect("shard the test snapshot");
    store.flush().expect("flush the test snapshot");
}

/// The snapshot `dir` as an in-process database — the reference the
/// wire rankings are compared against.
fn load_database(dir: &Path) -> RetrievalDatabase {
    milr_store::load_snapshot(dir)
        .expect("load test snapshot")
        .database
}

/// Writes a one-shard test snapshot of `images` bags and returns its
/// directory.
fn snapshot_path(name: &str, images: usize) -> PathBuf {
    let path = std::env::temp_dir()
        .join("milrd_daemon_tests")
        .join(format!("{name}_{}", std::process::id()));
    write_snapshot(
        &path,
        &test_database(images, 16, 3),
        milr_store::DEFAULT_SHARD_CAPACITY,
    );
    path
}

/// A running `milrd` subprocess, killed on drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns `milrd --snapshot <snapshot> --addr 127.0.0.1:0 <extra>`
    /// and parses the bound address from its first stdout line.
    fn spawn(snapshot: &PathBuf, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_milrd"))
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn milrd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read milrd banner");
        // "milrd listening on 127.0.0.1:PORT (...)"
        let addr = line
            .split_whitespace()
            .nth(3)
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unexpected banner {line:?}"));
        Daemon { child, addr }
    }

    fn get(&self, target: &str) -> client::Response {
        client::get(self.addr, target, TIMEOUT).expect("GET")
    }

    fn post(&self, target: &str, body: &str) -> client::Response {
        client::request(self.addr, "POST", target, Some(body.as_bytes()), TIMEOUT).expect("POST")
    }

    /// Asks for a graceful drain and waits (bounded) for process exit.
    fn drain(mut self) {
        let response = self.post("/admin/shutdown", "");
        assert_eq!(response.status, 200);
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if self.child.try_wait().expect("try_wait").is_some() {
                return;
            }
            assert!(Instant::now() < deadline, "milrd did not drain in time");
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Extracts `(index, distance)` pairs from a response's `ranking` field.
fn ranking_of(json: &Json) -> Vec<(usize, f64)> {
    json.get("ranking")
        .and_then(Json::as_array)
        .expect("ranking array")
        .iter()
        .map(|row| {
            (
                row.get("index").and_then(Json::as_u64).expect("index") as usize,
                row.get("distance")
                    .and_then(Json::as_f64)
                    .expect("distance"),
            )
        })
        .collect()
}

#[test]
fn healthz_reports_the_snapshot() {
    let snapshot = snapshot_path("health", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);
    let response = daemon.get("/healthz");
    assert_eq!(response.status, 200);
    let json = response.json().unwrap();
    assert_eq!(json.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(json.get("images").unwrap().as_u64(), Some(24));
    assert_eq!(json.get("feature_dim").unwrap().as_u64(), Some(16));
    daemon.drain();
}

#[test]
fn multi_round_feedback_is_bit_identical_to_in_process() {
    let snapshot = snapshot_path("bitident", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);

    // In-process reference: same snapshot, same defaults as the daemon
    // (single-threaded — results are thread-count-invariant).
    let db = Arc::new(load_database(&snapshot));
    let config = Arc::new(RetrievalConfig {
        threads: 1,
        ..RetrievalConfig::default()
    });
    let pool: Vec<usize> = (0..db.len()).collect();
    let mut reference = QuerySession::builder(Arc::clone(&db))
        .config(Arc::clone(&config))
        .positives(vec![0, 4])
        .negatives(vec![1])
        .pool(pool.clone())
        .build()
        .unwrap();

    // Round 1: create the session, ask for the first page.
    let created = daemon.post("/sessions", r#"{"positives": [0, 4], "negatives": [1]}"#);
    assert_eq!(created.status, 201, "{:?}", created.body);
    let id = created.json().unwrap().get("id").unwrap().as_u64().unwrap();
    let page1 = daemon.post(&format!("/sessions/{id}/feedback"), r#"{"k": 12}"#);
    assert_eq!(page1.status, 200);
    reference.train_round().unwrap();
    let expected1 = reference.rank(&RankRequest::pool().top(12)).unwrap();
    assert_eq!(
        ranking_of(&page1.json().unwrap()),
        expected1,
        "round 1 must be bit-identical over the wire"
    );

    // Round 2: new marks on both sides, including a mind-change (index 4
    // positive -> negative).
    let page2 = daemon.post(
        &format!("/sessions/{id}/feedback"),
        r#"{"positives": [8], "negatives": [4, 2], "k": 12}"#,
    );
    assert_eq!(page2.status, 200);
    reference.add_positives(&[8]).unwrap();
    reference.add_negatives(&[4, 2]).unwrap();
    reference.train_round().unwrap();
    let expected2 = reference.rank(&RankRequest::pool().top(12)).unwrap();
    let json2 = page2.json().unwrap();
    assert_eq!(json2.get("round").unwrap().as_u64(), Some(2));
    assert_eq!(
        ranking_of(&json2),
        expected2,
        "round 2 must be bit-identical over the wire"
    );

    // Stateless /rank agrees with the same machinery.
    let rank = daemon.get("/rank?positives=0,4&negatives=1&k=12");
    assert_eq!(rank.status, 200);
    let concept = {
        let mut s = QuerySession::builder(Arc::clone(&db))
            .config(Arc::clone(&config))
            .positives(vec![0, 4])
            .negatives(vec![1])
            .pool(Vec::new())
            .build()
            .unwrap();
        s.train_round().unwrap();
        s.shared_concept().unwrap()
    };
    let via_db = db
        .rank(&concept, &RankRequest::all().top(12).threads(1))
        .unwrap();
    assert_eq!(ranking_of(&rank.json().unwrap()), via_db);

    daemon.drain();
}

#[test]
fn concurrent_rank_requests_all_succeed_and_hit_the_cache() {
    let snapshot = snapshot_path("concurrent", 32);
    let daemon = Daemon::spawn(&snapshot, &[]);

    // Warm the cache so the concurrent wave measures the hit path.
    let warm = daemon.get("/rank?positives=0,4&negatives=1&k=8");
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.json().unwrap().get("cache_hit").unwrap().as_bool(),
        Some(false)
    );

    let addr = daemon.addr;
    let clients: Vec<_> = (0..32)
        .map(|_| {
            std::thread::spawn(move || {
                // Same sets, different order: the canonical cache key
                // must make these identical.
                client::get(addr, "/rank?positives=4,0&negatives=1&k=8", TIMEOUT)
                    .expect("concurrent GET")
            })
        })
        .collect();
    let mut rankings = Vec::new();
    for handle in clients {
        let response = handle.join().expect("client thread");
        assert_eq!(response.status, 200, "no drops below the shed threshold");
        let json = response.json().unwrap();
        assert_eq!(json.get("cache_hit").unwrap().as_bool(), Some(true));
        rankings.push(ranking_of(&json));
    }
    assert!(rankings.windows(2).all(|w| w[0] == w[1]));

    let metrics = daemon.get("/metrics").json().unwrap();
    let cache = metrics.get("concept_cache").unwrap();
    assert!(
        cache.get("hits").unwrap().as_u64().unwrap() >= 32,
        "metrics must show the concept-cache hits"
    );
    assert_eq!(metrics.get("shed_total").unwrap().as_u64(), Some(0));
    daemon.drain();
}

/// `(thread, start_ns, end_ns)` of every `store.rank` span (one per
/// ranked page) in the daemon's `/trace`.
fn rank_scans(daemon: &Daemon) -> Vec<(u64, u64, u64)> {
    let trace = daemon.get("/trace?n=100000").json().unwrap();
    let field = |span: &Json, key: &str| span.get(key).and_then(Json::as_u64).expect(key);
    trace
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .iter()
        .filter(|span| span.get("name").and_then(Json::as_str) == Some("store.rank"))
        .map(|span| {
            let start = field(span, "start_us") * 1000;
            (field(span, "thread"), start, start + field(span, "dur_ns"))
        })
        .collect()
}

#[test]
fn cache_hit_ranks_on_two_workers_overlap_in_time() {
    // The daemon ranks with one thread per request, so two workers must
    // scan two cache-hit pages at once; a daemon-wide lock around the
    // scan would keep every pair of `store.rank` spans disjoint.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: needs at least two cores");
        return;
    }
    // Large enough that one scan lasts well beyond the trace's 1 µs
    // start resolution.
    let snapshot = snapshot_path("overlap", 2000);
    let daemon = Daemon::spawn(&snapshot, &["--workers", "2"]);
    const TARGET: &str = "/rank?positives=0,4&negatives=1&k=16";
    assert_eq!(daemon.get(TARGET).status, 200, "warm the concept cache");

    let addr = daemon.addr;
    let mut scans = Vec::new();
    let mut overlapped = false;
    for _round in 0..10 {
        let start = Arc::new(std::sync::Barrier::new(2));
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut conn = client::Connection::new(addr, TIMEOUT);
                    start.wait();
                    for _ in 0..50 {
                        let response = conn.get(TARGET).expect("keep-alive rank");
                        assert_eq!(response.status, 200);
                        let json = response.json().unwrap();
                        assert_eq!(json.get("cache_hit").and_then(Json::as_bool), Some(true));
                    }
                })
            })
            .collect();
        for handle in clients {
            handle.join().expect("client thread");
        }
        scans = rank_scans(&daemon);
        // Starts are truncated to the microsecond, so two spans count as
        // overlapping only when they share more than that.
        overlapped = scans.iter().any(|a| {
            scans
                .iter()
                .any(|b| a.0 != b.0 && a.2.min(b.2) > a.1.max(b.1) + 1000)
        });
        if overlapped {
            break;
        }
    }
    let threads: std::collections::BTreeSet<u64> = scans.iter().map(|s| s.0).collect();
    assert!(
        overlapped,
        "no two of {} cache-hit scans overlapped (scan threads: {threads:?})",
        scans.len()
    );
    daemon.drain();
}

#[test]
fn overload_sheds_with_503_not_timeouts() {
    let snapshot = snapshot_path("shed", 24);
    let daemon = Daemon::spawn(
        &snapshot,
        &["--workers", "1", "--queue-depth", "2", "--debug-endpoints"],
    );
    let addr = daemon.addr;

    // Pin the lone worker, then give it a moment to dequeue the sleeper.
    let sleeper =
        std::thread::spawn(move || client::get(addr, "/debug/sleep?ms=2000", TIMEOUT).unwrap());
    std::thread::sleep(Duration::from_millis(300));

    let flood: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || client::get(addr, "/healthz", TIMEOUT).unwrap()))
        .collect();
    let statuses: Vec<u16> = flood
        .into_iter()
        .map(|h| h.join().expect("flood thread").status)
        .collect();
    assert!(
        statuses.iter().all(|&s| s == 200 || s == 503),
        "only 200 or 503 allowed, got {statuses:?}"
    );
    assert!(
        statuses.contains(&503),
        "queue depth 2 must shed some of 8 requests: {statuses:?}"
    );
    assert!(
        statuses.contains(&200),
        "queued requests must still be served: {statuses:?}"
    );
    assert_eq!(sleeper.join().expect("sleeper").status, 200);

    let metrics = daemon.get("/metrics").json().unwrap();
    assert!(metrics.get("shed_total").unwrap().as_u64().unwrap() >= 1);
    daemon.drain();
}

#[test]
fn overload_sheds_uncached_rank_but_serves_the_cached_one() {
    let snapshot = snapshot_path("priority_shed", 24);
    // Threshold = ceil(0.25 * 8) = 2 queued connections; the accept
    // queue itself (8) never fills, so plain shed_total stays 0 and any
    // 503 here is the priority path.
    let daemon = Daemon::spawn(
        &snapshot,
        &[
            "--workers",
            "1",
            "--queue-depth",
            "8",
            "--priority-shed-fill",
            "0.25",
            "--debug-endpoints",
        ],
    );
    let addr = daemon.addr;

    // Train the cacheable concept while the daemon is idle.
    let warm = daemon.get("/rank?positives=0,4&negatives=1&k=8");
    assert_eq!(warm.status, 200);
    let unloaded_page = ranking_of(&warm.json().unwrap());

    // Pin the lone worker, then park a queue: the two ranks go in first,
    // with filler requests behind them so the queue is still past the
    // threshold when the worker gets to each rank.
    let sleeper =
        std::thread::spawn(move || client::get(addr, "/debug/sleep?ms=2000", TIMEOUT).unwrap());
    std::thread::sleep(Duration::from_millis(300));
    let uncached =
        std::thread::spawn(move || client::get(addr, "/rank?positives=1,5&negatives=0", TIMEOUT));
    std::thread::sleep(Duration::from_millis(150));
    let cached = std::thread::spawn(move || {
        client::get(addr, "/rank?positives=0,4&negatives=1&k=8", TIMEOUT)
    });
    std::thread::sleep(Duration::from_millis(150));
    let fillers: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || client::get(addr, "/healthz", TIMEOUT).unwrap()))
        .collect();

    // The uncached rank would buy a DD training run — shed with 503.
    let response = uncached.join().expect("uncached thread").expect("response");
    assert_eq!(response.status, 503, "uncached rank must be shed first");
    assert!(
        String::from_utf8_lossy(&response.body).contains("shed"),
        "priority shed response must say so"
    );
    // The cached rank is one bounded scan — served, and bit-identical to
    // the unloaded page.
    let response = cached.join().expect("cached thread").expect("response");
    assert_eq!(response.status, 200, "cached rank must survive overload");
    let json = response.json().unwrap();
    assert_eq!(json.get("cache_hit").unwrap().as_bool(), Some(true));
    assert_eq!(ranking_of(&json), unloaded_page);
    for filler in fillers {
        assert_eq!(filler.join().expect("filler").status, 200);
    }
    assert_eq!(sleeper.join().expect("sleeper").status, 200);

    let metrics = daemon.get("/metrics").json().unwrap();
    assert!(
        metrics
            .get("priority_shed_total")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1,
        "priority shed must be counted"
    );
    assert_eq!(
        metrics.get("shed_total").unwrap().as_u64(),
        Some(0),
        "the accept queue never filled — every 503 is the priority path"
    );
    daemon.drain();
}

#[test]
fn protocol_violations_get_4xx_never_a_hang() {
    let snapshot = snapshot_path("protocol", 24);
    let daemon = Daemon::spawn(&snapshot, &["--max-body", "512"]);

    // Unknown route and method mismatch.
    assert_eq!(daemon.get("/nosuch").status, 404);
    assert_eq!(daemon.post("/healthz", "").status, 405);
    assert_eq!(daemon.get("/sessions/notanumber").status, 404);
    assert_eq!(daemon.get("/sessions/99").status, 404);

    // Malformed JSON bodies.
    assert_eq!(daemon.post("/sessions", "{not json").status, 400);
    assert_eq!(
        daemon.post("/sessions", r#"{"positives": "zero"}"#).status,
        400
    );
    // Valid JSON, invalid arguments.
    assert_eq!(
        daemon.post("/sessions", r#"{"negatives": [1]}"#).status,
        400
    );
    assert_eq!(
        daemon.post("/sessions", r#"{"positives": [9999]}"#).status,
        400
    );
    assert_eq!(
        daemon.get("/rank?positives=0&policy=frobnicate").status,
        400
    );
    assert_eq!(daemon.get("/rank?positives=abc").status, 400);
    assert_eq!(daemon.get("/rank?positives=").status, 400);

    // Declared body above the --max-body limit.
    let oversized = daemon.post("/sessions", &format!("{{\"x\": \"{}\"}}", "y".repeat(2048)));
    assert_eq!(oversized.status, 413);

    // Raw garbage instead of HTTP.
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    assert!(
        String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 400"),
        "garbage must get 400, got {:?}",
        String::from_utf8_lossy(&raw)
    );

    // Truncated request: half a head, then EOF on the write side.
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost:").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    assert!(
        String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 400"),
        "truncated head must get 400, got {:?}",
        String::from_utf8_lossy(&raw)
    );

    // The daemon survived all of it.
    assert_eq!(daemon.get("/healthz").status, 200);
    daemon.drain();
}

#[test]
fn a_page_size_past_the_corpus_returns_every_bag() {
    // A `k` from the wire must never size an allocation: uncapped, the
    // top-k heap of this request alone asked for 16 TB and aborted the
    // process.
    let snapshot = snapshot_path("huge_k", 20);
    let daemon = Daemon::spawn(&snapshot, &[]);
    let every_bag = |response: &client::Response| {
        assert_eq!(
            response.status,
            200,
            "{}",
            String::from_utf8_lossy(&response.body)
        );
        let mut indices: Vec<usize> = ranking_of(&response.json().unwrap())
            .into_iter()
            .map(|(index, _)| index)
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..20).collect::<Vec<_>>());
    };
    for k in [1_000_000_000_000, usize::MAX] {
        every_bag(&daemon.get(&format!("/rank?positives=0,1&k={k}")));
    }
    let created = daemon.post("/sessions", r#"{"positives": [0, 1]}"#);
    assert_eq!(created.status, 201);
    let id = created.json().unwrap().get("id").unwrap().as_u64().unwrap();
    every_bag(&daemon.post(
        &format!("/sessions/{id}/feedback"),
        r#"{"k": 1000000000000}"#,
    ));
    assert_eq!(daemon.get("/healthz").status, 200);
    daemon.drain();
}

#[test]
fn sessions_expire_after_their_ttl() {
    let snapshot = snapshot_path("ttl", 24);
    let daemon = Daemon::spawn(&snapshot, &["--session-ttl-s", "1"]);
    let created = daemon.post("/sessions", r#"{"positives": [0]}"#);
    assert_eq!(created.status, 201);
    let id = created.json().unwrap().get("id").unwrap().as_u64().unwrap();
    assert_eq!(daemon.get(&format!("/sessions/{id}")).status, 200);
    std::thread::sleep(Duration::from_millis(1600));
    assert_eq!(
        daemon.get(&format!("/sessions/{id}")).status,
        404,
        "session must expire after its TTL"
    );
    let metrics = daemon.get("/metrics").json().unwrap();
    let sessions = metrics.get("sessions").unwrap();
    assert_eq!(sessions.get("expired_total").unwrap().as_u64(), Some(1));
    daemon.drain();
}

#[test]
fn expired_sessions_are_reclaimed_without_traffic() {
    // No request touches the session store between the create and the
    // scrape (`/metrics` reads it without sweeping), so only the daemon's
    // own background sweep can have reclaimed the session.
    let snapshot = snapshot_path("idle_sweep", 24);
    let daemon = Daemon::spawn(&snapshot, &["--session-ttl-s", "1"]);
    let created = daemon.post("/sessions", r#"{"positives": [0]}"#);
    assert_eq!(created.status, 201);
    std::thread::sleep(Duration::from_millis(1600));
    let metrics = daemon.get("/metrics").json().unwrap();
    let sessions = metrics.get("sessions").unwrap();
    assert_eq!(sessions.get("active").unwrap().as_u64(), Some(0));
    assert_eq!(sessions.get("expired_total").unwrap().as_u64(), Some(1));
    daemon.drain();
}

#[test]
fn session_crud_works_over_the_wire() {
    let snapshot = snapshot_path("crud", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);
    let created = daemon.post("/sessions", r#"{"positives": [0, 4], "negatives": [1]}"#);
    assert_eq!(created.status, 201);
    let id = created.json().unwrap().get("id").unwrap().as_u64().unwrap();

    let info = daemon.get(&format!("/sessions/{id}")).json().unwrap();
    let positives: Vec<u64> = info
        .get("positives")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    assert_eq!(positives, vec![0, 4]);
    assert_eq!(info.get("rounds_run").unwrap().as_u64(), Some(0));

    let deleted = client::request(
        daemon.addr,
        "DELETE",
        &format!("/sessions/{id}"),
        None,
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(deleted.status, 200);
    assert_eq!(daemon.get(&format!("/sessions/{id}")).status, 404);
    daemon.drain();
}

#[test]
fn metrics_render_as_prometheus_text_on_request() {
    let snapshot = snapshot_path("prom", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);
    // Generate some traffic so counters and latency series exist.
    assert_eq!(daemon.get("/healthz").status, 200);
    assert_eq!(
        daemon.get("/rank?positives=0,4&negatives=1&k=5").status,
        200
    );

    // Default shape stays JSON (back-compat for the chaos suite).
    let json = daemon.get("/metrics").json().unwrap();
    assert!(json.get("accepted_total").unwrap().as_u64().unwrap() >= 2);
    // The training block counts the ascents that ran out of budget.
    let train = json.get("train").expect("train block");
    assert!(train.get("capped_total").and_then(Json::as_u64).is_some());

    let prom = daemon.get("/metrics?format=prometheus");
    assert_eq!(prom.status, 200);
    let text = std::str::from_utf8(&prom.body).expect("prometheus body is UTF-8");
    assert!(text.parse::<f64>().is_err(), "text exposition, not JSON");
    assert!(
        text.contains("milrd_connections_total{outcome=\"accepted\"}"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE milrd_request_latency_us histogram"),
        "{text}"
    );
    assert!(
        text.contains("milrd_request_latency_us_bucket{endpoint=\"/rank\",le=\""),
        "{text}"
    );
    // Engine metrics from the process-wide registry ride along: the /rank
    // request above trained a concept and ranked the store.
    assert!(text.contains("milr_multistart_starts_total"), "{text}");
    assert!(text.contains("milr_multistart_capped_total"), "{text}");
    assert!(text.contains("milr_store_rank_latency_us"), "{text}");
    daemon.drain();
}

#[test]
fn trace_returns_recent_spans_as_json() {
    let snapshot = snapshot_path("trace", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);
    assert_eq!(
        daemon.get("/rank?positives=0,4&negatives=1&k=5").status,
        200
    );
    let response = daemon.get("/trace?n=512");
    assert_eq!(response.status, 200);
    let spans = response
        .json()
        .unwrap()
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .to_vec();
    assert!(!spans.is_empty(), "the /rank request must have left spans");
    let names: Vec<String> = spans
        .iter()
        .map(|s| {
            s.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(names.iter().any(|n| n == "serve.request"), "{names:?}");
    assert!(names.iter().any(|n| n == "train.dd"), "{names:?}");
    assert!(
        spans
            .iter()
            .all(|s| s.get("dur_ns").and_then(Json::as_f64).is_some()),
        "every span carries a duration"
    );
    // The n cap is honoured.
    let capped = daemon.get("/trace?n=1").json().unwrap();
    assert!(capped.get("spans").and_then(Json::as_array).unwrap().len() <= 1);
    daemon.drain();
}

#[test]
fn sharded_snapshot_serves_bit_identically_to_monolithic() {
    // The same database, served once from a one-shard directory and
    // once from a five-shard one: the wire rankings must be identical.
    let snapshot = snapshot_path("shardeq_mono", 24);
    let dir = std::env::temp_dir()
        .join("milrd_daemon_tests")
        .join(format!("shardeq_sharded_{}", std::process::id()));
    write_snapshot(&dir, &load_database(&snapshot), 5);

    let mono = Daemon::spawn(&snapshot, &[]);
    let sharded = Daemon::spawn(&dir, &[]);

    let health = mono.get("/healthz").json().unwrap();
    assert_eq!(health.get("shards").unwrap().as_u64(), Some(1));
    let health = sharded.get("/healthz").json().unwrap();
    assert_eq!(health.get("images").unwrap().as_u64(), Some(24));
    assert_eq!(health.get("shards").unwrap().as_u64(), Some(5));
    assert_eq!(health.get("generation").unwrap().as_u64(), Some(1));

    let target = "/rank?positives=0,4&negatives=1&k=12";
    let from_mono = ranking_of(&mono.get(target).json().unwrap());
    let from_sharded = ranking_of(&sharded.get(target).json().unwrap());
    assert_eq!(
        from_sharded, from_mono,
        "sharded serving must be bit-identical over the wire"
    );

    // The daemon ranks the sealed shards in place, so one cache-hit page
    // engages the i8 screen.
    let rank_counter = |key: &str| {
        let metrics = sharded.get("/metrics").json().unwrap();
        metrics
            .get("rank")
            .and_then(|r| r.get(key))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let screened = rank_counter("quant_screened_total") + rank_counter("quant_rescored_total");
    let hit = sharded
        .get("/rank?positives=0,4&negatives=1&k=3")
        .json()
        .unwrap();
    assert_eq!(hit.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert!(
        rank_counter("quant_screened_total") + rank_counter("quant_rescored_total") > screened,
        "the i8 screen never ran"
    );

    mono.drain();
    sharded.drain();
    std::fs::remove_dir_all(&snapshot).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Peak resident set (`VmHWM`, bytes) of a running process.
#[cfg(target_os = "linux")]
fn peak_rss_bytes(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    let kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line");
    kb * 1024
}

#[test]
#[cfg(target_os = "linux")]
fn serving_holds_one_copy_of_the_corpus() {
    // The daemon ranks the store in place. A second in-memory copy of
    // the corpus (say, a monolithic database built next to the shards)
    // would roughly double the peak resident set's growth with corpus
    // size; one copy grows it by the snapshot's bytes plus the screen's
    // transposed codes. Differencing two corpus sizes cancels the
    // binary's fixed footprint.
    let dir = std::env::temp_dir()
        .join("milrd_daemon_tests")
        .join(format!("one_copy_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Eight instances a bag fill the screen's 8-lane groups exactly (no
    // padding in the mirror); 64-bag shards keep the index builds of a
    // debug test binary cheap.
    let peak_and_bytes = |images: usize| {
        let path = dir.join(format!("n{images}"));
        let mut store =
            milr_store::ShardedDatabase::from_database(&test_database(images, 16, 8), &path, 64)
                .unwrap();
        store.flush().unwrap();
        let bytes: u64 = std::fs::read_dir(&path)
            .unwrap()
            .map(|entry| entry.unwrap().metadata().unwrap().len())
            .sum();
        let daemon = Daemon::spawn(&path, &[]);
        let peak = peak_rss_bytes(daemon.child.id());
        daemon.drain();
        (peak as f64, bytes as f64)
    };
    let (small_peak, small_bytes) = peak_and_bytes(6_000);
    let (large_peak, large_bytes) = peak_and_bytes(18_000);
    let ratio = (large_peak - small_peak) / (large_bytes - small_bytes);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        ratio <= 1.6,
        "peak RSS grew {ratio:.2}× the snapshot bytes ({small_peak} → {large_peak} B peak for \
         {small_bytes} → {large_bytes} B on disk)"
    );
}

#[test]
fn snapshot_reload_swaps_epochs_without_dropping_requests() {
    // The hot-reload contract: while clients hammer the daemon, the
    // snapshot is rewritten and reloaded live — every request (old epoch
    // or new) must succeed; zero errors, zero connection resets.
    let snapshot = snapshot_path("reload", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);

    let before = daemon.get("/healthz").json().unwrap();
    assert_eq!(before.get("images").unwrap().as_u64(), Some(24));
    assert_eq!(before.get("generation").unwrap().as_u64(), Some(1));

    // Reloading is refused gracefully mid-flood? No — milrd always has a
    // snapshot path, so reload is enabled; flood while swapping.
    let addr = daemon.addr;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut completed = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let health = client::get(addr, "/healthz", TIMEOUT)
                        .expect("no connection may be reset during reload");
                    assert_eq!(health.status, 200, "no errors during reload");
                    let rank = client::get(addr, "/rank?positives=0,4&negatives=1&k=6", TIMEOUT)
                        .expect("no connection may be reset during reload");
                    assert_eq!(rank.status, 200, "no errors during reload");
                    completed += 2;
                }
                completed
            })
        })
        .collect();

    // Swap the snapshot under the daemon several times: grow it to 32
    // images, then 40, reloading after each rewrite. Each rebuilt
    // manifest restarts at generation 1; the daemon keeps its own
    // generation monotonic.
    for (generation, images) in [(2u64, 32usize), (3, 40)] {
        std::thread::sleep(Duration::from_millis(150));
        write_snapshot(
            &snapshot,
            &test_database(images, 16, 3),
            milr_store::DEFAULT_SHARD_CAPACITY,
        );
        let reload = daemon.post("/snapshot/reload", "");
        assert_eq!(reload.status, 200, "{:?}", reload.body);
        let json = reload.json().unwrap();
        assert_eq!(json.get("images").unwrap().as_u64(), Some(images as u64));
        assert_eq!(json.get("generation").unwrap().as_u64(), Some(generation));
    }
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = clients
        .into_iter()
        .map(|h| h.join().expect("no client thread may panic"))
        .sum();
    assert!(total > 0, "the flood must have exercised the daemon");

    // The new epoch serves, and the books balance: every accepted
    // connection was completed (no read errors, closes, or sheds).
    let after = daemon.get("/healthz").json().unwrap();
    assert_eq!(after.get("images").unwrap().as_u64(), Some(40));
    assert_eq!(after.get("generation").unwrap().as_u64(), Some(3));
    let metrics = daemon.get("/metrics").json().unwrap();
    assert_eq!(metrics.get("read_error_total").unwrap().as_u64(), Some(0));
    assert_eq!(metrics.get("shed_total").unwrap().as_u64(), Some(0));
    assert_eq!(
        metrics.get("deadline_shed_total").unwrap().as_u64(),
        Some(0)
    );
    daemon.drain();
}

#[test]
fn snapshot_watcher_reloads_automatically() {
    let snapshot = snapshot_path("watch", 24);
    let daemon = Daemon::spawn(
        &snapshot,
        &["--watch-snapshot", "--watch-interval-ms", "50"],
    );
    assert_eq!(
        daemon
            .get("/healthz")
            .json()
            .unwrap()
            .get("images")
            .unwrap()
            .as_u64(),
        Some(24)
    );
    // Rewrite the snapshot; the watcher must pick it up by itself.
    std::thread::sleep(Duration::from_millis(120));
    write_snapshot(
        &snapshot,
        &test_database(32, 16, 3),
        milr_store::DEFAULT_SHARD_CAPACITY,
    );
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let health = daemon.get("/healthz").json().unwrap();
        if health.get("images").unwrap().as_u64() == Some(32) {
            assert!(health.get("generation").unwrap().as_u64().unwrap() >= 2);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never reloaded the snapshot"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    daemon.drain();
}

#[test]
fn keepalive_connection_is_bit_identical_to_fresh_connections_across_reload() {
    // One keep-alive connection interleaving cache misses (train) and
    // cache hits must see exactly the pages a fresh connection sees —
    // before, during, and after a live snapshot reload — without ever
    // redialling.
    let snapshot = snapshot_path("keepalive_identity", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);
    let t0 = "/rank?positives=0,4&negatives=1&k=12";
    let t1 = "/rank?positives=1,5&negatives=2&k=12";
    let t2 = "/rank?positives=2,6&negatives=3&k=12";

    let mut conn = client::Connection::new(daemon.addr, TIMEOUT);
    // Misses first on the keep-alive socket: t0/t1 train here, then the
    // fresh one-shot connections must reproduce them from the cache.
    let ka_t0 = {
        let response = conn.get(t0).expect("keep-alive rank");
        assert_eq!(response.status, 200);
        ranking_of(&response.json().unwrap())
    };
    let ka_t1 = {
        let response = conn.get(t1).expect("keep-alive rank");
        assert_eq!(response.status, 200);
        ranking_of(&response.json().unwrap())
    };
    assert_eq!(
        ranking_of(&daemon.get(t0).json().unwrap()),
        ka_t0,
        "fresh connection must reproduce the keep-alive-trained page"
    );
    assert_eq!(
        ranking_of(&daemon.get(t1).json().unwrap()),
        ka_t1,
        "fresh connection must reproduce the keep-alive-trained page"
    );
    // Miss on a fresh connection, hit on the keep-alive socket: the
    // other direction of the same identity.
    let fresh_t2 = ranking_of(&daemon.get(t2).json().unwrap());
    let response = conn.get(t2).expect("keep-alive rank");
    assert_eq!(response.status, 200);
    let body = response.json().unwrap();
    assert_eq!(body.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(ranking_of(&body), fresh_t2);
    assert_eq!(conn.dials(), 1, "an idle daemon must keep the socket open");

    // Live reload through the same keep-alive socket; the connection
    // survives and serves the new epoch bit-identically to a fresh one.
    write_snapshot(
        &snapshot,
        &test_database(32, 16, 3),
        milr_store::DEFAULT_SHARD_CAPACITY,
    );
    let reload = conn
        .request("POST", "/snapshot/reload", None)
        .expect("reload over keep-alive");
    assert_eq!(reload.status, 200, "{:?}", reload.body);
    assert_eq!(
        reload.json().unwrap().get("images").and_then(Json::as_u64),
        Some(32)
    );
    let after = conn.get(t0).expect("rank on the new epoch");
    assert_eq!(after.status, 200);
    let ka_after = ranking_of(&after.json().unwrap());
    assert_eq!(
        ranking_of(&daemon.get(t0).json().unwrap()),
        ka_after,
        "new-epoch pages must match across connection styles"
    );
    assert_ne!(
        ka_after, ka_t0,
        "the reload must actually have swapped epochs"
    );
    assert_eq!(
        conn.dials(),
        1,
        "cached and uncached ranks, a reload, and an epoch swap must all \
         ride one TCP connection"
    );

    let metrics = daemon.get("/metrics").json().unwrap();
    let reused = metrics
        .get("keepalive_reused_total")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        reused >= 4,
        "reuse counter must reflect the shared socket: {reused}"
    );
    daemon.drain();
}

#[test]
fn mixed_aggregators_on_one_keepalive_socket_never_cross_contaminate() {
    // Every fold shares one cached concept: a keep-alive socket
    // interleaving min-distance and logsumexp requests — and a
    // concurrent wave racing both folds — must always get each
    // aggregator's own page, bit for bit.
    const MIN: &str = "/rank?positives=0,4&negatives=1&k=12";
    const LSE: &str = "/rank?positives=0,4&negatives=1&k=12&aggregator=logsumexp";
    let snapshot = snapshot_path("mixed_agg", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);

    // Fresh-connection references, one per aggregator.
    let min_page = ranking_of(&daemon.get(MIN).json().unwrap());
    let lse_body = daemon.get(LSE).json().unwrap();
    assert_eq!(
        lse_body.get("aggregator").and_then(Json::as_str),
        Some("logsumexp"),
        "{}",
        lse_body.dump()
    );
    let lse_page = ranking_of(&lse_body);
    assert_ne!(
        min_page, lse_page,
        "multi-instance bags must fold to different distances"
    );

    // Interleave the folds on one keep-alive socket, never redialling.
    let mut conn = client::Connection::new(daemon.addr, TIMEOUT);
    for turn in 0..6 {
        let (target, expected, label) = if turn % 2 == 0 {
            (MIN, &min_page, "min-distance")
        } else {
            (LSE, &lse_page, "logsumexp")
        };
        let response = conn.get(target).expect("keep-alive rank");
        assert_eq!(response.status, 200, "turn {turn}");
        let json = response.json().unwrap();
        assert_eq!(
            json.get("aggregator").and_then(Json::as_str),
            Some(label),
            "turn {turn} echoed the wrong aggregator: {}",
            json.dump()
        );
        assert_eq!(
            &ranking_of(&json),
            expected,
            "turn {turn}: the {label} page was contaminated by the other fold"
        );
    }
    assert_eq!(conn.dials(), 1, "the interleaving must ride one socket");

    // A concurrent wave racing both folds through the shared cache:
    // every response matches its own reference exactly.
    let addr = daemon.addr;
    let wave: Vec<_> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                let target = if i % 2 == 0 { MIN } else { LSE };
                (i, client::get(addr, target, TIMEOUT).expect("wave GET"))
            })
        })
        .collect();
    for handle in wave {
        let (i, response) = handle.join().expect("wave thread");
        assert_eq!(response.status, 200, "request {i}");
        let expected = if i % 2 == 0 { &min_page } else { &lse_page };
        assert_eq!(
            &ranking_of(&response.json().unwrap()),
            expected,
            "concurrent request {i} mixed folds"
        );
    }
    daemon.drain();
}

/// Deterministic striped gray image for the region e2e: category
/// `index % 4` picks the stripe direction and pitch. Pixels are
/// integer-valued so the 8-bit PGM upload round-trips bit-exactly —
/// the daemon featurises exactly the image the test featurises.
fn test_image(index: usize) -> GrayImage {
    let category = index % 4;
    GrayImage::from_fn(24, 18, |x, y| {
        ((x * (3 + 2 * category) + y * (11 - 2 * category) + 17 * index) * 13 % 256) as f32
    })
    .expect("valid dimensions")
}

/// Encodes a gray image as the wire's base64 binary PGM.
fn pgm_b64(image: &GrayImage) -> String {
    let mut bytes = Vec::new();
    pnm::write_pgm(image, &mut bytes).expect("encode PGM");
    base64::encode(&bytes)
}

#[test]
fn region_rank_and_feedback_rounds_are_bit_identical_over_the_wire() {
    // The Luo & Nascimento sub-image scenario end to end: a region of
    // interest uploaded as base64 PGM, featurised by the snapshot's
    // backend, trained, ranked under a non-default aggregator — then
    // refined over feedback rounds carrying further region uploads.
    // Every page must equal an in-process session on the same snapshot
    // bit for bit.
    let config = RetrievalConfig {
        threads: 1,
        ..RetrievalConfig::default()
    };
    let backend = feature_backend("gray-block").expect("registry lists gray-block");
    let images: Vec<GrayImage> = (0..16).map(test_image).collect();
    let bags: Vec<Bag> = images
        .iter()
        .map(|image| backend.gray_bag(image, &config).expect("featurise"))
        .collect();
    let labels: Vec<usize> = (0..images.len()).map(|i| i % 4).collect();
    let snapshot = std::env::temp_dir()
        .join("milrd_daemon_tests")
        .join(format!("region_{}", std::process::id()));
    write_snapshot(
        &snapshot,
        &RetrievalDatabase::from_bags(bags, labels).expect("valid corpus"),
        milr_store::DEFAULT_SHARD_CAPACITY,
    );
    let daemon = Daemon::spawn(&snapshot, &[]);

    let db = Arc::new(load_database(&snapshot));
    let config = Arc::new(config);
    let pool: Vec<usize> = (0..db.len()).collect();

    // The query region: a centred crop of image 0, cropped *before*
    // featurisation on both sides of the wire.
    let roi = Rect::new(4, 3, 16, 12);
    let roi_json = r#"{"x": 4, "y": 3, "width": 16, "height": 12}"#;
    let query_pgm = pgm_b64(&images[0]);
    let query_bag = backend
        .gray_bag(&images[0].crop(roi).expect("roi fits"), &config)
        .expect("featurise region");

    // Stateless POST /rank under logsumexp, vs the in-process session.
    let (expected_page, expected_nldd) = {
        let mut session = QuerySession::builder(Arc::clone(&db))
            .config(Arc::clone(&config))
            .positives(Vec::new())
            .negatives(vec![1, 2, 3])
            .pool(pool.clone())
            .build()
            .unwrap();
        session.add_positive_bag(query_bag.clone()).unwrap();
        session.train_round().unwrap();
        let page = session
            .rank(
                &RankRequest::pool()
                    .top(10)
                    .aggregator(BagAggregator::LogSumExp),
            )
            .unwrap();
        (page, session.nldd())
    };
    let body = format!(
        r#"{{"image_pgm": "{query_pgm}", "roi": {roi_json}, "negatives": [1, 2, 3], "k": 10, "aggregator": "logsumexp"}}"#
    );
    let response = daemon.post("/rank", &body);
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    let json = response.json().unwrap();
    assert_eq!(
        json.get("aggregator").and_then(Json::as_str),
        Some("logsumexp")
    );
    assert_eq!(
        json.get("backend").and_then(Json::as_str),
        Some("gray-block"),
        "the response must name the snapshot's backend: {}",
        json.dump()
    );
    assert_eq!(
        ranking_of(&json),
        expected_page,
        "the region page must be bit-identical over the wire"
    );
    assert_eq!(
        json.get("nldd").and_then(Json::as_f64).unwrap().to_bits(),
        expected_nldd.to_bits(),
        "the trained concept must be bit-identical over the wire"
    );

    // Malformed region queries are client errors, not daemon faults.
    assert_eq!(daemon.post("/rank", r#"{"k": 5}"#).status, 400);
    let bad_roi = format!(
        r#"{{"image_pgm": "{query_pgm}", "roi": {{"x": 16, "y": 12, "width": 16, "height": 12}}}}"#
    );
    assert_eq!(daemon.post("/rank", &bad_roi).status, 400);
    let bad_agg = format!(r#"{{"image_pgm": "{query_pgm}", "aggregator": "softmax"}}"#);
    assert_eq!(daemon.post("/rank", &bad_agg).status, 400);

    // Feedback rounds over the wire: a session created from the same
    // region. The daemon warm-starts sessions by default, so the
    // reference session must too.
    let created = daemon.post(
        "/sessions",
        &format!(
            r#"{{"positive_regions": [{{"image_pgm": "{query_pgm}", "roi": {roi_json}}}], "negatives": [1, 2, 3]}}"#
        ),
    );
    assert_eq!(
        created.status,
        201,
        "{}",
        String::from_utf8_lossy(&created.body)
    );
    let id = created.json().unwrap().get("id").unwrap().as_u64().unwrap();

    let mut reference = QuerySession::builder(Arc::clone(&db))
        .config(Arc::clone(&config))
        .positives(Vec::new())
        .negatives(vec![1, 2, 3])
        .pool(pool)
        .warm_start(true)
        .build()
        .unwrap();
    reference.add_positive_bag(query_bag).unwrap();

    // Round 1: cold — a session holding an external bag has no index
    // identity, so it trains for itself.
    let page1 = daemon.post(&format!("/sessions/{id}/feedback"), r#"{"k": 10}"#);
    assert_eq!(
        page1.status,
        200,
        "{}",
        String::from_utf8_lossy(&page1.body)
    );
    reference.train_round().unwrap();
    let expected1 = reference.rank(&RankRequest::pool().top(10)).unwrap();
    let json1 = page1.json().unwrap();
    assert_eq!(json1.get("warm").and_then(Json::as_bool), Some(false));
    assert_eq!(
        ranking_of(&json1),
        expected1,
        "feedback round 1 must be bit-identical over the wire"
    );

    // Round 2: an index mark plus another region upload (whole image 5
    // as a negative), page requested under logsumexp — warm retrain.
    let extra_pgm = pgm_b64(&images[5]);
    let page2 = daemon.post(
        &format!("/sessions/{id}/feedback"),
        &format!(
            r#"{{"negatives": [7], "negative_regions": [{{"image_pgm": "{extra_pgm}"}}], "k": 10, "aggregator": "logsumexp"}}"#
        ),
    );
    assert_eq!(
        page2.status,
        200,
        "{}",
        String::from_utf8_lossy(&page2.body)
    );
    reference.add_negatives(&[7]).unwrap();
    reference
        .add_negative_bag(backend.gray_bag(&images[5], &config).unwrap())
        .unwrap();
    reference.train_round().unwrap();
    let expected2 = reference
        .rank(
            &RankRequest::pool()
                .top(10)
                .aggregator(BagAggregator::LogSumExp),
        )
        .unwrap();
    let json2 = page2.json().unwrap();
    assert_eq!(json2.get("round").and_then(Json::as_u64), Some(2));
    assert_eq!(json2.get("warm").and_then(Json::as_bool), Some(true));
    assert_eq!(
        json2.get("aggregator").and_then(Json::as_str),
        Some("logsumexp")
    );
    assert_eq!(
        ranking_of(&json2),
        expected2,
        "feedback round 2 must be bit-identical over the wire"
    );
    daemon.drain();
}

#[test]
fn pipelined_requests_get_ordered_responses_on_one_socket() {
    // Three requests written in one burst before reading anything:
    // HTTP/1.1 pipelining. The daemon must answer all three, in order,
    // on the same socket.
    let snapshot = snapshot_path("pipeline", 24);
    let daemon = Daemon::spawn(&snapshot, &[]);
    let request =
        |target: &str| format!("GET {target} HTTP/1.1\r\nHost: milrd\r\nContent-Length: 0\r\n\r\n");
    let burst = format!(
        "{}{}{}",
        request("/healthz"),
        request("/rank?positives=0,4&negatives=1&k=6"),
        request("/healthz"),
    );

    let mut stream = TcpStream::connect(daemon.addr).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream.write_all(burst.as_bytes()).expect("write burst");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("read all responses");
    let text = String::from_utf8_lossy(&response);

    assert_eq!(
        text.matches("HTTP/1.1 200").count(),
        3,
        "all three pipelined requests must be answered: {text}"
    );
    let first_health = text.find("\"images\"").expect("first healthz body");
    let ranking = text.find("\"ranking\"").expect("rank body");
    let last_health = text.rfind("\"images\"").expect("second healthz body");
    assert!(
        first_health < ranking && ranking < last_health,
        "responses must come back in request order"
    );
    daemon.drain();
}
