//! Chaos suite: a real `milrd` (spawned via `milr serve`) behind the
//! testkit's fault-injecting [`ChaosProxy`].
//!
//! The schedule of faults is a pure function of the seed, so a failure
//! is replayed exactly by re-running with the same `CHAOS_SEED`
//! environment variable (CI prints it). The suite asserts the daemon's
//! externally visible robustness contract:
//!
//! * every connection ends in an HTTP status line or a clean EOF —
//!   never a connection reset without a status;
//! * a flood beyond the accept queue sheds with `503` bodies per
//!   policy, and recovers;
//! * the `milrd_connections_total` series of `/metrics` obey the
//!   conservation law `accepted == completed + read_error + closed +
//!   deadline_shed + handler_panics` at quiescence;
//! * a drain requested while chaos connections are in flight finishes
//!   cleanly (`milrd drained`, exit 0).
//!
//! Setting `CHAOS_KEEPALIVE=1` re-runs the whole suite with aggressive
//! keep-alive serving (tiny yield burst, short read timeout) on every
//! process — single-node daemon, coordinator and workers alike — so
//! every contract above, including the conservation law, is also proven
//! over long-lived, mid-connection-faulted sockets rather than only
//! one-shot exchanges.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use milr::serve::Json;
use milr::testkit::{series, synthetic_database, ChaosProxy, Fault};

/// The default pinned seed; override (and replay CI failures) with
/// `CHAOS_SEED=<n>`.
const DEFAULT_SEED: u64 = 0x51DE_CA5E;

fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(text) => text
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEED must be an integer, got {text:?}")),
        Err(_) => DEFAULT_SEED,
    }
}

/// `CHAOS_KEEPALIVE=1` flips the daemon under test into an aggressive
/// keep-alive configuration; anything else (or unset) keeps the
/// defaults. The faults and assertions are identical either way — only
/// the connection lifetimes change.
fn keepalive_variant() -> bool {
    std::env::var("CHAOS_KEEPALIVE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A `milr serve` child process bound to an ephemeral port, killed on
/// drop unless the test already waited it out.
struct DaemonUnderTest {
    child: Child,
    addr: SocketAddr,
    stdout: BufReader<std::process::ChildStdout>,
    dir: PathBuf,
}

impl DaemonUnderTest {
    /// Builds a seeded snapshot and spawns `milr serve` over it with
    /// `extra_args` appended (so tests can tighten queue/timeout knobs).
    fn start(test: &str, extra_args: &[&str]) -> DaemonUnderTest {
        let dir = std::env::temp_dir().join(format!("milr_chaos_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let snapshot = dir.join("db");
        let db = synthetic_database(24, 8, 3);
        let mut store =
            milr::store::ShardedDatabase::from_database(&db, &snapshot, 512).expect("shard");
        store.flush().expect("snapshot flushes");
        Self::start_over(dir, &snapshot, extra_args)
    }

    /// Spawns `milr serve` over an already-written snapshot directory;
    /// `dir` is removed when the daemon drops.
    fn start_over(
        dir: PathBuf,
        snapshot: &std::path::Path,
        extra_args: &[&str],
    ) -> DaemonUnderTest {
        let mut command = Command::new(env!("CARGO_BIN_EXE_milr"));
        command
            .arg("serve")
            .args(["--snapshot", snapshot.to_str().unwrap()])
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args);
        if keepalive_variant() {
            // Appended after `extra_args`, whose first occurrence of a
            // flag wins — a test pinning its own keep-alive knobs keeps
            // them even under the variant.
            command.args(["--keepalive-burst", "4", "--read-timeout-ms", "400"]);
        }
        let mut child = command
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn milr serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        let addr = banner
            .strip_prefix("milrd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"));
        DaemonUnderTest {
            child,
            addr,
            stdout,
            dir,
        }
    }

    /// Waits (bounded) for the child to exit after a drain request and
    /// returns (exit success, remaining stdout).
    fn wait_for_drain(mut self) -> (bool, String) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                let mut rest = String::new();
                self.stdout.read_to_string(&mut rest).expect("drain stdout");
                let dir = self.dir.clone();
                std::mem::forget(self); // already reaped; skip the kill
                std::fs::remove_dir_all(&dir).ok();
                return (status.success(), rest);
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not exit within the drain deadline"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for DaemonUnderTest {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Sends `request` raw to `addr` and reads the full response to EOF.
/// Returns the raw response, or the error if the socket died mid-read —
/// the one thing the daemon must never cause.
fn raw_roundtrip(addr: SocketAddr, request: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(15)))?;
    stream.write_all(request)?;
    stream.shutdown(Shutdown::Write)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    Ok(response)
}

fn get(addr: SocketAddr, path: &str) -> Vec<u8> {
    raw_roundtrip(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("direct request succeeds")
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(response);
    let rest = text.strip_prefix("HTTP/1.1 ")?;
    rest.split_whitespace().next()?.parse().ok()
}

fn body_of(response: &[u8]) -> String {
    let text = String::from_utf8_lossy(response);
    match text.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    }
}

/// The numeric field `key` of a JSON document (`/healthz`,
/// `/cluster/status`).
fn field(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("field {key} missing or non-numeric: {}", json.dump()))
}

/// The connections of one `outcome` in a `/metrics` scrape.
fn connections(metrics: &str, outcome: &str) -> u64 {
    let name = format!("milrd_connections_total{{outcome=\"{outcome}\"}}");
    series(metrics, &name) as u64
}

/// Polls `/metrics` until the connection-conservation law holds, and
/// returns the balanced scrape.
///
/// The law only holds at quiescence, and the `/metrics` request itself
/// is accepted-but-not-yet-completed when the counters are read, so a
/// consistent snapshot satisfies
/// `accepted == completed + read_error + closed + deadline_shed
/// + handler_panics + 1`.
fn assert_metrics_balanced(addr: SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let response = get(addr, "/metrics");
        assert_eq!(status_of(&response), Some(200), "metrics must serve");
        let metrics = body_of(&response);
        let accepted = connections(&metrics, "accepted");
        let resolved = connections(&metrics, "completed")
            + connections(&metrics, "read_error")
            + connections(&metrics, "closed")
            + connections(&metrics, "deadline_shed")
            + series(&metrics, "milrd_handler_panics_total") as u64;
        if accepted == resolved + 1 {
            return metrics;
        }
        assert!(
            Instant::now() < deadline,
            "metrics never balanced: accepted {accepted} != resolved {resolved} + 1\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn chaotic_clients_always_get_a_status_or_a_clean_close() {
    let seed = chaos_seed();
    let daemon = DaemonUnderTest::start("status", &["--workers", "4", "--read-timeout-ms", "2000"]);
    let proxy = ChaosProxy::start(daemon.addr, seed).expect("proxy starts");

    let connections = 24u64;
    for index in 0..connections {
        // Long enough that every truncation point lands mid-request.
        let request = format!(
            "GET /healthz HTTP/1.1\r\nHost: chaos\r\nX-Chaos-Index: {index:032}\r\n\
             Connection: close\r\n\r\n"
        );
        let response = raw_roundtrip(proxy.addr(), request.as_bytes()).unwrap_or_else(|e| {
            panic!("connection {index} died with {e} (seed {seed}): the daemon must never reset")
        });
        if response.is_empty() {
            continue; // clean EOF without a response: allowed for dead clients
        }
        let status = status_of(&response).unwrap_or_else(|| {
            panic!(
                "connection {index} (seed {seed}) got bytes without a status line: {:?}",
                String::from_utf8_lossy(&response)
            )
        });
        assert!(
            (200..600).contains(&status),
            "connection {index} (seed {seed}): implausible status {status}"
        );
    }

    // The proxy applied exactly the schedule the seed dictates —
    // byte-for-byte, so CI's printed seed replays this run.
    let applied: Vec<u8> = proxy
        .applied()
        .iter()
        .flat_map(|f| {
            let mut line = f.describe().into_bytes();
            line.push(b'\n');
            line
        })
        .collect();
    assert_eq!(
        applied,
        Fault::schedule_bytes(seed, connections),
        "applied fault schedule must replay byte-for-byte from seed {seed}"
    );

    proxy.stop();
    assert_metrics_balanced(daemon.addr);
}

#[test]
fn flood_beyond_the_queue_sheds_with_503_per_policy() {
    let daemon = DaemonUnderTest::start(
        "flood",
        &[
            "--workers",
            "1",
            "--queue-depth",
            "2",
            "--debug-endpoints",
            "--read-timeout-ms",
            "5000",
            "--handle-deadline-ms",
            "10000",
        ],
    );

    // Pin the single worker, then flood: with the worker busy and the
    // queue bounded at 2, most of the burst must shed.
    let addr = daemon.addr;
    let stall = std::thread::spawn(move || get(addr, "/debug/sleep?ms=1500"));
    std::thread::sleep(Duration::from_millis(200)); // let the stall land

    let clients: Vec<_> = (0..12)
        .map(|_| std::thread::spawn(move || get(addr, "/healthz")))
        .collect();
    let mut shed = 0usize;
    let mut served = 0usize;
    for client in clients {
        let response = client.join().expect("client thread");
        match status_of(&response) {
            Some(503) => {
                shed += 1;
                assert!(
                    body_of(&response).contains("shed"),
                    "shed responses must say so: {:?}",
                    body_of(&response)
                );
            }
            Some(200) => served += 1,
            other => panic!("flood client got {other:?}"),
        }
    }
    assert!(shed > 0, "a 12-deep burst into a 2-deep queue must shed");
    assert!(served > 0, "queued requests must still be served");
    assert_eq!(status_of(&stall.join().expect("stall")), Some(200));

    // The daemon recovered: fresh requests serve normally and the shed
    // counter matches what the clients saw.
    let metrics = assert_metrics_balanced(daemon.addr);
    assert_eq!(connections(&metrics, "shed") as usize, shed);
}

#[test]
fn metrics_identity_survives_a_chaos_burst() {
    let seed = chaos_seed().wrapping_add(1); // decorrelate from the status test
    let daemon =
        DaemonUnderTest::start("metrics", &["--workers", "2", "--read-timeout-ms", "1000"]);
    let proxy = ChaosProxy::start(daemon.addr, seed).expect("proxy starts");

    let handles: Vec<_> = (0..4)
        .map(|thread| {
            let proxy_addr = proxy.addr();
            std::thread::spawn(move || {
                for i in 0..4 {
                    let request = format!(
                        "GET /rank?positives=0,4&negatives=1 HTTP/1.1\r\nHost: chaos\r\n\
                         X-Chaos: {thread}-{i}-padding-padding\r\nConnection: close\r\n\r\n"
                    );
                    let _ = raw_roundtrip(proxy_addr, request.as_bytes());
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("chaos client thread");
    }
    proxy.stop();

    let metrics = assert_metrics_balanced(daemon.addr);
    // The burst actually exercised the daemon across outcome classes.
    assert!(
        connections(&metrics, "accepted") >= 16,
        "all proxied connections reach the daemon: {metrics}"
    );
}

#[test]
fn reload_under_chaos_swaps_snapshots_without_breaking_the_contract() {
    // The epoch-swap contract under fire: a sharded snapshot is
    // rewritten and reloaded while chaotic clients hammer the daemon
    // through the fault proxy. Direct (unproxied) requests must never
    // fail, every reload must succeed, and the conservation law must
    // still balance at quiescence.
    let seed = chaos_seed().wrapping_add(3);
    let dir = std::env::temp_dir().join(format!("milr_chaos_reload_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("db");
    let write_sharded = |images: usize| {
        let db = synthetic_database(images, 8, 3);
        let mut store = milr::store::ShardedDatabase::from_database(&db, &snapshot, 6)
            .expect("shard the snapshot");
        store.flush().expect("flush the snapshot");
        store.shard_count()
    };
    assert!(write_sharded(24) >= 4, "the scenario must span >= 4 shards");

    let daemon = DaemonUnderTest::start_over(
        dir,
        &snapshot,
        &["--workers", "2", "--read-timeout-ms", "1500"],
    );
    let proxy = ChaosProxy::start(daemon.addr, seed).expect("proxy starts");

    // Chaos traffic through the proxy for the whole scenario.
    let proxy_addr = proxy.addr();
    let chaos: Vec<_> = (0..3)
        .map(|thread| {
            std::thread::spawn(move || {
                for i in 0..6 {
                    let request = format!(
                        "GET /rank?positives=0,4&negatives=1 HTTP/1.1\r\nHost: chaos\r\n\
                         X-Chaos: {thread}-{i}-padding-padding\r\nConnection: close\r\n\r\n"
                    );
                    let _ = raw_roundtrip(proxy_addr, request.as_bytes());
                }
            })
        })
        .collect();

    // Meanwhile: rewrite the sharded snapshot and reload it, twice.
    // Direct requests bypass the proxy, so each must fully succeed.
    for images in [30usize, 36] {
        std::thread::sleep(Duration::from_millis(100));
        write_sharded(images);
        let response = raw_roundtrip(
            daemon.addr,
            b"POST /snapshot/reload HTTP/1.1\r\nHost: chaos\r\nContent-Length: 0\r\n\
              Connection: close\r\n\r\n",
        )
        .expect("reload request must not be reset");
        assert_eq!(
            status_of(&response),
            Some(200),
            "reload must succeed: {:?}",
            body_of(&response)
        );
        let healthz = get(daemon.addr, "/healthz");
        assert_eq!(status_of(&healthz), Some(200));
        let health = Json::parse(&body_of(&healthz)).expect("healthz is JSON");
        assert_eq!(field(&health, "images"), images as u64);
    }

    for handle in chaos {
        handle.join().expect("chaos client thread");
    }
    proxy.stop();

    // Quiescence: the books balance across both epochs, and the final
    // epoch is the last snapshot written.
    let metrics = assert_metrics_balanced(daemon.addr);
    assert!(
        connections(&metrics, "accepted") >= 18,
        "chaos + reload traffic must all be accounted for: {metrics}"
    );
    let health = Json::parse(&body_of(&get(daemon.addr, "/healthz"))).expect("healthz is JSON");
    assert_eq!(field(&health, "images"), 36);
    assert!(field(&health, "generation") >= 2, "{}", health.dump());
}

#[test]
fn cluster_scatter_survives_chaos_between_coordinator_and_workers() {
    // Distributed serving under fire: a coordinator fans out to two
    // workers *through* fault proxies, so every scatter leg can be
    // truncated, trickled, or reset. The contract is seed-agnostic
    // (the chaos sweep replays this scenario across random seeds):
    //
    // * clients talking directly to the coordinator never see an
    //   error — worst case is a well-formed `"partial": true` page;
    // * the coordinator's shard conservation law balances exactly:
    //   `shards_ranked + shards_missing == rank_total * total_shards`;
    // * once the coordinator drains, each worker's own connection
    //   books balance at quiescence.
    let seed = chaos_seed().wrapping_add(4);
    let dir = std::env::temp_dir().join(format!("milr_chaos_cluster_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snapshot = dir.join("db.shards");
    let db = synthetic_database(24, 8, 3);
    let mut store =
        milr::store::ShardedDatabase::from_database(&db, &snapshot, 6).expect("shard the snapshot");
    store.flush().expect("flush the snapshot");
    let total_shards = store.shard_count() as u64;

    let worker_args = |index: &'static str| {
        [
            "--role",
            "worker",
            "--worker-index",
            index,
            "--worker-count",
            "2",
            "--read-timeout-ms",
            "30000",
        ]
    };
    let worker_a = DaemonUnderTest::start_over(dir.clone(), &snapshot, &worker_args("0"));
    let worker_b = DaemonUnderTest::start_over(dir.clone(), &snapshot, &worker_args("1"));
    let proxy_a = ChaosProxy::start(worker_a.addr, seed).expect("proxy a starts");
    let proxy_b = ChaosProxy::start(worker_b.addr, seed.wrapping_add(1)).expect("proxy b starts");
    // A short per-worker deadline bounds trickle faults; the huge
    // health interval keeps probe traffic out of the fault schedule.
    let worker_addrs = format!("{},{}", proxy_a.addr(), proxy_b.addr());
    let coordinator = DaemonUnderTest::start_over(
        dir,
        &snapshot,
        &[
            "--role",
            "coordinator",
            "--worker-addrs",
            &worker_addrs,
            "--worker-deadline-ms",
            "500",
            "--health-interval-ms",
            "600000",
        ],
    );

    let requests = 8u64;
    for index in 0..requests {
        let query = if index % 2 == 0 {
            "positives=0,4&negatives=1&k=12"
        } else {
            "positives=2,9&negatives=5&k=24"
        };
        let response = get(coordinator.addr, &format!("/cluster/rank?{query}"));
        assert_eq!(
            status_of(&response),
            Some(200),
            "request {index} (seed {seed}): chaos between nodes must never reach the client"
        );
        let json = Json::parse(&body_of(&response)).expect("rank response is JSON");
        assert!(
            json.get("partial").and_then(Json::as_bool).is_some(),
            "request {index} (seed {seed}) page is malformed: {}",
            json.dump()
        );
    }

    // The coordinator accounted for every shard of every rank.
    let status = Json::parse(&body_of(&get(coordinator.addr, "/cluster/status")))
        .expect("cluster status is JSON");
    let cluster = status.get("cluster").expect("cluster counters");
    assert_eq!(field(cluster, "rank_total"), requests);
    assert_eq!(
        field(cluster, "shards_ranked_total") + field(cluster, "shards_missing_total"),
        requests * total_shards,
        "shard conservation must balance (seed {seed}): {}",
        status.dump()
    );

    // Drain the coordinator BEFORE polling the workers: its pooled
    // keep-alive sockets count as accepted-but-unresolved on a worker
    // until the exiting process closes them.
    let response = raw_roundtrip(
        coordinator.addr,
        b"POST /admin/shutdown HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n",
    )
    .expect("shutdown request");
    assert_eq!(status_of(&response), Some(200));
    let (success, stdout) = coordinator.wait_for_drain();
    assert!(success, "coordinator drain must exit 0; stdout: {stdout:?}");
    proxy_a.stop();
    proxy_b.stop();

    for worker in [&worker_a, &worker_b] {
        assert_metrics_balanced(worker.addr);
    }
}

#[test]
fn drain_finishes_cleanly_with_chaos_in_flight() {
    let seed = chaos_seed().wrapping_add(2);
    let daemon = DaemonUnderTest::start("drain", &["--workers", "2", "--read-timeout-ms", "1500"]);
    let proxy = ChaosProxy::start(daemon.addr, seed).expect("proxy starts");

    // Launch slow chaos traffic and request the drain while it flies.
    let proxy_addr = proxy.addr();
    let inflight: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let request = format!(
                    "GET /healthz HTTP/1.1\r\nHost: chaos\r\nX-Pad: {i:064}\r\n\
                     Connection: close\r\n\r\n"
                );
                let _ = raw_roundtrip(proxy_addr, request.as_bytes());
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    let response = raw_roundtrip(
        daemon.addr,
        b"POST /admin/shutdown HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n",
    )
    .expect("shutdown request");
    assert_eq!(status_of(&response), Some(200));
    assert!(body_of(&response).contains("draining"));

    for handle in inflight {
        handle.join().expect("in-flight chaos client");
    }
    let (success, stdout) = daemon.wait_for_drain();
    assert!(success, "drain must exit 0; stdout: {stdout:?}");
    assert!(
        stdout.contains("milrd drained"),
        "drain banner missing: {stdout:?}"
    );
    proxy.stop();
}
