//! Integration tests of a real coordinator + worker fleet over live
//! sockets, all in one process: wire-level bit-identity against the
//! single-node daemon, keep-alive socket reuse under the parallel
//! scatter, generation-skew rejection/resync, a worker's answer to a
//! concept of the wrong dimension, eviction and rejoin, the join-time
//! snapshot streaming path, and turn-taking between busy keep-alive
//! clients of one coordinator handler.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use milr_cluster::{Coordinator, CoordinatorOptions, Worker, WorkerOptions};
use milr_mil::WeightPolicy;
use milr_serve::client;
use milr_serve::{Json, ServeOptions};
use milr_store::ShardedDatabase;
use milr_testkit::corpus::synthetic_database;
use milr_testkit::series;

const TIMEOUT: Duration = Duration::from_secs(10);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("milr_cluster_nodes")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A 24-image corpus sharded 6 bags per shard → 4 shards.
fn sharded_corpus(tag: &str) -> PathBuf {
    let db = synthetic_database(24, 8, 3);
    let dir = scratch_dir(tag);
    let mut store = ShardedDatabase::from_database(&db, &dir, 6).unwrap();
    store.flush().unwrap();
    dir
}

fn start_worker(dir: &Path, index: usize, count: usize) -> Worker {
    // The worker-side read timeout doubles as the keep-alive idle
    // timeout; keep it far above any debug-build training pause so the
    // socket-reuse assertions below stay deterministic.
    let node = milr_serve::NodeOptions {
        read_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    Worker::start(WorkerOptions {
        node,
        snapshot_dir: dir.to_path_buf(),
        worker_index: index,
        worker_count: count,
        ..WorkerOptions::default()
    })
    .unwrap()
}

fn coordinator_options(dir: &Path, workers: Vec<SocketAddr>) -> CoordinatorOptions {
    CoordinatorOptions {
        snapshot_dir: dir.to_path_buf(),
        workers,
        // Keep membership changes test-driven: probes only matter in
        // the tests that shorten this.
        health_interval: Duration::from_secs(60),
        worker_deadline: Duration::from_secs(5),
        ..CoordinatorOptions::default()
    }
}

fn rank(addr: SocketAddr, query: &str) -> Json {
    let response = client::get(addr, &format!("/cluster/rank?{query}"), TIMEOUT).unwrap();
    assert_eq!(
        response.status,
        200,
        "body: {}",
        String::from_utf8_lossy(&response.body)
    );
    response.json().unwrap()
}

fn ranking_pairs(json: &Json) -> Vec<(u64, u64)> {
    json.get("ranking")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|row| {
            (
                row.get("index").and_then(Json::as_u64).unwrap(),
                row.get("distance")
                    .and_then(Json::as_f64)
                    .unwrap()
                    .to_bits(),
            )
        })
        .collect()
}

fn cluster_counters(addr: SocketAddr) -> Json {
    let status = client::get(addr, "/cluster/status", TIMEOUT).unwrap();
    assert_eq!(status.status, 200);
    status.json().unwrap().get("cluster").unwrap().clone()
}

fn counter(json: &Json, key: &str) -> u64 {
    json.get(key).and_then(Json::as_u64).unwrap()
}

/// Every rank accounts for every shard, ranked or missing.
fn assert_conservation(addr: SocketAddr, total_shards: u64) {
    let counters = cluster_counters(addr);
    assert_eq!(
        counter(&counters, "shards_ranked_total") + counter(&counters, "shards_missing_total"),
        counter(&counters, "rank_total") * total_shards,
        "cluster shard conservation law: {counters:?}"
    );
}

#[test]
fn cluster_rank_is_bit_identical_to_single_node_over_the_wire() {
    let dir = sharded_corpus("identity");
    let worker_a = start_worker(&dir, 0, 2);
    let worker_b = start_worker(&dir, 1, 2);
    let coordinator = Coordinator::start(coordinator_options(
        &dir,
        vec![worker_a.addr(), worker_b.addr()],
    ))
    .unwrap();

    // The single-node daemon over the *same* snapshot (same generation,
    // so the two sides train identical concept-cache keys too).
    let single = milr_serve::Server::start(
        milr_store::ShardedDatabase::open(&dir).unwrap(),
        ServeOptions {
            node: milr_serve::NodeOptions::default(),
            ..ServeOptions::default()
        },
    )
    .unwrap();

    for query in [
        "positives=0,4&k=6",
        "positives=1,9&negatives=2&k=10",
        "positives=3&negatives=0,5&k=24",
        "positives=0,4&k=6", // repeat: cache hit on both sides
    ] {
        let distributed = rank(coordinator.addr(), query);
        assert_eq!(
            distributed.get("partial").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            distributed
                .get("missing_shards")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
        let single_response =
            client::get(single.local_addr(), &format!("/rank?{query}"), TIMEOUT).unwrap();
        assert_eq!(single_response.status, 200);
        let single_json = single_response.json().unwrap();
        assert_eq!(
            ranking_pairs(&distributed),
            ranking_pairs(&single_json),
            "query {query} diverged"
        );
        // nldd comes out of the identical deterministic training run.
        assert_eq!(
            distributed
                .get("nldd")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
            single_json
                .get("nldd")
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits(),
        );
    }
    assert_conservation(coordinator.addr(), 4);

    single.shutdown();
    single.wait();
    coordinator.request_shutdown();
    coordinator.wait();
    worker_a.request_shutdown();
    worker_b.request_shutdown();
    worker_a.wait();
    worker_b.wait();
}

#[test]
fn sequential_ranks_reuse_one_socket_per_worker() {
    let dir = sharded_corpus("keepalive");
    let worker_a = start_worker(&dir, 0, 2);
    let worker_b = start_worker(&dir, 1, 2);
    let coordinator = Coordinator::start(coordinator_options(
        &dir,
        vec![worker_a.addr(), worker_b.addr()],
    ))
    .unwrap();

    for round in 0..6 {
        let json = rank(
            coordinator.addr(),
            &format!("positives=0,{}&k=3", round + 1),
        );
        assert_eq!(json.get("partial").and_then(Json::as_bool), Some(false));
    }

    // Keep-alive regression: six scatters, each leg on its own thread,
    // still exactly one TCP connection accepted by each worker — a leg
    // checks its worker's pooled socket out and back in, and the client
    // ranks one at a time, so no two legs ever want the same worker.
    assert_eq!(worker_a.metrics().accepted_total.get(), 1);
    assert_eq!(worker_b.metrics().accepted_total.get(), 1);
    assert_conservation(coordinator.addr(), 4);

    coordinator.request_shutdown();
    coordinator.wait();
    worker_a.request_shutdown();
    worker_b.request_shutdown();
    worker_a.wait();
    worker_b.wait();
}

#[test]
fn generation_skew_is_rejected_then_resynced_never_merged() {
    let dir = sharded_corpus("skew");
    let worker_a = start_worker(&dir, 0, 2);
    let worker_b = start_worker(&dir, 1, 2);
    let coordinator = Coordinator::start(coordinator_options(
        &dir,
        vec![worker_a.addr(), worker_b.addr()],
    ))
    .unwrap();
    let old_generation = coordinator.generation();

    // Advance the snapshot on disk and reload the coordinator only —
    // the workers are now one generation behind.
    let mut store = ShardedDatabase::open(&dir).unwrap();
    store.flush().unwrap();
    let reload = client::post_json(
        coordinator.addr(),
        "/snapshot/reload",
        &Json::Obj(Vec::new()),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(reload.status, 200);
    assert_eq!(coordinator.generation(), old_generation + 1);

    // The next rank hits 409s from both workers; the coordinator must
    // resync them and retry — serving the *new* generation in full,
    // never a silent cross-generation merge.
    let json = rank(coordinator.addr(), "positives=0,4&k=6");
    assert_eq!(json.get("partial").and_then(Json::as_bool), Some(false));
    assert_eq!(
        json.get("generation").and_then(Json::as_u64),
        Some(old_generation + 1)
    );

    let counters = cluster_counters(coordinator.addr());
    assert!(counter(&counters, "generation_mismatch_total") >= 1);
    assert!(counter(&counters, "worker_resyncs_total") >= 1);
    let worker_metrics = client::get(worker_a.addr(), "/metrics", TIMEOUT).unwrap();
    let text = String::from_utf8(worker_metrics.body).unwrap();
    assert!(series(&text, "milrd_worker_generation_rejects_total") >= 1.0);
    assert_conservation(coordinator.addr(), 4);

    coordinator.request_shutdown();
    coordinator.wait();
    worker_a.request_shutdown();
    worker_b.request_shutdown();
    worker_a.wait();
    worker_b.wait();
}

#[test]
fn coordinator_refuses_an_invalid_policy_at_startup() {
    let dir = sharded_corpus("invalid_policy");
    let mut options = coordinator_options(&dir, vec!["127.0.0.1:1".parse().unwrap()]);
    options.front.retrieval.policy = WeightPolicy::SumConstraint { beta: 2.0 };
    let Err(err) = Coordinator::start(options) else {
        panic!("a coordinator with β = 2 must not start");
    };
    assert!(err.to_string().contains("SumConstraint"), "{err}");
}

#[test]
fn coordinator_names_an_invalid_config_field_at_startup() {
    let dir = sharded_corpus("invalid_resolution");
    let mut options = coordinator_options(&dir, vec!["127.0.0.1:1".parse().unwrap()]);
    options.front.retrieval.resolution = 1;
    let Err(err) = Coordinator::start(options) else {
        panic!("a coordinator with resolution 1 must not start");
    };
    let message = err.to_string();
    assert!(
        message.starts_with("invalid configuration: resolution"),
        "{message}"
    );
    assert!(!message.contains("training failed"), "{message}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_names_a_wrong_concept_dimension_not_a_training_failure() {
    use milr_cluster::protocol::WorkerRankRequest;
    use milr_mil::{BagAggregator, Concept};

    let dir = sharded_corpus("concept_dim");
    let worker = start_worker(&dir, 0, 1);
    let request = WorkerRankRequest {
        generation: ShardedDatabase::open(&dir).unwrap().generation(),
        k: 3,
        concept: Concept::new(vec![0.0; 100], vec![1.0; 100]),
        aggregator: BagAggregator::MinDistance,
    };
    let reply =
        client::post_json(worker.addr(), "/worker/rank", &request.to_json(), TIMEOUT).unwrap();
    assert_eq!(reply.status, 400);
    assert_eq!(
        reply.json().unwrap().get("error").and_then(Json::as_str),
        Some("concept dimension 100 does not match the database's feature dimension 8")
    );
    worker.request_shutdown();
    worker.wait();
}

#[test]
fn lost_worker_degrades_then_eviction_and_rejoin_restore_full_pages() {
    let dir = sharded_corpus("evict");
    let worker_a = start_worker(&dir, 0, 2);
    let worker_b = start_worker(&dir, 1, 2);
    let worker_b_shards = worker_b.shard_ids();
    let mut options = coordinator_options(&dir, vec![worker_a.addr(), worker_b.addr()]);
    options.health_interval = Duration::from_millis(50);
    options.worker_deadline = Duration::from_millis(500);
    options.eviction_threshold = 2;
    let coordinator = Coordinator::start(options).unwrap();

    assert_eq!(
        rank(coordinator.addr(), "positives=0,4&k=6")
            .get("partial")
            .and_then(Json::as_bool),
        Some(false)
    );

    // Kill worker 1. Clients keep getting well-formed degraded pages.
    worker_b.request_shutdown();
    worker_b.wait();
    let degraded = rank(coordinator.addr(), "positives=0,4&k=6");
    assert_eq!(degraded.get("partial").and_then(Json::as_bool), Some(true));
    let missing: Vec<u64> = degraded
        .get("missing_shards")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(missing, worker_b_shards);
    assert!(!degraded
        .get("missing_ranges")
        .and_then(Json::as_array)
        .unwrap()
        .is_empty());

    // The health loop evicts the dead worker.
    let deadline = std::time::Instant::now() + TIMEOUT;
    loop {
        let status = client::get(coordinator.addr(), "/cluster/status", TIMEOUT)
            .unwrap()
            .json()
            .unwrap();
        let healthy = status.get("workers").and_then(Json::as_array).unwrap()[1]
            .get("healthy")
            .and_then(Json::as_bool)
            .unwrap();
        if !healthy {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "worker 1 was never evicted"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let counters = cluster_counters(coordinator.addr());
    assert!(counter(&counters, "worker_evictions_total") >= 1);

    // A replacement worker rejoins at a *new* address by re-registering.
    let replacement = start_worker(&dir, 1, 2);
    let registered = client::post_json(
        coordinator.addr(),
        "/cluster/workers",
        &Json::Obj(vec![
            ("index".into(), Json::num(1.0)),
            ("addr".into(), Json::str(replacement.addr().to_string())),
        ]),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(registered.status, 200);
    let restored = rank(coordinator.addr(), "positives=0,4&k=6");
    assert_eq!(restored.get("partial").and_then(Json::as_bool), Some(false));
    let counters = cluster_counters(coordinator.addr());
    assert!(counter(&counters, "worker_rejoins_total") >= 1);
    assert_conservation(coordinator.addr(), 4);

    coordinator.request_shutdown();
    coordinator.wait();
    worker_a.request_shutdown();
    worker_a.wait();
    replacement.request_shutdown();
    replacement.wait();
}

#[test]
fn worker_streams_its_shard_subset_from_the_coordinator_on_join() {
    let dir = sharded_corpus("join");
    // Worker 0 has the snapshot locally; the coordinator starts first
    // so worker 1 can bootstrap from it.
    let worker_a = start_worker(&dir, 0, 2);
    // The coordinator's slot for worker 1 is filled in by
    // re-registration after the join; start with a placeholder.
    let placeholder: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let coordinator = Coordinator::start(coordinator_options(
        &dir,
        vec![worker_a.addr(), placeholder],
    ))
    .unwrap();

    // Worker 1 joins from an *empty* directory, streaming the manifest
    // plus its assigned shards (checksum-verified at subset open).
    let empty = scratch_dir("join_empty");
    let worker_b = Worker::start(WorkerOptions {
        snapshot_dir: empty.clone(),
        worker_index: 1,
        worker_count: 2,
        join: Some(coordinator.addr()),
        ..WorkerOptions::default()
    })
    .unwrap();
    assert_eq!(worker_b.generation(), coordinator.generation());
    // Only its own assignment was fetched: shards 1 and 3 of 4.
    assert_eq!(worker_b.shard_ids(), vec![1, 3]);
    let fetched: Vec<String> = std::fs::read_dir(&empty)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(fetched.contains(&"manifest.milr".to_string()));
    assert!(fetched.contains(&"shard-000001.milr".to_string()));
    assert!(!fetched.contains(&"shard-000000.milr".to_string()));

    let registered = client::post_json(
        coordinator.addr(),
        "/cluster/workers",
        &Json::Obj(vec![
            ("index".into(), Json::num(1.0)),
            ("addr".into(), Json::str(worker_b.addr().to_string())),
        ]),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(registered.status, 200);
    let json = rank(coordinator.addr(), "positives=0,4&k=8");
    assert_eq!(json.get("partial").and_then(Json::as_bool), Some(false));
    assert_conservation(coordinator.addr(), 4);

    coordinator.request_shutdown();
    coordinator.wait();
    worker_a.request_shutdown();
    worker_b.request_shutdown();
    worker_a.wait();
    worker_b.wait();
}

#[test]
fn busy_keep_alive_clients_take_turns_on_one_coordinator_handler() {
    // One coordinator handler, two keep-alive clients that scatter
    // cached ranks back to back. The handler must yield at its turn
    // boundary so the second client's requests are not stuck behind
    // the first client's whole window.
    const WINDOW: Duration = Duration::from_millis(1500);
    const QUERY: &str = "positives=0,4&k=6";
    let dir = sharded_corpus("head_of_line");
    let worker = start_worker(&dir, 0, 1);
    let mut options = coordinator_options(&dir, vec![worker.addr()]);
    options.node.workers = 1;
    let coordinator = Coordinator::start(options).unwrap();
    // Train once up front so the window times only cached scatters.
    rank(coordinator.addr(), QUERY);

    let addr = coordinator.addr();
    let start_line = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let start_line = Arc::clone(&start_line);
            std::thread::spawn(move || {
                let mut conn = client::Connection::new(addr, TIMEOUT);
                let (mut served, mut slowest) = (0u32, Duration::ZERO);
                start_line.wait();
                let started = Instant::now();
                while started.elapsed() < WINDOW {
                    let sent = Instant::now();
                    let response = conn
                        .get(&format!("/cluster/rank?{QUERY}"))
                        .expect("cluster rank");
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
        assert!(served > 1, "a client made no progress: {served} ranks");
        assert!(
            slowest < Duration::from_secs(1),
            "a cluster rank waited {slowest:?} behind the other connection"
        );
    }
    assert_conservation(coordinator.addr(), 4);

    coordinator.request_shutdown();
    coordinator.wait();
    worker.request_shutdown();
    worker.wait();
}
