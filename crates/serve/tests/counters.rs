//! Exact-delta pins for the traffic-shaping observability counters:
//! keep-alive socket reuse and the warm-start training economics.
//!
//! These live in their own integration binary (the
//! `crates/store/tests/counters.rs` idiom) so no unrelated test bumps
//! the same counters concurrently and every assertion can be an exact
//! `==`, not a `>=`. The keep-alive counter comes from each daemon's
//! private registry (scraped over `/metrics`), so one in-process server
//! per test isolates it. The warm-training counters are process-global
//! (`milr_obs::global()`) and the test harness runs this binary's tests
//! on parallel threads, so the warm test must stay the only test here
//! that trains warm (the keep-alive test only calls `/healthz`, which
//! trains nothing). A second test that trains warm needs the static
//! lock `crates/store/tests/counters.rs` uses.

use std::sync::Arc;
use std::time::Duration;

use milr_core::{BackendTag, QuerySession, RetrievalConfig, RetrievalDatabase};
use milr_mil::Bag;
use milr_serve::{client, Json, NodeOptions, ServeOptions, Server};

const TIMEOUT: Duration = Duration::from_secs(30);

/// Deterministic clustered database: `images` bags of 3 instances,
/// category `i % 4` centred at its own point (the daemon test fixture).
fn test_database(images: usize, dim: usize) -> RetrievalDatabase {
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
        let instances: Vec<Vec<f32>> = (0..3)
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

fn start_server() -> Server {
    let options = ServeOptions {
        node: NodeOptions {
            workers: 2,
            ..NodeOptions::default()
        },
        ..ServeOptions::default()
    };
    let snapshot = milr_store::Snapshot {
        database: test_database(16, 8),
        generation: 0,
        shards: 1,
        backend: BackendTag::default(),
    };
    Server::start(snapshot, options).expect("start in-process daemon")
}

/// One-shot `/metrics` scrape on a fresh connection. The scrape itself
/// is the connection's first (and only) request, so it never bumps the
/// reuse counter it is reading.
fn metrics(addr: std::net::SocketAddr) -> Json {
    let response = client::get(addr, "/metrics", TIMEOUT).expect("GET /metrics");
    assert_eq!(response.status, 200);
    response.json().expect("metrics JSON")
}

fn num(json: &Json, path: &[&str]) -> f64 {
    let mut node = json;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("metrics key {path:?} missing at {key}"));
    }
    node.as_f64()
        .unwrap_or_else(|| panic!("{path:?} not a number"))
}

/// N requests on one keep-alive socket are exactly N − 1 reuses: the
/// first request dials, every further one rides the same connection,
/// and a one-shot scrape adds nothing.
#[test]
fn keepalive_reuse_counter_is_exactly_requests_minus_dials() {
    let server = start_server();
    let addr = server.local_addr();

    let mut conn = client::Connection::new(addr, TIMEOUT);
    for _ in 0..5 {
        let response = conn.get("/healthz").expect("keep-alive GET /healthz");
        assert_eq!(response.status, 200);
    }
    assert_eq!(conn.dials(), 1, "an idle daemon never forces a re-dial");

    let scraped = metrics(addr);
    assert_eq!(num(&scraped, &["keepalive_reused_total"]), 4.0);

    server.shutdown();
}

/// Pins the warm-start economics to the trainer's exact formula: each
/// warm round adds one to `warm_starts_total` and saves
/// `(instances of all positive bags) − (instances of newly-marked bags
/// + the 1 warm seed)` ascents relative to a cold round.
#[test]
fn warm_training_counters_pin_the_exact_ascent_savings() {
    let counter = |name: &str| milr_obs::global().counter(name).get();
    let starts_before = counter("milr_train_warm_starts_total");
    let saved_before = counter("milr_train_warm_rounds_saved_total");

    let db = Arc::new(test_database(16, 8));
    let instances = |bag: usize| db.bag(bag).expect("bag").instances().count();
    let config = Arc::new(RetrievalConfig {
        threads: 1,
        ..RetrievalConfig::default()
    });
    let pool: Vec<usize> = (0..db.len()).collect();
    let mut session = QuerySession::builder(Arc::clone(&db))
        .config(config)
        .positives(vec![0, 4])
        .negatives(vec![1])
        .pool(pool)
        .warm_start(true)
        .build()
        .expect("build session");

    // Round 1 is cold — no solver vector exists to warm from yet.
    assert!(!session.warm_ready());
    session.train_round().expect("cold round");
    assert_eq!(counter("milr_train_warm_starts_total"), starts_before);
    assert_eq!(counter("milr_train_warm_rounds_saved_total"), saved_before);

    // Rounds 2 and 3 each mark one new positive and train warm.
    let mut expected_saved = 0;
    let mut positive_instances = instances(0) + instances(4);
    for (round, mark) in [(2, 8), (3, 12)] {
        session.add_positives(&[mark]).expect("mark positive");
        positive_instances += instances(mark);
        assert!(session.warm_ready(), "round {round} should be warm");
        session.train_round().expect("warm round");
        // Cold would ascend from every positive instance; warm ascends
        // from the new bag's instances plus the single warm seed.
        expected_saved += positive_instances - (instances(mark) + 1);
        assert_eq!(
            counter("milr_train_warm_starts_total"),
            starts_before + (round - 1),
            "one warm start per warm round"
        );
        assert_eq!(
            counter("milr_train_warm_rounds_saved_total"),
            saved_before + expected_saved as u64,
            "ascents saved must match the trainer's formula exactly"
        );
    }
}
