//! Regression pins for the ranking-tier observability counters: the i8
//! screen and shared-bound tallies actually move on data where pruning
//! is provably possible — machine-independent evidence that each tier
//! pays for itself — and stay at zero on the exact fold of a non-min
//! aggregator.
//!
//! These live in their own integration binary so no unrelated test
//! bumps the same process-global counters concurrently and the deltas
//! stay exact. Within the binary the test harness still runs the tests
//! on parallel threads, and every test here ranks and so moves the
//! same counters; each one holds [`SERIAL`] for its whole body, or on
//! two or more cores one test's deltas absorb another's increments.

use std::sync::{Mutex, MutexGuard, PoisonError};

use milr_core::{RankRequest, RetrievalDatabase};
use milr_mil::{Bag, BagAggregator, Concept};
use milr_store::ShardedDatabase;
use milr_synth::corpus;

/// Serialises the tests of this binary (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a test that panicked while holding it poisons
/// nothing the next test reads, so the poison is ignored.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counter(name: &str) -> u64 {
    milr_obs::global().counter(name).get()
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("milr_counter_tests")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn non_min_aggregators_pin_the_fallback_counters() {
    let _serial = serial();
    // The pinned-counter contract (see the store's `Scan`): a non-min
    // aggregator falls back to the exact fold, so the i8 screen never
    // fires (`quant_screened == 0`) and no shard ever publishes a
    // tightened bound — the counters are how operators see that a
    // workload opted out of the provable pruning tiers.
    let bags: Vec<Bag> = corpus::lattice_bags(12, 4)
        .into_iter()
        .map(|instances| Bag::new(instances).unwrap())
        .collect();
    let db = RetrievalDatabase::from_bags(bags, corpus::lattice_labels(12)).unwrap();
    let dir = scratch("non_min_pins");
    let mut store = ShardedDatabase::from_database(&db, &dir, 4).unwrap();
    store.flush().unwrap();
    assert_eq!(store.shard_count(), 3);
    let concept = Concept::new(vec![1.0, 2.5, 0.5, 3.0], vec![1.0, 0.5, 2.0, 0.25]);

    for aggregator in BagAggregator::ALL.into_iter().filter(|a| !a.is_min()) {
        let screened_before = counter("milr_rank_quant_screened_total");
        let tightened_before = counter("milr_rank_threshold_tightenings_total");

        let bounded = RankRequest::all().top(2).aggregator(aggregator);
        let paged = store.rank(&concept, &bounded).unwrap();
        let full = store
            .rank(&concept, &RankRequest::all().aggregator(aggregator))
            .unwrap();

        assert_eq!(
            counter("milr_rank_quant_screened_total") - screened_before,
            0,
            "{aggregator}: the i8 screen must never fire on the exact fold"
        );
        assert_eq!(
            counter("milr_rank_threshold_tightenings_total") - tightened_before,
            0,
            "{aggregator}: the exact fold never publishes bounds"
        );
        assert_eq!(paged[..], full[..2], "{aggregator}: page is a prefix");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Four sealed shards of eight bags, eight instances each, and a top-1
/// request against them. The first bag of every shard sits on the
/// query; every other instance is far off it. Once a shard's top-1
/// holds its near bag, the bound is tiny and the i8 screen proves every
/// far instance hopeless without the exact kernel.
fn near_bag_per_shard(tag: &str) -> (ShardedDatabase, std::path::PathBuf, Concept, RankRequest) {
    let dim = 16;
    let bags: Vec<Bag> = (0..32)
        .map(|b| {
            let offset = if b % 8 == 0 { 0.0f32 } else { 40.0 };
            let instances = (0..8)
                .map(|m| {
                    (0..dim)
                        .map(|d| offset + ((b * 7 + m * 5 + d * 3) % 11) as f32 / 22.0)
                        .collect()
                })
                .collect();
            Bag::new(instances).unwrap()
        })
        .collect();
    let db = RetrievalDatabase::from_bags(bags, vec![0; 32]).unwrap();
    let dir = scratch(tag);
    let mut store = ShardedDatabase::from_database(&db, &dir, 8).unwrap();
    store.flush().unwrap();
    assert_eq!(store.shard_count(), 4);
    let concept = Concept::new(vec![0.25; dim], vec![1.0; dim]);
    (store, dir, concept, RankRequest::all().top(1))
}

#[test]
fn quant_screen_rejects_far_instances_on_a_multi_shard_top_k() {
    let _serial = serial();
    let (store, dir, concept, request) = near_bag_per_shard("screen");

    let screened_before = counter("milr_rank_quant_screened_total");
    let rescored_before = counter("milr_rank_quant_rescored_total");
    let screened_ranking = store.rank(&concept, &request).unwrap();
    let screened = counter("milr_rank_quant_screened_total") - screened_before;
    let rescored = counter("milr_rank_quant_rescored_total") - rescored_before;
    assert!(screened > 0, "the i8 screen never rejected an instance");
    assert!(
        rescored < screened,
        "the screen must reject more instances than it hands to the exact \
         kernel: {screened} screened, {rescored} rescored"
    );
    assert_eq!(
        screened_ranking,
        store.rank_exact(&concept, &request).unwrap(),
        "screening must not change the ranking"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_bound_tightens_on_a_multi_shard_top_k() {
    let _serial = serial();
    let (store, dir, concept, request) = near_bag_per_shard("shared_bound");

    let tightened_before = counter("milr_rank_threshold_tightenings_total");
    let shared = store.rank(&concept, &request).unwrap();
    let tightened = counter("milr_rank_threshold_tightenings_total") - tightened_before;
    assert!(tightened > 0, "no shard published a tighter shared bound");
    assert_eq!(
        shared,
        store.rank_exact(&concept, &request).unwrap(),
        "the shared bound must not change the ranking"
    );

    std::fs::remove_dir_all(&dir).ok();
}
