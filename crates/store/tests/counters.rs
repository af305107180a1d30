//! Regression pins for the coarse-index observability counters:
//! `milr_rank_index_fallbacks_total` fires exactly once per unindexed
//! shard scan in a bounded ranking, and the cell skip/scan tallies
//! actually move on data where skipping is provably possible.
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
fn unindexed_tail_scans_are_counted_as_fallbacks() {
    let _serial = serial();
    let bags: Vec<Bag> = corpus::lattice_bags(10, 4)
        .into_iter()
        .map(|instances| Bag::new(instances).unwrap())
        .collect();
    let db = RetrievalDatabase::from_bags(bags, corpus::lattice_labels(10)).unwrap();
    let dir = scratch("fallbacks");
    let mut store = ShardedDatabase::from_database(&db, &dir, 4).unwrap();
    // 10 bags at capacity 4: two sealed shards (indexed at seal) plus
    // an open in-memory tail of 2 with no index yet.
    assert!(store.shard_index(0).is_some());
    assert!(store.shard_index(1).is_some());
    assert!(store.shard_index(2).is_none());
    let concept = Concept::new(vec![1.0, 2.5, 0.5, 3.0], vec![1.0, 0.5, 2.0, 0.25]);

    let before = counter("milr_rank_index_fallbacks_total");
    for _ in 0..3 {
        store.rank(&concept, &RankRequest::all().top(2)).unwrap();
    }
    assert_eq!(
        counter("milr_rank_index_fallbacks_total") - before,
        3,
        "exactly one fallback per bounded scan of the unindexed tail"
    );

    // Full rankings and k = 0 never consult the index, and an explicit
    // opt-out is not a fallback either.
    store.rank(&concept, &RankRequest::all()).unwrap();
    store.rank(&concept, &RankRequest::all().top(0)).unwrap();
    store
        .rank(&concept, &RankRequest::all().top(2).index(false))
        .unwrap();
    assert_eq!(counter("milr_rank_index_fallbacks_total") - before, 3);

    // Flushing seals an index onto the tail: no more fallbacks.
    store.flush().unwrap();
    assert!(store.shard_index(2).is_some());
    store.rank(&concept, &RankRequest::all().top(2)).unwrap();
    assert_eq!(counter("milr_rank_index_fallbacks_total") - before, 3);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_min_aggregators_pin_the_fallback_counters() {
    let _serial = serial();
    // The pinned-counter contract (see `rank_one_shard`): a non-min
    // aggregator takes the exact fold, so the i8 screen never fires
    // (`quant_screened == 0`), no shard ever publishes a tightened
    // bound, and a *bounded* scan that asked for the index counts one
    // fallback per sealed-or-not shard — the counters are how operators
    // see that a workload opted out of the provable pruning tiers.
    let bags: Vec<Bag> = corpus::lattice_bags(12, 4)
        .into_iter()
        .map(|instances| Bag::new(instances).unwrap())
        .collect();
    let db = RetrievalDatabase::from_bags(bags, corpus::lattice_labels(12)).unwrap();
    let dir = scratch("non_min_pins");
    let mut store = ShardedDatabase::from_database(&db, &dir, 4).unwrap();
    store.flush().unwrap();
    let shards = 3; // 12 bags at capacity 4, all sealed and indexed.
    assert!(store.shard_index(shards - 1).is_some());
    let concept = Concept::new(vec![1.0, 2.5, 0.5, 3.0], vec![1.0, 0.5, 2.0, 0.25]);

    for aggregator in BagAggregator::ALL.into_iter().filter(|a| !a.is_min()) {
        let screened_before = counter("milr_rank_quant_screened_total");
        let tightened_before = counter("milr_rank_threshold_tightenings_total");
        let fallbacks_before = counter("milr_rank_index_fallbacks_total");

        let bounded = RankRequest::all().top(2).aggregator(aggregator);
        let paged = store.rank(&concept, &bounded).unwrap();
        assert_eq!(
            counter("milr_rank_index_fallbacks_total") - fallbacks_before,
            shards as u64,
            "{aggregator}: one fallback per shard on a bounded indexed scan"
        );

        // Unbounded scans and explicit index opt-outs are not fallbacks
        // even under the exact fold — same rule as min-distance.
        let full = store
            .rank(&concept, &RankRequest::all().aggregator(aggregator))
            .unwrap();
        store.rank(&concept, &bounded.clone().index(false)).unwrap();
        assert_eq!(
            counter("milr_rank_index_fallbacks_total") - fallbacks_before,
            shards as u64,
            "{aggregator}: only the bounded indexed scan falls back"
        );

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

#[test]
fn cell_skips_fire_on_clustered_data_without_changing_the_ranking() {
    let _serial = serial();
    // One sealed shard, 16 single-instance bags: bag 0 sits exactly on
    // the query, the rest far away. The top-1 bound collapses to ~0
    // after the first bag, so every far cell is provably skippable.
    let bags: Vec<Bag> = (0..16)
        .map(|i| {
            let offset = if i == 0 { 0.0f32 } else { 500.0 + i as f32 };
            Bag::new(vec![vec![offset, offset + 1.0, offset + 2.0, offset + 3.0]]).unwrap()
        })
        .collect();
    let db = RetrievalDatabase::from_bags(bags, vec![0; 16]).unwrap();
    let dir = scratch("skips");
    let store = ShardedDatabase::from_database(&db, &dir, 16).unwrap();
    assert!(store.shard_index(0).is_some(), "shard seals at capacity");
    let concept = Concept::new(vec![0.0, 1.0, 2.0, 3.0], vec![1.0; 4]);

    let scanned_before = counter("milr_rank_cells_scanned_total");
    let skipped_before = counter("milr_rank_cells_skipped_total");
    let request = RankRequest::all().top(1);
    let indexed = store.rank(&concept, &request).unwrap();
    let scanned = counter("milr_rank_cells_scanned_total") - scanned_before;
    let skipped = counter("milr_rank_cells_skipped_total") - skipped_before;
    assert!(scanned >= 1, "the winning bag's cell is always scanned");
    assert!(skipped >= 1, "far cells must be skipped, got {skipped}");

    let unindexed = store.rank(&concept, &request.clone().index(false)).unwrap();
    let exact = store.rank_exact(&concept, &request).unwrap();
    assert_eq!(indexed, unindexed, "skipping must not change the ranking");
    assert_eq!(indexed, exact);
    assert_eq!(indexed[0].0, 0, "bag 0 sits on the query point");

    std::fs::remove_dir_all(&dir).ok();
}
