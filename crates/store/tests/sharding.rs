//! Property and regression tests of the sharded store's core contract:
//! scatter-gather ranking over any shard layout is bit-identical to the
//! monolithic ranking, and survives a flush/reopen round trip.

use proptest::prelude::*;

use milr_core::{RankRequest, RetrievalDatabase};
use milr_mil::{Bag, Concept};
use milr_store::ShardedDatabase;
use milr_synth::corpus;

const DIM: usize = 5;

/// Strategy: a database of 1..=40 bags, each with 1..=4 instances of
/// dimension [`DIM`], labels over three categories.
fn db_strategy() -> impl Strategy<Value = RetrievalDatabase> {
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, DIM), 1..5),
            0usize..3,
        ),
        1..41,
    )
    .prop_map(|raw| {
        let mut bags = Vec::with_capacity(raw.len());
        let mut labels = Vec::with_capacity(raw.len());
        for (instances, label) in raw {
            bags.push(Bag::new(instances).unwrap());
            labels.push(label);
        }
        RetrievalDatabase::from_bags(bags, labels).unwrap()
    })
}

/// Strategy: a concept point and strictly positive weights.
fn concept_strategy() -> impl Strategy<Value = Concept> {
    (
        proptest::collection::vec(-10.0f64..10.0, DIM),
        proptest::collection::vec(0.05f64..3.0, DIM),
    )
        .prop_map(|(point, weights)| Concept::new(point, weights))
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("milr_store_proptests")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// THE contract: for any bag distribution across 1..=8 shards, the
    /// scatter-gather top-k ranking is bit-identical — index for index,
    /// bit for bit on every distance — to the monolithic ranking.
    #[test]
    fn scatter_gather_is_bit_identical_to_monolithic(
        db in db_strategy(),
        concept in concept_strategy(),
        shards in 1usize..9,
        k in 0usize..12,
    ) {
        // Capacity chosen so the bags spread over (up to) `shards`
        // shards — fewer when the database is small.
        let capacity = db.len().div_ceil(shards);
        let store =
            ShardedDatabase::from_database(&db, scratch_dir("prop"), capacity).unwrap();
        prop_assert!(store.shard_count() <= shards);

        let full = db.rank(&concept, &RankRequest::all()).unwrap();
        let sharded_full = store.rank(&concept, &RankRequest::all()).unwrap();
        prop_assert_eq!(&sharded_full, &full);
        for (a, b) in sharded_full.iter().zip(&full) {
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }

        let top = store.rank(&concept, &RankRequest::all().top(k)).unwrap();
        prop_assert_eq!(&top[..], &full[..k.min(full.len())]);

        // The exact (unscreened) path must agree with the screened one
        // on every request shape.
        let exact_full = store.rank_exact(&concept, &RankRequest::all()).unwrap();
        prop_assert_eq!(&exact_full, &full);
        let exact_top = store.rank_exact(&concept, &RankRequest::all().top(k)).unwrap();
        prop_assert_eq!(&exact_top[..], &top[..]);
    }

    /// Tombstoning any subset leaves the sharded ranking identical to
    /// the monolithic ranking restricted to the surviving candidates.
    #[test]
    fn tombstoned_rank_matches_restricted_monolithic(
        db in db_strategy(),
        concept in concept_strategy(),
        shards in 1usize..9,
        seed in 0u64..1000,
    ) {
        let capacity = db.len().div_ceil(shards);
        let mut store =
            ShardedDatabase::from_database(&db, scratch_dir("tomb"), capacity).unwrap();
        // Deterministic pseudo-random subset, never everything.
        let mut live = Vec::new();
        for i in 0..db.len() {
            if corpus::tombstone_pattern(i, seed, 3) && live.len() + 1 < db.len() {
                store.delete(i).unwrap();
            } else {
                live.push(i);
            }
        }
        let sharded = store.rank(&concept, &RankRequest::all()).unwrap();
        let monolithic = db.rank(&concept, &RankRequest::over(live)).unwrap();
        prop_assert_eq!(&sharded, &monolithic);
        let exact = store.rank_exact(&concept, &RankRequest::all()).unwrap();
        prop_assert_eq!(&exact, &monolithic);
    }

    /// The quantized-screened scatter ranking is bit-identical to a
    /// naive serial scan — min instance distance per bag, sorted by
    /// `(distance, index)` — across random shard layouts, tombstones,
    /// every k, and a flush/reopen of the persisted quantized tier.
    #[test]
    fn screened_rank_is_bit_identical_to_naive_scan(
        db in db_strategy(),
        concept in concept_strategy(),
        shards in 1usize..9,
        k in 0usize..12,
        seed in 0u64..1000,
    ) {
        let dir = scratch_dir("naive");
        let capacity = db.len().div_ceil(shards);
        let mut store = ShardedDatabase::from_database(&db, &dir, capacity).unwrap();
        let mut live = Vec::new();
        for i in 0..db.len() {
            if corpus::tombstone_pattern(i, seed, 4) && live.len() + 1 < db.len() {
                store.delete(i).unwrap();
            } else {
                live.push(i);
            }
        }

        // The reference nobody can argue with: a serial fold over the
        // canonical instance kernel, then a lexicographic sort.
        let mut naive: Vec<(usize, f64)> = live
            .iter()
            .map(|&i| {
                let bag = db.bag(i).unwrap();
                let d = bag
                    .instances()
                    .map(|inst| concept.instance_distance_sq(inst))
                    .fold(f64::INFINITY, f64::min)
;
                (i, d)
            })
            .collect();
        naive.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        for request in [RankRequest::all(), RankRequest::all().top(k)] {
            let want = &naive[..request.top_k.map_or(naive.len(), |k| k.min(naive.len()))];
            let got = store.rank(&concept, &request).unwrap();
            prop_assert_eq!(&got[..], want);
            for (a, b) in got.iter().zip(want) {
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }

        // Round-trip: the persisted quantized tier must screen the same.
        store.flush().unwrap();
        let reopened = ShardedDatabase::open(&dir).unwrap();
        let got = reopened.rank(&concept, &RankRequest::all().top(k)).unwrap();
        prop_assert_eq!(&got[..], &naive[..k.min(naive.len())]);

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn k_beyond_live_count_returns_exactly_the_live_set() {
    // Edge case: `k` far larger than the post-tombstone bag count must
    // return every live bag — once in ranked order, no padding, no
    // tombstoned stragglers — through the screened and exact paths
    // alike.
    let bags: Vec<Bag> = corpus::lattice_bags(23, DIM)
        .into_iter()
        .map(|instances| Bag::new(instances).unwrap())
        .collect();
    let db = RetrievalDatabase::from_bags(bags, corpus::lattice_labels(23)).unwrap();
    let concept = Concept::new(vec![2.0; DIM], vec![0.5, 1.0, 1.5, 0.75, 0.25]);

    let dir = scratch_dir("k_beyond");
    let mut store = ShardedDatabase::from_database(&db, &dir, 4).unwrap();
    let mut live = Vec::new();
    for i in 0..db.len() {
        if corpus::tombstone_pattern(i, 11, 3) && live.len() + 1 < db.len() {
            store.delete(i).unwrap();
        } else {
            live.push(i);
        }
    }
    assert!(
        live.len() < db.len(),
        "the pattern must tombstone something"
    );
    store.flush().unwrap();

    let expected = db.rank(&concept, &RankRequest::over(live.clone())).unwrap();
    for k in [live.len(), live.len() + 1, db.len(), 10 * db.len()] {
        let request = RankRequest::all().top(k);
        let screened = store.rank(&concept, &request).unwrap();
        assert_eq!(screened.len(), live.len(), "k = {k}");
        assert_eq!(screened, expected, "k = {k}");
        let exact = store.rank_exact(&concept, &request).unwrap();
        assert_eq!(exact, expected, "k = {k}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
