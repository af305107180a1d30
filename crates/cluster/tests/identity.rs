//! Property tests of the cluster's central promises, driven through the
//! pure scatter/gather layer (no sockets — the wire is exercised by the
//! node integration tests and the cross-process e2e suite):
//!
//! * a healthy cluster's merged ranking is **bit-identical** to the
//!   single-node scatter, for any shard layout and any shard→worker
//!   assignment;
//! * a degraded cluster returns the exact top-k over the surviving
//!   shards, `partial` iff any worker dropped;
//! * seeding a subset scan's `initial_bound` with a k-th-best bound
//!   never changes the merge;
//! * rankings survive the JSON wire bit-exactly.

use proptest::prelude::*;

use milr_cluster::protocol::{
    assign_shards, gather, ranking_from_json, ranking_to_json, GatherInput,
};
use milr_core::{RankRequest, RetrievalDatabase};
use milr_mil::{Bag, BagAggregator, Concept, Mirror};
use milr_store::{read_manifest, ShardSubset, ShardedDatabase};

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
        .join("milr_cluster_proptests")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Writes `db` as a sharded snapshot spread over (up to) `shards`
/// shards and returns the directory.
fn sharded_dir(db: &RetrievalDatabase, shards: usize, tag: &str) -> std::path::PathBuf {
    let dir = scratch_dir(tag);
    let capacity = db.len().div_ceil(shards);
    let mut store = ShardedDatabase::from_database(db, &dir, capacity).unwrap();
    store.flush().unwrap();
    dir
}

/// Simulates the healthy scatter in-process: every worker opens its
/// assigned subset and ranks with the given initial bound.
fn scatter_inputs(
    dir: &std::path::Path,
    assignment: &[Vec<u64>],
    concept: &Concept,
    k: usize,
    bound: f64,
) -> Vec<GatherInput> {
    assignment
        .iter()
        .map(|ids| {
            let subset = ShardSubset::open(dir, ids).unwrap();
            let scan = subset
                .rank_top_k_with(concept, k, bound, 1, milr_mil::BagAggregator::MinDistance)
                .unwrap();
            GatherInput {
                shard_ids: ids.clone(),
                ranking: Some(scan.ranking),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// THE tentpole contract: for any shard layout and any number of
    /// workers, assigning shards round-robin, ranking each subset
    /// independently, and gather-merging the per-worker pages is
    /// bit-identical — index for index, bit for bit on every distance —
    /// to the single-node scatter over the same snapshot.
    #[test]
    fn healthy_gather_is_bit_identical_to_single_node(
        db in db_strategy(),
        concept in concept_strategy(),
        shards in 1usize..9,
        workers in 1usize..6,
        k in 0usize..12,
    ) {
        let dir = sharded_dir(&db, shards, "identity");
        let store = ShardedDatabase::open(&dir).unwrap();
        let summary = read_manifest(&dir).unwrap();
        let ids: Vec<u64> = summary.shards.iter().map(|s| s.id).collect();
        let assignment = assign_shards(&ids, workers);

        let inputs = scatter_inputs(&dir, &assignment, &concept, k, f64::INFINITY);
        let gathered = gather(inputs, k);
        prop_assert!(!gathered.partial);
        prop_assert!(gathered.missing_shards.is_empty());

        let single = store.rank(&concept, &RankRequest::all().top(k)).unwrap();
        prop_assert_eq!(gathered.ranking.len(), single.len());
        for (a, b) in gathered.ranking.iter().zip(&single) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    /// The same contract over shards whose bags are stored as mirror
    /// pairs (5×5-block instances, each bag mirror-closed or not), for
    /// every aggregator: the workers' subsets read twins through the
    /// mirror exactly as the single node does.
    #[test]
    fn healthy_gather_is_bit_identical_on_paired_shards(
        raw in proptest::collection::vec(
            (
                proptest::collection::vec(proptest::collection::vec(-10.0f32..10.0, 25), 1..4),
                0usize..2,
            ),
            1..30,
        ),
        point in proptest::collection::vec(-10.0f64..10.0, 25),
        weights in proptest::collection::vec(0.05f64..3.0, 25),
        shards in 1usize..6,
        workers in 1usize..4,
        k in 1usize..12,
    ) {
        let mirror = Mirror::new(5);
        let bags: Vec<Bag> = raw
            .into_iter()
            .map(|(halves, closed)| {
                let closed = closed == 1;
                Bag::new(if closed {
                    halves.iter().flat_map(|x| [x.clone(), mirror.apply(x)]).collect()
                } else {
                    halves
                })
                .unwrap()
            })
            .collect();
        let labels = (0..bags.len()).map(|n| n % 3).collect();
        let db = RetrievalDatabase::from_bags(bags, labels).unwrap();
        let concept = Concept::new(point, weights);
        let dir = sharded_dir(&db, shards, "paired");
        let store = ShardedDatabase::open(&dir).unwrap();
        let ids: Vec<u64> = read_manifest(&dir).unwrap().shards.iter().map(|s| s.id).collect();
        let assignment = assign_shards(&ids, workers);
        for aggregator in BagAggregator::ALL {
            let inputs = assignment
                .iter()
                .map(|ids| {
                    let scan = ShardSubset::open(&dir, ids)
                        .unwrap()
                        .rank_top_k_with(&concept, k, f64::INFINITY, 1, aggregator)
                        .unwrap();
                    GatherInput { shard_ids: ids.clone(), ranking: Some(scan.ranking) }
                })
                .collect();
            let gathered = gather(inputs, k);
            let single = store
                .rank(&concept, &RankRequest::all().top(k).aggregator(aggregator))
                .unwrap();
            let naive = db
                .rank(&concept, &RankRequest::all().top(k).aggregator(aggregator))
                .unwrap();
            prop_assert!(!gathered.partial);
            prop_assert_eq!(gathered.ranking.len(), single.len());
            prop_assert_eq!(single.len(), naive.len());
            for ((a, b), c) in gathered.ranking.iter().zip(&single).zip(&naive) {
                prop_assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
                prop_assert_eq!((b.0, b.1.to_bits()), (c.0, c.1.to_bits()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Degraded merges: drop any non-empty subset of workers. The
    /// result must be the exact top-k over the surviving shards'
    /// bags (the single-node ranking restricted to those indices), and
    /// `partial` must hold iff at least one worker dropped.
    #[test]
    fn degraded_gather_is_exact_over_survivors(
        db in db_strategy(),
        concept in concept_strategy(),
        shards in 1usize..9,
        workers in 1usize..6,
        k in 0usize..12,
        drop_mask in 0u32..32,
    ) {
        let dir = sharded_dir(&db, shards, "degraded");
        let summary = read_manifest(&dir).unwrap();
        let ids: Vec<u64> = summary.shards.iter().map(|s| s.id).collect();
        let assignment = assign_shards(&ids, workers);

        let mut inputs = scatter_inputs(&dir, &assignment, &concept, k, f64::INFINITY);
        let mut dropped_any = false;
        let mut missing = Vec::new();
        for (index, input) in inputs.iter_mut().enumerate() {
            if drop_mask & (1 << index) != 0 {
                input.ranking = None;
                dropped_any = true;
                missing.extend(input.shard_ids.iter().copied());
            }
        }
        missing.sort_unstable();

        let gathered = gather(inputs, k);
        prop_assert_eq!(gathered.partial, dropped_any);
        prop_assert_eq!(&gathered.missing_shards, &missing);

        // Survivors' global bag indices, from the manifest layout.
        let surviving: Vec<usize> = summary
            .shards
            .iter()
            .filter(|shard| !missing.contains(&shard.id))
            .flat_map(|shard| shard.base..shard.base + shard.bag_count)
            .collect();
        let expected = if surviving.is_empty() {
            Vec::new()
        } else {
            let full = db.rank(&concept, &RankRequest::over(surviving)).unwrap();
            full[..k.min(full.len())].to_vec()
        };
        prop_assert_eq!(gathered.ranking.len(), expected.len());
        for (a, b) in gathered.ranking.iter().zip(&expected) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    /// `ShardSubset::rank_top_k_with`'s `initial_bound` is sound:
    /// seeding every subset with the global k-th best distance (the
    /// tightest legitimate seed) changes nothing about the merged page.
    #[test]
    fn forwarded_bound_never_changes_the_merge(
        db in db_strategy(),
        concept in concept_strategy(),
        shards in 1usize..9,
        workers in 1usize..6,
        k in 1usize..12,
    ) {
        let dir = sharded_dir(&db, shards, "bound");
        let store = ShardedDatabase::open(&dir).unwrap();
        let summary = read_manifest(&dir).unwrap();
        let ids: Vec<u64> = summary.shards.iter().map(|s| s.id).collect();
        let assignment = assign_shards(&ids, workers);

        let single = store.rank(&concept, &RankRequest::all().top(k)).unwrap();
        let bound = if single.len() >= k {
            single[k - 1].1
        } else {
            f64::INFINITY
        };

        let seeded = gather(
            scatter_inputs(&dir, &assignment, &concept, k, bound),
            k,
        );
        prop_assert!(!seeded.partial);
        prop_assert_eq!(seeded.ranking.len(), single.len());
        for (a, b) in seeded.ranking.iter().zip(&single) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    /// The ranking wire codec is lossless: any finite non-negative
    /// distances round-trip through JSON text bit-exactly.
    #[test]
    fn ranking_survives_the_wire_bit_exactly(
        pairs in proptest::collection::vec((0usize..10_000, 0.0f64..1e12), 0..40),
    ) {
        let json = ranking_to_json(&pairs);
        let text = json.dump();
        let parsed = ranking_from_json(&milr_serve::Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(parsed.len(), pairs.len());
        for (a, b) in parsed.iter().zip(&pairs) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }
}
