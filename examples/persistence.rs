//! Persistence: preprocess once, write the bags as a snapshot
//! directory, reload it, and keep querying without touching pixels.
//!
//! ```text
//! cargo run --release --example persistence
//! ```

use milr::core::eval;
use milr::prelude::*;
use milr::store::{load_snapshot, ShardedDatabase};

fn main() {
    let dir = std::env::temp_dir().join("milr_persistence_example");
    std::fs::remove_dir_all(&dir).ok();

    // --- First "session": preprocess, persist, train. ------------------
    let db = SceneDatabase::builder()
        .images_per_category(12)
        .seed(31)
        .build();
    let config = RetrievalConfig {
        feedback_rounds: 2,
        initial_positives: 3,
        initial_negatives: 3,
        ..RetrievalConfig::default()
    };
    println!("preprocessing {} images ...", db.len());
    let retrieval = RetrievalDatabase::from_labelled_images(db.gray_images(), &config).unwrap();
    // Sixteen bags per shard, so even this small corpus spans several
    // shard files.
    let mut store = ShardedDatabase::from_database(&retrieval, &dir, 16).unwrap();
    store.flush().unwrap();
    let bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len())
        .sum();
    println!(
        "wrote snapshot {} ({} bags, {} dims, {} shards, {bytes} bytes)",
        dir.display(),
        retrieval.len(),
        retrieval.feature_dim(),
        store.shard_count(),
    );

    let split = db.split(0.3, 2);
    let target = db.category_index("waterfall").unwrap();
    let mut session = QuerySession::builder(&retrieval)
        .config(&config)
        .target(target)
        .pool(split.pool.clone())
        .test(split.test.clone())
        .build()
        .unwrap();
    session.run().unwrap();
    let concept = session.concept().unwrap();

    // --- Second "session": reload the bags and query. ------------------
    let snapshot = load_snapshot(&dir).unwrap();
    let reloaded = snapshot.database;
    println!(
        "\nreloaded snapshot: {} bags, generation {}, backend {}",
        reloaded.len(),
        snapshot.generation,
        snapshot.backend
    );

    let ranking = reloaded
        .rank(concept, &RankRequest::over(split.test.clone()))
        .unwrap();
    let relevant: Vec<bool> = ranking
        .iter()
        .map(|&(i, _)| reloaded.labels()[i] == target)
        .collect();
    println!(
        "retrieval from the reloaded snapshot: average precision {:.3} over {} images",
        eval::average_precision(&relevant),
        relevant.len()
    );

    // The reloaded ranking is identical to the in-memory one.
    let original_ranking = retrieval
        .rank(concept, &RankRequest::over(split.test.clone()))
        .unwrap();
    assert_eq!(
        ranking, original_ranking,
        "persistence must not change rankings"
    );
    println!("ranking identical to the in-memory session — persistence is lossless.");

    std::fs::remove_dir_all(&dir).ok();
}
