//! Integration tests of the §5 extensions (colour features, edge
//! preprocessing, rotation instances) and persistence through the full
//! pipeline.

use milr::core::config::Preprocessing;
use milr::core::features::color_image_to_bag;
use milr::core::{eval, QuerySession, RetrievalConfig, RetrievalDatabase};
use milr::imgproc::RegionLayout;
use milr::mil::WeightPolicy;
use milr::synth::SceneDatabase;

fn fast_config() -> RetrievalConfig {
    RetrievalConfig {
        resolution: 5,
        layout: RegionLayout::Small,
        policy: WeightPolicy::Identical,
        feedback_rounds: 1,
        initial_positives: 3,
        initial_negatives: 3,
        max_iterations: 30,
        ..RetrievalConfig::default()
    }
}

fn scenes() -> SceneDatabase {
    SceneDatabase::builder()
        .images_per_category(8)
        .seed(17)
        .dimensions(80, 60)
        .build()
}

fn run_and_score(
    retrieval: &RetrievalDatabase,
    config: &RetrievalConfig,
    target: usize,
    pool: Vec<usize>,
    test: Vec<usize>,
) -> f64 {
    let mut session = QuerySession::builder(retrieval)
        .config(config)
        .target(target)
        .pool(pool)
        .test(test)
        .build()
        .unwrap();
    let ranking = session.run().unwrap();
    let relevant = eval::relevance(&ranking, retrieval.labels(), target);
    eval::average_precision(&relevant)
}

#[test]
fn color_pipeline_retrieves_end_to_end() {
    let db = scenes();
    let config = fast_config();
    let bags: Vec<milr::mil::Bag> = db
        .images()
        .iter()
        .map(|img| color_image_to_bag(img, &config).unwrap())
        .collect();
    let retrieval = RetrievalDatabase::from_bags(bags, db.labels().to_vec()).unwrap();
    assert_eq!(retrieval.feature_dim(), 3 * config.feature_dim());
    let split = db.split(0.4, 4);
    let target = db.category_index("sunset").unwrap();
    let ap = run_and_score(&retrieval, &config, target, split.pool, split.test);
    assert!(
        ap > 0.3,
        "colour pipeline should retrieve sunsets: AP = {ap}"
    );
}

#[test]
fn edge_pipeline_retrieves_end_to_end() {
    let db = scenes();
    let config = RetrievalConfig {
        preprocessing: Preprocessing::SobelMagnitude,
        // Edge magnitudes have lower variance than raw intensity.
        variance_threshold: 5.0,
        ..fast_config()
    };
    let retrieval = RetrievalDatabase::from_labelled_images(db.gray_images(), &config).unwrap();
    let split = db.split(0.4, 5);
    let target = db.category_index("waterfall").unwrap();
    let ap = run_and_score(&retrieval, &config, target, split.pool, split.test);
    // The paper found edge features unsatisfying, not useless — they
    // must still function as a pipeline.
    assert!(
        ap > 0.25,
        "edge pipeline should at least beat random: AP = {ap}"
    );
}

#[test]
fn rotation_instances_flow_through_training() {
    let db = SceneDatabase::builder()
        .images_per_category(5)
        .seed(18)
        .dimensions(80, 60)
        .build();
    let config = RetrievalConfig {
        rotation_angles: vec![0.2],
        initial_positives: 2,
        initial_negatives: 2,
        ..fast_config()
    };
    let retrieval = RetrievalDatabase::from_labelled_images(db.gray_images(), &config).unwrap();
    // Bags must be larger than without rotations.
    let plain_config = RetrievalConfig {
        rotation_angles: vec![],
        ..config.clone()
    };
    let plain = RetrievalDatabase::from_labelled_images(db.gray_images(), &plain_config).unwrap();
    let rotated_len = retrieval.bag(0).unwrap().len();
    let plain_len = plain.bag(0).unwrap().len();
    assert!(
        rotated_len > plain_len,
        "rotation instances must enlarge bags: {rotated_len} vs {plain_len}"
    );
    let split = db.split(0.4, 6);
    let target = db.category_index("field").unwrap();
    let ap = run_and_score(&retrieval, &config, target, split.pool, split.test);
    assert!(ap.is_finite() && ap > 0.0);
}

#[test]
fn database_persistence_preserves_query_results() {
    let db = scenes();
    let config = fast_config();
    let retrieval = RetrievalDatabase::from_labelled_images(db.gray_images(), &config).unwrap();
    let path = std::env::temp_dir()
        .join("milr_integration_storage")
        .join("scenes_it");
    let mut store = milr::store::ShardedDatabase::from_database(&retrieval, &path, 16).unwrap();
    store.flush().unwrap();
    let reloaded = milr::store::load_snapshot(&path).unwrap().database;

    let split = db.split(0.4, 8);
    let target = db.category_index("lake").unwrap();
    // Same session against both databases must give identical rankings.
    let mut s1 = QuerySession::builder(&retrieval)
        .config(&config)
        .target(target)
        .pool(split.pool.clone())
        .test(split.test.clone())
        .build()
        .unwrap();
    let r1 = s1.run().unwrap();
    let mut s2 = QuerySession::builder(&reloaded)
        .config(&config)
        .target(target)
        .pool(split.pool)
        .test(split.test)
        .build()
        .unwrap();
    let r2 = s2.run().unwrap();
    assert_eq!(r1, r2, "persistence must not perturb any query result");
    std::fs::remove_dir_all(path).ok();
}
