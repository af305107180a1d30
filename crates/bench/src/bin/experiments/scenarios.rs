//! The `scenarios` experiment: the sub-image relevance-feedback scenario
//! (a region-of-interest query refined over simulated feedback rounds,
//! after Luo & Nascimento's region-based relevance feedback) measured
//! across every aggregator × feature-backend cell, written to
//! `BENCH_scenarios.json`.
//!
//! For each backend (`gray-block`, `sbn`) the same fixed corpus is
//! featurised into a retrieval database. For each category the query is
//! a *cropped region* of one of its images — not the whole image — so
//! the scenario exercises exactly the path the daemon's `POST /rank`
//! serves: featurise the region with the snapshot's backend, train
//! against a handful of counter-example images, then refine by promoting
//! top-ranked false positives to negatives. The final concept is ranked
//! once per [`BagAggregator`], and per-cell accuracy (precision@k,
//! average precision, delta vs min-distance) lands in the artifact that
//! `bench_gate` holds against `ci/bench_scenarios_baseline.json`.
//!
//! Everything here is pinned — corpus size, seed, crop geometry, solver
//! budget — and deliberately ignores `--quick`/`--seed`, because the
//! gate's min-distance/gray-block cell is checked for *exact* equality
//! with the checked-in baseline: same inputs, same floats, same ranking,
//! same accuracy, on any machine. The aggregator cells are compared
//! within a frozen tolerance band instead (their softmin/noisy-or folds
//! lean on `exp`/`ln`, where the last ulp may differ across libms and a
//! near-tie can swap adjacent ranks).

use milr_baseline::{feature_backend, BACKEND_IDS};
use milr_core::{eval, FeatureBackend, QuerySession, RankRequest, RetrievalConfig};
use milr_core::{Ranking, RetrievalDatabase};
use milr_imgproc::Rect;
use milr_mil::BagAggregator;
use milr_synth::SceneDatabase;

/// Images per scene category — 5 categories, 60 images total. Small
/// enough that the full grid (2 backends × 5 categories × 2 training
/// rounds, then 4 aggregator rankings each) stays a CI-sized job.
const PER_CATEGORY: usize = 12;

/// Corpus seed. Pinned: the artifact must be reproducible bit-for-bit.
const SEED: u64 = 41;

/// Page size for precision@k — one retrieval screen.
const K: usize = 16;

/// False positives promoted to negatives after the first round.
const PROMOTED: usize = 3;

/// One retrieval cell of the scenario grid.
struct Cell {
    backend: &'static str,
    aggregator: BagAggregator,
    precision_at_k: f64,
    average_precision: f64,
    delta_ap_vs_min: f64,
}

pub fn scenarios() {
    println!(
        "sub-image relevance-feedback scenario: {PER_CATEGORY} images/category, \
         seed {SEED}, precision@{K}, {PROMOTED} false positives promoted\n"
    );

    let scenes = SceneDatabase::builder()
        .images_per_category(PER_CATEGORY)
        .seed(SEED)
        .build();
    let config = scenario_config();

    let mut cells: Vec<Cell> = Vec::new();
    let mut default_bit_identical = true;

    for backend_id in BACKEND_IDS {
        let backend = feature_backend(backend_id).expect("registry lists this backend");
        let db = featurise(&scenes, &*backend, &config);

        // Per-aggregator relevance flags, averaged over categories.
        let mut precision_sums = [0.0f64; BagAggregator::ALL.len()];
        let mut ap_sums = [0.0f64; BagAggregator::ALL.len()];
        for category in 0..scenes.categories().len() {
            let concept = train_region_concept(&scenes, &db, &*backend, &config, category);
            for (slot, &aggregator) in BagAggregator::ALL.iter().enumerate() {
                let request = RankRequest::all().aggregator(aggregator);
                let ranking = db.rank(&concept, &request).expect("ranking failed");
                if aggregator.is_min() {
                    // The wire contract: a request that never mentions an
                    // aggregator ranks bit-identically to explicit
                    // min-distance, on this path as on every other.
                    let default_ranking = db
                        .rank(&concept, &RankRequest::all())
                        .expect("ranking failed");
                    default_bit_identical &= bitwise_equal(&ranking, &default_ranking);
                }
                let relevant = eval::relevance(&ranking, db.labels(), category);
                precision_sums[slot] += precision_at(&relevant, K);
                ap_sums[slot] += eval::average_precision(&relevant);
            }
        }

        let n = scenes.categories().len() as f64;
        let min_slot = BagAggregator::ALL
            .iter()
            .position(|a| a.is_min())
            .expect("min-distance is always registered");
        for (slot, &aggregator) in BagAggregator::ALL.iter().enumerate() {
            cells.push(Cell {
                backend: backend_id,
                aggregator,
                precision_at_k: precision_sums[slot] / n,
                average_precision: ap_sums[slot] / n,
                delta_ap_vs_min: (ap_sums[slot] - ap_sums[min_slot]) / n,
            });
        }
    }

    print_table(&cells);
    println!("\ndefault/min-distance rankings bit-identical: {default_bit_identical}");

    write_artifact(&cells, default_bit_identical, scenes.categories().len());
}

/// The pinned training configuration: the paper's defaults with a
/// reduced solver budget (the grid trains 10 concepts; each query has
/// one positive region and a handful of negatives, which converges well
/// inside 60 iterations).
fn scenario_config() -> RetrievalConfig {
    RetrievalConfig {
        max_iterations: 60,
        ..RetrievalConfig::default()
    }
}

/// Featurises the whole corpus through one backend. The gray-block
/// column goes through `gray_bag` on the luminance conversion — the
/// byte-identical classic pipeline — while SBN consumes the colour
/// images directly.
fn featurise(
    scenes: &SceneDatabase,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
) -> RetrievalDatabase {
    let bags = scenes
        .images()
        .iter()
        .map(|image| backend.color_bag(image, config).expect("featurise failed"))
        .collect();
    RetrievalDatabase::from_bags(bags, scenes.labels().to_vec()).expect("corpus is non-empty")
}

/// Runs the scenario's query protocol for one category and returns the
/// final concept: crop a region of the category's first image, train it
/// against one counter-example image per other category, then promote
/// the top false positives and retrain.
fn train_region_concept(
    scenes: &SceneDatabase,
    db: &RetrievalDatabase,
    backend: &dyn FeatureBackend,
    config: &RetrievalConfig,
    category: usize,
) -> std::sync::Arc<milr_mil::Concept> {
    let labels = scenes.labels();
    let query_index = labels
        .iter()
        .position(|&l| l == category)
        .expect("category is populated");

    // The region of interest: the central two-thirds of the query image,
    // cropped *before* featurisation — both backends see only the
    // region's pixels, exactly as the daemon featurises an uploaded ROI.
    let image = &scenes.images()[query_index];
    let (w, h) = (image.width(), image.height());
    let roi = Rect::new(w / 6, h / 6, w - 2 * (w / 6), h - 2 * (h / 6));
    let region = image.crop(roi).expect("centred ROI fits");
    let query_bag = backend
        .color_bag(&region, config)
        .expect("region featurise failed");

    // One counter-example image per other category, by first index —
    // the deterministic stand-in for the user's initial negatives.
    let negatives: Vec<usize> = (0..scenes.categories().len())
        .filter(|&c| c != category)
        .map(|c| labels.iter().position(|&l| l == c).expect("populated"))
        .collect();

    let all: Vec<usize> = (0..db.len()).collect();
    let mut session = QuerySession::builder(db)
        .config(config)
        .positives(Vec::new())
        .negatives(negatives)
        .pool(all)
        .build()
        .expect("session setup failed");
    session
        .add_positive_bag(query_bag)
        .expect("region bag fits");
    session.train_round().expect("training failed");

    // Feedback: the user scans the first page, flags the false
    // positives, and the system retrains. Training and promotion use
    // min-distance — the concept is shared by every aggregator cell.
    let page = session
        .rank(&RankRequest::all().top(K))
        .expect("feedback ranking failed");
    let false_positives: Vec<usize> = page
        .iter()
        .filter(|&&(index, _)| labels[index] != category)
        .map(|&(index, _)| index)
        .take(PROMOTED)
        .collect();
    if !false_positives.is_empty() {
        session
            .add_negatives(&false_positives)
            .expect("promotion failed");
        session.train_round().expect("retraining failed");
    }
    session
        .shared_concept()
        .expect("training produced a concept")
}

/// Fraction of the first `k` ranks that are relevant.
fn precision_at(relevant: &[bool], k: usize) -> f64 {
    let k = k.min(relevant.len());
    relevant[..k].iter().filter(|&&r| r).count() as f64 / k as f64
}

/// Bitwise ranking equality: same order, same distance bits.
fn bitwise_equal(a: &Ranking, b: &Ranking) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(i, d), &(j, e))| i == j && d.to_bits() == e.to_bits())
}

fn print_table(cells: &[Cell]) {
    println!(
        "  {:<12} {:<18} {:>8} {:>8} {:>10}",
        "backend", "aggregator", "prec@16", "AP", "ΔAP vs min"
    );
    for cell in cells {
        println!(
            "  {:<12} {:<18} {:>8.4} {:>8.4} {:>+10.4}",
            cell.backend,
            cell.aggregator.label(),
            cell.precision_at_k,
            cell.average_precision,
            cell.delta_ap_vs_min,
        );
    }
}

fn write_artifact(cells: &[Cell], default_bit_identical: bool, categories: usize) {
    let cell_json = |backend: &str| {
        cells
            .iter()
            .filter(|c| c.backend == backend)
            .map(|c| {
                format!(
                    "      \"{}\": {{ \"precision_at_k\": {:.6}, \
                     \"average_precision\": {:.6}, \"delta_ap_vs_min\": {:.6} }}",
                    c.aggregator.label(),
                    c.precision_at_k,
                    c.average_precision,
                    c.delta_ap_vs_min,
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let backends = BACKEND_IDS
        .iter()
        .map(|backend| format!("    \"{backend}\": {{\n{}\n    }}", cell_json(backend)))
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"scenario\": \"subimage-feedback\",\n  \
         \"per_category\": {PER_CATEGORY},\n  \"seed\": {SEED},\n  \"k\": {K},\n  \
         \"categories\": {categories},\n  \"promoted_false_positives\": {PROMOTED},\n  \
         \"default_bit_identical\": {default_bit_identical},\n  \
         \"cells\": {{\n{backends}\n  }}\n}}\n"
    );
    let path = "BENCH_scenarios.json";
    std::fs::write(path, &json).expect("write BENCH_scenarios.json");
    println!("\nwrote {path}");
}
