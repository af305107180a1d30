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
//! average precision, delta vs min-distance) lands in the artifact.
//!
//! Everything here is pinned — corpus size, seed, crop geometry, solver
//! budget — and deliberately ignores `--quick`/`--seed`, so the grid
//! reproduces to the bit. `--check` compares a fresh grid with the
//! committed artifact through `milr_testkit::artifact::diff`: every
//! cell within the 1e-9 the artifact states, in both directions, so a
//! change that moves any cell re-blesses the file (run without
//! `--check`) in the same commit. Both modes also hold the grid to its
//! own claims ([`predicate_failures`]) and refuse to bless a grid that
//! breaks them.

use milr_baseline::{feature_backend, BACKEND_IDS};
use milr_core::{eval, FeatureBackend, QuerySession, RankRequest, RetrievalConfig};
use milr_core::{Ranking, RetrievalDatabase};
use milr_imgproc::Rect;
use milr_mil::BagAggregator;
use milr_serve::Json;
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

/// The artifact, relative to the working directory.
const ARTIFACT: &str = "BENCH_scenarios.json";

/// Absolute tolerance the artifact states on every cell value: the
/// numbers are written shortest-round-trip, so anything wider than
/// rounding is a moved cell.
const CELL_TOLERANCE: f64 = 1e-9;

/// The three values of each cell, in artifact order.
const CELL_FIELDS: [&str; 3] = ["precision_at_k", "average_precision", "delta_ap_vs_min"];

/// Runs the grid. Without `check` it writes the artifact; with `check`
/// it compares against the committed one. Returns whether the grid
/// holds its predicates and, under `check`, matches the committed file.
pub fn scenarios(check: bool) -> bool {
    println!(
        "sub-image relevance-feedback scenario: {PER_CATEGORY} images/category, \
         seed {SEED}, precision@{K}, {PROMOTED} false positives promoted\n"
    );

    let scenes = SceneDatabase::builder()
        .images_per_category(PER_CATEGORY)
        .seed(SEED)
        .build();
    let config = scenario_config();

    let mut grid = Vec::new();
    let mut default_bit_identical = true;
    println!(
        "  {:<12} {:<18} {:>8} {:>8} {:>10}",
        "backend", "aggregator", "prec@16", "AP", "ΔAP vs min"
    );

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
        let mut cells = Vec::new();
        for (slot, &aggregator) in BagAggregator::ALL.iter().enumerate() {
            let values = [
                precision_sums[slot] / n,
                ap_sums[slot] / n,
                (ap_sums[slot] - ap_sums[min_slot]) / n,
            ];
            println!(
                "  {backend_id:<12} {:<18} {:>8.4} {:>8.4} {:>+10.4}",
                aggregator.label(),
                values[0],
                values[1],
                values[2],
            );
            let fields = CELL_FIELDS.iter().zip(values);
            let cell = fields.map(|(f, v)| ((*f).to_owned(), Json::Num(v)));
            cells.push((aggregator.label().to_owned(), Json::Obj(cell.collect())));
        }
        grid.push((backend_id.to_owned(), Json::Obj(cells)));
    }
    println!("\ndefault/min-distance rankings bit-identical: {default_bit_identical}");

    let tolerances = CELL_FIELDS
        .iter()
        .map(|field| (format!("{field}_absolute"), Json::Num(CELL_TOLERANCE)))
        .collect();
    let artifact = Json::Obj(vec![
        ("scenario".into(), Json::str("subimage-feedback")),
        ("per_category".into(), Json::num(PER_CATEGORY as f64)),
        ("seed".into(), Json::num(SEED as f64)),
        ("k".into(), Json::num(K as f64)),
        (
            "categories".into(),
            Json::num(scenes.categories().len() as f64),
        ),
        (
            "promoted_false_positives".into(),
            Json::num(PROMOTED as f64),
        ),
        (
            "default_bit_identical".into(),
            Json::Bool(default_bit_identical),
        ),
        ("tolerances".into(), Json::Obj(tolerances)),
        ("cells".into(), Json::Obj(grid)),
    ]);
    let failures = predicate_failures(&artifact);
    for failure in &failures {
        println!("FAIL {failure}");
    }
    if !failures.is_empty() && !check {
        println!("\n{ARTIFACT} not written: the grid fails its predicates");
        return false;
    }
    crate::bless_or_check("scenarios", ARTIFACT, &artifact, check) && failures.is_empty()
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

/// The grid's own claims, held whatever the committed file says, one
/// line per broken claim: a request that names no aggregator ranks
/// bit-identically to explicit min-distance (`default_bit_identical`),
/// and each backend's min-distance precision is at least twice random
/// retrieval (`2 / categories`) — the scenario must actually retrieve,
/// not merely match a stale file.
fn predicate_failures(artifact: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    if artifact
        .get("default_bit_identical")
        .and_then(Json::as_bool)
        != Some(true)
    {
        failures.push("default_bit_identical is not true".to_owned());
    }
    let categories = artifact
        .get("categories")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let floor = 2.0 / categories;
    let min = BagAggregator::MinDistance.label();
    for backend in BACKEND_IDS {
        let path = format!("cells.{backend}.{min}.precision_at_k");
        let precision = ["cells", backend, min, "precision_at_k"]
            .iter()
            .try_fold(artifact, |node, key| node.get(key))
            .and_then(Json::as_f64);
        match precision {
            Some(p) if p >= floor => {}
            Some(p) => failures.push(format!("{path} {p} is below 2x random ({floor})")),
            None => failures.push(format!("{path} is missing")),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_testkit::artifact::{diff, render};

    const COMMITTED: &str = include_str!("../../../../../BENCH_scenarios.json");

    fn committed() -> Json {
        Json::parse(COMMITTED).expect("the committed artifact parses")
    }

    /// `artifact` with `edit` applied to the value at the object `path`.
    fn edited(artifact: &Json, path: &[&str], edit: impl FnOnce(&mut Json)) -> Json {
        let mut out = artifact.clone();
        let node = path.iter().fold(&mut out, |node, key| match node {
            Json::Obj(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no {key} on the path")),
            _ => panic!("{key} is not below an object"),
        });
        edit(node);
        out
    }

    fn shifted(artifact: &Json, path: &[&str], delta: f64) -> Json {
        edited(artifact, path, |node| match node {
            Json::Num(v) => *v += delta,
            _ => panic!("{path:?} is not a number"),
        })
    }

    #[test]
    fn scenarios_pass_at_parity() {
        let artifact = committed();
        assert_eq!(predicate_failures(&artifact), Vec::<String>::new());
        assert_eq!(
            diff("scenarios", &artifact, &artifact),
            Vec::<String>::new()
        );
    }

    #[test]
    fn scenarios_artifact_round_trips() {
        // A re-bless of an unmoved grid rewrites the committed bytes.
        assert_eq!(render(&committed()), COMMITTED);
    }

    #[test]
    fn scenarios_hold_every_cell_exactly() {
        // Three cells lowered by 0.090 each: every one is named.
        let fresh = committed();
        let mut lowered = fresh.clone();
        for path in [
            ["cells", "sbn", "logsumexp", "average_precision"],
            ["cells", "gray-block", "noisy-or", "precision_at_k"],
            ["cells", "gray-block", "noisy-or", "average_precision"],
        ] {
            lowered = shifted(&lowered, &path, -0.090);
        }
        let diffs = diff("scenarios", &lowered, &fresh);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs[0].starts_with("scenarios.cells.gray-block.noisy-or.precision_at_k: "));
        assert!(diffs[1].starts_with("scenarios.cells.gray-block.noisy-or.average_precision: "));
        assert!(diffs[2].starts_with("scenarios.cells.sbn.logsumexp.average_precision: "));
        assert!(
            diffs.iter().all(|d| d.ends_with("(beyond 1e-9)")),
            "{diffs:?}"
        );

        // A rise of 0.01 on any one value of any cell fails too.
        for backend in BACKEND_IDS {
            for aggregator in BagAggregator::ALL {
                for field in CELL_FIELDS {
                    let path = ["cells", backend, aggregator.label(), field];
                    let diffs = diff("scenarios", &shifted(&fresh, &path, 0.01), &fresh);
                    assert_eq!(diffs.len(), 1, "{path:?}: {diffs:?}");
                }
            }
        }
    }

    #[test]
    fn scenarios_fail_on_broken_bit_identity() {
        let broken = edited(&committed(), &["default_bit_identical"], |node| {
            *node = Json::Bool(false);
        });
        assert_eq!(
            predicate_failures(&broken),
            ["default_bit_identical is not true"]
        );
    }

    #[test]
    fn scenarios_enforce_the_random_retrieval_floor() {
        // A min-distance cell at chance level fails the absolute floor
        // even when the committed file holds the same value.
        let broken = edited(
            &committed(),
            &["cells", "sbn", "min-distance", "precision_at_k"],
            |node| *node = Json::num(0.2),
        );
        assert!(diff("scenarios", &broken, &broken).is_empty());
        assert_eq!(
            predicate_failures(&broken),
            ["cells.sbn.min-distance.precision_at_k 0.2 is below 2x random (0.4)"]
        );
    }

    #[test]
    fn scenarios_fail_on_missing_cells() {
        let truncated = edited(&committed(), &["cells", "gray-block"], |node| {
            if let Json::Obj(cells) = node {
                cells.retain(|(label, _)| label != "min-distance");
            }
        });
        assert_eq!(
            predicate_failures(&truncated),
            ["cells.gray-block.min-distance.precision_at_k is missing"]
        );
        assert_eq!(
            diff("scenarios", &committed(), &truncated),
            ["scenarios.cells.gray-block.min-distance: missing from the fresh run"]
        );
    }
}
