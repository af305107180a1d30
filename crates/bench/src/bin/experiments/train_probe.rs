//! The `train-probe` experiment: exact counts of what one cold DD
//! training run spends, written to `BENCH_train_probe.json`.
//!
//! Twelve first-page queries over a pinned 300-scene corpus (60 per
//! category, seed 7), each trained by `milr_mil::train` at `threads = 1`
//! under the default configuration, once per iteration budget
//! (`--budgets`, default `2,5,10,20,40,100,400`). Query `q` marks three
//! positives of category `q mod 5` and two negatives drawn by an LCG;
//! the concept then ranks the unmarked bags.
//!
//! Per query and budget the artifact records the multistart's starts
//! and objective evaluations, why each start stopped, the best `−log DD`
//! (shortest round-trip, so all 17 significant digits) and the start
//! that found it, how many distinct final values the starts reached (at
//! 1e-6 relative), the ranking's average precision, and FNV-1a hashes
//! of the ranking's order (indices only) and of its indices and
//! distance bits.
//!
//! Every figure is a deterministic count or a pure function of the
//! floats, so a training change states its claim as a diff of this file
//! rather than as wall time. `--check` re-runs the probe and compares it
//! with the committed artifact through `milr_testkit::artifact::diff`:
//! counts and hashes exactly, the best `−log DD` and the average
//! precision within the tolerances the artifact states, one
//! path-qualified line per difference.

use milr_core::{eval, RankRequest, RetrievalConfig, RetrievalDatabase};
use milr_mil::{train, BagLabel, MilDataset, TrainOptions, TrainResult};
use milr_optim::{pool, Termination};
use milr_serve::Json;
use milr_synth::SceneDatabase;

/// Scenes per category: 5 categories × 60 = 300 scenes.
const PER_CATEGORY: usize = 60;

/// Corpus seed.
const SEED: u64 = 7;

/// Queries per budget.
const QUERIES: usize = 12;

/// Positives marked per query, all from the query's category.
const POSITIVES: usize = 3;

/// Negatives marked per query, drawn from the other categories.
const NEGATIVES: usize = 2;

/// The default iteration budgets.
pub const DEFAULT_BUDGETS: &[usize] = &[2, 5, 10, 20, 40, 100, 400];

/// Relative tolerance on the best `−log DD` the artifact states.
const NLDD_RELATIVE_TOLERANCE: f64 = 1e-9;

/// Absolute tolerance on the average precision the artifact states.
const AP_TOLERANCE: f64 = 1e-9;

/// Two final start values count as one when they agree to this
/// relative gap.
const DISTINCT_GAP: f64 = 1e-6;

/// The artifact, relative to the working directory.
const ARTIFACT: &str = "BENCH_train_probe.json";

/// Every `Termination`, in the artifact's histogram order.
const TERMINATIONS: [Termination; 4] = [
    Termination::GradientTolerance,
    Termination::ValueTolerance,
    Termination::LineSearchFailed,
    Termination::MaxIterations,
];

/// Runs the probe over `budgets`. Without `check` it writes the
/// artifact; with `check` it compares against the committed artifact and
/// returns whether they agree.
pub fn train_probe(budgets: &[usize], check: bool) -> bool {
    println!(
        "training probe: {QUERIES} queries over {} scenes (seed {SEED}), \
         {POSITIVES} positives + {NEGATIVES} negatives, threads = 1, budgets {budgets:?}\n",
        5 * PER_CATEGORY
    );
    let config = RetrievalConfig::default();
    let scenes = SceneDatabase::builder()
        .images_per_category(PER_CATEGORY)
        .seed(SEED)
        .build();
    let db = RetrievalDatabase::from_labelled_images(scenes.gray_images(), &config)
        .expect("preprocessing failed");
    let queries: Vec<(usize, Vec<usize>, Vec<usize>)> =
        (0..QUERIES).map(|q| marks(db.labels(), q)).collect();

    // One job per (budget, query); each trains single-threaded, so the
    // jobs spread over the machine without changing any result.
    let jobs = budgets.len() * QUERIES;
    let records = pool::run_indexed(jobs, 0, |job| {
        let (category, positives, negatives) = &queries[job % QUERIES];
        let started = std::time::Instant::now();
        let record = probe_query(
            &db,
            &config,
            budgets[job / QUERIES],
            job % QUERIES,
            *category,
            positives,
            negatives,
        );
        (record, started.elapsed().as_secs_f64())
    });

    let mut sections = Vec::with_capacity(budgets.len());
    for (slot, &budget) in budgets.iter().enumerate() {
        let rows = &records[slot * QUERIES..(slot + 1) * QUERIES];
        let sum = |path: &[&str]| -> u64 {
            rows.iter()
                .map(|(row, _)| {
                    path.iter()
                        .try_fold(row, |node, key| node.get(key))
                        .and_then(Json::as_u64)
                        .expect("a recorded count")
                })
                .sum()
        };
        let starts = sum(&["starts"]);
        let evaluations = sum(&["evaluations"]);
        let budget_stopped = sum(&["terminations", "MaxIterations"]);
        let seconds: f64 = rows.iter().map(|(_, s)| s).sum();
        println!(
            "  budget {budget:>4}: {starts:>5} starts, {evaluations:>8} evaluations, \
             {:>5.1}% budget-stopped, {seconds:>6.2} s of training",
            100.0 * budget_stopped as f64 / starts as f64
        );
        sections.push(Json::Obj(vec![
            ("max_iterations".into(), Json::num(budget as f64)),
            ("starts".into(), Json::num(starts as f64)),
            ("evaluations".into(), Json::num(evaluations as f64)),
            ("budget_stopped".into(), Json::num(budget_stopped as f64)),
            (
                "queries".into(),
                Json::Arr(rows.iter().map(|(row, _)| row.clone()).collect()),
            ),
        ]));
    }
    let artifact = Json::Obj(vec![
        ("probe".into(), Json::str("train-probe")),
        ("scenes".into(), Json::num((5 * PER_CATEGORY) as f64)),
        ("seed".into(), Json::num(SEED as f64)),
        ("queries".into(), Json::num(QUERIES as f64)),
        ("threads".into(), Json::num(1)),
        (
            "tolerances".into(),
            Json::Obj(vec![
                (
                    "best_nldd_relative".into(),
                    Json::Num(NLDD_RELATIVE_TOLERANCE),
                ),
                ("ap_absolute".into(), Json::Num(AP_TOLERANCE)),
            ]),
        ),
        ("budgets".into(), Json::Arr(sections)),
    ]);

    crate::bless_or_check("probe", ARTIFACT, &artifact, check)
}

/// Query `q`'s marks: its category, three positives of that category
/// (a different run of members for each pass over the categories) and
/// two distinct negatives of other categories, drawn by an LCG.
fn marks(labels: &[usize], q: usize) -> (usize, Vec<usize>, Vec<usize>) {
    let category = q % 5;
    let members: Vec<usize> = (0..labels.len())
        .filter(|&i| labels[i] == category)
        .collect();
    let positives = members[(q / 5) * POSITIVES..][..POSITIVES].to_vec();
    let mut state = q as u64 + 1;
    let mut negatives = Vec::with_capacity(NEGATIVES);
    while negatives.len() < NEGATIVES {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let candidate = (state >> 33) as usize % labels.len();
        if labels[candidate] != category && !negatives.contains(&candidate) {
            negatives.push(candidate);
        }
    }
    (category, positives, negatives)
}

/// Trains and ranks one query at one budget and records it.
fn probe_query(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    budget: usize,
    query: usize,
    category: usize,
    positives: &[usize],
    negatives: &[usize],
) -> Json {
    let mut dataset = MilDataset::new();
    for (indices, label) in [
        (positives, BagLabel::Positive),
        (negatives, BagLabel::Negative),
    ] {
        for &i in indices {
            dataset
                .push(db.bag(i).expect("marked bag").clone(), label)
                .expect("consistent bags");
        }
    }
    let options = TrainOptions {
        threads: 1,
        max_iterations: budget,
        ..config.train_options()
    };
    let result = train(&dataset, &options).expect("training failed");
    let unmarked: Vec<usize> = (0..db.len())
        .filter(|i| !positives.contains(i) && !negatives.contains(i))
        .collect();
    let ranking = db
        .rank(&result.concept, &RankRequest::over(unmarked).threads(1))
        .expect("ranking failed");
    let relevant = eval::relevance(&ranking, db.labels(), category);
    let order = fnv1a(ranking.iter().map(|&(index, _)| index as u64));
    let hash = fnv1a(
        ranking
            .iter()
            .flat_map(|&(index, distance)| [index as u64, distance.to_bits()]),
    );
    Json::Obj(vec![
        ("query".into(), Json::num(query as f64)),
        ("category".into(), Json::num(category as f64)),
        ("positives".into(), Json::indices(positives)),
        ("negatives".into(), Json::indices(negatives)),
        ("starts".into(), Json::num(result.starts as f64)),
        (
            "evaluations".into(),
            Json::num(result.start_evaluations.iter().sum::<usize>() as f64),
        ),
        ("terminations".into(), histogram(&result)),
        ("best_nldd".into(), Json::Num(result.nldd)),
        ("best_start".into(), Json::num(result.best_start as f64)),
        (
            "distinct_nldds".into(),
            Json::num(distinct(&result.start_values) as f64),
        ),
        ("ap".into(), Json::Num(eval::average_precision(&relevant))),
        ("order_hash".into(), Json::str(format!("{order:016x}"))),
        ("ranking_hash".into(), Json::str(format!("{hash:016x}"))),
    ])
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Starts per `Termination`.
fn histogram(result: &TrainResult) -> Json {
    Json::Obj(
        TERMINATIONS
            .iter()
            .map(|&t| {
                let count = result
                    .start_terminations
                    .iter()
                    .filter(|&&s| s == t)
                    .count();
                (format!("{t:?}"), Json::num(count as f64))
            })
            .collect(),
    )
}

/// Clusters of final values, each more than [`DISTINCT_GAP`] (relative)
/// above the previous one.
fn distinct(values: &[f64]) -> usize {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    1 + sorted
        .windows(2)
        .filter(|w| w[1] - w[0] > DISTINCT_GAP * w[0].abs().max(1.0))
        .count()
}
