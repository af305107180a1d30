//! Per-layer timings of the traced run: each layer's public functions,
//! called in a single-threaded in-process section on the workload's own
//! snapshot (or a fixture cut from it), at least a millisecond of work
//! per sample, the median of up to fifteen samples.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use milr_cluster::protocol::{ranking_from_json, ranking_to_json};
use milr_cluster::{gather, GatherInput};
use milr_core::features::image_to_bag;
use milr_core::{RankRequest, Ranking, RetrievalConfig, RetrievalDatabase};
use milr_imgproc::sample::smooth_sample_rect;
use milr_imgproc::{IntegralImage, RegionLayout};
use milr_mil::{
    BagLabel, CoarseIndex, Concept, DdObjective, FlatBags, MilDataset, ScreenScratch, ScreenStats,
    WeightPolicy,
};
use milr_optim::{
    projected_gradient, BoxSumProjection, Objective, ProjectedGradientOptions, SubsliceProjection,
};
use milr_serve::cache::{CachedConcept, ConceptCache, ConceptKey};
use milr_serve::{http, Json};
use milr_store::{load_snapshot, merge_rankings, ShardedDatabase};
use milr_synth::SceneDatabase;

use crate::replica::page_json;
use crate::report::Metric;
use crate::stats;
use crate::wire::request_bytes;
use crate::workloads::{Query, PAGE};

/// Time spent sampling one metric.
const BUDGET: Duration = Duration::from_millis(200);

/// Least work in one sample; shorter calls are batched up to it.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Bags in the fixture the write-path store metrics run on (one shard
/// of the scan workloads).
const FIXTURE_BAGS: usize = 125;

/// Median seconds per call, the samples behind it, and their quartile
/// spread as a share of the median.
#[derive(Debug, Clone, Copy)]
struct Sampled {
    seconds: f64,
    samples: usize,
    spread: f64,
}

/// Times `work`: calls shorter than [`MIN_SAMPLE`] are batched up to
/// it, and 5 to 15 samples are taken within [`BUDGET`].
fn sample(mut work: impl FnMut()) -> Sampled {
    let begin = Instant::now();
    work();
    let once = begin.elapsed().max(Duration::from_nanos(1));
    let batch = (MIN_SAMPLE.as_nanos() / once.as_nanos()).max(1) as usize;
    let per_sample = once.as_nanos() * batch as u128;
    let samples = ((BUDGET.as_nanos() / per_sample) as usize).clamp(5, 15);
    let batched = sample_with(samples, || (), |()| (0..batch).for_each(|_| work()));
    Sampled {
        seconds: batched.seconds / batch as f64,
        ..batched
    }
}

/// `samples` timings of `work`, each after an untimed `prepare`.
fn sample_with<T>(
    samples: usize,
    mut prepare: impl FnMut() -> T,
    mut work: impl FnMut(T),
) -> Sampled {
    let seconds: Vec<f64> = (0..samples)
        .map(|_| {
            let input = prepare();
            let begin = Instant::now();
            work(input);
            begin.elapsed().as_secs_f64()
        })
        .collect();
    Sampled {
        seconds: stats::median(&seconds),
        samples,
        spread: stats::quartile_spread(&seconds),
    }
}

/// Files a timing as a metric in `unit_per_second` units (1e3 for ms,
/// 1e6 for us, 1e9 for ns), the spread noted beside it.
fn timed(name: &'static str, unit_per_second: f64, sampled: Sampled) -> Metric {
    Metric::new(name, sampled.seconds * unit_per_second, sampled.samples)
        .note(format!("iqr/median {:.1}%", sampled.spread * 100.0))
}

/// Every in-process layer timing for one workload, on its corpus `db`
/// (loaded from `snapshot`). `concept` was trained from `query`'s
/// examples and drives the ranking timings; `scratch` is a directory the
/// store timings may write to.
pub fn measure(
    db: &RetrievalDatabase,
    concept: &Concept,
    query: &Query,
    snapshot: &Path,
    scratch: &Path,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let config = RetrievalConfig {
        threads: 1,
        ..RetrievalConfig::default()
    };

    // ---- synth, imgproc, core preprocessing --------------------------
    const FIXTURE_IMAGES: usize = 10;
    let build_scenes = || {
        SceneDatabase::builder()
            .images_per_category(FIXTURE_IMAGES / 5)
            .seed(seed)
            .build()
    };
    out.push(timed(
        "synth.generate_ms_per_image",
        1e3 / FIXTURE_IMAGES as f64,
        sample(|| {
            black_box(build_scenes());
        }),
    ));
    let images = build_scenes().gray_images();
    let (image, _) = &images[0];
    let integral = IntegralImage::new(image);
    let rects = RegionLayout::Standard
        .regions(image.width(), image.height())
        .map_err(|e| e.to_string())?;
    out.push(timed(
        "imgproc.smooth_sample_us",
        1e6 / rects.len() as f64,
        sample(|| {
            for &rect in &rects {
                black_box(smooth_sample_rect(&integral, rect, config.resolution).ok());
            }
        }),
    ));
    out.push(timed(
        "core.image_to_bag_us",
        1e6,
        sample(|| {
            black_box(image_to_bag(image, &config).ok());
        }),
    ));
    let preprocess = sample(|| {
        black_box(RetrievalDatabase::from_labelled_images(images.clone(), &config).ok());
    });
    out.push(Metric::new(
        "core.preprocess_images_per_s",
        FIXTURE_IMAGES as f64 / preprocess.seconds,
        preprocess.samples,
    ));

    // ---- mil + optim: the training objective -------------------------
    let mut dataset = MilDataset::new();
    for (indices, label) in [
        (&query.positives, BagLabel::Positive),
        (&query.negatives, BagLabel::Negative),
    ] {
        for &index in indices {
            let bag = db.bag(index).map_err(|e| e.to_string())?.clone();
            dataset.push(bag, label).map_err(|e| e.to_string())?;
        }
    }
    let train_options = config.train_options();
    out.push(timed(
        "mil.train_ms",
        1e3,
        sample_with(
            3,
            || (),
            |()| {
                black_box(milr_mil::train(&dataset, &train_options).ok());
            },
        ),
    ));
    let param = config.policy.parameterization();
    let objective = DdObjective::new(&dataset, param);
    let first_bag = &dataset.positives()[0];
    // Two alternating points: re-evaluating one point would only time
    // the objective's evaluation memo.
    let points: Vec<Vec<f64>> = first_bag
        .instances()
        .take(2)
        .map(|instance| param.start_from(instance))
        .collect();
    let mut gradient = vec![0.0; objective.dim()];
    let mut turn = 0usize;
    let eval = sample(|| {
        turn += 1;
        black_box(objective.value_and_gradient(&points[turn % points.len()], &mut gradient));
    });
    out.push(timed("mil.dd_eval_ns", 1e9, eval));
    out.push(Metric::new(
        "mil.dd_evals_per_s",
        1.0 / eval.seconds,
        eval.samples,
    ));
    let k = db.feature_dim();
    if let WeightPolicy::SumConstraint { beta } = config.policy {
        let projection = SubsliceProjection {
            start: k,
            end: 2 * k,
            inner: BoxSumProjection::for_beta(k, beta),
        };
        let solver_options = ProjectedGradientOptions {
            max_iterations: config.max_iterations,
            step_tolerance: config.gradient_tolerance,
            ..ProjectedGradientOptions::default()
        };
        out.push(timed(
            "optim.projected_gradient_ms_per_start",
            1e3,
            sample(|| {
                black_box(projected_gradient(
                    &objective,
                    &projection,
                    &points[0],
                    &solver_options,
                ));
            }),
        ));
    }

    // ---- core + mil: ranking on the workload's corpus ----------------
    let instances: usize = (0..db.len())
        .map(|i| db.bag(i).map_or(0, |bag| bag.instances().count()))
        .sum();
    let top = RankRequest::all().top(PAGE).threads(1);
    let full = RankRequest::all().threads(1);
    out.push(timed(
        "core.rank_topk_us",
        1e6,
        sample(|| {
            black_box(db.rank(concept, &top).ok());
        }),
    ));
    let rank_full = sample(|| {
        black_box(db.rank(concept, &full).ok());
    });
    out.push(timed("core.rank_full_us", 1e6, rank_full));
    out.push(timed(
        "core.rank_ns_per_instance",
        1e9 / instances as f64,
        rank_full,
    ));
    let mut flat = FlatBags::new(k);
    for index in 0..db.len() {
        flat.push_bag(db.bag(index).map_err(|e| e.to_string())?);
    }
    let kernel = sample(|| {
        for bag in 0..flat.bag_count() {
            black_box(flat.min_distance_sq(concept, bag));
        }
    });
    out.push(timed(
        "mil.kernel_ns_per_instance",
        1e9 / instances as f64,
        kernel,
    ));
    out.push(Metric::new(
        "mil.kernel_mb_per_s",
        (instances * k * 4) as f64 / 1e6 / kernel.seconds,
        kernel.samples,
    ));
    // The screen needs a finite bound to certify skips against; the
    // page's last distance is the one a top-k scan converges to.
    let page = db.rank(concept, &top).map_err(|e| e.to_string())?;
    let bound = page.last().map_or(f64::INFINITY, |&(_, d)| d);
    let quant = flat.quant_query(concept);
    let (mut screen_stats, mut screen_scratch) = (ScreenStats::default(), ScreenScratch::default());
    out.push(timed(
        "mil.screened_ns_per_instance",
        1e9 / instances as f64,
        sample(|| {
            for bag in 0..flat.bag_count() {
                black_box(flat.min_distance_sq_below_screened(
                    concept,
                    &quant,
                    bag,
                    bound,
                    &mut screen_stats,
                    &mut screen_scratch,
                ));
            }
        }),
    ));
    // The index is built per shard, so one shard's instances are the
    // unit of work.
    let fixture_bags = FIXTURE_BAGS.min(db.len());
    let shard_values = flat.spans()[fixture_bags - 1].offset + flat.spans()[fixture_bags - 1].len;
    let shard_data = &flat.data()[..shard_values * k];
    let cells = CoarseIndex::default_cell_count(shard_values);
    out.push(timed(
        "mil.index_build_ms",
        1e3,
        sample(|| {
            black_box(CoarseIndex::build(shard_data, k, cells));
        }),
    ));
    let index = CoarseIndex::build(shard_data, k, cells);
    out.push(timed(
        "mil.index_bounds_us",
        1e6,
        sample(|| {
            black_box(index.query_bounds(concept));
        }),
    ));

    // ---- store -------------------------------------------------------
    let snapshot_bytes = dir_bytes(snapshot)?;
    out.push(Metric::new(
        "store.bytes_per_instance",
        snapshot_bytes as f64 / instances as f64,
        1,
    ));
    out.push(timed(
        "store.open_ms",
        1e3,
        sample(|| {
            black_box(ShardedDatabase::open(snapshot).ok());
        }),
    ));
    out.push(timed(
        "store.load_snapshot_ms",
        1e3,
        sample(|| {
            black_box(load_snapshot(snapshot).ok());
        }),
    ));
    let store = ShardedDatabase::open(snapshot).map_err(|e| e.to_string())?;
    let store_top = RankRequest::all().top(PAGE).threads(1);
    out.push(timed(
        "store.rank_topk_us",
        1e6,
        sample(|| {
            black_box(store.rank(concept, &store_top).ok());
        }),
    ));
    out.push(timed(
        "store.rank_exact_us",
        1e6,
        sample(|| {
            black_box(store.rank_exact(concept, &store_top).ok());
        }),
    ));
    let ranking = db.rank(concept, &full).map_err(|e| e.to_string())?;
    let lists: Vec<Ranking> = (0..8)
        .map(|lane| {
            ranking
                .iter()
                .skip(lane)
                .step_by(8)
                .take(PAGE)
                .copied()
                .collect()
        })
        .collect();
    out.push(timed(
        "store.merge_us",
        1e6,
        sample(|| {
            black_box(merge_rankings(lists.clone(), Some(PAGE)));
        }),
    ));
    let fixture = RetrievalDatabase::from_bags(
        (0..fixture_bags)
            .map(|i| db.bag(i).cloned())
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?,
        db.labels()[..fixture_bags].to_vec(),
    )
    .map_err(|e| e.to_string())?;
    let store_dir = scratch.join("layer-store");
    let fresh_store = || {
        std::fs::remove_dir_all(&store_dir).ok();
        ShardedDatabase::from_database(&fixture, &store_dir, fixture_bags)
            .expect("fixture bags are valid")
    };
    let flush = sample_with(
        5,
        || (),
        |()| {
            let mut store = fresh_store();
            store.flush().expect("flush to the scratch directory");
        },
    );
    out.push(timed("store.flush_ms", 1e3, flush));
    out.push(Metric::new(
        "store.flush_mb_per_s",
        dir_bytes(&store_dir)? as f64 / 1e6 / flush.seconds,
        flush.samples,
    ));
    out.push(timed(
        "store.compact_ms",
        1e3,
        sample_with(5, fresh_store, |mut store| {
            for index in (0..fixture_bags).step_by(10) {
                store.delete(index).expect("index below len");
            }
            black_box(store.compact());
        }),
    ));
    const PUSHES: usize = 32;
    out.push(timed(
        "store.push_bag_us",
        1e6 / PUSHES as f64,
        sample_with(5, fresh_store, |mut store| {
            for index in 0..PUSHES {
                let bag = fixture
                    .bag(index % fixture_bags)
                    .expect("below len")
                    .clone();
                store.push_bag(bag, 0).expect("push a valid bag");
            }
        }),
    ));
    std::fs::remove_dir_all(&store_dir).ok();

    // ---- serve -------------------------------------------------------
    let request = request_bytes("GET", &query.target("/rank"), &[]);
    out.push(timed(
        "serve.http_parse_us",
        1e6,
        sample(|| {
            let mut pending = Vec::new();
            black_box(
                http::read_request_buffered(&mut request.as_slice(), &mut pending, 1 << 20).ok(),
            );
        }),
    ));
    let feedback_body = Json::Obj(vec![
        ("positives".into(), Json::indices(&query.positives[..1])),
        ("negatives".into(), Json::indices(&query.negatives)),
        ("k".into(), Json::num(PAGE as f64)),
    ])
    .dump();
    out.push(timed(
        "serve.json_parse_us",
        1e6,
        sample(|| {
            black_box(Json::parse(&feedback_body).ok());
        }),
    ));
    for (name, entries) in [
        ("serve.json_dump_k16_us", PAGE),
        ("serve.json_dump_k50_us", 50),
    ] {
        let page: Ranking = ranking[..entries.min(ranking.len())].to_vec();
        out.push(timed(
            name,
            1e6,
            sample(|| {
                black_box(page_json(&page).dump());
            }),
        ));
    }
    let mut cache = ConceptCache::new(128);
    let shared = std::sync::Arc::new(concept.clone());
    let keys: Vec<ConceptKey> = (0..8)
        .map(|i| ConceptKey::new(&[i, i + 1, i + 2], &[i + 50], "policy", 1))
        .collect();
    for key in &keys {
        cache.insert(
            key.clone(),
            CachedConcept {
                concept: std::sync::Arc::clone(&shared),
                nldd: 0.5,
            },
        );
    }
    let mut turn = 0usize;
    out.push(timed(
        "serve.cache_get_ns",
        1e9,
        sample(|| {
            turn += 1;
            black_box(cache.get(&keys[turn % keys.len()]));
        }),
    ));

    // ---- cluster -----------------------------------------------------
    let legs: Vec<Ranking> = (0..2)
        .map(|lane| {
            ranking
                .iter()
                .skip(lane)
                .step_by(2)
                .take(PAGE)
                .copied()
                .collect()
        })
        .collect();
    out.push(timed(
        "cluster.gather_us",
        1e6,
        sample(|| {
            let inputs = legs
                .iter()
                .enumerate()
                .map(|(worker, leg)| GatherInput {
                    shard_ids: vec![worker as u64],
                    ranking: Some(leg.clone()),
                })
                .collect();
            black_box(gather(inputs, PAGE));
        }),
    ));
    out.push(timed(
        "cluster.codec_us",
        1e6,
        sample(|| {
            let line = ranking_to_json(&legs[0]).dump();
            black_box(
                Json::parse(&line)
                    .and_then(|json| ranking_from_json(&json))
                    .ok(),
            );
        }),
    ));

    // ---- obs ---------------------------------------------------------
    out.push(timed(
        "obs.span_ns",
        1e9,
        sample(|| {
            let _span = milr_obs::span!("benchmark.span");
        }),
    ));
    out.push(timed(
        "obs.counter_inc_ns",
        1e9,
        sample(|| milr_obs::counter!("benchmark_counter_total").inc()),
    ));
    let mut value = 0u64;
    out.push(timed(
        "obs.histogram_record_ns",
        1e9,
        sample(|| {
            value = (value + 37) % 10_000;
            milr_obs::histogram!("benchmark_histogram_us").record(value);
        }),
    ));
    Ok(out)
}

/// Bytes of the regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(entries
        .filter_map(Result::ok)
        .filter_map(|entry| entry.metadata().ok())
        .filter(|meta| meta.is_file())
        .map(|meta| meta.len())
        .sum())
}
