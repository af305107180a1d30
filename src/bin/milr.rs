//! `milr` command-line tool: generate synthetic databases to disk,
//! run retrieval queries, and inspect the feature pipeline.
//!
//! ```text
//! milr generate --kind scenes --out ./scenes --per-category 20 --seed 1
//! milr preprocess --kind scenes --out ./db --per-category 20 --seed 1 --shard-bags 128
//! milr snapshot --in ./db
//! milr compact  --in ./db
//! milr serve    --snapshot ./db --addr 127.0.0.1:7878 --workers 4 --watch-snapshot
//! milr query    --kind scenes --category waterfall --policy constraint:0.5
//! milr query-files --kind scenes --positive my_fall1.pgm,my_fall2.pgm
//! milr inspect  --image photo.pgm --resolution 10
//! ```

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use milr::core::eval;
use milr::imgproc::{pnm, smooth_sample, GrayImage};
use milr::mil::WeightPolicy;
use milr::prelude::*;
use milr::serve::node::{flag, parse_flag};
use milr::serve::parse_policy;
use milr::synth::RenderPlan;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("preprocess") => cmd_preprocess(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("golden") => cmd_golden(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("query-files") => cmd_query_files(&args[1..]),
        Some("montage") => cmd_montage(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("--help" | "-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  \
         milr generate --kind scenes|objects --out DIR [--per-category N] [--seed N] [--gray]\n  \
         milr preprocess --kind scenes|objects --out DIR [--per-category N]\n                \
         [--seed N] [--fast] [--backend gray-block|sbn] [--shard-bags N]\n  \
         milr snapshot --in DIR\n  \
         milr compact  --in DIR\n  \
         milr serve    --snapshot DIR [NODE] [--cache-capacity N] [--page K] [--policy POLICY]\n                \
         [--priority-shed-fill F] [--session-ttl-s N]\n                \
         [--session-capacity N] [--debug-endpoints]\n                \
         [--backend gray-block|sbn] [--watch-snapshot] [--watch-interval-ms N]\n  \
         milr serve    --role coordinator --snapshot DIR --worker-addrs H:P[,H:P...] [NODE]\n                \
         [--cache-capacity N] [--page K] [--policy POLICY] [--worker-deadline-ms N]\n                \
         [--health-interval-ms N] [--eviction-threshold N]\n  \
         milr serve    --role worker --snapshot DIR --worker-index I --worker-count N [NODE]\n                \
         [--join HOST:PORT]\n  \
         milr cluster  status --addr HOST:PORT [--json]\n  \
         milr trace    --addr HOST:PORT [--n N] [--json]\n  \
         milr golden   [--bless] [--dir DIR]   (default DIR: tests/golden)\n  \
         milr query    --kind scenes|objects --category NAME [--policy POLICY]\n                \
         [--per-category N] [--seed N] [--rounds N] [--fast]\n                \
         [--snapshot DIR] [--dump-concept DIR] [--html FILE.html]\n  \
         milr query-files --kind scenes|objects --positive F.pgm[,G.pgm...]\n                \
         [--negative F.pgm,...] [--policy POLICY] [--per-category N] [--seed N]\n  \
         milr montage  --kind scenes|objects --out FILE.ppm [--per-category N] [--seed N]\n  \
         milr inspect  --image FILE.pgm [--resolution H]\n\n\
         NODE: [--addr HOST:PORT] [--workers N] [--queue-depth N] [--read-timeout-ms N]\n        \
         [--handle-deadline-ms N] [--keepalive-burst N] [--keepalive-turn-ms N] [--max-body N]\n\
         POLICY: original | identical | alpha:A | constraint:B"
    );
}

/// The render plan of the synthetic database `kind` (`scenes` or
/// `objects`); `per_category` overrides the builder's default count.
fn plan(kind: &str, per_category: Option<NonZeroUsize>, seed: u64) -> Result<RenderPlan, String> {
    match kind {
        "scenes" => {
            let mut b = SceneDatabase::builder().seed(seed);
            if let Some(n) = per_category {
                b = b.images_per_category(n.get());
            }
            Ok(b.plan())
        }
        "objects" => {
            let mut b = ObjectDatabase::builder().seed(seed);
            if let Some(n) = per_category {
                b = b.images_per_category(n.get());
            }
            Ok(b.plan())
        }
        other => Err(format!("unknown database kind {other:?} (scenes|objects)")),
    }
}

/// Images per category when `--per-category` is absent (`generate`
/// keeps the builders' paper-sized defaults instead).
const PER_CATEGORY: NonZeroUsize = NonZeroUsize::new(20).unwrap();

/// `montage`'s default `--per-category`: one contact-sheet row of 8.
const MONTAGE_PER_CATEGORY: NonZeroUsize = NonZeroUsize::new(8).unwrap();

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let kind = flag(args, "--kind").ok_or("--kind is required")?;
    let out = PathBuf::from(flag(args, "--out").ok_or("--out is required")?);
    let per_category = parse_flag(args, "--per-category")?;
    let seed = parse_flag(args, "--seed")?.unwrap_or(0);

    // `--gray` writes luminance PGMs instead of colour PPMs — the
    // format `POST /rank` region uploads and `query-files` consume.
    let gray = args.iter().any(|a| a == "--gray");

    let images = plan(&kind, per_category, seed)?.render_all();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {out:?}: {e}"))?;

    let mut index = String::from("file,label,category\n");
    for (i, image) in images.images().iter().enumerate() {
        let label = images.labels()[i];
        let ext = if gray { "pgm" } else { "ppm" };
        let name = format!("{kind}_{i:04}_{}.{ext}", images.categories()[label]);
        if gray {
            pnm::save_pgm(&image.to_gray(), out.join(&name)).map_err(|e| e.to_string())?;
        } else {
            pnm::save_ppm(image, out.join(&name)).map_err(|e| e.to_string())?;
        }
        index.push_str(&format!("{name},{label},{}\n", images.categories()[label]));
    }
    std::fs::write(out.join("index.csv"), index).map_err(|e| e.to_string())?;
    println!(
        "wrote {} {} images and index.csv to {}",
        images.len(),
        if gray { "PGM" } else { "PPM" },
        out.display()
    );
    Ok(())
}

/// The `--fast` smoke-run settings shared by `query` and `preprocess`:
/// 5x5 features over the 9-region layout, short solver budget, fewer
/// examples. A snapshot written with `--fast` must be queried with
/// `--fast` (feature dimensions must agree).
fn apply_fast(config: &mut RetrievalConfig) {
    config.resolution = 5;
    config.layout = milr::imgproc::RegionLayout::Small;
    config.max_iterations = 30;
    config.initial_positives = 3;
    config.initial_negatives = 3;
}

/// Preprocesses a synthetic database into bags and writes the result as
/// a snapshot directory — the input of `milr serve` / `milrd` and of the
/// cluster roles, and a shortcut for repeated `query` runs.
///
/// `--backend` picks the feature extractor (`gray-block`, the paper's
/// §3.5 steps 1-5 pipeline and the default, or `sbn`, the Maron &
/// Lakshmi Ratan colour baseline); the manifest records it, so the
/// snapshot never opens in another feature space. `--shard-bags` sets
/// how many bags a shard holds before it seals.
fn cmd_preprocess(args: &[String]) -> Result<(), String> {
    let kind = flag(args, "--kind").ok_or("--kind is required")?;
    let out = flag(args, "--out").ok_or("--out is required")?;
    let per_category = parse_flag(args, "--per-category")?.unwrap_or(PER_CATEGORY);
    let seed = parse_flag(args, "--seed")?.unwrap_or(0);
    let capacity = parse_flag(args, "--shard-bags")?
        .map_or(milr::store::DEFAULT_SHARD_CAPACITY, NonZeroUsize::get);
    let mut config = RetrievalConfig::default();
    if args.iter().any(|a| a == "--fast") {
        apply_fast(&mut config);
    }
    let backend_id = flag(args, "--backend").unwrap_or_else(|| "gray-block".to_string());
    let backend = milr::baseline::feature_backend(&backend_id).ok_or_else(|| {
        format!(
            "unknown backend {backend_id:?} (expected one of: {})",
            milr::baseline::BACKEND_IDS.join(", ")
        )
    })?;
    let plan = plan(&kind, Some(per_category), seed)?;
    eprintln!(
        "preprocessing {} images with the {backend_id} backend ...",
        plan.len()
    );
    // One pool job per image renders it and turns it into a bag, so a
    // worker holds one image at a time and the corpus never sits in
    // memory. The busy clocks sum each stage over the workers.
    let started = Instant::now();
    let busy_ns = [AtomicU64::new(0), AtomicU64::new(0)];
    let retrieval = RetrievalDatabase::from_indexed(plan.len(), &config, |index| {
        let render_start = Instant::now();
        let image = plan.render(index);
        let bag_start = Instant::now();
        let bag = backend.color_bag(&image, &config)?;
        for (clock, since) in busy_ns.iter().zip([render_start, bag_start]) {
            clock.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        Ok((bag, plan.labels()[index]))
    })
    .map_err(|e| e.to_string())?;
    let featurised = started.elapsed();
    let (images, categories, dim) = (
        retrieval.len(),
        retrieval.category_count(),
        retrieval.feature_dim(),
    );
    // The shards copy the flat store, which is released right after.
    let mut store =
        milr::store::ShardedDatabase::from_database(&retrieval, Path::new(&out), capacity)
            .map_err(|e| e.to_string())?;
    drop(retrieval);
    let sharded = started.elapsed();
    store.set_backend(backend.tag(&config));
    store.flush().map_err(|e| e.to_string())?;
    let flushed = started.elapsed();
    let [render_busy, bag_busy] = busy_ns.map(|clock| clock.into_inner() as f64 * 1e-9);
    eprintln!(
        "stages: render + featurise {:.3} s on {} workers (busy: render {render_busy:.3} s, \
         featurise {bag_busy:.3} s), shard build {:.3} s, flush {:.3} s",
        featurised.as_secs_f64(),
        milr::optim::pool::resolve_threads(config.threads, plan.len()),
        (sharded - featurised).as_secs_f64(),
        (flushed - sharded).as_secs_f64(),
    );
    println!(
        "wrote sharded snapshot {out} ({images} images, {categories} categories, dim {dim}, {} shard{}, backend {backend_id})",
        store.shard_count(),
        if store.shard_count() == 1 { "" } else { "s" },
    );
    Ok(())
}

/// Prints a summary of a snapshot directory (a load-and-verify round
/// trip).
fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--in").ok_or("--in is required")?;
    let loaded = milr::store::load_snapshot(&path).map_err(|e| e.to_string())?;
    let retrieval = &loaded.database;
    let bytes = snapshot_bytes(Path::new(&path))?;
    let instances = retrieval.bags().instance_count();
    println!(
        "{path}: {} images, {} categories, dim {}, {instances} instances, {bytes} bytes, \
         generation {}, {} shard{}, backend {}",
        retrieval.len(),
        retrieval.category_count(),
        retrieval.feature_dim(),
        loaded.generation,
        loaded.shards,
        if loaded.shards == 1 { "" } else { "s" },
        loaded.backend,
    );
    Ok(())
}

/// Total on-disk size of a snapshot directory: the manifest plus every
/// shard file.
fn snapshot_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        total += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

/// Compacts a snapshot directory in place: drops tombstones, renumbers
/// shards, and rewrites every shard with its quantized screening tier
/// rebuilt deterministically from the live bags.
fn cmd_compact(args: &[String]) -> Result<(), String> {
    let input = flag(args, "--in").ok_or("--in is required")?;
    let mut store = milr::store::ShardedDatabase::open(&input).map_err(|e| e.to_string())?;
    let dropped = store.compact();
    store.flush().map_err(|e| e.to_string())?;
    println!(
        "compacted {} ({} live images over {} shard{}, {dropped} tombstone{} dropped, \
         generation {})",
        store.dir().display(),
        store.live_len(),
        store.shard_count(),
        if store.shard_count() == 1 { "" } else { "s" },
        if dropped == 1 { "" } else { "s" },
        store.generation(),
    );
    Ok(())
}

/// Runs the retrieval daemon over a snapshot (the in-CLI equivalent of
/// the standalone `milrd` binary). `--role coordinator|worker` starts a
/// cluster node instead of the single-node daemon.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let (banner, wait): (String, Box<dyn FnOnce()>) = match flag(args, "--role").as_deref() {
        None | Some("single") => {
            let options = milr::serve::ServeOptions::from_flags(args)?;
            let (server, banner) = milr::serve::Server::open(options)?;
            (banner, Box::new(move || server.wait()))
        }
        Some("coordinator") => {
            let options = milr::cluster::CoordinatorOptions::from_flags(args)?;
            let coordinator =
                milr::cluster::Coordinator::start(options).map_err(|e| e.to_string())?;
            (coordinator.banner(), Box::new(move || coordinator.wait()))
        }
        Some("worker") => {
            let options = milr::cluster::WorkerOptions::from_flags(args)?;
            let worker = milr::cluster::Worker::start(options).map_err(|e| e.to_string())?;
            (worker.banner(), Box::new(move || worker.wait()))
        }
        Some(other) => {
            return Err(format!(
                "unknown --role {other:?} (single|coordinator|worker)"
            ))
        }
    };
    println!("{banner}");
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    wait();
    println!("milrd drained");
    Ok(())
}

/// `milr cluster status --addr HOST:PORT`: fleet membership, health,
/// and the cluster counters from a running coordinator.
fn cmd_cluster(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("status") => {}
        other => {
            return Err(format!(
                "unknown cluster subcommand {other:?} (expected: status)"
            ))
        }
    }
    let args = &args[1..];
    let addr_text = flag(args, "--addr").ok_or("--addr is required")?;
    let addr: std::net::SocketAddr = addr_text
        .parse()
        .map_err(|_| format!("invalid --addr {addr_text:?}"))?;
    let response =
        milr::serve::client::get(addr, "/cluster/status", std::time::Duration::from_secs(10))
            .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if response.status != 200 {
        return Err(format!("coordinator returned HTTP {}", response.status));
    }
    let body = String::from_utf8_lossy(&response.body).into_owned();
    if args.iter().any(|a| a == "--json") {
        println!("{body}");
        return Ok(());
    }
    let json =
        milr::serve::Json::parse(&body).map_err(|e| format!("bad /cluster/status body: {e}"))?;
    let num = |v: &milr::serve::Json, key: &str| -> u64 {
        v.get(key).and_then(milr::serve::Json::as_u64).unwrap_or(0)
    };
    println!(
        "coordinator {addr}: generation {}, {} shards, {} live bags",
        num(&json, "generation"),
        num(&json, "total_shards"),
        num(&json, "live_bags"),
    );
    println!(
        "{:<6} {:<22} {:<9} {:>9} {:>11} {:>7} {:>11}",
        "worker", "addr", "healthy", "failures", "generation", "shards", "p99_us"
    );
    if let Some(workers) = json.get("workers").and_then(milr::serve::Json::as_array) {
        for worker in workers {
            let shards = worker
                .get("shards")
                .and_then(milr::serve::Json::as_array)
                .map(<[milr::serve::Json]>::len)
                .unwrap_or(0);
            let latency = worker.get("latency_us");
            println!(
                "{:<6} {:<22} {:<9} {:>9} {:>11} {:>7} {:>11}",
                num(worker, "index"),
                worker
                    .get("addr")
                    .and_then(milr::serve::Json::as_str)
                    .unwrap_or("?"),
                worker
                    .get("healthy")
                    .and_then(milr::serve::Json::as_bool)
                    .map(|b| if b { "yes" } else { "NO" })
                    .unwrap_or("?"),
                num(worker, "consecutive_failures"),
                num(worker, "generation"),
                shards,
                latency.map(|l| num(l, "p99")).unwrap_or(0),
            );
        }
    }
    if let Some(cluster) = json.get("cluster") {
        println!(
            "ranks {} (partial {}), shards ranked {} / missing {}, retries {}, evictions {}, \
             rejoins {}, resyncs {}",
            num(cluster, "rank_total"),
            num(cluster, "partial_responses_total"),
            num(cluster, "shards_ranked_total"),
            num(cluster, "shards_missing_total"),
            num(cluster, "worker_retries_total"),
            num(cluster, "worker_evictions_total"),
            num(cluster, "worker_rejoins_total"),
            num(cluster, "worker_resyncs_total"),
        );
    }
    Ok(())
}

/// Fetches the most recent spans from a running daemon's `/trace`
/// endpoint and prints them as a table plus a per-name summary
/// (count / total / max duration). `--json` dumps the raw response
/// body for piping into other tools.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let addr_text = flag(args, "--addr").ok_or("--addr is required")?;
    let addr: std::net::SocketAddr = addr_text
        .parse()
        .map_err(|_| format!("invalid --addr {addr_text:?}"))?;
    let n: usize = parse_flag(args, "--n")?.unwrap_or(256);
    let response = milr::serve::client::get(
        addr,
        &format!("/trace?n={n}"),
        std::time::Duration::from_secs(10),
    )
    .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if response.status != 200 {
        return Err(format!("daemon returned HTTP {}", response.status));
    }
    let body = String::from_utf8_lossy(&response.body).into_owned();
    if args.iter().any(|a| a == "--json") {
        println!("{body}");
        return Ok(());
    }
    let json = milr::serve::Json::parse(&body).map_err(|e| format!("bad /trace response: {e}"))?;
    let spans = json
        .get("spans")
        .and_then(milr::serve::Json::as_array)
        .ok_or("response has no spans array")?;
    let field = |span: &milr::serve::Json, key: &str| -> u64 {
        span.get(key)
            .and_then(milr::serve::Json::as_u64)
            .unwrap_or(0)
    };
    println!(
        "{:<24} {:>6} {:>14} {:>12}",
        "span", "thread", "start_us", "dur_us"
    );
    let mut by_name: std::collections::BTreeMap<String, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for span in spans {
        let name = span
            .get("name")
            .and_then(milr::serve::Json::as_str)
            .unwrap_or("?")
            .to_owned();
        let dur_us = field(span, "dur_ns") / 1_000;
        println!(
            "{name:<24} {:>6} {:>14} {:>12}",
            field(span, "thread"),
            field(span, "start_us"),
            dur_us,
        );
        let entry = by_name.entry(name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += dur_us;
        entry.2 = entry.2.max(dur_us);
    }
    println!(
        "\n{:<24} {:>6} {:>14} {:>12}",
        "summary", "count", "total_us", "max_us"
    );
    for (name, (count, total, max)) in &by_name {
        println!("{name:<24} {count:>6} {total:>14} {max:>12}");
    }
    Ok(())
}

/// Checks the committed golden-trace corpus against freshly recorded
/// traces, or regenerates it with `--bless`. A diverging trace prints
/// one path-qualified line per differing leaf so the kernel change that
/// caused it can be reviewed, then exits non-zero.
fn cmd_golden(args: &[String]) -> Result<(), String> {
    use milr::testkit::{
        artifact, record_trace, record_warm_trace, standard_cases, warm_trace_file_name,
        WARM_TRACE_NAME,
    };
    let dir = PathBuf::from(flag(args, "--dir").unwrap_or_else(|| "tests/golden".into()));
    let bless = args.iter().any(|a| a == "--bless");
    if bless {
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    let mut failures = 0usize;
    // The training traces, plus the warm-vs-cold convergence trace.
    let mut traces: Vec<(String, String, milr::serve::Json)> = Vec::new();
    for case in standard_cases() {
        traces.push((
            case.name.to_string(),
            case.file_name(),
            record_trace(&case)?,
        ));
    }
    traces.push((
        WARM_TRACE_NAME.to_string(),
        warm_trace_file_name(),
        record_warm_trace()?,
    ));
    for (name, file_name, actual) in traces {
        let path = dir.join(file_name);
        if bless {
            std::fs::write(&path, actual.dump() + "\n")
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            println!("blessed {}", path.display());
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "cannot read golden trace {}: {e} (regenerate with `milr golden --bless`)",
                path.display()
            )
        })?;
        let golden = milr::serve::Json::parse(text.trim())
            .map_err(|e| format!("corrupt golden trace {}: {e}", path.display()))?;
        let diffs = artifact::diff("trace", &golden, &actual);
        if diffs.is_empty() {
            println!("ok {name}");
        } else {
            failures += 1;
            eprintln!("FAIL {name} ({} difference(s)):", diffs.len());
            for diff in diffs.iter().take(12) {
                eprintln!("  {diff}");
            }
            if diffs.len() > 12 {
                eprintln!("  ... and {} more", diffs.len() - 12);
            }
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} golden trace(s) diverged; review the diffs above and \
             rerun with --bless if the new behaviour is intended"
        ));
    }
    Ok(())
}

/// Renders and featurises the plan's images through the gray-block
/// pipeline in one pooled pass, one image per worker at a time (the
/// corpus is never held as images).
fn featurise_gray(
    plan: &RenderPlan,
    config: &RetrievalConfig,
) -> Result<RetrievalDatabase, String> {
    RetrievalDatabase::from_indexed(plan.len(), config, |index| {
        let bag = milr::core::features::image_to_bag(&plan.render(index).to_gray(), config)?;
        Ok((bag, plan.labels()[index]))
    })
    .map_err(|e| e.to_string())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let kind = flag(args, "--kind").ok_or("--kind is required")?;
    let category = flag(args, "--category").ok_or("--category is required")?;
    let seed: u64 = parse_flag(args, "--seed")?.unwrap_or(0);
    let per_category = parse_flag(args, "--per-category")?.unwrap_or(PER_CATEGORY);
    let policy = match flag(args, "--policy") {
        Some(spec) => parse_policy(&spec)?,
        None => WeightPolicy::SumConstraint { beta: 0.5 },
    };
    let rounds = parse_flag(args, "--rounds")?.unwrap_or(3);
    let fast = args.iter().any(|a| a == "--fast");

    let plan = plan(&kind, Some(per_category), seed)?;
    let target = plan.category_index(&category).ok_or_else(|| {
        format!(
            "unknown category {category:?}; have {:?}",
            plan.categories()
        )
    })?;

    let mut config = RetrievalConfig {
        policy,
        feedback_rounds: rounds,
        ..RetrievalConfig::default()
    };
    if fast {
        apply_fast(&mut config);
    }
    let retrieval = match flag(args, "--snapshot") {
        Some(path) => {
            eprintln!("loading snapshot {path} ...");
            let retrieval = milr::store::load_snapshot(&path)
                .map_err(|e| e.to_string())?
                .database;
            if retrieval.len() != plan.len() {
                return Err(format!(
                    "snapshot {path} holds {} images but --kind/--per-category/--seed \
                     describe {} — rebuild it with `milr preprocess`",
                    retrieval.len(),
                    plan.len()
                ));
            }
            retrieval
        }
        None => {
            eprintln!("preprocessing {} images ...", plan.len());
            featurise_gray(&plan, &config)?
        }
    };
    let split = plan.split(0.2, seed.wrapping_add(1));
    let mut session = QuerySession::builder(&retrieval)
        .config(&config)
        .target(target)
        .pool(split.pool)
        .test(split.test)
        .build()
        .map_err(|e| e.to_string())?;
    eprintln!("training ({rounds} rounds, policy {}) ...", policy.label());
    let ranking = session.run().map_err(|e| e.to_string())?;

    if let Some(dir) = flag(args, "--dump-concept") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let concept = session.concept().expect("trained");
        let point =
            milr::core::visualize::concept_point_image(concept).map_err(|e| e.to_string())?;
        let weights =
            milr::core::visualize::concept_weight_image(concept).map_err(|e| e.to_string())?;
        pnm::save_pgm(&point, dir.join("concept_point.pgm")).map_err(|e| e.to_string())?;
        pnm::save_pgm(&weights, dir.join("concept_weights.pgm")).map_err(|e| e.to_string())?;
        eprintln!(
            "dumped concept t/w maps (Figs 3-7..3-9 form) to {}",
            dir.display()
        );
    }

    if let Some(html_path) = flag(args, "--html") {
        use milr::core::report::{write_html_report, ReportRow};
        let rows: Vec<ReportRow> = ranking
            .iter()
            .take(24)
            .enumerate()
            .map(|(rank, &(index, d2))| {
                let label = retrieval.labels()[index];
                ReportRow::from_rgb(
                    &plan.render(index),
                    format!(
                        "#{} · image {index} · {} · d² = {d2:.2}",
                        rank + 1,
                        plan.categories()[label]
                    ),
                    label == target,
                )
            })
            .collect();
        write_html_report(
            &html_path,
            &format!("milr retrieval: {category} ({})", policy.label()),
            &rows,
            session.concept(),
        )
        .map_err(|e| e.to_string())?;
        eprintln!("wrote HTML report to {html_path}");
    }

    println!("rank,image,category,hit,distance_sq");
    for (rank, &(index, d2)) in ranking.iter().take(20).enumerate() {
        let label = retrieval.labels()[index];
        println!(
            "{},{},{},{},{:.4}",
            rank + 1,
            index,
            plan.categories()[label],
            u8::from(label == target),
            d2
        );
    }
    let relevant: Vec<bool> = ranking
        .iter()
        .map(|&(i, _)| retrieval.labels()[i] == target)
        .collect();
    eprintln!(
        "average precision {:.3} over {} test images (base rate {:.3})",
        eval::average_precision(&relevant),
        relevant.len(),
        eval::random_precision_level(&relevant),
    );
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--image").ok_or("--image is required")?;
    let resolution: usize = parse_flag(args, "--resolution")?.unwrap_or(10);
    let image = load_gray(Path::new(&path))?;
    println!(
        "{}: {}x{} mean {:.1} std {:.1}",
        path,
        image.width(),
        image.height(),
        image.mean(),
        image.std_dev()
    );
    let sampled = smooth_sample(&image, resolution).map_err(|e| e.to_string())?;
    println!("\nsmoothed-and-sampled {resolution}x{resolution} matrix (§3.1.2):");
    for y in 0..resolution {
        let row: Vec<String> = (0..resolution)
            .map(|x| format!("{:>6.1}", sampled.get(x, y)))
            .collect();
        println!("  {}", row.join(" "));
    }
    Ok(())
}

fn load_gray(path: &Path) -> Result<GrayImage, String> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("pgm") => pnm::load_pgm(path).map_err(|e| e.to_string()),
        Some("ppm") => Ok(pnm::load_ppm(path).map_err(|e| e.to_string())?.to_gray()),
        _ => Err(format!(
            "unsupported image format for {path:?} (need .pgm or .ppm)"
        )),
    }
}

/// Queries a synthetic database with the user's own example images
/// (§3.5's interactive use: examples need not come from the database).
fn cmd_query_files(args: &[String]) -> Result<(), String> {
    let kind = flag(args, "--kind").ok_or("--kind is required")?;
    let positive_list = flag(args, "--positive").ok_or("--positive is required")?;
    let negative_list = flag(args, "--negative").unwrap_or_default();
    let seed = parse_flag(args, "--seed")?.unwrap_or(0);
    let per_category = parse_flag(args, "--per-category")?.unwrap_or(PER_CATEGORY);
    let policy = match flag(args, "--policy") {
        Some(spec) => parse_policy(&spec)?,
        None => WeightPolicy::SumConstraint { beta: 0.5 },
    };

    let config = RetrievalConfig {
        policy,
        ..RetrievalConfig::default()
    };
    let load_bags = |list: &str| -> Result<Vec<milr::mil::Bag>, String> {
        list.split(',')
            .filter(|s| !s.is_empty())
            .map(|file| {
                let image = load_gray(Path::new(file))?;
                milr::core::features::image_to_bag(&image, &config).map_err(|e| e.to_string())
            })
            .collect()
    };
    let positives = load_bags(&positive_list)?;
    let negatives = load_bags(&negative_list)?;

    let plan = plan(&kind, Some(per_category), seed)?;
    eprintln!("preprocessing {} database images ...", plan.len());
    let retrieval = featurise_gray(&plan, &config)?;
    let candidates: Vec<usize> = (0..retrieval.len()).collect();
    eprintln!(
        "training on {} positive / {} negative example files ...",
        positives.len(),
        negatives.len()
    );
    let (_, ranking) =
        milr::core::query_with_examples(&retrieval, &config, &positives, &negatives, &candidates)
            .map_err(|e| e.to_string())?;

    println!("rank,image,category,distance_sq");
    for (rank, &(index, d2)) in ranking.iter().take(20).enumerate() {
        let label = retrieval.labels()[index];
        println!(
            "{},{},{},{:.4}",
            rank + 1,
            index,
            plan.categories()[label],
            d2
        );
    }
    Ok(())
}

/// Writes a contact sheet of the synthetic database for eyeballing.
fn cmd_montage(args: &[String]) -> Result<(), String> {
    let kind = flag(args, "--kind").ok_or("--kind is required")?;
    let out = flag(args, "--out").ok_or("--out is required")?;
    let per_category = parse_flag(args, "--per-category")?.unwrap_or(MONTAGE_PER_CATEGORY);
    let seed = parse_flag(args, "--seed")?.unwrap_or(0);
    let images = plan(&kind, Some(per_category), seed)?.render_all();
    let sheet = milr::synth::montage(&images, per_category.get());
    pnm::save_ppm(&sheet, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {}x{} montage ({} rows x {} columns) to {out}",
        sheet.width(),
        sheet.height(),
        images.categories().len(),
        per_category.get()
    );
    Ok(())
}
