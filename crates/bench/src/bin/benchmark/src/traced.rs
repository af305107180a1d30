//! The traced run that produces the per-layer metrics: one client, the
//! span recorder on for half the operations, `/metrics` scraped around
//! that half, every recorded operation replayed in process layer by
//! layer, then the in-process layer timings.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use milr_mil::Concept;

use crate::harness::{
    cores, deadline, open_replica, plan_for, set_up_repeatedly, Context, Outcome,
};
use crate::layers;
use crate::procs;
use crate::replica::{Replica, CLUSTER_WORKERS};
use crate::report::{Metric, PER_LAYER};
use crate::run::{self, Drive};
use crate::stats;
use crate::trace::{self, Recorder};
use crate::wire::{self, Client, Scrape};
use crate::workloads::{feedback_marks, Query, Spec, PAGE};

/// Round trips of `GET /healthz` behind `serve.noop_roundtrip_us`.
const NOOP_ROUNDTRIPS: usize = 300;

/// Combinations a traced run rotates: every one is trained twice here,
/// by the daemon and by the replica, and four exercise the same code as
/// twelve.
const TRACED_COMBOS: usize = 4;

/// Cache-hit operations replayed in process for the layer shares.
const REPLAY_SAMPLE: usize = 32;

/// Unrecorded replaying of that sample before the recorded pass: the
/// daemon served its operations back to back for seconds, on a core at
/// full clock with warm caches, and the replay — which follows a phase
/// spent waiting on sockets — has to be as warm to compare with it.
const REPLAY_WARM: Duration = Duration::from_millis(200);

/// `n / d`, or 0 when nothing was counted.
fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// One traced run of `spec`.
pub fn run_traced(
    context: &Context,
    spec: &Spec,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let half = (spec.op_count(seconds) / 4).max(2);
    let (spec, plan) = plan_for(context, &spec.rotating(TRACED_COMBOS), seed, 2 * half);
    let spec = &spec;
    let (stack, _) = set_up_repeatedly(context, spec, seed, 1)?;
    let mut replica = open_replica(spec, &stack.snapshot, spec.cluster)?;
    run::warm_up(spec, &plan, stack.front(), cores().min(2))?;

    // Unrecorded quarter, recorded half, unrecorded quarter: a drift in
    // the box's speed during the run falls on both sides of the ratio.
    let ops: Vec<(usize, &Query)> = plan.ops.iter().enumerate().collect();
    let (lead, rest) = ops.split_at(half / 2);
    let (recorded_ops, tail) = rest.split_at(half);
    let timeout = Duration::from_secs(10);
    let (front, all) = ([stack.front()], stack.addrs());
    let plain_lead = run::drive(spec, lead, &stack, 1, deadline(seconds), false)?;
    let before = (wire::scrape(&front, timeout)?, wire::scrape(&all, timeout)?);
    let drive = run::drive(spec, recorded_ops, &stack, 1, deadline(seconds), true)?;
    let front_counters = Scrape::new(before.0, wire::scrape(&front, timeout)?);
    let all_counters = Scrape::new(before.1, wire::scrape(&all, timeout)?);
    let plain_tail = run::drive(spec, tail, &stack, 1, deadline(seconds), false)?;
    let noop_us = noop_roundtrip_us(stack.front())?;

    // The replica's cache is warmed like the daemon's was, so a replayed
    // operation takes the path its wire twin took.
    for query in &plan.warmup {
        let target = query.target(spec.rank_route());
        replica.rank_op(&mut Recorder::new(), usize::MAX, &target)?;
    }
    let memo = || {
        let counter = |name: &str| milr_obs::global().counter(name).get() as f64;
        (
            counter("milr_dd_memo_hits_total"),
            counter("milr_dd_memo_misses_total"),
        )
    };
    let memo_before = memo();
    let mut replay = Recorder::new();
    let verdict = run::verify(spec, &plan, &drive, &mut replica, seed, true, &mut replay);
    for failure in &verdict.failures {
        eprintln!("{}: {failure}", spec.name);
    }
    if verdict.latencies_ms.is_empty() {
        return Err(format!("{}: no traced operation passed", spec.name));
    }
    // Layer shares come from operations replayed warm: where combinations
    // rotate, a sample of the recorded operations is replayed again (the
    // verification pass met each shape once, cold); where every operation
    // trains, the verification pass already is that replay.
    if spec.combos > 0 {
        let sample = || recorded_ops.iter().take(REPLAY_SAMPLE);
        let warm_until = Instant::now() + REPLAY_WARM;
        while Instant::now() < warm_until {
            for &(op, query) in sample() {
                replica.rank_op(&mut Recorder::new(), op, &query.target(spec.rank_route()))?;
            }
        }
        replay = Recorder::new();
        for &(op, query) in sample() {
            replica.rank_op(&mut replay, op, &query.target(spec.rank_route()))?;
        }
    }
    let fixture = &plan.ops[0];
    let concept = fixture_rounds(&mut replica, spec, fixture)?;
    let memo_after = memo();
    let mut metrics = layers::measure(
        &replica.db,
        &concept,
        fixture,
        &stack.snapshot,
        context.scratch.path(),
        seed,
    )?;
    drop(stack);

    let requests = drive.records.len();
    let wire_p50_ms = stats::percentile(&verdict.latencies_ms, 0.5);
    metrics.extend(training_metrics(
        &replica,
        memo_after.0 - memo_before.0,
        memo_after.1 - memo_before.1,
    ));
    metrics.extend(counter_metrics(&front_counters, &all_counters, requests));
    metrics.push(Metric::new(
        "serve.noop_roundtrip_us",
        noop_us,
        NOOP_ROUNDTRIPS,
    ));
    let ops_per_s = |drives: &[&Drive]| {
        let passed = |d: &&Drive| d.records.iter().filter(|r| r.error.is_none()).count() as f64;
        ratio(
            drives.iter().map(passed).sum(),
            drives.iter().map(|d| d.wall_s).sum(),
        )
    };
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        ratio(ops_per_s(&[&drive]), ops_per_s(&[&plain_lead, &plain_tail])),
        requests,
    ));
    let wire_spans = drive.spans.expect("the recorded half carries spans");
    metrics.extend(client_metrics(&wire_spans));
    let store_rank_us = metrics
        .iter()
        .find(|m| m.name == "store.rank_topk_us")
        .map_or(0.0, |m| m.value);
    metrics.push(Metric::new(
        "cluster.overhead_us",
        if spec.cluster {
            wire_p50_ms * 1e3 - store_rank_us
        } else {
            0.0
        },
        verdict.latencies_ms.len(),
    ));
    let wire_mean_ms = verdict.latencies_ms.iter().sum::<f64>() / verdict.latencies_ms.len() as f64;
    let shares = share_metrics(&replay, wire_mean_ms);
    check_design_intent(spec, &shares);
    let replayed = shares[0].samples;
    metrics.extend(shares);

    let mut all_spans = Recorder::new();
    all_spans.absorb(wire_spans);
    all_spans.absorb(replay);
    let trace_dir = procs::target_dir().join("benchmark-trace");
    let trace_path = trace_dir.join(format!("{}-seed{seed}.jsonl", spec.name));
    std::fs::create_dir_all(&trace_dir)
        .and_then(|()| all_spans.write_jsonl(&trace_path))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!(
        "{:<16} traced {requests} ops with 1 client, replayed {replayed} in process, spans in {}",
        spec.name,
        trace_path.display()
    );

    // Report in table order; a metric nobody measured is a bug here.
    let ordered = PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .ok_or(format!("per-layer metric {name} was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        metrics: ordered,
        attempted: verdict.attempted,
        failed: verdict.failed,
    })
}

/// Median latency of `GET /healthz` on a keep-alive socket: the wire
/// floor every request pays before any layer does work.
fn noop_roundtrip_us(front: SocketAddr) -> Result<f64, String> {
    let mut client = Client::new(front, Duration::from_secs(10));
    let mut latencies = Vec::with_capacity(NOOP_ROUNDTRIPS);
    for _ in 0..NOOP_ROUNDTRIPS {
        latencies.push(client.get("/healthz")?.latency().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&latencies))
}

/// A cold round and a warm round on `query`'s examples, so every
/// workload reports both training costs; returns the cold round's
/// concept, which the ranking timings use.
fn fixture_rounds(
    replica: &mut Replica,
    spec: &Spec,
    query: &Query,
) -> Result<Arc<Concept>, String> {
    let mut rec = Recorder::new();
    let root = rec.open_root("fixture", usize::MAX);
    let mut session = replica.session(&query.positives, &query.negatives)?;
    replica.train(&mut session, &mut rec, root)?;
    let concept = session
        .shared_concept()
        .ok_or("fixture session has no concept")?;
    let page = replica.naive_rank(&concept, PAGE);
    let (positives, negatives) = feedback_marks(
        &page,
        query.category,
        spec.per_category,
        &query.positives,
        &query.negatives,
    );
    session
        .add_positives(&positives)
        .and_then(|_| session.add_negatives(&negatives))
        .map_err(|e| e.to_string())?;
    replica.train(&mut session, &mut rec, root)?;
    Ok(concept)
}

/// Training cost and exact solver counts, from every training run the
/// replica made (replaying operations, feedback rounds, the fixture),
/// plus the objective's memo hit ratio
/// over those runs.
fn training_metrics(replica: &Replica, memo_hits: f64, memo_misses: f64) -> Vec<Metric> {
    let of = |warm: bool| replica.trainings.iter().filter(move |t| t.warm == warm);
    let median_ms = |warm: bool| {
        let ms: Vec<f64> = of(warm).map(|t| t.seconds * 1e3).collect();
        (stats::median(&ms), ms.len())
    };
    let evaluations = |warm: bool| -> usize {
        of(warm)
            .map(|t| t.result.start_evaluations.iter().sum::<usize>())
            .sum()
    };
    let (cold_ms, queries) = median_ms(false);
    let (warm_ms, warm_rounds) = median_ms(true);
    let starts: usize = of(false).map(|t| t.result.starts).sum();
    let converged: usize = of(false).map(|t| t.result.converged_starts).sum();
    let evals = evaluations(false);
    vec![
        Metric::new("core.train_round_cold_ms", cold_ms, queries),
        Metric::new("core.train_round_warm_ms", warm_ms, warm_rounds),
        Metric::new(
            "optim.starts_per_query",
            ratio(starts as f64, queries as f64),
            queries,
        ),
        Metric::new(
            "optim.evals_per_query",
            ratio(evals as f64, queries as f64),
            queries,
        ),
        Metric::new(
            "optim.evals_per_start",
            ratio(evals as f64, starts as f64),
            starts,
        ),
        Metric::new(
            "optim.converged_ratio",
            ratio(converged as f64, starts as f64),
            starts,
        ),
        Metric::new(
            "optim.warm_evals_per_round",
            ratio(evaluations(true) as f64, warm_rounds as f64),
            warm_rounds,
        ),
        Metric::new(
            "mil.memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
            (memo_hits + memo_misses) as usize,
        ),
    ]
}

/// What the daemons counted during the recorded half: `front` is the
/// daemon clients talk to, `all` sums every serving process (the ranking
/// tiers run in the workers of a cluster).
fn counter_metrics(front: &Scrape, all: &Scrape, requests: usize) -> Vec<Metric> {
    let served: f64 = [
        "/rank",
        "/cluster/rank",
        "/sessions",
        "/sessions/{id}",
        "/sessions/{id}/feedback",
    ]
    .iter()
    .map(|endpoint| {
        front.delta(&format!(
            "milrd_endpoint_requests_total{{endpoint=\"{endpoint}\"}}"
        ))
    })
    .sum();
    let shed = front.delta("milrd_connections_total{outcome=\"shed\"}")
        + front.delta("milrd_connections_total{outcome=\"deadline_shed\"}")
        + front.delta("milrd_priority_shed_total");
    let batches = front.delta("milrd_batch_size_count");
    let cluster_ranks = front.delta("milrd_cluster_rank_total");
    let worker_ranks = all.delta("milrd_worker_ranks_total");
    vec![
        Metric::new(
            "mil.topk_candidates_per_op",
            ratio(
                all.delta("milr_rank_topk_candidates_total"),
                requests as f64,
            ),
            requests,
        ),
        Metric::new(
            "mil.cells_skip_ratio",
            all.share(
                "milr_rank_cells_skipped_total",
                "milr_rank_cells_scanned_total",
            ),
            requests,
        ),
        Metric::new(
            "mil.quant_rescore_ratio",
            all.share(
                "milr_rank_quant_rescored_total",
                "milr_rank_quant_screened_total",
            ),
            requests,
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            front.share("milrd_concept_cache_hits", "milrd_concept_cache_misses"),
            requests,
        ),
        Metric::new(
            "serve.keepalive_reuse_ratio",
            ratio(front.delta("milrd_keepalive_reused_total"), served),
            served as usize,
        ),
        Metric::new(
            "serve.batch_size_mean",
            ratio(front.delta("milrd_batch_size_sum"), batches),
            batches as usize,
        ),
        Metric::new("serve.queue_peak", front.last("milrd_queue_peak"), 1),
        Metric::new("serve.shed_total", shed, requests),
        Metric::new(
            "cluster.partial_ratio",
            ratio(
                front.delta("milrd_cluster_partial_responses_total"),
                cluster_ranks,
            ),
            cluster_ranks as usize,
        ),
        Metric::new(
            "cluster.leg_retry_ratio",
            ratio(
                front.delta("milrd_cluster_worker_retries_total"),
                cluster_ranks * CLUSTER_WORKERS as f64,
            ),
            cluster_ranks as usize,
        ),
        Metric::new(
            "cluster.bound_seeded_ratio",
            ratio(all.delta("milrd_worker_bound_seeded_total"), worker_ranks),
            worker_ranks as usize,
        ),
    ]
}

/// Medians of the three client phases of the recorded half.
fn client_metrics(wire_spans: &Recorder) -> Vec<Metric> {
    [
        ("client.write", "client.write_us"),
        ("client.wait", "client.wait_us"),
        ("client.read", "client.read_us"),
    ]
    .iter()
    .map(|&(span_name, metric)| {
        let durations: Vec<f64> = wire_spans
            .spans()
            .iter()
            .filter(|span| span.name == span_name)
            .map(|span| span.duration_ns() as f64 / 1e3)
            .collect();
        Metric::new(metric, stats::median(&durations), durations.len())
    })
    .collect()
}

/// Each layer's share of an operation's time, and what is left over:
/// the mean self time of the layer's spans per replayed operation over
/// the mean latency the client saw (means on both sides, so that
/// operations of different cost — alternating page sizes, feedback
/// rounds of growing example sets — weigh in by the time they take). The
/// replica runs a scatter's legs one after the other: only the slower one
/// is charged, since a result waits for both.
fn share_metrics(replay: &Recorder, wire_mean_ms: f64) -> Vec<Metric> {
    let per_op = trace::self_times_per_root(replay.spans(), "op");
    let share = |names: &[&str], slower_only: &str| {
        let total_ns: u64 = per_op
            .iter()
            .map(|op| {
                let summed: u64 = op
                    .iter()
                    .filter(|(name, _)| names.contains(name))
                    .map(|&(_, ns)| ns)
                    .sum();
                let slower = op
                    .iter()
                    .filter(|(name, _)| *name == slower_only)
                    .map(|&(_, ns)| ns)
                    .max();
                summed + slower.unwrap_or(0)
            })
            .sum();
        ratio(
            total_ns as f64 / per_op.len().max(1) as f64,
            wire_mean_ms * 1e6,
        )
    };
    let shares = [
        ("trace.share_train", share(&["core.train_round"], "")),
        (
            "trace.share_rank",
            share(&["core.rank"], "store.rank_subset"),
        ),
        (
            "trace.share_serve",
            share(
                &[
                    "serve.http_parse",
                    "serve.json_parse",
                    "serve.cache",
                    "serve.json_dump",
                ],
                "",
            ),
        ),
        (
            "trace.share_cluster",
            share(&["cluster.scatter", "cluster.codec", "cluster.gather"], ""),
        ),
    ];
    let attributed: f64 = shares.iter().map(|&(_, share)| share).sum();
    shares
        .into_iter()
        .map(|(name, share)| Metric::new(name, share, per_op.len()).note("of mean wire latency"))
        .chain([
            Metric::new("trace.unattributed_share", 1.0 - attributed, per_op.len())
                .note("queueing, scheduling, sockets"),
        ])
        .collect()
}

/// Says whether the layer each workload exists to load did most of the
/// work: training at least 90 % of `first_page`, ranking at least 80 %
/// of `page_scan` and under 50 % of `page_wire`.
fn check_design_intent(spec: &Spec, shares: &[Metric]) {
    let share = |name: &str| {
        shares
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (train, rank) = (share("trace.share_train"), share("trace.share_rank"));
    let intent = match spec.name {
        "first_page" => Some(("training >= 90% of the op", train, train >= 0.9)),
        "page_scan" => Some(("ranking >= 80% of the op", rank, rank >= 0.8)),
        "page_wire" => Some(("ranking < 50% of the op", rank, rank < 0.5)),
        _ => None,
    };
    if let Some((what, value, met)) = intent {
        println!(
            "{:<16} design intent: {what}: {value:.3} {}",
            spec.name,
            if met { "met" } else { "MISSED" }
        );
    }
}
