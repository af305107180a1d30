//! What both kinds of run share: the program under test, the scratch
//! directory, repeated set-up, the in-process replica — and the untraced
//! run that produces the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::procs;
use crate::replica::Replica;
use crate::report::{Metric, END_TO_END};
use crate::run::{self, Stack};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{Plan, Query, Spec};

/// What every run needs: the program under test and a scratch directory.
pub struct Context {
    /// The `milr` binary built from this checkout.
    pub milr: PathBuf,
    /// Where snapshots and fixtures are written; removed on drop.
    pub scratch: procs::Scratch,
    /// Whether `--smoke` shrinks every workload.
    pub smoke: bool,
}

/// One run's result.
pub struct Outcome {
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Timed operations attempted.
    pub attempted: usize,
    /// Timed operations that failed a check.
    pub failed: usize,
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The spec and plan of a run; `--smoke` shrinks both.
pub fn plan_for(context: &Context, spec: &Spec, seed: u64, ops: usize) -> (Spec, Plan) {
    println!("{:<16} {}", spec.name, spec.why);
    let spec = if context.smoke {
        spec.smoke()
    } else {
        spec.clone()
    };
    let plan = Plan::generate(&spec, seed, ops);
    (spec, plan)
}

/// Clients stop taking new operations this long after the measured
/// phase began: a slow box shortens the sample and never the budget.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64((seconds * 2.5).max(seconds + 15.0))
}

/// Sets the workload up `reps` times (fresh snapshot, fresh processes)
/// and keeps the last stack; returns it with the set-up times.
pub fn set_up_repeatedly(
    context: &Context,
    spec: &Spec,
    seed: u64,
    reps: usize,
) -> Result<(Stack, Vec<f64>), String> {
    let dir = context.scratch.path().join(spec.name);
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let (stack, seconds) = run::set_up(&context.milr, spec, seed, &dir)?;
        times.push(seconds);
        kept = Some(stack);
    }
    Ok((kept.expect("at least one repetition"), times))
}

/// Loads the snapshot in process and checks the label layout the plans
/// assume (`label = index / per_category`).
pub fn open_replica(spec: &Spec, snapshot: &Path, cluster: bool) -> Result<Replica, String> {
    let replica = Replica::open(snapshot, cluster)?;
    let labels = replica.db.labels();
    let expected = (0..spec.images()).map(|i| i / spec.per_category);
    if labels.len() != spec.images() || !labels.iter().copied().eq(expected) {
        return Err("snapshot labels are not laid out category by category".into());
    }
    Ok(replica)
}

/// One untraced run: the end-to-end metrics.
pub fn run_untraced(
    context: &Context,
    spec: &Spec,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let (spec, plan) = plan_for(context, spec, seed, spec.op_count(seconds));
    let spec = &spec;
    let clients = spec.clients.min(cores());
    let (stack, setup_times) = set_up_repeatedly(context, spec, seed, spec.setup_reps)?;
    let mut replica = open_replica(spec, &stack.snapshot, false)?;
    run::warm_up(spec, &plan, stack.front(), cores().min(2))?;
    let ops: Vec<(usize, &Query)> = plan.ops.iter().enumerate().collect();
    let drive = run::drive(spec, &ops, &stack, clients, deadline(seconds), false)?;
    let pids = stack.pids();
    let peak_rss_mb = procs::peak_rss_mb(&pids)?;
    let verdict = run::verify(
        spec,
        &plan,
        &drive,
        &mut replica,
        seed,
        false,
        &mut Recorder::new(),
    );
    drop(stack);
    for failure in &verdict.failures {
        eprintln!("{}: {failure}", spec.name);
    }
    let passed = verdict.latencies_ms.len();
    if passed == 0 {
        return Err(format!("{}: no operation passed", spec.name));
    }
    let tail = stats::tail_percentile(passed);
    println!(
        "{:<16} plan_hash {:016x} clients {clients} ops {} wall {:.3}s redials {} connect {:.1}ms oracle_checked {}",
        spec.name,
        plan.hash(),
        drive.records.len(),
        drive.wall_s,
        drive.dials,
        drive.connect_s * 1e3,
        verdict.oracle_checked,
    );
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup_times), setup_times.len()),
        Metric::new(
            "latency_p50_ms",
            stats::percentile(&verdict.latencies_ms, 0.5),
            passed,
        ),
        Metric::new(
            "latency_tail_ms",
            stats::percentile(&verdict.latencies_ms, tail),
            passed,
        )
        .note(format!("tail_percentile p{:.0}", tail * 100.0)),
        Metric::new("throughput_ops_s", passed as f64 / drive.wall_s, passed),
        Metric::new("cpu_ms_per_op", drive.cpu_s * 1e3 / passed as f64, passed),
        Metric::new("peak_rss_mb", peak_rss_mb, pids.len()),
        Metric::new(
            "precision_at_k",
            verdict.precision_at_k,
            passed / spec.timed_per_op(),
        ),
    ];
    assert!(metrics
        .iter()
        .map(|m| m.name)
        .eq(END_TO_END.iter().map(|m| m.name)));
    Ok(Outcome {
        metrics,
        attempted: verdict.attempted,
        failed: verdict.failed,
    })
}
