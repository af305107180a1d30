//! Running one workload against real `milr` child processes: set-up,
//! the closed-loop measured phase, and verification of every page.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use milr_serve::Json;

use crate::check::{check_page, parse_page, precision, same_ranking, Page};
use crate::procs::{self, Daemon};
use crate::replica::{Replica, CLUSTER_WORKERS};
use crate::stats;
use crate::trace::Recorder;
use crate::wire::Client;
use crate::workloads::{feedback_marks, fnv1a, Plan, Query, Spec, FEEDBACK_ROUNDS, PAGE};

/// Client-side timeout of every request: a cold training takes under a
/// second, so anything slower than this is a hung daemon.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One in this many operations is compared with the oracle in an
/// untraced run (every operation in a traced one).
const ORACLE_SAMPLE: u64 = 16;

/// Distinct rotated combinations the oracle retrains in an untraced run
/// (each costs a cold training; a traced run checks them all).
const ORACLE_COMBOS: usize = 2;

/// The serving processes of one workload: a single daemon, or a
/// coordinator (first) with its workers.
pub struct Stack {
    /// The snapshot the processes serve.
    pub snapshot: PathBuf,
    daemons: Vec<Daemon>,
}

impl Stack {
    /// The address clients talk to.
    pub fn front(&self) -> SocketAddr {
        self.daemons[0].addr
    }

    /// Every serving process.
    pub fn pids(&self) -> Vec<u32> {
        self.daemons.iter().map(Daemon::pid).collect()
    }

    /// Every serving process's address.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.daemons.iter().map(|d| d.addr).collect()
    }
}

/// Preprocesses the workload's corpus into `dir/snapshot` and starts
/// its processes; returns once the front answers `/healthz` (a
/// coordinator: once it reports both workers healthy). Returns the
/// stack and the seconds the whole set-up took.
pub fn set_up(milr: &Path, spec: &Spec, seed: u64, dir: &Path) -> Result<(Stack, f64), String> {
    let begin = Instant::now();
    let snapshot = dir.join("snapshot");
    std::fs::remove_dir_all(&snapshot).ok();
    procs::preprocess(milr, spec.per_category, spec.shard_bags(), seed, &snapshot)?;
    let snapshot_arg = snapshot.to_string_lossy().into_owned();
    let serve = |extra: &[&str]| {
        let mut args = vec!["--snapshot".to_string(), snapshot_arg.clone()];
        args.extend(["--workers", "2"].map(String::from));
        args.extend(extra.iter().map(|s| (*s).to_string()));
        Daemon::spawn(milr, &args)
    };
    let mut daemons = Vec::new();
    if spec.cluster {
        let count = CLUSTER_WORKERS.to_string();
        for index in 0..CLUSTER_WORKERS {
            daemons.push(serve(&[
                "--role",
                "worker",
                "--worker-index",
                &index.to_string(),
                "--worker-count",
                &count,
            ])?);
        }
        let workers = daemons
            .iter()
            .map(|d| d.addr.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let coordinator = serve(&["--role", "coordinator", "--worker-addrs", &workers])?;
        let all_healthy = format!("\"healthy_workers\":{CLUSTER_WORKERS}");
        coordinator.wait_ready(|body| body.contains(&all_healthy))?;
        daemons.insert(0, coordinator);
    } else {
        let daemon = serve(&[])?;
        daemon.wait_ready(|_| true)?;
        daemons.push(daemon);
    }
    Ok((Stack { snapshot, daemons }, begin.elapsed().as_secs_f64()))
}

/// One timed request as a client saw it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index of the operation in the plan.
    pub op: usize,
    /// Feedback round (1-based; 0 for a `/rank`).
    pub round: usize,
    /// Client-observed latency.
    pub latency_ms: f64,
    /// FNV-1a of the response body; the body itself is in
    /// [`Drive::bodies`].
    pub body: u64,
    /// Transport error or unexpected status, if any.
    pub error: Option<String>,
}

/// What a session sent, so the oracle can replay it.
#[derive(Debug, Clone)]
pub struct SessionLog {
    /// Index of the operation in the plan.
    pub op: usize,
    /// Request bodies of the untimed first round and the timed rounds.
    pub round_bodies: Vec<String>,
    /// Body hashes of the corresponding responses.
    pub round_replies: Vec<u64>,
}

/// Everything the measured phase produced.
#[derive(Default)]
pub struct Drive {
    /// One record per timed request attempted.
    pub records: Vec<Record>,
    /// Distinct response bodies by hash.
    pub bodies: HashMap<u64, Vec<u8>>,
    /// Sessions as sent (session workloads only).
    pub sessions: Vec<SessionLog>,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// CPU seconds the serving processes spent during the phase.
    pub cpu_s: f64,
    /// TCP dials made during the phase (keep-alive budget redials).
    pub dials: u64,
    /// Time spent dialling, excluded from latencies.
    pub connect_s: f64,
    /// Client spans (traced phases only).
    pub spans: Option<Recorder>,
}

/// Trains the workload's rotated combinations before the measured
/// phase, spread over `clients` connections.
pub fn warm_up(spec: &Spec, plan: &Plan, front: SocketAddr, clients: usize) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::new(front, REQUEST_TIMEOUT);
                    for query in plan.warmup.iter().skip(id).step_by(clients) {
                        for &k in spec.ks {
                            let query = Query { k, ..query.clone() };
                            let reply = client.get(&query.target(spec.rank_route()))?;
                            if reply.status != 200 {
                                return Err(format!("warm-up answered {}", reply.status));
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|handle| handle.join().expect("warm-up thread panicked"))
    })
}

/// The measured phase: `clients` closed-loop clients on keep-alive
/// connections dialled beforehand, operation `i` of `ops` going to
/// client `i % clients`. Clients stop taking new operations at
/// `deadline`, so a slow box shortens the sample and never the budget.
pub fn drive(
    spec: &Spec,
    ops: &[(usize, &Query)],
    stack: &Stack,
    clients: usize,
    deadline: Instant,
    traced: bool,
) -> Result<Drive, String> {
    let front = stack.front();
    let pids = stack.pids();
    let barrier = Barrier::new(clients + 1);
    let (outcomes, wall_s, cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(front, REQUEST_TIMEOUT);
                    let dialled = client.dial();
                    let dials_before = client.dials;
                    let connect_before = client.connect_time;
                    let mut out = Drive {
                        spans: traced.then(Recorder::new),
                        ..Drive::default()
                    };
                    barrier.wait();
                    dialled?;
                    for &(op, query) in ops.iter().skip(id).step_by(clients) {
                        if Instant::now() > deadline {
                            break;
                        }
                        if spec.sessions {
                            run_session(spec, &mut client, op, query, &mut out);
                        } else {
                            let target = query.target(spec.rank_route());
                            timed_request(&mut client, "GET", &target, "", op, 0, &mut out);
                        }
                    }
                    out.dials = client.dials - dials_before;
                    out.connect_s = (client.connect_time - connect_before).as_secs_f64();
                    Ok(out)
                })
            })
            .collect();
        let cpu_before = procs::cpu_seconds(&pids);
        barrier.wait();
        let begin = Instant::now();
        let outcomes: Vec<Result<Drive, String>> = handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect();
        let wall_s = begin.elapsed().as_secs_f64();
        let cpu_s = cpu_before.and_then(|before| Ok(procs::cpu_seconds(&pids)? - before));
        (outcomes, wall_s, cpu_s)
    });
    let mut total = Drive {
        wall_s,
        cpu_s: cpu_s?,
        spans: traced.then(Recorder::new),
        ..Drive::default()
    };
    for outcome in outcomes {
        let part = outcome?;
        total.records.extend(part.records);
        total.bodies.extend(part.bodies);
        total.sessions.extend(part.sessions);
        total.dials += part.dials;
        total.connect_s += part.connect_s;
        if let (Some(all), Some(spans)) = (total.spans.as_mut(), part.spans) {
            all.absorb(spans);
        }
    }
    total
        .records
        .sort_by_key(|record| (record.op, record.round));
    total.sessions.sort_by_key(|session| session.op);
    Ok(total)
}

/// Sends one timed request and files its record (and, when tracing, its
/// `client.write` / `client.wait` / `client.read` spans under a root).
/// Returns the body on a 200.
fn timed_request(
    client: &mut Client,
    method: &str,
    target: &str,
    body: &str,
    op: usize,
    round: usize,
    out: &mut Drive,
) -> Option<Vec<u8>> {
    let begin = Instant::now();
    let outcome = client.request(method, target, body.as_bytes());
    let (record, reply) = match outcome {
        Ok(reply) => {
            if let Some(rec) = out.spans.as_mut() {
                let sent = reply.start + reply.write;
                let first = sent + reply.wait;
                let root = rec.record("wire.op", None, op, reply.start, first + reply.read);
                rec.record("client.write", Some(root), op, reply.start, sent);
                rec.record("client.wait", Some(root), op, sent, first);
                rec.record("client.read", Some(root), op, first, first + reply.read);
            }
            let hash = fnv1a(&reply.body);
            let error = (reply.status != 200).then(|| {
                format!(
                    "status {}: {}",
                    reply.status,
                    String::from_utf8_lossy(&reply.body)
                )
            });
            let record = Record {
                op,
                round,
                latency_ms: reply.latency().as_secs_f64() * 1e3,
                body: hash,
                error,
            };
            (record, Some((hash, reply.body)))
        }
        Err(e) => (
            Record {
                op,
                round,
                latency_ms: begin.elapsed().as_secs_f64() * 1e3,
                body: 0,
                error: Some(e),
            },
            None,
        ),
    };
    let ok = record.error.is_none();
    out.records.push(record);
    let (hash, body) = reply?;
    if !ok {
        return None;
    }
    out.bodies.entry(hash).or_insert_with(|| body.clone());
    Some(body)
}

/// One simulated user: open a session, read the first page (untimed),
/// then [`FEEDBACK_ROUNDS`] timed rounds of marking and re-reading.
fn run_session(spec: &Spec, client: &mut Client, op: usize, query: &Query, out: &mut Drive) {
    let fail_rounds = |out: &mut Drive, from: usize, why: &str| {
        for round in from..=FEEDBACK_ROUNDS {
            out.records.push(Record {
                op,
                round,
                latency_ms: 0.0,
                body: 0,
                error: Some(why.to_string()),
            });
        }
    };
    let opening = Json::Obj(vec![
        ("positives".into(), Json::indices(&query.positives)),
        ("negatives".into(), Json::indices(&query.negatives)),
    ]);
    let created = client
        .request("POST", "/sessions", opening.dump().as_bytes())
        .ok()
        .filter(|reply| reply.status == 201)
        .and_then(|reply| Json::parse(std::str::from_utf8(&reply.body).ok()?).ok())
        .and_then(|json| json.get("id").and_then(Json::as_u64));
    let Some(id) = created else {
        return fail_rounds(out, 1, "session was not created");
    };
    let feedback = format!("/sessions/{id}/feedback");
    let mut log = SessionLog {
        op,
        round_bodies: Vec::new(),
        round_replies: Vec::new(),
    };
    let (mut positives, mut negatives) = query.examples();
    // Round 0 trains cold on the opening marks; its latency belongs to
    // `first_page`, not here, so it is sent outside the timed records.
    let first_body = format!("{{\"k\":{PAGE}}}");
    let mut page = match client.request("POST", &feedback, first_body.as_bytes()) {
        Ok(reply) if reply.status == 200 => {
            let hash = fnv1a(&reply.body);
            log.round_bodies.push(first_body);
            log.round_replies.push(hash);
            let parsed = parse_page(&reply.body);
            out.bodies.entry(hash).or_insert(reply.body);
            parsed
        }
        Ok(reply) => Err(format!("first round answered {}", reply.status)),
        Err(e) => Err(e),
    };
    for round in 1..=FEEDBACK_ROUNDS {
        let entries = match &page {
            Ok(page) => &page.entries,
            Err(why) => {
                let why = format!("previous page unusable: {why}");
                fail_rounds(out, round, &why);
                break;
            }
        };
        let (new_positives, new_negatives) = feedback_marks(
            entries,
            query.category,
            spec.per_category,
            &positives,
            &negatives,
        );
        let body = Json::Obj(vec![
            ("positives".into(), Json::indices(&new_positives)),
            ("negatives".into(), Json::indices(&new_negatives)),
            ("k".into(), Json::num(PAGE as f64)),
        ])
        .dump();
        positives.extend(new_positives);
        negatives.extend(new_negatives);
        let reply = timed_request(client, "POST", &feedback, &body, op, round, out);
        log.round_bodies.push(body);
        log.round_replies.push(reply.as_deref().map_or(0, fnv1a));
        page = match reply {
            Some(body) => parse_page(&body),
            None => Err("request failed".into()),
        };
    }
    client
        .request("DELETE", &format!("/sessions/{id}"), &[])
        .ok();
    out.sessions.push(log);
}

/// Verdict on the measured phase's pages.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Timed requests attempted.
    pub attempted: usize,
    /// Requests that failed in transport, status, page structure or
    /// oracle comparison.
    pub failed: usize,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Latencies of the requests that passed, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Mean share of page entries in the query's category (the final
    /// round's page for a session).
    pub precision_at_k: f64,
    /// Pages compared with the oracle.
    pub oracle_checked: usize,
}

/// Checks every page's structure, compares the sampled ones with the
/// oracle bit for bit, and sorts the records into passed and failed.
pub fn verify(
    spec: &Spec,
    plan: &Plan,
    drive: &Drive,
    replica: &mut Replica,
    seed: u64,
    every_op: bool,
    rec: &mut Recorder,
) -> Verdict {
    let corpus = spec.images();
    let mut pages: HashMap<u64, Result<Page, String>> = HashMap::new();
    let mut bad: HashMap<(usize, usize), String> = HashMap::new();
    let mut page_of = |hash: u64| -> Result<Page, String> {
        pages
            .entry(hash)
            .or_insert_with(|| match drive.bodies.get(&hash) {
                Some(body) => parse_page(body),
                None => Err("no body recorded".into()),
            })
            .clone()
    };
    for record in &drive.records {
        let key = (record.op, record.round);
        if let Some(error) = &record.error {
            bad.insert(key, error.clone());
            continue;
        }
        let checked = page_of(record.body)
            .and_then(|page| check_page(&page, plan.ops[record.op].k, corpus, spec.cluster));
        if let Err(why) = checked {
            bad.insert(key, format!("page structure: {why}"));
        }
    }

    // Oracle comparison, each distinct (operation shape, body) once.
    let sampled_combos: Vec<(Vec<usize>, Vec<usize>)> = plan
        .warmup
        .iter()
        .cycle()
        .skip((seed % plan.warmup.len().max(1) as u64) as usize)
        .take(ORACLE_COMBOS.min(plan.warmup.len()))
        .map(Query::examples)
        .collect();
    let sampled = |op: usize| {
        every_op
            || if spec.combos > 0 {
                sampled_combos.contains(&plan.ops[op].examples())
            } else {
                op == 0
                    || fnv1a(&[seed.to_le_bytes(), (op as u64).to_le_bytes()].concat())
                        .is_multiple_of(ORACLE_SAMPLE)
            }
    };
    let mut oracle_checked = 0;
    if spec.sessions {
        for session in drive.sessions.iter().filter(|s| sampled(s.op)) {
            let outcome =
                replay_session(&plan.ops[session.op], session, replica, rec, &mut page_of);
            oracle_checked += session.round_replies.len();
            if let Err((round, why)) = outcome {
                for round in round.max(1)..=FEEDBACK_ROUNDS {
                    bad.entry((session.op, round))
                        .or_insert_with(|| format!("oracle: {why}"));
                }
            }
        }
    } else {
        let mut done: HashMap<(usize, u64), Result<(), String>> = HashMap::new();
        for record in drive
            .records
            .iter()
            .filter(|r| r.error.is_none() && sampled(r.op))
        {
            // Operations rotate combinations, so position modulo the
            // rotation identifies the shape; every op is its own shape
            // when nothing rotates.
            let shape = match spec.combos {
                0 => record.op,
                combos => record.op % (combos * spec.ks.len()),
            };
            let outcome = done.entry((shape, record.body)).or_insert_with(|| {
                oracle_checked += 1;
                let query = &plan.ops[record.op];
                let model = replica.rank_op(rec, record.op, &query.target(spec.rank_route()))?;
                let concept = replica
                    .cached_concept(&query.positives, &query.negatives)
                    .ok_or("replica lost its concept")?;
                let naive = replica.naive_rank(&concept, query.k);
                same_ranking(&model, &naive).map_err(|e| format!("replica vs oracle: {e}"))?;
                same_ranking(&page_of(record.body)?.entries, &naive)
            });
            if let Err(why) = outcome {
                bad.entry((record.op, record.round))
                    .or_insert_with(|| format!("oracle: {why}"));
            }
        }
    }

    let mut verdict = Verdict {
        attempted: drive.records.len(),
        oracle_checked,
        ..Verdict::default()
    };
    let mut precisions = Vec::new();
    for record in &drive.records {
        match bad.get(&(record.op, record.round)) {
            Some(why) => {
                verdict.failed += 1;
                if verdict.failures.len() < 5 {
                    verdict
                        .failures
                        .push(format!("op {} round {}: {why}", record.op, record.round));
                }
            }
            None => {
                verdict.latencies_ms.push(record.latency_ms);
                if record.round == 0 || record.round == FEEDBACK_ROUNDS {
                    let page = page_of(record.body).expect("passed the structure check");
                    let query = &plan.ops[record.op];
                    precisions.push(precision(&page.entries, query.category, spec.per_category));
                }
            }
        }
    }
    stats::sort(&mut verdict.latencies_ms);
    if !precisions.is_empty() {
        verdict.precision_at_k = precisions.iter().sum::<f64>() / precisions.len() as f64;
    }
    verdict
}

/// Replays one session through the replica, comparing every round's
/// page with the daemon's and with the naive fold. The error carries
/// the first round that disagreed.
fn replay_session(
    query: &Query,
    log: &SessionLog,
    replica: &mut Replica,
    rec: &mut Recorder,
    page_of: &mut impl FnMut(u64) -> Result<Page, String>,
) -> Result<(), (usize, String)> {
    let mut session = replica
        .session(&query.positives, &query.negatives)
        .map_err(|e| (0, e))?;
    for (round, (body, &reply)) in log.round_bodies.iter().zip(&log.round_replies).enumerate() {
        // The opening round is not a timed operation: its spans stay out
        // of the trace, so layer shares describe the timed rounds only.
        let mut untimed = Recorder::new();
        let rec = if round == 0 { &mut untimed } else { &mut *rec };
        let outcome = (|| {
            let model = replica.feedback_op(&mut session, rec, log.op, body)?;
            let concept = session.shared_concept().ok_or("session has no concept")?;
            let naive = replica.naive_rank(&concept, PAGE);
            same_ranking(&model, &naive).map_err(|e| format!("replica vs oracle: {e}"))?;
            same_ranking(&page_of(reply)?.entries, &naive)
        })();
        outcome.map_err(|why: String| (round, format!("round {round}: {why}")))?;
    }
    Ok(())
}
