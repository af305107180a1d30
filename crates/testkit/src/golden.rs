//! Golden-trace recording.
//!
//! A *trace* pins down the entire DD training trajectory for a seeded
//! synthetic corpus: per round the example sets, the number of starts,
//! each start's objective evaluations and final value, the argmin, the
//! learned concept (point + weights), and finally the test-set ranking.
//! Serialized through `milr-serve`'s shortest-round-trip JSON dump, the
//! trace is byte-stable: any solver or kernel change that alters a
//! single bit of any float shows up as an explicit, reviewed diff in
//! `tests/golden/*.json` (regenerate with `milr golden --bless`). The
//! committed traces state no tolerances, so [`crate::artifact::diff`]
//! holds them byte for byte.

use milr_core::{QuerySession, RankRequest, RetrievalConfig};
use milr_serve::{parse_policy, Json};

use crate::corpus::{mirror_closed_database, synthetic_database};

/// One golden scenario: a seeded corpus trained under one policy.
#[derive(Debug, Clone)]
pub struct GoldenCase {
    /// File stem under `tests/golden/` (`<name>.json`).
    pub name: &'static str,
    /// Corpus seed.
    pub seed: u64,
    /// Corpus size (bags).
    pub images: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Weight-policy spec, CLI grammar (`identical`, `constraint:0.5`…).
    pub policy: &'static str,
    /// Feedback rounds to trace.
    pub rounds: usize,
    /// Whether every instance is followed by its mirror twin (see
    /// [`mirror_closed_database`]); `dim` must then be square.
    pub mirror_closed: bool,
}

impl GoldenCase {
    /// The golden file name for this case.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.name)
    }
}

/// The committed regression corpus: small enough to train in
/// milliseconds, varied enough to cover the weight policies the paper
/// compares (§2.2: original DD vs. the identical-weight and constrained
/// variants).
pub fn standard_cases() -> Vec<GoldenCase> {
    vec![
        GoldenCase {
            name: "identical_seed7",
            seed: 7,
            images: 24,
            dim: 8,
            policy: "identical",
            rounds: 2,
            mirror_closed: false,
        },
        GoldenCase {
            name: "constraint_seed7",
            seed: 7,
            images: 24,
            dim: 8,
            policy: "constraint:0.5",
            rounds: 2,
            mirror_closed: false,
        },
        GoldenCase {
            name: "original_seed11",
            seed: 11,
            images: 20,
            dim: 6,
            policy: "original",
            rounds: 2,
            mirror_closed: false,
        },
        // Mirror-closed bags train from one start per mirror pair.
        GoldenCase {
            name: "identical_mirror_seed7",
            seed: 7,
            images: 24,
            dim: 9,
            policy: "identical",
            rounds: 2,
            mirror_closed: true,
        },
    ]
}

fn nums(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

fn counts(values: impl IntoIterator<Item = usize>) -> Json {
    Json::Arr(values.into_iter().map(|v| Json::num(v as f64)).collect())
}

/// Runs the case's full simulated-feedback protocol and records the
/// trajectory as a byte-stable JSON document.
///
/// # Errors
/// A description of a bad policy spec or a training failure.
pub fn record_trace(case: &GoldenCase) -> Result<Json, String> {
    let db = if case.mirror_closed {
        mirror_closed_database(case.images, case.dim, case.seed)
    } else {
        synthetic_database(case.images, case.dim, case.seed)
    };
    let config = RetrievalConfig {
        threads: 1, // single-threaded: evaluation order is part of the trace
        policy: parse_policy(case.policy)?,
        feedback_rounds: case.rounds,
        initial_positives: 2,
        initial_negatives: 2,
        false_positives_per_round: 2,
        max_iterations: 40,
        ..RetrievalConfig::default()
    };
    // Deterministic pool/test split: two of every three images train.
    let pool: Vec<usize> = (0..db.len()).filter(|i| i % 3 != 2).collect();
    let test: Vec<usize> = (0..db.len()).filter(|i| i % 3 == 2).collect();
    let mut session = QuerySession::builder(&db)
        .config(&config)
        .target(0)
        .pool(pool)
        .test(test)
        .build()
        .map_err(|e| e.to_string())?;
    let mut rounds = Vec::with_capacity(case.rounds);
    for round in 1..=case.rounds {
        let positives = session.positives().to_vec();
        let negatives = session.negatives().to_vec();
        let result = session.train_round_traced().map_err(|e| e.to_string())?;
        rounds.push(Json::Obj(vec![
            ("round".into(), Json::num(round as f64)),
            ("positives".into(), Json::indices(&positives)),
            ("negatives".into(), Json::indices(&negatives)),
            ("starts".into(), Json::num(result.starts as f64)),
            (
                "converged_starts".into(),
                Json::num(result.converged_starts as f64),
            ),
            ("evaluations".into(), counts(result.start_evaluations)),
            ("start_values".into(), nums(result.start_values)),
            ("best_start".into(), Json::num(result.best_start as f64)),
            ("nldd".into(), Json::Num(result.nldd)),
            ("point".into(), nums(result.concept.point().to_vec())),
            ("weights".into(), nums(result.concept.weights().to_vec())),
        ]));
        if round < case.rounds {
            session
                .add_false_positives(config.false_positives_per_round)
                .map_err(|e| e.to_string())?;
        }
    }
    let final_ranking = session
        .rank(&RankRequest::test())
        .map_err(|e| e.to_string())?;
    let mut fields = vec![
        ("case".into(), Json::str(case.name)),
        ("seed".into(), Json::num(case.seed as f64)),
        ("images".into(), Json::num(case.images as f64)),
        ("dim".into(), Json::num(case.dim as f64)),
    ];
    if case.mirror_closed {
        fields.push(("mirror_closed".into(), Json::Bool(true)));
    }
    fields.extend([
        ("policy".into(), Json::str(case.policy)),
        ("rounds".into(), Json::Arr(rounds)),
        (
            "final_ranking".into(),
            Json::Arr(
                final_ranking
                    .iter()
                    .map(|&(index, distance)| {
                        Json::Arr(vec![Json::num(index as f64), Json::Num(distance)])
                    })
                    .collect(),
            ),
        ),
    ]);
    Ok(Json::Obj(fields))
}

/// File stem of the warm-start golden trace under `tests/golden/`.
pub const WARM_TRACE_NAME: &str = "warm_seed7";

/// The golden file name of the warm-start trace.
#[must_use]
pub fn warm_trace_file_name() -> String {
    format!("{WARM_TRACE_NAME}.json")
}

/// Records warm-start convergence against a cold control: two sessions
/// on the same seeded corpus receive an identical scripted feedback
/// protocol, one training cold every round, the other re-seeding each
/// round's multistart from the previous best solver vector. Per round
/// the trace pins both trajectories (starts, per-start evaluations,
/// objective) and the warm concept; the summary pins the total
/// evaluation counts and their ratio — the convergence saving the
/// warm-start path claims. Any change to warm seeding, start-bag
/// reduction, or the solver shows up as a reviewed diff.
///
/// # Errors
/// A description of a session build or training failure.
pub fn record_warm_trace() -> Result<Json, String> {
    let (images, dim, seed, rounds) = (24usize, 8usize, 7u64, 3usize);
    // One scripted mark pair per inter-round gap: a fresh category-0
    // positive and a fresh off-category negative, all pool members.
    let marks: [(usize, usize); 2] = [(12, 6), (16, 7)];
    let db = synthetic_database(images, dim, seed);
    let config = RetrievalConfig {
        threads: 1, // single-threaded: evaluation order is part of the trace
        policy: parse_policy("identical")?,
        feedback_rounds: rounds,
        initial_positives: 2,
        initial_negatives: 2,
        max_iterations: 40,
        ..RetrievalConfig::default()
    };
    let pool: Vec<usize> = (0..db.len()).filter(|i| i % 3 != 2).collect();
    let test: Vec<usize> = (0..db.len()).filter(|i| i % 3 == 2).collect();
    let build = |warm: bool| {
        QuerySession::builder(&db)
            .config(&config)
            .target(0)
            .pool(pool.clone())
            .test(test.clone())
            .warm_start(warm)
            .build()
            .map_err(|e| e.to_string())
    };
    let mut cold = build(false)?;
    let mut warm = build(true)?;
    let mut round_objects = Vec::with_capacity(rounds);
    let (mut cold_total, mut warm_total) = (0usize, 0usize);
    for round in 1..=rounds {
        let cold_result = cold.train_round_traced().map_err(|e| e.to_string())?;
        let warm_result = warm.train_round_traced().map_err(|e| e.to_string())?;
        cold_total += cold_result.start_evaluations.iter().sum::<usize>();
        warm_total += warm_result.start_evaluations.iter().sum::<usize>();
        let leg = |result: &milr_mil::TrainResult| {
            Json::Obj(vec![
                ("starts".into(), Json::num(result.starts as f64)),
                (
                    "evaluations".into(),
                    counts(result.start_evaluations.clone()),
                ),
                ("nldd".into(), Json::Num(result.nldd)),
            ])
        };
        round_objects.push(Json::Obj(vec![
            ("round".into(), Json::num(round as f64)),
            ("positives".into(), Json::indices(cold.positives())),
            ("negatives".into(), Json::indices(cold.negatives())),
            ("cold".into(), leg(&cold_result)),
            ("warm".into(), leg(&warm_result)),
            (
                "warm_point".into(),
                nums(warm_result.concept.point().to_vec()),
            ),
            (
                "warm_weights".into(),
                nums(warm_result.concept.weights().to_vec()),
            ),
        ]));
        if round < rounds {
            // Identical marks on both sessions: concept divergence must
            // never contaminate the cold-vs-warm comparison.
            let (positive, negative) = marks[round - 1];
            for session in [&mut cold, &mut warm] {
                session
                    .add_positives(&[positive])
                    .map_err(|e| e.to_string())?;
                session
                    .add_negatives(&[negative])
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(Json::Obj(vec![
        ("case".into(), Json::str(WARM_TRACE_NAME)),
        ("seed".into(), Json::num(seed as f64)),
        ("images".into(), Json::num(images as f64)),
        ("dim".into(), Json::num(dim as f64)),
        ("policy".into(), Json::str("identical")),
        ("rounds".into(), Json::Arr(round_objects)),
        (
            "summary".into(),
            Json::Obj(vec![
                ("cold_evaluations".into(), Json::num(cold_total as f64)),
                ("warm_evaluations".into(), Json::num(warm_total as f64)),
                (
                    "speedup".into(),
                    Json::Num(cold_total as f64 / warm_total as f64),
                ),
            ]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_byte_stable() {
        let case = &standard_cases()[0];
        let a = record_trace(case).unwrap();
        let b = record_trace(case).unwrap();
        assert_eq!(a.dump(), b.dump(), "same case must trace identically");
    }

    #[test]
    fn warm_trace_is_byte_stable_and_shows_a_saving() {
        let a = record_warm_trace().unwrap();
        let b = record_warm_trace().unwrap();
        assert_eq!(a.dump(), b.dump(), "warm trace must record identically");
        // The trace's own claim must hold: warm rounds spend strictly
        // fewer objective evaluations than the cold control.
        let Json::Obj(fields) = &a else {
            panic!("trace is an object")
        };
        let summary = fields
            .iter()
            .find(|(k, _)| k == "summary")
            .map(|(_, v)| v)
            .expect("trace has summary");
        let Json::Obj(summary) = summary else {
            panic!("summary is an object")
        };
        let num = |key: &str| {
            summary
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("summary has numeric {key}"))
        };
        assert!(
            num("warm_evaluations") < num("cold_evaluations"),
            "warm must spend fewer evaluations: warm {} vs cold {}",
            num("warm_evaluations"),
            num("cold_evaluations")
        );
        assert!(
            num("speedup") > 1.0,
            "speedup {} must exceed 1",
            num("speedup")
        );
    }

    #[test]
    fn case_names_are_unique_file_stems() {
        let cases = standard_cases();
        let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len());
        for case in &cases {
            assert!(case.file_name().ends_with(".json"));
        }
    }
}
