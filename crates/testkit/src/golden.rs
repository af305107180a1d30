//! Golden-trace recording and comparison.
//!
//! A *trace* pins down the entire DD training trajectory for a seeded
//! synthetic corpus: per round the example sets, the number of starts,
//! each start's objective evaluations and final value, the argmin, the
//! learned concept (point + weights), and finally the test-set ranking.
//! Serialized through `milr-serve`'s shortest-round-trip JSON dump, the
//! trace is byte-stable: any solver or kernel change that alters a
//! single bit of any float shows up as an explicit, reviewed diff in
//! `tests/golden/*.json` (regenerate with `milr golden --bless`).

use milr_core::{QuerySession, RankRequest, RetrievalConfig};
use milr_serve::{parse_policy, Json};

use crate::corpus::synthetic_database;

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
        },
        GoldenCase {
            name: "constraint_seed7",
            seed: 7,
            images: 24,
            dim: 8,
            policy: "constraint:0.5",
            rounds: 2,
        },
        GoldenCase {
            name: "original_seed11",
            seed: 11,
            images: 20,
            dim: 6,
            policy: "original",
            rounds: 2,
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
    let db = synthetic_database(case.images, case.dim, case.seed);
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
    Ok(Json::Obj(vec![
        ("case".into(), Json::str(case.name)),
        ("seed".into(), Json::num(case.seed as f64)),
        ("images".into(), Json::num(case.images as f64)),
        ("dim".into(), Json::num(case.dim as f64)),
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
    ]))
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

/// Structural diff of two traces. Returns one readable, path-qualified
/// line per difference (`rounds[1].nldd: golden 3.2 != actual 3.4`);
/// empty means the traces agree byte-for-byte.
pub fn compare_traces(golden: &Json, actual: &Json) -> Vec<String> {
    let mut diffs = Vec::new();
    diff_value("trace", golden, actual, &mut diffs);
    diffs
}

fn diff_value(path: &str, golden: &Json, actual: &Json, out: &mut Vec<String>) {
    match (golden, actual) {
        (Json::Obj(g), Json::Obj(a)) => {
            for (key, golden_value) in g {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, actual_value)) => {
                        diff_value(&format!("{path}.{key}"), golden_value, actual_value, out);
                    }
                    None => out.push(format!("{path}.{key}: missing from actual trace")),
                }
            }
            for (key, _) in a {
                if !g.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: not in golden trace"));
                }
            }
        }
        (Json::Arr(g), Json::Arr(a)) => {
            if g.len() != a.len() {
                out.push(format!(
                    "{path}: golden has {} elements, actual has {}",
                    g.len(),
                    a.len()
                ));
            }
            for (i, (golden_value, actual_value)) in g.iter().zip(a).enumerate() {
                diff_value(&format!("{path}[{i}]"), golden_value, actual_value, out);
            }
        }
        _ => {
            // Leaves (and type mismatches) compare by their serialized
            // form — the byte-stability contract itself.
            let (g, a) = (golden.dump(), actual.dump());
            if g != a {
                out.push(format!("{path}: golden {g} != actual {a}"));
            }
        }
    }
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
        assert!(compare_traces(&a, &b).is_empty());
    }

    #[test]
    fn warm_trace_is_byte_stable_and_shows_a_saving() {
        let a = record_warm_trace().unwrap();
        let b = record_warm_trace().unwrap();
        assert_eq!(a.dump(), b.dump(), "warm trace must record identically");
        assert!(compare_traces(&a, &b).is_empty());
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

    #[test]
    fn perturbed_trace_diffs_with_a_readable_path() {
        let case = &standard_cases()[0];
        let golden = record_trace(case).unwrap();
        // Simulate a DD kernel change: perturb the first round's nldd.
        let mut actual = record_trace(case).unwrap();
        if let Json::Obj(ref mut fields) = actual {
            let rounds = fields
                .iter_mut()
                .find(|(k, _)| k == "rounds")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Arr(ref mut rounds) = rounds {
                if let Json::Obj(ref mut round) = rounds[0] {
                    let nldd = round
                        .iter_mut()
                        .find(|(k, _)| k == "nldd")
                        .map(|(_, v)| v)
                        .unwrap();
                    if let Json::Num(ref mut v) = nldd {
                        *v += 1e-9; // one ulp-scale nudge must be caught
                    }
                }
            }
        }
        let diffs = compare_traces(&golden, &actual);
        assert_eq!(diffs.len(), 1, "exactly one leaf changed: {diffs:?}");
        assert!(
            diffs[0].starts_with("trace.rounds[0].nldd: "),
            "diff must name the path: {}",
            diffs[0]
        );
        assert!(diffs[0].contains("golden") && diffs[0].contains("actual"));
    }

    #[test]
    fn structural_diffs_are_reported() {
        let golden = Json::Obj(vec![
            ("a".into(), Json::num(1.0)),
            ("b".into(), Json::Arr(vec![Json::num(1.0), Json::num(2.0)])),
        ]);
        let actual = Json::Obj(vec![
            ("a".into(), Json::str("one")),
            ("b".into(), Json::Arr(vec![Json::num(1.0)])),
            ("c".into(), Json::Bool(true)),
        ]);
        let diffs = compare_traces(&golden, &actual);
        assert!(diffs.iter().any(|d| d.starts_with("trace.a:")));
        assert!(diffs.iter().any(|d| d.contains("trace.b: golden has 2")));
        assert!(diffs.iter().any(|d| d.contains("trace.c: not in golden")));
    }
}
