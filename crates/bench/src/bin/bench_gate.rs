//! CI scenario gate: holds the aggregator × backend accuracy grid from
//! `BENCH_scenarios.json` (written by `experiments -- scenarios`, which
//! pins its own corpus and seed) against the checked-in
//! `ci/bench_scenarios_baseline.json` and exits non-zero on a
//! regression. Accuracy on a pinned corpus is machine-independent, so
//! the floors are tight:
//!
//! * `default_bit_identical` must be `true` — a request that never
//!   names an aggregator ranks bit-identically to explicit min-distance;
//! * every registered aggregator × backend cell must be present with
//!   precision in `[0, 1]`;
//! * the min-distance / gray-block cell — the paper's pipeline — must
//!   match the baseline **exactly**: pure add/mul/min arithmetic on a
//!   pinned corpus reproduces to the bit on any IEEE machine;
//! * every other cell must stay within a frozen tolerance band
//!   ([`SCENARIO_TOLERANCE`]) *below* its baseline (improvements pass):
//!   softmin/noisy-or folds lean on `exp`/`ln`, where libms may differ
//!   in the last ulp and a near-tie can swap adjacent ranks;
//! * both min-distance cells must clear an absolute floor of twice the
//!   random-retrieval precision (`1/categories`) — the scenario must
//!   actually retrieve, not merely match a stale baseline.
//!
//! Performance is measured by the benchmark package
//! (`crates/bench/src/bin/benchmark`), not here.
//!
//! ```text
//! bench_gate [--scenarios-path BENCH_scenarios.json] [--baseline FILE]
//! bench_gate --write-baseline ci/bench_scenarios_baseline.json
//! ```

use std::process::ExitCode;

use milr_mil::BagAggregator;
use milr_serve::Json;

/// Frozen accuracy band for the non-min / non-gray-block scenario cells:
/// a cell may not fall more than this far below its baseline value.
const SCENARIO_TOLERANCE: f64 = 0.10;

fn main() -> ExitCode {
    let mut baseline_path = String::from("ci/bench_scenarios_baseline.json");
    let mut scenarios_path = String::from("BENCH_scenarios.json");
    let mut write_baseline = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--baseline" => baseline_path = value("--baseline"),
            "--write-baseline" => {
                write_baseline = true;
                baseline_path = value("--write-baseline");
            }
            "--scenarios-path" => scenarios_path = value("--scenarios-path"),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let fresh = load(&scenarios_path);
    if write_baseline {
        let baseline = extract_scenarios_baseline(&fresh);
        std::fs::write(&baseline_path, &baseline)
            .unwrap_or_else(|e| fail(&format!("cannot write {baseline_path}: {e}")));
        println!("wrote {baseline_path}:\n{baseline}");
        return ExitCode::SUCCESS;
    }
    let report = gate_scenarios(&load(&baseline_path), &fresh);
    println!("{}", report.text);
    if report.passed {
        println!("bench gate (scenarios): PASS");
        ExitCode::SUCCESS
    } else {
        println!("bench gate (scenarios): FAIL");
        ExitCode::FAILURE
    }
}

struct Report {
    passed: bool,
    text: String,
}

fn check(lines: &mut Vec<String>, passed: &mut bool, ok: bool, line: String) {
    lines.push(format!("{} {line}", if ok { "ok  " } else { "FAIL" }));
    *passed &= ok;
}

/// Holds the aggregator × backend accuracy grid from `experiments --
/// scenarios` against its checked-in baseline. The corpus is pinned
/// inside the experiment, so every check here is machine-independent.
fn gate_scenarios(baseline: &Json, fresh: &Json) -> Report {
    let mut lines: Vec<String> = Vec::new();
    let mut passed = true;

    let identical = fresh
        .get("default_bit_identical")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    check(
        &mut lines,
        &mut passed,
        identical,
        format!("default_bit_identical = {identical}"),
    );

    // Absolute floor: min-distance retrieval must beat random paging by
    // at least 2x, independent of what the baseline froze.
    let categories = number(fresh, &["categories"]).unwrap_or(0.0);
    check(
        &mut lines,
        &mut passed,
        categories >= 2.0,
        format!("categories {categories} >= 2"),
    );
    let random_floor = if categories >= 2.0 {
        2.0 / categories
    } else {
        1.0
    };

    for backend in ["gray-block", "sbn"] {
        for aggregator in BagAggregator::ALL {
            let label = aggregator.label();
            let path = ["cells", backend, label, "precision_at_k"];
            let fresh_p = number(fresh, &path);
            let base_p = number(baseline, &path);
            let fresh_ap = number(fresh, &["cells", backend, label, "average_precision"]);
            let base_ap = number(baseline, &["cells", backend, label, "average_precision"]);
            let (Some(fresh_p), Some(base_p), Some(fresh_ap), Some(base_ap)) =
                (fresh_p, base_p, fresh_ap, base_ap)
            else {
                check(
                    &mut lines,
                    &mut passed,
                    false,
                    format!("cell {backend}/{label} present in artifact and baseline"),
                );
                continue;
            };
            check(
                &mut lines,
                &mut passed,
                (0.0..=1.0).contains(&fresh_p),
                format!("cell {backend}/{label} precision {fresh_p:.4} in [0, 1]"),
            );
            if aggregator.is_min() && backend == "gray-block" {
                // The paper's pipeline: pure add/mul/min arithmetic on
                // the pinned corpus — any drift at all is a regression.
                let exact = (fresh_p - base_p).abs() < 1e-9 && (fresh_ap - base_ap).abs() < 1e-9;
                check(
                    &mut lines,
                    &mut passed,
                    exact,
                    format!(
                        "cell {backend}/{label} exact: precision {fresh_p:.6} == {base_p:.6}, \
                         AP {fresh_ap:.6} == {base_ap:.6}"
                    ),
                );
            } else {
                let floor_p = base_p - SCENARIO_TOLERANCE;
                let floor_ap = base_ap - SCENARIO_TOLERANCE;
                check(
                    &mut lines,
                    &mut passed,
                    fresh_p >= floor_p && fresh_ap >= floor_ap,
                    format!(
                        "cell {backend}/{label} precision {fresh_p:.4} >= {floor_p:.4}, \
                         AP {fresh_ap:.4} >= {floor_ap:.4} \
                         (baseline {base_p:.4}/{base_ap:.4}, band {SCENARIO_TOLERANCE})"
                    ),
                );
            }
            if aggregator.is_min() {
                check(
                    &mut lines,
                    &mut passed,
                    fresh_p >= random_floor,
                    format!(
                        "cell {backend}/{label} precision {fresh_p:.4} >= \
                         2x random ({random_floor:.4})"
                    ),
                );
            }
        }
    }

    Report {
        passed,
        text: lines.join("\n"),
    }
}

/// Distils the fresh scenario artifact into its checked-in baseline:
/// the accuracy grid plus the corpus identity the floors depend on.
fn extract_scenarios_baseline(fresh: &Json) -> String {
    let categories = number(fresh, &["categories"]).unwrap_or(0.0);
    let per_category = number(fresh, &["per_category"]).unwrap_or(0.0);
    let seed = number(fresh, &["seed"]).unwrap_or(0.0);
    let k = number(fresh, &["k"]).unwrap_or(0.0);
    let backend_block = |backend: &str| {
        BagAggregator::ALL
            .iter()
            .map(|aggregator| {
                let label = aggregator.label();
                let p = number(fresh, &["cells", backend, label, "precision_at_k"])
                    .unwrap_or_else(|| fail(&format!("artifact lacks cell {backend}/{label}")));
                let ap = number(fresh, &["cells", backend, label, "average_precision"])
                    .unwrap_or_else(|| fail(&format!("artifact lacks cell {backend}/{label}")));
                format!(
                    "      \"{label}\": {{ \"precision_at_k\": {p:.6}, \
                     \"average_precision\": {ap:.6} }}"
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"scenario\": \"subimage-feedback\",\n  \
         \"per_category\": {per_category}, \"seed\": {seed}, \"k\": {k}, \
         \"categories\": {categories},\n  \"cells\": {{\n    \
         \"gray-block\": {{\n{}\n    }},\n    \
         \"sbn\": {{\n{}\n    }}\n  }}\n}}\n",
        backend_block("gray-block"),
        backend_block("sbn"),
    )
}

/// Descends `path` through nested objects and returns the number there.
fn number(json: &Json, path: &[&str]) -> Option<f64> {
    let mut node = json;
    for key in path {
        node = node.get(key)?;
    }
    node.as_f64()
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

fn fail(msg: &str) -> ! {
    eprintln!("bench gate: {msg}");
    std::process::exit(2);
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: bench_gate [--scenarios-path FILE] [--baseline FILE]\n       \
         bench_gate --write-baseline FILE [--scenarios-path FILE]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy scenario artifact, with one cell's precision and the
    /// bit-identity flag overridable.
    fn scenario_artifact(identical: bool, overridden: Option<(&str, &str, f64)>) -> Json {
        let cell = |backend: &str, label: &str, default_p: f64| -> String {
            let p = match overridden {
                Some((b, l, p)) if b == backend && l == label => p,
                _ => default_p,
            };
            format!(
                "\"{label}\": {{ \"precision_at_k\": {p}, \
                 \"average_precision\": {p}, \"delta_ap_vs_min\": 0.0 }}"
            )
        };
        let block = |backend: &str| -> String {
            format!(
                "{{ {}, {}, {}, {} }}",
                cell(backend, "min-distance", 0.45),
                cell(backend, "logsumexp", 0.46),
                cell(backend, "generalized-mean", 0.34),
                cell(backend, "noisy-or", 0.30),
            )
        };
        Json::parse(&format!(
            "{{ \"scenario\": \"subimage-feedback\", \"per_category\": 12, \
               \"seed\": 41, \"k\": 16, \"categories\": 5, \
               \"default_bit_identical\": {identical}, \
               \"cells\": {{ \"gray-block\": {}, \"sbn\": {} }} }}",
            block("gray-block"),
            block("sbn"),
        ))
        .unwrap()
    }

    #[test]
    fn scenarios_pass_at_parity() {
        let artifact = scenario_artifact(true, None);
        let baseline = Json::parse(&extract_scenarios_baseline(&artifact)).unwrap();
        let report = gate_scenarios(&baseline, &artifact);
        assert!(report.passed, "{}", report.text);
    }

    #[test]
    fn scenarios_fail_on_broken_bit_identity() {
        let artifact = scenario_artifact(true, None);
        let baseline = Json::parse(&extract_scenarios_baseline(&artifact)).unwrap();
        let report = gate_scenarios(&baseline, &scenario_artifact(false, None));
        assert!(!report.passed);
        assert!(
            report.text.contains("FAIL default_bit_identical"),
            "{}",
            report.text
        );
    }

    #[test]
    fn scenarios_hold_the_paper_cell_exactly() {
        // A 0.001 drift in min-distance/gray-block fails even though it
        // is far inside the tolerance band other cells enjoy.
        let artifact = scenario_artifact(true, None);
        let baseline = Json::parse(&extract_scenarios_baseline(&artifact)).unwrap();
        let drifted = scenario_artifact(true, Some(("gray-block", "min-distance", 0.451)));
        let report = gate_scenarios(&baseline, &drifted);
        assert!(!report.passed);
        assert!(
            report
                .text
                .contains("FAIL cell gray-block/min-distance exact"),
            "{}",
            report.text
        );
    }

    #[test]
    fn scenarios_tolerate_small_drift_in_soft_cells() {
        // logsumexp may drop up to the frozen band below baseline…
        let artifact = scenario_artifact(true, None);
        let baseline = Json::parse(&extract_scenarios_baseline(&artifact)).unwrap();
        let drifted = scenario_artifact(true, Some(("sbn", "logsumexp", 0.38)));
        let report = gate_scenarios(&baseline, &drifted);
        assert!(report.passed, "{}", report.text);
        // …but not beyond it.
        let collapsed = scenario_artifact(true, Some(("sbn", "logsumexp", 0.30)));
        let report = gate_scenarios(&baseline, &collapsed);
        assert!(!report.passed);
        assert!(
            report.text.contains("FAIL cell sbn/logsumexp"),
            "{}",
            report.text
        );
    }

    #[test]
    fn scenarios_enforce_the_random_retrieval_floor() {
        // Freeze a broken baseline whose min-distance cell is at chance
        // level: matching it exactly must still fail the absolute floor.
        let broken = scenario_artifact(true, Some(("sbn", "min-distance", 0.2)));
        let baseline = Json::parse(&extract_scenarios_baseline(&broken)).unwrap();
        let report = gate_scenarios(&baseline, &broken);
        assert!(!report.passed);
        assert!(
            report
                .text
                .contains("FAIL cell sbn/min-distance precision 0.2000 >= 2x random"),
            "{}",
            report.text
        );
    }

    #[test]
    fn scenarios_fail_on_missing_cells() {
        let artifact = scenario_artifact(true, None);
        let baseline = Json::parse(&extract_scenarios_baseline(&artifact)).unwrap();
        let truncated =
            Json::parse("{ \"default_bit_identical\": true, \"categories\": 5, \"cells\": {} }")
                .unwrap();
        let report = gate_scenarios(&baseline, &truncated);
        assert!(!report.passed);
        assert!(
            report
                .text
                .contains("FAIL cell gray-block/min-distance present"),
            "{}",
            report.text
        );
    }

    #[test]
    fn scenarios_baseline_round_trips() {
        let artifact = scenario_artifact(true, None);
        let baseline = Json::parse(&extract_scenarios_baseline(&artifact)).unwrap();
        assert_eq!(
            number(
                &baseline,
                &["cells", "gray-block", "min-distance", "precision_at_k"]
            ),
            Some(0.45)
        );
        assert_eq!(
            number(
                &baseline,
                &["cells", "sbn", "noisy-or", "average_precision"]
            ),
            Some(0.30)
        );
        assert_eq!(number(&baseline, &["categories"]), Some(5.0));
    }
}
