//! Golden-trace regression suite: the committed `tests/golden/*.json`
//! files pin the full DD training trajectory (example sets, per-start
//! evaluation counts, objective values, argmin, concept, final ranking)
//! for a seeded synthetic corpus. Any solver or kernel change that
//! moves a single float shows up here as a path-qualified diff; if the
//! change is intended, regenerate with `milr golden --bless`.

use std::path::{Path, PathBuf};
use std::process::Command;

use milr::serve::Json;
use milr::testkit::{
    artifact, record_trace, record_warm_trace, standard_cases, warm_trace_file_name,
};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn committed_traces_match_live_training() {
    for case in standard_cases() {
        let path = golden_dir().join(case.file_name());
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden trace {} ({e}); regenerate with `milr golden --bless`",
                path.display()
            )
        });
        let golden = Json::parse(text.trim()).expect("committed trace parses");
        let actual = record_trace(&case).expect("trace records");
        let diffs = artifact::diff("trace", &golden, &actual);
        assert!(
            diffs.is_empty(),
            "golden trace {} diverged — a kernel/solver change moved the \
             trajectory. Review, then `milr golden --bless` if intended:\n  {}",
            case.name,
            diffs.join("\n  ")
        );
    }
}

#[test]
fn committed_warm_trace_matches_live_convergence() {
    let path = golden_dir().join(warm_trace_file_name());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing warm golden trace {} ({e}); regenerate with `milr golden --bless`",
            path.display()
        )
    });
    let golden = Json::parse(text.trim()).expect("committed warm trace parses");
    let actual = record_warm_trace().expect("warm trace records");
    let diffs = artifact::diff("trace", &golden, &actual);
    assert!(
        diffs.is_empty(),
        "warm golden trace diverged — warm seeding, start-bag reduction, or \
         the solver changed. Review, then `milr golden --bless` if intended:\n  {}",
        diffs.join("\n  ")
    );
}

#[test]
fn perturbed_kernel_output_fails_with_a_readable_diff() {
    // Simulate the review experience of a DD kernel change: nudge one
    // float of the recorded trace and confirm the comparator names the
    // exact path rather than dumping opaque blobs.
    let case = &standard_cases()[0];
    let path = golden_dir().join(case.file_name());
    let text = std::fs::read_to_string(&path).expect("golden trace exists");
    let golden = Json::parse(text.trim()).expect("parses");
    let mut perturbed = record_trace(case).expect("trace records");
    if let Json::Obj(ref mut fields) = perturbed {
        let rounds = fields
            .iter_mut()
            .find(|(k, _)| k == "rounds")
            .map(|(_, v)| v)
            .expect("trace has rounds");
        if let Json::Arr(ref mut rounds) = rounds {
            if let Json::Obj(ref mut round) = rounds[0] {
                let nldd = round
                    .iter_mut()
                    .find(|(k, _)| k == "nldd")
                    .map(|(_, v)| v)
                    .expect("round has nldd");
                if let Json::Num(ref mut v) = nldd {
                    *v *= 1.0 + 1e-12; // the smallest plausible kernel drift
                }
            }
        }
    }
    let diffs = artifact::diff("trace", &golden, &perturbed);
    assert_eq!(diffs.len(), 1, "exactly one leaf moved: {diffs:?}");
    assert!(
        diffs[0].starts_with("trace.rounds[0].nldd: committed "),
        "diff names the path and both values: {}",
        diffs[0]
    );
}

#[test]
fn golden_cli_check_passes_and_bless_round_trips() {
    let bin = env!("CARGO_BIN_EXE_milr");
    // The committed corpus must satisfy `milr golden` as-is.
    let check = Command::new(bin)
        .args(["golden", "--dir"])
        .arg(golden_dir())
        .output()
        .expect("spawn milr golden");
    assert!(
        check.status.success(),
        "committed corpus failed `milr golden`:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&check.stdout),
        String::from_utf8_lossy(&check.stderr)
    );

    // --bless into a scratch dir reproduces the committed bytes.
    let scratch = std::env::temp_dir().join(format!("milr_golden_bless_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let bless = Command::new(bin)
        .args(["golden", "--bless", "--dir"])
        .arg(&scratch)
        .output()
        .expect("spawn milr golden --bless");
    assert!(
        bless.status.success(),
        "bless failed: {}",
        String::from_utf8_lossy(&bless.stderr)
    );
    for case in standard_cases() {
        let committed = std::fs::read(golden_dir().join(case.file_name())).unwrap();
        let blessed = std::fs::read(scratch.join(case.file_name())).unwrap();
        assert_eq!(
            committed, blessed,
            "--bless must reproduce the committed bytes for {}",
            case.name
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn golden_cli_reports_divergence_with_paths_and_nonzero_exit() {
    let bin = env!("CARGO_BIN_EXE_milr");
    let scratch = std::env::temp_dir().join(format!("milr_golden_diverge_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    for case in standard_cases() {
        let committed = golden_dir().join(case.file_name());
        std::fs::copy(&committed, scratch.join(case.file_name())).unwrap();
    }
    // Corrupt one value of one trace the way a kernel change would.
    let victim = scratch.join(standard_cases()[0].file_name());
    let text = std::fs::read_to_string(&victim).unwrap();
    let corrupted = text.replacen("\"nldd\":", "\"nldd\":1e9,\"was_nldd\":", 1);
    assert_ne!(text, corrupted, "trace must contain an nldd field");
    std::fs::write(&victim, corrupted).unwrap();

    let check = Command::new(bin)
        .args(["golden", "--dir"])
        .arg(&scratch)
        .output()
        .expect("spawn milr golden");
    assert_eq!(
        check.status.code(),
        Some(2),
        "divergence must exit 2: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(
        stderr.contains("trace.rounds[0].nldd"),
        "diff must name the path: {stderr}"
    );
    assert!(
        stderr.contains("--bless"),
        "failure must mention the regeneration path: {stderr}"
    );
    std::fs::remove_dir_all(&scratch).ok();
}
