//! Integration tests of the `milr` command-line tool, driven as a real
//! subprocess via `CARGO_BIN_EXE_milr`.

use std::process::Command;

fn milr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_milr"))
}

#[test]
fn no_arguments_prints_usage_successfully() {
    let out = milr().output().expect("spawn milr");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage"),
        "usage text expected, got: {stderr}"
    );
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = milr().arg("frobnicate").output().expect("spawn milr");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage"));
}

#[test]
fn generate_writes_images_and_index() {
    let dir = std::env::temp_dir().join("milr_cli_test_generate");
    std::fs::remove_dir_all(&dir).ok();
    let out = milr()
        .args([
            "generate",
            "--kind",
            "objects",
            "--out",
            dir.to_str().unwrap(),
            "--per-category",
            "1",
            "--seed",
            "9",
        ])
        .output()
        .expect("spawn milr");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let index = std::fs::read_to_string(dir.join("index.csv")).expect("index.csv");
    // Header + 19 categories × 1 image.
    assert_eq!(index.lines().count(), 20);
    assert!(index.starts_with("file,label,category"));
    assert!(index.contains("car"));
    assert!(index.contains("bottle"));

    // Every listed file exists and parses as a PPM.
    for line in index.lines().skip(1) {
        let file = line.split(',').next().unwrap();
        let img = milr::imgproc::pnm::load_ppm(dir.join(file)).expect("valid PPM");
        assert_eq!(img.width(), 96);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_requires_kind_and_out() {
    let out = milr()
        .args(["generate", "--kind", "scenes"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out is required"));

    let out = milr()
        .args(["generate", "--out", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--kind is required"));
}

#[test]
fn generate_rejects_unknown_kind() {
    let out = milr()
        .args([
            "generate",
            "--kind",
            "paintings",
            "--out",
            "/tmp/milr_cli_bad_kind",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown database kind"));
}

#[test]
fn inspect_prints_the_sampled_matrix() {
    // Create an image to inspect.
    let dir = std::env::temp_dir().join("milr_cli_test_inspect");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("gradient.pgm");
    let img = milr::imgproc::GrayImage::from_fn(64, 48, |x, _| x as f32 * 4.0).unwrap();
    milr::imgproc::pnm::save_pgm(&img, &path).unwrap();

    let out = milr()
        .args([
            "inspect",
            "--image",
            path.to_str().unwrap(),
            "--resolution",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("64x48"));
    assert!(stdout.contains("4x4 matrix"));
    // 4 matrix rows with 4 numbers each, monotone across the gradient.
    let matrix_rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("  ") && l.contains('.'))
        .collect();
    assert!(matrix_rows.len() >= 4, "stdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_rejects_unsupported_formats() {
    let out = milr()
        .args(["inspect", "--image", "photo.jpeg"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unsupported image format"));
}

/// Writes a small valid snapshot directory for the error-path tests
/// below.
fn valid_snapshot(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("db");
    std::fs::remove_dir_all(&path).ok();
    let db = milr::testkit::synthetic_database(12, 6, 5);
    let mut store = milr::store::ShardedDatabase::from_database(&db, &path, 512).unwrap();
    store.flush().unwrap();
    path
}

#[test]
fn preprocess_requires_kind_and_out() {
    let out = milr()
        .args(["preprocess", "--kind", "scenes"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out is required"));

    let out = milr()
        .args(["preprocess", "--out", "/tmp/milr_cli_x.milr"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--kind is required"));
}

#[test]
fn snapshot_of_a_missing_file_fails_cleanly() {
    let out = milr()
        .args(["snapshot", "--in", "/tmp/milr_cli_definitely_missing.milr"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("storage failure") && stderr.contains("definitely_missing"),
        "error must name the file: {stderr}"
    );
}

#[test]
fn snapshot_of_a_corrupt_file_reports_the_checksum() {
    let dir = std::env::temp_dir().join("milr_cli_corrupt_snapshot");
    let path = valid_snapshot(&dir);
    // Flip one payload bit: only the trailing checksum can catch it.
    let shard = path.join(milr::store::shard_file_name(0));
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&shard, bytes).unwrap();

    let out = milr()
        .args(["snapshot", "--in", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("corrupt") || stderr.contains("checksum") || stderr.contains("implausible"),
        "corruption must be diagnosed, not mis-loaded: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_with_a_missing_snapshot_fails_cleanly() {
    let out = milr()
        .args([
            "serve",
            "--snapshot",
            "/tmp/milr_cli_no_such_snapshot.milr",
            "--addr",
            "127.0.0.1:0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("storage failure"),
        "missing snapshot must fail before binding: {stderr}"
    );
}

#[test]
fn serve_on_a_busy_port_fails_cleanly() {
    let dir = std::env::temp_dir().join("milr_cli_busy_port");
    let path = valid_snapshot(&dir);
    // Occupy a port, then ask the daemon to bind it.
    let blocker = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = blocker.local_addr().unwrap();
    let out = milr()
        .args([
            "serve",
            "--snapshot",
            path.to_str().unwrap(),
            "--addr",
            &addr.to_string(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "bind conflict must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error:"),
        "bind failure must be reported: {stderr}"
    );
    drop(blocker);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_option_values() {
    let dir = std::env::temp_dir().join("milr_cli_bad_serve_opts");
    let path = valid_snapshot(&dir);
    let snapshot = path.to_str().unwrap();
    // Every role shares the daemon's server-loop flag parser, and the
    // coordinator its rank-front flags too, so each bad value fails the
    // same way: exit 2, with an `error:` line that names the flag.
    let single = ["serve", "--snapshot", snapshot];
    let coordinator = [
        "serve",
        "--role",
        "coordinator",
        "--snapshot",
        snapshot,
        "--worker-addrs",
        "127.0.0.1:9",
    ];
    let worker = [
        "serve",
        "--role",
        "worker",
        "--snapshot",
        snapshot,
        "--worker-index",
        "0",
        "--worker-count",
        "1",
    ];
    for (role, flag, value) in [
        (&single[..], "--workers", "many"),
        (&single[..], "--read-timeout-ms", "-1"),
        (&single[..], "--session-capacity", "1.5"),
        (&single[..], "--policy", "bogus"),
        (&worker[..], "--workers", "0"),
        (&coordinator[..], "--cache-capacity", "lots"),
        (&coordinator[..], "--page", "-1"),
        (&coordinator[..], "--policy", "alpha:x"),
    ] {
        let out = milr().args(role).args([flag, value]).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value} must be rejected ({role:?})"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr
                .lines()
                .next()
                .is_some_and(|line| line.contains(flag)),
            "the error must name {flag}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fast_query_runs_end_to_end() {
    let out = milr()
        .args([
            "query",
            "--kind",
            "scenes",
            "--category",
            "waterfall",
            "--per-category",
            "6",
            "--seed",
            "2",
            "--rounds",
            "1",
            "--policy",
            "identical",
            "--fast",
        ])
        .output()
        .expect("spawn milr");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("rank,image,category,hit,distance_sq"));
    assert!(
        stdout.lines().count() > 5,
        "expected a ranking, got: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("average precision"));
}

#[test]
fn fast_query_dumps_concept_maps() {
    let dir = std::env::temp_dir().join("milr_cli_concept_dump");
    std::fs::remove_dir_all(&dir).ok();
    let out = milr()
        .args([
            "query",
            "--kind",
            "scenes",
            "--category",
            "sunset",
            "--per-category",
            "5",
            "--seed",
            "3",
            "--rounds",
            "1",
            "--policy",
            "identical",
            "--fast",
            "--dump-concept",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn milr");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Both maps exist and parse; --fast uses 5x5 features.
    let point = milr::imgproc::pnm::load_pgm(dir.join("concept_point.pgm")).unwrap();
    let weights = milr::imgproc::pnm::load_pgm(dir.join("concept_weights.pgm")).unwrap();
    assert_eq!((point.width(), point.height()), (5, 5));
    assert_eq!((weights.width(), weights.height()), (5, 5));
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `milr preprocess --kind scenes --fast` over a small corpus
/// into `out` with `extra` flags appended; returns stdout.
fn preprocess(out: &std::path::Path, extra: &[&str]) -> String {
    let output = milr()
        .args(["preprocess", "--kind", "scenes", "--fast"])
        .args(["--per-category", "6", "--seed", "2", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn preprocess_writes_a_snapshot_directory() {
    let dir = std::env::temp_dir().join("milr_cli_preprocess");
    std::fs::remove_dir_all(&dir).ok();
    let out = dir.join("db");
    let stdout = preprocess(&out, &["--shard-bags", "8"]);
    assert!(
        stdout.contains("30 images") && stdout.contains("4 shards"),
        "{stdout}"
    );
    assert_eq!(
        std::fs::read_dir(&out).unwrap().count(),
        5,
        "a manifest and four shards"
    );

    let out_line = milr()
        .args(["snapshot", "--in", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out_line.status.success());
    let stdout = String::from_utf8_lossy(&out_line.stdout);
    assert!(
        stdout.contains("30 images") && stdout.contains("generation 1, 4 shards"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn preprocess_writes_identical_bytes_twice() {
    // The writer is a pure function of the corpus and the flags: two
    // runs leave the same file names holding the same bytes. `--sharded`
    // (the directory used to be opt-in) is an unread flag now, so a
    // third run with it writes the same bytes too.
    let dir = std::env::temp_dir().join("milr_cli_deterministic");
    std::fs::remove_dir_all(&dir).ok();
    let runs = [dir.join("a"), dir.join("b"), dir.join("sharded")];
    for (out, extra) in runs.iter().zip([None, None, Some("--sharded")]) {
        let output = milr()
            .args(["preprocess", "--kind", "scenes", "--fast"])
            .args(["--shard-bags", "6", "--out"])
            .arg(out)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let names = |path: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(path)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let files = names(&runs[0]);
    assert!(files.len() > 2, "a manifest and several shards: {files:?}");
    for run in &runs[1..] {
        assert_eq!(files, names(run), "{run:?}");
        for name in &files {
            let (first, again) = (runs[0].join(name), run.join(name));
            assert!(
                std::fs::read(first).unwrap() == std::fs::read(again).unwrap(),
                "{name:?} differs in {run:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_over_a_snapshot_prints_the_same_ranking() {
    let dir = std::env::temp_dir().join("milr_cli_query_snapshot");
    std::fs::remove_dir_all(&dir).ok();
    let snapshot = dir.join("db");
    preprocess(&snapshot, &[]);
    let query = |extra: &[&str]| {
        let out = milr()
            .args([
                "query",
                "--kind",
                "scenes",
                "--category",
                "waterfall",
                "--fast",
            ])
            .args(["--per-category", "6", "--seed", "2", "--rounds", "1"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let fresh = query(&[]);
    assert!(fresh.starts_with(b"rank,image,category,hit,distance_sq"));
    assert_eq!(
        String::from_utf8(query(&["--snapshot", snapshot.to_str().unwrap()])).unwrap(),
        String::from_utf8(fresh).unwrap(),
        "the snapshot must rank exactly like fresh preprocessing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_repacks_a_snapshot_in_place() {
    let dir = std::env::temp_dir().join("milr_cli_compact");
    std::fs::remove_dir_all(&dir).ok();
    let path = valid_snapshot(&dir);
    let out = milr()
        .args(["compact", "--in", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("12 live images over 1 shard, 0 tombstones dropped, generation 2"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshots_of_other_versions_fail_with_the_rebuild_hint() {
    let dir = std::env::temp_dir().join("milr_cli_old_snapshots");
    std::fs::remove_dir_all(&dir).ok();
    // A regular file with a monolithic (format v2) header…
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("db.milr");
    let mut bytes = b"MILR".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.push(1);
    bytes.extend_from_slice(&[0u8; 64]);
    std::fs::write(&file, bytes).unwrap();
    // …and directories whose manifest headers say v5 and v6 (the last
    // format with a coarse-index section).
    let mut cases = vec![(file, "version 2".to_string())];
    for version in [5u32, 6] {
        let snapshot = valid_snapshot(&dir.join(format!("v{version}")));
        let manifest = snapshot.join(milr::store::MANIFEST_FILE);
        let mut bytes = std::fs::read(&manifest).unwrap();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&manifest, bytes).unwrap();
        cases.push((snapshot, format!("version {version}")));
    }

    for (path, version) in &cases {
        let path = path.to_str().unwrap();
        for command in [
            &["snapshot", "--in", path][..],
            &["serve", "--snapshot", path, "--addr", "127.0.0.1:0"],
            &["compact", "--in", path],
        ] {
            let out = milr().args(command).output().unwrap();
            assert_eq!(out.status.code(), Some(2), "{command:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let first = stderr.lines().next().unwrap_or_default();
            assert!(
                first.contains(version.as_str()) && first.contains("milr preprocess"),
                "{command:?} must name the {version} found and the rebuild: {stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_numbers_are_rejected_not_defaulted() {
    let image = std::env::temp_dir().join("milr_cli_malformed.pgm");
    let gray = milr::imgproc::GrayImage::from_fn(16, 16, |x, y| (x * y) as f32).unwrap();
    milr::imgproc::pnm::save_pgm(&gray, &image).unwrap();
    let image = image.to_str().unwrap();
    let out = "/tmp/milr_cli_malformed_out";
    for (command, bad) in [
        (
            &["generate", "--kind", "scenes", "--out", out][..],
            ["--seed", "1O"],
        ),
        (
            &["generate", "--kind", "scenes", "--out", out],
            ["--per-category", "x"],
        ),
        (
            &["preprocess", "--kind", "scenes", "--out", out],
            ["--seed", "1O"],
        ),
        (
            &["preprocess", "--kind", "scenes", "--out", out],
            ["--per-category", "-2"],
        ),
        (
            &["preprocess", "--kind", "scenes", "--out", out],
            ["--shard-bags", "0"],
        ),
        (
            &["query", "--kind", "scenes", "--category", "sunset"],
            ["--seed", "1O"],
        ),
        (
            &["query", "--kind", "scenes", "--category", "sunset"],
            ["--per-category", "x"],
        ),
        (
            &["query", "--kind", "scenes", "--category", "sunset"],
            ["--rounds", "three"],
        ),
        (
            &["query-files", "--kind", "scenes", "--positive", image],
            ["--seed", "1O"],
        ),
        (
            &["query-files", "--kind", "scenes", "--positive", image],
            ["--per-category", "x"],
        ),
        (
            &["montage", "--kind", "scenes", "--out", out],
            ["--per-category", "x"],
        ),
        (
            &["montage", "--kind", "scenes", "--out", out],
            ["--seed", "1O"],
        ),
        (&["inspect", "--image", image], ["--resolution", "4.5"]),
        (&["trace", "--addr", "127.0.0.1:9"], ["--n", "many"]),
    ] {
        let output = milr().args(command).args(bad).output().unwrap();
        assert_eq!(output.status.code(), Some(2), "{command:?} {bad:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let expected = format!("invalid {} {:?}", bad[0], bad[1]);
        assert!(
            stderr
                .lines()
                .next()
                .is_some_and(|line| line.contains(&expected)),
            "{command:?} {bad:?} must fail with {expected:?}: {stderr}"
        );
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "no command may run on a malformed number"
    );
}
