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

/// Writes a small valid snapshot for the error-path tests below.
fn valid_snapshot(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("db.milr");
    let db = milr::testkit::synthetic_database(12, 6, 5);
    milr::prelude::Store::default().save(&db, &path).unwrap();
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
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();

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

#[test]
fn shard_migrates_a_monolithic_snapshot() {
    let dir = std::env::temp_dir().join("milr_cli_shard");
    std::fs::remove_dir_all(&dir).ok();
    let path = valid_snapshot(&dir);
    let out_dir = dir.join("db.v3");

    let out = milr()
        .args([
            "shard",
            "--in",
            path.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--shard-bags",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("12 images over 4 shards"),
        "12 bags / 3 per shard = 4 shards: {stdout}"
    );

    // The sharded copy round-trips to the same database, bit for bit.
    let original = milr::prelude::Store::default()
        .open::<milr::prelude::RetrievalDatabase>(&path)
        .unwrap();
    let sharded = milr::store::ShardedDatabase::open(&out_dir).unwrap();
    let rebuilt = sharded.to_database().unwrap();
    assert_eq!(rebuilt.labels(), original.labels());
    for i in 0..original.len() {
        assert_eq!(rebuilt.bag(i).unwrap(), original.bag(i).unwrap());
    }

    // `milr snapshot` understands the directory form too.
    let out = milr()
        .args(["snapshot", "--in", out_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("12 images") && stdout.contains("4 shards"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_requires_out_for_monolithic_and_rejects_it_for_sharded() {
    let dir = std::env::temp_dir().join("milr_cli_compact_args");
    std::fs::remove_dir_all(&dir).ok();
    let path = valid_snapshot(&dir);

    // Monolithic input without --out: refused with a clear message.
    let out = milr()
        .args(["compact", "--in", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out is required"));

    // Migrate, then compact the sharded form in place; --out now refused.
    let out_dir = dir.join("db.v3");
    let out = milr()
        .args([
            "compact",
            "--in",
            path.to_str().unwrap(),
            "--out",
            out_dir.to_str().unwrap(),
            "--shard-bags",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = milr()
        .args([
            "compact",
            "--in",
            out_dir.to_str().unwrap(),
            "--out",
            dir.join("elsewhere").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("already sharded"));

    let out = milr()
        .args(["compact", "--in", out_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 tombstones dropped"));
    std::fs::remove_dir_all(&dir).ok();
}
