//! The storage layer's fault contract, enforced exhaustively: every
//! torn write, short read, and single-bit flip a [`StorageIo`] fault
//! can inject into a snapshot directory must surface as
//! [`CoreError::Storage`] — never a panic, never a silently wrong
//! database.

use std::path::{Path, PathBuf};

use milr_core::storage::{OsFs, StorageIo};
use milr_core::CoreError;
use milr_testkit::{synthetic_database, BitFlipFs, ShortReadFs, TornWriteFs};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("milr_faultfs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn assert_storage_error<T: std::fmt::Debug>(result: Result<T, CoreError>, context: &str) {
    match result {
        Err(CoreError::Storage { path, reason }) => {
            assert!(!path.is_empty(), "{context}: error must name the file");
            assert!(!reason.is_empty(), "{context}: error must say what broke");
        }
        Err(other) => panic!("{context}: expected CoreError::Storage, got {other}"),
        Ok(_) => panic!("{context}: corrupt data loaded without an error"),
    }
}

#[test]
fn clean_roundtrips_still_work_through_the_seam() {
    // The passthrough sanity check: the same paths the fault sweeps use
    // flush and load fine when no fault is injected — the sweeps below
    // fail because of the faults, not the harness.
    let dir = scratch("sharded_clean");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("store dir");
    let original = synthetic_database(8, 4, 21);
    let mut store =
        milr_store::ShardedDatabase::from_database(&original, &dir, 3).expect("build store");
    store.flush_with(&OsFs).expect("clean flush");
    let db = milr_store::ShardedDatabase::open_with(&OsFs, &dir)
        .expect("clean load")
        .to_database()
        .expect("live bags");
    assert_eq!(db.len(), original.len());
    assert_eq!(db.labels(), original.labels());
    for i in 0..db.len() {
        assert_eq!(db.bag(i).unwrap(), original.bag(i).unwrap());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault that can't exist is a silent hole in the suite: make sure
/// the seam is actually being exercised by checking that the injected
/// `StorageIo` is called (a passthrough typo would pass every sweep).
#[test]
fn fault_seam_actually_intercepts_io() {
    struct Refusing;
    impl StorageIo for Refusing {
        fn reader(&self, _: &Path) -> std::io::Result<Box<dyn std::io::Read>> {
            Err(std::io::Error::other("injected reader refusal"))
        }
        fn writer(&self, _: &Path) -> std::io::Result<Box<dyn std::io::Write>> {
            Err(std::io::Error::other("injected writer refusal"))
        }
    }
    let (dir, _) = saved_sharded_store("refused");
    let db = synthetic_database(4, 3, 1);
    let mut store = milr_store::ShardedDatabase::from_database(&db, &dir, 3).expect("build store");
    assert_storage_error(store.flush_with(&Refusing), "refused write");
    assert_storage_error(
        milr_store::ShardedDatabase::open_with(&Refusing, &dir),
        "refused read",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a snapshot directory (manifest + shard files, each carrying a
/// persisted quantized tier and coarse index) and returns it plus the
/// length of its largest file, so the sweeps below can cover every byte
/// of every file — header, bag payload, quantized-tier and index
/// sections, and trailing checksum alike.
fn saved_sharded_store(tag: &str) -> (PathBuf, usize) {
    let dir = scratch(&format!("sharded_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    let db = synthetic_database(10, 4, 33);
    let mut store = milr_store::ShardedDatabase::from_database(&db, &dir, 3).expect("build store");
    store.flush().expect("clean flush");
    assert!(store.shard_count() >= 3, "fixture must span several shards");
    let max_len = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("entry").metadata().expect("metadata").len() as usize)
        .max()
        .expect("store files");
    (dir, max_len)
}

#[test]
fn flipped_sharded_store_bits_never_load() {
    let (dir, max_len) = saved_sharded_store("flip");
    // Every file is read through the same seam, so one sweep position
    // corrupts whichever of the manifest / shard files reaches that
    // offset — including the quantized-tier and index sections at the
    // tail of each shard file. Each must be caught by a trailing checksum.
    for offset in (0..max_len).step_by(11) {
        for mask in [0x01, 0x80] {
            assert_storage_error(
                milr_store::ShardedDatabase::open_with(&BitFlipFs { offset, mask }, &dir),
                &format!("sharded bit flip at byte {offset} mask {mask:#04x}"),
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_sharded_store_reads_never_load() {
    let (dir, max_len) = saved_sharded_store("short");
    for limit in (0..max_len).step_by(13).chain([max_len - 1]) {
        assert_storage_error(
            milr_store::ShardedDatabase::open_with(&ShortReadFs { limit }, &dir),
            &format!("sharded short read at {limit} bytes"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The byte range of shard 0's coarse-index section: it sits
/// between the quantized tier and the trailing 8-byte checksum, and
/// its length follows from the index geometry the clean open reports.
fn index_section_range(dir: &Path) -> std::ops::Range<usize> {
    let clean = milr_store::ShardedDatabase::open(dir).expect("clean open");
    let index = clean.shard_index(0).expect("sealed shards carry an index");
    let index_len = 16 // flag + cell count
        + index.centroids().len() * 4
        + index.radii().len() * 8
        + index.assignments().len() * 4;
    let shard_len = std::fs::metadata(dir.join(milr_store::shard_file_name(0)))
        .expect("shard file")
        .len() as usize;
    shard_len - 8 - index_len..shard_len - 8
}

#[test]
fn flipped_index_section_bits_never_load() {
    // Target the coarse-index section specifically, every byte, both
    // masks: centroid block, radii, and assignments are all covered by
    // the shard's trailing checksum, so each flip must surface as
    // `CoreError::Storage` — never a panic, and never a silent load
    // whose skip decisions could differ from the persisted geometry.
    let (dir, _) = saved_sharded_store("flip_index");
    for offset in index_section_range(&dir) {
        for mask in [0x01, 0x80] {
            assert_storage_error(
                milr_store::ShardedDatabase::open_with(&BitFlipFs { offset, mask }, &dir),
                &format!("index-section bit flip at byte {offset} mask {mask:#04x}"),
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_index_section_reads_never_load() {
    // Truncation anywhere inside the index section must be caught too
    // (the reader would otherwise run off the end mid-centroid).
    let (dir, _) = saved_sharded_store("short_index");
    for limit in index_section_range(&dir) {
        assert_storage_error(
            milr_store::ShardedDatabase::open_with(&ShortReadFs { limit }, &dir),
            &format!("index-section short read at {limit} bytes"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_sharded_flush_never_loads() {
    // Tear the flush itself: every file the store writes is truncated
    // at `keep` bytes. Any torn point must leave a store that refuses
    // to open — the manifest digests cross-check the shard files.
    let (clean_dir, max_len) = saved_sharded_store("torn_ref");
    std::fs::remove_dir_all(&clean_dir).ok();
    let db = synthetic_database(10, 4, 33);
    for keep in (0..max_len).step_by(17).chain([0, max_len - 1]) {
        let dir = scratch(&format!("sharded_torn_{keep}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut store =
            milr_store::ShardedDatabase::from_database(&db, &dir, 3).expect("build store");
        match store.flush_with(&TornWriteFs { keep }) {
            // A flush that already noticed the tear is an immediate pass.
            Err(_) => {}
            Ok(()) => assert_storage_error(
                milr_store::ShardedDatabase::open(&dir),
                &format!("torn sharded flush at byte {keep}"),
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
