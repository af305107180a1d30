//! Binary persistence for preprocessed databases and trained concepts.
//!
//! Preprocessing a collection (§3.5) is the expensive, embarrassingly
//! cacheable step — the paper preprocesses its 500-image database once
//! and answers every query from the bags. This module gives the cache a
//! durable form: a small versioned little-endian binary format
//! (`MILR` magic, format version, then labels and per-bag instance
//! matrices), plus the same for a trained [`Concept`].
//!
//! The format is intentionally simple and self-contained — no serde — so
//! corrupted or truncated files fail loudly with a useful message.
//!
//! Format version 2 appends a trailing FNV-1a checksum over every byte
//! before it, so a single flipped bit anywhere in the float payload —
//! which version 1 could not detect — surfaces as [`CoreError::Storage`]
//! instead of a silently wrong database. All file access goes through the
//! [`StorageIo`] seam (default: [`OsFs`], a plain `std::fs` passthrough),
//! which is how the test kit injects torn writes, short reads, and bit
//! flips without touching a real disk fault.
//!
//! The one front door is the [`Store`] handle: `Store::default()` talks
//! to the real filesystem, `Store::new(&fs)` to any [`StorageIo`], and
//! `save`/`open` dispatch on the value's [`Persist`] implementation —
//! so a fault-injecting test sweep drives the exact production code
//! path. The sharded snapshot format v3 (the `milr-store` crate) builds
//! its manifest and shard files on the same [`Stream`] primitives
//! exported here.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use milr_mil::{Bag, Concept};

use crate::database::RetrievalDatabase;
use crate::error::CoreError;

/// Magic bytes opening every milr storage file.
pub const MAGIC: &[u8; 4] = b"MILR";
/// Format version of monolithic database/concept files.
pub const DB_VERSION: u32 = 2;
/// Payload kind of a monolithic database file.
pub const DB_KIND: u8 = 1;
/// Payload kind of a trained-concept file.
pub const CONCEPT_KIND: u8 = 2;

/// FNV-1a 64-bit offset basis / prime — the same tiny, dependency-free
/// hash the vendored proptest uses for seed derivation.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a state.
fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64-bit digest of `bytes` — the trailing checksum version-2
/// files carry. Public so tests (and the test kit) can craft valid files
/// by hand.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The file-I/O seam every storage function goes through.
///
/// Production code uses [`OsFs`]; the test kit substitutes fault-injecting
/// implementations (torn writes, short reads, bit flips) to prove that
/// every corruption mode surfaces as [`CoreError::Storage`] — never a
/// panic, never a silently wrong database.
pub trait StorageIo {
    /// Opens `path` for reading.
    ///
    /// # Errors
    /// Any I/O failure opening the file.
    fn reader(&self, path: &Path) -> std::io::Result<Box<dyn Read>>;

    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    /// Any I/O failure creating the file.
    fn writer(&self, path: &Path) -> std::io::Result<Box<dyn Write>>;
}

/// The default [`StorageIo`]: a plain passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsFs;

impl StorageIo for OsFs {
    fn reader(&self, path: &Path) -> std::io::Result<Box<dyn Read>> {
        Ok(Box::new(std::fs::File::open(path)?))
    }

    fn writer(&self, path: &Path) -> std::io::Result<Box<dyn Write>> {
        Ok(Box::new(std::fs::File::create(path)?))
    }
}

/// Builds the dedicated storage error, pinning the offending file.
pub fn storage_err(path: &Path, reason: impl Into<String>) -> CoreError {
    CoreError::Storage {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// A stream plus the path it came from, so every failure — I/O or format
/// violation alike — surfaces as [`CoreError::Storage`] naming the file.
/// Every byte passing through updates a running FNV-1a state backing the
/// trailing checksum. The `milr-store` crate builds the sharded format
/// v3 on the same primitives, which is why this type is public.
pub struct Stream<'p, S> {
    inner: S,
    path: &'p Path,
    hash: u64,
}

impl<'p, S> Stream<'p, S> {
    /// Wraps `inner`, attributing every failure to `path`.
    pub fn new(inner: S, path: &'p Path) -> Self {
        Self {
            inner,
            path,
            hash: FNV_OFFSET,
        }
    }

    /// A format violation at this file.
    pub fn fail(&self, reason: impl Into<String>) -> CoreError {
        storage_err(self.path, reason)
    }

    /// The running FNV-1a digest of every byte streamed so far. The
    /// sharded manifest records each shard file's payload digest through
    /// this hook, so a manifest/shard mismatch is detectable without a
    /// second read of the shard.
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

impl<R: Read> Stream<'_, R> {
    /// Reads exactly `buf.len()` bytes, folding them into the digest.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on any short read.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), CoreError> {
        self.inner
            .read_exact(buf)
            .map_err(|e| storage_err(self.path, e.to_string()))?;
        self.hash = fnv1a_extend(self.hash, buf);
        Ok(())
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on any short read.
    pub fn read_u32(&mut self) -> Result<u32, CoreError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on any short read.
    pub fn read_u64(&mut self) -> Result<u64, CoreError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads and validates the `magic / version / kind` header.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on wrong magic, version, or payload kind.
    pub fn read_header(
        &mut self,
        expected_kind: u8,
        expected_version: u32,
    ) -> Result<(), CoreError> {
        self.read_header_any(expected_kind, &[expected_version])
            .map(|_| ())
    }

    /// [`Self::read_header`] accepting any of several format versions,
    /// returning the one found — how readers of multi-version formats
    /// (the sharded snapshot store reads both v3 and v4) dispatch on the
    /// version actually on disk.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on wrong magic, a version outside
    /// `accepted_versions`, or the wrong payload kind.
    pub fn read_header_any(
        &mut self,
        expected_kind: u8,
        accepted_versions: &[u32],
    ) -> Result<u32, CoreError> {
        let mut magic = [0u8; 4];
        self.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(self.fail("not a milr storage file (bad magic)"));
        }
        let version = self.read_u32()?;
        if !accepted_versions.contains(&version) {
            let expected = accepted_versions
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(" or ");
            return Err(self.fail(format!(
                "unsupported format version {version} (expected {expected})"
            )));
        }
        let mut kind = [0u8; 1];
        self.read_exact(&mut kind)?;
        if kind[0] != expected_kind {
            return Err(self.fail(format!(
                "wrong payload kind {} (expected {expected_kind})",
                kind[0]
            )));
        }
        Ok(version)
    }

    /// Reads the trailing checksum (raw, not folded into the hash) and
    /// compares it against everything read so far. Call exactly once,
    /// after the whole payload.
    ///
    /// # Errors
    /// [`CoreError::Storage`] when the checksum is missing or mismatched.
    pub fn verify_checksum(&mut self) -> Result<(), CoreError> {
        let expected = self.hash;
        let mut b = [0u8; 8];
        self.inner
            .read_exact(&mut b)
            .map_err(|e| storage_err(self.path, format!("missing checksum: {e}")))?;
        let stored = u64::from_le_bytes(b);
        if stored != expected {
            return Err(self.fail(format!(
                "checksum mismatch (stored {stored:#018x}, computed {expected:#018x}) — file is corrupt"
            )));
        }
        Ok(())
    }
}

impl<W: Write> Stream<'_, W> {
    /// Writes `bytes`, folding them into the digest.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on any I/O failure.
    pub fn write_all(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        self.inner
            .write_all(bytes)
            .map_err(|e| storage_err(self.path, e.to_string()))?;
        self.hash = fnv1a_extend(self.hash, bytes);
        Ok(())
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on any I/O failure.
    pub fn write_u32(&mut self, v: u32) -> Result<(), CoreError> {
        self.write_all(&v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on any I/O failure.
    pub fn write_u64(&mut self, v: u64) -> Result<(), CoreError> {
        self.write_all(&v.to_le_bytes())
    }

    /// Writes the `magic / version / kind` header.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on any I/O failure.
    pub fn write_header(&mut self, kind: u8, version: u32) -> Result<(), CoreError> {
        self.write_all(MAGIC)?;
        self.write_u32(version)?;
        self.write_all(&[kind])
    }

    /// Writes the trailing checksum (raw — the checksum does not hash
    /// itself) and flushes. Call exactly once, after the whole payload.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on any I/O failure.
    pub fn finish(&mut self) -> Result<(), CoreError> {
        let digest = self.hash.to_le_bytes();
        self.inner
            .write_all(&digest)
            .map_err(|e| storage_err(self.path, e.to_string()))?;
        self.inner
            .flush()
            .map_err(|e| storage_err(self.path, e.to_string()))
    }
}

/// A value with a durable on-disk form a [`Store`] can save and open.
///
/// Implemented for [`RetrievalDatabase`] (kind 1) and [`Concept`]
/// (kind 2) in the monolithic format v2.
pub trait Persist: Sized {
    /// Writes `self` to `path` over the given I/O seam.
    ///
    /// # Errors
    /// [`CoreError::Storage`] naming the file on any I/O failure.
    fn save_to(&self, fs: &dyn StorageIo, path: &Path) -> Result<(), CoreError>;

    /// Reads a value of this type from `path` over the given I/O seam.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on wrong magic/version/kind, truncated
    /// data, checksum mismatches, or internally inconsistent payloads.
    fn open_from(fs: &dyn StorageIo, path: &Path) -> Result<Self, CoreError>;
}

impl Persist for RetrievalDatabase {
    fn save_to(&self, fs: &dyn StorageIo, path: &Path) -> Result<(), CoreError> {
        let file = fs
            .writer(path)
            .map_err(|e| storage_err(path, e.to_string()))?;
        let mut w = Stream::new(BufWriter::new(file), path);
        w.write_header(DB_KIND, DB_VERSION)?;
        w.write_u64(self.len() as u64)?;
        w.write_u64(self.feature_dim() as u64)?;
        for i in 0..self.len() {
            let bag = self.bag(i).expect("index in range");
            let label = self.label(i).expect("index in range");
            w.write_u64(label as u64)?;
            w.write_u64(bag.len() as u64)?;
            for instance in bag.instances() {
                for &v in instance {
                    w.write_all(&v.to_le_bytes())?;
                }
            }
        }
        w.finish()
    }

    fn open_from(fs: &dyn StorageIo, path: &Path) -> Result<Self, CoreError> {
        let file = fs
            .reader(path)
            .map_err(|e| storage_err(path, e.to_string()))?;
        let mut r = Stream::new(BufReader::new(file), path);
        r.read_header(DB_KIND, DB_VERSION)?;
        let count = r.read_u64()? as usize;
        let dim = r.read_u64()? as usize;
        if count == 0 || dim == 0 {
            return Err(r.fail("empty database payload"));
        }
        // Guard against absurd headers before allocating.
        if count > 100_000_000 || dim > 100_000_000 {
            return Err(r.fail("implausible database header"));
        }
        let mut bags = Vec::with_capacity(count);
        let mut labels = Vec::with_capacity(count);
        for _ in 0..count {
            let label = r.read_u64()? as usize;
            let n_instances = r.read_u64()? as usize;
            if n_instances == 0 || n_instances > 1_000_000 {
                return Err(r.fail(format!("implausible instance count {n_instances}")));
            }
            let mut instances = Vec::with_capacity(n_instances);
            let mut buf = vec![0u8; dim * 4];
            for _ in 0..n_instances {
                r.read_exact(&mut buf)?;
                let instance: Vec<f32> = buf
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect();
                instances.push(instance);
            }
            bags.push(Bag::new(instances).map_err(CoreError::from)?);
            labels.push(label);
        }
        r.verify_checksum()?;
        RetrievalDatabase::from_bags(bags, labels)
    }
}

impl Persist for Concept {
    fn save_to(&self, fs: &dyn StorageIo, path: &Path) -> Result<(), CoreError> {
        let file = fs
            .writer(path)
            .map_err(|e| storage_err(path, e.to_string()))?;
        let mut w = Stream::new(BufWriter::new(file), path);
        w.write_header(CONCEPT_KIND, DB_VERSION)?;
        w.write_u64(self.dim() as u64)?;
        for &v in self.point() {
            w.write_all(&v.to_le_bytes())?;
        }
        for &v in self.weights() {
            w.write_all(&v.to_le_bytes())?;
        }
        w.finish()
    }

    fn open_from(fs: &dyn StorageIo, path: &Path) -> Result<Self, CoreError> {
        let file = fs
            .reader(path)
            .map_err(|e| storage_err(path, e.to_string()))?;
        let mut r = Stream::new(BufReader::new(file), path);
        r.read_header(CONCEPT_KIND, DB_VERSION)?;
        let dim = r.read_u64()? as usize;
        if dim == 0 || dim > 100_000_000 {
            return Err(r.fail("implausible concept dimension"));
        }
        fn read_f64s<R: Read>(r: &mut Stream<'_, R>, n: usize) -> Result<Vec<f64>, CoreError> {
            let mut buf = vec![0u8; n * 8];
            r.read_exact(&mut buf)?;
            Ok(buf
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                .collect())
        }
        let point = read_f64s(&mut r, dim)?;
        let weights = read_f64s(&mut r, dim)?;
        r.verify_checksum()?;
        if weights.iter().any(|&w| !w.is_finite() || w < 0.0) {
            return Err(r.fail("concept weights must be finite and non-negative"));
        }
        Ok(Concept::new(point, weights))
    }
}

/// The persistence front door: an I/O seam plus `save`/`open` methods
/// dispatching on [`Persist`] — so production code and fault-injection
/// test sweeps run the exact same path, differing only in `fs`.
///
/// ```no_run
/// # fn demo(db: &milr_core::RetrievalDatabase) -> Result<(), milr_core::CoreError> {
/// use milr_core::{RetrievalDatabase, Store};
///
/// let store = Store::default(); // the real filesystem
/// store.save(db, "db.milr")?;
/// let back: RetrievalDatabase = store.open("db.milr")?;
/// # drop(back);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy)]
pub struct Store<'f> {
    /// The I/O seam every operation goes through.
    pub fs: &'f dyn StorageIo,
}

impl Default for Store<'static> {
    fn default() -> Self {
        Self { fs: &OsFs }
    }
}

impl std::fmt::Debug for Store<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").finish_non_exhaustive()
    }
}

impl<'f> Store<'f> {
    /// A store over an explicit [`StorageIo`].
    pub fn new(fs: &'f dyn StorageIo) -> Self {
        Self { fs }
    }

    /// Writes `value` to `path`.
    ///
    /// # Errors
    /// [`CoreError::Storage`] naming the file on any I/O failure.
    pub fn save<T: Persist>(&self, value: &T, path: impl AsRef<Path>) -> Result<(), CoreError> {
        value.save_to(self.fs, path.as_ref())
    }

    /// Reads a `T` from `path`.
    ///
    /// # Errors
    /// Same failure modes as [`Persist::open_from`].
    pub fn open<T: Persist>(&self, path: impl AsRef<Path>) -> Result<T, CoreError> {
        T::open_from(self.fs, path.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("milr_storage_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_db() -> RetrievalDatabase {
        let bags = vec![
            Bag::new(vec![vec![0.5, -1.5, 2.0], vec![1.0, 0.0, -0.25]]).unwrap(),
            Bag::new(vec![vec![-3.0, 0.125, 9.5]]).unwrap(),
            Bag::new(vec![
                vec![0.0, 0.0, 1.0],
                vec![2.0, 2.0, 2.0],
                vec![5.0, -5.0, 0.5],
            ])
            .unwrap(),
        ];
        RetrievalDatabase::from_bags(bags, vec![0, 1, 0]).unwrap()
    }

    #[test]
    fn database_round_trip() {
        let store = Store::default();
        let db = sample_db();
        let path = temp_path("db_roundtrip.milr");
        store.save(&db, &path).unwrap();
        let back: RetrievalDatabase = store.open(&path).unwrap();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.feature_dim(), db.feature_dim());
        assert_eq!(back.labels(), db.labels());
        for i in 0..db.len() {
            assert_eq!(back.bag(i).unwrap(), db.bag(i).unwrap());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concept_round_trip() {
        let store = Store::default();
        let concept = Concept::new(vec![1.5, -2.25, 0.0], vec![0.5, 1.0, 0.0]);
        let path = temp_path("concept_roundtrip.milr");
        store.save(&concept, &path).unwrap();
        let back: Concept = store.open(&path).unwrap();
        assert_eq!(back, concept);
        std::fs::remove_file(path).ok();
    }

    /// Every corruption failure must surface as the dedicated
    /// [`CoreError::Storage`] variant naming the file, with the reason
    /// containing `needle`.
    fn assert_storage_err(err: CoreError, file: &str, needle: &str) {
        match err {
            CoreError::Storage {
                ref path,
                ref reason,
            } => {
                assert!(path.contains(file), "path {path:?} must name {file:?}");
                assert!(
                    reason.contains(needle),
                    "reason {reason:?} must mention {needle:?}"
                );
            }
            other => panic!("expected CoreError::Storage, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("bad_magic.milr");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00\x01").unwrap();
        let err = Store::default()
            .open::<RetrievalDatabase>(&path)
            .unwrap_err();
        assert_storage_err(err, "bad_magic.milr", "magic");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_kind_rejected() {
        // A concept file is not a database file.
        let store = Store::default();
        let concept = Concept::new(vec![1.0], vec![1.0]);
        let path = temp_path("kind_mismatch.milr");
        store.save(&concept, &path).unwrap();
        let err = store.open::<RetrievalDatabase>(&path).unwrap_err();
        assert_storage_err(err, "kind_mismatch.milr", "kind");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let store = Store::default();
        let db = sample_db();
        let path = temp_path("truncated.milr");
        store.save(&db, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = store.open::<RetrievalDatabase>(&path).unwrap_err();
        assert!(
            matches!(err, CoreError::Storage { .. }),
            "expected CoreError::Storage, got {err:?}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_rejected_with_path() {
        let path = temp_path("does_not_exist.milr");
        std::fs::remove_file(&path).ok();
        let err = Store::default()
            .open::<RetrievalDatabase>(&path)
            .unwrap_err();
        assert_storage_err(err, "does_not_exist.milr", "");
    }

    #[test]
    fn future_version_rejected() {
        let path = temp_path("future_version.milr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.push(DB_KIND);
        std::fs::write(&path, bytes).unwrap();
        let err = Store::default()
            .open::<RetrievalDatabase>(&path)
            .unwrap_err();
        assert_storage_err(err, "future_version.milr", "version");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn multi_version_header_reads_report_the_version_found() {
        let path = temp_path("multi_version.milr");
        for version in [3u32, 4] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.push(DB_KIND);
            std::fs::write(&path, bytes).unwrap();
            let file = OsFs.reader(&path).unwrap();
            let mut r = Stream::new(BufReader::new(file), &path);
            assert_eq!(r.read_header_any(DB_KIND, &[3, 4]).unwrap(), version);
        }
        // A version outside the accepted set still fails, naming both.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.push(DB_KIND);
        std::fs::write(&path, bytes).unwrap();
        let file = OsFs.reader(&path).unwrap();
        let mut r = Stream::new(BufReader::new(file), &path);
        let err = r.read_header_any(DB_KIND, &[3, 4]).unwrap_err();
        assert_storage_err(err, "multi_version.milr", "3 or 4");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn negative_weights_in_concept_file_rejected() {
        // Hand-craft a (checksum-valid) concept payload with a negative
        // weight.
        let path = temp_path("negative_weight.milr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&DB_VERSION.to_le_bytes());
        bytes.push(CONCEPT_KIND);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1.0f64.to_le_bytes()); // point
        bytes.extend_from_slice(&(-1.0f64).to_le_bytes()); // weight
        let digest = fnv1a(&bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let err = Store::default().open::<Concept>(&path).unwrap_err();
        assert_storage_err(err, "negative_weight.milr", "non-negative");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flipped_payload_bit_rejected_by_checksum() {
        // Version 1 could not detect a bit flip inside the float payload;
        // the version-2 trailing checksum must.
        let store = Store::default();
        let db = sample_db();
        let path = temp_path("bit_flip.milr");
        store.save(&db, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the first bag's float payload (header 9 +
        // count/dim 16 + label/instance-count 16 = offset 41): a flipped
        // feature value is structurally valid, only the checksum sees it.
        bytes[41] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.open::<RetrievalDatabase>(&path).unwrap_err();
        assert_storage_err(err, "bit_flip.milr", "checksum");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flipped_checksum_bit_rejected() {
        let store = Store::default();
        let concept = Concept::new(vec![1.5], vec![0.5]);
        let path = temp_path("flipped_checksum.milr");
        store.save(&concept, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.open::<Concept>(&path).unwrap_err();
        assert_storage_err(err, "flipped_checksum.milr", "checksum");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_checksum_rejected() {
        // A structurally complete payload with the trailing checksum torn
        // off (classic torn write at the tail).
        let store = Store::default();
        let db = sample_db();
        let path = temp_path("torn_tail.milr");
        store.save(&db, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        let err = store.open::<RetrievalDatabase>(&path).unwrap_err();
        assert_storage_err(err, "torn_tail.milr", "checksum");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn storage_io_seam_is_substitutable() {
        // A StorageIo that routes "paths" into in-memory buffers: proof
        // the seam carries the whole round trip without touching a disk.
        use std::collections::HashMap;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct MemFs {
            files: Arc<Mutex<HashMap<String, Vec<u8>>>>,
        }

        struct MemWriter {
            files: Arc<Mutex<HashMap<String, Vec<u8>>>>,
            key: String,
            buf: Vec<u8>,
        }
        impl Write for MemWriter {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.buf.extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.files
                    .lock()
                    .unwrap()
                    .insert(self.key.clone(), self.buf.clone());
                Ok(())
            }
        }

        impl StorageIo for MemFs {
            fn reader(&self, path: &Path) -> std::io::Result<Box<dyn Read>> {
                let key = path.display().to_string();
                let files = self.files.lock().unwrap();
                let bytes = files.get(&key).ok_or_else(|| {
                    std::io::Error::new(std::io::ErrorKind::NotFound, "no such file")
                })?;
                Ok(Box::new(std::io::Cursor::new(bytes.clone())))
            }
            fn writer(&self, path: &Path) -> std::io::Result<Box<dyn Write>> {
                Ok(Box::new(MemWriter {
                    files: Arc::clone(&self.files),
                    key: path.display().to_string(),
                    buf: Vec::new(),
                }))
            }
        }

        let fs = MemFs::default();
        let store = Store::new(&fs);
        let db = sample_db();
        let path = Path::new("mem://db.milr");
        store.save(&db, path).unwrap();
        let back: RetrievalDatabase = store.open(path).unwrap();
        assert_eq!(back.labels(), db.labels());
        for i in 0..db.len() {
            assert_eq!(back.bag(i).unwrap(), db.bag(i).unwrap());
        }
        // Missing files still surface as Storage errors naming the path.
        let err = store
            .open::<Concept>(Path::new("mem://nope.milr"))
            .unwrap_err();
        assert_storage_err(err, "mem://nope.milr", "no such file");
    }

    #[test]
    fn ranking_is_preserved_across_round_trip() {
        use crate::database::RankRequest;
        let store = Store::default();
        let db = sample_db();
        let concept = Concept::new(vec![0.0, 0.0, 1.0], vec![1.0, 1.0, 1.0]);
        let before = db.rank(&concept, &RankRequest::all()).unwrap();
        let path = temp_path("rank_preserved.milr");
        store.save(&db, &path).unwrap();
        let back: RetrievalDatabase = store.open(&path).unwrap();
        let after = back.rank(&concept, &RankRequest::all()).unwrap();
        assert_eq!(before, after);
        std::fs::remove_file(path).ok();
    }
}
