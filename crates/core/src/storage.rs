//! The byte-level primitives of the snapshot format.
//!
//! Preprocessing a collection (§3.5) is the expensive, embarrassingly
//! cacheable step — the paper preprocesses its 500-image database once
//! and answers every query from the bags. The `milr-store` crate gives
//! that cache its durable form, a sharded snapshot directory; this
//! module holds the pieces every file of it is built from: the
//! `MILR` magic + format version + payload kind header, little-endian
//! integers, and a trailing FNV-1a checksum over every byte before it,
//! so a single flipped bit anywhere in a float payload surfaces as
//! [`CoreError::Storage`] instead of a silently wrong database.
//!
//! The format is intentionally simple and self-contained — no serde — so
//! corrupted or truncated files fail loudly with a useful message. All
//! file access goes through the [`StorageIo`] seam (default: [`OsFs`], a
//! plain `std::fs` passthrough), which is how the test kit injects torn
//! writes, short reads, and bit flips without touching a real disk
//! fault.

use std::io::{Read, Write};
use std::path::Path;

use crate::error::CoreError;

/// Magic bytes opening every milr storage file.
pub const MAGIC: &[u8; 4] = b"MILR";

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

/// FNV-1a 64-bit digest of `bytes` — the trailing checksum every
/// storage file carries. Public so tests (and the test kit) can craft valid files
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
/// trailing checksum. The `milr-store` crate builds its manifest and
/// shard files on these primitives, which is why this type is public.
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

    /// The wrapped reader or writer.
    pub fn into_inner(self) -> S {
        self.inner
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
    pub(crate) fn read_u32(&mut self) -> Result<u32, CoreError> {
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
        let mut magic = [0u8; 4];
        self.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(self.fail("not a milr storage file (bad magic)"));
        }
        let version = self.read_u32()?;
        if version != expected_version {
            return Err(self.fail(format!(
                "unsupported format version {version} (expected {expected_version})"
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
        Ok(())
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
    pub(crate) fn write_u32(&mut self, v: u32) -> Result<(), CoreError> {
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

#[cfg(test)]
mod tests {
    use std::io::{BufReader, BufWriter};

    use super::*;

    const KIND: u8 = 7;
    const VERSION: u32 = 3;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("milr_storage_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Writes the smallest well-formed file: header, one `u64` payload,
    /// trailing checksum — the shape of every manifest and shard file.
    fn write_record(
        fs: &dyn StorageIo,
        path: &Path,
        kind: u8,
        version: u32,
        value: u64,
    ) -> Result<(), CoreError> {
        let file = fs
            .writer(path)
            .map_err(|e| storage_err(path, e.to_string()))?;
        let mut w = Stream::new(BufWriter::new(file), path);
        w.write_header(kind, version)?;
        w.write_u64(value)?;
        w.finish()
    }

    /// Reads back a [`write_record`] file of kind [`KIND`], version
    /// [`VERSION`].
    fn read_record(fs: &dyn StorageIo, path: &Path) -> Result<u64, CoreError> {
        let file = fs
            .reader(path)
            .map_err(|e| storage_err(path, e.to_string()))?;
        let mut r = Stream::new(BufReader::new(file), path);
        r.read_header(KIND, VERSION)?;
        let value = r.read_u64()?;
        r.verify_checksum()?;
        Ok(value)
    }

    /// A clean record at `name`, returned with its bytes.
    fn saved_record(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let path = temp_path(name);
        write_record(&OsFs, &path, KIND, VERSION, 0x0123_4567_89ab_cdef).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
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
        std::fs::write(&path, b"NOPE\x03\x00\x00\x00\x07").unwrap();
        let err = read_record(&OsFs, &path).unwrap_err();
        assert_storage_err(err, "bad_magic.milr", "magic");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wrong_kind_rejected() {
        let path = temp_path("kind_mismatch.milr");
        write_record(&OsFs, &path, KIND + 1, VERSION, 1).unwrap();
        let err = read_record(&OsFs, &path).unwrap_err();
        assert_storage_err(err, "kind_mismatch.milr", "kind");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let (path, bytes) = saved_record("truncated.milr");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = read_record(&OsFs, &path).unwrap_err();
        assert_storage_err(err, "truncated.milr", "");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_rejected_with_path() {
        let path = temp_path("does_not_exist.milr");
        std::fs::remove_file(&path).ok();
        let err = read_record(&OsFs, &path).unwrap_err();
        assert_storage_err(err, "does_not_exist.milr", "");
    }

    #[test]
    fn future_version_rejected() {
        let path = temp_path("future_version.milr");
        write_record(&OsFs, &path, KIND, 99, 1).unwrap();
        let err = read_record(&OsFs, &path).unwrap_err();
        assert_storage_err(err, "future_version.milr", "version 99 (expected 3)");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flipped_payload_bit_rejected_by_checksum() {
        // A flipped payload value is structurally valid; only the
        // trailing checksum sees it (header 9 bytes, then the payload).
        let (path, mut bytes) = saved_record("bit_flip.milr");
        bytes[12] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_record(&OsFs, &path).unwrap_err();
        assert_storage_err(err, "bit_flip.milr", "checksum");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flipped_checksum_bit_rejected() {
        let (path, mut bytes) = saved_record("flipped_checksum.milr");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_record(&OsFs, &path).unwrap_err();
        assert_storage_err(err, "flipped_checksum.milr", "checksum");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_checksum_rejected() {
        // A structurally complete payload with the trailing checksum torn
        // off (classic torn write at the tail).
        let (path, bytes) = saved_record("torn_tail.milr");
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        let err = read_record(&OsFs, &path).unwrap_err();
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
        let path = Path::new("mem://record.milr");
        write_record(&fs, path, KIND, VERSION, 42).unwrap();
        assert_eq!(read_record(&fs, path).unwrap(), 42);
        // Missing files still surface as Storage errors naming the path.
        let err = read_record(&fs, Path::new("mem://nope.milr")).unwrap_err();
        assert_storage_err(err, "mem://nope.milr", "no such file");
    }
}
