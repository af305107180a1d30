#![warn(missing_docs)]

//! # milr-store
//!
//! The sharded, incrementally-updatable snapshot store — format v8,
//! the one database format the workspace writes and reads.
//!
//! A snapshot is a cache of `milr preprocess`: every image becomes a bag
//! once, and each query reads only bags. It is a *directory*:
//!
//! * `manifest.milr` — kind 3: feature dimension, generation counter,
//!   shard capacity, then per-shard `{id, bag count, instance count
//!   (mirror twins included), payload digest}`, then the tombstone list,
//!   then the feature-backend
//!   tag, with the usual trailing FNV-1a checksum. The manifest records
//!   each shard file's own trailing digest, so a stale or swapped shard
//!   is detected without a second read.
//! * `shard-NNNNNN.milr` — kind 4: the shard id, dimension and bag
//!   count, then per-bag `{label, instance count, paired flag, stored
//!   instances}` as flat little-endian `f32`s — exactly the [`FlatBags`]
//!   ranking layout, so a shard loads straight into scoring position
//!   with no per-bag re-normalisation. A paired bag (every gray-block
//!   bag: its instances come in bitwise mirror pairs) stores only its
//!   even instances; the odd ones are their [`Mirror`] images. Then the
//!   shard's quantized tier of the stored instances (affine `{bias,
//!   scale, radius}` parameters plus instance-major `i8` codes — see
//!   `milr_mil::kernel`), so the screen is ready without re-quantizing at
//!   load.
//!
//! The reader accepts exactly the version the writer emits
//! ([`STORE_VERSION`]). Snapshots are rebuilt, not migrated: any other
//! version, or a path naming a file instead of a directory, fails at
//! open with [`CoreError::Storage`] naming the version found and
//! pointing at `milr preprocess`.
//!
//! [`ShardedDatabase::push_bag`]/[`ShardedDatabase::push_image`] append
//! to the open tail shard and seal it at the capacity threshold;
//! [`ShardedDatabase::delete`] tombstones through the manifest without
//! touching any shard file; [`ShardedDatabase::flush`] rewrites only
//! unsealed/new shards plus the (small) manifest, bumping the
//! generation. [`ShardedDatabase::rank`] is scatter-gather: each pool
//! worker runs the same pruned top-k scan as the monolithic
//! `RetrievalDatabase::rank` over a contiguous run of shards, with one
//! bounded heap — and two hot-path accelerations layered on top:
//!
//! * **A shared scatter threshold.** Top-k scans publish each worker's
//!   running k-th-worst distance into one shared atomic bound;
//!   every worker prunes against the *global* running
//!   threshold instead of re-deriving its own from scratch. Any bag the
//!   shared bound prunes is provably outside the global top-k, so the
//!   merged result never changes — only the wasted arithmetic does.
//! * **The quantized screen.** Each shard's `i8` tier gives a provable
//!   lower bound on every instance's exact distance; instances whose
//!   bound already exceeds the current threshold skip the exact `f64`
//!   kernel entirely. [`ShardedDatabase::rank_exact`] bypasses the
//!   screen — it exists so tests and benchmarks can compare the two
//!   paths, which are bit-identical by construction.
//!
//! An index-ordered k-way merge combines the per-worker rankings.
//! Because every surfaced distance flows through the identical kernel
//! ([`Concept::instance_distance_sq_below`]) and ties break by global
//! index at every stage, the sharded ranking is **bit-identical** to
//! the monolithic one — asserted by this crate's property tests.

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeSet, BinaryHeap};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use milr_core::database::{RankRequest, RankScope, Ranking};
use milr_core::error::CoreError;
use milr_core::storage::{storage_err, OsFs, StorageIo, Stream};
use milr_core::{ranking_order, BackendTag, Corpus, RetrievalConfig, RetrievalDatabase};
use milr_imgproc::GrayImage;
use milr_mil::{Bag, BagAggregator, Concept, FlatBags, Mirror, QuantParams, ScreenStats};
use milr_optim::pool;

/// Format version of the manifests and shard files this crate writes —
/// and the only one it reads.
pub const STORE_VERSION: u32 = 8;
/// Appended to every header failure: what to do about a snapshot this
/// build cannot read.
const REBUILD_HINT: &str =
    "snapshots are rebuilt, not migrated: re-run `milr preprocess --out DIR`";
/// Payload kind of a sharded-store manifest file.
pub const MANIFEST_KIND: u8 = 3;
/// Payload kind of a sharded-store shard file.
pub const SHARD_KIND: u8 = 4;
/// File name of the manifest inside a sharded snapshot directory.
pub const MANIFEST_FILE: &str = "manifest.milr";

/// Default number of bags per shard before the tail seals.
pub const DEFAULT_SHARD_CAPACITY: usize = 512;

/// The file name of one shard inside a sharded snapshot directory.
///
/// Public so out-of-crate consumers (the cluster's shard-streaming
/// endpoints, tooling) can map a manifest shard id to its file without
/// re-deriving the naming scheme.
pub fn shard_file_name(id: u64) -> String {
    format!("shard-{id:06}.milr")
}

/// One shard: a contiguous run of bags in the flat ranking layout.
#[derive(Debug, Clone)]
struct Shard {
    id: u64,
    /// Global index of this shard's first bag.
    base: usize,
    labels: Vec<usize>,
    bags: FlatBags,
    /// Sealed shards are immutable; only the unsealed tail accepts
    /// appends.
    sealed: bool,
    /// Whether the on-disk file matches this in-memory state.
    persisted: bool,
    /// Trailing digest of the persisted file (valid when `persisted`).
    digest: u64,
}

impl Shard {
    /// An empty, open shard `id` whose first bag has global index
    /// `base`.
    fn open(id: u64, base: usize, dim: usize) -> Self {
        Self {
            id,
            base,
            labels: Vec::new(),
            bags: FlatBags::new(dim),
            sealed: false,
            persisted: false,
            digest: 0,
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }
}

/// A sharded retrieval database: N independent shard files plus a
/// checksummed manifest, rankable in place via scatter-gather.
///
/// Global bag indices run over shards in order (shard 0's bags first),
/// and are *stable* across pushes and deletes — a tombstoned index stays
/// allocated until [`Self::compact`] repacks the store.
#[derive(Debug, Clone)]
pub struct ShardedDatabase {
    dir: PathBuf,
    feature_dim: usize,
    generation: u64,
    shard_capacity: usize,
    shards: Vec<Shard>,
    tombstones: BTreeSet<usize>,
    next_shard_id: u64,
    /// The feature backend that produced the stored bags, stamped into
    /// the manifest on every flush.
    backend: BackendTag,
}

/// The running global top-k distance threshold shared across the
/// scatter phase: each pool worker publishes its heap's k-th-worst
/// distance as the heap fills and tightens, and every worker prunes
/// against the minimum of all published values.
///
/// Distances are non-negative finite `f64`s, whose IEEE-754 bit
/// patterns order exactly like the unsigned integers they are — so a
/// `fetch_min` on the bits is an exact atomic fetch-min on the
/// distances, with no compare-exchange loop.
///
/// Soundness: a value is only published while its heap holds `k` real
/// candidates, so every published worst is ≥ the true global k-th-best
/// distance, and so is the shared minimum. A bag pruned by the shared
/// bound therefore scores strictly worse than the global k-th best —
/// it could never appear in the merged top-k, which is why the shared
/// threshold cannot change any ranking no matter how worker scans
/// interleave.
#[derive(Debug)]
struct SharedBound(AtomicU64);

impl SharedBound {
    /// An unseeded bound: nothing prunes until a scan publishes.
    fn new() -> Self {
        Self(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// A bound pre-seeded with an externally-derived threshold (use
    /// [`f64::INFINITY`] for "no seed"). The seed must be backed by `k`
    /// real candidates that will be part of the final merge, or pruning
    /// against it is not ranking-neutral.
    fn with_initial(bound: f64) -> Self {
        Self(AtomicU64::new(bound.max(0.0).to_bits()))
    }

    /// The current threshold.
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Publishes a candidate threshold; returns whether it tightened
    /// the shared bound.
    fn tighten(&self, candidate: f64) -> bool {
        let bits = candidate.to_bits();
        self.0.fetch_min(bits, Ordering::Relaxed) > bits
    }
}

/// Which of a shard's bags a ranking visits.
#[derive(Clone, Copy)]
enum Run<'a> {
    /// Every live bag of the shard.
    Live,
    /// Explicit candidates, as global indices inside the shard's range.
    Global(&'a [usize]),
}

/// What every worker of one ranking shares: the concept, the request's
/// knobs, the scatter bound and the tombstones a [`Run::Live`] skips.
struct ScanSpec<'a> {
    concept: &'a Concept,
    top_k: Option<usize>,
    shared: &'a SharedBound,
    screen: bool,
    aggregator: BagAggregator,
    tombstones: &'a BTreeSet<usize>,
}

/// Max-heap entry for the bounded scan: lexicographically largest
/// `(distance, global index)` on top — the same tie-break as the
/// monolithic ranking.
#[derive(PartialEq)]
struct WorstCandidate(f64, usize);

impl Eq for WorstCandidate {}

impl PartialOrd for WorstCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstCandidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        ranking_order(&(self.1, self.0), &(other.1, other.0))
    }
}

impl ShardedDatabase {
    /// An empty store rooted at `dir` (nothing touches the disk until
    /// the first [`Self::flush`]).
    ///
    /// # Errors
    /// [`CoreError::Storage`] for a zero feature dimension or shard
    /// capacity.
    pub fn create(
        dir: impl Into<PathBuf>,
        feature_dim: usize,
        shard_capacity: usize,
    ) -> Result<Self, CoreError> {
        let dir = dir.into();
        if feature_dim == 0 {
            return Err(storage_err(&dir, "feature dimension must be non-zero"));
        }
        if shard_capacity == 0 {
            return Err(storage_err(&dir, "shard capacity must be non-zero"));
        }
        Ok(Self {
            dir,
            feature_dim,
            generation: 0,
            shard_capacity,
            shards: Vec::new(),
            tombstones: BTreeSet::new(),
            next_shard_id: 0,
            backend: BackendTag::default(),
        })
    }

    /// The feature backend recorded for the stored bags (the default
    /// gray-block tag for stores created without an explicit one, and
    /// for snapshots written before manifests carried tags).
    pub fn backend(&self) -> &BackendTag {
        &self.backend
    }

    /// Records the feature backend that produced the stored bags; the
    /// tag lands in the manifest on the next [`Self::flush`]. The
    /// preprocessing pipeline stamps this once at build time — changing
    /// it on a populated store does not (cannot) reinterpret the bags.
    pub fn set_backend(&mut self, backend: BackendTag) {
        self.backend = backend;
    }

    /// Shards an existing monolithic database into a new store rooted at
    /// `dir` (call [`Self::flush`] to persist it), copying its bags.
    ///
    /// Every shard but the last holds exactly `shard_capacity` bags, so
    /// each shard's bag range is known up front: the shards fill and
    /// seal on the workspace pool, and come out identical to the ones a
    /// serial [`Self::push_bag`] loop builds.
    ///
    /// # Errors
    /// Same as [`Self::create`]; the database's bags are assumed valid
    /// (every `RetrievalDatabase` constructor checks their dimension).
    pub fn from_database(
        db: &RetrievalDatabase,
        dir: impl Into<PathBuf>,
        shard_capacity: usize,
    ) -> Result<Self, CoreError> {
        let bags = (0..db.len())
            .map(|index| db.bag(index).expect("index in range"))
            .collect();
        Self::shard_bags(dir, db.feature_dim(), shard_capacity, bags, db.labels())
    }

    /// [`Self::from_database`] taking the database: each bag is released
    /// as soon as its shard holds it, so the corpus is never held twice.
    ///
    /// # Errors
    /// Same as [`Self::from_database`].
    pub fn from_owned_database(
        db: RetrievalDatabase,
        dir: impl Into<PathBuf>,
        shard_capacity: usize,
    ) -> Result<Self, CoreError> {
        let feature_dim = db.feature_dim();
        let (bags, labels) = db.into_parts();
        Self::shard_bags(dir, feature_dim, shard_capacity, bags, &labels)
    }

    /// The shard build behind both constructors: bag `i` (owned or
    /// borrowed) lands in shard `i / shard_capacity`, whose pool job
    /// drops each bag once it is pushed.
    fn shard_bags<B: Borrow<Bag> + Send>(
        dir: impl Into<PathBuf>,
        feature_dim: usize,
        shard_capacity: usize,
        bags: Vec<B>,
        labels: &[usize],
    ) -> Result<Self, CoreError> {
        let mut store = Self::create(dir, feature_dim, shard_capacity)?;
        let mut bags = bags.into_iter();
        let chunks: Vec<Mutex<Vec<B>>> = (0..labels.len().div_ceil(shard_capacity))
            .map(|_| Mutex::new(bags.by_ref().take(shard_capacity).collect()))
            .collect();
        store.shards = pool::run_indexed(chunks.len(), 0, |id| {
            let chunk = std::mem::take(
                &mut *chunks[id]
                    .lock()
                    .expect("each shard's bags are taken by one job"),
            );
            let base = id * shard_capacity;
            let mut shard = Shard::open(id as u64, base, feature_dim);
            for bag in chunk {
                shard.bags.push_bag(bag.borrow());
            }
            shard.labels = labels[base..base + shard.bags.bag_count()].to_vec();
            shard.sealed = shard.len() >= shard_capacity;
            shard
        });
        store.next_shard_id = store.shards.len() as u64;
        Ok(store)
    }

    /// Opens a snapshot directory via the real filesystem.
    ///
    /// # Errors
    /// [`CoreError::Storage`] on a missing/corrupt manifest, a shard
    /// whose digest disagrees with the manifest, or any format
    /// violation.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CoreError> {
        Self::open_with(&OsFs, dir)
    }

    /// [`Self::open`] over an explicit [`StorageIo`] seam.
    ///
    /// # Errors
    /// Same as [`Self::open`].
    pub fn open_with(fs: &dyn StorageIo, dir: impl Into<PathBuf>) -> Result<Self, CoreError> {
        let dir = dir.into();
        let summary = read_manifest_with(fs, &dir)?;
        let mut shards = Vec::with_capacity(summary.shards.len());
        let mut next_shard_id = 0u64;
        for entry in &summary.shards {
            let shard = load_manifest_shard(fs, &dir, entry, summary.feature_dim)?;
            next_shard_id = next_shard_id.max(entry.id + 1);
            shards.push(Shard {
                // A reopened shard at capacity is sealed; a short tail
                // stays open for appends.
                sealed: entry.bag_count >= summary.shard_capacity,
                ..shard
            });
        }
        // All shards but the last must be sealed-size or the global
        // indexing the manifest implies could shift on append.
        let store = Self {
            dir,
            feature_dim: summary.feature_dim,
            generation: summary.generation,
            shard_capacity: summary.shard_capacity,
            shards,
            tombstones: summary.tombstones,
            next_shard_id,
            backend: summary.backend,
        };
        store.update_gauges();
        Ok(store)
    }

    /// Total bag count, tombstoned included (global indices run
    /// `0..len()`).
    pub fn len(&self) -> usize {
        self.shards.last().map_or(0, |s| s.base + s.len())
    }

    /// Whether the store holds no bags at all.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Number of live (non-tombstoned) bags.
    pub fn live_len(&self) -> usize {
        self.len() - self.tombstones.len()
    }

    /// Feature dimension of the stored bags.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The manifest generation, bumped by every [`Self::flush`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of tombstoned bags awaiting [`Self::compact`].
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Bags per shard before the tail seals.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// The snapshot directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Category label of one bag (tombstoned bags keep their label).
    ///
    /// # Errors
    /// [`CoreError::IndexOutOfBounds`] for bad indices.
    pub fn label(&self, index: usize) -> Result<usize, CoreError> {
        let (shard, local) = self.locate(index)?;
        Ok(self.shards[shard].labels[local])
    }

    /// Maps a global index to `(shard, local)` coordinates.
    fn locate(&self, index: usize) -> Result<(usize, usize), CoreError> {
        let len = self.len();
        if index >= len {
            return Err(CoreError::IndexOutOfBounds { index, len });
        }
        // Shards hold `shard_capacity` bags except the tail, so the
        // partition point is found by binary search on the bases.
        let shard = self
            .shards
            .partition_point(|s| s.base <= index)
            .saturating_sub(1);
        Ok((shard, index - self.shards[shard].base))
    }

    /// Appends one bag to the open tail shard, sealing it at the
    /// capacity threshold. Returns the bag's global index.
    ///
    /// # Errors
    /// [`CoreError::Mil`] on a feature-dimension mismatch.
    pub fn push_bag(&mut self, bag: Bag, label: usize) -> Result<usize, CoreError> {
        if bag.dim() != self.feature_dim {
            return Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch {
                expected: self.feature_dim,
                actual: bag.dim(),
            }));
        }
        self.append(label, |bags| {
            bags.push_bag(&bag);
        });
        Ok(self.len() - 1)
    }

    /// Appends one bag to the open tail shard, opening a new tail when
    /// the last shard is sealed, and seals the tail at capacity. `push`
    /// copies the bag's instances into the tail's flat layout.
    fn append(&mut self, label: usize, push: impl FnOnce(&mut FlatBags)) {
        if self.shards.last().is_none_or(|s| s.sealed) {
            let shard = Shard::open(self.next_shard_id, self.len(), self.feature_dim);
            self.shards.push(shard);
            self.next_shard_id += 1;
        }
        let capacity = self.shard_capacity;
        let tail = self.shards.last_mut().expect("tail exists");
        push(&mut tail.bags);
        tail.labels.push(label);
        tail.persisted = false;
        tail.sealed = tail.len() >= capacity;
    }

    /// Preprocesses one image under `config` and appends the resulting
    /// bag. Returns the global index.
    ///
    /// # Errors
    /// * [`CoreError::BlankImage`] for contrast-free images.
    /// * [`CoreError::Mil`] if `config` produces a different feature
    ///   dimension than the store's.
    pub fn push_image(
        &mut self,
        image: &GrayImage,
        label: usize,
        config: &RetrievalConfig,
    ) -> Result<usize, CoreError> {
        let bag = milr_core::features::image_to_bag(image, config).map_err(|e| match e {
            CoreError::BlankImage { .. } => CoreError::BlankImage {
                index: Some(self.len()),
            },
            other => other,
        })?;
        self.push_bag(bag, label)
    }

    /// Tombstones one bag through the manifest — no shard file is
    /// touched; the space is reclaimed by [`Self::compact`]. Idempotent:
    /// returns whether the mark is new.
    ///
    /// # Errors
    /// [`CoreError::IndexOutOfBounds`] for bad indices.
    pub fn delete(&mut self, index: usize) -> Result<bool, CoreError> {
        self.locate(index)?;
        Ok(self.tombstones.insert(index))
    }

    /// Repacks the live bags into fresh dense shards, dropping
    /// tombstones and renumbering shard ids from zero. Each repacked
    /// shard re-derives its quantized tier as bags stream through, so
    /// the next [`Self::flush`] — which rewrites everything and removes
    /// stale shard files — persists every shard with a fresh tier.
    /// Returns how many tombstoned bags were dropped.
    pub fn compact(&mut self) -> usize {
        let dropped = self.tombstones.len();
        let old = std::mem::take(&mut self.shards);
        self.next_shard_id = 0;
        let tombstones = std::mem::take(&mut self.tombstones);
        for shard in &old {
            for local in 0..shard.len() {
                if tombstones.contains(&(shard.base + local)) {
                    continue;
                }
                self.append(shard.labels[local], |bags| {
                    bags.push_from(&shard.bags, local);
                });
            }
        }
        self.update_gauges();
        dropped
    }

    /// Persists the store via the real filesystem: writes every
    /// not-yet-persisted shard, then the manifest, and bumps the
    /// generation. Sealed, already-persisted shards are skipped — the
    /// incremental write path.
    ///
    /// # Errors
    /// [`CoreError::Storage`] naming the offending file on any failure.
    pub fn flush(&mut self) -> Result<(), CoreError> {
        // Only best-effort on the real filesystem; a custom seam routes
        // paths wherever it wants.
        std::fs::create_dir_all(&self.dir).ok();
        self.flush_with(&OsFs)
    }

    /// [`Self::flush`] over an explicit [`StorageIo`] seam.
    ///
    /// # Errors
    /// Same as [`Self::flush`].
    pub fn flush_with(&mut self, fs: &dyn StorageIo) -> Result<(), CoreError> {
        // Encoding (byte layout and checksum) is the costly part, and
        // shards encode independently: pending shards encode on the
        // pool, one per worker at a time, and their files are written
        // serially in shard order through `fs`.
        let pending: Vec<usize> = (0..self.shards.len())
            .filter(|&i| !self.shards[i].persisted)
            .collect();
        let workers = pool::resolve_threads(0, pending.len());
        for batch in pending.chunks(workers) {
            let shards = &self.shards;
            let encoded =
                pool::run_indexed(batch.len(), workers, |j| encode_shard(&shards[batch[j]]));
            for (&i, (bytes, digest)) in batch.iter().zip(encoded) {
                let shard = &mut self.shards[i];
                write_file(fs, &self.dir.join(shard_file_name(shard.id)), &bytes)?;
                shard.digest = digest;
                shard.persisted = true;
            }
        }
        let next_generation = self.generation + 1;
        self.write_manifest(fs, next_generation)?;
        self.generation = next_generation;
        self.remove_stale_shard_files();
        self.update_gauges();
        milr_obs::counter!("milr_store_flushes_total").inc();
        Ok(())
    }

    fn write_manifest(&self, fs: &dyn StorageIo, generation: u64) -> Result<(), CoreError> {
        let path = self.dir.join(MANIFEST_FILE);
        let file = fs
            .writer(&path)
            .map_err(|e| storage_err(&path, e.to_string()))?;
        let mut w = Stream::new(BufWriter::new(file), &path);
        w.write_header(MANIFEST_KIND, STORE_VERSION)?;
        w.write_u64(self.feature_dim as u64)?;
        w.write_u64(generation)?;
        w.write_u64(self.shard_capacity as u64)?;
        w.write_u64(self.shards.len() as u64)?;
        for shard in &self.shards {
            w.write_u64(shard.id)?;
            w.write_u64(shard.len() as u64)?;
            w.write_u64(shard.bags.instance_count() as u64)?;
            w.write_u64(shard.digest)?;
        }
        w.write_u64(self.tombstones.len() as u64)?;
        for &index in &self.tombstones {
            w.write_u64(index as u64)?;
        }
        // The backend tag: id and parameters, length-prefixed. All
        // bytes land before `finish`, so the trailing FNV checksum
        // covers them — a bit flip anywhere in the tag fails the open.
        w.write_u64(self.backend.id.len() as u64)?;
        w.write_all(self.backend.id.as_bytes())?;
        w.write_u64(self.backend.params.len() as u64)?;
        for (name, value) in &self.backend.params {
            w.write_u64(name.len() as u64)?;
            w.write_all(name.as_bytes())?;
            w.write_u64(value.to_bits())?;
        }
        w.finish()
    }

    /// Best-effort removal of shard files that no longer back a live
    /// shard (after [`Self::compact`] renumbered them).
    fn remove_stale_shard_files(&self) {
        let live: BTreeSet<String> = self.shards.iter().map(|s| shard_file_name(s.id)).collect();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("shard-") && name.ends_with(".milr") && !live.contains(&name) {
                std::fs::remove_file(entry.path()).ok();
            }
        }
    }

    fn update_gauges(&self) {
        milr_obs::gauge!("milr_store_shards").set(self.shards.len() as f64);
        milr_obs::gauge!("milr_store_generation").set(self.generation as f64);
        milr_obs::gauge!("milr_store_tombstones").set(self.tombstones.len() as f64);
    }

    /// Rebuilds the live bags as a monolithic [`RetrievalDatabase`], in
    /// global-index order (tombstoned bags are skipped, so indices
    /// compress when any exist).
    ///
    /// # Errors
    /// [`CoreError::Mil`] when no live bags remain.
    pub fn to_database(&self) -> Result<RetrievalDatabase, CoreError> {
        let mut bags = Vec::with_capacity(self.live_len());
        let mut labels = Vec::with_capacity(self.live_len());
        for shard in &self.shards {
            for local in 0..shard.len() {
                if self.tombstones.contains(&(shard.base + local)) {
                    continue;
                }
                bags.push(shard.bags.to_bag(local));
                labels.push(shard.labels[local]);
            }
        }
        RetrievalDatabase::from_bags(bags, labels)
    }

    /// Number of distinct categories among the live bags (max label
    /// + 1).
    pub fn category_count(&self) -> usize {
        let mut categories = 0;
        for shard in &self.shards {
            for (local, &label) in shard.labels.iter().enumerate() {
                if !self.tombstones.contains(&(shard.base + local)) {
                    categories = categories.max(label + 1);
                }
            }
        }
        categories
    }

    /// The global index of the `live`-th live bag: each tombstone at or
    /// before the slot found so far pushes it one further.
    fn global_of_live(&self, live: usize) -> Result<usize, CoreError> {
        let len = self.live_len();
        if live >= len {
            return Err(CoreError::IndexOutOfBounds { index: live, len });
        }
        let mut global = live;
        for &tombstone in &self.tombstones {
            if tombstone > global {
                break;
            }
            global += 1;
        }
        Ok(global)
    }

    /// Ranks the request's candidates by ascending bag distance, in the
    /// global (tombstone-inclusive) index space. Each pool worker scans
    /// a contiguous run of shards in global order with one bounded heap
    /// — at `threads(1)` a page is a single scan over the whole store —
    /// and an index-ordered k-way merge combines the workers' rankings.
    /// Bit-identical to ranking the equivalent monolithic database.
    ///
    /// Top-k scans run with both hot-path accelerations: the scatter
    /// bound shared across workers and the per-shard quantized screen
    /// (see the crate docs). Both are provably ranking-neutral; use
    /// [`Self::rank_exact`] to bypass the screen when measuring or
    /// cross-checking the exact path.
    ///
    /// # Errors
    /// * [`CoreError::IndexOutOfBounds`] for out-of-range *or
    ///   tombstoned* explicit candidates.
    /// * [`CoreError::InvalidScope`] for the session-only scopes
    ///   (`Pool`/`Test`).
    /// * [`CoreError::ConceptDimension`] on a concept dimension mismatch.
    pub fn rank(&self, concept: &Concept, request: &RankRequest) -> Result<Ranking, CoreError> {
        self.rank_scope(concept, request, true)
    }

    /// [`Self::rank`] without the quantized screen: every candidate
    /// instance runs the exact `f64` kernel (still with the shared
    /// scatter threshold). Returns bit-identical rankings to
    /// [`Self::rank`] — this is the measurement and regression-test
    /// baseline that makes the claim checkable.
    ///
    /// # Errors
    /// Same as [`Self::rank`].
    pub fn rank_exact(
        &self,
        concept: &Concept,
        request: &RankRequest,
    ) -> Result<Ranking, CoreError> {
        self.rank_scope(concept, request, false)
    }

    fn rank_scope(
        &self,
        concept: &Concept,
        request: &RankRequest,
        screen: bool,
    ) -> Result<Ranking, CoreError> {
        match &request.scope {
            RankScope::All => self.rank_over(concept, None, request, screen),
            RankScope::Indices(indices) => self.rank_over(concept, Some(indices), request, screen),
            RankScope::Pool => Err(CoreError::InvalidScope { scope: "pool" }),
            RankScope::Test => Err(CoreError::InvalidScope { scope: "test" }),
        }
    }

    /// The engine behind every ranking of the store: `candidates` are
    /// global indices (`None` = every live bag).
    fn rank_over(
        &self,
        concept: &Concept,
        candidates: Option<&[usize]>,
        request: &RankRequest,
        screen: bool,
    ) -> Result<Ranking, CoreError> {
        if concept.dim() != self.feature_dim {
            return Err(CoreError::ConceptDimension {
                concept: concept.dim(),
                expected: self.feature_dim,
            });
        }
        let sorted: Vec<usize>;
        let runs: Vec<(&Shard, Run<'_>)> = match candidates {
            None => live_runs(&self.shards, &self.tombstones),
            Some(list) => {
                let len = self.len();
                for &index in list {
                    // A tombstoned bag is gone as far as callers are
                    // concerned: naming it is the same error as naming
                    // an index past the end.
                    if index >= len || self.tombstones.contains(&index) {
                        return Err(CoreError::IndexOutOfBounds { index, len });
                    }
                }
                // Scan order never changes a ranking (ties break by
                // index), so candidates are split into per-shard runs
                // of an ascending list.
                let list = if list.is_sorted() {
                    list
                } else {
                    sorted = {
                        let mut copy = list.to_vec();
                        copy.sort_unstable();
                        copy
                    };
                    &sorted
                };
                let mut runs = Vec::new();
                let mut rest = list;
                for shard in &self.shards {
                    let end = rest.partition_point(|&g| g < shard.base + shard.len());
                    let (mine, tail) = rest.split_at(end);
                    if !mine.is_empty() {
                        runs.push((shard, Run::Global(mine)));
                    }
                    rest = tail;
                }
                runs
            }
        };
        let _span = milr_obs::span!("store.rank");
        let shared = SharedBound::new();
        let spec = ScanSpec {
            concept,
            top_k: request.top_k,
            shared: &shared,
            screen,
            aggregator: request.aggregator,
            tombstones: &self.tombstones,
        };
        Ok(rank_runs(&runs, &spec, request.threads))
    }
}

/// The live view: index `i` names the `i`-th live bag in global order —
/// the index space of [`ShardedDatabase::to_database`], of every client
/// of the daemon and of [`ManifestSummary::live_rank`]. Without
/// tombstones it is the global index space itself.
impl Corpus for ShardedDatabase {
    fn bag_count(&self) -> usize {
        self.live_len()
    }

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn bag_label(&self, index: usize) -> Result<usize, CoreError> {
        self.label(self.global_of_live(index)?)
    }

    fn bag_at(&self, index: usize) -> Result<Cow<'_, Bag>, CoreError> {
        let (shard, local) = self.locate(self.global_of_live(index)?)?;
        Ok(Cow::Owned(self.shards[shard].bags.to_bag(local)))
    }

    fn rank_candidates(
        &self,
        concept: &Concept,
        candidates: &[usize],
        request: &RankRequest,
    ) -> Result<Ranking, CoreError> {
        if self.tombstones.is_empty() {
            return self.rank_over(concept, Some(candidates), request, true);
        }
        // `t_j - j`, the number of live bags before the `j`-th tombstone,
        // never decreases in `j`: the tombstones at or before a live
        // index's global slot are one binary search away.
        let tombstones: Vec<usize> = self.tombstones.iter().copied().collect();
        let live_before: Vec<usize> = tombstones.iter().enumerate().map(|(j, &t)| t - j).collect();
        let len = self.live_len();
        let globals = candidates
            .iter()
            .map(|&live| {
                if live >= len {
                    return Err(CoreError::IndexOutOfBounds { index: live, len });
                }
                Ok(live + live_before.partition_point(|&before| before <= live))
            })
            .collect::<Result<Vec<usize>, CoreError>>()?;
        let mut ranking = self.rank_over(concept, Some(&globals), request, true)?;
        for entry in &mut ranking {
            entry.0 -= tombstones.partition_point(|&t| t < entry.0);
        }
        Ok(ranking)
    }
}

/// A [`Run::Live`] over every shard that holds a live bag.
fn live_runs<'a>(shards: &'a [Shard], tombstones: &BTreeSet<usize>) -> Vec<(&'a Shard, Run<'a>)> {
    shards
        .iter()
        .filter(|s| tombstones.range(s.base..s.base + s.len()).count() < s.len())
        .map(|s| (s, Run::Live))
        .collect()
}

/// Ranks `runs` on the pooled executor — scatter: each worker takes a
/// contiguous slice of `runs` (global order) and scans it with a single
/// bounded heap, publishing its k-th-worst into the shared scatter bound;
/// gather: an index-ordered k-way merge of the workers' rankings. Folds
/// every worker's screen and threshold counters into the observability
/// registry.
fn rank_runs(runs: &[(&Shard, Run<'_>)], spec: &ScanSpec<'_>, threads: usize) -> Ranking {
    let started = std::time::Instant::now();
    let workers = pool::resolve_threads(threads, runs.len());
    let scans = pool::run_indexed(workers, workers, |w| {
        let mine = &runs[w * runs.len() / workers..(w + 1) * runs.len() / workers];
        let candidates = mine
            .iter()
            .map(|(shard, run)| match run {
                Run::Global(globals) => globals.len(),
                Run::Live => shard.len(),
            })
            .sum();
        let mut scan = Scan::new(spec, candidates);
        for &(shard, run) in mine {
            match run {
                Run::Live if spec.tombstones.is_empty() => scan.shard(shard, 0..shard.len()),
                Run::Live => scan.shard(
                    shard,
                    (0..shard.len())
                        .filter(|local| !spec.tombstones.contains(&(shard.base + local))),
                ),
                Run::Global(globals) => scan.shard(shard, globals.iter().map(|&g| g - shard.base)),
            }
        }
        scan
    });
    let mut stats = ScreenStats::default();
    let mut tightenings = 0;
    let rankings: Vec<Ranking> = scans
        .into_iter()
        .map(|scan| {
            stats.merge(scan.stats);
            tightenings += scan.tightenings;
            scan.into_ranking()
        })
        .collect();
    milr_obs::counter!("milr_store_rank_shards_total").add(runs.len() as u64);
    milr_obs::counter!("milr_rank_quant_screened_total").add(stats.screened);
    milr_obs::counter!("milr_rank_quant_rescored_total").add(stats.rescored);
    milr_obs::counter!("milr_rank_threshold_tightenings_total").add(tightenings);
    // The merge of sorted worker rankings by (distance, global index),
    // truncated to k, is exactly the global ranking's head. The shared
    // bound may leave a worker's ranking *shorter* than k (bags provably
    // outside the global top-k are dropped mid-fill), but every global
    // top-k entry is always admitted to its worker's heap, so the merge
    // of the survivors is still exact.
    let merged = merge_rankings(rankings, spec.top_k);
    milr_obs::histogram!("milr_store_rank_latency_us").record(started.elapsed().as_micros() as u64);
    merged
}

/// One pool worker's scan state across the shards it ranks: the same
/// algorithm as the monolithic `RetrievalDatabase` paths — a full scored
/// sort, or the pruned bounded scan with a `(distance, global index)`
/// max-heap — run over the flat shard layout. Scratch buffers live for
/// the whole worker scan, so they allocate once per ranking.
///
/// Top-k scans prune against the tighter of the heap's worst and the
/// shared bound, publish every tightening of the heap's worst back into
/// the shared bound, and (when `screen` is set) gate each instance behind
/// the shard's quantized tier before the exact kernel.
///
/// A non-min `aggregator` disables both accelerations and the partial
/// abandon for the whole scan: all three bound the bag's *minimum*
/// instance distance, which says nothing about a logsumexp/mean/noisy-or
/// key — every bag takes the exact [`FlatBags::aggregate_distance`] fold
/// instead (the pinned-counter contract: non-min ⇒ `quant_screened == 0`
/// and no tightenings).
struct Scan<'a> {
    spec: &'a ScanSpec<'a>,
    /// The bounded arm's top-k so far.
    heap: BinaryHeap<WorstCandidate>,
    /// The full arm's every `(index, distance)`.
    scored: Ranking,
    stats: ScreenStats,
    scratch: milr_mil::ScreenScratch,
    agg_scratch: Vec<f64>,
    tightenings: u64,
}

impl<'a> Scan<'a> {
    /// A scan over at most `candidates` bags. The heap is sized for the
    /// page, capped at the candidates, so a `k` from the wire cannot
    /// size it past them.
    fn new(spec: &'a ScanSpec<'a>, candidates: usize) -> Self {
        Self {
            spec,
            heap: BinaryHeap::with_capacity(spec.top_k.map_or(0, |k| k.min(candidates) + 1)),
            scored: Vec::new(),
            stats: ScreenStats::default(),
            scratch: milr_mil::ScreenScratch::default(),
            agg_scratch: Vec::new(),
            tightenings: 0,
        }
    }

    /// Scans the given local bags of one shard.
    fn shard(&mut self, shard: &Shard, locals: impl Iterator<Item = usize>) {
        let spec = self.spec;
        if spec.top_k == Some(0) {
            return;
        }
        let exact_fold = !spec.aggregator.is_min();
        // The screen's query is prepared only once the scan bound is
        // finite: before that nothing can be screened out.
        let mut query = None;
        // One scan bound, two kernels: the screened scan and the exact
        // scan return bit-identical values for every (bag, bound) pair.
        // The exact-fold arm ignores the bound entirely — non-min keys
        // cannot be partially abandoned — and always returns `Some`.
        let mut score = |local: usize, bound: f64, scan: &mut Self| {
            if exact_fold {
                return Some(shard.bags.aggregate_distance(
                    spec.concept,
                    local,
                    spec.aggregator,
                    &mut scan.agg_scratch,
                ));
            }
            if !(spec.screen && bound.is_finite()) {
                return shard.bags.min_distance_sq_below(spec.concept, local, bound);
            }
            let query = query.get_or_insert_with(|| shard.bags.quant_query(spec.concept));
            shard.bags.min_distance_sq_below_screened(
                spec.concept,
                query,
                local,
                bound,
                &mut scan.stats,
                &mut scan.scratch,
            )
        };
        let Some(k) = spec.top_k else {
            // A full ranking needs every exact distance, so neither the
            // shared bound nor a top-k threshold applies; the exact scan
            // still abandons instances beaten by their own bag's running
            // best.
            for local in locals {
                let d = score(local, f64::INFINITY, self).unwrap_or(f64::INFINITY);
                self.scored.push((shard.base + local, d));
            }
            return;
        };
        for local in locals {
            let index = shard.base + local;
            let worst = (self.heap.len() >= k).then(|| {
                let worst = self.heap.peek().expect("heap is non-empty");
                (worst.0, worst.1)
            });
            // The scan bound is the tighter of the heap's worst and the
            // shared threshold; `next_up` admits exact distance ties so
            // the index tie-break sees them — identical to the monolithic
            // bounded scan. Pruning against the shared bound may drop bags
            // even while the heap is filling: any such bag scores strictly
            // worse than the global k-th best and cannot appear in the
            // merged top-k.
            let bound = worst
                .map_or(f64::INFINITY, |(d, _)| d)
                .min(spec.shared.get());
            let scan_bound = bound.next_up();
            let d = match score(local, scan_bound, self) {
                Some(d) => d,
                // An infinite scan bound prunes nothing: a bag whose every
                // distance overflows scores +∞ and is admitted, as in the
                // monolithic bounded scan.
                None if scan_bound == f64::INFINITY => f64::INFINITY,
                None => continue,
            };
            match worst {
                None => self.heap.push(WorstCandidate(d, index)),
                Some((worst_d, worst_i)) => {
                    if d < worst_d || (d == worst_d && index < worst_i) {
                        self.heap.pop();
                        self.heap.push(WorstCandidate(d, index));
                    }
                }
            }
            // Publish the heap's k-th-worst whenever the heap is full —
            // the shared bound only ever sees thresholds backed by k real
            // candidates. The exact fold never prunes against the bound,
            // so it never publishes either (tightenings stay pinned at
            // zero for non-min).
            if !exact_fold && self.heap.len() >= k {
                let worst = self.heap.peek().expect("heap is non-empty");
                if spec.shared.tighten(worst.0) {
                    self.tightenings += 1;
                }
            }
        }
    }

    /// The worker's ranking, sorted like every ranking.
    fn into_ranking(self) -> Ranking {
        let mut ranking = match self.spec.top_k {
            None => self.scored,
            Some(_) => self
                .heap
                .into_iter()
                .map(|WorstCandidate(d, i)| (i, d))
                .collect(),
        };
        ranking.sort_by(ranking_order);
        ranking
    }
}

/// Index-ordered k-way merge of sorted rankings: repeatedly takes the
/// head with the smallest `(distance, global index)`, stopping at
/// `limit` entries when one is set.
///
/// Public because it is the gather half of every scatter in the system:
/// the single-node scatter merges per-worker rankings with it, and the
/// cluster coordinator merges per-worker [`SubsetRanking`]s with the
/// same call — which is why the two are bit-identical by construction.
pub fn merge_rankings(lists: Vec<Ranking>, limit: Option<usize>) -> Ranking {
    let total: usize = lists.iter().map(Vec::len).sum();
    let cap = limit.map_or(total, |k| k.min(total));
    let mut heads = vec![0usize; lists.len()];
    let mut out = Vec::with_capacity(cap);
    while out.len() < cap {
        let mut best: Option<usize> = None;
        for (s, list) in lists.iter().enumerate() {
            let Some(&candidate) = list.get(heads[s]) else {
                continue;
            };
            best = match best {
                None => Some(s),
                Some(b) => {
                    let smaller = ranking_order(&candidate, &lists[b][heads[b]]).is_lt();
                    Some(if smaller { s } else { b })
                }
            };
        }
        let Some(b) = best else { break };
        out.push(lists[b][heads[b]]);
        heads[b] += 1;
    }
    out
}

/// Encodes one shard file (bag payload, then the quantized tier) in
/// memory; returns its bytes and its trailing digest for the manifest.
fn encode_shard(shard: &Shard) -> (Vec<u8>, u64) {
    let mut w = Stream::new(Vec::new(), Path::new(""));
    write_shard(&mut w, shard).expect("writing to memory cannot fail");
    // The digest covers header + payload — exactly what `finish` writes
    // as the trailing checksum, so the manifest can cross-check the
    // shard without re-reading it.
    let digest = w.digest();
    w.finish().expect("writing to memory cannot fail");
    (w.into_inner(), digest)
}

/// Streams one shard's header and payload (without the trailing
/// checksum) into `w`.
fn write_shard(w: &mut Stream<'_, Vec<u8>>, shard: &Shard) -> Result<(), CoreError> {
    w.write_header(SHARD_KIND, STORE_VERSION)?;
    w.write_u64(shard.id)?;
    w.write_u64(shard.bags.dim() as u64)?;
    w.write_u64(shard.len() as u64)?;
    for local in 0..shard.len() {
        w.write_u64(shard.labels[local] as u64)?;
        let span = shard.bags.span(local);
        w.write_u64(span.instance_count() as u64)?;
        w.write_u64(u64::from(span.paired))?;
        for &v in shard.bags.bag_instances(local) {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    // The quantized-tier section: a presence flag, then per stored
    // instance the affine parameters, then the i8 codes (instance-major,
    // derived from the in-memory group layout). Covered by the same
    // trailing checksum (and manifest digest) as the bag payload.
    w.write_u64(1)?;
    for p in shard.bags.quant_params() {
        w.write_all(&p.bias.to_le_bytes())?;
        w.write_all(&p.scale.to_le_bytes())?;
        w.write_all(&p.radius.to_le_bytes())?;
    }
    let codes: Vec<u8> = shard.bags.quant_codes().iter().map(|&c| c as u8).collect();
    w.write_all(&codes)
}

/// Writes `bytes` as the whole file at `path` through `fs`.
fn write_file(fs: &dyn StorageIo, path: &Path, bytes: &[u8]) -> Result<(), CoreError> {
    let mut file = fs
        .writer(path)
        .map_err(|e| storage_err(path, e.to_string()))?;
    file.write_all(bytes)
        .and_then(|()| file.flush())
        .map_err(|e| storage_err(path, e.to_string()))
}

/// Reads and validates a manifest or shard header. Any mismatch — a
/// version other than [`STORE_VERSION`] included — fails with
/// [`REBUILD_HINT`] appended.
fn read_store_header<R: Read>(r: &mut Stream<'_, R>, kind: u8) -> Result<(), CoreError> {
    r.read_header(kind, STORE_VERSION).map_err(|err| match err {
        CoreError::Storage { path, reason } => CoreError::Storage {
            path,
            reason: format!("{reason}; {REBUILD_HINT}"),
        },
        other => other,
    })
}

/// Reads a shard section's presence flag. The writer persists every
/// section, so anything but 1 is a format violation.
fn read_section_flag<R: Read>(r: &mut Stream<'_, R>, section: &str) -> Result<(), CoreError> {
    match r.read_u64()? {
        1 => Ok(()),
        flag => Err(r.fail(format!("{section} flag {flag} (expected 1)"))),
    }
}

/// Appends `count` little-endian `f32`s to `out`, reading in bounded
/// chunks: memory grows only with the bytes actually read, so a header
/// declaring an absurd payload ends in a short-read error rather than
/// an allocation failure.
fn read_f32s<R: Read>(
    r: &mut Stream<'_, R>,
    count: usize,
    out: &mut Vec<f32>,
) -> Result<(), CoreError> {
    const CHUNK: usize = 1 << 14;
    let mut buf = vec![0u8; count.min(CHUNK) * 4];
    let mut left = count;
    while left > 0 {
        let bytes = &mut buf[..left.min(CHUNK) * 4];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        left -= bytes.len() / 4;
    }
    Ok(())
}

/// Reads one shard file (digest cross-check against the manifest
/// happens in the caller): bag payload and quantized tier, both under
/// the trailing checksum.
fn read_shard(
    fs: &dyn StorageIo,
    dir: &Path,
    id: u64,
    expected_dim: usize,
) -> Result<Shard, CoreError> {
    let path = dir.join(shard_file_name(id));
    let file = fs
        .reader(&path)
        .map_err(|e| storage_err(&path, e.to_string()))?;
    let mut r = Stream::new(BufReader::new(file), &path);
    read_store_header(&mut r, SHARD_KIND)?;
    let stored_id = r.read_u64()?;
    if stored_id != id {
        return Err(r.fail(format!(
            "shard id {stored_id} does not match file name ({id})"
        )));
    }
    let dim = r.read_u64()? as usize;
    if dim != expected_dim {
        return Err(r.fail(format!(
            "shard dimension {dim} does not match the manifest ({expected_dim})"
        )));
    }
    let bag_count = r.read_u64()? as usize;
    if bag_count == 0 || bag_count > 100_000_000 {
        return Err(r.fail(format!("implausible shard bag count {bag_count}")));
    }
    // Bag-level vectors reserve at most 2^16 entries up front (a crafted
    // count must not size an allocation); the payload itself grows with
    // the bytes actually read.
    let reserve = bag_count.min(1 << 16);
    let mut labels = Vec::with_capacity(reserve);
    let mut data: Vec<f32> = Vec::new();
    let mut bags = Vec::with_capacity(reserve);
    let pairs_dim = Mirror::for_dim(dim).is_some();
    for _ in 0..bag_count {
        let label = r.read_u64()? as usize;
        let n_instances = r.read_u64()? as usize;
        if n_instances == 0 || n_instances > 1_000_000 {
            return Err(r.fail(format!("implausible instance count {n_instances}")));
        }
        let paired = match r.read_u64()? {
            0 => false,
            1 if pairs_dim && n_instances.is_multiple_of(2) => true,
            1 => {
                return Err(r.fail(format!(
                    "a paired bag needs an even instance count and a square dimension \
                     ({n_instances} instances of dimension {dim})"
                )))
            }
            flag => return Err(r.fail(format!("paired flag {flag} (expected 0 or 1)"))),
        };
        let stored = n_instances >> usize::from(paired);
        let values = stored
            .checked_mul(dim)
            .ok_or_else(|| r.fail(format!("implausible bag size {stored} × {dim}")))?;
        read_f32s(&mut r, values, &mut data)?;
        bags.push((stored, paired));
        labels.push(label);
    }
    let stored = data.len() / dim;
    read_section_flag(&mut r, "quantized-tier")?;
    let mut params = Vec::with_capacity(stored);
    for _ in 0..stored {
        let mut b4 = [0u8; 4];
        r.read_exact(&mut b4)?;
        let bias = f32::from_le_bytes(b4);
        r.read_exact(&mut b4)?;
        let scale = f32::from_le_bytes(b4);
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let radius = f64::from_le_bytes(b8);
        params.push(QuantParams {
            scale,
            bias,
            radius,
        });
    }
    let mut code_bytes = vec![0u8; data.len()];
    r.read_exact(&mut code_bytes)?;
    // Same size and alignment: the collect reuses the byte buffer.
    let codes: Vec<i8> = code_bytes.into_iter().map(|b| b as i8).collect();
    let digest = r.digest();
    r.verify_checksum()?;
    let bags = FlatBags::from_parts(dim, data, &bags, &codes, &params)
        .map_err(|e| storage_err(&path, format!("inconsistent quantized tier: {e}")))?;
    Ok(Shard {
        id,
        base: 0,
        labels,
        bags,
        sealed: false,
        persisted: true,
        digest,
    })
}

/// One shard's manifest entry, as read by [`read_manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestShard {
    /// The shard id (maps to its file via [`shard_file_name`]).
    pub id: u64,
    /// Global index of the shard's first bag.
    pub base: usize,
    /// Number of bags in the shard.
    pub bag_count: usize,
    /// Total instances across the shard's bags.
    pub instance_count: usize,
    /// The shard file's trailing FNV-1a digest, recorded so a stale or
    /// swapped shard is detected without a second read.
    pub digest: u64,
}

/// The decoded, checksum-verified manifest of a sharded snapshot —
/// everything needed to plan a shard-subset open or a cluster shard
/// assignment without touching any shard file.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestSummary {
    /// Feature dimension of the stored bags.
    pub feature_dim: usize,
    /// The manifest generation, bumped by every flush.
    pub generation: u64,
    /// Bags per shard before the tail seals.
    pub shard_capacity: usize,
    /// Per-shard entries in global-index order (bases ascending).
    pub shards: Vec<ManifestShard>,
    /// Tombstoned global indices.
    pub tombstones: BTreeSet<usize>,
    /// The feature backend that preprocessed the stored bags.
    pub backend: BackendTag,
}

impl ManifestSummary {
    /// Total bag count, tombstoned included.
    pub(crate) fn total_bags(&self) -> usize {
        self.shards.last().map_or(0, |s| s.base + s.bag_count)
    }

    /// Number of live (non-tombstoned) bags.
    pub fn live_len(&self) -> usize {
        self.total_bags() - self.tombstones.len()
    }

    /// Maps a global index to its rank among live indices — the index
    /// the same bag carries in the compacted [`Snapshot::database`]
    /// view. Returns `None` for tombstoned indices.
    pub fn live_rank(&self, index: usize) -> Option<usize> {
        if self.tombstones.contains(&index) {
            return None;
        }
        Some(index - self.tombstones.range(..index).count())
    }
}

/// Reads and verifies `manifest.milr` under `dir` via the real
/// filesystem — the planning half of [`ShardedDatabase::open`], split
/// out so cluster nodes can compute shard assignments (and stream shard
/// files) without loading any bag payload.
///
/// # Errors
/// [`CoreError::Storage`] on a missing/corrupt manifest or any format
/// violation.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<ManifestSummary, CoreError> {
    read_manifest_with(&OsFs, dir.as_ref())
}

/// [`read_manifest`] over an explicit [`StorageIo`] seam.
///
/// # Errors
/// Same as [`read_manifest`].
pub(crate) fn read_manifest_with(
    fs: &dyn StorageIo,
    dir: &Path,
) -> Result<ManifestSummary, CoreError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let file = fs.reader(&manifest_path).map_err(|e| {
        if dir.is_file() {
            file_snapshot_err(fs, dir)
        } else {
            storage_err(&manifest_path, e.to_string())
        }
    })?;
    let mut r = Stream::new(BufReader::new(file), &manifest_path);
    read_store_header(&mut r, MANIFEST_KIND)?;
    let feature_dim = r.read_u64()? as usize;
    if feature_dim == 0 || feature_dim > 100_000_000 {
        return Err(r.fail("implausible feature dimension"));
    }
    let generation = r.read_u64()?;
    let shard_capacity = r.read_u64()? as usize;
    if shard_capacity == 0 {
        return Err(r.fail("zero shard capacity"));
    }
    let shard_count = r.read_u64()? as usize;
    if shard_count > 1_000_000 {
        return Err(r.fail("implausible shard count"));
    }
    let mut shards = Vec::new();
    let mut base = 0usize;
    for _ in 0..shard_count {
        let id = r.read_u64()?;
        let bag_count = r.read_u64()? as usize;
        let instance_count = r.read_u64()? as usize;
        let digest = r.read_u64()?;
        if bag_count == 0 || bag_count > 100_000_000 {
            return Err(r.fail(format!("implausible shard bag count {bag_count}")));
        }
        shards.push(ManifestShard {
            id,
            base,
            bag_count,
            instance_count,
            digest,
        });
        base += bag_count;
    }
    let total = base;
    let tombstone_count = r.read_u64()? as usize;
    if tombstone_count > total {
        return Err(r.fail("more tombstones than bags"));
    }
    let mut tombstones = BTreeSet::new();
    let mut previous: Option<usize> = None;
    for _ in 0..tombstone_count {
        let index = r.read_u64()? as usize;
        if index >= total {
            return Err(r.fail(format!("tombstone {index} out of range ({total} bags)")));
        }
        if previous.is_some_and(|p| p >= index) {
            return Err(r.fail("tombstones must be strictly ascending"));
        }
        previous = Some(index);
        tombstones.insert(index);
    }
    let id = read_tag_string(&mut r, "backend id")?;
    let param_count = r.read_u64()? as usize;
    if param_count > 64 {
        return Err(r.fail(format!("implausible backend parameter count {param_count}")));
    }
    let mut params = Vec::with_capacity(param_count);
    for _ in 0..param_count {
        let name = read_tag_string(&mut r, "backend parameter name")?;
        let value = f64::from_bits(r.read_u64()?);
        params.push((name, value));
    }
    let backend = BackendTag { id, params };
    r.verify_checksum()?;
    Ok(ManifestSummary {
        feature_dim,
        generation,
        shard_capacity,
        shards,
        tombstones,
        backend,
    })
}

/// The error for a snapshot path naming a regular file instead of a
/// directory — a monolithic snapshot from before the format went
/// sharded, or anything else: it reports what the file's header holds
/// (the version found, for a milr file), then how to rebuild.
fn file_snapshot_err(fs: &dyn StorageIo, path: &Path) -> CoreError {
    let file = match fs.reader(path) {
        Ok(file) => file,
        Err(e) => return storage_err(path, e.to_string()),
    };
    let mut r = Stream::new(BufReader::new(file), path);
    match read_store_header(&mut r, MANIFEST_KIND) {
        Err(err) => err,
        Ok(()) => r.fail(format!(
            "a snapshot is a directory, not a file; {REBUILD_HINT}"
        )),
    }
}

/// Reads one length-prefixed UTF-8 string of the manifest's backend-tag
/// section (backend ids and parameter names are short ASCII labels, so
/// anything past 256 bytes is corruption, not a long name).
fn read_tag_string<R: std::io::Read>(
    r: &mut Stream<'_, R>,
    what: &str,
) -> Result<String, CoreError> {
    let len = r.read_u64()? as usize;
    if len == 0 || len > 256 {
        return Err(r.fail(format!("implausible {what} length {len}")));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| r.fail(format!("{what} is not UTF-8")))
}

/// Loads one manifest-listed shard and cross-checks it against its
/// entry: digest, bag count, instance count. The returned shard carries
/// the entry's global base.
fn load_manifest_shard(
    fs: &dyn StorageIo,
    dir: &Path,
    entry: &ManifestShard,
    feature_dim: usize,
) -> Result<Shard, CoreError> {
    let shard = read_shard(fs, dir, entry.id, feature_dim)?;
    if shard.digest != entry.digest {
        let path = dir.join(shard_file_name(entry.id));
        return Err(storage_err(
            &path,
            format!(
                "shard digest {:#018x} disagrees with the manifest ({:#018x}) — stale or swapped shard",
                shard.digest, entry.digest
            ),
        ));
    }
    if shard.labels.len() != entry.bag_count || shard.bags.instance_count() != entry.instance_count
    {
        let path = dir.join(shard_file_name(entry.id));
        return Err(storage_err(
            &path,
            "shard bag/instance counts disagree with the manifest",
        ));
    }
    Ok(Shard {
        base: entry.base,
        ..shard
    })
}

/// A top-k ranking produced by [`ShardSubset::rank_top_k_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetRanking {
    /// The subset's top-k by ascending `(distance, global index)`,
    /// indexed in the *global* (tombstone-inclusive) index space.
    pub ranking: Ranking,
}

/// A read-only view over a *subset* of a sharded snapshot's shards —
/// the worker half of distributed scatter-gather. The subset opens only
/// its assigned shard files (digest-verified against the manifest) but
/// keeps the manifest's *global* index space: rankings it produces
/// merge with other subsets' rankings by `(distance, global index)`
/// exactly as the single-node scatter merges its per-worker scans.
#[derive(Debug)]
pub struct ShardSubset {
    feature_dim: usize,
    generation: u64,
    total_shards: usize,
    shards: Vec<Shard>,
    /// The manifest's tombstones (global indices).
    tombstones: BTreeSet<usize>,
}

impl ShardSubset {
    /// Opens the shards named by `ids` from the snapshot under `dir`.
    /// Every id must appear in the manifest; each loaded shard is
    /// digest-verified against its manifest entry. `ids` may be empty
    /// (a worker with no assignment ranks nothing).
    ///
    /// # Errors
    /// [`CoreError::Storage`] on a missing/corrupt manifest, an id the
    /// manifest does not list, a duplicate id, or any shard-file
    /// verification failure.
    pub fn open(dir: impl AsRef<Path>, ids: &[u64]) -> Result<Self, CoreError> {
        Self::open_with(&OsFs, dir.as_ref(), ids)
    }

    /// [`Self::open`] over an explicit [`StorageIo`] seam.
    ///
    /// # Errors
    /// Same as [`Self::open`].
    pub fn open_with(fs: &dyn StorageIo, dir: &Path, ids: &[u64]) -> Result<Self, CoreError> {
        let summary = read_manifest_with(fs, dir)?;
        Self::from_manifest_with(fs, dir, &summary, ids)
    }

    /// [`Self::open_with`] against an already-read manifest (callers
    /// that just fetched or planned over the summary skip re-reading
    /// it).
    ///
    /// # Errors
    /// Same as [`Self::open`].
    pub fn from_manifest_with(
        fs: &dyn StorageIo,
        dir: &Path,
        summary: &ManifestSummary,
        ids: &[u64],
    ) -> Result<Self, CoreError> {
        let mut shards = Vec::with_capacity(ids.len());
        let mut seen = BTreeSet::new();
        for &id in ids {
            if !seen.insert(id) {
                return Err(storage_err(
                    dir,
                    format!("shard {id} assigned to the subset twice"),
                ));
            }
            let Some(entry) = summary.shards.iter().find(|e| e.id == id) else {
                return Err(storage_err(
                    dir,
                    format!("shard {id} is not listed in the manifest"),
                ));
            };
            shards.push(load_manifest_shard(fs, dir, entry, summary.feature_dim)?);
        }
        Ok(Self {
            feature_dim: summary.feature_dim,
            generation: summary.generation,
            total_shards: summary.shards.len(),
            shards,
            tombstones: summary.tombstones.clone(),
        })
    }

    /// Feature dimension of the snapshot the subset was opened from.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The manifest generation the subset was opened at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Ids of the loaded shards, in open order.
    pub fn shard_ids(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.id).collect()
    }

    /// Shard count of the whole snapshot (not just this subset).
    pub fn total_shards(&self) -> usize {
        self.total_shards
    }

    /// Number of live bags held by this subset.
    pub fn live_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.len() - self.tombstones.range(s.base..s.base + s.len()).count())
            .sum()
    }

    /// Ranks the subset's live bags and returns its top-k by ascending
    /// `(distance, global index)` — the same pruned, quantized-screened
    /// scan as [`ShardedDatabase::rank`], fanned over the loaded shards
    /// on the pooled executor.
    ///
    /// `initial_bound` seeds the shared scatter threshold
    /// ([`f64::INFINITY`] for none, which is what a cluster worker
    /// passes). A finite seed must be backed by `k` real candidates
    /// that are part of the final merge, or pruning against it can drop
    /// a top-k bag.
    ///
    /// `aggregator` picks the ranking key: min-distance runs the
    /// pruned, screened scan; any other aggregator takes the exact
    /// per-bag fold (no screen, no shared-bound pruning — see
    /// [`BagAggregator::fold`]), so `initial_bound` is ignored there.
    ///
    /// # Errors
    /// [`CoreError::ConceptDimension`] on a concept dimension mismatch.
    pub fn rank_top_k_with(
        &self,
        concept: &Concept,
        k: usize,
        initial_bound: f64,
        threads: usize,
        aggregator: BagAggregator,
    ) -> Result<SubsetRanking, CoreError> {
        if concept.dim() != self.feature_dim {
            return Err(CoreError::ConceptDimension {
                concept: concept.dim(),
                expected: self.feature_dim,
            });
        }
        let _span = milr_obs::span!("store.rank_subset");
        let shared = SharedBound::with_initial(initial_bound);
        let spec = ScanSpec {
            concept,
            top_k: Some(k),
            shared: &shared,
            screen: true,
            aggregator,
            tombstones: &self.tombstones,
        };
        let ranking = rank_runs(&live_runs(&self.shards, &self.tombstones), &spec, threads);
        Ok(SubsetRanking { ranking })
    }
}

/// A loaded snapshot as a monolithic database — the loader of the CLI's
/// `query --snapshot` / `snapshot` and of in-process replicas (the
/// daemon serves [`ShardedDatabase::open`] in place, without the copy).
#[derive(Debug)]
pub struct Snapshot {
    /// The live bags as a monolithic database (global-index order).
    pub database: RetrievalDatabase,
    /// The manifest generation.
    pub generation: u64,
    /// How many shards backed the snapshot.
    pub shards: usize,
    /// The feature backend recorded for the snapshot's bags.
    pub backend: BackendTag,
}

/// Loads the snapshot directory at `path` and copies its live bags
/// into a [`RetrievalDatabase`].
///
/// # Errors
/// Same as [`ShardedDatabase::open`], plus [`CoreError::Mil`] when no
/// live bags remain.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Snapshot, CoreError> {
    let mut store = ShardedDatabase::open(path.as_ref())?;
    let backend = std::mem::take(&mut store.backend);
    Ok(Snapshot {
        database: store.to_database()?,
        generation: store.generation(),
        shards: store.shard_count(),
        backend,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(values: &[&[f32]]) -> Bag {
        Bag::new(values.iter().map(|v| v.to_vec()).collect()).unwrap()
    }

    /// A deterministic little database: 4-dimensional bags with 1..=3
    /// instances, labels cycling over three categories. The raw data
    /// comes from the shared corpus helper so the sharding and indexing
    /// integration tests exercise byte-identical inputs.
    fn sample_db(count: usize) -> RetrievalDatabase {
        let bags: Vec<Bag> = milr_synth::corpus::lattice_bags(count, 4)
            .into_iter()
            .map(|instances| Bag::new(instances).unwrap())
            .collect();
        RetrievalDatabase::from_bags(bags, milr_synth::corpus::lattice_labels(count)).unwrap()
    }

    fn sample_concept() -> Concept {
        Concept::new(vec![1.0, 2.5, 0.5, 3.0], vec![1.0, 0.5, 2.0, 0.25])
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("milr_store_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn pushes_seal_shards_at_capacity() {
        let mut store = ShardedDatabase::create(temp_dir("seal"), 4, 3).unwrap();
        assert!(store.is_empty());
        let db = sample_db(8);
        for i in 0..db.len() {
            let index = store
                .push_bag(db.bag(i).unwrap().clone(), db.label(i).unwrap())
                .unwrap();
            assert_eq!(index, i, "global indices are append-ordered");
        }
        assert_eq!(store.len(), 8);
        assert_eq!(store.live_len(), 8);
        // 8 bags at capacity 3: shards of 3 + 3 + 2.
        assert_eq!(store.shard_count(), 3);
        assert_eq!(store.tombstone_count(), 0);
        for i in 0..8 {
            assert_eq!(store.label(i).unwrap(), i % 3);
        }
        assert!(matches!(
            store.label(8),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut store = ShardedDatabase::create(temp_dir("dim"), 4, 3).unwrap();
        assert!(matches!(
            store.push_bag(bag(&[&[1.0, 2.0]]), 0),
            Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch { .. }))
        ));
        assert!(ShardedDatabase::create(temp_dir("dim0"), 0, 3).is_err());
        assert!(ShardedDatabase::create(temp_dir("cap0"), 4, 0).is_err());
    }

    #[test]
    fn sharded_rank_is_bit_identical_to_monolithic() {
        let db = sample_db(23);
        // The second concept overflows every distance to +∞: pages must
        // still fill with those bags, as the monolithic scan fills them.
        let overflowing = Concept::new(vec![1e300; 4], vec![1.0, 0.0, 0.0, 0.0]);
        for concept in [sample_concept(), overflowing] {
            let monolithic = db.rank(&concept, &RankRequest::all()).unwrap();
            for capacity in [1, 2, 5, 8, 23, 100] {
                let store =
                    ShardedDatabase::from_database(&db, temp_dir("rank"), capacity).unwrap();
                let sharded = store.rank(&concept, &RankRequest::all()).unwrap();
                assert_eq!(sharded, monolithic, "capacity {capacity}");
                for k in [0, 1, 3, 4, 7, 23, 40] {
                    for threads in [0, 1] {
                        let request = RankRequest::all().top(k).threads(threads);
                        assert_eq!(
                            store.rank(&concept, &request).unwrap(),
                            monolithic[..k.min(monolithic.len())],
                            "capacity {capacity}, k {k}, threads {threads}"
                        );
                    }
                }
                // Explicit candidate subsets agree too.
                let subset = vec![20, 3, 11, 7, 0];
                assert_eq!(
                    store
                        .rank(&concept, &RankRequest::over(subset.clone()))
                        .unwrap(),
                    db.rank(&concept, &RankRequest::over(subset)).unwrap(),
                    "capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn non_min_aggregators_rank_identically_to_monolithic() {
        // Every non-min aggregator takes the exact per-bag fold on both
        // sides, so sharded (screened or not, with tombstones) must
        // match the monolithic ranking bit for bit.
        let db = sample_db(23);
        let concept = sample_concept();
        for aggregator in BagAggregator::ALL {
            let request = RankRequest::all().aggregator(aggregator);
            let monolithic = db.rank(&concept, &request).unwrap();
            for capacity in [1, 4, 23] {
                let store =
                    ShardedDatabase::from_database(&db, temp_dir("agg_rank"), capacity).unwrap();
                assert_eq!(
                    store.rank(&concept, &request).unwrap(),
                    monolithic,
                    "{aggregator} capacity {capacity}"
                );
                assert_eq!(
                    store.rank_exact(&concept, &request).unwrap(),
                    monolithic,
                    "{aggregator} capacity {capacity} (exact)"
                );
                for k in [1, 3, 23] {
                    assert_eq!(
                        store
                            .rank(&concept, &RankRequest::all().top(k).aggregator(aggregator))
                            .unwrap(),
                        monolithic[..k.min(monolithic.len())],
                        "{aggregator} capacity {capacity} k {k}"
                    );
                }
            }
        }
        // Tombstones restrict non-min rankings exactly like min ones.
        let mut store = ShardedDatabase::from_database(&db, temp_dir("agg_tomb"), 5).unwrap();
        store.delete(3).unwrap();
        store.delete(19).unwrap();
        let live: Vec<usize> = (0..23).filter(|&i| i != 3 && i != 19).collect();
        for aggregator in BagAggregator::ALL {
            let request = RankRequest::all().aggregator(aggregator);
            assert_eq!(
                store.rank(&concept, &request).unwrap(),
                db.rank(
                    &concept,
                    &RankRequest::over(live.clone()).aggregator(aggregator)
                )
                .unwrap(),
                "{aggregator} under tombstones"
            );
        }
    }

    #[test]
    fn subset_non_min_ranking_matches_sharded_store() {
        let db = sample_db(19);
        let concept = sample_concept();
        let dir = temp_dir("agg_subset");
        let mut store = ShardedDatabase::from_database(&db, &dir, 4).unwrap();
        store.flush().unwrap();
        let ids: Vec<u64> = read_manifest(&dir)
            .unwrap()
            .shards
            .iter()
            .map(|s| s.id)
            .collect();
        let subset = ShardSubset::open(&dir, &ids).unwrap();
        for aggregator in BagAggregator::ALL {
            for k in [1, 5, 19] {
                let scan = subset
                    .rank_top_k_with(&concept, k, f64::INFINITY, 1, aggregator)
                    .unwrap();
                let expected = store
                    .rank(&concept, &RankRequest::all().top(k).aggregator(aggregator))
                    .unwrap();
                assert_eq!(scan.ranking, expected, "{aggregator} k {k}");
            }
        }
    }

    #[test]
    fn manifest_backend_tag_round_trips() {
        let dir = temp_dir("backend_tag");
        let mut store = ShardedDatabase::from_database(&sample_db(7), &dir, 3).unwrap();
        let tag = BackendTag {
            id: "sbn".to_string(),
            params: vec![("grid".to_string(), 8.0), ("blob".to_string(), 2.0)],
        };
        store.set_backend(tag.clone());
        store.flush().unwrap();
        assert_eq!(read_manifest(&dir).unwrap().backend, tag);
        let reopened = ShardedDatabase::open(&dir).unwrap();
        assert_eq!(reopened.backend(), &tag);
        // The snapshot front door surfaces the tag.
        let snapshot = load_snapshot(&dir).unwrap();
        assert_eq!(snapshot.backend, tag);
    }

    /// Asserts `err` is a storage error whose reason names `needle` and
    /// points at the rebuild.
    fn assert_rebuild_hint(err: CoreError, needle: &str) {
        match err {
            CoreError::Storage { reason, .. } => {
                assert!(
                    reason.contains(needle),
                    "reason {reason:?} must name {needle:?}"
                );
                assert!(
                    reason.contains("milr preprocess"),
                    "reason {reason:?} must point at `milr preprocess`"
                );
            }
            other => panic!("expected CoreError::Storage, got {other:?}"),
        }
    }

    /// Flushes a small store, then restamps its manifest and its first
    /// shard file with each of `versions` in turn, checking every open
    /// fails at the header naming the version found. The clean bytes
    /// are restored afterwards.
    fn assert_versions_refused(dir: &Path, versions: &[u32]) {
        for file in [MANIFEST_FILE.to_string(), shard_file_name(1)] {
            let path = dir.join(&file);
            let clean = std::fs::read(&path).unwrap();
            for &version in versions {
                let mut bytes = clean.clone();
                bytes[4..8].copy_from_slice(&version.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
                assert_rebuild_hint(
                    ShardedDatabase::open(dir).unwrap_err(),
                    &format!("version {version} (expected {STORE_VERSION})"),
                );
            }
            std::fs::write(&path, &clean).unwrap();
        }
        ShardedDatabase::open(dir).expect("restored store opens again");
    }

    #[test]
    fn v3_snapshots_fail_with_the_rebuild_hint() {
        // v3 stores carried no quantized tier; they are no longer
        // rebuilt at load but refused at the header.
        let dir = temp_dir("v3_refused");
        let mut store = ShardedDatabase::from_database(&sample_db(13), &dir, 4).unwrap();
        store.delete(6).unwrap();
        store.flush().unwrap();
        assert_versions_refused(&dir, &[3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_v6_manifests_fail_with_the_rebuild_hint() {
        // Write the exact payload a pre-tag (v5) writer produced: no
        // backend tag section. It is refused at the header rather than
        // opened under a default backend.
        let dir = temp_dir("v5_refused");
        let mut store = ShardedDatabase::from_database(&sample_db(9), &dir, 4).unwrap();
        store.set_backend(BackendTag {
            id: "sbn".to_string(),
            params: Vec::new(),
        });
        store.flush().unwrap();
        let summary = read_manifest(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let clean = std::fs::read(&path).unwrap();
        {
            let file = std::fs::File::create(&path).unwrap();
            let mut w = Stream::new(BufWriter::new(file), &path);
            w.write_header(MANIFEST_KIND, 5).unwrap();
            w.write_u64(summary.feature_dim as u64).unwrap();
            w.write_u64(summary.generation).unwrap();
            w.write_u64(summary.shard_capacity as u64).unwrap();
            w.write_u64(summary.shards.len() as u64).unwrap();
            for shard in &summary.shards {
                w.write_u64(shard.id).unwrap();
                w.write_u64(shard.bag_count as u64).unwrap();
                w.write_u64(shard.instance_count as u64).unwrap();
                w.write_u64(shard.digest).unwrap();
            }
            w.write_u64(0).unwrap(); // no tombstones
            w.finish().unwrap();
        }
        assert_rebuild_hint(
            ShardedDatabase::open(&dir).unwrap_err(),
            &format!("version 5 (expected {STORE_VERSION})"),
        );
        assert_rebuild_hint(
            read_manifest(&dir).unwrap_err(),
            &format!("version 5 (expected {STORE_VERSION})"),
        );
        std::fs::write(&path, &clean).unwrap();
        let reopened = ShardedDatabase::open(&dir).expect("restored store opens again");
        assert_eq!(reopened.backend().id, "sbn");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_snapshot_versions_fail_with_the_rebuild_hint() {
        // The reader accepts only the version the writer emits: a
        // manifest or shard file stamped v3 to v7 fails at the header,
        // naming the version found.
        let dir = temp_dir("old_versions");
        let mut store = ShardedDatabase::from_database(&sample_db(9), &dir, 4).unwrap();
        store.flush().unwrap();
        assert_versions_refused(&dir, &[3, 4, 5, 6, 7]);

        // A regular file is no snapshot: a monolithic file from before
        // the format went sharded reports its version…
        let file = dir.join("monolithic.milr");
        let mut bytes = milr_core::storage::MAGIC.to_vec();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.push(1);
        std::fs::write(&file, &bytes).unwrap();
        assert_rebuild_hint(ShardedDatabase::open(&file).unwrap_err(), "version 2");
        assert_rebuild_hint(load_snapshot(&file).unwrap_err(), "version 2");
        assert_rebuild_hint(read_manifest(&file).unwrap_err(), "version 2");
        // …and even a current manifest named directly is refused.
        assert_rebuild_hint(
            ShardedDatabase::open(dir.join(MANIFEST_FILE)).unwrap_err(),
            "a snapshot is a directory",
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_backend_tags_fail_the_open() {
        let dir = temp_dir("backend_corrupt");
        let mut store = ShardedDatabase::from_database(&sample_db(5), &dir, 3).unwrap();
        store.set_backend(BackendTag {
            id: "gray-block".to_string(),
            params: vec![("resolution".to_string(), 10.0)],
        });
        store.flush().unwrap();
        let path = dir.join(MANIFEST_FILE);
        let clean = std::fs::read(&path).unwrap();
        // Sweep a bit flip across every byte of the v6 tag section and
        // the trailing checksum. Walking back from the end: checksum
        // (8), param value (8), param name (10), param name length (8),
        // param count (8), id ("gray-block", 10), id length (8). Length
        // fields are guarded by plausibility caps, so even a flipped
        // high length byte surfaces as a storage error, never a huge
        // allocation or a panic.
        let tag_len = 8 + "gray-block".len() + 8 + 8 + "resolution".len() + 8;
        let tag_start = clean.len() - 8 - tag_len;
        for offset in tag_start..clean.len() {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let err = ShardedDatabase::open(&dir).unwrap_err();
            assert!(
                matches!(err, CoreError::Storage { .. }),
                "tag corruption at byte {offset}: expected Storage, got {err:?}"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        ShardedDatabase::open(&dir).expect("restored store opens again");
    }

    #[test]
    fn rank_is_thread_invariant() {
        let db = sample_db(17);
        let concept = sample_concept();
        let store = ShardedDatabase::from_database(&db, temp_dir("threads"), 4).unwrap();
        let reference = store
            .rank(&concept, &RankRequest::all().threads(1))
            .unwrap();
        for threads in [0, 2, 3, 8] {
            assert_eq!(
                store
                    .rank(&concept, &RankRequest::all().threads(threads))
                    .unwrap(),
                reference
            );
        }
    }

    #[test]
    fn rank_validates_scope_and_candidates() {
        let db = sample_db(6);
        let concept = sample_concept();
        let mut store = ShardedDatabase::from_database(&db, temp_dir("scope"), 2).unwrap();
        assert!(matches!(
            store.rank(&concept, &RankRequest::pool()),
            Err(CoreError::InvalidScope { scope: "pool" })
        ));
        assert!(matches!(
            store.rank(&concept, &RankRequest::over(vec![99])),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
        // Tombstoned candidates are gone.
        store.delete(2).unwrap();
        assert!(matches!(
            store.rank(&concept, &RankRequest::over(vec![2])),
            Err(CoreError::IndexOutOfBounds { index: 2, .. })
        ));
        // Wrong concept dimension.
        let alien = Concept::new(vec![0.0; 2], vec![1.0; 2]);
        assert!(matches!(
            store.rank(&alien, &RankRequest::all()),
            Err(CoreError::ConceptDimension {
                concept: 2,
                expected: 4
            })
        ));
    }

    #[test]
    fn tombstones_hide_bags_from_ranking() {
        let db = sample_db(10);
        let concept = sample_concept();
        let mut store = ShardedDatabase::from_database(&db, temp_dir("tomb"), 3).unwrap();
        assert!(store.delete(4).unwrap());
        assert!(!store.delete(4).unwrap(), "second delete is a no-op");
        store.delete(7).unwrap();
        assert_eq!(store.live_len(), 8);
        assert_eq!(store.tombstone_count(), 2);
        let ranking = store.rank(&concept, &RankRequest::all()).unwrap();
        assert_eq!(ranking.len(), 8);
        assert!(ranking.iter().all(|&(i, _)| i != 4 && i != 7));
        // The live ranking equals the monolithic ranking restricted to
        // the live candidates.
        let live: Vec<usize> = (0..10).filter(|&i| i != 4 && i != 7).collect();
        assert_eq!(
            ranking,
            db.rank(&concept, &RankRequest::over(live)).unwrap()
        );
    }

    #[test]
    fn flush_open_round_trips_everything() {
        let dir = temp_dir("roundtrip");
        let db = sample_db(11);
        let mut store = ShardedDatabase::from_database(&db, &dir, 4).unwrap();
        store.delete(3).unwrap();
        store.flush().unwrap();
        assert_eq!(store.generation(), 1);

        let back = ShardedDatabase::open(&dir).unwrap();
        assert_eq!(back.len(), 11);
        assert_eq!(back.live_len(), 10);
        assert_eq!(back.generation(), 1);
        assert_eq!(back.shard_count(), 3);
        assert_eq!(back.shard_capacity(), 4);
        assert_eq!(back.tombstone_count(), 1);
        for i in 0..11 {
            assert_eq!(back.label(i).unwrap(), store.label(i).unwrap());
        }
        let concept = sample_concept();
        let ranking = back.rank(&concept, &RankRequest::all()).unwrap();
        assert!(ranking.iter().all(|&(i, _)| i != 3), "bag 3 stays deleted");
        assert_eq!(ranking, store.rank(&concept, &RankRequest::all()).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// FNV-1a of every file in a snapshot directory, by file name.
    fn directory_digests(dir: &Path) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let bytes = std::fs::read(entry.path()).unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
                (name, digest)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn sealed_and_pushed_stores_write_pinned_bytes() {
        // 11 bags at capacity 4: two sealed shards and a partial tail.
        let db = sample_db(11);
        let dir = temp_dir("pinned_sealed");
        let mut sealed = ShardedDatabase::from_database(&db, &dir, 4).unwrap();
        sealed.flush().unwrap();
        let pushed_dir = temp_dir("pinned_pushed");
        let mut pushed = ShardedDatabase::create(&pushed_dir, 4, 4).unwrap();
        for i in 0..db.len() {
            pushed
                .push_bag(db.bag(i).unwrap().clone(), db.label(i).unwrap())
                .unwrap();
        }
        pushed.flush().unwrap();
        // Digests of the format-v8 files, recorded when shards were
        // sealed and written serially.
        let pinned = [
            ("manifest.milr", 0x77fe_323c_ea89_8616),
            ("shard-000000.milr", 0xcfca_8f3f_7d65_8f44),
            ("shard-000001.milr", 0x1632_c4fd_cfe9_b2ec),
            ("shard-000002.milr", 0xd63f_2e5d_a15d_b5be),
        ]
        .map(|(name, digest)| (name.to_string(), digest));
        assert_eq!(directory_digests(&dir), pinned);
        assert_eq!(directory_digests(&pushed_dir), pinned);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&pushed_dir).ok();
    }

    #[test]
    fn incremental_flush_rewrites_only_the_tail() {
        let dir = temp_dir("incremental");
        let db = sample_db(8);
        let mut store = ShardedDatabase::from_database(&db, &dir, 3).unwrap();
        store.flush().unwrap();
        let sealed_path = dir.join(shard_file_name(0));
        let sealed_before = std::fs::metadata(&sealed_path).unwrap().modified().unwrap();
        let tail_path = dir.join(shard_file_name(2));
        let tail_bytes_before = std::fs::read(&tail_path).unwrap();

        // Append one bag: lands in the open tail (2 of 3 slots used).
        store.push_bag(db.bag(0).unwrap().clone(), 0).unwrap();
        store.flush().unwrap();
        assert_eq!(store.generation(), 2);
        let sealed_after = std::fs::metadata(&sealed_path).unwrap().modified().unwrap();
        assert_eq!(
            sealed_before, sealed_after,
            "sealed shards must not be rewritten"
        );
        assert_ne!(
            tail_bytes_before,
            std::fs::read(&tail_path).unwrap(),
            "the tail shard must grow"
        );

        // And the reopened store sees the appended bag.
        let back = ShardedDatabase::open(&dir).unwrap();
        assert_eq!(back.len(), 9);
        assert_eq!(back.generation(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_drops_tombstones_and_renumbers() {
        let dir = temp_dir("compact");
        let db = sample_db(10);
        let concept = sample_concept();
        let mut store = ShardedDatabase::from_database(&db, &dir, 3).unwrap();
        store.flush().unwrap();
        store.delete(0).unwrap();
        store.delete(5).unwrap();
        store.delete(9).unwrap();
        let live_ranking = store.rank(&concept, &RankRequest::all()).unwrap();

        assert_eq!(store.compact(), 3);
        assert_eq!(store.len(), 7);
        assert_eq!(store.tombstone_count(), 0);
        assert_eq!(store.shard_count(), 3); // 3 + 3 + 1
        store.flush().unwrap();

        // Stale shard files from the pre-compact generation are gone.
        let shard_files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("shard-"))
            .collect();
        assert_eq!(
            shard_files.len(),
            3,
            "stale shards removed: {shard_files:?}"
        );

        // Compaction renumbers global indices densely but preserves the
        // ranking *order* and distances of the live bags.
        let back = ShardedDatabase::open(&dir).unwrap();
        let compacted_ranking = back.rank(&concept, &RankRequest::all()).unwrap();
        let distances: Vec<f64> = compacted_ranking.iter().map(|&(_, d)| d).collect();
        let expected: Vec<f64> = live_ranking.iter().map(|&(_, d)| d).collect();
        assert_eq!(distances, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_and_shards_are_rejected() {
        let dir = temp_dir("corrupt");
        let db = sample_db(6);
        let mut store = ShardedDatabase::from_database(&db, &dir, 2).unwrap();
        store.flush().unwrap();

        // Flip a payload bit in a shard: its own checksum catches it.
        let shard_path = dir.join(shard_file_name(1));
        let mut bytes = std::fs::read(&shard_path).unwrap();
        bytes[40] ^= 0x20;
        std::fs::write(&shard_path, &bytes).unwrap();
        let err = ShardedDatabase::open(&dir).unwrap_err();
        assert!(matches!(err, CoreError::Storage { .. }), "got {err:?}");
        bytes[40] ^= 0x20;
        std::fs::write(&shard_path, &bytes).unwrap();
        ShardedDatabase::open(&dir).expect("restored store opens again");

        // Replace a shard with a self-consistent but *different* shard
        // file: only the manifest digest cross-check can catch that.
        let other_dir = temp_dir("corrupt_other");
        let other_bags: Vec<Bag> = (0..6)
            .map(|n| bag(&[&[n as f32 + 0.25, 0.5, 0.75, 1.0]]))
            .collect();
        let other_db = RetrievalDatabase::from_bags(other_bags, vec![0; 6]).unwrap();
        let mut other = ShardedDatabase::from_database(&other_db, &other_dir, 2).unwrap();
        other.flush().unwrap();
        std::fs::copy(other_dir.join(shard_file_name(1)), &shard_path).unwrap();
        let err = ShardedDatabase::open(&dir).unwrap_err();
        match err {
            CoreError::Storage { reason, .. } => {
                assert!(reason.contains("manifest"), "reason: {reason}");
            }
            other => panic!("expected Storage, got {other:?}"),
        }

        // A truncated manifest is caught by its checksum.
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&manifest_path).unwrap();
        std::fs::write(&manifest_path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(ShardedDatabase::open(&dir).is_err());

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&other_dir).ok();
    }

    #[test]
    fn to_database_round_trips_live_bags() {
        let db = sample_db(9);
        let mut store = ShardedDatabase::from_database(&db, temp_dir("todb"), 4).unwrap();
        let back = store.to_database().unwrap();
        assert_eq!(back.len(), db.len());
        assert_eq!(back.labels(), db.labels());
        for i in 0..db.len() {
            assert_eq!(back.bag(i).unwrap(), db.bag(i).unwrap());
        }
        // With tombstones the live bags compress in order.
        store.delete(1).unwrap();
        let live = store.to_database().unwrap();
        assert_eq!(live.len(), 8);
        assert_eq!(live.bag(0).unwrap(), db.bag(0).unwrap());
        assert_eq!(live.bag(1).unwrap(), db.bag(2).unwrap());
    }

    #[test]
    fn load_snapshot_reads_a_flushed_directory() {
        let db = sample_db(7);
        let dir = temp_dir("snap");
        let mut store = ShardedDatabase::from_database(&db, &dir, 3).unwrap();
        store.flush().unwrap();
        let snapshot = load_snapshot(&dir).unwrap();
        assert_eq!(snapshot.generation, 1);
        assert_eq!(snapshot.shards, 3);
        assert_eq!(snapshot.backend, BackendTag::default());
        assert_eq!(snapshot.database.labels(), db.labels());
        for i in 0..db.len() {
            assert_eq!(snapshot.database.bag(i).unwrap(), db.bag(i).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn push_image_preprocesses_into_the_tail() {
        let config = RetrievalConfig {
            threads: 1,
            ..RetrievalConfig::default()
        };
        let image = GrayImage::from_fn(64, 48, |x, y| ((x * 7 + y * 13) % 223) as f32).unwrap();
        let probe = milr_core::features::image_to_bag(&image, &config).unwrap();
        let mut store = ShardedDatabase::create(temp_dir("img"), probe.dim(), 4).unwrap();
        let index = store.push_image(&image, 2, &config).unwrap();
        assert_eq!(index, 0);
        assert_eq!(store.label(0).unwrap(), 2);
        // A blank image fails with the would-be index.
        let flat = GrayImage::filled(64, 48, 3.0).unwrap();
        match store.push_image(&flat, 0, &config) {
            Err(CoreError::BlankImage { index: Some(1) }) => {}
            other => panic!("expected BlankImage at 1, got {other:?}"),
        }
    }

    #[test]
    fn screened_rank_is_bit_identical_to_exact_rank() {
        let db = sample_db(30);
        let concept = sample_concept();
        let mut store = ShardedDatabase::from_database(&db, temp_dir("screened"), 5).unwrap();
        store.delete(3).unwrap();
        store.delete(17).unwrap();
        for k in [0, 1, 2, 5, 13, 30, 50] {
            let request = RankRequest::all().top(k);
            assert_eq!(
                store.rank(&concept, &request).unwrap(),
                store.rank_exact(&concept, &request).unwrap(),
                "k {k}"
            );
        }
        assert_eq!(
            store.rank(&concept, &RankRequest::all()).unwrap(),
            store.rank_exact(&concept, &RankRequest::all()).unwrap()
        );
    }

    #[test]
    fn shared_bound_is_an_exact_fetch_min() {
        let bound = SharedBound::new();
        assert_eq!(bound.get(), f64::INFINITY);
        assert!(bound.tighten(2.5));
        assert_eq!(bound.get(), 2.5);
        assert!(!bound.tighten(3.0), "looser values must not tighten");
        assert_eq!(bound.get(), 2.5);
        assert!(bound.tighten(0.0));
        assert_eq!(bound.get(), 0.0);
        assert!(!bound.tighten(0.0), "equal values are not a tightening");
    }

    #[test]
    fn absent_sections_are_format_violations() {
        // The writer persists the quantized tier in every shard, so a
        // presence flag of 0 is refused, not rebuilt.
        let dir = temp_dir("absent_sections");
        let mut store = ShardedDatabase::from_database(&sample_db(4), &dir, 4).unwrap();
        store.flush().unwrap();
        let shard_path = dir.join(shard_file_name(0));
        let clean = std::fs::read(&shard_path).unwrap();
        let flag_at = clean.len() - 8 - tier_section_len(&store.shards[0]);
        let mut bytes = clean.clone();
        bytes[flag_at..flag_at + 8].copy_from_slice(&0u64.to_le_bytes());
        std::fs::write(&shard_path, &bytes).unwrap();
        match ShardedDatabase::open(&dir).unwrap_err() {
            CoreError::Storage { reason, .. } => {
                assert!(
                    reason.contains("quantized-tier flag 0"),
                    "reason {reason:?}"
                );
            }
            other => panic!("expected CoreError::Storage, got {other:?}"),
        }
        std::fs::write(&shard_path, &clean).unwrap();
        ShardedDatabase::open(&dir).expect("restored store opens again");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_shard_header_fails_cleanly() {
        // A checksum-valid manifest declaring dimension 10^8 and a shard
        // declaring 10^6 such instances — 4 × 10^14 payload bytes — that
        // then ends early. The reader must allocate only what it reads
        // and fail with a storage error, not abort the process.
        let dir = temp_dir("oversized");
        std::fs::create_dir_all(&dir).unwrap();
        let dim = 100_000_000u64;
        let instances = 1_000_000u64;
        let path = dir.join(MANIFEST_FILE);
        let mut w = Stream::new(BufWriter::new(std::fs::File::create(&path).unwrap()), &path);
        w.write_header(MANIFEST_KIND, STORE_VERSION).unwrap();
        for field in [dim, 1, 1, 1, 0, 1, instances, 0, 0] {
            // dim, generation, capacity, shard count, then shard 0's
            // {id, bags, instances, digest}, then no tombstones.
            w.write_u64(field).unwrap();
        }
        w.write_u64(10).unwrap();
        w.write_all(b"gray-block").unwrap();
        w.write_u64(0).unwrap();
        w.finish().unwrap();
        drop(w);
        read_manifest(&dir).expect("the manifest itself is well-formed");

        let path = dir.join(shard_file_name(0));
        let mut w = Stream::new(BufWriter::new(std::fs::File::create(&path).unwrap()), &path);
        w.write_header(SHARD_KIND, STORE_VERSION).unwrap();
        for field in [0, dim, 1, 0, instances] {
            // id, dim, bag count, then bag 0's {label, instances}.
            w.write_u64(field).unwrap();
        }
        w.write_all(&[0u8; 4096]).unwrap();
        w.finish().unwrap();
        drop(w);
        let err = ShardedDatabase::open(&dir).unwrap_err();
        assert!(matches!(err, CoreError::Storage { .. }), "got {err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// On-disk length of a shard's quantized-tier section (flag +
    /// per-instance parameters + codes), the last before the checksum.
    fn tier_section_len(shard: &Shard) -> usize {
        8 + shard.bags.stored_instance_count() * (16 + shard.bags.dim())
    }

    #[test]
    fn corrupt_quantized_tier_is_rejected() {
        // Flip bits inside the quantized-tier section specifically:
        // the shard checksum must catch every one.
        let dir = temp_dir("corrupt_tier");
        let db = sample_db(4);
        let mut store = ShardedDatabase::from_database(&db, &dir, 4).unwrap();
        store.flush().unwrap();
        let shard_path = dir.join(shard_file_name(0));
        let clean = std::fs::read(&shard_path).unwrap();
        // The tier section spans from the flag to the end of the codes,
        // followed by the trailing 8-byte checksum.
        let tier_len = tier_section_len(&store.shards[0]);
        let tier_start = clean.len() - 8 - tier_len;
        for offset in (tier_start..tier_start + tier_len).step_by(3) {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x40;
            std::fs::write(&shard_path, &bytes).unwrap();
            assert!(
                ShardedDatabase::open(&dir).is_err(),
                "tier corruption at byte {offset} loaded silently"
            );
        }
        std::fs::write(&shard_path, &clean).unwrap();
        ShardedDatabase::open(&dir).expect("restored store opens again");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_rankings_is_an_ordered_merge() {
        let merged = merge_rankings(
            vec![
                vec![(0, 0.5), (3, 2.0)],
                vec![(1, 0.5), (2, 1.0)],
                Vec::new(),
            ],
            None,
        );
        // Equal distances break by index: 0 before 1.
        assert_eq!(merged, vec![(0, 0.5), (1, 0.5), (2, 1.0), (3, 2.0)]);
        let truncated = merge_rankings(vec![vec![(0, 0.5)], vec![(1, 0.25)]], Some(1));
        assert_eq!(truncated, vec![(1, 0.25)]);
    }
}
