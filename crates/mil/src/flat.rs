//! Contiguous structure-of-arrays instance storage.
//!
//! [`Bag`] keeps each instance in its own `Vec<f32>` — natural for
//! construction, hostile to the DD hot loops: every instance visit chases
//! a pointer and every element pays an `f32 → f64` conversion. A
//! [`FlatDataset`] is built **once** per training run instead: all
//! instances of all bags are widened to `f64` and packed into one
//! contiguous buffer, with a per-bag `(offset, len)` span. The DD kernels
//! then stream over cache-line-friendly memory with zero conversions and
//! zero indirection.
//!
//! Layout: instance-major. Bag `b`'s span `(offset, len)` means its
//! instances occupy `data[offset*k .. (offset+len)*k]`, each instance a
//! `k`-element slice. Positive bags come first, then negative bags, so a
//! span index `< positive_count` is positive — matching the iteration
//! order of [`MilDataset::positives`]/[`MilDataset::negatives`].

use crate::bag::{Bag, MilDataset};
use crate::concept::Concept;
use crate::kernel::{self, QuantParams, QuantQuery, TwinQuery};
use crate::mirror::Mirror;

/// Location of one bag inside a [`FlatDataset`] or [`FlatBags`] buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BagSpan {
    /// First stored instance index (multiply by `dim` for the element
    /// offset).
    pub offset: usize,
    /// Number of stored instances.
    pub len: usize,
    /// Whether each stored instance `x` stands for the mirror pair
    /// `[x, P·x]` (see [`FlatBags`]); always false in a [`FlatDataset`].
    pub paired: bool,
}

impl BagSpan {
    /// Number of instances the bag holds: twice the stored ones when
    /// paired.
    #[inline]
    pub fn instance_count(&self) -> usize {
        self.len << usize::from(self.paired)
    }
}

/// All instances of a [`MilDataset`], widened to `f64` and packed
/// contiguously.
#[derive(Debug, Clone)]
pub struct FlatDataset {
    data: Vec<f64>,
    spans: Vec<BagSpan>,
    positive_count: usize,
    dim: usize,
}

impl FlatDataset {
    /// Packs a dataset. Returns `None` when the dataset is empty (its
    /// dimension, and therefore the layout, is undefined).
    pub(crate) fn from_dataset(dataset: &MilDataset) -> Option<Self> {
        let dim = dataset.dim()?;
        let mut flat = Self {
            data: Vec::with_capacity(dataset.instance_count() * dim),
            spans: Vec::with_capacity(dataset.len()),
            positive_count: dataset.positives().len(),
            dim,
        };
        for bag in dataset.positives().iter().chain(dataset.negatives()) {
            flat.push_bag(bag);
        }
        Some(flat)
    }

    fn push_bag(&mut self, bag: &Bag) {
        debug_assert_eq!(bag.dim(), self.dim);
        let offset = self.data.len() / self.dim;
        for instance in bag.instances() {
            self.data.extend(instance.iter().map(|&v| f64::from(v)));
        }
        self.spans.push(BagSpan {
            offset,
            len: bag.len(),
            paired: false,
        });
    }

    /// Feature dimension `k`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of bags (positive + negative).
    #[inline]
    pub fn bag_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of positive bags (spans `0..positive_count` are positive).
    #[inline]
    pub fn positive_count(&self) -> usize {
        self.positive_count
    }

    /// Whether span `bag` belongs to a positive bag.
    #[inline]
    pub(crate) fn is_positive(&self, bag: usize) -> bool {
        bag < self.positive_count
    }

    /// The span of one bag.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    #[inline]
    pub fn span(&self, bag: usize) -> BagSpan {
        self.spans[bag]
    }

    /// All instances of one bag as a single contiguous slice of
    /// `span.len × dim` elements.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    #[inline]
    pub fn bag_instances(&self, bag: usize) -> &[f64] {
        let span = self.spans[bag];
        &self.data[span.offset * self.dim..(span.offset + span.len) * self.dim]
    }

    /// One instance as a `dim`-element slice.
    ///
    /// # Panics
    /// Panics if the indices are out of range.
    #[inline]
    pub fn instance(&self, bag: usize, index: usize) -> &[f64] {
        let span = self.spans[bag];
        assert!(index < span.len, "instance index out of range");
        let start = (span.offset + index) * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Total instance count across all bags.
    #[inline]
    pub fn instance_count(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Every instance of every bag, in span order: `instance_count × dim`
    /// elements.
    #[inline]
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }
}

/// Per-instance counters of one screened bag scan: how many instances
/// the quantized tier rejected outright versus re-scored exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Instances the quantized lower bound proved hopeless — the exact
    /// kernel never ran.
    pub screened: u64,
    /// Instances that survived the screen and were re-scored by the
    /// exact kernel.
    pub rescored: u64,
}

impl ScreenStats {
    /// Folds another scan's counters into this one.
    pub fn merge(&mut self, other: ScreenStats) {
        self.screened += other.screened;
        self.rescored += other.rescored;
    }
}

/// Reusable buffers of a screened scan: per-instance screen thresholds
/// and the fused kernel's survivor list. One scratch serves any number
/// of [`FlatBags::min_distance_sq_below_screened`] calls — keep it
/// alive across a whole shard scan so the buffers stop allocating after
/// the largest bag.
#[derive(Debug, Clone, Default)]
pub struct ScreenScratch {
    thresholds32: Vec<f32>,
    survivors: Vec<u32>,
    /// Bags left to scan exactly before re-probing the screen — set by
    /// the adaptive gate after an ineffective screen (see
    /// [`FlatBags::min_distance_sq_below_screened`]).
    penalty: u32,
    /// Consecutive ineffective screens; drives exponential backoff.
    bad_streak: u32,
}

/// A concept prepared for screening one [`FlatBags`] store: the
/// [`QuantQuery`] of `(t, w)` for the stored instances, and — when the
/// store's dimension mirrors — the query of `(P·t, P·w)` that screens
/// their twins against the same codes.
#[derive(Debug, Clone)]
pub struct ScreenQuery {
    direct: QuantQuery,
    twin: Option<TwinQuery>,
}

/// The quantized tier of a [`FlatBags`] buffer: `i8` codes plus
/// per-instance affine parameters for every stored instance, built
/// incrementally as bags are pushed (or restored from a shard file).
///
/// The codes live only in the transposed group layout the screen reads:
/// for every group of [`kernel::SCREEN_GROUP`] consecutive stored
/// instances within one bag, the group's codes in dimension-major order
/// (8 consecutive codes are the members' values for one dimension). A
/// bag's last group is padded up to [`kernel::SCREEN_GROUP`] lanes with
/// zero codes and parameters — the screen skips pad lanes, so every
/// stored instance rides the transposed kernel. The
/// instance-major codes a shard file holds are derived from this layout
/// when the file is written ([`FlatBags::quant_codes`]).
#[derive(Debug, Clone, Default)]
struct QuantTier {
    /// Reconstruction radius per stored instance.
    radius: Vec<f64>,
    /// Tier-wide `max |bias|`, feeding the screen's magnitude bound.
    max_abs_bias: f32,
    /// Tier-wide `max scale`, feeding the screen's magnitude bound.
    max_scale: f32,
    /// Group codes, `SCREEN_GROUP × dim` per group.
    gcodes: Vec<i8>,
    /// Group members' biases, `SCREEN_GROUP` lanes per group.
    gbias: Vec<f32>,
    /// Group members' scales, `SCREEN_GROUP` lanes per group.
    gscale: Vec<f32>,
    /// Cumulative group counts at bag boundaries: bag `b`'s groups are
    /// `group_start[b]..group_start[b + 1]` (`bag_count + 1` entries once
    /// the first bag is in).
    group_start: Vec<u32>,
}

impl QuantTier {
    /// Opens the groups of one new bag of `len` stored instances (all
    /// lanes zero) and returns its first group's lane index.
    fn open_bag(&mut self, len: usize, dim: usize) -> usize {
        if self.group_start.is_empty() {
            self.group_start.push(0);
        }
        let groups = len.div_ceil(kernel::SCREEN_GROUP);
        let lane = self.gbias.len();
        let lanes = lane + groups * kernel::SCREEN_GROUP;
        self.gbias.resize(lanes, 0.0);
        self.gscale.resize(lanes, 0.0);
        self.gcodes.resize(lanes * dim, 0);
        let last = *self.group_start.last().expect("seeded above");
        self.group_start.push(last + groups as u32);
        lane
    }

    /// Places stored instance `s` of the bag whose groups start at lane
    /// `first`: its instance-major `codes` go to their group lane, its
    /// parameters to the lane and radius arrays.
    fn place(&mut self, first: usize, s: usize, codes: &[i8], p: QuantParams) {
        let dim = codes.len();
        let lane = first + s;
        let (group, l) = (lane / kernel::SCREEN_GROUP, lane % kernel::SCREEN_GROUP);
        let base = group * kernel::SCREEN_GROUP * dim;
        for (j, &c) in codes.iter().enumerate() {
            self.gcodes[base + j * kernel::SCREEN_GROUP + l] = c;
        }
        self.gbias[lane] = p.bias;
        self.gscale[lane] = p.scale;
        self.radius.push(p.radius);
        self.max_abs_bias = self.max_abs_bias.max(p.bias.abs());
        self.max_scale = self.max_scale.max(p.scale);
    }

    /// Quantizes one bag's stored instances (`len × dim` values) into
    /// new groups.
    fn quantize_bag(&mut self, stored: &[f32], dim: usize) {
        let first = self.open_bag(stored.len() / dim, dim);
        let mut codes = Vec::with_capacity(dim);
        for (s, instance) in stored.chunks_exact(dim).enumerate() {
            codes.clear();
            let p = kernel::quantize_instance(instance, &mut codes);
            self.place(first, s, &codes, p);
        }
    }
}

/// Ranking-side flat storage: many bags packed into one contiguous
/// `f32` buffer with per-bag spans — the in-memory layout of a sharded
/// snapshot shard, loadable straight from disk with no per-bag
/// re-normalisation or widening.
///
/// Unlike [`FlatDataset`] (the *training*-side layout, widened to `f64`
/// for the DD kernels), `FlatBags` keeps the native `f32` features so
/// its instance slices feed [`Concept::instance_distance_sq_below`]
/// directly — the exact kernel the monolithic ranking path runs, which
/// is what makes scatter-gather rankings bit-identical to monolithic
/// ones by construction.
///
/// **Mirror pairs are stored once.** A bag whose instances come in
/// bitwise mirror pairs `[x₀, P·x₀, x₁, P·x₁, …]` (see [`Mirror`]; every
/// gray-block bag does) keeps only its even instances and a `paired`
/// flag in its [`BagSpan`]. Scoring reads each twin `P·x` through the
/// mirror's index table (`Concept::mirrored_distance_sq_below`), which
/// is bit-identical to the kernel over the stored twin; [`Self::to_bag`]
/// expands the pairs back. Any other bag is stored whole. `data()` and
/// `spans()` describe what is stored; [`Self::instance_count`] and
/// [`BagSpan::instance_count`] count the bag's instances.
///
/// Every store also maintains a quantized tier: an `i8` affine mirror
/// of each stored instance (see [`kernel::quantize_instance`]) whose
/// provable distance lower bound lets
/// [`Self::min_distance_sq_below_screened`] reject hopeless instances —
/// and twins, through the query `(P·t, P·w)` — without running the exact
/// kernel. The tier is built incrementally on push — quantization is
/// deterministic, so a rebuilt tier is byte-identical to a persisted one.
#[derive(Debug, Clone, Default)]
pub struct FlatBags {
    data: Vec<f32>,
    spans: Vec<BagSpan>,
    dim: usize,
    /// The mirror permutation when `dim` is a square.
    mirror: Option<Mirror>,
    quant: QuantTier,
}

impl FlatBags {
    /// An empty store for `dim`-dimensional features.
    ///
    /// # Panics
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be non-zero");
        Self {
            data: Vec::new(),
            spans: Vec::new(),
            dim,
            mirror: Mirror::for_dim(dim),
            quant: QuantTier::default(),
        }
    }

    /// Appends one bag, copying its instances (the even ones of a
    /// mirror-closed bag) into the flat buffer and quantizing them into
    /// the tier. Returns the bag's index.
    ///
    /// # Panics
    /// Panics on a feature-dimension mismatch.
    pub fn push_bag(&mut self, bag: &Bag) -> usize {
        assert_eq!(bag.dim(), self.dim, "bag has wrong dimension");
        let paired = self
            .mirror
            .as_ref()
            .is_some_and(|m| m.closes(bag.instances()));
        let start = self.data.len();
        for instance in bag.instances().step_by(1 + usize::from(paired)) {
            self.data.extend_from_slice(instance);
        }
        self.seal_bag(start, paired)
    }

    /// Appends a copy of bag `bag` of `other` as stored — its stored
    /// instances and pairing — re-deriving its tier. Returns the bag's
    /// index here.
    ///
    /// # Panics
    /// Panics if `bag` is out of range or the dimensions differ.
    pub fn push_from(&mut self, other: &FlatBags, bag: usize) -> usize {
        assert_eq!(other.dim, self.dim, "bag has wrong dimension");
        let start = self.data.len();
        self.data.extend_from_slice(other.bag_instances(bag));
        self.seal_bag(start, other.spans[bag].paired)
    }

    /// Records the stored instances appended at `data[start..]` as one
    /// bag and quantizes them.
    fn seal_bag(&mut self, start: usize, paired: bool) -> usize {
        let span = BagSpan {
            offset: start / self.dim,
            len: (self.data.len() - start) / self.dim,
            paired,
        };
        self.quant.quantize_bag(&self.data[start..], self.dim);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Rebuilds a store from persisted parts: the flat buffer of stored
    /// instances, per-bag `(stored instance count, paired)` shapes, and
    /// the quantized tier exactly as a shard file stores it
    /// (instance-major codes, one parameter set per stored instance) —
    /// no re-quantization.
    ///
    /// # Errors
    /// A description of the inconsistency when the parts disagree:
    /// ragged data, length mismatches between data/codes/params, a
    /// paired bag of a dimension that does not mirror, or implausible
    /// parameters (non-finite, negative radius or scale).
    pub fn from_parts(
        dim: usize,
        data: Vec<f32>,
        bags: &[(usize, bool)],
        codes: &[i8],
        params: &[QuantParams],
    ) -> Result<Self, String> {
        if dim == 0 {
            return Err("feature dimension must be non-zero".into());
        }
        if !data.len().is_multiple_of(dim) {
            return Err("flat data is not a multiple of the dimension".into());
        }
        let stored = data.len() / dim;
        let total: usize = bags.iter().map(|&(len, _)| len).sum();
        if total != stored {
            return Err(format!(
                "bag spans cover {total} instances but the data holds {stored}"
            ));
        }
        if bags.iter().any(|&(len, _)| len == 0) {
            return Err("a bag must hold at least one instance".into());
        }
        let mut flat = Self::new(dim);
        if flat.mirror.is_none() && bags.iter().any(|&(_, paired)| paired) {
            return Err(format!("a paired bag needs a square dimension, not {dim}"));
        }
        if codes.len() != data.len() {
            return Err(format!(
                "quantized tier holds {} codes for {} values",
                codes.len(),
                data.len()
            ));
        }
        if params.len() != stored {
            return Err(format!(
                "quantized tier holds {} parameter sets for {stored} instances",
                params.len()
            ));
        }
        for p in params {
            if !p.bias.is_finite() || !p.scale.is_finite() || !p.radius.is_finite() {
                return Err("quantization parameters must be finite".into());
            }
            if p.scale < 0.0 || p.radius < 0.0 {
                return Err("quantization scale and radius must be non-negative".into());
            }
        }
        let mut offset = 0;
        for &(len, paired) in bags {
            let first = flat.quant.open_bag(len, dim);
            for s in 0..len {
                let i = offset + s;
                flat.quant
                    .place(first, s, &codes[i * dim..(i + 1) * dim], params[i]);
            }
            flat.spans.push(BagSpan {
                offset,
                len,
                paired,
            });
            offset += len;
        }
        flat.data = data;
        Ok(flat)
    }

    /// Feature dimension `k`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of bags.
    #[inline]
    pub fn bag_count(&self) -> usize {
        self.spans.len()
    }

    /// Whether the store holds no bags.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total instance count across all bags, twins included.
    pub fn instance_count(&self) -> usize {
        self.spans.iter().map(BagSpan::instance_count).sum()
    }

    /// Number of instances actually stored (twins excluded).
    #[inline]
    pub fn stored_instance_count(&self) -> usize {
        self.data.len() / self.dim
    }

    /// The span of one bag.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    #[inline]
    pub fn span(&self, bag: usize) -> BagSpan {
        self.spans[bag]
    }

    /// One bag's stored instances as a single contiguous slice of
    /// `span.len × dim` elements.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    #[inline]
    pub fn bag_instances(&self, bag: usize) -> &[f32] {
        let span = self.spans[bag];
        &self.data[span.offset * self.dim..(span.offset + span.len) * self.dim]
    }

    /// One bag's stored instances, each a `dim`-element slice.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    #[inline]
    pub fn instances(&self, bag: usize) -> impl Iterator<Item = &[f32]> {
        self.bag_instances(bag).chunks_exact(self.dim)
    }

    /// Rebuilds one bag as an owned [`Bag`] (the monolithic
    /// representation), mirror twins expanded — bitwise the bag that was
    /// pushed.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    pub fn to_bag(&self, bag: usize) -> Bag {
        let mut instances = Vec::with_capacity(self.spans[bag].instance_count());
        for x in self.instances(bag) {
            instances.push(x.to_vec());
            if self.spans[bag].paired {
                instances.push(self.mirror().apply(x));
            }
        }
        Bag::new(instances).expect("flat bags are non-empty and dimension-consistent")
    }

    /// The whole buffer of stored instances, bag-major — what a shard
    /// file serialises.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// All spans, in bag order.
    #[inline]
    pub fn spans(&self) -> &[BagSpan] {
        &self.spans
    }

    /// The mirror of a store holding paired bags.
    fn mirror(&self) -> &Mirror {
        self.mirror
            .as_ref()
            .expect("paired bags only exist in a store whose dimension mirrors")
    }

    /// Minimum weighted squared distance from the concept's ideal point
    /// to the bag's instances — the §3.5 ranking key, computed by the
    /// *same* pruned instance kernel as [`Concept::bag_distance_sq`], so
    /// the result is bit-identical to scoring the equivalent [`Bag`].
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()` or the concept's dimension
    /// differs.
    pub fn min_distance_sq(&self, concept: &Concept, bag: usize) -> f64 {
        self.min_distance_sq_below(concept, bag, f64::INFINITY)
            .unwrap_or(f64::INFINITY)
    }

    /// Pruned bag distance against an external candidate bound: returns
    /// `Some(d)` iff the bag's min-distance is strictly below `bound` —
    /// the mirror of [`Concept::bag_distance_sq_below`] over the flat
    /// layout, instance for instance (each twin right after its source,
    /// in the pushed bag's order).
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()` or the concept's dimension
    /// differs.
    pub fn min_distance_sq_below(&self, concept: &Concept, bag: usize, bound: f64) -> Option<f64> {
        let mut best = f64::INFINITY;
        let paired = self.spans[bag].paired;
        for x in self.instances(bag) {
            if let Some(d) = concept.instance_distance_sq_below(x, best.min(bound)) {
                best = d;
            }
            if paired {
                if let Some(d) =
                    concept.mirrored_distance_sq_below(x, self.mirror(), best.min(bound))
                {
                    best = d;
                }
            }
        }
        (best < bound).then_some(best)
    }

    /// The bag's ranking key under an arbitrary
    /// [`BagAggregator`](crate::aggregate::BagAggregator) — the flat
    /// mirror of [`Concept::bag_aggregate`], instance for instance, so
    /// the two are bit-identical for every bag (same kernel, same fold,
    /// same order: each twin's distance right after its source's).
    ///
    /// Min-distance routes through the pruned [`Self::min_distance_sq`]
    /// untouched; everything else runs the exact unpruned kernel over
    /// every instance (no screen — its proof only bounds the
    /// minimum). `scratch` is a reusable distance buffer.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()` or the concept's dimension
    /// differs.
    pub fn aggregate_distance(
        &self,
        concept: &Concept,
        bag: usize,
        aggregator: crate::aggregate::BagAggregator,
        scratch: &mut Vec<f64>,
    ) -> f64 {
        if aggregator.is_min() {
            return self.min_distance_sq(concept, bag);
        }
        scratch.clear();
        let paired = self.spans[bag].paired;
        for x in self.instances(bag) {
            scratch.push(concept.instance_distance_sq(x));
            if paired {
                scratch.push(concept.mirrored_distance_sq(x, self.mirror()));
            }
        }
        aggregator.fold(scratch)
    }

    /// Prepares the concept for screening against this store's
    /// quantized tier — compute once per (concept, store) pair, then
    /// pass to every [`Self::min_distance_sq_below_screened`] call.
    ///
    /// # Panics
    /// Panics if the concept's dimension differs from the store's.
    pub fn quant_query(&self, concept: &Concept) -> ScreenQuery {
        assert_eq!(concept.dim(), self.dim, "concept has wrong dimension");
        let query = |point: &[f64], weights: &[f64]| {
            QuantQuery::new(
                point,
                weights,
                self.quant.max_abs_bias,
                self.quant.max_scale,
            )
        };
        let mut direct = query(concept.point(), concept.weights());
        let twin = self.mirror.as_ref().map(|m| {
            let twin = query(&m.apply(concept.point()), &m.apply(concept.weights()));
            TwinQuery::new(&mut direct, twin)
        });
        ScreenQuery { direct, twin }
    }

    /// [`Self::min_distance_sq_below`] with the quantized screen in
    /// front of the exact kernel: the whole bag is screened by the
    /// transposed [`kernel::screen_groups`] kernel against the
    /// caller's bound at bag entry; only survivors are re-scored
    /// exactly. A screened-out instance *provably* scores at or above
    /// the entry bound (see [`QuantQuery`]), which is at least as tight
    /// as any bound the unscreened scan would have used for it (the
    /// running best only tightens) — so the exact kernel would have
    /// rejected it too, and the return value is bit-identical to the
    /// unscreened scan for every input.
    ///
    /// A paired bag screens both halves in one pass
    /// (`kernel::screen_group_pairs`): in real arithmetic
    /// `d(t, w; P·x) = d(P·t, P·w; x)`, so the twin's certified lower
    /// bound is the ordinary screen of the query `(P·t, P·w)` against
    /// `x`'s own codes and radius.
    ///
    /// `stats` accumulates how many instances (twins included) each side
    /// of the screen handled; `scratch` is reusable across calls.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()` or the concept's dimension
    /// differs.
    pub fn min_distance_sq_below_screened(
        &self,
        concept: &Concept,
        query: &ScreenQuery,
        bag: usize,
        bound: f64,
        stats: &mut ScreenStats,
        scratch: &mut ScreenScratch,
    ) -> Option<f64> {
        // Screening certifies skips against the caller's inter-bag
        // bound. Without a finite one (the top-k heap is still filling,
        // or a full ranking was requested) no instance can be skipped,
        // and when recent screens rejected too little (the bound is
        // still loose) screening only adds quantized work on top of the
        // exact scan it cannot avoid — the adaptive gate backs off
        // exponentially and re-probes once the penalty drains. Neither
        // gate changes the result: screening only decides which
        // instances the exact kernel gets to reject itself.
        if !bound.is_finite() {
            return self.min_distance_sq_below(concept, bag, bound);
        }
        if scratch.penalty > 0 {
            scratch.penalty -= 1;
            return self.min_distance_sq_below(concept, bag, bound);
        }
        let span = self.spans[bag];
        let mut best = f64::INFINITY;
        // The screen bound is fixed at bag entry rather than chasing the
        // running best: the entry bound is at least as large as any
        // later running `best.min(bound)` (best only tightens), so a
        // skip certified against it is also valid against every later
        // running bound — and fixing it lets the whole bag screen in one
        // transposed kernel call with precomputed thresholds.
        let gfirst = self.quant.group_start[bag] as usize;
        let glast = self.quant.group_start[bag + 1] as usize;
        let (first, last) = (gfirst * kernel::SCREEN_GROUP, glast * kernel::SCREEN_GROUP);
        let radius = &self.quant.radius[span.offset..span.offset + span.len];
        // One threshold per stored instance serves its twin too: the
        // twin query shares the direct query's slack terms.
        let sq = query.direct.sqrt_bound(bound);
        scratch.thresholds32.clear();
        scratch.thresholds32.extend(
            radius
                .iter()
                .map(|&r| QuantQuery::threshold32(query.direct.threshold_with(sq, r))),
        );
        scratch.survivors.clear();
        let gcodes = &self.quant.gcodes[first * self.dim..last * self.dim];
        let (gbias, gscale) = (
            &self.quant.gbias[first..last],
            &self.quant.gscale[first..last],
        );
        if span.paired {
            let twin = query
                .twin
                .as_ref()
                .expect("the screen query of a store with paired bags has a twin");
            kernel::screen_group_pairs(
                &query.direct,
                twin,
                gcodes,
                gbias,
                gscale,
                &scratch.thresholds32,
                &mut scratch.survivors,
            );
        } else {
            kernel::screen_groups(
                &query.direct,
                gcodes,
                gbias,
                gscale,
                &scratch.thresholds32,
                &mut scratch.survivors,
            );
        }
        // Survivor `r` is stored instance `r / per`, its twin when
        // `r % per == 1`.
        let per = 1 + usize::from(span.paired);
        let mut rescored = 0u64;
        for &r in &scratch.survivors {
            let (s, twin) = (r as usize / per, r as usize % per == 1);
            rescored += 1;
            let x = &self.data[(span.offset + s) * self.dim..(span.offset + s + 1) * self.dim];
            let d = if twin {
                concept.mirrored_distance_sq_below(x, self.mirror(), best.min(bound))
            } else {
                concept.instance_distance_sq_below(x, best.min(bound))
            };
            if let Some(d) = d {
                best = d;
            }
        }
        let instances = span.instance_count() as u64;
        let screened = instances - rescored;
        stats.screened += screened;
        stats.rescored += rescored;
        // Screens that reject under half the instances they saw cost
        // more than they save; back off exponentially and re-probe later
        // in case the bound has tightened.
        if screened * 2 < instances {
            scratch.bad_streak = (scratch.bad_streak + 1).min(6);
            scratch.penalty = 1 << scratch.bad_streak;
        } else {
            scratch.bad_streak = 0;
        }
        (best < bound).then_some(best)
    }

    /// The quantized tier's codes, instance-major over the stored
    /// instances — what a shard file serialises alongside
    /// [`Self::data`], derived from the group layout on demand.
    pub fn quant_codes(&self) -> Vec<i8> {
        let mut codes = Vec::with_capacity(self.data.len());
        for (bag, span) in self.spans.iter().enumerate() {
            let first = self.quant.group_start[bag] as usize * kernel::SCREEN_GROUP;
            for s in 0..span.len {
                let lane = first + s;
                let (group, l) = (lane / kernel::SCREEN_GROUP, lane % kernel::SCREEN_GROUP);
                let base = group * kernel::SCREEN_GROUP * self.dim;
                codes.extend(
                    (0..self.dim).map(|j| self.quant.gcodes[base + j * kernel::SCREEN_GROUP + l]),
                );
            }
        }
        codes
    }

    /// The quantized tier's per-instance parameters, in stored-instance
    /// order.
    pub fn quant_params(&self) -> impl Iterator<Item = QuantParams> + '_ {
        self.spans.iter().enumerate().flat_map(move |(bag, span)| {
            let first = self.quant.group_start[bag] as usize * kernel::SCREEN_GROUP;
            (0..span.len).map(move |s| QuantParams {
                scale: self.quant.gscale[first + s],
                bias: self.quant.gbias[first + s],
                radius: self.quant.radius[span.offset + s],
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::BagLabel;

    fn bag(v: &[&[f32]]) -> Bag {
        Bag::new(v.iter().map(|s| s.to_vec()).collect()).unwrap()
    }

    fn dataset() -> MilDataset {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[1.0, 2.0], &[3.0, 4.0]]), BagLabel::Positive)
            .unwrap();
        ds.push(bag(&[&[5.0, 6.0]]), BagLabel::Negative).unwrap();
        ds.push(
            bag(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]),
            BagLabel::Positive,
        )
        .unwrap();
        ds
    }

    #[test]
    fn layout_is_positives_then_negatives() {
        let flat = FlatDataset::from_dataset(&dataset()).unwrap();
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.bag_count(), 3);
        assert_eq!(flat.positive_count(), 2);
        assert_eq!(flat.instance_count(), 6);
        assert!(flat.is_positive(0) && flat.is_positive(1) && !flat.is_positive(2));
        // Positive bags first, in dataset order…
        assert_eq!(flat.bag_instances(0), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(flat.bag_instances(1), &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        // …then negatives.
        assert_eq!(flat.bag_instances(2), &[5.0, 6.0]);
    }

    #[test]
    fn spans_are_contiguous_and_exhaustive() {
        let flat = FlatDataset::from_dataset(&dataset()).unwrap();
        let mut expected_offset = 0;
        for b in 0..flat.bag_count() {
            let span = flat.span(b);
            assert_eq!(span.offset, expected_offset);
            expected_offset += span.len;
        }
        assert_eq!(expected_offset, flat.instance_count());
    }

    #[test]
    fn instance_slices_match_the_source_bags() {
        let ds = dataset();
        let flat = FlatDataset::from_dataset(&ds).unwrap();
        for (b, bag) in ds.positives().iter().chain(ds.negatives()).enumerate() {
            assert_eq!(flat.span(b).len, bag.len());
            for (j, inst) in bag.instances().enumerate() {
                let widened: Vec<f64> = inst.iter().map(|&v| f64::from(v)).collect();
                assert_eq!(flat.instance(b, j), widened.as_slice());
            }
        }
    }

    #[test]
    fn empty_dataset_has_no_layout() {
        assert!(FlatDataset::from_dataset(&MilDataset::new()).is_none());
    }

    #[test]
    #[should_panic(expected = "instance index out of range")]
    fn out_of_range_instance_rejected() {
        let flat = FlatDataset::from_dataset(&dataset()).unwrap();
        let _ = flat.instance(1, 99);
    }

    #[test]
    fn flat_bags_round_trip_bags() {
        let bags = [
            bag(&[&[1.0, 2.0], &[3.0, 4.0]]),
            bag(&[&[5.0, 6.0]]),
            bag(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]),
        ];
        let mut flat = FlatBags::new(2);
        for (i, b) in bags.iter().enumerate() {
            assert_eq!(flat.push_bag(b), i);
        }
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.bag_count(), 3);
        assert_eq!(flat.instance_count(), 6);
        assert!(!flat.is_empty());
        for (i, b) in bags.iter().enumerate() {
            assert_eq!(&flat.to_bag(i), b);
            assert_eq!(flat.span(i).len, b.len());
            for (inst, orig) in flat.instances(i).zip(b.instances()) {
                assert_eq!(inst, orig);
            }
        }
        // The raw buffer is bag-major and contiguous.
        assert_eq!(
            flat.data(),
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]
        );
        assert_eq!(flat.spans().len(), 3);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn mismatched_bag_dimension_rejected() {
        let mut flat = FlatBags::new(3);
        flat.push_bag(&bag(&[&[1.0, 2.0]]));
    }

    #[test]
    fn screened_scan_is_bit_identical_to_unscreened() {
        let k = 19;
        let point: Vec<f64> = (0..k).map(|i| (i as f64 * 0.53).sin() * 2.0).collect();
        let weights: Vec<f64> = (0..k).map(|i| 0.05 + (i % 7) as f64 * 0.4).collect();
        let concept = Concept::new(point, weights);
        let mut flat = FlatBags::new(k);
        for n in 0..12 {
            // Bag sizes 1..=12 — sizes of 8+ exercise the transposed
            // group screen, smaller ones the per-instance path.
            let instances: Vec<Vec<f32>> = (0..=(n % 12))
                .map(|m| {
                    (0..k)
                        .map(|i| (((n * 31 + m * 17 + i * 3) % 29) as f32 - 14.0) / 3.0)
                        .collect()
                })
                .collect();
            flat.push_bag(&Bag::new(instances).unwrap());
        }
        let query = flat.quant_query(&concept);
        let mut stats = ScreenStats::default();
        let mut scratch = ScreenScratch::default();
        // Every bag, a spread of bounds including the exact distance
        // itself and bounds tight enough that the screen fires.
        for b in 0..flat.bag_count() {
            let exact = flat.min_distance_sq(&concept, b);
            for bound in [
                exact * 0.5,
                exact,
                exact * 1.001,
                exact + 10.0,
                f64::INFINITY,
            ] {
                assert_eq!(
                    flat.min_distance_sq_below_screened(
                        &concept,
                        &query,
                        b,
                        bound,
                        &mut stats,
                        &mut scratch
                    ),
                    flat.min_distance_sq_below(&concept, b, bound),
                    "bag {b}, bound {bound}"
                );
            }
        }
        // With tight bounds in the mix, the screen must have actually
        // fired — otherwise this test proves nothing about screening.
        assert!(stats.screened > 0, "screen never fired: {stats:?}");
        assert!(stats.rescored > 0, "screen rejected everything: {stats:?}");
    }

    /// The persisted parts of a store: bag shapes, codes, parameters.
    fn parts(flat: &FlatBags) -> (Vec<(usize, bool)>, Vec<i8>, Vec<QuantParams>) {
        (
            flat.spans().iter().map(|s| (s.len, s.paired)).collect(),
            flat.quant_codes(),
            flat.quant_params().collect(),
        )
    }

    #[test]
    fn persisted_tier_round_trips() {
        let k = 9;
        let mirror = Mirror::new(3);
        let mut flat = FlatBags::new(k);
        for n in 0..5 {
            let mut instances: Vec<Vec<f32>> = (0..=(n % 3))
                .map(|m| {
                    (0..k)
                        .map(|i| ((n * 13 + m * 5 + i) % 11) as f32 - 5.0)
                        .collect()
                })
                .collect();
            if n % 2 == 0 {
                // A mirror-closed bag, stored as its even half.
                instances = instances
                    .iter()
                    .flat_map(|x| [x.clone(), mirror.apply(x)])
                    .collect();
            }
            flat.push_bag(&Bag::new(instances).unwrap());
        }
        assert!(flat.span(0).paired && !flat.span(1).paired);
        let (bags, codes, params) = parts(&flat);
        let back = FlatBags::from_parts(k, flat.data().to_vec(), &bags, &codes, &params).unwrap();
        assert_eq!(back.data(), flat.data());
        assert_eq!(back.spans(), flat.spans());
        assert_eq!(parts(&back), parts(&flat));
        assert_eq!(back.quant.gcodes, flat.quant.gcodes);
        assert_eq!(back.quant.max_abs_bias, flat.quant.max_abs_bias);
        assert_eq!(back.quant.max_scale, flat.quant.max_scale);
        // The derived instance-major codes are the ones quantization
        // produces.
        let mut fresh = Vec::new();
        for x in flat.data().chunks_exact(k) {
            kernel::quantize_instance(x, &mut fresh);
        }
        assert_eq!(codes, fresh);
    }

    #[test]
    fn inconsistent_persisted_parts_rejected() {
        let k = 3;
        let mut flat = FlatBags::new(k);
        flat.push_bag(&bag(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        let data = flat.data().to_vec();
        let (_, codes, params) = parts(&flat);
        let whole = [(2, false)];
        // Ragged data.
        assert!(FlatBags::from_parts(k, vec![1.0; 4], &[(1, false)], &codes, &params).is_err());
        // Span/instance mismatch.
        assert!(FlatBags::from_parts(k, data.clone(), &[(1, false)], &codes, &params).is_err());
        // A paired bag of a dimension that does not mirror.
        assert!(FlatBags::from_parts(k, data.clone(), &[(2, true)], &codes, &params).is_err());
        // Code count mismatch.
        assert!(FlatBags::from_parts(k, data.clone(), &whole, &[0i8; 3], &params).is_err());
        // Param count mismatch.
        assert!(FlatBags::from_parts(k, data.clone(), &whole, &codes, &[]).is_err());
        // Non-finite parameter.
        let mut bad = params.clone();
        bad[0].radius = f64::NAN;
        assert!(FlatBags::from_parts(k, data.clone(), &whole, &codes, &bad).is_err());
        // Negative scale.
        let mut bad = params;
        bad[0].scale = -1.0;
        assert!(FlatBags::from_parts(k, data, &whole, &codes, &bad).is_err());
    }

    #[test]
    fn push_paths_build_identical_tiers() {
        // push_bag and push_from must derive the same store and
        // quantized tier —
        // determinism is what keeps a rewritten shard file
        // byte-identical to the one it replaces.
        let mirror = Mirror::new(2);
        let x = [1.5f32, -2.0, 0.25, 8.0];
        let y = [-3.5f32, 0.0, 7.0, 1.0];
        for b in [
            bag(&[&x, &y, &x]),
            bag(&[&x, &mirror.apply(&x), &y, &mirror.apply(&y)]),
        ] {
            let mut via_bag = FlatBags::new(4);
            via_bag.push_bag(&b);
            let mut via_copy = FlatBags::new(4);
            via_copy.push_from(&via_bag, 0);
            assert_eq!(via_bag.data(), via_copy.data());
            assert_eq!(via_bag.spans(), via_copy.spans());
            assert_eq!(parts(&via_bag), parts(&via_copy));
            assert_eq!(via_bag.to_bag(0), b);
        }
    }

    /// Bags of `k = h²` features: mirror-closed ones (even length, each
    /// odd instance `P` of the one before) and the closure's edge cases,
    /// which must be stored whole.
    fn mixed_bags(h: usize) -> Vec<Bag> {
        let k = h * h;
        let mirror = Mirror::new(h);
        let inst = |n: usize, m: usize| -> Vec<f32> {
            (0..k)
                .map(|i| (((n * 31 + m * 17 + i * 3) % 29) as f32 - 14.0) / 3.0)
                .collect()
        };
        let mut bags = Vec::new();
        for n in 0..12 {
            let pairs: Vec<Vec<f32>> = (0..=n)
                .flat_map(|m| {
                    let x = inst(n, m);
                    [mirror.apply(&x), x]
                })
                .collect();
            bags.push(Bag::new(pairs.clone()).unwrap());
            // Odd length: the last twin dropped.
            bags.push(Bag::new(pairs[..pairs.len() - 1].to_vec()).unwrap());
            // One flipped bit in one twin.
            let mut flipped = pairs.clone();
            let last = flipped.len() - 1;
            flipped[last][n % k] = f32::from_bits(flipped[last][n % k].to_bits() ^ 1);
            bags.push(Bag::new(flipped).unwrap());
        }
        bags
    }

    #[test]
    fn mirror_pairs_are_stored_once_and_expand_bitwise() {
        let bags = mixed_bags(3);
        let mut flat = FlatBags::new(9);
        for b in &bags {
            flat.push_bag(b);
        }
        for (i, b) in bags.iter().enumerate() {
            let span = flat.span(i);
            // Every third bag is the closed one.
            assert_eq!(span.paired, i % 3 == 0, "bag {i}");
            assert_eq!(span.instance_count(), b.len());
            assert_eq!(span.len, if span.paired { b.len() / 2 } else { b.len() });
            assert_eq!(&flat.to_bag(i), b, "bag {i}");
        }
        assert_eq!(
            flat.instance_count(),
            bags.iter().map(Bag::len).sum::<usize>()
        );
        assert!(flat.stored_instance_count() < flat.instance_count());
        // A dimension that is not a square never pairs.
        let mut flat = FlatBags::new(2);
        flat.push_bag(&bag(&[&[1.0, 2.0], &[2.0, 1.0]]));
        assert!(!flat.span(0).paired);
    }

    #[test]
    fn paired_scoring_is_bit_identical_to_bag_scoring() {
        use crate::aggregate::BagAggregator;
        let (h, k) = (5, 25);
        let concept = Concept::new(
            (0..k).map(|i| (i as f64 * 0.53).sin() * 2.0).collect(),
            (0..k).map(|i| 0.05 + (i % 7) as f64 * 0.4).collect(),
        );
        let bags = mixed_bags(h);
        let mut flat = FlatBags::new(k);
        for b in &bags {
            flat.push_bag(b);
        }
        let query = flat.quant_query(&concept);
        let mut stats = ScreenStats::default();
        let mut agg_scratch = Vec::new();
        let mut concept_scratch = Vec::new();
        for (i, b) in bags.iter().enumerate() {
            let exact = concept.bag_distance_sq(b);
            assert_eq!(flat.min_distance_sq(&concept, i).to_bits(), exact.to_bits());
            for bound in [
                exact * 0.5,
                exact,
                exact * 1.001,
                exact + 10.0,
                f64::INFINITY,
            ] {
                let want = concept.bag_distance_sq_below(b, bound);
                assert_eq!(flat.min_distance_sq_below(&concept, i, bound), want);
                // Fresh scratch per call: the adaptive gate must not
                // route the tight bounds to the exact path.
                let mut scratch = ScreenScratch::default();
                assert_eq!(
                    flat.min_distance_sq_below_screened(
                        &concept,
                        &query,
                        i,
                        bound,
                        &mut stats,
                        &mut scratch
                    ),
                    want,
                    "bag {i}, bound {bound}"
                );
            }
            for agg in BagAggregator::ALL {
                assert_eq!(
                    flat.aggregate_distance(&concept, i, agg, &mut agg_scratch)
                        .to_bits(),
                    concept
                        .bag_aggregate(b, agg, &mut concept_scratch)
                        .to_bits(),
                    "{agg}, bag {i}"
                );
            }
        }
        assert!(stats.screened > 0, "screen never fired: {stats:?}");
        assert!(stats.rescored > 0, "screen rejected everything: {stats:?}");
    }

    #[test]
    fn aggregate_scoring_matches_concept_fold_bit_for_bit() {
        use crate::aggregate::BagAggregator;
        let k = 9;
        let concept = Concept::new(
            (0..k).map(|i| (i as f64 * 0.29).cos()).collect(),
            (0..k).map(|i| 0.2 + (i % 3) as f64 * 0.5).collect(),
        );
        let bags: Vec<Bag> = (0..6)
            .map(|n| {
                Bag::new(
                    (0..=(n % 4))
                        .map(|m| {
                            (0..k)
                                .map(|i| ((n * 19 + m * 7 + i * 5) % 17) as f32 / 4.0 - 2.0)
                                .collect()
                        })
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let mut flat = FlatBags::new(k);
        for b in &bags {
            flat.push_bag(b);
        }
        let mut scratch = Vec::new();
        let mut concept_scratch = Vec::new();
        for agg in BagAggregator::ALL {
            for (i, b) in bags.iter().enumerate() {
                let via_flat = flat.aggregate_distance(&concept, i, agg, &mut scratch);
                let via_bag = concept.bag_aggregate(b, agg, &mut concept_scratch);
                assert_eq!(via_flat, via_bag, "{agg}, bag {i}");
                // Naive reference: exact instance distances, folded.
                let dists: Vec<f64> = b
                    .instances()
                    .map(|inst| concept.instance_distance_sq(inst))
                    .collect();
                assert_eq!(via_flat, agg.fold(&dists), "{agg}, bag {i} vs naive");
                assert!(via_flat.is_finite() && via_flat >= 0.0);
            }
        }
        // The min arm really is the pruned kernel's key.
        for i in 0..bags.len() {
            assert_eq!(
                flat.aggregate_distance(&concept, i, BagAggregator::MinDistance, &mut scratch),
                flat.min_distance_sq(&concept, i)
            );
        }
    }

    #[test]
    fn flat_scoring_is_bit_identical_to_bag_scoring() {
        // Multi-stride instances (19 dims) exercise the pruned kernel's
        // stride loop; scores must match the Bag path bit for bit.
        let k = 19;
        let point: Vec<f64> = (0..k).map(|i| (i as f64 * 0.37).sin()).collect();
        let weights: Vec<f64> = (0..k).map(|i| 0.1 + (i % 5) as f64 * 0.3).collect();
        let concept = Concept::new(point, weights);
        let bags: Vec<Bag> = (0..5)
            .map(|n| {
                Bag::new(
                    (0..=n)
                        .map(|m| {
                            (0..k)
                                .map(|i| ((n * 31 + m * 17 + i * 3) % 23) as f32 / 7.0)
                                .collect()
                        })
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let mut flat = FlatBags::new(k);
        for b in &bags {
            flat.push_bag(b);
        }
        for (i, b) in bags.iter().enumerate() {
            let reference = concept.bag_distance_sq(b);
            assert_eq!(flat.min_distance_sq(&concept, i), reference);
            // The bounded variant agrees with the Bag-side bounded
            // variant for bounds below, at, and above the true distance.
            for bound in [reference * 0.5, reference, reference + 1.0, f64::INFINITY] {
                assert_eq!(
                    flat.min_distance_sq_below(&concept, i, bound),
                    concept.bag_distance_sq_below(b, bound),
                    "bag {i}, bound {bound}"
                );
            }
        }
    }
}
