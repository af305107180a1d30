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
use crate::index::CoarseIndex;
use crate::kernel::{self, QuantParams, QuantQuery};

/// Location of one bag inside a [`FlatDataset`] buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BagSpan {
    /// First instance index (multiply by `dim` for the element offset).
    pub offset: usize,
    /// Number of instances in the bag.
    pub len: usize,
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
    pub fn from_dataset(dataset: &MilDataset) -> Option<Self> {
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
    pub fn is_positive(&self, bag: usize) -> bool {
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

/// The quantized mirror of a [`FlatBags`] buffer: `i8` codes plus
/// per-instance affine parameters, built incrementally as bags are
/// pushed (or restored verbatim from a shard file).
#[derive(Debug, Clone, Default)]
struct QuantTier {
    /// `instance_count × dim` codes, instance-major like the `f32` data.
    codes: Vec<i8>,
    /// One affine `(scale, bias, radius)` triple per instance.
    params: Vec<QuantParams>,
    /// Tier-wide `max |bias|`, feeding the screen's magnitude bound.
    max_abs_bias: f32,
    /// Tier-wide `max scale`, feeding the screen's magnitude bound.
    max_scale: f32,
    /// Transposed group mirror of `codes` for the vectorized screen:
    /// for every full group of [`kernel::SCREEN_GROUP`] consecutive
    /// instances within one bag, the group's codes in dimension-major
    /// order (8 consecutive codes are the members' values for one
    /// dimension). Derived from `codes` — never persisted; a rebuilt
    /// mirror is byte-identical.
    gcodes: Vec<i8>,
    /// Group members' biases, `SCREEN_GROUP` lanes per group.
    gbias: Vec<f32>,
    /// Group members' scales, `SCREEN_GROUP` lanes per group.
    gscale: Vec<f32>,
    /// Cumulative full-group counts at bag boundaries: bag `b`'s groups
    /// are `group_start[b]..group_start[b + 1]` (empty until the bag's
    /// groups are built; always `bag_count + 1` entries once built).
    group_start: Vec<u32>,
}

impl QuantTier {
    fn absorb(&mut self, p: QuantParams) {
        self.max_abs_bias = self.max_abs_bias.max(p.bias.abs());
        self.max_scale = self.max_scale.max(p.scale);
        self.params.push(p);
    }

    /// Builds the transposed group mirror for one just-appended bag.
    /// Must be called once per bag, in bag order, after the bag's codes
    /// and params are in place. The bag's last group is padded up to
    /// [`kernel::SCREEN_GROUP`] lanes with zero codes and parameters —
    /// the screen phase gives pad lanes NaN thresholds (never screened)
    /// and drops them from the survivor rescore, so every real instance
    /// rides the transposed kernel and no per-instance tail remains.
    fn build_groups(&mut self, span: BagSpan, dim: usize) {
        if self.group_start.is_empty() {
            self.group_start.push(0);
        }
        let mut groups = *self.group_start.last().expect("seeded above");
        for g in 0..span.len.div_ceil(kernel::SCREEN_GROUP) {
            let first = span.offset + g * kernel::SCREEN_GROUP;
            let lanes = kernel::SCREEN_GROUP.min(span.offset + span.len - first);
            for l in 0..kernel::SCREEN_GROUP {
                let p = if l < lanes {
                    self.params[first + l]
                } else {
                    QuantParams {
                        scale: 0.0,
                        bias: 0.0,
                        radius: 0.0,
                    }
                };
                self.gbias.push(p.bias);
                self.gscale.push(p.scale);
            }
            for j in 0..dim {
                for l in 0..kernel::SCREEN_GROUP {
                    self.gcodes.push(if l < lanes {
                        self.codes[(first + l) * dim + j]
                    } else {
                        0
                    });
                }
            }
            groups += 1;
        }
        self.group_start.push(groups);
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
/// Every store also maintains a quantized tier: an `i8` affine mirror
/// of each instance (see [`kernel::quantize_instance`]) whose provable
/// distance lower bound lets [`Self::min_distance_sq_below_screened`]
/// reject hopeless instances without running the exact kernel. The tier
/// is built incrementally on push — quantization is deterministic, so a
/// rebuilt tier is byte-identical to a persisted one.
#[derive(Debug, Clone, Default)]
pub struct FlatBags {
    data: Vec<f32>,
    spans: Vec<BagSpan>,
    dim: usize,
    quant: QuantTier,
    /// Coarse cell index over the instances (see [`CoarseIndex`]):
    /// built at shard-seal time or before a flush, attached from a shard
    /// file, or rebuilt on demand — and invalidated by any push, since its
    /// assignments describe a frozen instance stream.
    index: Option<CoarseIndex>,
    /// Per bag: how many runs of consecutive same-cell instances it
    /// crosses under `index` (the unit of the cell counters).
    cell_runs: Vec<u32>,
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
            quant: QuantTier::default(),
            index: None,
            cell_runs: Vec::new(),
        }
    }

    /// Appends one bag, copying its instances into the flat buffer and
    /// quantizing them into the tier. Returns the bag's index.
    ///
    /// # Panics
    /// Panics on a feature-dimension mismatch.
    pub fn push_bag(&mut self, bag: &Bag) -> usize {
        assert_eq!(bag.dim(), self.dim, "bag has wrong dimension");
        self.set_index(None);
        let offset = self.data.len() / self.dim;
        for instance in bag.instances() {
            self.data.extend_from_slice(instance);
            let p = kernel::quantize_instance(instance, &mut self.quant.codes);
            self.quant.absorb(p);
        }
        let span = BagSpan {
            offset,
            len: bag.len(),
        };
        self.quant.build_groups(span, self.dim);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Appends one bag given as a raw flat slice of
    /// `instance_count × dim` values — the disk-load path, where the
    /// shard file already holds the flat layout. Quantizes as it goes;
    /// quantization is deterministic, so a bag pushed through here
    /// carries the exact tier a shard file persists for it. Returns the
    /// bag's index.
    ///
    /// # Panics
    /// Panics if `instances` is empty or not a multiple of `dim`.
    pub fn push_flat(&mut self, instances: &[f32]) -> usize {
        assert!(
            !instances.is_empty() && instances.len().is_multiple_of(self.dim),
            "flat bag data must be a non-empty multiple of the dimension"
        );
        self.set_index(None);
        let offset = self.data.len() / self.dim;
        let span = BagSpan {
            offset,
            len: instances.len() / self.dim,
        };
        self.spans.push(span);
        for instance in instances.chunks_exact(self.dim) {
            let p = kernel::quantize_instance(instance, &mut self.quant.codes);
            self.quant.absorb(p);
        }
        self.quant.build_groups(span, self.dim);
        self.data.extend_from_slice(instances);
        self.spans.len() - 1
    }

    /// Rebuilds a store from persisted parts: the flat buffer, per-bag
    /// instance counts, and the quantized tier exactly as a shard file
    /// stores them — no re-quantization.
    ///
    /// # Errors
    /// A description of the inconsistency when the parts disagree:
    /// ragged data, length mismatches between data/codes/params, or
    /// implausible parameters (non-finite, negative radius or scale).
    pub fn from_persisted(
        dim: usize,
        data: Vec<f32>,
        bag_lens: &[usize],
        codes: Vec<i8>,
        params: Vec<QuantParams>,
    ) -> Result<Self, String> {
        if dim == 0 {
            return Err("feature dimension must be non-zero".into());
        }
        if !data.len().is_multiple_of(dim) {
            return Err("flat data is not a multiple of the dimension".into());
        }
        let instance_count = data.len() / dim;
        let total: usize = bag_lens.iter().sum();
        if total != instance_count {
            return Err(format!(
                "bag spans cover {total} instances but the data holds {instance_count}"
            ));
        }
        if bag_lens.contains(&0) {
            return Err("a bag must hold at least one instance".into());
        }
        if codes.len() != data.len() {
            return Err(format!(
                "quantized tier holds {} codes for {} values",
                codes.len(),
                data.len()
            ));
        }
        if params.len() != instance_count {
            return Err(format!(
                "quantized tier holds {} parameter sets for {instance_count} instances",
                params.len()
            ));
        }
        let mut quant = QuantTier {
            codes,
            ..QuantTier::default()
        };
        for p in params {
            if !p.bias.is_finite() || !p.scale.is_finite() || !p.radius.is_finite() {
                return Err("quantization parameters must be finite".into());
            }
            if p.scale < 0.0 || p.radius < 0.0 {
                return Err("quantization scale and radius must be non-negative".into());
            }
            quant.absorb(p);
        }
        let mut spans = Vec::with_capacity(bag_lens.len());
        let mut offset = 0;
        for &len in bag_lens {
            let span = BagSpan { offset, len };
            quant.build_groups(span, dim);
            spans.push(span);
            offset += len;
        }
        Ok(Self {
            data,
            spans,
            dim,
            quant,
            index: None,
            cell_runs: Vec::new(),
        })
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

    /// Total instance count across all bags.
    #[inline]
    pub fn instance_count(&self) -> usize {
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

    /// All instances of one bag as a single contiguous slice of
    /// `span.len × dim` elements.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    #[inline]
    pub fn bag_instances(&self, bag: usize) -> &[f32] {
        let span = self.spans[bag];
        &self.data[span.offset * self.dim..(span.offset + span.len) * self.dim]
    }

    /// The instances of one bag, each a `dim`-element slice.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    #[inline]
    pub fn instances(&self, bag: usize) -> impl Iterator<Item = &[f32]> {
        self.bag_instances(bag).chunks_exact(self.dim)
    }

    /// One instance of one bag as a `dim`-element slice.
    ///
    /// # Panics
    /// Panics if the indices are out of range.
    #[inline]
    pub fn instance(&self, bag: usize, index: usize) -> &[f32] {
        let span = self.spans[bag];
        assert!(index < span.len, "instance index out of range");
        let start = (span.offset + index) * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Rebuilds one bag as an owned [`Bag`] (the monolithic
    /// representation) — the shard→database conversion path.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()`.
    pub fn to_bag(&self, bag: usize) -> Bag {
        Bag::new(self.instances(bag).map(<[f32]>::to_vec).collect())
            .expect("flat bags are non-empty and dimension-consistent")
    }

    /// The whole flat buffer, bag-major — what a shard file serialises.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// All spans, in bag order.
    #[inline]
    pub fn spans(&self) -> &[BagSpan] {
        &self.spans
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
    /// layout, instance for instance.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()` or the concept's dimension
    /// differs.
    pub fn min_distance_sq_below(&self, concept: &Concept, bag: usize, bound: f64) -> Option<f64> {
        let mut best = f64::INFINITY;
        for inst in self.instances(bag) {
            if let Some(d) = concept.instance_distance_sq_below(inst, best.min(bound)) {
                best = d;
            }
        }
        (best < bound).then_some(best)
    }

    /// The bag's ranking key under an arbitrary
    /// [`BagAggregator`](crate::aggregate::BagAggregator) — the flat
    /// mirror of [`Concept::bag_aggregate`], instance for instance, so
    /// the two are bit-identical for every bag (same kernel, same fold,
    /// same order).
    ///
    /// Min-distance routes through the pruned [`Self::min_distance_sq`]
    /// untouched; everything else runs the exact unpruned kernel over
    /// every instance (no screen, no cell skip — their proofs only
    /// bound the minimum). `scratch` is a reusable distance buffer.
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
        for inst in self.instances(bag) {
            scratch.push(concept.instance_distance_sq(inst));
        }
        aggregator.fold(scratch)
    }

    /// Prepares the concept for screening against this store's
    /// quantized tier — compute once per (concept, store) pair, then
    /// pass to every [`Self::min_distance_sq_below_screened`] call.
    ///
    /// # Panics
    /// Panics if the concept's dimension differs from the store's.
    pub fn quant_query(&self, concept: &Concept) -> QuantQuery {
        assert_eq!(concept.dim(), self.dim, "concept has wrong dimension");
        QuantQuery::new(
            concept.point(),
            concept.weights(),
            self.quant.max_abs_bias,
            self.quant.max_scale,
        )
    }

    /// [`Self::min_distance_sq_below`] with the quantized screen in
    /// front of the exact kernel: the whole bag is screened by the
    /// transposed [`kernel::screen_groups`] kernel (its last group
    /// padded with never-screened NaN-threshold lanes) against the
    /// caller's bound at bag entry; only survivors are re-scored
    /// exactly. A screened-out instance *provably* scores at or above
    /// the entry bound (see [`QuantQuery`]), which is at least as tight
    /// as any bound the unscreened scan would have used for it (the
    /// running best only tightens) — so the exact kernel would have
    /// rejected it too, and the return value is bit-identical to the
    /// unscreened scan for every input.
    ///
    /// `stats` accumulates how many instances each side of the screen
    /// handled; `scratch` is reusable across calls.
    ///
    /// # Panics
    /// Panics if `bag >= self.bag_count()` or the concept's dimension
    /// differs.
    pub fn min_distance_sq_below_screened(
        &self,
        concept: &Concept,
        query: &QuantQuery,
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
        let grouped = (glast - gfirst) * kernel::SCREEN_GROUP;
        let sq = query.sqrt_bound(bound);
        scratch.thresholds32.clear();
        scratch.survivors.clear();
        for p in &self.quant.params[span.offset..span.offset + span.len] {
            scratch
                .thresholds32
                .push(QuantQuery::threshold32(query.threshold_with(sq, p.radius)));
        }
        // Pad lanes never screen: NaN compares false under both the
        // scalar `>=` and the vector GE_OQ predicate.
        scratch.thresholds32.resize(grouped, f32::NAN);
        kernel::screen_groups(
            query,
            &self.quant.gcodes
                [gfirst * kernel::SCREEN_GROUP * self.dim..glast * kernel::SCREEN_GROUP * self.dim],
            &self.quant.gbias[gfirst * kernel::SCREEN_GROUP..glast * kernel::SCREEN_GROUP],
            &self.quant.gscale[gfirst * kernel::SCREEN_GROUP..glast * kernel::SCREEN_GROUP],
            &scratch.thresholds32,
            &mut scratch.survivors,
        );
        let mut rescored = 0u64;
        for &r in &scratch.survivors {
            let j = r as usize;
            if j >= span.len {
                // A pad lane of the bag's last group, not an instance.
                continue;
            }
            rescored += 1;
            if let Some(d) =
                concept.instance_distance_sq_below(self.instance(bag, j), best.min(bound))
            {
                best = d;
            }
        }
        let screened = span.len as u64 - rescored;
        stats.screened += screened;
        stats.rescored += rescored;
        // Screens that reject under half the instances they saw cost
        // more than they save; back off exponentially and re-probe later
        // in case the bound has tightened.
        if screened * 2 < span.len as u64 {
            scratch.bad_streak = (scratch.bad_streak + 1).min(6);
            scratch.penalty = 1 << scratch.bad_streak;
        } else {
            scratch.bad_streak = 0;
        }
        (best < bound).then_some(best)
    }

    /// The coarse cell index, if one has been built or attached. `None`
    /// means the instance stream is still growing (an unsealed tail
    /// shard) and ranking falls back to the plain screened scan.
    #[inline]
    pub fn index(&self) -> Option<&CoarseIndex> {
        self.index.as_ref()
    }

    /// Builds (or rebuilds) the coarse index with an explicit cell
    /// count — the tuning/testing entry point; production code uses
    /// [`Self::ensure_index`]. The count is clamped to the instance
    /// count.
    pub fn build_index(&mut self, cells: usize) -> &CoarseIndex {
        self.set_index(Some(CoarseIndex::build(&self.data, self.dim, cells)));
        self.index.as_ref().expect("just built")
    }

    /// Builds the coarse index with the default `⌈√n⌉` cell count if
    /// none is present. Idempotent; the build is deterministic, so a
    /// lazily built index is identical to a persisted one built from
    /// the same instance stream.
    pub fn ensure_index(&mut self) -> &CoarseIndex {
        if self.index.is_none() {
            let cells = CoarseIndex::default_cell_count(self.instance_count());
            self.set_index(Some(CoarseIndex::build(&self.data, self.dim, cells)));
        }
        self.index.as_ref().expect("ensured above")
    }

    /// Attaches a persisted index after validating it describes this
    /// exact instance stream (dimension and instance count).
    ///
    /// # Errors
    /// A description of the mismatch.
    pub fn attach_index(&mut self, index: CoarseIndex) -> Result<(), String> {
        if index.dim() != self.dim {
            return Err(format!(
                "index dimension {} does not match store dimension {}",
                index.dim(),
                self.dim
            ));
        }
        if index.assignments().len() != self.instance_count() {
            return Err(format!(
                "index covers {} instances but the store holds {}",
                index.assignments().len(),
                self.instance_count()
            ));
        }
        self.set_index(Some(index));
        Ok(())
    }

    /// Installs (or drops) the index, counting every bag's cell runs
    /// under it.
    fn set_index(&mut self, index: Option<CoarseIndex>) {
        self.cell_runs = match &index {
            Some(index) => self
                .spans
                .iter()
                .map(|span| index.range_runs(span.offset, span.len))
                .collect(),
            None => Vec::new(),
        };
        self.index = index;
    }

    /// How many runs of consecutive same-cell instances `bag` crosses
    /// under the coarse index — the unit of the `cells_scanned` /
    /// `cells_skipped` counters.
    ///
    /// # Panics
    /// Panics if no index is built or `bag >= self.bag_count()`.
    #[inline]
    pub fn cell_runs(&self, bag: usize) -> u64 {
        u64::from(self.cell_runs[bag])
    }

    /// The quantized tier's codes, instance-major — what a shard file
    /// serialises alongside [`Self::data`].
    #[inline]
    pub fn quant_codes(&self) -> &[i8] {
        &self.quant.codes
    }

    /// The quantized tier's per-instance parameters, in instance order.
    #[inline]
    pub fn quant_params(&self) -> &[QuantParams] {
        &self.quant.params
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
    fn push_flat_matches_push_bag() {
        let b = bag(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut via_bag = FlatBags::new(2);
        via_bag.push_bag(&b);
        let mut via_flat = FlatBags::new(2);
        via_flat.push_flat(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(via_bag.data(), via_flat.data());
        assert_eq!(via_bag.spans(), via_flat.spans());
        assert_eq!(via_flat.to_bag(0), b);
    }

    #[test]
    #[should_panic(expected = "multiple of the dimension")]
    fn ragged_flat_data_rejected() {
        let mut flat = FlatBags::new(2);
        flat.push_flat(&[1.0, 2.0, 3.0]);
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

    #[test]
    fn persisted_tier_round_trips() {
        let k = 7;
        let mut flat = FlatBags::new(k);
        for n in 0..5 {
            let instances: Vec<Vec<f32>> = (0..=(n % 3))
                .map(|m| {
                    (0..k)
                        .map(|i| ((n * 13 + m * 5 + i) % 11) as f32 - 5.0)
                        .collect()
                })
                .collect();
            flat.push_bag(&Bag::new(instances).unwrap());
        }
        let lens: Vec<usize> = flat.spans().iter().map(|s| s.len).collect();
        let back = FlatBags::from_persisted(
            k,
            flat.data().to_vec(),
            &lens,
            flat.quant_codes().to_vec(),
            flat.quant_params().to_vec(),
        )
        .unwrap();
        assert_eq!(back.data(), flat.data());
        assert_eq!(back.spans(), flat.spans());
        assert_eq!(back.quant_codes(), flat.quant_codes());
        assert_eq!(back.quant_params(), flat.quant_params());
        assert_eq!(back.quant.max_abs_bias, flat.quant.max_abs_bias);
        assert_eq!(back.quant.max_scale, flat.quant.max_scale);
    }

    #[test]
    fn inconsistent_persisted_parts_rejected() {
        let k = 3;
        let mut flat = FlatBags::new(k);
        flat.push_flat(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let data = flat.data().to_vec();
        let codes = flat.quant_codes().to_vec();
        let params = flat.quant_params().to_vec();
        // Ragged data.
        assert!(
            FlatBags::from_persisted(k, vec![1.0; 4], &[1], codes.clone(), params.clone()).is_err()
        );
        // Span/instance mismatch.
        assert!(
            FlatBags::from_persisted(k, data.clone(), &[1], codes.clone(), params.clone()).is_err()
        );
        // Code count mismatch.
        assert!(
            FlatBags::from_persisted(k, data.clone(), &[2], vec![0i8; 3], params.clone()).is_err()
        );
        // Param count mismatch.
        assert!(FlatBags::from_persisted(k, data.clone(), &[2], codes.clone(), vec![]).is_err());
        // Non-finite parameter.
        let mut bad = params.clone();
        bad[0].radius = f64::NAN;
        assert!(FlatBags::from_persisted(k, data.clone(), &[2], codes.clone(), bad).is_err());
        // Negative scale.
        let mut bad = params;
        bad[0].scale = -1.0;
        assert!(FlatBags::from_persisted(k, data, &[2], codes, bad).is_err());
    }

    #[test]
    fn push_paths_build_identical_tiers() {
        // push_bag, push_flat, and a reload from flat parts must all
        // derive the same quantized tier — determinism is what keeps a
        // rewritten shard file byte-identical to the one it replaces.
        let b = bag(&[&[1.5, -2.0], &[0.25, 8.0], &[-3.5, 0.0]]);
        let mut via_bag = FlatBags::new(2);
        via_bag.push_bag(&b);
        let mut via_flat = FlatBags::new(2);
        via_flat.push_flat(via_bag.data());
        assert_eq!(via_bag.quant_codes(), via_flat.quant_codes());
        assert_eq!(via_bag.quant_params(), via_flat.quant_params());
    }

    #[test]
    fn pushes_invalidate_the_coarse_index() {
        let mut flat = FlatBags::new(2);
        flat.push_flat(&[1.0, 2.0, 3.0, 4.0]);
        assert!(flat.index().is_none());
        flat.ensure_index();
        assert!(flat.index().is_some());
        flat.push_flat(&[5.0, 6.0]);
        assert!(flat.index().is_none(), "push must invalidate the index");
        flat.ensure_index();
        flat.push_bag(&bag(&[&[7.0, 8.0]]));
        assert!(flat.index().is_none(), "push_bag must invalidate too");
    }

    #[test]
    fn lazy_index_matches_a_persisted_rebuild() {
        let mut a = FlatBags::new(3);
        let mut b = FlatBags::new(3);
        for n in 0..7 {
            let row: Vec<f32> = (0..6).map(|i| ((n * 11 + i * 5) % 13) as f32).collect();
            a.push_flat(&row);
            b.push_flat(&row);
        }
        let built = a.ensure_index().clone();
        // Round-tripping through persisted parts and attaching lands on
        // the identical index — the rebuilt-equals-persisted contract.
        let reloaded = CoarseIndex::from_persisted(
            3,
            built.centroids().to_vec(),
            built.radii().to_vec(),
            built.assignments().to_vec(),
        )
        .unwrap();
        b.attach_index(reloaded).unwrap();
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn mismatched_index_attachment_rejected() {
        let mut flat = FlatBags::new(2);
        flat.push_flat(&[1.0, 2.0, 3.0, 4.0]);
        let wrong_dim = CoarseIndex::build(&[1.0, 2.0, 3.0], 3, 1);
        assert!(flat.attach_index(wrong_dim).is_err());
        let wrong_count = CoarseIndex::build(&[1.0, 2.0], 2, 1);
        assert!(flat.attach_index(wrong_count).is_err());
        let right = CoarseIndex::build(flat.data(), 2, 2);
        assert!(flat.attach_index(right).is_ok());
        assert_eq!(flat.index().unwrap().assignments().len(), 2);
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
