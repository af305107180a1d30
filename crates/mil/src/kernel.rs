//! Fused weighted-distance kernels: the ranking hot path.
//!
//! The §3.5 ranking key is the minimum weighted squared Euclidean
//! distance from any bag instance to the learned ideal point — pure
//! distance arithmetic, evaluated millions of times per query. This
//! module holds the two tiers of that arithmetic:
//!
//! 1. **The exact kernel** ([`weighted_distance_sq`] /
//!    [`weighted_distance_sq_below`]): the *canonical* distance every
//!    ranking path in the workspace computes. It is written in explicit
//!    [`LANES`]-wide unrolled form — four independent accumulator lanes,
//!    lane `l` summing dimensions `l, l+4, l+8, …`, combined pairwise at
//!    the end — so the compiler can vectorise the subtract/multiply work
//!    and, even in scalar form, the four independent add chains hide the
//!    floating-point add latency that serialises a single-accumulator
//!    loop. "Canonical" means bit-for-bit: the pruned variant, the flat
//!    scan, the sharded scatter and the naive reference fold all call
//!    these functions, so every optimisation above them stays exactly
//!    reproducible.
//! 2. **The quantized screen** ([`screen_groups`] /
//!    `screen_group_pairs`): an `i8` affine scalar-quantized mirror
//!    of the instances (see [`quantize_instance`]), stored in transposed
//!    groups of [`SCREEN_GROUP`] instances, whose *provable lower bound*
//!    on the exact distance rejects hopeless candidates before the exact
//!    kernel runs. The screen works in `f32` over quarter-width codes,
//!    one instance per vector lane — a quarter of the memory traffic of
//!    the exact kernel — and is conservative by construction: a
//!    screened-out instance provably has exact distance ≥ the bound, so
//!    screening can never change a ranking (see [`QuantQuery`] for the
//!    bound derivation).
//!
//! # Pruning stays exact
//!
//! Every term `w·d²` is non-negative, so each lane's partial sum — and
//! any pairwise combination of the lanes — is monotonically
//! non-decreasing as dimensions accumulate, and IEEE-754 addition of
//! non-negative values preserves that monotonicity under rounding. A
//! partial combined sum that already reaches the bound therefore proves
//! the final sum does too, which is why [`weighted_distance_sq_below`]
//! can abandon an instance mid-scan yet return values bit-identical to
//! the unpruned kernel whenever it returns at all.
//!
//! # Runtime SIMD dispatch
//!
//! On x86-64 CPUs with AVX2, both tiers run hand-written vector loops
//! (one exact-kernel lane block, or one screen group, per 256-bit
//! operation) selected by a cached runtime probe. The vector forms repeat the portable forms' exact operation
//! sequence — elementwise correctly-rounded IEEE ops in the same lane
//! order, exact conversions, no FMA contraction, scalar lane combines,
//! identical prune checkpoints — so dispatched and portable kernels
//! return bit-identical values (and identical abandon decisions) on
//! every input; dedicated tests pin this on AVX2 hardware.

/// Accumulator lanes of the exact `f64` kernel.
pub const LANES: usize = 4;

/// Instances per transposed screen group: the group screen holds one
/// instance per `f32` vector lane, so a group is one 256-bit register
/// wide. Groups are built from consecutive instances *within* a bag;
/// a bag's last group is padded with lanes that never screen.
pub const SCREEN_GROUP: usize = 8;

/// Parallel accumulator chains of the group screen: dimension `j` lands
/// in chain `j % 4`, so the per-lane sums don't serialise on
/// floating-point add latency. Chains combine elementwise as
/// `(c0 + c1) + (c2 + c3)` — per lane, never horizontally.
pub const SCREEN_CHAINS: usize = 4;

/// Checkpoint cadence of the group screen, in dimensions: the chains
/// combine and compare against the per-lane thresholds every
/// `SCREEN_GROUP_CHECK` dimensions, and the group stops as soon as all
/// [`SCREEN_GROUP`] lanes have crossed.
pub const SCREEN_GROUP_CHECK: usize = 16;

/// Bound check cadence of the portable pruned kernel, in lane blocks:
/// it checks every `PRUNE_BLOCKS × LANES = 8` dimensions.
///
/// Cadence is a pure throughput knob, invisible to results: a checkpoint
/// only fires when the (monotone, non-negative) partial sum has already
/// reached the bound, which proves the final sum does too — so `None` is
/// returned exactly when the full distance is at or above the bound, at
/// *any* cadence. The AVX2 forms exploit this with a coarser cadence of
/// their own (vector blocks are cheap; combining lanes for a check is
/// comparatively expensive).
const PRUNE_BLOCKS: usize = 2;

use crate::mirror::Mirror;

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::have_avx2;
/// The vector load each coordinate source provides to the AVX2 bodies.
#[cfg(target_arch = "x86_64")]
use x86::Load4 as Simd;
/// Without the AVX2 bodies, every coordinate source qualifies.
#[cfg(not(target_arch = "x86_64"))]
trait Simd {}
#[cfg(not(target_arch = "x86_64"))]
impl<C: Coords> Simd for C {}

/// Runtime-dispatched AVX2 forms of the hot loops.
///
/// The baseline build targets SSE2 (the x86-64 floor), where the
/// transposed `i8 → f32` reconstruction of the group screen and the
/// 4-wide `f64` blocks of the exact kernel cannot vectorise profitably.
/// On CPUs with AVX2 the same loops run one block per 256-bit vector
/// instruction. Dispatch is decided once (a cached `cpuid` probe) and
/// is *invisible to results*: every vector operation is elementwise in
/// the same lane order as the portable form, each IEEE-754 operation is
/// correctly rounded exactly like its scalar counterpart, the `i8 → f32`
/// / `f32 → f64` conversions are exact, no FMA contraction is used, and
/// the lane combines stay scalar — so both forms return bit-identical
/// values on every input (pinned by the kernel tests and proptests,
/// which compare the dispatched kernels against portable references).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{combine, Coords, Direct, Permuted, LANES};

    /// Checkpoint cadence of the AVX2 pruned kernel, in vector blocks.
    /// One block is a single 256-bit iteration, so it checks every
    /// `4 × LANES = 16` dimensions — any cadence is sound (see
    /// [`super::PRUNE_BLOCKS`]), so this is a pure throughput knob that
    /// trades a coarser cadence for fewer in-register combines.
    const PRUNE_BLOCKS: usize = 4;
    use std::arch::x86_64::{
        __m128, __m128i, __m256, __m256d, _mm256_add_pd, _mm256_add_ps, _mm256_castpd256_pd128,
        _mm256_cmp_ps, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32, _mm256_cvtps_pd,
        _mm256_extractf128_pd, _mm256_hadd_pd, _mm256_loadu_pd, _mm256_loadu_ps,
        _mm256_movemask_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_pd, _mm256_sub_pd, _mm256_sub_ps, _mm_add_sd, _mm_cvtsd_f64,
        _mm_i32gather_ps, _mm_loadl_epi64, _mm_loadu_ps, _mm_loadu_si128, _mm_shuffle_ps,
        _CMP_GE_OQ,
    };
    use std::sync::atomic::{AtomicU8, Ordering};

    /// In-register [`combine`]: `hadd` produces exactly the scalar
    /// combine's additions — `(a0+a1) + (a2+a3)`, each correctly rounded
    /// on the same operands — without bouncing the accumulator through
    /// the stack at every prune checkpoint.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn combine_pd(a: __m256d) -> f64 {
        let h = _mm256_hadd_pd(a, a); // [a0+a1, a0+a1, a2+a3, a2+a3]
        let lo = _mm256_castpd256_pd128(h);
        let hi = _mm256_extractf128_pd(h, 1);
        _mm_cvtsd_f64(_mm_add_sd(lo, hi))
    }

    /// Cached AVX2 probe: 0 = unknown, 1 = absent, 2 = present.
    static AVX2: AtomicU8 = AtomicU8::new(0);

    /// Whether this CPU runs AVX2: the one probe of the crate, shared by
    /// these ranking kernels and the training kernels in `dd`.
    #[inline(always)]
    pub(crate) fn have_avx2() -> bool {
        match AVX2.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let yes = std::arch::is_x86_feature_detected!("avx2");
                AVX2.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
                yes
            }
        }
    }

    /// The 4-lane load of a coordinate source.
    pub(super) trait Load4: Coords {
        /// Coordinates `i..i + 4` as one `f32` vector.
        ///
        /// # Safety
        /// Requires AVX2 and `i + 4 <= len`.
        unsafe fn load4(self, i: usize) -> __m128;
    }

    impl Load4 for Direct<'_> {
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m128 {
            _mm_loadu_ps(self.0.as_ptr().add(i))
        }
    }

    impl Load4 for Permuted<'_> {
        /// `values[index[i..i + 4]]`: a reversed run inside one row is
        /// one load and a lane reversal, a block straddling two rows one
        /// gather. Every index is in bounds by construction (see
        /// [`Permuted`]), and `i` is a multiple of 4.
        #[inline(always)]
        unsafe fn load4(self, i: usize) -> __m128 {
            let run = self.runs[i / 4];
            if run >= 0 {
                let v = _mm_loadu_ps(self.values.as_ptr().add(run as usize));
                _mm_shuffle_ps::<0x1B>(v, v)
            } else {
                let lanes = _mm_loadu_si128(self.index.as_ptr().add(i) as *const __m128i);
                _mm_i32gather_ps::<4>(self.values.as_ptr(), lanes)
            }
        }
    }

    /// AVX2 [`super::weighted_distance_sq`]: one 4-lane `f64` block per
    /// vector iteration, scalar tail and combine.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn weighted_distance_sq<C: Load4>(point: &[f64], weights: &[f64], x: C) -> f64 {
        let k = point.len();
        let blocks = k / LANES;
        let mut a = _mm256_loadu_pd([0.0f64; LANES].as_ptr());
        for b in 0..blocks {
            let i = b * LANES;
            let p = _mm256_loadu_pd(point.as_ptr().add(i));
            let w = _mm256_loadu_pd(weights.as_ptr().add(i));
            let v = _mm256_cvtps_pd(x.load4(i));
            let d = _mm256_sub_pd(p, v);
            a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_mul_pd(w, d), d));
        }
        let mut acc = [0.0f64; LANES];
        _mm256_storeu_pd(acc.as_mut_ptr(), a);
        for (l, i) in (blocks * LANES..k).enumerate() {
            let d = point[i] - f64::from(x.at(i));
            acc[l] += weights[i] * d * d;
        }
        combine(acc)
    }

    /// AVX2 [`super::weighted_distance_sq_below`]: same blocks, same
    /// [`PRUNE_BLOCKS`] checkpoint positions, so Some/None decisions and
    /// returned bits match the portable form exactly.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn weighted_distance_sq_below<C: Load4>(
        point: &[f64],
        weights: &[f64],
        x: C,
        bound: f64,
    ) -> Option<f64> {
        let k = point.len();
        let blocks = k / LANES;
        let mut a = _mm256_loadu_pd([0.0f64; LANES].as_ptr());
        let mut b = 0;
        while b < blocks {
            let stop = (b + PRUNE_BLOCKS).min(blocks);
            while b < stop {
                let i = b * LANES;
                let p = _mm256_loadu_pd(point.as_ptr().add(i));
                let w = _mm256_loadu_pd(weights.as_ptr().add(i));
                let v = _mm256_cvtps_pd(x.load4(i));
                let d = _mm256_sub_pd(p, v);
                a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_mul_pd(w, d), d));
                b += 1;
            }
            if combine_pd(a) >= bound {
                return None;
            }
        }
        let mut acc = [0.0f64; LANES];
        _mm256_storeu_pd(acc.as_mut_ptr(), a);
        for (l, i) in (blocks * LANES..k).enumerate() {
            let d = point[i] - f64::from(x.at(i));
            acc[l] += weights[i] * d * d;
        }
        let total = combine(acc);
        (total < bound).then_some(total)
    }

    use super::{GroupQuery, SCREEN_CHAINS, SCREEN_GROUP, SCREEN_GROUP_CHECK};
    use std::arch::x86_64::{
        __m256i, _mm256_castsi256_si128, _mm256_cmpgt_epi32, _mm256_maskload_ps, _mm256_set1_epi32,
        _mm256_set_m128, _mm256_setr_epi32, _mm_maskload_ps, _mm_prefetch, _mm_set1_epi32,
        _MM_HINT_T0,
    };

    /// Lanes `0..lanes` of a register as a load mask.
    #[inline(always)]
    unsafe fn lane_mask(lanes: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(lanes as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// The screen of one register of 8 lanes: per dimension, `lane(j)`
    /// yields the lanes' `(code, point, weight)`, which accumulate as
    /// `(p − bias) − scale·code`, squared and weighted, over four
    /// elementwise chains; every [`SCREEN_GROUP_CHECK`] dimensions (and
    /// after the last) the chains combine as `(c0 + c1) + (c2 + c3)` and
    /// lanes at or above their threshold cross. Stops once every lane
    /// has crossed (`crossed` starts with the pad lanes set); returns
    /// the crossed-lane mask.
    #[inline(always)]
    unsafe fn screen_register(
        k: usize,
        bias: __m256,
        scale: __m256,
        th: __m256,
        mut crossed: i32,
        lane: impl Fn(usize) -> (__m256, __m256, __m256),
    ) -> i32 {
        let mut acc = [_mm256_setzero_ps(); SCREEN_CHAINS];
        let accumulate = |acc: &mut [__m256; SCREEN_CHAINS], j: usize, chains: usize| {
            for (u, a) in acc.iter_mut().enumerate().take(chains) {
                let (code, p, w) = lane(j + u);
                let d = _mm256_sub_ps(_mm256_sub_ps(p, bias), _mm256_mul_ps(scale, code));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_mul_ps(w, d), d));
            }
        };
        let check = |acc: &[__m256; SCREEN_CHAINS]| {
            let s = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
            _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(s, th))
        };
        let full = k / SCREEN_CHAINS * SCREEN_CHAINS;
        let mut j = 0;
        while j < full {
            let stop = (j + SCREEN_GROUP_CHECK).min(full);
            while j < stop {
                accumulate(&mut acc, j, SCREEN_CHAINS);
                j += SCREEN_CHAINS;
            }
            crossed |= check(&acc);
            if crossed == 0xFF {
                return crossed;
            }
        }
        accumulate(&mut acc, j, k - j);
        crossed | check(&acc)
    }

    /// Prefetches the first checkpoint block of the group two groups
    /// past `codes`. The screen mostly rejects a group within its first
    /// blocks, so it touches a few lines of each 8·k-byte group — a
    /// pattern the hardware prefetchers miss, which leaves the scan
    /// waiting on memory. The address may lie past the store (prefetches
    /// never fault).
    #[inline(always)]
    unsafe fn prefetch_group(codes: *const i8, k: usize) {
        let ahead = codes.wrapping_add(2 * SCREEN_GROUP * k);
        for line in (0..SCREEN_GROUP_CHECK * SCREEN_GROUP).step_by(64) {
            _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(line));
        }
    }

    /// The crossed-lane mask that pad lanes `lanes..width` start with.
    #[inline(always)]
    fn pads(lanes: usize, width: usize) -> i32 {
        ((1 << width) - 1) & !((1 << lanes) - 1)
    }

    /// AVX2 [`super::screen_groups`]: one instance per lane, one
    /// transposed 8-code load and two broadcasts per dimension — no
    /// horizontal operation anywhere. Operation order is the exact
    /// mirror of the portable body, so crossing decisions match bit for
    /// bit.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch) and the
    /// slice lengths [`super::screen_groups`] asserts.
    #[target_feature(enable = "avx2")]
    pub unsafe fn screen_groups(
        query: GroupQuery<'_>,
        gcodes: &[i8],
        gbias: &[f32],
        gscale: &[f32],
        survivors: &mut Vec<u32>,
    ) {
        let k = query.point.len();
        let real = query.thresholds.len();
        for base in (0..real).step_by(SCREEN_GROUP) {
            let lanes = SCREEN_GROUP.min(real - base);
            let codes = gcodes.as_ptr().add(base * k);
            prefetch_group(codes, k);
            // The masked load never touches the pad lanes' (absent)
            // thresholds.
            let th = _mm256_maskload_ps(query.thresholds.as_ptr().add(base), lane_mask(lanes));
            let crossed = screen_register(
                k,
                _mm256_loadu_ps(gbias.as_ptr().add(base)),
                _mm256_loadu_ps(gscale.as_ptr().add(base)),
                th,
                pads(lanes, SCREEN_GROUP),
                |j| {
                    let code = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(
                        codes.add(j * SCREEN_GROUP) as *const __m128i,
                    )));
                    let p = _mm256_set1_ps(query.point[j]);
                    let w = _mm256_set1_ps(query.weights[j]);
                    (code, p, w)
                },
            );
            for l in 0..lanes {
                if crossed & (1 << l) == 0 {
                    survivors.push((base + l) as u32);
                }
            }
        }
    }

    /// AVX2 [`super::screen_group_pairs`]: four stored instances per
    /// register, lanes `0..4` under the instance query and lanes `4..8`
    /// under the twin query — the half-row of 4 codes loaded once and
    /// duplicated, point and weights read from the interleaved `table`.
    /// Every lane's arithmetic is the portable body's, so crossing
    /// decisions match bit for bit.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch) and the
    /// slice lengths [`super::screen_group_pairs`] asserts.
    #[target_feature(enable = "avx2")]
    pub unsafe fn screen_pairs(
        query: GroupQuery<'_>,
        table: &[f32],
        gcodes: &[i8],
        gbias: &[f32],
        gscale: &[f32],
        survivors: &mut Vec<u32>,
    ) {
        const HALF: usize = SCREEN_GROUP / 2;
        let k = query.point.len();
        let real = query.thresholds.len();
        let twice = |half: __m128| _mm256_set_m128(half, half);
        for base in (0..real).step_by(HALF) {
            let lanes = HALF.min(real - base);
            // The half-row of this register's 4 instances in their
            // 8-lane group.
            let group = base / SCREEN_GROUP;
            let codes = gcodes
                .as_ptr()
                .add(group * SCREEN_GROUP * k + base % SCREEN_GROUP);
            if base % SCREEN_GROUP == 0 {
                prefetch_group(codes, k);
            }
            let mask = _mm256_castsi256_si128(lane_mask(lanes));
            let th = twice(_mm_maskload_ps(query.thresholds.as_ptr().add(base), mask));
            let pads = pads(lanes, HALF);
            let crossed = screen_register(
                k,
                twice(_mm_loadu_ps(gbias.as_ptr().add(base))),
                twice(_mm_loadu_ps(gscale.as_ptr().add(base))),
                th,
                pads | pads << HALF,
                |j| {
                    let four = (codes.add(j * SCREEN_GROUP) as *const i32).read_unaligned();
                    let code = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_set1_epi32(four)));
                    let row = table.as_ptr().add(j * 2 * SCREEN_GROUP);
                    (
                        code,
                        _mm256_loadu_ps(row),
                        _mm256_loadu_ps(row.add(SCREEN_GROUP)),
                    )
                },
            );
            for l in 0..lanes {
                for (side, shift) in [(0, 0), (1, HALF)] {
                    if crossed & (1 << (l + shift)) == 0 {
                        survivors.push((2 * (base + l) + side) as u32);
                    }
                }
            }
        }
    }
}

/// Lane combination order of the exact kernel: fixed so the pruned and
/// unpruned variants agree bit for bit.
#[inline(always)]
fn combine(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Where the exact kernel reads coordinate `i` of an instance: from the
/// instance itself ([`Direct`]) or, for the mirror twin of a stored
/// instance, through a permutation's index table ([`Permuted`]). Both
/// sources feed the identical operation sequence, so the kernel over
/// `Permuted(x, P)` returns the bits of the kernel over a materialised
/// `P·x`.
pub(crate) trait Coords: Copy {
    /// Coordinate `i`.
    fn at(self, i: usize) -> f32;
}

/// The instance's own coordinates.
#[derive(Clone, Copy)]
pub(crate) struct Direct<'a>(&'a [f32]);

/// `P·x` read through `P`'s index table: coordinate `i` is
/// `values[index[i]]`. Only built from a [`Mirror`] of the instance's
/// own dimension, so every index is in bounds.
#[derive(Clone, Copy)]
pub(crate) struct Permuted<'a> {
    values: &'a [f32],
    index: &'a [u32],
    /// The mirror's reversed runs, one per full block of 4.
    runs: &'a [i32],
}

impl Coords for Direct<'_> {
    #[inline(always)]
    fn at(self, i: usize) -> f32 {
        self.0[i]
    }
}

impl Coords for Permuted<'_> {
    #[inline(always)]
    fn at(self, i: usize) -> f32 {
        self.values[self.index[i] as usize]
    }
}

/// One unrolled block of the exact kernel: dimensions `i..i + LANES`
/// into their respective lanes.
#[inline(always)]
fn accumulate_block<C: Coords>(
    acc: &mut [f64; LANES],
    point: &[f64],
    weights: &[f64],
    x: C,
    i: usize,
) {
    for l in 0..LANES {
        let d = point[l] - f64::from(x.at(i + l));
        acc[l] += weights[l] * d * d;
    }
}

/// The canonical weighted squared distance `Σ_j w_j (t_j − v_j)²`,
/// computed by [`LANES`]-wide strided accumulation: lane `l` sums
/// dimensions `l, l + LANES, …`, the tail (`dim % LANES` dimensions)
/// lands in lanes `0..tail`, and the lanes combine as
/// `(acc0 + acc1) + (acc2 + acc3)`.
///
/// Every distance the workspace surfaces — monolithic, pruned, sharded,
/// quantized-screened — is this exact operation sequence, which is what
/// makes "bit-identical ranking" a construction rather than a test
/// artifact.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn weighted_distance_sq(point: &[f64], weights: &[f64], instance: &[f32]) -> f64 {
    let k = point.len();
    assert_eq!(weights.len(), k, "weights have wrong dimension");
    assert_eq!(instance.len(), k, "instance has wrong dimension");
    distance(&point[..k], &weights[..k], Direct(&instance[..k]))
}

/// [`weighted_distance_sq`] of the mirror twin `P·instance`, read
/// through `mirror`'s index table: bit-identical to the kernel over the
/// materialised twin.
///
/// # Panics
/// Panics if the slice lengths or the mirror's dimension differ.
pub(crate) fn mirrored_distance_sq(
    point: &[f64],
    weights: &[f64],
    instance: &[f32],
    mirror: &Mirror,
) -> f64 {
    distance(point, weights, permuted(point, weights, instance, mirror))
}

/// The checked [`Permuted`] view of `P·instance`.
fn permuted<'a>(
    point: &[f64],
    weights: &[f64],
    instance: &'a [f32],
    mirror: &'a Mirror,
) -> Permuted<'a> {
    let k = point.len();
    assert_eq!(weights.len(), k, "weights have wrong dimension");
    assert_eq!(instance.len(), k, "instance has wrong dimension");
    assert_eq!(mirror.dim(), k, "mirror has wrong dimension");
    Permuted {
        values: instance,
        index: mirror.index(),
        runs: mirror.runs(),
    }
}

/// Dispatch of the unpruned kernel over equal-length `point`/`weights`
/// and a `k`-coordinate source.
#[inline(always)]
fn distance<C: Coords + Simd>(point: &[f64], weights: &[f64], x: C) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the callers checked
        // that every source covers `point.len()` coordinates.
        return unsafe { x86::weighted_distance_sq(point, weights, x) };
    }
    portable_distance(point, weights, x)
}

/// Portable body of [`weighted_distance_sq`] (also the bit-for-bit
/// reference the AVX2 form must match).
fn portable_distance<C: Coords>(point: &[f64], weights: &[f64], x: C) -> f64 {
    let k = point.len();
    let mut acc = [0.0f64; LANES];
    let blocks = k / LANES;
    for b in 0..blocks {
        let i = b * LANES;
        accumulate_block(&mut acc, &point[i..i + LANES], &weights[i..i + LANES], x, i);
    }
    for (l, i) in (blocks * LANES..k).enumerate() {
        let d = point[i] - f64::from(x.at(i));
        acc[l] += weights[i] * d * d;
    }
    combine(acc)
}

/// Partial-distance pruned form of [`weighted_distance_sq`]: returns
/// `Some(d)` iff the full distance is strictly below `bound`, abandoning
/// the instance as soon as the combined partial sum reaches the bound
/// (checked every `PRUNE_BLOCKS` lane blocks). A returned distance is
/// bit-identical to the unpruned kernel: the lanes accumulate in the
/// same order and combining them for the bound check does not perturb
/// them.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn weighted_distance_sq_below(
    point: &[f64],
    weights: &[f64],
    instance: &[f32],
    bound: f64,
) -> Option<f64> {
    let k = point.len();
    assert_eq!(weights.len(), k, "weights have wrong dimension");
    assert_eq!(instance.len(), k, "instance has wrong dimension");
    distance_below(&point[..k], &weights[..k], Direct(&instance[..k]), bound)
}

/// [`weighted_distance_sq_below`] of the mirror twin `P·instance`, read
/// through `mirror`'s index table: same checkpoints, same Some/None
/// decisions and bits as the pruned kernel over the materialised twin.
///
/// # Panics
/// Panics if the slice lengths or the mirror's dimension differ.
pub(crate) fn mirrored_distance_sq_below(
    point: &[f64],
    weights: &[f64],
    instance: &[f32],
    mirror: &Mirror,
    bound: f64,
) -> Option<f64> {
    distance_below(
        point,
        weights,
        permuted(point, weights, instance, mirror),
        bound,
    )
}

/// Dispatch of the pruned kernel (see [`distance`]).
#[inline(always)]
fn distance_below<C: Coords + Simd>(
    point: &[f64],
    weights: &[f64],
    x: C,
    bound: f64,
) -> Option<f64> {
    if bound == f64::INFINITY {
        // An infinite bound can never abandon, so skip the checkpoint
        // machinery entirely; the unpruned kernel accumulates in the
        // same lane order, so the value is the same bits.
        let total = distance(point, weights, x);
        return (total < bound).then_some(total);
    }
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the callers checked
        // that every source covers `point.len()` coordinates.
        return unsafe { x86::weighted_distance_sq_below(point, weights, x, bound) };
    }
    portable_distance_below(point, weights, x, bound)
}

/// Portable body of [`weighted_distance_sq_below`].
fn portable_distance_below<C: Coords>(
    point: &[f64],
    weights: &[f64],
    x: C,
    bound: f64,
) -> Option<f64> {
    let k = point.len();
    let mut acc = [0.0f64; LANES];
    let blocks = k / LANES;
    let mut b = 0;
    while b < blocks {
        let stop = (b + PRUNE_BLOCKS).min(blocks);
        while b < stop {
            let i = b * LANES;
            accumulate_block(&mut acc, &point[i..i + LANES], &weights[i..i + LANES], x, i);
            b += 1;
        }
        if combine(acc) >= bound {
            return None;
        }
    }
    for (l, i) in (blocks * LANES..k).enumerate() {
        let d = point[i] - f64::from(x.at(i));
        acc[l] += weights[i] * d * d;
    }
    let total = combine(acc);
    (total < bound).then_some(total)
}

/// Per-instance affine `i8` quantization parameters: the instance is
/// stored as `v̂_j = bias + scale·q_j` with `q_j ∈ [−127, 127]`, plus the
/// *measured* reconstruction radius `max_j |v_j − v̂_j|` (inflated by a
/// hair of float slack so it is a true upper bound).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Quantization step (0 for a constant instance, reconstructed
    /// exactly as `bias`).
    pub scale: f32,
    /// Mid-range offset.
    pub bias: f32,
    /// Upper bound on the per-coordinate reconstruction error.
    pub radius: f64,
}

/// Quantizes one instance to `i8` codes (appended to `codes`), returning
/// the affine parameters. The grid spans the instance's own value range
/// (`bias` at mid-range, 254 steps across), so the measured radius is
/// roughly `range / 508` — small against typical inter-bag distance
/// gaps, which is what makes the screen selective.
pub fn quantize_instance(instance: &[f32], codes: &mut Vec<i8>) -> QuantParams {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in instance {
        let v = f64::from(v);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let bias = ((lo + hi) * 0.5) as f32;
    let scale = if hi > lo {
        ((hi - lo) / 254.0) as f32
    } else {
        0.0
    };
    let b64 = f64::from(bias);
    let s64 = f64::from(scale);
    let mut radius = 0.0f64;
    for &v in instance {
        let v = f64::from(v);
        let q = if scale > 0.0 {
            ((v - b64) / s64).round().clamp(-127.0, 127.0) as i8
        } else {
            0
        };
        codes.push(q);
        // Measure, don't model: the actual reconstruction error of this
        // coordinate, whatever rounding and clamping did to it.
        radius = radius.max((v - (b64 + s64 * f64::from(q))).abs());
    }
    // The error measurement itself carries ≤ a few ulps of f64 rounding;
    // a 1e-9 relative inflation dwarfs that while costing the screen
    // nothing measurable in selectivity.
    QuantParams {
        scale,
        bias,
        radius: radius * (1.0 + 1e-9),
    }
}

/// A concept prepared for quantized screening: narrowed `f32` copies of
/// the point and weights plus the precomputed conservative slack terms
/// of the lower bound.
///
/// # The bound, and why screening is provable
///
/// Write `‖x‖_w = sqrt(Σ_j w_j x_j²)` and let `v̂` be the reconstruction
/// `bias + scale·q`. The screen computes `S = fl32(‖t₃₂ − v̂₃₂‖²_w₃₂)` in
/// `f32` over the codes. Three slack terms turn `S` into a certified
/// lower bound on the exact distance `‖t − v‖_w`:
///
/// * **Summation slack** (`inflate`): `S` overstates the real quantity
///   `‖d₃₂‖²_w` by at most `(1 + γ)(1 + 2⁻²³)` with
///   `γ = (k + 16)·2⁻²³` — the standard non-negative-summation error
///   bound (no cancellation is possible in a sum of non-negative
///   terms), plus the `w → w₃₂` narrowing.
/// * **Narrowing slack** (`f32_slack`): each computed coordinate
///   `d₃₂_j` differs from the real `t_j − v̂_j` by at most
///   `8·2⁻²⁴·M_j` with `M_j = |t_j| + max|bias| + 127·max(scale)`
///   (four roundings, each bounded by the operand magnitudes), so by
///   Cauchy–Schwarz `‖d₃₂ − (t − v̂)‖_w ≤ 8·2⁻²⁴·sqrt(Σ w_j M_j²)`.
/// * **Quantization slack** (`radius·sqrt_w_ub`): per-coordinate
///   `|v_j − v̂_j| ≤ radius`, so `‖v − v̂‖_w ≤ radius·sqrt(Σ w)` by the
///   triangle inequality on the weighted norm.
///
/// Chaining: `‖t − v‖_w ≥ sqrt(S / inflate) − f32_slack − radius·sqrt_w_ub`.
/// [`QuantQuery::threshold_with`] inverts that into a threshold on `S`
/// itself: `S ≥ T(bound)` certifies exact distance ≥ `bound`, so the
/// instance would have been rejected by the exact pruned kernel anyway —
/// rankings are unchanged *by construction*. Another engineered `1e-9`
/// of relative slack absorbs the handful of `f64` roundings in the
/// threshold computation itself and the (≤ `(k+3)·2⁻⁵³`, `k ≤ 10⁶`)
/// non-negative-summation error of the exact kernel.
#[derive(Debug, Clone)]
pub struct QuantQuery {
    point32: Vec<f32>,
    weights32: Vec<f32>,
    /// `sqrt(Σ w)`, rounded up.
    sqrt_w_ub: f64,
    /// `8·2⁻²⁴·sqrt(Σ w_j M_j²)`, rounded up.
    f32_slack: f64,
    /// `(1 + (k+16)·2⁻²³)(1 + 2⁻²³)` — the `S` overstatement factor.
    inflate: f64,
    /// False when the narrowed query over- or underflowed `f32`; the
    /// screen then never skips (sound, just useless).
    usable: bool,
}

impl QuantQuery {
    /// Prepares a concept for screening against a quantized tier whose
    /// per-instance `|bias|` and `scale` never exceed the given maxima.
    pub fn new(point: &[f64], weights: &[f64], max_abs_bias: f32, max_scale: f32) -> Self {
        let k = point.len();
        assert_eq!(weights.len(), k, "weights have wrong dimension");
        let point32: Vec<f32> = point.iter().map(|&t| t as f32).collect();
        let weights32: Vec<f32> = weights.iter().map(|&w| w as f32).collect();
        let bmax = f64::from(max_abs_bias).abs();
        let smax = f64::from(max_scale).abs();
        let w_sum: f64 = weights.iter().sum();
        let q_ub: f64 = point
            .iter()
            .zip(weights)
            .map(|(&t, &w)| {
                let m = t.abs() + bmax + 127.0 * smax;
                w * m * m
            })
            .sum();
        let gamma = (k as f64 + 16.0) * (-23f64).exp2();
        let usable = point32.iter().chain(&weights32).all(|v| v.is_finite())
            && q_ub.is_finite()
            && w_sum.is_finite();
        Self {
            point32,
            weights32,
            sqrt_w_ub: w_sum.sqrt() * (1.0 + 1e-12),
            f32_slack: 8.0 * (-24f64).exp2() * (q_ub * (1.0 + 1e-9)).sqrt(),
            inflate: (1.0 + gamma) * (1.0 + (-23f64).exp2()),
            usable,
        }
    }

    /// This query's side of a group screen against `thresholds`.
    fn group<'a>(&'a self, thresholds: &'a [f32]) -> GroupQuery<'a> {
        GroupQuery {
            point: &self.point32,
            weights: &self.weights32,
            thresholds,
        }
    }

    /// `sqrt(bound·(1 + 1e-9))` — the part of a screen threshold that
    /// depends only on the bound, cacheable across instances while the
    /// candidate bound is unchanged (see [`Self::threshold_with`]).
    pub fn sqrt_bound(&self, bound: f64) -> f64 {
        (bound.max(0.0) * (1.0 + 1e-9)).sqrt()
    }

    /// Completes the screen threshold for one instance from a cached
    /// [`Self::sqrt_bound`] and the instance's reconstruction radius: a
    /// screen sum at or above the returned value certifies exact
    /// distance ≥ the bound behind `sqrt_bound`.
    pub fn threshold_with(&self, sqrt_bound: f64, radius: f64) -> f64 {
        if !self.usable {
            return f64::INFINITY;
        }
        let base = sqrt_bound + self.f32_slack + radius * self.sqrt_w_ub;
        base * base * self.inflate * (1.0 + 1e-9)
    }

    /// Conservative `f32` form of a screen threshold for the vectorized
    /// group screen: rounded *up*, so a screen sum at or above the `f32`
    /// threshold is also at or above the `f64` one and the skip stays
    /// certified. An infinite threshold (the "cannot certify" marker)
    /// maps to NaN, which no comparison ever reaches, so the lane is
    /// never screened.
    pub fn threshold32(threshold: f64) -> f32 {
        if threshold == f64::INFINITY {
            return f32::NAN;
        }
        let t = threshold as f32;
        if f64::from(t) < threshold {
            t.next_up()
        } else {
            t
        }
    }
}

/// One query's side of a transposed group screen: the narrowed point
/// and weights, and one `f32` threshold per group lane.
#[derive(Clone, Copy)]
struct GroupQuery<'a> {
    point: &'a [f32],
    weights: &'a [f32],
    thresholds: &'a [f32],
}

/// Screens whole transposed groups of [`SCREEN_GROUP`] instances, one
/// instance per lane: the production screen. Group `g`'s codes occupy
/// `gcodes[g·8·k..(g+1)·8·k]` in dimension-major order (8 consecutive
/// codes are the group members' values for one dimension), with the
/// members' bias/scale lanes in `gbias`/`gscale` and one threshold per
/// real instance in `thresholds`; the lanes of the last group past
/// `thresholds.len()` are padding, never screened and never survivors.
/// Instance sums accumulate per lane over [`SCREEN_CHAINS`] elementwise
/// chains, the chains combine elementwise every [`SCREEN_GROUP_CHECK`]
/// dimensions for a vectorized threshold comparison, and a lane that
/// crosses its threshold at any checkpoint is screened out. A crossing
/// is a certificate: partial sums of non-negative terms are monotone,
/// and the [`QuantQuery`] inflation term covers *any* summation order,
/// so a lane's sum at or above its threshold proves its exact distance
/// at or above the bound. Surviving lanes' group-local instance indices
/// are pushed onto `survivors` in order.
///
/// Thresholds are the conservative `f32` forms from
/// [`QuantQuery::threshold32`]; a NaN threshold never screens.
///
/// # Panics
/// Panics if the slice lengths are inconsistent with
/// `thresholds.len().div_ceil(SCREEN_GROUP)` groups of the query's
/// dimension.
pub fn screen_groups(
    query: &QuantQuery,
    gcodes: &[i8],
    gbias: &[f32],
    gscale: &[f32],
    thresholds: &[f32],
    survivors: &mut Vec<u32>,
) {
    let queries = [query.group(thresholds)];
    check_group_layout(&queries, gcodes, gbias, gscale);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the lengths line up
        // per the asserts above.
        return unsafe { x86::screen_groups(queries[0], gcodes, gbias, gscale, survivors) };
    }
    portable_screen_groups(queries, gcodes, gbias, gscale, survivors)
}

/// The twin side of a pair screen: the [`QuantQuery`] of `(P·t, P·w)`
/// that screens the mirror twins `P·x` of stored instances `x` against
/// `x`'s own codes, plus both queries' point and weights interleaved for
/// the vector kernel (per dimension `j`: four copies of `t_j`, four of
/// `(P·t)_j`, then the same for the weights). Build it once per
/// (concept, store) pair.
#[derive(Debug, Clone)]
pub struct TwinQuery {
    twin: QuantQuery,
    table: Vec<f32>,
}

impl TwinQuery {
    /// Pairs `twin`, the query of `(P·t, P·w)`, with `query`, the query
    /// of `(t, w)`. Both take the larger of each slack term (the two
    /// differ only by the rounding of their sums), so one threshold per
    /// instance certifies a skip under either: a larger slack only
    /// loosens a bound.
    ///
    /// # Panics
    /// Panics if the two queries' dimensions differ.
    pub fn new(query: &mut QuantQuery, mut twin: QuantQuery) -> Self {
        assert_eq!(
            query.point32.len(),
            twin.point32.len(),
            "queries have different dimensions"
        );
        let shared = (
            query.sqrt_w_ub.max(twin.sqrt_w_ub),
            query.f32_slack.max(twin.f32_slack),
            query.inflate.max(twin.inflate),
            query.usable && twin.usable,
        );
        for q in [&mut *query, &mut twin] {
            (q.sqrt_w_ub, q.f32_slack, q.inflate, q.usable) = shared;
        }
        let half = SCREEN_GROUP / 2;
        let mut table = Vec::with_capacity(2 * SCREEN_GROUP * query.point32.len());
        for j in 0..query.point32.len() {
            for side in [
                &query.point32,
                &twin.point32,
                &query.weights32,
                &twin.weights32,
            ] {
                table.extend(std::iter::repeat_n(side[j], half));
            }
        }
        Self { twin, table }
    }

    /// Whether `query` shares this twin's slack terms, so thresholds
    /// computed with either serve both.
    fn pairs_with(&self, query: &QuantQuery) -> bool {
        let slack = |q: &QuantQuery| {
            (
                q.sqrt_w_ub.to_bits(),
                q.f32_slack.to_bits(),
                q.inflate.to_bits(),
                q.usable,
            )
        };
        slack(&self.twin) == slack(query)
    }
}

/// [`screen_groups`] for a bag of mirror pairs, in one pass over the
/// codes: each stored instance `x` is screened under `query` for itself
/// and under `twin` (the query `(P·t, P·w)`) for its twin `P·x` — in real
/// arithmetic `d(t, w; P·x) = d(P·t, P·w; x)`, so the twin's certified
/// lower bound is the ordinary screen of the twin query against `x`'s
/// own codes and radius. `thresholds` (one per stored instance) serve
/// both queries, which share their slack terms (see [`TwinQuery::new`]).
/// Each query's crossing decisions are exactly those [`screen_groups`]
/// makes for it alone; the vector kernel runs
/// four instances under both queries per register, so a pair costs one
/// lane each, like two stored instances, and half-empty groups waste no
/// lanes. Instance `i`'s survivors are pushed in order as `2i` (the
/// instance, under `query`) and `2i + 1` (its twin, under `twin`).
///
/// # Panics
/// Same as [`screen_groups`], for either query.
pub(crate) fn screen_group_pairs(
    query: &QuantQuery,
    twin: &TwinQuery,
    gcodes: &[i8],
    gbias: &[f32],
    gscale: &[f32],
    thresholds: &[f32],
    survivors: &mut Vec<u32>,
) {
    assert!(
        twin.pairs_with(query),
        "twin query was built for another query"
    );
    let queries = [query.group(thresholds), twin.twin.group(thresholds)];
    check_group_layout(&queries, gcodes, gbias, gscale);
    assert_eq!(
        twin.table.len(),
        2 * SCREEN_GROUP * query.point32.len(),
        "twin query has wrong dimension"
    );
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the lengths line up
        // per the asserts above.
        return unsafe {
            x86::screen_pairs(
                query.group(thresholds),
                &twin.table,
                gcodes,
                gbias,
                gscale,
                survivors,
            )
        };
    }
    portable_screen_groups(queries, gcodes, gbias, gscale, survivors)
}

/// Asserts that `gcodes`/`gbias`/`gscale` hold the groups of the
/// queries' instances (one threshold each).
fn check_group_layout(queries: &[GroupQuery<'_>], gcodes: &[i8], gbias: &[f32], gscale: &[f32]) {
    let k = queries[0].point.len();
    let real = queries[0].thresholds.len();
    let n = gbias.len();
    assert_eq!(
        n,
        real.div_ceil(SCREEN_GROUP) * SCREEN_GROUP,
        "group lanes do not fit the thresholds"
    );
    assert_eq!(gscale.len(), n, "scales have wrong length");
    assert_eq!(gcodes.len(), n * k, "codes have wrong length");
    for query in queries {
        assert_eq!(query.point.len(), k, "queries have different dimensions");
        assert_eq!(
            query.thresholds.len(),
            real,
            "queries have different thresholds"
        );
    }
}

/// Portable body of [`screen_groups`] (one query) and
/// [`screen_group_pairs`] (two): the same per-lane operation sequence
/// and checkpoints as the AVX2 forms, so crossing decisions match bit
/// for bit.
fn portable_screen_groups<const Q: usize>(
    queries: [GroupQuery<'_>; Q],
    gcodes: &[i8],
    gbias: &[f32],
    gscale: &[f32],
    survivors: &mut Vec<u32>,
) {
    let k = queries[0].point.len();
    let real = queries[0].thresholds.len();
    for base in (0..real).step_by(SCREEN_GROUP) {
        let lanes = SCREEN_GROUP.min(real - base);
        let codes = &gcodes[base * k..(base + SCREEN_GROUP) * k];
        let bias = &gbias[base..base + SCREEN_GROUP];
        let scale = &gscale[base..base + SCREEN_GROUP];
        let th: [[f32; SCREEN_GROUP]; Q] = std::array::from_fn(|q| {
            let mut lane_th = [f32::NAN; SCREEN_GROUP];
            lane_th[..lanes].copy_from_slice(&queries[q].thresholds[base..base + lanes]);
            lane_th
        });
        let mut acc = [[[0.0f32; SCREEN_GROUP]; SCREEN_CHAINS]; Q];
        // Pad lanes start out crossed, so they never hold the group's
        // early exit back.
        let mut crossed = [std::array::from_fn(|l| l >= lanes); Q];
        let full = k / SCREEN_CHAINS * SCREEN_CHAINS;
        let mut j = 0;
        let mut done = false;
        let step =
            |acc: &mut [[[f32; SCREEN_GROUP]; SCREEN_CHAINS]; Q], j: usize, chains: usize| {
                for u in 0..chains {
                    for l in 0..SCREEN_GROUP {
                        let recon = scale[l] * f32::from(codes[(j + u) * SCREEN_GROUP + l]);
                        for (a, query) in acc.iter_mut().zip(&queries) {
                            let d = (query.point[j + u] - bias[l]) - recon;
                            a[u][l] += query.weights[j + u] * d * d;
                        }
                    }
                }
            };
        let check = |acc: &[[[f32; SCREEN_GROUP]; SCREEN_CHAINS]; Q],
                     crossed: &mut [[bool; SCREEN_GROUP]; Q]| {
            let mut all = true;
            for q in 0..Q {
                all &= group_checkpoint(&acc[q], &th[q], &mut crossed[q]);
            }
            all
        };
        while j < full {
            let stop = (j + SCREEN_GROUP_CHECK).min(full);
            while j < stop {
                step(&mut acc, j, SCREEN_CHAINS);
                j += SCREEN_CHAINS;
            }
            done = check(&acc, &mut crossed);
            if done {
                break;
            }
        }
        if !done {
            step(&mut acc, j, k - j);
            check(&acc, &mut crossed);
        }
        for l in 0..lanes {
            for (q, lanes) in crossed.iter().enumerate() {
                if !lanes[l] {
                    survivors.push(((base + l) * Q + q) as u32);
                }
            }
        }
    }
}

/// One group-screen checkpoint: elementwise chain combine and threshold
/// comparison (`>=` is false against a NaN threshold, exactly like the
/// vector `GE_OQ` predicate). Returns whether every lane has crossed.
#[inline(always)]
fn group_checkpoint(
    acc: &[[f32; SCREEN_GROUP]; SCREEN_CHAINS],
    th: &[f32],
    crossed: &mut [bool; SCREEN_GROUP],
) -> bool {
    let mut all = true;
    for l in 0..SCREEN_GROUP {
        let s = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
        crossed[l] |= s >= th[l];
        all &= crossed[l];
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain scalar restatement of the lane decomposition — the
    /// bit-for-bit reference the unrolled kernel must match.
    fn lane_reference(point: &[f64], weights: &[f64], instance: &[f32]) -> f64 {
        let k = point.len();
        let mut acc = [0.0f64; LANES];
        let blocks = k / LANES;
        for i in 0..blocks * LANES {
            let d = point[i] - f64::from(instance[i]);
            acc[i % LANES] += weights[i] * d * d;
        }
        for (l, i) in (blocks * LANES..k).enumerate() {
            let d = point[i] - f64::from(instance[i]);
            acc[l] += weights[i] * d * d;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    /// The pre-lanes sequential kernel: one accumulator, strictly
    /// dimension-order adds — the throughput reference the unrolled
    /// kernel must beat. A single add chain serialises on floating-point
    /// add latency, which is exactly the bottleneck the [`LANES`]
    /// independent accumulators break.
    fn weighted_distance_sq_sequential(point: &[f64], weights: &[f64], instance: &[f32]) -> f64 {
        let mut acc = 0.0f64;
        for i in 0..point.len() {
            let d = point[i] - f64::from(instance[i]);
            acc += weights[i] * d * d;
        }
        acc
    }

    /// Whether the group screen keeps `instance` (quantized to
    /// `codes`/`p`) against `bound`, screening it as a one-instance
    /// group — its pad lanes start crossed — with the threshold built
    /// as the screened bag scan builds it:
    /// `threshold32(threshold_with(sqrt_bound(bound), radius))`.
    fn group_screen_keeps(query: &QuantQuery, codes: &[i8], p: QuantParams, bound: f64) -> bool {
        let k = codes.len();
        let mut gcodes = vec![0i8; SCREEN_GROUP * k];
        for (j, &c) in codes.iter().enumerate() {
            gcodes[j * SCREEN_GROUP] = c;
        }
        let (mut gbias, mut gscale) = ([0.0f32; SCREEN_GROUP], [0.0f32; SCREEN_GROUP]);
        (gbias[0], gscale[0]) = (p.bias, p.scale);
        let threshold =
            QuantQuery::threshold32(query.threshold_with(query.sqrt_bound(bound), p.radius));
        let mut survivors = Vec::new();
        screen_groups(
            query,
            &gcodes,
            &gbias,
            &gscale,
            &[threshold],
            &mut survivors,
        );
        survivors == [0]
    }

    /// An instance quantized, with its query prepared against its own
    /// quantization parameters, and its exact distance.
    fn quantized(k: usize, seed: u64) -> (QuantQuery, Vec<i8>, QuantParams, f64) {
        let (point, weights, instance) = fixture(k, seed);
        let mut codes = Vec::new();
        let p = quantize_instance(&instance, &mut codes);
        let query = QuantQuery::new(&point, &weights, p.bias.abs(), p.scale);
        let exact = weighted_distance_sq(&point, &weights, &instance);
        (query, codes, p, exact)
    }

    fn fixture(k: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f32>) {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        };
        let point: Vec<f64> = (0..k).map(|_| next() * 5.0).collect();
        let weights: Vec<f64> = (0..k).map(|_| next().abs() * 3.0 + 0.01).collect();
        let instance: Vec<f32> = (0..k).map(|_| (next() * 5.0) as f32).collect();
        (point, weights, instance)
    }

    #[test]
    fn unrolled_matches_lane_reference_bit_for_bit() {
        for k in [1, 2, 3, 4, 5, 7, 8, 9, 16, 19, 31, 32, 33, 100, 257] {
            let (point, weights, instance) = fixture(k, k as u64);
            let unrolled = weighted_distance_sq(&point, &weights, &instance);
            let reference = lane_reference(&point, &weights, &instance);
            assert_eq!(
                unrolled.to_bits(),
                reference.to_bits(),
                "k = {k}: unrolled {unrolled} != reference {reference}"
            );
        }
    }

    #[test]
    fn pruned_matches_unpruned_bit_for_bit() {
        for k in [1, 3, 4, 7, 8, 9, 16, 19, 100, 257] {
            let (point, weights, instance) = fixture(k, 1000 + k as u64);
            let full = weighted_distance_sq(&point, &weights, &instance);
            assert_eq!(
                weighted_distance_sq_below(&point, &weights, &instance, full + 1.0),
                Some(full),
                "k = {k}"
            );
            assert_eq!(
                weighted_distance_sq_below(&point, &weights, &instance, full),
                None,
                "k = {k}: bound at the distance must abandon"
            );
            assert_eq!(
                weighted_distance_sq_below(&point, &weights, &instance, full * 0.5),
                None,
                "k = {k}"
            );
            assert_eq!(
                weighted_distance_sq_below(&point, &weights, &instance, f64::INFINITY),
                Some(full),
                "k = {k}"
            );
        }
    }

    #[test]
    fn sequential_agrees_to_rounding() {
        // The lane split reorders the sum, so sequential and unrolled
        // differ only by accumulated rounding — a relative handful of
        // ulps, not a semantic drift.
        let (point, weights, instance) = fixture(100, 7);
        let unrolled = weighted_distance_sq(&point, &weights, &instance);
        let sequential = weighted_distance_sq_sequential(&point, &weights, &instance);
        let rel = (unrolled - sequential).abs() / sequential.max(1e-300);
        assert!(
            rel < 1e-12,
            "unrolled {unrolled} vs sequential {sequential}"
        );
    }

    /// The throughput contract of the tentpole: the unrolled kernel must
    /// beat the sequential single-chain kernel. Best-of-N over a batch
    /// big enough to swamp timer noise, with a generous pass margin so a
    /// noisy CI box cannot flake — but a rotted kernel (unrolling undone,
    /// lanes collapsed back to one chain) still fails.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "throughput contract only holds for optimized builds; CI runs it as \
                  `cargo test --release -p milr-mil --lib unrolled_kernel_beats_sequential_throughput`"
    )]
    fn unrolled_kernel_beats_sequential_throughput() {
        let k = 256;
        let (point, weights, _) = fixture(k, 42);
        let instances: Vec<Vec<f32>> = (0..256).map(|s| fixture(k, s).2).collect();
        let time = |f: &dyn Fn(&[f32]) -> f64| {
            let mut best = f64::INFINITY;
            for _ in 0..7 {
                let start = std::time::Instant::now();
                let mut sum = 0.0;
                for inst in &instances {
                    sum += f(inst);
                }
                std::hint::black_box(sum);
                best = best.min(start.elapsed().as_secs_f64());
            }
            best
        };
        let unrolled = time(&|inst| weighted_distance_sq(&point, &weights, inst));
        let sequential = time(&|inst| weighted_distance_sq_sequential(&point, &weights, inst));
        assert!(
            unrolled <= sequential * 1.10,
            "unrolled kernel must beat the sequential chain: \
             unrolled {unrolled:.6}s vs sequential {sequential:.6}s \
             ({:.2}x)",
            sequential / unrolled
        );
    }

    #[test]
    fn quantization_reconstructs_within_radius() {
        for k in [1, 2, 8, 100] {
            let (_, _, instance) = fixture(k, 9000 + k as u64);
            let mut codes = Vec::new();
            let p = quantize_instance(&instance, &mut codes);
            assert_eq!(codes.len(), k);
            assert!(p.radius >= 0.0);
            for (j, &v) in instance.iter().enumerate() {
                let recon = f64::from(p.bias) + f64::from(p.scale) * f64::from(codes[j]);
                assert!(
                    (f64::from(v) - recon).abs() <= p.radius,
                    "k = {k}, j = {j}: |{v} - {recon}| > {}",
                    p.radius
                );
            }
        }
    }

    #[test]
    fn constant_instance_quantizes_exactly() {
        let instance = vec![2.5f32; 17];
        let mut codes = Vec::new();
        let p = quantize_instance(&instance, &mut codes);
        assert_eq!(p.scale, 0.0);
        assert_eq!(p.bias, 2.5);
        assert_eq!(p.radius, 0.0);
        assert!(codes.iter().all(|&q| q == 0));
    }

    #[test]
    fn screen_lower_bound_never_exceeds_exact_distance() {
        // The screen's certified lower bound never exceeds the exact
        // distance: for every bound above it, the screen keeps the
        // instance. Factors just above 1 catch a bound that is too high.
        for k in [1, 5, 8, 16, 19, 100] {
            for seed in 0..50u64 {
                let (query, codes, p, exact) = quantized(k, seed * 31 + k as u64);
                for factor in [1.0 + 1e-6, 1.001, 1.1] {
                    assert!(
                        group_screen_keeps(&query, &codes, p, exact * factor),
                        "k = {k}, seed {seed}, factor {factor}: \
                         screened out an instance below the bound"
                    );
                }
            }
        }
    }

    #[test]
    fn screen_skip_implies_exact_distance_at_or_above_bound() {
        // The load-bearing soundness property, hammered over random
        // bounds clustered around the exact distance where an unsound
        // slack term would show.
        for k in [4, 8, 16, 100] {
            for seed in 0..50u64 {
                let (query, codes, p, exact) = quantized(k, seed * 97 + k as u64);
                for factor in [0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0] {
                    let bound = exact * factor;
                    if !group_screen_keeps(&query, &codes, p, bound) {
                        assert!(
                            exact >= bound,
                            "k = {k}, seed {seed}, factor {factor}: \
                             screened out an instance below the bound"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn screen_is_selective_near_misses() {
        // Effectiveness, not just soundness: with a bound well below the
        // exact distance the screen must actually skip — otherwise the
        // tier is sound but useless.
        let (query, codes, p, exact) = quantized(100, 5);
        assert!(
            !group_screen_keeps(&query, &codes, p, exact * 0.5),
            "screen failed to reject a candidate at 2x the bound"
        );
    }

    #[test]
    fn infinite_bound_never_skips() {
        let (query, codes, p, _) = quantized(8, 3);
        assert!(group_screen_keeps(&query, &codes, p, f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn mismatched_dimensions_rejected() {
        let _ = weighted_distance_sq(&[0.0, 1.0], &[1.0, 1.0], &[0.0]);
    }

    /// On an AVX2 machine the exact kernels take the vector path; this
    /// pins them bit-for-bit against the portable bodies (Some/None
    /// decisions included) across block counts, tails, and bounds. On a
    /// non-AVX2 machine both sides are the portable form and the test is
    /// trivially green.
    #[test]
    fn dispatched_kernels_match_portable_bodies_bit_for_bit() {
        for k in [1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 257] {
            let (point, weights, instance) = fixture(k, 5000 + k as u64);
            let dispatched = weighted_distance_sq(&point, &weights, &instance);
            let portable = portable_distance(&point, &weights, Direct(&instance));
            assert_eq!(dispatched.to_bits(), portable.to_bits(), "k = {k}");
            for factor in [0.25, 0.5, 0.9, 1.0, 1.1, 2.0] {
                let bound = dispatched * factor;
                assert_eq!(
                    weighted_distance_sq_below(&point, &weights, &instance, bound)
                        .map(f64::to_bits),
                    portable_distance_below(&point, &weights, Direct(&instance), bound)
                        .map(f64::to_bits),
                    "k = {k}, factor {factor}"
                );
            }
        }
    }

    #[test]
    fn dispatched_group_screen_matches_portable_bit_for_bit() {
        // Instance counts cover full groups and padded last groups of
        // at most 4 real lanes (a pair screen's last register) and more.
        for (k, n) in [
            (1usize, 16usize),
            (3, 13),
            (4, 3),
            (7, 16),
            (16, 6),
            (17, 20),
            (100, 12),
            (257, 9),
        ] {
            let (point, weights, _) = fixture(k, 9000 + k as u64);
            let lanes = n.div_ceil(SCREEN_GROUP) * SCREEN_GROUP;
            let mut params = Vec::new();
            let mut instances = Vec::new();
            let mut gcodes = vec![0i8; lanes * k];
            let (mut gbias, mut gscale) = (vec![0.0f32; lanes], vec![0.0f32; lanes]);
            let (mut max_bias, mut max_scale) = (0.0f32, 0.0f32);
            for i in 0..n {
                let (_, _, inst) = fixture(k, 9100 + (k * 31 + i) as u64);
                let mut codes = Vec::new();
                let p = quantize_instance(&inst, &mut codes);
                max_bias = max_bias.max(p.bias.abs());
                max_scale = max_scale.max(p.scale);
                let (g, l) = (i / SCREEN_GROUP, i % SCREEN_GROUP);
                for (j, &c) in codes.iter().enumerate() {
                    gcodes[g * SCREEN_GROUP * k + j * SCREEN_GROUP + l] = c;
                }
                (gbias[i], gscale[i]) = (p.bias, p.scale);
                params.push(p);
                instances.push(inst);
            }
            let mut query = QuantQuery::new(&point, &weights, max_bias, max_scale);
            // The twin-side query of a pair screen: the point and
            // weights reversed.
            let reversed = |v: &[f64]| v.iter().rev().copied().collect::<Vec<f64>>();
            let twin = TwinQuery::new(
                &mut query,
                QuantQuery::new(&reversed(&point), &reversed(&weights), max_bias, max_scale),
            );
            for factor in [0.25, 1.0, 2.0, f64::INFINITY] {
                let thresholds_of = |q: &QuantQuery| -> Vec<f32> {
                    params
                        .iter()
                        .zip(&instances)
                        .map(|(p, inst)| {
                            let bound = weighted_distance_sq(&point, &weights, inst) * factor;
                            QuantQuery::threshold32(q.threshold_with(q.sqrt_bound(bound), p.radius))
                        })
                        .collect()
                };
                let thresholds = thresholds_of(&query);
                let mut dispatched = Vec::new();
                screen_groups(
                    &query,
                    &gcodes,
                    &gbias,
                    &gscale,
                    &thresholds,
                    &mut dispatched,
                );
                let mut portable = Vec::new();
                portable_screen_groups(
                    [query.group(&thresholds)],
                    &gcodes,
                    &gbias,
                    &gscale,
                    &mut portable,
                );
                assert_eq!(dispatched, portable, "k = {k}, n = {n}, factor {factor}");
                assert!(
                    dispatched.iter().all(|&i| (i as usize) < n),
                    "a pad lane survived"
                );
                // The pair screen decides each query exactly as a
                // screen of its own would, interleaved as 2i / 2i + 1.
                let mut pairs = Vec::new();
                screen_group_pairs(
                    &query,
                    &twin,
                    &gcodes,
                    &gbias,
                    &gscale,
                    &thresholds,
                    &mut pairs,
                );
                let mut portable_pairs = Vec::new();
                portable_screen_groups(
                    [query.group(&thresholds), twin.twin.group(&thresholds)],
                    &gcodes,
                    &gbias,
                    &gscale,
                    &mut portable_pairs,
                );
                assert_eq!(pairs, portable_pairs, "k = {k}, n = {n}, factor {factor}");
                let mut alone = Vec::new();
                screen_groups(
                    &twin.twin,
                    &gcodes,
                    &gbias,
                    &gscale,
                    &thresholds,
                    &mut alone,
                );
                let mut merged: Vec<u32> = dispatched
                    .iter()
                    .map(|&i| 2 * i)
                    .chain(alone.iter().map(|&i| 2 * i + 1))
                    .collect();
                merged.sort_unstable();
                assert_eq!(pairs, merged, "k = {k}, n = {n}, factor {factor}");
                // Soundness spot-check: a screened-out lane's exact
                // distance is at or above the bound its threshold
                // certified against.
                for (i, inst) in instances.iter().enumerate() {
                    if !dispatched.contains(&(i as u32)) {
                        let exact = weighted_distance_sq(&point, &weights, inst);
                        assert!(
                            exact >= exact * factor || factor > 1.0,
                            "k = {k}: lane {i} screened below its own bound"
                        );
                    }
                }
                if factor.is_infinite() {
                    assert_eq!(dispatched.len(), n, "NaN thresholds must never screen");
                }
            }
        }
    }
}
