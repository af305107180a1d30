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
//! 2. **The quantized screen** ([`screen_skips`]): an `i8` affine
//!    scalar-quantized mirror of the instances (see
//!    [`quantize_instance`]) whose *provable lower bound* on the exact
//!    distance rejects hopeless candidates before the exact kernel
//!    runs. The screen works in `f32` over quarter-width codes — half
//!    the vector lanes and a quarter of the memory traffic of the exact
//!    kernel — and is conservative by construction: a screened-out
//!    instance provably has exact distance ≥ the bound, so screening
//!    can never change a ranking (see [`QuantQuery`] for the bound
//!    derivation).
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
//! (one lane block per 256-bit operation) selected by a cached runtime
//! probe. The vector forms repeat the portable forms' exact operation
//! sequence — elementwise correctly-rounded IEEE ops in the same lane
//! order, exact conversions, no FMA contraction, scalar lane combines,
//! identical prune checkpoints — so dispatched and portable kernels
//! return bit-identical values (and identical abandon decisions) on
//! every input; a dedicated test pins this on AVX2 hardware.

/// Accumulator lanes of the exact `f64` kernel.
pub const LANES: usize = 4;

/// Accumulator lanes of the `f32` quantized screen.
pub const SCREEN_LANES: usize = 8;

/// Instances per transposed screen group: the group screen holds one
/// instance per `f32` vector lane, so a group is one 256-bit register
/// wide. Groups are built from consecutive instances *within* a bag;
/// a bag's trailing `len % SCREEN_GROUP` instances screen through the
/// per-instance path instead.
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

/// Bound check cadence of the portable pruned kernels, in lane blocks:
/// the exact kernel checks every `PRUNE_BLOCKS × LANES = 8` dimensions,
/// the screen every `PRUNE_BLOCKS × SCREEN_LANES = 16`.
///
/// Cadence is a pure throughput knob, invisible to results: a checkpoint
/// only fires when the (monotone, non-negative) partial sum has already
/// reached the bound, which proves the final sum does too — so `None` is
/// returned exactly when the full distance is at or above the bound, at
/// *any* cadence. The AVX2 forms exploit this with a coarser cadence of
/// their own (vector blocks are cheap; combining lanes for a check is
/// comparatively expensive).
const PRUNE_BLOCKS: usize = 2;

/// Runtime-dispatched AVX2 forms of the two hot loops.
///
/// The baseline build targets SSE2 (the x86-64 floor), where the `i8 →
/// f32` reconstruction in the screen and the 4-wide `f64` blocks of the
/// exact kernel cannot vectorise profitably. On CPUs with AVX2 the same
/// loops run one block per 256-bit vector instruction. Dispatch is
/// decided once (a cached `cpuid` probe) and is *invisible to results*:
/// every vector operation is elementwise in the same lane order as the
/// portable form, each IEEE-754 operation is correctly rounded exactly
/// like its scalar counterpart, the `i8 → f32` / `f32 → f64` conversions
/// are exact, no FMA contraction is used, and the lane combines stay
/// scalar — so both forms return bit-identical values on every input
/// (pinned by the kernel tests and proptests, which compare the
/// dispatched kernels against portable references).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{combine, screen_combine, LANES, SCREEN_LANES};

    /// Checkpoint cadences of the AVX2 pruned kernels, in vector
    /// blocks. One block is a single 256-bit iteration, so the exact
    /// kernel checks every `4 × LANES = 16` dimensions and the screen
    /// every `2 × SCREEN_LANES = 16` — any cadence is sound (see
    /// [`super::PRUNE_BLOCKS`]), so these are pure throughput knobs:
    /// the exact kernel trades a coarser cadence for fewer in-register
    /// combines, while the screen keeps checks tight because screened
    /// instances are the overwhelming majority and every skipped block
    /// is pure profit.
    const PRUNE_BLOCKS: usize = 4;
    const SCREEN_PRUNE_BLOCKS: usize = 2;
    use std::arch::x86_64::{
        __m128i, __m256, __m256d, _mm256_add_pd, _mm256_add_ps, _mm256_castpd256_pd128,
        _mm256_castps256_ps128, _mm256_cmp_ps, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32,
        _mm256_cvtps_pd, _mm256_extractf128_pd, _mm256_extractf128_ps, _mm256_hadd_pd,
        _mm256_hadd_ps, _mm256_loadu_pd, _mm256_loadu_ps, _mm256_movemask_ps, _mm256_mul_pd,
        _mm256_mul_ps, _mm256_or_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_pd,
        _mm256_storeu_ps, _mm256_sub_pd, _mm256_sub_ps, _mm_add_sd, _mm_add_ss, _mm_cvtsd_f64,
        _mm_cvtss_f32, _mm_hadd_ps, _mm_loadl_epi64, _mm_loadu_ps, _CMP_GE_OQ,
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

    /// In-register [`screen_combine`]: the same `(s0+s1)+(s2+s3)`,
    /// `(s4+s5)+(s6+s7)`, `a+b` addition sequence as the scalar form.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn combine_ps(a: __m256) -> f64 {
        let h = _mm256_hadd_ps(a, a); // lo: [s0+s1, s2+s3, …], hi: [s4+s5, s6+s7, …]
        let lo = _mm256_castps256_ps128(h);
        let hi = _mm256_extractf128_ps(h, 1);
        let a2 = _mm_hadd_ps(lo, lo); // lane 0: (s0+s1)+(s2+s3)
        let b2 = _mm_hadd_ps(hi, hi); // lane 0: (s4+s5)+(s6+s7)
        f64::from(_mm_cvtss_f32(_mm_add_ss(a2, b2)))
    }

    /// Cached AVX2 probe: 0 = unknown, 1 = absent, 2 = present.
    static AVX2: AtomicU8 = AtomicU8::new(0);

    #[inline(always)]
    pub fn have_avx2() -> bool {
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

    /// AVX2 [`super::weighted_distance_sq`]: one 4-lane `f64` block per
    /// vector iteration, scalar tail and combine.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn weighted_distance_sq(point: &[f64], weights: &[f64], instance: &[f32]) -> f64 {
        let k = point.len();
        let blocks = k / LANES;
        let mut a = _mm256_loadu_pd([0.0f64; LANES].as_ptr());
        for b in 0..blocks {
            let i = b * LANES;
            let p = _mm256_loadu_pd(point.as_ptr().add(i));
            let w = _mm256_loadu_pd(weights.as_ptr().add(i));
            let v = _mm256_cvtps_pd(_mm_loadu_ps(instance.as_ptr().add(i)));
            let d = _mm256_sub_pd(p, v);
            a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_mul_pd(w, d), d));
        }
        let mut acc = [0.0f64; LANES];
        _mm256_storeu_pd(acc.as_mut_ptr(), a);
        for (l, i) in (blocks * LANES..k).enumerate() {
            let d = point[i] - f64::from(instance[i]);
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
    pub unsafe fn weighted_distance_sq_below(
        point: &[f64],
        weights: &[f64],
        instance: &[f32],
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
                let v = _mm256_cvtps_pd(_mm_loadu_ps(instance.as_ptr().add(i)));
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
            let d = point[i] - f64::from(instance[i]);
            acc[l] += weights[i] * d * d;
        }
        let total = combine(acc);
        (total < bound).then_some(total)
    }

    /// One 8-lane screen block: 8 codes sign-extended and converted in
    /// one shot (`vpmovsxbd` + `vcvtdq2ps`, both exact for `|q| ≤ 127`),
    /// then the same `(p − bias) − scale·q` arithmetic as the portable
    /// block, elementwise.
    #[inline(always)]
    unsafe fn screen_block(
        a: std::arch::x86_64::__m256,
        point: *const f32,
        weights: *const f32,
        codes: *const i8,
        bias: std::arch::x86_64::__m256,
        scale: std::arch::x86_64::__m256,
    ) -> std::arch::x86_64::__m256 {
        let p = _mm256_loadu_ps(point);
        let w = _mm256_loadu_ps(weights);
        let q = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(
            codes as *const __m128i,
        )));
        let d = _mm256_sub_ps(_mm256_sub_ps(p, bias), _mm256_mul_ps(scale, q));
        _mm256_add_ps(a, _mm256_mul_ps(_mm256_mul_ps(w, d), d))
    }

    /// AVX2 [`super::screen_sum`].
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn screen_sum(
        point: &[f32],
        weights: &[f32],
        codes: &[i8],
        bias: f32,
        scale: f32,
    ) -> f64 {
        let k = point.len();
        let blocks = k / SCREEN_LANES;
        let bv = _mm256_set1_ps(bias);
        let sv = _mm256_set1_ps(scale);
        let mut a = _mm256_loadu_ps([0.0f32; SCREEN_LANES].as_ptr());
        for b in 0..blocks {
            let i = b * SCREEN_LANES;
            a = screen_block(
                a,
                point.as_ptr().add(i),
                weights.as_ptr().add(i),
                codes.as_ptr().add(i),
                bv,
                sv,
            );
        }
        let mut acc = [0.0f32; SCREEN_LANES];
        _mm256_storeu_ps(acc.as_mut_ptr(), a);
        for (l, i) in (blocks * SCREEN_LANES..k).enumerate() {
            let d = (point[i] - bias) - scale * f32::from(codes[i]);
            acc[l] += weights[i] * d * d;
        }
        screen_combine(acc)
    }

    /// AVX2 [`super::screen_skips`]: identical checkpoint positions, so
    /// skip decisions match the portable form on every input.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn screen_skips(
        point: &[f32],
        weights: &[f32],
        codes: &[i8],
        bias: f32,
        scale: f32,
        threshold: f64,
    ) -> bool {
        let k = point.len();
        let blocks = k / SCREEN_LANES;
        let bv = _mm256_set1_ps(bias);
        let sv = _mm256_set1_ps(scale);
        let mut a = _mm256_loadu_ps([0.0f32; SCREEN_LANES].as_ptr());
        let mut b = 0;
        while b < blocks {
            let stop = (b + SCREEN_PRUNE_BLOCKS).min(blocks);
            while b < stop {
                let i = b * SCREEN_LANES;
                a = screen_block(
                    a,
                    point.as_ptr().add(i),
                    weights.as_ptr().add(i),
                    codes.as_ptr().add(i),
                    bv,
                    sv,
                );
                b += 1;
            }
            if combine_ps(a) >= threshold {
                return true;
            }
        }
        let mut acc = [0.0f32; SCREEN_LANES];
        _mm256_storeu_ps(acc.as_mut_ptr(), a);
        for (l, i) in (blocks * SCREEN_LANES..k).enumerate() {
            let d = (point[i] - bias) - scale * f32::from(codes[i]);
            acc[l] += weights[i] * d * d;
        }
        screen_combine(acc) >= threshold
    }

    /// AVX2 [`super::screen_bag`]: the whole bag's screen in one
    /// `target_feature` frame, so the per-instance [`screen_skips`]
    /// calls inline — no per-instance dispatch, call or spill overhead,
    /// which is where a tight screen actually spends its time once the
    /// vector work is down to a couple of blocks per rejected instance.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn screen_bag(
        point: &[f32],
        weights: &[f32],
        codes: &[i8],
        params: &[super::QuantParams],
        thresholds: &[f64],
        survivors: &mut Vec<u32>,
    ) {
        let k = point.len();
        for (i, (p, &t)) in params.iter().zip(thresholds).enumerate() {
            if t == f64::INFINITY
                || !screen_skips(
                    point,
                    weights,
                    &codes[i * k..(i + 1) * k],
                    p.bias,
                    p.scale,
                    t,
                )
            {
                survivors.push(i as u32);
            }
        }
    }

    use super::{SCREEN_CHAINS, SCREEN_GROUP, SCREEN_GROUP_CHECK};

    /// AVX2 [`super::screen_groups`]: one instance per lane, one
    /// transposed 8-code load per dimension, four elementwise
    /// accumulator chains, and a vectorized `cmp + movemask` threshold
    /// check — no horizontal operation anywhere. Operation order is the
    /// exact mirror of the portable body, so crossing decisions match
    /// bit for bit.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the [`have_avx2`] dispatch).
    #[target_feature(enable = "avx2")]
    pub unsafe fn screen_groups(
        point: &[f32],
        weights: &[f32],
        gcodes: &[i8],
        gbias: &[f32],
        gscale: &[f32],
        thresholds: &[f32],
        survivors: &mut Vec<u32>,
    ) {
        let k = point.len();
        let groups = gbias.len() / SCREEN_GROUP;
        for g in 0..groups {
            let base = g * SCREEN_GROUP;
            let codes = gcodes.as_ptr().add(base * k);
            let bias = _mm256_loadu_ps(gbias.as_ptr().add(base));
            let scale = _mm256_loadu_ps(gscale.as_ptr().add(base));
            let th = _mm256_loadu_ps(thresholds.as_ptr().add(base));
            let mut acc = [_mm256_setzero_ps(); SCREEN_CHAINS];
            let mut crossed = _mm256_setzero_ps();
            let full = k / SCREEN_CHAINS * SCREEN_CHAINS;
            let mut j = 0;
            let mut done = false;
            while j < full {
                let stop = (j + SCREEN_GROUP_CHECK).min(full);
                while j < stop {
                    for u in 0..SCREEN_CHAINS {
                        let q = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(
                            codes.add((j + u) * SCREEN_GROUP) as *const __m128i,
                        )));
                        let p = _mm256_set1_ps(point[j + u]);
                        let w = _mm256_set1_ps(weights[j + u]);
                        let d = _mm256_sub_ps(_mm256_sub_ps(p, bias), _mm256_mul_ps(scale, q));
                        acc[u] = _mm256_add_ps(acc[u], _mm256_mul_ps(_mm256_mul_ps(w, d), d));
                    }
                    j += SCREEN_CHAINS;
                }
                let s = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
                crossed = _mm256_or_ps(crossed, _mm256_cmp_ps::<_CMP_GE_OQ>(s, th));
                if _mm256_movemask_ps(crossed) == 0xFF {
                    done = true;
                    break;
                }
            }
            if !done {
                for u in 0..(k - j) {
                    let q = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_loadl_epi64(
                        codes.add((j + u) * SCREEN_GROUP) as *const __m128i,
                    )));
                    let p = _mm256_set1_ps(point[j + u]);
                    let w = _mm256_set1_ps(weights[j + u]);
                    let d = _mm256_sub_ps(_mm256_sub_ps(p, bias), _mm256_mul_ps(scale, q));
                    acc[u] = _mm256_add_ps(acc[u], _mm256_mul_ps(_mm256_mul_ps(w, d), d));
                }
                let s = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
                crossed = _mm256_or_ps(crossed, _mm256_cmp_ps::<_CMP_GE_OQ>(s, th));
            }
            let mask = _mm256_movemask_ps(crossed);
            for l in 0..SCREEN_GROUP {
                if mask & (1 << l) == 0 {
                    survivors.push((base + l) as u32);
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

/// One unrolled block of the exact kernel: dimensions `i..i + LANES`
/// into their respective lanes.
#[inline(always)]
fn accumulate_block(acc: &mut [f64; LANES], point: &[f64], weights: &[f64], instance: &[f32]) {
    for l in 0..LANES {
        let d = point[l] - f64::from(instance[l]);
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
    let (point, weights, instance) = (&point[..k], &weights[..k], &instance[..k]);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the slices share
        // length `k` per the asserts above.
        return unsafe { x86::weighted_distance_sq(point, weights, instance) };
    }
    portable_distance(point, weights, instance)
}

/// Portable body of [`weighted_distance_sq`] (also the bit-for-bit
/// reference the AVX2 form must match).
fn portable_distance(point: &[f64], weights: &[f64], instance: &[f32]) -> f64 {
    let k = point.len();
    let mut acc = [0.0f64; LANES];
    let blocks = k / LANES;
    for b in 0..blocks {
        let i = b * LANES;
        accumulate_block(
            &mut acc,
            &point[i..i + LANES],
            &weights[i..i + LANES],
            &instance[i..i + LANES],
        );
    }
    for (l, i) in (blocks * LANES..k).enumerate() {
        let d = point[i] - f64::from(instance[i]);
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
    let (point, weights, instance) = (&point[..k], &weights[..k], &instance[..k]);
    if bound == f64::INFINITY {
        // An infinite bound can never abandon, so skip the checkpoint
        // machinery entirely; the unpruned kernel accumulates in the
        // same lane order, so the value is the same bits.
        let total = weighted_distance_sq(point, weights, instance);
        return (total < bound).then_some(total);
    }
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the slices share
        // length `k` per the asserts above.
        return unsafe { x86::weighted_distance_sq_below(point, weights, instance, bound) };
    }
    portable_distance_below(point, weights, instance, bound)
}

/// Portable body of [`weighted_distance_sq_below`].
fn portable_distance_below(
    point: &[f64],
    weights: &[f64],
    instance: &[f32],
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
            accumulate_block(
                &mut acc,
                &point[i..i + LANES],
                &weights[i..i + LANES],
                &instance[i..i + LANES],
            );
            b += 1;
        }
        if combine(acc) >= bound {
            return None;
        }
    }
    for (l, i) in (blocks * LANES..k).enumerate() {
        let d = point[i] - f64::from(instance[i]);
        acc[l] += weights[i] * d * d;
    }
    let total = combine(acc);
    (total < bound).then_some(total)
}

/// The pre-lanes sequential kernel: one accumulator, strictly
/// dimension-order adds. Kept (and exercised by the bench harness) as
/// the throughput reference the unrolled kernel must beat — a single
/// add chain serialises on floating-point add latency, which is exactly
/// the bottleneck the [`LANES`] independent accumulators break.
pub fn weighted_distance_sq_sequential(point: &[f64], weights: &[f64], instance: &[f32]) -> f64 {
    let k = point.len();
    assert_eq!(weights.len(), k, "weights have wrong dimension");
    assert_eq!(instance.len(), k, "instance has wrong dimension");
    let (point, weights, instance) = (&point[..k], &weights[..k], &instance[..k]);
    let mut acc = 0.0f64;
    for i in 0..k {
        let d = point[i] - f64::from(instance[i]);
        acc += weights[i] * d * d;
    }
    acc
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
/// [`QuantQuery::screen_threshold`] inverts that into a threshold on `S`
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

    /// The narrowed ideal point (test/bench hook).
    pub fn point32(&self) -> &[f32] {
        &self.point32
    }

    /// `sqrt(bound·(1 + 1e-9))` — the reusable part of
    /// [`Self::screen_threshold`], cacheable across instances while the
    /// candidate bound is unchanged.
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

    /// `threshold_with(sqrt_bound(bound), radius)` in one call.
    pub fn screen_threshold(&self, bound: f64, radius: f64) -> f64 {
        if !bound.is_finite() {
            return f64::INFINITY;
        }
        self.threshold_with(self.sqrt_bound(bound), radius)
    }

    /// Conservative `f32` form of a screen threshold for the vectorized
    /// group screen: rounded *up*, so a screen sum at or above the `f32`
    /// threshold is also at or above the `f64` one and the skip stays
    /// certified. An infinite threshold (the "cannot certify" marker)
    /// maps to NaN, which no comparison ever reaches — the group-screen
    /// analog of [`screen_skips`]' never-skip guard.
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

    /// The certified lower bound on the exact distance implied by a full
    /// (unabandoned) screen sum — the inverse of
    /// [`Self::screen_threshold`], exposed for the property tests that
    /// pin "the lower bound never exceeds the exact distance".
    pub fn lower_bound(&self, screen_sum: f64, radius: f64) -> f64 {
        if !self.usable || !screen_sum.is_finite() {
            return 0.0;
        }
        let norm = (screen_sum / (self.inflate * (1.0 + 1e-9))).sqrt()
            - self.f32_slack
            - radius * self.sqrt_w_ub;
        let lb = norm.max(0.0);
        lb * lb / (1.0 + 1e-9)
    }
}

/// One unrolled block of the screen: codes `i..i + SCREEN_LANES`
/// reconstructed and accumulated into their lanes.
#[inline(always)]
fn screen_block(
    acc: &mut [f32; SCREEN_LANES],
    point: &[f32],
    weights: &[f32],
    codes: &[i8],
    bias: f32,
    scale: f32,
) {
    for l in 0..SCREEN_LANES {
        let d = (point[l] - bias) - scale * f32::from(codes[l]);
        acc[l] += weights[l] * d * d;
    }
}

#[inline(always)]
fn screen_combine(acc: [f32; SCREEN_LANES]) -> f64 {
    let a = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let b = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    f64::from(a + b)
}

/// The full `f32` screen sum over one quantized instance, no early
/// abandon — the value [`QuantQuery::lower_bound`] certifies. Test and
/// diagnostic hook; the production path is [`screen_skips`].
pub fn screen_sum(query: &QuantQuery, codes: &[i8], bias: f32, scale: f32) -> f64 {
    let k = query.point32.len();
    assert_eq!(codes.len(), k, "codes have wrong dimension");
    let (point, weights, codes) = (&query.point32[..k], &query.weights32[..k], &codes[..k]);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the slices share
        // length `k` per the assert above.
        return unsafe { x86::screen_sum(point, weights, codes, bias, scale) };
    }
    portable_screen_sum(point, weights, codes, bias, scale)
}

/// Portable body of [`screen_sum`].
fn portable_screen_sum(point: &[f32], weights: &[f32], codes: &[i8], bias: f32, scale: f32) -> f64 {
    let k = point.len();
    let mut acc = [0.0f32; SCREEN_LANES];
    let blocks = k / SCREEN_LANES;
    for b in 0..blocks {
        let i = b * SCREEN_LANES;
        screen_block(
            &mut acc,
            &point[i..i + SCREEN_LANES],
            &weights[i..i + SCREEN_LANES],
            &codes[i..i + SCREEN_LANES],
            bias,
            scale,
        );
    }
    for (l, i) in (blocks * SCREEN_LANES..k).enumerate() {
        let d = (point[i] - bias) - scale * f32::from(codes[i]);
        acc[l] += weights[i] * d * d;
    }
    screen_combine(acc)
}

/// Runs the quantized screen against a precomputed
/// [`QuantQuery::screen_threshold`]: returns `true` when the screen sum
/// reaches the threshold — i.e. the instance's exact distance is
/// *provably* at or above the bound behind the threshold and the exact
/// kernel can be skipped entirely. Abandons early (the partial sums are
/// monotone) once the threshold is reached mid-scan.
pub fn screen_skips(
    query: &QuantQuery,
    codes: &[i8],
    bias: f32,
    scale: f32,
    threshold: f64,
) -> bool {
    if threshold == f64::INFINITY {
        return false;
    }
    let k = query.point32.len();
    assert_eq!(codes.len(), k, "codes have wrong dimension");
    let (point, weights, codes) = (&query.point32[..k], &query.weights32[..k], &codes[..k]);
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the slices share
        // length `k` per the assert above.
        return unsafe { x86::screen_skips(point, weights, codes, bias, scale, threshold) };
    }
    portable_screen_skips(point, weights, codes, bias, scale, threshold)
}

/// Screens every instance of one bag in a single fused call: instance
/// `i` occupies `codes[i·k..(i+1)·k]`, is screened with `params[i]`
/// against `thresholds[i]`, and its index is pushed onto `survivors`
/// iff the screen does *not* skip it (an infinite threshold always
/// survives, matching [`screen_skips`]). Decisions are identical to
/// calling [`screen_skips`] per instance — the fusion only removes the
/// per-instance dispatch and call overhead, which dominates once the
/// screen rejects most instances within their first checkpoint.
///
/// # Panics
/// Panics if `codes`/`thresholds` don't match `params`' instance count
/// times the query dimension.
pub fn screen_bag(
    query: &QuantQuery,
    codes: &[i8],
    params: &[QuantParams],
    thresholds: &[f64],
    survivors: &mut Vec<u32>,
) {
    let k = query.point32.len();
    let n = params.len();
    assert_eq!(codes.len(), n * k, "codes have wrong length");
    assert_eq!(thresholds.len(), n, "thresholds have wrong length");
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the lengths line up
        // per the asserts above.
        return unsafe {
            x86::screen_bag(
                &query.point32,
                &query.weights32,
                codes,
                params,
                thresholds,
                survivors,
            )
        };
    }
    for (i, (p, &t)) in params.iter().zip(thresholds).enumerate() {
        if t == f64::INFINITY
            || !portable_screen_skips(
                &query.point32,
                &query.weights32,
                &codes[i * k..(i + 1) * k],
                p.bias,
                p.scale,
                t,
            )
        {
            survivors.push(i as u32);
        }
    }
}

/// Screens whole transposed groups of [`SCREEN_GROUP`] instances — the
/// SIMD-friendly form of [`screen_bag`]. Group `g`'s codes occupy
/// `gcodes[g·8·k..(g+1)·8·k]` in dimension-major order (8 consecutive
/// codes are the group members' values for one dimension), with the
/// members' bias/scale/threshold lanes in `gbias`/`gscale`/`thresholds`.
/// Instance sums accumulate per lane over [`SCREEN_CHAINS`] elementwise
/// chains, the chains combine elementwise every [`SCREEN_GROUP_CHECK`]
/// dimensions for a vectorized threshold comparison, and a lane that
/// crosses its threshold at any checkpoint is screened out — certified
/// exactly like [`screen_skips`] (partial sums of non-negative terms
/// are monotone, and the [`QuantQuery`] inflation term covers *any*
/// summation order). Surviving lanes' group-local instance indices are
/// pushed onto `survivors` in order.
///
/// Thresholds are the conservative `f32` forms from
/// [`QuantQuery::threshold32`]; a NaN threshold never screens.
///
/// # Panics
/// Panics if the slice lengths are inconsistent with
/// `gbias.len() / SCREEN_GROUP` groups of the query's dimension.
pub fn screen_groups(
    query: &QuantQuery,
    gcodes: &[i8],
    gbias: &[f32],
    gscale: &[f32],
    thresholds: &[f32],
    survivors: &mut Vec<u32>,
) {
    let k = query.point32.len();
    let n = gbias.len();
    assert_eq!(n % SCREEN_GROUP, 0, "partial screen group");
    assert_eq!(gscale.len(), n, "scales have wrong length");
    assert_eq!(thresholds.len(), n, "thresholds have wrong length");
    assert_eq!(gcodes.len(), n * k, "codes have wrong length");
    #[cfg(target_arch = "x86_64")]
    if x86::have_avx2() {
        // SAFETY: the dispatch just verified AVX2; the lengths line up
        // per the asserts above.
        return unsafe {
            x86::screen_groups(
                &query.point32,
                &query.weights32,
                gcodes,
                gbias,
                gscale,
                thresholds,
                survivors,
            )
        };
    }
    portable_screen_groups(
        &query.point32,
        &query.weights32,
        gcodes,
        gbias,
        gscale,
        thresholds,
        survivors,
    )
}

/// Portable body of [`screen_groups`]: the same operation sequence as
/// the AVX2 form, lane by lane, so crossing decisions match bit for
/// bit.
fn portable_screen_groups(
    point: &[f32],
    weights: &[f32],
    gcodes: &[i8],
    gbias: &[f32],
    gscale: &[f32],
    thresholds: &[f32],
    survivors: &mut Vec<u32>,
) {
    let k = point.len();
    let groups = gbias.len() / SCREEN_GROUP;
    for g in 0..groups {
        let base = g * SCREEN_GROUP;
        let codes = &gcodes[base * k..(base + SCREEN_GROUP) * k];
        let bias = &gbias[base..base + SCREEN_GROUP];
        let scale = &gscale[base..base + SCREEN_GROUP];
        let th = &thresholds[base..base + SCREEN_GROUP];
        let mut acc = [[0.0f32; SCREEN_GROUP]; SCREEN_CHAINS];
        let mut crossed = [false; SCREEN_GROUP];
        let full = k / SCREEN_CHAINS * SCREEN_CHAINS;
        let mut j = 0;
        let mut done = false;
        while j < full {
            let stop = (j + SCREEN_GROUP_CHECK).min(full);
            while j < stop {
                for u in 0..SCREEN_CHAINS {
                    for l in 0..SCREEN_GROUP {
                        let q = f32::from(codes[(j + u) * SCREEN_GROUP + l]);
                        let d = (point[j + u] - bias[l]) - scale[l] * q;
                        acc[u][l] += weights[j + u] * d * d;
                    }
                }
                j += SCREEN_CHAINS;
            }
            done = group_checkpoint(&acc, th, &mut crossed);
            if done {
                break;
            }
        }
        if !done {
            for u in 0..(k - j) {
                for l in 0..SCREEN_GROUP {
                    let q = f32::from(codes[(j + u) * SCREEN_GROUP + l]);
                    let d = (point[j + u] - bias[l]) - scale[l] * q;
                    acc[u][l] += weights[j + u] * d * d;
                }
            }
            group_checkpoint(&acc, th, &mut crossed);
        }
        for (l, &c) in crossed.iter().enumerate() {
            if !c {
                survivors.push((base + l) as u32);
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

/// Portable body of [`screen_skips`].
fn portable_screen_skips(
    point: &[f32],
    weights: &[f32],
    codes: &[i8],
    bias: f32,
    scale: f32,
    threshold: f64,
) -> bool {
    let k = point.len();
    let mut acc = [0.0f32; SCREEN_LANES];
    let blocks = k / SCREEN_LANES;
    let mut b = 0;
    while b < blocks {
        let stop = (b + PRUNE_BLOCKS).min(blocks);
        while b < stop {
            let i = b * SCREEN_LANES;
            screen_block(
                &mut acc,
                &point[i..i + SCREEN_LANES],
                &weights[i..i + SCREEN_LANES],
                &codes[i..i + SCREEN_LANES],
                bias,
                scale,
            );
            b += 1;
        }
        if screen_combine(acc) >= threshold {
            return true;
        }
    }
    for (l, i) in (blocks * SCREEN_LANES..k).enumerate() {
        let d = (point[i] - bias) - scale * f32::from(codes[i]);
        acc[l] += weights[i] * d * d;
    }
    screen_combine(acc) >= threshold
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
        for k in [1, 5, 8, 16, 19, 100] {
            for seed in 0..50u64 {
                let (point, weights, instance) = fixture(k, seed * 31 + k as u64);
                let mut codes = Vec::new();
                let p = quantize_instance(&instance, &mut codes);
                let query = QuantQuery::new(&point, &weights, p.bias.abs(), p.scale);
                let exact = weighted_distance_sq(&point, &weights, &instance);
                let s = screen_sum(&query, &codes, p.bias, p.scale);
                let lb = query.lower_bound(s, p.radius);
                assert!(
                    lb <= exact,
                    "k = {k}, seed {seed}: lower bound {lb} > exact {exact}"
                );
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
                let (point, weights, instance) = fixture(k, seed * 97 + k as u64);
                let mut codes = Vec::new();
                let p = quantize_instance(&instance, &mut codes);
                let query = QuantQuery::new(&point, &weights, p.bias.abs(), p.scale);
                let exact = weighted_distance_sq(&point, &weights, &instance);
                for factor in [0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0] {
                    let bound = exact * factor;
                    let thr = query.screen_threshold(bound, p.radius);
                    if screen_skips(&query, &codes, p.bias, p.scale, thr) {
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
        let (point, weights, instance) = fixture(100, 5);
        let mut codes = Vec::new();
        let p = quantize_instance(&instance, &mut codes);
        let query = QuantQuery::new(&point, &weights, p.bias.abs(), p.scale);
        let exact = weighted_distance_sq(&point, &weights, &instance);
        let thr = query.screen_threshold(exact * 0.5, p.radius);
        assert!(
            screen_skips(&query, &codes, p.bias, p.scale, thr),
            "screen failed to reject a candidate at 2x the bound"
        );
    }

    #[test]
    fn infinite_bound_never_skips() {
        let (point, weights, instance) = fixture(8, 3);
        let mut codes = Vec::new();
        let p = quantize_instance(&instance, &mut codes);
        let query = QuantQuery::new(&point, &weights, p.bias.abs(), p.scale);
        let thr = query.screen_threshold(f64::INFINITY, p.radius);
        assert!(!screen_skips(&query, &codes, p.bias, p.scale, thr));
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn mismatched_dimensions_rejected() {
        let _ = weighted_distance_sq(&[0.0, 1.0], &[1.0, 1.0], &[0.0]);
    }

    /// On an AVX2 machine the public kernels take the vector path; this
    /// pins them bit-for-bit against the portable bodies (Some/None
    /// decisions included) across block counts, tails, and bounds. On a
    /// non-AVX2 machine both sides are the portable form and the test is
    /// trivially green.
    #[test]
    fn dispatched_kernels_match_portable_bodies_bit_for_bit() {
        for k in [1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 257] {
            let (point, weights, instance) = fixture(k, 5000 + k as u64);
            let dispatched = weighted_distance_sq(&point, &weights, &instance);
            let portable = portable_distance(&point, &weights, &instance);
            assert_eq!(dispatched.to_bits(), portable.to_bits(), "k = {k}");

            let mut codes = Vec::new();
            let p = quantize_instance(&instance, &mut codes);
            let query = QuantQuery::new(&point, &weights, p.bias.abs(), p.scale);
            let s = screen_sum(&query, &codes, p.bias, p.scale);
            let s_portable =
                portable_screen_sum(query.point32(), &query.weights32, &codes, p.bias, p.scale);
            assert_eq!(s.to_bits(), s_portable.to_bits(), "k = {k}");

            for factor in [0.25, 0.5, 0.9, 1.0, 1.1, 2.0] {
                let bound = dispatched * factor;
                assert_eq!(
                    weighted_distance_sq_below(&point, &weights, &instance, bound)
                        .map(f64::to_bits),
                    portable_distance_below(&point, &weights, &instance, bound).map(f64::to_bits),
                    "k = {k}, factor {factor}"
                );
                let thr = query.screen_threshold(bound, p.radius);
                assert_eq!(
                    screen_skips(&query, &codes, p.bias, p.scale, thr),
                    portable_screen_skips(
                        query.point32(),
                        &query.weights32,
                        &codes,
                        p.bias,
                        p.scale,
                        thr
                    ),
                    "k = {k}, factor {factor}"
                );
            }
        }
    }

    #[test]
    fn dispatched_group_screen_matches_portable_bit_for_bit() {
        for k in [1, 3, 4, 7, 16, 17, 100, 257] {
            let (point, weights, _) = fixture(k, 9000 + k as u64);
            let n = 2 * SCREEN_GROUP;
            let mut params = Vec::new();
            let mut instances = Vec::new();
            let mut gcodes = vec![0i8; n * k];
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
                params.push(p);
                instances.push(inst);
            }
            let query = QuantQuery::new(&point, &weights, max_bias, max_scale);
            let gbias: Vec<f32> = params.iter().map(|p| p.bias).collect();
            let gscale: Vec<f32> = params.iter().map(|p| p.scale).collect();
            for factor in [0.25, 1.0, 2.0, f64::INFINITY] {
                let thresholds: Vec<f32> = params
                    .iter()
                    .zip(&instances)
                    .map(|(p, inst)| {
                        let bound = weighted_distance_sq(&point, &weights, inst) * factor;
                        QuantQuery::threshold32(query.screen_threshold(bound, p.radius))
                    })
                    .collect();
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
                    query.point32(),
                    &query.weights32,
                    &gcodes,
                    &gbias,
                    &gscale,
                    &thresholds,
                    &mut portable,
                );
                assert_eq!(dispatched, portable, "k = {k}, factor {factor}");
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
