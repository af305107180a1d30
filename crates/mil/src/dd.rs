//! The Diverse Density objective (§2.2).
//!
//! Diverse Density at a candidate concept `t` with weights `w` is
//!
//! ```text
//! DD(t, w) = Π_i Pr(t | B_i⁺) · Π_i Pr(t | B_i⁻)
//! ```
//!
//! under the noisy-or model
//!
//! ```text
//! Pr(t | B⁺) = 1 − Π_j (1 − Pr(B_j = t))
//! Pr(t | B⁻) = Π_j (1 − Pr(B_j = t))
//! Pr(B_j = t) = exp(−‖B_j − t‖²_w),   ‖·‖²_w = Σ_k w_k (B_jk − t_k)²
//! ```
//!
//! All solvers *minimise* `NLDD = −log DD`. Three parameterizations of
//! the variable vector cover the paper's weight-control schemes:
//!
//! * [`Parameterization::FixedWeights`] — `x = t`, all `w_k = 1`
//!   (§3.6.1, "forcing all weights to be the same").
//! * [`Parameterization::SqrtWeights`] — `x = [t | s]` with `w_k = s_k²`,
//!   the original DD trick for keeping weights non-negative (§2.2.1).
//!   `alpha > 1` applies the §3.6.2 gradient "hack": the reported
//!   `∂/∂s_k` is scaled by `1/alpha`, making the ascent reluctant to move
//!   weights. **With `alpha ≠ 1` the gradient is deliberately not the
//!   gradient of the value** — the paper admits the same ("there is no
//!   simple target function that corresponds to these partial
//!   derivatives").
//! * [`Parameterization::DirectWeights`] — `x = [t | w]` with `w` used
//!   directly; feasibility (`0 ≤ w ≤ 1`, `Σ w ≥ β·n`) is maintained by
//!   the projected-gradient solver (§3.6.3).
//!
//! Probabilities are clamped to `[1e-12, 1]` inside logarithms so bags
//! sitting exactly on (or hopelessly far from) the candidate point yield
//! large-but-finite penalties and gradients.
//!
//! ## Hot-path layout
//!
//! [`DdObjective`] converts the dataset **once** at construction into a
//! [`FlatDataset`] — every instance widened to `f64` and packed into one
//! contiguous buffer — and evaluates in three passes over that buffer:
//!
//! 1. a **distance pass** over every instance (8-lane unrolled kernels),
//!    then `exp` / `ln_1p` in place — skipped on a memo hit;
//! 2. the **bag terms**, which sum the value and write each instance's
//!    gradient `scale` into a per-thread buffer;
//! 3. one **moment pass** `A_i = Σ_j scale_j·d_ji`, `B_i = Σ_j
//!    scale_j·d_ji²` over every instance with a non-zero scale, mapped to
//!    the gradient once per evaluation.
//!
//! No per-element `f32 → f64` conversion, no slice-of-slices pointer
//! chasing, and no allocation in steady state: the scratch lives in a
//! reusable per-thread workspace. On x86-64 CPUs with AVX2 the distance
//! and moment passes run hand-vectorised bodies that repeat the portable
//! passes' operation order exactly, so both return bit-identical values
//! (see `x86`). The original pointer-chased implementation survives only
//! as a test oracle.

use std::cell::RefCell;

use milr_optim::Objective;

use crate::bag::MilDataset;
use crate::flat::FlatDataset;

/// Floor for probabilities inside logarithms and denominators.
///
/// Deliberately close to the `f64` underflow boundary: the log-space
/// evaluation (`ln_1p` / `exp_m1`) is accurate down to subnormal
/// probabilities, so the floor only exists to keep the value finite when
/// `exp(−d)` underflows to exactly zero (distances beyond ~745). A
/// larger floor would silently flatten the value while the gradient kept
/// flowing — an inconsistency the line searches (and the gradient
/// property tests) would trip over.
const P_MIN: f64 = 1e-290;

/// Per-thread evaluation workspace: the instance probabilities
/// `e_j = exp(−d_j)` computed at one variable vector, memoized, plus the
/// gradient scratch.
///
/// The solvers' line searches evaluate `value(x)` at a trial point and,
/// on acceptance, immediately ask for `value_and_gradient` at the *same*
/// point — the memo makes the second call skip the entire distance+`exp`
/// pass (the dominant cost) and go straight to the bag terms and
/// gradient accumulation. The cache is keyed on the owning objective's
/// unique id plus a bitwise compare of `x` (`to_bits`, so `-0.0` and
/// `0.0` are different keys), so a hit reproduces exactly what a
/// recomputation would; capacity is reused across evaluations, so
/// steady-state iterations allocate nothing.
struct Workspace {
    /// Unique id of the [`DdObjective`] the cache belongs to.
    id: u64,
    /// Variable vector the probabilities were computed at.
    x: Vec<f64>,
    /// `e_j = exp(−d_j)` per flat instance index (the distance pass
    /// writes `d_j` here, then the `exp` pass overwrites it in place).
    e: Vec<f64>,
    /// `ln q_j = ln_1p(−e_j)` per flat instance index — cached because
    /// every bag term consumes it (the value sums and the leave-one-out
    /// gradient products), so a memo hit skips the `ln_1p` pass too.
    lnq: Vec<f64>,
    /// Whether `x`/`e`/`lnq` hold a complete evaluation.
    valid: bool,
    /// `scale_j = ∂NLDD/∂d_j` per flat instance index, written by the bag
    /// terms and consumed by the moment pass.
    scales: Vec<f64>,
    /// Gradient scratch: `Σ_j scale_j·d_ji` per feature dimension.
    acc_d: Vec<f64>,
    /// Gradient scratch: `Σ_j scale_j·d_ji²` per feature dimension.
    acc_d2: Vec<f64>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = const {
        RefCell::new(Workspace {
            id: u64::MAX,
            x: Vec::new(),
            e: Vec::new(),
            lnq: Vec::new(),
            valid: false,
            scales: Vec::new(),
            acc_d: Vec::new(),
            acc_d2: Vec::new(),
        })
    };
}

/// Source of unique [`DdObjective`] ids (keys for the per-thread memo —
/// an address would be unsound to key on, as a dropped objective's
/// allocation can be reused).
static NEXT_OBJECTIVE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How the optimiser's variable vector maps to `(t, w)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Parameterization {
    /// `x = t`; every weight is 1.
    FixedWeights,
    /// `x = [t | s]`, `w_k = s_k²`; `∂/∂s_k` is scaled by `1/alpha`.
    SqrtWeights {
        /// Gradient reluctance factor (§3.6.2). `1.0` is the original DD.
        alpha: f64,
    },
    /// `x = [t | w]`, `w` used as-is (pair with a feasibility projection).
    DirectWeights,
}

impl Parameterization {
    /// Variable count for feature dimension `k`.
    pub(crate) fn variable_count(self, k: usize) -> usize {
        match self {
            Self::FixedWeights => k,
            Self::SqrtWeights { .. } | Self::DirectWeights => 2 * k,
        }
    }

    /// Initial variable vector for a gradient-ascent start at instance
    /// `t0` with unit weights.
    pub fn start_from(self, t0: &[f32]) -> Vec<f64> {
        let k = t0.len();
        let mut x = Vec::with_capacity(self.variable_count(k));
        x.extend(t0.iter().map(|&v| f64::from(v)));
        match self {
            Self::FixedWeights => {}
            Self::SqrtWeights { .. } | Self::DirectWeights => {
                x.extend(std::iter::repeat_n(1.0, k));
            }
        }
        x
    }

    /// Effective per-dimension weights encoded in a variable vector.
    pub(crate) fn weights_of(self, x: &[f64], k: usize) -> Vec<f64> {
        match self {
            Self::FixedWeights => vec![1.0; k],
            Self::SqrtWeights { .. } => x[k..].iter().map(|&s| s * s).collect(),
            Self::DirectWeights => x[k..].iter().map(|&w| w.max(0.0)).collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Fused kernels over contiguous f64 instance slices.
//
// Each distance kernel walks `t`, the instance `b`, and (where present)
// the weight block in lockstep over `LANES`-wide chunks with a
// lane-indexed accumulator array, so lane `l` sums dimensions `l, l+8,
// l+16, …`; the scalar tail handles `k mod LANES` and the lanes combine
// through the fixed `reduce` tree.
//
// The gradient side exploits that the per-dimension weights factor out
// of the instance sums: every parameterization's gradient is a function
// of the two moments `A_i = Σ_j scale_j·d_ji` and `B_i = Σ_j
// scale_j·d_ji²`. The per-instance kernels below accumulate only those
// moments (no weight loads, no read-modify-write of the variable-space
// gradient), and one O(k) finalize pass per evaluation maps them to the
// actual gradient blocks.
//
// These loops, driven one instance at a time in flat order by
// `portable_distances` / `portable_moments`, are the *specification*:
// the AVX2 passes in `x86` reorder the work across instances and
// dimensions but give every distance and every `A_i` / `B_i` exactly
// the additions, in exactly the order, listed here.
// ---------------------------------------------------------------------

/// Unroll width of the distance kernels.
const LANES: usize = 8;

/// Reduces a lane accumulator pairwise (fixed tree, independent of `n`).
#[inline]
fn reduce(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

#[inline]
fn dist_fixed(t: &[f64], b: &[f64]) -> f64 {
    let n = t.len();
    let m = n - n % LANES;
    // Split every operand at the same point so the lane loops below are
    // provably in-bounds and the checks vanish.
    let (tm, tr) = t.split_at(m);
    let (bm, br) = b[..n].split_at(m);
    let mut acc = [0.0f64; LANES];
    for (tv, bv) in tm.chunks_exact(LANES).zip(bm.chunks_exact(LANES)) {
        for l in 0..LANES {
            let d = tv[l] - bv[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0;
    for (&tv, &bv) in tr.iter().zip(br) {
        let d = tv - bv;
        tail += d * d;
    }
    reduce(acc) + tail
}

/// Weighted distance with `w_i = s_i²` (the `SqrtWeights` encoding).
#[inline]
fn dist_sqrt(t: &[f64], b: &[f64], s: &[f64]) -> f64 {
    let n = t.len();
    let m = n - n % LANES;
    let (tm, tr) = t.split_at(m);
    let (bm, br) = b[..n].split_at(m);
    let (sm, sr) = s[..n].split_at(m);
    let mut acc = [0.0f64; LANES];
    for ((tv, bv), sv) in tm
        .chunks_exact(LANES)
        .zip(bm.chunks_exact(LANES))
        .zip(sm.chunks_exact(LANES))
    {
        for l in 0..LANES {
            let d = tv[l] - bv[l];
            acc[l] += sv[l] * sv[l] * d * d;
        }
    }
    let mut tail = 0.0;
    for ((&tv, &bv), &sv) in tr.iter().zip(br).zip(sr) {
        let d = tv - bv;
        tail += sv * sv * d * d;
    }
    reduce(acc) + tail
}

/// Weighted distance with `w` used directly (the `DirectWeights`
/// encoding).
#[inline]
fn dist_direct(t: &[f64], b: &[f64], w: &[f64]) -> f64 {
    let n = t.len();
    let m = n - n % LANES;
    let (tm, tr) = t.split_at(m);
    let (bm, br) = b[..n].split_at(m);
    let (wm, wr) = w[..n].split_at(m);
    let mut acc = [0.0f64; LANES];
    for ((tv, bv), wv) in tm
        .chunks_exact(LANES)
        .zip(bm.chunks_exact(LANES))
        .zip(wm.chunks_exact(LANES))
    {
        for l in 0..LANES {
            let d = tv[l] - bv[l];
            acc[l] += wv[l] * d * d;
        }
    }
    let mut tail = 0.0;
    for ((&tv, &bv), &wv) in tr.iter().zip(br).zip(wr) {
        let d = tv - bv;
        tail += wv * d * d;
    }
    reduce(acc) + tail
}

/// `A_i += scale·(t_i − b_i)` — the only moment the fixed-weights
/// gradient needs.
#[inline]
fn accumulate_d(t: &[f64], b: &[f64], scale: f64, acc_d: &mut [f64]) {
    let n = t.len();
    let b = &b[..n];
    let acc_d = &mut acc_d[..n];
    for i in 0..n {
        acc_d[i] += scale * (t[i] - b[i]);
    }
}

/// `A_i += scale·d_i`, `B_i += scale·d_i²` with `d = t − b` — the two
/// moments the weighted gradients are built from.
#[inline]
fn accumulate_d_d2(t: &[f64], b: &[f64], scale: f64, acc_d: &mut [f64], acc_d2: &mut [f64]) {
    let n = t.len();
    let b = &b[..n];
    let acc_d = &mut acc_d[..n];
    let acc_d2 = &mut acc_d2[..n];
    for i in 0..n {
        let d = t[i] - b[i];
        acc_d[i] += scale * d;
        acc_d2[i] += scale * (d * d);
    }
}

/// Portable distance pass: `out[j]` becomes the weighted squared
/// distance from the encoded `t` to flat instance `j`, one instance at a
/// time in flat order.
fn portable_distances(param: Parameterization, k: usize, x: &[f64], data: &[f64], out: &mut [f64]) {
    let t = &x[..k];
    let instances = data.chunks_exact(k).zip(out);
    match param {
        Parameterization::FixedWeights => {
            for (b, d) in instances {
                *d = dist_fixed(t, b);
            }
        }
        Parameterization::SqrtWeights { .. } => {
            for (b, d) in instances {
                *d = dist_sqrt(t, b, &x[k..]);
            }
        }
        Parameterization::DirectWeights => {
            for (b, d) in instances {
                *d = dist_direct(t, b, &x[k..]);
            }
        }
    }
}

/// Portable moment pass: adds every flat instance's scaled difference
/// moments into `acc_d` (and `acc_d2`, when the parameterization needs
/// `B`), in flat order, skipping instances whose scale is exactly zero.
fn portable_moments(
    t: &[f64],
    data: &[f64],
    scales: &[f64],
    acc_d: &mut [f64],
    mut acc_d2: Option<&mut [f64]>,
) {
    for (b, &scale) in data.chunks_exact(t.len()).zip(scales) {
        if scale != 0.0 {
            match acc_d2.as_deref_mut() {
                Some(acc_d2) => accumulate_d_d2(t, b, scale, acc_d, acc_d2),
                None => accumulate_d(t, b, scale, acc_d),
            }
        }
    }
}

/// Which bodies an evaluation runs the distance and moment passes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernels {
    /// The AVX2 passes when the CPU has AVX2, the portable ones otherwise.
    Dispatched,
    /// The portable passes, whatever the CPU: the reference the
    /// dispatched passes must match bit for bit.
    Portable,
}

impl Kernels {
    fn distances(
        self,
        param: Parameterization,
        k: usize,
        x: &[f64],
        data: &[f64],
        out: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self == Self::Dispatched && crate::kernel::have_avx2() {
            // SAFETY: the dispatch just verified AVX2, the only
            // precondition; `x86::distances` checks the slice lengths.
            unsafe { x86::distances(param, k, x, data, out) };
            return;
        }
        portable_distances(param, k, x, data, out);
    }

    fn moments(
        self,
        t: &[f64],
        data: &[f64],
        scales: &[f64],
        acc_d: &mut [f64],
        acc_d2: Option<&mut [f64]>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if self == Self::Dispatched && crate::kernel::have_avx2() {
            // SAFETY: the dispatch just verified AVX2, the only
            // precondition; `x86::moments` checks the slice lengths.
            unsafe { x86::moments(t, data, scales, acc_d, acc_d2) };
            return;
        }
        portable_moments(t, data, scales, acc_d, acc_d2);
    }
}

/// Runtime-dispatched AVX2 forms of the distance and moment passes.
///
/// The baseline build targets SSE2, where a pass moves two `f64` per
/// instruction and the distance kernel's eight lanes form only four
/// dependent add chains. These forms do the same arithmetic 256 bits
/// at a time and reorder only *independent* work:
///
/// * the **distance pass** computes two instances per iteration, each
///   with its own eight lanes (two vectors), its own scalar tail and the
///   same [`reduce`] tree, so every distance gets the portable kernel's
///   additions in the portable kernel's order; the pair merely doubles
///   the independent add chains in flight;
/// * the **moment pass** is dimension-blocked: it holds 16 dimensions of
///   `A` / `B` (and `t`) in registers while visiting the instances in
///   flat order, skipping `scale == 0.0`, so every `A_i` / `B_i` receives
///   the same terms in the same instance order as the portable pass.
///
/// Every vector operation is an elementwise, correctly-rounded IEEE-754
/// subtract, multiply or add on the same operands as its scalar
/// counterpart, and no FMA is used, so the dispatched and portable
/// passes return bit-identical values on every input (pinned by the
/// tests below and the `kernel_props` proptests).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{reduce, Parameterization, LANES};
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// Weight encodings, as const-generic tags of the distance kernel.
    const FIXED: u8 = 0;
    const SQRT: u8 = 1;
    const DIRECT: u8 = 2;

    /// `f64`s per 256-bit vector.
    const V: usize = 4;

    /// Dimensions per register-held block of the moment pass.
    const BLOCK: usize = 16;

    /// Unaligned load of `s[i..i + 4]`.
    ///
    /// # Safety
    /// Requires AVX2 and `i + 4 <= s.len()`.
    #[inline(always)]
    unsafe fn load(s: &[f64], i: usize) -> __m256d {
        debug_assert!(i + V <= s.len());
        _mm256_loadu_pd(s.as_ptr().add(i))
    }

    /// One lane's distance term: the portable kernels' `d·d`, `s·s·d·d`
    /// and `w·d·d`, each evaluated left to right.
    #[inline(always)]
    fn term<const KIND: u8>(d: f64, w: f64) -> f64 {
        match KIND {
            FIXED => d * d,
            SQRT => w * w * d * d,
            _ => w * d * d,
        }
    }

    /// [`term`] on four lanes at once, in the same operation order.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn term_pd<const KIND: u8>(d: __m256d, w: __m256d) -> __m256d {
        match KIND {
            FIXED => _mm256_mul_pd(d, d),
            SQRT => _mm256_mul_pd(_mm256_mul_pd(_mm256_mul_pd(w, w), d), d),
            _ => _mm256_mul_pd(_mm256_mul_pd(w, d), d),
        }
    }

    /// Distances from `t` to `N` instances: per instance, lanes 0–3 and
    /// 4–7 of the portable accumulator live in two vectors, then the
    /// scalar tail and [`reduce`] run exactly as in the portable kernel.
    /// `w` is the weight block (ignored, and may be `t`, for `FIXED`).
    ///
    /// # Safety
    /// Requires AVX2, `w.len() >= t.len()` and every `b[n].len() >=
    /// t.len()`.
    #[inline(always)]
    unsafe fn dist_n<const KIND: u8, const N: usize>(
        t: &[f64],
        w: &[f64],
        b: [&[f64]; N],
    ) -> [f64; N] {
        let k = t.len();
        let m = k - k % LANES;
        let mut lo = [_mm256_setzero_pd(); N];
        let mut hi = [_mm256_setzero_pd(); N];
        let mut i = 0;
        while i < m {
            let (t0, t1) = (load(t, i), load(t, i + V));
            let (w0, w1) = if KIND == FIXED {
                (t0, t1)
            } else {
                (load(w, i), load(w, i + V))
            };
            for n in 0..N {
                let d0 = _mm256_sub_pd(t0, load(b[n], i));
                let d1 = _mm256_sub_pd(t1, load(b[n], i + V));
                lo[n] = _mm256_add_pd(lo[n], term_pd::<KIND>(d0, w0));
                hi[n] = _mm256_add_pd(hi[n], term_pd::<KIND>(d1, w1));
            }
            i += LANES;
        }
        let mut out = [0.0; N];
        for n in 0..N {
            let mut acc = [0.0f64; LANES];
            _mm256_storeu_pd(acc.as_mut_ptr(), lo[n]);
            _mm256_storeu_pd(acc.as_mut_ptr().add(V), hi[n]);
            let mut tail = 0.0;
            for i in m..k {
                let d = t[i] - b[n][i];
                tail += term::<KIND>(d, w[i]);
            }
            out[n] = reduce(acc) + tail;
        }
        out
    }

    /// The distance pass over flat instance pairs, then the odd one.
    ///
    /// # Safety
    /// Requires AVX2, `w.len() >= t.len()` and `data.len() == out.len()
    /// × t.len()`.
    #[inline(always)]
    unsafe fn distance_pass<const KIND: u8>(t: &[f64], w: &[f64], data: &[f64], out: &mut [f64]) {
        let k = t.len();
        let mut pairs = data.chunks_exact(2 * k);
        let mut outs = out.chunks_exact_mut(2);
        for (pair, o) in (&mut pairs).zip(&mut outs) {
            let (b0, b1) = pair.split_at(k);
            let [d0, d1] = dist_n::<KIND, 2>(t, w, [b0, b1]);
            o[0] = d0;
            o[1] = d1;
        }
        if let [last] = outs.into_remainder() {
            *last = dist_n::<KIND, 1>(t, w, [pairs.remainder()])[0];
        }
    }

    /// AVX2 `portable_distances`.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the `have_avx2` dispatch).
    ///
    /// # Panics
    /// Panics unless `x` holds `param`'s variables at dimension `k ≥ 1`
    /// and `data` holds `out.len()` instances of `k` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn distances(
        param: Parameterization,
        k: usize,
        x: &[f64],
        data: &[f64],
        out: &mut [f64],
    ) {
        assert!(k > 0 && x.len() == param.variable_count(k));
        assert_eq!(data.len(), out.len() * k);
        let t = &x[..k];
        match param {
            Parameterization::FixedWeights => distance_pass::<FIXED>(t, t, data, out),
            Parameterization::SqrtWeights { .. } => {
                distance_pass::<SQRT>(t, &x[k..], data, out);
            }
            Parameterization::DirectWeights => distance_pass::<DIRECT>(t, &x[k..], data, out),
        }
    }

    /// Dimensions `i..i + 4·NV` of the moment pass: `t`, `A` and (when
    /// `WITH_B`) `B` stay in registers while the instances stream by in
    /// flat order.
    ///
    /// # Safety
    /// Requires AVX2, `i + 4·NV <= t.len()`, `data.len() == scales.len()
    /// × t.len()`, `acc_d.len() == t.len()` and, when `WITH_B`,
    /// `acc_d2.len() == t.len()`.
    #[inline(always)]
    unsafe fn moment_block<const WITH_B: bool, const NV: usize>(
        i: usize,
        t: &[f64],
        data: &[f64],
        scales: &[f64],
        acc_d: &mut [f64],
        acc_d2: &mut [f64],
    ) {
        let mut tv = [_mm256_setzero_pd(); NV];
        let mut a = [_mm256_setzero_pd(); NV];
        let mut b = [_mm256_setzero_pd(); NV];
        for v in 0..NV {
            tv[v] = load(t, i + v * V);
            a[v] = load(acc_d, i + v * V);
            if WITH_B {
                b[v] = load(acc_d2, i + v * V);
            }
        }
        for (instance, &scale) in data.chunks_exact(t.len()).zip(scales) {
            if scale != 0.0 {
                let s = _mm256_set1_pd(scale);
                for v in 0..NV {
                    let d = _mm256_sub_pd(tv[v], load(instance, i + v * V));
                    a[v] = _mm256_add_pd(a[v], _mm256_mul_pd(s, d));
                    if WITH_B {
                        b[v] = _mm256_add_pd(b[v], _mm256_mul_pd(s, _mm256_mul_pd(d, d)));
                    }
                }
            }
        }
        for v in 0..NV {
            _mm256_storeu_pd(acc_d.as_mut_ptr().add(i + v * V), a[v]);
            if WITH_B {
                _mm256_storeu_pd(acc_d2.as_mut_ptr().add(i + v * V), b[v]);
            }
        }
    }

    /// The moment pass in 16-dimension blocks, then 4-dimension blocks,
    /// then one dimension at a time.
    ///
    /// # Safety
    /// Same as [`moment_block`], for the whole of `t`.
    #[inline(always)]
    unsafe fn moment_pass<const WITH_B: bool>(
        t: &[f64],
        data: &[f64],
        scales: &[f64],
        acc_d: &mut [f64],
        acc_d2: &mut [f64],
    ) {
        let k = t.len();
        let mut i = 0;
        while i + BLOCK <= k {
            moment_block::<WITH_B, { BLOCK / V }>(i, t, data, scales, acc_d, acc_d2);
            i += BLOCK;
        }
        while i + V <= k {
            moment_block::<WITH_B, 1>(i, t, data, scales, acc_d, acc_d2);
            i += V;
        }
        for i in i..k {
            for (instance, &scale) in data.chunks_exact(k).zip(scales) {
                if scale != 0.0 {
                    let d = t[i] - instance[i];
                    acc_d[i] += scale * d;
                    if WITH_B {
                        acc_d2[i] += scale * (d * d);
                    }
                }
            }
        }
    }

    /// AVX2 `portable_moments`.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the `have_avx2` dispatch).
    ///
    /// # Panics
    /// Panics unless `t` is non-empty, `data` holds `scales.len()`
    /// instances of `t.len()` elements and the accumulators hold
    /// `t.len()` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn moments(
        t: &[f64],
        data: &[f64],
        scales: &[f64],
        acc_d: &mut [f64],
        acc_d2: Option<&mut [f64]>,
    ) {
        let k = t.len();
        assert!(k > 0);
        assert_eq!(data.len(), scales.len() * k);
        assert_eq!(acc_d.len(), k);
        match acc_d2 {
            Some(acc_d2) => {
                assert_eq!(acc_d2.len(), k);
                moment_pass::<true>(t, data, scales, acc_d, acc_d2);
            }
            None => moment_pass::<false>(t, data, scales, acc_d, &mut []),
        }
    }
}

/// NLDD contribution of one bag.
///
/// `e` and `lnq` hold the bag's precomputed `e_j = Pr(B_j = t) =
/// exp(−d_j)` and `ln q_j = ln_1p(−e_j)` (see [`Workspace`]). When
/// `scales` is `Some`, each instance's gradient scale `∂(−log Pr(t |
/// B))/∂d_j` is written into it for the moment pass.
fn bag_term(positive: bool, e: &[f64], lnq: &[f64], mut scales: Option<&mut [f64]>) -> f64 {
    if positive {
        // Work in log space: log Π q_j = Σ ln(1 − e_j) via ln_1p, and
        // P = 1 − Π q_j via expm1. This avoids the catastrophic
        // cancellation of `1.0 − (1.0 − e)` when the bag sits far
        // from the candidate point (e ≈ 1e−12), which would otherwise
        // corrupt both the value and the gradient scale. A zero-count
        // keeps the leave-one-out products well-defined when some
        // q_j vanishes (an instance exactly at the candidate point).
        let mut zero_count = 0usize;
        let mut log_prod_nonzero = 0.0f64; // Σ ln q_j over q_j ≥ P_MIN
        for (&ej, &lq) in e.iter().zip(lnq) {
            let q = 1.0 - ej;
            if q < P_MIN {
                zero_count += 1;
            } else {
                log_prod_nonzero += lq;
            }
        }
        // P = 1 − exp(log Π q); with any zero q the product is 0 and
        // P = 1 exactly.
        let p = if zero_count > 0 {
            1.0
        } else {
            (-log_prod_nonzero.exp_m1()).max(P_MIN)
        };
        if let Some(scales) = scales.as_deref_mut() {
            for ((scale, &ej), &lq) in scales.iter_mut().zip(e).zip(lnq) {
                let q = 1.0 - ej;
                let prod_excl = if zero_count == 0 {
                    (log_prod_nonzero - lq).exp()
                } else if zero_count == 1 && q < P_MIN {
                    log_prod_nonzero.exp()
                } else {
                    0.0
                };
                // ∂(−log P)/∂d_j = e_j · Π_{l≠j} q_l / P ≥ 0.
                *scale = ej * prod_excl / p;
            }
        }
        -p.ln()
    } else {
        // −log Π q_j = −Σ log q_j, with ln(1 − e) via ln_1p for
        // accuracy when e is tiny.
        let mut term = 0.0f64;
        for (j, (&ej, &lq)) in e.iter().zip(lnq).enumerate() {
            let q = (1.0 - ej).max(P_MIN);
            term -= if 1.0 - ej >= P_MIN { lq } else { q.ln() };
            if let Some(scales) = scales.as_deref_mut() {
                // ∂(−log q_j)/∂d_j = −e_j / q_j ≤ 0.
                scales[j] = -ej / q;
            }
        }
        term
    }
}

/// `−log DD` as a [`milr_optim::Objective`] over a flat copy of the
/// dataset.
///
/// Construction converts the dataset into a contiguous `f64`
/// [`FlatDataset`] once; every evaluation afterwards streams over that
/// buffer with the passes above.
///
/// # Examples
/// ```
/// use milr_mil::{Bag, BagLabel, DdObjective, MilDataset, Parameterization};
/// use milr_optim::Objective as _;
///
/// let mut dataset = MilDataset::new();
/// dataset.push(Bag::new(vec![vec![1.0, 1.0]]).unwrap(), BagLabel::Positive).unwrap();
/// dataset.push(Bag::new(vec![vec![0.0, 0.0]]).unwrap(), BagLabel::Negative).unwrap();
/// let objective = DdObjective::new(&dataset, Parameterization::FixedWeights);
///
/// // NLDD is lower near the positive instance than near the negative one.
/// assert!(objective.value(&[1.0, 1.0]) < objective.value(&[0.0, 0.0]));
/// ```
pub struct DdObjective {
    flat: FlatDataset,
    param: Parameterization,
    k: usize,
    /// Unique id keying the per-thread evaluation memo.
    id: u64,
}

impl DdObjective {
    /// Converts `dataset` into the flat layout and wraps it.
    ///
    /// # Panics
    /// Panics if the dataset is empty (its dimension is undefined).
    pub fn new(dataset: &MilDataset, param: Parameterization) -> Self {
        let flat =
            FlatDataset::from_dataset(dataset).expect("DD objective needs a non-empty dataset");
        let k = flat.dim();
        let id = NEXT_OBJECTIVE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self { flat, param, k, id }
    }

    /// Feature dimension `k` (not the variable count).
    pub fn feature_dim(&self) -> usize {
        self.k
    }

    /// The parameterization in use.
    pub fn parameterization(&self) -> Parameterization {
        self.param
    }

    /// [`Objective::value`] (`grad = None`) or
    /// [`Objective::value_and_gradient`] through the portable passes,
    /// whatever the CPU: the specification the runtime-dispatched AVX2
    /// passes must match bit for bit. Public only because an
    /// integration test, `tests/kernel_props.rs`, compares the dispatched
    /// evaluation against it; production never calls it.
    ///
    /// # Panics
    /// Panics if `x` or `grad` has the wrong dimension.
    #[doc(hidden)]
    pub fn portable_evaluation(&self, x: &[f64], grad: Option<&mut [f64]>) -> f64 {
        self.evaluate(x, grad, Kernels::Portable)
    }

    /// Maps the accumulated moments to the variable-space gradient:
    /// `∂d/∂t_i = 2·w_i·d_i` and the per-parameterization weight-block
    /// derivative, with the weights applied once per dimension instead of
    /// once per instance.
    fn finalize_gradient(&self, x: &[f64], acc_d: &[f64], acc_d2: &[f64], grad: &mut [f64]) {
        let k = self.k;
        let acc_d = &acc_d[..k];
        match self.param {
            Parameterization::FixedWeights => {
                let grad = &mut grad[..k];
                for i in 0..k {
                    grad[i] = 2.0 * acc_d[i];
                }
            }
            Parameterization::SqrtWeights { alpha } => {
                let s = &x[k..2 * k];
                let acc_d2 = &acc_d2[..k];
                let (gt, gs) = grad.split_at_mut(k);
                let (gt, gs) = (&mut gt[..k], &mut gs[..k]);
                let ca = 2.0 / alpha;
                for i in 0..k {
                    gt[i] = 2.0 * s[i] * s[i] * acc_d[i];
                    gs[i] = ca * s[i] * acc_d2[i];
                }
            }
            Parameterization::DirectWeights => {
                let w = &x[k..2 * k];
                let acc_d2 = &acc_d2[..k];
                let (gt, gw) = grad.split_at_mut(k);
                let (gt, gw) = (&mut gt[..k], &mut gw[..k]);
                for i in 0..k {
                    gt[i] = 2.0 * w[i] * acc_d[i];
                    gw[i] = acc_d2[i];
                }
            }
        }
    }

    fn evaluate(&self, x: &[f64], grad: Option<&mut [f64]>, kernels: Kernels) -> f64 {
        assert_eq!(x.len(), self.dim(), "variable vector has wrong dimension");
        let (k, n) = (self.k, self.flat.instance_count());
        WORKSPACE.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            // Recompute the distance+exp pass only when the memo misses
            // (different objective, or a bitwise-different `x`). A hit is
            // exact: the cached values are what recomputation would
            // produce, because evaluation is deterministic in `x`.
            let same_x = ws.x.len() == x.len()
                && ws.x.iter().zip(x).all(|(a, b)| a.to_bits() == b.to_bits());
            if ws.valid && ws.id == self.id && same_x {
                milr_obs::counter!("milr_dd_memo_hits_total").inc();
            } else {
                milr_obs::counter!("milr_dd_memo_misses_total").inc();
                ws.valid = false;
                ws.id = self.id;
                ws.x.clear();
                ws.x.extend_from_slice(x);
                ws.e.clear();
                ws.e.resize(n, 0.0);
                kernels.distances(self.param, k, x, self.flat.data(), &mut ws.e);
                ws.lnq.clear();
                ws.lnq.reserve(n);
                for e in &mut ws.e {
                    *e = (-*e).exp();
                    ws.lnq.push((-*e).ln_1p());
                }
                ws.valid = true;
            }
            let Workspace {
                e,
                lnq,
                scales,
                acc_d,
                acc_d2,
                ..
            } = &mut *ws;
            let wants_grad = grad.is_some();
            if wants_grad {
                scales.clear();
                scales.resize(n, 0.0);
            }
            let mut nldd = 0.0;
            // The flat layout stores positives first, preserving the
            // positives-then-negatives accumulation order of the
            // original implementation.
            for bag in 0..self.flat.bag_count() {
                let span = self.flat.span(bag);
                let range = span.offset..span.offset + span.len;
                nldd += bag_term(
                    self.flat.is_positive(bag),
                    &e[range.clone()],
                    &lnq[range.clone()],
                    wants_grad.then(|| &mut scales[range]),
                );
            }
            if let Some(g) = grad {
                acc_d.clear();
                acc_d.resize(k, 0.0);
                acc_d2.clear();
                acc_d2.resize(k, 0.0);
                let needs_b = self.param != Parameterization::FixedWeights;
                kernels.moments(
                    &x[..k],
                    self.flat.data(),
                    scales,
                    acc_d,
                    needs_b.then_some(&mut acc_d2[..]),
                );
                self.finalize_gradient(x, acc_d, acc_d2, g);
            }
            nldd
        })
    }
}

impl Objective for DdObjective {
    fn dim(&self) -> usize {
        self.param.variable_count(self.k)
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.evaluate(x, None, Kernels::Dispatched)
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        let _ = self.evaluate(x, Some(grad), Kernels::Dispatched);
    }

    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.evaluate(x, Some(grad), Kernels::Dispatched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::{Bag, BagLabel};
    use milr_optim::numdiff::gradient_error;

    fn bag(v: &[&[f32]]) -> Bag {
        Bag::new(v.iter().map(|s| s.to_vec()).collect()).unwrap()
    }

    /// Two positive bags clustering near (1, 1), one negative bag near
    /// the origin — the classic DD picture (Fig. 2-1) in miniature.
    fn toy_dataset() -> MilDataset {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[1.0, 1.1], &[5.0, -3.0]]), BagLabel::Positive)
            .unwrap();
        ds.push(bag(&[&[0.9, 1.0], &[-4.0, 2.0]]), BagLabel::Positive)
            .unwrap();
        ds.push(bag(&[&[0.0, 0.0], &[0.2, -0.1]]), BagLabel::Negative)
            .unwrap();
        ds
    }

    #[test]
    fn nldd_is_lower_near_the_true_concept() {
        let ds = toy_dataset();
        let obj = DdObjective::new(&ds, Parameterization::FixedWeights);
        let near = obj.value(&[1.0, 1.05]);
        let far = obj.value(&[3.0, 3.0]);
        let at_negative = obj.value(&[0.0, 0.0]);
        assert!(near < far, "near ({near}) must beat far ({far})");
        assert!(
            near < at_negative,
            "near ({near}) must beat the negative cluster ({at_negative})"
        );
    }

    #[test]
    fn value_is_always_finite() {
        let ds = toy_dataset();
        let obj = DdObjective::new(&ds, Parameterization::FixedWeights);
        // Exactly on a negative instance: q = 0 there, must clamp.
        assert!(obj.value(&[0.0, 0.0]).is_finite());
        // Hopelessly far: P⁺ ≈ 0, must clamp.
        assert!(obj.value(&[1e4, 1e4]).is_finite());
    }

    #[test]
    fn fixed_weights_gradient_matches_numeric() {
        let ds = toy_dataset();
        let obj = DdObjective::new(&ds, Parameterization::FixedWeights);
        for x in [[0.5, 0.7], [1.2, 0.9], [-0.3, 0.4]] {
            let err = gradient_error(&obj, &x, 1e-6);
            assert!(err < 1e-6, "gradient error {err} at {x:?}");
        }
    }

    #[test]
    fn sqrt_weights_gradient_matches_numeric_at_alpha_one() {
        let ds = toy_dataset();
        let obj = DdObjective::new(&ds, Parameterization::SqrtWeights { alpha: 1.0 });
        for x in [
            [0.5, 0.7, 1.0, 1.0],
            [1.1, 0.8, 0.6, 1.3],
            [0.2, 0.2, 0.9, 0.4],
        ] {
            let err = gradient_error(&obj, &x, 1e-6);
            assert!(err < 1e-6, "gradient error {err} at {x:?}");
        }
    }

    #[test]
    fn direct_weights_gradient_matches_numeric() {
        let ds = toy_dataset();
        let obj = DdObjective::new(&ds, Parameterization::DirectWeights);
        for x in [
            [0.5, 0.7, 0.8, 0.9],
            [1.1, 0.8, 0.5, 0.3],
            [0.0, 0.5, 0.2, 0.7],
        ] {
            let err = gradient_error(&obj, &x, 1e-6);
            assert!(err < 1e-6, "gradient error {err} at {x:?}");
        }
    }

    #[test]
    fn alpha_scales_only_the_weight_block() {
        let ds = toy_dataset();
        let plain = DdObjective::new(&ds, Parameterization::SqrtWeights { alpha: 1.0 });
        let hacked = DdObjective::new(&ds, Parameterization::SqrtWeights { alpha: 50.0 });
        let x = [0.8, 0.9, 1.1, 0.7];
        let mut g_plain = [0.0; 4];
        let mut g_hacked = [0.0; 4];
        plain.gradient(&x, &mut g_plain);
        hacked.gradient(&x, &mut g_hacked);
        // t-block identical.
        assert!((g_plain[0] - g_hacked[0]).abs() < 1e-12);
        assert!((g_plain[1] - g_hacked[1]).abs() < 1e-12);
        // s-block divided by alpha.
        assert!((g_plain[2] / 50.0 - g_hacked[2]).abs() < 1e-12);
        assert!((g_plain[3] / 50.0 - g_hacked[3]).abs() < 1e-12);
        // The value itself is untouched by alpha.
        assert_eq!(plain.value(&x), hacked.value(&x));
    }

    #[test]
    fn parameterization_dimensions() {
        assert_eq!(Parameterization::FixedWeights.variable_count(100), 100);
        assert_eq!(
            Parameterization::SqrtWeights { alpha: 1.0 }.variable_count(100),
            200
        );
        assert_eq!(Parameterization::DirectWeights.variable_count(100), 200);
    }

    #[test]
    fn start_from_appends_unit_weights() {
        let t0 = [0.5f32, -1.5];
        assert_eq!(
            Parameterization::FixedWeights.start_from(&t0),
            vec![0.5, -1.5]
        );
        assert_eq!(
            Parameterization::DirectWeights.start_from(&t0),
            vec![0.5, -1.5, 1.0, 1.0]
        );
    }

    #[test]
    fn weights_of_decodes_each_parameterization() {
        let x = [9.0, 9.0, 0.5, -2.0];
        assert_eq!(
            Parameterization::FixedWeights.weights_of(&x[..2], 2),
            vec![1.0, 1.0]
        );
        assert_eq!(
            Parameterization::SqrtWeights { alpha: 1.0 }.weights_of(&x, 2),
            vec![0.25, 4.0]
        );
        // DirectWeights floors at zero.
        assert_eq!(
            Parameterization::DirectWeights.weights_of(&x, 2),
            vec![0.5, 0.0]
        );
    }

    #[test]
    fn more_diverse_support_scores_better() {
        // A point close to instances from TWO different positive bags
        // must have lower NLDD than a point close to two instances of the
        // SAME bag (that is the "diverse" in Diverse Density).
        let mut ds = MilDataset::new();
        // Bag 1 has a pair of instances at (3, 3) — high same-bag density.
        ds.push(
            bag(&[&[3.0, 3.0], &[3.05, 3.0], &[1.0, 1.0]]),
            BagLabel::Positive,
        )
        .unwrap();
        // Bag 2 only supports (1, 1).
        ds.push(bag(&[&[1.05, 1.0], &[-5.0, 5.0]]), BagLabel::Positive)
            .unwrap();
        let obj = DdObjective::new(&ds, Parameterization::FixedWeights);
        let diverse = obj.value(&[1.02, 1.0]);
        let dense_same_bag = obj.value(&[3.02, 3.0]);
        assert!(
            diverse < dense_same_bag,
            "diverse support ({diverse}) must beat same-bag density ({dense_same_bag})"
        );
    }

    #[test]
    fn negative_bags_repel() {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[0.0, 0.0]]), BagLabel::Positive).unwrap();
        let without_negative = {
            let obj = DdObjective::new(&ds, Parameterization::FixedWeights);
            obj.value(&[0.0, 0.0])
        };
        ds.push(bag(&[&[0.0, 0.0]]), BagLabel::Negative).unwrap();
        let with_negative = {
            let obj = DdObjective::new(&ds, Parameterization::FixedWeights);
            obj.value(&[0.0, 0.0])
        };
        assert!(
            with_negative > without_negative + 1.0,
            "a negative instance at t must add a large penalty"
        );
    }

    #[test]
    fn gradient_near_clamped_regions_is_finite() {
        let ds = toy_dataset();
        let obj = DdObjective::new(&ds, Parameterization::FixedWeights);
        let mut g = [0.0; 2];
        obj.gradient(&[0.0, 0.0], &mut g); // on a negative instance
        assert!(g.iter().all(|v| v.is_finite()));
        obj.gradient(&[1e4, 1e4], &mut g); // far from everything
        assert!(g.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "non-empty dataset")]
    fn empty_dataset_rejected() {
        let ds = MilDataset::new();
        let _ = DdObjective::new(&ds, Parameterization::FixedWeights);
    }

    /// Wider dataset exercising the unrolled chunks AND the scalar tail
    /// (k = 11 = 8 + 3).
    fn wide_dataset() -> MilDataset {
        let mut ds = MilDataset::new();
        let inst = |seed: usize, n: usize| -> Vec<f32> {
            (0..11)
                .map(|i| ((seed * 31 + n * 13 + i * 7) % 19) as f32 / 4.0 - 2.0)
                .collect()
        };
        for b in 0..3 {
            let instances: Vec<Vec<f32>> = (0..2 + b).map(|n| inst(b, n)).collect();
            ds.push(Bag::new(instances).unwrap(), BagLabel::Positive)
                .unwrap();
        }
        for b in 3..5 {
            let instances: Vec<Vec<f32>> = (0..2).map(|n| inst(b, n)).collect();
            ds.push(Bag::new(instances).unwrap(), BagLabel::Negative)
                .unwrap();
        }
        ds
    }

    /// The pre-SoA `−log DD` implementation: pointer-chased `Vec<Vec<f32>>`
    /// instances, per-element `f32 → f64` widening, per-call scratch.
    ///
    /// Kept verbatim as the oracle [`DdObjective`] is validated against in
    /// `flat_matches_legacy_value_and_gradient`.
    struct LegacyDdObjective<'a> {
        dataset: &'a MilDataset,
        param: Parameterization,
        k: usize,
    }

    impl<'a> LegacyDdObjective<'a> {
        fn new(dataset: &'a MilDataset, param: Parameterization) -> Self {
            let k = dataset
                .dim()
                .expect("DD objective needs a non-empty dataset");
            Self { dataset, param, k }
        }

        fn distance(&self, x: &[f64], instance: &[f32]) -> f64 {
            let k = self.k;
            let t = &x[..k];
            match self.param {
                Parameterization::FixedWeights => t
                    .iter()
                    .zip(instance)
                    .map(|(&tk, &bk)| {
                        let d = tk - f64::from(bk);
                        d * d
                    })
                    .sum(),
                Parameterization::SqrtWeights { .. } => {
                    let s = &x[k..];
                    t.iter()
                        .zip(instance)
                        .zip(s)
                        .map(|((&tk, &bk), &sk)| {
                            let d = tk - f64::from(bk);
                            sk * sk * d * d
                        })
                        .sum()
                }
                Parameterization::DirectWeights => {
                    let w = &x[k..];
                    t.iter()
                        .zip(instance)
                        .zip(w)
                        .map(|((&tk, &bk), &wk)| {
                            let d = tk - f64::from(bk);
                            wk * d * d
                        })
                        .sum()
                }
            }
        }

        fn accumulate_distance_gradient(
            &self,
            x: &[f64],
            instance: &[f32],
            scale: f64,
            grad: &mut [f64],
        ) {
            let k = self.k;
            let t = &x[..k];
            match self.param {
                Parameterization::FixedWeights => {
                    for i in 0..k {
                        let d = t[i] - f64::from(instance[i]);
                        grad[i] += scale * 2.0 * d;
                    }
                }
                Parameterization::SqrtWeights { alpha } => {
                    let s = &x[k..];
                    for i in 0..k {
                        let d = t[i] - f64::from(instance[i]);
                        grad[i] += scale * 2.0 * s[i] * s[i] * d;
                        grad[k + i] += scale * 2.0 * s[i] * d * d / alpha;
                    }
                }
                Parameterization::DirectWeights => {
                    let w = &x[k..];
                    for i in 0..k {
                        let d = t[i] - f64::from(instance[i]);
                        grad[i] += scale * 2.0 * w[i] * d;
                        grad[k + i] += scale * d * d;
                    }
                }
            }
        }

        fn bag_term(
            &self,
            x: &[f64],
            bag: &Bag,
            positive: bool,
            mut grad: Option<&mut [f64]>,
            scratch: &mut Vec<f64>,
        ) -> f64 {
            scratch.clear();
            for instance in bag.instances() {
                scratch.push((-self.distance(x, instance)).exp());
            }
            if positive {
                let mut zero_count = 0usize;
                let mut log_prod_nonzero = 0.0f64;
                for &e in scratch.iter() {
                    let q = 1.0 - e;
                    if q < P_MIN {
                        zero_count += 1;
                    } else {
                        log_prod_nonzero += (-e).ln_1p();
                    }
                }
                let p = if zero_count > 0 {
                    1.0
                } else {
                    (-log_prod_nonzero.exp_m1()).max(P_MIN)
                };
                if let Some(g) = grad.as_deref_mut() {
                    for (j, instance) in bag.instances().enumerate() {
                        let e = scratch[j];
                        let q = 1.0 - e;
                        let prod_excl = if zero_count == 0 {
                            (log_prod_nonzero - (-e).ln_1p()).exp()
                        } else if zero_count == 1 && q < P_MIN {
                            log_prod_nonzero.exp()
                        } else {
                            0.0
                        };
                        let scale = e * prod_excl / p;
                        if scale != 0.0 {
                            self.accumulate_distance_gradient(x, instance, scale, g);
                        }
                    }
                }
                -p.ln()
            } else {
                let mut term = 0.0f64;
                for (j, instance) in bag.instances().enumerate() {
                    let e = scratch[j];
                    let q = (1.0 - e).max(P_MIN);
                    term -= if 1.0 - e >= P_MIN {
                        (-e).ln_1p()
                    } else {
                        q.ln()
                    };
                    if let Some(g) = grad.as_deref_mut() {
                        let scale = -e / q;
                        if scale != 0.0 {
                            self.accumulate_distance_gradient(x, instance, scale, g);
                        }
                    }
                }
                term
            }
        }

        fn evaluate(&self, x: &[f64], mut grad: Option<&mut [f64]>) -> f64 {
            assert_eq!(x.len(), self.dim(), "variable vector has wrong dimension");
            if let Some(g) = grad.as_deref_mut() {
                g.fill(0.0);
            }
            let mut scratch = Vec::new();
            let mut nldd = 0.0;
            for bag in self.dataset.positives() {
                nldd += self.bag_term(x, bag, true, grad.as_deref_mut(), &mut scratch);
            }
            for bag in self.dataset.negatives() {
                nldd += self.bag_term(x, bag, false, grad.as_deref_mut(), &mut scratch);
            }
            nldd
        }
    }

    impl Objective for LegacyDdObjective<'_> {
        fn dim(&self) -> usize {
            self.param.variable_count(self.k)
        }

        fn value(&self, x: &[f64]) -> f64 {
            self.evaluate(x, None)
        }

        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            let _ = self.evaluate(x, Some(grad));
        }

        fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            self.evaluate(x, Some(grad))
        }
    }

    #[test]
    fn flat_matches_legacy_value_and_gradient() {
        let ds = wide_dataset();
        for param in [
            Parameterization::FixedWeights,
            Parameterization::SqrtWeights { alpha: 1.0 },
            Parameterization::SqrtWeights { alpha: 50.0 },
            Parameterization::DirectWeights,
        ] {
            let flat = DdObjective::new(&ds, param);
            let legacy = LegacyDdObjective::new(&ds, param);
            let n = flat.dim();
            assert_eq!(n, legacy.dim());
            let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.1 * i as f64).collect();
            let (mut gf, mut gl) = (vec![0.0; n], vec![0.0; n]);
            let vf = flat.value_and_gradient(&x, &mut gf);
            let vl = legacy.value_and_gradient(&x, &mut gl);
            // Summation order differs (8 lanes vs sequential), so
            // require agreement to ulp-level relative accuracy rather
            // than bit identity.
            assert!(
                (vf - vl).abs() <= 1e-12 * vl.abs().max(1.0),
                "{param:?}: value {vf} vs {vl}"
            );
            for (i, (a, b)) in gf.iter().zip(&gl).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                    "{param:?}: grad[{i}] {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn unrolled_gradients_match_numeric_on_wide_data() {
        let ds = wide_dataset();
        for param in [
            Parameterization::FixedWeights,
            Parameterization::SqrtWeights { alpha: 1.0 },
            Parameterization::DirectWeights,
        ] {
            let obj = DdObjective::new(&ds, param);
            let x: Vec<f64> = (0..obj.dim()).map(|i| 0.2 + 0.05 * i as f64).collect();
            let err = gradient_error(&obj, &x, 1e-6);
            assert!(err < 1e-5, "{param:?}: gradient error {err}");
        }
    }

    #[test]
    fn repeated_evaluations_reuse_the_scratch() {
        // Behavioural proxy for the zero-allocation claim: many
        // evaluations stay consistent (the per-thread workspace is
        // refilled, not stale) and deterministic. Alternating between
        // two points forces a memo miss every call; re-evaluating the
        // first point afterwards must still reproduce the original
        // value bit for bit.
        let ds = wide_dataset();
        let obj = DdObjective::new(&ds, Parameterization::FixedWeights);
        let xa: Vec<f64> = (0..obj.dim()).map(|i| 0.1 * i as f64).collect();
        let xb: Vec<f64> = (0..obj.dim()).map(|i| 0.3 - 0.02 * i as f64).collect();
        let (first_a, first_b) = (obj.value(&xa), obj.value(&xb));
        for _ in 0..50 {
            assert_eq!(obj.value(&xa), first_a);
            assert_eq!(obj.value(&xb), first_b);
        }
    }

    #[test]
    fn memo_hit_matches_recomputation_across_objectives() {
        // Two objectives with different datasets but identical variable
        // vectors must never cross-contaminate the per-thread memo.
        let ds_a = toy_dataset();
        let ds_b = {
            let mut ds = MilDataset::new();
            ds.push(bag(&[&[5.0, 5.0]]), BagLabel::Positive).unwrap();
            ds.push(bag(&[&[0.5, 0.5]]), BagLabel::Negative).unwrap();
            ds
        };
        let obj_a = DdObjective::new(&ds_a, Parameterization::FixedWeights);
        let obj_b = DdObjective::new(&ds_b, Parameterization::FixedWeights);
        let x = vec![1.0, 2.0];
        let (va, vb) = (obj_a.value(&x), obj_b.value(&x));
        assert_ne!(va, vb, "distinct datasets give distinct values");
        // Interleave: every call flips the cache to the other objective.
        for _ in 0..10 {
            assert_eq!(obj_a.value(&x), va);
            assert_eq!(obj_b.value(&x), vb);
        }
        // Gradient-after-value (the solver's accept pattern) hits the
        // memo; a fresh objective recomputes from scratch — same result.
        let mut g_hit = vec![0.0; 2];
        let v_hit = {
            let _ = obj_a.value(&x);
            obj_a.value_and_gradient(&x, &mut g_hit)
        };
        let fresh = DdObjective::new(&ds_a, Parameterization::FixedWeights);
        let mut g_cold = vec![0.0; 2];
        let v_cold = fresh.value_and_gradient(&x, &mut g_cold);
        assert_eq!(v_hit, v_cold);
        assert_eq!(g_hit, g_cold);
    }

    /// Deterministic values in `[-1, 1)` (the kernel tests' LCG).
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
        }
    }

    /// Bags of dimension `k` scattered around one centre at distances of
    /// order 1–10 whatever `k`, with the given sizes; the first positive
    /// and the first negative bag each get one extra instance so far out
    /// that `exp(−d)` underflows to exactly zero (`scale == 0`).
    fn kernel_dataset(k: usize, positives: &[usize], negatives: &[usize], seed: u64) -> MilDataset {
        let mut next = lcg(seed);
        let spread = 3.0 / (k as f64).sqrt();
        let centre: Vec<f64> = (0..k).map(|_| next() * 5.0).collect();
        let mut ds = MilDataset::new();
        for (sizes, label) in [
            (positives, BagLabel::Positive),
            (negatives, BagLabel::Negative),
        ] {
            for (b, &size) in sizes.iter().enumerate() {
                let mut instances: Vec<Vec<f32>> = (0..size)
                    .map(|_| {
                        centre
                            .iter()
                            .map(|&c| (c + spread * next()) as f32)
                            .collect()
                    })
                    .collect();
                if b == 0 {
                    instances.push(vec![100.0; k]);
                }
                ds.push(Bag::new(instances).unwrap(), label).unwrap();
            }
        }
        ds
    }

    /// Variable vectors for `param`: a generic point near the bags, a
    /// point on a positive instance (the zero-count path) and a point on
    /// a negative instance (the clamped `q` path).
    fn kernel_points(ds: &MilDataset, param: Parameterization, seed: u64) -> Vec<Vec<f64>> {
        let k = ds.dim().unwrap();
        let mut next = lcg(seed ^ 0x5eed);
        let on = |bag: &Bag| bag.instances().next().unwrap().to_vec();
        let generic: Vec<f32> = on(&ds.positives()[0])
            .iter()
            .map(|&v| v + (0.5 * next()) as f32)
            .collect();
        let mut tops = vec![generic, on(&ds.positives()[0])];
        if let Some(negative) = ds.negatives().first() {
            tops.push(on(negative));
        }
        tops.iter()
            .map(|top| {
                let mut x = param.start_from(top);
                for w in &mut x[k..] {
                    *w = 0.9 + 0.6 * next();
                }
                x
            })
            .collect()
    }

    /// Compares the dispatched and portable evaluations at `x`, value and
    /// gradient, on the memo-miss and the memo-hit path of each.
    fn assert_dispatched_matches_portable(ds: &MilDataset, param: Parameterization, x: &[f64]) {
        let dispatched = DdObjective::new(ds, param);
        let portable = DdObjective::new(ds, param);
        let n = dispatched.dim();
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut gd, mut gp) = (vec![0.0; n], vec![0.0; n]);
        // Each objective's first call at `x` misses (the other objective
        // evicted the per-thread memo), its second call hits.
        let value_miss = dispatched.value(x);
        let gradient_hit = dispatched.value_and_gradient(x, &mut gd);
        let g_hit = bits(&gd);
        assert_eq!(
            value_miss.to_bits(),
            portable.portable_evaluation(x, None).to_bits()
        );
        assert_eq!(
            gradient_hit.to_bits(),
            portable.portable_evaluation(x, Some(&mut gp)).to_bits()
        );
        assert_eq!(g_hit, bits(&gp), "{param:?}: gradient, memo hit");
        let gradient_miss = dispatched.value_and_gradient(x, &mut gd);
        let value_hit = dispatched.value(x);
        let g_miss = bits(&gd);
        assert_eq!(
            gradient_miss.to_bits(),
            portable.portable_evaluation(x, Some(&mut gp)).to_bits()
        );
        assert_eq!(
            value_hit.to_bits(),
            portable.portable_evaluation(x, None).to_bits()
        );
        assert_eq!(g_miss, bits(&gp), "{param:?}: gradient, memo miss");
        assert!(value_miss.is_finite() && gd.iter().all(|g| g.is_finite()));
    }

    /// On an AVX2 machine the objective takes the vector passes; this
    /// pins them bit for bit against the portable passes across lane
    /// and block tails (k), odd instance counts, underflowing instances
    /// and points sitting on an instance. On a machine without AVX2 both
    /// sides are portable and the test is trivially green.
    #[test]
    fn dispatched_dd_passes_match_portable_bit_for_bit() {
        let params = [
            Parameterization::FixedWeights,
            Parameterization::SqrtWeights { alpha: 1.0 },
            Parameterization::DirectWeights,
        ];
        for k in [1, 3, 7, 8, 9, 15, 16, 17, 100, 257] {
            for (positives, negatives) in [
                (&[1, 4, 5][..], &[2, 3][..]),
                (&[2, 3][..], &[1][..]),
                (&[5][..], &[][..]),
            ] {
                let seed = k as u64 * 31 + positives.len() as u64;
                let ds = kernel_dataset(k, positives, negatives, seed);
                for param in params {
                    for x in kernel_points(&ds, param, seed) {
                        assert_dispatched_matches_portable(&ds, param, &x);
                    }
                }
            }
        }
    }

    /// The throughput contract of the AVX2 training passes: a memo-miss
    /// `value_and_gradient` on a first-page-shaped 200 × 100 dataset must
    /// cost at most 0.8 of the portable one (measured ≈ 0.45). A helper
    /// that stops inlining into the AVX2 frame falls back to SSE2 code
    /// without failing any exactness test; this catches it.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "throughput contract only holds for optimized builds; CI runs it as \
                  `cargo test --release -p milr-mil --lib dispatched_dd_evaluation_beats_portable`"
    )]
    fn dispatched_dd_evaluation_beats_portable() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = crate::kernel::have_avx2();
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            eprintln!("no AVX2: dispatched and portable passes are the same code");
            return;
        }
        let ds = kernel_dataset(100, &[25; 4], &[25; 4], 7);
        let param = Parameterization::DirectWeights;
        let objective = DdObjective::new(&ds, param);
        // Alternating points force a memo miss on every call.
        let points = kernel_points(&ds, param, 7);
        let mut grad = vec![0.0; objective.dim()];
        let mut time = |kernels: Kernels| {
            let mut best = f64::INFINITY;
            for _ in 0..7 {
                let start = std::time::Instant::now();
                for i in 0..200 {
                    let x = &points[i % 2];
                    std::hint::black_box(objective.evaluate(x, Some(&mut grad), kernels));
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            best
        };
        let portable = time(Kernels::Portable);
        let dispatched = time(Kernels::Dispatched);
        assert!(
            dispatched <= 0.8 * portable,
            "dispatched DD evaluation must beat the portable one: \
             dispatched {dispatched:.6}s vs portable {portable:.6}s ({:.2}x)",
            dispatched / portable
        );
    }
}
