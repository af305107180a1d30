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
//! contiguous buffer — and evaluates value and gradient with fused,
//! 4-wide-unrolled kernels over that buffer: no per-element `f32 → f64`
//! conversion and no slice-of-slices pointer chasing inside the L-BFGS
//! loop. Per-evaluation scratch lives in a reusable per-thread workspace,
//! so steady-state iterations allocate nothing. The original
//! pointer-chased implementation survives only as a test oracle.

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
/// `e_j = exp(−d_j)` computed at one variable vector, memoized.
///
/// The solvers' line searches evaluate `value(x)` at a trial point and,
/// on acceptance, immediately ask for `value_and_gradient` at the *same*
/// point — the memo makes the second call skip the entire distance+`exp`
/// pass (the dominant cost) and go straight to the bag terms and
/// gradient accumulation. The cache is keyed on the owning objective's
/// unique id plus a bitwise compare of `x`, so a hit reproduces exactly
/// what a recomputation would; capacity is reused across evaluations, so
/// steady-state iterations allocate nothing.
struct Workspace {
    /// Unique id of the [`DdObjective`] the cache belongs to.
    id: u64,
    /// Variable vector the probabilities were computed at.
    x: Vec<f64>,
    /// `e_j = exp(−d_j)` per flat instance index.
    e: Vec<f64>,
    /// `ln q_j = ln_1p(−e_j)` per flat instance index — cached because
    /// every bag term consumes it (the value sums and the leave-one-out
    /// gradient products), so a memo hit skips the `ln_1p` pass too.
    lnq: Vec<f64>,
    /// Whether `x`/`e`/`lnq` hold a complete evaluation.
    valid: bool,
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
    pub fn variable_count(self, k: usize) -> usize {
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
    pub fn weights_of(self, x: &[f64], k: usize) -> Vec<f64> {
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
// lane-indexed accumulator array — the shape LLVM's SLP vectorizer turns
// into packed SIMD adds with enough independent chains to hide FP-add
// latency. The scalar tail handles `k mod LANES`.
//
// The gradient side exploits that the per-dimension weights factor out
// of the instance sums: every parameterization's gradient is a function
// of the two moments `A_i = Σ_j scale_j·d_ji` and `B_i = Σ_j
// scale_j·d_ji²`. The per-instance kernels below accumulate only those
// moments (an aliasing-free elementwise map the auto-vectorizer handles
// outright — no weight loads, no read-modify-write of the variable-space
// gradient), and one O(k) finalize pass per evaluation maps them to the
// actual gradient blocks.
// ---------------------------------------------------------------------

/// Unroll width of the distance/gradient kernels.
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

/// `−log DD` as a [`milr_optim::Objective`] over a flat copy of the
/// dataset.
///
/// Construction converts the dataset into a contiguous `f64`
/// [`FlatDataset`] once; every evaluation afterwards streams over that
/// buffer with the fused kernels above.
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

    /// Weighted squared distance from the encoded `t` to one flat
    /// instance.
    #[inline]
    fn distance(&self, x: &[f64], instance: &[f64]) -> f64 {
        let k = self.k;
        let t = &x[..k];
        match self.param {
            Parameterization::FixedWeights => dist_fixed(t, instance),
            Parameterization::SqrtWeights { .. } => dist_sqrt(t, instance, &x[k..]),
            Parameterization::DirectWeights => dist_direct(t, instance, &x[k..]),
        }
    }

    /// Adds one instance's scaled difference moments into the gradient
    /// scratch (`B` is skipped when no parameterization needs it).
    #[inline]
    fn accumulate_instance_moments(
        &self,
        x: &[f64],
        instance: &[f64],
        scale: f64,
        moments: &mut (&mut [f64], &mut [f64]),
    ) {
        let t = &x[..self.k];
        match self.param {
            Parameterization::FixedWeights => accumulate_d(t, instance, scale, moments.0),
            Parameterization::SqrtWeights { .. } | Parameterization::DirectWeights => {
                accumulate_d_d2(t, instance, scale, moments.0, moments.1)
            }
        }
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

    /// NLDD contribution of one bag plus (optionally) its gradient
    /// moments.
    ///
    /// Returns the bag's `−log Pr(t | B)` and, when `moments` is `Some`,
    /// accumulates each instance's scaled difference moments into the
    /// `(A, B)` scratch (finalized once per evaluation). `e` and `lnq`
    /// hold the bag's precomputed `e_j = Pr(B_j = t) = exp(−d_j)` and
    /// `ln q_j = ln_1p(−e_j)` (see [`Workspace`]).
    fn bag_term(
        &self,
        x: &[f64],
        bag: usize,
        positive: bool,
        mut moments: Option<(&mut [f64], &mut [f64])>,
        e: &[f64],
        lnq: &[f64],
    ) -> f64 {
        let k = self.k;
        let instances = self.flat.bag_instances(bag);
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
            if let Some(m) = moments.as_mut() {
                for (j, instance) in instances.chunks_exact(k).enumerate() {
                    let ej = e[j];
                    let q = 1.0 - ej;
                    let prod_excl = if zero_count == 0 {
                        (log_prod_nonzero - lnq[j]).exp()
                    } else if zero_count == 1 && q < P_MIN {
                        log_prod_nonzero.exp()
                    } else {
                        0.0
                    };
                    // ∂(−log P)/∂d_j = e_j · Π_{l≠j} q_l / P ≥ 0.
                    let scale = ej * prod_excl / p;
                    if scale != 0.0 {
                        self.accumulate_instance_moments(x, instance, scale, m);
                    }
                }
            }
            -p.ln()
        } else {
            // −log Π q_j = −Σ log q_j, with ln(1 − e) via ln_1p for
            // accuracy when e is tiny.
            let mut term = 0.0f64;
            for (j, instance) in instances.chunks_exact(k).enumerate() {
                let ej = e[j];
                let q = (1.0 - ej).max(P_MIN);
                term -= if 1.0 - ej >= P_MIN { lnq[j] } else { q.ln() };
                if let Some(m) = moments.as_mut() {
                    // ∂(−log q_j)/∂d_j = −e_j / q_j ≤ 0.
                    let scale = -ej / q;
                    if scale != 0.0 {
                        self.accumulate_instance_moments(x, instance, scale, m);
                    }
                }
            }
            term
        }
    }

    fn evaluate(&self, x: &[f64], grad: Option<&mut [f64]>) -> f64 {
        assert_eq!(x.len(), self.dim(), "variable vector has wrong dimension");
        WORKSPACE.with(|cell| {
            let ws = &mut *cell.borrow_mut();
            // Recompute the distance+exp pass only when the memo misses
            // (different objective, or a bitwise-different `x`). A hit is
            // exact: the cached values are what recomputation would
            // produce, because evaluation is deterministic in `x`.
            if ws.valid && ws.id == self.id && ws.x == x {
                milr_obs::counter!("milr_dd_memo_hits_total").inc();
            } else {
                milr_obs::counter!("milr_dd_memo_misses_total").inc();
                ws.valid = false;
                ws.id = self.id;
                ws.x.clear();
                ws.x.extend_from_slice(x);
                ws.e.clear();
                ws.e.reserve(self.flat.instance_count());
                ws.lnq.clear();
                ws.lnq.reserve(self.flat.instance_count());
                for bag in 0..self.flat.bag_count() {
                    for instance in self.flat.bag_instances(bag).chunks_exact(self.k) {
                        let e = (-self.distance(x, instance)).exp();
                        ws.e.push(e);
                        ws.lnq.push((-e).ln_1p());
                    }
                }
                ws.valid = true;
            }
            let Workspace {
                e,
                lnq,
                acc_d,
                acc_d2,
                ..
            } = &mut *ws;
            let wants_grad = grad.is_some();
            if wants_grad {
                acc_d.clear();
                acc_d.resize(self.k, 0.0);
                acc_d2.clear();
                acc_d2.resize(self.k, 0.0);
            }
            let mut nldd = 0.0;
            // The flat layout stores positives first, preserving the
            // positives-then-negatives accumulation order of the
            // original implementation.
            for bag in 0..self.flat.bag_count() {
                let span = self.flat.span(bag);
                let range = span.offset..span.offset + span.len;
                nldd += self.bag_term(
                    x,
                    bag,
                    self.flat.is_positive(bag),
                    wants_grad.then(|| (&mut acc_d[..], &mut acc_d2[..])),
                    &e[range.clone()],
                    &lnq[range],
                );
            }
            if let Some(g) = grad {
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
        self.evaluate(x, None)
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        let _ = self.evaluate(x, Some(grad));
    }

    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.evaluate(x, Some(grad))
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
    /// (k = 7 = 4 + 3).
    fn wide_dataset() -> MilDataset {
        let mut ds = MilDataset::new();
        let inst = |seed: usize, n: usize| -> Vec<f32> {
            (0..7)
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
            // Summation order differs (4 accumulators vs sequential), so
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
}
