//! Per-shard k-means cells with a conservative lower bound on every
//! member's weighted distance — measurement code only.
//!
//! No ranking path uses this module: the store ranks every top-k page
//! with one scan (shared bound, i8 screen, exact kernel) and persists no
//! cells. Its only caller is the benchmark package's `mil.index_*`
//! per-layer metrics, which time [`CoarseIndex::build`] and
//! [`CoarseIndex::query_bounds`]; ROADMAP item 15(a) retires those
//! metrics and deletes this module with them.
//!
//! [`CoarseIndex::build`] partitions `n` instances into cells with a
//! deterministic (seed-free) Lloyd k-means over the raw f32 features.
//! Each cell keeps its centroid and a conservative radius: the largest
//! *unweighted* Euclidean distance from a member to the centroid,
//! inflated by a relative slack so rounding can never understate it.
//!
//! For a concept `(q, w)` the per-cell bound comes from the
//! weighted-norm triangle inequality. Writing `d_w(a, b) = Σ wᵢ (aᵢ −
//! bᵢ)²` (a squared seminorm, so the triangle inequality holds for its
//! square root):
//!
//! ```text
//! √d_w(q, x) ≥ √d_w(q, c) − √d_w(x, c)          for x in cell c
//! d_w(x, c)  ≤ w_max · ‖x − c‖² ≤ w_max · r_c²
//! ⇒ d_w(q, x) ≥ (√d_w(q, c) − √w_max · r_c)²    when the bracket ≥ 0
//! ```
//!
//! Every floating-point step rounds the bound *down*, and any
//! non-finite intermediate degrades the bound to 0.

use crate::kernel::weighted_distance_sq;
use crate::Concept;

/// Relative slack applied to every rounding-sensitive step of the cell
/// bound. The unrolled kernel's accumulation error is below `dim · ε ≈
/// 1e-13` relative for any dimension this crate sees; `1e-9` dominates
/// it by four orders of magnitude while costing nothing measurable in
/// pruning power.
const RELATIVE_SLACK: f64 = 1e-9;

/// Fixed Lloyd iteration count. The index only has to be *useful and
/// deterministic*, not optimal: bounds stay sound for any partition.
const KMEANS_ITERATIONS: usize = 4;

/// A coarse quantizer over `instances × dim` features. The build is
/// seed-free and deterministic: the same instance stream always produces
/// bitwise-identical centroids, radii and assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarseIndex {
    dim: usize,
    /// `cell_count × dim`, row-major.
    centroids: Vec<f32>,
    /// Per cell: max member distance to centroid (unweighted L2, not
    /// squared), inflated by `1 + RELATIVE_SLACK`.
    radii: Vec<f64>,
    /// Per instance: owning cell, `< cell_count`.
    assignments: Vec<u32>,
}

impl CoarseIndex {
    /// Default cell count for `instances` instances: `⌈√n⌉`, the classic
    /// IVF balance point between per-query cell-bound work (`cells`) and
    /// expected scan work per surviving cell (`n / cells`).
    pub fn default_cell_count(instances: usize) -> usize {
        (instances as f64).sqrt().ceil() as usize
    }

    /// Builds the index over `instances × dim` row-major features.
    ///
    /// `cells` is clamped to `[1, instances]` (an empty dataset yields an
    /// empty zero-cell index).
    ///
    /// # Panics
    /// If `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn build(data: &[f32], dim: usize, cells: usize) -> Self {
        assert!(dim > 0, "CoarseIndex::build: dim must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "CoarseIndex::build: data length {} not a multiple of dim {}",
            data.len(),
            dim
        );
        let n = data.len() / dim;
        if n == 0 {
            return Self {
                dim,
                centroids: Vec::new(),
                radii: Vec::new(),
                assignments: Vec::new(),
            };
        }
        let cells = cells.clamp(1, n);

        // Deterministic init: spread seeds evenly across the instance
        // stream (instance ⌊c·n/cells⌋ for cell c — distinct because
        // cells ≤ n).
        let mut centroids = Vec::with_capacity(cells * dim);
        for c in 0..cells {
            let seed = c * n / cells;
            centroids.extend_from_slice(&data[seed * dim..(seed + 1) * dim]);
        }

        let mut assignments = vec![0u32; n];
        for _ in 0..KMEANS_ITERATIONS {
            assign_cells(data, dim, &centroids, &mut assignments);
            // Mean update in f64, instance order; empty cells keep their
            // previous centroid so `cells` never shrinks.
            let mut sums = vec![0.0f64; cells * dim];
            let mut counts = vec![0usize; cells];
            for (i, &cell) in assignments.iter().enumerate() {
                let row = &data[i * dim..(i + 1) * dim];
                let sum = &mut sums[cell as usize * dim..(cell as usize + 1) * dim];
                for (s, &v) in sum.iter_mut().zip(row) {
                    *s += f64::from(v);
                }
                counts[cell as usize] += 1;
            }
            for (c, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] / count as f64) as f32;
                }
            }
        }
        // Final assignment against the final centroids, then radii.
        assign_cells(data, dim, &centroids, &mut assignments);
        let mut radii = vec![0.0f64; cells];
        for (i, &cell) in assignments.iter().enumerate() {
            let row = &data[i * dim..(i + 1) * dim];
            let centroid = &centroids[cell as usize * dim..(cell as usize + 1) * dim];
            let d = raw_distance_sq(row, centroid).sqrt() * (1.0 + RELATIVE_SLACK);
            if d > radii[cell as usize] {
                radii[cell as usize] = d;
            }
        }
        Self {
            dim,
            centroids,
            radii,
            assignments,
        }
    }

    /// Per-cell lower bounds on the weighted squared distance from the
    /// concept to *any* instance in the cell.
    ///
    /// Each bound is provably at or below every member's exact kernel
    /// distance. Pathological inputs (infinite weights over a
    /// non-degenerate cell, NaN anywhere) degrade the bound to 0, which
    /// stays trivially sound.
    pub fn query_bounds(&self, concept: &Concept) -> Vec<f64> {
        let w_max = max_weight(concept);
        self.centroids
            .chunks_exact(self.dim)
            .zip(&self.radii)
            .map(|(centroid, &radius)| {
                let dq_c = weighted_distance_sq(concept.point(), concept.weights(), centroid);
                cell_lower_bound(dq_c, w_max, radius)
            })
            .collect()
    }
}

/// The largest concept weight (0 for none) — the `w_max` of the cell
/// bound.
fn max_weight(concept: &Concept) -> f64 {
    concept
        .weights()
        .iter()
        .fold(0.0f64, |acc, &w| if w > acc { w } else { acc })
}

/// Assigns every instance to its nearest centroid (plain f64 squared L2,
/// accumulated in dimension order; ties break to the lowest cell).
fn assign_cells(data: &[f32], dim: usize, centroids: &[f32], assignments: &mut [u32]) {
    let cells = centroids.len() / dim;
    for (i, slot) in assignments.iter_mut().enumerate() {
        let row = &data[i * dim..(i + 1) * dim];
        let mut best = f64::INFINITY;
        let mut best_cell = 0u32;
        for c in 0..cells {
            let d = raw_distance_sq(row, &centroids[c * dim..(c + 1) * dim]);
            if d < best {
                best = d;
                best_cell = c as u32;
            }
        }
        *slot = best_cell;
    }
}

/// Unweighted squared L2 in f64, plain dimension-order accumulation —
/// deliberately *not* the ranking kernel: this value only shapes the
/// partition (and radii), never the ranking itself.
fn raw_distance_sq(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = f64::from(x) - f64::from(y);
        acc += d * d;
    }
    acc
}

/// The conservative per-cell bound: `(√(d_w(q,c)) − √w_max · r)²`,
/// rounded down at every step; 0 whenever the bracket is negative or any
/// intermediate is non-finite.
fn cell_lower_bound(dq_c: f64, w_max: f64, radius: f64) -> f64 {
    // `radius == 0` short-circuits the penalty so `w_max = ∞` (allowed
    // by `Concept::new`) cannot produce `∞ · 0 = NaN`.
    let penalty = if radius == 0.0 {
        0.0
    } else {
        w_max.sqrt() * radius * (1.0 + RELATIVE_SLACK)
    };
    if !dq_c.is_finite() || !penalty.is_finite() {
        return 0.0;
    }
    let root = (dq_c * (1.0 - RELATIVE_SLACK)).sqrt();
    let lo = root - penalty;
    if lo <= 0.0 {
        return 0.0;
    }
    let lb = lo * lo * (1.0 - RELATIVE_SLACK);
    if lb.is_finite() {
        lb
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows × dim` synthetic features, deterministic arithmetic.
    fn grid(rows: usize, dim: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(rows * dim);
        for i in 0..rows {
            for d in 0..dim {
                data.push(((i * 13 + d * 7) % 29) as f32 / 3.0 + (i / 7) as f32 * 10.0);
            }
        }
        data
    }

    #[test]
    fn build_is_deterministic() {
        let data = grid(50, 6);
        let a = CoarseIndex::build(&data, 6, 8);
        let b = CoarseIndex::build(&data, 6, 8);
        assert_eq!(a, b);
        assert_eq!(a.radii.len(), 8);
        assert_eq!(a.centroids.len(), 8 * 6);
        assert_eq!(a.assignments.len(), 50);
        assert!(a.assignments.iter().all(|&cell| cell < 8));
    }

    #[test]
    fn cells_clamp_to_instance_count() {
        let data = grid(3, 4);
        let wide = CoarseIndex::build(&data, 4, 100);
        assert_eq!(wide.radii.len(), 3);
        let narrow = CoarseIndex::build(&data, 4, 0);
        assert_eq!(narrow.radii.len(), 1);
        let empty = CoarseIndex::build(&[], 4, 5);
        assert!(empty.radii.is_empty());
        assert!(empty.assignments.is_empty());
    }

    #[test]
    fn default_cell_count_is_sqrt_ish() {
        assert_eq!(CoarseIndex::default_cell_count(0), 0);
        assert_eq!(CoarseIndex::default_cell_count(1), 1);
        assert_eq!(CoarseIndex::default_cell_count(100), 10);
        assert_eq!(CoarseIndex::default_cell_count(101), 11);
    }

    #[test]
    fn every_cell_bound_is_below_every_member_distance() {
        let data = grid(64, 5);
        let index = CoarseIndex::build(&data, 5, 7);
        let concept = Concept::new(
            vec![4.0, -3.0, 10.5, 0.25, 6.0],
            vec![1.5, 0.0, 2.0, 0.5, 3.0],
        );
        let bounds = index.query_bounds(&concept);
        for (i, &cell) in index.assignments.iter().enumerate() {
            let exact = weighted_distance_sq(
                concept.point(),
                concept.weights(),
                &data[i * 5..(i + 1) * 5],
            );
            assert!(
                bounds[cell as usize] <= exact,
                "instance {i}: bound {} > exact {exact}",
                bounds[cell as usize]
            );
        }
    }

    #[test]
    fn infinite_weights_degrade_to_never_skip() {
        let data = grid(16, 3);
        let index = CoarseIndex::build(&data, 3, 4);
        let concept = Concept::new(vec![1.0, 2.0, 3.0], vec![f64::INFINITY, 1.0, 1.0]);
        for (c, &b) in index.query_bounds(&concept).iter().enumerate() {
            // Either the cell is degenerate (radius 0 ⇒ a real bound) or
            // the bound collapses to 0 — never NaN, never ∞.
            assert!(b.is_finite(), "cell {c} bound {b} not finite");
            if index.radii[c] > 0.0 {
                assert_eq!(b, 0.0, "cell {c}: inf weights must disable skipping");
            }
        }
    }

    #[test]
    fn zero_radius_cells_keep_a_working_bound() {
        // Every instance identical: one effective point, radius 0 cells.
        let data: Vec<f32> = std::iter::repeat_n([1.0f32, -2.0, 0.5], 9)
            .flatten()
            .collect();
        let index = CoarseIndex::build(&data, 3, 4);
        assert!(index.radii.iter().all(|&r| r == 0.0));
        let concept = Concept::new(vec![5.0, 0.0, 0.0], vec![f64::INFINITY, 1.0, 1.0]);
        let bounds = index.query_bounds(&concept);
        // d_w(q, x) is infinite here; a zero-radius cell may bound it by
        // 0 (the guard) but must never go NaN.
        assert!(bounds.iter().all(|b| !b.is_nan()));
    }
}
