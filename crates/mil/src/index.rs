//! Coarse per-shard instance index: an IVF-style quantizer whose cell
//! bounds let the ranking scan skip whole groups of instances *provably*.
//!
//! The index partitions a shard's instances into `cells` clusters with a
//! deterministic (seed-free) Lloyd k-means over the raw f32 features.
//! Each cell stores its centroid and a conservative radius — the maximum
//! *unweighted* Euclidean distance from any member to the centroid,
//! inflated by a relative slack so floating-point rounding can never
//! understate it.
//!
//! At query time, for a concept `(q, w)` the per-cell lower bound comes
//! from the weighted-norm triangle inequality. Writing `d_w(a, b) =
//! Σ wᵢ (aᵢ − bᵢ)²` (a squared seminorm, so the triangle inequality
//! holds for its square root):
//!
//! ```text
//! √d_w(q, x) ≥ √d_w(q, c) − √d_w(x, c)          for x in cell c
//! d_w(x, c)  ≤ w_max · ‖x − c‖² ≤ w_max · r_c²
//! ⇒ d_w(q, x) ≥ (√d_w(q, c) − √w_max · r_c)²    when the bracket ≥ 0
//! ```
//!
//! Every floating-point step rounds the bound *down* (slack factors of
//! `1 ± RELATIVE_SLACK`, orders of magnitude above the kernel's actual
//! accumulation error), and any non-finite intermediate degrades the
//! bound to 0 — "never skip" — so a skip is always a proof that the
//! exact scan would have rejected every instance in the range anyway.

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

/// A coarse quantizer over one `FlatBags`' instances.
///
/// Immutable once built; rebuilt from scratch whenever the underlying
/// data changes. The build is seed-free and deterministic: the same
/// instance stream always produces bitwise-identical centroids, radii,
/// and assignments, which is what lets a lazily rebuilt index stand in
/// for a persisted one.
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

    /// Reassembles an index from persisted parts, validating the
    /// invariants the bound math relies on.
    ///
    /// # Errors
    /// A description of the first inconsistency (length mismatches,
    /// out-of-range assignments, non-finite or negative radii).
    pub fn from_persisted(
        dim: usize,
        centroids: Vec<f32>,
        radii: Vec<f64>,
        assignments: Vec<u32>,
    ) -> Result<Self, String> {
        if dim == 0 {
            return Err("index dimension must be positive".into());
        }
        if !centroids.len().is_multiple_of(dim) {
            return Err(format!(
                "centroid block length {} not a multiple of dim {dim}",
                centroids.len()
            ));
        }
        let cells = centroids.len() / dim;
        if radii.len() != cells {
            return Err(format!("index has {cells} cells but {} radii", radii.len()));
        }
        if cells == 0 && !assignments.is_empty() {
            return Err(format!(
                "index has no cells but {} assignments",
                assignments.len()
            ));
        }
        for (c, &r) in radii.iter().enumerate() {
            if !r.is_finite() || r < 0.0 {
                return Err(format!("cell {c} has invalid radius {r}"));
            }
        }
        for (i, &cell) in assignments.iter().enumerate() {
            if cell as usize >= cells {
                return Err(format!(
                    "instance {i} assigned to cell {cell}, but index has {cells} cells"
                ));
            }
        }
        Ok(Self {
            dim,
            centroids,
            radii,
            assignments,
        })
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.radii.len()
    }

    /// Per-instance cell assignments.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Row-major `cell_count × dim` centroid block.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Per-cell conservative radii (unweighted L2, not squared).
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Members per cell, in cell order.
    pub fn cell_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cell_count()];
        for &cell in &self.assignments {
            counts[cell as usize] += 1;
        }
        counts
    }

    /// Per-cell lower bounds on the weighted squared distance from the
    /// concept to *any* instance in the cell.
    ///
    /// Each bound is provably at or below every member's exact kernel
    /// distance: skipping a range whose minimum cell bound is at or
    /// above the scan's rejection threshold cannot change any ranking.
    /// Pathological inputs (infinite weights over a non-degenerate cell,
    /// NaN anywhere) degrade the bound to 0, which disables skipping but
    /// stays trivially sound.
    pub fn query_bounds(&self, concept: &Concept) -> Vec<f64> {
        let w_max = max_weight(concept);
        (0..self.cell_count())
            .map(|c| self.cell_bound(concept, w_max, c))
            .collect()
    }

    /// [`Self::query_bounds`] computed on demand: every cell starts
    /// unknown, and [`Self::range_reaches`] fills in only the cells it
    /// reads — a scan that consults few cells pays for few bounds.
    pub fn lazy_bounds(&self, concept: &Concept) -> CellBounds {
        CellBounds {
            w_max: max_weight(concept),
            bounds: vec![f64::NAN; self.cell_count()],
        }
    }

    /// One cell's bound (see [`Self::query_bounds`]).
    fn cell_bound(&self, concept: &Concept, w_max: f64, c: usize) -> f64 {
        let centroid = &self.centroids[c * self.dim..(c + 1) * self.dim];
        let dq_c = weighted_distance_sq(concept.point(), concept.weights(), centroid);
        cell_lower_bound(dq_c, w_max, self.radii[c])
    }

    /// Minimum cell bound over the instance range `[first, first + len)`
    /// plus the number of *distinct consecutive cell runs* the range
    /// crosses (the unit the `cells_scanned` / `cells_skipped` counters
    /// report).
    ///
    /// An empty range yields `(∞, 0)`: vacuously, every one of its zero
    /// instances is at or above any threshold.
    pub fn range_lower_bound(&self, bounds: &[f64], first: usize, len: usize) -> (f64, u64) {
        let cells = &self.assignments[first..first + len];
        let mut lb = f64::INFINITY;
        let mut runs = 0u64;
        let mut prev = u32::MAX;
        for &cell in cells {
            if cell != prev {
                runs += 1;
                prev = cell;
                let b = bounds[cell as usize];
                if b < lb {
                    lb = b;
                }
            }
        }
        (lb, runs)
    }

    /// Whether [`Self::range_lower_bound`] of `[first, first + len)` is at
    /// or above `threshold` — with the bounds taken from (and filled
    /// into) `bounds`, and none read past the first cell below the
    /// threshold, which settles the answer.
    pub fn range_reaches(
        &self,
        concept: &Concept,
        bounds: &mut CellBounds,
        first: usize,
        len: usize,
        threshold: f64,
    ) -> bool {
        let cells = &self.assignments[first..first + len];
        // A bound already known to fall below settles it for free.
        if cells
            .iter()
            .any(|&cell| bounds.bounds[cell as usize] < threshold)
        {
            return false;
        }
        let mut prev = u32::MAX;
        for &cell in cells {
            if cell == prev {
                continue;
            }
            prev = cell;
            let slot = &mut bounds.bounds[cell as usize];
            if slot.is_nan() {
                *slot = self.cell_bound(concept, bounds.w_max, cell as usize);
            }
            // A NaN bound never reaches: no skip, still sound.
            if slot.is_nan() || *slot < threshold {
                return false;
            }
        }
        true
    }

    /// The run count of [`Self::range_lower_bound`] alone.
    pub fn range_runs(&self, first: usize, len: usize) -> u32 {
        let cells = &self.assignments[first..first + len];
        if cells.is_empty() {
            return 0;
        }
        1 + cells.windows(2).filter(|pair| pair[0] != pair[1]).count() as u32
    }
}

/// One concept's per-cell bounds over a [`CoarseIndex`], computed on
/// demand (see [`CoarseIndex::lazy_bounds`]).
#[derive(Debug, Clone)]
pub struct CellBounds {
    w_max: f64,
    /// Per cell; NaN until computed.
    bounds: Vec<f64>,
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
        assert_eq!(a.cell_count(), 8);
        assert_eq!(a.assignments().len(), 50);
        assert_eq!(a.cell_counts().iter().sum::<usize>(), 50);
    }

    #[test]
    fn cells_clamp_to_instance_count() {
        let data = grid(3, 4);
        let wide = CoarseIndex::build(&data, 4, 100);
        assert_eq!(wide.cell_count(), 3);
        let narrow = CoarseIndex::build(&data, 4, 0);
        assert_eq!(narrow.cell_count(), 1);
        let empty = CoarseIndex::build(&[], 4, 5);
        assert_eq!(empty.cell_count(), 0);
        assert!(empty.assignments().is_empty());
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
        for (i, &cell) in index.assignments().iter().enumerate() {
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
            if index.radii()[c] > 0.0 {
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
        assert!(index.radii().iter().all(|&r| r == 0.0));
        let concept = Concept::new(vec![5.0, 0.0, 0.0], vec![f64::INFINITY, 1.0, 1.0]);
        let bounds = index.query_bounds(&concept);
        // d_w(q, x) is infinite here; a zero-radius cell may bound it by
        // 0 (the guard) but must never go NaN.
        assert!(bounds.iter().all(|b| !b.is_nan()));
    }

    #[test]
    fn range_lower_bound_counts_cell_runs() {
        let index = CoarseIndex::from_persisted(
            2,
            vec![0.0; 6],
            vec![1.0, 1.0, 1.0],
            vec![0, 0, 1, 1, 0, 2, 2, 2],
        )
        .unwrap();
        let bounds = vec![5.0, 2.0, 9.0];
        let (lb, runs) = index.range_lower_bound(&bounds, 0, 8);
        assert_eq!(lb, 2.0);
        assert_eq!(runs, 4); // 0,0 | 1,1 | 0 | 2,2,2
        let (lb, runs) = index.range_lower_bound(&bounds, 5, 3);
        assert_eq!(lb, 9.0);
        assert_eq!(runs, 1);
        let (lb, runs) = index.range_lower_bound(&bounds, 3, 0);
        assert_eq!(lb, f64::INFINITY);
        assert_eq!(runs, 0);
    }

    #[test]
    fn from_persisted_validates_invariants() {
        let ok = CoarseIndex::from_persisted(2, vec![0.0; 4], vec![1.0, 2.0], vec![0, 1, 1]);
        assert!(ok.is_ok());
        assert!(CoarseIndex::from_persisted(0, vec![], vec![], vec![]).is_err());
        assert!(CoarseIndex::from_persisted(2, vec![0.0; 3], vec![1.0], vec![]).is_err());
        assert!(CoarseIndex::from_persisted(2, vec![0.0; 4], vec![1.0], vec![]).is_err());
        assert!(CoarseIndex::from_persisted(2, vec![0.0; 4], vec![1.0, f64::NAN], vec![]).is_err());
        assert!(CoarseIndex::from_persisted(2, vec![0.0; 4], vec![1.0, -0.5], vec![]).is_err());
        assert!(CoarseIndex::from_persisted(2, vec![0.0; 4], vec![1.0, 2.0], vec![2]).is_err());
        assert!(CoarseIndex::from_persisted(2, vec![], vec![], vec![0]).is_err());
    }

    #[test]
    fn round_trip_through_persisted_parts() {
        let data = grid(40, 4);
        let built = CoarseIndex::build(&data, 4, 6);
        let reloaded = CoarseIndex::from_persisted(
            4,
            built.centroids().to_vec(),
            built.radii().to_vec(),
            built.assignments().to_vec(),
        )
        .unwrap();
        assert_eq!(built, reloaded);
    }
}
