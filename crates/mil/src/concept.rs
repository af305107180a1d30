//! The learned concept: an "ideal" feature point plus per-dimension
//! weights.
//!
//! After training, the retrieval system "ranks all images based on their
//! weighted Euclidean distances to the ideal point. (To find the distance
//! from an image to the ideal point, it computes the distances of all of
//! its instances to the point, and then picks the smallest one.)" (§3.5).

use crate::bag::Bag;
use crate::kernel;
use crate::mirror::Mirror;

/// A trained Diverse Density concept.
///
/// # Examples
/// ```
/// use milr_mil::{Bag, Concept};
///
/// let concept = Concept::new(vec![0.0, 0.0], vec![1.0, 1.0]);
/// let bag = Bag::new(vec![vec![3.0, 0.0], vec![0.5, 0.0]]).unwrap();
/// // Bag distance is the minimum over instances (§3.5): 0.5² = 0.25.
/// assert!((concept.bag_distance_sq(&bag) - 0.25).abs() < 1e-9);
/// assert_eq!(concept.best_instance(&bag), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Concept {
    point: Vec<f64>,
    weights: Vec<f64>,
}

impl Concept {
    /// Creates a concept from an ideal point and effective (non-negative)
    /// weights.
    ///
    /// # Panics
    /// Panics if the lengths differ, the point is empty, or any weight is
    /// negative.
    pub fn new(point: Vec<f64>, weights: Vec<f64>) -> Self {
        assert_eq!(
            point.len(),
            weights.len(),
            "point and weights must share a dimension"
        );
        assert!(!point.is_empty(), "a concept needs at least one dimension");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        Self { point, weights }
    }

    /// The ideal feature point `t`.
    pub fn point(&self) -> &[f64] {
        &self.point
    }

    /// The per-dimension weights `w` (effective values, already squared
    /// for the `s²` parameterization).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.point.len()
    }

    /// Weighted squared distance from the ideal point to one instance,
    /// computed by the canonical [`kernel::weighted_distance_sq`]
    /// 4-lane unrolled kernel. Every ranking path in the workspace —
    /// pruned, flat, sharded, quantized-screened — bottoms out in the
    /// same kernel, so "bit-identical ranking" holds by construction.
    ///
    /// # Panics
    /// Panics if the instance dimension differs from the concept's.
    pub fn instance_distance_sq(&self, instance: &[f32]) -> f64 {
        assert_eq!(instance.len(), self.dim(), "instance has wrong dimension");
        kernel::weighted_distance_sq(&self.point, &self.weights, instance)
    }

    /// Partial-distance pruned variant: returns `Some(d)` iff the full
    /// weighted distance is strictly below `bound`, abandoning the
    /// instance as soon as the running sum reaches the bound.
    ///
    /// Every term `w·d²` is non-negative, so each accumulator lane of
    /// the kernel is monotonically non-decreasing: a combined partial
    /// sum at or past the bound already proves the final sum is too, and
    /// abandoning can never change which instances beat the bound. The
    /// lanes accumulate in exactly the same order as
    /// [`Self::instance_distance_sq`], so a returned distance is
    /// **bit-identical** to the unpruned value.
    ///
    /// # Panics
    /// Panics if the instance dimension differs from the concept's.
    pub fn instance_distance_sq_below(&self, instance: &[f32], bound: f64) -> Option<f64> {
        assert_eq!(instance.len(), self.dim(), "instance has wrong dimension");
        kernel::weighted_distance_sq_below(&self.point, &self.weights, instance, bound)
    }

    /// [`Self::instance_distance_sq`] of the mirror twin `P·instance`,
    /// read through `mirror`'s index table — bit-identical to the
    /// distance of the materialised twin.
    ///
    /// # Panics
    /// Panics if the instance or mirror dimension differs from the
    /// concept's.
    pub(crate) fn mirrored_distance_sq(&self, instance: &[f32], mirror: &Mirror) -> f64 {
        kernel::mirrored_distance_sq(&self.point, &self.weights, instance, mirror)
    }

    /// [`Self::instance_distance_sq_below`] of the mirror twin
    /// `P·instance` (see [`Self::mirrored_distance_sq`]).
    ///
    /// # Panics
    /// Panics if the instance or mirror dimension differs from the
    /// concept's.
    pub(crate) fn mirrored_distance_sq_below(
        &self,
        instance: &[f32],
        mirror: &Mirror,
        bound: f64,
    ) -> Option<f64> {
        kernel::mirrored_distance_sq_below(&self.point, &self.weights, instance, mirror, bound)
    }

    /// Distance from a bag to the ideal point: the minimum over its
    /// instances (§3.5). Lower means more similar — this is the ranking
    /// key for retrieval.
    ///
    /// Internally pruned: each instance is abandoned once its running
    /// sum reaches the best distance seen so far in the bag. The result
    /// is bit-identical to the naive fold over
    /// [`Self::instance_distance_sq`] (see
    /// [`Self::instance_distance_sq_below`] for the invariant).
    pub fn bag_distance_sq(&self, bag: &Bag) -> f64 {
        let mut best = f64::INFINITY;
        for inst in bag.instances() {
            if let Some(d) = self.instance_distance_sq_below(inst, best) {
                best = d;
            }
        }
        best
    }

    /// Index of the bag instance closest to the ideal point — i.e. which
    /// image region the concept matched.
    pub fn best_instance(&self, bag: &Bag) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (j, inst) in bag.instances().enumerate() {
            if let Some(d) = self.instance_distance_sq_below(inst, best_d) {
                best_d = d;
                best = j;
            }
        }
        best
    }

    /// Noisy-or probability that the bag is positive:
    /// `1 − Π_j (1 − exp(−d_j))`.
    pub(crate) fn bag_probability(&self, bag: &Bag) -> f64 {
        let mut prod = 1.0f64;
        for inst in bag.instances() {
            prod *= 1.0 - (-self.instance_distance_sq(inst)).exp();
        }
        1.0 - prod
    }

    /// Fraction of the total weight mass carried by the largest
    /// `count` weights — the sparsity diagnostic behind Figs. 3-7/3-8/3-9.
    pub fn weight_concentration(&self, count: usize) -> f64 {
        let total: f64 = self.weights.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mut sorted = self.weights.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("weights are finite"));
        sorted.iter().take(count).sum::<f64>() / total
    }

    /// Mean weight value.
    pub fn mean_weight(&self) -> f64 {
        self.weights.iter().sum::<f64>() / self.weights.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::Bag;

    fn bag(v: &[&[f32]]) -> Bag {
        Bag::new(v.iter().map(|s| s.to_vec()).collect()).unwrap()
    }

    #[test]
    fn instance_distance_uses_weights() {
        let c = Concept::new(vec![0.0, 0.0], vec![1.0, 4.0]);
        // d² = 1·1 + 4·1 = 5.
        assert!((c.instance_distance_sq(&[1.0, 1.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bag_distance_is_minimum_over_instances() {
        let c = Concept::new(vec![0.0], vec![1.0]);
        let b = bag(&[&[5.0], &[2.0], &[-1.0]]);
        assert!((c.bag_distance_sq(&b) - 1.0).abs() < 1e-9);
        assert_eq!(c.best_instance(&b), 2);
    }

    #[test]
    fn bag_probability_bounds() {
        let c = Concept::new(vec![0.0], vec![1.0]);
        let near = bag(&[&[0.01], &[10.0]]);
        let far = bag(&[&[10.0], &[12.0]]);
        let p_near = c.bag_probability(&near);
        let p_far = c.bag_probability(&far);
        assert!(p_near > 0.99, "p_near = {p_near}");
        assert!(p_far < 0.01, "p_far = {p_far}");
        assert!((0.0..=1.0).contains(&p_near));
        assert!((0.0..=1.0).contains(&p_far));
    }

    #[test]
    fn probability_increases_with_more_close_instances() {
        let c = Concept::new(vec![0.0], vec![1.0]);
        let one = bag(&[&[1.0]]);
        let two = bag(&[&[1.0], &[1.0]]);
        assert!(c.bag_probability(&two) > c.bag_probability(&one));
    }

    #[test]
    fn weight_concentration_detects_sparsity() {
        // One dominant weight out of four: top-1 mass ≈ 0.97.
        let sparse = Concept::new(vec![0.0; 4], vec![1.0, 0.01, 0.01, 0.01]);
        assert!(sparse.weight_concentration(1) > 0.9);
        let uniform = Concept::new(vec![0.0; 4], vec![1.0; 4]);
        assert!((uniform.weight_concentration(1) - 0.25).abs() < 1e-9);
        assert!((uniform.weight_concentration(4) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_weight() {
        let c = Concept::new(vec![0.0; 3], vec![0.2, 0.4, 0.9]);
        assert!((c.mean_weight() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn mismatched_lengths_rejected() {
        let _ = Concept::new(vec![0.0, 1.0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let _ = Concept::new(vec![0.0], vec![-1.0]);
    }

    #[test]
    fn zero_weight_dimension_is_ignored_in_distance() {
        let c = Concept::new(vec![0.0, 0.0], vec![1.0, 0.0]);
        assert!((c.instance_distance_sq(&[0.0, 100.0]) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn pruned_distance_matches_naive_bit_for_bit() {
        // 19 dimensions: crosses two 8-wide prune strides plus a tail.
        let k = 19;
        let point: Vec<f64> = (0..k).map(|i| (i as f64 * 0.37).sin()).collect();
        let weights: Vec<f64> = (0..k).map(|i| 0.1 + (i % 5) as f64 * 0.3).collect();
        let c = Concept::new(point, weights);
        let inst: Vec<f32> = (0..k).map(|i| (i as f32 * 0.71).cos()).collect();
        let naive = c.instance_distance_sq(&inst);
        // Below a loose bound: the exact value, bit-identical.
        assert_eq!(
            c.instance_distance_sq_below(&inst, naive + 1.0),
            Some(naive)
        );
        // At or above the bound: abandoned.
        assert_eq!(c.instance_distance_sq_below(&inst, naive), None);
        assert_eq!(c.instance_distance_sq_below(&inst, naive * 0.5), None);
    }

    #[test]
    fn pruned_bag_distance_equals_naive_fold() {
        let k = 11;
        let c = Concept::new((0..k).map(|i| i as f64 * 0.1).collect(), vec![1.0; k]);
        let instances: Vec<Vec<f32>> = (0..6)
            .map(|n| {
                (0..k)
                    .map(|i| ((n * 17 + i * 3) % 13) as f32 / 3.0)
                    .collect()
            })
            .collect();
        let b = Bag::new(instances).unwrap();
        let naive = b
            .instances()
            .map(|inst| c.instance_distance_sq(inst))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(c.bag_distance_sq(&b), naive);
    }

    #[test]
    fn bounded_bag_distance_respects_the_bound() {
        let c = Concept::new(vec![0.0], vec![1.0]);
        let mut flat = crate::flat::FlatBags::new(1);
        flat.push_bag(&bag(&[&[5.0], &[2.0], &[-1.0]])); // min distance 1.0
        assert_eq!(flat.min_distance_sq_below(&c, 0, 2.0), Some(1.0));
        assert_eq!(flat.min_distance_sq_below(&c, 0, 1.0), None);
        assert_eq!(flat.min_distance_sq_below(&c, 0, 0.5), None);
    }
}
