//! Gray-level histograms.
//!
//! The paper's introduction motivates example-based MIL retrieval
//! against global-feature systems like IBM's QBIC, where "users can
//! query an image database by average color, histogram, texture" — but
//! such "image queries along these lines are not powerful enough".
//! This module provides the histogram machinery for the QBIC-style
//! comparison baseline (`milr-baseline::histogram`).

use crate::gray::GrayImage;

/// A fixed-bin histogram over the `[0, 255]` intensity range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bins: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// Computes a `bins`-bin histogram of an image. Intensities are
    /// clamped into `[0, 255]`.
    ///
    /// # Panics
    /// Panics if `bins == 0`.
    pub fn of(image: &GrayImage, bins: usize) -> Self {
        assert!(bins > 0, "a histogram needs at least one bin");
        let mut counts = vec![0.0f64; bins];
        let scale = bins as f32 / 256.0;
        for &v in image.pixels() {
            let idx = ((v.clamp(0.0, 255.0) * scale) as usize).min(bins - 1);
            counts[idx] += 1.0;
        }
        let total = image.len() as f64;
        Self {
            bins: counts,
            total,
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether the histogram has no bins (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Raw count of one bin.
    ///
    /// # Panics
    /// Panics on an out-of-range bin index.
    pub fn count(&self, bin: usize) -> f64 {
        self.bins[bin]
    }

    /// The normalised (unit-mass) bin values.
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0.0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&c| c / self.total).collect()
    }

    /// Histogram intersection similarity in `[0, 1]`: `Σ min(pᵢ, qᵢ)`
    /// over normalised bins — the classic QBIC-era similarity.
    ///
    /// # Panics
    /// Panics if the bin counts differ.
    pub fn intersection(&self, other: &Histogram) -> f64 {
        assert_eq!(self.len(), other.len(), "histograms must share a bin count");
        self.normalized()
            .iter()
            .zip(other.normalized())
            .map(|(&p, q)| p.min(q))
            .sum()
    }

    /// Element-wise mean of several histograms (the "average positive
    /// example" the QBIC baseline queries with).
    ///
    /// # Panics
    /// Panics if the slice is empty or bin counts differ.
    pub fn mean_of(histograms: &[Histogram]) -> Histogram {
        assert!(!histograms.is_empty(), "cannot average zero histograms");
        let bins = histograms[0].len();
        let mut acc = vec![0.0f64; bins];
        let mut total = 0.0f64;
        for h in histograms {
            assert_eq!(h.len(), bins, "histograms must share a bin count");
            for (a, &b) in acc.iter_mut().zip(&h.bins) {
                *a += b;
            }
            total += h.total;
        }
        let n = histograms.len() as f64;
        for a in &mut acc {
            *a /= n;
        }
        Histogram {
            bins: acc,
            total: total / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_sum_to_pixel_count() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * y) % 256) as f32).unwrap();
        let h = Histogram::of(&img, 32);
        let sum: f64 = (0..32).map(|b| h.count(b)).sum();
        assert_eq!(sum, 256.0);
    }

    #[test]
    fn constant_image_fills_one_bin() {
        let img = GrayImage::filled(8, 8, 128.0).unwrap();
        let h = Histogram::of(&img, 16);
        assert_eq!(h.count(8), 64.0); // 128/256 * 16 = bin 8
        assert_eq!(h.normalized()[8], 1.0);
    }

    #[test]
    fn out_of_range_values_clamp_into_edge_bins() {
        let img = GrayImage::from_vec(2, 1, vec![-50.0, 400.0]).unwrap();
        let h = Histogram::of(&img, 4);
        assert_eq!(h.count(0), 1.0);
        assert_eq!(h.count(3), 1.0);
    }

    #[test]
    fn intersection_is_one_for_identical_and_less_otherwise() {
        let a = GrayImage::from_fn(12, 12, |x, _| (x * 20) as f32).unwrap();
        let b = GrayImage::from_fn(12, 12, |x, _| (x * 20 + 40) as f32).unwrap();
        let ha = Histogram::of(&a, 16);
        let hb = Histogram::of(&b, 16);
        assert!((ha.intersection(&ha) - 1.0).abs() < 1e-12);
        let cross = ha.intersection(&hb);
        assert!(cross < 1.0);
        assert!(cross > 0.0);
        // Symmetry.
        assert!((cross - hb.intersection(&ha)).abs() < 1e-12);
    }

    #[test]
    fn mean_of_averages_bins() {
        let a = Histogram::of(&GrayImage::filled(4, 4, 0.0).unwrap(), 4);
        let b = Histogram::of(&GrayImage::filled(4, 4, 255.0).unwrap(), 4);
        let m = Histogram::mean_of(&[a, b]);
        assert_eq!(m.count(0), 8.0);
        assert_eq!(m.count(3), 8.0);
        let n = m.normalized();
        assert!((n[0] - 0.5).abs() < 1e-12);
        assert!((n[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "share a bin count")]
    fn mismatched_bins_rejected() {
        let img = GrayImage::filled(2, 2, 0.0).unwrap();
        let _ = Histogram::of(&img, 4).intersection(&Histogram::of(&img, 8));
    }
}
