//! Summed-area tables (integral images).
//!
//! The smoothing-and-sampling operator of §3.1.2 averages many
//! overlapping blocks per region; with 40 sub-pictures per image and 100
//! blocks per sub-picture a naive implementation touches every pixel
//! thousands of times. An integral image reduces any block sum to four
//! table lookups, making database preprocessing linear in the number of
//! pixels. A squared variant supports O(1) block variance, used by the
//! low-variance region filter (§3.2).

use crate::gray::GrayImage;
use crate::region::Rect;

/// Summed-area table over a gray image, with a parallel table of squared
/// values for O(1) variance queries.
///
/// Sums are accumulated in `f64`: an 8-bit 4096×4096 image sums to ~4.3e9,
/// beyond exact `f32` integer range, and squared sums grow much faster.
///
/// # Examples
/// ```
/// use milr_imgproc::{GrayImage, IntegralImage};
///
/// let image = GrayImage::from_fn(8, 8, |x, y| (x + y) as f32).unwrap();
/// let integral = IntegralImage::new(&image);
/// // Mean over the 2x2 block at (3, 3): values 6, 7, 7, 8.
/// assert!((integral.block_mean(3, 3, 5, 5) - 7.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct IntegralImage {
    width: usize,
    height: usize,
    /// `(width+1) × (height+1)` table; entry `(x, y)` holds the sum over
    /// pixels `[0, x) × [0, y)`.
    sum: Vec<f64>,
    /// Same layout for squared pixel values.
    sum_sq: Vec<f64>,
}

impl IntegralImage {
    /// Builds both tables in a single pass over the image.
    pub fn new(image: &GrayImage) -> Self {
        let width = image.width();
        let height = image.height();
        let stride = width + 1;
        let mut sum = vec![0.0f64; stride * (height + 1)];
        let mut sum_sq = vec![0.0f64; stride * (height + 1)];
        for y in 0..height {
            let row = image.row(y);
            let mut run = 0.0f64;
            let mut run_sq = 0.0f64;
            let above = y * stride;
            let here = (y + 1) * stride;
            for (x, &v) in row.iter().enumerate() {
                let v = f64::from(v);
                run += v;
                run_sq += v * v;
                sum[here + x + 1] = sum[above + x + 1] + run;
                sum_sq[here + x + 1] = sum_sq[above + x + 1] + run_sq;
            }
        }
        Self {
            width,
            height,
            sum,
            sum_sq,
        }
    }

    /// Width of the source image.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the source image.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sum of pixels in the half-open block `[x0, x1) × [y0, y1)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the block is inverted or exceeds the
    /// image bounds.
    #[inline]
    pub(crate) fn block_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        debug_assert!(x0 <= x1 && y0 <= y1 && x1 <= self.width && y1 <= self.height);
        let s = self.width + 1;
        self.sum[y1 * s + x1] - self.sum[y0 * s + x1] - self.sum[y1 * s + x0]
            + self.sum[y0 * s + x0]
    }

    /// Sum of squared pixels in the half-open block `[x0, x1) × [y0, y1)`.
    #[inline]
    pub(crate) fn block_sum_sq(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        debug_assert!(x0 <= x1 && y0 <= y1 && x1 <= self.width && y1 <= self.height);
        let s = self.width + 1;
        self.sum_sq[y1 * s + x1] - self.sum_sq[y0 * s + x1] - self.sum_sq[y1 * s + x0]
            + self.sum_sq[y0 * s + x0]
    }

    /// Mean intensity over a half-open block. Empty blocks yield 0.
    #[inline]
    pub fn block_mean(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        let n = (x1 - x0) * (y1 - y0);
        if n == 0 {
            return 0.0;
        }
        self.block_sum(x0, y0, x1, y1) / n as f64
    }

    /// Population variance over a half-open block. Empty blocks yield 0.
    /// Tiny negative values from floating-point cancellation are clamped
    /// to zero.
    pub(crate) fn block_variance(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        let n = (x1 - x0) * (y1 - y0);
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        let mean = self.block_sum(x0, y0, x1, y1) / n;
        let var = self.block_sum_sq(x0, y0, x1, y1) / n - mean * mean;
        var.max(0.0)
    }

    /// Variance over a [`Rect`] (convenience wrapper).
    pub fn rect_variance(&self, rect: Rect) -> f64 {
        self.block_variance(rect.x, rect.y, rect.right(), rect.bottom())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| (y * w + x) as f32).unwrap()
    }

    fn naive_sum(img: &GrayImage, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        let mut acc = 0.0;
        for y in y0..y1 {
            for x in x0..x1 {
                acc += f64::from(img.get(x, y));
            }
        }
        acc
    }

    #[test]
    fn whole_image_sum_matches_naive() {
        let img = ramp(7, 5);
        let ii = IntegralImage::new(&img);
        assert!((ii.block_sum(0, 0, 7, 5) - naive_sum(&img, 0, 0, 7, 5)).abs() < 1e-9);
    }

    #[test]
    fn interior_blocks_match_naive() {
        let img = ramp(9, 6);
        let ii = IntegralImage::new(&img);
        for (x0, y0, x1, y1) in [(0, 0, 3, 3), (2, 1, 7, 5), (4, 4, 9, 6), (1, 0, 2, 1)] {
            let got = ii.block_sum(x0, y0, x1, y1);
            let want = naive_sum(&img, x0, y0, x1, y1);
            assert!((got - want).abs() < 1e-9, "block {x0},{y0}..{x1},{y1}");
        }
    }

    #[test]
    fn empty_block_sums_to_zero() {
        let img = ramp(4, 4);
        let ii = IntegralImage::new(&img);
        assert_eq!(ii.block_sum(2, 2, 2, 2), 0.0);
        assert_eq!(ii.block_mean(2, 2, 2, 2), 0.0);
        assert_eq!(ii.block_variance(2, 2, 2, 2), 0.0);
    }

    #[test]
    fn block_mean_matches_image_mean() {
        let img = ramp(8, 8);
        let ii = IntegralImage::new(&img);
        assert!((ii.block_mean(0, 0, 8, 8) - f64::from(img.mean())).abs() < 1e-5);
    }

    #[test]
    fn block_variance_matches_image_variance() {
        let img = ramp(6, 6);
        let ii = IntegralImage::new(&img);
        assert!((ii.block_variance(0, 0, 6, 6) - f64::from(img.variance())).abs() < 1e-3);
    }

    #[test]
    fn constant_block_has_zero_variance() {
        let img = GrayImage::filled(5, 5, 9.0).unwrap();
        let ii = IntegralImage::new(&img);
        assert_eq!(ii.block_variance(1, 1, 4, 4), 0.0);
    }

    #[test]
    fn rect_helpers_agree_with_block_queries() {
        let img = ramp(10, 10);
        let ii = IntegralImage::new(&img);
        let r = Rect::new(2, 3, 5, 4);
        assert_eq!(ii.rect_variance(r), ii.block_variance(2, 3, 7, 7));
    }

    #[test]
    fn negative_intensities_supported() {
        let img = GrayImage::from_vec(2, 2, vec![-1.0, -2.0, 3.0, 4.0]).unwrap();
        let ii = IntegralImage::new(&img);
        assert!((ii.block_sum(0, 0, 2, 2) - 4.0).abs() < 1e-9);
        assert!((ii.block_sum(0, 0, 2, 1) - (-3.0)).abs() < 1e-9);
    }
}
