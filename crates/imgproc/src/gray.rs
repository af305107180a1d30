//! Gray-scale raster images.
//!
//! The paper works entirely on gray-scale data (§3.1.2: "All color images
//! are converted into gray-scale images first"). [`GrayImage`] stores one
//! `f32` intensity per pixel in row-major order; the nominal intensity
//! range is `[0, 255]` but nothing in the pipeline depends on it — the
//! correlation similarity measure is invariant to affine intensity
//! changes.

use crate::error::ImageError;
use crate::region::Rect;

/// A row-major gray-scale image with `f32` intensities.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates an image filled with a constant intensity.
    ///
    /// # Errors
    /// Returns [`ImageError::InvalidDimensions`] if either dimension is
    /// zero or the total pixel count overflows `usize`.
    pub fn filled(width: usize, height: usize, value: f32) -> Result<Self, ImageError> {
        let len = checked_len(width, height, 1)?;
        Ok(Self {
            width,
            height,
            data: vec![value; len],
        })
    }

    /// Creates an all-black (zero) image.
    ///
    /// # Errors
    /// Same conditions as [`GrayImage::filled`].
    pub fn zeros(width: usize, height: usize) -> Result<Self, ImageError> {
        Self::filled(width, height, 0.0)
    }

    /// Wraps an existing row-major pixel buffer.
    ///
    /// # Errors
    /// Returns [`ImageError::BufferSizeMismatch`] if `data.len()` is not
    /// `width * height`, or [`ImageError::InvalidDimensions`] for empty
    /// dimensions.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Result<Self, ImageError> {
        let len = checked_len(width, height, 1)?;
        if data.len() != len {
            return Err(ImageError::BufferSizeMismatch {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Builds an image by evaluating `f(x, y)` at every pixel.
    ///
    /// # Errors
    /// Same conditions as [`GrayImage::filled`].
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> f32,
    ) -> Result<Self, ImageError> {
        let len = checked_len(width, height, 1)?;
        let mut data = Vec::with_capacity(len);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: images are constructed with non-zero dimensions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Intensity at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Sets the intensity at `(x, y)`.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.data[y * self.width + x] = value;
    }

    /// The raw row-major pixel buffer.
    #[inline]
    pub fn pixels(&self) -> &[f32] {
        &self.data
    }

    /// One row of pixels as a slice.
    ///
    /// # Panics
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[f32] {
        assert!(y < self.height, "row {y} out of bounds");
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mean intensity over the whole image.
    pub fn mean(&self) -> f32 {
        let sum: f64 = self.data.iter().map(|&v| f64::from(v)).sum();
        (sum / self.data.len() as f64) as f32
    }

    /// Population variance of intensities (divides by `n`, matching the
    /// paper's `1/n` convention in §3.1.1).
    pub fn variance(&self) -> f32 {
        let n = self.data.len() as f64;
        let mean = f64::from(self.mean());
        let ss: f64 = self
            .data
            .iter()
            .map(|&v| {
                let d = f64::from(v) - mean;
                d * d
            })
            .sum();
        (ss / n) as f32
    }

    /// Population standard deviation of intensities.
    pub fn std_dev(&self) -> f32 {
        self.variance().sqrt()
    }

    /// Minimum and maximum intensity.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Extracts a copy of the pixels inside `rect`.
    ///
    /// # Errors
    /// Returns [`ImageError::RegionOutOfBounds`] if the rectangle does not
    /// fit inside the image.
    pub fn crop(&self, rect: Rect) -> Result<GrayImage, ImageError> {
        if !rect.fits_within(self.width, self.height) {
            return Err(ImageError::RegionOutOfBounds {
                region: (rect.x, rect.y, rect.width, rect.height),
                width: self.width,
                height: self.height,
            });
        }
        let mut data = Vec::with_capacity(rect.width * rect.height);
        for y in rect.y..rect.y + rect.height {
            let start = y * self.width + rect.x;
            data.extend_from_slice(&self.data[start..start + rect.width]);
        }
        GrayImage::from_vec(rect.width, rect.height, data)
    }

    /// Clamps every pixel into `[lo, hi]` in place.
    pub fn clamp_in_place(&mut self, lo: f32, hi: f32) {
        for v in &mut self.data {
            *v = v.clamp(lo, hi);
        }
    }

    /// Rescales intensities affinely so the image spans `[lo, hi]`.
    /// A perfectly flat image maps to the midpoint of the target range.
    pub fn rescale_to(&mut self, lo: f32, hi: f32) {
        let (min, max) = self.min_max();
        let span = max - min;
        if span <= f32::EPSILON {
            let mid = (lo + hi) * 0.5;
            for v in &mut self.data {
                *v = mid;
            }
            return;
        }
        let scale = (hi - lo) / span;
        for v in &mut self.data {
            *v = lo + (*v - min) * scale;
        }
    }
}

pub(crate) fn checked_len(
    width: usize,
    height: usize,
    channels: usize,
) -> Result<usize, ImageError> {
    if width == 0 || height == 0 {
        return Err(ImageError::InvalidDimensions { width, height });
    }
    width
        .checked_mul(height)
        .and_then(|p| p.checked_mul(channels))
        .ok_or(ImageError::InvalidDimensions { width, height })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| (y * w + x) as f32).unwrap()
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(GrayImage::zeros(0, 5).is_err());
        assert!(GrayImage::zeros(5, 0).is_err());
    }

    #[test]
    fn buffer_size_checked() {
        assert!(GrayImage::from_vec(3, 3, vec![0.0; 8]).is_err());
        assert!(GrayImage::from_vec(3, 3, vec![0.0; 9]).is_ok());
    }

    #[test]
    fn get_set_round_trip() {
        let mut img = GrayImage::zeros(4, 3).unwrap();
        img.set(2, 1, 7.5);
        assert_eq!(img.get(2, 1), 7.5);
        assert_eq!(img.get(1, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let img = GrayImage::zeros(4, 3).unwrap();
        let _ = img.get(4, 0);
    }

    #[test]
    fn from_fn_is_row_major() {
        let img = ramp(3, 2);
        assert_eq!(img.pixels(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(img.get(2, 1), 5.0);
    }

    #[test]
    fn row_slices() {
        let img = ramp(3, 2);
        assert_eq!(img.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn mean_and_variance() {
        let img = GrayImage::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((img.mean() - 2.5).abs() < 1e-6);
        // population variance of {1,2,3,4} = 1.25
        assert!((img.variance() - 1.25).abs() < 1e-6);
        assert!((img.std_dev() - 1.25f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn flat_image_has_zero_variance() {
        let img = GrayImage::filled(7, 5, 42.0).unwrap();
        assert_eq!(img.variance(), 0.0);
    }

    #[test]
    fn min_max_tracks_extremes() {
        let img = GrayImage::from_vec(2, 2, vec![-3.0, 9.0, 0.5, 2.0]).unwrap();
        assert_eq!(img.min_max(), (-3.0, 9.0));
    }

    #[test]
    fn crop_extracts_expected_pixels() {
        let img = ramp(4, 4);
        let sub = img.crop(Rect::new(1, 2, 2, 2)).unwrap();
        assert_eq!(sub.pixels(), &[9.0, 10.0, 13.0, 14.0]);
    }

    #[test]
    fn crop_out_of_bounds_rejected() {
        let img = ramp(4, 4);
        assert!(img.crop(Rect::new(3, 3, 2, 2)).is_err());
    }

    #[test]
    fn rescale_spans_target_range() {
        let mut img = GrayImage::from_vec(2, 2, vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        img.rescale_to(0.0, 255.0);
        let (lo, hi) = img.min_max();
        assert!((lo - 0.0).abs() < 1e-4);
        assert!((hi - 255.0).abs() < 1e-3);
    }

    #[test]
    fn rescale_flat_image_maps_to_midpoint() {
        let mut img = GrayImage::filled(3, 3, 5.0).unwrap();
        img.rescale_to(0.0, 100.0);
        assert!(img.pixels().iter().all(|&v| (v - 50.0).abs() < 1e-6));
    }

    #[test]
    fn clamp_in_place_limits_values() {
        let mut img = GrayImage::from_vec(2, 2, vec![-5.0, 0.5, 300.0, 128.0]).unwrap();
        img.clamp_in_place(0.0, 255.0);
        assert_eq!(img.pixels(), &[0.0, 0.5, 255.0, 128.0]);
    }
}
