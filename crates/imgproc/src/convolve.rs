//! Spatial convolution.
//!
//! §3.1.2 describes the smoothing step as convolution with an
//! `(m/h × n/h)` averaging kernel followed by sub-sampling; the
//! production pipeline fuses both into integral-image block means
//! ([`crate::sample`]), but the general operator is provided here — it
//! backs the [`crate::edge`] detector (the paper's attempted edge
//! features, §5) and is independently useful to library users.
//!
//! Borders are handled by clamping (replicating edge pixels), which
//! preserves the mean level — important since the downstream features
//! are correlation-based.

use crate::error::ImageError;
use crate::gray::GrayImage;

/// A dense 2-D convolution kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    width: usize,
    height: usize,
    weights: Vec<f32>,
}

impl Kernel {
    /// Creates a kernel from row-major weights.
    ///
    /// # Errors
    /// Returns [`ImageError::BufferSizeMismatch`] /
    /// [`ImageError::InvalidDimensions`] for inconsistent inputs.
    /// Kernel sides must be odd so the anchor is the centre pixel.
    pub fn new(width: usize, height: usize, weights: Vec<f32>) -> Result<Self, ImageError> {
        if width == 0 || height == 0 || width.is_multiple_of(2) || height.is_multiple_of(2) {
            return Err(ImageError::InvalidDimensions { width, height });
        }
        if weights.len() != width * height {
            return Err(ImageError::BufferSizeMismatch {
                expected: width * height,
                actual: weights.len(),
            });
        }
        Ok(Self {
            width,
            height,
            weights,
        })
    }

    /// A separable Gaussian kernel with standard deviation `sigma`,
    /// truncated at `±3σ` and normalised to unit sum.
    ///
    /// # Panics
    /// Panics if `sigma` is not positive and finite.
    pub fn gaussian(sigma: f32) -> Self {
        assert!(
            sigma > 0.0 && sigma.is_finite(),
            "sigma must be positive, got {sigma}"
        );
        let radius = (3.0 * sigma).ceil() as usize;
        let n = 2 * radius + 1;
        let mut row = Vec::with_capacity(n);
        let denom = 2.0 * sigma * sigma;
        for i in 0..n {
            let d = i as f32 - radius as f32;
            row.push((-d * d / denom).exp());
        }
        let sum: f32 = row.iter().sum();
        for v in &mut row {
            *v /= sum;
        }
        let mut weights = Vec::with_capacity(n * n);
        for y in 0..n {
            for x in 0..n {
                weights.push(row[y] * row[x]);
            }
        }
        Self {
            width: n,
            height: n,
            weights,
        }
    }

    /// Kernel width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Kernel height.
    pub fn height(&self) -> usize {
        self.height
    }
}

/// Convolves an image with a kernel, clamping at the borders.
pub fn convolve(image: &GrayImage, kernel: &Kernel) -> GrayImage {
    let (w, h) = (image.width(), image.height());
    let rx = (kernel.width / 2) as isize;
    let ry = (kernel.height / 2) as isize;
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h as isize {
        for x in 0..w as isize {
            let mut acc = 0.0f32;
            let mut widx = 0usize;
            for ky in -ry..=ry {
                let sy = (y + ky).clamp(0, h as isize - 1) as usize;
                for kx in -rx..=rx {
                    let sx = (x + kx).clamp(0, w as isize - 1) as usize;
                    acc += kernel.weights[widx] * image.get(sx, sy);
                    widx += 1;
                }
            }
            out.push(acc);
        }
    }
    GrayImage::from_vec(w, h, out).expect("convolution preserves dimensions")
}

/// Convolves with a separable kernel given as a horizontal and a
/// vertical 1-D profile (two passes; O(n) per pixel per profile length).
///
/// # Panics
/// Panics if either profile has even length or is empty.
pub fn convolve_separable(image: &GrayImage, horizontal: &[f32], vertical: &[f32]) -> GrayImage {
    assert!(
        !horizontal.is_empty() && horizontal.len() % 2 == 1,
        "horizontal profile must have odd length"
    );
    assert!(
        !vertical.is_empty() && vertical.len() % 2 == 1,
        "vertical profile must have odd length"
    );
    let (w, h) = (image.width(), image.height());
    let rx = (horizontal.len() / 2) as isize;
    let ry = (vertical.len() / 2) as isize;

    // Horizontal pass.
    let mut tmp = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w as isize {
            let mut acc = 0.0f32;
            for (i, &k) in horizontal.iter().enumerate() {
                let sx = (x + i as isize - rx).clamp(0, w as isize - 1) as usize;
                acc += k * image.get(sx, y);
            }
            tmp[y * w + x as usize] = acc;
        }
    }
    // Vertical pass.
    let mut out = vec![0.0f32; w * h];
    for y in 0..h as isize {
        for x in 0..w {
            let mut acc = 0.0f32;
            for (i, &k) in vertical.iter().enumerate() {
                let sy = (y + i as isize - ry).clamp(0, h as isize - 1) as usize;
                acc += k * tmp[sy * w + x];
            }
            out[y as usize * w + x] = acc;
        }
    }
    GrayImage::from_vec(w, h, out).expect("convolution preserves dimensions")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| (x + 2 * y) as f32).unwrap()
    }

    /// The 3 × 3 box (averaging) kernel — the paper's smoothing filter.
    fn box3() -> Kernel {
        Kernel::new(3, 3, vec![1.0 / 9.0; 9]).unwrap()
    }

    #[test]
    fn kernel_validation() {
        assert!(Kernel::new(3, 3, vec![0.0; 9]).is_ok());
        assert!(Kernel::new(2, 3, vec![0.0; 6]).is_err()); // even side
        assert!(Kernel::new(3, 3, vec![0.0; 8]).is_err()); // wrong length
        assert!(Kernel::new(0, 1, vec![]).is_err());
    }

    #[test]
    fn identity_kernel_is_identity() {
        let k = Kernel::new(1, 1, vec![1.0]).unwrap();
        let img = ramp(7, 5);
        assert_eq!(convolve(&img, &k), img);
    }

    #[test]
    fn box_filter_preserves_constants() {
        let img = GrayImage::filled(8, 8, 42.0).unwrap();
        let out = convolve(&img, &box3());
        for &v in out.pixels() {
            assert!((v - 42.0).abs() < 1e-5);
        }
    }

    #[test]
    fn box_filter_averages_neighbourhood() {
        // Single bright pixel spreads into a 3x3 plateau of value/9.
        let mut img = GrayImage::zeros(7, 7).unwrap();
        img.set(3, 3, 9.0);
        let out = convolve(&img, &box3());
        assert!((out.get(3, 3) - 1.0).abs() < 1e-6);
        assert!((out.get(2, 3) - 1.0).abs() < 1e-6);
        assert!((out.get(1, 3) - 0.0).abs() < 1e-6);
    }

    #[test]
    fn border_clamping_preserves_flat_rows() {
        // A vertical gradient stays unchanged under a horizontal box blur
        // thanks to clamped borders.
        let img = GrayImage::from_fn(6, 6, |_, y| y as f32 * 10.0).unwrap();
        let out = convolve_separable(&img, &[1.0 / 3.0; 3], &[1.0]);
        for (a, b) in img.pixels().iter().zip(out.pixels()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn separable_matches_dense_for_box() {
        let img = ramp(9, 8);
        let dense = convolve(&img, &box3());
        let sep = convolve_separable(&img, &[1.0 / 3.0; 3], &[1.0 / 3.0; 3]);
        for (a, b) in dense.pixels().iter().zip(sep.pixels()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn gaussian_kernel_properties() {
        let k = Kernel::gaussian(1.0);
        assert_eq!(k.width(), 7); // radius 3
        assert!((k.weights.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Centre weight dominates.
        let centre = k.weights[k.weights.len() / 2];
        assert!(k.weights.iter().all(|&w| w <= centre + 1e-9));
    }

    #[test]
    fn gaussian_blur_reduces_variance() {
        let img = GrayImage::from_fn(32, 32, |x, y| ((x * 13 + y * 7) % 17) as f32).unwrap();
        let out = convolve(&img, &Kernel::gaussian(1.5));
        assert!(out.variance() < img.variance() * 0.5);
        // Mean preserved by unit-sum kernel + clamped borders.
        assert!((out.mean() - img.mean()).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn invalid_sigma_rejected() {
        let _ = Kernel::gaussian(0.0);
    }

    #[test]
    #[should_panic(expected = "odd length")]
    fn even_separable_profile_rejected() {
        let img = ramp(4, 4);
        let _ = convolve_separable(&img, &[0.5, 0.5], &[1.0]);
    }
}
