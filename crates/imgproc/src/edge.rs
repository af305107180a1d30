//! Sobel edge detection.
//!
//! The paper's §5 reports: "We have attempted to preprocess the images
//! with edge detection, and to use line and corner features in the
//! feature vectors. However, the results we have got are not
//! satisfactory." This module implements that preprocessing so the
//! negative result can be reproduced (the `ext-edges` experiment): the
//! retrieval pipeline can run on Sobel gradient-magnitude images instead
//! of raw intensities.

use crate::convolve::convolve_separable;
use crate::gray::GrayImage;

/// Horizontal and vertical Sobel gradients `(g_x, g_y)`.
///
/// Sobel separates as smoothing `[1, 2, 1]` across the derivative
/// direction and differencing `[-1, 0, 1]` along it.
pub(crate) fn sobel_gradients(image: &GrayImage) -> (GrayImage, GrayImage) {
    let gx = convolve_separable(image, &[-1.0, 0.0, 1.0], &[1.0, 2.0, 1.0]);
    let gy = convolve_separable(image, &[1.0, 2.0, 1.0], &[-1.0, 0.0, 1.0]);
    (gx, gy)
}

/// Sobel gradient magnitude `sqrt(g_x² + g_y²)`.
pub fn sobel_magnitude(image: &GrayImage) -> GrayImage {
    let (gx, gy) = sobel_gradients(image);
    let mut out = Vec::with_capacity(image.len());
    for (&x, &y) in gx.pixels().iter().zip(gy.pixels()) {
        out.push((x * x + y * y).sqrt());
    }
    GrayImage::from_vec(image.width(), image.height(), out)
        .expect("gradient magnitude preserves dimensions")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertical_step(w: usize, h: usize, at: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, _| if x < at { 0.0 } else { 100.0 }).unwrap()
    }

    #[test]
    fn vertical_edge_has_horizontal_gradient() {
        let img = vertical_step(12, 8, 6);
        let (gx, gy) = sobel_gradients(&img);
        // At the edge column the horizontal gradient is strong ...
        assert!(gx.get(5, 4).abs() > 100.0, "gx = {}", gx.get(5, 4));
        // ... and the vertical gradient vanishes everywhere.
        assert!(gy.pixels().iter().all(|&v| v.abs() < 1e-4));
        // Away from the edge gx vanishes too.
        assert!(gx.get(1, 4).abs() < 1e-4);
        assert!(gx.get(10, 4).abs() < 1e-4);
    }

    #[test]
    fn horizontal_edge_has_vertical_gradient() {
        let img = GrayImage::from_fn(8, 12, |_, y| if y < 6 { 0.0 } else { 50.0 }).unwrap();
        let (gx, gy) = sobel_gradients(&img);
        assert!(gx.pixels().iter().all(|&v| v.abs() < 1e-4));
        assert!(gy.get(4, 5).abs() > 50.0);
    }

    #[test]
    fn magnitude_is_rotation_symmetric_for_steps() {
        let v = vertical_step(16, 16, 8);
        let himg = GrayImage::from_fn(16, 16, |_, y| if y < 8 { 0.0 } else { 100.0 }).unwrap();
        let mv = sobel_magnitude(&v);
        let mh = sobel_magnitude(&himg);
        // Peak magnitudes at the respective edges must match.
        let peak_v = mv.pixels().iter().cloned().fold(0.0f32, f32::max);
        let peak_h = mh.pixels().iter().cloned().fold(0.0f32, f32::max);
        assert!((peak_v - peak_h).abs() < 1e-3);
    }

    #[test]
    fn flat_image_has_zero_magnitude() {
        let img = GrayImage::filled(10, 10, 77.0).unwrap();
        let m = sobel_magnitude(&img);
        assert!(m.pixels().iter().all(|&v| v.abs() < 1e-4));
    }

    #[test]
    fn magnitude_is_nonnegative() {
        let img = GrayImage::from_fn(20, 20, |x, y| ((x * 31 + y * 17) % 97) as f32).unwrap();
        assert!(sobel_magnitude(&img).pixels().iter().all(|&v| v >= 0.0));
    }
}
