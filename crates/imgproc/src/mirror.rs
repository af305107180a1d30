//! Left-right mirroring (§3.2).
//!
//! "Left-right mirror images occur very frequently in image databases and
//! we would like to regard them as the same" — so every region contributes
//! both its sampled matrix and that matrix's horizontal flip as instances.
//!
//! Mirroring is applied *after* smoothing-and-sampling: flipping the
//! `h × h` sample of a region equals sampling the mirrored region exactly
//! whenever block boundaries land symmetrically (they do up to one pixel
//! of rounding), and it avoids re-walking the source pixels.

use crate::gray::GrayImage;
use crate::rgb::RgbImage;

/// Returns the left-right mirror of a gray image.
pub fn mirror_horizontal(image: &GrayImage) -> GrayImage {
    let (w, h) = (image.width(), image.height());
    GrayImage::from_fn(w, h, |x, y| image.get(w - 1 - x, y))
        .expect("mirror preserves valid dimensions")
}

/// Returns the left-right mirror of an RGB image (pixel order reversed
/// per row; channel order within each pixel preserved).
pub fn mirror_horizontal_rgb(image: &RgbImage) -> RgbImage {
    let (w, h) = (image.width(), image.height());
    RgbImage::from_fn(w, h, |x, y| image.get(w - 1 - x, y))
        .expect("mirror preserves valid dimensions")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| (y * w + x) as f32).unwrap()
    }

    #[test]
    fn horizontal_mirror_reverses_rows() {
        let img = ramp(3, 2);
        let m = mirror_horizontal(&img);
        assert_eq!(m.row(0), &[2.0, 1.0, 0.0]);
        assert_eq!(m.row(1), &[5.0, 4.0, 3.0]);
    }

    #[test]
    fn mirror_is_involutive() {
        let img = ramp(5, 4);
        assert_eq!(mirror_horizontal(&mirror_horizontal(&img)), img);
    }

    #[test]
    fn mirror_preserves_statistics() {
        let img = ramp(6, 6);
        let m = mirror_horizontal(&img);
        assert!((img.mean() - m.mean()).abs() < 1e-6);
        assert!((img.variance() - m.variance()).abs() < 1e-4);
    }

    #[test]
    fn rgb_mirror_preserves_channel_order() {
        let img = RgbImage::from_fn(2, 1, |x, _| [x as f32, 10.0, 20.0]).unwrap();
        let m = mirror_horizontal_rgb(&img);
        assert_eq!(m.get(0, 0), [1.0, 10.0, 20.0]);
        assert_eq!(m.get(1, 0), [0.0, 10.0, 20.0]);
    }

    #[test]
    fn symmetric_image_is_mirror_invariant() {
        let img = GrayImage::from_fn(8, 4, |x, _| {
            let c = (x as f32) - 3.5;
            c * c
        })
        .unwrap();
        let m = mirror_horizontal(&img);
        for (a, b) in img.pixels().iter().zip(m.pixels()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
