//! The row colour-statistics bag generator.
//!
//! The second of Maron & Lakshmi Ratan's bag generators: the image is
//! reduced to a stack of [`ROWS`] horizontal bands; an instance describes
//! one interior band by its mean RGB together with the mean RGB of the
//! bands directly above and below — 9 dimensions. Natural scenes with
//! strong horizontal layering (fields, lakes, sunsets) are exactly what
//! this representation captures.

use milr_imgproc::{IntegralImage, RgbImage};
use milr_mil::{Bag, MilError};

/// Number of horizontal bands the image is reduced to.
pub const ROWS: usize = 8;

/// Dimensions of one row instance: row RGB + above RGB + below RGB.
pub const ROW_DIM: usize = 9;

/// Mean RGB (scaled to `[0, 1]`) of each horizontal band.
fn band_means(image: &RgbImage) -> Vec<[f64; 3]> {
    let integrals: Vec<IntegralImage> = (0..3)
        .map(|c| IntegralImage::new(&image.channel(c)))
        .collect();
    let w = image.width();
    let h = image.height();
    (0..ROWS)
        .map(|band| {
            let y0 = band * h / ROWS;
            let y1 = ((band + 1) * h / ROWS).max(y0 + 1).min(h);
            let mut mean = [0.0f64; 3];
            for (c, integral) in integrals.iter().enumerate() {
                mean[c] = integral.block_mean(0, y0, w, y1) / 255.0;
            }
            mean
        })
        .collect()
}

/// Builds the row bag for a colour image: one instance per interior band
/// (`ROWS − 2` instances).
///
/// # Errors
/// Returns [`MilError`] only for degenerate images that produce no
/// instances; any image of at least `ROWS` pixels height succeeds.
pub(crate) fn row_bag(image: &RgbImage) -> Result<Bag, MilError> {
    let bands = band_means(image);
    let mut instances = Vec::with_capacity(ROWS - 2);
    for band in 1..ROWS - 1 {
        let mut v = Vec::with_capacity(ROW_DIM);
        for source in [&bands[band], &bands[band - 1], &bands[band + 1]] {
            v.extend(source.iter().map(|&value| value as f32));
        }
        instances.push(v);
    }
    Bag::new(instances)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_bag_shape() {
        let img = RgbImage::filled(32, 32, [99.0; 3]).unwrap();
        let bag = row_bag(&img).unwrap();
        assert_eq!(bag.len(), ROWS - 2);
        assert_eq!(bag.dim(), ROW_DIM);
    }

    #[test]
    fn flat_image_instances_repeat_the_colour() {
        let img = RgbImage::filled(24, 24, [51.0, 102.0, 204.0]).unwrap();
        let bag = row_bag(&img).unwrap();
        let expected = [51.0 / 255.0, 102.0 / 255.0, 204.0 / 255.0];
        for inst in bag.instances() {
            for trio in inst.chunks_exact(3) {
                for (a, b) in trio.iter().zip(&expected) {
                    assert!((f64::from(*a) - b).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn horizontal_bands_are_captured() {
        // Bright top half, dark bottom half: the band at the boundary has
        // a bright "above" and dark "below".
        let img =
            RgbImage::from_fn(32, 32, |_, y| if y < 16 { [220.0; 3] } else { [30.0; 3] }).unwrap();
        let bag = row_bag(&img).unwrap();
        // Band 3 (rows 12..16) is bright; band 4 (16..20) dark. Instance
        // for band 4 (index 3): self dark, above bright.
        let inst = bag.instance(3);
        assert!(inst[0] < 0.2, "self should be dark: {inst:?}");
        assert!(inst[3] > 0.8, "above should be bright: {inst:?}");
        assert!(inst[6] < 0.2, "below should be dark: {inst:?}");
    }

    #[test]
    fn instances_differ_across_a_gradient() {
        let img = RgbImage::from_fn(16, 64, |_, y| [y as f32 * 4.0; 3]).unwrap();
        let bag = row_bag(&img).unwrap();
        let first = bag.instance(0)[0];
        let last = bag.instance(ROWS - 3)[0];
        assert!(
            last > first + 0.3,
            "gradient must separate bands: {first} vs {last}"
        );
    }

    #[test]
    fn short_images_clamp_bands() {
        let img = RgbImage::from_fn(10, 8, |_, y| [(y * 30) as f32; 3]).unwrap();
        let bag = row_bag(&img).unwrap();
        assert_eq!(bag.len(), ROWS - 2);
    }
}
