//! The image → bag feature pipeline (§3.5 steps 1–5).
//!
//! For one gray image:
//!
//! 1. generate the configured sub-region family (§3.2);
//! 2. drop regions whose gray variance is below the threshold
//!    ("low-variance regions are not likely to be interesting");
//! 3. smooth-and-sample each surviving region to `h × h` (§3.1.2);
//! 4. mean/σ-normalise the `h²` vector (§3.4) — all weights 1 at this
//!    stage;
//! 5. add the left-right mirror of the sampled matrix as a second
//!    instance (§3.2).
//!
//! The mirror is taken *after* normalisation: mirroring permutes entries,
//! and mean/σ are permutation-invariant, so flipping the normalised
//! matrix equals normalising the flipped matrix exactly.
//!
//! Two §5 extensions are supported through the config:
//!
//! * [`Preprocessing::SobelMagnitude`] runs the pipeline on gradient
//!   magnitudes (the paper's unsatisfying edge-feature attempt);
//! * `rotation_angles` adds rotated resamplings of every region as extra
//!   instances (the proposed rotation handling, at the predicted cost of
//!   a much larger bag);
//!
//! and [`color_image_to_bag`] implements the §5 colour attempt: per-channel
//! features concatenated into `3h²`-dimensional instances.

use milr_imgproc::{
    edge::sobel_magnitude,
    normalize::{NormalizeError, NormalizedVector},
    resize::rotate,
    sample::{smooth_sample, smooth_sample_rect},
    GrayImage, IntegralImage, Rect, RgbImage,
};
use milr_mil::{Bag, Mirror};

use crate::config::{Preprocessing, RetrievalConfig};
use crate::error::CoreError;

/// Converts one gray image into a bag of normalised region features.
///
/// If every region is filtered out (or too small to sample), the whole
/// image is used as a single fallback region; only a completely flat
/// image fails.
///
/// # Errors
/// * [`CoreError::BlankImage`] when not even the fallback region carries
///   contrast.
/// * [`CoreError::Image`] for images too small for the region layout or
///   resolution.
pub fn image_to_bag(image: &GrayImage, config: &RetrievalConfig) -> Result<Bag, CoreError> {
    let preprocessed;
    let image = match config.preprocessing {
        Preprocessing::Intensity => image,
        Preprocessing::SobelMagnitude => {
            preprocessed = sobel_magnitude(image);
            &preprocessed
        }
    };
    let integral = IntegralImage::new(image);
    let regions = config.layout.regions(image.width(), image.height())?;
    let mut instances: Vec<Vec<f32>> = Vec::with_capacity(config.max_instances_per_bag());
    for region in regions {
        if integral.rect_variance(region) < f64::from(config.variance_threshold) {
            continue;
        }
        collect_region_instances(image, &integral, region, config, &mut instances);
    }
    if instances.is_empty() {
        // Fallback: the whole image, regardless of threshold.
        let whole = Rect::full(image.width(), image.height());
        collect_region_instances(image, &integral, whole, config, &mut instances);
        if instances.is_empty() {
            return Err(CoreError::BlankImage { index: None });
        }
    }
    Bag::new(instances).map_err(CoreError::from)
}

/// Appends the instances of one region: the sampled matrix, its mirror,
/// and (when configured) rotated resamplings with their mirrors.
/// Regions that are too small or numerically flat contribute nothing.
fn collect_region_instances(
    image: &GrayImage,
    integral: &IntegralImage,
    region: Rect,
    config: &RetrievalConfig,
    out: &mut Vec<Vec<f32>>,
) {
    let h = config.resolution;
    if let Ok(sampled) = smooth_sample_rect(integral, region, h) {
        push_normalized_pair(sampled.pixels(), h, config.include_mirrors, out);
    } else {
        return; // region smaller than the sample grid; rotations would fail too
    }
    if config.rotation_angles.is_empty() {
        return;
    }
    // Rotated variants resample the cropped region (rotating the 10×10
    // matrix itself would destroy the block statistics).
    let Ok(cropped) = image.crop(region) else {
        return;
    };
    for &angle in &config.rotation_angles {
        let rotated = rotate(&cropped, angle);
        if let Ok(sampled) = smooth_sample(&rotated, h) {
            push_normalized_pair(sampled.pixels(), h, config.include_mirrors, out);
        }
    }
}

/// Normalises one sampled matrix and appends it (plus its horizontal
/// flip when mirrors are enabled). Flat matrices are skipped.
fn push_normalized_pair(sampled: &[f32], h: usize, include_mirror: bool, out: &mut Vec<Vec<f32>>) {
    let normalized = match NormalizedVector::unit(sampled) {
        Ok(nv) => nv.values,
        Err(NormalizeError::FlatVector { .. } | NormalizeError::Empty) => return,
    };
    if include_mirror {
        let mirrored = Mirror::new(h).apply(&normalized);
        out.push(normalized);
        out.push(mirrored);
    } else {
        out.push(normalized);
    }
}

/// The §5 colour attempt: per-region features built from the R, G and B
/// channels separately and concatenated — `3h²` dimensions per instance
/// ("tripling the number of dimensions of feature vectors"). Each
/// channel block is normalised independently so every channel
/// contributes the §3.4 correlation semantics.
///
/// The paper reports "no significant improvements" from this variant;
/// the `ext-color` experiment reproduces that comparison.
///
/// # Errors
/// Same conditions as [`image_to_bag`].
pub fn color_image_to_bag(image: &RgbImage, config: &RetrievalConfig) -> Result<Bag, CoreError> {
    let channels: Vec<GrayImage> = (0..3).map(|c| image.channel(c)).collect();
    let integrals: Vec<IntegralImage> = channels.iter().map(IntegralImage::new).collect();
    // Region selection still keys on gray variance, as in the gray
    // pipeline (the luminance carries the structure).
    let gray = image.to_gray();
    let gray_integral = IntegralImage::new(&gray);
    let regions = config.layout.regions(image.width(), image.height())?;
    let h = config.resolution;

    let mut instances: Vec<Vec<f32>> = Vec::new();
    for region in regions {
        if gray_integral.rect_variance(region) < f64::from(config.variance_threshold) {
            continue;
        }
        push_color_region(
            &integrals,
            region,
            h,
            config.include_mirrors,
            &mut instances,
        );
    }
    if instances.is_empty() {
        let whole = Rect::full(image.width(), image.height());
        push_color_region(&integrals, whole, h, config.include_mirrors, &mut instances);
        if instances.is_empty() {
            return Err(CoreError::BlankImage { index: None });
        }
    }
    Bag::new(instances).map_err(CoreError::from)
}

/// Appends the concatenated per-channel instance (and its mirror) for
/// one region of a colour image. Regions too small to sample, or flat in
/// every channel, contribute nothing.
fn push_color_region(
    integrals: &[IntegralImage],
    region: Rect,
    h: usize,
    include_mirrors: bool,
    instances: &mut Vec<Vec<f32>>,
) {
    let mut combined = Vec::with_capacity(3 * h * h);
    let mut combined_mirror = Vec::with_capacity(3 * h * h);
    for integral in integrals {
        let Ok(sampled) = smooth_sample_rect(integral, region, h) else {
            return;
        };
        match NormalizedVector::unit(sampled.pixels()) {
            Ok(nv) => {
                if include_mirrors {
                    combined_mirror.extend(Mirror::new(h).apply(&nv.values));
                }
                combined.extend(nv.values);
            }
            // A flat channel (e.g. pure-gray region) contributes zeros:
            // no contrast means no correlation signal.
            Err(_) => {
                combined.extend(std::iter::repeat_n(0.0f32, h * h));
                if include_mirrors {
                    combined_mirror.extend(std::iter::repeat_n(0.0f32, h * h));
                }
            }
        }
    }
    if combined.iter().any(|&v| v != 0.0) {
        instances.push(combined);
        if include_mirrors {
            instances.push(combined_mirror);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_imgproc::RegionLayout;

    fn textured(w: usize, h: usize) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| ((x * 13 + y * 29) % 211) as f32).unwrap()
    }

    fn config() -> RetrievalConfig {
        RetrievalConfig {
            threads: 1,
            ..RetrievalConfig::default()
        }
    }

    #[test]
    fn textured_image_fills_the_bag() {
        let img = textured(128, 96);
        let bag = image_to_bag(&img, &config()).unwrap();
        assert_eq!(bag.len(), 40, "all 20 regions + mirrors should survive");
        assert_eq!(bag.dim(), 100);
    }

    #[test]
    fn instances_are_normalised() {
        let img = textured(96, 96);
        let bag = image_to_bag(&img, &config()).unwrap();
        for inst in bag.instances() {
            let n = inst.len() as f64;
            let mean: f64 = inst.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
            let var: f64 = inst
                .iter()
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>()
                / n;
            assert!(mean.abs() < 1e-4, "mean = {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var = {var}");
        }
    }

    #[test]
    fn mirror_instances_are_horizontal_flips() {
        let img = textured(100, 80);
        let cfg = config();
        let bag = image_to_bag(&img, &cfg).unwrap();
        let h = cfg.resolution;
        // Instances come in (original, mirror) pairs.
        let original = bag.instance(0);
        let mirror = bag.instance(1);
        for y in 0..h {
            for x in 0..h {
                assert_eq!(original[y * h + x], mirror[y * h + (h - 1 - x)]);
            }
        }
    }

    #[test]
    fn disabling_mirrors_halves_the_bag() {
        let img = textured(128, 96);
        let cfg = RetrievalConfig {
            include_mirrors: false,
            ..config()
        };
        let bag = image_to_bag(&img, &cfg).unwrap();
        assert_eq!(bag.len(), 20);
    }

    #[test]
    fn variance_threshold_filters_flat_regions() {
        // Left half textured, right half flat: regions confined to the
        // right half must be dropped.
        let img = GrayImage::from_fn(128, 96, |x, y| {
            if x < 64 {
                ((x * 17 + y * 23) % 251) as f32
            } else {
                128.0
            }
        })
        .unwrap();
        let bag = image_to_bag(&img, &config()).unwrap();
        assert!(
            bag.len() < 40,
            "flat-right regions must be filtered, got {}",
            bag.len()
        );
        assert!(bag.len() >= 2, "textured-left regions must survive");
    }

    #[test]
    fn flat_image_is_rejected() {
        let img = GrayImage::filled(64, 64, 77.0).unwrap();
        let err = image_to_bag(&img, &config());
        assert!(matches!(err, Err(CoreError::BlankImage { .. })));
    }

    #[test]
    fn nearly_flat_image_falls_back_to_whole_region() {
        // Variance below threshold everywhere, but not exactly zero: the
        // whole-image fallback must kick in with 1–2 instances.
        let img = GrayImage::from_fn(64, 64, |x, _| 100.0 + (x % 2) as f32).unwrap();
        assert!(img.variance() < 25.0);
        let bag = image_to_bag(&img, &config()).unwrap();
        assert_eq!(bag.len(), 2, "whole-image fallback with mirror");
    }

    #[test]
    fn resolution_controls_feature_dim() {
        let img = textured(128, 96);
        for h in [6, 10, 15] {
            let cfg = RetrievalConfig {
                resolution: h,
                ..config()
            };
            let bag = image_to_bag(&img, &cfg).unwrap();
            assert_eq!(bag.dim(), h * h);
        }
    }

    #[test]
    fn layouts_scale_instance_counts() {
        let img = textured(128, 96);
        for (layout, expected) in [
            (RegionLayout::Small, 18),
            (RegionLayout::Standard, 40),
            (RegionLayout::Large, 84),
        ] {
            let cfg = RetrievalConfig { layout, ..config() };
            let bag = image_to_bag(&img, &cfg).unwrap();
            assert_eq!(bag.len(), expected, "{layout:?}");
        }
    }

    #[test]
    fn too_small_image_is_an_error() {
        let img = textured(3, 3);
        assert!(matches!(
            image_to_bag(&img, &config()),
            Err(CoreError::Image(_))
        ));
    }

    #[test]
    fn symmetric_region_mirror_is_duplicate() {
        // A horizontally symmetric image yields mirror instances equal to
        // the originals — harmless duplicates the DD objective tolerates.
        let img = GrayImage::from_fn(96, 96, |x, y| {
            let cx = (x as f32 - 47.5).abs();
            cx * 2.0 + (y as f32)
        })
        .unwrap();
        let bag = image_to_bag(&img, &config()).unwrap();
        let a = bag.instance(0);
        let b = bag.instance(1);
        let max_diff = a
            .iter()
            .zip(b)
            .map(|(&p, &q)| (p - q).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 1e-3,
            "symmetric image mirror should match, diff {max_diff}"
        );
    }

    #[test]
    fn rotation_angles_multiply_instances() {
        let img = textured(128, 96);
        let cfg = RetrievalConfig {
            rotation_angles: vec![0.15, -0.15],
            ..config()
        };
        let bag = image_to_bag(&img, &cfg).unwrap();
        // 20 regions × 2 (mirror) × 3 (original + 2 rotations) = 120.
        assert_eq!(bag.len(), 120);
        assert_eq!(bag.dim(), 100);
    }

    #[test]
    fn small_rotations_stay_close_to_originals() {
        // A smooth (band-limited) image: high-frequency textures
        // decorrelate completely under any rotation, smooth structure
        // does not — which is the §5 argument for rotation instances.
        let img = GrayImage::from_fn(128, 96, |x, y| {
            100.0 + 80.0 * (x as f32 * 0.05).sin() * (y as f32 * 0.07).cos()
        })
        .unwrap();
        let cfg = RetrievalConfig {
            rotation_angles: vec![0.05],
            ..config()
        };
        let bag = image_to_bag(&img, &cfg).unwrap();
        // Instance layout per region: [orig, orig-mirror, rot, rot-mirror].
        let orig = bag.instance(0);
        let rot = bag.instance(2);
        let rms: f32 = orig
            .iter()
            .zip(rot)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
            / (orig.len() as f32).sqrt();
        assert!(
            rms < 0.8,
            "a 3-degree rotation should barely move features: {rms}"
        );
    }

    #[test]
    fn sobel_preprocessing_changes_features() {
        let img = textured(96, 96);
        let intensity = image_to_bag(&img, &config()).unwrap();
        let cfg = RetrievalConfig {
            preprocessing: Preprocessing::SobelMagnitude,
            ..config()
        };
        let edges = image_to_bag(&img, &cfg).unwrap();
        assert_eq!(edges.dim(), intensity.dim());
        let diff: f32 = intensity
            .instance(0)
            .iter()
            .zip(edges.instance(0))
            .map(|(&a, &b)| (a - b).abs())
            .sum();
        assert!(
            diff > 1.0,
            "edge features must differ from intensity features"
        );
    }

    #[test]
    fn color_bag_triples_dimensions() {
        let img = RgbImage::from_fn(96, 96, |x, y| {
            [
                ((x * 13 + y * 7) % 200) as f32,
                ((x * 5 + y * 29) % 200) as f32,
                ((x * 23 + y * 3) % 200) as f32,
            ]
        })
        .unwrap();
        let cfg = config();
        let bag = color_image_to_bag(&img, &cfg).unwrap();
        assert_eq!(bag.dim(), 300);
        assert_eq!(bag.len(), 40);
    }

    #[test]
    fn color_bag_channel_blocks_are_independently_normalised() {
        let img = RgbImage::from_fn(96, 96, |x, y| {
            [
                ((x * 13 + y * 7) % 200) as f32,
                ((x * 5 + y * 29) % 200) as f32,
                ((x * 23 + y * 3) % 200) as f32,
            ]
        })
        .unwrap();
        let bag = color_image_to_bag(&img, &config()).unwrap();
        let inst = bag.instance(0);
        for c in 0..3 {
            let block = &inst[c * 100..(c + 1) * 100];
            let mean: f64 = block.iter().map(|&v| f64::from(v)).sum::<f64>() / 100.0;
            assert!(mean.abs() < 1e-3, "channel {c} block mean {mean}");
        }
    }

    #[test]
    fn gray_color_image_yields_zero_channel_contrast_blocks_not_errors() {
        // An image with colour structure only in the red channel: G and B
        // are flat, so their blocks should be zeros.
        let img = RgbImage::from_fn(96, 96, |x, y| [((x * 13 + y * 7) % 200) as f32, 50.0, 80.0])
            .unwrap();
        let bag = color_image_to_bag(&img, &config()).unwrap();
        let inst = bag.instance(0);
        assert!(
            inst[..100].iter().any(|&v| v != 0.0),
            "red block has contrast"
        );
        assert!(
            inst[100..200].iter().all(|&v| v == 0.0),
            "green block is flat"
        );
        assert!(inst[200..].iter().all(|&v| v == 0.0), "blue block is flat");
    }
}
