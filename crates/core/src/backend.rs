//! Pluggable feature backends: named preprocessing pipelines behind one
//! trait, so the scenario layer can swap how pixels become bags without
//! touching training or ranking (DESIGN.md §14).
//!
//! A [`FeatureBackend`] owns both directions of the image → bag mapping
//! (gray and colour input), names itself with a stable wire/CLI id, and
//! describes the parameters that shaped its feature space. The id and
//! parameters are stamped into every sharded snapshot's manifest as a
//! [`BackendTag`], so a snapshot preprocessed with one backend can never
//! be silently ranked against concepts trained in another feature space —
//! a mismatch surfaces as [`CoreError::Storage`] at open, not as garbage
//! distances at query time.
//!
//! The paper's §3.5 gray-block pipeline is the first backend
//! ([`GrayBlockBackend`]) and the default: snapshots written before the
//! tag existed open as gray-block byte-identically. `milr-baseline`
//! contributes the second (the SBN colour extractor) plus the name
//! registry, keeping `milr-core` free of baseline dependencies.

use milr_imgproc::{GrayImage, RgbImage};
use milr_mil::Bag;

use crate::config::RetrievalConfig;
use crate::error::CoreError;
use crate::features::image_to_bag;

/// The identity a snapshot manifest records for the backend that
/// preprocessed it: a stable id plus the `(name, value)` parameters that
/// shaped the feature space.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendTag {
    /// Stable backend id (`gray-block`, `sbn`, …) — the compatibility
    /// key. Opening a snapshot checks only the id: parameters are
    /// recorded for observability, not matched, because the feature
    /// dimension check already rejects cross-resolution mixups.
    pub id: String,
    /// Named numeric parameters, in a backend-chosen stable order.
    pub params: Vec<(String, f64)>,
}

impl Default for BackendTag {
    /// The id-only gray-block tag: what every snapshot written before
    /// the manifest carried backend tags is treated as. Parameters are
    /// empty ("unrecorded"), which is fine — only the id is matched at
    /// open.
    fn default() -> Self {
        Self {
            id: GRAY_BLOCK_ID.to_string(),
            params: Vec::new(),
        }
    }
}

impl std::fmt::Display for BackendTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)?;
        for (name, value) in &self.params {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

/// Wire/CLI id of the paper's gray-block pipeline.
pub const GRAY_BLOCK_ID: &str = "gray-block";

/// A named preprocessing pipeline: how an image (gray or colour)
/// becomes a [`Bag`] of instances.
///
/// Implementations must be deterministic — the same image and config
/// always yield the same bag — because snapshot reproducibility and the
/// bit-identity contracts ride on it.
pub trait FeatureBackend: Send + Sync {
    /// Stable wire/CLI id (`milr preprocess --backend <id>`).
    fn id(&self) -> &'static str;

    /// The named parameters that shape this backend's feature space
    /// under `config`, in a stable order.
    fn params(&self, config: &RetrievalConfig) -> Vec<(String, f64)>;

    /// The instance dimension every bag from this backend has.
    fn feature_dim(&self, config: &RetrievalConfig) -> usize;

    /// Converts one gray image into a bag.
    ///
    /// # Errors
    /// Backend-specific: typically [`CoreError::BlankImage`] for
    /// contrast-free input or [`CoreError::Image`] for images the
    /// layout cannot host.
    fn gray_bag(&self, image: &GrayImage, config: &RetrievalConfig) -> Result<Bag, CoreError>;

    /// Converts one colour image into a bag.
    ///
    /// # Errors
    /// Same conditions as [`Self::gray_bag`].
    fn color_bag(&self, image: &RgbImage, config: &RetrievalConfig) -> Result<Bag, CoreError>;

    /// The [`BackendTag`] a snapshot built with this backend carries.
    fn tag(&self, config: &RetrievalConfig) -> BackendTag {
        BackendTag {
            id: self.id().to_string(),
            params: self.params(config),
        }
    }
}

/// The paper's §3.5 gray-block pipeline as a [`FeatureBackend`]: the
/// region family, variance filter, smooth-sample and mean/σ
/// normalisation of [`image_to_bag`], with colour input reduced through
/// the standard luminance projection first.
#[derive(Debug, Clone, Copy, Default)]
pub struct GrayBlockBackend;

impl FeatureBackend for GrayBlockBackend {
    fn id(&self) -> &'static str {
        GRAY_BLOCK_ID
    }

    fn params(&self, config: &RetrievalConfig) -> Vec<(String, f64)> {
        vec![("resolution".to_string(), config.resolution as f64)]
    }

    fn feature_dim(&self, config: &RetrievalConfig) -> usize {
        config.resolution * config.resolution
    }

    fn gray_bag(&self, image: &GrayImage, config: &RetrievalConfig) -> Result<Bag, CoreError> {
        image_to_bag(image, config)
    }

    fn color_bag(&self, image: &RgbImage, config: &RetrievalConfig) -> Result<Bag, CoreError> {
        image_to_bag(&image.to_gray(), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured() -> GrayImage {
        GrayImage::from_fn(96, 96, |x, y| ((x * 13 + y * 29) % 211) as f32).unwrap()
    }

    #[test]
    fn gray_block_backend_is_the_classic_pipeline() {
        let config = RetrievalConfig {
            threads: 1,
            ..RetrievalConfig::default()
        };
        let backend = GrayBlockBackend;
        let image = textured();
        assert_eq!(
            backend.gray_bag(&image, &config).unwrap(),
            image_to_bag(&image, &config).unwrap(),
            "the backend must be byte-identical to the direct call"
        );
        assert_eq!(backend.feature_dim(&config), 100);
        assert_eq!(backend.id(), "gray-block");
    }

    #[test]
    fn gray_block_color_input_reduces_through_luminance() {
        let config = RetrievalConfig {
            threads: 1,
            ..RetrievalConfig::default()
        };
        let rgb = RgbImage::from_fn(96, 96, |x, y| {
            [
                ((x * 13 + y * 29) % 211) as f32,
                ((x * 7 + y * 3) % 211) as f32,
                ((x * 5 + y * 11) % 211) as f32,
            ]
        })
        .unwrap();
        let via_backend = GrayBlockBackend.color_bag(&rgb, &config).unwrap();
        let via_gray = image_to_bag(&rgb.to_gray(), &config).unwrap();
        assert_eq!(via_backend, via_gray);
    }

    #[test]
    fn tags_carry_id_and_params() {
        let config = RetrievalConfig::default();
        let tag = GrayBlockBackend.tag(&config);
        assert_eq!(tag.id, GRAY_BLOCK_ID);
        assert_eq!(tag.params, vec![("resolution".to_string(), 10.0)]);
        assert_eq!(format!("{tag}"), "gray-block resolution=10");
    }
}
