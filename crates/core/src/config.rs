//! Retrieval-system configuration.
//!
//! Defaults follow the paper's standard experimental setup (§4.1):
//! `h = 10` (100-dimensional features), the 20-region layout with mirror
//! instances (≤ 40 per bag), the β = 0.5 inequality constraint, 3 rounds
//! of training with the top 5 false positives added per round, and 5
//! positive / 5 negative initial examples.

use milr_imgproc::RegionLayout;
use milr_mil::{StartBags, TrainOptions, WeightPolicy};

/// Pixel-level preprocessing applied before region extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preprocessing {
    /// Raw gray intensities (the paper's system).
    Intensity,
    /// Sobel gradient magnitude — the §5 edge-feature attempt, kept so
    /// its negative result can be reproduced (`ext-edges`).
    SobelMagnitude,
}

/// Full configuration of preprocessing, training and feedback.
#[derive(Debug, Clone)]
pub struct RetrievalConfig {
    /// Side length `h` of the sampled matrix; features have `h²`
    /// dimensions (§3.1.2, default 10).
    pub resolution: usize,
    /// Which sub-region family to extract (§3.2, default the 20-region
    /// standard layout).
    pub layout: RegionLayout,
    /// Regions whose gray variance falls below this are discarded
    /// (§3.2; intensity scale 0–255, default 25.0).
    pub variance_threshold: f32,
    /// Whether each region also contributes its left-right mirror
    /// (§3.2, default true).
    pub include_mirrors: bool,
    /// Additional rotation angles (radians) whose resampled variants
    /// join the bag per region — the §5 rotation extension ("add more
    /// instances to represent different angles of view"). Empty by
    /// default; each angle multiplies the instance count.
    pub rotation_angles: Vec<f32>,
    /// Pixel-level preprocessing before region extraction (default raw
    /// intensities; Sobel magnitude reproduces the §5 edge attempt).
    pub preprocessing: Preprocessing,
    /// Weight-control policy for Diverse Density training (§3.6,
    /// default the β = 0.5 inequality constraint).
    pub policy: WeightPolicy,
    /// Training rounds, counting the initial one (§4.1, default 3).
    pub feedback_rounds: usize,
    /// False positives promoted to negatives after each round (§4.1,
    /// default 5).
    pub false_positives_per_round: usize,
    /// Initial positive examples drawn from the potential training set
    /// (default 5).
    pub initial_positives: usize,
    /// Initial negative examples drawn from the potential training set
    /// (default 5).
    pub initial_negatives: usize,
    /// Positive bags used as multi-start seeds (§4.3, default all).
    pub start_bags: StartBags,
    /// Worker threads for multi-start (0 = available parallelism).
    pub threads: usize,
    /// Solver iteration budget per start.
    pub max_iterations: usize,
    /// Solver convergence tolerance.
    pub gradient_tolerance: f64,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        Self {
            resolution: 10,
            layout: RegionLayout::Standard,
            variance_threshold: 25.0,
            include_mirrors: true,
            rotation_angles: Vec::new(),
            preprocessing: Preprocessing::Intensity,
            policy: WeightPolicy::SumConstraint { beta: 0.5 },
            feedback_rounds: 3,
            false_positives_per_round: 5,
            initial_positives: 5,
            initial_negatives: 5,
            start_bags: StartBags::All,
            threads: 0,
            max_iterations: 100,
            gradient_tolerance: 1e-4,
        }
    }
}

impl RetrievalConfig {
    /// Feature dimension `h²`.
    pub fn feature_dim(&self) -> usize {
        self.resolution * self.resolution
    }

    /// Maximum instances per bag under this configuration: regions ×
    /// (1 + mirrors) × (1 + rotation angles).
    pub(crate) fn max_instances_per_bag(&self) -> usize {
        let per_region = (1 + usize::from(self.include_mirrors)) * (1 + self.rotation_angles.len());
        self.layout.region_count() * per_region
    }

    /// The [`TrainOptions`] equivalent of this configuration.
    pub fn train_options(&self) -> TrainOptions {
        TrainOptions {
            policy: self.policy,
            start_bags: self.start_bags.clone(),
            threads: self.threads,
            max_iterations: self.max_iterations,
            gradient_tolerance: self.gradient_tolerance,
            warm_start: None,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.resolution < 2 {
            return Err(format!(
                "resolution must be at least 2, got {}",
                self.resolution
            ));
        }
        if self.feedback_rounds == 0 {
            return Err("at least one training round is required".into());
        }
        if self.initial_positives == 0 {
            return Err("at least one initial positive example is required".into());
        }
        self.policy.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = RetrievalConfig::default();
        assert_eq!(c.resolution, 10);
        assert_eq!(c.feature_dim(), 100);
        assert_eq!(c.layout, RegionLayout::Standard);
        assert_eq!(c.max_instances_per_bag(), 40);
        assert_eq!(c.feedback_rounds, 3);
        assert_eq!(c.false_positives_per_round, 5);
        assert!(matches!(c.policy, WeightPolicy::SumConstraint { beta } if beta == 0.5));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn mirrors_double_instance_budget() {
        let c = RetrievalConfig {
            include_mirrors: false,
            ..RetrievalConfig::default()
        };
        assert_eq!(c.max_instances_per_bag(), 20);
    }

    #[test]
    fn rotations_multiply_instance_budget() {
        let c = RetrievalConfig {
            rotation_angles: vec![0.2, -0.2],
            ..RetrievalConfig::default()
        };
        // 20 regions × 2 (mirror) × 3 (original + 2 rotations) = 120.
        assert_eq!(c.max_instances_per_bag(), 120);
    }

    #[test]
    fn default_preprocessing_is_raw_intensity() {
        assert_eq!(
            RetrievalConfig::default().preprocessing,
            Preprocessing::Intensity
        );
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut c = RetrievalConfig {
            resolution: 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = RetrievalConfig {
            feedback_rounds: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = RetrievalConfig {
            initial_positives: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = RetrievalConfig {
            policy: WeightPolicy::SumConstraint { beta: 7.0 },
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn train_options_mirror_config() {
        let c = RetrievalConfig {
            max_iterations: 77,
            threads: 3,
            ..Default::default()
        };
        let t = c.train_options();
        assert_eq!(t.max_iterations, 77);
        assert_eq!(t.threads, 3);
        assert_eq!(t.policy, c.policy);
    }
}
