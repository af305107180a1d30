//! Weight-control policies (§3.6).
//!
//! Unconstrained DD training "tends to push most of weight values towards
//! zero, leaving only a few large values" — overfitting that generalises
//! poorly for image concepts (§3.6). The paper studies four remedies;
//! [`WeightPolicy`] names them and maps each to a parameterization and a
//! solver in the trainer.

use crate::dd::Parameterization;

/// One of the paper's four schemes for controlling feature weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightPolicy {
    /// The original DD algorithm: free weights through the `w = s²`
    /// parameterization (§2.2.1).
    OriginalDd,
    /// All weights forced to 1; optimise the feature point only (§3.6.1).
    Identical,
    /// The §3.6.2 gradient "hack": weight derivatives scaled by `1/alpha`
    /// so ascent is reluctant to move them. `alpha = 1` recovers
    /// [`WeightPolicy::OriginalDd`]; `alpha → ∞` approaches
    /// [`WeightPolicy::Identical`]. The paper's example value is 50.
    AlphaHack {
        /// Reluctance factor `α ≥ 1`.
        alpha: f64,
    },
    /// The §3.6.3 inequality constraint: `0 ≤ w_k ≤ 1`,
    /// `Σ w_k ≥ β·n`. `β = 0` is (nearly) unconstrained; `β = 1` forces
    /// all weights to 1.
    SumConstraint {
        /// Lower bound `β ∈ [0, 1]` on the average weight.
        beta: f64,
    },
}

impl WeightPolicy {
    /// The variable parameterization this policy trains under.
    pub fn parameterization(self) -> Parameterization {
        match self {
            Self::OriginalDd => Parameterization::SqrtWeights { alpha: 1.0 },
            Self::Identical => Parameterization::FixedWeights,
            Self::AlphaHack { alpha } => Parameterization::SqrtWeights { alpha },
            Self::SumConstraint { .. } => Parameterization::DirectWeights,
        }
    }

    /// Validates the policy's parameters.
    ///
    /// # Errors
    /// Returns a description of the invalid parameter.
    pub fn validate(self) -> Result<(), String> {
        match self {
            Self::AlphaHack { alpha } if !(alpha.is_finite() && alpha >= 1.0) => {
                Err(format!("AlphaHack requires α ≥ 1, got {alpha}"))
            }
            Self::SumConstraint { beta } if !(0.0..=1.0).contains(&beta) => {
                Err(format!("SumConstraint requires β ∈ [0, 1], got {beta}"))
            }
            _ => Ok(()),
        }
    }

    /// A short human-readable name matching the paper's figure legends.
    pub fn label(self) -> String {
        match self {
            Self::OriginalDd => "Original DD".to_owned(),
            Self::Identical => "Identical Weights".to_owned(),
            Self::AlphaHack { alpha } => format!("Alpha Hack (α={alpha})"),
            Self::SumConstraint { beta } => format!("Inequality Constr. (β={beta})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameterizations_match_the_paper() {
        assert_eq!(
            WeightPolicy::OriginalDd.parameterization(),
            Parameterization::SqrtWeights { alpha: 1.0 }
        );
        assert_eq!(
            WeightPolicy::Identical.parameterization(),
            Parameterization::FixedWeights
        );
        assert_eq!(
            WeightPolicy::AlphaHack { alpha: 50.0 }.parameterization(),
            Parameterization::SqrtWeights { alpha: 50.0 }
        );
        assert_eq!(
            WeightPolicy::SumConstraint { beta: 0.5 }.parameterization(),
            Parameterization::DirectWeights
        );
    }

    #[test]
    fn validation_bounds() {
        assert!(WeightPolicy::OriginalDd.validate().is_ok());
        assert!(WeightPolicy::AlphaHack { alpha: 1.0 }.validate().is_ok());
        assert!(WeightPolicy::AlphaHack { alpha: 0.5 }.validate().is_err());
        assert!(WeightPolicy::AlphaHack { alpha: f64::NAN }
            .validate()
            .is_err());
        assert!(WeightPolicy::SumConstraint { beta: 0.0 }.validate().is_ok());
        assert!(WeightPolicy::SumConstraint { beta: 1.0 }.validate().is_ok());
        assert!(WeightPolicy::SumConstraint { beta: 1.5 }
            .validate()
            .is_err());
        assert!(WeightPolicy::SumConstraint { beta: -0.1 }
            .validate()
            .is_err());
    }

    #[test]
    fn labels_are_figure_ready() {
        assert_eq!(WeightPolicy::OriginalDd.label(), "Original DD");
        assert_eq!(WeightPolicy::Identical.label(), "Identical Weights");
        assert!(WeightPolicy::SumConstraint { beta: 0.5 }
            .label()
            .contains("0.5"));
        assert!(WeightPolicy::AlphaHack { alpha: 50.0 }
            .label()
            .contains("50"));
    }
}
