//! The [`Objective`] trait and solver result types.
//!
//! All solvers in this crate *minimise*; the Diverse Density trainer
//! maximises DD by minimising `−log DD` (paper §3.6.3 footnote: "we
//! maximize DD by minimizing −log(DD)").

/// A smooth objective `f : ℝⁿ → ℝ` with an analytic gradient.
///
/// Implementations must be consistent: `gradient` at `x` is the gradient
/// of `value` at `x`. Solvers never mutate `x` through this trait, and
/// objectives must be `Sync` so multi-start can evaluate them from
/// several threads.
pub trait Objective: Sync {
    /// Number of variables.
    fn dim(&self) -> usize;

    /// Objective value at `x`.
    ///
    /// # Panics
    /// Implementations may panic if `x.len() != self.dim()`.
    fn value(&self, x: &[f64]) -> f64;

    /// Writes the gradient at `x` into `grad`.
    ///
    /// # Panics
    /// Implementations may panic if slice lengths differ from
    /// `self.dim()`.
    fn gradient(&self, x: &[f64], grad: &mut [f64]);

    /// Value and gradient in one call. Override when the two share
    /// expensive intermediates (the DD objective does).
    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        self.gradient(x, grad);
        self.value(x)
    }
}

/// Every `Objective` reference is itself an objective, so solvers can be
/// handed `&obj` without generic gymnastics.
impl<T: Objective + ?Sized> Objective for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn value(&self, x: &[f64]) -> f64 {
        (**self).value(x)
    }
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        (**self).gradient(x, grad)
    }
    fn value_and_gradient(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        (**self).value_and_gradient(x, grad)
    }
}

/// Why a solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Gradient (or projected-gradient step) norm fell below tolerance.
    GradientTolerance,
    /// Successive objective values changed less than the tolerance.
    ValueTolerance,
    /// The iteration budget ran out before convergence.
    MaxIterations,
    /// The line search could not find a decreasing step (typically at a
    /// numerically flat point — treated as converged by callers).
    LineSearchFailed,
}

impl Termination {
    /// Whether the stop reason indicates (approximate) convergence rather
    /// than an exhausted budget.
    pub fn converged(self) -> bool {
        matches!(
            self,
            Self::GradientTolerance | Self::ValueTolerance | Self::LineSearchFailed
        )
    }
}

/// Result of one solver run.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Number of objective (value or value+gradient) evaluations.
    pub evaluations: usize,
    /// Why the solver stopped.
    pub termination: Termination,
}

/// A quadratic bowl `½ (x − c)ᵀ diag(s) (x − c)`, used as the reference
/// objective across this crate's solver tests.
#[cfg(test)]
pub(crate) struct Quadratic {
    pub center: Vec<f64>,
    pub scales: Vec<f64>,
}

#[cfg(test)]
impl Quadratic {
    pub(crate) fn isotropic(center: Vec<f64>) -> Self {
        let scales = vec![1.0; center.len()];
        Self { center, scales }
    }
}

#[cfg(test)]
impl Objective for Quadratic {
    fn dim(&self) -> usize {
        self.center.len()
    }
    fn value(&self, x: &[f64]) -> f64 {
        x.iter()
            .zip(&self.center)
            .zip(&self.scales)
            .map(|((&xi, &ci), &si)| 0.5 * si * (xi - ci) * (xi - ci))
            .sum()
    }
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        for ((g, (&xi, &ci)), &si) in grad
            .iter_mut()
            .zip(x.iter().zip(&self.center))
            .zip(&self.scales)
        {
            *g = si * (xi - ci);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn termination_converged_classification() {
        assert!(Termination::GradientTolerance.converged());
        assert!(Termination::ValueTolerance.converged());
        assert!(Termination::LineSearchFailed.converged());
        assert!(!Termination::MaxIterations.converged());
    }

    #[test]
    fn quadratic_value_and_gradient_agree() {
        let q = Quadratic {
            center: vec![1.0, -2.0],
            scales: vec![2.0, 3.0],
        };
        let x = [3.0, 1.0];
        // value = 0.5*2*(2)^2 + 0.5*3*(3)^2 = 4 + 13.5
        assert!((q.value(&x) - 17.5).abs() < 1e-12);
        let mut g = [0.0; 2];
        q.gradient(&x, &mut g);
        assert_eq!(g, [4.0, 9.0]);
    }

    #[test]
    fn default_value_and_gradient_is_consistent() {
        let q = Quadratic::isotropic(vec![0.0; 3]);
        let x = [1.0, 2.0, 3.0];
        let mut g = [0.0; 3];
        let v = q.value_and_gradient(&x, &mut g);
        assert_eq!(v, q.value(&x));
        assert_eq!(g, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn reference_objective_delegates() {
        let q = Quadratic::isotropic(vec![0.0; 2]);
        let r: &dyn Objective = &q;
        assert_eq!(Objective::dim(&r), 2);
        assert_eq!(Objective::value(&r, &[1.0, 1.0]), 1.0);
    }
}
