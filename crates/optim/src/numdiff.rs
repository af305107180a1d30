//! Central-difference numerical gradients.
//!
//! Used throughout the workspace's test suites to validate analytic
//! gradients — most importantly the Diverse Density gradients in
//! `milr-mil`, whose noisy-or chain rule is easy to get subtly wrong.

use crate::problem::Objective;

/// Central-difference gradient of `objective` at `x` with absolute step
/// `h` (scaled per-coordinate by `max(1, |x_i|)` for balance).
///
/// # Panics
/// Panics if `x.len() != objective.dim()`.
pub(crate) fn numerical_gradient<O: Objective + ?Sized>(
    objective: &O,
    x: &[f64],
    h: f64,
) -> Vec<f64> {
    assert_eq!(x.len(), objective.dim(), "point has wrong dimension");
    let mut grad = vec![0.0; x.len()];
    let mut probe = x.to_vec();
    for i in 0..x.len() {
        let step = h * x[i].abs().max(1.0);
        let original = probe[i];
        probe[i] = original + step;
        let fp = objective.value(&probe);
        probe[i] = original - step;
        let fm = objective.value(&probe);
        probe[i] = original;
        grad[i] = (fp - fm) / (2.0 * step);
    }
    grad
}

/// Maximum relative disagreement between the analytic and numerical
/// gradients at `x`, using `max(1, |analytic_i|)` as the denominator.
///
/// Test suites assert this is below a small threshold.
pub fn gradient_error<O: Objective + ?Sized>(objective: &O, x: &[f64], h: f64) -> f64 {
    let numeric = numerical_gradient(objective, x, h);
    let mut analytic = vec![0.0; x.len()];
    objective.gradient(x, &mut analytic);
    numeric
        .iter()
        .zip(&analytic)
        .map(|(&n, &a)| (n - a).abs() / a.abs().max(1.0))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Cubic;
    impl Objective for Cubic {
        fn dim(&self) -> usize {
            3
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0].powi(3) + 2.0 * x[1] * x[1] + x[0] * x[2]
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            g[0] = 3.0 * x[0] * x[0] + x[2];
            g[1] = 4.0 * x[1];
            g[2] = x[0];
        }
    }

    #[test]
    fn numerical_matches_analytic_for_polynomial() {
        let x = [1.5, -0.7, 2.0];
        let err = gradient_error(&Cubic, &x, 1e-6);
        assert!(err < 1e-7, "gradient error {err}");
    }

    #[test]
    fn detects_wrong_gradients() {
        struct Liar;
        impl Objective for Liar {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, x: &[f64]) -> f64 {
                x[0] * x[0]
            }
            fn gradient(&self, _x: &[f64], g: &mut [f64]) {
                g[0] = 0.0; // wrong on purpose
            }
        }
        let err = gradient_error(&Liar, &[3.0], 1e-6);
        assert!(err > 1.0, "a wrong gradient must be flagged, err = {err}");
    }

    #[test]
    fn step_scales_with_coordinate_magnitude() {
        // At large x the per-coordinate scaled step keeps relative
        // accuracy (an unscaled absolute step would drown in the 1e9
        // function values).
        let x = [1e3, 0.0, 0.0];
        let err = gradient_error(&Cubic, &x, 1e-6);
        assert!(err < 1e-3, "gradient error at large x: {err}");
    }

    #[test]
    fn exponential_objective() {
        struct Exp;
        impl Objective for Exp {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, x: &[f64]) -> f64 {
                (-x[0] * x[0] - 0.5 * x[1] * x[1]).exp()
            }
            fn gradient(&self, x: &[f64], g: &mut [f64]) {
                let v = self.value(x);
                g[0] = -2.0 * x[0] * v;
                g[1] = -x[1] * v;
            }
        }
        let err = gradient_error(&Exp, &[0.3, -0.8], 1e-6);
        assert!(err < 1e-8, "gradient error {err}");
    }
}
