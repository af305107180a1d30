//! Property-based tests of the solvers on random convex quadratics:
//! descent, convergence to the analytic optimum, and agreement across
//! methods.

use milr_optim::{
    gradient_descent, lbfgs, projected_gradient, BoxSumProjection, GradientDescentOptions,
    LbfgsOptions, Objective, ProjectedGradientOptions, SubsliceProjection,
};
use proptest::prelude::*;

/// `½ Σ sᵢ (xᵢ − cᵢ)²` — strictly convex when every `sᵢ > 0`.
#[derive(Debug)]
struct Quadratic {
    center: Vec<f64>,
    scales: Vec<f64>,
}

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

fn quadratic(n: usize) -> impl Strategy<Value = Quadratic> {
    (
        proptest::collection::vec(-5.0f64..5.0, n),
        proptest::collection::vec(0.1f64..20.0, n),
    )
        .prop_map(|(center, scales)| Quadratic { center, scales })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Both unconstrained solvers find the analytic minimum of a
    /// random convex quadratic.
    #[test]
    fn unconstrained_solvers_reach_the_analytic_optimum(
        q in quadratic(5),
        x0 in proptest::collection::vec(-5.0f64..5.0, 5),
    ) {
        let lb = lbfgs(&q, &x0, &LbfgsOptions::default());
        let gd = gradient_descent(
            &q,
            &x0,
            &GradientDescentOptions {
                max_iterations: 5000,
                value_tolerance: 1e-14,
                ..Default::default()
            },
        );
        for sol in [&lb, &gd] {
            for (xi, ci) in sol.x.iter().zip(&q.center) {
                prop_assert!((xi - ci).abs() < 1e-2, "{:?} vs {:?}", sol.x, q.center);
            }
        }
    }

    /// Solver outputs never exceed the starting value (descent methods
    /// descend).
    #[test]
    fn solvers_never_increase_the_objective(
        q in quadratic(4),
        x0 in proptest::collection::vec(-5.0f64..5.0, 4),
    ) {
        let f0 = q.value(&x0);
        let lb = lbfgs(&q, &x0, &LbfgsOptions::default());
        prop_assert!(lb.value <= f0 + 1e-12);
    }

    /// Projected gradient returns a feasible point whose objective is no
    /// worse than the best feasible corner of a sampled grid.
    #[test]
    fn projected_gradient_is_feasible_and_competitive(
        q in quadratic(3),
        beta in 0.1f64..0.9,
    ) {
        let constraint = BoxSumProjection::for_beta(3, beta);
        let projection = SubsliceProjection {
            start: 0,
            end: 3,
            inner: constraint,
        };
        let sol = projected_gradient(
            &q,
            &projection,
            &[0.5; 3],
            &ProjectedGradientOptions {
                max_iterations: 3000,
                step_tolerance: 1e-9,
                ..Default::default()
            },
        );
        prop_assert!(constraint.is_feasible(&sol.x, 1e-6), "infeasible: {:?}", sol.x);
        // Sample feasible grid points; none may beat the solver by a
        // visible margin.
        let steps = 8;
        for i in 0..=steps {
            for j in 0..=steps {
                for k in 0..=steps {
                    let cand = [
                        i as f64 / steps as f64,
                        j as f64 / steps as f64,
                        k as f64 / steps as f64,
                    ];
                    if constraint.is_feasible(&cand, 0.0) {
                        prop_assert!(
                            q.value(&cand) >= sol.value - 1e-6,
                            "grid point {cand:?} beats the solver ({} < {})",
                            q.value(&cand),
                            sol.value
                        );
                    }
                }
            }
        }
    }
}
