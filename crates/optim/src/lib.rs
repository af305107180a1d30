#![warn(missing_docs)]

//! # milr-optim
//!
//! Optimisation substrate for the Diverse Density trainer.
//!
//! The paper maximises Diverse Density by minimising `−log DD`:
//!
//! * unconstrained, with plain gradient descent multi-started from every
//!   positive instance (original DD, §2.2.2) — [`gradient_descent()`] and
//!   [`lbfgs()`] provide that path (L-BFGS as the faster default,
//!   steepest-descent kept as the reference implementation);
//! * under the §3.6.3 inequality constraint `0 ≤ w_k ≤ 1`,
//!   `Σ w_k ≥ β·h²`. The paper used the proprietary CFSQP package; this
//!   crate substitutes a projected-gradient method ([`projected_gradient()`])
//!   with an **exact** Euclidean projection onto the box ∩ half-space
//!   feasible set ([`projection`]), which converges to the same KKT
//!   points for this smooth problem.
//!
//! [`multistart()`] runs many starts in parallel over the [`pool`]
//! scoped-thread workers (also used by `milr-core` for ranking and
//! preprocessing fan-out), and [`numdiff`] provides central-difference
//! gradients used by the test suites (here and in `milr-mil`) to
//! validate analytic gradients.

pub mod gradient_descent;
pub mod lbfgs;
pub mod line_search;
pub mod multistart;
pub mod numdiff;
pub mod pool;
pub mod problem;
pub mod projected_gradient;
pub mod projection;

pub use gradient_descent::{gradient_descent, GradientDescentOptions};
pub use lbfgs::{lbfgs, LbfgsOptions};
pub use line_search::{armijo_search, ArmijoOptions, LineSearchError};
pub use multistart::{multistart, MultistartReport};
pub use problem::{Objective, Solution, Termination};
pub use projected_gradient::{projected_gradient, ProjectedGradientOptions};
pub use projection::{BoxSumProjection, IdentityProjection, Project, SubsliceProjection};
