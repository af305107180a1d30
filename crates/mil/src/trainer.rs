//! Multi-start Diverse Density training.
//!
//! The original algorithm "starts from every instance from every positive
//! bag and performs gradient ascent from each one" (§2.2.2). §4.3 shows
//! that starting from the instances of only a *subset* of positive bags
//! costs little accuracy (2 of 5 bags ≈ 95% of full performance, 3 of 5
//! indistinguishable) while cutting training time proportionally —
//! [`StartBags`] exposes that speed-up.
//!
//! The paper's step 1 also puts every sub-picture's left-right mirror in
//! its bag, right after the source instance. When every bag, positive
//! and negative, is such a run of pairs `[x₀, P·x₀, x₁, P·x₁, …]` under
//! the bitwise rule of [`Mirror`] (the one the ranking store pairs
//! with), the objective satisfies `f(P·t, P·w) = f(t, w)` and every
//! solver below is equivariant under the coordinate permutation `P`, so
//! the start at `P·x` retraces the mirror image of the start at `x`.
//! [`train`] then starts only from the even instance of each pair: half
//! the ascents, the same optimum up to rounding, and where an odd twin
//! used to win, its mirror image — which ranks every mirror-closed bag
//! identically (DESIGN §15). Any other data — SBN bags, hand-built
//! bags, a non-square dimension, one flipped bit — starts from every
//! instance.
//!
//! Solver selection per policy:
//!
//! * [`WeightPolicy::OriginalDd`] / [`WeightPolicy::Identical`] — L-BFGS
//!   (the objective is smooth and unconstrained; L-BFGS reaches the same
//!   stationary points as the paper's plain gradient ascent, faster).
//! * [`WeightPolicy::AlphaHack`] — steepest descent, because the hacked
//!   weight derivatives are deliberately *not* the gradient of any
//!   function (§3.6.2) and quasi-Newton curvature estimates would be
//!   built on fiction.
//! * [`WeightPolicy::SumConstraint`] — projected gradient onto
//!   `[0,1]ⁿ ∩ {Σw ≥ β·n}` (the CFSQP substitution).

use milr_optim::{
    gradient_descent, lbfgs, multistart, projected_gradient, BoxSumProjection,
    GradientDescentOptions, LbfgsOptions, ProjectedGradientOptions, Solution, SubsliceProjection,
    Termination,
};

use crate::bag::{MilDataset, MilError};
use crate::concept::Concept;
use crate::dd::DdObjective;
use crate::mirror::Mirror;
use crate::policy::WeightPolicy;

/// Which positive bags contribute gradient-ascent starting points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartBags {
    /// Every positive bag (the original algorithm).
    All,
    /// The first `n` positive bags (the §4.3 speed-up).
    First(usize),
    /// An explicit set of positive-bag indices.
    Indices(Vec<usize>),
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Weight-control policy (§3.6).
    pub policy: WeightPolicy,
    /// Positive bags whose instances seed the multi-start.
    pub start_bags: StartBags,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Iteration budget per start.
    pub max_iterations: usize,
    /// Convergence tolerance on the (projected) gradient.
    pub gradient_tolerance: f64,
    /// Warm start: the winning solver vector (`TrainResult::best_x`) of
    /// a previous round on a superset-compatible dataset. When set, it
    /// is appended as one extra multi-start point — typically paired
    /// with a [`StartBags`] selection reduced to the *newly added*
    /// positive bags, so a feedback round pays for new evidence only
    /// instead of re-running ascent from every instance of every bag.
    /// Uniquely, a warm round may select an *empty* start-bag set
    /// (`StartBags::Indices(vec![])`): the warm point alone carries it.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            policy: WeightPolicy::SumConstraint { beta: 0.5 },
            start_bags: StartBags::All,
            threads: 0,
            max_iterations: 200,
            gradient_tolerance: 1e-5,
            warm_start: None,
        }
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The learned concept (ideal point + effective weights).
    pub concept: Concept,
    /// `−log DD` at the concept (lower is better).
    pub nldd: f64,
    /// Number of multi-start points used: one per instance of each
    /// selected positive bag (one per mirror pair on mirror-closed
    /// data), plus the warm point, if any.
    pub starts: usize,
    /// Number of starts whose solver reported convergence.
    pub converged_starts: usize,
    /// Final objective value per start, in start order.
    pub start_values: Vec<f64>,
    /// Index of the winning start (the argmin over `start_values`).
    /// Starts run bag by bag in selection order, one per instance — on
    /// mirror-closed data start `i` of a bag's run is its instance
    /// `2i` — with the warm point last.
    pub best_start: usize,
    /// Objective evaluations spent per start, in start order.
    pub start_evaluations: Vec<usize>,
    /// Why each start's solver stopped, in start order.
    /// [`Termination::MaxIterations`] marks a start whose concept is
    /// where the iteration budget ran out, not a stationary point.
    pub start_terminations: Vec<Termination>,
    /// Outer solver iterations spent per start, in start order.
    pub start_iterations: Vec<usize>,
    /// The winning start's final solver vector, in the policy's
    /// parameterization — feed it back as [`TrainOptions::warm_start`]
    /// to seed the next feedback round.
    pub best_x: Vec<f64>,
}

/// Trains a Diverse Density concept on `dataset`.
///
/// # Examples
/// ```
/// use milr_mil::{train, Bag, BagLabel, MilDataset, TrainOptions, WeightPolicy};
///
/// // Two positive bags share an instance near (1, 1); a negative bag
/// // sits at the origin (Fig. 2-1 in miniature).
/// let mut dataset = MilDataset::new();
/// dataset.push(Bag::new(vec![vec![1.0, 1.1], vec![6.0, -4.0]]).unwrap(),
///              BagLabel::Positive).unwrap();
/// dataset.push(Bag::new(vec![vec![0.9, 1.0], vec![-5.0, 3.0]]).unwrap(),
///              BagLabel::Positive).unwrap();
/// dataset.push(Bag::new(vec![vec![0.0, 0.0]]).unwrap(),
///              BagLabel::Negative).unwrap();
///
/// let options = TrainOptions { policy: WeightPolicy::Identical, ..Default::default() };
/// let result = train(&dataset, &options).unwrap();
/// let t = result.concept.point();
/// assert!((t[0] - 1.0).abs() < 0.3 && (t[1] - 1.0).abs() < 0.3);
/// ```
///
/// # Errors
/// * [`MilError::NoPositiveBags`] when there is nothing to start from.
/// * [`MilError::InvalidPolicy`] for out-of-range policy parameters or an
///   empty/out-of-bounds start-bag selection.
pub fn train(dataset: &MilDataset, options: &TrainOptions) -> Result<TrainResult, MilError> {
    dataset.check_trainable()?;
    options.policy.validate().map_err(MilError::InvalidPolicy)?;
    let _span = milr_obs::span!("train.dd");

    // A warm round may legitimately select zero start bags (no new
    // positive evidence this round): the warm point is the only start.
    let selected = match (&options.warm_start, &options.start_bags) {
        (Some(_), StartBags::Indices(indices)) if indices.is_empty() => Vec::new(),
        _ => select_bags(dataset, &options.start_bags)?,
    };
    // Exact reduction: at β = 1 the feasible set `0 ≤ w ≤ 1, Σw ≥ k` is
    // the single point w = 1, so the constrained problem IS identical
    // weights — solve it on that cheaper unconstrained path (and get the
    // same answer as WeightPolicy::Identical by construction).
    let policy = match options.policy {
        WeightPolicy::SumConstraint { beta } if beta >= 1.0 => WeightPolicy::Identical,
        other => other,
    };
    let param = policy.parameterization();
    let k = dataset.dim().expect("checked non-empty");

    // On mirror-closed data the start at P·x retraces the mirror image
    // of the start at x, so only the even instance of each pair starts.
    let stride = if mirror_closed(dataset, k) { 2 } else { 1 };
    let mut starts: Vec<Vec<f64>> = Vec::new();
    for &bag_index in &selected {
        for instance in dataset.positives()[bag_index].instances().step_by(stride) {
            starts.push(param.start_from(instance));
        }
    }
    if let Some(warm) = &options.warm_start {
        let expected = param.variable_count(k);
        if warm.len() != expected {
            return Err(MilError::InvalidPolicy(format!(
                "warm start has {} variables, this policy/dimension needs {expected}",
                warm.len()
            )));
        }
        // Appended last so bag-instance start indices stay stable.
        starts.push(warm.clone());
        milr_obs::counter!("milr_train_warm_starts_total").inc();
        // A cold round would ascend from every (even, on mirror-closed
        // data) instance of every positive bag; the warm round runs
        // `starts.len()` ascents (the warm point included).
        let cold: usize = dataset.positives().iter().map(|b| b.len() / stride).sum();
        milr_obs::counter!("milr_train_warm_rounds_saved_total")
            .add(cold.saturating_sub(starts.len()) as u64);
    }
    debug_assert!(!starts.is_empty(), "positive bags are never empty");

    let objective = DdObjective::new(dataset, param);

    let report = match policy {
        WeightPolicy::OriginalDd | WeightPolicy::Identical => {
            let solver_options = LbfgsOptions {
                max_iterations: options.max_iterations,
                gradient_tolerance: options.gradient_tolerance,
                ..LbfgsOptions::default()
            };
            multistart(&starts, options.threads, |x0| {
                lbfgs(&objective, x0, &solver_options)
            })
        }
        WeightPolicy::AlphaHack { .. } => {
            let solver_options = GradientDescentOptions {
                max_iterations: options.max_iterations,
                gradient_tolerance: options.gradient_tolerance,
                ..GradientDescentOptions::default()
            };
            multistart(&starts, options.threads, |x0| {
                gradient_descent(&objective, x0, &solver_options)
            })
        }
        WeightPolicy::SumConstraint { beta } => {
            let projection = SubsliceProjection {
                start: k,
                end: 2 * k,
                inner: BoxSumProjection::for_beta(k, beta),
            };
            let solver_options = ProjectedGradientOptions {
                max_iterations: options.max_iterations,
                step_tolerance: options.gradient_tolerance,
                ..ProjectedGradientOptions::default()
            };
            multistart(&starts, options.threads, |x0| {
                projected_gradient(&objective, &projection, x0, &solver_options)
            })
        }
    };

    let Solution { x, value, .. } = report.best;
    let point = x[..k].to_vec();
    let weights = param.weights_of(&x, k);
    milr_obs::counter!("milr_train_runs_total").inc();
    milr_obs::gauge!("milr_train_last_nldd").set(value);
    Ok(TrainResult {
        concept: Concept::new(point, weights),
        nldd: value,
        starts: starts.len(),
        converged_starts: report.converged_count,
        start_values: report.values,
        best_start: report.best_start,
        start_evaluations: report.evaluations,
        start_terminations: report.terminations,
        start_iterations: report.iterations,
        best_x: x,
    })
}

/// Whether every bag, positive and negative, is a run of mirror pairs
/// `[x₀, P·x₀, x₁, P·x₁, …]` under the bitwise rule the ranking store
/// pairs with. Then f(P·t, P·w) = f(t, w), and each odd start is the
/// mirror image of the even start before it.
fn mirror_closed(dataset: &MilDataset, dim: usize) -> bool {
    Mirror::for_dim(dim).is_some_and(|mirror| {
        dataset
            .positives()
            .iter()
            .chain(dataset.negatives())
            .all(|bag| mirror.closes(bag.instances()))
    })
}

fn select_bags(dataset: &MilDataset, selection: &StartBags) -> Result<Vec<usize>, MilError> {
    let n = dataset.positives().len();
    match selection {
        StartBags::All => Ok((0..n).collect()),
        StartBags::First(count) => {
            if *count == 0 {
                return Err(MilError::InvalidPolicy(
                    "start-bag subset must contain at least one bag".into(),
                ));
            }
            Ok((0..n.min(*count)).collect())
        }
        StartBags::Indices(indices) => {
            if indices.is_empty() {
                return Err(MilError::InvalidPolicy(
                    "start-bag subset must contain at least one bag".into(),
                ));
            }
            for &i in indices {
                if i >= n {
                    return Err(MilError::InvalidPolicy(format!(
                        "start-bag index {i} out of range (have {n} positive bags)"
                    )));
                }
            }
            Ok(indices.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::{Bag, BagLabel};

    fn bag(v: &[&[f32]]) -> Bag {
        Bag::new(v.iter().map(|s| s.to_vec()).collect()).unwrap()
    }

    /// Positive bags share an instance near (2, −1); distractor instances
    /// and negative bags are elsewhere.
    fn dataset() -> MilDataset {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[2.0, -1.0], &[8.0, 8.0]]), BagLabel::Positive)
            .unwrap();
        ds.push(bag(&[&[2.1, -0.9], &[-6.0, 3.0]]), BagLabel::Positive)
            .unwrap();
        ds.push(bag(&[&[1.9, -1.1], &[5.0, 5.0]]), BagLabel::Positive)
            .unwrap();
        ds.push(bag(&[&[0.0, 0.0], &[8.1, 8.1]]), BagLabel::Negative)
            .unwrap();
        ds.push(bag(&[&[-6.1, 3.1]]), BagLabel::Negative).unwrap();
        ds
    }

    #[test]
    fn identical_weights_finds_the_shared_concept() {
        let ds = dataset();
        let opts = TrainOptions {
            policy: WeightPolicy::Identical,
            ..Default::default()
        };
        let result = train(&ds, &opts).unwrap();
        let t = result.concept.point();
        assert!((t[0] - 2.0).abs() < 0.2, "t = {t:?}");
        assert!((t[1] + 1.0).abs() < 0.2, "t = {t:?}");
        assert_eq!(result.concept.weights(), &[1.0, 1.0]);
        assert_eq!(result.starts, 6);
    }

    #[test]
    fn original_dd_finds_the_shared_concept() {
        let ds = dataset();
        let opts = TrainOptions {
            policy: WeightPolicy::OriginalDd,
            ..Default::default()
        };
        let result = train(&ds, &opts).unwrap();
        let t = result.concept.point();
        assert!((t[0] - 2.0).abs() < 0.3, "t = {t:?}");
        assert!((t[1] + 1.0).abs() < 0.3, "t = {t:?}");
    }

    #[test]
    fn sum_constraint_respects_feasibility() {
        let ds = dataset();
        let beta = 0.5;
        let opts = TrainOptions {
            policy: WeightPolicy::SumConstraint { beta },
            ..Default::default()
        };
        let result = train(&ds, &opts).unwrap();
        let w = result.concept.weights();
        let sum: f64 = w.iter().sum();
        assert!(sum >= beta * w.len() as f64 - 1e-6, "Σw = {sum}");
        assert!(
            w.iter().all(|&wi| (-1e-9..=1.0 + 1e-9).contains(&wi)),
            "w = {w:?}"
        );
    }

    #[test]
    fn beta_one_behaves_like_identical_weights() {
        let ds = dataset();
        let constrained = train(
            &ds,
            &TrainOptions {
                policy: WeightPolicy::SumConstraint { beta: 1.0 },
                ..Default::default()
            },
        )
        .unwrap();
        for &w in constrained.concept.weights() {
            assert!((w - 1.0).abs() < 1e-6, "β=1 must pin every weight at 1");
        }
        let identical = train(
            &ds,
            &TrainOptions {
                policy: WeightPolicy::Identical,
                ..Default::default()
            },
        )
        .unwrap();
        let d: f64 = constrained
            .concept
            .point()
            .iter()
            .zip(identical.concept.point())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            d < 0.1,
            "β=1 concept should match identical-weights concept (Δ={d})"
        );
    }

    #[test]
    fn alpha_hack_trains() {
        let ds = dataset();
        let opts = TrainOptions {
            policy: WeightPolicy::AlphaHack { alpha: 50.0 },
            ..Default::default()
        };
        let result = train(&ds, &opts).unwrap();
        let t = result.concept.point();
        assert!((t[0] - 2.0).abs() < 0.5, "t = {t:?}");
    }

    #[test]
    fn concept_separates_positive_from_negative_bags() {
        let ds = dataset();
        for policy in [
            WeightPolicy::Identical,
            WeightPolicy::SumConstraint { beta: 0.5 },
        ] {
            let result = train(
                &ds,
                &TrainOptions {
                    policy,
                    ..Default::default()
                },
            )
            .unwrap();
            let max_pos = ds
                .positives()
                .iter()
                .map(|b| result.concept.bag_distance_sq(b))
                .fold(0.0f64, f64::max);
            let min_neg = ds
                .negatives()
                .iter()
                .map(|b| result.concept.bag_distance_sq(b))
                .fold(f64::INFINITY, f64::min);
            assert!(
                max_pos < min_neg,
                "{policy:?}: positive bags (≤{max_pos}) must rank above negative bags (≥{min_neg})"
            );
        }
    }

    #[test]
    fn start_subset_reduces_starts_and_stays_close() {
        let ds = dataset();
        let full = train(
            &ds,
            &TrainOptions {
                policy: WeightPolicy::Identical,
                ..Default::default()
            },
        )
        .unwrap();
        let subset = train(
            &ds,
            &TrainOptions {
                policy: WeightPolicy::Identical,
                start_bags: StartBags::First(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(subset.starts < full.starts);
        // The shared concept instance lives in every bag, so even one
        // bag's starts should find (roughly) the same optimum.
        let d: f64 = full
            .concept
            .point()
            .iter()
            .zip(subset.concept.point())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(d < 0.2, "subset concept drifted by {d}");
    }

    #[test]
    fn explicit_indices_selection() {
        let ds = dataset();
        let result = train(
            &ds,
            &TrainOptions {
                policy: WeightPolicy::Identical,
                start_bags: StartBags::Indices(vec![1, 2]),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.starts, 4); // bags 1 and 2 hold 2 instances each
    }

    #[test]
    fn out_of_range_indices_rejected() {
        let ds = dataset();
        let err = train(
            &ds,
            &TrainOptions {
                start_bags: StartBags::Indices(vec![7]),
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(MilError::InvalidPolicy(_))));
    }

    #[test]
    fn empty_selection_rejected() {
        let ds = dataset();
        for sel in [StartBags::First(0), StartBags::Indices(vec![])] {
            let err = train(
                &ds,
                &TrainOptions {
                    start_bags: sel,
                    ..Default::default()
                },
            );
            assert!(matches!(err, Err(MilError::InvalidPolicy(_))));
        }
    }

    #[test]
    fn no_positive_bags_rejected() {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[0.0]]), BagLabel::Negative).unwrap();
        let err = train(&ds, &TrainOptions::default());
        assert!(matches!(err, Err(MilError::NoPositiveBags)));
    }

    #[test]
    fn invalid_policy_parameters_rejected() {
        let ds = dataset();
        let err = train(
            &ds,
            &TrainOptions {
                policy: WeightPolicy::SumConstraint { beta: 2.0 },
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(MilError::InvalidPolicy(_))));
    }

    #[test]
    fn warm_start_from_previous_best_converges_cheaper() {
        let ds = dataset();
        let opts = TrainOptions {
            policy: WeightPolicy::OriginalDd,
            ..Default::default()
        };
        let cold = train(&ds, &opts).unwrap();
        // Re-train warm from the cold winner, with no new start bags:
        // one ascent from an already-converged point.
        let warm = train(
            &ds,
            &TrainOptions {
                warm_start: Some(cold.best_x.clone()),
                start_bags: StartBags::Indices(vec![]),
                ..opts.clone()
            },
        )
        .unwrap();
        assert_eq!(warm.starts, 1);
        assert!(
            (warm.nldd - cold.nldd).abs() < 1e-6,
            "warm must keep the optimum"
        );
        let cold_evals: usize = cold.start_evaluations.iter().sum();
        let warm_evals: usize = warm.start_evaluations.iter().sum();
        assert!(
            warm_evals < cold_evals,
            "warm ({warm_evals} evals) must beat cold ({cold_evals} evals)"
        );
    }

    #[test]
    fn warm_start_rides_along_reduced_start_bags() {
        let ds = dataset();
        let opts = TrainOptions {
            policy: WeightPolicy::Identical,
            ..Default::default()
        };
        let cold = train(&ds, &opts).unwrap();
        let warm = train(
            &ds,
            &TrainOptions {
                warm_start: Some(cold.best_x.clone()),
                start_bags: StartBags::Indices(vec![2]),
                ..opts
            },
        )
        .unwrap();
        // Bag 2 contributes 2 instance starts + 1 warm point.
        assert_eq!(warm.starts, 3);
        assert!(
            warm.nldd <= cold.nldd + 1e-9,
            "warm keeps at least the cold optimum"
        );
    }

    #[test]
    fn warm_start_dimension_mismatch_rejected() {
        let ds = dataset();
        let err = train(
            &ds,
            &TrainOptions {
                policy: WeightPolicy::Identical, // needs k = 2 variables
                warm_start: Some(vec![0.0, 0.0, 1.0, 1.0]),
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(MilError::InvalidPolicy(_))));
    }

    #[test]
    fn empty_start_bags_without_warm_start_still_rejected() {
        let ds = dataset();
        let err = train(
            &ds,
            &TrainOptions {
                start_bags: StartBags::Indices(vec![]),
                ..Default::default()
            },
        );
        assert!(matches!(err, Err(MilError::InvalidPolicy(_))));
    }

    /// A mirror-closed dataset of 3 × 3 instances, each followed by its
    /// `Mirror::apply` twin: three positive bags whose first pair lies
    /// near one (mirror-asymmetric) point, two negative bags whose first
    /// pair lies farther from it, plus a dozen closed bags to rank at
    /// growing spreads around it.
    fn closed_dataset() -> (MilDataset, Vec<Bag>) {
        let mirror = Mirror::new(3);
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let shared = [1.0f32, 2.0, -1.5, 0.5, 3.0, -2.0, 2.5, -0.5, 1.5];
        let mut closed_bag = |pairs: usize, spread: f32| {
            let mut instances = Vec::with_capacity(2 * pairs);
            for pair in 0..pairs {
                let x: Vec<f32> = if pair == 0 {
                    shared.iter().map(|&v| v + spread * noise()).collect()
                } else {
                    (0..9).map(|_| 8.0 * noise()).collect()
                };
                let twin = mirror.apply(&x);
                instances.extend([x, twin]);
            }
            Bag::new(instances).unwrap()
        };
        let mut ds = MilDataset::new();
        for _ in 0..3 {
            ds.push(closed_bag(3, 1.0), BagLabel::Positive).unwrap();
        }
        for _ in 0..2 {
            ds.push(closed_bag(2, 4.0), BagLabel::Negative).unwrap();
        }
        let ranked = (0..12).map(|i| closed_bag(2, 1.0 + i as f32)).collect();
        (ds, ranked)
    }

    /// The same bags with each bag's twins moved behind all the
    /// originals, `[x₀, x₁, …, P·x₀, P·x₁, …]`: the objective is the
    /// same multiset, but no bag closes, so every instance starts.
    fn reordered(ds: &MilDataset) -> MilDataset {
        let regroup = |bag: &Bag| {
            let (even, odd): (Vec<_>, Vec<_>) = bag
                .instances()
                .map(<[f32]>::to_vec)
                .enumerate()
                .partition(|(i, _)| i % 2 == 0);
            Bag::new(even.into_iter().chain(odd).map(|(_, x)| x).collect()).unwrap()
        };
        let mut out = MilDataset::new();
        for bag in ds.positives() {
            out.push(regroup(bag), BagLabel::Positive).unwrap();
        }
        for bag in ds.negatives() {
            out.push(regroup(bag), BagLabel::Negative).unwrap();
        }
        out
    }

    fn order(concept: &Concept, bags: &[Bag]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..bags.len()).collect();
        order.sort_by(|&a, &b| {
            concept
                .bag_distance_sq(&bags[a])
                .total_cmp(&concept.bag_distance_sq(&bags[b]))
        });
        order
    }

    /// Trains `policy` on the closed dataset and on its reordering and
    /// checks that the closed run used exactly half the starts, found
    /// the same best `−log DD` to 1e-12, and ranks in the same order.
    fn assert_twin_starts_redundant(policy: WeightPolicy) {
        let (closed, ranked) = closed_dataset();
        let full = reordered(&closed);
        let instances: usize = closed.positives().iter().map(Bag::len).sum();
        let label = format!("{policy:?}");
        let options = TrainOptions {
            policy,
            ..Default::default()
        };
        let half = train(&closed, &options).unwrap();
        let every = train(&full, &options).unwrap();
        assert_eq!(every.starts, instances, "{label}: every instance starts");
        assert_eq!(2 * half.starts, every.starts, "{label}: half the starts");
        let gap = (half.nldd - every.nldd).abs() / every.nldd.abs();
        assert!(
            gap <= 1e-12,
            "{label}: best -log DD {} vs {} ({gap:e} relative)",
            half.nldd,
            every.nldd
        );
        assert_eq!(
            order(&half.concept, &ranked),
            order(&every.concept, &ranked),
            "{label}: ranking order"
        );
    }

    #[test]
    fn mirror_closed_data_starts_from_even_twins_only() {
        for policy in [
            WeightPolicy::OriginalDd,
            WeightPolicy::Identical,
            WeightPolicy::AlphaHack { alpha: 50.0 },
            WeightPolicy::SumConstraint { beta: 0.5 },
        ] {
            assert_twin_starts_redundant(policy);
        }
    }

    #[test]
    fn one_flipped_bit_runs_every_start() {
        let (closed, _) = closed_dataset();
        let mut flipped = MilDataset::new();
        for bag in closed.positives() {
            flipped.push(bag.clone(), BagLabel::Positive).unwrap();
        }
        for (b, bag) in closed.negatives().iter().enumerate() {
            let mut instances: Vec<Vec<f32>> = bag.instances().map(<[f32]>::to_vec).collect();
            if b == 1 {
                instances[3][4] = f32::from_bits(instances[3][4].to_bits() ^ 1);
            }
            flipped
                .push(Bag::new(instances).unwrap(), BagLabel::Negative)
                .unwrap();
        }
        let options = TrainOptions {
            policy: WeightPolicy::Identical,
            ..Default::default()
        };
        let instances: usize = closed.positives().iter().map(Bag::len).sum();
        assert_eq!(train(&closed, &options).unwrap().starts, instances / 2);
        assert_eq!(train(&flipped, &options).unwrap().starts, instances);
    }

    #[test]
    fn training_is_deterministic() {
        let ds = dataset();
        let opts = TrainOptions {
            policy: WeightPolicy::OriginalDd,
            ..Default::default()
        };
        let a = train(&ds, &opts).unwrap();
        let b = train(&ds, &opts).unwrap();
        assert_eq!(a.concept, b.concept);
        assert_eq!(a.start_values, b.start_values);
        // The trace fields golden regressions pin down are equally
        // deterministic: same winner, same per-start evaluation spend.
        assert_eq!(a.best_start, b.best_start);
        assert_eq!(a.start_evaluations, b.start_evaluations);
        assert_eq!(a.start_evaluations.len(), a.starts);
        assert_eq!(a.start_values[a.best_start], a.nldd);
    }
}
