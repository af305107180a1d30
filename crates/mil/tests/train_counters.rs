//! Regression pin for the multistart budget counter: a start whose
//! solver stops at `max_iterations` is reported as capped, per start in
//! [`milr_mil::TrainResult`] and in `milr_multistart_capped_total`.
//!
//! This lives in its own integration binary, with a single test, so no
//! other test trains concurrently and moves the process-global counter.

use milr_mil::{train, Bag, BagLabel, MilDataset, TrainOptions, WeightPolicy};
use milr_optim::Termination;

fn counter(name: &str) -> u64 {
    milr_obs::global().counter(name).get()
}

#[test]
fn one_iteration_budget_caps_every_start() {
    let bag = |v: &[&[f32]]| Bag::new(v.iter().map(|s| s.to_vec()).collect()).unwrap();
    let mut ds = MilDataset::new();
    ds.push(bag(&[&[2.0, -1.0], &[8.0, 8.0]]), BagLabel::Positive)
        .unwrap();
    ds.push(bag(&[&[2.1, -0.9], &[-6.0, 3.0]]), BagLabel::Positive)
        .unwrap();
    ds.push(bag(&[&[0.0, 0.0], &[8.1, 8.1]]), BagLabel::Negative)
        .unwrap();
    for policy in [
        WeightPolicy::Identical,
        WeightPolicy::SumConstraint { beta: 0.5 },
    ] {
        let before = counter("milr_multistart_capped_total");
        let result = train(
            &ds,
            &TrainOptions {
                policy,
                max_iterations: 1,
                threads: 1,
                ..TrainOptions::default()
            },
        )
        .unwrap();
        assert_eq!(result.starts, 4);
        assert_eq!(
            result.start_terminations,
            vec![Termination::MaxIterations; result.starts],
            "{policy:?}"
        );
        assert_eq!(
            result.start_iterations,
            vec![1; result.starts],
            "{policy:?}"
        );
        assert_eq!(result.converged_starts, 0);
        assert_eq!(
            counter("milr_multistart_capped_total") - before,
            result.starts as u64,
            "{policy:?}"
        );
    }
}
