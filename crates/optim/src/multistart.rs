//! Parallel multi-start driver.
//!
//! The Diverse Density maximum is sought by "starting from every instance
//! from every positive bag and performing gradient ascent from each one"
//! (§2.2.2) — an embarrassingly parallel workload. Starts are distributed
//! over the [`crate::pool`] scoped workers, which pull indices from an
//! atomic counter; the best (lowest, since we minimise) solution wins.
//! Ties are broken by start index so results are deterministic regardless
//! of thread interleaving.

use crate::pool;
use crate::problem::{Solution, Termination};

/// Outcome of a multi-start run.
#[derive(Debug, Clone)]
pub struct MultistartReport {
    /// The best solution across all starts.
    pub best: Solution,
    /// Index (into the starts slice) of the winning start.
    pub best_start: usize,
    /// Final objective value reached from each start, in start order.
    pub values: Vec<f64>,
    /// Objective evaluations spent by each start, in start order — the
    /// per-start cost profile golden regression traces pin down.
    pub evaluations: Vec<usize>,
    /// Number of starts that reported convergence.
    pub converged_count: usize,
    /// Why each start's solver stopped, in start order.
    pub terminations: Vec<Termination>,
    /// Outer iterations spent by each start, in start order.
    pub iterations: Vec<usize>,
}

/// Runs `solve` from every start point in parallel and returns the best
/// (minimum-value) solution.
///
/// `solve` is any closure mapping a start point to a [`Solution`] — the
/// callers plug in L-BFGS, projected gradient, or steepest descent.
/// `threads = 0` selects the machine's available parallelism.
///
/// # Panics
/// Panics if `starts` is empty.
pub fn multistart<F>(starts: &[Vec<f64>], threads: usize, solve: F) -> MultistartReport
where
    F: Fn(&[f64]) -> Solution + Sync,
{
    assert!(
        !starts.is_empty(),
        "multistart requires at least one start point"
    );
    let _span = milr_obs::span!("optim.multistart");
    let solutions = pool::run_indexed(starts.len(), threads, |i| solve(&starts[i]));
    let report = summarize(solutions);
    milr_obs::counter!("milr_multistart_starts_total").add(starts.len() as u64);
    milr_obs::counter!("milr_multistart_converged_total").add(report.converged_count as u64);
    milr_obs::counter!("milr_multistart_capped_total").add(
        report
            .terminations
            .iter()
            .filter(|&&t| t == Termination::MaxIterations)
            .count() as u64,
    );
    milr_obs::counter!("milr_multistart_evaluations_total")
        .add(report.evaluations.iter().map(|&e| e as u64).sum());
    report
}

fn summarize(solutions: Vec<Solution>) -> MultistartReport {
    let values: Vec<f64> = solutions.iter().map(|s| s.value).collect();
    let evaluations: Vec<usize> = solutions.iter().map(|s| s.evaluations).collect();
    let terminations: Vec<Termination> = solutions.iter().map(|s| s.termination).collect();
    let iterations: Vec<usize> = solutions.iter().map(|s| s.iterations).collect();
    let converged_count = terminations.iter().filter(|t| t.converged()).count();
    let best_start = values
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("objective values must not be NaN"))
        .map(|(i, _)| i)
        .expect("at least one start");
    let best = solutions[best_start].clone();
    MultistartReport {
        best,
        best_start,
        values,
        evaluations,
        converged_count,
        terminations,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbfgs::{lbfgs, LbfgsOptions};
    use crate::problem::{Objective, Termination};

    /// Double-well objective: minima at x = ±1 with f(−1) = 0 (global)
    /// and f(+1) = 0.5 (local).
    struct DoubleWell;
    impl Objective for DoubleWell {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, x: &[f64]) -> f64 {
            let t = x[0];
            (t * t - 1.0).powi(2) + 0.25 * (t + 1.0).powi(2)
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            let t = x[0];
            g[0] = 4.0 * t * (t * t - 1.0) + 0.5 * (t + 1.0);
        }
    }

    fn solve_double_well(start: &[f64]) -> Solution {
        lbfgs(&DoubleWell, start, &LbfgsOptions::default())
    }

    #[test]
    fn finds_global_minimum_from_multiple_starts() {
        let starts = vec![vec![2.0], vec![-2.0], vec![0.4], vec![-0.4]];
        let report = multistart(&starts, 2, solve_double_well);
        assert!(
            report.best.x[0] < 0.0,
            "best minimum should be the left well, got {:?}",
            report.best.x
        );
        assert_eq!(report.values.len(), 4);
    }

    #[test]
    fn single_start_works_sequentially() {
        let starts = vec![vec![3.0]];
        let report = multistart(&starts, 1, solve_double_well);
        assert_eq!(report.best_start, 0);
        assert!(report.best.termination.converged());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let starts: Vec<Vec<f64>> = (0..16).map(|i| vec![-3.0 + 0.4 * i as f64]).collect();
        let seq = multistart(&starts, 1, solve_double_well);
        let par = multistart(&starts, 4, solve_double_well);
        assert_eq!(seq.best_start, par.best_start);
        assert_eq!(seq.values, par.values);
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        let starts = vec![vec![1.5], vec![-1.5]];
        let report = multistart(&starts, 0, solve_double_well);
        assert_eq!(report.values.len(), 2);
    }

    #[test]
    fn converged_count_reflects_terminations() {
        let starts = vec![vec![0.9], vec![-0.9]];
        let report = multistart(&starts, 2, |s| {
            let mut sol = solve_double_well(s);
            if s[0] > 0.0 {
                sol.termination = Termination::MaxIterations;
            }
            sol
        });
        assert_eq!(report.converged_count, 1);
        assert_eq!(report.terminations[0], Termination::MaxIterations);
        assert!(report.terminations[1].converged());
        assert_eq!(report.iterations.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn empty_starts_rejected() {
        let _ = multistart(&[], 1, solve_double_well);
    }

    #[test]
    fn tie_breaks_by_start_index() {
        // Identical starts → identical values; the first index must win.
        let starts = vec![vec![2.0], vec![2.0], vec![2.0]];
        let report = multistart(&starts, 3, solve_double_well);
        assert_eq!(report.best_start, 0);
    }
}
