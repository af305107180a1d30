//! Automatic β selection — the §5 future-work item made concrete.
//!
//! "The β value in the inequality constraint affects performance very
//! much… As another future direction, one might want to study how to
//! choose β automatically to get optimal performance." The potential
//! training set already gives the system labelled data it may consult
//! (that is how feedback is simulated), so β can be validated on it:
//! train once per candidate β, rank the pool, and keep the β whose
//! ranking scores best.

use milr_mil::WeightPolicy;

use crate::config::RetrievalConfig;
use crate::database::RetrievalDatabase;
use crate::error::CoreError;
use crate::eval;
use crate::query::QuerySession;

/// Outcome of a β search.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaSelection {
    /// The winning β.
    pub best_beta: f64,
    /// Pool average precision per candidate, in candidate order.
    pub scores: Vec<(f64, f64)>,
}

/// Validates each candidate β on the potential-training pool and returns
/// the best one (ties break toward the *larger* β — stronger
/// regularisation, following the §3.6 generalisation argument).
///
/// Each candidate costs one single-round training run; the caller then
/// runs the full feedback protocol with the winner.
///
/// # Errors
/// * [`CoreError::Config`] if `candidates` is empty or contains an
///   invalid β.
/// * Training and setup failures propagate unchanged.
pub fn select_beta(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    target: usize,
    pool: &[usize],
    candidates: &[f64],
) -> Result<BetaSelection, CoreError> {
    if candidates.is_empty() {
        return Err(CoreError::Config(
            "beta selection needs at least one candidate".into(),
        ));
    }
    let mut scores = Vec::with_capacity(candidates.len());
    let mut best = (f64::NAN, f64::NEG_INFINITY);
    for &beta in candidates {
        let candidate_config = RetrievalConfig {
            policy: WeightPolicy::SumConstraint { beta },
            feedback_rounds: 1,
            ..config.clone()
        };
        candidate_config.validate().map_err(CoreError::Config)?;
        let mut session = QuerySession::builder(db)
            .config(&candidate_config)
            .target(target)
            .pool(pool.to_vec())
            .build()?;
        let ranking = session.run_round()?;
        let relevant = eval::relevance(&ranking, db.labels(), target);
        let score = eval::average_precision(&relevant);
        scores.push((beta, score));
        // Ties break toward larger beta (>=), preferring regularisation.
        if score >= best.1 {
            best = (beta, score);
        }
    }
    Ok(BetaSelection {
        best_beta: best.0,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_imgproc::{GrayImage, RegionLayout};

    /// Category 0 = bright vertical band; category 1 = horizontal ramp.
    fn image(category: usize, variant: usize) -> GrayImage {
        GrayImage::from_fn(64, 48, move |x, y| {
            let noise = ((x * (3 + variant) + y * (7 + 2 * variant)) % 31) as f32;
            match category {
                0 => (if (24..40).contains(&x) { 200.0 } else { 60.0 }) + noise,
                _ => (x as f32 / 63.0) * 180.0 + 20.0 + noise,
            }
        })
        .unwrap()
    }

    fn config() -> RetrievalConfig {
        RetrievalConfig {
            resolution: 5,
            layout: RegionLayout::Small,
            threads: 1,
            max_iterations: 25,
            initial_positives: 2,
            initial_negatives: 2,
            ..RetrievalConfig::default()
        }
    }

    fn database() -> RetrievalDatabase {
        let mut images = Vec::new();
        for v in 0..6 {
            images.push((image(0, v), 0));
        }
        for v in 0..6 {
            images.push((image(1, v), 1));
        }
        RetrievalDatabase::from_labelled_images(images, &config()).unwrap()
    }

    #[test]
    fn selects_a_candidate_and_reports_all_scores() {
        let db = database();
        let cfg = config();
        let pool: Vec<usize> = (0..12).collect();
        let candidates = [0.25, 0.5, 1.0];
        let selection = select_beta(&db, &cfg, 0, &pool, &candidates).unwrap();
        assert_eq!(selection.scores.len(), 3);
        assert!(candidates.contains(&selection.best_beta));
        // The winner's score is the maximum.
        let max = selection
            .scores
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::NEG_INFINITY, f64::max);
        let winner_score = selection
            .scores
            .iter()
            .find(|&&(b, _)| b == selection.best_beta)
            .unwrap()
            .1;
        assert_eq!(winner_score, max);
        // The task is easy: the winner should rank the pool well.
        assert!(max > 0.7, "scores: {:?}", selection.scores);
    }

    #[test]
    fn ties_break_toward_larger_beta() {
        // With a single candidate duplicated, the later (equal) one wins —
        // i.e. scanning keeps >= updates.
        let db = database();
        let cfg = config();
        let pool: Vec<usize> = (0..12).collect();
        let selection = select_beta(&db, &cfg, 0, &pool, &[0.5, 0.5]).unwrap();
        assert_eq!(selection.best_beta, 0.5);
        assert_eq!(selection.scores[0].1, selection.scores[1].1);
    }

    #[test]
    fn empty_candidates_rejected() {
        let db = database();
        let cfg = config();
        assert!(matches!(
            select_beta(&db, &cfg, 0, &[0, 6], &[]),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn invalid_beta_rejected() {
        let db = database();
        let cfg = config();
        assert!(matches!(
            select_beta(&db, &cfg, 0, &[0, 6], &[1.5]),
            Err(CoreError::Config(_))
        ));
    }
}
