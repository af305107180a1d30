//! Bag classification on top of a trained concept.
//!
//! §2.1.2 frames the learning task as prediction: "given a new example
//! image (a bag of instance vectors), it should determine whether it
//! correspond to TRUE or FALSE. To allow for uncertainty, the system may
//! give a real value between 0 (FALSE) and 1 (TRUE)." The retrieval
//! system only *ranks* by distance; this module adds the classification
//! view: noisy-or bag probabilities thresholded at a cut fitted on the
//! training bags.

use crate::bag::{Bag, MilDataset};
use crate::concept::Concept;

/// A thresholded bag classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct BagClassifier {
    concept: Concept,
    threshold: f64,
}

impl BagClassifier {
    /// Fits the threshold that maximises *balanced accuracy* (mean of
    /// true-positive and true-negative rates) on the training dataset,
    /// scanning the midpoints between consecutive observed bag
    /// probabilities. With no negative bags the threshold falls back to
    /// the smallest positive probability (everything at least as
    /// confident is TRUE).
    pub fn fit(concept: Concept, dataset: &MilDataset) -> Self {
        let pos: Vec<f64> = dataset
            .positives()
            .iter()
            .map(|b| concept.bag_probability(b))
            .collect();
        let neg: Vec<f64> = dataset
            .negatives()
            .iter()
            .map(|b| concept.bag_probability(b))
            .collect();
        if pos.is_empty() {
            return Self {
                concept,
                threshold: 0.5,
            };
        }
        if neg.is_empty() {
            let min_pos = pos.iter().cloned().fold(f64::INFINITY, f64::min);
            return Self {
                concept,
                threshold: (min_pos - 1e-9).clamp(0.0, 1.0),
            };
        }
        // Candidate cuts: midpoints of the sorted pooled probabilities,
        // plus the extremes.
        let mut pooled: Vec<f64> = pos.iter().chain(&neg).copied().collect();
        pooled.sort_by(|a, b| a.partial_cmp(b).expect("probabilities are finite"));
        let mut candidates = vec![0.0, 1.0];
        for w in pooled.windows(2) {
            candidates.push(0.5 * (w[0] + w[1]));
        }
        let mut best = (0.5f64, f64::NEG_INFINITY);
        for &t in &candidates {
            let tpr = pos.iter().filter(|&&p| p >= t).count() as f64 / pos.len() as f64;
            let tnr = neg.iter().filter(|&&p| p < t).count() as f64 / neg.len() as f64;
            let balanced = 0.5 * (tpr + tnr);
            if balanced > best.1 {
                best = (t, balanced);
            }
        }
        Self {
            concept,
            threshold: best.0,
        }
    }

    /// The underlying concept.
    pub fn concept(&self) -> &Concept {
        &self.concept
    }

    /// The fitted/assigned probability threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The §2.1.2 soft output: noisy-or probability in `[0, 1]`.
    pub fn probability(&self, bag: &Bag) -> f64 {
        self.concept.bag_probability(bag)
    }

    /// Hard TRUE/FALSE decision.
    pub fn classify(&self, bag: &Bag) -> bool {
        self.probability(bag) >= self.threshold
    }
}

/// Confusion counts of a classifier over labelled bags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassificationReport {
    /// Positive bags classified TRUE.
    pub true_positives: usize,
    /// Negative bags classified TRUE.
    pub false_positives: usize,
    /// Negative bags classified FALSE.
    pub true_negatives: usize,
    /// Positive bags classified FALSE.
    pub false_negatives: usize,
}

impl ClassificationReport {
    /// Evaluates a classifier on a labelled dataset.
    pub fn evaluate(classifier: &BagClassifier, dataset: &MilDataset) -> Self {
        let mut report = Self::default();
        for bag in dataset.positives() {
            if classifier.classify(bag) {
                report.true_positives += 1;
            } else {
                report.false_negatives += 1;
            }
        }
        for bag in dataset.negatives() {
            if classifier.classify(bag) {
                report.false_positives += 1;
            } else {
                report.true_negatives += 1;
            }
        }
        report
    }

    /// Total bags evaluated.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Fraction classified correctly (0 for an empty report).
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.true_positives + self.true_negatives) as f64 / self.total() as f64
    }

    /// Precision of the TRUE class (1 when nothing was labelled TRUE).
    pub fn precision(&self) -> f64 {
        let predicted = self.true_positives + self.false_positives;
        if predicted == 0 {
            return 1.0;
        }
        self.true_positives as f64 / predicted as f64
    }

    /// Recall of the TRUE class (1 when there were no positives).
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            return 1.0;
        }
        self.true_positives as f64 / actual as f64
    }

    /// Harmonic mean of precision and recall (0 when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::BagLabel;

    fn bag(v: &[&[f32]]) -> Bag {
        Bag::new(v.iter().map(|s| s.to_vec()).collect()).unwrap()
    }

    /// Concept at the origin; positive bags have an instance near it.
    fn dataset() -> MilDataset {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[0.1, 0.0], &[5.0, 5.0]]), BagLabel::Positive)
            .unwrap();
        ds.push(bag(&[&[-0.2, 0.1], &[4.0, -4.0]]), BagLabel::Positive)
            .unwrap();
        ds.push(bag(&[&[3.0, 3.0]]), BagLabel::Negative).unwrap();
        ds.push(bag(&[&[-2.5, 2.5], &[2.0, -3.0]]), BagLabel::Negative)
            .unwrap();
        ds
    }

    fn concept() -> Concept {
        Concept::new(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn fitted_classifier_separates_training_data() {
        let ds = dataset();
        let clf = BagClassifier::fit(concept(), &ds);
        let report = ClassificationReport::evaluate(&clf, &ds);
        assert_eq!(
            report.accuracy(),
            1.0,
            "training data is separable: {report:?}"
        );
        assert_eq!(report.true_positives, 2);
        assert_eq!(report.true_negatives, 2);
    }

    #[test]
    fn probabilities_are_soft_outputs() {
        let ds = dataset();
        let clf = BagClassifier::fit(concept(), &ds);
        let p_pos = clf.probability(&ds.positives()[0]);
        let p_neg = clf.probability(&ds.negatives()[0]);
        assert!(p_pos > 0.9, "near-origin bag: {p_pos}");
        assert!(p_neg < 0.1, "far bag: {p_neg}");
        assert!((0.0..=1.0).contains(&clf.threshold()));
    }

    #[test]
    fn generalises_to_new_bags() {
        let clf = BagClassifier::fit(concept(), &dataset());
        assert!(clf.classify(&bag(&[&[0.05, -0.05], &[9.0, 9.0]])));
        assert!(!clf.classify(&bag(&[&[6.0, -6.0]])));
    }

    #[test]
    fn explicit_threshold_is_respected() {
        let with_threshold = |threshold| BagClassifier {
            concept: concept(),
            threshold,
        };
        let clf = with_threshold(0.999_999);
        // Even the near bag has probability slightly below 1 − 1e-6?
        // d ≈ 0.01 → p ≈ 1 − (1 − e^{−0.01})·… with a second far instance
        // p = 1 − (1−e^{−0.01})(1−ε) ≈ e^{−0.01} ≈ 0.990.
        assert!(!clf.classify(&bag(&[&[0.1, 0.0], &[5.0, 5.0]])));
        let permissive = with_threshold(0.01);
        assert!(permissive.classify(&bag(&[&[1.5, 0.0]])));
    }

    #[test]
    fn fit_without_negatives_accepts_all_positives() {
        let mut ds = MilDataset::new();
        ds.push(bag(&[&[0.1, 0.0]]), BagLabel::Positive).unwrap();
        ds.push(bag(&[&[0.5, 0.5]]), BagLabel::Positive).unwrap();
        let clf = BagClassifier::fit(concept(), &ds);
        for b in ds.positives() {
            assert!(clf.classify(b));
        }
    }

    #[test]
    fn report_metrics() {
        let r = ClassificationReport {
            true_positives: 3,
            false_positives: 1,
            true_negatives: 5,
            false_negatives: 1,
        };
        assert_eq!(r.total(), 10);
        assert!((r.accuracy() - 0.8).abs() < 1e-12);
        assert!((r.precision() - 0.75).abs() < 1e-12);
        assert!((r.recall() - 0.75).abs() < 1e-12);
        assert!((r.f1() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_report_metrics() {
        let empty = ClassificationReport::default();
        assert_eq!(empty.accuracy(), 0.0);
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        let never_true = ClassificationReport {
            false_negatives: 2,
            true_negatives: 3,
            ..Default::default()
        };
        assert_eq!(never_true.precision(), 1.0);
        assert_eq!(never_true.recall(), 0.0);
        assert_eq!(never_true.f1(), 0.0);
    }
}
