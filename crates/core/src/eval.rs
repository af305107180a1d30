//! Retrieval evaluation: recall curves, precision-recall curves, and the
//! paper's band-precision summary metric.
//!
//! *Precision* after retrieving `n` images is the fraction of those `n`
//! that are correct; *recall* is the fraction of all correct images
//! retrieved so far (§1.2, §4.1). "A completely random retrieval of
//! images would result in a recall curve as a 45-degree line … \[and\] a
//! precision-recall curve as a flat line at a level indicating the
//! percentage of correct images in the database."

/// Marks each ranked item as relevant (`true`) or not, given the ranking
/// and per-index labels.
///
/// # Panics
/// Panics if a ranked index has no label.
pub fn relevance(ranking: &[(usize, f64)], labels: &[usize], target: usize) -> Vec<bool> {
    ranking.iter().map(|&(i, _)| labels[i] == target).collect()
}

/// Recall after each retrieval: `recall[n] = hits(1..=n+1) / total_relevant`.
///
/// Returns an empty vector when there are no relevant items at all (the
/// curve is undefined).
///
/// # Examples
/// ```
/// use milr_core::eval::{precision_recall_curve, recall_curve};
///
/// let relevant = vec![true, false, true, false];
/// assert_eq!(recall_curve(&relevant), vec![0.5, 0.5, 1.0, 1.0]);
/// let pr = precision_recall_curve(&relevant);
/// assert_eq!(pr[0], (0.5, 1.0)); // first hit: recall 0.5, precision 1.0
/// ```
pub fn recall_curve(relevant: &[bool]) -> Vec<f64> {
    let total = relevant.iter().filter(|&&r| r).count();
    if total == 0 {
        return Vec::new();
    }
    let mut hits = 0usize;
    relevant
        .iter()
        .map(|&r| {
            if r {
                hits += 1;
            }
            hits as f64 / total as f64
        })
        .collect()
}

/// Precision after each retrieval: `precision[n] = hits(1..=n+1) / (n+1)`.
pub(crate) fn precision_curve(relevant: &[bool]) -> Vec<f64> {
    let mut hits = 0usize;
    relevant
        .iter()
        .enumerate()
        .map(|(n, &r)| {
            if r {
                hits += 1;
            }
            hits as f64 / (n + 1) as f64
        })
        .collect()
}

/// The precision-recall curve as `(recall, precision)` pairs, one per
/// retrieved image. Empty when no item is relevant.
pub fn precision_recall_curve(relevant: &[bool]) -> Vec<(f64, f64)> {
    let recall = recall_curve(relevant);
    let precision = precision_curve(relevant);
    recall.into_iter().zip(precision).collect()
}

/// Mean precision over points whose recall lies in `[lo, hi]` — the
/// summary metric of Fig. 4-22 ("the average precision value for recall
/// between 0.3 and 0.4").
///
/// Falls back to the precision at the first point with recall ≥ `lo`
/// when the band is empty, and to the final precision when recall never
/// reaches `lo`. Returns 0 for an empty curve.
pub fn mean_precision_in_band(curve: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    if curve.is_empty() {
        return 0.0;
    }
    let in_band: Vec<f64> = curve
        .iter()
        .filter(|&&(r, _)| r >= lo && r <= hi)
        .map(|&(_, p)| p)
        .collect();
    if !in_band.is_empty() {
        return in_band.iter().sum::<f64>() / in_band.len() as f64;
    }
    curve
        .iter()
        .find(|&&(r, _)| r >= lo)
        .map_or_else(|| curve.last().expect("non-empty").1, |&(_, p)| p)
}

/// Average precision: the mean of precision values at each relevant hit —
/// the standard single-number ranking summary.
pub fn average_precision(relevant: &[bool]) -> f64 {
    let mut hits = 0usize;
    let mut sum = 0.0f64;
    for (n, &r) in relevant.iter().enumerate() {
        if r {
            hits += 1;
            sum += hits as f64 / (n + 1) as f64;
        }
    }
    if hits == 0 {
        0.0
    } else {
        sum / hits as f64
    }
}

/// Area under the recall curve, normalised to `[0, 1]`; random ranking
/// gives ≈ 0.5, perfect ranking approaches 1.
pub fn recall_auc(relevant: &[bool]) -> f64 {
    let curve = recall_curve(relevant);
    if curve.is_empty() {
        return 0.0;
    }
    curve.iter().sum::<f64>() / curve.len() as f64
}

/// The expected flat precision level of random retrieval: the fraction
/// of relevant items in the candidate pool.
pub fn random_precision_level(relevant: &[bool]) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    relevant.iter().filter(|&&r| r).count() as f64 / relevant.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relevance_maps_labels() {
        let ranking = vec![(2usize, 0.1), (0, 0.2), (1, 0.3)];
        let labels = vec![7, 9, 7];
        assert_eq!(relevance(&ranking, &labels, 7), vec![true, true, false]);
    }

    #[test]
    fn perfect_ranking_curves() {
        let relevant = vec![true, true, false, false];
        assert_eq!(recall_curve(&relevant), vec![0.5, 1.0, 1.0, 1.0]);
        assert_eq!(precision_curve(&relevant), vec![1.0, 1.0, 2.0 / 3.0, 0.5]);
        assert!((average_precision(&relevant) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_ranking_curves() {
        let relevant = vec![false, false, true, true];
        assert_eq!(recall_curve(&relevant), vec![0.0, 0.0, 0.5, 1.0]);
        let ap = average_precision(&relevant);
        // precision at hits: 1/3 and 2/4 → AP = (1/3 + 1/2)/2.
        assert!((ap - (1.0 / 3.0 + 0.5) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn misleading_first_miss_recovers() {
        // Fig 4-7: first image wrong, next 7 right — precision dives to 0
        // then climbs back near 0.9.
        let mut relevant = vec![false];
        relevant.extend(std::iter::repeat_n(true, 7));
        let p = precision_curve(&relevant);
        assert_eq!(p[0], 0.0);
        assert!((p[7] - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn no_relevant_items_yield_empty_curves() {
        let relevant = vec![false, false];
        assert!(recall_curve(&relevant).is_empty());
        assert!(precision_recall_curve(&relevant).is_empty());
        assert_eq!(average_precision(&relevant), 0.0);
        assert_eq!(recall_auc(&relevant), 0.0);
    }

    #[test]
    fn band_precision_averages_inside_the_band() {
        let curve = vec![(0.1, 1.0), (0.3, 0.8), (0.35, 0.6), (0.5, 0.4)];
        let m = mean_precision_in_band(&curve, 0.3, 0.4);
        assert!((m - 0.7).abs() < 1e-12);
    }

    #[test]
    fn band_precision_falls_back_to_next_point() {
        // No sample lands inside [0.3, 0.4]; the first point beyond it
        // stands in.
        let curve = vec![(0.2, 0.9), (0.5, 0.5)];
        assert!((mean_precision_in_band(&curve, 0.3, 0.4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn band_precision_falls_back_to_last_point() {
        let curve = vec![(0.1, 0.9), (0.2, 0.7)];
        assert!((mean_precision_in_band(&curve, 0.3, 0.4) - 0.7).abs() < 1e-12);
        assert_eq!(mean_precision_in_band(&[], 0.3, 0.4), 0.0);
    }

    #[test]
    fn recall_auc_separates_good_from_random() {
        let good = vec![true, true, true, false, false, false];
        let bad = vec![false, false, false, true, true, true];
        assert!(recall_auc(&good) > 0.8);
        assert!(recall_auc(&bad) < 0.5);
        assert!(recall_auc(&good) > recall_auc(&bad));
    }

    #[test]
    fn random_precision_level_is_the_base_rate() {
        let relevant = vec![true, false, false, false, true];
        assert!((random_precision_level(&relevant) - 0.4).abs() < 1e-12);
        assert_eq!(random_precision_level(&[]), 0.0);
    }

    #[test]
    fn precision_recall_pairs_align() {
        let relevant = vec![true, false, true];
        let pr = precision_recall_curve(&relevant);
        assert_eq!(pr.len(), 3);
        assert_eq!(pr[0], (0.5, 1.0));
        assert_eq!(pr[2], (1.0, 2.0 / 3.0));
    }
}
