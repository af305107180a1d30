#![warn(missing_docs)]

//! # milr-bench
//!
//! Shared infrastructure for the experiment harness
//! (`src/bin/experiments/`) that regenerates every table and figure of
//! the paper. Performance is measured end to end by the benchmark
//! package in `src/bin/benchmark/`.
//!
//! The harness follows the paper's protocol exactly (§4.1): stratified
//! 20% potential-training pool, 5 positive + 5 negative initial examples,
//! three training rounds promoting the top-5 false positives between
//! rounds, final scoring on the held-out test set.

use milr_core::{eval, QuerySession, RetrievalConfig, RetrievalDatabase};
use milr_synth::{DatabaseSplit, ObjectDatabase, SceneDatabase};

/// Outcome of one full query run (training rounds + test ranking).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Per-test-rank relevance flags.
    pub relevant: Vec<bool>,
    /// Recall after each retrieval.
    pub recall: Vec<f64>,
    /// `(recall, precision)` pairs.
    pub pr: Vec<(f64, f64)>,
    /// The §4.3 band metric: mean precision for recall ∈ [0.3, 0.4].
    pub band_precision: f64,
    /// Standard average precision.
    pub average_precision: f64,
    /// Normalised area under the recall curve.
    pub recall_auc: f64,
    /// Base rate (random-retrieval precision level).
    pub base_rate: f64,
    /// Final `−log DD` of the trained concept.
    pub nldd: f64,
}

/// Runs the full query protocol for one target category.
///
/// # Panics
/// Panics on configuration or training errors — experiments should fail
/// loudly.
pub fn run_query(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    target: usize,
    split: &DatabaseSplit,
) -> QueryOutcome {
    let mut session = QuerySession::builder(db)
        .config(config)
        .target(target)
        .pool(split.pool.clone())
        .test(split.test.clone())
        .build()
        .expect("query setup failed");
    let ranking = session.run().expect("query run failed");
    let relevant = eval::relevance(&ranking, db.labels(), target);
    outcome_from_relevance(relevant, session.nldd())
}

/// Builds a [`QueryOutcome`] from relevance flags.
pub fn outcome_from_relevance(relevant: Vec<bool>, nldd: f64) -> QueryOutcome {
    let recall = eval::recall_curve(&relevant);
    let pr = eval::precision_recall_curve(&relevant);
    QueryOutcome {
        band_precision: eval::mean_precision_in_band(&pr, 0.3, 0.4),
        average_precision: eval::average_precision(&relevant),
        recall_auc: eval::recall_auc(&relevant),
        base_rate: eval::random_precision_level(&relevant),
        recall,
        pr,
        relevant,
        nldd,
    }
}

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale databases (500 scenes, 228 objects).
    Full,
    /// Reduced databases for fast smoke runs (~5× smaller scenes).
    Quick,
}

impl Scale {
    /// Scene images per category.
    pub fn scenes_per_category(self) -> usize {
        match self {
            Self::Full => 100,
            Self::Quick => 20,
        }
    }

    /// Object images per category.
    pub fn objects_per_category(self) -> usize {
        match self {
            Self::Full => 12,
            Self::Quick => 8,
        }
    }
}

/// Builds the synthetic scene database at a given scale and seed.
pub fn scene_database(scale: Scale, seed: u64) -> SceneDatabase {
    SceneDatabase::builder()
        .images_per_category(scale.scenes_per_category())
        .seed(seed)
        .build()
}

/// Builds the synthetic object database at a given scale and seed.
pub fn object_database(scale: Scale, seed: u64) -> ObjectDatabase {
    ObjectDatabase::builder()
        .images_per_category(scale.objects_per_category())
        .seed(seed)
        .build()
}

/// Down-samples a curve to at most `points` evenly spaced entries for
/// text output (always keeping the final entry).
pub fn downsample<T: Copy>(curve: &[T], points: usize) -> Vec<(usize, T)> {
    if curve.is_empty() || points == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(points.min(curve.len()));
    let step = (curve.len() as f64 / points as f64).max(1.0);
    let mut next = 0.0f64;
    let mut i = 0usize;
    while i < curve.len() {
        out.push((i, curve[i]));
        next += step;
        i = next.round() as usize;
    }
    let last = curve.len() - 1;
    if out.last().map(|&(i, _)| i) != Some(last) {
        out.push((last, curve[last]));
    }
    out
}

/// Formats a recall curve as a text table (`#retrieved → recall`).
pub fn format_recall_table(outcomes: &[(&str, &QueryOutcome)], points: usize) -> String {
    let mut s = String::new();
    s.push_str("  #ret ");
    for (label, _) in outcomes {
        s.push_str(&format!("| {label:>24} "));
    }
    s.push('\n');
    let len = outcomes
        .iter()
        .map(|(_, o)| o.recall.len())
        .max()
        .unwrap_or(0);
    if len == 0 {
        return s;
    }
    let indices: Vec<usize> = downsample(&(0..len).collect::<Vec<_>>(), points)
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    for &i in &indices {
        s.push_str(&format!("  {:>4} ", i + 1));
        for (_, o) in outcomes {
            match o.recall.get(i) {
                Some(r) => s.push_str(&format!("| {r:>24.3} ")),
                None => s.push_str(&format!("| {:>24} ", "-")),
            }
        }
        s.push('\n');
    }
    s
}

/// Formats precision at fixed recall levels as a text table.
pub fn format_pr_table(outcomes: &[(&str, &QueryOutcome)]) -> String {
    let levels = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let mut s = String::new();
    s.push_str("  recall ");
    for (label, _) in outcomes {
        s.push_str(&format!("| {label:>24} "));
    }
    s.push('\n');
    for &level in &levels {
        s.push_str(&format!("  {level:>6.1} "));
        for (_, o) in outcomes {
            let p = precision_at_recall(&o.pr, level);
            match p {
                Some(p) => s.push_str(&format!("| {p:>24.3} ")),
                None => s.push_str(&format!("| {:>24} ", "-")),
            }
        }
        s.push('\n');
    }
    s
}

/// Precision at the first curve point whose recall reaches `level`.
pub fn precision_at_recall(pr: &[(f64, f64)], level: f64) -> Option<f64> {
    pr.iter()
        .find(|&&(r, _)| r >= level - 1e-12)
        .map(|&(_, p)| p)
}

/// Mean and (population) standard deviation of a sample.
///
/// Returns `(0, 0)` for an empty slice.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(flags: &[bool]) -> QueryOutcome {
        outcome_from_relevance(flags.to_vec(), 1.0)
    }

    #[test]
    fn outcome_summaries_are_consistent() {
        let o = outcome(&[true, true, false, false]);
        assert_eq!(o.recall, vec![0.5, 1.0, 1.0, 1.0]);
        assert!((o.average_precision - 1.0).abs() < 1e-12);
        assert!((o.base_rate - 0.5).abs() < 1e-12);
        assert!(o.recall_auc > 0.8);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let data: Vec<usize> = (0..100).collect();
        let ds = downsample(&data, 10);
        assert_eq!(ds.first().unwrap().0, 0);
        assert_eq!(ds.last().unwrap().0, 99);
        assert!(ds.len() <= 12);
    }

    #[test]
    fn downsample_short_input_passthrough() {
        let data = vec![1.0, 2.0];
        let ds = downsample(&data, 10);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn precision_at_recall_finds_first_crossing() {
        let pr = vec![(0.1, 1.0), (0.3, 0.7), (0.6, 0.5)];
        assert_eq!(precision_at_recall(&pr, 0.3), Some(0.7));
        assert_eq!(precision_at_recall(&pr, 0.4), Some(0.5));
        assert_eq!(precision_at_recall(&pr, 0.7), None);
    }

    #[test]
    fn tables_render_all_series() {
        let a = outcome(&[true, false, true, false]);
        let b = outcome(&[false, true, false, true]);
        let recall = format_recall_table(&[("A", &a), ("B", &b)], 4);
        assert!(recall.contains('A') && recall.contains('B'));
        let pr = format_pr_table(&[("A", &a), ("B", &b)]);
        assert!(pr.lines().count() > 5);
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        let (m1, s1) = mean_std(&[3.5]);
        assert_eq!((m1, s1), (3.5, 0.0));
    }

    #[test]
    fn recall_table_prints_actual_recall_values() {
        let o = outcome(&[true, true, false, false]);
        let table = format_recall_table(&[("run", &o)], 4);
        // Recall after 2 retrievals is 1.000; after 1 it is 0.500.
        assert!(table.contains("0.500"), "table: {table}");
        assert!(table.contains("1.000"), "table: {table}");
    }

    #[test]
    fn pr_table_reports_precision_at_each_level() {
        // Hits at ranks 1 and 3 of 4: recall 0.5 @ precision 1.0, recall
        // 1.0 @ precision 2/3.
        let o = outcome(&[true, false, true, false]);
        let table = format_pr_table(&[("run", &o)]);
        assert!(table.contains("1.000"), "table: {table}");
        assert!(table.contains("0.667"), "table: {table}");
    }

    #[test]
    fn scales_differ() {
        assert!(Scale::Full.scenes_per_category() > Scale::Quick.scenes_per_category());
        assert_eq!(Scale::Full.objects_per_category() * 19, 228);
    }
}
