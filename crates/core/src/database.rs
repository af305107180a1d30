//! The preprocessed retrieval database.
//!
//! Preprocessing (§3.5) happens once per collection: every image becomes
//! a [`Bag`] of normalised region features. Queries then only touch bags,
//! never pixels, so ranking the whole database against a trained concept
//! is a pure vector workload.
//!
//! Ranking has one entry point, [`RetrievalDatabase::rank`], driven by a
//! [`RankRequest`]: the request names the candidate [`RankScope`], an
//! optional `top_k` bound, and the worker-thread count for the fan-out.
//! An unbounded request scores all candidates in parallel over the
//! `milr-optim` scoped-thread pool with a deterministic index-ordered
//! merge; a bounded request runs the pruned top-k scan, where every bag
//! is scored against the current worst `(distance, index)` pair so its
//! instances are abandoned (partial-distance pruning) as soon as they
//! cannot enter the top `k`. Neither path changes any output: parallel
//! merge order and pruning are both exact (see
//! `Concept::instance_distance_sq_below` for the invariant), which the
//! workspace property tests pin down.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use milr_imgproc::GrayImage;
use milr_mil::{Bag, BagAggregator, Concept};
use milr_optim::pool;

use crate::config::RetrievalConfig;
use crate::error::CoreError;
use crate::features::image_to_bag;

/// A ranking: image indices with their (squared) concept distances,
/// ascending.
pub type Ranking = Vec<(usize, f64)>;

/// The candidate set a [`RankRequest`] draws from.
///
/// `Pool` and `Test` only exist inside a `QuerySession`, which resolves
/// them to its own index sets; handing them to
/// [`RetrievalDatabase::rank`] directly fails with
/// [`CoreError::InvalidScope`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RankScope {
    /// Every image in the database (or, for sharded stores, every live
    /// image), in index order.
    #[default]
    All,
    /// The session's candidate pool (query sessions only).
    Pool,
    /// The session's held-out test split (query sessions only).
    Test,
    /// An explicit candidate index list, ranked as given.
    Indices(Vec<usize>),
}

/// Options for one ranking call — the single front door of every
/// ranking path (database, session, sharded store).
///
/// ```
/// use milr_core::database::RankRequest;
///
/// // Full ranking of everything, default parallelism.
/// let _ = RankRequest::all();
/// // A 16-entry page over an explicit candidate set, single-threaded.
/// let _ = RankRequest::over(vec![0, 2, 4]).top(16).threads(1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RankRequest {
    /// Which candidates to rank.
    pub scope: RankScope,
    /// `Some(k)` returns only the first `k` entries, computed with the
    /// pruned bounded scan; `None` returns the full sorted ranking.
    /// Either way the output equals the full ranking truncated to `k`.
    pub top_k: Option<usize>,
    /// Worker threads for the unbounded fan-out (0 = available
    /// parallelism). A pure throughput knob: results are identical for
    /// any value.
    pub threads: usize,
    /// How each bag's instance distances reduce to its ranking key
    /// (DESIGN.md §14). The default [`BagAggregator::MinDistance`] is
    /// the paper's key and routes through the pruned and screened
    /// kernels bit-identically to before this field existed; any other
    /// aggregator takes the exact path — every instance scored, no
    /// partial-distance abandon, no i8 screen — because those tiers'
    /// proofs only bound the *minimum*.
    pub aggregator: BagAggregator,
}

impl Default for RankRequest {
    fn default() -> Self {
        Self {
            scope: RankScope::All,
            top_k: None,
            threads: 0,
            aggregator: BagAggregator::MinDistance,
        }
    }
}

impl RankRequest {
    /// Ranks every image (scope [`RankScope::All`]).
    pub fn all() -> Self {
        Self::default()
    }

    /// Ranks the session's candidate pool (scope [`RankScope::Pool`]).
    pub fn pool() -> Self {
        Self {
            scope: RankScope::Pool,
            ..Self::default()
        }
    }

    /// Ranks the session's test split (scope [`RankScope::Test`]).
    pub fn test() -> Self {
        Self {
            scope: RankScope::Test,
            ..Self::default()
        }
    }

    /// Ranks an explicit candidate list (scope [`RankScope::Indices`]).
    pub fn over(indices: impl Into<Vec<usize>>) -> Self {
        Self {
            scope: RankScope::Indices(indices.into()),
            ..Self::default()
        }
    }

    /// Bounds the result to the first `k` entries (pruned scan).
    #[must_use]
    pub fn top(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Sets the worker-thread count for the unbounded fan-out (0 =
    /// available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the bag aggregation policy (see [`Self::aggregator`]).
    #[must_use]
    pub fn aggregator(mut self, aggregator: BagAggregator) -> Self {
        self.aggregator = aggregator;
        self
    }
}

/// The read side of a corpus, as a [`QuerySession`](crate::QuerySession)
/// sees it: bag count, feature dimension, one label or bag by index, and
/// a ranking over a candidate list.
///
/// [`RetrievalDatabase`] implements it over its own bags; `milr-store`'s
/// sharded database implements it over its live (tombstone-compacted)
/// bags, so a session trains on the same `f32` bags and ranks to the
/// same page over either one.
pub trait Corpus: std::fmt::Debug + Send + Sync {
    /// Number of bags; indices run `0..bag_count()`.
    fn bag_count(&self) -> usize;

    /// Feature dimension of the bags.
    fn feature_dim(&self) -> usize;

    /// Category label of one bag.
    ///
    /// # Errors
    /// [`CoreError::IndexOutOfBounds`] for bad indices.
    fn bag_label(&self, index: usize) -> Result<usize, CoreError>;

    /// One bag, borrowed where the corpus stores it as a [`Bag`].
    ///
    /// # Errors
    /// [`CoreError::IndexOutOfBounds`] for bad indices.
    fn bag_at(&self, index: usize) -> Result<Cow<'_, Bag>, CoreError>;

    /// Ranks `candidates` under `request`'s `top_k`, `threads` and
    /// `aggregator` (its scope is ignored: the candidates replace it). The result equals [`RetrievalDatabase::rank`] over the
    /// same bags, bit for bit.
    ///
    /// # Errors
    /// * [`CoreError::IndexOutOfBounds`] for a bad candidate.
    /// * [`CoreError::Mil`] on a concept dimension mismatch.
    fn rank_candidates(
        &self,
        concept: &Concept,
        candidates: &[usize],
        request: &RankRequest,
    ) -> Result<Ranking, CoreError>;
}

/// A labelled collection of preprocessed image bags.
#[derive(Debug, Clone)]
pub struct RetrievalDatabase {
    bags: Vec<Bag>,
    labels: Vec<usize>,
    category_count: usize,
    feature_dim: usize,
}

/// The one ranking comparator: ascending distance, ties broken by index.
/// Every ranking path (full and bounded) sorts with exactly this,
/// which is what makes their outputs comparable bit for bit.
fn sort_ranking(ranking: &mut Ranking) {
    ranking.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("bag distances are finite")
            .then_with(|| a.0.cmp(&b.0))
    });
}

/// Max-heap entry for the bounded ranking scan: the heap's top is the
/// lexicographically largest `(distance, index)` pair — the entry the
/// final ranking would place last.
#[derive(PartialEq)]
struct WorstCandidate(f64, usize);

impl Eq for WorstCandidate {}

impl PartialOrd for WorstCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstCandidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

impl RetrievalDatabase {
    /// Preprocesses `(image, label)` pairs into bags under `config`.
    ///
    /// # Errors
    /// * [`CoreError::BlankImage`] (with the offending index) if an image
    ///   yields no instances.
    /// * [`CoreError::Image`] for images incompatible with the layout or
    ///   resolution.
    /// * The config is validated first; violations surface as
    ///   [`CoreError::Mil`] with an explanatory message.
    pub fn from_labelled_images(
        images: Vec<(GrayImage, usize)>,
        config: &RetrievalConfig,
    ) -> Result<Self, CoreError> {
        config
            .validate()
            .map_err(|msg| CoreError::Mil(milr_mil::MilError::InvalidPolicy(msg)))?;
        let _span = milr_obs::span!("preprocess.database");
        milr_obs::counter!("milr_preprocess_images_total").add(images.len() as u64);
        // Preprocess every image in parallel; the index-ordered merge
        // keeps bag order (and, on failure, which error surfaces — the
        // lowest failing index, as in the old serial loop) independent
        // of the thread count.
        let results = pool::run_indexed(images.len(), config.threads, |index| {
            image_to_bag(&images[index].0, config).map_err(|e| match e {
                CoreError::BlankImage { .. } => CoreError::BlankImage { index: Some(index) },
                other => other,
            })
        });
        let mut bags = Vec::with_capacity(images.len());
        let mut labels = Vec::with_capacity(images.len());
        let mut category_count = 0usize;
        for (result, (_, label)) in results.into_iter().zip(&images) {
            bags.push(result?);
            category_count = category_count.max(label + 1);
            labels.push(*label);
        }
        let feature_dim = bags.first().map_or(0, Bag::dim);
        Ok(Self {
            bags,
            labels,
            category_count,
            feature_dim,
        })
    }

    /// Wraps precomputed bags (e.g. from an alternative feature pipeline
    /// such as the colour baseline) into a database.
    ///
    /// # Errors
    /// * [`CoreError::Mil`] if `bags` and `labels` disagree in length,
    ///   are empty, or the bags disagree in dimension.
    pub fn from_bags(bags: Vec<Bag>, labels: Vec<usize>) -> Result<Self, CoreError> {
        if bags.len() != labels.len() || bags.is_empty() {
            return Err(CoreError::Mil(milr_mil::MilError::InvalidPolicy(format!(
                "need equal, non-zero bag ({}) and label ({}) counts",
                bags.len(),
                labels.len()
            ))));
        }
        let feature_dim = bags[0].dim();
        for bag in &bags {
            if bag.dim() != feature_dim {
                return Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch {
                    expected: feature_dim,
                    actual: bag.dim(),
                }));
            }
        }
        let category_count = labels.iter().copied().max().unwrap_or(0) + 1;
        Ok(Self {
            bags,
            labels,
            category_count,
            feature_dim,
        })
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// Whether the database holds no images.
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// Number of distinct categories (max label + 1).
    pub fn category_count(&self) -> usize {
        self.category_count
    }

    /// Feature dimension of the bags (`h²`).
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// The bag of one image.
    ///
    /// # Errors
    /// Returns [`CoreError::IndexOutOfBounds`] for bad indices.
    pub fn bag(&self, index: usize) -> Result<&Bag, CoreError> {
        self.bags.get(index).ok_or(CoreError::IndexOutOfBounds {
            index,
            len: self.bags.len(),
        })
    }

    /// Category label of one image.
    ///
    /// # Errors
    /// Returns [`CoreError::IndexOutOfBounds`] for bad indices.
    pub fn label(&self, index: usize) -> Result<usize, CoreError> {
        self.labels
            .get(index)
            .copied()
            .ok_or(CoreError::IndexOutOfBounds {
                index,
                len: self.labels.len(),
            })
    }

    /// All labels, in image order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Ranks the request's candidates by ascending bag distance to the
    /// concept (§3.5: "ranks all images based on their weighted Euclidean
    /// distances to the ideal point"). Ties break by index for
    /// determinism.
    ///
    /// An unbounded request (`top_k: None`) scores every candidate in
    /// parallel and sorts; a bounded request returns exactly the full
    /// ranking truncated to `k`, computed with the pruned scan. Output is
    /// identical for any `threads` value. Every distance bottoms out in
    /// the canonical unrolled kernel (`milr_mil::kernel`), the same one
    /// the sharded store's quantized-screened path re-scores with — so
    /// monolithic, sharded, and screened rankings agree bit for bit
    /// (DESIGN.md §10).
    ///
    /// # Errors
    /// * [`CoreError::IndexOutOfBounds`] if any candidate index is
    ///   invalid.
    /// * [`CoreError::InvalidScope`] for [`RankScope::Pool`] /
    ///   [`RankScope::Test`], which only a `QuerySession` can resolve.
    pub fn rank(&self, concept: &Concept, request: &RankRequest) -> Result<Ranking, CoreError> {
        let all: Vec<usize>;
        let candidates: &[usize] = match &request.scope {
            RankScope::All => {
                all = (0..self.len()).collect();
                &all
            }
            RankScope::Indices(indices) => indices,
            RankScope::Pool => return Err(CoreError::InvalidScope { scope: "pool" }),
            RankScope::Test => return Err(CoreError::InvalidScope { scope: "test" }),
        };
        self.rank_candidates(
            concept,
            candidates,
            request.top_k,
            request.threads,
            request.aggregator,
        )
    }

    /// The shared ranking engine behind [`Self::rank`] and the session
    /// scopes: an explicit candidate slice, already resolved.
    pub(crate) fn rank_candidates(
        &self,
        concept: &Concept,
        candidates: &[usize],
        top_k: Option<usize>,
        threads: usize,
        aggregator: BagAggregator,
    ) -> Result<Ranking, CoreError> {
        for &index in candidates {
            self.bag(index)?;
        }
        match top_k {
            Some(k) => self.rank_bounded(concept, candidates, k, aggregator),
            None => self.rank_full(concept, candidates, threads, aggregator),
        }
    }

    /// Full parallel ranking: score, index-ordered merge, sort. The
    /// min-distance arm is byte-for-byte the pre-aggregator fan-out;
    /// non-min aggregators swap only the per-bag scorer for the exact
    /// fold ([`Concept::bag_aggregate`]).
    fn rank_full(
        &self,
        concept: &Concept,
        candidates: &[usize],
        threads: usize,
        aggregator: BagAggregator,
    ) -> Result<Ranking, CoreError> {
        let _span = milr_obs::span!("rank.full");
        let started = std::time::Instant::now();
        let mut scored = if aggregator.is_min() {
            pool::run_indexed(candidates.len(), threads, |i| {
                let index = candidates[i];
                (index, concept.bag_distance_sq(&self.bags[index]))
            })
        } else {
            pool::run_indexed(candidates.len(), threads, |i| {
                let index = candidates[i];
                let mut scratch = Vec::new();
                (
                    index,
                    concept.bag_aggregate(&self.bags[index], aggregator, &mut scratch),
                )
            })
        };
        sort_ranking(&mut scored);
        milr_obs::counter!("milr_rank_candidates_total").add(candidates.len() as u64);
        milr_obs::histogram!("milr_rank_latency_us").record(started.elapsed().as_micros() as u64);
        Ok(scored)
    }

    /// Bounded ranking: a max-heap holds the current top `k`; every
    /// further bag is scored against the heap's worst `(distance, index)`
    /// pair, so its instances are abandoned (partial-distance pruning) as
    /// soon as they cannot enter the top `k`. The bound only skips work,
    /// never changes the result.
    ///
    /// Partial-distance pruning bounds the bag *minimum*, so a non-min
    /// aggregator scores every candidate exactly instead (the heap and
    /// tie-break are unchanged, and the result still equals the full
    /// ranking truncated to `k`); `milr_rank_topk_pruned_total` then
    /// stays at zero by construction — a pinned invariant.
    fn rank_bounded(
        &self,
        concept: &Concept,
        candidates: &[usize],
        k: usize,
        aggregator: BagAggregator,
    ) -> Result<Ranking, CoreError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let _span = milr_obs::span!("rank.topk");
        let started = std::time::Instant::now();
        let mut pruned = 0u64;
        let mut scratch = Vec::new();
        // A page never holds more than the candidates, so a `k` from the
        // wire cannot size the heap past them.
        let mut heap: BinaryHeap<WorstCandidate> =
            BinaryHeap::with_capacity(k.min(candidates.len()) + 1);
        for &index in candidates {
            let bag = &self.bags[index];
            if heap.len() < k {
                let d = if aggregator.is_min() {
                    concept.bag_distance_sq(bag)
                } else {
                    concept.bag_aggregate(bag, aggregator, &mut scratch)
                };
                heap.push(WorstCandidate(d, index));
                continue;
            }
            let (worst_d, worst_i) = {
                let worst = heap.peek().expect("heap is non-empty");
                (worst.0, worst.1)
            };
            // `next_up` admits exact ties on distance so the index
            // tie-break below sees them; the pruned scorer then rejects
            // anything strictly worse after only a few dimensions.
            let scored = if aggregator.is_min() {
                concept.bag_distance_sq_below(bag, worst_d.next_up())
            } else {
                Some(concept.bag_aggregate(bag, aggregator, &mut scratch))
            };
            if let Some(d) = scored {
                if d < worst_d || (d == worst_d && index < worst_i) {
                    heap.pop();
                    heap.push(WorstCandidate(d, index));
                }
            } else {
                pruned += 1;
            }
        }
        milr_obs::counter!("milr_rank_topk_candidates_total").add(candidates.len() as u64);
        milr_obs::counter!("milr_rank_topk_pruned_total").add(pruned);
        let mut top: Vec<(usize, f64)> = heap
            .into_iter()
            .map(|WorstCandidate(d, i)| (i, d))
            .collect();
        sort_ranking(&mut top);
        milr_obs::histogram!("milr_rank_topk_latency_us")
            .record(started.elapsed().as_micros() as u64);
        Ok(top)
    }

    /// Indices of all images carrying `category`, in index order.
    pub fn category_members(&self, category: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.labels[i] == category)
            .collect()
    }

    /// Appends one new image to the database without touching existing
    /// bags ("the system would not be able to deal with any new pictures
    /// not labelled before" is the text-label weakness §1.1 criticises —
    /// content-based preprocessing extends incrementally). Returns the
    /// new image's index.
    ///
    /// # Errors
    /// * [`CoreError::BlankImage`] for contrast-free images.
    /// * [`CoreError::Mil`] if `config` produces a feature dimension
    ///   different from the database's.
    pub fn push_image(
        &mut self,
        image: &GrayImage,
        label: usize,
        config: &RetrievalConfig,
    ) -> Result<usize, CoreError> {
        let bag = image_to_bag(image, config).map_err(|e| match e {
            CoreError::BlankImage { .. } => CoreError::BlankImage {
                index: Some(self.len()),
            },
            other => other,
        })?;
        self.push_bag(bag, label)
    }

    /// Appends a precomputed bag (alternative feature pipelines).
    /// Returns the new index.
    ///
    /// # Errors
    /// Returns [`CoreError::Mil`] on a feature-dimension mismatch.
    pub fn push_bag(&mut self, bag: Bag, label: usize) -> Result<usize, CoreError> {
        if bag.dim() != self.feature_dim {
            return Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch {
                expected: self.feature_dim,
                actual: bag.dim(),
            }));
        }
        self.bags.push(bag);
        self.labels.push(label);
        self.category_count = self.category_count.max(label + 1);
        Ok(self.bags.len() - 1)
    }
}

impl Corpus for RetrievalDatabase {
    fn bag_count(&self) -> usize {
        self.len()
    }

    fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    fn bag_label(&self, index: usize) -> Result<usize, CoreError> {
        self.label(index)
    }

    fn bag_at(&self, index: usize) -> Result<Cow<'_, Bag>, CoreError> {
        self.bag(index).map(Cow::Borrowed)
    }

    fn rank_candidates(
        &self,
        concept: &Concept,
        candidates: &[usize],
        request: &RankRequest,
    ) -> Result<Ranking, CoreError> {
        RetrievalDatabase::rank_candidates(
            self,
            concept,
            candidates,
            request.top_k,
            request.threads,
            request.aggregator,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_mil::Concept;

    fn textured_image(seed: usize) -> GrayImage {
        GrayImage::from_fn(64, 48, move |x, y| {
            ((x * (7 + seed) + y * (13 + seed * 3)) % 223) as f32
        })
        .unwrap()
    }

    fn config() -> RetrievalConfig {
        RetrievalConfig {
            threads: 1,
            ..RetrievalConfig::default()
        }
    }

    fn db() -> RetrievalDatabase {
        let images = (0..6)
            .map(|i| (textured_image(i), i % 2))
            .collect::<Vec<_>>();
        RetrievalDatabase::from_labelled_images(images, &config()).unwrap()
    }

    #[test]
    fn preprocessing_preserves_order_and_labels() {
        let d = db();
        assert_eq!(d.len(), 6);
        assert_eq!(d.category_count(), 2);
        assert_eq!(d.labels(), &[0, 1, 0, 1, 0, 1]);
        assert_eq!(d.feature_dim(), 100);
        assert_eq!(d.category_members(0), vec![0, 2, 4]);
    }

    #[test]
    fn bag_and_label_bounds_checked() {
        let d = db();
        assert!(d.bag(5).is_ok());
        assert!(matches!(d.bag(6), Err(CoreError::IndexOutOfBounds { .. })));
        assert!(matches!(
            d.label(9),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn blank_image_error_carries_index() {
        let mut images: Vec<(GrayImage, usize)> = (0..2).map(|i| (textured_image(i), 0)).collect();
        images.push((GrayImage::filled(64, 48, 5.0).unwrap(), 0));
        let err = RetrievalDatabase::from_labelled_images(images, &config());
        match err {
            Err(CoreError::BlankImage { index: Some(2) }) => {}
            other => panic!("expected BlankImage at 2, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_rejected_up_front() {
        let cfg = RetrievalConfig {
            resolution: 1,
            ..config()
        };
        let err = RetrievalDatabase::from_labelled_images(vec![(textured_image(0), 0)], &cfg);
        assert!(err.is_err());
    }

    #[test]
    fn rank_orders_by_distance() {
        let d = db();
        // A concept sitting exactly on one instance of image 3 must rank
        // image 3 first with distance ~0.
        let target: Vec<f64> = d
            .bag(3)
            .unwrap()
            .instance(0)
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        let concept = Concept::new(target, vec![1.0; d.feature_dim()]);
        let ranking = d.rank(&concept, &RankRequest::all()).unwrap();
        assert_eq!(ranking[0].0, 3);
        assert!(ranking[0].1 < 1e-9);
        for pair in ranking.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "ranking must be sorted");
        }
    }

    #[test]
    fn rank_respects_candidate_subset() {
        let d = db();
        let target: Vec<f64> = d
            .bag(3)
            .unwrap()
            .instance(0)
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        let concept = Concept::new(target, vec![1.0; d.feature_dim()]);
        let ranking = d.rank(&concept, &RankRequest::over(vec![0, 2, 4])).unwrap();
        assert_eq!(ranking.len(), 3);
        assert!(ranking.iter().all(|&(i, _)| [0, 2, 4].contains(&i)));
    }

    #[test]
    fn session_scopes_rejected_at_database_level() {
        let d = db();
        let concept = Concept::new(vec![0.0; 100], vec![1.0; 100]);
        assert!(matches!(
            d.rank(&concept, &RankRequest::pool()),
            Err(CoreError::InvalidScope { scope: "pool" })
        ));
        assert!(matches!(
            d.rank(&concept, &RankRequest::test().top(3)),
            Err(CoreError::InvalidScope { scope: "test" })
        ));
    }

    #[test]
    fn from_bags_wraps_precomputed_features() {
        use milr_mil::Bag;
        let bags = vec![
            Bag::new(vec![vec![0.0, 1.0]]).unwrap(),
            Bag::new(vec![vec![1.0, 0.0], vec![0.5, 0.5]]).unwrap(),
        ];
        let d = RetrievalDatabase::from_bags(bags, vec![0, 1]).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.category_count(), 2);
    }

    #[test]
    fn from_bags_validates_inputs() {
        use milr_mil::Bag;
        let bag2 = Bag::new(vec![vec![0.0, 1.0]]).unwrap();
        let bag3 = Bag::new(vec![vec![0.0, 1.0, 2.0]]).unwrap();
        assert!(RetrievalDatabase::from_bags(vec![], vec![]).is_err());
        assert!(RetrievalDatabase::from_bags(vec![bag2.clone()], vec![0, 1]).is_err());
        assert!(RetrievalDatabase::from_bags(vec![bag2, bag3], vec![0, 1]).is_err());
    }

    #[test]
    fn push_image_extends_the_database() {
        let mut d = db();
        let before = d.len();
        let idx = d
            .push_image(&textured_image(99), 3, &config())
            .expect("push succeeds");
        assert_eq!(idx, before);
        assert_eq!(d.len(), before + 1);
        assert_eq!(d.label(idx).unwrap(), 3);
        assert_eq!(d.category_count(), 4, "new label grows the category count");
        // The new image is rankable like any other.
        let target: Vec<f64> = d
            .bag(idx)
            .unwrap()
            .instance(0)
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        let concept = Concept::new(target, vec![1.0; d.feature_dim()]);
        let ranking = d.rank(&concept, &RankRequest::over(vec![0, idx])).unwrap();
        assert_eq!(ranking[0].0, idx);
    }

    #[test]
    fn push_image_rejects_dimension_mismatch_and_blank() {
        let mut d = db();
        // A config with a different resolution changes the feature dim.
        let other = RetrievalConfig {
            resolution: 6,
            ..config()
        };
        assert!(matches!(
            d.push_image(&textured_image(1), 0, &other),
            Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch { .. }))
        ));
        let flat = GrayImage::filled(64, 48, 1.0).unwrap();
        match d.push_image(&flat, 0, &config()) {
            Err(CoreError::BlankImage { index: Some(i) }) => assert_eq!(i, d.len()),
            other => panic!("expected BlankImage, got {other:?}"),
        }
        assert_eq!(d.len(), 6, "failed pushes must not mutate the database");
    }

    #[test]
    fn rank_rejects_bad_candidates() {
        let d = db();
        let concept = Concept::new(vec![0.0; 100], vec![1.0; 100]);
        assert!(matches!(
            d.rank(&concept, &RankRequest::over(vec![0, 99])),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            d.rank(&concept, &RankRequest::over(vec![0, 99]).top(1)),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn rank_is_identical_for_any_thread_count() {
        let images = (0..8)
            .map(|i| (textured_image(i), i % 2))
            .collect::<Vec<_>>();
        let serial = RetrievalDatabase::from_labelled_images(images.clone(), &config()).unwrap();
        let concept = {
            let target: Vec<f64> = serial
                .bag(5)
                .unwrap()
                .instance(2)
                .iter()
                .map(|&v| f64::from(v))
                .collect();
            Concept::new(target, vec![1.0; serial.feature_dim()])
        };
        let reference = serial
            .rank(&concept, &RankRequest::all().threads(1))
            .unwrap();
        for threads in [0, 2, 3, 7] {
            let cfg = RetrievalConfig {
                threads,
                ..config()
            };
            let parallel = RetrievalDatabase::from_labelled_images(images.clone(), &cfg).unwrap();
            // Parallel preprocessing produced identical bags…
            for i in 0..8 {
                assert_eq!(parallel.bag(i).unwrap(), serial.bag(i).unwrap());
            }
            // …and parallel ranking the identical order and distances,
            // for any request-side thread count.
            assert_eq!(
                parallel
                    .rank(&concept, &RankRequest::all().threads(threads))
                    .unwrap(),
                reference
            );
        }
    }

    #[test]
    fn bounded_rank_is_a_prefix_of_the_full_ranking() {
        let d = db();
        let target: Vec<f64> = d
            .bag(1)
            .unwrap()
            .instance(0)
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        let concept = Concept::new(target, vec![1.0; d.feature_dim()]);
        let full = d.rank(&concept, &RankRequest::all()).unwrap();
        for k in (0..=d.len() + 2).chain([1 << 40, usize::MAX]) {
            let top = d.rank(&concept, &RankRequest::all().top(k)).unwrap();
            assert_eq!(top, full[..k.min(full.len())], "k = {k}");
        }
    }

    #[test]
    fn bounded_rank_breaks_exact_ties_by_index() {
        use milr_mil::Bag;
        // Bags 0 and 2 are identical ⇒ exactly equal distances; the
        // smaller index must win the last top-k slot.
        let shared = Bag::new(vec![vec![1.0, 1.0]]).unwrap();
        let bags = vec![
            shared.clone(),
            Bag::new(vec![vec![0.0, 0.0]]).unwrap(),
            shared,
        ];
        let d = RetrievalDatabase::from_bags(bags, vec![0, 0, 0]).unwrap();
        let concept = Concept::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        // Scan order puts index 2 into the heap before index 0 shows up.
        let top = d
            .rank(&concept, &RankRequest::over(vec![1, 2, 0]).top(2))
            .unwrap();
        let full = d.rank(&concept, &RankRequest::over(vec![1, 2, 0])).unwrap();
        assert_eq!(top, full[..2]);
        assert_eq!(top[0].0, 0, "index 0 wins the zero-distance tie");
    }

    #[test]
    fn non_min_aggregators_match_a_naive_fold_on_every_arm() {
        let d = db();
        let target: Vec<f64> = d
            .bag(4)
            .unwrap()
            .instance(1)
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        let concept = Concept::new(target, vec![1.0; d.feature_dim()]);
        for aggregator in BagAggregator::ALL {
            // Naive per-bag reference: exact instance distances, folded,
            // sorted with the one comparator.
            let mut reference: Ranking = (0..d.len())
                .map(|i| {
                    let dists: Vec<f64> = d.bags[i]
                        .instances()
                        .map(|inst| concept.instance_distance_sq(inst))
                        .collect();
                    (i, aggregator.fold(&dists))
                })
                .collect();
            sort_ranking(&mut reference);
            let request = RankRequest::all().aggregator(aggregator);
            let full = d.rank(&concept, &request).unwrap();
            assert_eq!(full, reference, "{aggregator} full");
            for k in [1, 3, d.len()] {
                let top = d.rank(&concept, &request.clone().top(k)).unwrap();
                assert_eq!(top, reference[..k], "{aggregator} top-{k}");
            }
        }
        // Different aggregators genuinely reorder: generalized-mean is a
        // whole-bag key, so it need not agree with min-distance. (Only
        // sanity-check the keys differ — ordering may coincide on tiny
        // corpora.)
        let min = d.rank(&concept, &RankRequest::all()).unwrap();
        let gm = d
            .rank(
                &concept,
                &RankRequest::all().aggregator(BagAggregator::GeneralizedMean),
            )
            .unwrap();
        assert_ne!(min, gm, "keys must differ even if order coincides");
    }
}
