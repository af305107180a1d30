//! The preprocessed retrieval database.
//!
//! Preprocessing (§3.5) happens once per collection: every image becomes
//! a [`Bag`] of normalised region features. Queries then only touch bags,
//! never pixels, so ranking the whole database against a trained concept
//! is a pure vector workload.
//!
//! The bags live in one [`FlatBags`] store — mirror twins stored once,
//! the `i8` tier built on push — the layout every shard of the sharded
//! store uses too. Ranking has one entry point, [`RetrievalDatabase::rank`],
//! driven by a [`RankRequest`]: the request names the candidate
//! [`RankScope`], an optional `top_k` bound, and the worker-thread count.
//! It runs the workspace's one ranking engine, [`milr_mil::scan`]: the
//! candidates split into one run per worker, each worker scans its run
//! (a full scored sort, or the pruned and screened top-k scan against a
//! bound shared across workers), and an index-ordered merge gathers the
//! runs. Neither the split nor pruning nor screening changes any output
//! (see `Concept::instance_distance_sq_below` for the invariant), which
//! the workspace property tests pin down.

use std::borrow::Cow;
use std::sync::OnceLock;

use milr_imgproc::GrayImage;
use milr_mil::{rank_runs, Bag, BagAggregator, Concept, FlatBags, Run, ScanSpec, Visit};
use milr_optim::pool;

use crate::config::RetrievalConfig;
use crate::error::CoreError;
use crate::features::image_to_bag;

pub use milr_mil::{ranking_order, Ranking};

/// Images [`RetrievalDatabase::from_indexed`] featurises per pool batch
/// before their bags move into the flat store, so at most this many
/// bags are held as [`Bag`]s at once.
const PREPROCESS_BATCH: usize = 256;

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
    /// Worker threads the scan fans out over (0 = available
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

    /// Sets the worker-thread count of the scan (0 = available
    /// parallelism).
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
/// bags. Both store bags as [`FlatBags`] and rank through the one scan,
/// so a session trains on the same `f32` bags and ranks to the same page
/// over either one.
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

    /// One bag, rebuilt from the corpus's flat store with its mirror
    /// twins expanded: bitwise the bag that was pushed.
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
    bags: FlatBags,
    labels: Vec<usize>,
    category_count: usize,
    /// Every bag as a [`Bag`], built by the first [`Self::bag`] call and
    /// dropped by every push.
    bag_copy: OnceLock<Vec<Bag>>,
}

impl RetrievalDatabase {
    /// A database of no images whose bags will have dimension `dim`
    /// (0 until the first bag is known).
    fn empty(dim: usize) -> Self {
        Self {
            bags: if dim == 0 {
                FlatBags::default()
            } else {
                FlatBags::new(dim)
            },
            labels: Vec::new(),
            category_count: 0,
            bag_copy: OnceLock::new(),
        }
    }

    /// Preprocesses `(image, label)` pairs into bags under `config`.
    ///
    /// # Errors
    /// * [`CoreError::BlankImage`] (with the offending index) if an image
    ///   yields no instances.
    /// * [`CoreError::Image`] for images incompatible with the layout or
    ///   resolution.
    /// * The config is validated first; violations surface as
    ///   [`CoreError::Config`] naming the field.
    pub fn from_labelled_images(
        images: Vec<(GrayImage, usize)>,
        config: &RetrievalConfig,
    ) -> Result<Self, CoreError> {
        Self::from_indexed(images.len(), config, |index| {
            let (image, label) = &images[index];
            Ok((image_to_bag(image, config)?, *label))
        })
    }

    /// Builds `len` bags on the workspace pool (`config.threads`
    /// workers): job `index` calls `source(index)` for its bag and
    /// label, so a source that renders or loads image `index` itself
    /// never holds more than one image per worker. Bags move into the
    /// flat store batch by batch, in index order.
    ///
    /// The index-ordered merge keeps bag order — and, on failure, which
    /// error surfaces: the lowest failing index — independent of the
    /// worker count.
    ///
    /// # Errors
    /// * The config is validated first; violations surface as
    ///   [`CoreError::Config`] naming the field.
    /// * The lowest-index error `source` returns, a
    ///   [`CoreError::BlankImage`] carrying that index.
    /// * [`CoreError::Mil`] if the bags disagree in dimension.
    pub fn from_indexed<F>(
        len: usize,
        config: &RetrievalConfig,
        source: F,
    ) -> Result<Self, CoreError>
    where
        F: Fn(usize) -> Result<(Bag, usize), CoreError> + Sync,
    {
        config.validate().map_err(CoreError::Config)?;
        let _span = milr_obs::span!("preprocess.database");
        milr_obs::counter!("milr_preprocess_images_total").add(len as u64);
        let mut db = Self::empty(0);
        for first in (0..len).step_by(PREPROCESS_BATCH) {
            let batch = pool::run_indexed(PREPROCESS_BATCH.min(len - first), config.threads, |j| {
                source(first + j).map_err(|e| match e {
                    CoreError::BlankImage { .. } => CoreError::BlankImage {
                        index: Some(first + j),
                    },
                    other => other,
                })
            });
            for result in batch {
                let (bag, label) = result?;
                if db.is_empty() {
                    db = Self::empty(bag.dim());
                }
                db.push_bag(bag, label)?;
            }
        }
        Ok(db)
    }

    /// Wraps precomputed bags (e.g. from an alternative feature pipeline
    /// such as the colour baseline) into a database.
    ///
    /// # Errors
    /// * [`CoreError::InvalidInput`] if `bags` and `labels` disagree in
    ///   length or are empty.
    /// * [`CoreError::Mil`] if the bags disagree in dimension.
    pub fn from_bags(bags: Vec<Bag>, labels: Vec<usize>) -> Result<Self, CoreError> {
        check_counts(bags.len(), labels.len())?;
        let mut db = Self::empty(bags[0].dim());
        for (bag, label) in bags.into_iter().zip(labels) {
            db.push_bag(bag, label)?;
        }
        Ok(db)
    }

    /// Wraps a flat store and its labels (one per bag) into a database,
    /// taking the store as it is.
    ///
    /// # Errors
    /// [`CoreError::InvalidInput`] if the store and `labels` disagree in
    /// length or are empty.
    pub fn from_flat(bags: FlatBags, labels: Vec<usize>) -> Result<Self, CoreError> {
        check_counts(bags.bag_count(), labels.len())?;
        Ok(Self {
            category_count: labels.iter().max().map_or(0, |&max| max + 1),
            bags,
            labels,
            bag_copy: OnceLock::new(),
        })
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the database holds no images.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of distinct categories (max label + 1).
    pub fn category_count(&self) -> usize {
        self.category_count
    }

    /// Feature dimension of the bags (`h²`).
    pub fn feature_dim(&self) -> usize {
        self.bags.dim()
    }

    /// The flat store holding every bag, in image order.
    pub fn bags(&self) -> &FlatBags {
        &self.bags
    }

    /// The bag of one image, borrowed from a copy of every bag as a
    /// [`Bag`] that the first call builds and every push drops. Only the
    /// benchmark package still calls it; ROADMAP item 15(0) re-points
    /// those calls, and this accessor goes with them. Everything else
    /// reads bags through [`Corpus::bag_at`] or [`Self::bags`].
    ///
    /// # Errors
    /// Returns [`CoreError::IndexOutOfBounds`] for bad indices.
    pub fn bag(&self, index: usize) -> Result<&Bag, CoreError> {
        self.check(index)?;
        let copy = self
            .bag_copy
            .get_or_init(|| (0..self.len()).map(|i| self.bags.to_bag(i)).collect());
        Ok(&copy[index])
    }

    /// Category label of one image.
    ///
    /// # Errors
    /// Returns [`CoreError::IndexOutOfBounds`] for bad indices.
    pub fn label(&self, index: usize) -> Result<usize, CoreError> {
        self.check(index)?;
        Ok(self.labels[index])
    }

    /// All labels, in image order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Fails for an index past the last image.
    fn check(&self, index: usize) -> Result<(), CoreError> {
        let len = self.len();
        if index >= len {
            return Err(CoreError::IndexOutOfBounds { index, len });
        }
        Ok(())
    }

    /// Ranks the request's candidates by ascending bag distance to the
    /// concept (§3.5: "ranks all images based on their weighted Euclidean
    /// distances to the ideal point"). Ties break by index for
    /// determinism.
    ///
    /// An unbounded request (`top_k: None`) scores every candidate and
    /// sorts; a bounded request returns exactly the full ranking
    /// truncated to `k`, computed with the pruned, screened scan. Output
    /// is identical for any `threads` value. This is the scan the
    /// sharded store and every cluster worker run too, over the same
    /// flat layout — so monolithic, sharded, and clustered rankings
    /// agree bit for bit (DESIGN.md §10).
    ///
    /// # Errors
    /// * [`CoreError::IndexOutOfBounds`] if any candidate index is
    ///   invalid.
    /// * [`CoreError::InvalidScope`] for [`RankScope::Pool`] /
    ///   [`RankScope::Test`], which only a `QuerySession` can resolve.
    /// * [`CoreError::ConceptDimension`] for a concept of another
    ///   dimension than the bags.
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
        self.rank_candidates(concept, candidates, request)
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
        if bag.dim() != self.feature_dim() {
            return Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch {
                expected: self.feature_dim(),
                actual: bag.dim(),
            }));
        }
        self.bags.push_bag(&bag);
        self.labels.push(label);
        self.category_count = self.category_count.max(label + 1);
        self.bag_copy.take();
        Ok(self.len() - 1)
    }
}

/// Refuses `bags` bags with `labels` labels unless the two agree and
/// are non-zero.
fn check_counts(bags: usize, labels: usize) -> Result<(), CoreError> {
    if bags != labels || bags == 0 {
        return Err(CoreError::InvalidInput(format!(
            "need equal, non-zero bag ({bags}) and label ({labels}) counts"
        )));
    }
    Ok(())
}

impl Corpus for RetrievalDatabase {
    fn bag_count(&self) -> usize {
        self.len()
    }

    fn feature_dim(&self) -> usize {
        self.bags.dim()
    }

    fn bag_label(&self, index: usize) -> Result<usize, CoreError> {
        self.label(index)
    }

    fn bag_at(&self, index: usize) -> Result<Cow<'_, Bag>, CoreError> {
        self.check(index)?;
        Ok(Cow::Owned(self.bags.to_bag(index)))
    }

    /// Splits the candidates into one run per worker, in the order
    /// given, and ranks them through [`rank_runs`].
    fn rank_candidates(
        &self,
        concept: &Concept,
        candidates: &[usize],
        request: &RankRequest,
    ) -> Result<Ranking, CoreError> {
        if concept.dim() != self.feature_dim() {
            return Err(CoreError::ConceptDimension {
                concept: concept.dim(),
                expected: self.feature_dim(),
            });
        }
        for &index in candidates {
            self.check(index)?;
        }
        let _span = milr_obs::span!("database.rank");
        let workers = pool::resolve_threads(request.threads, candidates.len());
        let runs: Vec<Run<'_>> = candidates
            .chunks(candidates.len().div_ceil(workers).max(1))
            .map(|chunk| Run {
                bags: &self.bags,
                base: 0,
                visit: Visit::Indices(Cow::Borrowed(chunk)),
            })
            .collect();
        let spec = ScanSpec {
            concept,
            top_k: request.top_k,
            screen: true,
            aggregator: request.aggregator,
            initial_bound: f64::INFINITY,
        };
        Ok(rank_runs(&runs, &spec, request.threads))
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
    fn concepts_of_another_dimension_are_refused() {
        let d = db();
        let alien = Concept::new(vec![0.0; 3], vec![1.0; 3]);
        for request in [RankRequest::all(), RankRequest::all().top(2)] {
            assert!(matches!(
                d.rank(&alien, &request),
                Err(CoreError::ConceptDimension {
                    concept: 3,
                    expected: 100
                })
            ));
        }
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
        match err {
            Err(CoreError::Config(msg)) => assert!(msg.contains("resolution"), "{msg}"),
            other => panic!("expected a configuration error, got {other:?}"),
        }
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
    fn mismatched_counts_are_invalid_input_not_a_training_failure() {
        use milr_mil::Bag;
        let bag = Bag::new(vec![vec![0.0, 1.0]]).unwrap();
        for (bags, labels) in [(vec![], vec![]), (vec![bag], vec![0, 1])] {
            match RetrievalDatabase::from_bags(bags, labels) {
                Err(err @ CoreError::InvalidInput(_)) => {
                    let msg = err.to_string();
                    assert!(msg.starts_with("invalid input: need equal"), "{msg}");
                    assert!(!msg.contains("training failed"), "{msg}");
                }
                other => panic!("expected CoreError::InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn sessions_train_and_rank_without_the_bag_copy() {
        use crate::query::QuerySession;
        let mut d = db();
        let cfg = config();
        let mut session = QuerySession::builder(&d)
            .config(&cfg)
            .positives(vec![0, 2])
            .negatives(vec![1])
            .build()
            .unwrap();
        session.train_round().unwrap();
        let pool = session.rank(&RankRequest::pool()).unwrap();
        let page = session.rank(&RankRequest::pool().top(3)).unwrap();
        assert_eq!(page, pool[..3]);
        drop(session);
        assert!(d.bag_copy.get().is_none(), "sessions read the flat store");
        // Only `bag()` builds the copy, and a push drops it.
        assert_eq!(d.bag(5).unwrap(), &d.bag_at(5).unwrap().into_owned());
        assert!(d.bag_copy.get().is_some());
        d.push_image(&textured_image(7), 1, &cfg).unwrap();
        assert!(d.bag_copy.get().is_none());
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
                    let dists: Vec<f64> = d
                        .bag(i)
                        .unwrap()
                        .instances()
                        .map(|inst| concept.instance_distance_sq(inst))
                        .collect();
                    (i, aggregator.fold(&dists))
                })
                .collect();
            reference.sort_by(ranking_order);
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
