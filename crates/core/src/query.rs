//! Query sessions with simulated relevance feedback (§3.5, §4.1).
//!
//! A [`QuerySession`] reproduces the paper's evaluation protocol:
//!
//! 1. initial positive and negative example images are drawn from the
//!    *potential training set* (the pool whose labels the system may
//!    consult — standing in for the human user's selections);
//! 2. the Diverse Density concept is trained and the pool is ranked;
//! 3. the top false positives become additional negative examples ("the
//!    system picks out top 5 false positives from the potential training
//!    set and adds them to the negative examples");
//! 4. steps 2–3 repeat for the configured number of rounds (3 by
//!    default), after which retrieval is scored on the disjoint test set.
//!
//! Sessions are opened through one front door, [`QuerySession::builder`]:
//! a target category yields the paper's simulated protocol (initial
//! examples auto-picked from the pool), explicit `positives`/`negatives`
//! yield the interactive server path, and `concept` restores a
//! previously trained concept (cache hits) without retraining. Rankings
//! likewise go through one entry, [`QuerySession::rank`], which resolves
//! the request's [`RankScope`] (`Pool`/`Test` against the session's own
//! splits) before delegating to the database engine.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use milr_mil::{train, Bag, BagLabel, Concept, MilDataset};

use crate::config::RetrievalConfig;
use crate::database::{Corpus, RankRequest, RankScope, RetrievalDatabase};
use crate::error::CoreError;

pub use crate::database::Ranking;

/// A borrowed-or-shared handle to a value a session reads but never
/// mutates.
///
/// The one-shot paths (CLI, experiments, tests) borrow the database and
/// config for the session's short lifetime; a server stores sessions in a
/// long-lived map, where a borrow would pin the whole daemon behind one
/// lifetime. `Shared` lets both coexist: `&T` converts into
/// `Shared::Borrowed` and `Arc<T>` into a `'static` `Shared::Counted`,
/// so [`QuerySession`] takes either without a signature fork. The
/// session's corpus is a `Shared<dyn Corpus>`: `&T` and `Arc<T>` of any
/// [`Corpus`] convert into it.
pub enum Shared<'a, T: ?Sized> {
    /// Borrowed from the caller for the session's lifetime.
    Borrowed(&'a T),
    /// Reference-counted shared ownership (long-lived server sessions).
    Counted(Arc<T>),
}

impl<T: ?Sized> Deref for Shared<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Self::Borrowed(t) => t,
            Self::Counted(t) => t,
        }
    }
}

impl<'a, T> From<&'a T> for Shared<'a, T> {
    fn from(t: &'a T) -> Self {
        Self::Borrowed(t)
    }
}

impl<T> From<Arc<T>> for Shared<'static, T> {
    fn from(t: Arc<T>) -> Self {
        Self::Counted(t)
    }
}

impl<'a, T: Corpus + 'a> From<&'a T> for Shared<'a, dyn Corpus + 'a> {
    fn from(t: &'a T) -> Self {
        Self::Borrowed(t)
    }
}

impl<T: Corpus + 'static> From<Arc<T>> for Shared<'static, dyn Corpus> {
    fn from(t: Arc<T>) -> Self {
        Self::Counted(t)
    }
}

impl<T: fmt::Debug + ?Sized> fmt::Debug for Shared<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Configures and validates a [`QuerySession`] — the single construction
/// path behind [`QuerySession::builder`].
///
/// Everything is optional except the corpus:
///
/// * [`target`](Self::target) switches on the simulated-feedback
///   protocol; without explicit examples the initial positives/negatives
///   are auto-picked from the pool exactly as §4.1 prescribes.
/// * [`positives`](Self::positives)/[`negatives`](Self::negatives)
///   override (or, without a target, *are*) the example marks — the
///   interactive server path. Explicit empty positives are legal at
///   construction; training still requires at least one.
/// * [`pool`](Self::pool) defaults to the whole database,
///   [`test`](Self::test) to empty.
/// * [`concept`](Self::concept) installs a previously trained concept
///   (a concept-cache hit), so the session is rankable without a
///   training round.
///
/// ```no_run
/// # fn demo(db: &milr_core::RetrievalDatabase) -> Result<(), milr_core::CoreError> {
/// use milr_core::QuerySession;
///
/// let session = QuerySession::builder(db)
///     .positives(vec![0, 4])
///     .negatives(vec![1])
///     .pool((0..db.len()).collect::<Vec<_>>())
///     .build()?;
/// # drop(session);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    db: Shared<'a, dyn Corpus + 'a>,
    config: Option<Shared<'a, RetrievalConfig>>,
    target: Option<usize>,
    pool: Option<Vec<usize>>,
    test: Vec<usize>,
    positives: Option<Vec<usize>>,
    negatives: Option<Vec<usize>>,
    concept: Option<(Arc<Concept>, f64)>,
    warm_start: bool,
}

impl<'a> QueryBuilder<'a> {
    /// Sets the retrieval configuration (defaults to
    /// [`RetrievalConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: impl Into<Shared<'a, RetrievalConfig>>) -> Self {
        self.config = Some(config.into());
        self
    }

    /// Sets the target category, enabling the simulated-feedback
    /// protocol (auto-picked initial examples, false-positive/negative
    /// promotion).
    #[must_use]
    pub fn target(mut self, target: usize) -> Self {
        self.target = Some(target);
        self
    }

    /// Sets the candidate pool every `Pool`-scoped ranking draws from
    /// (defaults to the whole database).
    #[must_use]
    pub fn pool(mut self, pool: Vec<usize>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Sets the held-out test split (defaults to empty).
    #[must_use]
    pub fn test(mut self, test: Vec<usize>) -> Self {
        self.test = test;
        self
    }

    /// Sets explicit positive example indices, overriding the
    /// target-driven auto-pick. May be empty at construction.
    #[must_use]
    pub fn positives(mut self, positives: Vec<usize>) -> Self {
        self.positives = Some(positives);
        self
    }

    /// Sets explicit negative example indices, overriding the
    /// target-driven diverse auto-pick.
    #[must_use]
    pub fn negatives(mut self, negatives: Vec<usize>) -> Self {
        self.negatives = Some(negatives);
        self
    }

    /// Installs a previously trained concept (typically a concept-cache
    /// hit for the session's exact example sets), so the session starts
    /// rankable with `rounds_run() == 1`. `nldd` is the `−log DD`
    /// recorded when the concept was trained.
    #[must_use]
    pub fn concept(mut self, concept: Arc<Concept>, nldd: f64) -> Self {
        self.concept = Some((concept, nldd));
        self
    }

    /// Enables warm-started training: after the first trained round,
    /// each retrain seeds the multi-start from the previous round's
    /// winning solver vector and only adds fresh ascent starts for
    /// positive bags the previous round never saw. Rankings for
    /// *unchanged* example sets are identical; a warm retrain after new
    /// feedback explores fewer starts than a cold one (that trade is why
    /// it is opt-in).
    #[must_use]
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Validates the configuration and opens the session.
    ///
    /// # Errors
    /// * [`CoreError::UnknownCategory`] if the target category does not
    ///   exist.
    /// * [`CoreError::IndexOutOfBounds`] for invalid pool/test/example
    ///   indices.
    /// * [`CoreError::NoExamples`] when a target-driven session finds no
    ///   target images in its pool to auto-pick from.
    /// * [`CoreError::ConceptDimension`] for a concept from the wrong
    ///   feature space.
    pub fn build(self) -> Result<QuerySession<'a>, CoreError> {
        let db = self.db;
        let config = self
            .config
            .unwrap_or_else(|| Shared::Counted(Arc::new(RetrievalConfig::default())));
        let len = db.bag_count();
        // The label-driven protocol reads every label once, up front.
        let labels: Vec<usize> = match self.target {
            Some(_) => (0..len)
                .map(|i| db.bag_label(i))
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        if let Some(target) = self.target {
            let categories = labels.iter().max().map_or(0, |&max| max + 1);
            if target >= categories {
                return Err(CoreError::UnknownCategory {
                    category: target,
                    available: categories,
                });
            }
        }
        let pool = self.pool.unwrap_or_else(|| (0..len).collect());
        for &i in pool
            .iter()
            .chain(&self.test)
            .chain(self.positives.iter().flatten())
            .chain(self.negatives.iter().flatten())
        {
            if i >= len {
                return Err(CoreError::IndexOutOfBounds { index: i, len });
            }
        }

        let positives = match (self.positives, self.target) {
            (Some(explicit), _) => explicit,
            (None, Some(target)) => {
                let picked: Vec<usize> = pool
                    .iter()
                    .copied()
                    .filter(|&i| labels[i] == target)
                    .take(config.initial_positives)
                    .collect();
                if picked.is_empty() {
                    return Err(CoreError::NoExamples);
                }
                picked
            }
            (None, None) => Vec::new(),
        };
        let negatives = match (self.negatives, self.target) {
            (Some(explicit), _) => explicit,
            (None, Some(target)) => {
                pick_diverse_negatives(&labels, &pool, target, config.initial_negatives)
            }
            (None, None) => Vec::new(),
        };

        let mut session = QuerySession {
            db,
            config,
            target: self.target,
            pool,
            test: self.test,
            positives,
            negatives,
            external_positives: Vec::new(),
            external_negatives: Vec::new(),
            concept: None,
            nldd: f64::INFINITY,
            rounds_run: 0,
            warm_start: self.warm_start,
            warm: None,
        };
        if let Some((concept, nldd)) = self.concept {
            session.adopt_concept(concept, nldd)?;
        }
        Ok(session)
    }
}

/// One retrieval query against a preprocessed corpus.
#[derive(Debug)]
pub struct QuerySession<'a> {
    db: Shared<'a, dyn Corpus + 'a>,
    config: Shared<'a, RetrievalConfig>,
    /// The category being searched for, when known. Sessions opened from
    /// explicit example marks (the server path) have none — a human
    /// supplies the feedback instead of the label-driven simulation.
    target: Option<usize>,
    pool: Vec<usize>,
    test: Vec<usize>,
    positives: Vec<usize>,
    negatives: Vec<usize>,
    /// External example bags (images not in the database), included in
    /// training but never ranked.
    external_positives: Vec<Bag>,
    external_negatives: Vec<Bag>,
    concept: Option<Arc<Concept>>,
    nldd: f64,
    rounds_run: usize,
    /// Whether follow-up training rounds seed the multi-start from the
    /// previous round's winner (off by default: warm rounds explore
    /// fewer starts, so callers opt in per session).
    warm_start: bool,
    /// What the last in-session training round learned, for warm
    /// seeding: the winning solver vector plus the example snapshot it
    /// was trained on (to tell *new* positive bags from seen ones).
    warm: Option<WarmState>,
}

/// Carry-over from the previous trained round for warm-started training.
#[derive(Debug)]
struct WarmState {
    best_x: Vec<f64>,
    positives: Vec<usize>,
    external_positive_count: usize,
}

impl<'a> QuerySession<'a> {
    /// Starts configuring a session over any [`Corpus`] — a
    /// [`RetrievalDatabase`] or a sharded store, borrowed or in an `Arc`.
    /// See [`QueryBuilder`] for the knobs.
    pub fn builder(db: impl Into<Shared<'a, dyn Corpus + 'a>>) -> QueryBuilder<'a> {
        QueryBuilder {
            db: db.into(),
            config: None,
            target: None,
            pool: None,
            test: Vec::new(),
            positives: None,
            negatives: None,
            concept: None,
            warm_start: false,
        }
    }

    /// The target category ([`None`] for sessions opened from explicit
    /// example marks).
    pub fn target(&self) -> Option<usize> {
        self.target
    }

    /// The candidate indices every pool ranking draws from.
    pub fn pool(&self) -> &[usize] {
        &self.pool
    }

    /// Current positive example indices.
    pub fn positives(&self) -> &[usize] {
        &self.positives
    }

    /// Current negative example indices.
    pub fn negatives(&self) -> &[usize] {
        &self.negatives
    }

    /// The trained concept, if a round has run.
    pub fn concept(&self) -> Option<&Concept> {
        self.concept.as_deref()
    }

    /// A cheap (reference-counted) handle to the trained concept — what a
    /// server inserts into its concept cache without copying the point
    /// and weight vectors.
    pub fn shared_concept(&self) -> Option<Arc<Concept>> {
        self.concept.clone()
    }

    /// Adopts a previously trained concept (typically a concept-cache
    /// hit for the session's exact example sets), skipping DD training
    /// entirely. Counts as a completed round so rankings become
    /// available. `nldd` is the `−log DD` recorded when the concept was
    /// trained.
    ///
    /// # Errors
    /// [`CoreError::ConceptDimension`] if the concept does not fit the
    /// database's feature space.
    pub fn adopt_concept(&mut self, concept: Arc<Concept>, nldd: f64) -> Result<(), CoreError> {
        if concept.dim() != self.db.feature_dim() {
            return Err(CoreError::ConceptDimension {
                concept: concept.dim(),
                expected: self.db.feature_dim(),
            });
        }
        self.concept = Some(concept);
        self.nldd = nldd;
        self.rounds_run += 1;
        Ok(())
    }

    /// `−log DD` of the current concept (infinite before training).
    pub fn nldd(&self) -> f64 {
        self.nldd
    }

    /// Training rounds completed so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Whether the *next* training round would actually run warm: warm
    /// start is enabled and a previous in-session round left a solver
    /// vector to seed from.
    pub fn warm_ready(&self) -> bool {
        self.warm_start && self.warm.is_some()
    }

    /// Trains on the current examples and ranks the pool.
    ///
    /// # Errors
    /// Propagates training failures.
    pub fn run_round(&mut self) -> Result<Ranking, CoreError> {
        self.train_round()?;
        self.rank(&self.request(RankScope::Pool))
    }

    /// Trains on the current examples *without* ranking the pool —
    /// servers rank a top-k page separately and skip the full sort.
    ///
    /// # Errors
    /// * [`CoreError::NoExamples`] when no positive example (database or
    ///   external) exists yet.
    /// * Propagates training failures.
    pub fn train_round(&mut self) -> Result<(), CoreError> {
        self.train_round_traced().map(|_| ())
    }

    /// [`Self::train_round`] that also hands back the full
    /// [`milr_mil::TrainResult`] — per-start objective values, evaluation
    /// counts, and the winning start index. This is the trace hook golden
    /// regression recorders use to pin down the whole training
    /// trajectory, not just the resulting concept.
    ///
    /// # Errors
    /// Same as [`Self::train_round`].
    pub fn train_round_traced(&mut self) -> Result<milr_mil::TrainResult, CoreError> {
        if self.positives.is_empty() && self.external_positives.is_empty() {
            return Err(CoreError::NoExamples);
        }
        let _span = milr_obs::span!("query.train_round");
        let mut dataset = MilDataset::new();
        for &i in &self.positives {
            dataset.push(self.db.bag_at(i)?.into_owned(), BagLabel::Positive)?;
        }
        for bag in &self.external_positives {
            dataset.push(bag.clone(), BagLabel::Positive)?;
        }
        for &i in &self.negatives {
            dataset.push(self.db.bag_at(i)?.into_owned(), BagLabel::Negative)?;
        }
        for bag in &self.external_negatives {
            dataset.push(bag.clone(), BagLabel::Negative)?;
        }
        let mut options = self.config.train_options();
        if let Some(warm) = self.warm.as_ref().filter(|_| self.warm_start) {
            // Warm round: ascend from the previous winner, plus fresh
            // starts only for positive bags the last round never saw —
            // new evidence pays, old evidence doesn't.
            let mut new_bags: Vec<usize> = self
                .positives
                .iter()
                .enumerate()
                .filter(|(_, index)| !warm.positives.contains(index))
                .map(|(slot, _)| slot)
                .collect();
            let first_external_slot = self.positives.len();
            new_bags.extend(
                (warm.external_positive_count..self.external_positives.len())
                    .map(|j| first_external_slot + j),
            );
            options.warm_start = Some(warm.best_x.clone());
            options.start_bags = milr_mil::StartBags::Indices(new_bags);
        }
        let result = train(&dataset, &options)?;
        self.warm = Some(WarmState {
            best_x: result.best_x.clone(),
            positives: self.positives.clone(),
            external_positive_count: self.external_positives.len(),
        });
        self.nldd = result.nldd;
        self.concept = Some(Arc::new(result.concept.clone()));
        self.rounds_run += 1;
        milr_obs::counter!("milr_query_rounds_total").inc();
        Ok(result)
    }

    /// A request over `scope` carrying the session config's thread
    /// count — what the internal protocol paths use.
    fn request(&self, scope: RankScope) -> RankRequest {
        RankRequest {
            scope,
            top_k: None,
            threads: self.config.threads,
            ..RankRequest::default()
        }
    }

    /// Ranks the request's candidates with the current concept. Unlike
    /// the database-level entry, a session resolves every
    /// [`RankScope`]: `Pool` and `Test` name the session's own splits.
    ///
    /// # Errors
    /// * [`CoreError::NotTrained`] before the first round.
    /// * [`CoreError::IndexOutOfBounds`] for bad explicit indices.
    pub fn rank(&self, request: &RankRequest) -> Result<Ranking, CoreError> {
        let concept = self.concept.as_deref().ok_or(CoreError::NotTrained)?;
        let all: Vec<usize>;
        let candidates: &[usize] = match &request.scope {
            RankScope::All => {
                all = (0..self.db.bag_count()).collect();
                &all
            }
            RankScope::Pool => &self.pool,
            RankScope::Test => &self.test,
            RankScope::Indices(indices) => indices,
        };
        self.db.rank_candidates(concept, candidates, request)
    }

    /// Marks database images as positive examples (a user's explicit
    /// relevance feedback). Indices already marked either way are
    /// skipped; an index currently marked negative is *moved* — the user
    /// changed their mind. Returns how many marks changed.
    ///
    /// # Errors
    /// [`CoreError::IndexOutOfBounds`] for invalid indices (no marks are
    /// applied in that case).
    pub fn add_positives(&mut self, indices: &[usize]) -> Result<usize, CoreError> {
        self.mark(indices, true)
    }

    /// Marks database images as negative examples. The exact mirror of
    /// [`Self::add_positives`].
    ///
    /// # Errors
    /// [`CoreError::IndexOutOfBounds`] for invalid indices (no marks are
    /// applied in that case).
    pub fn add_negatives(&mut self, indices: &[usize]) -> Result<usize, CoreError> {
        self.mark(indices, false)
    }

    fn mark(&mut self, indices: &[usize], positive: bool) -> Result<usize, CoreError> {
        let len = self.db.bag_count();
        for &i in indices {
            if i >= len {
                return Err(CoreError::IndexOutOfBounds { index: i, len });
            }
        }
        let mut changed = 0;
        for &i in indices {
            let (same, other) = if positive {
                (&mut self.positives, &mut self.negatives)
            } else {
                (&mut self.negatives, &mut self.positives)
            };
            if same.contains(&i) {
                continue;
            }
            other.retain(|&j| j != i);
            same.push(i);
            changed += 1;
        }
        Ok(changed)
    }

    /// Adds an external positive example bag — an image the user supplied
    /// that is not part of the database. It joins every subsequent
    /// training round but is never ranked.
    ///
    /// # Errors
    /// [`CoreError::Mil`] with a dimension mismatch if the bag does not
    /// fit the database's feature space.
    pub fn add_positive_bag(&mut self, bag: Bag) -> Result<(), CoreError> {
        self.add_external(bag, true)
    }

    /// Adds an external negative example bag. The mirror of
    /// [`Self::add_positive_bag`].
    ///
    /// # Errors
    /// [`CoreError::Mil`] with a dimension mismatch if the bag does not
    /// fit the database's feature space.
    pub fn add_negative_bag(&mut self, bag: Bag) -> Result<(), CoreError> {
        self.add_external(bag, false)
    }

    fn add_external(&mut self, bag: Bag, positive: bool) -> Result<(), CoreError> {
        if bag.dim() != self.db.feature_dim() {
            return Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch {
                expected: self.db.feature_dim(),
                actual: bag.dim(),
            }));
        }
        if positive {
            self.external_positives.push(bag);
        } else {
            self.external_negatives.push(bag);
        }
        Ok(())
    }

    /// `(positive, negative)` counts of external example bags.
    pub fn external_example_counts(&self) -> (usize, usize) {
        (self.external_positives.len(), self.external_negatives.len())
    }

    /// Simulates user feedback: promotes up to `count` top-ranked false
    /// positives from the pool to negative examples. Returns how many
    /// were added (fewer when the pool runs out of fresh mistakes).
    ///
    /// # Errors
    /// * [`CoreError::NotTrained`] before the first round.
    /// * [`CoreError::NoTargetCategory`] for sessions opened from
    ///   explicit marks — simulated feedback needs labels.
    pub fn add_false_positives(&mut self, count: usize) -> Result<usize, CoreError> {
        let target = self.target.ok_or(CoreError::NoTargetCategory)?;
        let ranking = self.rank(&self.request(RankScope::Pool))?;
        let mut added = 0;
        for (index, _) in ranking {
            if added == count {
                break;
            }
            if self.db.bag_label(index)? != target
                && !self.negatives.contains(&index)
                && !self.positives.contains(&index)
            {
                self.negatives.push(index);
                added += 1;
            }
        }
        Ok(added)
    }

    /// Runs the full protocol: `feedback_rounds` rounds of train/rank
    /// with false-positive promotion between rounds, then ranks the test
    /// set.
    ///
    /// # Errors
    /// Propagates training failures.
    pub fn run(&mut self) -> Result<Ranking, CoreError> {
        for round in 0..self.config.feedback_rounds {
            self.run_round()?;
            if round + 1 < self.config.feedback_rounds {
                self.add_false_positives(self.config.false_positives_per_round)?;
            }
        }
        self.rank(&self.request(RankScope::Test))
    }
}

/// Queries a database with *external* example images — pictures the user
/// supplies that are not part of the collection (the interactive use the
/// paper's Fig. 3-6 depicts, as opposed to the §4.1 evaluation protocol
/// where examples come from the labelled pool).
///
/// Trains one Diverse Density concept on the example bags and ranks
/// `candidates`. No feedback rounds are possible (external examples have
/// no pool labels to consult), so this is the single-round query.
///
/// Returns the learned concept together with the ranking.
///
/// # Errors
/// * [`CoreError::NoExamples`] when `positives` is empty.
/// * [`CoreError::Mil`] for bag-dimension mismatches with the database
///   or training failures.
/// * [`CoreError::IndexOutOfBounds`] for bad candidate indices.
pub fn query_with_examples(
    db: &RetrievalDatabase,
    config: &RetrievalConfig,
    positives: &[milr_mil::Bag],
    negatives: &[milr_mil::Bag],
    candidates: &[usize],
) -> Result<(Concept, Ranking), CoreError> {
    if positives.is_empty() {
        return Err(CoreError::NoExamples);
    }
    let mut dataset = MilDataset::new();
    for bag in positives {
        if bag.dim() != db.feature_dim() {
            return Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch {
                expected: db.feature_dim(),
                actual: bag.dim(),
            }));
        }
        dataset.push(bag.clone(), BagLabel::Positive)?;
    }
    for bag in negatives {
        dataset.push(bag.clone(), BagLabel::Negative)?;
    }
    let result = train(&dataset, &config.train_options())?;
    let request = RankRequest::over(candidates.to_vec()).threads(config.threads);
    let ranking = db.rank(&result.concept, &request)?;
    Ok((result.concept, ranking))
}

/// Picks `count` non-target pool images, cycling across the other
/// categories so the negatives are diverse.
fn pick_diverse_negatives(
    labels: &[usize],
    pool: &[usize],
    target: usize,
    count: usize,
) -> Vec<usize> {
    let categories = labels.iter().max().map_or(0, |&max| max + 1);
    let mut per_category: Vec<Vec<usize>> = vec![Vec::new(); categories];
    for &i in pool {
        let label = labels[i];
        if label != target {
            per_category[label].push(i);
        }
    }
    let mut negatives = Vec::with_capacity(count);
    let mut depth = 0usize;
    while negatives.len() < count {
        let mut any = false;
        for members in &per_category {
            if let Some(&index) = members.get(depth) {
                negatives.push(index);
                any = true;
                if negatives.len() == count {
                    break;
                }
            }
        }
        if !any {
            break; // pool exhausted
        }
        depth += 1;
    }
    negatives
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_imgproc::GrayImage;
    use milr_mil::WeightPolicy;

    /// Two synthetic "categories" with very different gray structure:
    /// category 0 = bright vertical center band, category 1 = horizontal
    /// gradient, plus per-image deterministic jitter.
    fn image(category: usize, variant: usize) -> GrayImage {
        GrayImage::from_fn(64, 48, move |x, y| {
            let noise = ((x * (3 + variant) + y * (7 + 2 * variant)) % 31) as f32;
            match category {
                0 => {
                    let band = if (24..40).contains(&x) { 200.0 } else { 60.0 };
                    band + noise
                }
                _ => (x as f32 / 63.0) * 180.0 + 20.0 + noise,
            }
        })
        .unwrap()
    }

    fn config() -> RetrievalConfig {
        RetrievalConfig {
            threads: 1,
            max_iterations: 40,
            initial_positives: 2,
            initial_negatives: 2,
            feedback_rounds: 2,
            false_positives_per_round: 1,
            policy: WeightPolicy::Identical,
            ..RetrievalConfig::default()
        }
    }

    fn database() -> RetrievalDatabase {
        // 6 of each category; indices 0..6 are category 0.
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
    fn session_selects_initial_examples_from_pool() {
        let db = database();
        let cfg = config();
        let pool = vec![0, 1, 2, 6, 7, 8];
        let test = vec![3, 4, 5, 9, 10, 11];
        let session = QuerySession::builder(&db)
            .config(&cfg)
            .target(0)
            .pool(pool)
            .test(test)
            .build()
            .unwrap();
        assert_eq!(session.positives(), &[0, 1]);
        assert_eq!(session.negatives(), &[6, 7]);
        assert_eq!(session.rounds_run(), 0);
        assert!(session.concept().is_none());
    }

    #[test]
    fn builder_pool_defaults_to_the_whole_database() {
        let db = database();
        let cfg = config();
        let session = QuerySession::builder(&db)
            .config(&cfg)
            .target(0)
            .build()
            .unwrap();
        let expected: Vec<usize> = (0..db.len()).collect();
        assert_eq!(session.pool(), expected);
        // Auto-picked examples draw from that default pool.
        assert_eq!(session.positives(), &[0, 1]);
        assert_eq!(session.negatives(), &[6, 7]);
    }

    #[test]
    fn ranking_before_training_fails() {
        let db = database();
        let cfg = config();
        let session = QuerySession::builder(&db)
            .config(&cfg)
            .target(0)
            .pool(vec![0, 6])
            .test(vec![1, 7])
            .build()
            .unwrap();
        assert!(matches!(
            session.rank(&RankRequest::pool()),
            Err(CoreError::NotTrained)
        ));
        assert!(matches!(
            session.rank(&RankRequest::test()),
            Err(CoreError::NotTrained)
        ));
    }

    #[test]
    fn one_round_ranks_target_images_first() {
        let db = database();
        let cfg = config();
        let pool = vec![0, 1, 2, 6, 7, 8];
        let test = vec![3, 4, 5, 9, 10, 11];
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .target(0)
            .pool(pool)
            .test(test)
            .build()
            .unwrap();
        let ranking = session.run_round().unwrap();
        assert_eq!(ranking.len(), 6);
        // The three category-0 pool images must outrank the three
        // category-1 images.
        let top3: Vec<usize> = ranking.iter().take(3).map(|&(i, _)| i).collect();
        for i in top3 {
            assert_eq!(
                db.labels()[i],
                0,
                "rank head must be category 0: {ranking:?}"
            );
        }
        assert!(session.nldd().is_finite());
    }

    #[test]
    fn test_ranking_generalises() {
        let db = database();
        let cfg = config();
        let pool = vec![0, 1, 2, 6, 7, 8];
        let test = vec![3, 4, 5, 9, 10, 11];
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .target(0)
            .pool(pool)
            .test(test)
            .build()
            .unwrap();
        let ranking = session.run().unwrap();
        let top3: Vec<usize> = ranking.iter().take(3).map(|&(i, _)| i).collect();
        for i in top3 {
            assert_eq!(
                db.labels()[i],
                0,
                "test head must be category 0: {ranking:?}"
            );
        }
        assert_eq!(session.rounds_run(), 2);
    }

    #[test]
    fn false_positive_promotion_adds_fresh_negatives() {
        let db = database();
        let cfg = config();
        let pool = vec![0, 1, 2, 6, 7, 8];
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .target(0)
            .pool(pool)
            .test(vec![3, 9])
            .build()
            .unwrap();
        session.run_round().unwrap();
        let before = session.negatives().len();
        let added = session.add_false_positives(1).unwrap();
        assert_eq!(session.negatives().len(), before + added);
        // Promoted items are non-target and new.
        for &i in &session.negatives()[before..] {
            assert_ne!(db.labels()[i], 0);
        }
        // Exhausting the pool caps the additions.
        let added2 = session.add_false_positives(100).unwrap();
        assert!(
            added2 <= 1,
            "only one non-target pool image remains, added {added2}"
        );
    }

    #[test]
    fn invalid_arguments_rejected() {
        let db = database();
        let cfg = config();
        assert!(matches!(
            QuerySession::builder(&db)
                .config(&cfg)
                .target(5)
                .pool(vec![0])
                .test(vec![1])
                .build(),
            Err(CoreError::UnknownCategory { .. })
        ));
        assert!(matches!(
            QuerySession::builder(&db)
                .config(&cfg)
                .target(0)
                .pool(vec![99])
                .test(vec![1])
                .build(),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
        // Pool without target images.
        assert!(matches!(
            QuerySession::builder(&db)
                .config(&cfg)
                .target(0)
                .pool(vec![6, 7])
                .test(vec![1])
                .build(),
            Err(CoreError::NoExamples)
        ));
    }

    #[test]
    fn external_example_query_ranks_like_images() {
        use crate::features::image_to_bag;
        let db = database();
        let cfg = config();
        // External examples: fresh renders of category 0 and 1 (variants
        // the database has never seen).
        let pos = vec![
            image_to_bag(&image(0, 20), &cfg).unwrap(),
            image_to_bag(&image(0, 21), &cfg).unwrap(),
        ];
        let neg = vec![image_to_bag(&image(1, 22), &cfg).unwrap()];
        let candidates: Vec<usize> = (0..12).collect();
        let (concept, ranking) = query_with_examples(&db, &cfg, &pos, &neg, &candidates).unwrap();
        assert_eq!(concept.dim(), db.feature_dim());
        assert_eq!(ranking.len(), 12);
        let top3: Vec<usize> = ranking.iter().take(3).map(|&(i, _)| i).collect();
        for i in top3 {
            assert_eq!(
                db.labels()[i],
                0,
                "external category-0 examples must retrieve category 0: {ranking:?}"
            );
        }
    }

    #[test]
    fn external_query_validates_inputs() {
        use milr_mil::Bag;
        let db = database();
        let cfg = config();
        // No positives.
        assert!(matches!(
            query_with_examples(&db, &cfg, &[], &[], &[0]),
            Err(CoreError::NoExamples)
        ));
        // Wrong dimension.
        let bad = Bag::new(vec![vec![0.0; 7]]).unwrap();
        assert!(matches!(
            query_with_examples(&db, &cfg, &[bad], &[], &[0]),
            Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn explicit_mark_session_has_no_target_and_trains() {
        let db = database();
        let cfg = config();
        let pool: Vec<usize> = (0..12).collect();
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![0, 1])
            .negatives(vec![6, 7])
            .pool(pool)
            .build()
            .unwrap();
        assert_eq!(session.target(), None);
        assert_eq!(session.positives(), &[0, 1]);
        assert_eq!(session.negatives(), &[6, 7]);
        let ranking = session.run_round().unwrap();
        assert_eq!(ranking.len(), 12);
        // Simulated (label-driven) feedback is impossible without a
        // target category.
        assert!(matches!(
            session.add_false_positives(1),
            Err(CoreError::NoTargetCategory)
        ));
    }

    #[test]
    fn explicit_mark_session_validates_inputs() {
        let db = database();
        let cfg = config();
        // Empty positives are legal at construction (an external upload
        // may arrive later) but training without any positive fails.
        let mut empty = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![])
            .negatives(vec![6])
            .pool(vec![0])
            .build()
            .unwrap();
        assert!(matches!(empty.train_round(), Err(CoreError::NoExamples)));
        assert!(matches!(
            QuerySession::builder(&db)
                .config(&cfg)
                .positives(vec![99])
                .pool(vec![0])
                .build(),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn explicit_marks_move_between_lists_and_dedup() {
        let db = database();
        let cfg = config();
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![0])
            .negatives(vec![6])
            .pool((0..12).collect::<Vec<_>>())
            .build()
            .unwrap();
        // Fresh marks are added; repeats are ignored.
        assert_eq!(session.add_positives(&[1, 1, 0]).unwrap(), 1);
        assert_eq!(session.positives(), &[0, 1]);
        // Marking a current negative positive moves it.
        assert_eq!(session.add_positives(&[6]).unwrap(), 1);
        assert_eq!(session.positives(), &[0, 1, 6]);
        assert!(session.negatives().is_empty());
        // …and back.
        assert_eq!(session.add_negatives(&[6, 7]).unwrap(), 2);
        assert_eq!(session.negatives(), &[6, 7]);
        assert_eq!(session.positives(), &[0, 1]);
        // Bad indices reject the whole batch.
        assert!(session.add_negatives(&[5, 99]).is_err());
        assert_eq!(session.negatives(), &[6, 7]);
    }

    #[test]
    fn arc_shared_session_is_static_and_matches_borrowed() {
        use std::sync::Arc;
        let db = Arc::new(database());
        let cfg = Arc::new(config());
        let pool = vec![0, 1, 2, 6, 7, 8];
        // A session built from Arcs has no borrowed lifetime…
        let mut shared: QuerySession<'static> = QuerySession::builder(Arc::clone(&db))
            .config(Arc::clone(&cfg))
            .positives(vec![0, 1])
            .negatives(vec![6, 7])
            .pool(pool.clone())
            .build()
            .unwrap();
        // …and produces bit-identical rankings to the borrowed path.
        let mut borrowed = QuerySession::builder(&*db)
            .config(&*cfg)
            .positives(vec![0, 1])
            .negatives(vec![6, 7])
            .pool(pool)
            .build()
            .unwrap();
        assert_eq!(
            shared.run_round().unwrap(),
            borrowed.run_round().unwrap(),
            "Arc-backed and borrowed sessions must agree exactly"
        );
    }

    #[test]
    fn adopted_concept_skips_training_and_matches() {
        let db = database();
        let cfg = config();
        let pool = vec![0, 1, 2, 6, 7, 8];
        let mut trained = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![0, 1])
            .negatives(vec![6, 7])
            .pool(pool.clone())
            .build()
            .unwrap();
        let ranking = trained.run_round().unwrap();
        let concept = trained.shared_concept().expect("trained");

        // A concept installed at construction makes the session rankable
        // immediately, with identical output.
        let restored = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![0, 1])
            .negatives(vec![6, 7])
            .pool(pool.clone())
            .concept(Arc::clone(&concept), trained.nldd())
            .build()
            .unwrap();
        assert_eq!(restored.rounds_run(), 1);
        assert_eq!(restored.nldd(), trained.nldd());
        assert_eq!(restored.rank(&RankRequest::pool()).unwrap(), ranking);
        // Top-k pages agree with the full ranking prefix.
        assert_eq!(
            restored.rank(&RankRequest::pool().top(3)).unwrap(),
            ranking[..3]
        );

        // Post-construction adoption behaves identically…
        let mut adopted = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![0, 1])
            .negatives(vec![6, 7])
            .pool(pool.clone())
            .build()
            .unwrap();
        adopted
            .adopt_concept(Arc::clone(&concept), trained.nldd())
            .unwrap();
        assert_eq!(adopted.rank(&RankRequest::pool()).unwrap(), ranking);

        // …and a concept from the wrong feature space is rejected both
        // ways.
        let alien = Arc::new(Concept::new(vec![0.0; 3], vec![1.0; 3]));
        assert!(matches!(
            adopted.adopt_concept(Arc::clone(&alien), 0.0),
            Err(CoreError::ConceptDimension {
                concept: 3,
                expected: 100
            })
        ));
        assert!(matches!(
            QuerySession::builder(&db)
                .config(&cfg)
                .positives(vec![0])
                .pool(pool)
                .concept(alien, 0.0)
                .build(),
            Err(CoreError::ConceptDimension { .. })
        ));
    }

    #[test]
    fn session_rank_resolves_every_scope() {
        let db = database();
        let cfg = config();
        let pool = vec![0, 1, 2, 6, 7, 8];
        let test = vec![3, 4, 5, 9, 10, 11];
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .target(0)
            .pool(pool.clone())
            .test(test.clone())
            .build()
            .unwrap();
        session.train_round().unwrap();
        let pool_ranking = session.rank(&RankRequest::pool()).unwrap();
        assert_eq!(pool_ranking.len(), pool.len());
        assert_eq!(
            pool_ranking,
            session.rank(&RankRequest::over(pool)).unwrap(),
            "Pool scope must equal ranking the pool indices explicitly"
        );
        let test_ranking = session.rank(&RankRequest::test()).unwrap();
        assert_eq!(
            test_ranking,
            session.rank(&RankRequest::over(test)).unwrap()
        );
        let all_ranking = session.rank(&RankRequest::all()).unwrap();
        assert_eq!(all_ranking.len(), db.len());
        // Bounded requests are exact prefixes regardless of scope.
        assert_eq!(
            session.rank(&RankRequest::all().top(4)).unwrap(),
            all_ranking[..4]
        );
        // Explicit bad indices still reject.
        assert!(matches!(
            session.rank(&RankRequest::over(vec![99])),
            Err(CoreError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn traced_round_exposes_training_trajectory() {
        let db = database();
        let cfg = config();
        let pool = vec![0, 1, 2, 6, 7, 8];
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![0, 1])
            .negatives(vec![6, 7])
            .pool(pool)
            .build()
            .unwrap();
        let result = session.train_round_traced().unwrap();
        assert_eq!(result.start_values.len(), result.starts);
        assert_eq!(result.start_evaluations.len(), result.starts);
        assert_eq!(result.start_values[result.best_start], result.nldd);
        // The traced round updates session state exactly like train_round.
        assert_eq!(session.nldd(), result.nldd);
        assert_eq!(session.concept(), Some(&result.concept));
        assert_eq!(session.rounds_run(), 1);
    }

    #[test]
    fn warm_retrain_spends_fewer_evaluations_than_cold() {
        let db = database();
        let cfg = config();
        let pool = vec![0, 1, 2, 6, 7, 8];
        let build = |warm: bool| {
            QuerySession::builder(&db)
                .config(&cfg)
                .positives(vec![0, 1])
                .negatives(vec![6, 7])
                .pool(pool.clone())
                .warm_start(warm)
                .build()
                .unwrap()
        };
        let mut cold = build(false);
        let mut warm = build(true);
        assert!(!warm.warm_ready(), "nothing to warm from before round 1");

        // Round 1 is cold either way (nothing to warm from) and must be
        // bit-identical across the two sessions.
        let first_cold = cold.train_round_traced().unwrap();
        let first_warm = warm.train_round_traced().unwrap();
        assert_eq!(first_cold.concept, first_warm.concept);
        assert_eq!(first_cold.starts, first_warm.starts);
        assert!(warm.warm_ready());
        assert!(!cold.warm_ready(), "warm start is opt-in");

        // Same feedback lands in both sessions; round 2 diverges in
        // cost, not in sanity.
        for session in [&mut cold, &mut warm] {
            session.add_positives(&[2]).unwrap();
            session.add_negatives(&[8]).unwrap();
        }
        let second_cold = cold.train_round_traced().unwrap();
        let second_warm = warm.train_round_traced().unwrap();
        // Cold restarts from all 3 positive bags; warm restarts from the
        // 1 new bag plus the carried winner.
        assert!(second_warm.starts < second_cold.starts);
        let cold_evals: usize = second_cold.start_evaluations.iter().sum();
        let warm_evals: usize = second_warm.start_evaluations.iter().sum();
        assert!(
            warm_evals < cold_evals,
            "warm retrain ({warm_evals} evals) must beat cold ({cold_evals} evals)"
        );
        // The warm concept still does its job on this easy split.
        let ranking = warm.rank(&RankRequest::pool()).unwrap();
        let top3: Vec<usize> = ranking.iter().take(3).map(|&(i, _)| i).collect();
        for i in top3 {
            assert_eq!(db.labels()[i], 0, "warm concept must rank category 0 first");
        }
    }

    #[test]
    fn warm_retrain_without_new_positives_is_a_single_start() {
        let db = database();
        let cfg = config();
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![0, 1])
            .negatives(vec![6])
            .pool((0..12).collect::<Vec<_>>())
            .warm_start(true)
            .build()
            .unwrap();
        let first = session.train_round_traced().unwrap();
        // Only negative feedback: no new positive bags, so the warm
        // round ascends from the carried winner alone.
        session.add_negatives(&[7]).unwrap();
        let second = session.train_round_traced().unwrap();
        assert_eq!(second.starts, 1);
        assert!(second.nldd.is_finite());
        assert!(first.starts > 1);
    }

    #[test]
    fn external_bags_join_training_but_not_ranking() {
        use crate::features::image_to_bag;
        let db = database();
        let cfg = config();
        let pool: Vec<usize> = (0..12).collect();
        let mut session = QuerySession::builder(&db)
            .config(&cfg)
            .positives(vec![0])
            .negatives(vec![6])
            .pool(pool.clone())
            .build()
            .unwrap();
        session
            .add_positive_bag(image_to_bag(&image(0, 30), &cfg).unwrap())
            .unwrap();
        session
            .add_negative_bag(image_to_bag(&image(1, 31), &cfg).unwrap())
            .unwrap();
        assert_eq!(session.external_example_counts(), (1, 1));
        let ranking = session.run_round().unwrap();
        // External bags are trained on but never ranked: the ranking
        // still covers exactly the pool.
        assert_eq!(ranking.len(), pool.len());
        // Wrong-dimension bags are rejected.
        let bad = milr_mil::Bag::new(vec![vec![0.0; 5]]).unwrap();
        assert!(matches!(
            session.add_positive_bag(bad),
            Err(CoreError::Mil(milr_mil::MilError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn diverse_negative_selection_round_robins() {
        // Three categories in the pool; negatives for target 0 must
        // alternate between categories 1 and 2 rather than exhausting one.
        let mut images = Vec::new();
        for v in 0..2 {
            images.push((image(0, v), 0));
        }
        for v in 0..3 {
            images.push((image(1, v), 1));
        }
        for v in 0..3 {
            images.push((image(1, v + 10), 2));
        }
        let cfg = RetrievalConfig {
            initial_negatives: 4,
            ..config()
        };
        let db = RetrievalDatabase::from_labelled_images(images, &cfg).unwrap();
        let pool: Vec<usize> = (0..8).collect();
        let session = QuerySession::builder(&db)
            .config(&cfg)
            .target(0)
            .pool(pool)
            .test(vec![])
            .build()
            .unwrap();
        let negative_labels: Vec<usize> = session
            .negatives()
            .iter()
            .map(|&i| db.labels()[i])
            .collect();
        assert_eq!(negative_labels, vec![1, 2, 1, 2]);
    }
}
