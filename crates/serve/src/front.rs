//! The rank front every training role shares. The single-node daemon's
//! `GET /rank` and the coordinator's `GET /cluster/rank` answer the
//! paper's one query loop alike: parse the example sets, key the
//! concept, fetch it from the cache or train it in one round. They
//! differ only in how the page is ranked — in place, or scattered over
//! the workers.

use std::sync::{Arc, Mutex, MutexGuard};

use milr_core::{CoreError, Corpus, QuerySession, RankRequest, RankScope, RetrievalConfig};
use milr_mil::{BagAggregator, WeightPolicy};

use crate::cache::{CachedConcept, ConceptCache, ConceptKey};
use crate::http::Request;
use crate::node::{flag, parse_flag, Reply};
use crate::Json;

/// What the rank front is configured with.
#[derive(Debug, Clone)]
pub struct FrontOptions {
    /// Training/ranking configuration shared by every request.
    pub retrieval: RetrievalConfig,
    /// Concept-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Ranking page size when a request names no `k`.
    pub default_page: usize,
}

impl Default for FrontOptions {
    fn default() -> Self {
        Self {
            retrieval: RetrievalConfig::default(),
            cache_capacity: 128,
            default_page: 10,
        }
    }
}

impl FrontOptions {
    /// Overrides `--cache-capacity`, `--page` and `--policy` from the
    /// command line, and ranks on one thread per request: a serving
    /// role's parallelism is across requests and workers, not within
    /// one (results are identical either way).
    ///
    /// # Errors
    /// A message naming the flag whose value does not parse.
    pub fn apply_flags(&mut self, args: &[String]) -> Result<(), String> {
        if let Some(capacity) = parse_flag(args, "--cache-capacity")? {
            self.cache_capacity = capacity;
        }
        if let Some(page) = parse_flag(args, "--page")? {
            self.default_page = page;
        }
        if let Some(spec) = flag(args, "--policy") {
            self.retrieval.policy =
                parse_policy(&spec).map_err(|e| format!("invalid --policy {spec:?}: {e}"))?;
        }
        self.retrieval.threads = 1;
        Ok(())
    }
}

/// Parses a policy spec (`original | identical | alpha:A | constraint:B`
/// — the same grammar as the CLI).
///
/// # Errors
/// A description of the unrecognised spec.
pub fn parse_policy(spec: &str) -> Result<WeightPolicy, String> {
    if spec == "original" {
        return Ok(WeightPolicy::OriginalDd);
    }
    if spec == "identical" {
        return Ok(WeightPolicy::Identical);
    }
    if let Some(a) = spec.strip_prefix("alpha:") {
        let alpha: f64 = a.parse().map_err(|_| format!("bad alpha in {spec:?}"))?;
        return Ok(WeightPolicy::AlphaHack { alpha });
    }
    if let Some(b) = spec.strip_prefix("constraint:") {
        let beta: f64 = b.parse().map_err(|_| format!("bad beta in {spec:?}"))?;
        return Ok(WeightPolicy::SumConstraint { beta });
    }
    Err(format!("unknown policy {spec:?}"))
}

/// Parses an optional aggregator label: absent means the paper's
/// min-distance fold, anything unrecognised is the caller's mistake.
///
/// # Errors
/// `unknown aggregator "…"`.
pub(crate) fn parse_aggregator(label: Option<&str>) -> Result<BagAggregator, String> {
    match label {
        None => Ok(BagAggregator::MinDistance),
        Some(label) => {
            BagAggregator::parse(label).ok_or_else(|| format!("unknown aggregator {label:?}"))
        }
    }
}

/// Parses a comma-separated index list (`"3,1,4"`), the `positives` /
/// `negatives` query grammar.
fn parse_index_list(text: &str) -> Result<Vec<usize>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid index {part:?}"))
        })
        .collect()
}

/// A core failure as a reply: caller mistakes are `400`, anything else
/// is the server's fault.
impl From<CoreError> for Reply {
    fn from(err: CoreError) -> Self {
        let status = match err {
            CoreError::IndexOutOfBounds { .. }
            | CoreError::NoExamples
            | CoreError::NotTrained
            | CoreError::UnknownCategory { .. }
            | CoreError::NoTargetCategory
            | CoreError::ConceptDimension { .. }
            | CoreError::Config(_) => 400,
            CoreError::Mil(milr_mil::MilError::DimensionMismatch { .. }) => 400,
            _ => 500,
        };
        Reply::error(status, err.to_string())
    }
}

/// A ranked page as the wire's `[{"index": …, "distance": …}, …]` array.
pub fn ranking_json(ranking: &[(usize, f64)]) -> Json {
    Json::Arr(
        ranking
            .iter()
            .map(|&(index, distance)| {
                Json::Obj(vec![
                    ("index".into(), Json::num(index as f64)),
                    ("distance".into(), Json::Num(distance)),
                ])
            })
            .collect(),
    )
}

/// One parsed rank query: the example sets, the page, the bag fold, and
/// the training config its policy resolves to.
#[derive(Debug)]
pub struct RankQuery {
    /// Positive example indices (at least one).
    pub positives: Vec<usize>,
    /// Negative example indices.
    pub negatives: Vec<usize>,
    /// Page size.
    pub k: usize,
    /// How instance distances fold into a bag's ranking key.
    pub aggregator: BagAggregator,
    /// Training configuration: the shared one, or a copy with the
    /// requested policy swapped in.
    pub config: Arc<RetrievalConfig>,
    /// The policy's label (a concept-cache key component).
    pub policy_label: String,
}

impl RankQuery {
    /// The concept-cache key under snapshot `generation`. The aggregator
    /// is deliberately absent: it shapes ranking, not training, so every
    /// fold shares one concept.
    pub fn key(&self, generation: u64) -> ConceptKey {
        ConceptKey::new(
            &self.positives,
            &self.negatives,
            &self.policy_label,
            generation,
        )
    }
}

/// The shared config and concept cache behind a role's rank requests.
#[derive(Debug)]
pub struct Front {
    config: Arc<RetrievalConfig>,
    default_page: usize,
    cache: Mutex<ConceptCache>,
}

impl Front {
    /// A front with an empty cache. Every serving role builds one
    /// before it binds, so a role never starts with a configuration
    /// that would fail each training request.
    ///
    /// # Errors
    /// [`CoreError::Config`] naming the first invalid field of
    /// `options.retrieval` (an out-of-range policy parameter, say).
    pub fn new(options: &FrontOptions) -> Result<Self, CoreError> {
        options.retrieval.validate().map_err(CoreError::Config)?;
        Ok(Self {
            config: Arc::new(options.retrieval.clone()),
            default_page: options.default_page,
            cache: Mutex::new(ConceptCache::new(options.cache_capacity)),
        })
    }

    /// The shared training/ranking configuration.
    pub fn config(&self) -> &Arc<RetrievalConfig> {
        &self.config
    }

    /// Page size when a request names no `k`.
    pub(crate) fn default_page(&self) -> usize {
        self.default_page
    }

    /// The top-`k` page of `scope` under `aggregator`, ranked on the
    /// front's thread count — the one way every serving page is asked
    /// for.
    pub(crate) fn page(
        &self,
        scope: RankScope,
        k: usize,
        aggregator: BagAggregator,
    ) -> RankRequest {
        RankRequest {
            scope,
            top_k: Some(k),
            threads: self.config.threads,
            aggregator,
        }
    }

    /// The concept cache, locked.
    pub fn cache(&self) -> MutexGuard<'_, ConceptCache> {
        self.cache.lock().expect("concept cache mutex")
    }

    /// Resolves an optional `policy` spec: the shared config when
    /// absent, a copy with the policy swapped in when present.
    ///
    /// # Errors
    /// A description of an unparsable or invalid policy.
    pub(crate) fn config_for_policy(
        &self,
        spec: Option<&str>,
    ) -> Result<(Arc<RetrievalConfig>, String), String> {
        match spec {
            None => Ok((Arc::clone(&self.config), self.config.policy.label())),
            Some(spec) => {
                let policy = parse_policy(spec)?;
                policy.validate()?;
                let label = policy.label();
                let mut config = (*self.config).clone();
                config.policy = policy;
                Ok((Arc::new(config), label))
            }
        }
    }

    /// Parses `positives`, `negatives`, `k`, `policy` and `aggregator`
    /// from a rank request's query string.
    ///
    /// # Errors
    /// The message of the `400` the request earns.
    pub fn parse_rank(&self, req: &Request) -> Result<RankQuery, String> {
        let positives = parse_index_list(req.query_param("positives").unwrap_or(""))?;
        let negatives = parse_index_list(req.query_param("negatives").unwrap_or(""))?;
        if positives.is_empty() {
            return Err("at least one positive example index is required".into());
        }
        let k = match req.query_param("k") {
            None => self.default_page,
            Some(v) => v.parse().map_err(|_| format!("invalid k {v:?}"))?,
        };
        let (config, policy_label) = self.config_for_policy(req.query_param("policy"))?;
        let aggregator = parse_aggregator(req.query_param("aggregator"))?;
        Ok(RankQuery {
            positives,
            negatives,
            k,
            aggregator,
            config,
            policy_label,
        })
    }

    /// The concept for `query` over `corpus`, and whether the cache held
    /// it: a hit, or one fresh training round whose result is inserted
    /// under `key`.
    ///
    /// # Errors
    /// The [`CoreError`] training failed with (a bad index, say).
    pub fn concept<C: Corpus>(
        &self,
        key: ConceptKey,
        corpus: &C,
        query: &RankQuery,
    ) -> Result<(CachedConcept, bool), CoreError> {
        if let Some(hit) = self.cache().get(&key) {
            return Ok((hit, true));
        }
        // Train outside the cache lock — concurrent identical misses may
        // train twice, but they converge on the same deterministic
        // concept, and never serialise unrelated requests behind one
        // training run.
        let mut session = QuerySession::builder(corpus)
            .config(&*query.config)
            .positives(query.positives.clone())
            .negatives(query.negatives.clone())
            .pool(Vec::new()) // the caller ranks the page; no pool needed
            .build()?;
        session.train_round()?;
        let fresh = CachedConcept {
            concept: session.shared_concept().expect("just trained"),
            nldd: session.nldd(),
        };
        self.cache().insert(key, fresh.clone());
        Ok((fresh, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_requests_rank_on_the_fronts_threads() {
        let mut options = FrontOptions::default();
        options.apply_flags(&[]).unwrap();
        let front = Front::new(&options).unwrap();
        for scope in [RankScope::All, RankScope::Pool] {
            let page = front.page(scope, 7, BagAggregator::LogSumExp);
            assert_eq!(page.threads, 1, "one thread per serving page");
            assert_eq!(page.top_k, Some(7));
            assert_eq!(page.aggregator, BagAggregator::LogSumExp);
        }
    }

    #[test]
    fn an_invalid_policy_is_refused_before_serving() {
        let mut options = FrontOptions::default();
        options.retrieval.policy = WeightPolicy::SumConstraint { beta: 2.0 };
        let err = Front::new(&options).unwrap_err().to_string();
        assert!(err.starts_with("invalid configuration: "), "{err}");
        assert!(err.contains("SumConstraint"), "{err}");
    }
}
