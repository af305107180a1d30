//! The one ranking engine: a pruned, quantized-screened scan over runs
//! of [`FlatBags`], and the k-way merge that gathers partial rankings.
//!
//! Every ranking in the workspace goes through [`rank_runs`]: the
//! in-process `RetrievalDatabase` (one store, split into per-worker
//! runs), the sharded store (one run per shard), and each cluster
//! worker's shard subset. Ties break by index at every stage under the
//! one comparator [`ranking_order`], and every surfaced distance comes
//! from the same exact kernel, so the outputs of all those callers agree
//! bit for bit.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{self, AtomicU64};

use milr_optim::pool;

use crate::aggregate::BagAggregator;
use crate::concept::Concept;
use crate::flat::{FlatBags, ScreenScratch, ScreenStats};

/// A ranking: bag indices with their ranking keys (squared concept
/// distances under min-distance), ascending.
pub type Ranking = Vec<(usize, f64)>;

/// The one ranking order: ascending key under [`f64::total_cmp`], ties
/// broken by index. Every ranking path — full sort, bounded heap or
/// k-way merge — orders entries with exactly this, which is what makes
/// their outputs comparable bit for bit. It is total, so no key (+∞, or
/// even a NaN) can make a ranking panic.
pub fn ranking_order(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0))
}

/// Some bags of one [`FlatBags`] store, to be ranked. A bag's index in
/// the ranking is `base` plus its index in the store.
#[derive(Debug, Clone)]
pub struct Run<'a> {
    /// The store holding the bags.
    pub bags: &'a FlatBags,
    /// The ranking index of the store's first bag.
    pub base: usize,
    /// Which of the store's bags to rank.
    pub visit: Visit<'a>,
}

/// The bags a [`Run`] visits.
#[derive(Debug, Clone)]
pub enum Visit<'a> {
    /// The store's bags in this range of store indices.
    Range(Range<usize>),
    /// The listed bags, by ranking index (`base` + store index).
    Indices(Cow<'a, [usize]>),
}

impl Visit<'_> {
    fn len(&self) -> usize {
        match self {
            Self::Range(range) => range.len(),
            Self::Indices(indices) => indices.len(),
        }
    }
}

/// What every worker of one ranking shares.
#[derive(Debug, Clone, Copy)]
pub struct ScanSpec<'a> {
    /// The concept to rank by.
    pub concept: &'a Concept,
    /// `Some(k)` keeps the first `k` entries, computed with the pruned
    /// bounded scan; `None` ranks every visited bag.
    pub top_k: Option<usize>,
    /// Whether top-k scans screen instances through each store's `i8`
    /// tier before the exact kernel. Either way the ranking is the same.
    pub screen: bool,
    /// How each bag's instance distances reduce to its ranking key.
    pub aggregator: BagAggregator,
    /// A seed for the scatter bound ([`f64::INFINITY`] for none). A
    /// finite seed must be backed by `k` real candidates of the final
    /// merge, or pruning against it can drop a top-k bag.
    pub initial_bound: f64,
}

/// The running global top-k threshold of one scatter: workers publish
/// their heap's k-th-worst once the heap is full and prune against the
/// minimum published. A published worst is backed by `k` real
/// candidates, so it is ≥ the global k-th best, and a bag it prunes
/// could never enter the merged top-k — the bound changes no ranking,
/// however the scans interleave. Distances are non-negative, so their
/// bit patterns order like the `u64`s they are, and `fetch_min` on the
/// bits is an exact atomic minimum.
#[derive(Debug)]
struct SharedBound(AtomicU64);

impl SharedBound {
    /// A bound seeded with `bound` ([`f64::INFINITY`]: nothing prunes
    /// until a scan publishes).
    fn new(bound: f64) -> Self {
        Self(AtomicU64::new(bound.max(0.0).to_bits()))
    }

    /// The current threshold.
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(atomic::Ordering::Relaxed))
    }

    /// Publishes a candidate threshold; returns whether it tightened
    /// the shared bound.
    fn tighten(&self, candidate: f64) -> bool {
        let bits = candidate.to_bits();
        self.0.fetch_min(bits, atomic::Ordering::Relaxed) > bits
    }
}

/// Max-heap entry for the bounded scan: lexicographically largest
/// `(distance, index)` on top — the entry the final ranking would place
/// last.
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
        ranking_order(&(self.1, self.0), &(other.1, other.0))
    }
}

/// Ranks `runs` on the pooled executor — scatter: each worker takes a
/// contiguous slice of `runs` and scans it with a single bounded heap,
/// publishing its k-th-worst into the shared scatter bound; gather: an
/// index-ordered k-way merge of the workers' rankings. The result is
/// identical for any `threads` value (0 = available parallelism).
///
/// Folds every worker's screen, threshold and candidate counters into
/// the observability registry.
///
/// # Panics
/// Panics if a visited bag is out of range for its store or the
/// concept's dimension differs from a store's.
pub fn rank_runs(runs: &[Run<'_>], spec: &ScanSpec<'_>, threads: usize) -> Ranking {
    let shared = SharedBound::new(spec.initial_bound);
    let workers = pool::resolve_threads(threads, runs.len());
    let scans = pool::run_indexed(workers, workers, |w| {
        let mine = &runs[w * runs.len() / workers..(w + 1) * runs.len() / workers];
        let candidates = mine.iter().map(|run| run.visit.len()).sum();
        let mut scan = Scan::new(spec, &shared, candidates);
        for run in mine {
            match &run.visit {
                Visit::Range(range) => scan.run(run, range.clone()),
                Visit::Indices(indices) => {
                    scan.run(run, indices.iter().map(|&index| index - run.base));
                }
            }
        }
        scan
    });
    let mut stats = ScreenStats::default();
    let mut tightenings = 0;
    let rankings: Vec<Ranking> = scans
        .into_iter()
        .map(|scan| {
            stats.merge(scan.stats);
            tightenings += scan.tightenings;
            scan.into_ranking()
        })
        .collect();
    if spec.top_k.is_some() {
        let candidates: usize = runs.iter().map(|run| run.visit.len()).sum();
        milr_obs::counter!("milr_rank_topk_candidates_total").add(candidates as u64);
    }
    milr_obs::counter!("milr_rank_quant_screened_total").add(stats.screened);
    milr_obs::counter!("milr_rank_quant_rescored_total").add(stats.rescored);
    milr_obs::counter!("milr_rank_threshold_tightenings_total").add(tightenings);
    // The merge of sorted worker rankings by (distance, index), truncated
    // to k, is exactly the global ranking's head. The shared bound may
    // leave a worker's ranking *shorter* than k (bags provably outside
    // the global top-k are dropped mid-fill), but every global top-k
    // entry is always admitted to its worker's heap, so the merge of the
    // survivors is still exact.
    merge_rankings(rankings, spec.top_k)
}

/// One pool worker's scan state across the runs it ranks: a full scored
/// sort, or the pruned bounded scan with a `(distance, index)` max-heap
/// that prunes against the tighter of its worst and the shared bound,
/// publishes every tightening back, and (when `screen` is set) gates each
/// instance behind the store's `i8` tier. A non-min `aggregator` folds
/// every bag exactly ([`FlatBags::aggregate_distance`]): the bound, the
/// screen and the partial abandon all bound the *minimum* instance
/// distance (so non-min ⇒ `quant_screened == 0` and no tightenings).
/// Scratch buffers live for the whole worker scan.
struct Scan<'a> {
    spec: &'a ScanSpec<'a>,
    shared: &'a SharedBound,
    /// The bounded arm's top-k so far.
    heap: BinaryHeap<WorstCandidate>,
    /// The full arm's every `(index, distance)`.
    scored: Ranking,
    stats: ScreenStats,
    scratch: ScreenScratch,
    agg_scratch: Vec<f64>,
    tightenings: u64,
}

impl<'a> Scan<'a> {
    /// A scan over at most `candidates` bags. The heap is sized for the
    /// page, capped at the candidates, so a `k` from the wire cannot
    /// size it past them.
    fn new(spec: &'a ScanSpec<'a>, shared: &'a SharedBound, candidates: usize) -> Self {
        Self {
            spec,
            shared,
            heap: BinaryHeap::with_capacity(spec.top_k.map_or(0, |k| k.min(candidates) + 1)),
            scored: Vec::new(),
            stats: ScreenStats::default(),
            scratch: ScreenScratch::default(),
            agg_scratch: Vec::new(),
            tightenings: 0,
        }
    }

    /// Scans the given store-local bags of one run.
    fn run(&mut self, run: &Run<'_>, locals: impl Iterator<Item = usize>) {
        let spec = self.spec;
        if spec.top_k == Some(0) {
            return;
        }
        let bags = run.bags;
        let exact_fold = !spec.aggregator.is_min();
        // The screen's query is prepared only once the scan bound is
        // finite: before that nothing can be screened out.
        let mut query = None;
        // One scan bound, two kernels: the screened scan and the exact
        // scan return bit-identical values for every (bag, bound) pair.
        // The exact-fold arm ignores the bound entirely — non-min keys
        // cannot be partially abandoned — and always returns `Some`.
        let mut score = |local: usize, bound: f64, scan: &mut Self| {
            if exact_fold {
                return Some(bags.aggregate_distance(
                    spec.concept,
                    local,
                    spec.aggregator,
                    &mut scan.agg_scratch,
                ));
            }
            if !(spec.screen && bound.is_finite()) {
                return bags.min_distance_sq_below(spec.concept, local, bound);
            }
            let query = query.get_or_insert_with(|| bags.quant_query(spec.concept));
            bags.min_distance_sq_below_screened(
                spec.concept,
                query,
                local,
                bound,
                &mut scan.stats,
                &mut scan.scratch,
            )
        };
        let Some(k) = spec.top_k else {
            // A full ranking needs every exact distance, so neither the
            // shared bound nor a top-k threshold applies; the exact scan
            // still abandons instances beaten by their own bag's running
            // best.
            for local in locals {
                let d = score(local, f64::INFINITY, self).unwrap_or(f64::INFINITY);
                self.scored.push((run.base + local, d));
            }
            return;
        };
        for local in locals {
            let index = run.base + local;
            let worst = (self.heap.len() >= k).then(|| {
                let worst = self.heap.peek().expect("heap is non-empty");
                (worst.0, worst.1)
            });
            // The scan bound is the tighter of the heap's worst and the
            // shared threshold; `next_up` admits exact distance ties so
            // the index tie-break sees them. Pruning against the shared
            // bound may drop bags even while the heap is filling: any
            // such bag scores strictly worse than the global k-th best
            // and cannot appear in the merged top-k.
            let bound = worst
                .map_or(f64::INFINITY, |(d, _)| d)
                .min(self.shared.get());
            let scan_bound = bound.next_up();
            let d = match score(local, scan_bound, self) {
                Some(d) => d,
                // An infinite scan bound prunes nothing: a bag whose every
                // distance overflows scores +∞ and is admitted.
                None if scan_bound == f64::INFINITY => f64::INFINITY,
                None => continue,
            };
            match worst {
                None => self.heap.push(WorstCandidate(d, index)),
                Some((worst_d, worst_i)) => {
                    if d < worst_d || (d == worst_d && index < worst_i) {
                        self.heap.pop();
                        self.heap.push(WorstCandidate(d, index));
                    }
                }
            }
            // Publish the heap's k-th-worst whenever the heap is full —
            // the shared bound only ever sees thresholds backed by k real
            // candidates. The exact fold never prunes against the bound,
            // so it never publishes either (tightenings stay pinned at
            // zero for non-min).
            if !exact_fold && self.heap.len() >= k {
                let worst = self.heap.peek().expect("heap is non-empty");
                if self.shared.tighten(worst.0) {
                    self.tightenings += 1;
                }
            }
        }
    }

    /// The worker's ranking, sorted like every ranking.
    fn into_ranking(self) -> Ranking {
        let mut ranking = match self.spec.top_k {
            None => self.scored,
            Some(_) => self
                .heap
                .into_iter()
                .map(|WorstCandidate(d, i)| (i, d))
                .collect(),
        };
        ranking.sort_by(ranking_order);
        ranking
    }
}

/// Index-ordered k-way merge of sorted rankings: repeatedly takes the
/// head with the smallest `(distance, index)`, stopping at `limit`
/// entries when one is set.
///
/// The gather half of every scatter in the system: [`rank_runs`] merges
/// its per-worker rankings with it, and the cluster coordinator merges
/// its per-worker rankings with the same call — which is why the two are
/// bit-identical by construction.
pub fn merge_rankings(lists: Vec<Ranking>, limit: Option<usize>) -> Ranking {
    let total: usize = lists.iter().map(Vec::len).sum();
    let cap = limit.map_or(total, |k| k.min(total));
    let mut heads = vec![0usize; lists.len()];
    let mut out = Vec::with_capacity(cap);
    while out.len() < cap {
        let mut best: Option<usize> = None;
        for (s, list) in lists.iter().enumerate() {
            let Some(&candidate) = list.get(heads[s]) else {
                continue;
            };
            best = match best {
                None => Some(s),
                Some(b) => {
                    let smaller = ranking_order(&candidate, &lists[b][heads[b]]).is_lt();
                    Some(if smaller { s } else { b })
                }
            };
        }
        let Some(b) = best else { break };
        out.push(lists[b][heads[b]]);
        heads[b] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_bound_is_an_exact_fetch_min() {
        let bound = SharedBound::new(f64::INFINITY);
        assert_eq!(bound.get(), f64::INFINITY);
        assert!(bound.tighten(2.5));
        assert_eq!(bound.get(), 2.5);
        assert!(!bound.tighten(3.0), "looser values must not tighten");
        assert_eq!(bound.get(), 2.5);
        assert!(bound.tighten(0.0));
        assert_eq!(bound.get(), 0.0);
        assert!(!bound.tighten(0.0), "equal values are not a tightening");
    }
}
