//! The five workloads and their seeded operation lists.
//!
//! A workload is a corpus, a process layout and a list of operations.
//! The list is a pure function of `(workload, seed, operation count)`:
//! `--seed` changes the corpus seed and the example combinations and
//! nothing else. Operation counts are frozen per second of `--seconds`
//! (see [`Spec::ops_per_second`]), so the work of a run is deterministic
//! and wall time is the measurement.

use std::collections::HashSet;

/// Scene categories in the synthetic corpus; image `i` of a corpus with
/// `n` images per category has label `i / n`.
pub const CATEGORIES: usize = 5;

/// Page size of an ordinary retrieval screen.
pub const PAGE: usize = 16;

/// Timed feedback rounds per session (the paper's three rounds).
pub const FEEDBACK_ROUNDS: usize = 3;

/// One workload's frozen definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name used by `--workload`, `BENCHMARK.json` and later issues.
    pub name: &'static str,
    /// Which layers the workload loads, in one line.
    pub why: &'static str,
    /// Scenes per category; the corpus has five categories.
    pub per_category: usize,
    /// Shards the snapshot is cut into.
    pub shards: usize,
    /// Closed-loop clients (never more than the cores available).
    pub clients: usize,
    /// Whether the snapshot is served by 1 coordinator + 2 workers.
    pub cluster: bool,
    /// Distinct example combinations rotated through; 0 makes every
    /// operation a combination never seen before.
    pub combos: usize,
    /// Page sizes, alternated operation by operation.
    pub ks: &'static [usize],
    /// Whether an operation is a feedback session (an untimed first
    /// round, then [`FEEDBACK_ROUNDS`] timed ones) instead of a `/rank`.
    pub sessions: bool,
    /// Operations (sessions, for a session workload) per second of
    /// `--seconds`, sized on the reference box (2 cores, Xeon 2.1 GHz)
    /// so that the measured phase lasts about `--seconds` (the box's
    /// speed drifts by 10-20 % over an hour, and the phase with it).
    pub ops_per_second: f64,
    /// How often set-up (preprocess + spawn until healthy) is repeated;
    /// `setup_s` is the median.
    pub setup_reps: usize,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "first_page",
        why: "every op is a concept-cache miss: one cold multistart DD training (mil::trainer + optim) and a ~1 ms rank",
        per_category: 100,
        shards: 4,
        clients: 2,
        cluster: false,
        combos: 0,
        ks: &[PAGE],
        sessions: false,
        ops_per_second: 3.0,
        setup_reps: 2,
    },
    Spec {
        name: "feedback_rounds",
        why: "sessions of three timed feedback rounds: warm-started training over newly marked bags, session store, JSON bodies",
        per_category: 100,
        shards: 4,
        clients: 2,
        cluster: false,
        combos: 0,
        ks: &[PAGE],
        sessions: true,
        ops_per_second: 1.2,
        setup_reps: 2,
    },
    Spec {
        name: "page_scan",
        why: "cache-hit top-16 pages over 1500 scenes (30 MB, above L2): the ranking stack is most of the latency",
        per_category: 300,
        shards: 8,
        clients: 2,
        cluster: false,
        combos: 12,
        ks: &[PAGE],
        sessions: false,
        ops_per_second: 520.0,
        setup_reps: 1,
    },
    Spec {
        name: "page_wire",
        why: "cache-hit pages of 16 and 50 over 50 scenes: rank is below the wire floor, so serve and fixed per-query costs dominate",
        per_category: 10,
        shards: 4,
        clients: 2,
        cluster: false,
        combos: 12,
        ks: &[PAGE, 50],
        sessions: false,
        ops_per_second: 9000.0,
        setup_reps: 5,
    },
    Spec {
        name: "cluster_scan",
        why: "the page_scan snapshot behind 1 coordinator + 2 workers, 1 client: scatter, line protocol, bound forwarding, gather",
        per_category: 300,
        shards: 8,
        clients: 1,
        cluster: true,
        combos: 12,
        ks: &[PAGE],
        sessions: false,
        ops_per_second: 700.0,
        setup_reps: 1,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|spec| spec.name == name)
    }

    /// Images in the corpus.
    pub fn images(&self) -> usize {
        CATEGORIES * self.per_category
    }

    /// Bags per shard that cut the corpus into [`Self::shards`] shards.
    pub fn shard_bags(&self) -> usize {
        self.images().div_ceil(self.shards)
    }

    /// The frozen operation count for a run of `seconds`.
    pub fn op_count(&self, seconds: f64) -> usize {
        ((self.ops_per_second * seconds).round() as usize).max(self.clients)
    }

    /// Timed operations one entry of the operation list stands for.
    pub fn timed_per_op(&self) -> usize {
        if self.sessions {
            FEEDBACK_ROUNDS
        } else {
            1
        }
    }

    /// The `--smoke` variant: a fifth of the corpus, two combinations,
    /// one set-up — every code path and check, none of the waiting.
    pub fn smoke(&self) -> Spec {
        Spec {
            per_category: (self.per_category / 5).max(10),
            setup_reps: 1,
            ..self.rotating(2)
        }
    }

    /// The same workload rotating at most `combos` combinations (a
    /// workload whose operations never repeat stays that way).
    pub fn rotating(&self, combos: usize) -> Spec {
        Spec {
            combos: self.combos.min(combos),
            ..self.clone()
        }
    }

    /// Path prefix of the ranking route the workload drives.
    pub fn rank_route(&self) -> &'static str {
        if self.cluster {
            "/cluster/rank"
        } else {
            "/rank"
        }
    }
}

/// Example images and a page size: one `/rank` query, or the opening
/// marks of one feedback session.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// The category the positives were drawn from.
    pub category: usize,
    /// Positive example indices (same category, distinct).
    pub positives: Vec<usize>,
    /// Negative example indices (two other categories).
    pub negatives: Vec<usize>,
    /// Page size.
    pub k: usize,
}

impl Query {
    /// The request target on `route`.
    pub fn target(&self, route: &str) -> String {
        format!(
            "{route}?positives={}&negatives={}&k={}",
            join(&self.positives),
            join(&self.negatives),
            self.k
        )
    }

    /// The example sets without the page size — what a concept is
    /// trained from.
    pub fn examples(&self) -> (Vec<usize>, Vec<usize>) {
        (self.positives.clone(), self.negatives.clone())
    }
}

/// Comma-joins indices the way the query string wants them.
fn join(indices: &[usize]) -> String {
    indices
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// The operations of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Combinations trained before the measured phase (empty when every
    /// operation is meant to train).
    pub warmup: Vec<Query>,
    /// The operations, in issue order; operation `i` belongs to client
    /// `i % clients`.
    pub ops: Vec<Query>,
}

impl Plan {
    /// Builds the seeded operation list of `spec` with `ops` entries.
    pub fn generate(spec: &Spec, seed: u64, ops: usize) -> Plan {
        // The workload name is mixed in so two workloads on one seed do
        // not draw the same combinations.
        let mut rng = SplitMix64(seed ^ fnv1a(spec.name.as_bytes()));
        let mut seen = HashSet::new();
        let mut fresh = |slot: usize| loop {
            let query = draw(&mut rng, spec.per_category, slot % CATEGORIES);
            if seen.insert(query.examples()) {
                return query;
            }
        };
        if spec.combos == 0 {
            return Plan {
                warmup: Vec::new(),
                ops: (0..ops).map(&mut fresh).collect(),
            };
        }
        let warmup: Vec<Query> = (0..spec.combos).map(&mut fresh).collect();
        let ops = (0..ops)
            .map(|i| Query {
                k: spec.ks[i % spec.ks.len()],
                ..warmup[(i / spec.ks.len()) % warmup.len()].clone()
            })
            .collect();
        Plan { warmup, ops }
    }

    /// A stable byte rendering, hashed by the determinism test and
    /// printed as `plan_hash`.
    pub fn hash(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }
}

/// Three distinct positives of `category`, one negative from each of two
/// other categories.
fn draw(rng: &mut SplitMix64, per_category: usize, category: usize) -> Query {
    let member = |rng: &mut SplitMix64, category: usize| {
        category * per_category + rng.below(per_category as u64) as usize
    };
    let mut positives: Vec<usize> = Vec::with_capacity(3);
    while positives.len() < 3 {
        let candidate = member(rng, category);
        if !positives.contains(&candidate) {
            positives.push(candidate);
        }
    }
    let first = (category + 1 + rng.below(CATEGORIES as u64 - 1) as usize) % CATEGORIES;
    let mut second = first;
    while second == first || second == category {
        second = rng.below(CATEGORIES as u64) as usize;
    }
    Query {
        category,
        positives,
        negatives: vec![member(rng, first), member(rng, second)],
        k: PAGE,
    }
}

/// The marks a simulated user adds after reading `page`: up to three
/// false positives as negatives and one unmarked image of the target
/// category as a positive (taken from the page when it shows one, else
/// the lowest-index unmarked member of the category).
pub fn feedback_marks(
    page: &[(usize, f64)],
    category: usize,
    per_category: usize,
    positives: &[usize],
    negatives: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let label = |index: usize| index / per_category;
    let new_negatives: Vec<usize> = page
        .iter()
        .map(|&(index, _)| index)
        .filter(|&index| label(index) != category && !negatives.contains(&index))
        .take(3)
        .collect();
    let members = category * per_category..(category + 1) * per_category;
    let new_positive = page
        .iter()
        .map(|&(index, _)| index)
        .filter(|&index| label(index) == category)
        .chain(members)
        .find(|index| !positives.contains(index));
    (new_positive.into_iter().collect(), new_negatives)
}

/// SplitMix64: a fixed, dependency-free generator, so operation lists
/// never change with a vendored crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a, for plan hashes and response-body deduplication.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_the_only_source_of_variation() {
        for spec in &SPECS {
            let ops = spec.op_count(1.0).min(500);
            let a = Plan::generate(spec, 7, ops);
            let b = Plan::generate(spec, 7, ops);
            let c = Plan::generate(spec, 8, ops);
            assert_eq!(a, b, "{}: same seed, different plan", spec.name);
            assert_eq!(a.hash(), b.hash());
            assert_ne!(a.hash(), c.hash(), "{}: seed ignored", spec.name);
            assert_eq!(a.ops.len(), ops);
        }
    }

    #[test]
    fn queries_are_well_formed_and_unique_where_promised() {
        for spec in &SPECS {
            let plan = Plan::generate(spec, 3, 64);
            let label = |index: usize| index / spec.per_category;
            for query in plan.warmup.iter().chain(&plan.ops) {
                assert_eq!(query.positives.len(), 3);
                assert!(query.positives.iter().all(|&p| label(p) == query.category));
                let distinct: HashSet<_> = query.positives.iter().collect();
                assert_eq!(distinct.len(), 3);
                assert_eq!(query.negatives.len(), 2);
                assert!(query.negatives.iter().all(|&n| label(n) != query.category));
                assert_ne!(label(query.negatives[0]), label(query.negatives[1]));
                assert!(spec.ks.contains(&query.k));
            }
            let distinct: HashSet<_> = plan.ops.iter().map(Query::examples).collect();
            if spec.combos == 0 {
                assert_eq!(distinct.len(), plan.ops.len(), "{}", spec.name);
                assert!(plan.warmup.is_empty());
            } else {
                assert_eq!(distinct.len(), spec.combos, "{}", spec.name);
                assert_eq!(plan.warmup.len(), spec.combos);
            }
        }
    }

    #[test]
    fn page_wire_alternates_page_sizes() {
        let spec = Spec::by_name("page_wire").unwrap();
        let plan = Plan::generate(spec, 0, 32);
        assert_eq!(plan.ops[0].k, 16);
        assert_eq!(plan.ops[1].k, 50);
        assert_eq!(plan.ops[0].examples(), plan.ops[1].examples());
        assert_ne!(plan.ops[1].examples(), plan.ops[2].examples());
    }

    #[test]
    fn feedback_marks_follow_the_page() {
        // 10 per category; target category 1 holds indices 10..20.
        let page = [
            (12, 0.1),
            (3, 0.2),
            (11, 0.3),
            (25, 0.4),
            (31, 0.5),
            (47, 0.6),
        ];
        let (pos, neg) = feedback_marks(&page, 1, 10, &[12, 13], &[25]);
        assert_eq!(pos, vec![11]);
        assert_eq!(neg, vec![3, 31, 47]);
        // No unmarked target image on the page: lowest unmarked member.
        let (pos, neg) = feedback_marks(&[(12, 0.1), (3, 0.2)], 1, 10, &[10, 12], &[3]);
        assert_eq!(pos, vec![11]);
        assert!(neg.is_empty());
    }

    #[test]
    fn targets_render_the_query_string() {
        let query = Query {
            category: 0,
            positives: vec![3, 1, 4],
            negatives: vec![150, 250],
            k: 16,
        };
        assert_eq!(
            query.target("/rank"),
            "/rank?positives=3,1,4&negatives=150,250&k=16"
        );
    }
}
