//! The coordinator↔worker wire protocol and the pure planning/merge
//! functions behind it.
//!
//! Everything numeric crosses the wire as JSON through `milr-serve`'s
//! codec, whose `f64` rendering is shortest-round-trip: a distance or
//! concept coordinate parsed back on the other side carries the exact
//! bit pattern it left with. That is what lets the cluster promise
//! *bit*-identity with single-node ranking rather than mere closeness.
//!
//! The planning half is deliberately pure (no sockets, no clocks):
//! [`assign_shards`] decides which worker owns which shard, and
//! [`gather`] merges per-worker top-k rankings — both are driven
//! directly by proptests against the single-node scatter.

use milr_core::database::Ranking;
use milr_mil::{BagAggregator, Concept};
use milr_serve::Json;
use milr_store::{merge_rankings, ManifestSummary};

/// Assigns the manifest's shards to `worker_count` workers round-robin
/// by manifest position: shard at position `p` belongs to worker
/// `p % worker_count`. Deterministic, derivable by a worker from the
/// manifest alone, and stable for existing shards when new shards are
/// appended *and* the worker count is unchanged.
pub fn assign_shards(shard_ids: &[u64], worker_count: usize) -> Vec<Vec<u64>> {
    let mut assignment = vec![Vec::new(); worker_count.max(1)];
    for (position, &id) in shard_ids.iter().enumerate() {
        assignment[position % worker_count.max(1)].push(id);
    }
    assignment
}

/// A `POST /worker/rank` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRankRequest {
    /// The snapshot generation the coordinator is serving; the worker
    /// rejects the request (409) when its own generation differs —
    /// cross-generation rankings must never merge silently.
    pub generation: u64,
    /// How many results the worker should return.
    pub k: usize,
    /// The trained concept to rank against.
    pub concept: Concept,
    /// How each bag's instance distances reduce to its ranking key.
    /// Emitted on the wire only when non-default, so scatter requests
    /// to workers predating the field are byte-identical to before;
    /// a missing field parses as min-distance.
    pub aggregator: BagAggregator,
}

impl WorkerRankRequest {
    /// Serialises the request body.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("generation".into(), Json::num(self.generation as f64)),
            ("k".into(), Json::num(self.k as f64)),
        ];
        if !self.aggregator.is_min() {
            fields.push(("aggregator".into(), Json::str(self.aggregator.label())));
        }
        fields.push((
            "point".into(),
            Json::Arr(self.concept.point().iter().map(|&v| Json::Num(v)).collect()),
        ));
        fields.push((
            "weights".into(),
            Json::Arr(
                self.concept
                    .weights()
                    .iter()
                    .map(|&v| Json::Num(v))
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }

    /// Parses a request body.
    ///
    /// # Errors
    /// A description of the missing or malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let generation = json
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or("missing generation")?;
        let k = json.get("k").and_then(Json::as_u64).ok_or("missing k")? as usize;
        let number_list = |field: &str| -> Result<Vec<f64>, String> {
            json.get(field)
                .and_then(Json::as_array)
                .ok_or(format!("missing {field}"))?
                .iter()
                .map(|v| v.as_f64().ok_or(format!("{field} must hold numbers")))
                .collect()
        };
        let point = number_list("point")?;
        let weights = number_list("weights")?;
        if point.is_empty() || point.len() != weights.len() {
            return Err("point and weights must be equal-length and non-empty".into());
        }
        // Trained DD concepts may zero out features entirely, so zero
        // weights are legitimate; only negatives and non-finites are
        // malformed.
        if weights.iter().any(|&w| !(w.is_finite() && w >= 0.0)) {
            return Err("weights must be non-negative finite numbers".into());
        }
        if point.iter().any(|v| !v.is_finite()) {
            return Err("point must hold finite numbers".into());
        }
        let aggregator = match json.get("aggregator") {
            None => BagAggregator::MinDistance,
            Some(v) => {
                let label = v.as_str().ok_or("aggregator must be a string")?;
                BagAggregator::parse(label)
                    .ok_or_else(|| format!("unknown aggregator '{label}'"))?
            }
        };
        Ok(Self {
            generation,
            k,
            concept: Concept::new(point, weights),
            aggregator,
        })
    }
}

/// A `POST /worker/rank` success response body.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRankResponse {
    /// The generation the worker ranked at (always equal to the
    /// request's — mismatches are rejected before ranking).
    pub generation: u64,
    /// The worker's top-k over its shard subset, in the *global*
    /// (tombstone-inclusive) index space.
    pub ranking: Ranking,
}

impl WorkerRankResponse {
    /// Serialises the response body.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("generation".into(), Json::num(self.generation as f64)),
            ("ranking".into(), ranking_to_json(&self.ranking)),
        ])
    }

    /// Parses a response body.
    ///
    /// # Errors
    /// A description of the missing or malformed field.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        Ok(Self {
            generation: json
                .get("generation")
                .and_then(Json::as_u64)
                .ok_or("missing generation")?,
            ranking: ranking_from_json(json.get("ranking").ok_or("missing ranking")?)?,
        })
    }
}

/// Serialises a ranking as `[{"index": i, "distance": d}, …]` — the
/// same shape the single-node `/rank` endpoint answers with.
pub fn ranking_to_json(ranking: &Ranking) -> Json {
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

/// Parses a ranking serialised by [`ranking_to_json`].
///
/// # Errors
/// A description of the malformed entry.
pub fn ranking_from_json(json: &Json) -> Result<Ranking, String> {
    json.as_array()
        .ok_or("ranking must be an array")?
        .iter()
        .map(|entry| {
            let index = entry
                .get("index")
                .and_then(Json::as_u64)
                .ok_or("ranking entry missing index")? as usize;
            let distance = entry
                .get("distance")
                .and_then(Json::as_f64)
                .ok_or("ranking entry missing distance")?;
            // +∞ is a legitimate distance: a concept or a bag far enough
            // out overflows the weighted square sum, and the ranker keeps
            // such bags after every finite one.
            if distance.is_nan() || distance < 0.0 {
                return Err("ranking distance must be a non-negative number".into());
            }
            Ok((index, distance))
        })
        .collect()
}

/// One worker's contribution to a gather: its assigned shard ids plus
/// its ranking — [`None`] when the worker dropped (timed out, refused,
/// or answered a different generation after the resync retry).
#[derive(Debug, Clone)]
pub struct GatherInput {
    /// Shards assigned to this worker.
    pub shard_ids: Vec<u64>,
    /// The worker's subset top-k, or [`None`] for a dropped worker.
    pub ranking: Option<Ranking>,
}

/// A merged cluster ranking plus its degradation contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Gathered {
    /// Top-k over every *surviving* worker's shards, by ascending
    /// `(distance, global index)`.
    pub ranking: Ranking,
    /// Set iff any worker dropped — the result may be missing bags.
    pub partial: bool,
    /// Shard ids owned by dropped workers, ascending.
    pub missing_shards: Vec<u64>,
}

/// The gather half of a cluster rank: k-way merge of the surviving
/// workers' rankings through the *same* [`merge_rankings`] the
/// single-node scatter uses, plus the explicit degraded-result
/// contract. With every worker present this is bit-identical to the
/// single-node top-k; with workers missing it is the exact top-k over
/// the surviving shards — both proptested.
pub fn gather(inputs: Vec<GatherInput>, k: usize) -> Gathered {
    let mut missing_shards = Vec::new();
    let mut partial = false;
    let mut rankings = Vec::with_capacity(inputs.len());
    for input in inputs {
        match input.ranking {
            Some(ranking) => rankings.push(ranking),
            None => {
                partial = true;
                missing_shards.extend(input.shard_ids);
            }
        }
    }
    missing_shards.sort_unstable();
    Gathered {
        ranking: merge_rankings(rankings, Some(k)),
        partial,
        missing_shards,
    }
}

/// Collapses missing shard ids into coalesced global-index ranges
/// `[start, end)` using the manifest's per-shard bases — what the
/// degraded `/cluster/rank` response reports so a client knows exactly
/// which stretch of the corpus its page may be missing.
pub fn missing_ranges(summary: &ManifestSummary, missing_shards: &[u64]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = summary
        .shards
        .iter()
        .filter(|entry| missing_shards.contains(&entry.id))
        .map(|entry| (entry.base, entry.base + entry.bag_count))
        .collect();
    ranges.sort_unstable();
    let mut coalesced: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
    for (start, end) in ranges {
        match coalesced.last_mut() {
            Some((_, last_end)) if *last_end == start => *last_end = end,
            _ => coalesced.push((start, end)),
        }
    }
    coalesced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_round_robin_and_total() {
        let ids = [10, 11, 12, 13, 14];
        let assignment = assign_shards(&ids, 2);
        assert_eq!(assignment, vec![vec![10, 12, 14], vec![11, 13]]);
        let flat: Vec<u64> = assignment.into_iter().flatten().collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ids);
        // More workers than shards leaves the surplus empty-handed.
        let sparse = assign_shards(&ids[..1], 3);
        assert_eq!(sparse, vec![vec![10], vec![], vec![]]);
    }

    #[test]
    fn appending_shards_keeps_existing_assignments() {
        let before = assign_shards(&[0, 1, 2, 3], 3);
        let after = assign_shards(&[0, 1, 2, 3, 4, 5], 3);
        for (b, a) in before.iter().zip(&after) {
            assert!(a.starts_with(b), "{before:?} → {after:?}");
        }
    }

    #[test]
    fn rank_request_round_trips_exactly() {
        let request = WorkerRankRequest {
            generation: 7,
            k: 5,
            // 0.1 + 0.2 has no short decimal form.
            concept: Concept::new(vec![1.5, -2.25, 1e-300], vec![0.1 + 0.2, 2.0, 3.5]),
            aggregator: BagAggregator::MinDistance,
        };
        let json = Json::parse(&request.to_json().dump()).unwrap();
        // The default aggregator is omitted on the wire: the scatter
        // request is byte-compatible with workers predating the field.
        assert!(json.get("aggregator").is_none());
        let back = WorkerRankRequest::from_json(&json).unwrap();
        assert_eq!(back.generation, 7);
        assert_eq!(back.k, 5);
        assert_eq!(back.aggregator, BagAggregator::MinDistance);
        for (a, b) in back.concept.point().iter().zip(request.concept.point()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.concept.weights().iter().zip(request.concept.weights()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Non-default aggregators ride the wire by label and round-trip.
        for aggregator in BagAggregator::ALL {
            let tagged = WorkerRankRequest {
                aggregator,
                ..request.clone()
            };
            let json = Json::parse(&tagged.to_json().dump()).unwrap();
            assert_eq!(
                WorkerRankRequest::from_json(&json).unwrap().aggregator,
                aggregator
            );
        }
    }

    #[test]
    fn unknown_aggregators_are_rejected() {
        for raw in [
            r#"{"generation": 0, "k": 1, "aggregator": "softmax", "point": [1], "weights": [1]}"#,
            r#"{"generation": 0, "k": 1, "aggregator": 3, "point": [1], "weights": [1]}"#,
        ] {
            let json = Json::parse(raw).unwrap();
            assert!(WorkerRankRequest::from_json(&json).is_err(), "{raw}");
        }
    }

    #[test]
    fn malformed_rank_requests_are_rejected() {
        for raw in [
            r#"{"k": 1, "point": [1], "weights": [1]}"#,
            r#"{"generation": 0, "k": 1, "point": [], "weights": []}"#,
            r#"{"generation": 0, "k": 1, "point": [1, 2], "weights": [1]}"#,
            r#"{"generation": 0, "k": 1, "point": [1], "weights": [-2]}"#,
            // Out-of-range literals parse as ±∞; the fields reject them.
            r#"{"generation": 0, "k": 1, "point": [1e999], "weights": [1]}"#,
            r#"{"generation": 0, "k": 1, "point": [1], "weights": [1e999]}"#,
        ] {
            let json = Json::parse(raw).unwrap();
            assert!(WorkerRankRequest::from_json(&json).is_err(), "{raw}");
        }
    }

    #[test]
    fn rank_response_round_trips_exactly() {
        let response = WorkerRankResponse {
            generation: 3,
            ranking: vec![(4, 0.125), (9, 1.0 / 3.0), (2, f64::INFINITY)],
        };
        let json = Json::parse(&response.to_json().dump()).unwrap();
        let back = WorkerRankResponse::from_json(&json).unwrap();
        assert_eq!(back.generation, 3);
        assert_eq!(back.ranking.len(), 3);
        for (a, b) in back.ranking.iter().zip(&response.ranking) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn gather_flags_partial_iff_any_worker_dropped() {
        let full = gather(
            vec![
                GatherInput {
                    shard_ids: vec![0],
                    ranking: Some(vec![(0, 0.5)]),
                },
                GatherInput {
                    shard_ids: vec![1],
                    ranking: Some(vec![(5, 0.25)]),
                },
            ],
            2,
        );
        assert!(!full.partial);
        assert!(full.missing_shards.is_empty());
        assert_eq!(full.ranking, vec![(5, 0.25), (0, 0.5)]);

        let degraded = gather(
            vec![
                GatherInput {
                    shard_ids: vec![0, 2],
                    ranking: Some(vec![(0, 0.5)]),
                },
                GatherInput {
                    shard_ids: vec![1],
                    ranking: None,
                },
            ],
            2,
        );
        assert!(degraded.partial);
        assert_eq!(degraded.missing_shards, vec![1]);
        assert_eq!(degraded.ranking, vec![(0, 0.5)]);
    }

    #[test]
    fn missing_ranges_coalesce_adjacent_shards() {
        use milr_store::ManifestShard;
        let summary = ManifestSummary {
            feature_dim: 4,
            generation: 1,
            shard_capacity: 10,
            shards: vec![
                ManifestShard {
                    id: 0,
                    base: 0,
                    bag_count: 10,
                    instance_count: 10,
                    digest: 0,
                },
                ManifestShard {
                    id: 1,
                    base: 10,
                    bag_count: 10,
                    instance_count: 10,
                    digest: 0,
                },
                ManifestShard {
                    id: 2,
                    base: 20,
                    bag_count: 4,
                    instance_count: 4,
                    digest: 0,
                },
            ],
            tombstones: Default::default(),
            backend: Default::default(),
        };
        assert_eq!(missing_ranges(&summary, &[0, 1]), vec![(0, 20)]);
        assert_eq!(missing_ranges(&summary, &[0, 2]), vec![(0, 10), (20, 24)]);
        assert!(missing_ranges(&summary, &[]).is_empty());
    }
}
