#![warn(missing_docs)]

//! # milr-cluster
//!
//! Distributed scatter-gather serving over the sharded snapshot
//! format: one **coordinator** milrd fans each rank request out to N
//! **worker** milrds, each owning the subset of shards the manifest
//! assigns it, and k-way-merges the per-worker top-k pages.
//!
//! Design invariants (each one tested):
//!
//! * **Bit-identity** — a healthy cluster returns the same bytes as a
//!   single node. Workers scan with the same per-shard kernel, return
//!   exact `f64` distances through a shortest-round-trip JSON codec,
//!   and the coordinator merges with the same `(distance, index)`
//!   total-order merge the single-node scatter uses.
//! * **Graceful degradation** — a lost worker never fails the client
//!   request: the response is the exact top-k over the surviving
//!   shards, flagged `"partial": true` with the missing shard ids and
//!   bag ranges attached.
//! * **Generation discipline** — a worker serving a different snapshot
//!   generation answers `409`; the coordinator resyncs it and retries
//!   once. Cross-generation pages never merge silently.
//! * **Conservation** — every rank accounts for every shard:
//!   `shards_ranked_total + shards_missing_total = rank_total ×
//!   total_shards`, balanced across nodes even under fault injection.
//!
//! Both roles run on `milr-serve`'s [`Node`](milr_serve::Node) server
//! loop, the one the single-node daemon runs on, each mounting its own
//! router; the node answers `POST /admin/shutdown` and the `404`/`405`
//! fallback for all of them. The coordinator's `/cluster/rank` parses,
//! keys and trains through the daemon's own rank
//! [`Front`](milr_serve::Front), and every role swaps its snapshot
//! through one [`Epochs`](milr_serve::epoch::Epochs).
//!
//! Module map:
//!
//! * [`protocol`] — wire types, shard assignment, the pure gather
//!   merge.
//! * [`worker`] — the worker daemon: subset open, `/worker/rank`,
//!   snapshot sync from the coordinator.
//! * [`coordinator`] — the coordinator daemon: training, scatter,
//!   merge, membership, health probing, shard streaming.

pub mod coordinator;
pub mod protocol;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorOptions};
pub use protocol::{assign_shards, gather, missing_ranges, GatherInput, Gathered};
pub use worker::{sync_from_coordinator, Worker, WorkerOptions};
