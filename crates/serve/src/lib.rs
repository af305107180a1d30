#![warn(missing_docs)]

//! # milr-serve
//!
//! `milrd`, the concurrent retrieval daemon: a multi-threaded HTTP/1.1
//! server (hand-rolled over [`std::net::TcpListener`] — no external
//! dependencies) exposing the Diverse Density retrieval engine of
//! `milr-core` as a session-based relevance-feedback service.
//!
//! * [`node::Node`] — the server loop every role runs on: accept loop,
//!   bounded handler pool with load shedding, HTTP/1.1 keep-alive and
//!   pipelining, graceful drain, and the routes every role answers alike
//!   (`POST /admin/shutdown`, the `404`/`405` fallback). `milr-cluster`'s
//!   coordinator and worker mount their routers on it too.
//! * [`front`] — the rank front `GET /rank` and the coordinator's
//!   `GET /cluster/rank` share: query parser, concept key, cache
//!   get-or-train.
//! * [`epoch`] — the serving snapshot epoch and the one reload swap
//!   every role uses.
//! * [`server::Server`] — the single-node daemon: its router, request
//!   handlers, and the background session sweep.
//! * [`sessions`] — TTL/capacity-bounded store of live feedback
//!   sessions.
//! * [`cache`] — LRU concept cache: deterministic training means equal
//!   example sets under one policy share one concept.
//! * [`http`] / [`json`] / [`base64`] — minimal wire codecs.
//! * [`metrics`] — per-endpoint counters and latency histograms on the
//!   unified `milr-obs` registry, rendered by `GET /metrics` as
//!   Prometheus text.
//! * [`client`] — the blocking client used by tests and the cluster
//!   coordinator.
//!
//! The protocol (all responses JSON unless noted; connections are
//! HTTP/1.1 keep-alive and may pipeline requests):
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + snapshot summary |
//! | `GET /metrics` | every counter, gauge and histogram (cache, sessions, per-endpoint latency, engine) in Prometheus text exposition format |
//! | `GET /trace?n=256` | the most recent spans across all threads, as JSON |
//! | `GET /rank?positives=1,2&negatives=7&k=10` | stateless one-shot ranking (`&aggregator=LABEL` picks the bag fold) |
//! | `POST /rank` | stateless sub-image query: base64 PGM + region of interest, cropped and featurised server-side |
//! | `POST /sessions` | create a feedback session (indices, base64 PGM uploads, and/or region uploads) |
//! | `GET /sessions/{id}` | session state |
//! | `POST /sessions/{id}/feedback` | add marks, retrain, return next page |
//! | `DELETE /sessions/{id}` | drop a session |
//! | `POST /snapshot/reload` | swap in the rewritten snapshot (`409` without a snapshot path) |
//! | `POST /admin/shutdown` | `{"status":"draining"}`, then a graceful drain (every role) |
//!
//! On every role, a known path with the wrong method answers `405` and
//! an unknown path `404`.

pub mod base64;
pub mod cache;
pub mod client;
pub mod epoch;
pub mod front;
pub mod http;
pub mod json;
pub mod metrics;
pub mod node;
pub mod server;
pub mod sessions;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod series;

pub use front::{parse_policy, Front, FrontOptions};
pub use json::Json;
pub use node::{Body, Node, NodeOptions, Reply, Router};
pub use server::{ServeOptions, Server};
