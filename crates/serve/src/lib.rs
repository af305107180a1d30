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
//!   pipelining, graceful drain. `milr-cluster`'s coordinator and worker
//!   mount their routers on it too.
//! * [`server::Server`] — the single-node daemon: its router, request
//!   handlers, snapshot epochs, and the background session sweep.
//! * [`sessions`] — TTL/capacity-bounded store of live feedback
//!   sessions.
//! * [`cache`] — LRU concept cache: deterministic training means equal
//!   example sets under one policy share one concept.
//! * [`http`] / [`json`] / [`base64`] — minimal wire codecs.
//! * [`metrics`] — per-endpoint counters and latency histograms on the
//!   unified `milr-obs` registry, behind `GET /metrics`.
//! * [`client`] — the blocking client used by tests and the cluster
//!   coordinator.
//!
//! The protocol (all responses JSON unless noted; connections are
//! HTTP/1.1 keep-alive and may pipeline requests):
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + snapshot summary |
//! | `GET /metrics` | counters, histograms, cache and session stats |
//! | `GET /metrics?format=prometheus` | the same registry in Prometheus text exposition format |
//! | `GET /trace?n=256` | the most recent spans across all threads, as JSON |
//! | `GET /rank?positives=1,2&negatives=7&k=10` | stateless one-shot ranking (`&aggregator=LABEL` picks the bag fold) |
//! | `POST /rank` | stateless sub-image query: base64 PGM + region of interest, cropped and featurised server-side |
//! | `POST /sessions` | create a feedback session (indices, base64 PGM uploads, and/or region uploads) |
//! | `GET /sessions/{id}` | session state |
//! | `POST /sessions/{id}/feedback` | add marks, retrain, return next page |
//! | `DELETE /sessions/{id}` | drop a session |
//! | `POST /admin/shutdown` | graceful drain |

pub mod base64;
pub mod cache;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod node;
pub mod server;
pub mod sessions;

pub use json::Json;
pub use node::{Action, Body, Node, NodeOptions, Reply, Router};
pub use server::{parse_policy, ServeOptions, Server};
