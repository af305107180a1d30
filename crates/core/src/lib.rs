#![warn(missing_docs)]

//! # milr-core
//!
//! The content-based image retrieval system of Yang & Lozano-Pérez
//! (ICDE 2000), assembled from the workspace substrates:
//!
//! 1. [`features`] turns a gray image into a *bag* of normalised region
//!    features (§3.5 steps 1–5): overlapping sub-regions and their
//!    mirrors, smoothed and sampled to `h × h`, low-variance regions
//!    dropped, each vector mean/σ-normalised.
//! 2. [`database::RetrievalDatabase`] preprocesses a labelled image
//!    collection into bags once, up front.
//! 3. [`query::QuerySession`] trains a Diverse Density concept from
//!    positive/negative example images, ranks the database by minimum
//!    weighted Euclidean distance to the ideal point, and simulates the
//!    paper's relevance-feedback protocol (top-5 false positives from the
//!    potential training set become new negatives, three rounds).
//! 4. [`eval`] scores rankings with recall curves, precision-recall
//!    curves and the §4.3 band-precision summary metric.
//! 5. [`storage`] holds the checksummed byte primitives the
//!    `milr-store` snapshot format is built from, so the expensive §3.5
//!    preprocessing runs once per collection.

pub mod backend;
pub mod config;
pub mod database;
pub mod error;
pub mod eval;
pub mod features;
pub mod query;
pub mod report;
pub mod storage;
pub mod tuning;
pub mod visualize;

pub use backend::{BackendTag, FeatureBackend, GrayBlockBackend};
pub use config::RetrievalConfig;
pub use database::{ranking_order, Corpus, RankRequest, RankScope, RetrievalDatabase};
pub use error::CoreError;
pub use query::{query_with_examples, QueryBuilder, QuerySession, Ranking, Shared};
