#![warn(missing_docs)]

//! # milr — Multiple-Instance Learning for Image Database Retrieval
//!
//! Facade crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *"Image Database Retrieval with Multiple-Instance
//! Learning Techniques"* (Yang & Lozano-Pérez, ICDE 2000).
//!
//! ## Quick start
//!
//! ```
//! use milr::prelude::*;
//!
//! // Build a small synthetic scene database (stands in for COREL).
//! let db = SceneDatabase::builder()
//!     .images_per_category(6)
//!     .seed(7)
//!     .dimensions(64, 48)
//!     .build();
//!
//! // Preprocess it into bags of normalised region features.
//! let config = RetrievalConfig {
//!     max_iterations: 30,
//!     feedback_rounds: 1,
//!     initial_positives: 2,
//!     initial_negatives: 2,
//!     ..RetrievalConfig::default()
//! };
//! let retrieval =
//!     RetrievalDatabase::from_labelled_images(db.gray_images(), &config).unwrap();
//!
//! // Query for waterfalls; the pool simulates the user's feedback.
//! let waterfall = db.category_index("waterfall").unwrap();
//! let split = db.split(0.34, 99);
//! let mut session = QuerySession::builder(&retrieval)
//!     .config(&config)
//!     .target(waterfall)
//!     .pool(split.pool)
//!     .test(split.test)
//!     .build()
//!     .unwrap();
//! let ranking = session.run().unwrap();
//! assert!(!ranking.is_empty());
//! ```
//!
//! See the `examples/` directory for complete retrieval runs and the
//! `milr-bench` crate for the harness regenerating every table and
//! figure of the paper.

pub use milr_baseline as baseline;
pub use milr_cluster as cluster;
pub use milr_core as core;
pub use milr_imgproc as imgproc;
pub use milr_mil as mil;
pub use milr_optim as optim;
pub use milr_serve as serve;
pub use milr_store as store;
pub use milr_synth as synth;
pub use milr_testkit as testkit;

/// Commonly-used types from across the workspace.
pub mod prelude {
    pub use milr_core::{
        config::RetrievalConfig,
        database::{RankRequest, RetrievalDatabase},
        eval,
        query::QuerySession,
    };
    pub use milr_imgproc::{GrayImage, RegionLayout, RgbImage};
    pub use milr_mil::{
        bag::{Bag, BagLabel},
        policy::WeightPolicy,
    };
    pub use milr_synth::{ObjectDatabase, SceneDatabase};
}
