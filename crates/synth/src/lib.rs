#![warn(missing_docs)]

//! # milr-synth
//!
//! Seeded synthetic image databases standing in for the paper's two test
//! collections (§4.1):
//!
//! * the **natural-scene database** — 500 COREL photographs, 100 each of
//!   waterfalls, mountains, fields, lakes/rivers and sunsets/sunrises —
//!   is replaced by [`SceneDatabase`]: procedural scenes whose gray-level
//!   *structure* matches each category (vertical bright cascades, peak
//!   silhouettes, horizon bands, radial glows) over fractal-noise
//!   clutter;
//! * the **object database** — 228 images in 19 categories scraped from
//!   retail websites — is replaced by [`ObjectDatabase`]: parametric
//!   silhouettes on near-uniform light backgrounds with seeded pose,
//!   scale and brightness jitter, and random left-right mirroring.
//!
//! Everything is deterministic given a seed, so experiments are exactly
//! repeatable (the paper makes the same point about its random
//! training-set selection: "a random seed allows the experiments to be
//! repeatable"). Each database draws one seed per image serially into a
//! [`RenderPlan`], then renders the images independently on the
//! workspace pool, so the pixels do not depend on the core count.

pub mod corpus;
pub mod database;
pub mod draw;
pub mod montage;
pub mod noise;
pub mod objects;
pub mod scenes;

pub use database::{DatabaseSplit, ObjectDatabase, RenderPlan, SceneDatabase};
pub use montage::montage;
pub use noise::FractalNoise;
