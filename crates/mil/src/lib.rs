#![warn(missing_docs)]

//! # milr-mil
//!
//! Multiple-instance learning with the Diverse Density algorithm
//! (Maron & Lozano-Pérez), as adapted by Yang & Lozano-Pérez for image
//! retrieval.
//!
//! * [`aggregate`] — pluggable bag aggregation policies: the paper's
//!   min-distance plus the torchmil menu (logsumexp, generalized-mean,
//!   noisy-or), each reducing instance distances to one ascending
//!   ranking key.
//! * [`bag`] — instances, bags, and labelled datasets (§2.1.2).
//! * [`dd`] — the `−log DD` objective with analytic gradients under the
//!   noisy-or model `Pr(B_ij = t) = exp(−‖B_ij − t‖²_w)` (§2.2.1),
//!   evaluated by 8-lane distance and moment passes over the flat
//!   instance buffer (AVX2-dispatched, bit-identical to the portable
//!   passes).
//! * [`flat`] — contiguous structure-of-arrays instance storage: all
//!   bags packed into one `f64` buffer with per-bag `(offset, len)`
//!   spans, converted once per training run.
//! * [`index`] — deterministic k-means cells with a conservative
//!   per-cell distance bound; no ranking path uses them, only the
//!   benchmark's `mil.index_*` metrics.
//! * [`kernel`] — the fused weighted-distance kernels behind every
//!   ranking path: the canonical 4-lane unrolled exact kernel and the
//!   `i8` scalar-quantized screen whose provable lower bound rejects
//!   candidates without changing any ranking.
//! * [`scan`] — the one ranking engine: the pruned, screened top-k
//!   scan over runs of [`FlatBags`] (a shared scatter bound across pool
//!   workers) and the index-ordered k-way merge of partial rankings.
//! * [`policy`] — the paper's four weight-control schemes (§3.6):
//!   original DD, identical weights, the α gradient hack, and the
//!   `Σ w ≥ β·n` inequality constraint.
//! * [`trainer`] — multi-start maximisation from every instance of every
//!   positive bag, with the §4.3 start-subset speed-up.
//! * [`concept`] — the learned `(t, w)` pair: bag distances (minimum over
//!   instances) and noisy-or bag probabilities.
//! * [`predict`] — the §2.1.2 classification view: thresholded TRUE/FALSE
//!   decisions on new bags, with confusion-matrix reporting.

pub mod aggregate;
pub mod bag;
pub mod concept;
pub mod dd;
pub mod flat;
pub mod index;
pub mod kernel;
pub mod mirror;
pub mod policy;
pub mod predict;
pub mod scan;
pub mod trainer;

pub use aggregate::BagAggregator;
pub use bag::{Bag, BagLabel, MilDataset, MilError};
pub use concept::Concept;
pub use dd::{DdObjective, Parameterization};
pub use flat::{BagSpan, FlatBags, FlatDataset, ScreenQuery, ScreenScratch, ScreenStats};
pub use index::CoarseIndex;
pub use kernel::{QuantParams, QuantQuery};
pub use mirror::Mirror;
pub use policy::WeightPolicy;
pub use predict::{BagClassifier, ClassificationReport};
pub use scan::{merge_rankings, rank_runs, ranking_order, Ranking, Run, ScanSpec, Visit};
pub use trainer::{train, StartBags, TrainOptions, TrainResult};
