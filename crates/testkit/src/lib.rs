#![warn(missing_docs)]

//! # milr-testkit
//!
//! Deterministic fault injection and regression tracing for the milr
//! workspace. Everything here is *test infrastructure* — no production
//! code depends on this crate; tests, the `milr golden` CLI command and
//! the `experiments` accuracy checks do.
//!
//! * [`rng`] — the seeded SplitMix64 generator every fault schedule
//!   derives from, so a failing seed replays byte-for-byte.
//! * [`chaos`] — [`chaos::ChaosProxy`], a fault-injecting TCP proxy that
//!   sits between test clients and a real `milrd`: byte-at-a-time
//!   trickle (slow-loris), mid-body disconnects, delayed responses, all
//!   scripted per-connection from a seed.
//! * [`faultfs`] — [`milr_core::storage::StorageIo`] implementations
//!   that tear writes, cut reads short, and flip bits, proving snapshot
//!   corruption always surfaces as `CoreError::Storage`.
//! * [`corpus`] — deterministic synthetic retrieval databases (no image
//!   decoding, no I/O) that golden traces and chaos tests share.
//! * [`golden`] — the golden-trace recorder: serializes the full DD
//!   training trajectory (starts, eval counts, argmin, weights, final
//!   ranking) to byte-stable JSON.
//! * [`artifact`] — the one differ and writer of every committed
//!   accuracy artifact (golden traces, `BENCH_train_probe.json`,
//!   `BENCH_scenarios.json`): path-qualified differences at the
//!   tolerances the committed file states, byte-exact elsewhere.
//! * [`metrics`] — [`series`], the one lookup tests read a role's
//!   `GET /metrics` Prometheus text through.

pub mod artifact;
pub mod chaos;
pub mod corpus;
pub mod faultfs;
pub mod golden;
pub mod metrics;
pub mod rng;

pub use chaos::{ChaosProxy, Fault};
pub use corpus::{mirror_closed_database, synthetic_database};
pub use faultfs::{BitFlipFs, ShortReadFs, TornWriteFs};
pub use golden::{
    record_trace, record_warm_trace, standard_cases, warm_trace_file_name, GoldenCase,
    WARM_TRACE_NAME,
};
pub use metrics::series;
pub use rng::TestkitRng;
