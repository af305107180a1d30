//! The snapshot epoch every role serves, and the one swap that replaces
//! it on reload. Each role loads its own kind of epoch (the whole store,
//! the store plus a shard assignment, a worker's shard subset); all of
//! them swap it in the same way and report it under the same
//! `snapshot_*` metrics.

use std::sync::{Arc, Mutex};

use crate::metrics::Metrics;
use crate::node::Reply;
use crate::Json;

/// What the `snapshot_*` gauges and the reload reply report of an epoch.
pub trait Snapshot {
    /// Generation of the loaded snapshot.
    fn generation(&self) -> u64;
    /// Shards this role serves from it.
    fn shards(&self) -> usize;
}

/// The serving epoch. A request pins it with one pointer clone
/// ([`Self::current`]) and serves entirely from it; a reload swaps the
/// pointer without disturbing requests in flight.
pub struct Epochs<E> {
    current: Mutex<Arc<E>>,
    metrics: Arc<Metrics>,
}

impl<E: Snapshot> Epochs<E> {
    /// Serves `epoch` first, and sets the generation and shard gauges.
    pub fn new(epoch: E, metrics: Arc<Metrics>) -> Self {
        metrics.snapshot_generation.set(epoch.generation() as f64);
        metrics.snapshot_shards.set(epoch.shards() as f64);
        Self {
            current: Mutex::new(Arc::new(epoch)),
            metrics,
        }
    }

    /// The epoch serving now.
    pub fn current(&self) -> Arc<E> {
        Arc::clone(&self.current.lock().expect("epoch mutex"))
    }

    /// Swaps in the epoch `install` makes of a `loaded` snapshot and the
    /// serving epoch. Load before calling: `install` runs under the swap
    /// lock, so it should only check the snapshot against the serving
    /// epoch. Counts the reload or its failure and updates the gauges; on
    /// failure the serving epoch stays untouched.
    ///
    /// # Errors
    /// The load's or `install`'s message.
    pub fn reload<L>(
        &self,
        loaded: Result<L, String>,
        install: impl FnOnce(L, &E) -> Result<E, String>,
    ) -> Result<Arc<E>, String> {
        let swapped = loaded.and_then(|loaded| {
            let mut current = self.current.lock().expect("epoch mutex");
            let fresh = Arc::new(install(loaded, &current)?);
            *current = Arc::clone(&fresh);
            Ok(fresh)
        });
        match &swapped {
            Ok(fresh) => {
                self.metrics.snapshot_reloads_total.inc();
                self.metrics
                    .snapshot_generation
                    .set(fresh.generation() as f64);
                self.metrics.snapshot_shards.set(fresh.shards() as f64);
            }
            Err(_) => self.metrics.snapshot_reload_failures_total.inc(),
        }
        swapped
    }
}

/// The `POST /snapshot/reload` reply: `200` with the fresh epoch's
/// generation and shard count, or `500` naming the failure.
pub fn reload_reply<E: Snapshot>(reloaded: &Result<Arc<E>, String>) -> Reply {
    match reloaded {
        Ok(epoch) => Reply::json(
            200,
            Json::Obj(vec![
                ("generation".into(), Json::num(epoch.generation() as f64)),
                ("shards".into(), Json::num(epoch.shards() as f64)),
            ]),
        ),
        Err(msg) => Reply::error(500, format!("reload failed: {msg}")),
    }
}
