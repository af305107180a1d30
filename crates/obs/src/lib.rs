//! `milr-obs`: zero-dependency observability for the milr stack.
//!
//! Two halves, both lock-free on the hot path:
//!
//! * **Metrics** ([`metrics`]) — [`Counter`]s, [`Gauge`]s, and log-linear
//!   [`Histogram`]s behind a name-keyed [`Registry`]. The process-wide
//!   [`global()`] registry collects engine metrics (solver starts, rank
//!   latency, preprocessing volume); components that need isolation (the
//!   daemon) own their own `Registry`. Everything renders to Prometheus
//!   text exposition format via [`Registry::render_prometheus`].
//! * **Spans** ([`mod@span`]) — `let _s = obs::span!("train.dd");` RAII guards
//!   recording into per-thread seqlock ring buffers, drained by
//!   [`recent_spans`] (the daemon's `/trace` endpoint renders them as
//!   JSON).
//!
//! # Naming conventions
//!
//! Metric names are Prometheus-style: `milr_<area>_<what>_<unit|total>`
//! (e.g. `milr_store_rank_latency_us`, `milr_multistart_starts_total`).
//! Span names are dot-paths, `<area>.<operation>` (e.g. `train.dd`,
//! `store.rank`, `preprocess.database`).

pub mod metrics;
pub mod span;

pub use metrics::{
    bucket_bounds, bucket_index, labelled, Counter, Gauge, Histogram, HistogramSnapshot, Metric,
    MetricValue, Registry, HIST_BUCKETS, HIST_SUB_BUCKETS,
};
pub use span::{recent as recent_spans, SpanGuard, SpanRecord, RING_CAPACITY};

/// The process-wide metrics registry.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// Enter a span named by a `&'static str` literal; the interned name id is
/// cached per call site. Bind the result: `let _s = obs::span!("store.rank");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __MILR_SPAN_ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::span::enter_id(*__MILR_SPAN_ID.get_or_init(|| $crate::span::intern($name)))
    }};
}

/// A global-registry [`Counter`] handle, resolved once per call site:
/// `obs::counter!("milr_train_rounds_total").inc();`
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __MILR_COUNTER: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**__MILR_COUNTER.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A global-registry [`Gauge`] handle, resolved once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __MILR_GAUGE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__MILR_GAUGE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// A global-registry [`Histogram`] handle, resolved once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __MILR_HISTOGRAM: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__MILR_HISTOGRAM.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_resolve_and_record() {
        crate::counter!("lib_test_total").inc();
        crate::counter!("lib_test_total").inc();
        assert!(crate::global().counter("lib_test_total").get() >= 2);
        crate::gauge!("lib_test_gauge").set(1.25);
        assert_eq!(crate::global().gauge("lib_test_gauge").get(), 1.25);
        crate::histogram!("lib_test_hist").record(42);
        assert!(crate::global().histogram("lib_test_hist").count() >= 1);
        let _s = crate::span!("lib.test");
    }
}
