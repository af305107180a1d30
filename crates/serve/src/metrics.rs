//! Request metrics on the unified `milr-obs` registry: per-endpoint
//! counters and latency histograms, plus the connection counters and
//! queue gauges the [`Node`](crate::node::Node) loop updates lock-free.
//!
//! Each daemon owns its own [`obs::Registry`] (parallel test servers in
//! one process must not share counters); engine metrics (solver, ranking,
//! preprocessing) live in the process-wide `obs::global()` registry and
//! are appended to it. `GET /metrics` answers that rendering, the
//! Prometheus text exposition format, on every role.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use milr_obs::{self as obs, labelled};

/// Registry handles for one endpoint.
#[derive(Debug, Clone)]
struct EndpointStats {
    requests: Arc<obs::Counter>,
    status_2xx: Arc<obs::Counter>,
    status_4xx: Arc<obs::Counter>,
    status_5xx: Arc<obs::Counter>,
    latency: Arc<obs::Histogram>,
}

impl EndpointStats {
    fn register(registry: &obs::Registry, endpoint: &str) -> Self {
        let status = |class: &str| {
            registry.counter(&labelled(
                "milrd_requests_total",
                &[("endpoint", endpoint), ("status", class)],
            ))
        };
        EndpointStats {
            requests: registry.counter(&labelled(
                "milrd_endpoint_requests_total",
                &[("endpoint", endpoint)],
            )),
            status_2xx: status("2xx"),
            status_4xx: status("4xx"),
            status_5xx: status("5xx"),
            latency: registry.histogram(&labelled(
                "milrd_request_latency_us",
                &[("endpoint", endpoint)],
            )),
        }
    }
}

/// Daemon-wide metrics registry.
///
/// The connection counters satisfy a conservation law the chaos suite
/// checks after quiescence: every connection admitted to the queue is
/// accounted for exactly once, so
///
/// ```text
/// accepted_total == completed_total + read_error_total
///                   + closed_total + deadline_shed_total
///                   + handler_panics_total
/// ```
///
/// (`shed_total` counts connections refused *before* admission and sits
/// outside the identity.)
#[derive(Debug)]
pub struct Metrics {
    registry: obs::Registry,
    endpoints: Mutex<BTreeMap<&'static str, EndpointStats>>,
    /// Connections admitted to the accept queue.
    pub accepted_total: Arc<obs::Counter>,
    /// Admitted connections that were read, routed, and answered.
    pub completed_total: Arc<obs::Counter>,
    /// Admitted connections whose request could not be read (malformed,
    /// timed out, oversized) — each still receives an HTTP error status.
    pub read_error_total: Arc<obs::Counter>,
    /// Admitted connections the peer closed before sending any bytes.
    pub closed_total: Arc<obs::Counter>,
    /// Connections refused with `503` because the accept queue was full.
    pub shed_total: Arc<obs::Counter>,
    /// Requests refused with `503` because they overstayed the handle
    /// deadline while queued.
    pub deadline_shed_total: Arc<obs::Counter>,
    /// Connections closed after a route panicked: the request got a
    /// `500` and the handler thread lived on.
    pub handler_panics_total: Arc<obs::Counter>,
    /// Requests served on an already-used keep-alive connection (the
    /// second and every later request on one socket). Sits outside the
    /// conservation identity: reuse is per *request*, the identity per
    /// *connection*.
    pub keepalive_reused_total: Arc<obs::Counter>,
    /// Train-heavy requests (uncached rank/feedback) answered `503`
    /// under overload so cheap cached ranks keep flowing. The connection
    /// still resolves normally (the request got a response), so this
    /// also sits outside the conservation identity.
    pub priority_shed_total: Arc<obs::Counter>,
    /// Current accept-queue depth (gauge).
    pub queue_depth: Arc<obs::Gauge>,
    /// High-water mark of the accept queue.
    pub queue_peak: Arc<obs::Gauge>,
    /// Successful `POST /snapshot/reload` (and watcher-triggered) swaps.
    pub snapshot_reloads_total: Arc<obs::Counter>,
    /// Reload attempts that failed and kept the old epoch serving.
    pub snapshot_reload_failures_total: Arc<obs::Counter>,
    /// Generation of the epoch currently serving (gauge).
    pub snapshot_generation: Arc<obs::Gauge>,
    /// Shard count behind the epoch currently serving (gauge).
    pub snapshot_shards: Arc<obs::Gauge>,
}

impl Default for Metrics {
    fn default() -> Self {
        let registry = obs::Registry::new();
        let outcome =
            |o: &str| registry.counter(&labelled("milrd_connections_total", &[("outcome", o)]));
        Metrics {
            accepted_total: outcome("accepted"),
            completed_total: outcome("completed"),
            read_error_total: outcome("read_error"),
            closed_total: outcome("closed"),
            shed_total: outcome("shed"),
            deadline_shed_total: outcome("deadline_shed"),
            handler_panics_total: registry.counter("milrd_handler_panics_total"),
            keepalive_reused_total: registry.counter("milrd_keepalive_reused_total"),
            priority_shed_total: registry.counter("milrd_priority_shed_total"),
            queue_depth: registry.gauge("milrd_queue_depth"),
            queue_peak: registry.gauge("milrd_queue_peak"),
            snapshot_reloads_total: registry.counter("milrd_snapshot_reloads_total"),
            snapshot_reload_failures_total: registry
                .counter("milrd_snapshot_reload_failures_total"),
            snapshot_generation: registry.gauge("milrd_snapshot_generation"),
            snapshot_shards: registry.gauge("milrd_snapshot_shards"),
            endpoints: Mutex::new(BTreeMap::new()),
            registry,
        }
    }
}

impl Metrics {
    /// The daemon's own registry (connection counters, per-endpoint
    /// series, queue gauges) — what `/metrics` renders first.
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// The `/metrics` text: this registry followed by
    /// the process-wide engine registry (solver, ranking,
    /// preprocessing).
    ///
    /// Each endpoint's slowest request, which the histogram's buckets
    /// bound only to within one bucket, is mirrored here from the
    /// histogram's exact maximum into `milrd_request_latency_max_us`,
    /// so [`Self::record`] pays for it nothing per request.
    pub fn render_prometheus(&self) -> String {
        for (endpoint, stats) in self.endpoints.lock().expect("metrics mutex").iter() {
            let max = labelled("milrd_request_latency_max_us", &[("endpoint", *endpoint)]);
            let slowest = stats.latency.snapshot().max();
            self.registry.gauge(&max).set(slowest as f64);
        }
        let mut out = self.registry.render_prometheus();
        out.push_str(&obs::global().render_prometheus());
        out
    }

    /// Records one handled request.
    pub fn record(&self, endpoint: &'static str, status: u16, us: u64) {
        let stats = {
            let mut endpoints = self.endpoints.lock().expect("metrics mutex");
            endpoints
                .entry(endpoint)
                .or_insert_with(|| EndpointStats::register(&self.registry, endpoint))
                .clone()
        };
        stats.requests.inc();
        match status {
            200..=299 => stats.status_2xx.inc(),
            400..=499 => stats.status_4xx.inc(),
            _ => stats.status_5xx.inc(),
        }
        stats.latency.record(us);
    }

    /// Updates the queue-depth gauge (and its high-water mark).
    pub(crate) fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as f64);
        self.queue_peak.set_max(depth as f64);
    }

    /// Whether the connection conservation law holds right now (it is
    /// only guaranteed at quiescence — in-flight connections have been
    /// accepted but not yet resolved). A test oracle: the unit tests of
    /// this module and of `node` check the law with it.
    #[cfg(test)]
    pub(crate) fn connections_balanced(&self) -> bool {
        let accepted = self.accepted_total.get();
        let resolved = self.completed_total.get()
            + self.read_error_total.get()
            + self.closed_total.get()
            + self.deadline_shed_total.get()
            + self.handler_panics_total.get();
        accepted == resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::series;

    #[test]
    fn histogram_tracks_quantiles_and_mean() {
        let h = obs::Histogram::new();
        assert_eq!(h.snapshot().quantile_upper_bound(0.5), 0);
        for us in [
            50u64, 80, 200, 400, 900, 9_000, 40_000, 2_000_000, 9_999_999,
        ] {
            h.record(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 9);
        // Rank ceil(0.5*9)=5 is the observation 900; the log-linear bucket
        // estimate stays within one bucket (≤12.5%) of it.
        let p50 = snap.quantile_upper_bound(0.5);
        assert!((900..=1023).contains(&p50), "p50={p50}");
        // The estimate is clamped to the observed maximum.
        assert_eq!(snap.quantile_upper_bound(1.0), 9_999_999);
        assert!(snap.mean() > 0.0);
    }

    #[test]
    fn record_classifies_statuses() {
        let m = Metrics::default();
        m.record("/rank", 200, 100);
        m.record("/rank", 404, 50);
        m.record("/rank", 503, 10);
        m.record("/healthz", 200, 5);
        let text = m.render_prometheus();
        let requests = |endpoint: &str| {
            series(
                &text,
                &format!("milrd_endpoint_requests_total{{endpoint=\"{endpoint}\"}}"),
            )
        };
        assert_eq!(requests("/rank") + requests("/healthz"), 4.0);
        assert_eq!(requests("/rank"), 3.0);
        let max = "milrd_request_latency_max_us{endpoint=\"/rank\"}";
        assert_eq!(series(&text, max), 100.0);
        for class in ["2xx", "4xx", "5xx"] {
            let name = format!("milrd_requests_total{{endpoint=\"/rank\",status=\"{class}\"}}");
            assert_eq!(series(&text, &name), 1.0, "{name}");
        }
    }

    #[test]
    fn connection_conservation_law() {
        let m = Metrics::default();
        assert!(m.connections_balanced(), "empty registry balances");
        m.accepted_total.add(6);
        assert!(!m.connections_balanced(), "in-flight connections imbalance");
        m.completed_total.add(2);
        m.handler_panics_total.add(1);
        m.read_error_total.add(1);
        m.closed_total.add(1);
        m.deadline_shed_total.add(1);
        assert!(m.connections_balanced(), "every outcome counted once");
        // Pre-admission sheds sit outside the identity.
        m.shed_total.add(10);
        assert!(m.connections_balanced());
    }

    #[test]
    fn queue_gauge_tracks_peak() {
        let m = Metrics::default();
        m.set_queue_depth(3);
        m.set_queue_depth(7);
        m.set_queue_depth(1);
        assert_eq!(m.queue_depth.get(), 1.0);
        assert_eq!(m.queue_peak.get(), 7.0);
    }

    #[test]
    fn prometheus_rendering_covers_connections_and_endpoints() {
        let m = Metrics::default();
        m.accepted_total.inc();
        m.completed_total.inc();
        m.record("/rank", 200, 1234);
        let text = m.registry().render_prometheus();
        assert!(
            text.contains("milrd_connections_total{outcome=\"accepted\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("milrd_endpoint_requests_total{endpoint=\"/rank\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("milrd_request_latency_us_count{endpoint=\"/rank\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE milrd_request_latency_us histogram"),
            "{text}"
        );
    }
}
