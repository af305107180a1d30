//! The one lookup the serve tests read `GET /metrics` through (the
//! workspace's other tests use `milr_testkit::series`, which this crate
//! cannot depend on).

/// The value of `name` — a series with its label block exactly as
/// rendered, say `milrd_connections_total{outcome="accepted"}` — in the
/// Prometheus text `text`.
///
/// # Panics
/// When no line carries the series.
pub fn series(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no series {name} in:\n{text}"))
}
