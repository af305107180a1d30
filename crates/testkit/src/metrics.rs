//! Reading a role's `GET /metrics` Prometheus text in tests.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_matches_the_whole_name_and_label_block() {
        let text = "# TYPE milrd_connections_total counter\n\
                    milrd_connections_total{outcome=\"accepted\"} 41\n\
                    milrd_queue_peak_ratio 0.5\n\
                    milrd_queue_peak 3\n";
        assert_eq!(
            series(text, "milrd_connections_total{outcome=\"accepted\"}"),
            41.0
        );
        assert_eq!(series(text, "milrd_queue_peak"), 3.0);
        assert_eq!(series(text, "milrd_queue_peak_ratio"), 0.5);
    }

    #[test]
    #[should_panic(expected = "no series milrd_connections_total")]
    fn a_missing_series_panics() {
        series(
            "milrd_connections_total{outcome=\"closed\"} 1\n",
            "milrd_connections_total",
        );
    }
}
