//! Metric names, units, directions and bounds — the tables
//! `BENCHMARK.json` mirrors (a unit test compares them) — and the
//! result line the driver reads.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// An end-to-end metric's definition.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "precision_at_k",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// The per-layer metrics `(name, unit, better)`, reported by every
/// traced run. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, Better); 66] = [
    ("synth.generate_ms_per_image", "ms", Better::Lower),
    ("imgproc.smooth_sample_us", "us", Better::Lower),
    ("core.image_to_bag_us", "us", Better::Lower),
    ("core.preprocess_images_per_s", "1/s", Better::Higher),
    ("core.train_round_cold_ms", "ms", Better::Lower),
    ("core.train_round_warm_ms", "ms", Better::Lower),
    ("core.rank_topk_us", "us", Better::Lower),
    ("core.rank_full_us", "us", Better::Lower),
    ("core.rank_ns_per_instance", "ns", Better::Lower),
    ("mil.train_ms", "ms", Better::Lower),
    ("mil.dd_eval_ns", "ns", Better::Lower),
    ("mil.dd_evals_per_s", "1/s", Better::Higher),
    ("mil.kernel_ns_per_instance", "ns", Better::Lower),
    ("mil.kernel_mb_per_s", "MB/s", Better::Higher),
    ("mil.screened_ns_per_instance", "ns", Better::Lower),
    ("mil.index_build_ms", "ms", Better::Lower),
    ("mil.index_bounds_us", "us", Better::Lower),
    ("mil.memo_hit_ratio", "ratio", Better::Higher),
    ("mil.topk_candidates_per_op", "count", Better::Lower),
    ("mil.cells_skip_ratio", "ratio", Better::Higher),
    ("mil.quant_rescore_ratio", "ratio", Better::Lower),
    ("optim.starts_per_query", "count", Better::Lower),
    ("optim.evals_per_query", "count", Better::Lower),
    ("optim.evals_per_start", "count", Better::Lower),
    ("optim.converged_ratio", "ratio", Better::Higher),
    ("optim.warm_evals_per_round", "count", Better::Lower),
    ("optim.projected_gradient_ms_per_start", "ms", Better::Lower),
    ("store.flush_ms", "ms", Better::Lower),
    ("store.flush_mb_per_s", "MB/s", Better::Higher),
    ("store.open_ms", "ms", Better::Lower),
    ("store.load_snapshot_ms", "ms", Better::Lower),
    ("store.rank_topk_us", "us", Better::Lower),
    ("store.rank_exact_us", "us", Better::Lower),
    ("store.merge_us", "us", Better::Lower),
    ("store.compact_ms", "ms", Better::Lower),
    ("store.push_bag_us", "us", Better::Lower),
    ("store.bytes_per_instance", "B", Better::Lower),
    ("serve.http_parse_us", "us", Better::Lower),
    ("serve.json_parse_us", "us", Better::Lower),
    ("serve.json_dump_k16_us", "us", Better::Lower),
    ("serve.json_dump_k50_us", "us", Better::Lower),
    ("serve.cache_get_ns", "ns", Better::Lower),
    ("serve.noop_roundtrip_us", "us", Better::Lower),
    ("serve.cache_hit_ratio", "ratio", Better::Higher),
    ("serve.keepalive_reuse_ratio", "ratio", Better::Higher),
    ("serve.batch_size_mean", "count", Better::Higher),
    ("serve.queue_peak", "count", Better::Lower),
    ("serve.shed_total", "count", Better::Lower),
    ("cluster.gather_us", "us", Better::Lower),
    ("cluster.codec_us", "us", Better::Lower),
    ("cluster.overhead_us", "us", Better::Lower),
    ("cluster.partial_ratio", "ratio", Better::Lower),
    ("cluster.leg_retry_ratio", "ratio", Better::Lower),
    ("cluster.bound_seeded_ratio", "ratio", Better::Higher),
    ("obs.span_ns", "ns", Better::Lower),
    ("obs.counter_inc_ns", "ns", Better::Lower),
    ("obs.histogram_record_ns", "ns", Better::Lower),
    ("client.write_us", "us", Better::Lower),
    ("client.wait_us", "us", Better::Lower),
    ("client.read_us", "us", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Higher),
    ("trace.share_train", "ratio", Better::Lower),
    ("trace.share_rank", "ratio", Better::Lower),
    ("trace.share_serve", "ratio", Better::Lower),
    ("trace.share_cluster", "ratio", Better::Lower),
    ("trace.unattributed_share", "ratio", Better::Lower),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind the value (timed samples, operations, or 1).
    pub samples: usize,
    /// A note printed beside the value (`tail_percentile`, spread, …).
    pub note: String,
}

impl Metric {
    /// A metric with `samples` behind it and no note.
    pub fn new(name: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            value,
            samples,
            note: String::new(),
        }
    }

    /// Adds a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The unit of a metric by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is in neither table"))
}

/// Prints metrics one per line: name, value, unit, sample count, note.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for metric in metrics {
        println!(
            "{workload:<16} {:<38} {:>16.6} {:<6} n={:<7} {}",
            metric.name,
            metric.value,
            unit_of(metric.name),
            metric.samples,
            metric.note
        );
    }
}

/// A JSON number with all the digits measured (non-finite values, which
/// no metric should produce, become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// The last line of standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                unit_of(m.name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;
    use milr_serve::Json;

    /// `BENCHMARK.json` at the repository root must mirror the tables
    /// here: the driver reads the file, the binary reads the tables.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &json {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let str_of =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = json.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(workloads.len(), SPECS.len());
        for (item, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(str_of(item, "name"), spec.name);
            assert_eq!(str_of(item, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        let end_to_end = json.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(str_of(item, "name"), metric.name);
            assert_eq!(str_of(item, "unit"), metric.unit);
            assert_eq!(str_of(item, "better"), metric.better.as_str());
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(metric.bound));
            assert!(metric.bound <= 0.25);
        }
        let per_layer = json.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, metric) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(item, "name"), metric.0);
            assert_eq!(str_of(item, "unit"), metric.1);
            assert_eq!(str_of(item, "better"), metric.2.as_str());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |name: &str| {
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |unit: &str| {
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(SPECS.iter().map(|s| s.name));
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit_ok(unit), "{unit}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let metrics = [
            Metric::new("setup_s", 0.8127, 3),
            Metric::new("latency_p50_ms", 1.2034, 100),
        ];
        let line = result_line(true, 100, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}}}"
        );
        assert!(Json::parse(&line).is_ok());
    }
}
