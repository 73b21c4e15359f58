//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit, its direction, and — for a per-layer metric — the end-to-end
//! metric it should move. `BENCHMARK.json` lists the same metrics; a
//! test below reads it and keeps the two in step.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}
use Better::{Higher, Lower};

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// For a per-layer metric, the end-to-end metric it should move.
    pub target: Option<&'static str>,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        target: None,
    }
}

const fn l(name: &'static str, unit: &'static str, better: Better, target: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        target: Some(target),
    }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const E2E: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("img_per_s", "1/s", Higher),
    m("latency_p50_ms", "ms", Lower),
    m("compress_s", "s", Lower),
    m("kernel_ratio", "x", Higher),
    m("deploy_ms", "ms", Lower),
    m("low_p50_ms", "ms", Lower),
    m("high_p50_ms", "ms", Lower),
];

/// Per-layer metrics, printed by every traced run of every workload.
pub const LAYERS: &[Metric] = &[
    l("freq.count_ms", "ms", Lower, "compress_s"),
    l("cluster.build_ms", "ms", Lower, "compress_s"),
    l("codec.compress_ms", "ms", Lower, "compress_s"),
    l("codec.seqs_per_us", "1/us", Higher, "compress_s"),
    l("codec.stream_bytes", "count", Lower, "kernel_ratio"),
    l("container.write_ms", "ms", Lower, "compress_s"),
    l("container.read_ms", "ms", Lower, "deploy_ms"),
    l("digest.verify_ms", "ms", Lower, "deploy_ms"),
    l("graph.attach_ms", "ms", Lower, "deploy_ms"),
    l("stream_decode.decode_ms", "ms", Lower, "deploy_ms"),
    l("stream_decode.mb_per_s", "MB/s", Higher, "deploy_ms"),
    l("graph.set_packed_ms", "ms", Lower, "deploy_ms"),
    l("deploy.accounted", "ratio", Higher, "deploy_ms"),
    l("engine.tune_ms", "ms", Lower, "setup_s"),
    l("engine.tune_choices", "count", Lower, "setup_s"),
    l("graph.first_forward_ms", "ms", Lower, "setup_s"),
    l("graph.forward_ms", "ms", Lower, "img_per_s"),
    l("ops.conv3x3_ms", "ms", Lower, "img_per_s"),
    l("ops.conv1x1_ms", "ms", Lower, "img_per_s"),
    l("ops.other_ms", "ms", Lower, "img_per_s"),
    l("ops.binops_per_s", "1/s", Higher, "img_per_s"),
    l("ops.weight_mb", "MB", Lower, "latency_p50_ms"),
    l("pool.speedup", "x", Higher, "img_per_s"),
    l("serve.core_p50_ms", "ms", Lower, "low_p50_ms"),
    l("serve.core_p99_ms", "ms", Lower, "low_p50_ms"),
    l("serve.queue_wait_ms", "ms", Lower, "low_p50_ms"),
    l("serve.batch_mean", "count", Higher, "high_p50_ms"),
    l("serve.batches", "count", Lower, "high_p50_ms"),
    l("serve.rejected", "count", Lower, "high_p50_ms"),
    l("net.overhead_ms", "ms", Lower, "low_p50_ms"),
    l("wire.encode_us", "us", Lower, "low_p50_ms"),
    l("wire.decode_us", "us", Lower, "low_p50_ms"),
    l("latency_p99_ms", "ms", Lower, "latency_p50_ms"),
    l("low_p99_ms", "ms", Lower, "low_p50_ms"),
    l("high_p99_ms", "ms", Lower, "high_p50_ms"),
    l("gen.low.lateness_p99_ms", "ms", Lower, "low_p50_ms"),
    l("gen.high.lateness_p99_ms", "ms", Lower, "high_p50_ms"),
    l("gen.closed.sent", "count", Higher, "img_per_s"),
    l("gen.closed.ok", "count", Higher, "img_per_s"),
    l("gen.closed.failed", "count", Lower, "img_per_s"),
    l("gen.low.sent", "count", Higher, "low_p50_ms"),
    l("gen.low.ok", "count", Higher, "low_p50_ms"),
    l("gen.low.failed", "count", Lower, "low_p50_ms"),
    l("gen.high.sent", "count", Higher, "high_p50_ms"),
    l("gen.high.ok", "count", Higher, "high_p50_ms"),
    l("gen.high.failed", "count", Lower, "high_p50_ms"),
    l("max_rps", "1/s", Higher, "high_p50_ms"),
    l("failed_frac", "ratio", Lower, "img_per_s"),
    l("trace.overhead", "x", Lower, "latency_p50_ms"),
];

/// Metric values collected by one run.
#[derive(Debug, Default)]
pub struct Values {
    map: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Record `name` (must be declared in [`E2E`] or [`LAYERS`]).
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            E2E.iter().chain(LAYERS).any(|m| m.name == name),
            "undeclared metric {name}"
        );
        self.map.insert(name, value);
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.map.get(name).copied()
    }
}

/// JSON number: finite values as Rust prints them (shortest round-trip
/// form, every digit kept); non-finite values, which would not be valid
/// JSON, as `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `set` with its unit. A declared metric the run did not record is a bug
/// in the benchmark and panics.
pub fn result_line(
    set: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_units_and_targets_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in E2E.iter().chain(LAYERS) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(E2E
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        for m in E2E {
            assert!(m.target.is_none());
        }
        for m in LAYERS {
            let t = m.target.expect("per-layer metrics name their target");
            assert!(E2E.iter().any(|e| e.name == t), "{} -> {t}", m.name);
        }
    }

    /// The string value of `"key": "..."` in one flat JSON object.
    fn field<'a>(obj: &'a str, key: &str) -> &'a str {
        let at = obj
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in {obj}"));
        let rest = obj[at + key.len() + 2..].trim_start();
        let rest = rest.strip_prefix(':').expect("a colon").trim_start();
        let rest = rest.strip_prefix('"').expect("a string value");
        &rest[..rest.find('"').expect("a closing quote")]
    }

    /// The flat objects of the array under `key` in `json`.
    fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let at = json.find(&format!("\"{key}\"")).expect("the section");
        let open = at + json[at..].find('[').expect("an array");
        let close = open + json[open..].find(']').expect("a closed array");
        json[open + 1..close]
            .split('}')
            .filter_map(|o| o.split_once('{').map(|(_, body)| body))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_registry() {
        let json = include_str!("../../BENCHMARK.json");
        for (key, set) in [("end_to_end", E2E), ("per_layer", LAYERS)] {
            let listed: Vec<(&str, &str, &str)> = objects(json, key)
                .into_iter()
                .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
                .collect();
            let declared: Vec<(&str, &str, &str)> = set
                .iter()
                .map(|m| {
                    let better = match m.better {
                        Higher => "higher",
                        Lower => "lower",
                    };
                    (m.name, m.unit, better)
                })
                .collect();
            assert_eq!(listed, declared, "{key}");
        }
        let names: Vec<&str> = objects(json, "workloads")
            .into_iter()
            .map(|o| field(o, "name"))
            .collect();
        let known: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, known);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut v = Values::default();
        for m in E2E {
            v.set(m.name, 1.0 / 3.0);
        }
        let line = result_line(E2E, &v, true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}"));
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(2.0), "2.0");
    }
}
