//! Metric names and units: the benchmark's output schema.

use crate::check::category_key;
use transpim_hbm::stats::Category;

/// End-to-end metrics (host time, untraced run).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sims_per_s", "1/s"),
    ("request_ms.p50", "ms"),
    ("request_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
];

/// Per-layer host metrics (traced run), named `<crate>.<quantity>`.
pub const LAYER: &[(&str, &str)] = &[
    ("dataflow.compile_ms", "ms"),
    ("dataflow.steps", "count"),
    ("dataflow.unrolled_steps", "count"),
    ("transpim.executor_new_ms", "ms"),
    ("transpim.price_cold_ms", "ms"),
    ("transpim.price_warm_ms", "ms"),
    ("transpim.price_ns_per_unrolled_step", "ns"),
    ("transpim.report_json_ms", "ms"),
    ("transpim.report_bytes", "bytes"),
    ("acu.ring_shapes", "count"),
    ("acu.ring_step_us", "us"),
    ("acu.tree_shapes", "count"),
    ("acu.reduce_tree_us", "us"),
    ("obs.traced_price_ms", "ms"),
    ("obs.trace_overhead_x", "x"),
    ("obs.trace_events", "count"),
    ("obs.trace_serialize_ms", "ms"),
    ("obs.trace_bytes", "bytes"),
    ("obs.metrics_keys", "count"),
    ("obs.metrics_serialize_ms", "ms"),
    ("fault.session_new_ms", "ms"),
    ("fault.price_degraded_ms", "ms"),
    ("fault.degraded_over_clean_x", "x"),
    ("fault.injected", "count"),
    ("fault.corrected", "count"),
    ("fault.uncorrectable", "count"),
    ("par.grid_ms", "ms"),
    ("par.serial_ms", "ms"),
    ("par.efficiency", "fraction"),
    ("bench.span_overhead_pct", "%"),
];

/// Scopes the compilers label steps with; each gets one simulated-time
/// metric per category.
pub const SCOPES: &[&str] = &[
    "load.input",
    "load.weights",
    "enc.fc",
    "enc.attn",
    "enc.softmax",
    "enc.ffn",
    "dec.fc",
    "dec.attn",
    "dec.ffn",
];

/// Simulated-machine metrics, summed over a request's simulations. Their
/// units name simulated quantities, never host time.
pub fn sim_metrics() -> Vec<(String, &'static str)> {
    let mut v = vec![
        ("sim.latency_ms".to_owned(), "sim_ms"),
        ("sim.energy_mj".to_owned(), "sim_mJ"),
        ("sim.bytes_moved".to_owned(), "sim_bytes"),
    ];
    for c in Category::ALL {
        v.push((format!("sim.{}_share", category_key(c)), "fraction"));
    }
    for scope in SCOPES {
        for c in Category::ALL {
            v.push((format!("sim.{scope}.{}_ms", category_key(c)), "sim_ms"));
        }
    }
    v
}

/// Every per-layer metric, host then simulated.
pub fn per_layer() -> Vec<(String, &'static str)> {
    LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).chain(sim_metrics()).collect()
}

/// One metric value as the result line prints it.
pub fn entry(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units the benchmark prints are the ones
    /// `BENCHMARK.json` declares, in both directions.
    #[test]
    fn schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().expect("string field").to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(declared("per_layer"), layer);
    }
}
