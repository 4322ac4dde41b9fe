//! Simulation reports: everything the paper's evaluation plots.

use crate::arch::ArchKind;
use serde::{Deserialize, Serialize};
use transpim_dataflow::ir::{Emitter, Program};
use transpim_dataflow::{layer_flow, token_flow};
use transpim_fault::FaultStats;
use transpim_hbm::stats::{Category, ScopedStats, SimStats};
use transpim_transformer::workload::Workload;

/// Which dataflow a simulation used (the paper's "Token-"/"Layer-" prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataflowKind {
    /// Token-based sharding (the paper's contribution).
    Token,
    /// Layer-based baseline.
    Layer,
}

impl DataflowKind {
    /// Both dataflows, layer first (baseline order).
    pub const ALL: [DataflowKind; 2] = [DataflowKind::Layer, DataflowKind::Token];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DataflowKind::Token => "Token",
            DataflowKind::Layer => "Layer",
        }
    }

    /// Compile `workload` under this dataflow for `banks` banks.
    pub fn compile(self, workload: &Workload, banks: u32) -> Program {
        Program::build(|out| self.emit(workload, banks, out))
    }

    /// [`DataflowKind::compile`], writing the steps into `out`.
    pub fn emit(self, workload: &Workload, banks: u32, out: &mut impl Emitter) {
        match self {
            DataflowKind::Token => token_flow::emit(workload, banks, out),
            DataflowKind::Layer => layer_flow::emit(workload, banks, out),
        }
    }
}

impl std::fmt::Display for DataflowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of simulating one workload on one system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// "Dataflow-Architecture" label (e.g. `Token-TransPIM`).
    pub system: String,
    /// Architecture kind.
    pub arch: ArchKind,
    /// Dataflow kind.
    pub dataflow: DataflowKind,
    /// Workload name.
    pub workload: String,
    /// Global statistics.
    pub stats: SimStats,
    /// Per-scope (layer-kind) statistics.
    pub scoped: ScopedStats,
    /// Arithmetic operations in the workload (2 × MACs).
    pub total_ops: u64,
    /// Sequences per batch.
    pub batch: usize,
    /// Degraded-mode fault accounting — present only for runs that carried
    /// a non-empty fault scenario, so fault-free reports serialize
    /// byte-identically to reports from before the fault subsystem existed.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub faults: Option<FaultStats>,
}

impl SimReport {
    /// Batch latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.stats.latency_ns * 1e-6
    }

    /// Achieved throughput in GOP/s.
    pub fn throughput_gops(&self) -> f64 {
        if self.stats.latency_ns <= 0.0 {
            return 0.0;
        }
        self.total_ops as f64 / self.stats.latency_ns
    }

    /// Energy efficiency in GOP/J.
    pub fn gop_per_joule(&self) -> f64 {
        let j = self.stats.total_energy_j();
        if j <= 0.0 {
            0.0
        } else {
            self.total_ops as f64 * 1e-9 / j
        }
    }

    /// Average power in watts.
    pub fn average_power_w(&self) -> f64 {
        self.stats.average_power_w()
    }

    /// Average memory bandwidth usage in GB/s (Figure 12 metric).
    pub fn average_bandwidth_gbs(&self) -> f64 {
        self.stats.average_bandwidth_gbs()
    }

    /// Compute utilization (Section V-C metric).
    pub fn utilization(&self) -> f64 {
        self.stats.compute_utilization()
    }

    /// Fraction of time in a breakdown category.
    pub fn fraction(&self, category: Category) -> f64 {
        self.stats.time_fraction(category)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} {:<10} lat {:>10.3} ms  {:>8.1} GOP/s  {:>8.1} GOP/J  {:>6.1} W  bw {:>7.1} GB/s  util {:>5.1}%  [move {:>4.1}% arith {:>4.1}% red {:>4.1}% other {:>4.1}%]",
            self.system,
            self.workload,
            self.latency_ms(),
            self.throughput_gops(),
            self.gop_per_joule(),
            self.average_power_w(),
            self.average_bandwidth_gbs(),
            100.0 * self.utilization(),
            100.0 * self.fraction(Category::DataMovement),
            100.0 * self.fraction(Category::Arithmetic),
            100.0 * self.fraction(Category::Reduction),
            100.0 * self.fraction(Category::Other),
        )
    }

    /// Serialize to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns any `serde_json` serialization error.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        // 1 ms of arithmetic (2 mJ) and 1 ms of data movement (1 mJ).
        let stats = SimStats {
            latency_ns: 2e6,
            time_ns: [1e6, 1e6, 0.0, 0.0],
            energy_pj: [1e9, 2e9, 0.0, 0.0],
            bytes_moved: 1e6,
        };
        SimReport {
            system: "Token-TransPIM".into(),
            arch: ArchKind::TransPim,
            dataflow: DataflowKind::Token,
            workload: "test".into(),
            stats,
            scoped: ScopedStats::new(),
            total_ops: 4_000_000_000,
            batch: 2,
            faults: None,
        }
    }

    #[test]
    fn fault_free_reports_never_serialize_the_faults_field() {
        // Wire-shape pin: `faults: None` must leave the JSON identical to
        // pre-fault-subsystem reports, and a populated field round-trips.
        let r = report();
        let j = r.to_json().unwrap();
        assert!(!j.contains("faults"));
        let mut with = report();
        with.faults = Some(FaultStats::default());
        let j = with.to_json().unwrap();
        assert!(j.contains("\"faults\""));
        let back: SimReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back, with);
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.latency_ms() - 2.0).abs() < 1e-12);
        assert!((r.throughput_gops() - 2000.0).abs() < 1e-9);
        assert!((r.gop_per_joule() - 4.0 / 0.003).abs() < 1e-6);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let r = report();
        let j = r.to_json().unwrap();
        let back: SimReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = report().summary();
        assert!(s.contains("Token-TransPIM") && s.contains("GOP/s"));
    }
}
