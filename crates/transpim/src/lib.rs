//! TransPIM: memory-based Transformer acceleration via software-hardware
//! co-design — the top-level accelerator model of the HPCA 2022 paper
//! reproduction.
//!
//! This crate ties the substrates together:
//!
//! * [`arch`] — the four memory-based architectures the paper compares:
//!   TransPIM (PIM + ACUs + buffers/ring links), TransPIM-NB (no
//!   communication buffers), OriginalPIM (bit-serial in-situ only), and
//!   NBP (Newton-like near-bank processing),
//! * [`calib`] — every constant that is not in the paper's Table I/II,
//!   with its provenance and the observable it was calibrated against,
//! * [`exec`] — the execution engine: prices each dataflow [`Step`] on an
//!   architecture and drives the `transpim-hbm` phase engine,
//! * [`accelerator`] — one-call simulation of a workload × dataflow ×
//!   architecture combination,
//! * [`report`] — the [`report::SimReport`] with latency, energy,
//!   category breakdown, bandwidth, power and utilization (everything the
//!   paper's Figures 10–15 plot),
//! * [`functional`] — end-to-end functional verification that the sharded
//!   token dataflow computes what the reference Transformer computes,
//! * [`banksim`] — bit-accurate execution of the Figure 8 datapath (PIM
//!   products, ACU reductions, Taylor exponent, divider reciprocal) checked
//!   against f32 attention.
//!
//! # Quickstart
//!
//! ```
//! use transpim::accelerator::Accelerator;
//! use transpim::arch::{ArchConfig, ArchKind};
//! use transpim::report::DataflowKind;
//! use transpim_transformer::workload::Workload;
//!
//! let mut w = Workload::imdb();
//! w.model.encoder_layers = 1; // keep the doctest fast
//! let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
//! let report = acc.simulate(&w, DataflowKind::Token);
//! assert!(report.latency_ms() > 0.0);
//! assert!(report.utilization() > 0.0 && report.utilization() <= 1.0);
//! ```

pub mod accelerator;
pub mod arch;
pub mod banksim;
pub mod calib;
pub mod error;
pub mod exec;
pub mod functional;
pub mod report;

pub use accelerator::Accelerator;
pub use arch::{ArchConfig, ArchKind};
pub use error::SimError;
pub use report::{DataflowKind, SimReport};

// Re-export the fault-injection surface so bins, benches, and tests drive
// degraded-mode simulation without depending on `transpim-fault` directly.
pub use transpim_fault as fault;
pub use transpim_fault::{FaultScenario, FaultSession, FaultStats};

// Re-export the step type the engine interprets, for downstream tooling.
pub use transpim_dataflow::ir::Step;

// Re-export the observability surface so downstream tooling can attach
// sinks without depending on `transpim-obs` directly.
pub use transpim_obs::{ChromeTraceSink, FanoutSink, MetricsSink, ObsError, Sink, SinkHandle};
