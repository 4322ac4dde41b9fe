//! HBM2 memory-system substrate for the TransPIM simulator.
//!
//! This crate models the memory hierarchy of the paper's baseline platform:
//! a set of HBM2 stacks, each with channels, bank groups, banks, and
//! subarrays, plus the buses and links connecting them (Figure 2 and
//! Figure 6 of the paper). It provides:
//!
//! * [`geometry`] — the physical organization (Table I) and strongly-typed
//!   coordinates for every level of the hierarchy,
//! * [`timing`] / [`energy`] — DRAM timing and energy parameters (Table I),
//! * [`resource`] — the set of contended hardware resources (banks, bank-group
//!   buses, channel buses, ring links, stack links, the host bus),
//! * [`command`] — DRAM command-level trace expansion and replay (pins the
//!   closed-form costs to command-accurate behavior),
//! * [`engine`] — the phase engine, which accounts each priced phase's
//!   latency, energy and bytes moved per breakdown category and per scope,
//!   in exact fixed point,
//! * [`stats`] — the accounting types shared with the accelerator crates.
//!
//! The engine works at the granularity at which the paper's modified
//! Ramulator inserts commands: one event per row-parallel PIM batch, per ACU
//! reduction stream, or per bus transfer, with closed-form latency/energy for
//! each derived from the Table I constants.
//!
//! # Example
//!
//! ```
//! use transpim_hbm::config::HbmConfig;
//!
//! let cfg = HbmConfig::default(); // Table I, 8 stacks
//! assert_eq!(cfg.geometry.total_banks(), 8 * 8 * 32);
//! assert_eq!(cfg.geometry.capacity_bytes(), 64 << 30); // 64 GiB
//! ```

pub mod command;
pub mod config;
pub mod energy;
pub mod engine;
pub mod geometry;
pub mod resource;
pub mod stats;
pub mod timing;

pub use config::{ConfigError, HbmConfig};
pub use energy::EnergyParams;
pub use engine::Engine;
pub use geometry::{BankCoord, BankId, HbmGeometry};
pub use resource::{ResourceId, ResourceMap};
pub use stats::{Category, SimStats};
pub use timing::TimingParams;
