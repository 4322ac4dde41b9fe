//! Bit-serial in-subarray processing-in-memory (PIM) substrate.
//!
//! TransPIM keeps point-wise vector arithmetic *inside* the DRAM subarrays,
//! using bit-serial row-parallel operations in the style of Ambit /
//! ComputeDRAM: data is laid out column-wise (one value per bit-column,
//! one bit per row), and each triple-row activation computes a Boolean
//! majority/AND/OR across entire rows at once (Section IV-A2).
//!
//! This crate provides both halves of that substrate and keeps them welded
//! together:
//!
//! * [`bitplane`] — a functional bit-plane array ([`bitplane::BitPlanes`])
//!   plus the row-level logic primitives (AND/OR/NOT/MAJ3),
//! * [`alu`] — majority-based ripple-carry addition, shift-and-add
//!   multiplication, and the 5th-order Taylor exponential built from those
//!   primitives, each returning an exact count of the AAP
//!   (activate-activate-precharge) command sequences it issued,
//! * [`cost`] — the latency/energy model that turns AAP counts into
//!   nanoseconds and picojoules using the Table I constants,
//! * [`rowclone`] — in-DRAM bulk row copy (RowClone FPM) and the
//!   row-buffer-mediated shifted copy used by PIM-only reductions.
//!
//! Because the cost model consumes the *same* AAP counts that the functional
//! ALU produces, the simulator's timing cannot drift away from an actually
//! correct in-memory algorithm — the property tests in [`alu`] prove the op
//! sequences compute real arithmetic.

pub mod alu;
pub mod bitplane;
pub mod cost;
pub mod ecc;
pub mod rowclone;

pub use alu::{AapTrace, PimAlu};
pub use bitplane::BitPlanes;
pub use cost::{PimCostModel, PimCostParams, PimOp};
pub use ecc::EccScheme;
