//! Near-memory auxiliary computing units (ACUs) and the TransPIM data
//! communication architecture (Section IV of the paper).
//!
//! Each memory bank of TransPIM is extended with:
//!
//! * `P_sub` **ACUs** (one per simultaneously-activated subarray), each with
//!   `P_add` pipelined 256-wide bit-serial adder trees and a 3-stage
//!   pipelined reciprocal divider — they offload vector reduction and the
//!   Softmax normalization from the bit-serial subarrays ([`adder_tree`],
//!   [`divider`]),
//! * a reconfigurable 8×256 b **data buffer** for fine-grained copy and
//!   replication ([`data_buffer`]),
//! * a **ring broadcast unit** with dedicated 256-bit links to its ring
//!   neighbors; [`ring`] implements the slotted hop scheduler that
//!   reproduces the Figure 9 schedule (3 T for a full ring step over two
//!   bank groups, vs 8 T on the unmodified datapath),
//! * an analytic **area/power model** seeded with the paper's Table II
//!   synthesis results ([`area`]).
//!
//! As in the `transpim-pim` crate, the functional models (the adder tree
//! actually sums, the divider actually computes reciprocals) share their
//! operation counts with the timing model, so the simulator's costs are tied
//! to working hardware algorithms.

pub mod adder_tree;
pub mod area;
pub mod data_buffer;
pub mod divider;
pub mod ring;

pub use adder_tree::{AcuParams, AcuReduceModel};
pub use area::AreaModel;
pub use data_buffer::DataBufferModel;
pub use divider::{recip_q16, DividerModel};
pub use ring::{
    emit_hop_events, schedule_hops, schedule_hops_placed, Hop, HopPlacement, ScheduleResult,
    TransferCostModel,
};
