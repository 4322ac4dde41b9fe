//! Architecture-independent dataflow IR.
//!
//! A [`Program`] is a list of [`Step`]s in execution order. Each step names
//! *what* happens (a point-wise PIM batch, a vector reduction, a ring
//! broadcast round, …) with its per-bank and system-wide work sizes; the
//! execution engine in the `transpim` crate prices each step for a concrete
//! architecture (TransPIM, TransPIM-NB, OriginalPIM, NBP) and feeds the
//! phase engine.
//!
//! # Loop compression
//!
//! Autoregressive decoding repeats one decoder block per generated token
//! and layer. [`Step::Repeat`] captures that structure: a body emitted
//! once and an iteration count, denoting `count` identical copies of the
//! body, so a compressed program denotes precisely the same step sequence
//! as its [`Program::unroll`]. Compilers commit runs of identical blocks
//! with [`Program::push_block_times`]; a block that differs from the last
//! one starts a new run, so compression is a pure encoding choice, never a
//! semantic one.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use transpim_hbm::geometry::BankId;

/// A contiguous, ring-ordered range of banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankRange {
    /// First bank id.
    pub start: u32,
    /// Number of banks.
    pub count: u32,
}

impl BankRange {
    /// A range of `count` banks starting at `start`.
    pub fn new(start: u32, count: u32) -> Self {
        Self { start, count }
    }

    /// Iterate over the bank ids.
    pub fn iter(&self) -> impl Iterator<Item = BankId> {
        (self.start..self.start + self.count).map(BankId)
    }

    /// Bank ids as a vector.
    pub fn to_vec(&self) -> Vec<BankId> {
        self.iter().collect()
    }

    /// Number of banks.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Arithmetic widths used when lowering (Section V-B: 8-bit FC/FFN, 16-bit
/// Softmax, 5th-order Taylor exponent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Precision {
    /// Activation/weight width for matmuls.
    pub act_bits: u32,
    /// Accumulator/product width streamed into reductions.
    pub acc_bits: u32,
    /// Softmax fixed-point width.
    pub softmax_bits: u32,
    /// Taylor order for the exponential.
    pub taylor_order: u32,
}

impl Default for Precision {
    fn default() -> Self {
        Self { act_bits: 8, acc_bits: 16, softmax_bits: 16, taylor_order: 5 }
    }
}

/// One dataflow step. Sizes follow two conventions:
///
/// * `*_per_bank` — work in the busiest active bank (sets latency),
/// * `total_*` — system-wide work (sets energy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Step {
    /// Set the scope label for subsequent steps (layer-wise breakdown).
    /// Labels are interned as `Cow<'static, str>`: the compilers' fixed
    /// vocabulary borrows, deserialized programs own.
    Scope(Cow<'static, str>),

    /// Point-wise multiply of `a_bits`×`b_bits` operands in the subarrays.
    PointwiseMul {
        /// Lanes in the busiest bank.
        elems_per_bank: u64,
        /// Lanes system-wide.
        total_elems: u64,
        /// Width of the first operand.
        a_bits: u32,
        /// Width of the second operand.
        b_bits: u32,
    },

    /// Point-wise add at `bits` width.
    PointwiseAdd {
        /// Lanes in the busiest bank.
        elems_per_bank: u64,
        /// Lanes system-wide.
        total_elems: u64,
        /// Operand width.
        bits: u32,
    },

    /// Point-wise Taylor exponential (Softmax step 1).
    Exp {
        /// Lanes in the busiest bank.
        elems_per_bank: u64,
        /// Lanes system-wide.
        total_elems: u64,
        /// Fixed-point width (16 for Softmax).
        bits: u32,
        /// Taylor order (5 in the paper).
        order: u32,
    },

    /// Vector reductions (dot-product accumulation, Softmax row sums).
    Reduce {
        /// Length of each reduced vector.
        vec_len: u32,
        /// Element width.
        bits: u32,
        /// Vectors reduced in the busiest bank.
        vectors_per_bank: u64,
        /// Vectors reduced system-wide.
        total_vectors: u64,
    },

    /// Reciprocals in the ACU divider (Softmax normalization).
    Recip {
        /// Reciprocals in the busiest bank.
        per_bank: u64,
        /// Reciprocals system-wide.
        total: u64,
    },

    /// Replicate a scalar across a row (reciprocal spreading,
    /// Figure 8(b) steps 3–4).
    Replicate {
        /// Width of the replicated value.
        value_bits: u32,
        /// Copies per replication.
        copies: u32,
        /// Replications in the busiest bank.
        count_per_bank: u64,
        /// Replications system-wide.
        total_count: u64,
    },

    /// Broadcast identical data (weights) from the host to every active
    /// bank using per-channel broadcast writes.
    HostBroadcast {
        /// Payload bytes (one copy; it reaches all banks).
        bytes: u64,
        /// Banks that latch the broadcast.
        banks: u32,
    },

    /// Scatter distinct data (input embeddings) from the host to banks.
    HostScatter {
        /// Total bytes across all banks.
        total_bytes: u64,
    },

    /// `repeat` identical ring-broadcast steps over `banks`, each bank
    /// forwarding `bytes_per_hop` to its successor per step.
    RingBroadcast {
        /// The ring (one sequence's banks).
        banks: BankRange,
        /// Shard payload per hop.
        bytes_per_hop: u64,
        /// Number of ring steps (`N−1` for a full broadcast).
        repeat: u64,
        /// Identical disjoint rings running concurrently (batched
        /// sequences); scales energy/bytes, not latency.
        parallel: u32,
    },

    /// One-to-all broadcast of `bytes` from a source bank to every bank in
    /// the range (decoder `Q_new` distribution).
    OneToAll {
        /// Source bank.
        src: u32,
        /// Receivers.
        banks: BankRange,
        /// Payload bytes.
        bytes: u64,
        /// Concurrent disjoint broadcasts (batched sequences).
        parallel: u32,
    },

    /// Multi-step parallel partial-sum reduction across banks: `log2(N)`
    /// rounds of pairwise transfers plus in-bank adds (decoder output).
    PairwiseReduceTree {
        /// Participating banks.
        banks: BankRange,
        /// Partial-sum payload per transfer.
        bytes: u64,
        /// Partial-sum element width.
        bits: u32,
        /// Elements per partial sum (added after each transfer).
        elems: u64,
        /// Concurrent disjoint trees (batched sequences).
        parallel: u32,
    },

    /// Layer-based dataflow: one payload duplicated into many banks (the
    /// full `K`/`V` matrix every bank needs for its score rows). On the
    /// original datapath each bank's copy is a separate shared-bus
    /// transfer; TransPIM's broadcast write delivers one copy per channel —
    /// the source of the paper's 18.2× layer-dataflow movement gain.
    BroadcastDup {
        /// Payload bytes (one copy).
        bytes: u64,
        /// Receiving banks.
        banks: u32,
    },

    /// Intra-bank data reorganization (transposes, operand staging) done
    /// through the data buffer (or the row buffer when absent).
    IntraBankCopy {
        /// Bytes moved in the busiest bank.
        bytes_per_bank: u64,
        /// Bytes moved system-wide.
        total_bytes: u64,
    },

    /// Inter-layer shuffle of the layer-based dataflow: operands and
    /// results stream over the shared datapath between layers, including
    /// bit-serial layout reorganization.
    ShuffleAll {
        /// Total bytes crossing the datapath.
        total_bytes: u64,
    },

    /// Plain result reads/stores ("other" in the Figure 11 breakdown).
    MemTouch {
        /// Bytes in the busiest bank.
        bytes_per_bank: u64,
        /// Bytes system-wide.
        total_bytes: u64,
    },

    /// `count` identical iterations of `body`. Denotes exactly the
    /// unrolled sequence; the executor prices it as body × count, with
    /// statistics byte-identical to pricing the unrolled program.
    Repeat {
        /// Number of iterations.
        count: u64,
        /// Steps of one iteration.
        body: Vec<Step>,
    },
}

impl Step {
    /// Scope constructor.
    pub fn scope(label: impl Into<Cow<'static, str>>) -> Self {
        Step::Scope(label.into())
    }

    /// Repeat constructor.
    pub fn repeat(count: u64, body: Vec<Step>) -> Self {
        Step::Repeat { count, body }
    }
}

/// `(host, movement, mul)` totals of a step slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    host: u64,
    movement: u64,
    mul: u64,
}

impl Totals {
    fn add(self, o: Totals) -> Totals {
        Totals {
            host: self.host + o.host,
            movement: self.movement + o.movement,
            mul: self.mul + o.mul,
        }
    }

    fn scale(self, m: u64) -> Totals {
        Totals { host: self.host * m, movement: self.movement * m, mul: self.mul * m }
    }
}

/// The step's contribution to the program totals; a repeat contributes
/// its body's totals `count` times (integer accounting, so exact).
fn step_totals(step: &Step) -> Totals {
    let mut t = Totals::default();
    match step {
        Step::HostBroadcast { bytes, .. } => t.host = *bytes,
        Step::HostScatter { total_bytes } => t.host = *total_bytes,
        Step::RingBroadcast { banks, bytes_per_hop, repeat, parallel } => {
            t.movement = u64::from(banks.count) * u64::from(*parallel) * (bytes_per_hop * repeat);
        }
        Step::OneToAll { banks, bytes, parallel, .. } => {
            t.movement = u64::from(banks.count) * u64::from(*parallel) * bytes;
        }
        Step::PairwiseReduceTree { banks, bytes, parallel, .. } => {
            t.movement = u64::from(banks.count.saturating_sub(1)) * u64::from(*parallel) * bytes;
        }
        Step::BroadcastDup { bytes, banks } => t.movement = u64::from(*banks) * bytes,
        Step::IntraBankCopy { total_bytes, .. } | Step::ShuffleAll { total_bytes } => {
            t.movement = *total_bytes;
        }
        Step::PointwiseMul { total_elems, .. } => t.mul = *total_elems,
        Step::Repeat { count, body } => t = body_totals(body).scale(*count),
        _ => {}
    }
    t
}

fn body_totals(body: &[Step]) -> Totals {
    body.iter().map(step_totals).fold(Totals::default(), Totals::add)
}

fn step_count(step: &Step) -> u64 {
    match step {
        Step::Repeat { count, body } => count * body.iter().map(step_count).sum::<u64>(),
        _ => 1,
    }
}

/// A compiled dataflow program: its steps, in execution order. On the
/// wire it is `{"steps": [...]}`, the shape the CLI's `--dump-ir` writes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Program {
    steps: Vec<Step>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Append `times` consecutive iterations of one block, drained from
    /// `block` (left empty for reuse): the raw steps for one iteration, a
    /// [`Step::Repeat`] for more. A block equal to the body of the repeat
    /// that ends the program extends that repeat instead, so a run the
    /// compiler derives in pieces (the decoder's `ceil(t/N)` plateaus)
    /// stays one step.
    pub fn push_block_times(&mut self, block: &mut Vec<Step>, times: u64) {
        if times > 0 && !block.is_empty() {
            match self.steps.last_mut() {
                Some(Step::Repeat { count, body }) if body == block => *count += times,
                _ if times == 1 => self.extend(block.drain(..)),
                _ => self.push(Step::repeat(times, std::mem::take(block))),
            }
        }
        block.clear();
    }

    /// The steps, in execution order ([`Step::Repeat`] not expanded).
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of top-level steps ([`Step::Repeat`] counts as one).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Number of steps with every [`Step::Repeat`] expanded — the length
    /// of [`Program::unroll`] without materializing it.
    pub fn unrolled_len(&self) -> u64 {
        self.steps.iter().map(step_count).sum()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The fully unrolled program: every [`Step::Repeat`] expanded to its
    /// per-iteration steps. The compressed program denotes exactly this
    /// sequence; the executor prices both identically.
    pub fn unroll(&self) -> Program {
        fn expand(out: &mut Program, step: &Step) {
            if let Step::Repeat { count, body } = step {
                for _ in 0..*count {
                    for s in body {
                        expand(out, s);
                    }
                }
            } else {
                out.push(step.clone());
            }
        }
        let mut out = Program::new();
        for s in &self.steps {
            expand(&mut out, s);
        }
        out
    }

    /// Total bytes loaded from the host (weights + inputs) — the
    /// Figure 3(b) "loaded data" metric for host traffic.
    pub fn host_bytes(&self) -> u64 {
        body_totals(&self.steps).host
    }

    /// Total bytes moved between or inside banks (ring broadcast, shuffles,
    /// copies, reduction trees).
    pub fn internal_movement_bytes(&self) -> u64 {
        body_totals(&self.steps).movement
    }

    /// Total point-wise multiply lanes (≈ MAC count) — used by sanity tests
    /// to check work conservation across dataflows.
    pub fn total_mul_elems(&self) -> u64 {
        body_totals(&self.steps).mul
    }
}

impl Extend<Step> for Program {
    fn extend<T: IntoIterator<Item = Step>>(&mut self, iter: T) {
        self.steps.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_range_iteration() {
        let r = BankRange::new(4, 3);
        let ids: Vec<u32> = r.iter().map(|b| b.0).collect();
        assert_eq!(ids, vec![4, 5, 6]);
        assert!(!r.is_empty());
        assert!(BankRange::new(0, 0).is_empty());
    }

    #[test]
    fn program_accounting() {
        let mut p = Program::new();
        p.push(Step::HostBroadcast { bytes: 100, banks: 8 });
        p.push(Step::HostScatter { total_bytes: 50 });
        p.push(Step::RingBroadcast {
            banks: BankRange::new(0, 4),
            bytes_per_hop: 10,
            repeat: 3,
            parallel: 2,
        });
        p.push(Step::ShuffleAll { total_bytes: 200 });
        p.push(Step::BroadcastDup { bytes: 7, banks: 10 });
        p.push(Step::PointwiseMul { elems_per_bank: 5, total_elems: 20, a_bits: 8, b_bits: 8 });
        assert_eq!(p.host_bytes(), 150);
        assert_eq!(p.internal_movement_bytes(), 4 * 10 * 3 * 2 + 200 + 70);
        assert_eq!(p.total_mul_elems(), 20);
        assert_eq!(p.len(), 6);
        assert_eq!(p.unrolled_len(), 6);
    }

    fn mul(per_bank: u64, total: u64) -> Step {
        Step::PointwiseMul { elems_per_bank: per_bank, total_elems: total, a_bits: 8, b_bits: 8 }
    }

    /// Repeat totals must be exact: compare body × count accounting against
    /// the unrolled program.
    #[test]
    fn repeat_totals_match_unrolled_totals() {
        let body = vec![
            Step::scope("dec"),
            Step::HostScatter { total_bytes: 64 },
            Step::RingBroadcast {
                banks: BankRange::new(0, 8),
                bytes_per_hop: 100,
                repeat: 7,
                parallel: 3,
            },
            mul(10, 1000),
            Step::OneToAll { src: 0, banks: BankRange::new(0, 8), bytes: 32, parallel: 2 },
            Step::MemTouch { bytes_per_bank: 8, total_bytes: 512 },
        ];
        let mut p = Program::new();
        p.push(Step::repeat(9, body));
        let u = p.unroll();
        assert_eq!(p.host_bytes(), u.host_bytes());
        assert_eq!(p.internal_movement_bytes(), u.internal_movement_bytes());
        assert_eq!(p.total_mul_elems(), u.total_mul_elems());
        assert_eq!(p.unrolled_len(), u.len() as u64);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn nested_repeat_totals_and_unroll() {
        let inner = Step::repeat(3, vec![mul(1, 10)]);
        let mut p = Program::new();
        p.push(Step::repeat(4, vec![inner]));
        assert_eq!(p.total_mul_elems(), 4 * 3 * 10);
        let u = p.unroll();
        assert_eq!(u.len(), 12);
        assert_eq!(u.total_mul_elems(), 120);
    }

    #[test]
    fn push_block_times_merges_plateaus() {
        let mut prog = Program::new();
        prog.push_block_times(&mut vec![mul(5, 100)], 4);
        prog.push_block_times(&mut vec![mul(5, 100)], 3); // same block: merges
        prog.push_block_times(&mut vec![mul(9, 100)], 2); // different: new run
        assert_eq!(
            prog.steps(),
            [Step::repeat(7, vec![mul(5, 100)]), Step::repeat(2, vec![mul(9, 100)])]
        );
        assert_eq!(prog.unrolled_len(), 9);
        assert_eq!(prog.total_mul_elems(), 9 * 100);
    }

    #[test]
    fn push_block_times_emits_a_single_block_raw() {
        let mut prog = Program::new();
        let mut block = vec![mul(5, 100), Step::HostScatter { total_bytes: 8 }];
        prog.push_block_times(&mut block, 1);
        assert!(block.is_empty(), "the block is drained for reuse");
        assert_eq!(prog.len(), 2);
        assert!(!prog.steps().iter().any(|s| matches!(s, Step::Repeat { .. })));
        // Zero iterations, or an empty block, add nothing.
        prog.push_block_times(&mut vec![mul(5, 100)], 0);
        prog.push_block_times(&mut Vec::new(), 3);
        assert_eq!(prog.len(), 2);
    }

    #[test]
    fn compressed_program_roundtrips_through_serde() {
        let mut p = Program::new();
        p.push(Step::scope("dec.attn"));
        p.push(Step::repeat(5, vec![mul(3, 30), Step::HostScatter { total_bytes: 16 }]));
        let json = serde_json::to_string(&p).expect("serialize");
        assert!(json.contains(r#"{"Repeat":{"count":5,"body":["#), "{json}");
        let back: Program = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, p);
        assert_eq!(back.host_bytes(), p.host_bytes());
        assert_eq!(back.total_mul_elems(), p.total_mul_elems());
    }
}
