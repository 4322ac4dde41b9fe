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
//! Autoregressive decoding repeats one block of steps per generated token,
//! with only the KV-length-dependent sizes changing — and those change as an
//! *affine* function of the token index (the cache grows by one row per
//! step). [`Step::Repeat`] captures that structure: a body emitted once,
//! an iteration count, and one [`StepDelta`] per body step giving the
//! per-iteration increments of its varying size fields. Iteration `i`'s
//! step `j` is exactly `body[j]` advanced `i` times by `delta[j]`
//! ([`Step::at`]), so a compressed program denotes precisely the same step
//! sequence as its [`Program::unroll`]. The [`RepeatCompressor`] folds
//! per-token blocks into `Repeat` steps opportunistically — a block that is
//! not affine in the previous one simply flushes, so compression is a pure
//! encoding choice, never a semantic one.

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

/// Maximum number of iteration-varying size fields any [`Step`] variant has.
pub const MAX_VARYING: usize = 3;

/// Per-iteration increments of one repeated step's varying size fields, in
/// the canonical order [`Step::varying`] lists them. Structural fields
/// (bank ranges, bit widths, source banks, parallelism) never vary inside a
/// [`Step::Repeat`]; only work sizes do, and they may only grow (the KV
/// cache never shrinks), so deltas are unsigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepDelta {
    /// Increment per varying field (slots past `len` are zero).
    pub d: [u64; MAX_VARYING],
    /// Number of varying fields of the step variant.
    pub len: u8,
}

impl StepDelta {
    /// Delta of a variant with no varying fields.
    pub fn none() -> Self {
        Self { d: [0; MAX_VARYING], len: 0 }
    }

    /// All-zero delta for a variant with `len` varying fields.
    pub fn zeros(len: u8) -> Self {
        Self { d: [0; MAX_VARYING], len }
    }

    /// Whether every increment is zero (the repeated step is identical in
    /// every iteration).
    pub fn is_zero(&self) -> bool {
        self.d[..self.len as usize].iter().all(|&x| x == 0)
    }

    /// The increments as a slice.
    pub fn values(&self) -> &[u64] {
        &self.d[..self.len as usize]
    }
}

fn delta_of(vals: &[u64]) -> StepDelta {
    debug_assert!(vals.len() <= MAX_VARYING);
    let mut d = StepDelta { d: [0; MAX_VARYING], len: vals.len() as u8 };
    d.d[..vals.len()].copy_from_slice(vals);
    d
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

    /// `count` iterations of `body`, where iteration `i`'s step `j` is
    /// `body[j]` advanced `i` times by `delta[j]` ([`Step::at`]). Denotes
    /// exactly the unrolled sequence — the executor prices it either as
    /// body × count (all deltas zero) or by advancing a scratch copy of the
    /// body in place, both with statistics byte-identical to pricing the
    /// unrolled program.
    ///
    /// A repeat whose every iteration is identical stores no deltas: its
    /// canonical `delta` is empty (`"delta": []` on the wire), and
    /// [`Step::repeat`] and [`RepeatCompressor`] build it that way. An
    /// explicit all-zero `delta` parallel to `body` denotes the same
    /// steps.
    Repeat {
        /// Number of iterations.
        count: u64,
        /// Steps of iteration 0.
        body: Vec<Step>,
        /// Per-iteration increments, parallel to `body`; empty when every
        /// increment is zero.
        delta: Vec<StepDelta>,
    },
}

impl Step {
    /// Scope constructor.
    pub fn scope(label: impl Into<Cow<'static, str>>) -> Self {
        Step::Scope(label.into())
    }

    /// Repeat constructor; validates that `delta` is empty or parallel to
    /// `body` and shaped like each step's varying-field list, and stores
    /// all-zero deltas in the canonical empty form.
    pub fn repeat(count: u64, body: Vec<Step>, mut delta: Vec<StepDelta>) -> Self {
        assert!(delta.is_empty() || body.len() == delta.len(), "delta must be parallel to body");
        debug_assert!(
            body.iter().zip(&delta).all(|(s, d)| s.varying().len == d.len),
            "delta shapes must match the steps' varying fields"
        );
        if delta.iter().all(StepDelta::is_zero) {
            delta.clear();
        }
        Step::Repeat { count, body, delta }
    }

    /// Current values of this step's iteration-varying size fields, in the
    /// canonical order [`StepDelta`] increments them. Structural fields
    /// (bank ranges, widths, parallelism, labels) are not listed — they
    /// must be equal across the iterations of a [`Step::Repeat`].
    pub fn varying(&self) -> StepDelta {
        match self {
            Step::Scope(_) | Step::Repeat { .. } => StepDelta::none(),
            Step::PointwiseMul { elems_per_bank, total_elems, .. } => {
                delta_of(&[*elems_per_bank, *total_elems])
            }
            Step::PointwiseAdd { elems_per_bank, total_elems, .. } => {
                delta_of(&[*elems_per_bank, *total_elems])
            }
            Step::Exp { elems_per_bank, total_elems, .. } => {
                delta_of(&[*elems_per_bank, *total_elems])
            }
            Step::Reduce { vec_len, vectors_per_bank, total_vectors, .. } => {
                delta_of(&[u64::from(*vec_len), *vectors_per_bank, *total_vectors])
            }
            Step::Recip { per_bank, total } => delta_of(&[*per_bank, *total]),
            Step::Replicate { copies, count_per_bank, total_count, .. } => {
                delta_of(&[u64::from(*copies), *count_per_bank, *total_count])
            }
            Step::HostBroadcast { bytes, .. } => delta_of(&[*bytes]),
            Step::HostScatter { total_bytes } => delta_of(&[*total_bytes]),
            Step::RingBroadcast { bytes_per_hop, repeat, .. } => {
                delta_of(&[*bytes_per_hop, *repeat])
            }
            Step::OneToAll { bytes, .. } => delta_of(&[*bytes]),
            Step::PairwiseReduceTree { bytes, elems, .. } => delta_of(&[*bytes, *elems]),
            Step::BroadcastDup { bytes, .. } => delta_of(&[*bytes]),
            Step::IntraBankCopy { bytes_per_bank, total_bytes } => {
                delta_of(&[*bytes_per_bank, *total_bytes])
            }
            Step::ShuffleAll { total_bytes } => delta_of(&[*total_bytes]),
            Step::MemTouch { bytes_per_bank, total_bytes } => {
                delta_of(&[*bytes_per_bank, *total_bytes])
            }
        }
    }

    /// Add `d` to the varying fields in place (one iteration forward). The
    /// executor's per-iteration fallback advances a scratch body this way —
    /// no allocation, cache-hot.
    pub fn advance(&mut self, d: &StepDelta) {
        debug_assert_eq!(self.varying().len, d.len, "delta shape mismatch");
        match self {
            Step::Scope(_) | Step::Repeat { .. } => {}
            Step::PointwiseMul { elems_per_bank, total_elems, .. }
            | Step::PointwiseAdd { elems_per_bank, total_elems, .. }
            | Step::Exp { elems_per_bank, total_elems, .. } => {
                *elems_per_bank += d.d[0];
                *total_elems += d.d[1];
            }
            Step::Reduce { vec_len, vectors_per_bank, total_vectors, .. } => {
                *vec_len = (u64::from(*vec_len) + d.d[0]) as u32;
                *vectors_per_bank += d.d[1];
                *total_vectors += d.d[2];
            }
            Step::Recip { per_bank, total } => {
                *per_bank += d.d[0];
                *total += d.d[1];
            }
            Step::Replicate { copies, count_per_bank, total_count, .. } => {
                *copies = (u64::from(*copies) + d.d[0]) as u32;
                *count_per_bank += d.d[1];
                *total_count += d.d[2];
            }
            Step::HostBroadcast { bytes, .. } => *bytes += d.d[0],
            Step::HostScatter { total_bytes } => *total_bytes += d.d[0],
            Step::RingBroadcast { bytes_per_hop, repeat, .. } => {
                *bytes_per_hop += d.d[0];
                *repeat += d.d[1];
            }
            Step::OneToAll { bytes, .. } => *bytes += d.d[0],
            Step::PairwiseReduceTree { bytes, elems, .. } => {
                *bytes += d.d[0];
                *elems += d.d[1];
            }
            Step::BroadcastDup { bytes, .. } => *bytes += d.d[0],
            Step::IntraBankCopy { bytes_per_bank, total_bytes }
            | Step::MemTouch { bytes_per_bank, total_bytes } => {
                *bytes_per_bank += d.d[0];
                *total_bytes += d.d[1];
            }
            Step::ShuffleAll { total_bytes } => *total_bytes += d.d[0],
        }
    }

    /// The step as it appears in iteration `i` of a repeat with delta `d`.
    pub fn at(&self, d: &StepDelta, i: u64) -> Step {
        let mut s = self.clone();
        let scaled = StepDelta { d: [d.d[0] * i, d.d[1] * i, d.d[2] * i], len: d.len };
        s.advance(&scaled);
        s
    }

    /// The per-iteration delta that turns `self` into `next`, if `next` is
    /// the same variant with equal structural fields and size fields that
    /// did not shrink. Returns `None` otherwise — callers flush and start a
    /// new run, so affinity is an optimization, never an assumption.
    pub fn affine_delta(&self, next: &Step) -> Option<StepDelta> {
        if std::mem::discriminant(self) != std::mem::discriminant(next) {
            return None;
        }
        let a = self.varying();
        let b = next.varying();
        debug_assert_eq!(a.len, b.len);
        let mut d = StepDelta::zeros(a.len);
        for k in 0..a.len as usize {
            d.d[k] = b.d[k].checked_sub(a.d[k])?;
        }
        // Structural fields are checked wholesale: advancing `self` by the
        // candidate delta must reproduce `next` exactly.
        let mut probe = self.clone();
        probe.advance(&d);
        (probe == *next).then_some(d)
    }
}

/// `(host, movement, mul)` accumulators for the program's O(1) accounting.
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

/// Σ_{i=0}^{m−1} i = m(m−1)/2.
fn s1(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        m * (m - 1) / 2
    }
}

/// Σ_{i=0}^{m−1} i² = (m−1)m(2m−1)/6.
fn s2(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        (m - 1) * m * (2 * m - 1) / 6
    }
}

/// Σ_{i=0}^{m−1} (base + i·d) = m·base + d·S1(m).
fn affine_sum(base: u64, d: u64, m: u64) -> u64 {
    m * base + d * s1(m)
}

/// Closed-form totals of `step` summed over `m` iterations with per-field
/// increments `d`. Every metric is affine or bilinear in the varying
/// fields, so arithmetic-series sums are exact (this is integer
/// accounting, not f64 pricing — no rounding concerns).
fn repeated_step_totals(step: &Step, d: &StepDelta, m: u64) -> Totals {
    let mut t = Totals::default();
    match step {
        Step::HostBroadcast { bytes, .. } => t.host = affine_sum(*bytes, d.d[0], m),
        Step::HostScatter { total_bytes } => t.host = affine_sum(*total_bytes, d.d[0], m),
        Step::RingBroadcast { banks, bytes_per_hop, repeat, parallel } => {
            // Σ (b0 + i·db)(r0 + i·dr) — the one bilinear metric.
            let c = u64::from(banks.count) * u64::from(*parallel);
            let (b0, db) = (*bytes_per_hop, d.d[0]);
            let (r0, dr) = (*repeat, d.d[1]);
            t.movement = c * (m * b0 * r0 + (b0 * dr + r0 * db) * s1(m) + db * dr * s2(m));
        }
        Step::OneToAll { banks, bytes, parallel, .. } => {
            t.movement =
                u64::from(banks.count) * u64::from(*parallel) * affine_sum(*bytes, d.d[0], m);
        }
        Step::PairwiseReduceTree { banks, bytes, parallel, .. } => {
            t.movement = u64::from(banks.count.saturating_sub(1))
                * u64::from(*parallel)
                * affine_sum(*bytes, d.d[0], m);
        }
        Step::BroadcastDup { bytes, banks } => {
            t.movement = u64::from(*banks) * affine_sum(*bytes, d.d[0], m);
        }
        Step::IntraBankCopy { total_bytes, .. } => {
            t.movement = affine_sum(*total_bytes, d.d[1], m);
        }
        Step::ShuffleAll { total_bytes } => t.movement = affine_sum(*total_bytes, d.d[0], m),
        Step::PointwiseMul { total_elems, .. } => t.mul = affine_sum(*total_elems, d.d[1], m),
        Step::Repeat { .. } => {
            // Nested repeats carry no delta of their own (their varying
            // list is empty): every outer iteration contributes the same
            // inner totals.
            t = step_totals(step).scale(m);
        }
        _ => {}
    }
    t
}

fn step_totals(step: &Step) -> Totals {
    match step {
        Step::Repeat { count, body, delta } => {
            let mut t = Totals::default();
            // An empty `delta` is all zeros; `repeated_step_totals` reads
            // only the increments, not their count.
            let zero = StepDelta::none();
            for (j, s) in body.iter().enumerate() {
                t = t.add(repeated_step_totals(s, delta.get(j).unwrap_or(&zero), *count));
            }
            t
        }
        // With m = 1 the delta never contributes (S1(1) = S2(1) = 0).
        other => repeated_step_totals(other, &StepDelta::none(), 1),
    }
}

fn step_count(step: &Step) -> u64 {
    match step {
        Step::Repeat { count, body, .. } => count * body.iter().map(step_count).sum::<u64>(),
        _ => 1,
    }
}

/// A compiled dataflow program.
///
/// Byte totals ([`Program::host_bytes`], [`Program::internal_movement_bytes`],
/// [`Program::total_mul_elems`]) are maintained incrementally at push time —
/// including exact closed-form sums over [`Step::Repeat`] — so report
/// generation is O(1) per program instead of a full step-stream rescan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    steps: Vec<Step>,
    host_bytes: u64,
    movement_bytes: u64,
    mul_elems: u64,
}

// On the wire a program is just its step list (the `{"steps": [...]}`
// shape the CLI's `--dump-ir` documents); the cached totals are rebuilt by
// re-pushing on read, so they can never go stale through serialization.
impl Serialize for Program {
    fn to_plain(&self) -> serde::Plain {
        serde::Plain::Map(vec![("steps".to_string(), self.steps.to_plain())])
    }
}

impl<'de> Deserialize<'de> for Program {
    fn from_plain(plain: &serde::Plain) -> Result<Self, serde::DeError> {
        let steps =
            plain.get("steps").ok_or_else(|| serde::DeError::missing("Program", "steps"))?;
        let steps: Vec<Step> = Deserialize::from_plain(steps)?;
        let mut p = Program::new();
        for s in steps {
            p.push(s);
        }
        Ok(p)
    }
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a step, folding its contribution into the cached totals.
    pub fn push(&mut self, step: Step) {
        let t = step_totals(&step);
        self.host_bytes += t.host;
        self.movement_bytes += t.movement;
        self.mul_elems += t.mul;
        self.steps.push(step);
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
            if let Step::Repeat { count, body, delta } = step {
                let mut cur: Vec<Step> = body.clone();
                for i in 0..*count {
                    if i > 0 {
                        for (s, d) in cur.iter_mut().zip(delta) {
                            s.advance(d);
                        }
                    }
                    for s in &cur {
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
    /// Figure 3(b) "loaded data" metric for host traffic. O(1): cached at
    /// push time.
    pub fn host_bytes(&self) -> u64 {
        self.host_bytes
    }

    /// Total bytes moved between or inside banks (ring broadcast, shuffles,
    /// copies, reduction trees). O(1): cached at push time.
    pub fn internal_movement_bytes(&self) -> u64 {
        self.movement_bytes
    }

    /// Total point-wise multiply lanes (≈ MAC count) — used by sanity tests
    /// to check work conservation across dataflows. O(1): cached at push
    /// time.
    pub fn total_mul_elems(&self) -> u64 {
        self.mul_elems
    }
}

impl Extend<Step> for Program {
    fn extend<T: IntoIterator<Item = Step>>(&mut self, iter: T) {
        for s in iter {
            self.push(s);
        }
    }
}

/// Folds a stream of per-iteration step blocks into [`Step::Repeat`]s.
///
/// Feed one block per loop iteration with [`RepeatCompressor::push_block`]
/// (consecutive blocks fold while each step is affine in its predecessor,
/// [`Step::affine_delta`]) or a pre-counted identical block with
/// [`RepeatCompressor::push_block_times`] (zero-delta runs the compiler
/// derived arithmetically — the decoder's `ceil(t/N)` plateaus). Call
/// [`RepeatCompressor::flush`] at the end. Blocks that do not fold are
/// emitted raw, so the output always unrolls to exactly the input stream.
#[derive(Debug, Default)]
pub struct RepeatCompressor {
    /// Iteration-0 body of the pending run.
    body: Vec<Step>,
    /// Committed non-zero per-step deltas (empty while only one block is
    /// pending, and for a zero-delta run).
    delta: Vec<StepDelta>,
    /// Whether the pending run is committed with zero deltas: every block
    /// equals `body`, and `expected` is unused.
    zero: bool,
    /// Iterations accumulated in the pending run (0 = no pending run).
    count: u64,
    /// `body` advanced `count` times — what the next block must equal to
    /// extend an affine run (maintained incrementally; no per-block
    /// allocation).
    expected: Vec<Step>,
}

impl RepeatCompressor {
    /// Fresh compressor with no pending run.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, block: &mut Vec<Step>) {
        self.body.clear();
        self.body.append(block);
        self.delta.clear();
        self.zero = false;
        self.expected.clear();
        self.count = 1;
    }

    /// What the next block must equal to extend the pending run.
    fn next_block(&self) -> &[Step] {
        if self.zero {
            &self.body
        } else {
            &self.expected
        }
    }

    fn advance_expected(&mut self) {
        for (s, d) in self.expected.iter_mut().zip(&self.delta) {
            s.advance(d);
        }
    }

    /// Append one iteration's block (drained from `block`, which is left
    /// empty for reuse). Folds into the pending run when affine; flushes
    /// and restarts otherwise.
    pub fn push_block(&mut self, prog: &mut Program, block: &mut Vec<Step>) {
        if block.is_empty() {
            return;
        }
        if self.count == 0 {
            self.begin(block);
            return;
        }
        if block.len() == self.body.len() {
            if self.count == 1 && self.delta.is_empty() && !self.zero {
                // Second block of a candidate run: derive the deltas.
                let deltas: Option<Vec<StepDelta>> =
                    self.body.iter().zip(block.iter()).map(|(a, b)| a.affine_delta(b)).collect();
                if let Some(deltas) = deltas {
                    self.count = 2;
                    if deltas.iter().all(StepDelta::is_zero) {
                        self.zero = true;
                        block.clear();
                    } else {
                        self.delta = deltas;
                        self.expected.clear();
                        self.expected.append(block);
                        self.advance_expected();
                    }
                    return;
                }
            } else if *block == self.next_block() {
                self.count += 1;
                if !self.zero {
                    self.advance_expected();
                }
                block.clear();
                return;
            }
        }
        self.flush(prog);
        self.begin(block);
    }

    /// Append `times` consecutive iterations of one identical block
    /// (zero delta). Extends a pending zero-delta run of the same block;
    /// otherwise flushes and starts a new run.
    pub fn push_block_times(&mut self, prog: &mut Program, block: &mut Vec<Step>, times: u64) {
        if times == 0 || block.is_empty() {
            block.clear();
            return;
        }
        // A single pending block, or a zero-delta run, of this block.
        if self.count > 0 && self.delta.is_empty() && *block == self.body {
            self.zero = true;
            self.count += times;
            block.clear();
            return;
        }
        self.flush(prog);
        self.begin(block);
        self.zero = true;
        self.count = times;
    }

    /// Emit the pending run: raw steps for a single iteration, one
    /// [`Step::Repeat`] otherwise (with an empty `delta` for a zero-delta
    /// run).
    pub fn flush(&mut self, prog: &mut Program) {
        match self.count {
            0 => {}
            1 => {
                for s in self.body.drain(..) {
                    prog.push(s);
                }
            }
            _ => prog.push(Step::Repeat {
                count: self.count,
                body: std::mem::take(&mut self.body),
                delta: std::mem::take(&mut self.delta),
            }),
        }
        self.body.clear();
        self.delta.clear();
        self.zero = false;
        self.expected.clear();
        self.count = 0;
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

    #[test]
    fn affine_delta_requires_structural_equality() {
        let a = mul(5, 20);
        let b = mul(7, 26);
        assert_eq!(a.affine_delta(&b), Some(delta_of(&[2, 6])));
        // Shrinking fields never fold.
        assert_eq!(b.affine_delta(&a), None);
        // Structural (width) mismatch never folds.
        let c = Step::PointwiseMul { elems_per_bank: 7, total_elems: 26, a_bits: 16, b_bits: 8 };
        assert_eq!(a.affine_delta(&c), None);
        // Variant mismatch never folds.
        assert_eq!(a.affine_delta(&Step::HostScatter { total_bytes: 1 }), None);
        // Scope labels fold only when equal (zero-delta).
        assert_eq!(Step::scope("x").affine_delta(&Step::scope("x")), Some(StepDelta::none()));
        assert_eq!(Step::scope("x").affine_delta(&Step::scope("y")), None);
    }

    #[test]
    fn at_advances_i_times() {
        let s = Step::RingBroadcast {
            banks: BankRange::new(0, 4),
            bytes_per_hop: 10,
            repeat: 3,
            parallel: 2,
        };
        let d = delta_of(&[5, 1]);
        let s3 = s.at(&d, 3);
        assert_eq!(
            s3,
            Step::RingBroadcast {
                banks: BankRange::new(0, 4),
                bytes_per_hop: 25,
                repeat: 6,
                parallel: 2,
            }
        );
        let mut manual = s.clone();
        for _ in 0..3 {
            manual.advance(&d);
        }
        assert_eq!(s3, manual);
    }

    /// Repeat totals must be exact: compare closed-form accounting against
    /// the unrolled program, including the bilinear ring term.
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
        let delta = vec![
            StepDelta::none(),
            delta_of(&[16]),
            delta_of(&[10, 1]), // both ring fields vary: bilinear
            delta_of(&[1, 100]),
            delta_of(&[4]),
            delta_of(&[0, 64]),
        ];
        let mut p = Program::new();
        p.push(Step::repeat(9, body, delta));
        let u = p.unroll();
        assert_eq!(p.host_bytes(), u.host_bytes());
        assert_eq!(p.internal_movement_bytes(), u.internal_movement_bytes());
        assert_eq!(p.total_mul_elems(), u.total_mul_elems());
        assert_eq!(p.unrolled_len(), u.len() as u64);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn nested_repeat_totals_and_unroll() {
        let inner = Step::repeat(3, vec![mul(1, 10)], vec![delta_of(&[0, 0])]);
        let mut p = Program::new();
        p.push(Step::repeat(4, vec![inner], vec![StepDelta::none()]));
        assert_eq!(p.total_mul_elems(), 4 * 3 * 10);
        let u = p.unroll();
        assert_eq!(u.len(), 12);
        assert_eq!(u.total_mul_elems(), 120);
    }

    #[test]
    fn compressor_folds_affine_blocks() {
        let mut prog = Program::new();
        let mut comp = RepeatCompressor::new();
        let mut block = Vec::new();
        for t in 0..10u64 {
            block.clear();
            block.push(Step::scope("dec"));
            block.push(mul(5 + t, 100 + 3 * t));
            comp.push_block(&mut prog, &mut block);
        }
        comp.flush(&mut prog);
        assert_eq!(prog.len(), 1, "ten affine blocks fold into one repeat");
        match &prog.steps()[0] {
            Step::Repeat { count, body, delta } => {
                assert_eq!(*count, 10);
                assert_eq!(body.len(), 2);
                assert_eq!(delta[1], delta_of(&[1, 3]));
            }
            other => panic!("expected a repeat, got {other:?}"),
        }
        // Unrolls to exactly the input stream.
        let u = prog.unroll();
        assert_eq!(u.len(), 20);
        assert_eq!(u.steps()[19], mul(5 + 9, 100 + 27));
    }

    #[test]
    fn compressor_flushes_non_affine_blocks() {
        let mut prog = Program::new();
        let mut comp = RepeatCompressor::new();
        let mut block = Vec::new();
        // Two affine blocks, then a shrinking (non-affine) one.
        for per_bank in [5u64, 6, 2, 3] {
            block.clear();
            block.push(mul(per_bank, per_bank * 10));
            comp.push_block(&mut prog, &mut block);
        }
        comp.flush(&mut prog);
        // [5,6] folds, [2,3] folds — two repeats.
        assert_eq!(prog.len(), 2);
        assert_eq!(prog.unrolled_len(), 4);
        let u = prog.unroll();
        let sizes: Vec<u64> = u
            .steps()
            .iter()
            .map(|s| match s {
                Step::PointwiseMul { elems_per_bank, .. } => *elems_per_bank,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sizes, vec![5, 6, 2, 3]);
    }

    #[test]
    fn compressor_push_block_times_merges_plateaus() {
        let mut prog = Program::new();
        let mut comp = RepeatCompressor::new();
        let mut block = vec![mul(5, 100)];
        comp.push_block_times(&mut prog, &mut block, 4);
        let mut block = vec![mul(5, 100)];
        comp.push_block_times(&mut prog, &mut block, 3); // same block: merges
        let mut block = vec![mul(9, 100)];
        comp.push_block_times(&mut prog, &mut block, 2); // different: new run
        comp.flush(&mut prog);
        assert_eq!(prog.len(), 2);
        assert_eq!(prog.unrolled_len(), 9);
        assert_eq!(prog.total_mul_elems(), 9 * 100);
    }

    #[test]
    fn compressor_single_block_emits_raw() {
        let mut prog = Program::new();
        let mut comp = RepeatCompressor::new();
        let mut block = vec![mul(5, 100), Step::HostScatter { total_bytes: 8 }];
        comp.push_block(&mut prog, &mut block);
        comp.flush(&mut prog);
        assert_eq!(prog.len(), 2);
        assert!(!prog.steps().iter().any(|s| matches!(s, Step::Repeat { .. })));
    }

    #[test]
    fn zero_delta_repeats_store_no_deltas() {
        let body = vec![Step::scope("dec"), mul(5, 100)];
        let zeros = vec![StepDelta::none(), StepDelta::zeros(2)];
        let canonical = Step::repeat(4, body.clone(), zeros.clone());
        assert_eq!(canonical, Step::Repeat { count: 4, body: body.clone(), delta: vec![] });
        let mut p = Program::new();
        p.push(canonical);
        let json = serde_json::to_string(&p).expect("serialize");
        assert!(json.contains(r#""delta":[]"#), "{json}");
        let back: Program = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, p);
        // The explicit all-zero list denotes the same steps and totals.
        let mut explicit = Program::new();
        explicit.push(Step::Repeat { count: 4, body, delta: zeros });
        assert_eq!(explicit.unroll(), p.unroll());
        assert_eq!(explicit.total_mul_elems(), 400);
        assert_eq!(p.total_mul_elems(), 400);
        // The compressor emits the canonical form for identical blocks,
        // whether pushed one by one or counted.
        for counted in [false, true] {
            let mut prog = Program::new();
            let mut comp = RepeatCompressor::new();
            for _ in 0..3 {
                let mut block = vec![Step::scope("dec"), mul(5, 100)];
                if counted {
                    comp.push_block_times(&mut prog, &mut block, 2);
                } else {
                    comp.push_block(&mut prog, &mut block);
                }
            }
            comp.flush(&mut prog);
            let count = if counted { 6 } else { 3 };
            let want = Step::repeat(count, vec![Step::scope("dec"), mul(5, 100)], vec![]);
            assert_eq!(prog.steps(), [want], "counted: {counted}");
        }
    }

    #[test]
    fn compressed_program_roundtrips_through_serde() {
        let mut p = Program::new();
        p.push(Step::scope("dec.attn"));
        p.push(Step::repeat(
            5,
            vec![mul(3, 30), Step::HostScatter { total_bytes: 16 }],
            vec![delta_of(&[1, 10]), delta_of(&[0])],
        ));
        let json = serde_json::to_string(&p).expect("serialize");
        let back: Program = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, p);
        assert_eq!(back.host_bytes(), p.host_bytes());
        assert_eq!(back.total_mul_elems(), p.total_mul_elems());
    }
}
