//! The execution engine: prices each dataflow [`Step`] on a concrete
//! architecture and drives the phase engine in `transpim-hbm`.
//!
//! Pricing rules follow Section IV and the baselines of Section V-A2. The
//! architectures differ only in which unit serves each job and which
//! datapath moves the bytes; [`Executor::new`] resolves that once into a
//! [`CostTable`], and every price below reads the table:
//!
//! * point-wise arithmetic → bit-serial in-situ PIM batches
//!   (`transpim-pim`) or the per-channel near-bank vector unit;
//! * reductions → ACU adder trees, the in-array shift-add tree, or the
//!   near-bank tree;
//! * Softmax reciprocals → the ACU divider, iterative PIM Newton–Raphson,
//!   or near-bank multiplies;
//! * communication → the ring/broadcast scheduler of `transpim-acu` on the
//!   table's resource map (ring links only when the broadcast hardware
//!   exists) and the table's movement rates.
//!
//! Ring steps, one-to-all broadcasts and reduction trees are memoized by
//! their structural key, since the decoder repeats them thousands of times.
//! A ring or tree topology is scheduled once into a slot profile and each
//! new byte count of it is priced from that profile, exactly.
//!
//! There is one pricing path. A fault-free run is a run under an empty
//! [`FaultSession`]: the session is consulted only where a fault could
//! change a price, and an empty one leaves every lump as priced. Repeats
//! take one path under any session too: a repeat prices as body × count,
//! split only at the iterations whose transient-flip draws flip, which are
//! priced like any other steps.

use crate::arch::{ArchConfig, CostTable, Unit};
use crate::calib;
use crate::error::SimError;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use transpim_acu::adder_tree::AcuReduceModel;
use transpim_acu::data_buffer::DataBufferModel;
use transpim_acu::divider::DividerModel;
use transpim_acu::ring::{
    self, emit_hop_events, one_to_all_broadcast, pairwise_reduce_hops, ring_step_hops,
    schedule_hops_placed, Hop, HopPlacement, ScheduleResult, SlotProfile, TransferCostModel,
};
use transpim_dataflow::ir::{BankRange, Emitter, Program, Step};
use transpim_fault::{FaultScenario, FaultSession, FlipOutcome};
use transpim_hbm::engine::{tracks, Engine};
use transpim_hbm::geometry::BankId;
use transpim_hbm::resource::ResourceMap;
use transpim_hbm::stats::{Category, ScopedStats, SimStats};
use transpim_obs::{InstantEvent, SinkHandle, SpanEvent};
use transpim_pim::cost::{PimCostModel, PimOp};
use transpim_pim::rowclone::RowCloneModel;

/// Which communication schedule a memo entry prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Schedule {
    /// One full ring step ([`Step::RingBroadcast`]).
    Ring,
    /// A one-to-all broadcast from bank `src` ([`Step::OneToAll`]); its
    /// cost depends on where the source sits.
    OneToAll { src: u32 },
    /// The pairwise reduction tree's transfers ([`Step::PairwiseReduceTree`]).
    Tree,
}

/// Key of the schedule memo: a schedule over a bank range with `bytes`
/// per transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScheduleKey {
    kind: Schedule,
    banks: BankRange,
    bytes: u64,
}

impl Hash for ScheduleKey {
    /// Three word writes: the memo is looked up once per priced
    /// communication step, and a derived hash would write five fields.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let kind = match self.kind {
            Schedule::Ring => 0,
            Schedule::Tree => 1,
            Schedule::OneToAll { src } => 2 << 32 | u64::from(src),
        };
        state.write_u64(kind);
        state.write_u64(u64::from(self.banks.start) << 32 | u64::from(self.banks.count));
        state.write_u64(self.bytes);
    }
}

/// Prices dataflow programs on one architecture.
#[derive(Debug)]
pub struct Executor {
    arch: ArchConfig,
    table: CostTable,
    map: ResourceMap,
    pim: PimCostModel,
    acu: AcuReduceModel,
    divider: DividerModel,
    buffer: Option<DataBufferModel>,
    rowclone: RowCloneModel,
    xfer: TransferCostModel,
    /// Communication schedules by structural key, bytes included.
    schedules: HashMap<ScheduleKey, ScheduleResult>,
    /// Slot profile of each level of every ring or tree topology priced so
    /// far (one level for a ring step, one per halving stride for a tree),
    /// built on a `schedules` miss: a topology's byte counts share one
    /// scheduler run.
    topologies: HashMap<(Schedule, BankRange), Vec<SlotProfile>>,
    /// Ring/tree topologies `(kind, start, count)` that already emitted one
    /// fully-detailed per-hop exemplar into the current run's trace. The
    /// decoder prices the same topology thousands of times (with per-step
    /// byte counts); re-emitting every hop each time swamps the trace and
    /// dominates the traced run's cost, so later occurrences collapse to a
    /// summary span. Cleared at the start of every run, so a reused
    /// executor traces exactly what a fresh one does.
    detail_emitted: HashSet<(Schedule, u32, u32)>,
    /// Whether [`Executor::apply_ring_faults`] rewired the resource map.
    /// A degraded executor prices a different machine than any
    /// [`ArchConfig`] describes, so it is never reused across cells.
    map_faulted: bool,
}

impl Executor {
    /// Whether this executor prices exactly the architecture `arch`
    /// describes — i.e. whether reusing it for `arch` is sound.
    pub fn prices_arch(&self, arch: &ArchConfig) -> bool {
        !self.map_faulted && self.arch == *arch
    }

    /// Build an executor for `arch`.
    pub fn new(arch: ArchConfig) -> Self {
        let table = CostTable::new(&arch);
        let hbm = &arch.hbm;
        let map = ResourceMap::new(hbm.geometry, table.bus, table.buffered);
        let pim = PimCostModel::new(hbm.geometry, hbm.timing, hbm.energy, arch.acu.p_sub, arch.pim);
        let acu = AcuReduceModel::new(hbm.geometry, hbm.timing, hbm.energy, arch.acu);
        let buffer = table.buffered.then(|| DataBufferModel::new(hbm.timing, hbm.energy));
        let rowclone = RowCloneModel::new(hbm.geometry, hbm.timing, hbm.energy);
        let xfer = TransferCostModel::new(hbm.geometry, hbm.energy, table.buffered);
        Self {
            arch,
            table,
            map,
            pim,
            acu,
            divider: DividerModel::default(),
            buffer,
            rowclone,
            xfer,
            schedules: HashMap::new(),
            topologies: HashMap::new(),
            detail_emitted: HashSet::new(),
            map_faulted: false,
        }
    }

    /// Run a program, returning global and per-scope statistics. Phase
    /// latencies include the DRAM refresh stretch (each bank loses `t_RFC`
    /// of every `t_REFI`).
    ///
    /// # Panics
    ///
    /// If the program's totals leave the statistics' range
    /// ([`SimError::OutOfRange`]); [`Executor::run_degraded_with_sink`]
    /// returns that error instead.
    pub fn run(&mut self, program: &Program) -> (SimStats, ScopedStats) {
        self.run_with_sink(program, SinkHandle::null())
    }

    /// [`Executor::run`] with an observability sink attached: phase spans,
    /// per-resource occupancy counters and per-hop ring events are emitted
    /// to `sink` as the engine executes. A [`SinkHandle::null`] sink makes
    /// this identical to [`Executor::run`] — no events are built and the
    /// statistics are bit-for-bit the same.
    ///
    /// # Panics
    ///
    /// As [`Executor::run`].
    pub fn run_with_sink(
        &mut self,
        program: &Program,
        sink: SinkHandle,
    ) -> (SimStats, ScopedStats) {
        let mut session = FaultSession::new(&FaultScenario::empty(0), self.arch.system_info())
            .expect("an empty scenario validates on any geometry that has banks");
        self.run_degraded_with_sink(program, &mut session, sink)
            .unwrap_or_else(|e| panic!("pricing under an empty fault session: {e}"))
    }

    /// Run a program under a fault session, with an observability sink
    /// attached. An empty session is the fault-free run.
    ///
    /// Under a non-empty session every lump is repriced through the
    /// degradation policies (stuck-plane serialization, ECC checks and
    /// corrections, bounded parity retries, divider fallback), correctable
    /// faults are absorbed into the statistics, and uncorrectable ones
    /// surface as a typed [`SimError`]. Fault events (ECC corrections,
    /// parity retries) are emitted as instants on the dedicated fault
    /// track alongside the usual phase spans and counters.
    ///
    /// Ring-link faults change *routing*, not lump repricing — apply them
    /// first with [`Executor::apply_ring_faults`].
    ///
    /// # Errors
    ///
    /// [`SimError::Uncorrectable`] when an injected fault exceeds the ECC
    /// scheme and every degradation policy; [`SimError::OutOfRange`] when
    /// a simulated total leaves the statistics' range.
    pub fn run_degraded_with_sink(
        &mut self,
        program: &Program,
        session: &mut FaultSession,
        sink: SinkHandle,
    ) -> Result<(SimStats, ScopedStats), SimError> {
        let mut pricer = Pricer::new(self, session, sink);
        for step in program.steps() {
            pricer.feed(step);
        }
        pricer.finish()
    }

    /// [`Executor::run_degraded_with_sink`] of the steps `compile` writes
    /// into the [`StepStream`] it is handed, priced as they are written:
    /// no [`Program`] is built, so the run holds one step of IR (one
    /// repeat body, for a decode loop) whatever the decode length. The
    /// statistics, trace events, fault draws and any error are those of
    /// pricing the program the same steps build.
    ///
    /// # Errors
    ///
    /// As [`Executor::run_degraded_with_sink`].
    pub fn run_streamed(
        &mut self,
        session: &mut FaultSession,
        sink: SinkHandle,
        compile: impl FnOnce(&mut StepStream<'_>),
    ) -> Result<(SimStats, ScopedStats), SimError> {
        let mut stream = StepStream { pricer: Pricer::new(self, session, sink), last: None };
        compile(&mut stream);
        stream.finish()
    }

    /// Rewire the resource map around the session's ring-link faults: dead
    /// links fall back to the shared channel bus (Figure 9's 8T path),
    /// degraded links keep their dedicated link at reduced bandwidth. The
    /// schedule and topology memos are invalidated; the closed-form
    /// one-to-all broadcast rides the channel buses already and is
    /// unaffected by neighbor-link faults.
    pub fn apply_ring_faults(&mut self, session: &FaultSession) {
        if session.dead_links().is_empty() && session.degraded_links().is_empty() {
            return;
        }
        let dead: Vec<u32> = session.dead_links().iter().copied().collect();
        let degraded: Vec<(u32, f64)> =
            session.degraded_links().iter().map(|(&g, &f)| (g, f)).collect();
        self.map = self.map.clone().with_ring_faults(&dead, &degraded);
        self.schedules.clear();
        self.topologies.clear();
        self.map_faulted = true;
    }

    // ---- compute pricing -------------------------------------------------

    /// NBP abstract op count per element for a PIM op.
    fn nbp_ops(op: PimOp) -> f64 {
        match op {
            PimOp::Mul { .. } | PimOp::Add { bits: _ } => 1.0,
            PimOp::ExpTaylor { order, .. } => 2.0 * f64::from(order),
            PimOp::Bitwise { planes } => f64::from(planes).max(1.0) / 16.0,
        }
    }

    fn op_bits(op: PimOp) -> u32 {
        match op {
            PimOp::Mul { a_bits, b_bits } => a_bits.max(b_bits),
            PimOp::Add { bits } => bits,
            PimOp::ExpTaylor { bits, .. } => bits,
            PimOp::Bitwise { .. } => 1,
        }
    }

    /// Near-bank cost of `per_bank` (`total`) elements at `ops` unit
    /// operations each: every bank of a channel funnels into the channel's
    /// units, and each op reads its `bits`-wide operand through the column
    /// path (0 bits: the operands are already in the unit).
    fn near_bank(&self, per_bank: u64, total: u64, ops: f64, bits: u32) -> (f64, f64) {
        let per_channel = per_bank * u64::from(self.arch.hbm.geometry.banks_per_channel());
        let e = &self.arch.hbm.energy;
        let lat = per_channel as f64 * ops / self.table.near_bank_rate;
        let pj = total as f64
            * ops
            * (f64::from(bits) * (e.e_pre_gsa + e.e_post_gsa) + calib::NBP_LOGIC_PJ_PER_OP);
        (lat, pj)
    }

    fn pointwise(&self, op: PimOp, elems_per_bank: u64, total_elems: u64) -> (f64, f64) {
        if self.table.arithmetic == Unit::NearBank {
            self.near_bank(elems_per_bank, total_elems, Self::nbp_ops(op), Self::op_bits(op))
        } else {
            (self.pim.latency_ns(op, elems_per_bank), self.pim.energy_pj(op, total_elems))
        }
    }

    fn reduce(
        &self,
        vec_len: u32,
        bits: u32,
        vectors_per_bank: u64,
        total_vectors: u64,
    ) -> (f64, f64) {
        match self.table.reduction {
            Unit::Acu => (
                self.acu.bank_latency_ns(vec_len, bits, vectors_per_bank),
                self.acu.energy_pj(vec_len, bits, total_vectors),
            ),
            Unit::Pim => (
                self.pim.reduce_tree_latency_ns(vec_len, bits, vectors_per_bank),
                self.pim.reduce_tree_energy_pj(vec_len, bits, total_vectors),
            ),
            Unit::NearBank => {
                let len = u64::from(vec_len);
                let (lat, pj) =
                    self.near_bank(vectors_per_bank * len, total_vectors * len, 1.0, bits);
                // The tree's pipeline restarts between consecutive vectors.
                let vectors =
                    vectors_per_bank * u64::from(self.arch.hbm.geometry.banks_per_channel());
                (lat + vectors as f64 * calib::NBP_VECTOR_RESTART_NS, pj)
            }
        }
    }

    fn recip(&self, per_bank: u64, total: u64) -> (f64, f64) {
        match self.table.reciprocal {
            Unit::Acu => {
                let per_divider = per_bank.div_ceil(u64::from(self.arch.acu.p_sub).max(1));
                (self.divider.latency_ns(per_divider), self.divider.energy_pj(total))
            }
            Unit::Pim => self.pim_recip(per_bank, total),
            Unit::NearBank => {
                // Newton–Raphson as multiplies on values the reduction
                // left in the unit.
                let ops = 3.0 * f64::from(calib::PIM_RECIP_ITERATIONS);
                self.near_bank(per_bank, total, ops, 0)
            }
        }
    }

    /// Newton–Raphson reciprocal in the arrays: 2 multiplies + 1 add per
    /// iteration at Softmax width.
    fn pim_recip(&self, per_bank: u64, total: u64) -> (f64, f64) {
        let mul = PimOp::Mul { a_bits: 16, b_bits: 16 };
        let add = PimOp::Add { bits: 16 };
        let iters = f64::from(calib::PIM_RECIP_ITERATIONS);
        let lat =
            iters * (2.0 * self.pim.latency_ns(mul, per_bank) + self.pim.latency_ns(add, per_bank));
        let pj = iters * (2.0 * self.pim.energy_pj(mul, total) + self.pim.energy_pj(add, total));
        (lat, pj)
    }

    /// [`Executor::recip`] when some ACU dividers are broken: the affected
    /// banks fall back to Newton–Raphson reciprocal in their arrays (the
    /// OriginalPim path), running alongside the healthy dividers. Latency
    /// is the slower of the two sides; energy blends by the broken
    /// fraction `frac`.
    fn recip_degraded(&self, per_bank: u64, total: u64, frac: f64) -> (f64, f64) {
        let (div_lat, div_pj) = self.recip(per_bank, total);
        let (nr_lat, nr_pj) = self.pim_recip(per_bank, total);
        (div_lat.max(nr_lat), div_pj * (1.0 - frac) + nr_pj * frac)
    }

    // ---- movement pricing ------------------------------------------------

    /// Host → every bank: one pass per channel when the banks latch the
    /// broadcast together, one serialized pass per bank otherwise.
    fn host_broadcast(&self, bytes: u64, banks: u32) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let t = &self.table;
        let b = bytes as f64;
        let bits = b * 8.0;
        let lat = b / t.bus.host_gbs
            + b / t.bus.stack_gbs
            + t.layout_factor * t.broadcast_copies * b / t.write_gbs;
        let bus_traversals = f64::from(g.total_channels()) * t.broadcast_copies;
        let e = &self.arch.hbm.energy;
        let pj = bits * e.e_io * (1.0 + f64::from(g.stacks))
            + bits * e.e_post_gsa * bus_traversals
            + f64::from(banks) * self.xfer.bank_write_energy_pj(bytes);
        (lat, pj)
    }

    fn host_scatter(&self, total_bytes: u64) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let t = &self.table;
        let b = total_bytes as f64;
        let per_channel = b / f64::from(g.total_channels());
        let lat = b / t.bus.host_gbs + t.layout_factor * per_channel / t.write_gbs;
        let e = &self.arch.hbm.energy;
        let bits = b * 8.0;
        let pj = bits * (e.e_io + e.e_post_gsa) + self.xfer.bank_write_energy_pj(total_bytes);
        (lat, pj)
    }

    fn shuffle_all(&self, total_bytes: u64) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let lat = self.table.layout_factor * total_bytes as f64 / self.table.shuffle_gbs;
        let e = &self.arch.hbm.energy;
        let bits = total_bytes as f64 * 8.0;
        // Read out of one bank, across the bus, into another.
        let pj = bits * (2.0 * (e.e_pre_gsa + e.e_post_gsa) + e.e_io)
            + 2.0 * (total_bytes as f64 / f64::from(g.row_bytes)) * e.e_act;
        (lat, pj)
    }

    fn broadcast_dup(&self, bytes: u64, banks: u32) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let t = &self.table;
        let b = bytes as f64;
        let lat = b / t.bus.stack_gbs + t.layout_factor * t.broadcast_copies * b / t.write_gbs;
        let e = &self.arch.hbm.energy;
        let bits = b * 8.0;
        let pj = bits * (e.e_pre_gsa + e.e_post_gsa) // gather source read
            + bits * e.e_post_gsa * f64::from(g.total_channels()) * t.broadcast_copies
            + f64::from(banks) * self.xfer.bank_write_energy_pj(bytes);
        (lat, pj)
    }

    fn mem_touch(&self, bytes_per_bank: u64, total_bytes: u64) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let t = &self.arch.hbm.timing;
        let rows = bytes_per_bank.div_ceil(u64::from(g.row_bytes).max(1)) as f64;
        let beats = (bytes_per_bank * 8).div_ceil(u64::from(g.dq_bits)) as f64;
        let lat = rows * t.t_rc + beats * t.t_ccd_l;
        let e = &self.arch.hbm.energy;
        let total_rows = total_bytes.div_ceil(u64::from(g.row_bytes).max(1)) as f64;
        let pj = total_rows * e.e_act + total_bytes as f64 * 8.0 * e.e_pre_gsa;
        (lat, pj)
    }

    // ---- scheduled/memoized communication ---------------------------------

    /// Cost of the `kind` schedule over `banks` with `bytes` per transfer,
    /// memoized by its structural key. A ring or tree is priced from its
    /// topology's slot profiles; a tree's halving levels run back to back.
    fn schedule(&mut self, kind: Schedule, banks: BankRange, bytes: u64) -> ScheduleResult {
        let key = ScheduleKey { kind, banks, bytes };
        if let Some(r) = self.schedules.get(&key) {
            return *r;
        }
        let r = if let Schedule::OneToAll { src } = kind {
            one_to_all_broadcast(
                &self.map,
                &self.xfer,
                BankId(src),
                BankId(banks.start),
                banks.count,
                bytes,
            )
        } else {
            let map = &self.map;
            let levels = self
                .topologies
                .entry((kind, banks))
                .or_insert_with(|| SlotProfile::levels(map, &hop_levels(kind, banks, 0)));
            let mut total = ScheduleResult::default();
            for level in levels.iter() {
                let r = level.price(&self.xfer, bytes);
                total.latency_ns += r.latency_ns;
                total.energy_pj += r.energy_pj;
                total.bytes += r.bytes;
                total.slots += r.slots;
            }
            total
        };
        self.schedules.insert(key, r);
        r
    }

    /// Per-hop placements of a ring step or reduction tree, each tree level
    /// offset by the levels before it.
    fn placements(&self, kind: Schedule, banks: BankRange, bytes: u64) -> Vec<HopPlacement> {
        let mut all = Vec::new();
        let mut offset = 0.0;
        for hops in hop_levels(kind, banks, bytes) {
            let (r, placed) = schedule_hops_placed(&self.map, &self.xfer, &hops);
            all.extend(placed.into_iter().map(|mut p| {
                p.start_ns += offset;
                p
            }));
            offset += r.latency_ns;
        }
        all
    }

    // ---- trace emission ---------------------------------------------------

    /// Emit the per-hop spans of a ring step or reduction tree at the
    /// engine's current timestamp, for the first occurrence of its topology
    /// only (see `detail_emitted`). Returns whether it emitted them.
    fn emit_hops_once(
        &mut self,
        engine: &Engine,
        kind: Schedule,
        banks: BankRange,
        bytes: u64,
    ) -> bool {
        if !self.detail_emitted.insert((kind, banks.start, banks.count)) {
            return false;
        }
        let placed = self.placements(kind, banks, bytes);
        emit_hop_events(engine.sink(), &self.map, engine.now_ns(), engine.latency_scale(), &placed);
        true
    }

    /// Emit per-hop span events for one ring step starting at the engine's
    /// current timestamp, plus a single summary span for the remaining
    /// `repeat - 1` identical rounds. Later occurrences of the topology
    /// collapse to one summary span.
    fn emit_ring_hops(
        &mut self,
        engine: &Engine,
        banks: BankRange,
        bytes: u64,
        repeat: u64,
        r: &ScheduleResult,
    ) {
        let scale = engine.latency_scale();
        let base = engine.now_ns();
        if !self.emit_hops_once(engine, Schedule::Ring, banks, bytes) {
            engine.sink().span(
                &SpanEvent::new(
                    "ring",
                    "ring",
                    tracks::RING,
                    base,
                    r.latency_ns * repeat as f64 * scale,
                )
                .with_args(&[
                    ("banks", banks.count.into()),
                    ("bytes_per_hop", bytes.into()),
                    ("slots", r.slots.into()),
                    ("rounds", repeat.into()),
                ]),
            );
            return;
        }
        if repeat > 1 {
            engine.sink().span(
                &SpanEvent::new(
                    format!("ring x{}", repeat - 1),
                    "ring",
                    tracks::RING,
                    base + r.latency_ns * scale,
                    r.latency_ns * (repeat - 1) as f64 * scale,
                )
                .with_args(&[
                    ("banks", banks.count.into()),
                    ("bytes_per_hop", bytes.into()),
                    ("slots", r.slots.into()),
                ]),
            );
        }
    }

    /// Emit per-hop span events for the pairwise reduction tree; later
    /// occurrences of the topology emit one summary span of the scheduled
    /// latency.
    fn emit_tree_hops(&mut self, engine: &Engine, banks: BankRange, bytes: u64, total_ns: f64) {
        if !self.emit_hops_once(engine, Schedule::Tree, banks, bytes) {
            engine.sink().span(
                &SpanEvent::new(
                    "reduce-tree",
                    "ring",
                    tracks::RING,
                    engine.now_ns(),
                    total_ns * engine.latency_scale(),
                )
                .with_args(&[("banks", banks.count.into()), ("bytes", bytes.into())]),
            );
        }
    }

    /// Expose the ring-step scheduler for ablation benches: cost of one
    /// full ring step over `banks` with `bytes` per hop.
    pub fn ring_step_cost(&mut self, banks: BankRange, bytes: u64) -> ScheduleResult {
        self.schedule(Schedule::Ring, banks, bytes)
    }

    /// Expose the decoder's pairwise reduction-tree transfer cost for
    /// ablation benches (movement only; the in-bank adds are priced
    /// separately by [`Step::PairwiseReduceTree`]).
    pub fn reduce_tree_cost(&mut self, banks: BankRange, bytes: u64) -> ScheduleResult {
        self.schedule(Schedule::Tree, banks, bytes)
    }
}

/// The steps a compiler writes, priced as each one becomes final: the
/// emitter [`Executor::run_streamed`] hands the compiler. It holds back
/// only the last step, which [`Emitter::push_block_times`] may still
/// extend, and prices it once the next push or the end of compilation
/// settles it. Every earlier step is priced and dropped as it is settled,
/// so a run never holds more than one step.
pub struct StepStream<'a> {
    pricer: Pricer<'a>,
    last: Option<Step>,
}

impl StepStream<'_> {
    /// Price the held step, then the run's statistics.
    fn finish(self) -> Result<(SimStats, ScopedStats), SimError> {
        let Self { mut pricer, last } = self;
        if let Some(step) = last {
            pricer.feed(&step);
        }
        pricer.finish()
    }
}

impl Emitter for StepStream<'_> {
    fn push(&mut self, step: Step) {
        if let Some(settled) = self.last.replace(step) {
            self.pricer.feed(&settled);
        }
    }

    fn last_mut(&mut self) -> Option<&mut Step> {
        self.last.as_mut()
    }
}

/// The fields of a [`Step::RingBroadcast`].
#[derive(Debug, Clone, Copy)]
struct Ring {
    banks: BankRange,
    bytes_per_hop: u64,
    repeat: u64,
    parallel: u32,
}

/// Prices steps one at a time, in order, on one engine under one fault
/// session: the one pricing body behind every run, whether its steps come
/// from a [`Program`] or from a [`StepStream`]. Each repeat-body iteration
/// is priced as a segment of its own.
///
/// With the pipelined ring, a ring broadcast waits for the step after it:
/// a multiply fuses with it, anything else (the end of a segment
/// included) prices it alone first. The first error is kept, and nothing
/// is priced after it.
struct Pricer<'a> {
    exec: &'a mut Executor,
    session: &'a mut FaultSession,
    engine: Engine,
    /// The ring broadcast waiting for the step after it.
    ring: Option<Ring>,
    /// The run's first error.
    error: Option<SimError>,
}

impl<'a> Pricer<'a> {
    /// A run's pricer. Phase latencies include the DRAM refresh stretch
    /// (each bank loses `t_RFC` of every `t_REFI`), and the per-topology
    /// trace detail starts afresh.
    fn new(exec: &'a mut Executor, session: &'a mut FaultSession, sink: SinkHandle) -> Self {
        exec.detail_emitted.clear();
        let mut engine = Engine::with_sink(sink);
        engine.set_latency_scale(1.0 + exec.arch.hbm.timing.refresh_overhead());
        Self { exec, session, engine, ring: None, error: None }
    }

    /// Price the next top-level step, unless an earlier one failed.
    fn feed(&mut self, step: &Step) {
        if self.error.is_none() {
            if let Err(e) = self.step(step) {
                self.error = Some(e);
            }
        }
    }

    /// The run's statistics, once every step is fed.
    fn finish(mut self) -> Result<(SimStats, ScopedStats), SimError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.flush()?;
        if !self.session.in_range() {
            return Err(SimError::OutOfRange);
        }
        Ok(self.engine.into_stats()?)
    }

    /// Price a step slice as one segment: a repeat body's iteration.
    fn segment(&mut self, steps: &[Step]) -> Result<(), SimError> {
        for step in steps {
            self.step(step)?;
        }
        self.flush()
    }

    /// Price the next step of the current segment.
    fn step(&mut self, step: &Step) -> Result<(), SimError> {
        if let Some(ring) = self.ring.take() {
            if let Step::PointwiseMul { elems_per_bank, total_elems, a_bits, b_bits } = *step {
                let mul = PimOp::Mul { a_bits, b_bits };
                return self.pipelined(ring, mul, elems_per_bank, total_elems);
            }
            self.ring_broadcast(ring)?;
        }
        match *step {
            Step::RingBroadcast { banks, bytes_per_hop, repeat, parallel }
                if self.exec.arch.pipelined_ring =>
            {
                self.ring = Some(Ring { banks, bytes_per_hop, repeat, parallel });
                Ok(())
            }
            _ => self.price(step),
        }
    }

    /// Price a held ring broadcast alone: the segment ended, or what
    /// followed it was no multiply.
    fn flush(&mut self) -> Result<(), SimError> {
        match self.ring.take() {
            Some(ring) => self.ring_broadcast(ring),
            None => Ok(()),
        }
    }

    /// Pipelined ring: a ring broadcast immediately followed by the
    /// point-wise multiply (and reduction) it feeds executes round by
    /// round — transfer of round k+1 overlaps compute of round k — so the
    /// pair costs max(transfer, compute) instead of the barrier sum. Only
    /// the ring's share can hide; breakdown attribution keeps the visible
    /// residual as movement.
    fn pipelined(
        &mut self,
        ring: Ring,
        mul: PimOp,
        elems_per_bank: u64,
        total_elems: u64,
    ) -> Result<(), SimError> {
        let Ring { banks, bytes_per_hop, repeat, parallel } = ring;
        let r = self.exec.schedule(Schedule::Ring, banks, bytes_per_hop);
        let ring_lat = r.latency_ns * repeat as f64;
        let (mul_lat, mul_pj) = self.exec.pointwise(mul, elems_per_bank, total_elems);
        let visible_ring = (ring_lat - mul_lat).max(0.0);
        if self.engine.emitting() {
            // Per-hop detail is meaningless here — rounds overlap the
            // multiply — so mark the fused pair instead.
            self.engine.sink().instant(
                &InstantEvent::new("pipelined-ring", "ring", tracks::RING, self.engine.now_ns())
                    .with_args(&[
                        ("ring_ns", ring_lat.into()),
                        ("mul_ns", mul_lat.into()),
                        ("visible_ring_ns", visible_ring.into()),
                        ("banks", banks.count.into()),
                        ("repeat", repeat.into()),
                    ]),
            );
        }
        // The overlap window is computed from the fault-free compute
        // latency; degradation applies to the residual lumps afterwards
        // (conservative — a slowed multiply could hide more of the ring
        // than we credit).
        self.lump(
            Category::DataMovement,
            visible_ring,
            r.energy_pj * repeat as f64 * f64::from(parallel),
            r.bytes * repeat as f64 * f64::from(parallel),
        )?;
        self.lump(Category::Arithmetic, mul_lat, mul_pj, 0.0)
    }

    /// `repeat` rounds of one ring step.
    fn ring_broadcast(&mut self, ring: Ring) -> Result<(), SimError> {
        let Ring { banks, bytes_per_hop, repeat, parallel } = ring;
        let r = self.exec.schedule(Schedule::Ring, banks, bytes_per_hop);
        if self.engine.emitting() {
            self.exec.emit_ring_hops(&self.engine, banks, bytes_per_hop, repeat, &r);
        }
        self.lump(
            Category::DataMovement,
            r.latency_ns * repeat as f64,
            r.energy_pj * repeat as f64 * f64::from(parallel),
            r.bytes * repeat as f64 * f64::from(parallel),
        )
    }

    fn price(&mut self, step: &Step) -> Result<(), SimError> {
        let exec = &mut *self.exec;
        match *step {
            Step::Scope(ref label) => self.engine.set_scope(label),

            Step::Repeat { count, ref body } => self.price_repeat(count, body)?,

            Step::PointwiseMul { elems_per_bank, total_elems, a_bits, b_bits } => {
                let (lat, pj) =
                    exec.pointwise(PimOp::Mul { a_bits, b_bits }, elems_per_bank, total_elems);
                self.lump(Category::Arithmetic, lat, pj, 0.0)?;
            }
            Step::PointwiseAdd { elems_per_bank, total_elems, bits } => {
                let (lat, pj) = exec.pointwise(PimOp::Add { bits }, elems_per_bank, total_elems);
                self.lump(Category::Arithmetic, lat, pj, 0.0)?;
            }
            Step::Exp { elems_per_bank, total_elems, bits, order } => {
                let (lat, pj) =
                    exec.pointwise(PimOp::ExpTaylor { bits, order }, elems_per_bank, total_elems);
                self.lump(Category::Arithmetic, lat, pj, 0.0)?;
            }

            Step::Reduce { vec_len, bits, vectors_per_bank, total_vectors } => {
                let (lat, pj) = exec.reduce(vec_len, bits, vectors_per_bank, total_vectors);
                self.lump(Category::Reduction, lat, pj, 0.0)?;
            }
            Step::Recip { per_bank, total } => {
                let (lat, pj) = if exec.table.reciprocal == Unit::Acu
                    && !self.session.broken_dividers().is_empty()
                {
                    exec.recip_degraded(per_bank, total, self.session.broken_divider_fraction())
                } else {
                    exec.recip(per_bank, total)
                };
                self.lump(Category::Reduction, lat, pj, 0.0)?;
            }

            Step::Replicate { value_bits, copies, count_per_bank, total_count } => {
                let (per_ns, per_pj) = ring::replicate_in_bank(
                    exec.buffer.as_ref(),
                    &exec.arch.hbm.timing,
                    &exec.arch.hbm.energy,
                    value_bits,
                    copies,
                );
                let lat = per_ns * count_per_bank as f64;
                let pj = per_pj * total_count as f64;
                let bytes = total_count as f64 * f64::from(copies) * f64::from(value_bits) / 8.0;
                self.lump(Category::DataMovement, lat, pj, bytes)?;
            }

            Step::HostBroadcast { bytes, banks } => {
                let (lat, pj) = exec.host_broadcast(bytes, banks);
                let moved = bytes as f64 * f64::from(banks.max(1));
                self.lump(Category::DataMovement, lat, pj, moved)?;
            }
            Step::HostScatter { total_bytes } => {
                let (lat, pj) = exec.host_scatter(total_bytes);
                self.lump(Category::DataMovement, lat, pj, total_bytes as f64)?;
            }

            Step::RingBroadcast { banks, bytes_per_hop, repeat, parallel } => {
                self.ring_broadcast(Ring { banks, bytes_per_hop, repeat, parallel })?;
            }
            Step::OneToAll { src, banks, bytes, parallel } => {
                let r = exec.schedule(Schedule::OneToAll { src }, banks, bytes);
                if self.engine.emitting() {
                    self.engine.sink().instant(
                        &InstantEvent::new(
                            "one-to-all",
                            "ring",
                            tracks::RING,
                            self.engine.now_ns(),
                        )
                        .with_args(&[
                            ("src_bank", src.into()),
                            ("banks", banks.count.into()),
                            ("bytes", bytes.into()),
                            ("slots", r.slots.into()),
                        ]),
                    );
                }
                self.lump(
                    Category::DataMovement,
                    r.latency_ns,
                    r.energy_pj * f64::from(parallel),
                    r.bytes * f64::from(parallel),
                )?;
            }
            Step::PairwiseReduceTree { banks, bytes, bits, elems, parallel } => {
                let r = exec.schedule(Schedule::Tree, banks, bytes);
                if self.engine.emitting() {
                    exec.emit_tree_hops(&self.engine, banks, bytes, r.latency_ns);
                }
                self.lump(
                    Category::DataMovement,
                    r.latency_ns,
                    r.energy_pj * f64::from(parallel),
                    r.bytes * f64::from(parallel),
                )?;
                // One in-bank add per tree level.
                let levels = 32 - banks.count.max(1).leading_zeros() as u64;
                let (lat, pj) = self.exec.pointwise(PimOp::Add { bits }, elems, elems * levels);
                self.lump(Category::Reduction, lat * levels as f64, pj * f64::from(parallel), 0.0)?;
            }

            Step::BroadcastDup { bytes, banks } => {
                let (lat, pj) = exec.broadcast_dup(bytes, banks);
                let moved = bytes as f64 * f64::from(banks.max(1));
                self.lump(Category::DataMovement, lat, pj, moved)?;
            }
            Step::IntraBankCopy { bytes_per_bank, total_bytes } => {
                let (lat, pj) = match &exec.buffer {
                    Some(b) => (
                        b.inter_subarray_copy_ns(bytes_per_bank),
                        b.inter_subarray_copy_pj(total_bytes),
                    ),
                    None => (
                        exec.rowclone.buffered_copy_latency_ns(bytes_per_bank),
                        exec.rowclone.buffered_copy_energy_pj(total_bytes),
                    ),
                };
                self.lump(Category::DataMovement, lat, pj, total_bytes as f64)?;
            }
            Step::ShuffleAll { total_bytes } => {
                let (lat, pj) = exec.shuffle_all(total_bytes);
                self.lump(Category::DataMovement, lat, pj, total_bytes as f64)?;
            }

            Step::MemTouch { bytes_per_bank, total_bytes } => {
                let (lat, pj) = exec.mem_touch(bytes_per_bank, total_bytes);
                self.lump(Category::Other, lat, pj, total_bytes as f64)?;
            }
        }
        Ok(())
    }

    /// Price `count` iterations of a repeat body.
    ///
    /// Iteration 0 is priced (and emitted) like any other steps. The other
    /// iterations run with the engine quiet, and a traced run sees them as
    /// one summary ([`Engine::emit_summary`]): the trace is bounded by the
    /// compiled program, while statistics and phase aggregates still cover
    /// every lump.
    ///
    /// Every iteration prices the same lumps, so the body prices as
    /// body × count: a *template* — a walked iteration that drew no flip
    /// and ends in the scope it started in — is added again once per
    /// following flip-free iteration. Each walked iteration runs between an
    /// [`Engine::mark`] and a [`FaultSession::mark`], and both
    /// `repeat_since` calls close them, with the count of clean iterations
    /// to add (0 for a walked iteration that does not qualify). Exact,
    /// because the engine's tallies and the session's draw counter are
    /// integers; the marks copy only what the body touches and reuse their
    /// buffers, so an iteration allocates nothing. The session's pure scan
    /// [`FaultSession::clean_iterations`] of the template's logged flip
    /// thresholds says how many iterations in a row draw no flip; the
    /// flipping iteration after them is walked, so its outcome, fault
    /// events and error time are the unrolled ones, and the next walked
    /// iteration that qualifies becomes the template. Iteration 0 is the
    /// template when it qualifies; it does not when it starts in another
    /// scope than the rest. Without flip draws (any empty session) this is
    /// one walk and one repeat — O(body) whatever `count` is.
    ///
    /// A body that nests a repeat is walked once per iteration instead:
    /// the inner repeat takes the marks, since neither [`Engine`] nor
    /// [`FaultSession`] marks nest.
    fn price_repeat(&mut self, count: u64, body: &[Step]) -> Result<(), SimError> {
        if count == 0 || body.is_empty() {
            return Ok(());
        }
        let nested = body.iter().any(|s| matches!(s, Step::Repeat { .. }));
        let mut marks = (!nested).then(|| (self.engine.mark(), self.session.mark()));
        self.segment(body)?;
        let window = (count > 1 && self.engine.emitting()).then(|| self.engine.snapshot());
        if window.is_some() {
            self.engine.set_quiet(true);
        }
        if nested {
            for _ in 1..count {
                self.segment(body)?;
            }
        } else {
            let mut left = count - 1;
            while let Some((engine_mark, session_mark)) = marks.take() {
                let clean = if self.engine.in_scope_of(&engine_mark)
                    && !self.session.flipped_since(&session_mark)
                {
                    self.session.clean_iterations(&session_mark, left)
                } else {
                    0
                };
                self.engine.repeat_since(engine_mark, clean);
                self.session.repeat_since(session_mark, clean);
                left -= clean;
                if left > 0 {
                    marks = Some((self.engine.mark(), self.session.mark()));
                    self.segment(body)?;
                    left -= 1;
                }
            }
        }
        if let Some(start) = window {
            self.engine.set_quiet(false);
            self.engine.emit_summary(&start, count - 1);
        }
        Ok(())
    }

    /// Gate a priced lump through the fault session and record it on the
    /// engine. An empty session records the lump as priced.
    ///
    /// # Errors
    ///
    /// [`SimError::Uncorrectable`] for flips the ECC scheme cannot absorb.
    fn lump(
        &mut self,
        category: Category,
        mut latency_ns: f64,
        mut energy_pj: f64,
        bytes: f64,
    ) -> Result<(), SimError> {
        if !self.session.is_empty() {
            (latency_ns, energy_pj) = self.degrade(category, latency_ns, energy_pj, bytes)?;
        }
        self.engine.lump(category, latency_ns, energy_pj, bytes);
        Ok(())
    }

    /// Apply the lump-level degradation policies:
    ///
    /// * a compute category served by [`Unit::Pim`] serializes over the
    ///   subarrays surviving stuck bit-planes;
    /// * data movement pays the ECC check-bit bandwidth tax, per-flip
    ///   SECDED corrections (one extra row cycle + activation each), and
    ///   one bounded retry of the whole transfer when parity detects a
    ///   flip it cannot repair;
    /// * an unprotected flip is uncorrectable — the simulator knows it
    ///   happened, so silent corruption is reported as an error.
    ///
    /// Only `DataMovement` traffic is ECC-checked; `MemTouch` capacity
    /// walks never leave the arrays.
    fn degrade(
        &mut self,
        category: Category,
        mut latency_ns: f64,
        mut energy_pj: f64,
        bytes: f64,
    ) -> Result<(f64, f64), SimError> {
        let table = &self.exec.table;
        let in_array = match category {
            Category::Arithmetic => table.arithmetic == Unit::Pim,
            Category::Reduction => table.reduction == Unit::Pim,
            Category::DataMovement | Category::Other => false,
        };
        if in_array {
            let slow = self.session.pim_slowdown();
            if slow > 1.0 {
                latency_ns += latency_ns * (slow - 1.0);
            }
        }
        if category == Category::DataMovement {
            let tax = self.session.ecc_overhead_fraction();
            if tax > 0.0 {
                latency_ns += latency_ns * tax;
                energy_pj += energy_pj * tax;
            }
            match self.session.observe_transfer(bytes) {
                FlipOutcome::None => {}
                FlipOutcome::Corrected(flips) => {
                    latency_ns += flips as f64 * self.exec.arch.hbm.timing.t_rc;
                    energy_pj += flips as f64 * self.exec.arch.hbm.energy.e_act;
                    self.fault_event("ecc-correct", flips);
                }
                FlipOutcome::Retry(flips) => {
                    // One bounded re-read of the transfer (check bits
                    // included); the retry itself is not re-drawn.
                    latency_ns *= 2.0;
                    energy_pj *= 2.0;
                    self.fault_event("parity-retry", flips);
                }
                FlipOutcome::Uncorrectable(flips) => {
                    self.fault_event("uncorrectable-flip", flips);
                    return Err(SimError::Uncorrectable {
                        fault: format!(
                            "{flips} transient bit flip(s) on a {bytes:.0}-byte transfer \
                             with no correcting ECC scheme"
                        ),
                        at_ns: Some(self.engine.now_ns()),
                    });
                }
            }
        }
        Ok((latency_ns, energy_pj))
    }

    /// Emit a fault instant on the dedicated fault track. The track is
    /// named lazily on the first event so fault-free traces never see it.
    fn fault_event(&mut self, name: &'static str, flips: u64) {
        if !self.engine.emitting() {
            return;
        }
        if self.session.mark_fault_track_named() {
            self.engine.sink().track_name(tracks::FAULT, "faults");
        }
        self.engine.sink().instant(
            &InstantEvent::new(name, "fault", tracks::FAULT, self.engine.now_ns())
                .with_args(&[("flips", flips.into())]),
        );
    }
}

/// The hop sets a ring or tree schedule runs one after another, `bytes`
/// per hop: one ring step, or one pairwise level per halving stride.
fn hop_levels(kind: Schedule, banks: BankRange, bytes: u64) -> Vec<Vec<Hop>> {
    let ids = banks.to_vec();
    match kind {
        Schedule::Ring => vec![ring_step_hops(&ids, bytes)],
        Schedule::Tree => {
            let mut levels = Vec::new();
            let mut stride = 1usize;
            while stride < ids.len() {
                levels.push(pairwise_reduce_hops(&ids, stride, bytes));
                stride *= 2;
            }
            levels
        }
        // Closed-form: a one-to-all broadcast places no hops.
        Schedule::OneToAll { .. } => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchKind;
    use transpim_dataflow::ir::{Precision, Program};
    use transpim_dataflow::{layer_flow, token_flow};
    use transpim_fault::{EccScheme, Fault, FaultStats};
    use transpim_obs::{ArgValue, ChromeTraceSink, ObsError};
    use transpim_transformer::workload::Workload;

    fn run(kind: ArchKind, token: bool, w: &Workload) -> SimStats {
        let arch = ArchConfig::new(kind);
        let banks = arch.hbm.geometry.total_banks();
        let prog =
            if token { token_flow::compile(w, banks) } else { layer_flow::compile(w, banks) };
        let mut ex = Executor::new(arch);
        ex.run(&prog).0
    }

    /// Statistics plus the Chrome-trace document of one traced run.
    fn run_traced(
        ex: &mut Executor,
        prog: &Program,
    ) -> Result<(SimStats, ScopedStats, String), ObsError> {
        let chrome = ChromeTraceSink::shared();
        let (stats, scoped) = ex.run_with_sink(prog, SinkHandle::from_shared(chrome.clone()));
        let trace = chrome.borrow().to_json_string()?;
        Ok((stats, scoped, trace))
    }

    fn small_workload() -> Workload {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 2;
        w
    }

    #[test]
    fn transpim_beats_pim_only_and_nbp() {
        let w = small_workload();
        let t = run(ArchKind::TransPim, true, &w).latency_ns;
        let p = run(ArchKind::OriginalPim, true, &w).latency_ns;
        let n = run(ArchKind::Nbp, true, &w).latency_ns;
        assert!(t < p, "TransPIM {t} should beat OriginalPIM {p}");
        assert!(t < n, "TransPIM {t} should beat NBP {n}");
    }

    #[test]
    fn token_dataflow_beats_layer_dataflow() {
        let w = small_workload();
        for kind in ArchKind::ALL {
            let t = run(kind, true, &w).latency_ns;
            let l = run(kind, false, &w).latency_ns;
            assert!(t < l, "{kind}: token {t} should beat layer {l}");
        }
    }

    #[test]
    fn buffers_reduce_data_movement() {
        let w = small_workload();
        let with = run(ArchKind::TransPim, true, &w);
        let without = run(ArchKind::TransPimNb, true, &w);
        let m_with = with.time_ns[Category::DataMovement.index()];
        let m_without = without.time_ns[Category::DataMovement.index()];
        assert!(
            m_with < m_without,
            "buffered movement {m_with} should beat unbuffered {m_without}"
        );
    }

    #[test]
    fn acu_slashes_reduction_time() {
        let w = small_workload();
        let t = run(ArchKind::TransPim, true, &w);
        let p = run(ArchKind::OriginalPim, true, &w);
        let rt = t.time_ns[Category::Reduction.index()];
        let rp = p.time_ns[Category::Reduction.index()];
        assert!(rp > 5.0 * rt, "ACU reduction {rt} should be ≫ faster than PIM-only {rp}");
    }

    #[test]
    fn nbp_arithmetic_is_slow_but_busy() {
        let w = small_workload();
        let n = run(ArchKind::Nbp, true, &w);
        let t = run(ArchKind::TransPim, true, &w);
        let an = n.time_ns[Category::Arithmetic.index()];
        let at = t.time_ns[Category::Arithmetic.index()];
        assert!(an > 2.0 * at, "NBP arithmetic {an} should lag PIM {at}");
        assert!(n.compute_utilization() > t.compute_utilization());
    }

    #[test]
    fn breakdown_partitions_latency() {
        let w = small_workload();
        let s = run(ArchKind::TransPim, true, &w);
        let sum: f64 = s.time_ns.iter().sum();
        assert!((sum - s.latency_ns).abs() < 1e-6 * s.latency_ns.max(1.0));
        assert!(s.total_energy_pj() > 0.0 && s.bytes_moved > 0.0);
    }

    #[test]
    fn pipelined_ring_never_slower_and_hides_movement() {
        let w = {
            let mut w = Workload::pubmed();
            w.model.encoder_layers = 2;
            w.model.decoder_layers = 0;
            w.decode_len = 0;
            w
        };
        let prog = token_flow::compile(&w, 2048);
        let barrier = {
            let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
            ex.run(&prog).0
        };
        let pipelined = {
            let arch = ArchConfig::new(ArchKind::TransPim).with_pipelined_ring(true);
            let mut ex = Executor::new(arch);
            ex.run(&prog).0
        };
        assert!(pipelined.latency_ns <= barrier.latency_ns);
        assert!(
            pipelined.time_ns[Category::DataMovement.index()]
                <= barrier.time_ns[Category::DataMovement.index()]
        );
        // Energy is work, not schedule: unchanged.
        assert!(
            (pipelined.total_energy_pj() - barrier.total_energy_pj()).abs()
                < 1e-6 * barrier.total_energy_pj()
        );
    }

    #[test]
    fn zero_sized_steps_are_free_and_finite() {
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let mut prog = transpim_dataflow::ir::Program::new();
        prog.push(Step::PointwiseMul { elems_per_bank: 0, total_elems: 0, a_bits: 8, b_bits: 8 });
        prog.push(Step::Reduce { vec_len: 1, bits: 8, vectors_per_bank: 0, total_vectors: 0 });
        prog.push(Step::HostScatter { total_bytes: 0 });
        prog.push(Step::MemTouch { bytes_per_bank: 0, total_bytes: 0 });
        let (stats, _) = ex.run(&prog);
        assert!(stats.latency_ns.is_finite() && stats.latency_ns >= 0.0);
        assert!(stats.total_energy_pj().is_finite());
    }

    #[test]
    fn decoder_program_executes() {
        let mut w = Workload::pubmed();
        w.model.encoder_layers = 1;
        w.model.decoder_layers = 1;
        w.decode_len = 3;
        w.seq_len = 256;
        let s = run(ArchKind::TransPim, true, &w);
        assert!(s.latency_ns > 0.0);
    }

    #[test]
    fn precision_default_is_paper_precision() {
        let p = Precision::default();
        assert_eq!((p.act_bits, p.softmax_bits, p.taylor_order), (8, 16, 5));
    }

    #[test]
    fn traced_run_matches_untraced_and_parses() {
        let w = small_workload();
        let arch = ArchConfig::new(ArchKind::TransPim);
        let banks = arch.hbm.geometry.total_banks();
        let prog = token_flow::compile(&w, banks);
        let (plain, plain_scoped) = Executor::new(arch.clone()).run(&prog);
        let (traced, traced_scoped, trace) =
            run_traced(&mut Executor::new(arch), &prog).expect("trace must serialize");
        assert_eq!(plain, traced, "tracing must not perturb the statistics");
        assert_eq!(plain_scoped, traced_scoped);
        let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let events = parsed.as_array().expect("chrome trace is a JSON array");
        assert!(!events.is_empty(), "a real program must emit events");
        // Ring-hop spans from the communication scheduler are present.
        assert!(events.iter().any(|e| e["cat"] == "ring"), "per-hop ring events expected");
    }

    #[test]
    fn ring_hop_spans_nest_inside_their_phase() {
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let mut prog = transpim_dataflow::ir::Program::new();
        prog.push(Step::RingBroadcast {
            banks: BankRange { start: 0, count: 8 },
            bytes_per_hop: 256,
            repeat: 3,
            parallel: 1,
        });
        let chrome = ChromeTraceSink::shared();
        ex.run_with_sink(&prog, SinkHandle::from_shared(chrome.clone()));
        let sink = chrome.borrow();
        let spans: Vec<_> = sink
            .sorted_events()
            .into_iter()
            .filter(|e| e.ph == "X" && e.cat != "__metadata")
            .collect();
        let phase = spans.iter().find(|e| e.cat == "data-movement").expect("phase span");
        let phase_end = phase.ts + phase.dur.unwrap_or(0.0);
        let hops: Vec<_> = spans.iter().filter(|e| e.cat == "ring").collect();
        assert!(!hops.is_empty());
        for h in &hops {
            let end = h.ts + h.dur.unwrap_or(0.0);
            assert!(
                h.ts >= phase.ts - 1e-9 && end <= phase_end + 1e-9,
                "hop [{}, {end}] escapes phase [{}, {phase_end}]",
                h.ts,
                phase.ts,
            );
        }
    }

    #[test]
    fn repeated_ring_topologies_collapse_to_summary_spans() {
        // The decoder prices the same ring/tree topology thousands of
        // times; only the first occurrence may emit per-hop detail or the
        // trace size (and traced-run cost) grows with the step count.
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let mut prog = transpim_dataflow::ir::Program::new();
        let banks = BankRange { start: 0, count: 8 };
        for bytes in [256, 512, 1024] {
            prog.push(Step::RingBroadcast { banks, bytes_per_hop: bytes, repeat: 1, parallel: 1 });
            prog.push(Step::PairwiseReduceTree { banks, bytes, bits: 16, elems: 64, parallel: 1 });
        }
        let chrome = ChromeTraceSink::shared();
        ex.run_with_sink(&prog, SinkHandle::from_shared(chrome.clone()));
        let sink = chrome.borrow();
        let events = sink.sorted_events();
        let hop_count = events.iter().filter(|e| e.name.starts_with("hop ")).count();
        // One detailed exemplar per topology: 8 ring hops (full ring
        // round) + 7 tree hops (4 + 2 + 1 halving levels).
        assert_eq!(hop_count, 15, "per-hop detail must not repeat per occurrence");
        assert_eq!(events.iter().filter(|e| e.name == "ring").count(), 2);
        assert_eq!(events.iter().filter(|e| e.name == "reduce-tree").count(), 2);
    }

    fn decode_workload() -> Workload {
        let mut w = Workload::pubmed();
        w.model.encoder_layers = 1;
        w.model.decoder_layers = 2;
        w.decode_len = 12;
        w.seq_len = 128;
        w
    }

    #[test]
    fn compressed_pricing_matches_unrolled_bitwise() {
        // The compiled decode loop arrives as `Step::Repeat`; pricing it
        // must be indistinguishable — bit for bit, scoped and total — from
        // pricing the unrolled step sequence, on every architecture and
        // both dataflows.
        let w = decode_workload();
        for kind in ArchKind::ALL {
            let arch = ArchConfig::new(kind);
            let banks = arch.hbm.geometry.total_banks();
            for token in [true, false] {
                let prog = if token {
                    token_flow::compile(&w, banks)
                } else {
                    layer_flow::compile(&w, banks)
                };
                let unrolled = prog.unroll();
                assert_eq!(prog.unrolled_len(), unrolled.len() as u64);
                if token {
                    assert!(prog.len() < unrolled.len(), "{kind}: decode loop should compress");
                }
                let (a, sa) = Executor::new(arch.clone()).run(&prog);
                let (b, sb) = Executor::new(arch.clone()).run(&unrolled);
                assert_eq!(a, b, "{kind}: compressed stats must equal unrolled stats");
                assert_eq!(sa, sb, "{kind}: scoped stats must agree too");
            }
        }
    }

    fn program(steps: Vec<Step>) -> Program {
        let mut prog = Program::new();
        prog.extend(steps);
        prog
    }

    #[test]
    fn zero_delta_repeat_prices_as_body_times_count() {
        let body = vec![
            Step::scope("dec.ffn"),
            Step::MemTouch { bytes_per_bank: 4096, total_bytes: 4096 * 2048 },
            Step::PointwiseMul {
                elems_per_bank: 300,
                total_elems: 300 * 2048,
                a_bits: 8,
                b_bits: 8,
            },
        ];
        let arch = ArchConfig::new(ArchKind::TransPim);
        let (once, _) = Executor::new(arch.clone()).run(&program(body.clone()));
        let count = 1_000_000_000u64;
        let prog = program(vec![Step::repeat(count, body)]);
        let timed = |price: &mut dyn FnMut() -> (SimStats, ScopedStats)| {
            let started = std::time::Instant::now();
            let priced = price();
            let elapsed = started.elapsed();
            assert!(elapsed.as_secs_f64() < 1.0, "a billion iterations took {elapsed:?}");
            priced
        };
        let (stats, scoped) = timed(&mut || Executor::new(arch.clone()).run(&prog));
        // An explicitly built empty session is the same fault-free run.
        let from_empty = timed(&mut || {
            let mut empty =
                FaultSession::new(&FaultScenario::empty(7), arch.system_info()).unwrap();
            Executor::new(arch.clone())
                .run_degraded_with_sink(&prog, &mut empty, SinkHandle::null())
                .unwrap()
        });
        assert_eq!(from_empty, (stats, scoped.clone()));
        // A traced run takes the same body x count path.
        let traced = timed(&mut || {
            let sink = SinkHandle::from_shared(ChromeTraceSink::shared());
            Executor::new(arch.clone()).run_with_sink(&prog, sink)
        });
        assert_eq!(traced, (stats, scoped.clone()));
        // One lump per category, each exact in the tally: scaling by the
        // count rounds once, exactly as the f64 product does.
        let n = count as f64;
        for c in [Category::Arithmetic, Category::Other] {
            assert_eq!(stats.time_ns[c.index()], once.time_ns[c.index()] * n, "{c}");
            assert_eq!(stats.energy_pj[c.index()], once.energy_pj[c.index()] * n, "{c}");
        }
        assert_eq!(stats.bytes_moved, once.bytes_moved * n);
        assert!((stats.latency_ns - once.latency_ns * n).abs() <= 1e-15 * stats.latency_ns);
        assert_eq!(scoped.get("dec.ffn"), Some(&stats));
    }

    /// Price `prog` on TransPIM under `scenario`, returning the statistics
    /// and the session's fault accounting.
    fn run_under(
        prog: &Program,
        scenario: &FaultScenario,
    ) -> Result<((SimStats, ScopedStats), FaultStats), SimError> {
        let arch = ArchConfig::new(ArchKind::TransPim);
        let mut session = FaultSession::new(scenario, arch.system_info()).unwrap();
        let mut ex = Executor::new(arch);
        ex.apply_ring_faults(&session);
        let priced = ex.run_degraded_with_sink(prog, &mut session, SinkHandle::null())?;
        Ok((priced, session.stats()))
    }

    #[test]
    fn flip_free_degraded_repeat_prices_as_body_times_count() {
        // One lump per category, each degraded: stuck planes slow the
        // multiply, SECDED taxes the copy, a broken divider reroutes the
        // reciprocal. No flip rate, so no iteration can differ.
        let body = vec![
            Step::scope("dec.attn"),
            Step::MemTouch { bytes_per_bank: 4096, total_bytes: 4096 * 2048 },
            Step::PointwiseMul {
                elems_per_bank: 300,
                total_elems: 300 * 2048,
                a_bits: 8,
                b_bits: 8,
            },
            Step::IntraBankCopy { bytes_per_bank: 2048, total_bytes: 2048 * 2048 },
            Step::Recip { per_bank: 16, total: 16 * 2048 },
        ];
        let scenario = FaultScenario {
            seed: 3,
            ecc: EccScheme::Secded,
            faults: vec![
                Fault::StuckBitPlanes { bank: 5, planes: 8 },
                Fault::BrokenDivider { bank: 9 },
            ],
        };
        let (once, once_faults) = run_under(&program(body.clone()), &scenario).unwrap();
        let (clean, _) = run_under(&program(body.clone()), &FaultScenario::empty(0)).unwrap();
        assert!(once.0.latency_ns > clean.0.latency_ns, "the scenario degrades the body");
        // A power of two, so scaling one iteration's f64 totals by it is
        // exact too and the comparison below can be bitwise.
        let count = 1u64 << 30;
        let prog = program(vec![Step::repeat(count, body)]);
        let started = std::time::Instant::now();
        let ((stats, scoped), faults) = run_under(&prog, &scenario).unwrap();
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "a billion degraded iterations took {elapsed:?}");
        let n = count as f64;
        for c in Category::ALL {
            assert_eq!(stats.time_ns[c.index()], once.0.time_ns[c.index()] * n, "{c}");
            assert_eq!(stats.energy_pj[c.index()], once.0.energy_pj[c.index()] * n, "{c}");
        }
        assert_eq!(stats.bytes_moved, once.0.bytes_moved * n);
        assert_eq!(stats.latency_ns, once.0.latency_ns * n);
        assert_eq!(scoped.get("dec.attn"), Some(&stats));
        assert_eq!(faults, once_faults, "static-fault counters do not scale with the count");
    }

    #[test]
    fn repeat_whose_first_iteration_flips_matches_unrolled() {
        // About one flip per two iterations: iteration 0 flips, so the
        // template is a later iteration, and further flips split the rest.
        let body = vec![
            Step::scope("dec.ffn"),
            Step::IntraBankCopy { bytes_per_bank: 1 << 20, total_bytes: 1 << 30 },
            Step::PointwiseAdd { elems_per_bank: 64, total_elems: 64 * 2048, bits: 16 },
        ];
        let scenario = |seed| FaultScenario {
            seed,
            ecc: EccScheme::Secded,
            faults: vec![
                Fault::TransientFlips { per_gib: 0.5 },
                Fault::StuckBitPlanes { bank: 1, planes: 4 },
            ],
        };
        let flips = |prog: &Program, seed| {
            let (_, faults) = run_under(prog, &scenario(seed)).unwrap();
            faults.injected - 1 // the stuck-plane fault
        };
        let first = program(body.clone());
        let seed = (0..64).find(|&seed| flips(&first, seed) > 0).expect("a seed whose draw flips");
        let count = 40;
        for prefix in [vec![], vec![Step::scope("enc.fc")]] {
            let mut steps = prefix;
            steps.push(Step::repeat(count, body.clone()));
            let prog = program(steps);
            let compressed = run_under(&prog, &scenario(seed)).unwrap();
            let flipped = compressed.1.injected - 1;
            assert!(flipped > 1 && flipped < count, "{flipped} of {count} iterations flipped");
            assert_eq!(compressed, run_under(&prog.unroll(), &scenario(seed)).unwrap());
        }
    }

    #[test]
    fn degraded_layer_decode_matches_unrolled() {
        // The decode of a 64-token Layer-LM run: one repeat of one decoder
        // layer per token. Flips land in some of its 1,536 layer
        // iterations, so each token's repeat splits around them.
        let arch = ArchConfig::new(ArchKind::TransPim);
        let healthy = arch.hbm.geometry.total_banks() - 1;
        let mut w = Workload::lm();
        w.decode_len = 0;
        let prefill = layer_flow::compile(&w, healthy).len();
        w.decode_len = 64;
        let decode = program(layer_flow::compile(&w, healthy).steps()[prefill..].to_vec());
        let unrolled = decode.unroll();
        assert_eq!(decode.len(), 64);
        let scenario = |ecc| FaultScenario {
            seed: 0,
            ecc,
            faults: vec![
                Fault::TransientFlips { per_gib: 1.0 },
                Fault::FailedBank { bank: 77 },
                Fault::DeadLink { group: 3 },
                Fault::StuckBitPlanes { bank: 200, planes: 8 },
                Fault::BrokenDivider { bank: 1500 },
            ],
        };
        let secded = scenario(EccScheme::Secded);
        let compressed = run_under(&decode, &secded).unwrap();
        let flips = compressed.1.injected - 4;
        assert!(flips > 1 && flips < 64, "{flips} flips");
        assert_eq!(compressed, run_under(&unrolled, &secded).unwrap());
        // Unprotected, the first flip fails both at the same time.
        let unprotected = scenario(EccScheme::None);
        let err = run_under(&decode, &unprotected).unwrap_err();
        assert!(matches!(err, SimError::Uncorrectable { at_ns: Some(t), .. } if t > 0.0), "{err}");
        assert_eq!(err, run_under(&unrolled, &unprotected).unwrap_err());
    }

    #[test]
    fn one_to_all_memo_distinguishes_sources() {
        // A broadcast's cost depends on where its source sits: bank 1024 is
        // outside the stack of banks 0..8, bank 0 is one of them.
        let banks = BankRange::new(0, 8);
        let step = |src| program(vec![Step::OneToAll { src, banks, bytes: 4096, parallel: 1 }]);
        let arch = ArchConfig::new(ArchKind::TransPim);
        let fresh = |src| Executor::new(arch.clone()).run(&step(src)).0;
        let mut warm = Executor::new(arch.clone());
        for src in [0, 1024] {
            assert_eq!(warm.run(&step(src)).0, fresh(src), "src {src}");
        }
        assert_ne!(fresh(0), fresh(1024), "the two sources must price differently");
    }

    #[test]
    fn ring_faults_invalidate_the_topology_memo() {
        // A ring and a tree over four bank groups: group 0's link dead,
        // group 1's at a quarter of its bandwidth.
        let arch = ArchConfig::new(ArchKind::TransPim);
        let scenario = FaultScenario {
            seed: 1,
            ecc: EccScheme::None,
            faults: vec![
                Fault::DeadLink { group: 0 },
                Fault::DegradedLink { group: 1, factor: 0.25 },
            ],
        };
        let session = FaultSession::new(&scenario, arch.system_info()).unwrap();
        let banks = BankRange::new(0, 16);
        let price = |ex: &mut Executor, bytes| {
            (ex.ring_step_cost(banks, bytes), ex.reduce_tree_cost(banks, bytes))
        };
        let mut warm = Executor::new(arch.clone());
        let healthy = price(&mut warm, 256);
        warm.apply_ring_faults(&session);
        let mut fresh = Executor::new(arch);
        fresh.apply_ring_faults(&session);
        // The byte count priced while healthy, and one that was not.
        for bytes in [256, 4096] {
            assert_eq!(price(&mut warm, bytes), price(&mut fresh, bytes), "{bytes} B");
        }
        let faulted = price(&mut fresh, 256);
        assert!(faulted.0.latency_ns > healthy.0.latency_ns, "the dead link slows the ring");
        assert!(faulted.1.latency_ns > healthy.1.latency_ns, "and the tree");
    }

    #[test]
    fn repeat_body_that_changes_scope_matches_unrolled() {
        // The first lump of iteration 0 lands in `enc.fc`; in every later
        // iteration it lands in `dec.attn`, where the body leaves off.
        let body = vec![
            Step::MemTouch { bytes_per_bank: 64, total_bytes: 512 },
            Step::scope("dec.attn"),
            Step::Reduce { vec_len: 64, bits: 16, vectors_per_bank: 3, total_vectors: 24 },
        ];
        for count in [1, 2, 9] {
            let prog = program(vec![Step::scope("enc.fc"), Step::repeat(count, body.clone())]);
            let arch = ArchConfig::new(ArchKind::TransPim);
            let compressed = Executor::new(arch.clone()).run(&prog);
            assert_eq!(compressed, Executor::new(arch).run(&prog.unroll()), "count {count}");
        }
    }

    /// Phase lumps a trace accounts for: one per phase span, or its
    /// `count` for a summary span.
    fn traced_lumps(events: &[transpim_obs::ChromeEvent]) -> f64 {
        let phases: Vec<&str> = Category::ALL.iter().map(|c| c.label()).collect();
        events
            .iter()
            .filter(|e| e.ph == "X" && phases.contains(&e.cat.as_str()))
            .map(|e| match e.args.get("count") {
                Some(ArgValue::Num(n)) => *n,
                _ => 1.0,
            })
            .sum()
    }

    fn traced_events(prog: &Program) -> ((SimStats, ScopedStats), Vec<transpim_obs::ChromeEvent>) {
        let chrome = ChromeTraceSink::shared();
        let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
        let stats = ex.run_with_sink(prog, SinkHandle::from_shared(chrome.clone()));
        let events = chrome.borrow().sorted_events();
        (stats, events)
    }

    #[test]
    fn traced_repeats_emit_iteration_zero_and_one_summary() {
        let body = vec![
            Step::scope("dec.attn"),
            Step::RingBroadcast {
                banks: BankRange { start: 0, count: 8 },
                bytes_per_hop: 256,
                repeat: 2,
                parallel: 1,
            },
            Step::MemTouch { bytes_per_bank: 64, total_bytes: 512 },
        ];
        // Iteration 0 is the template of the first repeat; the second's
        // starts in another scope than the rest.
        for (prog, iterations) in [
            (program(vec![Step::repeat(40, body.clone())]), 39.0),
            (program(vec![Step::scope("enc.fc"), Step::repeat(1000, body)]), 999.0),
        ] {
            let (stats, events) = traced_events(&prog);
            let (unrolled_stats, unrolled_events) = traced_events(&prog.unroll());
            let untraced = Executor::new(ArchConfig::new(ArchKind::TransPim)).run(&prog);
            assert_eq!(stats, untraced, "tracing must not perturb the statistics");
            assert_eq!(stats, unrolled_stats);
            let windows: Vec<_> = events.iter().filter(|e| e.name == "repeat").collect();
            assert_eq!(windows.len(), 1, "one summary per collapsed repeat");
            assert_eq!(windows[0].args["count"], ArgValue::Num(iterations));
            assert_eq!(traced_lumps(&events), traced_lumps(&unrolled_events));
            assert!(
                events.len() * 4 < unrolled_events.len(),
                "collapsed trace ({}) should be far smaller than unrolled ({})",
                events.len(),
                unrolled_events.len()
            );
        }
    }
}
