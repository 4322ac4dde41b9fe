//! The execution engine: prices each dataflow [`Step`] on a concrete
//! architecture and drives the phase engine in `transpim-hbm`.
//!
//! Pricing rules per architecture follow Section IV and the baselines of
//! Section V-A2:
//!
//! * point-wise arithmetic → bit-serial in-situ PIM batches
//!   (`transpim-pim`) on PIM architectures, or the per-channel near-bank
//!   vector unit on NBP;
//! * reductions → ACU adder trees when present, the in-array shift-add
//!   tree on OriginalPIM, the near-bank tree on NBP;
//! * Softmax reciprocals → the ACU divider, iterative PIM Newton–Raphson,
//!   or near-bank multiplies;
//! * communication → the ring/broadcast scheduler of `transpim-acu` on
//!   architecture-specific resource maps (ring links only when the
//!   broadcast hardware exists).
//!
//! Ring steps, one-to-all broadcasts and reduction trees are memoized by
//! their structural key, since the decoder repeats them thousands of times.

use crate::arch::{ArchConfig, ArchKind};
use crate::calib;
use crate::error::SimError;
use std::collections::{HashMap, HashSet};
use transpim_acu::adder_tree::AcuReduceModel;
use transpim_acu::data_buffer::DataBufferModel;
use transpim_acu::divider::DividerModel;
use transpim_acu::ring::{
    self, emit_hop_events, one_to_all_broadcast, pairwise_reduce_hops, schedule_hops,
    schedule_hops_placed, Hop, HopPlacement, ScheduleResult, TransferCostModel,
};
use transpim_dataflow::ir::{BankRange, Program, Step, StepDelta};
use transpim_fault::{FaultSession, FlipOutcome};
use transpim_hbm::engine::{tracks, Engine};
use transpim_hbm::geometry::BankId;
use transpim_hbm::resource::ResourceMap;
use transpim_hbm::stats::{Category, ScopedStats, SimStats};
use transpim_obs::{ChromeTraceSink, InstantEvent, ObsError, SinkHandle, SpanEvent};
use transpim_pim::cost::{PimCostModel, PimOp};
use transpim_pim::rowclone::RowCloneModel;

/// Prices dataflow programs on one architecture.
#[derive(Debug)]
pub struct Executor {
    arch: ArchConfig,
    map: ResourceMap,
    pim: PimCostModel,
    acu: AcuReduceModel,
    divider: DividerModel,
    buffer: Option<DataBufferModel>,
    rowclone: RowCloneModel,
    xfer: TransferCostModel,
    /// Row-cycle-bound per-bank streaming rate (GB/s): the pace at which a
    /// bank can sustainably read or write rows through its row buffer.
    /// Broadcast writes are paced by this floor even on the buffered
    /// datapath — every receiving bank's array write is the bottleneck.
    stream_floor_gbs: f64,
    ring_cache: HashMap<(u32, u32, u64), ScheduleResult>,
    broadcast_cache: HashMap<(u32, u32, u64), ScheduleResult>,
    tree_cache: HashMap<(u32, u32, u64), ScheduleResult>,
    /// Per-hop placements for traced runs, keyed like the cost caches.
    /// Only populated when a sink is attached.
    ring_hop_cache: HashMap<(u32, u32, u64), Vec<HopPlacement>>,
    tree_hop_cache: HashMap<(u32, u32, u64), Vec<HopPlacement>>,
    /// Ring/tree topologies `(start, count)` that already emitted one
    /// fully-detailed per-hop exemplar into the trace. The decoder prices
    /// the same topology thousands of times (with per-step byte counts);
    /// re-emitting every hop each time swamps the trace and dominates the
    /// traced run's cost, so later occurrences collapse to a summary span.
    ring_detail_emitted: HashSet<(u32, u32)>,
    tree_detail_emitted: HashSet<(u32, u32)>,
    /// When tracing, collapse iterations 1..N of a [`Step::Repeat`] into a
    /// single summary span instead of emitting every iteration's phases —
    /// keeps trace size O(compiled steps) for long decode loops. Off by
    /// default so traced compressed runs stay byte-identical to traced
    /// unrolled runs.
    collapse_repeats: bool,
    /// Whether [`Executor::apply_ring_faults`] rewired the resource map.
    /// A degraded executor prices a different machine than any
    /// [`ArchConfig`] describes, so it is never reused across cells.
    map_faulted: bool,
}

/// Threaded fault context: `None` everywhere on the fault-free path, so
/// pricing is byte-identical to a build without this subsystem.
type FaultCtx<'a> = Option<&'a mut FaultSession>;

impl Executor {
    /// Normalize an input configuration to what the executor prices:
    /// bank-to-bank streaming rates differ with the communication
    /// hardware. Without the TransPIM buffers, every transfer is
    /// row-cycle bound: open the source row, stream it beat by beat
    /// over the shared bus, open and restore the destination row. With
    /// the buffers, group segments pipeline independently at the
    /// column-access rate.
    fn normalized(mut arch: ArchConfig) -> ArchConfig {
        let g = arch.hbm.geometry;
        let t = arch.hbm.timing;
        if arch.kind.has_buffers() {
            arch.hbm.bus.group_gbs = f64::from(g.dq_bits) / 8.0 / t.t_ccd_s; // 16 GB/s
        } else {
            let beats = f64::from(g.row_bits()) / f64::from(g.dq_bits);
            let unbuffered_gbs = f64::from(g.row_bytes) / (2.0 * t.t_rc + beats * t.t_ccd_l);
            arch.hbm.bus.group_gbs = unbuffered_gbs;
            arch.hbm.bus.channel_gbs = unbuffered_gbs;
        }
        arch
    }

    /// Whether this executor prices exactly the architecture `arch`
    /// describes (modulo the bus-rate normalization [`Executor::new`]
    /// applies) — i.e. whether reusing it for `arch` is sound.
    pub fn prices_arch(&self, arch: &ArchConfig) -> bool {
        !self.map_faulted && self.arch == Self::normalized(arch.clone())
    }

    /// Build an executor for `arch`.
    pub fn new(arch: ArchConfig) -> Self {
        let arch = Self::normalized(arch);
        let g = arch.hbm.geometry;
        let t = arch.hbm.timing;
        let beats = f64::from(g.row_bits()) / f64::from(g.dq_bits);
        let stream_floor_gbs = f64::from(g.row_bytes) / (2.0 * t.t_rc + beats * t.t_ccd_l);
        let hbm = &arch.hbm;
        let map = hbm.resource_map(arch.kind.has_buffers());
        let pim = PimCostModel::new(hbm.geometry, hbm.timing, hbm.energy, arch.pim);
        let acu = AcuReduceModel::new(hbm.geometry, hbm.timing, hbm.energy, arch.acu);
        let buffer = arch.kind.has_buffers().then(|| DataBufferModel::new(hbm.timing, hbm.energy));
        let rowclone = RowCloneModel::new(hbm.geometry, hbm.timing, hbm.energy);
        let xfer = TransferCostModel::new(hbm.geometry, hbm.energy, arch.kind.has_buffers());
        Self {
            arch,
            map,
            pim,
            acu,
            divider: DividerModel::default(),
            buffer,
            rowclone,
            xfer,
            stream_floor_gbs,
            ring_cache: HashMap::new(),
            broadcast_cache: HashMap::new(),
            tree_cache: HashMap::new(),
            ring_hop_cache: HashMap::new(),
            tree_hop_cache: HashMap::new(),
            ring_detail_emitted: HashSet::new(),
            tree_detail_emitted: HashSet::new(),
            collapse_repeats: false,
            map_faulted: false,
        }
    }

    /// The resource map transfers are routed over (after any applied ring
    /// faults).
    pub fn resource_map(&self) -> &ResourceMap {
        &self.map
    }

    /// The architecture being priced.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Collapse traced repeat iterations 1..N into one summary span (see
    /// the `collapse_repeats` field). Statistics are unaffected; only
    /// span/counter emission changes.
    pub fn set_collapse_repeats(&mut self, collapse: bool) {
        self.collapse_repeats = collapse;
    }

    /// Run a program, returning global and per-scope statistics. Phase
    /// latencies include the DRAM refresh stretch (each bank loses `t_RFC`
    /// of every `t_REFI`).
    pub fn run(&mut self, program: &Program) -> (SimStats, ScopedStats) {
        self.run_with_sink(program, SinkHandle::null())
    }

    /// Run a program with an observability sink attached: phase spans,
    /// per-resource occupancy counters and per-hop ring events are emitted
    /// to `sink` as the engine executes. A [`SinkHandle::null`] sink makes
    /// this identical to [`Executor::run`] — no events are built and the
    /// statistics are bit-for-bit the same.
    pub fn run_with_sink(
        &mut self,
        program: &Program,
        sink: SinkHandle,
    ) -> (SimStats, ScopedStats) {
        let mut engine = Engine::with_sink(sink);
        engine.set_latency_scale(1.0 + self.arch.hbm.timing.refresh_overhead());
        self.run_on(program, &mut engine);
        engine.into_stats()
    }

    fn run_on(&mut self, program: &Program, engine: &mut Engine) {
        if let Err(e) = self.run_segment(program.steps(), engine, &mut None) {
            unreachable!("fault-free pricing cannot fail: {e}");
        }
    }

    /// Run a program under a fault session: every lump is repriced through
    /// the degradation policies (stuck-plane serialization, ECC checks and
    /// corrections, bounded parity retries, divider fallback), correctable
    /// faults are absorbed into the statistics, and uncorrectable ones
    /// surface as a typed [`SimError`].
    ///
    /// Ring-link faults change *routing*, not lump repricing — apply them
    /// first with [`Executor::apply_ring_faults`]. An empty session leaves
    /// the run byte-identical to [`Executor::run`].
    ///
    /// # Errors
    ///
    /// [`SimError::Uncorrectable`] when an injected fault exceeds the ECC
    /// scheme and every degradation policy.
    pub fn run_degraded(
        &mut self,
        program: &Program,
        session: &mut FaultSession,
    ) -> Result<(SimStats, ScopedStats), SimError> {
        self.run_degraded_with_sink(program, session, SinkHandle::null())
    }

    /// [`Executor::run_degraded`] with an observability sink attached:
    /// fault events (ECC corrections, parity retries) are emitted as
    /// instants on the dedicated fault track alongside the usual phase
    /// spans and counters.
    ///
    /// # Errors
    ///
    /// See [`Executor::run_degraded`].
    pub fn run_degraded_with_sink(
        &mut self,
        program: &Program,
        session: &mut FaultSession,
        sink: SinkHandle,
    ) -> Result<(SimStats, ScopedStats), SimError> {
        let mut engine = Engine::with_sink(sink);
        engine.set_latency_scale(1.0 + self.arch.hbm.timing.refresh_overhead());
        self.run_segment(program.steps(), &mut engine, &mut Some(session))?;
        Ok(engine.into_stats())
    }

    /// Rewire the resource map around the session's ring-link faults: dead
    /// links fall back to the shared channel bus (Figure 9's 8T path),
    /// degraded links keep their dedicated link at reduced bandwidth. The
    /// communication memo caches are invalidated; the closed-form
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
        self.ring_cache.clear();
        self.broadcast_cache.clear();
        self.tree_cache.clear();
        self.ring_hop_cache.clear();
        self.tree_hop_cache.clear();
        self.map_faulted = true;
    }

    /// Gate every priced lump through the fault session (when one is
    /// attached) and record it on the engine. With no session the lump is
    /// recorded as priced — the fault-free path stays byte-identical.
    ///
    /// # Errors
    ///
    /// [`SimError::Uncorrectable`] for flips the ECC scheme cannot absorb.
    fn emit(
        &self,
        engine: &mut Engine,
        fault: &mut FaultCtx<'_>,
        category: Category,
        mut latency_ns: f64,
        mut energy_pj: f64,
        bytes: f64,
    ) -> Result<(), SimError> {
        if let Some(sess) = fault.as_deref_mut() {
            (latency_ns, energy_pj) =
                self.degrade(engine, sess, category, latency_ns, energy_pj, bytes)?;
        }
        engine.lump(category, latency_ns, energy_pj, bytes);
        Ok(())
    }

    /// Apply the lump-level degradation policies and account their
    /// incremental cost (in scaled engine time, so the session's overhead
    /// equals the end-to-end latency delta for shape-preserving
    /// scenarios):
    ///
    /// * in-memory arithmetic (and in-array reductions on PIM-only)
    ///   serializes over the subarrays surviving stuck bit-planes;
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
        &self,
        engine: &mut Engine,
        sess: &mut FaultSession,
        category: Category,
        mut latency_ns: f64,
        mut energy_pj: f64,
        bytes: f64,
    ) -> Result<(f64, f64), SimError> {
        let scale = engine.latency_scale();
        let in_memory = self.arch.kind.computes_in_memory();
        let in_array_reduce = in_memory && !self.arch.kind.has_acu();
        match category {
            Category::Arithmetic if in_memory => {
                let slow = sess.pim_slowdown();
                if slow > 1.0 {
                    let extra = latency_ns * (slow - 1.0);
                    latency_ns += extra;
                    sess.add_overhead(extra * scale, 0.0);
                }
            }
            Category::Reduction if in_array_reduce => {
                let slow = sess.pim_slowdown();
                if slow > 1.0 {
                    let extra = latency_ns * (slow - 1.0);
                    latency_ns += extra;
                    sess.add_overhead(extra * scale, 0.0);
                }
            }
            Category::DataMovement => {
                let tax = sess.ecc_overhead_fraction();
                if tax > 0.0 {
                    let extra_lat = latency_ns * tax;
                    let extra_pj = energy_pj * tax;
                    latency_ns += extra_lat;
                    energy_pj += extra_pj;
                    sess.add_overhead(extra_lat * scale, extra_pj);
                }
                match sess.observe_transfer(bytes) {
                    FlipOutcome::None => {}
                    FlipOutcome::Corrected(flips) => {
                        let extra_lat = flips as f64 * self.arch.hbm.timing.t_rc;
                        let extra_pj = flips as f64 * self.arch.hbm.energy.e_act;
                        latency_ns += extra_lat;
                        energy_pj += extra_pj;
                        sess.add_overhead(extra_lat * scale, extra_pj);
                        Self::fault_event(engine, sess, "ecc-correct", flips);
                    }
                    FlipOutcome::Retry(flips) => {
                        // One bounded re-read of the transfer (check bits
                        // included); the retry itself is not re-drawn.
                        sess.add_overhead(latency_ns * scale, energy_pj);
                        latency_ns *= 2.0;
                        energy_pj *= 2.0;
                        Self::fault_event(engine, sess, "parity-retry", flips);
                    }
                    FlipOutcome::Uncorrectable(flips) => {
                        Self::fault_event(engine, sess, "uncorrectable-flip", flips);
                        return Err(SimError::Uncorrectable {
                            fault: format!(
                                "{flips} transient bit flip(s) on a {bytes:.0}-byte transfer \
                                 with no correcting ECC scheme"
                            ),
                            at_ns: Some(engine.now_ns()),
                        });
                    }
                }
            }
            _ => {}
        }
        Ok((latency_ns, energy_pj))
    }

    /// Emit a fault instant on the dedicated fault track. The track is
    /// named lazily on the first event so fault-free traces never see it.
    fn fault_event(engine: &Engine, sess: &mut FaultSession, name: &'static str, flips: u64) {
        if !engine.emitting() {
            return;
        }
        if sess.mark_fault_track_named() {
            engine.sink().track_name(tracks::FAULT, "faults");
        }
        engine.sink().instant(
            InstantEvent::new(name, "fault", tracks::FAULT, engine.now_ns())
                .with_arg("flips", flips),
        );
    }

    /// Price a step slice — a whole program or one repeat-body iteration.
    /// The pipelined-ring fusion window applies within the slice (compiled
    /// repeat bodies begin with a scope and end with a memory touch, so
    /// fusion never wants to cross an iteration boundary).
    fn run_segment(
        &mut self,
        steps: &[Step],
        engine: &mut Engine,
        fault: &mut FaultCtx<'_>,
    ) -> Result<(), SimError> {
        let mut i = 0;
        while i < steps.len() {
            // Pipelined ring: a ring broadcast immediately followed by the
            // point-wise multiply (and reduction) it feeds executes round
            // by round — transfer of round k+1 overlaps compute of round k
            // — so the pair costs max(transfer, compute) instead of the
            // barrier sum. Only the ring's share can hide; breakdown
            // attribution keeps the visible residual as movement.
            if self.arch.pipelined_ring {
                if let (
                    Some(Step::RingBroadcast { banks, bytes_per_hop, repeat, parallel }),
                    Some(Step::PointwiseMul { elems_per_bank, total_elems, a_bits, b_bits }),
                ) = (steps.get(i), steps.get(i + 1))
                {
                    let ring = self.ring_step(*banks, *bytes_per_hop);
                    let ring_lat = ring.latency_ns * *repeat as f64;
                    let (mul_lat, mul_pj) = self.pointwise(
                        PimOp::Mul { a_bits: *a_bits, b_bits: *b_bits },
                        *elems_per_bank,
                        *total_elems,
                    );
                    let visible_ring = (ring_lat - mul_lat).max(0.0);
                    if engine.emitting() {
                        // Per-hop detail is meaningless here — rounds overlap
                        // the multiply — so mark the fused pair instead.
                        engine.sink().instant(
                            InstantEvent::new(
                                "pipelined-ring",
                                "ring",
                                tracks::RING,
                                engine.now_ns(),
                            )
                            .with_arg("ring_ns", ring_lat)
                            .with_arg("mul_ns", mul_lat)
                            .with_arg("visible_ring_ns", visible_ring)
                            .with_arg("banks", u64::from(banks.count))
                            .with_arg("repeat", *repeat),
                        );
                    }
                    // The overlap window is computed from the fault-free
                    // compute latency; degradation applies to the residual
                    // lumps afterwards (conservative — a slowed multiply
                    // could hide more of the ring than we credit).
                    self.emit(
                        engine,
                        fault,
                        Category::DataMovement,
                        visible_ring,
                        ring.energy_pj * *repeat as f64 * f64::from(*parallel),
                        ring.bytes * *repeat as f64 * f64::from(*parallel),
                    )?;
                    self.emit(engine, fault, Category::Arithmetic, mul_lat, mul_pj, 0.0)?;
                    i += 2;
                    continue;
                }
            }
            self.price(&steps[i], engine, fault)?;
            i += 1;
        }
        Ok(())
    }

    /// Run a program with a full Chrome-trace timeline recorded; returns
    /// the statistics plus a Chrome-tracing JSON document of the execution
    /// (loadable in `chrome://tracing` or Perfetto).
    ///
    /// Serialization failures are propagated, not swallowed: a trace that
    /// was asked for but cannot be produced is an error.
    pub fn run_traced(
        &mut self,
        program: &Program,
    ) -> Result<(SimStats, ScopedStats, String), ObsError> {
        let chrome = ChromeTraceSink::shared();
        let (stats, scoped) = self.run_with_sink(program, SinkHandle::from_shared(chrome.clone()));
        let trace = chrome.borrow().to_json_string()?;
        Ok((stats, scoped, trace))
    }

    fn price(
        &mut self,
        step: &Step,
        engine: &mut Engine,
        fault: &mut FaultCtx<'_>,
    ) -> Result<(), SimError> {
        match *step {
            Step::Scope(ref label) => engine.set_scope(label),

            Step::Repeat { count, ref body, ref delta } => {
                self.price_repeat(count, body, delta, engine, fault)?;
            }

            Step::PointwiseMul { elems_per_bank, total_elems, a_bits, b_bits } => {
                let (lat, pj) =
                    self.pointwise(PimOp::Mul { a_bits, b_bits }, elems_per_bank, total_elems);
                self.emit(engine, fault, Category::Arithmetic, lat, pj, 0.0)?;
            }
            Step::PointwiseAdd { elems_per_bank, total_elems, bits } => {
                let (lat, pj) = self.pointwise(PimOp::Add { bits }, elems_per_bank, total_elems);
                self.emit(engine, fault, Category::Arithmetic, lat, pj, 0.0)?;
            }
            Step::Exp { elems_per_bank, total_elems, bits, order } => {
                let (lat, pj) =
                    self.pointwise(PimOp::ExpTaylor { bits, order }, elems_per_bank, total_elems);
                self.emit(engine, fault, Category::Arithmetic, lat, pj, 0.0)?;
            }

            Step::Reduce { vec_len, bits, vectors_per_bank, total_vectors } => {
                let (lat, pj) = self.reduce(vec_len, bits, vectors_per_bank, total_vectors);
                self.emit(engine, fault, Category::Reduction, lat, pj, 0.0)?;
            }
            Step::Recip { per_bank, total } => {
                let (lat, pj) = match fault.as_deref_mut() {
                    Some(sess)
                        if self.arch.kind.has_acu() && !sess.broken_dividers().is_empty() =>
                    {
                        self.recip_degraded(per_bank, total, sess, engine.latency_scale())
                    }
                    _ => self.recip(per_bank, total),
                };
                self.emit(engine, fault, Category::Reduction, lat, pj, 0.0)?;
            }

            Step::Replicate { value_bits, copies, count_per_bank, total_count } => {
                let (per_ns, per_pj) = ring::replicate_in_bank(
                    self.buffer.as_ref(),
                    &self.arch.hbm.timing,
                    &self.arch.hbm.energy,
                    value_bits,
                    copies,
                );
                let lat = per_ns * count_per_bank as f64;
                let pj = per_pj * total_count as f64;
                let bytes = total_count as f64 * f64::from(copies) * f64::from(value_bits) / 8.0;
                self.emit(engine, fault, Category::DataMovement, lat, pj, bytes)?;
            }

            Step::HostBroadcast { bytes, banks } => {
                let (lat, pj) = self.host_broadcast(bytes, banks);
                self.emit(
                    engine,
                    fault,
                    Category::DataMovement,
                    lat,
                    pj,
                    bytes as f64 * f64::from(banks.max(1)),
                )?;
            }
            Step::HostScatter { total_bytes } => {
                let (lat, pj) = self.host_scatter(total_bytes);
                self.emit(engine, fault, Category::DataMovement, lat, pj, total_bytes as f64)?;
            }

            Step::RingBroadcast { banks, bytes_per_hop, repeat, parallel } => {
                let r = self.ring_step(banks, bytes_per_hop);
                if engine.emitting() {
                    self.emit_ring_hops(engine, banks, bytes_per_hop, repeat, &r);
                }
                self.emit(
                    engine,
                    fault,
                    Category::DataMovement,
                    r.latency_ns * repeat as f64,
                    r.energy_pj * repeat as f64 * f64::from(parallel),
                    r.bytes * repeat as f64 * f64::from(parallel),
                )?;
            }
            Step::OneToAll { src, banks, bytes, parallel } => {
                let r = self.one_to_all(src, banks, bytes);
                if engine.emitting() {
                    engine.sink().instant(
                        InstantEvent::new("one-to-all", "ring", tracks::RING, engine.now_ns())
                            .with_arg("src_bank", u64::from(src))
                            .with_arg("banks", u64::from(banks.count))
                            .with_arg("bytes", bytes)
                            .with_arg("slots", u64::from(r.slots)),
                    );
                }
                self.emit(
                    engine,
                    fault,
                    Category::DataMovement,
                    r.latency_ns,
                    r.energy_pj * f64::from(parallel),
                    r.bytes * f64::from(parallel),
                )?;
            }
            Step::PairwiseReduceTree { banks, bytes, bits, elems, parallel } => {
                let r = self.reduce_tree_moves(banks, bytes);
                if engine.emitting() {
                    self.emit_tree_hops(engine, banks, bytes, r.latency_ns);
                }
                self.emit(
                    engine,
                    fault,
                    Category::DataMovement,
                    r.latency_ns,
                    r.energy_pj * f64::from(parallel),
                    r.bytes * f64::from(parallel),
                )?;
                // One in-bank add per tree level.
                let levels = 32 - banks.count.max(1).leading_zeros() as u64;
                let (lat, pj) = self.pointwise(PimOp::Add { bits }, elems, elems * levels);
                self.emit(
                    engine,
                    fault,
                    Category::Reduction,
                    lat * levels as f64,
                    pj * f64::from(parallel),
                    0.0,
                )?;
            }

            Step::BroadcastDup { bytes, banks } => {
                let (lat, pj) = self.broadcast_dup(bytes, banks);
                self.emit(
                    engine,
                    fault,
                    Category::DataMovement,
                    lat,
                    pj,
                    bytes as f64 * f64::from(banks.max(1)),
                )?;
            }
            Step::IntraBankCopy { bytes_per_bank, total_bytes } => {
                let (lat, pj) = match &self.buffer {
                    Some(b) => (
                        b.inter_subarray_copy_ns(bytes_per_bank),
                        b.inter_subarray_copy_pj(total_bytes),
                    ),
                    None => (
                        self.rowclone.buffered_copy_latency_ns(bytes_per_bank),
                        self.rowclone.buffered_copy_energy_pj(total_bytes),
                    ),
                };
                self.emit(engine, fault, Category::DataMovement, lat, pj, total_bytes as f64)?;
            }
            Step::ShuffleAll { total_bytes } => {
                let (lat, pj) = self.shuffle_all(total_bytes);
                self.emit(engine, fault, Category::DataMovement, lat, pj, total_bytes as f64)?;
            }

            Step::MemTouch { bytes_per_bank, total_bytes } => {
                let (lat, pj) = self.mem_touch(bytes_per_bank, total_bytes);
                self.emit(engine, fault, Category::Other, lat, pj, total_bytes as f64)?;
            }
        }
        Ok(())
    }

    /// Price `count` iterations of a repeat body.
    ///
    /// Three strategies, all denoting exactly the unrolled pricing:
    ///
    /// * **body × count** (zero deltas, nothing to emit, no fault session):
    ///   every iteration records the same lumps, so price one and add it
    ///   `count - 1` more times with [`Engine::repeat_since`] — O(body)
    ///   whatever `count` is, and exact because the engine's tallies are
    ///   integers;
    /// * **in-place advance** (non-zero deltas, emission on, or a fault
    ///   session, whose transient-flip draws advance per lump): walk a
    ///   scratch copy of the body per iteration, advancing its varying
    ///   fields by the deltas — cache-hot, no per-step allocation;
    /// * **collapsed emission** (tracing with [`Executor::set_collapse_repeats`]):
    ///   iteration 0 emits normally, iterations 1..N run quiet and are
    ///   represented by one summary span carrying the collapsed count.
    ///
    /// Debug builds check the final scratch body against [`Step::at`].
    fn price_repeat(
        &mut self,
        count: u64,
        body: &[Step],
        delta: &[StepDelta],
        engine: &mut Engine,
        fault: &mut FaultCtx<'_>,
    ) -> Result<(), SimError> {
        if count == 0 || body.is_empty() {
            return Ok(());
        }
        if delta.iter().all(StepDelta::is_zero) && !engine.emitting() && fault.is_none() {
            let mut mark = engine.mark();
            self.run_segment(body, engine, fault)?;
            let mut rest = count - 1;
            if rest > 0 && !engine.in_scope_of(&mark) {
                // Iteration 0 started in the enclosing scope; the others
                // start in the one the body leaves, so iteration 1 is the
                // one that repeats.
                mark = engine.mark();
                self.run_segment(body, engine, fault)?;
                rest -= 1;
            }
            engine.repeat_since(&mark, rest);
            return Ok(());
        }

        let collapse = self.collapse_repeats && count > 1 && engine.emitting();
        let mut scratch = body.to_vec();
        let mut summary_start = 0.0;
        for i in 0..count {
            if i > 0 {
                for (s, d) in scratch.iter_mut().zip(delta) {
                    s.advance(d);
                }
            }
            if collapse && i == 1 {
                summary_start = engine.now_ns();
                engine.set_quiet(true);
            }
            self.run_segment(&scratch, engine, fault)?;
        }
        if collapse {
            engine.set_quiet(false);
            engine.sink().span(
                SpanEvent::new(
                    format!("repeat x{}", count - 1),
                    "repeat",
                    tracks::RING,
                    summary_start,
                    engine.now_ns() - summary_start,
                )
                .with_count(count - 1),
            );
        }
        #[cfg(debug_assertions)]
        if count > 1 {
            for (j, s) in scratch.iter().enumerate() {
                debug_assert_eq!(
                    *s,
                    body[j].at(&delta[j], count - 1),
                    "in-place advance diverged from Step::at"
                );
            }
        }
        Ok(())
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

    fn pointwise(&self, op: PimOp, elems_per_bank: u64, total_elems: u64) -> (f64, f64) {
        if self.arch.kind.computes_in_memory() {
            (self.pim.latency_ns(op, elems_per_bank), self.pim.energy_pj(op, total_elems))
        } else {
            let g = &self.arch.hbm.geometry;
            let per_channel = elems_per_bank * u64::from(g.banks_per_channel());
            let rate = f64::from(calib::NBP_LANES)
                * calib::NBP_CLOCK_GHZ
                * f64::from(calib::NBP_UNITS_PER_CHANNEL); // elems/ns/channel
            let lat = per_channel as f64 * Self::nbp_ops(op) / rate;
            let pj = total_elems as f64
                * Self::nbp_ops(op)
                * (f64::from(Self::op_bits(op))
                    * (self.arch.hbm.energy.e_pre_gsa + self.arch.hbm.energy.e_post_gsa)
                    + calib::NBP_LOGIC_PJ_PER_OP);
            (lat, pj)
        }
    }

    fn reduce(
        &self,
        vec_len: u32,
        bits: u32,
        vectors_per_bank: u64,
        total_vectors: u64,
    ) -> (f64, f64) {
        match self.arch.kind {
            ArchKind::TransPim | ArchKind::TransPimNb => (
                self.acu.bank_latency_ns(vec_len, bits, vectors_per_bank),
                self.acu.energy_pj(vec_len, bits, total_vectors),
            ),
            ArchKind::OriginalPim => (
                self.pim.reduce_tree_latency_ns(vec_len, bits, vectors_per_bank),
                self.pim.reduce_tree_energy_pj(vec_len, bits, total_vectors),
            ),
            ArchKind::Nbp => {
                let g = &self.arch.hbm.geometry;
                let per_channel = vectors_per_bank * u64::from(g.banks_per_channel());
                let elems = per_channel * u64::from(vec_len);
                let rate = f64::from(calib::NBP_LANES) * calib::NBP_CLOCK_GHZ;
                let lat = elems as f64 / rate + per_channel as f64 * calib::NBP_VECTOR_RESTART_NS;
                let total_elems = total_vectors * u64::from(vec_len);
                let pj = total_elems as f64
                    * (f64::from(bits)
                        * (self.arch.hbm.energy.e_pre_gsa + self.arch.hbm.energy.e_post_gsa)
                        + calib::NBP_LOGIC_PJ_PER_OP);
                (lat, pj)
            }
        }
    }

    fn recip(&self, per_bank: u64, total: u64) -> (f64, f64) {
        match self.arch.kind {
            ArchKind::TransPim | ArchKind::TransPimNb => {
                let per_divider = per_bank.div_ceil(u64::from(self.arch.acu.p_sub).max(1));
                (self.divider.latency_ns(per_divider), self.divider.energy_pj(total))
            }
            ArchKind::OriginalPim => {
                // Newton–Raphson in the arrays: 2 multiplies + 1 add per
                // iteration at Softmax width.
                let mul = PimOp::Mul { a_bits: 16, b_bits: 16 };
                let add = PimOp::Add { bits: 16 };
                let iters = f64::from(calib::PIM_RECIP_ITERATIONS);
                let lat = iters
                    * (2.0 * self.pim.latency_ns(mul, per_bank)
                        + self.pim.latency_ns(add, per_bank));
                let pj =
                    iters * (2.0 * self.pim.energy_pj(mul, total) + self.pim.energy_pj(add, total));
                (lat, pj)
            }
            ArchKind::Nbp => {
                let ops = 3.0 * f64::from(calib::PIM_RECIP_ITERATIONS);
                let g = &self.arch.hbm.geometry;
                let per_channel = per_bank * u64::from(g.banks_per_channel());
                let rate = f64::from(calib::NBP_LANES) * calib::NBP_CLOCK_GHZ;
                let lat = per_channel as f64 * ops / rate;
                let pj = total as f64 * ops * calib::NBP_LOGIC_PJ_PER_OP;
                (lat, pj)
            }
        }
    }

    /// [`Executor::recip`] when some ACU dividers are broken: the affected
    /// banks fall back to Newton–Raphson reciprocal in their arrays (the
    /// OriginalPim path), running alongside the healthy dividers. Latency
    /// is the slower of the two sides; energy blends by the broken
    /// fraction. The incremental cost is charged to the session in scaled
    /// engine time.
    fn recip_degraded(
        &self,
        per_bank: u64,
        total: u64,
        sess: &mut FaultSession,
        scale: f64,
    ) -> (f64, f64) {
        let (div_lat, div_pj) = self.recip(per_bank, total);
        let mul = PimOp::Mul { a_bits: 16, b_bits: 16 };
        let add = PimOp::Add { bits: 16 };
        let iters = f64::from(calib::PIM_RECIP_ITERATIONS);
        let nr_lat =
            iters * (2.0 * self.pim.latency_ns(mul, per_bank) + self.pim.latency_ns(add, per_bank));
        let nr_pj = iters * (2.0 * self.pim.energy_pj(mul, total) + self.pim.energy_pj(add, total));
        let frac = sess.broken_divider_fraction();
        let lat = div_lat.max(nr_lat);
        let pj = div_pj * (1.0 - frac) + nr_pj * frac;
        sess.add_overhead((lat - div_lat) * scale, pj - div_pj);
        (lat, pj)
    }

    // ---- movement pricing ------------------------------------------------

    fn layout_factor(&self) -> f64 {
        if self.arch.kind.computes_in_memory() {
            calib::LAYOUT_REORG_OVERHEAD
        } else {
            1.0
        }
    }

    fn host_broadcast(&self, bytes: u64, banks: u32) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let bus = &self.arch.hbm.bus;
        let b = bytes as f64;
        let bits = b * 8.0;
        let channels = f64::from(g.total_channels());
        let base = b / bus.host_gbs + b / bus.stack_gbs;
        let (lat, bus_traversals) = if self.arch.kind.has_buffers() {
            // Broadcast write: one channel-bus pass per channel, all banks
            // of the channel latch simultaneously — paced by the banks'
            // row-write rate, not the bus burst rate.
            (base + self.layout_factor() * b / self.stream_floor_gbs.min(bus.channel_gbs), channels)
        } else {
            // Original datapath: one serialized, row-cycle-bound pass per
            // bank on each channel's shared bus.
            let per_chan = f64::from(g.banks_per_channel());
            (
                base + self.layout_factor() * per_chan * b / bus.channel_gbs,
                channels * f64::from(g.banks_per_channel()),
            )
        };
        let e = &self.arch.hbm.energy;
        let pj = bits * e.e_io * (1.0 + f64::from(g.stacks))
            + bits * e.e_post_gsa * bus_traversals
            + f64::from(banks) * self.xfer.bank_write_energy_pj(bytes);
        (lat, pj)
    }

    fn host_scatter(&self, total_bytes: u64) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let bus = &self.arch.hbm.bus;
        let b = total_bytes as f64;
        let per_channel = b / f64::from(g.total_channels());
        let lat = b / bus.host_gbs
            + self.layout_factor() * per_channel / self.stream_floor_gbs.min(bus.channel_gbs);
        let e = &self.arch.hbm.energy;
        let bits = b * 8.0;
        let pj = bits * (e.e_io + e.e_post_gsa) + self.xfer.bank_write_energy_pj(total_bytes);
        (lat, pj)
    }

    fn shuffle_all(&self, total_bytes: u64) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let bus = &self.arch.hbm.bus;
        // With buffers every bank-group segment streams independently;
        // without them each channel's shared bus is the unit of transfer.
        let agg = if self.arch.kind.has_buffers() {
            f64::from(g.total_groups()) * bus.group_gbs
        } else {
            f64::from(g.total_channels()) * bus.channel_gbs
        };
        let lat = self.layout_factor() * total_bytes as f64 / agg;
        let e = &self.arch.hbm.energy;
        let bits = total_bytes as f64 * 8.0;
        // Read out of one bank, across the bus, into another.
        let pj = bits * (2.0 * (e.e_pre_gsa + e.e_post_gsa) + e.e_io)
            + 2.0 * (total_bytes as f64 / f64::from(g.row_bytes)) * e.e_act;
        (lat, pj)
    }

    fn broadcast_dup(&self, bytes: u64, banks: u32) -> (f64, f64) {
        let g = &self.arch.hbm.geometry;
        let bus = &self.arch.hbm.bus;
        let b = bytes as f64;
        let copies_per_channel = if self.arch.kind.has_buffers() {
            1.0 // broadcast write reaches all banks of the channel at once
        } else {
            f64::from(g.banks_per_channel())
        };
        // Broadcast writes are paced by the receiving banks' row-write
        // rate (channel_gbs already equals it on unbuffered datapaths).
        let lat = b / bus.stack_gbs
            + self.layout_factor() * copies_per_channel * b
                / self.stream_floor_gbs.min(bus.channel_gbs);
        let e = &self.arch.hbm.energy;
        let bits = b * 8.0;
        let pj = bits * (e.e_pre_gsa + e.e_post_gsa) // gather source read
            + bits * e.e_post_gsa * f64::from(g.total_channels()) * copies_per_channel
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

    fn ring_step(&mut self, banks: BankRange, bytes: u64) -> ScheduleResult {
        let key = (banks.start, banks.count, bytes);
        if let Some(r) = self.ring_cache.get(&key) {
            return *r;
        }
        let ids = banks.to_vec();
        let r = ring::ring_step(&self.map, &self.xfer, &ids, bytes);
        self.ring_cache.insert(key, r);
        r
    }

    fn one_to_all(&mut self, src: u32, banks: BankRange, bytes: u64) -> ScheduleResult {
        let key = (banks.start, banks.count, bytes);
        if let Some(r) = self.broadcast_cache.get(&key) {
            return *r;
        }
        let ids = banks.to_vec();
        let r = one_to_all_broadcast(&self.map, &self.xfer, BankId(src), &ids, bytes);
        self.broadcast_cache.insert(key, r);
        r
    }

    fn reduce_tree_moves(&mut self, banks: BankRange, bytes: u64) -> ScheduleResult {
        let key = (banks.start, banks.count, bytes);
        if let Some(r) = self.tree_cache.get(&key) {
            return *r;
        }
        let ids = banks.to_vec();
        let mut total = ScheduleResult::default();
        let mut stride = 1usize;
        while stride < ids.len() {
            let hops: Vec<Hop> = pairwise_reduce_hops(&ids, stride, bytes);
            let r = schedule_hops(&self.map, &self.xfer, &hops);
            total.latency_ns += r.latency_ns;
            total.energy_pj += r.energy_pj;
            total.bytes += r.bytes;
            total.slots += r.slots;
            stride *= 2;
        }
        self.tree_cache.insert(key, total);
        total
    }

    // ---- trace emission ---------------------------------------------------

    /// Emit per-hop span events for one ring step starting at the engine's
    /// current timestamp, plus a single summary span for the remaining
    /// `repeat - 1` identical rounds. Per-hop detail is emitted for the
    /// *first* occurrence of each ring topology only; later occurrences
    /// collapse to one summary span (see `ring_detail_emitted`).
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
        if !self.ring_detail_emitted.insert((banks.start, banks.count)) {
            engine.sink().span(
                SpanEvent::new(
                    "ring",
                    "ring",
                    tracks::RING,
                    base,
                    r.latency_ns * repeat as f64 * scale,
                )
                .with_arg("banks", u64::from(banks.count))
                .with_arg("bytes_per_hop", bytes)
                .with_arg("slots", u64::from(r.slots))
                .with_arg("rounds", repeat),
            );
            return;
        }
        let key = (banks.start, banks.count, bytes);
        if !self.ring_hop_cache.contains_key(&key) {
            let ids = banks.to_vec();
            let hops: Vec<Hop> = ring::ring_step_hops(&ids, bytes);
            let (_, placed) = schedule_hops_placed(&self.map, &self.xfer, &hops);
            self.ring_hop_cache.insert(key, placed);
        }
        emit_hop_events(engine.sink(), &self.map, base, scale, &self.ring_hop_cache[&key]);
        if repeat > 1 {
            engine.sink().span(
                SpanEvent::new(
                    format!("ring x{}", repeat - 1),
                    "ring",
                    tracks::RING,
                    base + r.latency_ns * scale,
                    r.latency_ns * (repeat - 1) as f64 * scale,
                )
                .with_arg("banks", u64::from(banks.count))
                .with_arg("bytes_per_hop", bytes)
                .with_arg("slots", u64::from(r.slots)),
            );
        }
    }

    /// Emit per-hop span events for the pairwise reduction tree: each
    /// halving level's hops are placed by the slotted scheduler and offset
    /// by the cumulative latency of the levels before it. As with rings,
    /// only the first occurrence of a topology gets per-hop detail; later
    /// occurrences emit one summary span of the scheduled latency.
    fn emit_tree_hops(&mut self, engine: &Engine, banks: BankRange, bytes: u64, total_ns: f64) {
        let scale = engine.latency_scale();
        let base = engine.now_ns();
        if !self.tree_detail_emitted.insert((banks.start, banks.count)) {
            engine.sink().span(
                SpanEvent::new("reduce-tree", "ring", tracks::RING, base, total_ns * scale)
                    .with_arg("banks", u64::from(banks.count))
                    .with_arg("bytes", bytes),
            );
            return;
        }
        let key = (banks.start, banks.count, bytes);
        if !self.tree_hop_cache.contains_key(&key) {
            let ids = banks.to_vec();
            let mut all = Vec::new();
            let mut offset = 0.0;
            let mut stride = 1usize;
            while stride < ids.len() {
                let hops: Vec<Hop> = pairwise_reduce_hops(&ids, stride, bytes);
                let (r, placed) = schedule_hops_placed(&self.map, &self.xfer, &hops);
                all.extend(placed.into_iter().map(|mut p| {
                    p.start_ns += offset;
                    p
                }));
                offset += r.latency_ns;
                stride *= 2;
            }
            self.tree_hop_cache.insert(key, all);
        }
        emit_hop_events(engine.sink(), &self.map, base, scale, &self.tree_hop_cache[&key]);
    }

    /// Expose the ring-step scheduler for ablation benches: cost of one
    /// full ring step over `banks` with `bytes` per hop.
    pub fn ring_step_cost(&mut self, banks: BankRange, bytes: u64) -> ScheduleResult {
        self.ring_step(banks, bytes)
    }

    /// Validate a ring schedule invariant used by tests: the full ring hop
    /// set of this architecture is conflict-free per slot (delegates to the
    /// scheduler; the slot count must be ≥ the per-group serialization
    /// lower bound).
    pub fn ring_slots(&mut self, banks: BankRange, bytes: u64) -> u32 {
        self.ring_step(banks, bytes).slots
    }

    /// Expose the decoder's pairwise reduction-tree transfer cost for
    /// ablation benches (movement only; the in-bank adds are priced
    /// separately by [`Step::PairwiseReduceTree`]).
    pub fn reduce_tree_cost(&mut self, banks: BankRange, bytes: u64) -> ScheduleResult {
        self.reduce_tree_moves(banks, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transpim_dataflow::ir::{Precision, Program};
    use transpim_dataflow::{layer_flow, token_flow};
    use transpim_transformer::workload::Workload;

    fn run(kind: ArchKind, token: bool, w: &Workload) -> SimStats {
        let arch = ArchConfig::new(kind);
        let banks = arch.hbm.geometry.total_banks();
        let prog =
            if token { token_flow::compile(w, banks) } else { layer_flow::compile(w, banks) };
        let mut ex = Executor::new(arch);
        ex.run(&prog).0
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
            Executor::new(arch).run_traced(&prog).expect("trace must serialize");
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

    /// A repeat whose every iteration is identical.
    fn zero_delta_repeat(count: u64, body: Vec<Step>) -> Step {
        let delta = body.iter().map(|s| StepDelta::zeros(s.varying().len)).collect();
        Step::repeat(count, body, delta)
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
        let started = std::time::Instant::now();
        let (stats, scoped) =
            Executor::new(arch).run(&program(vec![zero_delta_repeat(count, body)]));
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "a billion iterations took {elapsed:?}");
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
            let prog = program(vec![Step::scope("enc.fc"), zero_delta_repeat(count, body.clone())]);
            let arch = ArchConfig::new(ArchKind::TransPim);
            let compressed = Executor::new(arch.clone()).run(&prog);
            assert_eq!(compressed, Executor::new(arch).run(&prog.unroll()), "count {count}");
        }
    }

    #[test]
    fn traced_compressed_matches_traced_unrolled() {
        // With collapsing off (the default), tracing a compressed program
        // walks every iteration and must produce a byte-identical trace
        // document.
        let w = decode_workload();
        let arch = ArchConfig::new(ArchKind::TransPim);
        let banks = arch.hbm.geometry.total_banks();
        let prog = token_flow::compile(&w, banks);
        let unrolled = prog.unroll();
        let (s1, sc1, t1) = Executor::new(arch.clone()).run_traced(&prog).unwrap();
        let (s2, sc2, t2) = Executor::new(arch).run_traced(&unrolled).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(sc1, sc2);
        assert_eq!(t1, t2, "default tracing must not observe the compression");
    }

    #[test]
    fn collapse_repeats_bounds_trace_without_touching_stats() {
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
        // Affine growth of the hop payload, as KV rings grow per token.
        let delta = vec![
            StepDelta::none(),
            StepDelta { d: [16, 0, 0], len: 2 },
            StepDelta { d: [0, 0, 0], len: 2 },
        ];
        let mut prog = transpim_dataflow::ir::Program::new();
        prog.push(Step::repeat(40, body, delta));

        let run = |collapse: bool| {
            let mut ex = Executor::new(ArchConfig::new(ArchKind::TransPim));
            ex.set_collapse_repeats(collapse);
            let chrome = ChromeTraceSink::shared();
            let stats = ex.run_with_sink(&prog, SinkHandle::from_shared(chrome.clone()));
            let events = chrome.borrow().sorted_events();
            (stats, events)
        };
        let (full_stats, full_events) = run(false);
        let (col_stats, col_events) = run(true);
        assert_eq!(full_stats, col_stats, "collapsing is a tracing concern only");
        assert!(
            col_events.iter().any(|e| e.name == "repeat x39"),
            "summary span should carry the collapsed count"
        );
        assert!(
            col_events.len() * 4 < full_events.len(),
            "collapsed trace ({}) should be far smaller than full ({})",
            col_events.len(),
            full_events.len()
        );
    }
}
