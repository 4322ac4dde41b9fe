//! One-call simulation of a workload × dataflow × architecture combination.

use crate::arch::ArchConfig;
use crate::error::SimError;
use crate::exec::Executor;
use crate::report::{DataflowKind, SimReport};
use transpim_dataflow::ir::Program;
use transpim_fault::{FaultScenario, FaultSession};
use transpim_obs::SinkHandle;
use transpim_transformer::workload::Workload;

/// A configured memory-based accelerator.
///
/// # Example
///
/// ```
/// use transpim::{Accelerator, ArchConfig, ArchKind, DataflowKind};
/// use transpim_transformer::workload::Workload;
///
/// let mut w = Workload::imdb();
/// w.model.encoder_layers = 1; // keep the doctest fast
/// let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
/// let token = acc.simulate(&w, DataflowKind::Token);
/// let layer = acc.simulate(&w, DataflowKind::Layer);
/// assert!(token.latency_ms() < layer.latency_ms());
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    arch: ArchConfig,
}

impl Accelerator {
    /// Build an accelerator around an architecture configuration.
    pub fn new(arch: ArchConfig) -> Self {
        Self { arch }
    }

    /// The architecture.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Compile `workload` under `dataflow` into a dataflow program for this
    /// architecture's bank count — without pricing it. The returned program
    /// is loop-compressed: decode iterations arrive as
    /// [`transpim_dataflow::ir::Step::Repeat`] steps, so its step count is
    /// O(layers), not O(decode_len × layers). Use
    /// [`transpim_dataflow::ir::Program::unroll`] for the explicit sequence.
    pub fn compile(&self, workload: &Workload, dataflow: DataflowKind) -> Program {
        dataflow.compile(workload, self.arch.hbm.geometry.total_banks())
    }

    /// [`Accelerator::compile`] over the banks `session` leaves healthy:
    /// tokens re-shard over the surviving pool, which the program addresses
    /// renumbered contiguously in ring order. Session validation
    /// guarantees at least one healthy bank. These are the steps
    /// [`Accelerator::simulate_on`] prices, one by one as they compile,
    /// without building the program.
    pub fn compile_degraded(
        &self,
        workload: &Workload,
        dataflow: DataflowKind,
        session: &FaultSession,
    ) -> Program {
        dataflow.compile(workload, self.healthy_banks(session))
    }

    /// The banks `session` leaves healthy.
    fn healthy_banks(&self, session: &FaultSession) -> u32 {
        self.arch.hbm.geometry.total_banks() - session.failed_bank_count()
    }

    /// Compile `workload` under `dataflow` and simulate it.
    ///
    /// # Panics
    ///
    /// If the workload's simulated totals leave the statistics' range
    /// ([`SimError::OutOfRange`]); [`Accelerator::simulate_on`] returns that
    /// error instead.
    pub fn simulate(&self, workload: &Workload, dataflow: DataflowKind) -> SimReport {
        self.simulate_with_sink(workload, dataflow, SinkHandle::null())
    }

    /// Like [`Accelerator::simulate`], with an observability sink attached
    /// to the execution: phase spans, resource occupancy counters and
    /// per-hop ring events stream into `sink` as the program runs. With a
    /// [`SinkHandle::null`] sink this is exactly [`Accelerator::simulate`].
    ///
    /// # Panics
    ///
    /// As [`Accelerator::simulate`].
    pub fn simulate_with_sink(
        &self,
        workload: &Workload,
        dataflow: DataflowKind,
        sink: SinkHandle,
    ) -> SimReport {
        let mut exec = Executor::new(self.arch.clone());
        self.simulate_on(&mut exec, workload, dataflow, &FaultScenario::empty(0), sink)
            .unwrap_or_else(|e| panic!("fault-free simulation failed: {e}"))
    }

    /// Simulate under an injected fault scenario with graceful
    /// degradation (see [`Accelerator::simulate_on`]). An *empty* scenario
    /// produces a report byte-identical to [`Accelerator::simulate`].
    ///
    /// # Errors
    ///
    /// See [`Accelerator::simulate_on`].
    pub fn simulate_degraded(
        &self,
        workload: &Workload,
        dataflow: DataflowKind,
        scenario: &FaultScenario,
    ) -> Result<SimReport, SimError> {
        let mut exec = Executor::new(self.arch.clone());
        self.simulate_on(&mut exec, workload, dataflow, scenario, SinkHandle::null())
    }

    /// Compile `workload` under `dataflow` and simulate it under
    /// `scenario` on a caller-owned [`Executor`], streaming events into
    /// `sink`. Every simulation goes through here; an empty scenario is
    /// the fault-free run.
    ///
    /// Each step is priced as the compiler emits it
    /// ([`Executor::run_streamed`]): the steps are those of
    /// [`Accelerator::compile_degraded`], priced as
    /// [`Executor::run_degraded_with_sink`] prices that program, but no
    /// program is built, so a simulation holds one repeat body of IR
    /// whatever the decode length.
    ///
    /// Degradation reuses the paper's own mechanisms: tokens re-shard
    /// around failed banks, ring traffic re-routes around dead neighbor
    /// links over the shared channel bus (Figure 9's 8T path), stuck
    /// bit-planes serialize the surviving subarrays, broken ACU dividers
    /// fall back to in-array Newton–Raphson, and transient flips are
    /// absorbed by the scenario's ECC scheme. The report carries the fault
    /// accounting in [`SimReport::faults`] exactly when the scenario is
    /// not empty. Fault events appear as instants on a dedicated trace
    /// track, named lazily so fault-free traces never see it.
    ///
    /// Reusing one executor lets its schedule memo amortize across
    /// simulations of the same architecture (e.g. a sweep over sequence
    /// lengths). Priced results and traces are identical to a fresh
    /// executor's: the memo is pure, and the per-hop trace detail each
    /// ring or tree topology gets once is tracked per run. A scenario with
    /// ring-link faults rewires the executor, so it cannot be reused
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`SimError::Scenario`] when the scenario references hardware the
    /// geometry does not have, [`SimError::Uncorrectable`] when a fault
    /// exceeds every degradation policy (no banks survive, a bank's
    /// subarrays all stuck, or an unprotected transient flip),
    /// [`SimError::OutOfRange`] when the workload's simulated totals
    /// exceed what the statistics hold (2^64 ns, pJ, bytes or fault events).
    ///
    /// # Panics
    ///
    /// Panics if `exec` does not price this accelerator's [`ArchConfig`]
    /// (cached schedules would be priced for the wrong machine).
    pub fn simulate_on(
        &self,
        exec: &mut Executor,
        workload: &Workload,
        dataflow: DataflowKind,
        scenario: &FaultScenario,
        sink: SinkHandle,
    ) -> Result<SimReport, SimError> {
        assert!(
            exec.prices_arch(&self.arch),
            "executor architecture does not match accelerator architecture"
        );
        let mut session = FaultSession::new(scenario, self.arch.system_info())?;
        let banks = self.healthy_banks(&session);
        exec.apply_ring_faults(&session);
        let (stats, scoped) =
            exec.run_streamed(&mut session, sink, |out| dataflow.emit(workload, banks, out))?;
        Ok(SimReport {
            system: self.arch.system_label(dataflow.label()),
            arch: self.arch.kind,
            dataflow,
            workload: workload.name.clone(),
            stats,
            scoped,
            total_ops: workload.total_ops(),
            batch: workload.batch,
            faults: (!session.is_empty()).then(|| session.stats()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchKind;
    use transpim_obs::ChromeTraceSink;

    #[test]
    fn simulate_produces_labeled_report() {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 1;
        let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPimNb));
        let r = acc.simulate(&w, DataflowKind::Layer);
        assert_eq!(r.system, "Layer-TransPIM-NB");
        assert_eq!(r.workload, "IMDB");
        assert!(r.latency_ms() > 0.0);
        assert!(r.scoped.get("enc.fc").is_some());
    }

    #[test]
    fn executor_reuse_never_changes_priced_results() {
        // One executor reused across sequence lengths and both dataflows
        // (warm ring/broadcast/tree schedule caches) must price — and
        // trace — exactly what a fresh executor does for every cell.
        let arch = ArchConfig::new(ArchKind::TransPim);
        let acc = Accelerator::new(arch.clone());
        let mut shared = Executor::new(arch.clone());
        let traced = |exec: &mut Executor, w: &Workload, df| {
            let chrome = ChromeTraceSink::shared();
            let sink = SinkHandle::from_shared(chrome.clone());
            let report = acc.simulate_on(exec, w, df, &FaultScenario::empty(0), sink).unwrap();
            let trace = chrome.borrow().to_json_string().unwrap();
            (report, trace)
        };
        for seq_len in [96usize, 192, 96] {
            for df in DataflowKind::ALL {
                let mut w = Workload::synthetic_roberta(seq_len);
                w.model.encoder_layers = 1;
                let reused = acc
                    .simulate_on(&mut shared, &w, df, &FaultScenario::empty(0), SinkHandle::null())
                    .unwrap();
                let fresh = acc.simulate(&w, df);
                assert_eq!(reused.stats, fresh.stats, "{df} @ {seq_len}");
                assert_eq!(reused.scoped, fresh.scoped, "{df} @ {seq_len}");
                let (reused, reused_trace) = traced(&mut shared, &w, df);
                let (fresh, fresh_trace) = traced(&mut Executor::new(arch.clone()), &w, df);
                assert_eq!(reused.stats, fresh.stats, "{df} @ {seq_len}, traced");
                assert!(reused_trace == fresh_trace, "{df} @ {seq_len}: trace bytes differ");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match accelerator architecture")]
    fn executor_reuse_rejects_mismatched_arch() {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 1;
        let mut exec = crate::exec::Executor::new(ArchConfig::new(ArchKind::Nbp));
        let _ = Accelerator::new(ArchConfig::new(ArchKind::TransPim)).simulate_on(
            &mut exec,
            &w,
            DataflowKind::Token,
            &FaultScenario::empty(0),
            SinkHandle::null(),
        );
    }

    #[test]
    fn compiled_decode_programs_scale_with_layers_not_decode_len() {
        // The GPT decode loop compiles to `Repeat` steps: the program's
        // step count is a function of the model depth, not of how many
        // tokens get generated.
        let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
        let mut w = Workload::lm();
        w.decode_len = 128;
        let short = acc.compile(&w, DataflowKind::Token);
        w.decode_len = 4096;
        let long = acc.compile(&w, DataflowKind::Token);
        assert!(long.unrolled_len() > 16 * short.unrolled_len());
        assert!(
            long.len() <= short.len() + 8,
            "step count must not grow with decode_len ({} vs {})",
            long.len(),
            short.len()
        );
        assert!(
            (long.len() as u64) * 1000 < long.unrolled_len(),
            "expected ≥1000× compression at decode_len=4096"
        );
    }

    #[test]
    fn traced_simulation_matches_plain_simulation() {
        let mut w = Workload::imdb();
        w.model.encoder_layers = 1;
        let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
        let plain = acc.simulate(&w, DataflowKind::Token);
        let chrome = ChromeTraceSink::shared();
        let traced = acc.simulate_with_sink(
            &w,
            DataflowKind::Token,
            SinkHandle::from_shared(chrome.clone()),
        );
        assert_eq!(plain.stats, traced.stats);
        let trace = chrome.borrow().to_json_string().unwrap();
        assert!(serde_json::from_str::<serde_json::Value>(&trace).is_ok());
    }
}
