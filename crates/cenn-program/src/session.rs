//! The execution session: functional simulation feeding the cycle model.

use cenn_arch::{BankTrafficModel, CycleModel, MemorySpec, PeArrayConfig, RunEstimate};
use cenn_core::{CennModel, CennSim, FuncEval, LayerId, LayerView, ModelError};
use cenn_obs::{Event, RecorderHandle};
use fixedpt::Q16_16;

use crate::bitstream::{Program, ProgramError};

/// A programmed solver: the paper's end-to-end flow in one object.
///
/// 1. **Program** — the model is compiled to its bitstream image
///    ([`Program`]), which is what would be pushed into the chip (§3).
/// 2. **Execute** — the functional fixed-point simulator evolves the
///    system while the LUT hierarchy records its access trace.
/// 3. **Estimate** — the measured `mr_L1`/`mr_L2` feed the cycle-level
///    model to produce timing/energy (§6.3's methodology).
///
/// # Examples
///
/// ```
/// use cenn_program::SolverSession;
/// use cenn_arch::MemorySpec;
/// use cenn_equations::{DynamicalSystem, Fisher};
///
/// let setup = Fisher::default().build(32, 32).unwrap();
/// let mut s = SolverSession::new(setup.model.clone(), MemorySpec::hmc_int()).unwrap();
/// for (layer, field) in &setup.initial {
///     s.sim_mut().set_state_f64(*layer, &field.to_grid(32, 32).unwrap()).unwrap();
/// }
/// s.run(20);
/// let est = s.estimate();
/// assert!(est.time_per_step_s() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SolverSession {
    program: Program,
    sim: CennSim,
    cycle: CycleModel,
}

impl SolverSession {
    /// Programs a solver for `model` against the given memory system.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Program`] if the model cannot be compiled to
    /// a bitstream (e.g. non-power-of-two grid) and [`SessionError::Model`]
    /// for simulator-construction failures.
    pub fn new(model: CennModel, mem: MemorySpec) -> Result<Self, SessionError> {
        let program = Program::from_model(&model)?;
        let sim = CennSim::with_eval(model, FuncEval::Lut)?;
        Ok(Self {
            program,
            sim,
            cycle: CycleModel::new(mem, PeArrayConfig::default()),
        })
    }

    /// The compiled program image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The functional simulator (read).
    pub fn sim(&self) -> &CennSim {
        &self.sim
    }

    /// The functional simulator (write: set states/inputs).
    pub fn sim_mut(&mut self) -> &mut CennSim {
        &mut self.sim
    }

    /// The cycle model in use.
    pub fn cycle_model(&self) -> &CycleModel {
        &self.cycle
    }

    /// Swaps the memory system (for the Fig. 13 → Fig. 14 sweep).
    pub fn set_memory(&mut self, mem: MemorySpec) {
        self.cycle = CycleModel::new(mem, self.cycle.pe_config().clone());
    }

    /// Sets the worker-thread count of the functional simulator's shard
    /// sweeps. Results (states and LUT statistics) are bit-identical for
    /// any count — see the determinism contract in `DESIGN.md`.
    pub fn set_threads(&mut self, threads: usize) {
        self.sim.set_threads(threads);
    }

    /// Worker threads of the functional simulator.
    pub fn threads(&self) -> usize {
        self.sim.threads()
    }

    /// Runs `n` functional steps.
    pub fn run(&mut self, n: u64) {
        self.sim.run(n);
    }

    /// Runs `n` functional steps under a [`cenn_guard::Guard`]: the guard
    /// scrubs LUTs and checkpoints on its cadence, injects any scheduled
    /// faults, and recovers per its policy. Cycle-level estimation is
    /// unaffected — it reads the measured miss rates, which include any
    /// replayed traffic.
    ///
    /// # Errors
    ///
    /// Propagates [`cenn_guard::GuardError`] when the guard aborts or
    /// cannot recover.
    pub fn run_guarded(
        &mut self,
        guard: &mut cenn_guard::Guard,
        n: u64,
    ) -> Result<cenn_guard::GuardReport, cenn_guard::GuardError> {
        guard.run(&mut self.sim, n)
    }

    /// A layer's state (a zero-copy view into the state slab).
    pub fn state(&self, layer: LayerId) -> LayerView<'_, Q16_16> {
        self.sim.state(layer)
    }

    /// Measured miss rates so far.
    pub fn miss_rates(&self) -> (f64, f64) {
        self.sim.miss_rates()
    }

    /// Produces the cycle-level estimate at the measured miss rates.
    pub fn estimate(&self) -> RunEstimate {
        self.cycle.estimate(self.sim.model(), self.sim.miss_rates())
    }

    /// Produces an estimate at explicitly supplied miss rates (parameter
    /// sweeps without re-running the functional simulation).
    pub fn estimate_at(&self, miss_rates: (f64, f64)) -> RunEstimate {
        self.cycle.estimate(self.sim.model(), miss_rates)
    }

    /// Attaches a metric recorder (builder form): every step emits a
    /// [`cenn_obs::StepMetrics`] event through it. See
    /// [`CennSim::set_recorder`].
    #[must_use]
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.sim.set_recorder(recorder);
        self
    }

    /// Attaches a metric recorder in place.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.sim.set_recorder(recorder);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&RecorderHandle> {
        self.sim.recorder()
    }

    /// Emits the end-of-run [`cenn_obs::RunSummary`] event (no-op without
    /// an enabled recorder).
    pub fn record_summary(&self) {
        self.sim.record_summary();
    }

    /// Emits one [`cenn_obs::MemTraffic`] event for the cycle-level
    /// estimate at the measured miss rates, including the global-buffer
    /// bank-traffic split under the OS dataflow. `label` names the row
    /// (conventionally the memory system). No-op without an enabled
    /// recorder.
    pub fn record_estimate(&self, label: &str) {
        let Some(rec) = self.sim.recorder() else {
            return;
        };
        if !rec.enabled() {
            return;
        }
        let est = self.estimate();
        let banks = BankTrafficModel::new(self.cycle.pe_config().clone())
            .step_traffic(self.sim.model(), true);
        rec.record(&Event::MemTraffic(est.to_mem_traffic(label, Some(banks))));
    }
}

/// Errors from building a [`SolverSession`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Program compilation failed.
    Program(ProgramError),
    /// Simulator construction failed.
    Model(ModelError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Program(e) => write!(f, "program compilation failed: {e}"),
            Self::Model(e) => write!(f, "model setup failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Program(e) => Some(e),
            Self::Model(e) => Some(e),
        }
    }
}

impl From<ProgramError> for SessionError {
    fn from(e: ProgramError) -> Self {
        Self::Program(e)
    }
}

impl From<ModelError> for SessionError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenn_equations::{DynamicalSystem, Fisher, Heat};

    #[test]
    fn session_programs_and_estimates() {
        let setup = Fisher::default().build(32, 32).unwrap();
        let mut s = SolverSession::new(setup.model.clone(), MemorySpec::ddr3()).unwrap();
        for (layer, field) in &setup.initial {
            s.sim_mut()
                .set_state_f64(*layer, &field.to_grid(32, 32).unwrap())
                .unwrap();
        }
        s.run(10);
        let (mr1, _) = s.miss_rates();
        assert!(mr1 > 0.0, "fisher looks up the square LUT");
        let est = s.estimate();
        assert!(est.time_per_step_s() > 0.0);
        assert!(est.timing().stall_cycles > 0.0);
        assert!(s.program().encoded_len() > 16);
    }

    #[test]
    fn threaded_session_matches_serial_states_and_rates() {
        let setup = Fisher::default().build(32, 32).unwrap();
        let mut serial = SolverSession::new(setup.model.clone(), MemorySpec::ddr3()).unwrap();
        let mut par = SolverSession::new(setup.model.clone(), MemorySpec::ddr3()).unwrap();
        par.set_threads(4);
        assert_eq!(par.threads(), 4);
        for (layer, field) in &setup.initial {
            let grid = field.to_grid(32, 32).unwrap();
            serial.sim_mut().set_state_f64(*layer, &grid).unwrap();
            par.sim_mut().set_state_f64(*layer, &grid).unwrap();
        }
        serial.run(10);
        par.run(10);
        for (layer, _) in &setup.initial {
            assert_eq!(
                serial.state(*layer).as_slice(),
                par.state(*layer).as_slice()
            );
        }
        assert_eq!(serial.miss_rates(), par.miss_rates());
    }

    #[test]
    fn session_recorder_captures_run_and_estimate() {
        let setup = Fisher::default().build(32, 32).unwrap();
        let (handle, reader) = cenn_obs::RecorderHandle::in_memory(true);
        let mut s = SolverSession::new(setup.model.clone(), MemorySpec::ddr3())
            .unwrap()
            .with_recorder(handle);
        for (layer, field) in &setup.initial {
            s.sim_mut()
                .set_state_f64(*layer, &field.to_grid(32, 32).unwrap())
                .unwrap();
        }
        s.run(5);
        s.record_summary();
        s.record_estimate("ddr3");
        let rec = reader.lock().unwrap();
        assert_eq!(rec.events().len(), 7, "5 steps + summary + estimate");
        let summary = rec.summary().expect("summary present");
        assert_eq!(summary.steps, 5);
        let (mr1, mr2) = s.miss_rates();
        assert_eq!(summary.mr_l1, mr1, "summary reproduces measured rates");
        assert_eq!(summary.mr_l2, mr2);
        let mem = rec
            .events()
            .iter()
            .find_map(|e| match e {
                cenn_obs::Event::MemTraffic(m) => Some(m),
                _ => None,
            })
            .expect("estimate event present");
        assert_eq!(mem.label, "ddr3");
        let est = s.estimate();
        assert_eq!(mem.conv_cycles, est.timing().conv_cycles);
        assert_eq!(mem.stall_cycles, est.timing().stall_cycles);
        assert_eq!(mem.energy_j, est.energy_per_step_j());
        assert!(mem.primary_reads > 0, "bank split populated");
        // Every event round-trips the frozen schema.
        for line in rec.to_jsonl().lines() {
            cenn_obs::validate_jsonl_line(line).unwrap();
        }
    }

    #[test]
    fn memory_swap_speeds_up_the_estimate() {
        let setup = Fisher::default().build(32, 32).unwrap();
        let mut s = SolverSession::new(setup.model.clone(), MemorySpec::ddr3()).unwrap();
        s.run(5);
        let ddr = s.estimate().time_per_step_s();
        s.set_memory(MemorySpec::hmc_int());
        let hmc = s.estimate().time_per_step_s();
        assert!(hmc < ddr, "hmc {hmc} vs ddr {ddr}");
    }

    #[test]
    fn non_power_of_two_grid_fails_cleanly() {
        let setup = Heat::default().build(48, 48).unwrap();
        let err = SolverSession::new(setup.model, MemorySpec::ddr3()).unwrap_err();
        assert!(matches!(err, SessionError::Program(_)));
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn estimate_at_sweeps_without_rerunning() {
        let setup = Fisher::default().build(32, 32).unwrap();
        let s = SolverSession::new(setup.model, MemorySpec::ddr3()).unwrap();
        let low = s.estimate_at((0.1, 0.1)).time_per_step_s();
        let high = s.estimate_at((0.9, 0.9)).time_per_step_s();
        assert!(high > low);
    }
}
