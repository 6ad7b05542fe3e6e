//! Executes a benchmark setup on the fixed-point functional simulator.

use std::path::PathBuf;

use cenn_core::{
    CennSim, FuncEval, Grid, LayerId, ModelError, SimSnapshot, StreamConfig, StreamError, StreamSim,
};
use cenn_lut::LutStats;

use crate::system::SystemSetup;

/// The one engine a runner steps: in-core until a memory budget swaps in
/// the streamed engine. Boxed, so the switch moves a pointer.
#[derive(Debug)]
enum Sim {
    InCore(Box<CennSim>),
    Streamed(Box<StreamSim>),
}

/// Evaluates `$body` with `$e` bound to whichever engine `$sim` holds —
/// both are the same [`cenn_core::Engine`] over different stores.
macro_rules! each {
    ($sim:expr, $e:ident => $body:expr) => {
        match $sim {
            Sim::InCore($e) => $body,
            Sim::Streamed($e) => $body,
        }
    };
}

/// Why [`FixedRunner::sim`] has nothing to hand out.
const STREAMED: &str = "the runner streams under a memory budget: its state lives in the \
                        chunk spool (read it through snapshot() or state_f64())";

/// Drives a [`SystemSetup`] on the hardware-accurate fixed-point simulator:
/// applies initial conditions and external inputs, then steps one engine
/// — in-core, or streamed once a memory budget is set. The model's
/// post-step rule (spike resets) runs inside every step.
///
/// # Examples
///
/// ```
/// use cenn_equations::{DynamicalSystem, FixedRunner, Fisher};
///
/// let setup = Fisher::default().build(8, 16).unwrap();
/// let mut runner = FixedRunner::new(setup).unwrap();
/// runner.run(20);
/// assert_eq!(runner.steps(), 20);
/// ```
#[derive(Debug)]
pub struct FixedRunner {
    sim: Sim,
    setup: SystemSetup,
}

impl FixedRunner {
    /// Creates a runner with LUT-based function evaluation (the hardware
    /// path).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from simulator construction or from
    /// loading initial grids.
    pub fn new(setup: SystemSetup) -> Result<Self, ModelError> {
        Self::with_eval(setup, FuncEval::Lut)
    }

    /// Creates a runner with the chosen evaluation mode ([`FuncEval::Exact`]
    /// isolates fixed-point error for the §6.1 breakdown).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from simulator construction or from
    /// loading initial grids.
    pub fn with_eval(setup: SystemSetup, eval: FuncEval) -> Result<Self, ModelError> {
        let mut sim = CennSim::with_eval(setup.model.clone(), eval)?;
        for (layer, grid) in &setup.initial {
            sim.set_state_f64(*layer, grid)?;
        }
        for (layer, grid) in &setup.inputs {
            sim.set_input_f64(*layer, grid)?;
        }
        Ok(Self {
            sim: Sim::InCore(Box::new(sim)),
            setup,
        })
    }

    /// Switches the runner to streamed out-of-core execution under a
    /// resident-memory budget: the in-core engine's state is spooled to
    /// `spool_dir`, the streamed engine (see [`StreamSim`]) replaces it,
    /// and every subsequent step sweeps the grid in bounded windows with
    /// halo exchange through the spool. Results stay bit-identical to
    /// in-core execution at every thread count. The thread count,
    /// recorder and tracer carry over. Set before the first step, the
    /// switch never builds the in-core engine's whole-grid window: set-up
    /// holds only the setup's grids and the state and input slabs.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unsupported`] when the runner already streams (a
    /// second switch would rewind the run) or the model has non-dynamic
    /// layers; [`StreamError::Io`] on spool failures. On error the runner
    /// keeps stepping the engine it had.
    pub fn set_memory_budget(
        &mut self,
        bytes: u64,
        spool_dir: impl Into<PathBuf>,
    ) -> Result<(), StreamError> {
        let Sim::InCore(sim) = &self.sim else {
            return Err(StreamError::Unsupported(
                "the runner already streams under a memory budget".into(),
            ));
        };
        let cfg = StreamConfig::new(spool_dir).with_memory_budget(bytes);
        self.sim = Sim::Streamed(Box::new(StreamSim::from_sim(sim, cfg)?));
        Ok(())
    }

    /// The streamed engine, when a memory budget is active.
    pub fn stream(&self) -> Option<&StreamSim> {
        match &self.sim {
            Sim::Streamed(s) => Some(s.as_ref()),
            Sim::InCore(_) => None,
        }
    }

    /// The in-core simulator.
    ///
    /// # Panics
    ///
    /// On a streamed runner, whose state lives in the chunk spool.
    pub fn sim(&self) -> &CennSim {
        match &self.sim {
            Sim::InCore(s) => s,
            Sim::Streamed(_) => panic!("{STREAMED}"),
        }
    }

    /// Mutable access to the in-core simulator (fault injection, mid-run
    /// state edits).
    ///
    /// # Panics
    ///
    /// On a streamed runner, whose state lives in the chunk spool.
    pub fn sim_mut(&mut self) -> &mut CennSim {
        match &mut self.sim {
            Sim::InCore(s) => s,
            Sim::Streamed(_) => panic!("{STREAMED}"),
        }
    }

    /// The setup this runner executes.
    pub fn setup(&self) -> &SystemSetup {
        &self.setup
    }

    /// Sets the worker-thread count of the simulator's tile sweeps.
    /// Results are bit-identical for any count.
    pub fn set_threads(&mut self, threads: usize) {
        each!(&mut self.sim, s => s.set_threads(threads));
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        each!(&self.sim, s => s.steps())
    }

    /// Simulated time `t`.
    pub fn time(&self) -> f64 {
        each!(&self.sim, s => s.time())
    }

    /// Cumulative wall-clock nanoseconds spent stepping.
    pub fn run_nanos(&self) -> u64 {
        each!(&self.sim, s => s.run_nanos())
    }

    /// Largest resident working set so far, bytes (see
    /// [`cenn_core::Engine::peak_resident_bytes`]).
    pub fn peak_resident_bytes(&self) -> u64 {
        each!(&self.sim, s => s.peak_resident_bytes())
    }

    /// Bytes spilled to the chunk spool so far; zero in-core.
    pub fn spill_bytes(&self) -> u64 {
        each!(&self.sim, s => s.spill_bytes())
    }

    /// Advances one step; returns the number of cells the model's
    /// post-step rule fired on (spikes), or 0 when there is no rule.
    ///
    /// # Panics
    ///
    /// In streamed mode, on spool I/O failure (the journal still reflects
    /// the last completed window, so the spool remains recoverable).
    pub fn step(&mut self) -> usize {
        let report = match &mut self.sim {
            Sim::InCore(s) => s.step(),
            Sim::Streamed(s) => s.step().expect("streamed step: spool I/O failed"),
        };
        report.fired as usize
    }

    /// Runs `n` steps; returns total fired cells.
    pub fn run(&mut self, n: u64) -> usize {
        (0..n).map(|_| self.step()).sum()
    }

    /// Runs `n` steps under a [`cenn_guard::Guard`]: the guard scrubs and
    /// checkpoints on its cadence, injects any scheduled faults, and
    /// recovers per its policy.
    ///
    /// # Errors
    ///
    /// Propagates [`cenn_guard::GuardError`] when the guard aborts or
    /// cannot recover.
    ///
    /// # Panics
    ///
    /// On a streamed runner: guarded execution is in-core only (streamed
    /// mode has its own journal and spool recovery path).
    pub fn run_guarded(
        &mut self,
        guard: &mut cenn_guard::Guard,
        n: u64,
    ) -> Result<cenn_guard::GuardReport, cenn_guard::GuardError> {
        guard.run(self.sim_mut(), n)
    }

    /// A bit-exact snapshot of the current state, assembled from the
    /// chunk spool in streamed mode.
    ///
    /// # Errors
    ///
    /// In streamed mode, on spool read failure.
    pub fn snapshot(&self) -> Result<SimSnapshot, StreamError> {
        match &self.sim {
            Sim::InCore(s) => Ok(s.snapshot()),
            Sim::Streamed(s) => s.snapshot(),
        }
    }

    /// A layer's state as `f64`.
    ///
    /// # Panics
    ///
    /// In streamed mode, on spool read failure.
    pub fn state_f64(&self, layer: LayerId) -> Grid<f64> {
        match &self.sim {
            Sim::InCore(s) => s.state_f64(layer),
            Sim::Streamed(s) => s.state_f64(layer).expect("streamed state: spool read"),
        }
    }

    /// The observed layers' states with their display names (the maps the
    /// Fig. 11 accuracy study compares).
    pub fn observed_states(&self) -> Vec<(&'static str, Grid<f64>)> {
        self.setup
            .observed
            .iter()
            .map(|(id, name)| (*name, self.state_f64(*id)))
            .collect()
    }

    /// Cumulative LUT statistics.
    pub fn lut_stats(&self) -> LutStats {
        each!(&self.sim, s => s.lut_stats())
    }

    /// Measured `(mr_L1, mr_L2)`.
    pub fn miss_rates(&self) -> (f64, f64) {
        each!(&self.sim, s => s.miss_rates())
    }

    /// Resets LUT statistics (after warm-up).
    pub fn reset_lut_stats(&mut self) {
        each!(&mut self.sim, s => s.reset_lut_stats());
    }

    /// Attaches a metric recorder to the simulator: every step emits a
    /// [`cenn_obs::StepMetrics`] event through it.
    pub fn set_recorder(&mut self, recorder: cenn_obs::RecorderHandle) {
        each!(&mut self.sim, s => s.set_recorder(recorder));
    }

    /// Emits the end-of-run [`cenn_obs::RunSummary`] event (no-op without
    /// an enabled recorder). In streamed mode the summary carries the
    /// measured `peak_resident_bytes` / `spill_bytes` of the window
    /// engine.
    pub fn record_summary(&self) {
        each!(&self.sim, s => s.record_summary());
    }

    /// Attaches a span tracer to the simulator: sweeps record
    /// phase-attributed spans (`lut_lookup`, `template_apply`,
    /// `integrate`, `halo_sync`) into its histograms.
    pub fn set_tracer(&mut self, tracer: cenn_obs::TraceHandle) {
        each!(&mut self.sim, s => s.set_tracer(tracer));
    }

    /// Emits one `span_summary` event per active phase (no-op without
    /// both a tracer and an enabled recorder).
    pub fn record_span_summaries(&self) {
        each!(&self.sim, s => s.record_span_summaries());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DynamicalSystem;
    use crate::{Fisher, Heat, Izhikevich, NavierStokes};

    #[test]
    fn runner_loads_initial_conditions() {
        let setup = Heat::default().build(9, 9).unwrap();
        let expected_peak = setup.initial[0].1.get(4, 4);
        let runner = FixedRunner::new(setup).unwrap();
        let (name, phi) = &runner.observed_states()[0];
        assert_eq!(*name, "phi");
        assert!((phi.get(4, 4) - expected_peak).abs() < 1e-4);
    }

    #[test]
    fn step_counts_spikes_only_for_hybrid_systems() {
        let setup = Heat::default().build(8, 8).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        assert_eq!(runner.step(), 0, "heat never 'fires'");

        let setup = Izhikevich::default().build(2, 2).unwrap();
        let mut runner = FixedRunner::new(setup).unwrap();
        let fired = runner.run(1200);
        assert!(fired > 0, "izhikevich grid fired {fired} spikes");
    }

    #[test]
    fn memory_budget_mode_matches_in_core_states() {
        let sys = Fisher::default();
        let mut in_core = FixedRunner::new(sys.build(24, 16).unwrap()).unwrap();
        let mut streamed = FixedRunner::new(sys.build(24, 16).unwrap()).unwrap();
        let spool = std::env::temp_dir().join(format!("cenn_runner_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        // Budget far below the full state slab forces several windows.
        streamed.set_memory_budget(8 * 1024, &spool).unwrap();
        let s = streamed.stream().unwrap();
        assert!(s.n_windows() > 1, "budget forces windowing");
        in_core.run(10);
        streamed.run(10);
        assert_eq!(streamed.steps(), 10);
        let a = in_core.state_f64(LayerId::from_index(0));
        let b = streamed.state_f64(LayerId::from_index(0));
        for r in 0..24 {
            for c in 0..16 {
                assert_eq!(a.get(r, c).to_bits(), b.get(r, c).to_bits());
            }
        }
        assert_eq!(in_core.lut_stats(), streamed.lut_stats());
        let _ = std::fs::remove_dir_all(&spool);
    }

    fn spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cenn_runner_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_budget_streams_spike_resets_like_in_core() {
        let sys = Izhikevich::default();
        let mut in_core = FixedRunner::new(sys.build(24, 16).unwrap()).unwrap();
        let mut streamed = FixedRunner::new(sys.build(24, 16).unwrap()).unwrap();
        let dir = spool("spikes");
        streamed.set_memory_budget(8 * 1024, &dir).unwrap();
        assert!(streamed.stream().unwrap().n_windows() > 1);
        let mut fired = 0;
        for step in 0..300 {
            let n = in_core.step();
            assert_eq!(streamed.step(), n, "fired cells at step {step}");
            fired += n;
        }
        assert!(fired > 0, "the grid spiked");
        assert_eq!(streamed.snapshot().unwrap(), in_core.snapshot().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_budget_carries_threads_recorder_and_tracer() {
        let mut runner = FixedRunner::new(Fisher::default().build(24, 16).unwrap()).unwrap();
        let (recorder, events) = cenn_obs::RecorderHandle::in_memory(true);
        let tracer = cenn_obs::TraceHandle::histograms_only();
        runner.set_threads(3);
        runner.set_recorder(recorder);
        runner.set_tracer(tracer.clone());
        let dir = spool("carry");
        runner.set_memory_budget(8 * 1024, &dir).unwrap();
        runner.run(2);
        let stream = runner.stream().unwrap();
        assert_eq!(stream.threads(), 3);
        assert_eq!(
            events.lock().unwrap().events().len(),
            2,
            "one step event per step"
        );
        let integrate = tracer.with(|c| c.phase_count(cenn_obs::Phase::Integrate));
        assert_eq!(integrate, 2 * stream.n_windows() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_runner_resets_its_own_lut_stats() {
        let mut runner = FixedRunner::new(Fisher::default().build(24, 16).unwrap()).unwrap();
        let dir = spool("reset");
        runner.set_memory_budget(8 * 1024, &dir).unwrap();
        runner.run(3);
        assert!(runner.lut_stats().accesses > 0);
        runner.reset_lut_stats();
        assert_eq!(runner.lut_stats().accesses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_memory_budget_is_refused_without_rewinding() {
        let mut runner = FixedRunner::new(Fisher::default().build(24, 16).unwrap()).unwrap();
        let dir = spool("twice");
        runner.set_memory_budget(8 * 1024, &dir).unwrap();
        runner.run(10);
        let windows = runner.stream().unwrap().n_windows();
        assert!(matches!(
            runner.set_memory_budget(4 * 1024, &dir),
            Err(StreamError::Unsupported(_))
        ));
        assert_eq!(runner.steps(), 10);
        assert_eq!(runner.stream().unwrap().n_windows(), windows);
        runner.run(1);
        assert_eq!(runner.snapshot().unwrap().steps, 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "chunk spool")]
    fn sim_of_a_streamed_runner_panics() {
        let mut runner = FixedRunner::new(Fisher::default().build(8, 8).unwrap()).unwrap();
        let dir = spool("stale");
        runner.set_memory_budget(4 * 1024, &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        runner.sim();
    }

    #[test]
    fn rejected_switch_keeps_stepping_in_core() {
        let sys = NavierStokes::default();
        let mut runner = FixedRunner::new(sys.build(16, 16).unwrap()).unwrap();
        let mut reference = FixedRunner::new(sys.build(16, 16).unwrap()).unwrap();
        let dir = spool("algebraic");
        assert!(matches!(
            runner.set_memory_budget(8 * 1024, &dir),
            Err(StreamError::Unsupported(_))
        ));
        assert!(runner.stream().is_none());
        runner.run(3);
        reference.run(3);
        assert_eq!(runner.steps(), 3);
        assert_eq!(runner.sim().snapshot(), reference.sim().snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eval_modes_produce_different_trajectories_for_lut_heavy_systems() {
        use crate::HodgkinHuxley;
        let sys = HodgkinHuxley {
            coupling: 0.0,
            ..Default::default()
        };
        let a = FixedRunner::with_eval(sys.build(1, 1).unwrap(), FuncEval::Lut).unwrap();
        let b = FixedRunner::with_eval(sys.build(1, 1).unwrap(), FuncEval::Exact).unwrap();
        let (mut a, mut b) = (a, b);
        a.run(500);
        b.run(500);
        let va = a.observed_states()[0].1.get(0, 0);
        let vb = b.observed_states()[0].1.get(0, 0);
        // Exp-based rate LUTs introduce a visible (but bounded) deviation.
        assert!(va != vb, "LUT error must be visible for HH");
        assert!((va - vb).abs() < 30.0, "but bounded: {va} vs {vb}");
    }
}
