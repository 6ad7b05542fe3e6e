//! Executes a benchmark setup on the fixed-point functional simulator.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};

use cenn_core::{
    CennSim, Engine, Fields, FuncEval, Grid, LayerId, ModelError, SimSnapshot, StreamConfig,
    StreamError, StreamSim,
};
use cenn_lut::LutStats;
use fixedpt::Q16_16;

use crate::system::SystemSetup;

/// The one engine a runner steps: in-core, or streamed under a memory
/// budget. Boxed, so a switch moves a pointer.
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

/// Applies a setting through `$e`: to the engine once it is built, else to
/// the unstarted engine it will start from. A setting never builds it.
macro_rules! setting {
    ($runner:expr, $e:ident => $body:expr) => {{
        let seed = $runner
            .seed
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        match ($runner.sim.get_mut(), seed.as_deref_mut()) {
            (Some(Sim::InCore($e)), _) => $body,
            (Some(Sim::Streamed($e)), _) => $body,
            (None, Some($e)) => $body,
            (None, None) => unreachable!("{UNBUILT}"),
        }
    }};
}

/// A runner keeps its unstarted engine until the engine is built.
const UNBUILT: &str = "a runner holds its unstarted engine until it builds one";

/// Why [`FixedRunner::sim`] has nothing to hand out.
const STREAMED: &str = "the runner streams under a memory budget: its state lives in the \
                        chunk spool (read it through snapshot() or state_f64())";

/// Drives a [`SystemSetup`] on the hardware-accurate fixed-point simulator:
/// applies initial conditions and external inputs, then steps one engine
/// — in-core, or streamed once a memory budget is set. The model's
/// post-step rule (spike resets) runs inside every step.
///
/// The engine is built on first use. [`new`](Self::new) checks the setup
/// and builds the LUT hierarchy, but no whole-grid slab: a
/// [`set_memory_budget`](Self::set_memory_budget) before the first step
/// writes the setup's fields straight into a chunk spool, and anything
/// else that needs the engine (a step, a state read, [`sim`](Self::sim))
/// starts it in-core. Threads, recorder and tracer set before that carry
/// over.
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
    /// The engine, once built (see [`engine`](Self::engine)).
    sim: OnceLock<Sim>,
    /// Until then, the unstarted engine: the checked program, its LUT
    /// hierarchy and the setup's fields, with the settings made so far.
    /// Behind a mutex so that a first read through `&self` can move it
    /// into the engine it starts. Only `take` runs under the lock, so a
    /// poisoned lock still holds a valid value and is recovered as is.
    seed: Mutex<Option<Box<Engine<Fields>>>>,
    setup: SystemSetup,
}

impl FixedRunner {
    /// Creates a runner with LUT-based function evaluation (the hardware
    /// path).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from LUT generation, and from checking
    /// the setup's fields against the model (unknown layers, grid shapes).
    pub fn new(setup: SystemSetup) -> Result<Self, ModelError> {
        Self::with_eval(setup, FuncEval::Lut)
    }

    /// Creates a runner with the chosen evaluation mode ([`FuncEval::Exact`]
    /// isolates fixed-point error for the §6.1 breakdown).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from LUT generation, and from checking
    /// the setup's fields against the model (unknown layers, grid shapes).
    pub fn with_eval(setup: SystemSetup, eval: FuncEval) -> Result<Self, ModelError> {
        let seed = Engine::unstarted(setup.model.clone(), eval, &setup.initial, &setup.inputs)?;
        Ok(Self {
            sim: OnceLock::new(),
            seed: Mutex::new(Some(Box::new(seed))),
            setup,
        })
    }

    /// The engine, started in-core from the unstarted one on first use.
    fn engine(&self) -> &Sim {
        self.sim.get_or_init(|| {
            let seed = self
                .seed
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            Sim::InCore(Box::new(CennSim::start(*seed.expect(UNBUILT))))
        })
    }

    /// [`engine`](Self::engine) for mutation.
    fn engine_mut(&mut self) -> &mut Sim {
        self.engine();
        self.sim.get_mut().expect("built above")
    }

    /// Switches the runner to streamed out-of-core execution under a
    /// resident-memory budget, spooling to `spool_dir`: every subsequent
    /// step sweeps the grid in bounded windows with halo exchange through
    /// the spool. Results stay bit-identical to in-core execution at every
    /// thread count. The thread count, recorder and tracer carry over.
    ///
    /// Set before the engine is built (see [`FixedRunner`]), the switch
    /// writes the setup's fields into the spool window by window, and the
    /// run never holds a whole-grid grid or slab. Set after in-core steps,
    /// it spools the in-core engine's state and replaces that engine.
    ///
    /// # Errors
    ///
    /// [`StreamError::Unsupported`] when the runner already streams (a
    /// second switch would rewind the run) or the model has non-dynamic
    /// layers; [`StreamError::Io`] on spool failures. On error the runner
    /// keeps the engine it had, built or not.
    pub fn set_memory_budget(
        &mut self,
        bytes: u64,
        spool_dir: impl Into<PathBuf>,
    ) -> Result<(), StreamError> {
        let cfg = StreamConfig::new(spool_dir).with_memory_budget(bytes);
        let seed = self.seed.get_mut().unwrap_or_else(PoisonError::into_inner);
        let streamed = match (self.sim.get(), seed.as_deref()) {
            (Some(Sim::Streamed(_)), _) => {
                return Err(StreamError::Unsupported(
                    "the runner already streams under a memory budget".into(),
                ))
            }
            (Some(Sim::InCore(sim)), _) => StreamSim::from_sim(sim, cfg)?,
            (None, Some(seed)) => StreamSim::start(seed, cfg)?,
            (None, None) => unreachable!("{UNBUILT}"),
        };
        *seed = None;
        self.sim = OnceLock::from(Sim::Streamed(Box::new(streamed)));
        Ok(())
    }

    /// The streamed engine, when a memory budget is active.
    pub fn stream(&self) -> Option<&StreamSim> {
        match self.sim.get() {
            Some(Sim::Streamed(s)) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// The in-core simulator.
    ///
    /// # Panics
    ///
    /// On a streamed runner, whose state lives in the chunk spool.
    pub fn sim(&self) -> &CennSim {
        match self.engine() {
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
        match self.engine_mut() {
            Sim::InCore(s) => s,
            Sim::Streamed(_) => panic!("{STREAMED}"),
        }
    }

    /// The setup this runner executes.
    pub fn setup(&self) -> &SystemSetup {
        &self.setup
    }

    /// Sets the worker-thread count of the simulator's shard sweeps.
    /// Results are bit-identical for any count.
    pub fn set_threads(&mut self, threads: usize) {
        setting!(self, s => s.set_threads(threads));
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        each!(self.engine(), s => s.steps())
    }

    /// Simulated time `t`.
    pub fn time(&self) -> f64 {
        each!(self.engine(), s => s.time())
    }

    /// Cumulative wall-clock nanoseconds spent stepping.
    pub fn run_nanos(&self) -> u64 {
        each!(self.engine(), s => s.run_nanos())
    }

    /// Largest resident working set so far, bytes (see
    /// [`cenn_core::Engine::peak_resident_bytes`]).
    pub fn peak_resident_bytes(&self) -> u64 {
        each!(self.engine(), s => s.peak_resident_bytes())
    }

    /// Bytes spilled to the chunk spool so far; zero in-core.
    pub fn spill_bytes(&self) -> u64 {
        each!(self.engine(), s => s.spill_bytes())
    }

    /// Advances one step; returns the number of cells the model's
    /// post-step rule fired on (spikes), or 0 when there is no rule.
    ///
    /// # Panics
    ///
    /// In streamed mode, on spool I/O failure (the journal still reflects
    /// the last completed window, so the spool remains recoverable).
    pub fn step(&mut self) -> usize {
        let report = match self.engine_mut() {
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
        match self.engine() {
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
        match self.engine() {
            Sim::InCore(s) => s.state_f64(layer),
            Sim::Streamed(s) => s.state_f64(layer).expect("streamed state: spool read"),
        }
    }

    /// Folds the current state into its digest —
    /// [`cenn_core::snapshot_digest`] of [`snapshot`](Self::snapshot) —
    /// handing every chunk of cells to `visit(layer, cells)` on the way:
    /// each layer in turn, its cells in row order. Streamed, it reads the
    /// spool one chunk at a time, so a budgeted run learns its digest and
    /// whatever `visit` folds (per-layer ranges, say) without assembling
    /// the grid.
    ///
    /// # Errors
    ///
    /// In streamed mode, on spool read failure.
    pub fn fold_state(&self, visit: impl FnMut(usize, &[Q16_16])) -> Result<u64, StreamError> {
        match self.engine() {
            Sim::InCore(s) => s.fold_state(visit).map_err(|e| match e {}),
            Sim::Streamed(s) => s.fold_state(visit),
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
        each!(self.engine(), s => s.lut_stats())
    }

    /// Measured `(mr_L1, mr_L2)`.
    pub fn miss_rates(&self) -> (f64, f64) {
        each!(self.engine(), s => s.miss_rates())
    }

    /// Resets LUT statistics (after warm-up).
    pub fn reset_lut_stats(&mut self) {
        setting!(self, s => s.reset_lut_stats());
    }

    /// Attaches a metric recorder to the simulator: every step emits a
    /// [`cenn_obs::StepMetrics`] event through it.
    pub fn set_recorder(&mut self, recorder: cenn_obs::RecorderHandle) {
        setting!(self, s => s.set_recorder(recorder));
    }

    /// Emits the end-of-run [`cenn_obs::RunSummary`] event (no-op without
    /// an enabled recorder). In streamed mode the summary carries the
    /// measured `peak_resident_bytes` / `spill_bytes` of the window
    /// engine.
    pub fn record_summary(&self) {
        each!(self.engine(), s => s.record_summary());
    }

    /// Attaches a span tracer to the simulator: sweeps record
    /// phase-attributed spans (`lut_lookup`, `template_apply`,
    /// `integrate`, `halo_sync`) into its histograms.
    pub fn set_tracer(&mut self, tracer: cenn_obs::TraceHandle) {
        setting!(self, s => s.set_tracer(tracer));
    }

    /// Emits one `span_summary` event per active phase (no-op without
    /// both a tracer and an enabled recorder).
    pub fn record_span_summaries(&self) {
        each!(self.engine(), s => s.record_span_summaries());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::DynamicalSystem;
    use crate::{
        Burgers, Fisher, GrayScott, Heat, HodgkinHuxley, Izhikevich, NavierStokes,
        ReactionDiffusion, Wave,
    };

    #[test]
    fn heat_fisher_and_hh_layers_add_without_saturating() {
        let systems: [&dyn DynamicalSystem; 3] = [
            &Heat::default(),
            &Fisher::default(),
            &HodgkinHuxley::default(),
        ];
        for system in systems {
            let runner = FixedRunner::new(system.build(16, 16).unwrap()).unwrap();
            let layers = runner.sim().unsaturated_layers();
            assert!(layers.iter().all(|&u| u), "{}: {layers:?}", system.name());
        }
    }

    #[test]
    fn every_registry_lut_takes_the_tum_plain_adds() {
        let systems: [&dyn DynamicalSystem; 9] = [
            &Burgers::default(),
            &Fisher::default(),
            &GrayScott::default(),
            &Heat::default(),
            &HodgkinHuxley::default(),
            &Izhikevich::default(),
            &NavierStokes::default(),
            &ReactionDiffusion::default(),
            &Wave::default(),
        ];
        for system in systems {
            let runner = FixedRunner::new(system.build(16, 16).unwrap()).unwrap();
            let tables = runner.sim().lut_exact_adds();
            assert!(tables.iter().all(|&e| e), "{}: {tables:?}", system.name());
            if ["fisher", "gray-scott", "hodgkin-huxley", "izhikevich"].contains(&system.name()) {
                assert!(!tables.is_empty(), "{} has LUT tables", system.name());
            }
        }
    }

    #[test]
    fn runner_loads_initial_conditions() {
        let setup = Heat::default().build(9, 9).unwrap();
        let expected_peak = setup.initial[0].1.at(4, 4);
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

    /// Each layer's raw `[min, max]` as [`FixedRunner::fold_state`] folds
    /// it, and the digest.
    fn folded(runner: &FixedRunner) -> (u64, Vec<(i32, i32)>) {
        let mut ranges = vec![(i32::MAX, i32::MIN); runner.setup().model.n_layers()];
        let digest = runner
            .fold_state(|l, cells| {
                for v in cells {
                    ranges[l].0 = ranges[l].0.min(v.to_bits());
                    ranges[l].1 = ranges[l].1.max(v.to_bits());
                }
            })
            .unwrap();
        (digest, ranges)
    }

    #[test]
    fn streamed_fold_matches_the_snapshot_digest_and_ranges() {
        use crate::HodgkinHuxley;
        use cenn_core::{snapshot_digest, Integrator};
        let hh = HodgkinHuxley::default().build(24, 16).unwrap();
        let hh_heun = SystemSetup {
            model: hh.model.clone_with_integrator(Integrator::Heun),
            ..hh
        };
        let setups = [
            ("fisher", Fisher::default().build(24, 16).unwrap()),
            ("izhikevich", Izhikevich::default().build(24, 16).unwrap()),
            ("hh-heun", hh_heun),
        ];
        for (name, setup) in setups {
            let mut in_core = FixedRunner::new(setup.clone()).unwrap();
            let mut streamed = FixedRunner::new(setup).unwrap();
            let dir = spool(&format!("fold_{name}"));
            streamed.set_memory_budget(8 * 1024, &dir).unwrap();
            assert!(streamed.stream().unwrap().n_windows() > 1, "{name}");
            in_core.run(20);
            streamed.run(20);
            let (digest, ranges) = folded(&streamed);
            let snap = streamed.snapshot().unwrap();
            assert_eq!(digest, snapshot_digest(&snap), "{name}");
            for (l, bits) in snap.states.iter().enumerate() {
                let lo = bits.iter().copied().min().unwrap();
                let hi = bits.iter().copied().max().unwrap();
                assert_eq!(ranges[l], (lo, hi), "{name} layer {l}");
            }
            assert_eq!((digest, ranges), folded(&in_core), "{name}: in-core");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn reads_before_the_first_step_see_the_seeded_state() {
        let setup = Izhikevich::default().build(12, 10).unwrap();
        let mut reference = CennSim::new(setup.model.clone()).unwrap();
        for (layer, field) in &setup.initial {
            reference
                .set_state_f64(*layer, &field.to_grid(12, 10).unwrap())
                .unwrap();
        }
        for (layer, field) in &setup.inputs {
            reference
                .set_input_f64(*layer, &field.to_grid(12, 10).unwrap())
                .unwrap();
        }
        let runner = FixedRunner::new(setup).unwrap();
        assert_eq!(runner.snapshot().unwrap(), reference.snapshot());
        assert_eq!(runner.sim().inputs(), reference.inputs());
        assert_eq!(runner.steps(), 0);
    }

    #[test]
    fn settings_made_before_first_use_carry_over_in_core() {
        // The same settings made before and after the engine is built.
        let traced = |build_first: bool| {
            let mut runner = FixedRunner::new(Fisher::default().build(24, 16).unwrap()).unwrap();
            if build_first {
                runner.sim();
            }
            let (recorder, events) = cenn_obs::RecorderHandle::in_memory(true);
            let tracer = cenn_obs::TraceHandle::histograms_only();
            runner.set_threads(3);
            runner.set_recorder(recorder);
            runner.set_tracer(tracer.clone());
            runner.run(2);
            assert_eq!(runner.sim().threads(), 3);
            assert_eq!(events.lock().unwrap().events().len(), 2);
            tracer.with(|c| c.phase_count(cenn_obs::Phase::Integrate))
        };
        let spans = traced(false);
        assert!(spans > 0);
        assert_eq!(spans, traced(true));
    }

    #[test]
    fn new_rejects_fields_the_model_cannot_hold() {
        let mut setup = Heat::default().build(8, 8).unwrap();
        setup.initial[0].1 = Grid::new(4, 8, 1.0).into();
        assert!(matches!(
            FixedRunner::new(setup),
            Err(ModelError::ShapeMismatch { .. })
        ));
        let mut setup = Heat::default().build(8, 8).unwrap();
        setup
            .inputs
            .push((LayerId::from_index(3), crate::Field::Const(1.0)));
        assert!(matches!(
            FixedRunner::new(setup),
            Err(ModelError::UnknownLayer(3))
        ));
    }
}
