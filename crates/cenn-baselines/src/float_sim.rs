//! Floating-point evaluation of a CeNN model (the "GPU" reference).

use std::time::Instant;

use cenn_core::{
    Boundary, CennModel, ExecEngine, Grid, LayerId, LayerKind, LayerView, ModelError, SoaGrid,
    TemplateKind, WeightExpr,
};
use cenn_equations::SystemSetup;
use cenn_obs::trace::timed;
use cenn_obs::{
    Event, LutLevel, LutLevelMetrics, Phase, RecorderHandle, RunSummary, StepMetrics, TraceHandle,
};

/// Arithmetic precision of the reference solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// IEEE double — the ground-truth trajectory.
    #[default]
    F64,
    /// IEEE single, with the state rounded to `f32` after every update —
    /// the paper's "GPU (32bit floating-point)" comparator.
    F32,
}

/// One compiled tap: `(kind, src, boundary, dr, dc, weight)`.
#[derive(Debug, Clone)]
struct Tap {
    kind: TemplateKind,
    src: usize,
    dr: i32,
    dc: i32,
    weight: WeightExpr,
}

#[derive(Debug, Clone)]
struct PlanLayer {
    kind: LayerKind,
    boundary_of: Vec<Boundary>,
    taps: Vec<Tap>,
    offsets: Vec<WeightExpr>,
}

/// Floating-point simulator over the same model/templates/functions as the
/// fixed-point [`cenn_core::CennSim`], with **exact** nonlinear function
/// evaluation (no LUT) — the numerical reference role of the paper's GPU
/// runs.
///
/// Dynamic template weights use the *unquantized* `f64` scale values would
/// be ideal, but the model stores Q16.16-quantized constants; both solvers
/// therefore share identical template words, which is exactly the paper's
/// setting (the GPU solves the same discretized system).
///
/// State is held in the same structure-of-arrays slab layout as the
/// fixed-point simulator ([`SoaGrid`]): one contiguous `f64` span per
/// layer, so the two solvers stream memory identically in benchmarks.
#[derive(Debug, Clone)]
pub struct FloatSim {
    model: CennModel,
    plan: Vec<PlanLayer>,
    states: SoaGrid<f64>,
    scratch: SoaGrid<f64>,
    saved: SoaGrid<f64>,
    inputs: SoaGrid<f64>,
    precision: Precision,
    engine: ExecEngine,
    time: f64,
    steps: u64,
    /// Optional metric sink emitting the same event schema as the
    /// fixed-point simulator (LUT counters are all zero — this path has no
    /// LUT hierarchy).
    recorder: Option<RecorderHandle>,
    /// Optional span tracer using the same phase taxonomy as the
    /// fixed-point simulator (`template_apply` for RHS sweeps,
    /// `integrate` for update passes; no `lut_lookup` — this path
    /// evaluates functions exactly).
    tracer: Option<TraceHandle>,
    run_cells: u64,
    run_nanos: u64,
    last_residual: f64,
}

impl FloatSim {
    /// Creates a floating-point simulator for `model`.
    pub fn new(model: CennModel, precision: Precision) -> Self {
        let plan = compile(&model);
        let blank = SoaGrid::new(model.n_layers(), model.rows(), model.cols(), 0.0);
        Self {
            plan,
            states: blank.clone(),
            scratch: blank.clone(),
            saved: blank.clone(),
            inputs: blank,
            precision,
            engine: ExecEngine::serial(),
            time: 0.0,
            steps: 0,
            recorder: None,
            tracer: None,
            run_cells: 0,
            run_nanos: 0,
            last_residual: 0.0,
            model,
        }
    }

    /// Attaches a metric recorder: every step emits one
    /// [`cenn_obs::StepMetrics`] event in the shared schema (zero LUT
    /// counters). A disabled recorder costs one branch per step.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recorder = Some(recorder);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&RecorderHandle> {
        self.recorder.as_ref()
    }

    fn recording(&self) -> bool {
        self.recorder.as_ref().is_some_and(RecorderHandle::enabled)
    }

    /// Attaches a span tracer: each step records one `template_apply`
    /// span per RHS evaluation and one `integrate` span per update pass
    /// (Euler 1+1, Heun 2+2), all on track 0 — counts are therefore
    /// thread-count independent.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = Some(tracer);
    }

    /// Detaches the tracer.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&TraceHandle> {
        self.tracer.as_ref()
    }

    /// All-zero per-level LUT rows: the reference solver evaluates
    /// functions exactly, so the hierarchy columns stay empty but the
    /// schema shape matches the fixed-point emitter.
    fn zero_lut() -> Vec<LutLevelMetrics> {
        [LutLevel::L1, LutLevel::L2, LutLevel::Dram]
            .into_iter()
            .map(|level| LutLevelMetrics {
                level,
                ..LutLevelMetrics::default()
            })
            .collect()
    }

    /// Emits the end-of-run [`cenn_obs::RunSummary`] event (no-op without
    /// an enabled recorder).
    pub fn record_summary(&self) {
        let Some(rec) = &self.recorder else { return };
        if !rec.enabled() {
            return;
        }
        rec.record(&Event::RunSummary(RunSummary {
            steps: self.steps,
            time: self.time,
            threads: self.engine.threads() as u64,
            cells: self.run_cells,
            total_nanos: self.run_nanos,
            accesses: 0,
            mr_l1: 0.0,
            mr_l2: 0.0,
            mr_combined: 0.0,
            residual: self.last_residual,
            lut: Self::zero_lut(),
            // Four fully resident f64 slabs (states/scratch/saved/inputs),
            // never spilled.
            peak_resident_bytes: 4
                * (self.model.n_layers() * self.model.rows() * self.model.cols()) as u64
                * std::mem::size_of::<f64>() as u64,
            spill_bytes: 0,
            lut_counters: "exact".into(),
        }));
    }

    /// Emits one `span_summary` event per active phase through the
    /// attached recorder. No-op unless both a tracer and an enabled
    /// recorder are attached.
    pub fn record_span_summaries(&self) {
        if let (Some(tracer), Some(rec)) = (&self.tracer, &self.recorder) {
            tracer.record_summaries(rec);
        }
    }

    /// Sets the worker-thread count for the evaluation sweeps. Cell
    /// evaluation is a pure function of the previous state, so every row is
    /// independent and the result is bit-identical for any thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine = ExecEngine::new(threads);
    }

    /// Worker threads used by the evaluation sweeps.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The model.
    pub fn model(&self) -> &CennModel {
        &self.model
    }

    /// Simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// A layer's state (a zero-copy view into the state slab).
    pub fn state(&self, layer: LayerId) -> LayerView<'_, f64> {
        self.states.layer(layer.index())
    }

    /// Sets a layer's state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on shape mismatch.
    pub fn set_state(&mut self, layer: LayerId, grid: Grid<f64>) -> Result<(), ModelError> {
        self.check_shape(&grid)?;
        let grid = self.quantize(grid);
        self.states
            .layer_mut(layer.index())
            .copy_from_slice(grid.as_slice());
        Ok(())
    }

    /// Sets a layer's external input.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ShapeMismatch`] on shape mismatch.
    pub fn set_input(&mut self, layer: LayerId, grid: Grid<f64>) -> Result<(), ModelError> {
        self.check_shape(&grid)?;
        let grid = self.quantize(grid);
        self.inputs
            .layer_mut(layer.index())
            .copy_from_slice(grid.as_slice());
        Ok(())
    }

    fn check_shape(&self, g: &Grid<f64>) -> Result<(), ModelError> {
        if g.rows() != self.model.rows() || g.cols() != self.model.cols() {
            return Err(ModelError::ShapeMismatch {
                expected: (self.model.rows(), self.model.cols()),
                got: (g.rows(), g.cols()),
            });
        }
        Ok(())
    }

    fn quantize(&self, mut g: Grid<f64>) -> Grid<f64> {
        if self.precision == Precision::F32 {
            g.map_inplace(|v| v as f32 as f64);
        }
        g
    }

    /// Advances one step (Euler or Heun, matching the model's
    /// [`cenn_core::Integrator`]).
    pub fn step(&mut self) {
        // The step uses the *quantized* dt: the hardware multiplies by the
        // Q16.16 word, so the discrete map being solved is defined by that
        // value — the reference must integrate the same map or a
        // systematic phase error masquerades as arithmetic error.
        let dt = self.model.dt_fx().to_f64();
        let track = self.recording();
        let start = track.then(Instant::now);
        let mut residual = 0.0f64;
        let tracer = self.tracer.clone();
        match self.model.integrator() {
            cenn_core::Integrator::Euler => {
                let k1 = timed(tracer.as_ref(), Phase::TemplateApply, || {
                    self.algebraic_pass();
                    self.dyn_rhs()
                });
                timed(tracer.as_ref(), Phase::Integrate, || {
                    self.apply_update(&k1, dt, None, track.then_some(&mut residual));
                });
            }
            cenn_core::Integrator::Heun => {
                let k1 = timed(tracer.as_ref(), Phase::TemplateApply, || {
                    self.algebraic_pass();
                    self.dyn_rhs()
                });
                timed(tracer.as_ref(), Phase::Integrate, || {
                    self.saved.copy_from(&self.states);
                    self.apply_update(&k1, dt, None, None);
                });
                let k2 = timed(tracer.as_ref(), Phase::TemplateApply, || {
                    self.algebraic_pass();
                    self.dyn_rhs()
                });
                timed(tracer.as_ref(), Phase::Integrate, || {
                    std::mem::swap(&mut self.states, &mut self.saved);
                    // x <- x0 + dt/2 (k1 + k2)
                    let half = dt / 2.0;
                    let precision = self.precision;
                    for i in 0..self.plan.len() {
                        if self.plan[i].kind != LayerKind::Dynamic {
                            continue;
                        }
                        for ((x, &a), &b) in self
                            .states
                            .layer_mut(i)
                            .iter_mut()
                            .zip(k1.layer_slice(i))
                            .zip(k2.layer_slice(i))
                        {
                            let v = round_to(precision, *x + half * (a + b));
                            if track {
                                // `x` is still the pre-step value here,
                                // so this is the exactly-applied |Δx|.
                                residual = residual.max((v - *x).abs());
                            }
                            *x = v;
                        }
                    }
                });
            }
        }
        self.steps += 1;
        // Bookkeeping time uses the nominal dt (matches CennSim's clock).
        self.time += self.model.dt();
        if track {
            self.last_residual = residual;
            let nanos = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
            let cells = self.plan.len() as u64
                * u64::from(self.model.integrator().passes())
                * (self.model.rows() * self.model.cols()) as u64;
            self.run_cells += cells;
            self.run_nanos += nanos;
            if let Some(rec) = &self.recorder {
                rec.record(&Event::Step(StepMetrics {
                    step: self.steps,
                    time: self.time,
                    threads: self.engine.threads() as u64,
                    cells,
                    total_nanos: nanos,
                    residual,
                    sweeps: Vec::new(),
                    lut: Self::zero_lut(),
                    shards: Vec::new(),
                }));
            }
        }
    }

    fn algebraic_pass(&mut self) {
        let cols = self.model.cols();
        // Layers sweep one at a time (declaration-order chains); within a
        // layer the rows are fanned out as bands. Each row's value depends
        // only on the pre-pass states, so the result is position-determined
        // and bit-identical for any worker count.
        let mut scratch = std::mem::take(&mut self.scratch);
        for i in 0..self.plan.len() {
            if self.plan[i].kind != LayerKind::Algebraic {
                continue;
            }
            let mut bands: Vec<&mut [f64]> = scratch.layer_mut(i).chunks_mut(cols).collect();
            self.engine.for_each_mut(&mut bands, |r, row| {
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = self.round(self.eval_cell(i, r, c, false));
                }
            });
            self.states
                .layer_mut(i)
                .copy_from_slice(scratch.layer_slice(i));
        }
        self.scratch = scratch;
    }

    /// Evaluates the RHS of every dynamic layer against current states,
    /// fanning the rows of each layer out over the engine's workers.
    fn dyn_rhs(&self) -> SoaGrid<f64> {
        let (rows, cols) = (self.model.rows(), self.model.cols());
        let mut k = SoaGrid::new(self.plan.len(), rows, cols, 0.0);
        for (i, p) in self.plan.iter().enumerate() {
            if p.kind != LayerKind::Dynamic {
                continue;
            }
            let mut bands: Vec<&mut [f64]> = k.layer_mut(i).chunks_mut(cols).collect();
            self.engine.for_each_mut(&mut bands, |r, row| {
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = self.eval_cell(i, r, c, true);
                }
            });
        }
        k
    }

    /// Applies `x <- x + dt·k` to dynamic layers. When `residual` is
    /// supplied it accumulates the max-norm of the applied change.
    fn apply_update(
        &mut self,
        k: &SoaGrid<f64>,
        dt: f64,
        only: Option<usize>,
        mut residual: Option<&mut f64>,
    ) {
        let precision = self.precision;
        for i in 0..self.plan.len() {
            if self.plan[i].kind != LayerKind::Dynamic || only.is_some_and(|o| o != i) {
                continue;
            }
            for (x, &kv) in self.states.layer_mut(i).iter_mut().zip(k.layer_slice(i)) {
                let v = round_to(precision, *x + dt * kv);
                if let Some(res) = residual.as_deref_mut() {
                    *res = res.max((v - *x).abs());
                }
                *x = v;
            }
        }
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    #[inline]
    fn round(&self, v: f64) -> f64 {
        round_to(self.precision, v)
    }

    fn eval_cell(&self, layer: usize, r: usize, c: usize, leak: bool) -> f64 {
        let plan = &self.plan[layer];
        let (rows, cols) = (self.model.rows(), self.model.cols());
        let mut acc = if leak {
            -self.states.get(layer, r, c)
        } else {
            0.0
        };
        for tap in &plan.taps {
            let boundary = plan.boundary_of[tap.src];
            let operand = match boundary.resolve(rows, cols, r, c, tap.dr, tap.dc) {
                Some((nr, nc)) => {
                    let raw = match tap.kind {
                        TemplateKind::Input => self.inputs.get(tap.src, nr, nc),
                        _ => self.states.get(tap.src, nr, nc),
                    };
                    match tap.kind {
                        TemplateKind::Output => raw.clamp(-1.0, 1.0),
                        _ => raw,
                    }
                }
                None => {
                    let v = boundary.constant();
                    match tap.kind {
                        TemplateKind::Output => v.clamp(-1.0, 1.0),
                        _ => v,
                    }
                }
            };
            acc += self.eval_weight(&tap.weight, r, c) * operand;
        }
        for w in &plan.offsets {
            acc += self.eval_weight(w, r, c);
        }
        self.round(acc)
    }

    fn eval_weight(&self, w: &WeightExpr, r: usize, c: usize) -> f64 {
        match w {
            WeightExpr::Const(v) => v.to_f64(),
            WeightExpr::Dyn { scale, factors } => {
                let mut acc = scale.to_f64();
                for f in factors {
                    let x = self.states.get(f.layer.index(), r, c);
                    acc = self.round(acc * self.model.library().get(f.func).value(x));
                }
                acc
            }
        }
    }
}

#[inline]
fn round_to(precision: Precision, v: f64) -> f64 {
    match precision {
        Precision::F64 => v,
        Precision::F32 => v as f32 as f64,
    }
}

fn compile(model: &CennModel) -> Vec<PlanLayer> {
    let boundary_of: Vec<Boundary> = model
        .layer_ids()
        .map(|id| model.layer(id).boundary())
        .collect();
    model
        .layer_ids()
        .map(|dest| {
            let mut taps = Vec::new();
            for kind in [
                TemplateKind::State,
                TemplateKind::Output,
                TemplateKind::Input,
            ] {
                for (src, t) in model.templates(kind, dest) {
                    for (dr, dc, w) in t.iter() {
                        if !w.is_zero() {
                            taps.push(Tap {
                                kind,
                                src: src.index(),
                                dr,
                                dc,
                                weight: w.clone(),
                            });
                        }
                    }
                }
            }
            PlanLayer {
                kind: model.layer(dest).kind(),
                boundary_of: boundary_of.clone(),
                taps,
                offsets: model.offsets(dest).cloned().collect(),
            }
        })
        .collect()
}

/// Drives a [`cenn_equations::SystemSetup`] on the floating-point
/// simulator, applying initial conditions, inputs, and the post-step rule —
/// the counterpart of [`cenn_equations::FixedRunner`].
#[derive(Debug, Clone)]
pub struct FloatRunner {
    sim: FloatSim,
    setup: SystemSetup,
}

impl FloatRunner {
    /// Creates a runner at the given precision.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from loading the setup's fields.
    pub fn new(setup: SystemSetup, precision: Precision) -> Result<Self, ModelError> {
        let mut sim = FloatSim::new(setup.model.clone(), precision);
        let (rows, cols) = (setup.model.rows(), setup.model.cols());
        for (layer, field) in &setup.initial {
            sim.set_state(*layer, field.to_grid(rows, cols)?)?;
        }
        for (layer, field) in &setup.inputs {
            sim.set_input(*layer, field.to_grid(rows, cols)?)?;
        }
        Ok(Self { sim, setup })
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &FloatSim {
        &self.sim
    }

    /// Sets the worker-thread count for the evaluation sweeps.
    pub fn set_threads(&mut self, threads: usize) {
        self.sim.set_threads(threads);
    }

    /// Attaches a metric recorder to the underlying simulator.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.sim.set_recorder(recorder);
    }

    /// Attaches a span tracer to the underlying simulator.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.sim.set_tracer(tracer);
    }

    /// Emits one `span_summary` event per active phase (no-op without
    /// both a tracer and an enabled recorder).
    pub fn record_span_summaries(&self) {
        self.sim.record_span_summaries();
    }

    /// Emits the end-of-run [`cenn_obs::RunSummary`] event (no-op without
    /// an enabled recorder).
    pub fn record_summary(&self) {
        self.sim.record_summary();
    }

    /// Advances one step, then applies the model's post-step rule cell by
    /// cell in place on the state slab; returns fired cells.
    pub fn step(&mut self) -> usize {
        self.sim.step();
        let Some(rule) = self.setup.model.post_step() else {
            return 0;
        };
        let cells = self.sim.states.cells_per_layer();
        rule.apply(&mut self.sim.states, 0..cells, |v| v, |v| v) as usize
    }

    /// Runs `n` steps; returns total fired cells.
    pub fn run(&mut self, n: u64) -> usize {
        (0..n).map(|_| self.step()).sum()
    }

    /// Observed layer states with display names.
    pub fn observed_states(&self) -> Vec<(&'static str, Grid<f64>)> {
        self.setup
            .observed
            .iter()
            .map(|(id, name)| (*name, self.sim.state(*id).to_grid()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenn_equations::{DynamicalSystem, FixedRunner, Heat, Izhikevich};

    #[test]
    fn float_heat_matches_fixed_heat_closely() {
        let setup = Heat::default().build(9, 9).unwrap();
        let mut float = FloatRunner::new(setup.clone(), Precision::F64).unwrap();
        let mut fixed = FixedRunner::new(setup).unwrap();
        float.run(50);
        fixed.run(50);
        let a = &float.observed_states()[0].1;
        let b = &fixed.observed_states()[0].1;
        let (mean, _) = a.abs_error_stats(b);
        assert!(mean < 1e-3, "fixed-vs-float heat error {mean}");
    }

    #[test]
    fn f32_precision_differs_from_f64() {
        let setup = Heat::default().build(9, 9).unwrap();
        let mut a = FloatRunner::new(setup.clone(), Precision::F64).unwrap();
        let mut b = FloatRunner::new(setup, Precision::F32).unwrap();
        a.run(200);
        b.run(200);
        let (mean, _) = a.observed_states()[0]
            .1
            .abs_error_stats(&b.observed_states()[0].1);
        assert!(mean > 0.0, "f32 rounding must be visible");
        assert!(mean < 1e-4, "but tiny: {mean}");
    }

    #[test]
    fn float_runner_applies_spike_reset() {
        let setup = Izhikevich::default().build(2, 2).unwrap();
        let mut runner = FloatRunner::new(setup, Precision::F64).unwrap();
        let fired = runner.run(1200);
        assert!(fired > 0, "float izhikevich fired {fired}");
        for &v in runner.observed_states()[0].1.iter() {
            assert!(v < 30.0, "reset applied");
        }
    }

    #[test]
    fn threaded_float_sweeps_bit_identical_to_serial() {
        // Izhikevich exercises Heun + post-step rule; Heat exercises Euler.
        for setup in [
            Izhikevich::default().build(6, 5).unwrap(),
            Heat::default().build(7, 9).unwrap(),
        ] {
            let mut serial = FloatRunner::new(setup.clone(), Precision::F64).unwrap();
            serial.run(60);
            for threads in [2, 4, 8] {
                let mut par = FloatRunner::new(setup.clone(), Precision::F64).unwrap();
                par.set_threads(threads);
                par.run(60);
                for (i, s) in serial.sim().states.iter().enumerate() {
                    assert_eq!(
                        s.as_slice(),
                        par.sim().states.layer_slice(i),
                        "threads={threads} layer={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_recorder_emits_shared_schema_with_zero_lut() {
        let setup = Heat::default().build(8, 8).unwrap();
        let mut runner = FloatRunner::new(setup, Precision::F64).unwrap();
        let (handle, reader) = cenn_obs::RecorderHandle::in_memory(true);
        runner.set_recorder(handle);
        runner.run(4);
        runner.record_summary();
        let rec = reader.lock().unwrap();
        assert_eq!(rec.events().len(), 5, "4 steps + summary");
        let cenn_obs::Event::Step(s) = &rec.events()[0] else {
            panic!("first event must be a step")
        };
        assert_eq!(s.step, 1);
        assert!(s.residual > 0.0, "heat diffuses on step 1");
        assert!(s.lut.iter().all(|l| l.hits == 0 && l.misses == 0));
        let summary = rec.summary().unwrap();
        assert_eq!(summary.steps, 4);
        assert_eq!(summary.accesses, 0);
        for line in rec.to_jsonl().lines() {
            cenn_obs::validate_jsonl_line(line).unwrap();
        }
    }

    #[test]
    fn float_tracer_uses_shared_phase_taxonomy() {
        // Euler: 1 template_apply + 1 integrate per step.
        let heat = Heat::default().build(6, 6).unwrap();
        let mut runner = FloatRunner::new(heat, Precision::F64).unwrap();
        let tracer = TraceHandle::histograms_only();
        runner.set_tracer(tracer.clone());
        runner.run(5);
        assert_eq!(tracer.with(|c| c.phase_count(Phase::TemplateApply)), 5);
        assert_eq!(tracer.with(|c| c.phase_count(Phase::Integrate)), 5);
        assert_eq!(tracer.with(|c| c.phase_count(Phase::LutLookup)), 0);
        assert!(runner.sim().tracer().is_some());

        let izh = Izhikevich::default().build(2, 2).unwrap();
        let mut runner = FloatRunner::new(izh, Precision::F64).unwrap();
        let tracer = TraceHandle::histograms_only();
        runner.set_tracer(tracer.clone());
        let per_pass = u64::from(runner.sim().model().integrator().passes());
        runner.run(3);
        assert_eq!(
            tracer.with(|c| c.phase_count(Phase::TemplateApply)),
            3 * per_pass
        );
        assert_eq!(
            tracer.with(|c| c.phase_count(Phase::Integrate)),
            3 * per_pass
        );
        // Summaries flow to a shared recorder as span_summary events.
        let (handle, reader) = cenn_obs::RecorderHandle::in_memory(true);
        runner.set_recorder(handle);
        runner.record_span_summaries();
        let rec = reader.lock().unwrap();
        assert_eq!(rec.events().len(), 2, "two active phases");
        for line in rec.to_jsonl().lines() {
            cenn_obs::validate_jsonl_line(line).unwrap();
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let setup = Heat::default().build(8, 8).unwrap();
        let mut sim = FloatSim::new(setup.model.clone(), Precision::F64);
        assert!(sim
            .set_state(setup.initial[0].0, Grid::new(4, 4, 0.0))
            .is_err());
    }

    #[test]
    fn time_and_steps_advance() {
        let setup = Heat::default().build(4, 4).unwrap();
        let mut sim = FloatSim::new(setup.model, Precision::F64);
        sim.run(10);
        assert_eq!(sim.steps(), 10);
        assert!((sim.time() - 1.0).abs() < 1e-12);
    }
}
