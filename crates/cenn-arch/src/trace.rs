//! Trace-driven cycle simulation: the hardware schedule executed
//! cycle-by-cycle against real state snapshots.
//!
//! The analytic [`crate::CycleModel`] consumes *aggregate* miss rates, as
//! the paper's simulator does. This module is the stricter companion: it
//! walks one step exactly as the machine would — sub-block by sub-block
//! (Fig. 9), template by template, weight element by weight element in OS
//! lockstep (Fig. 10) — probing real L1/L2 LUT tag arrays per PE, and
//! tracking per-channel DRAM busy times so the §6.3 "long request queue"
//! emerges from first principles instead of a queue-factor approximation.
//!
//! The two models are cross-validated in `validate_cycle_model` (and a
//! regression test): they must agree on which memory system wins and on
//! timing within a small factor.

use cenn_core::{CennModel, SoaGrid, WeightExpr};
use cenn_lut::{L1Lut, L2Lut, SampleIdx, LUT_ENTRY_BYTES};
use fixedpt::Q16_16;

use crate::memory::MemorySpec;
use crate::pe::PeArrayConfig;

/// Cycle/traffic account of one simulated step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepCycles {
    /// Convolution (weight-element broadcast) cycles.
    pub conv_cycles: u64,
    /// Cycles the array spent stalled on LUT refills.
    pub stall_cycles: u64,
    /// L1 probes issued.
    pub l1_probes: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Coalesced DRAM burst fetches.
    pub dram_fetches: u64,
    /// DRAM bytes moved for LUT bursts.
    pub lut_bytes: u64,
}

impl StepCycles {
    /// Total PE cycles of the compute phase.
    pub fn total_cycles(&self) -> u64 {
        self.conv_cycles + self.stall_cycles
    }

    /// Measured L1 miss rate within the hardware-ordered walk.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_probes == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_probes as f64
        }
    }
}

/// The trace-driven simulator state: LUT tag arrays plus per-channel DRAM
/// availability, persistent across steps (caches stay warm between steps
/// exactly as in the machine).
///
/// # Examples
///
/// ```
/// use cenn_arch::{MemorySpec, PeArrayConfig, TraceDrivenSim};
/// use cenn_core::CennSim;
/// use cenn_equations::{DynamicalSystem, Heat};
///
/// let setup = Heat::default().build(16, 16).unwrap();
/// let sim = CennSim::new(setup.model.clone()).unwrap();
/// let mut trace = TraceDrivenSim::new(&setup.model, MemorySpec::ddr3(),
///     PeArrayConfig::default());
/// let cycles = trace.simulate_step(&setup.model, sim.states());
/// assert_eq!(cycles.conv_cycles, 4 * 9); // 4 sub-blocks x 3x3 kernel
/// ```
#[derive(Debug, Clone)]
pub struct TraceDrivenSim {
    mem: MemorySpec,
    pe: PeArrayConfig,
    l1s: Vec<L1Lut>,
    l2s: Vec<L2Lut>,
    /// Absolute PE-cycle at which each channel becomes free.
    channel_free: Vec<u64>,
    /// Global PE-cycle counter across steps.
    now: u64,
}

impl TraceDrivenSim {
    /// Creates a simulator with the model's LUT sizing against the given
    /// memory and PE configuration.
    pub fn new(model: &CennModel, mem: MemorySpec, pe: PeArrayConfig) -> Self {
        let cfg = model.lut_config();
        let n_pes = pe.n_pes();
        let n_l2 = pe.n_l2.max(1);
        Self {
            channel_free: vec![0; mem.channels.max(1)],
            l1s: (0..n_pes).map(|_| L1Lut::new(cfg.l1_blocks)).collect(),
            l2s: (0..n_l2).map(|_| L2Lut::new(cfg.l2_capacity)).collect(),
            mem,
            pe,
            now: 0,
        }
    }

    /// The PE clock in Hz for the configured memory.
    pub fn pe_clock_hz(&self) -> f64 {
        self.pe.pe_clock_hz(self.mem.io_clock_hz)
    }

    /// DRAM refill penalty in PE cycles: access latency plus the 8-entry
    /// burst over one channel.
    fn dram_penalty_cycles(&self) -> u64 {
        let burst_bytes = (cenn_lut::DRAM_BURST_POINTS as usize * LUT_ENTRY_BYTES) as f64;
        let channel_bw = self.mem.sustained_bandwidth() / self.mem.channels as f64;
        let secs = self.mem.access_latency_ns * 1e-9 + burst_bytes / channel_bw;
        (secs * self.pe_clock_hz()).ceil() as u64
    }

    /// Walks one full step over `states` (the layer maps at step start) in
    /// hardware order, advancing the internal cycle clock.
    pub fn simulate_step(&mut self, model: &CennModel, states: &SoaGrid<Q16_16>) -> StepCycles {
        let mut acc = StepCycles::default();
        let passes = model.integrator().passes();
        let dram_penalty = self.dram_penalty_cycles();
        let (rows, cols) = (model.rows(), model.cols());
        let sb_rows = rows.div_ceil(self.pe.rows);
        let sb_cols = cols.div_ceil(self.pe.cols);

        // The FSM's weight schedule for one sub-block pass (Fig. 7). Heun
        // walks it twice per step (predictor + corrector; the corrector
        // sees near-identical states, so reusing the snapshot is a
        // faithful approximation of its cache behaviour).
        let schedule = crate::schedule::WeightSchedule::of(model);
        for _pass in 0..passes {
            for sbr in 0..sb_rows {
                for sbc in 0..sb_cols {
                    for cycle in &schedule.weights {
                        acc.conv_cycles += 1;
                        self.now += 1;
                        self.weight_update(
                            model,
                            states,
                            &cycle.weight,
                            sbr,
                            sbc,
                            dram_penalty,
                            &mut acc,
                        );
                    }
                    for cycle in &schedule.offsets {
                        acc.conv_cycles += 1;
                        self.now += 1;
                        self.weight_update(
                            model,
                            states,
                            &cycle.weight,
                            sbr,
                            sbc,
                            dram_penalty,
                            &mut acc,
                        );
                    }
                }
            }
        }
        acc
    }

    /// Performs the per-PE LUT probes for one (possibly dynamic) weight
    /// broadcast over one sub-block, charging stalls.
    #[allow(clippy::too_many_arguments)]
    fn weight_update(
        &mut self,
        model: &CennModel,
        states: &SoaGrid<Q16_16>,
        w: &WeightExpr,
        sbr: usize,
        sbc: usize,
        dram_penalty: u64,
        acc: &mut StepCycles,
    ) {
        let WeightExpr::Dyn { factors, .. } = w else {
            return;
        };
        let (rows, cols) = (model.rows(), model.cols());
        let cfg = model.lut_config();
        let n_l2 = self.l2s.len();
        for f in factors {
            // All PEs probe their own L1 in lockstep for this factor.
            let mut any_l1_miss = false;
            // Distinct (l2, func, idx) requests this cycle (misses to the
            // same burst window coalesce at the channel).
            let mut dram_requests: Vec<(usize, i32)> = Vec::new();
            for pr in 0..self.pe.rows {
                for pc in 0..self.pe.cols {
                    let (r, c) = (sbr * self.pe.rows + pr, sbc * self.pe.cols + pc);
                    if r >= rows || c >= cols {
                        continue; // partial edge sub-block: PE idles
                    }
                    let pe_id = pr * self.pe.cols + pc;
                    let x = states.get(f.layer.index(), r, c);
                    let spec = cfg.spec_for(f.func);
                    let idx = SampleIdx(
                        SampleIdx::of(x, spec.log2_inv_spacing)
                            .0
                            .clamp(spec.min_idx, spec.max_idx),
                    );
                    acc.l1_probes += 1;
                    if self.l1s[pe_id].lookup(f.func, idx) {
                        continue;
                    }
                    acc.l1_misses += 1;
                    any_l1_miss = true;
                    self.l1s[pe_id].fill(f.func, idx);
                    let l2_id = pe_id / cenn_lut::PES_PER_L2 % n_l2;
                    if self.l2s[l2_id].lookup(f.func, idx) {
                        continue;
                    }
                    // L2 miss: schedule a coalesced burst per window.
                    let window = L2Lut::burst_window(idx).start;
                    if !dram_requests.contains(&(l2_id, window)) {
                        dram_requests.push((l2_id, window));
                    }
                    for i in L2Lut::burst_window(idx) {
                        let wi = SampleIdx(i.clamp(spec.min_idx, spec.max_idx));
                        self.l2s[l2_id].fill(f.func, wi);
                    }
                }
            }
            // Stall accounting: L2 penalty if anyone missed L1; DRAM
            // requests queue on channels (l2 -> channel round robin).
            if any_l1_miss {
                acc.stall_cycles += self.pe.l2_hit_penalty;
                self.now += self.pe.l2_hit_penalty;
            }
            if !dram_requests.is_empty() {
                let mut latest_ready = self.now;
                for (k, (l2_id, _)) in dram_requests.iter().enumerate() {
                    let ch = l2_id % self.channel_free.len();
                    let start = self.channel_free[ch].max(self.now);
                    let ready = start + dram_penalty;
                    self.channel_free[ch] = ready;
                    latest_ready = latest_ready.max(ready);
                    acc.dram_fetches += 1;
                    acc.lut_bytes +=
                        (cenn_lut::DRAM_BURST_POINTS as usize * LUT_ENTRY_BYTES) as u64;
                    let _ = k;
                }
                // The lockstep array resumes when the slowest refill lands.
                acc.stall_cycles += latest_ready - self.now;
                self.now = latest_ready;
            }
        }
    }

    /// Wall-clock seconds for a step account, including overlapped
    /// prefetch/writeback streaming of the state maps (double-buffered
    /// bank groups, Fig. 9).
    pub fn step_seconds(&self, model: &CennModel, cycles: &StepCycles) -> f64 {
        let compute = cycles.total_cycles() as f64 / self.pe_clock_hz();
        let stream_bytes =
            (model.cells() * model.n_layers() * 2 * 4) as f64 + cycles.lut_bytes as f64;
        compute.max(self.mem.stream_time(stream_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleModel;
    use cenn_core::CennSim;
    use cenn_equations::{DynamicalSystem, FixedRunner, Heat, Izhikevich, ReactionDiffusion};

    #[test]
    fn linear_model_has_exactly_k2_cycles_per_template() {
        let setup = Heat::default().build(16, 16).unwrap();
        let sim = CennSim::new(setup.model.clone()).unwrap();
        let mut t = TraceDrivenSim::new(&setup.model, MemorySpec::ddr3(), PeArrayConfig::default());
        let cyc = t.simulate_step(&setup.model, sim.states());
        // 4 sub-blocks x (9 template elements): no stalls, no probes.
        assert_eq!(cyc.conv_cycles, 4 * 9);
        assert_eq!(cyc.stall_cycles, 0);
        assert_eq!(cyc.l1_probes, 0);
        assert_eq!(cyc.dram_fetches, 0);
    }

    #[test]
    fn dynamic_weights_generate_probes_and_warm_up() {
        let setup = Izhikevich::default().build(16, 16).unwrap();
        let mut runner = FixedRunner::new(setup.clone()).unwrap();
        let mut t = TraceDrivenSim::new(&setup.model, MemorySpec::ddr3(), PeArrayConfig::default());
        let cold = t.simulate_step(&setup.model, runner.sim().states());
        assert!(cold.l1_probes > 0);
        assert!(cold.dram_fetches > 0, "cold caches must fetch");
        // Same snapshot again: everything now resident.
        let warm = t.simulate_step(&setup.model, runner.sim().states());
        assert!(warm.l1_misses < cold.l1_misses);
        assert!(warm.stall_cycles <= cold.stall_cycles);
        // After evolving the state, some traffic returns.
        runner.run(40);
        let evolved = t.simulate_step(&setup.model, runner.sim().states());
        assert!(
            evolved.l1_probes == cold.l1_probes,
            "probe count is schedule-determined"
        );
    }

    #[test]
    fn trace_and_analytic_models_agree_on_memory_ordering() {
        let setup = ReactionDiffusion::default().build(32, 32).unwrap();
        let mut runner = FixedRunner::new(setup.clone()).unwrap();
        runner.run(5);
        let mr = runner.miss_rates();
        let pe = PeArrayConfig::default();
        let mut times_trace = Vec::new();
        let mut times_analytic = Vec::new();
        for mem in [
            MemorySpec::ddr3(),
            MemorySpec::hmc_int(),
            MemorySpec::hmc_ext(),
        ] {
            let mut t = TraceDrivenSim::new(&setup.model, mem.clone(), pe.clone());
            // Warm one step, measure the second.
            t.simulate_step(&setup.model, runner.sim().states());
            let cyc = t.simulate_step(&setup.model, runner.sim().states());
            times_trace.push(t.step_seconds(&setup.model, &cyc));
            times_analytic.push(
                CycleModel::new(mem, pe.clone())
                    .estimate(&setup.model, mr)
                    .time_per_step_s(),
            );
        }
        // Both models: DDR3 slowest, HMC-EXT fastest.
        assert!(
            times_trace[0] > times_trace[1] && times_trace[1] > times_trace[2],
            "trace ordering {times_trace:?}"
        );
        assert!(
            times_analytic[0] > times_analytic[1],
            "analytic ordering {times_analytic:?}"
        );
        // And they agree within a small factor on DDR3.
        let ratio = times_trace[0] / times_analytic[0];
        assert!(
            (0.2..5.0).contains(&ratio),
            "trace {times_trace:?} vs analytic {times_analytic:?}"
        );
    }

    #[test]
    fn channel_queueing_emerges_from_the_trace() {
        // Fewer channels -> same fetch count, more stall cycles.
        let setup = Izhikevich::default().build(32, 32).unwrap();
        let mut runner = FixedRunner::new(setup.clone()).unwrap();
        runner.run(3);
        let pe = PeArrayConfig::default();
        let narrow = MemorySpec {
            channels: 1,
            ..MemorySpec::ddr3()
        };
        let mut one = TraceDrivenSim::new(&setup.model, narrow, pe.clone());
        let mut two = TraceDrivenSim::new(&setup.model, MemorySpec::ddr3(), pe);
        let c1 = one.simulate_step(&setup.model, runner.sim().states());
        let c2 = two.simulate_step(&setup.model, runner.sim().states());
        assert_eq!(c1.dram_fetches, c2.dram_fetches, "same demand");
        assert!(
            c1.stall_cycles >= c2.stall_cycles,
            "queueing hurts: {c1:?} vs {c2:?}"
        );
    }

    #[test]
    fn partial_edge_subblocks_idle_pes() {
        // A 12x12 grid on an 8x8 array: edge sub-blocks have idle PEs, so
        // probe counts are cells x factors, not sub-blocks x 64 x factors.
        let setup = Izhikevich::default().build(12, 12).unwrap();
        let sim = CennSim::new(setup.model.clone()).unwrap();
        let mut t = TraceDrivenSim::new(&setup.model, MemorySpec::ddr3(), PeArrayConfig::default());
        let cyc = t.simulate_step(&setup.model, sim.states());
        assert_eq!(cyc.l1_probes, 12 * 12, "one probe per cell for one factor");
    }
}
