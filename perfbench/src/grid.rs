//! The grid workloads: `sweep-hh`, `sweep-heat` (in-core) and
//! `stream-fisher` (out-of-core under a memory budget).
//!
//! The measured loop repeats *reps* until the run time is used up. A rep
//! builds the system, creates the runner (and, when streamed, seeds the
//! spool), runs one warm-up step and then times each of a fixed number of
//! steps. Every rep starts from the same initial conditions, so every rep
//! measures the same work, and every rep's end-state digest must equal a
//! reference computed in-core after the timed loop.
//!
//! Reps rotate over the CPUs the process may use, one pinned rep (or
//! traced pair) at a time, and step and set-up times are reported as the
//! [`LOW_PERCENTILE`]-th percentile over the run: other tenants of a
//! shared host only ever add time, and a low percentile over samples from
//! every CPU follows the program's own cost while any CPU runs clean for
//! part of the run.

use std::path::Path;
use std::time::Instant;

use cenn_arch::{CycleModel, MemorySpec, PeArrayConfig, StepTiming};
use cenn_core::{CennModel, Integrator};
use cenn_equations::{system_by_name, DynamicalSystem, FixedRunner};
use cenn_lut::LutStats;
use cenn_obs::{Phase, TraceHandle};
use cenn_serve::{snapshot_digest, state_digest};

use crate::affinity::CpuSet;
use crate::report::{peak_rss_mib, Report};
use crate::stats::{median, percentile, quartiles, tail};
use crate::RunOpts;

/// The percentile of step and set-up times a grid workload reports.
pub const LOW_PERCENTILE: f64 = 10.0;

/// One grid workload's shape.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Workload name.
    pub name: &'static str,
    /// `cenn-equations` system name.
    pub system: &'static str,
    /// Square grid side.
    pub side: usize,
    /// Timed steps per rep (after one warm-up step).
    pub steps_per_rep: u64,
    /// Streamed execution under this resident-memory budget, in bytes.
    pub memory_budget: Option<u64>,
}

/// Hodgkin–Huxley at 128²: `lut_lookup` takes most of each step.
pub const SWEEP_HH: GridSpec = GridSpec {
    name: "sweep-hh",
    system: "hodgkin-huxley",
    side: 128,
    steps_per_rep: 200,
    memory_budget: None,
};

/// Heat at 256²: no LUT sites, `template_apply` (lane MACs) dominates.
/// At 256² its state fits in L2: at 512² contention on the shared L3
/// spread its step time by 11–16% between runs.
pub const SWEEP_HEAT: GridSpec = GridSpec {
    name: "sweep-heat",
    system: "heat",
    side: 256,
    steps_per_rep: 200,
    memory_budget: None,
};

/// Fisher at 1024² under a 4 MiB budget: windowed sweeps over a spool.
pub const STREAM_FISHER: GridSpec = GridSpec {
    name: "stream-fisher",
    system: "fisher",
    side: 1024,
    steps_per_rep: 10,
    memory_budget: Some(4 << 20),
};

/// The sweep phases a tracer attributes step time to.
const PHASES: [Phase; 4] = [
    Phase::LutLookup,
    Phase::TemplateApply,
    Phase::Integrate,
    Phase::HaloSync,
];

/// What one traced run of a system's sweeps did and cost: a traced rep,
/// or the traced replay of one served session.
#[derive(Debug, Clone, Default)]
pub struct SweepSample {
    pub build_ns: f64,
    pub runner_new_ns: f64,
    /// Timed steps (after the warm-up step), their wall time and cells.
    pub steps: u64,
    pub wall_ns: f64,
    pub cell_steps: f64,
    /// Per-phase `(total nanos, span count)` over the timed steps.
    pub phases: [(u64, u64); 4],
    /// LUT traffic of the timed steps.
    pub lut: LutStats,
    /// The modelled accelerator at these miss rates.
    pub sim_us: f64,
    pub timing: Option<StepTiming>,
}

impl SweepSample {
    /// Timed steps' LUT traffic since `lut0` and the model's estimate.
    pub fn finish(&mut self, model: &CennModel, lut: LutStats, lut0: LutStats) {
        self.lut = LutStats {
            accesses: lut.accesses - lut0.accesses,
            l1_hits: lut.l1_hits - lut0.l1_hits,
            l2_hits: lut.l2_hits - lut0.l2_hits,
            dram_fetches: lut.dram_fetches - lut0.dram_fetches,
            dram_points: lut.dram_points - lut0.dram_points,
            exact_hits: lut.exact_hits - lut0.exact_hits,
        };
        let est = CycleModel::new(MemorySpec::ddr3(), PeArrayConfig::default())
            .estimate(model, (self.lut.l1_miss_rate(), self.lut.l2_miss_rate()));
        self.sim_us = est.time_per_step_s() * 1e6;
        self.timing = Some(est.timing());
    }
}

/// Per-phase `(total nanos, span count)` a tracer collected.
pub fn phase_totals(tracer: &TraceHandle) -> [(u64, u64); 4] {
    tracer.with(|c| PHASES.map(|p| (c.phase_total_nanos(p), c.phase_count(p))))
}

/// Reports the sweep-layer metrics (`equations.*`, `lut.*`, `sweep.*`,
/// `arch.*`) pooled over traced samples.
pub fn put_sweep_layers(report: &mut Report, samples: &[SweepSample]) {
    let sum = |f: &dyn Fn(&SweepSample) -> f64| samples.iter().map(f).sum::<f64>();
    let med = |f: &dyn Fn(&SweepSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let steps = sum(&|s| s.steps as f64);
    let cell_steps = sum(&|s| s.cell_steps);
    let wall = sum(&|s| s.wall_ns);
    let phase = |i: usize| sum(&|s| s.phases[i].0 as f64);
    let attributed: f64 = (0..4).map(phase).sum();
    report.put("equations.build_ms", med(&|s| s.build_ns) / 1e6, "ms");
    report.put(
        "equations.runner_new_ms",
        med(&|s| s.runner_new_ns) / 1e6,
        "ms",
    );
    report.put("lut.ns_per_cell_step", phase(0) / cell_steps, "ns");
    for (i, p) in PHASES.iter().enumerate().skip(1) {
        let name = format!("sweep.{}_ns_per_cell_step", p.as_str());
        report.put(&name, phase(i) / cell_steps, "ns");
    }
    report.put(
        "sweep.unattributed_ns_per_cell_step",
        (wall - attributed) / cell_steps,
        "ns",
    );
    report.put("sweep.attributed_frac", attributed / wall, "fraction");
    for (i, p) in PHASES.iter().enumerate() {
        let spans = sum(&|s| s.phases[i].1 as f64);
        report.put(
            &format!("sweep.{}_spans_per_step", p.as_str()),
            spans / steps,
            "count",
        );
    }
    let mut lut = LutStats::default();
    for s in samples {
        lut.merge(&s.lut);
    }
    report.put("lut.wall_frac", phase(0) / wall, "fraction");
    report.put(
        "lut.accesses_per_cell_step",
        lut.accesses as f64 / cell_steps,
        "count",
    );
    report.put("lut.l1_miss_rate", lut.l1_miss_rate(), "fraction");
    report.put("lut.l2_miss_rate", lut.l2_miss_rate(), "fraction");
    report.put(
        "lut.dram_fetches_per_cell_step",
        lut.dram_fetches as f64 / cell_steps,
        "count",
    );
    // Step-weighted over samples of possibly different systems.
    let weighted = |f: &dyn Fn(&StepTiming) -> f64| {
        sum(&|s| s.timing.as_ref().map_or(0.0, f) * s.steps as f64) / steps
    };
    let conv = weighted(&|t| t.conv_cycles);
    let stall = weighted(&|t| t.stall_cycles);
    report.put(
        "sim_us_per_step",
        sum(&|s| s.sim_us * s.steps as f64) / steps,
        "us",
    );
    report.put("arch.conv_cycles_per_step", conv, "cycles");
    report.put("arch.stall_cycles_per_step", stall, "cycles");
    report.put("arch.stall_frac", stall / (conv + stall), "fraction");
}

/// What one rep measured.
struct Rep {
    traced: bool,
    sample: SweepSample,
    spool_seed_ns: f64,
    step_ns: Vec<f64>,
    /// Spool bytes written and read during the timed steps.
    spill: u64,
    fill: u64,
    /// Streamed geometry: windows swept per step and peak resident bytes.
    windows_per_step: u64,
    peak_resident: u64,
    digest: u64,
}

impl Rep {
    fn setup_ns(&self) -> f64 {
        self.sample.build_ns + self.sample.runner_new_ns + self.spool_seed_ns
    }
}

fn ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

fn run_rep(
    spec: &GridSpec,
    system: &dyn DynamicalSystem,
    traced: bool,
    spool: &Path,
) -> Result<Rep, String> {
    let mut sample = SweepSample::default();
    let t = Instant::now();
    let setup = system
        .build(spec.side, spec.side)
        .map_err(|e| format!("build: {e}"))?;
    sample.build_ns = ns(t);
    let t = Instant::now();
    let mut runner = FixedRunner::new(setup).map_err(|e| format!("runner: {e}"))?;
    runner.set_threads(1);
    sample.runner_new_ns = ns(t);
    let t = Instant::now();
    if let Some(budget) = spec.memory_budget {
        runner
            .set_memory_budget(budget, spool)
            .map_err(|e| format!("memory budget: {e}"))?;
    }
    let spool_seed_ns = if spec.memory_budget.is_some() {
        ns(t)
    } else {
        0.0
    };

    // LUT counts and timing start after one warm-up step.
    runner.step();
    let lut0 = runner.lut_stats();
    let io = |r: &FixedRunner| {
        r.stream()
            .map_or((0, 0), |s| (s.spill_bytes(), s.fill_bytes()))
    };
    let (spill0, fill0) = io(&runner);
    let tracer = traced.then(TraceHandle::histograms_only);
    if let Some(tr) = &tracer {
        runner.set_tracer(tr.clone());
    }
    let mut step_ns = Vec::with_capacity(spec.steps_per_rep as usize);
    for _ in 0..spec.steps_per_rep {
        let t = Instant::now();
        runner.step();
        step_ns.push(ns(t));
    }
    let (spill1, fill1) = io(&runner);
    let (windows_per_step, peak_resident, digest) = match runner.stream() {
        Some(s) => {
            let passes = match s.model().integrator() {
                Integrator::Euler => 1,
                Integrator::Heun => 2,
            };
            let snap = s.snapshot().map_err(|e| format!("spool snapshot: {e}"))?;
            (
                (s.n_windows() * passes) as u64,
                s.peak_resident_bytes(),
                snapshot_digest(&snap),
            )
        }
        None => (0, 0, state_digest(runner.sim())),
    };
    sample.steps = spec.steps_per_rep;
    sample.wall_ns = step_ns.iter().sum();
    sample.cell_steps = (spec.side * spec.side) as f64 * spec.steps_per_rep as f64;
    if let Some(tr) = &tracer {
        sample.phases = phase_totals(tr);
    }
    sample.finish(&runner.setup().model, runner.lut_stats(), lut0);
    Ok(Rep {
        traced,
        sample,
        spool_seed_ns,
        step_ns,
        spill: spill1 - spill0,
        fill: fill1 - fill0,
        windows_per_step,
        peak_resident,
        digest,
    })
}

/// The in-core reference digest after `steps` steps, on two sim threads
/// (bit-identical to one thread by the determinism contract).
fn reference_digest(
    spec: &GridSpec,
    system: &dyn DynamicalSystem,
    steps: u64,
) -> Result<u64, String> {
    let setup = system
        .build(spec.side, spec.side)
        .map_err(|e| format!("reference build: {e}"))?;
    let mut runner = FixedRunner::new(setup).map_err(|e| format!("reference runner: {e}"))?;
    runner.set_threads(2);
    runner.run(steps);
    Ok(state_digest(runner.sim()))
}

/// The [`LOW_PERCENTILE`]-th percentile of every timed step of the traced
/// or the untraced reps. A contended CPU slows whole stretches of a run
/// by up to 2x; this percentile ignores them while at least a tenth of the
/// steps ran uncontended.
fn low_step_ns(reps: &[Rep], traced: bool) -> f64 {
    let steps: Vec<f64> = reps
        .iter()
        .filter(|r| r.traced == traced)
        .flat_map(|r| r.step_ns.iter().copied())
        .collect();
    percentile(&steps, LOW_PERCENTILE)
}

/// Runs a grid workload for `opts.duration` and checks every rep.
///
/// # Errors
///
/// Unknown systems, build failures, and spool I/O failures.
pub fn run(spec: &GridSpec, opts: &RunOpts) -> Result<Report, String> {
    let system = system_by_name(spec.system).ok_or_else(|| format!("no system {}", spec.system))?;
    let cells = (spec.side * spec.side) as f64;
    let spool = opts.work_dir.join("spool");
    let start = Instant::now();
    // A traced run alternates untraced and traced reps, so it measures
    // what tracing costs; both reps of a pair run on the same CPU.
    let min_reps = if opts.trace { 2 } else { 1 };
    let allowed = CpuSet::current().map_err(|e| format!("reading CPU affinity: {e}"))?;
    let cpus = allowed.cpus();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed() < opts.duration {
        let traced = opts.trace && reps.len() % 2 == 1;
        CpuSet::only(cpus[reps.len() / min_reps % cpus.len()])
            .apply()
            .map_err(|e| format!("pinning a rep: {e}"))?;
        reps.push(run_rep(spec, &*system, traced, &spool)?);
        // Each rep seeds a fresh spool. Removing the last one and syncing
        // its directory here, outside the timed steps, finishes its disk
        // work before the next rep starts.
        if spec.memory_budget.is_some() {
            let _ = std::fs::remove_dir_all(&spool);
            std::fs::File::open(&opts.work_dir)
                .and_then(|dir| dir.sync_all())
                .map_err(|e| format!("syncing the work dir: {e}"))?;
        }
    }
    allowed
        .apply()
        .map_err(|e| format!("restoring CPU affinity: {e}"))?;
    let peak_rss = peak_rss_mib()?;

    let steps = spec.steps_per_rep + 1;
    let reference = reference_digest(spec, &*system, steps)?;
    let bad_reps = reps.iter().filter(|r| r.digest != reference).count() as u64;

    let mode = match spec.memory_budget {
        Some(b) => format!("streamed under a {} KiB budget", b >> 10),
        None => "in-core".into(),
    };
    let mut report = Report::new(
        spec.name,
        format!(
            "{} {}x{} {mode}, 1 sim thread, {} reps of 1 warm-up + {} timed steps",
            spec.system,
            spec.side,
            spec.side,
            reps.len(),
            spec.steps_per_rep
        ),
    );
    report.attempted = reps.len() as u64 * steps;
    report.failed = bad_reps * steps;

    let step_ns = low_step_ns(&reps, false);
    let step_ms: Vec<f64> = reps
        .iter()
        .filter(|r| !r.traced)
        .flat_map(|r| r.step_ns.iter().map(|n| n / 1e6))
        .collect();
    let setups: Vec<f64> = reps.iter().map(Rep::setup_ns).collect();
    let step_tail = tail(&step_ms);
    report.put("ns_per_cell_step", step_ns / cells, "ns");
    report.put("setup_s", percentile(&setups, LOW_PERCENTILE) / 1e9, "s");
    report.put("req_p50_ms", step_ns / 1e6, "ms");
    report.put("step_median_ms", median(&step_ms), "ms");
    report.put("req_tail_ms", step_tail.value, "ms");
    report.put("peak_rss_mib", peak_rss, "MiB");
    report.put("sim_us_per_step", reps[0].sample.sim_us, "us");
    report.note(format!(
        "reps rotate over CPUs {cpus:?}; ns_per_cell_step, req_p50_ms and setup_s are the \
         p{LOW_PERCENTILE} step and set-up times of the run (n={} steps, {} set-ups)",
        step_ms.len(),
        setups.len()
    ));
    report.note(format!(
        "req_* time one step: req_tail_ms is {}; step ms quartiles {:?}",
        step_tail.label(),
        quartiles(&step_ms).unwrap_or_default()
    ));
    report.note(format!(
        "correctness: {} of {} reps match the in-core reference digest {reference:016x} after {steps} steps",
        reps.len() as u64 - bad_reps,
        reps.len()
    ));
    report.note(
        "sim_us_per_step: CycleModel(DDR3, default PE array) at the measured LUT miss rates. \
         The cycle model is unvalidated against silicon and no error figure is given; it is \
         only cross-checked against the trace-driven model (EXPERIMENTS.md: 0.9-1.3x for most \
         systems, 5-10x for HH). LUT counts and timing start after one warm-up step.",
    );

    if opts.trace {
        let traced: Vec<SweepSample> = reps
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.sample.clone())
            .collect();
        put_sweep_layers(&mut report, &traced);
        if spec.memory_budget.is_some() {
            let r = &reps[0];
            let per_step = spec.steps_per_rep as f64;
            report.put(
                "stream.spill_bytes_per_step",
                r.spill as f64 / per_step,
                "bytes",
            );
            report.put(
                "stream.fill_bytes_per_step",
                r.fill as f64 / per_step,
                "bytes",
            );
            report.put(
                "stream.windows_per_step",
                r.windows_per_step as f64,
                "count",
            );
            report.put(
                "stream.peak_resident_bytes",
                r.peak_resident as f64,
                "bytes",
            );
            let seed: Vec<f64> = reps.iter().map(|r| r.spool_seed_ns).collect();
            report.put("stream.spool_seed_ms", median(&seed) / 1e6, "ms");
        }
        report.put(
            "trace.overhead_frac",
            low_step_ns(&reps, true) / step_ns - 1.0,
            "fraction",
        );
        report.zero_unmeasured_counts();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::opts;

    fn tiny(spec: &GridSpec, side: usize, budget: Option<u64>) -> GridSpec {
        GridSpec {
            side,
            steps_per_rep: 4,
            memory_budget: budget,
            ..spec.clone()
        }
    }

    fn smoke(spec: &GridSpec, trace: bool) -> Report {
        let o = opts(&format!("{}-{trace}", spec.name), trace);
        std::fs::create_dir_all(&o.work_dir).unwrap();
        let report = run(spec, &o).unwrap();
        let _ = std::fs::remove_dir_all(&o.work_dir);
        assert_eq!(report.error_rate(), 0.0, "{}", report.text(&o));
        report.json_line(trace).unwrap();
        report
    }

    #[test]
    fn tiny_grid_workloads_are_correct_untraced_and_traced() {
        smoke(&tiny(&SWEEP_HH, 16, None), false);
        let hh = smoke(&tiny(&SWEEP_HH, 16, None), true);
        assert!(hh.get("lut.accesses_per_cell_step").unwrap() > 0.0);

        smoke(&tiny(&SWEEP_HEAT, 16, None), false);
        let heat = smoke(&tiny(&SWEEP_HEAT, 16, None), true);
        assert_eq!(heat.get("lut.accesses_per_cell_step"), Some(0.0));
        assert_eq!(heat.get("sweep.lut_lookup_spans_per_step"), Some(0.0));
        assert!(heat.get("sweep.template_apply_ns_per_cell_step").unwrap() > 0.0);

        let stream = tiny(&STREAM_FISHER, 64, Some(64 << 10));
        smoke(&stream, false);
        let stream = smoke(&stream, true);
        assert!(stream.get("sweep.unattributed_ns_per_cell_step").unwrap() >= 0.0);
        assert!(stream.get("stream.windows_per_step").unwrap() > 1.0);
        assert!(stream.get("stream.spill_bytes_per_step").unwrap() > 0.0);
    }
}
