//! Argument parsing and command implementations.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cenn::arch::{CycleModel, MemorySpec, PeArrayConfig};
use cenn::core::Integrator;
use cenn::equations::{
    all_benchmarks, extended_benchmarks, DynamicalSystem, FixedRunner, SystemSetup,
};
use cenn::fx::Q16_16;
use cenn::program::Program;
use cenn::render;

/// Top-level usage text.
pub const USAGE: &str = "\
cenn — programmable CeNN differential-equation solver

USAGE:
  cenn list
      List available benchmark systems.
  cenn run --system <name> [--grid N] [--steps N] [--memory M]
           [--integrator euler|heun] [--threads N] [--render] [--pgm FILE]
           [--report] [--metrics-out FILE] [--metrics-format jsonl|csv]
           [--metrics-canonical] [--guard] [--checkpoint-every N]
           [--fault-plan SPEC] [--on-divergence abort|rollback|bypass-lut]
           [--memory-budget SIZE] [--spool DIR]
      Run a system on the fixed-point solver simulator. --threads N sweeps
      the grid on N worker threads (bit-identical to serial; defaults to
      the CENN_THREADS environment variable, else 1). --metrics-out streams
      per-step metrics and a run summary to FILE (jsonl by default);
      --metrics-canonical zeroes wall-clock fields so the stream is
      byte-for-byte reproducible.
      --memory-budget SIZE (accepts K/M/G suffixes) runs the grid
      streamed out-of-core: only a bounded window of grid rows stays
      resident, with halo exchange against CENNCKPT state chunks spilled
      to --spool (default: a temp directory of its own, removed when the
      command ends, whether or not it succeeds; a --spool DIR is kept).
      The seeded state is written straight into the spool and the closing
      digest and ranges are read back chunk by chunk, so the run holds
      only its budget; --render and --pgm still assemble the whole grid.
      States stay bit-identical to in-core execution — the printed state
      digest is the proof. Incompatible with --guard (the spool journal
      is the streamed recovery path).
      --guard runs under the fault-tolerant runtime: LUT integrity scrubs
      plus a bit-exact checkpoint every --checkpoint-every steps (default
      16), health watchdogs, and --on-divergence recovery (default
      rollback). --fault-plan injects deterministic faults, e.g.
      'lut@10:func=0,idx=8,word=0,bit=20;state@5:layer=0,r=1,c=2,bit=30'
      (kinds: lut, state, template); it implies --guard. Guard activity is
      emitted as 'guard' events in the metrics stream.
      --trace-out FILE writes a Chrome trace-event JSON of the run's
      phase spans (open in chrome://tracing or https://ui.perfetto.dev).
  cenn profile <system> [--grid N] [--steps N] [--threads N]
               [--format table|json] [--canonical] [--trace-out FILE]
               [--memory-budget SIZE]
      Run a system under the span tracer and print a phase-attribution
      breakdown (lut_lookup, template_apply, integrate, halo_sync, ...)
      with per-phase latency quantiles plus a memory line (peak resident
      bytes; spill bytes and window geometry when --memory-budget
      streams the run out-of-core). --canonical zeroes wall-clock
      fields so the output is byte-identical for any thread count.
  cenn bench [--quick] [--repeat N] [--threads N] [--dir DIR] [--out FILE]
             [--compare] [--baseline FILE] [--threshold PCT] [--history]
      Run the fixed benchmark suite (fisher, gray-scott, heat at two grid
      sizes; --quick shrinks it to 16x16) and write per-phase median
      times to the next BENCH_<n>.json in DIR. --compare diffs against
      the previous BENCH file (or --baseline FILE) and exits non-zero on
      any phase slower than --threshold percent (default 25). --history
      skips the run and prints a per-workload trend table of median wall
      times across every BENCH_<n>.json in DIR, oldest to newest.
  cenn serve [--listen ADDR] [--stats-listen ADDR] [--workers N]
             [--quantum N] [--spool DIR] [--session-logs DIR]
             [--max-sessions N] [--max-pending N] [--idle-timeout MS]
      Run the multi-tenant solver service: a blocking TCP accept loop
      (default 127.0.0.1:17117) over a fixed pool of N worker threads
      (default 2) scheduling client sessions in deterministic fair
      round-robin quanta (default 32 steps). Sessions suspend to
      CENNCKPT files in --spool and resume bit-exactly; --session-logs
      streams each session's lifecycle events to
      DIR/session_<id>.jsonl. If --spool holds a MANIFEST from a prior
      run, valid sessions are recovered as suspended and damaged files
      are quarantined before the server accepts connections.
      --max-sessions / --max-pending shed load with a retryable
      `overloaded` error past those ceilings; --idle-timeout closes
      connections silent for MS milliseconds, suspending their
      sessions first. --stats-listen serves the live metrics registry
      in Prometheus text format on http://ADDR/metrics (the same
      numbers the Stats frame returns). Blocks until a client sends
      Shutdown.
  cenn fleet [--connect ADDR] [--workers N] [--sessions N] [--steps N]
             [--chunk N] [--seed N] [--no-suspend] [--shutdown]
             [--durable] [--chaos SPEC]
      Drive the seeded synthetic client fleet: N concurrent sessions
      (default 8) running mixed workloads, one suspending/resuming
      mid-run. Prints per-session end-state digests plus a combined
      fleet digest — bit-identical for any worker count and across
      reruns. Without --connect the fleet self-hosts an in-process
      server with --workers threads; with --connect it targets a
      running `cenn serve` (--shutdown stops it afterwards).
      --durable drives each session through a retrying client with a
      per-chunk checkpoint cadence, so the fleet rides out server
      restarts. --chaos SPEC (implies --durable, self-hosted only)
      injects scheduled service faults — conn-drop@OP:session=N[,when=
      send|recv], frame-corrupt@OP:session=N[,byte=B,bit=B],
      worker-stall@QUANTUM:ms=M, crash-restart@OP:session=N — where OP
      is the target session's outbound-frame index. Fault accounting
      goes to stderr; stdout stays byte-comparable with an undisturbed
      run.
  cenn top [--connect ADDR] [--interval MS] [--once]
      Poll a running `cenn serve` over the versioned Stats frame and
      redraw a terminal dashboard every MS milliseconds (default 1000):
      session/queue/shed/spool pressure, per-phase latency quantiles,
      and per-session step rates. --once prints a single frame and
      exits (scriptable; what CI asserts against).
  cenn program --system <name> [--grid N] --out FILE
      Compile a system to its solver bitstream.
  cenn inspect FILE
      Decode and summarize a bitstream.
  cenn help
      Show this message.

MEMORY: ddr3 (default), hmc-int, hmc-ext";

/// Parse-or-execute error.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// All systems addressable by name.
fn systems() -> Vec<Box<dyn DynamicalSystem>> {
    let mut v = all_benchmarks();
    v.extend(extended_benchmarks());
    v
}

fn system_by_name(name: &str) -> Result<Box<dyn DynamicalSystem>, CliError> {
    systems()
        .into_iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| {
            err(format!(
                "unknown system '{name}'; available: {}",
                systems()
                    .iter()
                    .map(|s| s.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

/// Parsed options for `run` / `program`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    pub system: String,
    pub grid: usize,
    pub steps: u64,
    pub memory: String,
    pub integrator: Integrator,
    pub threads: Option<usize>,
    pub render: bool,
    pub pgm: Option<String>,
    pub report: bool,
    pub out: Option<String>,
    pub metrics_out: Option<String>,
    pub metrics_format: String,
    pub metrics_canonical: bool,
    pub trace_out: Option<String>,
    pub guard: bool,
    pub checkpoint_every: Option<u64>,
    pub fault_plan: Option<String>,
    pub on_divergence: cenn::guard::RecoveryPolicy,
    pub memory_budget: Option<u64>,
    pub spool: Option<String>,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            system: String::new(),
            grid: 64,
            steps: 0,
            memory: "ddr3".into(),
            integrator: Integrator::Euler,
            threads: None,
            render: false,
            pgm: None,
            report: false,
            out: None,
            metrics_out: None,
            metrics_format: "jsonl".into(),
            metrics_canonical: false,
            trace_out: None,
            guard: false,
            checkpoint_every: None,
            fault_plan: None,
            on_divergence: cenn::guard::RecoveryPolicy::Rollback,
            memory_budget: None,
            spool: None,
        }
    }
}

/// Parses a byte size with an optional K/M/G suffix (binary multiples).
pub fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'k' | 'K' => (&t[..t.len() - 1], 1u64 << 10),
        'm' | 'M' => (&t[..t.len() - 1], 1u64 << 20),
        'g' | 'G' => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let n: u64 = digits.parse().ok()?;
    n.checked_mul(mult).filter(|&v| v > 0)
}

/// Parses `--flag value` style options.
pub fn parse_opts(args: &[String]) -> Result<RunOpts, CliError> {
    let mut opts = RunOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--system" => opts.system = value("--system")?,
            "--grid" => {
                opts.grid = value("--grid")?
                    .parse()
                    .map_err(|_| err("--grid needs a positive integer"))?
            }
            "--steps" => {
                opts.steps = value("--steps")?
                    .parse()
                    .map_err(|_| err("--steps needs a non-negative integer"))?
            }
            "--memory" => opts.memory = value("--memory")?,
            "--integrator" => {
                opts.integrator = match value("--integrator")?.as_str() {
                    "euler" => Integrator::Euler,
                    "heun" => Integrator::Heun,
                    other => return Err(err(format!("unknown integrator '{other}'"))),
                }
            }
            "--threads" => {
                opts.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| err("--threads needs a positive integer"))?,
                )
            }
            "--render" => opts.render = true,
            "--report" => opts.report = true,
            "--pgm" => opts.pgm = Some(value("--pgm")?),
            "--out" => opts.out = Some(value("--out")?),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")?),
            "--metrics-format" => opts.metrics_format = value("--metrics-format")?,
            "--metrics-canonical" => opts.metrics_canonical = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--guard" => opts.guard = true,
            "--checkpoint-every" => {
                opts.guard = true;
                opts.checkpoint_every = Some(
                    value("--checkpoint-every")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| err("--checkpoint-every needs a positive integer"))?,
                )
            }
            "--fault-plan" => {
                opts.guard = true;
                opts.fault_plan = Some(value("--fault-plan")?)
            }
            "--on-divergence" => {
                opts.guard = true;
                opts.on_divergence = cenn::guard::RecoveryPolicy::parse(&value("--on-divergence")?)
                    .map_err(|e| err(format!("--on-divergence: {e}")))?
            }
            "--memory-budget" => {
                opts.memory_budget =
                    Some(parse_size(&value("--memory-budget")?).ok_or_else(|| {
                        err("--memory-budget needs a positive size (K/M/G suffixes allowed)")
                    })?)
            }
            "--spool" => opts.spool = Some(value("--spool")?),
            other => return Err(err(format!("unknown option '{other}'"))),
        }
    }
    if opts.system.is_empty() {
        return Err(err("--system is required"));
    }
    if !matches!(opts.metrics_format.as_str(), "jsonl" | "csv") {
        return Err(err(format!(
            "unknown metrics format '{}'; use jsonl or csv",
            opts.metrics_format
        )));
    }
    if opts.grid == 0 {
        return Err(err("--grid must be positive"));
    }
    if opts.threads == Some(0) {
        return Err(err("--threads must be positive"));
    }
    if opts.memory_budget.is_some() && opts.guard {
        return Err(err(
            "--memory-budget cannot combine with --guard: streamed runs \
             recover from their spool journal instead",
        ));
    }
    Ok(opts)
}

/// A budgeted command's spool directory: the user's `--spool DIR`, kept
/// after the command, or a temporary directory named
/// `cenn_<tag>_<pid>_<n>_<name>`, unique within the process, that the
/// guard removes when it drops — on every exit path, errors included.
pub(crate) struct SpoolDir {
    path: PathBuf,
    temporary: bool,
}

impl SpoolDir {
    pub(crate) fn new(user: Option<&str>, tag: &str, name: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        match user {
            Some(dir) => Self {
                path: dir.into(),
                temporary: false,
            },
            None => Self {
                path: std::env::temp_dir().join(format!(
                    "cenn_{tag}_{}_{}_{name}",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                )),
                temporary: true,
            },
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpoolDir {
    fn drop(&mut self) {
        if self.temporary {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Effective worker count: `--threads`, else `CENN_THREADS`, else serial.
fn resolve_threads(opts: &RunOpts) -> usize {
    opts.threads
        .or_else(|| {
            std::env::var("CENN_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(1)
        .max(1)
}

fn memory_by_name(name: &str) -> Result<MemorySpec, CliError> {
    match name {
        "ddr3" => Ok(MemorySpec::ddr3()),
        "hmc-int" => Ok(MemorySpec::hmc_int()),
        "hmc-ext" => Ok(MemorySpec::hmc_ext()),
        other => Err(err(format!(
            "unknown memory '{other}'; use ddr3, hmc-int or hmc-ext"
        ))),
    }
}

/// A system's default step count (for `profile`/`bench` when `--steps`
/// is absent).
pub fn system_default_steps(name: &str) -> Result<u64, CliError> {
    Ok(system_by_name(name)?.default_steps())
}

/// Builds a square-grid setup by system name (the `profile`/`bench`
/// entry point — no integrator or memory overrides).
pub fn build_profile_setup(name: &str, grid: usize) -> Result<SystemSetup, CliError> {
    system_by_name(name)?
        .build(grid, grid)
        .map_err(|e| err(format!("model build failed: {e}")))
}

fn build_setup(opts: &RunOpts) -> Result<SystemSetup, CliError> {
    let sys = system_by_name(&opts.system)?;
    let mut setup = sys
        .build(opts.grid, opts.grid)
        .map_err(|e| err(format!("model build failed: {e}")))?;
    if opts.integrator != Integrator::Euler {
        setup.model = setup.model.clone_with_integrator(opts.integrator);
    }
    Ok(setup)
}

/// Executes a command line, returning its stdout text.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(USAGE.to_string()),
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("profile") => crate::profile::cmd_profile(&args[1..]),
        Some("bench") => crate::bench::cmd_bench(&args[1..]),
        Some("serve") => crate::serve::cmd_serve(&args[1..]),
        Some("fleet") => crate::serve::cmd_fleet(&args[1..]),
        Some("top") => crate::top::cmd_top(&args[1..]),
        Some("program") => cmd_program(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some(other) => Err(err(format!("unknown command '{other}'"))),
    }
}

fn cmd_list() -> Result<String, CliError> {
    let mut out = String::from("available systems (paper benchmarks first):\n");
    for (i, s) in systems().iter().enumerate() {
        let tag = if i < 6 { "paper" } else { "extended" };
        writeln!(out, "  {:<20} [{tag}]", s.name()).unwrap();
    }
    Ok(out.trim_end().to_string())
}

fn cmd_run(args: &[String]) -> Result<String, CliError> {
    let opts = parse_opts(args)?;
    let sys = system_by_name(&opts.system)?;
    let steps = if opts.steps == 0 {
        sys.default_steps()
    } else {
        opts.steps
    };
    // Declared before the runner, so it is removed after the runner
    // closes its journal.
    let spool = opts
        .memory_budget
        .map(|_| SpoolDir::new(opts.spool.as_deref(), "spool", &opts.system));
    let mut runner =
        FixedRunner::new(build_setup(&opts)?).map_err(|e| err(format!("simulator setup: {e}")))?;
    let threads = resolve_threads(&opts);
    runner.set_threads(threads);
    // Streamed out-of-core mode: seed the spool from the setup, then every
    // step sweeps in bounded windows. Must happen before the run starts.
    if let (Some(budget), Some(dir)) = (opts.memory_budget, &spool) {
        runner
            .set_memory_budget(budget, dir.path())
            .map_err(|e| err(format!("--memory-budget: {e}")))?;
    }
    let metrics = match &opts.metrics_out {
        None => None,
        Some(path) => {
            let handle = match opts.metrics_format.as_str() {
                "csv" => cenn::obs::RecorderHandle::new(
                    cenn::obs::CsvSink::create(path, opts.metrics_canonical)
                        .map_err(|e| err(format!("creating {path}: {e}")))?,
                ),
                _ => cenn::obs::RecorderHandle::new(
                    cenn::obs::JsonlSink::create(path, opts.metrics_canonical)
                        .map_err(|e| err(format!("creating {path}: {e}")))?,
                ),
            };
            runner.set_recorder(handle.clone());
            Some((handle, path.clone()))
        }
    };
    let tracer = opts.trace_out.as_ref().map(|_| {
        let tracer = cenn::obs::TraceHandle::full();
        runner.set_tracer(tracer.clone());
        tracer
    });
    let (fired, guard_report) = if opts.guard {
        let mut cfg = cenn::guard::GuardConfig {
            on_divergence: opts.on_divergence,
            ..cenn::guard::GuardConfig::default()
        };
        if let Some(every) = opts.checkpoint_every {
            cfg.checkpoint_every = Some(every);
        }
        let mut guard = cenn::guard::Guard::new(cfg);
        if let Some(spec) = &opts.fault_plan {
            let plan = cenn::guard::FaultPlan::parse(spec)
                .map_err(|e| err(format!("--fault-plan: {e}")))?;
            guard = guard.with_plan(plan);
        }
        if let Some((handle, _)) = &metrics {
            guard = guard.with_recorder(handle.clone());
        }
        if let Some(tracer) = &tracer {
            guard = guard.with_tracer(tracer.clone());
        }
        let report = runner
            .run_guarded(&mut guard, steps)
            .map_err(|e| err(format!("guarded run: {e}")))?;
        (None, Some(report))
    } else {
        (Some(runner.run(steps)), None)
    };
    if let Some((handle, path)) = &metrics {
        runner.record_summary();
        runner.record_span_summaries();
        handle
            .flush()
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    if let (Some(tracer), Some(path)) = (&tracer, &opts.trace_out) {
        tracer
            .write_chrome_trace(path)
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }

    // The digest and each layer's raw range, in one pass over the state
    // (chunk by chunk from the spool when streamed).
    let mut ranges = vec![(i32::MAX, i32::MIN); runner.setup().model.n_layers()];
    let digest = runner
        .fold_state(|l, cells| {
            let (lo, hi) = &mut ranges[l];
            for v in cells {
                (*lo, *hi) = ((*lo).min(v.to_bits()), (*hi).max(v.to_bits()));
            }
        })
        .map_err(|e| err(format!("reading spool: {e}")))?;

    let mut out = String::new();
    writeln!(
        out,
        "{}: {}x{} grid, {} layers, {} steps (t = {:.3})",
        opts.system,
        opts.grid,
        opts.grid,
        runner.setup().model.n_layers(),
        steps,
        runner.time()
    )
    .unwrap();
    if threads > 1 {
        writeln!(out, "worker threads: {threads}").unwrap();
    }
    if let (Some(budget), Some(s)) = (opts.memory_budget, runner.stream()) {
        writeln!(
            out,
            "memory budget: {budget} bytes -> {} chunk rows, {} windows; \
             peak resident {} bytes, spilled {} bytes",
            s.chunk_rows(),
            s.n_windows(),
            runner.peak_resident_bytes(),
            runner.spill_bytes()
        )
        .unwrap();
    }
    if let Some(fired) = fired {
        if runner.setup().model.post_step().is_some() {
            writeln!(out, "spikes fired: {fired}").unwrap();
        }
    }
    if let Some(report) = &guard_report {
        writeln!(
            out,
            "guard: policy {}, {} checkpoints, {} faults injected, {} LUT entries repaired, {} rollbacks",
            opts.on_divergence,
            report.checkpoints,
            report.faults_injected,
            report.scrub_repairs,
            report.rollbacks
        )
        .unwrap();
    }
    let (mr1, mr2) = runner.miss_rates();
    writeln!(out, "LUT miss rates: mr_L1 = {mr1:.3}, mr_L2 = {mr2:.3}").unwrap();
    writeln!(out, "state digest: {digest:016x}").unwrap();
    for (id, name) in &runner.setup().observed {
        let (lo, hi) = ranges[id.index()];
        writeln!(
            out,
            "layer {name}: range [{:.4}, {:.4}]",
            Q16_16::from_bits(lo).to_f64(),
            Q16_16::from_bits(hi).to_f64()
        )
        .unwrap();
    }
    if opts.render {
        let (name, grid) = &runner.observed_states()[0];
        writeln!(out, "\nlayer {name}:").unwrap();
        out.push_str(&render::ascii(grid, 32));
    }
    if let Some(path) = &opts.pgm {
        let (_, grid) = &runner.observed_states()[0];
        render::write_pgm(grid, path).map_err(|e| err(format!("writing {path}: {e}")))?;
        writeln!(out, "wrote {path}").unwrap();
    }
    if let Some((_, path)) = &metrics {
        // Every executed step (including replays) emits one metrics event,
        // plus the run summary, any guard events, and one span summary
        // per traced phase.
        let span_events = tracer.as_ref().map_or(0, |t| t.summaries().len() as u64);
        let events = span_events
            + match &guard_report {
                None => steps + 1,
                Some(r) => r.steps_executed + 1 + r.guard_events,
            };
        writeln!(
            out,
            "metrics: wrote {events} events to {path} ({})",
            opts.metrics_format
        )
        .unwrap();
    }
    if opts.report {
        let mem = memory_by_name(&opts.memory)?;
        let est = CycleModel::new(mem, PeArrayConfig::default())
            .estimate(&runner.setup().model, (mr1, mr2));
        writeln!(out, "\narchitecture estimate ({}):", opts.memory).unwrap();
        writeln!(out, "  time/step:    {:.3} us", est.time_per_step_s() * 1e6).unwrap();
        writeln!(
            out,
            "  run time:     {:.3} ms",
            est.total_time_s(steps) * 1e3
        )
        .unwrap();
        writeln!(out, "  throughput:   {:.1} GOPS", est.achieved_gops()).unwrap();
        writeln!(out, "  system power: {:.2} W", est.system_power_w()).unwrap();
        writeln!(out, "  efficiency:   {:.1} GOPS/W", est.gops_per_watt()).unwrap();
    }
    Ok(out.trim_end().to_string())
}

fn cmd_program(args: &[String]) -> Result<String, CliError> {
    let opts = parse_opts(args)?;
    let path = opts
        .out
        .clone()
        .ok_or_else(|| err("program needs --out FILE"))?;
    let setup = build_setup(&opts)?;
    let program =
        Program::from_model(&setup.model).map_err(|e| err(format!("compile failed: {e}")))?;
    let bytes = program.encode();
    std::fs::write(&path, &bytes).map_err(|e| err(format!("writing {path}: {e}")))?;
    Ok(format!(
        "compiled {} ({}x{}) -> {path}: {} bytes ({} templates, {} LUT entries)",
        opts.system,
        opts.grid,
        opts.grid,
        bytes.len(),
        program.templates.len(),
        program.luts.iter().map(|l| l.entries.len()).sum::<usize>()
    ))
}

fn cmd_inspect(args: &[String]) -> Result<String, CliError> {
    let path = args.first().ok_or_else(|| err("inspect needs a FILE"))?;
    let bytes = std::fs::read(path).map_err(|e| err(format!("reading {path}: {e}")))?;
    let p = Program::decode(&bytes).map_err(|e| err(format!("malformed bitstream: {e}")))?;
    let mut out = String::new();
    writeln!(
        out,
        "{path}: valid CENN bitstream v{}",
        cenn::program::BITSTREAM_VERSION
    )
    .unwrap();
    writeln!(out, "  grid:        {}x{}", p.rows(), p.cols()).unwrap();
    writeln!(
        out,
        "  layers:      {} (kinds {:?})",
        p.n_layers, p.layer_kinds
    )
    .unwrap();
    writeln!(out, "  kernel:      {}x{}", p.kernel, p.kernel).unwrap();
    writeln!(
        out,
        "  integrator:  {}",
        if p.integrator == 0 { "euler" } else { "heun" }
    )
    .unwrap();
    writeln!(out, "  templates:   {}", p.templates.len()).unwrap();
    writeln!(out, "  offsets:     {}", p.offsets.len()).unwrap();
    writeln!(out, "  dyn sites:   {}", p.dyn_descs.len()).unwrap();
    writeln!(
        out,
        "  LUT images:  {} ({} bytes)",
        p.luts.len(),
        p.lut_bytes()
    )
    .unwrap();
    writeln!(out, "  stream size: {} bytes", bytes.len()).unwrap();
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn help_and_empty_show_usage() {
        assert!(dispatch(&[]).unwrap().contains("USAGE"));
        assert!(dispatch(&s(&["help"])).unwrap().contains("USAGE"));
    }

    #[test]
    fn list_names_all_nine_systems() {
        let out = dispatch(&s(&["list"])).unwrap();
        for name in [
            "heat",
            "navier-stokes",
            "fisher",
            "reaction-diffusion",
            "hodgkin-huxley",
            "izhikevich",
            "wave",
            "burgers",
            "gray-scott",
        ] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(
            parse_opts(&s(&["--grid", "64"])).is_err(),
            "system required"
        );
        assert!(parse_opts(&s(&["--system", "heat", "--grid", "x"])).is_err());
        assert!(parse_opts(&s(&["--system", "heat", "--bogus"])).is_err());
        assert!(parse_opts(&s(&["--system", "heat", "--grid"])).is_err());
        assert!(parse_opts(&s(&["--system", "heat", "--integrator", "rk9"])).is_err());
    }

    #[test]
    fn parse_accepts_full_option_set() {
        let o = parse_opts(&s(&[
            "--system",
            "fisher",
            "--grid",
            "32",
            "--steps",
            "10",
            "--memory",
            "hmc-int",
            "--integrator",
            "heun",
            "--render",
            "--report",
        ]))
        .unwrap();
        assert_eq!(o.system, "fisher");
        assert_eq!(o.grid, 32);
        assert_eq!(o.steps, 10);
        assert_eq!(o.memory, "hmc-int");
        assert_eq!(o.integrator, Integrator::Heun);
        assert!(o.render && o.report);
    }

    #[test]
    fn parse_threads_flag() {
        let o = parse_opts(&s(&["--system", "heat", "--threads", "4"])).unwrap();
        assert_eq!(o.threads, Some(4));
        assert!(parse_opts(&s(&["--system", "heat", "--threads", "0"])).is_err());
        assert!(parse_opts(&s(&["--system", "heat", "--threads", "x"])).is_err());
        // Unset: defers to CENN_THREADS / serial.
        let o = parse_opts(&s(&["--system", "heat"])).unwrap();
        assert_eq!(o.threads, None);
    }

    #[test]
    fn threaded_run_matches_serial_output() {
        let base = s(&["run", "--system", "fisher", "--grid", "16", "--steps", "15"]);
        let serial = dispatch(&base).unwrap();
        let mut threaded = base.clone();
        threaded.extend(s(&["--threads", "4"]));
        let par = dispatch(&threaded).unwrap();
        assert!(par.contains("worker threads: 4"));
        // Identical trajectories -> identical ranges and miss rates.
        let strip = |t: &str| {
            t.lines()
                .filter(|l| !l.starts_with("worker threads"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&serial), strip(&par));
    }

    #[test]
    fn parse_metrics_flags() {
        let o = parse_opts(&s(&[
            "--system",
            "heat",
            "--metrics-out",
            "m.jsonl",
            "--metrics-format",
            "csv",
            "--metrics-canonical",
        ]))
        .unwrap();
        assert_eq!(o.metrics_out.as_deref(), Some("m.jsonl"));
        assert_eq!(o.metrics_format, "csv");
        assert!(o.metrics_canonical);
        assert!(
            parse_opts(&s(&["--system", "heat", "--metrics-format", "xml"])).is_err(),
            "unknown format rejected"
        );
    }

    #[test]
    fn metrics_out_streams_schema_valid_reproducible_jsonl() {
        let dir = std::env::temp_dir().join("cenn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |name: &str, threads: &str| {
            let path = dir.join(name);
            let path_str = path.to_str().unwrap().to_string();
            let out = dispatch(&s(&[
                "run",
                "--system",
                "fisher",
                "--grid",
                "16",
                "--steps",
                "6",
                "--threads",
                threads,
                "--metrics-out",
                &path_str,
                "--metrics-canonical",
            ]))
            .unwrap();
            assert!(out.contains("metrics: wrote 7 events"), "{out}");
            let text = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            text
        };
        let serial = run("m1.jsonl", "1");
        assert_eq!(serial.lines().count(), 7, "6 steps + summary");
        for line in serial.lines() {
            cenn::obs::validate_jsonl_line(line).unwrap();
        }
        assert!(serial.lines().last().unwrap().contains("\"run_summary\""));
        // Canonical stream is byte-for-byte identical across thread counts.
        let par = run("m4.jsonl", "4");
        assert_eq!(serial, par);
    }

    #[test]
    fn metrics_csv_has_header_and_rows() {
        let dir = std::env::temp_dir().join("cenn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.csv");
        let path_str = path.to_str().unwrap().to_string();
        dispatch(&s(&[
            "run",
            "--system",
            "heat",
            "--grid",
            "16",
            "--steps",
            "3",
            "--metrics-out",
            &path_str,
            "--metrics-format",
            "csv",
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], cenn::obs::CSV_HEADER);
        assert_eq!(lines.len(), 1 + 3 + 1, "header + 3 steps + summary");
    }

    #[test]
    fn run_trace_out_writes_chrome_trace_and_span_summaries() {
        let dir = std::env::temp_dir().join("cenn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("run_trace.json");
        let metrics = dir.join("run_trace_metrics.jsonl");
        let out = dispatch(&s(&[
            "run",
            "--system",
            "fisher",
            "--grid",
            "16",
            "--steps",
            "6",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let metrics_text = std::fs::read_to_string(&metrics).unwrap();
        std::fs::remove_file(&trace).unwrap();
        std::fs::remove_file(&metrics).unwrap();
        let doc = cenn::obs::parse_json(&trace_text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty(), "trace must contain spans");
        assert!(
            metrics_text.contains("\"event\":\"span_summary\""),
            "span summaries interleave with metrics"
        );
        for line in metrics_text.lines() {
            cenn::obs::validate_jsonl_line(line).unwrap();
        }
        // The reported event count includes the span summaries.
        let n = metrics_text.lines().count();
        assert!(out.contains(&format!("wrote {n} events")), "{out}");
    }

    #[test]
    fn parse_guard_flags() {
        let o = parse_opts(&s(&["--system", "heat", "--guard"])).unwrap();
        assert!(o.guard);
        assert_eq!(o.on_divergence, cenn::guard::RecoveryPolicy::Rollback);
        // Any guard-family flag implies --guard.
        let o = parse_opts(&s(&[
            "--system",
            "heat",
            "--fault-plan",
            "lut@4:func=0,idx=0,word=0,bit=20",
            "--checkpoint-every",
            "8",
            "--on-divergence",
            "bypass-lut",
        ]))
        .unwrap();
        assert!(o.guard);
        assert_eq!(o.checkpoint_every, Some(8));
        assert_eq!(o.on_divergence, cenn::guard::RecoveryPolicy::BypassLut);
        assert!(parse_opts(&s(&["--system", "heat", "--checkpoint-every", "0"])).is_err());
        assert!(parse_opts(&s(&["--system", "heat", "--on-divergence", "panic"])).is_err());
    }

    #[test]
    fn guarded_run_repairs_injected_fault_and_reports() {
        let dir = std::env::temp_dir().join("cenn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("guard.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let out = dispatch(&s(&[
            "run",
            "--system",
            "fisher",
            "--grid",
            "16",
            "--steps",
            "24",
            "--guard",
            "--checkpoint-every",
            "8",
            "--fault-plan",
            "lut@10:func=0,idx=8,word=0,bit=20",
            "--on-divergence",
            "rollback",
            "--metrics-out",
            &path_str,
            "--metrics-canonical",
        ]))
        .unwrap();
        assert!(out.contains("guard: policy rollback"), "{out}");
        assert!(out.contains("1 faults injected"), "{out}");
        assert!(out.contains("1 LUT entries repaired"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for line in text.lines() {
            cenn::obs::validate_jsonl_line(line).unwrap();
        }
        assert!(text.contains("\"kind\":\"scrub_repair\""), "{text}");
        assert!(text.contains("\"kind\":\"fault_injected\""), "{text}");
        assert!(text.contains("\"kind\":\"checkpoint\""), "{text}");
        // The unfaulted guarded run ends at the same observed ranges.
        let clean = dispatch(&s(&[
            "run", "--system", "fisher", "--grid", "16", "--steps", "24",
        ]))
        .unwrap();
        let range = |t: &str| {
            t.lines()
                .find(|l| l.starts_with("layer "))
                .unwrap()
                .to_string()
        };
        assert_eq!(range(&out), range(&clean));
    }

    /// CI's fault-injection smoke, in both metrics formats, must reproduce
    /// `tests/fixtures/guard_smoke.{jsonl,csv}` byte for byte (re-bless
    /// with `CENN_BLESS=1 cargo test -p cenn-cli guard_smoke`).
    #[test]
    fn guard_smoke_matches_committed_fixtures() {
        let dir = std::env::temp_dir().join("cenn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        for format in ["jsonl", "csv"] {
            let name = format!("guard_smoke.{format}");
            let path = dir.join(&name);
            dispatch(&s(&[
                "run",
                "--system",
                "fisher",
                "--grid",
                "16",
                "--steps",
                "24",
                "--guard",
                "--checkpoint-every",
                "8",
                "--fault-plan",
                "lut@10:func=0,idx=8,word=0,bit=20",
                "--on-divergence",
                "rollback",
                "--metrics-out",
                path.to_str().unwrap(),
                "--metrics-format",
                format,
                "--metrics-canonical",
            ]))
            .unwrap();
            let got = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../tests/fixtures")
                .join(&name);
            if std::env::var_os("CENN_BLESS").is_some() {
                std::fs::write(&fixture, &got).unwrap();
                continue;
            }
            let want = std::fs::read_to_string(&fixture).unwrap_or_else(|e| {
                panic!(
                    "missing fixture {}: {e}; run with CENN_BLESS=1",
                    fixture.display()
                )
            });
            assert_eq!(
                got, want,
                "{name} deviates from the golden fixture; if the change is \
                 intentional, re-bless with CENN_BLESS=1"
            );
        }
    }

    #[test]
    fn parse_size_handles_suffixes() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size("2m"), Some(2 << 20));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("0"), None);
        assert_eq!(parse_size("12Q"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn parse_memory_budget_flags() {
        let o = parse_opts(&s(&["--system", "fisher", "--memory-budget", "64K"])).unwrap();
        assert_eq!(o.memory_budget, Some(64 << 10));
        assert!(parse_opts(&s(&["--system", "fisher", "--memory-budget", "x"])).is_err());
        assert!(
            parse_opts(&s(&[
                "--system",
                "fisher",
                "--memory-budget",
                "64K",
                "--guard"
            ]))
            .is_err(),
            "streamed + guard rejected"
        );
    }

    #[test]
    fn memory_budget_run_matches_in_core_digest() {
        let base = s(&["run", "--system", "fisher", "--grid", "24", "--steps", "12"]);
        let in_core = dispatch(&base).unwrap();
        let mut streamed = base.clone();
        streamed.extend(s(&["--memory-budget", "16K"]));
        let out = dispatch(&streamed).unwrap();
        assert!(out.contains("memory budget: 16384 bytes"), "{out}");
        let digest = |t: &str| {
            t.lines()
                .find(|l| l.starts_with("state digest: "))
                .unwrap()
                .to_string()
        };
        assert_eq!(digest(&in_core), digest(&out), "streamed == in-core");
        // And thread count doesn't change the streamed digest either.
        let mut threaded = streamed.clone();
        threaded.extend(s(&["--threads", "4"]));
        assert_eq!(digest(&dispatch(&threaded).unwrap()), digest(&out));
    }

    #[test]
    fn run_heat_produces_a_report() {
        let out = dispatch(&s(&[
            "run", "--system", "heat", "--grid", "16", "--steps", "20", "--report",
        ]))
        .unwrap();
        assert!(out.contains("heat: 16x16"));
        assert!(out.contains("time/step"));
        assert!(out.contains("GOPS"));
    }

    #[test]
    fn run_unknown_system_fails_cleanly() {
        let e = dispatch(&s(&["run", "--system", "nope"])).unwrap_err();
        assert!(e.to_string().contains("unknown system"));
        assert!(e.to_string().contains("heat"), "lists alternatives");
    }

    #[test]
    fn program_and_inspect_round_trip() {
        let dir = std::env::temp_dir().join("cenn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fisher.cenn");
        let path_str = path.to_str().unwrap();
        let out = dispatch(&s(&[
            "program", "--system", "fisher", "--grid", "32", "--out", path_str,
        ]))
        .unwrap();
        assert!(out.contains("compiled fisher"));
        let out = dispatch(&s(&["inspect", path_str])).unwrap();
        assert!(out.contains("valid CENN bitstream"));
        assert!(out.contains("32x32"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn inspect_rejects_garbage() {
        let dir = std::env::temp_dir().join("cenn_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("junk.bin");
        std::fs::write(&path, b"not a bitstream").unwrap();
        let e = dispatch(&s(&["inspect", path.to_str().unwrap()])).unwrap_err();
        assert!(e.to_string().contains("malformed"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn run_with_heun_works() {
        let out = dispatch(&s(&[
            "run",
            "--system",
            "wave",
            "--grid",
            "16",
            "--steps",
            "10",
            "--integrator",
            "heun",
        ]))
        .unwrap();
        assert!(out.contains("wave: 16x16"));
    }
}
