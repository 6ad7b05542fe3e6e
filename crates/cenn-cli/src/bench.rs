//! `cenn bench` — a self-profiling benchmark harness over the span
//! tracer: fixed workloads, per-phase medians across repetitions,
//! numbered `BENCH_<n>.json` result files, and `--compare` regression
//! detection against the previous baseline.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use cenn::equations::FixedRunner;
use cenn::obs::trace::{Phase, TraceHandle};
use cenn::obs::{parse_json, JsonValue};

use crate::cli::{build_profile_setup, CliError, SpoolDir};

/// Result-file schema version (bumped on breaking shape changes).
pub const BENCH_SCHEMA: u64 = 1;

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// One benchmark workload: a named system at a grid size and step count,
/// optionally streamed out-of-core under a memory budget.
#[derive(Debug, Clone)]
struct Workload {
    system: &'static str,
    grid: usize,
    steps: u64,
    /// Streamed-mode resident budget in bytes (`None` = in-core).
    budget: Option<u64>,
}

impl Workload {
    fn name(&self) -> String {
        match self.budget {
            Some(_) => format!("{}@{}-streamed", self.system, self.grid),
            None => format!("{}@{}", self.system, self.grid),
        }
    }
}

/// The full suite: the two reaction–diffusion paper benchmarks plus the
/// quickstart heat system, each at two grid sizes, and a streamed
/// out-of-core fisher run whose window engine is held to the same
/// regression gate as the in-core sweeps.
fn workloads(quick: bool) -> Vec<Workload> {
    let w = |system, grid, steps| Workload {
        system,
        grid,
        steps,
        budget: None,
    };
    let streamed = |system, grid, steps, budget| Workload {
        system,
        grid,
        steps,
        budget: Some(budget),
    };
    if quick {
        vec![
            w("fisher", 16, 10),
            w("gray-scott", 16, 10),
            w("heat", 16, 10),
            // Large-grid streamed workload in the quick gate: 256x256
            // under a budget ~5x below its in-core working set, so spill
            // and halo-exchange throughput cannot silently regress.
            streamed("fisher", 256, 10, 256 << 10),
        ]
    } else {
        vec![
            w("fisher", 24, 40),
            w("fisher", 48, 40),
            w("gray-scott", 24, 40),
            w("gray-scott", 48, 40),
            w("heat", 32, 40),
            w("heat", 64, 40),
            // 256x256 under a budget ~5x below its in-core working set:
            // exercises chunk spill/fill and windowed halo exchange.
            streamed("fisher", 256, 10, 256 << 10),
        ]
    }
}

/// Parsed options for `bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchOpts {
    pub quick: bool,
    pub repeat: u64,
    pub threads: usize,
    pub out: Option<String>,
    pub dir: String,
    pub compare: bool,
    pub baseline: Option<String>,
    pub threshold_pct: f64,
    /// Print the trend table across all committed `BENCH_<n>.json` files
    /// instead of running the suite.
    pub history: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            quick: false,
            repeat: 3,
            threads: 1,
            out: None,
            dir: ".".into(),
            compare: false,
            baseline: None,
            threshold_pct: 25.0,
            history: false,
        }
    }
}

/// Parses `bench` arguments.
pub fn parse_bench_opts(args: &[String]) -> Result<BenchOpts, CliError> {
    let mut opts = BenchOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--repeat" => {
                opts.repeat = value("--repeat")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--repeat needs a positive integer"))?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--threads needs a positive integer"))?
            }
            "--out" => opts.out = Some(value("--out")?),
            "--dir" => opts.dir = value("--dir")?,
            "--compare" => opts.compare = true,
            "--history" => opts.history = true,
            "--baseline" => {
                opts.compare = true;
                opts.baseline = Some(value("--baseline")?)
            }
            "--threshold" => {
                opts.threshold_pct = value("--threshold")?
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| err("--threshold needs a non-negative percentage"))?
            }
            other => return Err(err(format!("unknown option '{other}'"))),
        }
    }
    Ok(opts)
}

/// One measured workload: deterministic per-phase counts plus
/// noise-reduced (median over repetitions) per-phase total times.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub system: String,
    pub grid: u64,
    pub steps: u64,
    /// Streamed-mode memory budget in bytes (absent for in-core runs and
    /// in baselines written before streamed workloads existed).
    pub budget: Option<u64>,
    pub median_wall_nanos: u64,
    /// `(phase, count, median_total_nanos)` for every phase with spans.
    pub phases: Vec<(String, u64, u64)>,
}

/// A parsed or freshly-measured result file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResults {
    pub quick: bool,
    pub repeat: u64,
    pub workloads: Vec<WorkloadResult>,
}

fn median(sorted: &mut [u64]) -> u64 {
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// Runs the suite, returning per-phase medians across `repeat` runs of
/// each workload.
pub fn run_suite(opts: &BenchOpts) -> Result<BenchResults, CliError> {
    let mut results = Vec::new();
    for w in workloads(opts.quick) {
        // counts[phase] fixed by determinism; totals vary per repetition.
        let mut counts: Option<Vec<(Phase, u64)>> = None;
        let mut totals: Vec<Vec<u64>> = vec![Vec::new(); Phase::ALL.len()];
        let mut walls = Vec::new();
        for rep in 0..opts.repeat {
            let spool = w.budget.map(|budget| {
                let name = w.name().replace('@', "_");
                (budget, SpoolDir::new(None, "bench_spool", &name))
            });
            let setup = build_profile_setup(w.system, w.grid)?;
            let mut runner =
                FixedRunner::new(setup).map_err(|e| err(format!("simulator setup: {e}")))?;
            runner.set_threads(opts.threads);
            if let Some((budget, dir)) = &spool {
                runner
                    .set_memory_budget(*budget, dir.path())
                    .map_err(|e| err(format!("{}: --memory-budget: {e}", w.name())))?;
            }
            let tracer = TraceHandle::histograms_only();
            runner.set_tracer(tracer.clone());
            runner.run(w.steps);
            walls.push(runner.run_nanos());
            let rep_counts: Vec<(Phase, u64)> = Phase::ALL
                .iter()
                .map(|&p| (p, tracer.with(|c| c.phase_count(p))))
                .collect();
            for (i, &(p, _)) in rep_counts.iter().enumerate() {
                totals[i].push(tracer.with(|c| c.phase_total_nanos(p)));
            }
            match &counts {
                None => counts = Some(rep_counts),
                Some(first) => {
                    if *first != rep_counts {
                        return Err(err(format!(
                            "{}: span counts drifted between repetitions {} and 0 — \
                             determinism contract broken",
                            w.name(),
                            rep
                        )));
                    }
                }
            }
        }
        let counts = counts.expect("repeat >= 1");
        let phases = counts
            .iter()
            .enumerate()
            .filter(|(_, (_, n))| *n > 0)
            .map(|(i, (p, n))| (p.as_str().to_string(), *n, median(&mut totals[i])))
            .collect();
        results.push(WorkloadResult {
            name: w.name(),
            system: w.system.to_string(),
            grid: w.grid as u64,
            steps: w.steps,
            budget: w.budget,
            median_wall_nanos: median(&mut walls),
            phases,
        });
    }
    Ok(BenchResults {
        quick: opts.quick,
        repeat: opts.repeat,
        workloads: results,
    })
}

/// Serializes results as the `BENCH_<n>.json` document.
pub fn to_json(r: &BenchResults) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"bench_schema\":{BENCH_SCHEMA},"));
    out.push_str(&format!("\"quick\":{},", r.quick));
    out.push_str(&format!("\"repeat\":{},", r.repeat));
    out.push_str("\"workloads\":[");
    for (i, w) in r.workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let budget = match w.budget {
            Some(b) => format!("\"budget\":{b},"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"system\":\"{}\",\"grid\":{},\"steps\":{},{budget}\
             \"median_wall_nanos\":{},\"phases\":[",
            w.name, w.system, w.grid, w.steps, w.median_wall_nanos
        ));
        for (j, (phase, count, nanos)) in w.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"phase\":\"{phase}\",\"count\":{count},\"median_total_nanos\":{nanos}}}"
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn get_u64(v: &JsonValue, key: &str, ctx: &str) -> Result<u64, CliError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as u64)
        .ok_or_else(|| err(format!("{ctx}: missing or invalid '{key}'")))
}

fn get_str(v: &JsonValue, key: &str, ctx: &str) -> Result<String, CliError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| err(format!("{ctx}: missing or invalid '{key}'")))
}

/// Parses a `BENCH_<n>.json` document.
pub fn from_json(text: &str) -> Result<BenchResults, CliError> {
    let doc = parse_json(text).map_err(|e| err(format!("malformed bench file: {e}")))?;
    let schema = get_u64(&doc, "bench_schema", "bench file")?;
    if schema != BENCH_SCHEMA {
        return Err(err(format!(
            "bench file schema {schema} != supported {BENCH_SCHEMA}"
        )));
    }
    let quick = matches!(doc.get("quick"), Some(JsonValue::Bool(true)));
    let repeat = get_u64(&doc, "repeat", "bench file")?;
    let mut workloads = Vec::new();
    for w in doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| err("bench file: missing 'workloads' array"))?
    {
        let name = get_str(w, "name", "workload")?;
        let mut phases = Vec::new();
        for p in w
            .get("phases")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| err(format!("workload {name}: missing 'phases'")))?
        {
            phases.push((
                get_str(p, "phase", &name)?,
                get_u64(p, "count", &name)?,
                get_u64(p, "median_total_nanos", &name)?,
            ));
        }
        workloads.push(WorkloadResult {
            system: get_str(w, "system", &name)?,
            grid: get_u64(w, "grid", &name)?,
            steps: get_u64(w, "steps", &name)?,
            // Optional: absent from pre-streaming baselines.
            budget: w
                .get("budget")
                .map(|_| get_u64(w, "budget", &name))
                .transpose()?,
            median_wall_nanos: get_u64(w, "median_wall_nanos", &name)?,
            phases,
            name,
        });
    }
    Ok(BenchResults {
        quick,
        repeat,
        workloads,
    })
}

/// One detected regression (or contract drift) from a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub workload: String,
    pub phase: String,
    pub detail: String,
}

/// Absolute slack under which timing differences are treated as noise —
/// spans shorter than this regularly jitter by whole multiples.
const NOISE_FLOOR_NANOS: u64 = 100_000;

/// Compares `candidate` against `baseline`: flags any phase whose median
/// total grew more than `threshold_pct` (beyond the noise floor), and any
/// drift in the exact span counts (a determinism-contract violation, not
/// a perf problem — still a regression). A phase present on one side
/// only is count drift too, whichever side lacks it, and so is a baseline
/// workload the candidate lacks; a workload new in the candidate has
/// nothing to compare against.
pub fn compare(
    baseline: &BenchResults,
    candidate: &BenchResults,
    threshold_pct: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    let drift = |workload: &str, phase: &str, detail: &str| Regression {
        workload: workload.into(),
        phase: phase.into(),
        detail: format!("{detail} (count drift)"),
    };
    for bw in &baseline.workloads {
        let Some(cw) = candidate.workloads.iter().find(|c| c.name == bw.name) else {
            out.push(drift(&bw.name, "*", "workload absent from candidate"));
            continue;
        };
        for (phase, _, _) in &bw.phases {
            if !cw.phases.iter().any(|(p, _, _)| p == phase) {
                out.push(drift(&bw.name, phase, "phase absent from candidate"));
            }
        }
    }
    for cw in &candidate.workloads {
        let Some(bw) = baseline.workloads.iter().find(|b| b.name == cw.name) else {
            continue;
        };
        for (phase, count, nanos) in &cw.phases {
            let Some((_, b_count, b_nanos)) = bw.phases.iter().find(|(p, _, _)| p == phase) else {
                out.push(drift(&cw.name, phase, "phase absent from baseline"));
                continue;
            };
            if count != b_count {
                out.push(Regression {
                    workload: cw.name.clone(),
                    phase: phase.clone(),
                    detail: format!("span count drifted: {b_count} -> {count}"),
                });
            }
            let limit =
                (*b_nanos as f64 * (1.0 + threshold_pct / 100.0)) as u64 + NOISE_FLOOR_NANOS;
            if *nanos > limit {
                let pct = if *b_nanos == 0 {
                    f64::INFINITY
                } else {
                    100.0 * (*nanos as f64 / *b_nanos as f64 - 1.0)
                };
                out.push(Regression {
                    workload: cw.name.clone(),
                    phase: phase.clone(),
                    detail: format!(
                        "median {b_nanos}ns -> {nanos}ns (+{pct:.0}%, threshold {threshold_pct:.0}%)"
                    ),
                });
            }
        }
    }
    out
}

/// Every `BENCH_<n>.json` in `dir`, ascending by `n`.
fn all_bench_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|r| r.parse::<u64>().ok())
        {
            found.push((n, entry.path()));
        }
    }
    found.sort_by_key(|(n, _)| *n);
    found
}

/// Largest existing `BENCH_<n>.json` path in `dir`, if any.
fn latest_bench_file(dir: &Path) -> Option<(u64, PathBuf)> {
    all_bench_files(dir).pop()
}

/// `bench --history`: a per-workload trend table of median wall times
/// across every committed baseline, oldest to newest — the quick answer
/// to "has this workload been drifting?".
fn cmd_history(dir: &Path) -> Result<String, CliError> {
    let files = all_bench_files(dir);
    if files.is_empty() {
        return Err(err(format!(
            "--history: no BENCH_<n>.json files found in {}",
            dir.display()
        )));
    }
    let mut columns = Vec::new();
    let mut order: Vec<String> = Vec::new();
    for (n, path) in &files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("reading {}: {e}", path.display())))?;
        let results = from_json(&text)?;
        for w in &results.workloads {
            if !order.contains(&w.name) {
                order.push(w.name.clone());
            }
        }
        columns.push((*n, results));
    }
    let mut out = String::new();
    writeln!(
        out,
        "bench history: {} baseline(s) in {}",
        files.len(),
        dir.display()
    )
    .unwrap();
    let mut header = format!("  {:<22}", "workload");
    for (n, _) in &columns {
        write!(header, " {:>12}", format!("BENCH_{n}")).unwrap();
    }
    writeln!(out, "{header}").unwrap();
    for name in &order {
        let mut row = format!("  {name:<22}");
        for (_, results) in &columns {
            let cell = results
                .workloads
                .iter()
                .find(|w| &w.name == name)
                .map_or_else(
                    || "-".to_string(),
                    |w| format!("{:.2}ms", w.median_wall_nanos as f64 / 1e6),
                );
            write!(row, " {cell:>12}").unwrap();
        }
        writeln!(out, "{row}").unwrap();
    }
    Ok(out.trim_end().to_string())
}

/// Runs the suite, writes `BENCH_<n>.json` (or `--out FILE`), and — with
/// `--compare` — diffs against the previous baseline first.
///
/// # Errors
///
/// Besides I/O and parse failures, returns an error when `--compare`
/// detects regressions, so the process exits non-zero for CI.
pub fn cmd_bench(args: &[String]) -> Result<String, CliError> {
    let opts = parse_bench_opts(args)?;
    let dir = PathBuf::from(&opts.dir);
    if opts.history {
        return cmd_history(&dir);
    }
    let results = run_suite(&opts)?;
    let mut out = String::new();
    writeln!(
        out,
        "bench: {} workloads x {} repetitions{}",
        results.workloads.len(),
        opts.repeat,
        if opts.quick { " (quick)" } else { "" }
    )
    .unwrap();
    for w in &results.workloads {
        let phases: Vec<String> = w
            .phases
            .iter()
            .map(|(p, _, n)| format!("{p} {:.2}ms", *n as f64 / 1e6))
            .collect();
        writeln!(
            out,
            "  {:<16} wall {:>8.2}ms  {}",
            w.name,
            w.median_wall_nanos as f64 / 1e6,
            phases.join(", ")
        )
        .unwrap();
    }
    let baseline = if opts.compare {
        let path = match &opts.baseline {
            Some(p) => PathBuf::from(p),
            None => {
                latest_bench_file(&dir)
                    .ok_or_else(|| {
                        err(format!(
                            "--compare: no BENCH_<n>.json baseline found in {}",
                            dir.display()
                        ))
                    })?
                    .1
            }
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| err(format!("reading {}: {e}", path.display())))?;
        Some((path, from_json(&text)?))
    } else {
        None
    };
    let target = match &opts.out {
        Some(p) => PathBuf::from(p),
        None => {
            let next = latest_bench_file(&dir).map_or(0, |(n, _)| n + 1);
            dir.join(format!("BENCH_{next}.json"))
        }
    };
    std::fs::write(&target, to_json(&results) + "\n")
        .map_err(|e| err(format!("writing {}: {e}", target.display())))?;
    writeln!(out, "wrote {}", target.display()).unwrap();
    if let Some((path, base)) = baseline {
        let regressions = compare(&base, &results, opts.threshold_pct);
        if regressions.is_empty() {
            writeln!(
                out,
                "compare vs {}: no regressions (threshold {:.0}%)",
                path.display(),
                opts.threshold_pct
            )
            .unwrap();
        } else {
            let mut msg = format!(
                "{} regression(s) vs {} (threshold {:.0}%):\n",
                regressions.len(),
                path.display(),
                opts.threshold_pct
            );
            for r in &regressions {
                writeln!(msg, "  {} / {}: {}", r.workload, r.phase, r.detail).unwrap();
            }
            return Err(err(msg.trim_end().to_string()));
        }
    }
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    fn sample(template_nanos: u64, count: u64) -> BenchResults {
        BenchResults {
            quick: true,
            repeat: 2,
            workloads: vec![WorkloadResult {
                name: "fisher@16".into(),
                system: "fisher".into(),
                grid: 16,
                steps: 10,
                budget: None,
                median_wall_nanos: template_nanos + 500_000,
                phases: vec![
                    ("lut_lookup".into(), 40, 400_000),
                    ("template_apply".into(), count, template_nanos),
                ],
            }],
        }
    }

    #[test]
    fn parse_bench_flags() {
        let o = parse_bench_opts(&s(&[
            "--quick",
            "--repeat",
            "5",
            "--threshold",
            "10",
            "--dir",
            "/tmp",
            "--compare",
        ]))
        .unwrap();
        assert!(o.quick && o.compare);
        assert_eq!(o.repeat, 5);
        assert_eq!(o.threshold_pct, 10.0);
        assert_eq!(o.dir, "/tmp");
        assert!(parse_bench_opts(&s(&["--repeat", "0"])).is_err());
        assert!(parse_bench_opts(&s(&["--threshold", "-3"])).is_err());
        assert!(parse_bench_opts(&s(&["--bogus"])).is_err());
    }

    #[test]
    fn bench_json_round_trips() {
        let r = sample(3_000_000, 20);
        let parsed = from_json(&to_json(&r)).unwrap();
        assert_eq!(parsed, r);
        // Streamed workloads carry their budget through the file; old
        // baselines without the key still parse (budget = None above).
        let mut streamed = sample(3_000_000, 20);
        streamed.workloads[0].budget = Some(64 << 10);
        streamed.workloads[0].name = "fisher@16-streamed".into();
        let text = to_json(&streamed);
        assert!(text.contains("\"budget\":65536"), "{text}");
        assert_eq!(from_json(&text).unwrap(), streamed);
        assert!(from_json("{}").is_err());
        assert!(from_json("{\"bench_schema\":99,\"repeat\":1,\"workloads\":[]}").is_err());
    }

    #[test]
    fn compare_flags_median_regressions_and_count_drift() {
        let base = sample(3_000_000, 20);
        // +10% under a 25% threshold: clean.
        assert!(compare(&base, &sample(3_300_000, 20), 25.0).is_empty());
        // +100%: flagged as a perf regression.
        let regs = compare(&base, &sample(6_000_000, 20), 25.0);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].phase, "template_apply");
        assert!(regs[0].detail.contains("+100%"), "{}", regs[0].detail);
        // Count drift is flagged even when timing is fine.
        let regs = compare(&base, &sample(3_000_000, 21), 25.0);
        assert_eq!(regs.len(), 1);
        assert!(
            regs[0].detail.contains("count drifted"),
            "{}",
            regs[0].detail
        );
        // Tiny phases under the noise floor never flag.
        let mut small_base = sample(3_000_000, 20);
        small_base.workloads[0].phases[0].2 = 10_000;
        let mut small_cand = sample(3_000_000, 20);
        small_cand.workloads[0].phases[0].2 = 80_000;
        assert!(compare(&small_base, &small_cand, 25.0).is_empty());
        // A phase on one side only is count drift, whichever side lacks
        // it; so is a baseline workload the candidate lacks.
        let mut lost_phase = sample(3_000_000, 20);
        lost_phase.workloads[0].phases.remove(0);
        for (b, c) in [(&base, &lost_phase), (&lost_phase, &base)] {
            let regs = compare(b, c, 25.0);
            assert_eq!(regs.len(), 1, "{regs:?}");
            assert_eq!(regs[0].phase, "lut_lookup");
            assert!(regs[0].detail.contains("count drift"), "{}", regs[0].detail);
        }
        let mut no_workloads = sample(3_000_000, 20);
        no_workloads.workloads.clear();
        let regs = compare(&base, &no_workloads, 25.0);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].workload, "fisher@16");
        assert!(regs[0].detail.contains("count drift"), "{}", regs[0].detail);
        assert!(compare(&no_workloads, &base, 25.0).is_empty());
    }

    #[test]
    fn history_builds_a_trend_table_from_committed_baselines() {
        let dir = std::env::temp_dir().join("cenn_bench_history_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        assert!(
            cmd_bench(&s(&["--history", "--dir", &dir_str])).is_err(),
            "empty dir has no baselines"
        );
        std::fs::write(dir.join("BENCH_0.json"), to_json(&sample(3_000_000, 20))).unwrap();
        std::fs::write(dir.join("BENCH_2.json"), to_json(&sample(4_000_000, 20))).unwrap();
        let out = cmd_bench(&s(&["--history", "--dir", &dir_str])).unwrap();
        assert!(out.contains("2 baseline(s)"), "{out}");
        assert!(out.contains("BENCH_0"), "{out}");
        assert!(out.contains("BENCH_2"), "{out}");
        assert!(out.contains("fisher@16"), "{out}");
        assert!(out.contains("3.50ms"), "{out}");
        assert!(out.contains("4.50ms"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quick_suite_runs_and_compares_clean_against_itself() {
        let dir = std::env::temp_dir().join("cenn_bench_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        let out = cmd_bench(&s(&["--quick", "--repeat", "1", "--dir", &dir_str])).unwrap();
        assert!(out.contains("BENCH_0.json"), "{out}");
        assert!(out.contains("fisher@16"), "{out}");
        let text = std::fs::read_to_string(dir.join("BENCH_0.json")).unwrap();
        let parsed = from_json(&text).unwrap();
        assert_eq!(parsed.workloads.len(), 4);
        for w in &parsed.workloads {
            assert!(
                w.phases.iter().any(|(p, _, _)| p == "template_apply"),
                "{w:?}"
            );
        }
        let streamed = parsed
            .workloads
            .iter()
            .find(|w| w.name == "fisher@256-streamed")
            .expect("quick suite gates the streamed engine");
        assert_eq!(streamed.budget, Some(256 << 10));
        assert!(
            streamed.phases.iter().any(|(p, _, _)| p == "halo_sync"),
            "streamed chunk fills are traced: {streamed:?}"
        );
        // A second run compared against the first: timing jitter is
        // tolerated by a generous threshold, counts must match exactly.
        let out = cmd_bench(&s(&[
            "--quick",
            "--repeat",
            "1",
            "--dir",
            &dir_str,
            "--compare",
            "--threshold",
            "10000",
        ]))
        .unwrap();
        assert!(out.contains("no regressions"), "{out}");
        assert!(out.contains("BENCH_1.json"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(feature = "slow-template-apply")]
    #[test]
    fn deliberate_template_apply_regression_is_flagged() {
        // The acceptance gate: a sleep injected into the template_apply
        // phase (CENN_SLOW_TEMPLATE_APPLY under the slow-template-apply
        // feature) must trip `bench --compare`.
        let dir = std::env::temp_dir().join("cenn_bench_slow_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_str().unwrap().to_string();
        std::env::remove_var("CENN_SLOW_TEMPLATE_APPLY");
        cmd_bench(&s(&["--quick", "--repeat", "1", "--dir", &dir_str])).unwrap();
        std::env::set_var("CENN_SLOW_TEMPLATE_APPLY", "1");
        let res = cmd_bench(&s(&[
            "--quick",
            "--repeat",
            "1",
            "--dir",
            &dir_str,
            "--compare",
        ]));
        std::env::remove_var("CENN_SLOW_TEMPLATE_APPLY");
        let msg = res.unwrap_err().to_string();
        assert!(msg.contains("regression"), "{msg}");
        assert!(msg.contains("template_apply"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
