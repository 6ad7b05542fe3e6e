//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Runs one workload for `--seconds`, checks every output against a
//! reference computed outside the timed region, prints a human-readable
//! report, and ends with one JSON line holding the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) named in
//! `BENCHMARK.json`. `perfbench/run.py` builds this binary and runs it.

mod affinity;
mod grid;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sweep-hh", "sweep-heat", "stream-fisher", "serve-tcp"];

/// The workload seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 7;

/// Options shared by every workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed (only `serve-tcp` draws from it).
    pub seed: u64,
    /// How long the measured loop runs.
    pub duration: Duration,
    /// Traced run: time each layer's calls and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for spools; removed when the run ends.
    pub work_dir: PathBuf,
}

/// Runs the named workload at its benchmark size.
///
/// # Errors
///
/// A message for unknown workloads or any failure that stops the run.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Report, String> {
    match name {
        "sweep-hh" => grid::run(&grid::SWEEP_HH, opts),
        "sweep-heat" => grid::run(&grid::SWEEP_HEAT, opts),
        "stream-fisher" => grid::run(&grid::STREAM_FISHER, opts),
        "serve-tcp" => serve::run(&serve::SERVE_TCP, opts),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn parse_args() -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("not an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = work_dir.ok_or("--work-dir is required")?;
    Ok((
        workload,
        RunOpts {
            seed,
            duration: Duration::from_secs_f64(seconds),
            trace,
            work_dir,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: work dir {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run_workload(&workload, &opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    match result {
        Ok(report) => {
            print!("{}", report.text(&opts));
            match report.json_line(opts.trace) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {workload}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory next to the test binary.
    pub fn scratch(name: &str) -> PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        exe.parent()
            .expect("test binary dir")
            .join(format!("perfbench-test-{name}-{}", std::process::id()))
    }

    pub fn opts(name: &str, trace: bool) -> RunOpts {
        RunOpts {
            seed: DEFAULT_SEED,
            duration: Duration::from_millis(50),
            trace,
            work_dir: scratch(name),
        }
    }

    #[test]
    fn benchmark_json_names_every_workload_and_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let names = WORKLOADS
            .iter()
            .chain(report::END_TO_END.iter().map(|(n, _)| n))
            .chain(report::PER_LAYER.iter().map(|(n, _)| n));
        for name in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
        }
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            WORKLOADS.len() + report::END_TO_END.len() + report::PER_LAYER.len()
        );
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run_workload("nope", &opts("nope", false)).is_err());
    }
}
