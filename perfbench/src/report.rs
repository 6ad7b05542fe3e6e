//! Metric collection, the human-readable report, and the final JSON line.

use std::fmt::Write as _;

use crate::RunOpts;

/// End-to-end metrics (untraced run), as listed in `BENCHMARK.json`.
///
/// The tail latency (`req_tail_ms`) is printed but not listed: on a
/// shared two-CPU host its run-to-run spread is wider than any bound
/// the benchmark may set.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ns_per_cell_step", "ns"),
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run), as listed in `BENCHMARK.json`. Every
/// workload reports every one: a layer a workload does not cross reads 0
/// (only counts and fractions can be such a 0, never a time).
pub const PER_LAYER: [(&str, &str); 33] = [
    ("equations.build_ms", "ms"),
    ("equations.runner_new_ms", "ms"),
    ("sweep.template_apply_ns_per_cell_step", "ns"),
    ("sweep.integrate_ns_per_cell_step", "ns"),
    ("sweep.halo_sync_ns_per_cell_step", "ns"),
    ("sweep.unattributed_ns_per_cell_step", "ns"),
    ("sweep.attributed_frac", "fraction"),
    ("sweep.lut_lookup_spans_per_step", "count"),
    ("sweep.template_apply_spans_per_step", "count"),
    ("sweep.integrate_spans_per_step", "count"),
    ("sweep.halo_sync_spans_per_step", "count"),
    ("lut.wall_frac", "fraction"),
    ("lut.accesses_per_cell_step", "count"),
    ("lut.l1_miss_rate", "fraction"),
    ("lut.l2_miss_rate", "fraction"),
    ("lut.dram_fetches_per_cell_step", "count"),
    ("stream.spill_bytes_per_step", "bytes"),
    ("stream.fill_bytes_per_step", "bytes"),
    ("stream.windows_per_step", "count"),
    ("stream.peak_resident_bytes", "bytes"),
    ("arch.conv_cycles_per_step", "cycles"),
    ("arch.stall_cycles_per_step", "cycles"),
    ("arch.stall_frac", "fraction"),
    ("serve.codec_frac", "fraction"),
    ("serve.write_frac", "fraction"),
    ("serve.quantum_frac", "fraction"),
    ("serve.wait_frac", "fraction"),
    ("serve.worker_busy_frac", "fraction"),
    ("serve.quanta_per_step_req", "count"),
    ("serve.frames_in_per_req", "count"),
    ("serve.state_bytes_per_req", "bytes"),
    ("serve.manifest_ops_total", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// What ran, on one line.
    pub title: String,
    /// Operations attempted (steps, or requests for `serve-tcp`).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Every metric measured, in report order: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Free-form report lines (tables, caveats).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &str, title: String) -> Self {
        Self {
            workload: workload.into(),
            title,
            ..Self::default()
        }
    }

    /// Records (or overwrites) a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, ..)| n == name) {
            Some(m) => *m = (name.into(), value, unit),
            None => self.metrics.push((name.into(), value, unit)),
        }
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Adds a free-form line to the report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records 0 for every per-layer count or fraction this workload's
    /// layers never produce (a stream counter on an in-core sweep, a serve
    /// counter off the serve path). A missing time stays missing, so
    /// [`json_line`](Self::json_line) reports it.
    pub fn zero_unmeasured_counts(&mut self) {
        for (name, unit) in PER_LAYER {
            if self.get(name).is_none() && !matches!(unit, "ns" | "ms") {
                self.put(name, 0.0, unit);
            }
        }
    }

    /// Failed ÷ attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The human-readable report.
    pub fn text(&self, opts: &RunOpts) -> String {
        let mut out = String::new();
        let mode = if opts.trace { "traced" } else { "untraced" };
        let _ = writeln!(
            out,
            "perfbench {} ({mode}, seed {}, {:.1} s): {}",
            self.workload,
            opts.seed,
            opts.duration.as_secs_f64(),
            self.title
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<40} {value:>16.6} {unit}");
        }
        let _ = writeln!(
            out,
            "  {:<40} {:>16.6} fraction ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for line in &self.notes {
            let _ = writeln!(out, "  {line}");
        }
        out
    }

    /// The final JSON line: the end-to-end metrics (untraced) or the
    /// per-layer metrics (traced), by the names `BENCHMARK.json` lists.
    ///
    /// # Errors
    ///
    /// A listed metric is missing, has another unit, or is not finite.
    pub fn json_line(&self, trace: bool) -> Result<String, String> {
        let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(listed.len());
        for (name, unit) in listed {
            let (_, value, got) = self
                .metrics
                .iter()
                .find(|(n, ..)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if got != unit {
                return Err(format!("metric {name} has unit {got}, expected {unit}"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_holds_exactly_the_listed_metrics() {
        let mut r = Report::new("w", "t".into());
        r.attempted = 4;
        for (name, unit) in END_TO_END {
            r.put(name, 1.5, unit);
        }
        r.put("extra", 2.0, "ms");
        let line = r.json_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("extra"));
        assert!(r.json_line(true).is_err(), "per-layer metrics are absent");
    }

    #[test]
    fn json_line_rejects_non_finite_values_and_wrong_units() {
        let mut r = Report::new("w", "t".into());
        r.attempted = 1;
        for (name, unit) in END_TO_END {
            r.put(name, 1.0, unit);
        }
        r.put("setup_s", f64::NAN, "s");
        assert!(r.json_line(false).is_err());
        r.put("setup_s", 1.0, "ms");
        assert!(r.json_line(false).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report::new("w", "t".into());
        for (name, unit) in END_TO_END {
            r.put(name, 1.0, unit);
        }
        r.attempted = 10;
        r.failed = 1;
        assert_eq!(r.error_rate(), 0.1);
        assert!(r.json_line(false).unwrap().contains("\"correct\": false"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
