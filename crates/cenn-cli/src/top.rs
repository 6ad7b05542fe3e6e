//! `cenn top` — a polling terminal dashboard over the serve `Stats`
//! frame: per-session step rates, phase latency quantiles, shed/queue
//! pressure, and spool usage. Plain redrawn text (one ANSI clear per
//! refresh), no TUI dependencies, so it works in any terminal and its
//! `--once` output is capturable in scripts and CI.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use cenn::serve::{Client, Rpc, StatsSnapshot};

use crate::cli::CliError;
use crate::serve::DEFAULT_LISTEN;

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

struct TopOpts {
    connect: String,
    interval: Duration,
    once: bool,
}

fn parse_top(args: &[String]) -> Result<TopOpts, CliError> {
    let mut opts = TopOpts {
        connect: DEFAULT_LISTEN.into(),
        interval: Duration::from_millis(1000),
        once: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--connect" => opts.connect = value("--connect")?,
            "--interval" => {
                let ms: u64 = value("--interval")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--interval needs a positive millisecond count"))?;
                opts.interval = Duration::from_millis(ms);
            }
            "--once" => opts.once = true,
            other => return Err(err(format!("unknown option '{other}'"))),
        }
    }
    Ok(opts)
}

/// Step counters from the previous poll, for per-session rates.
type PrevSteps = HashMap<u64, u64>;

fn fmt_bytes(b: i64) -> String {
    let b = b.max(0) as f64;
    if b >= 1024.0 * 1024.0 {
        format!("{:.1}MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1}KiB", b / 1024.0)
    } else {
        format!("{b:.0}B")
    }
}

fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// Renders one dashboard frame. `prev` and `dt` drive the per-session
/// step-rate column: `None` (first poll / `--once`) renders `-`.
fn render(addr: &str, stats: &StatsSnapshot, prev: Option<(&PrevSteps, Duration)>) -> String {
    let m = &stats.metrics;
    let g = |name: &str| m.gauge(name).unwrap_or(0);
    let c = |name: &str| m.counter(name).unwrap_or(0);
    let mut out = String::new();
    writeln!(
        out,
        "cenn top — {addr}  |  sessions {} active / {} suspended  |  queue {}  |  \
         shed {}  |  spool {}",
        g("serve.sessions_active"),
        g("serve.sessions_suspended"),
        g("serve.queue_depth"),
        c("serve.requests_shed_total"),
        fmt_bytes(g("serve.spool_bytes")),
    )
    .unwrap();
    writeln!(
        out,
        "frames {} in / {} out  |  steps {}  |  quanta {}  |  dedup hits {}  |  \
         recovered {} / quarantined {}",
        c("serve.frames_in_total"),
        c("serve.frames_out_total"),
        c("serve.steps_total"),
        c("serve.quanta_total"),
        c("serve.dedup_hits_total"),
        c("serve.sessions_recovered_total"),
        c("serve.sessions_quarantined_total"),
    )
    .unwrap();
    if !m.hists.is_empty() {
        writeln!(out).unwrap();
        writeln!(
            out,
            "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "PHASE", "COUNT", "P50", "P90", "P99", "MAX"
        )
        .unwrap();
        for (name, h) in &m.hists {
            writeln!(
                out,
                "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                fmt_nanos(h.p50_nanos),
                fmt_nanos(h.p90_nanos),
                fmt_nanos(h.p99_nanos),
                fmt_nanos(h.max_nanos),
            )
            .unwrap();
        }
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:>8} {:<14} {:<10} {:>10} {:>8} {:>9}",
        "SESSION", "SYSTEM", "STATE", "STEPS", "PENDING", "STEPS/S"
    )
    .unwrap();
    for s in &stats.sessions {
        let rate = prev
            .and_then(|(p, dt)| {
                let before = *p.get(&s.session)?;
                let secs = dt.as_secs_f64();
                (secs > 0.0).then(|| (s.steps.saturating_sub(before)) as f64 / secs)
            })
            .map_or_else(|| "-".to_string(), |r| format!("{r:.0}"));
        writeln!(
            out,
            "{:>8} {:<14} {:<10} {:>10} {:>8} {:>9}",
            s.session, s.system, s.state, s.steps, s.pending, rate
        )
        .unwrap();
    }
    if stats.sessions.is_empty() {
        writeln!(out, "(no sessions)").unwrap();
    }
    out.trim_end().to_string()
}

/// `cenn top`: poll a running `cenn serve` over the `Stats` frame and
/// redraw a dashboard every `--interval` (default 1000 ms). `--once`
/// prints a single frame and exits — the scriptable mode CI uses.
/// The polling loop ends cleanly when the server goes away.
pub fn cmd_top(args: &[String]) -> Result<String, CliError> {
    let opts = parse_top(args)?;
    let mut client = Client::connect_tcp(&opts.connect)
        .map_err(|e| err(format!("connecting {}: {e}", opts.connect)))?;
    let stats = client
        .stats()
        .map_err(|e| err(format!("stats request: {e}")))?;
    if opts.once {
        return Ok(render(&opts.connect, &stats, None));
    }
    let mut prev: PrevSteps = stats
        .sessions
        .iter()
        .map(|s| (s.session, s.steps))
        .collect();
    let mut last = Instant::now();
    println!("\x1b[2J\x1b[H{}", render(&opts.connect, &stats, None));
    let _ = std::io::stdout().flush();
    loop {
        std::thread::sleep(opts.interval);
        let stats = match client.stats() {
            Ok(s) => s,
            // A vanished server ends the watch session, not an error.
            Err(e) => return Ok(format!("cenn top: server went away ({e})")),
        };
        let dt = last.elapsed();
        last = Instant::now();
        println!(
            "\x1b[2J\x1b[H{}",
            render(&opts.connect, &stats, Some((&prev, dt)))
        );
        let _ = std::io::stdout().flush();
        prev = stats
            .sessions
            .iter()
            .map(|s| (s.session, s.steps))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenn::serve::{Server, ServerConfig};

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn top_parse_rejects_bad_input() {
        assert!(parse_top(&s(&["--interval", "0"])).is_err());
        assert!(parse_top(&s(&["--connect"])).is_err());
        assert!(parse_top(&s(&["--bogus"])).is_err());
        let o = parse_top(&s(&["--connect", "h:1", "--once"])).unwrap();
        assert_eq!(o.connect, "h:1");
        assert!(o.once);
    }

    #[test]
    fn top_once_renders_live_sessions_and_counters() {
        let spool = std::env::temp_dir().join(format!("cenn-top-test-{}", std::process::id()));
        let server = Server::start(ServerConfig::new(2, &spool)).unwrap();
        let handle = server.serve_tcp("127.0.0.1:0").unwrap();
        let addr = handle.local_addr().to_string();
        let mut client = Client::connect_tcp(&addr).unwrap();
        let session = client.submit("heat", 8, 8).unwrap();
        client.step(session, 20).unwrap();
        let out = cmd_top(&s(&["--connect", &addr, "--once"])).unwrap();
        assert!(out.contains("cenn top"), "{out}");
        assert!(out.contains("heat"), "{out}");
        assert!(out.contains("active"), "{out}");
        assert!(out.contains("serve.quantum_nanos"), "{out}");
        client.shutdown().unwrap();
        handle.join();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }
}
