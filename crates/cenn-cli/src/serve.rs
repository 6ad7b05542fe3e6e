//! `cenn serve` (the long-lived solver service) and `cenn fleet` (the
//! deterministic client-fleet load harness).

use std::io::Write as _;
use std::time::Duration;

use cenn::serve::{
    loopback, run_chaos_fleet, run_fleet, run_resilient_fleet, ChaosPlan, Client, FleetConfig,
    Manifest, RetryPolicy, Rpc, Server, ServerConfig, StatsHttpServer,
};

use crate::cli::CliError;

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Default listen address for `cenn serve` (fixed so scripts and CI can
/// find it without parsing output).
pub const DEFAULT_LISTEN: &str = "127.0.0.1:17117";

struct ServeOpts {
    listen: String,
    stats_listen: Option<String>,
    workers: usize,
    quantum: u64,
    spool: Option<String>,
    session_logs: Option<String>,
    max_sessions: Option<usize>,
    max_pending: Option<u64>,
    idle_timeout_ms: Option<u64>,
}

fn parse_serve(args: &[String]) -> Result<ServeOpts, CliError> {
    let mut opts = ServeOpts {
        listen: DEFAULT_LISTEN.into(),
        stats_listen: None,
        workers: 2,
        quantum: 32,
        spool: None,
        session_logs: None,
        max_sessions: None,
        max_pending: None,
        idle_timeout_ms: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--stats-listen" => opts.stats_listen = Some(value("--stats-listen")?),
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--workers needs a positive integer"))?
            }
            "--quantum" => {
                opts.quantum = value("--quantum")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--quantum needs a positive integer"))?
            }
            "--spool" => opts.spool = Some(value("--spool")?),
            "--session-logs" => opts.session_logs = Some(value("--session-logs")?),
            "--max-sessions" => {
                opts.max_sessions = Some(
                    value("--max-sessions")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| err("--max-sessions needs a positive integer"))?,
                )
            }
            "--max-pending" => {
                opts.max_pending = Some(
                    value("--max-pending")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| err("--max-pending needs a positive integer"))?,
                )
            }
            "--idle-timeout" => {
                opts.idle_timeout_ms = Some(
                    value("--idle-timeout")?
                        .parse()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| err("--idle-timeout needs a positive millisecond count"))?,
                )
            }
            other => return Err(err(format!("unknown option '{other}'"))),
        }
    }
    Ok(opts)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cenn-{tag}-{}", std::process::id()))
}

/// `cenn serve`: bind, accept, and block until a client sends `Shutdown`.
/// If the spool already holds a recovery `MANIFEST` (a previous server
/// died there), the service restarts from it: digest-valid checkpoints
/// come back as suspended sessions, damaged ones are quarantined.
pub fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let opts = parse_serve(args)?;
    let spool = opts
        .spool
        .clone()
        .map_or_else(|| scratch_dir("serve-spool"), Into::into);
    let mut cfg = ServerConfig::new(opts.workers, &spool);
    cfg.manager.quantum = opts.quantum;
    cfg.manager.session_log_dir = opts.session_logs.clone().map(Into::into);
    if let Some(n) = opts.max_sessions {
        cfg.manager.max_sessions = n;
    }
    if let Some(n) = opts.max_pending {
        cfg.manager.max_pending = n;
    }
    if let Some(ms) = opts.idle_timeout_ms {
        cfg = cfg.with_idle_timeout(Duration::from_millis(ms));
    }
    let server = if Manifest::path_in(&spool).exists() {
        let (server, report) =
            Server::recover(cfg).map_err(|e| err(format!("recovering service: {e}")))?;
        println!(
            "cenn serve: recovered {} session(s) from spool, quarantined {}",
            report.recovered.len(),
            report.quarantined.len()
        );
        for (id, reason) in &report.quarantined {
            println!("cenn serve: quarantined session {id}: {reason}");
        }
        server
    } else {
        Server::start(cfg).map_err(|e| err(format!("starting service: {e}")))?
    };
    let stats_http = match &opts.stats_listen {
        Some(addr) => {
            let srv = server.clone();
            let http = StatsHttpServer::start(addr, move || {
                srv.stats_snapshot().metrics.prometheus_text()
            })
            .map_err(|e| err(format!("binding stats endpoint {addr}: {e}")))?;
            Some(http)
        }
        None => None,
    };
    let handle = server
        .serve_tcp(&opts.listen)
        .map_err(|e| err(format!("binding {}: {e}", opts.listen)))?;
    // Announce readiness before blocking so scripts can connect.
    println!("cenn serve: listening on {}", handle.local_addr());
    if let Some(http) = &stats_http {
        println!("cenn serve: stats on http://{}/metrics", http.addr());
    }
    println!(
        "cenn serve: {} workers, quantum {}, spool {}",
        opts.workers,
        opts.quantum,
        spool.display()
    );
    let _ = std::io::stdout().flush();
    handle.join();
    if let Some(http) = stats_http {
        http.shutdown();
    }
    server.shutdown();
    if opts.spool.is_none() {
        let _ = std::fs::remove_dir_all(&spool);
    }
    Ok("cenn serve: shut down cleanly".into())
}

struct FleetOpts {
    cfg: FleetConfig,
    connect: Option<String>,
    workers: usize,
    shutdown: bool,
    durable: bool,
    chaos: Option<String>,
}

fn parse_fleet(args: &[String]) -> Result<FleetOpts, CliError> {
    let mut opts = FleetOpts {
        cfg: FleetConfig::default(),
        connect: None,
        workers: 2,
        shutdown: false,
        durable: false,
        chaos: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| err(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--connect" => opts.connect = Some(value("--connect")?),
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--workers needs a positive integer"))?
            }
            "--sessions" => {
                opts.cfg.sessions = value("--sessions")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--sessions needs a positive integer"))?
            }
            "--steps" => {
                opts.cfg.base_steps = value("--steps")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--steps needs a positive integer"))?
            }
            "--chunk" => {
                opts.cfg.chunk = value("--chunk")?
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| err("--chunk needs a positive integer"))?
            }
            "--seed" => {
                opts.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| err("--seed needs an integer"))?
            }
            "--no-suspend" => opts.cfg.suspend_mid_run = false,
            "--shutdown" => opts.shutdown = true,
            "--durable" => opts.durable = true,
            "--chaos" => opts.chaos = Some(value("--chaos")?),
            other => return Err(err(format!("unknown option '{other}'"))),
        }
    }
    if opts.connect.is_some() && opts.workers != 2 {
        return Err(err(
            "--workers applies to the self-hosted fleet; with --connect the server chooses",
        ));
    }
    if opts.chaos.is_some() && opts.connect.is_some() {
        return Err(err(
            "--chaos self-hosts its server (it must be able to kill and restart it); \
             drop --connect",
        ));
    }
    Ok(opts)
}

/// The retry posture durable/chaos fleets run with: enough attempts to
/// ride out a server kill and restart, ~10 s I/O deadline so a wedged
/// server cannot hang the harness.
fn durable_policy(seed: u64) -> (RetryPolicy, Option<Duration>) {
    (
        RetryPolicy::crash_tolerant(seed),
        Some(Duration::from_secs(10)),
    )
}

/// `cenn fleet`: drive the seeded synthetic fleet, either against a
/// running server (`--connect`) or a self-hosted in-process one.
///
/// The output is exactly the fleet report — per-session digests plus the
/// combined digest, nothing environment-dependent — so two invocations
/// are byte-comparable: same seed, same digests, for any worker count.
/// `--durable` drives the fleet through retrying clients with a
/// per-chunk checkpoint cadence (survives server restarts); `--chaos`
/// additionally injects a scheduled fault plan into a self-hosted
/// server, printing the fault accounting to stderr so stdout stays
/// byte-comparable.
pub fn cmd_fleet(args: &[String]) -> Result<String, CliError> {
    let opts = parse_fleet(args)?;
    if let Some(spec) = &opts.chaos {
        let plan = ChaosPlan::parse(spec).map_err(|e| err(format!("--chaos: {e}")))?;
        let spool = scratch_dir("chaos-spool");
        let mut cfg = ServerConfig::new(opts.workers, &spool);
        cfg.manager.quantum = 32;
        let (policy, deadline) = durable_policy(opts.cfg.seed);
        let result = run_chaos_fleet(&opts.cfg, cfg, &plan, policy, deadline);
        let _ = std::fs::remove_dir_all(&spool);
        let (report, stats) = result.map_err(|e| err(e.to_string()))?;
        eprintln!(
            "cenn fleet: chaos injected {} fault(s), {} crash(es), \
             {} session(s) recovered, {} quarantined{}",
            stats.injected.len(),
            stats.crashes,
            stats.recovered_sessions,
            stats.quarantined_sessions,
            if stats.remaining.is_empty() {
                String::new()
            } else {
                format!("; NEVER FIRED: {}", stats.remaining.join(", "))
            }
        );
        for f in &stats.injected {
            eprintln!("cenn fleet: chaos fired {f}");
        }
        return Ok(report.text().trim_end().to_string());
    }
    let report = match &opts.connect {
        Some(addr) => {
            let report = if opts.durable {
                let (policy, deadline) = durable_policy(opts.cfg.seed);
                run_resilient_fleet(&opts.cfg, policy, deadline, |_| {
                    let s = std::net::TcpStream::connect(addr)?;
                    s.set_nodelay(true)?;
                    Ok(s)
                })
            } else {
                run_fleet(&opts.cfg, |_| {
                    let s = std::net::TcpStream::connect(addr)?;
                    s.set_nodelay(true)?;
                    Ok(s)
                })
            }
            .map_err(|e| err(e.to_string()))?;
            if opts.shutdown {
                let mut client = Client::connect_tcp(addr)
                    .map_err(|e| err(format!("connecting for shutdown: {e}")))?;
                client
                    .shutdown()
                    .map_err(|e| err(format!("shutdown: {e}")))?;
            }
            report
        }
        None => {
            let spool = scratch_dir("fleet-spool");
            let mut cfg = ServerConfig::new(opts.workers, &spool);
            cfg.manager.quantum = 32;
            let server = Server::start(cfg).map_err(|e| err(format!("starting service: {e}")))?;
            let connect = |_| {
                let (ours, theirs) = loopback::pair();
                let srv = server.clone();
                std::thread::spawn(move || {
                    srv.handle_conn(theirs);
                });
                Ok(ours)
            };
            let result = if opts.durable {
                let (policy, deadline) = durable_policy(opts.cfg.seed);
                run_resilient_fleet(&opts.cfg, policy, deadline, connect)
            } else {
                run_fleet(&opts.cfg, connect)
            };
            server.shutdown();
            let _ = std::fs::remove_dir_all(&spool);
            result.map_err(|e| err(e.to_string()))?
        }
    };
    Ok(report.text().trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::dispatch;

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn fleet_parse_rejects_bad_input() {
        assert!(parse_fleet(&s(&["--sessions", "0"])).is_err());
        assert!(parse_fleet(&s(&["--workers", "x"])).is_err());
        assert!(parse_fleet(&s(&["--bogus"])).is_err());
        assert!(
            parse_fleet(&s(&["--connect", "h:1", "--workers", "4"])).is_err(),
            "--workers conflicts with --connect"
        );
        assert!(parse_serve(&s(&["--quantum", "0"])).is_err());
        assert!(parse_serve(&s(&["--listen"])).is_err());
    }

    #[test]
    fn self_hosted_fleet_digests_are_worker_count_invariant() {
        let base = s(&[
            "fleet",
            "--sessions",
            "4",
            "--steps",
            "30",
            "--chunk",
            "10",
            "--seed",
            "11",
        ]);
        let mut one = base.clone();
        one.extend(s(&["--workers", "1"]));
        let mut four = base.clone();
        four.extend(s(&["--workers", "4"]));
        let a = dispatch(&one).unwrap();
        let b = dispatch(&four).unwrap();
        assert_eq!(a, b, "fleet report must not depend on worker count");
        assert!(a.contains("fleet digest"), "{a}");
        assert!(a.contains("[suspend/resume]"), "{a}");
        // Rerun: bit-identical again.
        assert_eq!(dispatch(&one).unwrap(), a);
    }

    #[test]
    fn serve_and_fleet_over_tcp_round_trip() {
        // Port 0: the OS picks a free port; grab it from the handle.
        let spool = scratch_dir("serve-test-spool");
        let server = Server::start(ServerConfig::new(2, &spool)).unwrap();
        let handle = server.serve_tcp("127.0.0.1:0").unwrap();
        let addr = handle.local_addr().to_string();
        let out = dispatch(&s(&[
            "fleet",
            "--connect",
            &addr,
            "--sessions",
            "3",
            "--steps",
            "20",
            "--chunk",
            "10",
            "--shutdown",
        ]))
        .unwrap();
        assert!(out.contains("fleet digest"), "{out}");
        handle.join();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }
}
