//! A seeded synthetic client fleet: the service's determinism load test.
//!
//! [`run_fleet`] drives N concurrent client sessions against a server,
//! each from its own thread and connection. Every session's workload —
//! which system it runs, its step budget, its chunking — is derived
//! purely from the fleet seed and the session index, so two fleet runs
//! with the same seed issue byte-identical request streams (thread
//! interleaving varies; the requests do not). One designated session
//! additionally suspends to the server's spool and resumes mid-run,
//! exercising the checkpoint path under live multi-tenant load.
//!
//! The harness is green only when the [`FleetReport`] — per-session
//! end-state digests plus a combined digest — is bit-identical across
//! worker counts and independent reruns. The report text deliberately
//! contains nothing environment-dependent (no worker counts, no paths,
//! no timing), so it can be compared byte-for-byte.

use std::io::{Read, Write};

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::client::{Client, Rpc};
use crate::digest::{fnv1a64, fnv1a64_init};

/// The workload menu: grid-friendly systems spanning linear diffusion,
/// reaction–diffusion, hyperbolic transport, and hybrid spiking.
const MENU: &[&str] = &[
    "heat",
    "fisher",
    "reaction-diffusion",
    "gray-scott",
    "wave",
    "burgers",
    "izhikevich",
];

/// Fleet shape and seeding.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Concurrent sessions (one thread + connection each).
    pub sessions: usize,
    /// Baseline steps per session; each session runs `base_steps` plus a
    /// seeded extra of up to half that.
    pub base_steps: u64,
    /// Steps per `Step` request (the client-side chunk size).
    pub chunk: u64,
    /// Master seed; all per-session workloads derive from it.
    pub seed: u64,
    /// Suspend-and-resume one seeded-chosen session at its halfway point.
    pub suspend_mid_run: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            sessions: 8,
            base_steps: 120,
            chunk: 40,
            seed: 7,
            suspend_mid_run: true,
        }
    }
}

/// One session's planned workload (pure function of seed and index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// System name from the menu.
    pub system: &'static str,
    /// Square grid side.
    pub side: u32,
    /// Total steps this session runs.
    pub steps: u64,
}

/// Derives session `index`'s workload from the fleet seed.
pub fn workload(cfg: &FleetConfig, index: usize) -> Workload {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let system = MENU[rng.gen_range(0..MENU.len())];
    // Spiking grids are denser per cell (two layers + reset scan); keep
    // them smaller so the fleet finishes briskly on one core.
    let side = if system == "izhikevich" { 8 } else { 12 };
    let extra = rng.gen_range(0..=cfg.base_steps / 2);
    Workload {
        system,
        side,
        steps: (cfg.base_steps + extra).max(2),
    }
}

/// One session's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetEntry {
    /// Session index within the fleet (not the server session id).
    pub index: usize,
    /// System the session ran.
    pub system: &'static str,
    /// Steps executed.
    pub steps: u64,
    /// End-state digest.
    pub digest: u64,
    /// Whether this session took the suspend/resume detour.
    pub suspended: bool,
}

/// The fleet's deterministic outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Per-session outcomes, ordered by fleet index.
    pub entries: Vec<FleetEntry>,
}

impl FleetReport {
    /// Folds every entry into one fleet-wide digest.
    pub fn combined_digest(&self) -> u64 {
        let mut h = fnv1a64_init();
        for e in &self.entries {
            h = fnv1a64(h, &(e.index as u64).to_le_bytes());
            h = fnv1a64(h, e.system.as_bytes());
            h = fnv1a64(h, &e.steps.to_le_bytes());
            h = fnv1a64(h, &e.digest.to_le_bytes());
        }
        h
    }

    /// The byte-comparable report: one line per session plus the
    /// combined digest. Contains nothing environment-dependent.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "session {:02}  {:<18}  steps {:>6}  digest {:016x}{}\n",
                e.index,
                e.system,
                e.steps,
                e.digest,
                if e.suspended {
                    "  [suspend/resume]"
                } else {
                    ""
                },
            ));
        }
        out.push_str(&format!("fleet digest {:016x}\n", self.combined_digest()));
        out
    }
}

/// Why the fleet aborted.
#[derive(Debug)]
pub struct FleetError {
    /// Fleet index of the failing session.
    pub index: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet session {}: {}", self.index, self.message)
    }
}

impl std::error::Error for FleetError {}

/// Runs the fleet. `connect` is called once per session (from that
/// session's thread) to open its connection.
///
/// # Errors
///
/// The first failing session's [`FleetError`] (connection failures and
/// protocol errors alike).
pub fn run_fleet<S, F>(cfg: &FleetConfig, connect: F) -> Result<FleetReport, FleetError>
where
    S: Read + Write,
    F: Fn(usize) -> std::io::Result<S> + Sync,
{
    let suspender = cfg
        .suspend_mid_run
        .then(|| (cfg.seed % cfg.sessions.max(1) as u64) as usize);
    run_sessions(cfg, |index| {
        run_session(cfg, index, suspender == Some(index), &connect)
    })
}

/// The fleet harness both drivers share: runs `session` for every fleet
/// index, each on its own thread, and returns the entries in index
/// order, or the lowest-indexed session's error.
pub(crate) fn run_sessions<F>(cfg: &FleetConfig, session: F) -> Result<FleetReport, FleetError>
where
    F: Fn(usize) -> Result<FleetEntry, FleetError> + Sync,
{
    let results: Vec<Result<FleetEntry, FleetError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.sessions.max(1))
            .map(|index| {
                let session = &session;
                scope.spawn(move || session(index))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            // A panicking session thread becomes that session's typed
            // failure instead of tearing down the whole fleet harness.
            .map(|(index, h)| {
                h.join().unwrap_or_else(|_| {
                    Err(FleetError {
                        index,
                        message: "session thread panicked".into(),
                    })
                })
            })
            .collect()
    });
    Ok(FleetReport {
        entries: results.into_iter().collect::<Result<_, _>>()?,
    })
}

fn run_session<S, F>(
    cfg: &FleetConfig,
    index: usize,
    suspend: bool,
    connect: &F,
) -> Result<FleetEntry, FleetError>
where
    S: Read + Write,
    F: Fn(usize) -> std::io::Result<S>,
{
    let fail = |message: String| FleetError { index, message };
    let plan = workload(cfg, index);
    let stream = connect(index).map_err(|e| fail(format!("connect: {e}")))?;
    let mut client = Client::new(stream);
    let session = client
        .submit(plan.system, plan.side, plan.side)
        .map_err(|e| fail(format!("submit {}: {e}", plan.system)))?;
    let halfway = plan.steps / 2;
    let mut done = 0;
    let mut paused = false;
    while done < plan.steps {
        if suspend && !paused && done >= halfway {
            client
                .suspend(session)
                .map_err(|e| fail(format!("suspend at {done}: {e}")))?;
            let back = client
                .resume(session)
                .map_err(|e| fail(format!("resume at {done}: {e}")))?;
            if back != done {
                return Err(fail(format!(
                    "resume restored step {back}, expected {done}"
                )));
            }
            paused = true;
        }
        let n = cfg.chunk.max(1).min(plan.steps - done);
        let (steps, _) = client
            .step(session, n)
            .map_err(|e| fail(format!("step at {done}: {e}")))?;
        done += n;
        if steps != done {
            return Err(fail(format!("server counted {steps} steps, client {done}")));
        }
    }
    let (steps, digest) = client
        .digest(session)
        .map_err(|e| fail(format!("digest: {e}")))?;
    if steps != plan.steps {
        return Err(fail(format!(
            "digest at step {steps}, expected {}",
            plan.steps
        )));
    }
    client
        .close(session)
        .map_err(|e| fail(format!("close: {e}")))?;
    Ok(FleetEntry {
        index,
        system: plan.system,
        steps: plan.steps,
        digest,
        suspended: suspend,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_seed_deterministic_and_cover_the_menu() {
        let cfg = FleetConfig::default();
        let a: Vec<_> = (0..16).map(|i| workload(&cfg, i)).collect();
        let b: Vec<_> = (0..16).map(|i| workload(&cfg, i)).collect();
        assert_eq!(a, b);
        let distinct: std::collections::BTreeSet<_> = a.iter().map(|w| w.system).collect();
        assert!(distinct.len() >= 3, "menu coverage: {distinct:?}");
        let other = FleetConfig {
            seed: 1234,
            ..FleetConfig::default()
        };
        assert_ne!(
            (0..16).map(|i| workload(&other, i)).collect::<Vec<_>>(),
            a,
            "different seed, different fleet"
        );
    }

    #[test]
    fn report_text_is_stable_and_environment_free() {
        let report = FleetReport {
            entries: vec![
                FleetEntry {
                    index: 0,
                    system: "heat",
                    steps: 120,
                    digest: 0xabc,
                    suspended: false,
                },
                FleetEntry {
                    index: 1,
                    system: "wave",
                    steps: 150,
                    digest: 0xdef,
                    suspended: true,
                },
            ],
        };
        let text = report.text();
        assert!(text.contains("session 00  heat"));
        assert!(text.contains("[suspend/resume]"));
        assert!(text.ends_with(&format!("fleet digest {:016x}\n", report.combined_digest())));
    }
}
