//! Deterministic service-layer fault injection: the chaos harness.
//!
//! The service's crash-safety claim is concrete — a client fleet driven
//! through [`crate::RetryClient`] produces bit-identical digests whether
//! or not the run was disturbed by connection drops, frame corruption,
//! worker stalls, or a hard server kill with restart recovery. This
//! module makes that claim testable *deterministically*: faults are not
//! random but scheduled by a [`ChaosPlan`] parsed from the same
//! `kind@step:key=value` grammar as `cenn-guard`'s numeric fault plans,
//! where `step` is the target session's outbound-frame index (or the
//! global worker-quantum index, for stalls). The same plan against the
//! same fleet seed perturbs the same operations every run.
//!
//! Mechanically, each fleet session's connection is wrapped in a
//! [`ChaosTransport`] that counts the frames it sends and consults the
//! shared [`ChaosDirector`] at each one; the director hands out each
//! scheduled fault exactly once. `crash-restart` fires a hook that
//! hard-kills the live server ([`crate::Server::crash`] — no flush, no
//! goodbye) and rebuilds a fresh one from the same spool via
//! [`crate::Server::recover`], exactly the kill-9-and-restart sequence
//! an operator would perform.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use cenn_guard::{parse_spec, PlanParseError};
use cenn_obs::MetricsHub;

use crate::client::{ClientError, Deadlines, RetryClient, RetryPolicy, Rpc};
use crate::fleet::{run_sessions, workload, FleetConfig, FleetEntry, FleetError, FleetReport};
use crate::manager::RecoveryReport;
use crate::proto::ErrorCode;
use crate::server::{Server, ServerConfig};

/// Which half of a request/response exchange a `conn-drop` severs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropWhen {
    /// The request never reaches the server (drop on send).
    Send,
    /// The request executes but its response is lost (drop on receive) —
    /// the case that distinguishes an idempotent server from a
    /// double-stepping one.
    Recv,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosFault {
    /// Sever session `session`'s connection at its `op`-th outbound
    /// frame.
    ConnDrop {
        /// Fleet session index the fault targets.
        session: usize,
        /// Outbound-frame index (0-based, cumulative across reconnects).
        op: u64,
        /// Drop the request or its response.
        when: DropWhen,
    },
    /// Flip one payload bit of session `session`'s `op`-th outbound
    /// frame. `byte` indexes into the payload (modulo its length) —
    /// byte 0 is the protocol version octet, which every decoder
    /// checks, so a plan that wants *guaranteed-detected* corruption
    /// targets byte 0.
    FrameCorrupt {
        /// Fleet session index the fault targets.
        session: usize,
        /// Outbound-frame index.
        op: u64,
        /// Payload byte offset (wrapped modulo payload length).
        byte: u32,
        /// Bit within that byte (0–7).
        bit: u8,
    },
    /// Hard-kill the server when session `session` sends its `op`-th
    /// frame, then restart it from the spool.
    CrashRestart {
        /// Fleet session index whose send pulls the trigger.
        session: usize,
        /// Outbound-frame index.
        op: u64,
    },
    /// Sleep the worker that wins global quantum number `quantum` for
    /// `ms` milliseconds — a pure scheduling perturbation.
    WorkerStall {
        /// Global quantum index (across all sessions and workers).
        quantum: u64,
        /// Stall length in milliseconds.
        ms: u64,
    },
}

impl std::fmt::Display for ChaosFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ConnDrop { session, op, when } => write!(
                f,
                "conn-drop@{op}:session={session},when={}",
                match when {
                    DropWhen::Send => "send",
                    DropWhen::Recv => "recv",
                }
            ),
            Self::FrameCorrupt {
                session,
                op,
                byte,
                bit,
            } => write!(
                f,
                "frame-corrupt@{op}:session={session},byte={byte},bit={bit}"
            ),
            Self::CrashRestart { session, op } => {
                write!(f, "crash-restart@{op}:session={session}")
            }
            Self::WorkerStall { quantum, ms } => write!(f, "worker-stall@{quantum}:ms={ms}"),
        }
    }
}

impl ChaosFault {
    /// The metrics-registry counter this fault kind increments when it
    /// is injected (the source of truth for fault accounting — the
    /// stderr log and [`ChaosStats::injected`] are human-facing copies).
    pub fn metric_name(&self) -> &'static str {
        match self {
            Self::ConnDrop { .. } => "chaos.conn_drop_total",
            Self::FrameCorrupt { .. } => "chaos.frame_corrupt_total",
            Self::CrashRestart { .. } => "chaos.crash_restart_total",
            Self::WorkerStall { .. } => "chaos.worker_stall_total",
        }
    }
}

/// A parsed chaos schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Every scheduled fault, in spec order.
    pub faults: Vec<ChaosFault>,
}

impl ChaosPlan {
    /// Parses a `;`-separated spec in the shared fault grammar, e.g.
    /// `conn-drop@3:session=2,when=recv; frame-corrupt@4:session=1,byte=0,bit=3;
    /// worker-stall@10:ms=40; crash-restart@5:session=0`.
    ///
    /// # Errors
    ///
    /// [`PlanParseError`] naming the offending entry: unknown kinds,
    /// missing or non-numeric fields, `when` outside `send|recv`, `bit`
    /// outside 0–7.
    pub fn parse(spec: &str) -> Result<Self, PlanParseError> {
        let mut faults = Vec::new();
        for e in parse_spec(spec)? {
            let session = |key: &str| -> Result<usize, PlanParseError> {
                let v = e.num(key)?;
                usize::try_from(v).map_err(|_| e.err(format!("{key} must be >= 0, got {v}")))
            };
            let fault = match e.kind.as_str() {
                "conn-drop" => ChaosFault::ConnDrop {
                    session: session("session")?,
                    op: e.step,
                    when: match e.get("when").unwrap_or("send") {
                        "send" => DropWhen::Send,
                        "recv" => DropWhen::Recv,
                        other => return Err(e.err(format!("when must be send|recv, got {other}"))),
                    },
                },
                "frame-corrupt" => {
                    let bit = e.num_or("bit", 0)?;
                    if !(0..8).contains(&bit) {
                        return Err(e.err(format!("bit must be 0-7, got {bit}")));
                    }
                    ChaosFault::FrameCorrupt {
                        session: session("session")?,
                        op: e.step,
                        byte: e.num_or("byte", 0)? as u32,
                        bit: bit as u8,
                    }
                }
                "crash-restart" => ChaosFault::CrashRestart {
                    session: session("session")?,
                    op: e.step,
                },
                "worker-stall" => {
                    let ms = e.num("ms")?;
                    if ms < 0 {
                        return Err(e.err(format!("ms must be >= 0, got {ms}")));
                    }
                    ChaosFault::WorkerStall {
                        quantum: e.step,
                        ms: ms as u64,
                    }
                }
                other => {
                    return Err(e.err(format!(
                        "unknown chaos fault kind {other:?} \
                         (expected conn-drop, frame-corrupt, worker-stall, or crash-restart)"
                    )))
                }
            };
            faults.push(fault);
        }
        Ok(Self { faults })
    }

    /// The worker-stall schedule as `(quantum, ms)` pairs, ready for
    /// [`crate::ManagerConfig::stalls`]. Stalls are injected inside the
    /// scheduler rather than the transport, so they are split out here.
    pub fn stalls(&self) -> Vec<(u64, u64)> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                ChaosFault::WorkerStall { quantum, ms } => Some((*quantum, *ms)),
                _ => None,
            })
            .collect()
    }
}

/// What a chaos run actually did.
#[derive(Debug, Clone, Default)]
pub struct ChaosStats {
    /// Faults that fired, rendered in spec grammar, in firing order.
    pub injected: Vec<String>,
    /// Scheduled transport faults that never fired (their op index was
    /// past the end of the session's frame stream).
    pub remaining: Vec<String>,
    /// Hard kills performed.
    pub crashes: usize,
    /// Sessions rehydrated across all restarts.
    pub recovered_sessions: usize,
    /// Checkpoints quarantined across all restarts.
    pub quarantined_sessions: usize,
}

struct DirectorState {
    /// Unfired transport faults (`None` once consumed).
    pending: Vec<Option<ChaosFault>>,
    /// Cumulative outbound-frame count per fleet session.
    ops: HashMap<usize, u64>,
    stats: ChaosStats,
}

type CrashHook = Box<dyn Fn() -> RecoveryReport + Send + Sync>;

/// The shared fault scheduler: owns the plan's transport faults, the
/// per-session frame counters, and the crash hook. One director serves
/// a whole fleet; every [`ChaosTransport`] consults it on each send.
pub struct ChaosDirector {
    state: Mutex<DirectorState>,
    crash_hook: Mutex<Option<CrashHook>>,
    metrics: Mutex<Option<MetricsHub>>,
}

impl ChaosDirector {
    /// Builds a director over the plan's transport faults (worker stalls
    /// are the scheduler's job — see [`ChaosPlan::stalls`]).
    pub fn new(plan: &ChaosPlan) -> Self {
        let pending = plan
            .faults
            .iter()
            .filter(|f| !matches!(f, ChaosFault::WorkerStall { .. }))
            .cloned()
            .map(Some)
            .collect();
        Self {
            state: Mutex::new(DirectorState {
                pending,
                ops: HashMap::new(),
                stats: ChaosStats::default(),
            }),
            crash_hook: Mutex::new(None),
            metrics: Mutex::new(None),
        }
    }

    /// Installs the kill-and-restart hook `crash-restart` faults fire.
    pub fn set_crash_hook(&self, hook: CrashHook) {
        *self.crash_hook.lock().expect("chaos director poisoned") = Some(hook);
    }

    /// Routes per-kind `chaos.*_total` injection counters into `hub` —
    /// normally the server's own registry, so one snapshot carries both
    /// the faults injected and the service's reaction to them.
    pub fn set_metrics(&self, hub: MetricsHub) {
        *self.metrics.lock().expect("chaos director poisoned") = Some(hub);
    }

    /// Assigns the next outbound-frame index for `session` and takes
    /// every fault scheduled at it (each fault fires exactly once).
    fn begin_op(&self, session: usize) -> Vec<ChaosFault> {
        let mut st = self.state.lock().expect("chaos director poisoned");
        let op = {
            let c = st.ops.entry(session).or_insert(0);
            let op = *c;
            *c += 1;
            op
        };
        let mut due = Vec::new();
        for slot in &mut st.pending {
            let matches_now = match slot {
                Some(ChaosFault::ConnDrop {
                    session: s, op: o, ..
                })
                | Some(ChaosFault::FrameCorrupt {
                    session: s, op: o, ..
                })
                | Some(ChaosFault::CrashRestart { session: s, op: o }) => *s == session && *o == op,
                _ => false,
            };
            if matches_now {
                due.push(slot.take().expect("matched Some"));
            }
        }
        self.note_fired(st, &due);
        due
    }

    /// Records `faults` as injected: in the run's stats, under the held
    /// state lock, then in the per-kind metrics counters.
    fn note_fired(&self, mut st: MutexGuard<'_, DirectorState>, faults: &[ChaosFault]) {
        st.stats
            .injected
            .extend(faults.iter().map(ChaosFault::to_string));
        drop(st);
        if let Some(hub) = self
            .metrics
            .lock()
            .expect("chaos director poisoned")
            .as_ref()
        {
            for f in faults {
                hub.inc_name(f.metric_name(), 1);
            }
        }
    }

    fn fire_crash(&self) {
        let report = {
            let hook = self.crash_hook.lock().expect("chaos director poisoned");
            match hook.as_ref() {
                Some(h) => h(),
                None => RecoveryReport::default(),
            }
        };
        let mut st = self.state.lock().expect("chaos director poisoned");
        st.stats.crashes += 1;
        st.stats.recovered_sessions += report.recovered.len();
        st.stats.quarantined_sessions += report.quarantined.len();
    }

    /// Records a stall as injected (called once per plan stall when the
    /// schedule is handed to the manager — stalls always fire if the run
    /// reaches their quantum, and a stall that doesn't is a plan bug the
    /// `remaining` list won't catch; keep stall indices early).
    fn note_stalls(&self, stalls: &[(u64, u64)]) {
        let stalls: Vec<_> = stalls
            .iter()
            .map(|&(quantum, ms)| ChaosFault::WorkerStall { quantum, ms })
            .collect();
        self.note_fired(self.state.lock().expect("chaos director poisoned"), &stalls);
    }

    /// The run's final accounting: fired faults, unfired faults, crash
    /// and recovery counts.
    pub fn stats(&self) -> ChaosStats {
        let st = self.state.lock().expect("chaos director poisoned");
        let mut stats = st.stats.clone();
        stats.remaining = st.pending.iter().flatten().map(|f| f.to_string()).collect();
        stats
    }
}

/// A fault-injecting wrapper around any client transport. Writes are
/// buffered until `flush` — [`crate::write_frame`] flushes once per
/// frame, so at flush time the buffer holds exactly one frame and the
/// director can corrupt, drop, or crash on whole-frame boundaries.
pub struct ChaosTransport<S: Read + Write> {
    inner: S,
    session: usize,
    director: Arc<ChaosDirector>,
    wbuf: Vec<u8>,
    fail_next_read: bool,
}

impl<S: Read + Write> ChaosTransport<S> {
    /// Wraps `inner` as fleet session `session`'s connection.
    pub fn new(inner: S, session: usize, director: Arc<ChaosDirector>) -> Self {
        Self {
            inner,
            session,
            director,
            wbuf: Vec::new(),
            fail_next_read: false,
        }
    }
}

impl<S: Read + Write> Read for ChaosTransport<S> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.fail_next_read {
            self.fail_next_read = false;
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "chaos: connection dropped before the response",
            ));
        }
        self.inner.read(out)
    }
}

impl<S: Read + Write> Write for ChaosTransport<S> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.wbuf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.wbuf.is_empty() {
            return self.inner.flush();
        }
        let mut frame = std::mem::take(&mut self.wbuf);
        for fault in self.director.begin_op(self.session) {
            match fault {
                ChaosFault::ConnDrop {
                    when: DropWhen::Send,
                    ..
                } => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "chaos: connection dropped mid-send",
                    ));
                }
                ChaosFault::ConnDrop {
                    when: DropWhen::Recv,
                    ..
                } => {
                    self.fail_next_read = true;
                }
                ChaosFault::FrameCorrupt { byte, bit, .. } => {
                    // Corrupt payload bytes only (offset 4 onward): a
                    // damaged length prefix would desynchronize the
                    // stream instead of testing payload validation.
                    if frame.len() > 4 {
                        let idx = 4 + (byte as usize % (frame.len() - 4));
                        frame[idx] ^= 1 << bit;
                    }
                }
                ChaosFault::CrashRestart { .. } => {
                    // Kill-and-recover happens *before* the frame goes
                    // out: the frame then lands on the corpse, whose
                    // connection hangs up without replying, and the
                    // retry layer re-sends against the recovered server.
                    self.director.fire_crash();
                }
                ChaosFault::WorkerStall { .. } => {
                    unreachable!("stalls never enter the director's pending set")
                }
            }
        }
        self.inner.write_all(&frame)?;
        self.inner.flush()
    }
}

impl<S: Read + Write + Deadlines> Deadlines for ChaosTransport<S> {
    fn set_deadlines(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.inner.set_deadlines(read, write)
    }
}

// --- the durable fleet driver -------------------------------------------

/// Runs the fleet through [`RetryClient`]s with a durable cadence: every
/// session suspends-and-resumes right after submit and after every step
/// chunk, so the spool always holds a checkpoint at most one chunk old.
/// On a `session-suspended` answer to a step or the digest (the signature
/// of a restarted server) the session resumes and replays from the
/// restored step count; on `no-such-session` or `corrupt-checkpoint` it
/// restarts from step zero, and a session lost before its first
/// checkpoint is submitted again. Deterministic stepping makes either
/// replay digest-exact. A Close answered `no-such-session` after the
/// digest counts as closed: the Close ran, and a crash lost its reply.
///
/// All report entries carry `suspended: true` (the durable cadence *is*
/// suspension), so `FleetReport::text` is not byte-comparable with a
/// [`crate::run_fleet`] report — compare per-session digests or
/// [`FleetReport::combined_digest`] instead.
///
/// # Errors
///
/// The first failing session's [`FleetError`], after retries and resyncs
/// are exhausted.
pub fn run_resilient_fleet<S, F>(
    cfg: &FleetConfig,
    policy: RetryPolicy,
    deadline: Option<Duration>,
    connect: F,
) -> Result<FleetReport, FleetError>
where
    S: Read + Write + Deadlines,
    F: Fn(usize) -> std::io::Result<S> + Sync,
{
    run_sessions(cfg, |index| {
        run_durable_session(cfg, index, policy, deadline, &connect)
    })
}

/// Suspend + resume: the durability point. Both halves tolerate the
/// retry artifacts a lossy transport produces (`session-suspended` on a
/// replayed suspend, `session-busy` on a replayed resume). Returns the
/// restored step count, or `None` if the session turned out to be
/// already active (the caller's count stands).
fn checkpoint_cycle<S, F>(
    rc: &mut RetryClient<S, F>,
    session: u64,
) -> Result<Option<u64>, ClientError>
where
    S: Read + Write + Deadlines,
    F: FnMut() -> std::io::Result<S>,
{
    match rc.suspend(session) {
        Ok(_) => {}
        Err(ClientError::Server {
            code: ErrorCode::SessionSuspended,
            ..
        }) => {}
        Err(e) => return Err(e),
    }
    match rc.resume(session) {
        Ok(back) => Ok(Some(back)),
        Err(ClientError::Server {
            code: ErrorCode::SessionBusy,
            ..
        }) => Ok(None),
        Err(e) => Err(e),
    }
}

fn run_durable_session<S, F>(
    cfg: &FleetConfig,
    index: usize,
    policy: RetryPolicy,
    deadline: Option<Duration>,
    connect: &F,
) -> Result<FleetEntry, FleetError>
where
    S: Read + Write + Deadlines,
    F: Fn(usize) -> std::io::Result<S>,
{
    let fail = |message: String| FleetError { index, message };
    let plan = workload(cfg, index);
    let mut rc = RetryClient::new(|| connect(index), policy, index as u32 + 1);
    if let Some(d) = deadline {
        rc = rc.with_deadline(d);
    }

    let submit = |rc: &mut RetryClient<S, _>| -> Result<u64, FleetError> {
        // Durability point zero: even a session that crashes before its
        // first chunk completes recovers by replaying from step 0. A crash
        // before this checkpoint lands takes the never-durable session
        // with it, so the restarted server answers `no-such-session`:
        // submit again.
        let mut tries = policy.attempts.max(1);
        loop {
            let session = rc
                .submit(plan.system, plan.side, plan.side)
                .map_err(|e| fail(format!("submit {}: {e}", plan.system)))?;
            match checkpoint_cycle(rc, session) {
                Err(ClientError::Server {
                    code: ErrorCode::NoSuchSession,
                    ..
                }) if tries > 1 => tries -= 1,
                Err(e) => return Err(fail(format!("initial checkpoint: {e}"))),
                Ok(_) => return Ok(session),
            }
        }
    };

    let mut session = submit(&mut rc)?;
    let mut done: u64 = 0;
    // Step in chunks, then ask for the digest. A restarted server can
    // answer either request with a session it brought back suspended at
    // its last checkpoint, or lost: both resync and go on stepping.
    let (steps, digest) = loop {
        let result = if done < plan.steps {
            let chunk = cfg.chunk.max(1).min(plan.steps - done);
            rc.step(session, chunk).map(|(steps, _)| (steps, None))
        } else {
            rc.digest(session).map(|(steps, d)| (steps, Some(d)))
        };
        match result {
            Ok((steps, Some(digest))) => break (steps, digest),
            Ok((steps, None)) => done = steps,
            Err(ClientError::Server {
                code: ErrorCode::SessionSuspended,
                ..
            }) => {
                // Restarted server: the session came back suspended at
                // its last durable checkpoint. Resume and replay the
                // steps since — deterministic stepping makes the replay
                // bit-exact.
                if let Some(back) = checkpoint_cycle(&mut rc, session)
                    .map_err(|e| fail(format!("resync resume at {done}: {e}")))?
                {
                    done = back;
                }
            }
            Err(ClientError::Server {
                code: ErrorCode::NoSuchSession | ErrorCode::CorruptCheckpoint,
                ..
            }) => {
                // The server lost (or quarantined) our checkpoint: the
                // session's durable trail is gone. Start over from step
                // zero — still digest-exact, just more replay.
                let _ = rc.close(session);
                session = submit(&mut rc)?;
                done = 0;
            }
            Err(e) if done < plan.steps => return Err(fail(format!("step at {done}: {e}"))),
            Err(e) => return Err(fail(format!("digest: {e}"))),
        }
        if done < plan.steps {
            // Per-chunk durability point.
            if let Some(back) = checkpoint_cycle(&mut rc, session)
                .map_err(|e| fail(format!("checkpoint at {done}: {e}")))?
            {
                done = back;
            }
        }
    };
    if steps != plan.steps {
        return Err(fail(format!(
            "digest at step {steps}, expected {}",
            plan.steps
        )));
    }
    match rc.close(session) {
        // A Close that ran but lost its reply retries against the server;
        // if a crash took the dedup record too, the retry finds no
        // session. After the verified digest that means it is closed.
        Ok(())
        | Err(ClientError::Server {
            code: ErrorCode::NoSuchSession,
            ..
        }) => {}
        Err(e) => return Err(fail(format!("close: {e}"))),
    }
    Ok(FleetEntry {
        index,
        system: plan.system,
        steps: plan.steps,
        digest,
        suspended: true,
    })
}

// --- the self-hosted chaos run ------------------------------------------

/// Runs a durable fleet against a self-hosted server while injecting the
/// plan's faults, returning the (digest-deterministic) report plus the
/// fault accounting. The server lives behind a swap slot so a
/// `crash-restart` fault can hard-kill it and recover a fresh instance
/// from the same spool mid-run; client connections are in-memory
/// loopbacks wrapped in [`ChaosTransport`].
///
/// # Errors
///
/// [`FleetError`] from the durable fleet, or an `index == usize::MAX`
/// pseudo-entry if the server itself cannot start.
pub fn run_chaos_fleet(
    cfg: &FleetConfig,
    mut server_cfg: ServerConfig,
    plan: &ChaosPlan,
    policy: RetryPolicy,
    deadline: Option<Duration>,
) -> Result<(FleetReport, ChaosStats), FleetError> {
    let server_fail = |message: String| FleetError {
        index: usize::MAX,
        message,
    };
    server_cfg.manager.stalls = plan.stalls();
    let director = Arc::new(ChaosDirector::new(plan));
    // Fault accounting lands in the same registry the server reports
    // from, so one Stats snapshot shows injection and reaction together.
    director.set_metrics(server_cfg.manager.metrics.clone());
    director.note_stalls(&server_cfg.manager.stalls);

    let first =
        Server::start(server_cfg.clone()).map_err(|e| server_fail(format!("server start: {e}")))?;
    let slot: Arc<Mutex<Arc<Server>>> = Arc::new(Mutex::new(first));

    {
        let slot = slot.clone();
        let recover_cfg = server_cfg.clone();
        director.set_crash_hook(Box::new(move || {
            let mut current = slot.lock().expect("server slot poisoned");
            current.crash();
            // Holding the slot lock through recovery parks every
            // reconnecting client until the new server is live.
            let (next, report) = Server::recover(recover_cfg.clone())
                .expect("recovery from our own spool cannot fail");
            *current = next;
            report
        }));
    }

    let connect_slot = slot.clone();
    let connect_director = director.clone();
    let report = run_resilient_fleet(cfg, policy, deadline, move |index| {
        let (ours, theirs) = crate::loopback::pair();
        let server = connect_slot.lock().expect("server slot poisoned").clone();
        std::thread::spawn(move || {
            server.handle_conn(theirs);
        });
        Ok(ChaosTransport::new(ours, index, connect_director.clone()))
    })?;

    slot.lock().expect("server slot poisoned").shutdown();
    Ok((report, director.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parses_every_fault_kind_with_defaults() {
        let plan = ChaosPlan::parse(
            "conn-drop@3:session=2,when=recv; frame-corrupt@4:session=1; \
             worker-stall@10:ms=40; crash-restart@5:session=0",
        )
        .unwrap();
        assert_eq!(
            plan.faults,
            vec![
                ChaosFault::ConnDrop {
                    session: 2,
                    op: 3,
                    when: DropWhen::Recv
                },
                ChaosFault::FrameCorrupt {
                    session: 1,
                    op: 4,
                    byte: 0,
                    bit: 0
                },
                ChaosFault::WorkerStall {
                    quantum: 10,
                    ms: 40
                },
                ChaosFault::CrashRestart { session: 0, op: 5 },
            ]
        );
        assert_eq!(plan.stalls(), vec![(10, 40)]);
        // Round-trip: Display renders back into the grammar.
        let rendered: Vec<String> = plan.faults.iter().map(|f| f.to_string()).collect();
        let reparsed = ChaosPlan::parse(&rendered.join(";")).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn plan_rejects_unknown_kinds_and_bad_fields() {
        assert!(ChaosPlan::parse("meteor-strike@1:session=0").is_err());
        assert!(ChaosPlan::parse("conn-drop@1:session=0,when=never").is_err());
        assert!(
            ChaosPlan::parse("conn-drop@1:when=send").is_err(),
            "missing session"
        );
        assert!(ChaosPlan::parse("frame-corrupt@1:session=0,bit=9").is_err());
        assert!(
            ChaosPlan::parse("worker-stall@1:session=0").is_err(),
            "missing ms"
        );
        assert!(ChaosPlan::parse("worker-stall@1:ms=-5").is_err());
    }

    #[test]
    fn director_hands_each_fault_out_exactly_once() {
        let plan = ChaosPlan::parse("conn-drop@1:session=0; conn-drop@1:session=1").unwrap();
        let d = ChaosDirector::new(&plan);
        assert!(d.begin_op(0).is_empty(), "op 0 has no fault");
        assert_eq!(d.begin_op(0).len(), 1, "session 0 op 1 fires");
        assert!(d.begin_op(0).is_empty(), "consumed once");
        assert_eq!(d.begin_op(1), vec![]);
        assert_eq!(d.begin_op(1).len(), 1, "sessions count independently");
        let stats = d.stats();
        assert_eq!(stats.injected.len(), 2);
        assert!(stats.remaining.is_empty());
    }

    #[test]
    fn transport_corrupts_only_payload_bytes() {
        let plan = ChaosPlan::parse("frame-corrupt@0:session=0,byte=0,bit=7").unwrap();
        let d = Arc::new(ChaosDirector::new(&plan));
        let mut t = ChaosTransport::new(std::io::Cursor::new(Vec::new()), 0, d);
        // A 4-byte prefix plus 3 payload bytes.
        t.write_all(&[3, 0, 0, 0, 0xAA, 0xBB, 0xCC]).unwrap();
        t.flush().unwrap();
        let sink = t.inner.into_inner();
        assert_eq!(sink[..4], [3, 0, 0, 0], "length prefix untouched");
        assert_eq!(sink[4], 0xAA ^ 0x80, "payload byte 0 bit 7 flipped");
        assert_eq!(&sink[5..], &[0xBB, 0xCC]);
    }
}
