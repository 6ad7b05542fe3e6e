//! Multi-tenant session management over the tile-sharded engine.
//!
//! A [`SessionManager`] multiplexes many independent solver sessions onto
//! a fixed pool of worker threads. Scheduling is deterministic fair
//! round-robin: a worker scans session ids from a rotating cursor, picks
//! the first session with pending steps, and runs at most one *quantum*
//! of steps before putting the session back and moving the cursor past
//! it. Each session owns its own single-threaded `CennSim`, so a
//! session's state trajectory depends only on its own step count — never
//! on worker count, scheduling order, or what other tenants are doing.
//! That is what makes the fleet digests bit-identical across `--workers
//! 1` and `--workers 4`.
//!
//! Idle sessions can be *suspended*: their full fixed-point state is
//! spooled to a `CENNCKPT` file (the same format `cenn-guard` uses for
//! crash recovery) and the in-memory solver is dropped. *Resume* rebuilds
//! the model from the registry and restores the snapshot bit-exactly;
//! only LUT cache counters start cold, which is why digests cover state
//! bits and not cache accounting.
//!
//! Suspension is also the durability point. Checkpoints and the spool
//! [`crate::spool::Manifest`] are written with temp+fsync+rename (see
//! the [`crate::spool`] docs), resume *keeps* the spooled file (it is
//! the session's recovery point until the next suspend or close), and
//! [`SessionManager::recover`] rebuilds a manager from the manifest
//! after a crash — admitting digest-valid checkpoints as suspended
//! sessions under their original ids and quarantining the rest. Paired
//! with the request-id idempotency cache (retried mutations replay
//! their recorded outcome instead of re-executing) this makes a fleet
//! driven by [`crate::RetryClient`] digest-identical across server
//! kills, connection drops, and frame corruption.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, MutexGuard};

use cenn_equations::{system_by_name, DynamicalSystem, FixedRunner};
use cenn_guard::Checkpoint;
use cenn_obs::{
    CounterId, Event, GaugeId, HistogramId, JsonlSink, MetricsHub, RecorderHandle, SessionEvent,
    TraceHandle,
};

use crate::digest::state_digest;
use crate::proto::{ErrorCode, Response};
use crate::spool::{self, Manifest, ManifestEntry, QuarantineReason};

/// A service-level failure: a machine-readable [`ErrorCode`] plus detail.
/// Maps one-to-one onto [`crate::proto::Response::Error`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Machine-readable discriminator.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    fn no_such_session(id: u64) -> Self {
        Self::new(
            ErrorCode::NoSuchSession,
            format!("session {id} does not exist"),
        )
    }

    fn crashed() -> Self {
        Self::new(ErrorCode::Internal, "server crashed")
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

/// Session-manager knobs.
#[derive(Clone)]
pub struct ManagerConfig {
    /// Maximum steps a worker runs for one session before re-queueing it
    /// (the round-robin time slice). Clamped to at least 1.
    pub quantum: u64,
    /// Directory for suspended-session `CENNCKPT` files (created on
    /// construction).
    pub spool: PathBuf,
    /// When set, each session also streams its lifecycle events to
    /// `<dir>/session_<id>.jsonl`.
    pub session_log_dir: Option<PathBuf>,
    /// Canonicalize per-session logs (the deterministic byte-comparable
    /// mode).
    pub canonical_logs: bool,
    /// Global event stream receiving every session's lifecycle events.
    pub recorder: Option<RecorderHandle>,
    /// Load-shedding limit: `submit` answers `overloaded` once this many
    /// sessions are live.
    pub max_sessions: usize,
    /// Load-shedding limit: `step` answers `overloaded` when the total
    /// queued (unexecuted) steps across all sessions would exceed this.
    pub max_pending: u64,
    /// Chaos-harness hook: `(quantum index, millis)` stalls injected
    /// into the worker loop at the given global quantum numbers. Pure
    /// timing perturbation — must never change any digest.
    pub stalls: Vec<(u64, u64)>,
    /// Live metrics registry the manager accounts into (session
    /// lifecycle counters, queue-depth/spool gauges, the quantum latency
    /// histogram). Defaults to a private hub; the serve binary passes
    /// the process hub so the `Stats` frame and the Prometheus endpoint
    /// see the same numbers.
    pub metrics: MetricsHub,
    /// When set, the worker loop records one correlation mark per
    /// executed quantum (the request id that queued the steps), so a
    /// client request traces through scheduling in the Chrome export.
    pub tracer: Option<TraceHandle>,
}

impl ManagerConfig {
    /// A config with the given spool directory, no log streams, and no
    /// load-shedding limits.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        Self {
            quantum: 32,
            spool: spool.into(),
            session_log_dir: None,
            canonical_logs: true,
            recorder: None,
            max_sessions: usize::MAX,
            max_pending: u64::MAX,
            stalls: Vec::new(),
            metrics: MetricsHub::new(),
            tracer: None,
        }
    }
}

/// Instrument ids pre-registered at manager construction, so recording
/// sites index straight into the hub instead of interning names.
struct ServeMetrics {
    sessions_active: GaugeId,
    sessions_suspended: GaugeId,
    queue_depth: GaugeId,
    spool_bytes: GaugeId,
    submitted: CounterId,
    closed: CounterId,
    suspended: CounterId,
    resumed: CounterId,
    recovered: CounterId,
    quarantined: CounterId,
    shed: CounterId,
    steps: CounterId,
    quanta: CounterId,
    dedup_hits: CounterId,
    manifest_ops: CounterId,
    quantum_nanos: HistogramId,
}

impl ServeMetrics {
    fn register(hub: &MetricsHub) -> Self {
        Self {
            sessions_active: hub.gauge("serve.sessions_active"),
            sessions_suspended: hub.gauge("serve.sessions_suspended"),
            queue_depth: hub.gauge("serve.queue_depth"),
            spool_bytes: hub.gauge("serve.spool_bytes"),
            submitted: hub.counter("serve.sessions_submitted_total"),
            closed: hub.counter("serve.sessions_closed_total"),
            suspended: hub.counter("serve.sessions_suspended_total"),
            resumed: hub.counter("serve.sessions_resumed_total"),
            recovered: hub.counter("serve.sessions_recovered_total"),
            quarantined: hub.counter("serve.sessions_quarantined_total"),
            shed: hub.counter("serve.requests_shed_total"),
            steps: hub.counter("serve.steps_total"),
            quanta: hub.counter("serve.quanta_total"),
            dedup_hits: hub.counter("serve.dedup_hits_total"),
            manifest_ops: hub.counter("serve.manifest_ops_total"),
            quantum_nanos: hub.histogram("serve.quantum_nanos"),
        }
    }
}

/// What a session is running (enough to rebuild it on resume).
#[derive(Debug, Clone)]
struct SessionSpec {
    system: String,
    rows: u32,
    cols: u32,
}

enum Slot {
    /// Live in-memory solver. `runner` is `None` exactly while a worker
    /// has the session checked out for a quantum.
    Active {
        runner: Option<Box<FixedRunner>>,
        pending: u64,
        fired: u64,
    },
    /// Spooled to disk (its manifest record names the file); no
    /// in-memory solver.
    Suspended,
}

struct Session {
    spec: SessionSpec,
    slot: Slot,
    /// Last step count observed by any completed operation (used for the
    /// `closed` event, where the runner may already be gone).
    steps: u64,
    /// Correlation id of the request currently driving this session
    /// (the last mutating request id; 0 when uncorrelated). Workers
    /// stamp it onto quantum marks so a client request traces through
    /// scheduling.
    corr: u64,
    log: Option<RecorderHandle>,
}

/// Outcomes of mutating requests, keyed by request id: the idempotency
/// cache. A request's id is marked in flight while it executes, and a
/// duplicate that arrives meanwhile waits for it. Only successful
/// outcomes are kept (a failed request is safe to re-execute, so its
/// mark is dropped), only nonzero ids participate, and eviction is FIFO
/// at a fixed capacity. The cache is in-memory by design — a crash loses
/// it, and crash recovery relies on the suspend-point resync protocol
/// instead.
#[derive(Default)]
struct DedupCache {
    /// `None` while the request is in flight.
    map: HashMap<u64, Option<Response>>,
    order: VecDeque<u64>,
}

impl DedupCache {
    const CAP: usize = 4096;

    fn insert(&mut self, req_id: u64, outcome: Option<Response>) {
        if self.map.insert(req_id, outcome).is_none() {
            self.order.push_back(req_id);
            if self.order.len() > Self::CAP {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    fn forget(&mut self, req_id: u64) {
        if self.map.remove(&req_id).is_some() {
            if let Some(pos) = self.order.iter().rposition(|&id| id == req_id) {
                self.order.remove(pos);
            }
        }
    }
}

#[derive(Default)]
struct Inner {
    sessions: BTreeMap<u64, Session>,
    next_id: u64,
    cursor: u64,
    shutdown: bool,
    /// Hard-stop flag: workers abandon queued work, connections close
    /// without replying. Set only by [`SessionManager::crash`].
    crashed: bool,
    /// `true` while the manager is refusing work at a load-shed limit
    /// (drives the `shed`/`shed-recovered` event transitions).
    shedding: bool,
    /// Global quantum counter (drives the chaos stall schedule).
    quanta: u64,
    manifest: Manifest,
    dedup: DedupCache,
}

/// What [`SessionManager::recover`] found in the spool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions rehydrated as suspended, by id.
    pub recovered: Vec<u64>,
    /// Sessions whose checkpoints were quarantined: `(id, reason)`.
    pub quarantined: Vec<(u64, String)>,
}

/// The multi-tenant scheduler. See the module docs for the model.
pub struct SessionManager {
    inner: Mutex<Inner>,
    /// Wakes workers when steps are queued (or shutdown begins).
    work: Condvar,
    /// Wakes request threads when a quantum completes or a session
    /// changes shape.
    done: Condvar,
    cfg: ManagerConfig,
    /// Pre-registered instrument ids into `cfg.metrics`.
    m: ServeMetrics,
}

impl SessionManager {
    /// Creates a manager, making the spool directory.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Internal`] if the spool directory cannot be created.
    pub fn new(cfg: ManagerConfig) -> Result<Self, ServeError> {
        std::fs::create_dir_all(&cfg.spool)
            .map_err(|e| ServeError::new(ErrorCode::Internal, format!("spool dir: {e}")))?;
        if let Some(dir) = &cfg.session_log_dir {
            std::fs::create_dir_all(dir).map_err(|e| {
                ServeError::new(ErrorCode::Internal, format!("session log dir: {e}"))
            })?;
        }
        let m = ServeMetrics::register(&cfg.metrics);
        Ok(Self {
            inner: Mutex::new(Inner {
                next_id: 1,
                ..Inner::default()
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cfg,
            m,
        })
    }

    /// Rebuilds a manager from a crashed server's spool.
    ///
    /// The spool `MANIFEST` is replayed: every entry whose checkpoint
    /// file exists and matches its recorded digest (and decodes as a
    /// `CENNCKPT`) is rehydrated as a *suspended* session under its
    /// original id; the rest are moved to `spool/quarantine/` and
    /// reported with a typed reason. The pruned manifest is rewritten
    /// atomically under the next incarnation number, and fresh session
    /// ids are `incarnation << 32 | n` from `n = 1`: no id issued before
    /// the crash, checkpointed or not, is issued again.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Internal`] if the spool directories cannot be made,
    /// the manifest itself is unreadable/unparseable (a torn manifest
    /// cannot happen under the atomic-write discipline, so this is a
    /// genuine server fault, not data damage), or its incarnation
    /// numbers are used up.
    pub fn recover(cfg: ManagerConfig) -> Result<(Self, RecoveryReport), ServeError> {
        let mgr = Self::new(cfg)?;
        let manifest = Manifest::load(&mgr.cfg.spool)
            .map_err(|e| ServeError::new(ErrorCode::Internal, format!("recovering spool: {e}")))?;
        let max_id = manifest.entries.keys().next_back().copied().unwrap_or(0);
        let incarnation = (manifest.incarnation.max((max_id >> 32) as u32))
            .checked_add(1)
            .ok_or_else(|| ServeError::new(ErrorCode::Internal, "spool incarnations used up"))?;
        let mut report = RecoveryReport::default();
        let mut kept = Manifest {
            incarnation,
            ..Manifest::default()
        };
        for (id, entry) in &manifest.entries {
            match spool::read_checkpoint(&mgr.cfg.spool, entry) {
                Ok(_) => {
                    let log = match &mgr.cfg.session_log_dir {
                        None => None,
                        Some(dir) => JsonlSink::append(
                            dir.join(format!("session_{id}.jsonl")),
                            mgr.cfg.canonical_logs,
                        )
                        .ok()
                        .map(RecorderHandle::new),
                    };
                    let session = Session {
                        spec: SessionSpec {
                            system: entry.system.clone(),
                            rows: entry.rows,
                            cols: entry.cols,
                        },
                        slot: Slot::Suspended,
                        steps: entry.steps,
                        corr: 0,
                        log,
                    };
                    let detail = format!("{}x{}", entry.rows, entry.cols);
                    mgr.record_session(*id, &session, "recovered", detail, 0, 0);
                    mgr.cfg.metrics.inc(mgr.m.recovered, 1);
                    mgr.lock().sessions.insert(*id, session);
                    kept.entries.insert(*id, entry.clone());
                    report.recovered.push(*id);
                }
                Err(reason) => {
                    if !matches!(reason, QuarantineReason::Missing) {
                        let _ = spool::quarantine(&mgr.cfg.spool, &entry.file);
                    }
                    mgr.record(
                        None,
                        SessionEvent {
                            session: *id,
                            step: entry.steps,
                            kind: "quarantined".into(),
                            system: entry.system.clone(),
                            detail: reason.to_string(),
                            count: 0,
                            corr: 0,
                        },
                    );
                    mgr.cfg.metrics.inc(mgr.m.quarantined, 1);
                    report.quarantined.push((*id, reason.to_string()));
                }
            }
        }
        kept.save(&mgr.cfg.spool)
            .map_err(|e| ServeError::new(ErrorCode::Internal, format!("pruning manifest: {e}")))?;
        {
            let mut inner = mgr.lock();
            inner.manifest = kept;
            inner.next_id = u64::from(incarnation) << 32 | 1;
            mgr.refresh_gauges(&inner);
        }
        Ok((mgr, report))
    }

    /// Recomputes the session-shape and spool gauges from the current
    /// state (called at lifecycle transitions — cheap, and exact at any
    /// quiescent point).
    fn refresh_gauges(&self, inner: &Inner) {
        let (mut active, mut suspended) = (0i64, 0i64);
        for s in inner.sessions.values() {
            match s.slot {
                Slot::Active { .. } => active += 1,
                Slot::Suspended => suspended += 1,
            }
        }
        self.cfg.metrics.gauge_set(self.m.sessions_active, active);
        self.cfg
            .metrics
            .gauge_set(self.m.sessions_suspended, suspended);
        let mut bytes = 0i64;
        for e in inner.manifest.entries.values() {
            if let Ok(md) = std::fs::metadata(self.cfg.spool.join(&e.file)) {
                bytes += md.len() as i64;
            }
        }
        self.cfg.metrics.gauge_set(self.m.spool_bytes, bytes);
    }

    /// Simulates `kill -9` for the chaos harness: workers abandon queued
    /// work immediately, every blocked request errors out, and no durable
    /// state is flushed. The manager object stays alive only so threads
    /// can be joined; all service calls fail afterwards.
    pub fn crash(&self) {
        let mut inner = self.lock();
        inner.crashed = true;
        inner.shutdown = true;
        drop(inner);
        self.work.notify_all();
        self.done.notify_all();
    }

    /// `true` once [`crash`](Self::crash) has been called.
    pub fn is_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Starts a mutating request under its id (the idempotency cache).
    /// `Some` is the reply of an earlier request with the same id, after
    /// waiting for it if it is still running; `None` means this request
    /// executes and reports through [`dedup_finish`](Self::dedup_finish).
    /// Id 0 never dedups.
    pub fn dedup_begin(&self, req_id: u64) -> Option<Response> {
        if req_id == 0 {
            return None;
        }
        let mut inner = self.lock();
        loop {
            match inner.dedup.map.get(&req_id).cloned() {
                Some(Some(prior)) => {
                    self.cfg.metrics.inc(self.m.dedup_hits, 1);
                    return Some(prior);
                }
                Some(None) if !inner.crashed => {
                    inner = self.done.wait(inner).expect("session manager poisoned");
                }
                _ => {
                    inner.dedup.insert(req_id, None);
                    return None;
                }
            }
        }
    }

    /// Ends a request begun with [`dedup_begin`](Self::dedup_begin): a
    /// success is kept for its duplicates to replay, a failure is
    /// forgotten so a duplicate executes again.
    pub fn dedup_finish(&self, req_id: u64, resp: &Response) {
        if req_id == 0 {
            return;
        }
        let mut inner = self.lock();
        if matches!(resp, Response::Error { .. }) {
            inner.dedup.forget(req_id);
        } else {
            inner.dedup.insert(req_id, Some(resp.clone()));
        }
        drop(inner);
        self.done.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("session manager poisoned")
    }

    fn record(&self, log: Option<&RecorderHandle>, ev: SessionEvent) {
        let ev = Event::Session(ev);
        if let Some(r) = &self.cfg.recorder {
            r.record(&ev);
        }
        if let Some(r) = log {
            r.record(&ev);
        }
    }

    /// Records lifecycle event `kind` of session `id`, at its step count
    /// and under its system, on the global stream and its own log.
    fn record_session(
        &self,
        id: u64,
        s: &Session,
        kind: &str,
        detail: String,
        count: u64,
        corr: u64,
    ) {
        let ev = SessionEvent {
            session: id,
            step: s.steps,
            kind: kind.into(),
            system: s.spec.system.clone(),
            detail,
            count,
            corr,
        };
        self.record(s.log.as_ref(), ev);
    }

    /// The load-shed transitions, shared by both limits. A request over
    /// a limit (`over` names it, e.g. `max-sessions=8`) is counted as
    /// shed; the first such request records `shed`, and the first
    /// admitted request after it records `shed-recovered`. `session`,
    /// `system` and `count` (the limit's live measure) fill the event.
    fn shed_transition(
        &self,
        inner: &mut Inner,
        over: Option<String>,
        session: u64,
        system: &str,
        count: u64,
    ) {
        if over.is_some() {
            self.cfg.metrics.inc(self.m.shed, 1);
        }
        if inner.shedding == over.is_some() {
            return;
        }
        inner.shedding = over.is_some();
        let kind = if inner.shedding {
            "shed"
        } else {
            "shed-recovered"
        };
        self.record(
            None,
            SessionEvent {
                session,
                step: 0,
                kind: kind.into(),
                system: system.into(),
                detail: over.unwrap_or_default(),
                count,
                corr: 0,
            },
        );
    }

    /// The id of the first runnable session at or after the cursor,
    /// wrapping — the deterministic round-robin pick.
    fn next_runnable(inner: &Inner) -> Option<u64> {
        let runnable = |s: &Session| {
            matches!(
                s.slot,
                Slot::Active {
                    runner: Some(_),
                    pending: 1..,
                    ..
                }
            )
        };
        inner
            .sessions
            .range(inner.cursor..)
            .chain(inner.sessions.range(..inner.cursor))
            .find(|(_, s)| runnable(s))
            .map(|(id, _)| *id)
    }

    /// One worker thread's main loop. Drains all queued steps before
    /// honoring shutdown, so `shutdown` has graceful-drain semantics —
    /// unless [`crash`](Self::crash) fired, in which case workers
    /// abandon the queue immediately, like the threads of a killed
    /// process.
    pub fn worker_loop(&self) {
        let mut inner = self.lock();
        loop {
            if inner.crashed {
                return;
            }
            let Some(id) = Self::next_runnable(&inner) else {
                if inner.shutdown {
                    return;
                }
                inner = self.work.wait(inner).expect("session manager poisoned");
                continue;
            };
            inner.cursor = id.wrapping_add(1);
            let quantum_seq = inner.quanta;
            inner.quanta += 1;
            let quantum_cap = self.cfg.quantum.max(1);
            let session = inner.sessions.get_mut(&id).expect("picked id exists");
            let Slot::Active {
                runner, pending, ..
            } = &mut session.slot
            else {
                unreachable!("next_runnable only picks active sessions");
            };
            let quantum = (*pending).min(quantum_cap);
            let corr = session.corr;
            let mut checked_out = runner.take().expect("picked runner present");
            // Step outside the lock: other workers keep scheduling other
            // sessions while this quantum runs.
            drop(inner);
            if let Some(&(_, ms)) = self.cfg.stalls.iter().find(|(at, _)| *at == quantum_seq) {
                // Chaos worker-stall: pure scheduling delay, no state
                // effect — digests must not notice.
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            let t0 = std::time::Instant::now();
            let fired = checked_out.run(quantum) as u64;
            let dur_nanos = t0.elapsed().as_nanos() as u64;
            let steps_now = checked_out.steps();
            // Account the quantum outside the manager lock (the hub has
            // its own). Counts are worker-count-invariant — a step batch
            // of n always splits into ceil(n/quantum) quanta — so the
            // canonical snapshot keeps them.
            self.cfg.metrics.observe(self.m.quantum_nanos, dur_nanos);
            self.cfg.metrics.inc(self.m.quanta, 1);
            self.cfg.metrics.inc(self.m.steps, quantum);
            self.cfg
                .metrics
                .gauge_add(self.m.queue_depth, -(quantum as i64));
            if corr != 0 {
                if let Some(tracer) = &self.cfg.tracer {
                    let end = tracer.now_nanos();
                    tracer.mark(corr, id as u32, end.saturating_sub(dur_nanos), dur_nanos);
                }
            }
            inner = self.lock();
            if let Some(session) = inner.sessions.get_mut(&id) {
                session.steps = steps_now;
                if let Slot::Active {
                    runner,
                    pending,
                    fired: total,
                } = &mut session.slot
                {
                    *runner = Some(checked_out);
                    *pending -= quantum;
                    *total += fired;
                }
            }
            self.done.notify_all();
        }
    }

    /// Blocks until the session exists, is active, idle (no pending
    /// steps), and its runner is checked in.
    fn wait_active_idle(&self, id: u64) -> Result<MutexGuard<'_, Inner>, ServeError> {
        let mut inner = self.lock();
        loop {
            if inner.crashed {
                return Err(ServeError::crashed());
            }
            match inner.sessions.get(&id) {
                None => return Err(ServeError::no_such_session(id)),
                Some(s) => match &s.slot {
                    Slot::Suspended => {
                        return Err(ServeError::new(
                            ErrorCode::SessionSuspended,
                            format!("session {id} is suspended"),
                        ))
                    }
                    Slot::Active {
                        runner: Some(_),
                        pending: 0,
                        ..
                    } => return Ok(inner),
                    Slot::Active { .. } => {}
                },
            }
            inner = self.done.wait(inner).expect("session manager poisoned");
        }
    }

    /// The submit refusals: a crashed or shutting-down server, and the
    /// `max_sessions` shed limit, which counts the refusal and records
    /// the `shed` transition.
    fn admit(&self, inner: &mut Inner, system: &str) -> Result<(), ServeError> {
        if inner.crashed {
            return Err(ServeError::crashed());
        }
        if inner.shutdown {
            return Err(ServeError::new(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            ));
        }
        if inner.sessions.len() < self.cfg.max_sessions {
            return Ok(());
        }
        let over = format!("max-sessions={}", self.cfg.max_sessions);
        let live = inner.sessions.len() as u64;
        self.shed_transition(inner, Some(over), 0, system, live);
        Err(ServeError::new(
            ErrorCode::Overloaded,
            format!(
                "session limit reached ({} live, max {})",
                inner.sessions.len(),
                self.cfg.max_sessions
            ),
        ))
    }

    /// Creates a session for the named system on a `rows × cols` grid.
    ///
    /// `corr` is the client's request id, stamped onto the `submitted`
    /// event as its correlation id (0 for none).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownSystem`] for names outside the registry,
    /// [`ErrorCode::BadRequest`] for a zero-sized grid,
    /// [`ErrorCode::ShuttingDown`] once shutdown has begun,
    /// [`ErrorCode::Overloaded`] while the live-session count is at
    /// `max_sessions` (load shedding, retryable), and
    /// [`ErrorCode::Internal`] for model-build failures.
    pub fn submit(&self, system: &str, rows: u32, cols: u32, corr: u64) -> Result<u64, ServeError> {
        if rows == 0 || cols == 0 {
            return Err(ServeError::new(
                ErrorCode::BadRequest,
                format!("grid {rows}x{cols} has no cells"),
            ));
        }
        let sys = registry_system(system)?;
        // Refuse before building: a shed request must not pay for (or
        // allocate) a whole grid. The check repeats at insert, because a
        // concurrent submit may take the last slot while this one builds.
        self.admit(&mut self.lock(), system)?;
        let runner = build_runner(&*sys, rows, cols)?;

        let mut inner = self.lock();
        self.admit(&mut inner, system)?;
        let live = inner.sessions.len() as u64;
        self.shed_transition(&mut inner, None, 0, system, live);
        let id = inner.next_id;
        inner.next_id += 1;
        let log = match &self.cfg.session_log_dir {
            None => None,
            Some(dir) => {
                let sink = JsonlSink::create(
                    dir.join(format!("session_{id}.jsonl")),
                    self.cfg.canonical_logs,
                )
                .map_err(|e| ServeError::new(ErrorCode::Internal, format!("session log: {e}")))?;
                Some(RecorderHandle::new(sink))
            }
        };
        let session = Session {
            spec: SessionSpec {
                system: system.into(),
                rows,
                cols,
            },
            slot: Slot::Active {
                runner: Some(runner),
                pending: 0,
                fired: 0,
            },
            steps: 0,
            corr,
            log,
        };
        self.record_session(id, &session, "submitted", format!("{rows}x{cols}"), 0, corr);
        inner.sessions.insert(id, session);
        self.cfg.metrics.inc(self.m.submitted, 1);
        self.refresh_gauges(&inner);
        Ok(id)
    }

    /// Queues `n` steps and blocks until the worker pool has executed
    /// them. Returns `(total steps, cells fired in this batch)`.
    ///
    /// `corr` is the client's request id: the correlation id stamped onto
    /// the `stepped` event and onto the quantum marks the workers record
    /// while this batch runs (0 for none).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchSession`], [`ErrorCode::SessionSuspended`],
    /// [`ErrorCode::NoSuchSession`] if the session is closed while the
    /// batch is in flight, or [`ErrorCode::Overloaded`] when queueing `n`
    /// more steps would push the total backlog past `max_pending`
    /// (load shedding, retryable).
    pub fn step(&self, id: u64, n: u64, corr: u64) -> Result<(u64, u64), ServeError> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(ServeError::crashed());
        }
        let backlog: u64 = inner
            .sessions
            .values()
            .map(|s| match &s.slot {
                Slot::Active { pending, .. } => *pending,
                Slot::Suspended => 0,
            })
            .sum();
        let over = backlog.saturating_add(n) > self.cfg.max_pending;
        let limit = over.then(|| format!("max-pending={}", self.cfg.max_pending));
        self.shed_transition(&mut inner, limit, id, "", backlog);
        if over {
            return Err(ServeError::new(
                ErrorCode::Overloaded,
                format!(
                    "step backlog full ({backlog} queued + {n} requested > max {})",
                    self.cfg.max_pending
                ),
            ));
        }
        let fired_before = match inner.sessions.get_mut(&id) {
            None => return Err(ServeError::no_such_session(id)),
            Some(s) => match &mut s.slot {
                Slot::Suspended => {
                    return Err(ServeError::new(
                        ErrorCode::SessionSuspended,
                        format!("session {id} is suspended; resume it to step"),
                    ))
                }
                Slot::Active { pending, fired, .. } => {
                    *pending += n;
                    s.corr = corr;
                    *fired
                }
            },
        };
        self.cfg.metrics.gauge_add(self.m.queue_depth, n as i64);
        self.work.notify_all();
        loop {
            if inner.crashed {
                return Err(ServeError::crashed());
            }
            match inner.sessions.get(&id) {
                None => return Err(ServeError::no_such_session(id)),
                Some(s) => {
                    if let Slot::Active {
                        runner: Some(_),
                        pending: 0,
                        fired,
                    } = &s.slot
                    {
                        self.record_session(id, s, "stepped", String::new(), n, corr);
                        return Ok((s.steps, fired - fired_before));
                    }
                }
            }
            inner = self.done.wait(inner).expect("session manager poisoned");
        }
    }

    /// One layer's current state as raw Q16.16 bits (blocks until the
    /// session is idle). Returns `(rows, cols, bits)`.
    ///
    /// # Errors
    ///
    /// Session-shape errors as in [`step`](Self::step), plus
    /// [`ErrorCode::BadRequest`] for a layer index out of range.
    pub fn stream_state(&self, id: u64, layer: u32) -> Result<(u32, u32, Vec<i32>), ServeError> {
        let inner = self.wait_active_idle(id)?;
        let s = inner.sessions.get(&id).expect("held across wait");
        let Slot::Active {
            runner: Some(runner),
            ..
        } = &s.slot
        else {
            unreachable!("wait_active_idle guarantees a checked-in runner");
        };
        let snap = runner.sim().snapshot();
        let Some(bits) = snap.states.get(layer as usize) else {
            return Err(ServeError::new(
                ErrorCode::BadRequest,
                format!("layer {layer} out of range ({} layers)", snap.states.len()),
            ));
        };
        Ok((s.spec.rows, s.spec.cols, bits.clone()))
    }

    /// Suspends an idle session to the spool and drops its solver.
    /// Returns the step count at suspension.
    ///
    /// The checkpoint is written atomically (temp + fsync + rename) and
    /// journaled in the spool manifest with its byte digest, making this
    /// the session's durability point: a crash after `suspend` returns
    /// loses nothing.
    ///
    /// `corr` is the client's request id, stamped onto the `suspended`
    /// event as its correlation id (0 for none).
    ///
    /// # Errors
    ///
    /// Session-shape errors as in [`step`](Self::step);
    /// [`ErrorCode::Internal`] if the checkpoint or manifest cannot be
    /// written.
    pub fn suspend(&self, id: u64, corr: u64) -> Result<u64, ServeError> {
        let mut inner = self.wait_active_idle(id)?;
        let s = inner.sessions.get_mut(&id).expect("held across wait");
        let Slot::Active {
            runner: Some(runner),
            ..
        } = &s.slot
        else {
            unreachable!("wait_active_idle guarantees a checked-in runner");
        };
        let ckpt = Checkpoint::capture(runner.sim());
        let steps = ckpt.step();
        let mut bytes = Vec::new();
        ckpt.write_to(&mut bytes).map_err(|e| {
            ServeError::new(ErrorCode::Internal, format!("encoding session {id}: {e}"))
        })?;
        let file = format!("session_{id}.ckpt");
        spool::write_atomic(&self.cfg.spool.join(&file), &bytes).map_err(|e| {
            ServeError::new(ErrorCode::Internal, format!("spooling session {id}: {e}"))
        })?;
        s.slot = Slot::Suspended;
        s.steps = steps;
        let entry = ManifestEntry {
            session: id,
            system: s.spec.system.clone(),
            rows: s.spec.rows,
            cols: s.spec.cols,
            steps,
            file,
            digest: spool::file_digest(&bytes),
        };
        inner.manifest.entries.insert(id, entry);
        inner.manifest.save(&self.cfg.spool).map_err(|e| {
            ServeError::new(
                ErrorCode::Internal,
                format!("manifest for session {id}: {e}"),
            )
        })?;
        self.record_session(
            id,
            &inner.sessions[&id],
            "suspended",
            String::new(),
            0,
            corr,
        );
        self.cfg.metrics.inc(self.m.suspended, 1);
        self.cfg.metrics.inc(self.m.manifest_ops, 1);
        self.refresh_gauges(&inner);
        self.done.notify_all();
        Ok(steps)
    }

    /// Rebuilds a suspended session from its `CENNCKPT` file,
    /// bit-exactly. Returns the restored step count.
    ///
    /// The spooled file (and its manifest record) are *kept*: they remain
    /// the session's crash-recovery point until the next suspend
    /// overwrites them or `close` deletes them.
    ///
    /// `corr` is the client's request id, stamped onto the `resumed`
    /// event as its correlation id (0 for none).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchSession`]; [`ErrorCode::SessionBusy`] if the
    /// session is not suspended; [`ErrorCode::CorruptCheckpoint`] if the
    /// spooled file is missing, fails its manifest digest, does not
    /// decode, or is at another step than its manifest record (the check
    /// recovery makes); [`ErrorCode::UnknownSystem`] if the record names
    /// no registry system; [`ErrorCode::Internal`] if the model cannot be
    /// rebuilt.
    pub fn resume(&self, id: u64, corr: u64) -> Result<u64, ServeError> {
        // Snapshot the spec and manifest record under the lock, rebuild
        // outside it (model construction is the expensive part).
        let (spec, entry) = {
            let inner = self.lock();
            let s = (inner.sessions.get(&id)).ok_or_else(|| ServeError::no_such_session(id))?;
            if !matches!(s.slot, Slot::Suspended) {
                return Err(ServeError::new(
                    ErrorCode::SessionBusy,
                    format!("session {id} is already active"),
                ));
            }
            (s.spec.clone(), inner.manifest.entries.get(&id).cloned())
        };
        let ckpt = entry
            .ok_or(QuarantineReason::Missing)
            .and_then(|entry| spool::read_checkpoint(&self.cfg.spool, &entry))
            .map_err(|reason| {
                ServeError::new(
                    ErrorCode::CorruptCheckpoint,
                    format!("session {id} checkpoint: {reason}"),
                )
            })?;
        let mut runner = build_runner(&*registry_system(&spec.system)?, spec.rows, spec.cols)?;
        runner.sim_mut().restore(&ckpt.snapshot).map_err(|e| {
            ServeError::new(ErrorCode::Internal, format!("restoring session {id}: {e}"))
        })?;
        let steps = ckpt.step();

        let mut inner = self.lock();
        let s = (inner.sessions.get_mut(&id)).ok_or_else(|| ServeError::no_such_session(id))?;
        if !matches!(s.slot, Slot::Suspended) {
            return Err(ServeError::new(
                ErrorCode::SessionBusy,
                format!("session {id} was resumed concurrently"),
            ));
        }
        s.slot = Slot::Active {
            runner: Some(runner),
            pending: 0,
            fired: 0,
        };
        s.steps = steps;
        s.corr = corr;
        // The spooled copy stays on disk: it is the crash-recovery point
        // until the next suspend or close.
        self.record_session(id, s, "resumed", String::new(), 0, corr);
        self.cfg.metrics.inc(self.m.resumed, 1);
        self.refresh_gauges(&inner);
        self.done.notify_all();
        Ok(steps)
    }

    /// The session's deterministic end-state digest (blocks until idle).
    /// Returns `(steps, digest)`.
    ///
    /// `corr` is the client's request id, stamped onto the `digest`
    /// event as its correlation id (0 for none).
    ///
    /// # Errors
    ///
    /// Session-shape errors as in [`step`](Self::step).
    pub fn digest(&self, id: u64, corr: u64) -> Result<(u64, u64), ServeError> {
        let inner = self.wait_active_idle(id)?;
        let s = inner.sessions.get(&id).expect("held across wait");
        let Slot::Active {
            runner: Some(runner),
            ..
        } = &s.slot
        else {
            unreachable!("wait_active_idle guarantees a checked-in runner");
        };
        let digest = state_digest(runner.sim());
        self.record_session(id, s, "digest", format!("{digest:016x}"), digest, corr);
        Ok((s.steps, digest))
    }

    /// Closes a session (active or suspended), deleting any spooled
    /// checkpoint. Waits for an in-flight quantum to finish first.
    ///
    /// `corr` is the client's request id, stamped onto the `closed`
    /// event as its correlation id (0 for none).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NoSuchSession`].
    pub fn close(&self, id: u64, corr: u64) -> Result<(), ServeError> {
        let mut inner = self.lock();
        // Wait until the runner is checked in (a worker may be mid-quantum);
        // suspended sessions are closable directly.
        loop {
            if inner.crashed {
                return Err(ServeError::crashed());
            }
            match inner.sessions.get(&id) {
                None => return Err(ServeError::no_such_session(id)),
                Some(s) => match &s.slot {
                    Slot::Suspended
                    | Slot::Active {
                        runner: Some(_), ..
                    } => break,
                    Slot::Active { runner: None, .. } => {}
                },
            }
            inner = self.done.wait(inner).expect("session manager poisoned");
        }
        let s = inner.sessions.remove(&id).expect("checked above");
        // A closed session keeps no recovery point: drop its checkpoint
        // and manifest record. Best-effort — leftovers are harmless and
        // recovery re-validates everything anyway.
        let _ = std::fs::remove_file(self.cfg.spool.join(format!("session_{id}.ckpt")));
        if inner.manifest.entries.remove(&id).is_some() {
            let _ = inner.manifest.save(&self.cfg.spool);
            self.cfg.metrics.inc(self.m.manifest_ops, 1);
        }
        self.record_session(id, &s, "closed", String::new(), 0, corr);
        if let Some(log) = &s.log {
            let _ = log.flush();
        }
        self.cfg.metrics.inc(self.m.closed, 1);
        self.refresh_gauges(&inner);
        self.done.notify_all();
        Ok(())
    }

    /// Begins shutdown: no new sessions; workers drain queued steps and
    /// exit. Idempotent.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
        self.done.notify_all();
    }

    /// `true` once [`shutdown`](Self::shutdown) has been called.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Ids of all live sessions (active and suspended), ascending.
    pub fn session_ids(&self) -> Vec<u64> {
        self.lock().sessions.keys().copied().collect()
    }

    /// The metrics hub this manager accounts into.
    pub fn metrics(&self) -> &MetricsHub {
        &self.cfg.metrics
    }

    /// One row per live session for the `Stats` frame, ascending by id.
    pub fn stats_sessions(&self) -> Vec<crate::proto::SessionStat> {
        let inner = self.lock();
        inner
            .sessions
            .iter()
            .map(|(id, s)| {
                let (state, pending) = match &s.slot {
                    Slot::Active { pending, .. } => ("active", *pending),
                    Slot::Suspended => ("suspended", 0),
                };
                crate::proto::SessionStat {
                    session: *id,
                    system: s.spec.system.clone(),
                    state: state.into(),
                    steps: s.steps,
                    pending,
                }
            })
            .collect()
    }
}

/// The registry system named `name`.
fn registry_system(name: &str) -> Result<Box<dyn DynamicalSystem>, ServeError> {
    system_by_name(name).ok_or_else(|| {
        ServeError::new(
            ErrorCode::UnknownSystem,
            format!("no system named {name:?} in the benchmark registry"),
        )
    })
}

/// Builds a session's runner, the one build `submit` and `resume` share.
fn build_runner(
    sys: &dyn DynamicalSystem,
    rows: u32,
    cols: u32,
) -> Result<Box<FixedRunner>, ServeError> {
    let internal = |m: String| ServeError::new(ErrorCode::Internal, m);
    let name = sys.name();
    let setup = sys
        .build(rows as usize, cols as usize)
        .map_err(|e| internal(format!("building {name}: {e}")))?;
    let mut runner =
        FixedRunner::new(setup).map_err(|e| internal(format!("starting {name}: {e}")))?;
    // One sim thread per session: the worker pool is the concurrency
    // layer, and a single-threaded sweep keeps the per-session cost
    // model flat no matter how tenants are packed.
    runner.set_threads(1);
    Ok(Box::new(runner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spool(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cenn-serve-mgr-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn with_workers(cfg: ManagerConfig, n: usize, body: impl FnOnce(&SessionManager)) {
        let mgr = Arc::new(SessionManager::new(cfg).unwrap());
        let workers: Vec<_> = (0..n)
            .map(|_| {
                let m = mgr.clone();
                std::thread::spawn(move || m.worker_loop())
            })
            .collect();
        body(&mgr);
        mgr.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn lifecycle_and_worker_count_invariance() {
        let mut digests = Vec::new();
        for workers in [1usize, 3] {
            let cfg = ManagerConfig::new(spool(&format!("lc{workers}")));
            with_workers(cfg, workers, |mgr| {
                let a = mgr.submit("fisher", 8, 8, 0).unwrap();
                let b = mgr.submit("heat", 8, 8, 0).unwrap();
                let (steps, _) = mgr.step(a, 70, 0).unwrap();
                assert_eq!(steps, 70);
                mgr.step(b, 35, 0).unwrap();
                let (_, _, bits) = mgr.stream_state(a, 0).unwrap();
                assert_eq!(bits.len(), 64);
                digests.push((mgr.digest(a, 0).unwrap(), mgr.digest(b, 0).unwrap()));
                mgr.close(a, 0).unwrap();
                mgr.close(b, 0).unwrap();
                assert!(mgr.session_ids().is_empty());
            });
        }
        assert_eq!(digests[0], digests[1], "digests invariant to worker count");
    }

    #[test]
    fn suspend_resume_is_bit_exact() {
        let cfg = ManagerConfig::new(spool("sr"));
        with_workers(cfg, 2, |mgr| {
            // Uninterrupted control run.
            let control = mgr.submit("gray-scott", 8, 8, 0).unwrap();
            mgr.step(control, 60, 0).unwrap();
            let (_, want) = mgr.digest(control, 0).unwrap();

            // Suspended run: same total steps, spooled to disk halfway.
            let s = mgr.submit("gray-scott", 8, 8, 0).unwrap();
            mgr.step(s, 30, 0).unwrap();
            let at = mgr.suspend(s, 0).unwrap();
            assert_eq!(at, 30);
            assert!(matches!(
                mgr.step(s, 1, 0).unwrap_err().code,
                ErrorCode::SessionSuspended
            ));
            assert_eq!(mgr.resume(s, 0).unwrap(), 30);
            mgr.step(s, 30, 0).unwrap();
            let (steps, got) = mgr.digest(s, 0).unwrap();
            assert_eq!(steps, 60);
            assert_eq!(got, want, "suspend/resume must not perturb one bit");
        });
    }

    #[test]
    fn errors_are_typed() {
        let cfg = ManagerConfig::new(spool("err"));
        with_workers(cfg, 1, |mgr| {
            assert_eq!(
                mgr.submit("not-a-system", 4, 4, 0).unwrap_err().code,
                ErrorCode::UnknownSystem
            );
            assert_eq!(
                mgr.submit("heat", 0, 4, 0).unwrap_err().code,
                ErrorCode::BadRequest
            );
            assert_eq!(
                mgr.step(99, 1, 0).unwrap_err().code,
                ErrorCode::NoSuchSession
            );
            let id = mgr.submit("heat", 4, 4, 0).unwrap();
            assert_eq!(
                mgr.stream_state(id, 7).unwrap_err().code,
                ErrorCode::BadRequest
            );
            assert_eq!(mgr.resume(id, 0).unwrap_err().code, ErrorCode::SessionBusy);
            mgr.close(id, 0).unwrap();
        });
    }

    #[test]
    fn failed_requests_run_again_and_successes_replay() {
        let mgr = SessionManager::new(ManagerConfig::new(spool("dedup"))).unwrap();
        let failed = Response::Error {
            code: ErrorCode::Overloaded,
            message: "busy".into(),
        };
        assert_eq!(mgr.dedup_begin(9), None);
        mgr.dedup_finish(9, &failed);
        assert_eq!(mgr.dedup_begin(9), None, "a failure leaves no mark");
        mgr.dedup_finish(9, &Response::Closed { session: 3 });
        assert_eq!(mgr.dedup_begin(9), Some(Response::Closed { session: 3 }));
        assert_eq!(mgr.dedup_begin(0), None, "id 0 never dedups");
        assert_eq!(mgr.dedup_begin(0), None);
    }
}
