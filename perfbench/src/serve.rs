//! The `serve-tcp` workload: `Server::serve_tcp` on 127.0.0.1, driven by
//! a closed loop of client connections, each with one request
//! outstanding and each owning a few sessions.
//!
//! Requests go round-robin over a connection's sessions: mostly
//! `Step(n)`, every `state_every`-th a `StreamState(layer 0)`, one
//! `Suspend` and `Resume` per session once half the run time has passed,
//! then `Digest` and `Close` at the end. The loop runs for the run time
//! and until at least `min_requests` requests have completed, so the
//! reported tail percentile is p99 with at least ten samples beyond it.
//!
//! Every `Digest` and every `StreamState` payload is checked against a
//! single-threaded `FixedRunner` replay of the session's plan, computed
//! after the timed loop.

use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cenn_equations::{system_by_name, FixedRunner};
use cenn_lut::LutStats;
use cenn_obs::TraceHandle;
use cenn_serve::digest::{fnv1a64, fnv1a64_init};
use cenn_serve::{
    read_frame, state_digest, write_frame, Request, Response, Server, ServerConfig, ServerHandle,
};

use crate::grid::{phase_totals, put_sweep_layers, SweepSample};
use crate::report::{peak_rss_mib, Report};
use crate::stats::{mean, median, tail};
use crate::RunOpts;

/// The serve workload's shape.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Square grid side of every session.
    pub side: u32,
    /// Sessions each connection owns.
    pub sessions_per_conn: usize,
    /// The loop runs until at least this many requests completed.
    pub min_requests: u64,
    /// Set-ups measured per run (the last one serves the measured loop).
    pub setups: usize,
    /// Hard limit on the measured loop, whatever `min_requests` says.
    pub max_loop: Duration,
}

/// Client connections (one thread each) and server workers: the load
/// comes from one process sized for two CPUs.
const CONNS: usize = 2;
const WORKERS: usize = 2;
/// Steps per `Step` request.
const STEP_N: u64 = 8;
/// Every this-many-th request on a connection is a `StreamState`.
const STATE_EVERY: u64 = 16;

/// 2 connections × 4 sessions on 32² grids.
pub const SERVE_TCP: ServeSpec = ServeSpec {
    side: 32,
    sessions_per_conn: 4,
    min_requests: 1000,
    setups: 3,
    max_loop: Duration::from_secs(100),
};

/// The fleet menu (`cenn_serve::fleet`), plus a second `fisher` so that
/// eight sessions run the same mix of systems under every seed; the seed
/// decides which session and connection runs which.
const MENU: [&str; 8] = [
    "heat",
    "fisher",
    "reaction-diffusion",
    "gray-scott",
    "wave",
    "burgers",
    "izhikevich",
    "fisher",
];

/// Read deadline on client sockets, so a wedged server fails the run
/// instead of hanging it.
const READ_DEADLINE: Duration = Duration::from_secs(30);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each session's system, drawn from [`MENU`] by the workload seed.
pub fn plan(seed: u64, sessions: usize) -> Vec<&'static str> {
    let mut pool: Vec<&'static str> = MENU.iter().copied().cycle().take(sessions).collect();
    let mut state = seed;
    for i in (1..pool.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    pool
}

/// Request kinds, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Submit,
    Step,
    State,
    Suspend,
    Resume,
    Digest,
    Close,
}

impl Kind {
    const ALL: [Kind; 7] = [
        Kind::Submit,
        Kind::Step,
        Kind::State,
        Kind::Suspend,
        Kind::Resume,
        Kind::Digest,
        Kind::Close,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::Submit => "submit",
            Kind::Step => "step",
            Kind::State => "state",
            Kind::Suspend => "suspend",
            Kind::Resume => "resume",
            Kind::Digest => "digest",
            Kind::Close => "close",
        }
    }
}

/// One completed request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub kind: Kind,
    /// Client-observed latency: encode, write, wait for and read the
    /// response, decode.
    pub latency_ns: u64,
    /// Traced requests only: `(encode + decode, frame write)` nanos.
    pub split: Option<(u64, u64)>,
    /// Response frame size, length prefix included.
    pub resp_bytes: usize,
}

/// A client connection speaking the frame protocol through the public
/// codec functions, so a traced request can time each of them.
struct Conn {
    stream: TcpStream,
    id_base: u64,
    sent: u64,
}

impl Conn {
    fn connect(addr: SocketAddr, index: usize) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_DEADLINE)))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Self {
            stream,
            // Request ids are unique across connections: the server's
            // idempotency cache replays any id it has seen.
            id_base: (index as u64 + 1) << 40,
            sent: 0,
        })
    }

    fn call(
        &mut self,
        kind: Kind,
        req: &Request,
        traced: bool,
    ) -> Result<(Response, Call), String> {
        self.sent += 1;
        let id = self.id_base + self.sent;
        let t0 = Instant::now();
        let bytes = req.encode_with_id(id);
        let t1 = traced.then(Instant::now);
        write_frame(&mut self.stream, &bytes).map_err(|e| format!("write: {e}"))?;
        let t2 = traced.then(Instant::now);
        let payload = read_frame(&mut self.stream)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("server closed the connection")?;
        let t3 = traced.then(Instant::now);
        let (echo, resp) =
            Response::decode_with_id(&payload).map_err(|e| format!("decode: {e}"))?;
        let t4 = Instant::now();
        if echo != id {
            return Err(format!("response echoes id {echo}, sent {id}"));
        }
        let split = match (t1, t2, t3) {
            (Some(t1), Some(t2), Some(t3)) => Some((
                ((t1 - t0) + (t4 - t3)).as_nanos() as u64,
                (t2 - t1).as_nanos() as u64,
            )),
            _ => None,
        };
        let call = Call {
            kind,
            latency_ns: (t4 - t0).as_nanos() as u64,
            split,
            resp_bytes: payload.len() + 4,
        };
        Ok((resp, call))
    }
}

/// What the client learned about one session, for the replay check.
#[derive(Debug, Clone, Default)]
struct SessionLog {
    system: &'static str,
    /// `(steps at the time, hash of layer-0 bits)` per `StreamState`.
    states: Vec<(u64, u64)>,
    /// `(steps, digest)` from the final `Digest`.
    end: Option<(u64, u64)>,
}

/// One client session's live state.
struct Sess {
    id: u64,
    steps: u64,
    suspended: bool,
    detoured: bool,
    log: SessionLog,
}

/// A connection's outcome.
#[derive(Default)]
struct ConnOutcome {
    /// Requests sent, including any that got no response.
    attempted: u64,
    calls: Vec<Call>,
    logs: Vec<SessionLog>,
    failed: u64,
    errors: Vec<String>,
    cell_steps: u64,
}

/// A started service with its client connections and sessions.
struct Service {
    handle: ServerHandle,
    conns: Vec<(Conn, Vec<Sess>)>,
    submits: Vec<Call>,
}

fn hash_bits(bits: &[i32]) -> u64 {
    bits.iter()
        .fold(fnv1a64_init(), |h, w| fnv1a64(h, &w.to_le_bytes()))
}

impl Service {
    /// Server start, then each connection (in parallel) connects and
    /// submits its sessions: the serve workload's set-up.
    fn start(spec: &ServeSpec, spool: &Path, systems: &[&'static str]) -> Result<Self, String> {
        let server = Server::start(ServerConfig::new(WORKERS, spool))
            .map_err(|e| format!("server start: {e}"))?;
        let handle = server
            .serve_tcp("127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        let addr = handle.local_addr();
        type Submitted = (Conn, Vec<Sess>, Vec<Call>);
        let joined: Vec<Result<Submitted, String>> = std::thread::scope(|s| {
            let threads: Vec<_> = systems
                .chunks(spec.sessions_per_conn)
                .enumerate()
                .map(|(index, chunk)| {
                    s.spawn(move || {
                        let mut conn = Conn::connect(addr, index)?;
                        let mut sessions = Vec::new();
                        let mut calls = Vec::new();
                        for &system in chunk {
                            let req = Request::SubmitSystem {
                                system: system.into(),
                                rows: spec.side,
                                cols: spec.side,
                            };
                            let (resp, call) = conn.call(Kind::Submit, &req, false)?;
                            calls.push(call);
                            let Response::Submitted { session } = resp else {
                                return Err(format!("submit {system}: {resp:?}"));
                            };
                            sessions.push(Sess {
                                id: session,
                                steps: 0,
                                suspended: false,
                                detoured: false,
                                log: SessionLog {
                                    system,
                                    ..SessionLog::default()
                                },
                            });
                        }
                        Ok((conn, sessions, calls))
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("set-up thread panicked"))
                .collect()
        });
        let mut svc = Self {
            handle,
            conns: Vec::new(),
            submits: Vec::new(),
        };
        for r in joined {
            match r {
                Ok((conn, sessions, calls)) => {
                    svc.conns.push((conn, sessions));
                    svc.submits.extend(calls);
                }
                Err(e) => {
                    svc.stop();
                    return Err(e);
                }
            }
        }
        Ok(svc)
    }

    /// Closes the client sockets and stops the server.
    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
    }
}

/// Shared loop control for the connection threads.
struct Clock {
    start: Instant,
    half: Duration,
    duration: Duration,
    max_loop: Duration,
    min_requests: u64,
    sent: AtomicU64,
}

/// One connection's closed loop, then `Digest` and `Close` per session.
fn drive(
    conn: &mut Conn,
    mut sessions: Vec<Sess>,
    spec: &ServeSpec,
    clock: &Clock,
    trace: bool,
    state_offset: u64,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let cells = u64::from(spec.side) * u64::from(spec.side);
    let mut i: u64 = 0;
    let mut broken = false;
    loop {
        let elapsed = clock.start.elapsed();
        let done = elapsed >= clock.duration
            && clock.sent.load(Ordering::Relaxed) >= clock.min_requests
            && sessions.iter().all(|s| s.detoured);
        if !sessions.iter().any(|s| s.suspended) && (done || elapsed >= clock.max_loop) {
            break;
        }
        let n = sessions.len();
        let s = &mut sessions[(i % n as u64) as usize];
        let session = s.id;
        let (kind, req) = if s.suspended {
            (Kind::Resume, Request::Resume { session })
        } else if elapsed >= clock.half && !s.detoured {
            (Kind::Suspend, Request::Suspend { session })
        } else if i % STATE_EVERY == state_offset {
            (Kind::State, Request::StreamState { session, layer: 0 })
        } else {
            (Kind::Step, Request::Step { session, n: STEP_N })
        };
        let traced = trace && i.is_multiple_of(2);
        i += 1;
        clock.sent.fetch_add(1, Ordering::Relaxed);
        out.attempted += 1;
        let (resp, call) = match conn.call(kind, &req, traced) {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                broken = true;
                break;
            }
        };
        out.calls.push(call);
        let ok = match (kind, resp) {
            (Kind::Step, Response::Stepped { steps, .. }) if steps == s.steps + STEP_N => {
                s.steps = steps;
                out.cell_steps += STEP_N * cells;
                true
            }
            (
                Kind::State,
                Response::State {
                    rows, cols, bits, ..
                },
            ) => {
                s.log.states.push((s.steps, hash_bits(&bits)));
                rows == spec.side && cols == spec.side
            }
            (Kind::Suspend, resp) => {
                s.detoured = true;
                s.suspended = matches!(resp, Response::Suspended { steps, .. } if steps == s.steps);
                s.suspended
            }
            (Kind::Resume, resp) => {
                s.suspended = false;
                matches!(resp, Response::Resumed { steps, .. } if steps == s.steps)
            }
            (_, resp) => {
                out.errors.push(format!("{}: {resp:?}", kind.name()));
                false
            }
        };
        out.failed += u64::from(!ok);
    }
    for s in &mut sessions {
        if broken {
            break;
        }
        for (kind, req) in [
            (Kind::Digest, Request::Digest { session: s.id }),
            (Kind::Close, Request::Close { session: s.id }),
        ] {
            out.attempted += 1;
            match conn.call(kind, &req, false) {
                Ok((resp, call)) => {
                    out.calls.push(call);
                    let ok = match resp {
                        Response::Digest { steps, digest, .. } => {
                            s.log.end = Some((steps, digest));
                            true
                        }
                        Response::Closed { .. } => true,
                        other => {
                            out.errors.push(format!("{}: {other:?}", kind.name()));
                            false
                        }
                    };
                    out.failed += u64::from(!ok);
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e);
                    broken = true;
                    break;
                }
            }
        }
    }
    out.logs = sessions.into_iter().map(|s| s.log).collect();
    out
}

/// Steps of each session's replay that a traced run attributes to the
/// sweep layers: a fixed window, so the exact counts repeat whatever the
/// run served.
const TRACED_STEPS: u64 = 256;

/// Replays a session on a single-threaded `FixedRunner`, checking each
/// `StreamState` hash and the final digest. Returns the mismatches and,
/// for a traced replay, the sweep layers' cost over [`TRACED_STEPS`]
/// steps after one warm-up step.
fn replay(log: &SessionLog, side: u32, traced: bool) -> Result<(u64, SweepSample), String> {
    let system = system_by_name(log.system).ok_or_else(|| format!("no system {}", log.system))?;
    let side = side as usize;
    let mut sample = SweepSample::default();
    let t = Instant::now();
    let setup = system
        .build(side, side)
        .map_err(|e| format!("build: {e}"))?;
    sample.build_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let mut runner = FixedRunner::new(setup).map_err(|e| format!("runner: {e}"))?;
    runner.set_threads(1);
    sample.runner_new_ns = t.elapsed().as_nanos() as f64;

    let last = log
        .states
        .iter()
        .map(|&(steps, _)| steps)
        .chain(log.end.map(|(steps, _)| steps))
        .max()
        .unwrap_or(0);
    let mut states = log.states.iter().peekable();
    let mut mismatches = u64::from(log.end.is_none());
    let mut tracer = None;
    let (mut lut0, mut lut1) = (LutStats::default(), LutStats::default());
    loop {
        let now = runner.steps();
        while let Some((_, hash)) = states.next_if(|&&(steps, _)| steps == now) {
            let snap = runner.sim().snapshot();
            mismatches += u64::from(snap.states.first().map(|b| hash_bits(b)) != Some(*hash));
        }
        if now >= last {
            break;
        }
        if traced && now == 1 {
            lut0 = runner.lut_stats();
            let tr = TraceHandle::histograms_only();
            runner.set_tracer(tr.clone());
            tracer = Some(tr);
        }
        let t = Instant::now();
        runner.step();
        let dt = t.elapsed().as_nanos() as f64;
        if let Some(tr) = tracer.as_ref().filter(|_| sample.steps < TRACED_STEPS) {
            sample.wall_ns += dt;
            sample.steps += 1;
            if sample.steps == TRACED_STEPS || runner.steps() == last {
                sample.phases = phase_totals(tr);
                lut1 = runner.lut_stats();
            }
        }
    }
    if let Some((_, digest)) = log.end {
        mismatches += u64::from(state_digest(runner.sim()) != digest);
    }
    if tracer.is_some() {
        sample.cell_steps = (side * side) as f64 * sample.steps as f64;
        sample.finish(&runner.setup().model, lut1, lut0);
    }
    Ok((mismatches, sample))
}

/// Replays every session on two threads; returns the total mismatches
/// and one sample per session.
fn replay_all(
    logs: &[SessionLog],
    side: u32,
    traced: bool,
) -> Result<(u64, Vec<SweepSample>), String> {
    let halves: Vec<Result<Vec<(u64, SweepSample)>, String>> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    logs.iter()
                        .skip(t)
                        .step_by(2)
                        .map(|log| replay(log, side, traced))
                        .collect()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("replay thread panicked"))
            .collect()
    });
    let mut mismatches = 0;
    let mut samples = Vec::new();
    for half in halves {
        for (m, sample) in half? {
            mismatches += m;
            samples.push(sample);
        }
    }
    Ok((mismatches, samples))
}

/// One row of the latency split: client latency = codec + frame write +
/// server quantum + wait, as means over traced requests.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitRow {
    pub name: &'static str,
    /// Requests of this kind (traced or not).
    pub count: usize,
    /// Traced requests the means are taken over.
    pub traced: usize,
    /// Median latency over all requests of the kind, in ns.
    pub p50_ns: f64,
    pub latency_ns: f64,
    pub codec_ns: f64,
    pub write_ns: f64,
    pub quantum_ns: f64,
    pub wait_ns: f64,
}

/// Splits client latency per request kind and over all requests.
/// `quantum_per_step_ns` is the server's quantum time per `Step`
/// request; other kinds run no quantum, so their server time is wait.
pub fn split(calls: &[Call], quantum_per_step_ns: f64) -> (Vec<SplitRow>, SplitRow) {
    let row = |name: &'static str, of: &dyn Fn(&Call) -> bool| {
        let all: Vec<&Call> = calls.iter().filter(|c| of(c)).collect();
        // Sums of [latency, codec, write, quantum] over traced requests.
        let mut sums = [0.0; 4];
        let mut traced = 0;
        for c in &all {
            if let Some((codec, write)) = c.split {
                let quantum = if c.kind == Kind::Step {
                    quantum_per_step_ns
                } else {
                    0.0
                };
                let parts = [c.latency_ns as f64, codec as f64, write as f64, quantum];
                for (sum, part) in sums.iter_mut().zip(parts) {
                    *sum += part;
                }
                traced += 1;
            }
        }
        let [latency_ns, codec_ns, write_ns, quantum_ns] = sums.map(|x| x / traced.max(1) as f64);
        SplitRow {
            name,
            count: all.len(),
            traced,
            p50_ns: median(&all.iter().map(|c| c.latency_ns as f64).collect::<Vec<_>>()),
            latency_ns,
            codec_ns,
            write_ns,
            quantum_ns,
            wait_ns: latency_ns - codec_ns - write_ns - quantum_ns,
        }
    };
    let rows = Kind::ALL
        .iter()
        .map(|&k| row(k.name(), &|c| c.kind == k))
        .filter(|r| r.count > 0)
        .collect();
    (rows, row("all", &|_| true))
}

/// Runs the serve workload and checks every response.
///
/// # Errors
///
/// Server start, bind, connect or replay failures.
pub fn run(spec: &ServeSpec, opts: &RunOpts) -> Result<Report, String> {
    let systems = plan(opts.seed, CONNS * spec.sessions_per_conn);
    let mut attempted = 0u64;
    let mut setup_ns = Vec::new();
    let mut submits = Vec::new();
    let mut live = None;
    for i in 0..spec.setups.max(1) {
        let spool = opts.work_dir.join(format!("spool-{i}"));
        let t = Instant::now();
        let mut svc = Service::start(spec, &spool, &systems)?;
        setup_ns.push(t.elapsed().as_nanos() as f64);
        attempted += svc.submits.len() as u64;
        submits.append(&mut svc.submits);
        if i + 1 < spec.setups {
            for (conn, sessions) in &mut svc.conns {
                for s in sessions.iter() {
                    attempted += 1;
                    conn.call(Kind::Close, &Request::Close { session: s.id }, false)?;
                }
            }
            svc.stop();
            let _ = std::fs::remove_dir_all(&spool);
        } else {
            live = Some(svc);
        }
    }
    let mut svc = live.expect("at least one set-up");

    let before = svc.handle.server().stats_snapshot().metrics;
    let clock = Clock {
        start: Instant::now(),
        half: opts.duration / 2,
        duration: opts.duration,
        max_loop: spec.max_loop.max(opts.duration),
        min_requests: spec.min_requests,
        sent: AtomicU64::new(0),
    };
    let mut offsets = opts.seed ^ 0x5EED;
    let conns = std::mem::take(&mut svc.conns);
    let (outcomes, conns): (Vec<ConnOutcome>, Vec<Conn>) = std::thread::scope(|s| {
        let threads: Vec<_> = conns
            .into_iter()
            .map(|(mut conn, sessions)| {
                let offset = splitmix64(&mut offsets) % STATE_EVERY;
                let clock = &clock;
                s.spawn(move || {
                    let out = drive(&mut conn, sessions, spec, clock, opts.trace, offset);
                    (out, conn)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("connection thread panicked"))
            .unzip()
    });
    let wall_ns = clock.start.elapsed().as_nanos() as f64;
    let after = svc.handle.server().stats_snapshot().metrics;
    drop(conns);
    svc.stop();
    let peak_rss = peak_rss_mib()?;

    let calls: Vec<Call> = outcomes
        .iter()
        .flat_map(|o| o.calls.iter().copied())
        .collect();
    let logs: Vec<SessionLog> = outcomes
        .iter()
        .flat_map(|o| o.logs.iter().cloned())
        .collect();
    let cell_steps: u64 = outcomes.iter().map(|o| o.cell_steps).sum();
    let (mismatches, replays) = replay_all(&logs, spec.side, opts.trace)?;

    let mut report = Report::new(
        "serve-tcp",
        format!(
            "Server::serve_tcp on 127.0.0.1, {} workers, {} closed-loop connections x {} sessions \
             on {}x{} grids, Step({}), StreamState every {}th request",
            WORKERS, CONNS, spec.sessions_per_conn, spec.side, spec.side, STEP_N, STATE_EVERY
        ),
    );
    report.attempted = attempted + outcomes.iter().map(|o| o.attempted).sum::<u64>();
    report.failed = outcomes.iter().map(|o| o.failed).sum::<u64>() + mismatches;
    for e in outcomes.iter().flat_map(|o| o.errors.iter()).take(5) {
        report.note(format!("error: {e}"));
    }

    let latency_ms: Vec<f64> = calls.iter().map(|c| c.latency_ns as f64 / 1e6).collect();
    let req_tail = tail(&latency_ms);
    report.put("ns_per_cell_step", wall_ns / cell_steps.max(1) as f64, "ns");
    report.put("setup_s", median(&setup_ns) / 1e9, "s");
    report.put("req_p50_ms", median(&latency_ms), "ms");
    report.put("req_tail_ms", req_tail.value, "ms");
    report.put("peak_rss_mib", peak_rss, "MiB");
    report.put("requests", calls.len() as f64, "count");
    report.put(
        "session_steps_per_s",
        cell_steps as f64 / f64::from(spec.side * spec.side) / (wall_ns / 1e9),
        "1/s",
    );
    report.note(format!(
        "sessions: {}",
        logs.iter().map(|l| l.system).collect::<Vec<_>>().join(", ")
    ));
    report.note(format!(
        "req_* time one client request over all kinds: req_tail_ms is {}",
        req_tail.label()
    ));
    report.note(format!(
        "correctness: {} digests and {} StreamState payloads checked against a FixedRunner replay, {mismatches} mismatched",
        logs.iter().filter(|l| l.end.is_some()).count(),
        logs.iter().map(|l| l.states.len()).sum::<usize>()
    ));

    if opts.trace {
        let server = ServerDelta { before, after };
        per_layer_serve(&mut report, &calls, &submits, wall_ns, &server);
        put_sweep_layers(&mut report, &replays);
        report.note(
            "equations.*, sweep.*, lut.* and arch.* come from the traced single-threaded replay \
             of the served sessions (step-weighted over their systems); the cycle model is \
             unvalidated against silicon; LUT counts and timing start after one warm-up step",
        );
        report.zero_unmeasured_counts();
    }
    Ok(report)
}

/// Server-side counters over the measured loop.
struct ServerDelta {
    before: cenn_obs::MetricsSnapshot,
    after: cenn_obs::MetricsSnapshot,
}

impl ServerDelta {
    fn counter(&self, name: &str) -> f64 {
        let at = |s: &cenn_obs::MetricsSnapshot| s.counter(name).unwrap_or(0);
        (at(&self.after) - at(&self.before)) as f64
    }

    fn hist_sum_nanos(&self, name: &str) -> f64 {
        let at = |s: &cenn_obs::MetricsSnapshot| s.hist(name).map_or(0, |h| h.sum_nanos);
        (at(&self.after) - at(&self.before)) as f64
    }
}

fn per_layer_serve(
    report: &mut Report,
    calls: &[Call],
    submits: &[Call],
    wall_ns: f64,
    server: &ServerDelta,
) {
    let quantum_ns = server.hist_sum_nanos("serve.quantum_nanos");
    let step_reqs = calls.iter().filter(|c| c.kind == Kind::Step).count().max(1) as f64;
    let (rows, all) = split(calls, quantum_ns / step_reqs);
    report.put("proto.codec_us_per_req", all.codec_ns / 1e3, "us");
    report.put("frame.write_us_per_req", all.write_ns / 1e3, "us");
    report.put(
        "serve.quantum_ms_per_req",
        quantum_ns / step_reqs / 1e6,
        "ms",
    );
    report.put("serve.wait_ms_per_req", all.wait_ns / 1e6, "ms");
    report.put(
        "serve.codec_frac",
        all.codec_ns / all.latency_ns,
        "fraction",
    );
    report.put(
        "serve.write_frac",
        all.write_ns / all.latency_ns,
        "fraction",
    );
    report.put(
        "serve.quantum_frac",
        all.quantum_ns / all.latency_ns,
        "fraction",
    );
    report.put("serve.wait_frac", all.wait_ns / all.latency_ns, "fraction");
    report.put(
        "serve.worker_busy_frac",
        quantum_ns / (WORKERS as f64 * wall_ns),
        "fraction",
    );
    let kind_ms = |k: Kind| {
        median(
            &calls
                .iter()
                .filter(|c| c.kind == k)
                .map(|c| c.latency_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    report.put("serve.step_p50_ms", kind_ms(Kind::Step), "ms");
    report.put("serve.state_p50_ms", kind_ms(Kind::State), "ms");
    report.put("serve.suspend_ms", kind_ms(Kind::Suspend), "ms");
    report.put("serve.resume_ms", kind_ms(Kind::Resume), "ms");
    let submit_ms: Vec<f64> = submits.iter().map(|c| c.latency_ns as f64 / 1e6).collect();
    report.put("serve.submit_ms", median(&submit_ms), "ms");
    let quanta = server.counter("serve.quanta_total");
    let frames_in = server.counter("serve.frames_in_total");
    report.put("serve.quanta_total", quanta, "count");
    report.put("serve.frames_in_total", frames_in, "count");
    report.put("serve.quanta_per_step_req", quanta / step_reqs, "count");
    report.put(
        "serve.frames_in_per_req",
        frames_in / calls.len().max(1) as f64,
        "count",
    );
    let state_bytes: Vec<f64> = calls
        .iter()
        .filter(|c| c.kind == Kind::State)
        .map(|c| c.resp_bytes as f64)
        .collect();
    report.put("serve.state_bytes_per_req", mean(&state_bytes), "bytes");
    report.put(
        "serve.manifest_ops_total",
        server.counter("serve.manifest_ops_total"),
        "count",
    );
    // Traced and untraced requests alternate; compare their Step latency.
    let step_ns = |traced: bool| {
        let xs: Vec<f64> = calls
            .iter()
            .filter(|c| c.kind == Kind::Step && c.split.is_some() == traced)
            .map(|c| c.latency_ns as f64)
            .collect();
        median(&xs)
    };
    report.put(
        "trace.overhead_frac",
        step_ns(true) / step_ns(false) - 1.0,
        "fraction",
    );

    report.note("client latency split (means over traced requests, ms):");
    report.note(format!(
        "{:<8} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "kind", "count", "traced", "p50", "latency", "codec", "write", "quantum", "wait"
    ));
    for r in rows.iter().chain([&all]) {
        report.note(format!(
            "{:<8} {:>7} {:>7} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10.4} {:>9.4}",
            r.name,
            r.count,
            r.traced,
            r.p50_ns / 1e6,
            r.latency_ns / 1e6,
            r.codec_ns / 1e6,
            r.write_ns / 1e6,
            r.quantum_ns / 1e6,
            r.wait_ns / 1e6
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::opts;

    fn tiny() -> ServeSpec {
        ServeSpec {
            side: 8,
            sessions_per_conn: 2,
            min_requests: 40,
            setups: 2,
            max_loop: Duration::from_secs(60),
        }
    }

    fn call(kind: Kind, latency_ns: u64, split: Option<(u64, u64)>) -> Call {
        Call {
            kind,
            latency_ns,
            split,
            resp_bytes: 16,
        }
    }

    #[test]
    fn plan_uses_the_same_mix_under_every_seed() {
        let mut a = plan(1, 8);
        let b = plan(2, 8);
        assert_ne!(a, b, "seeds assign systems differently");
        assert_eq!(plan(1, 8), a, "a seed always gives the same plan");
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn split_rows_sum_to_client_latency_and_counts_to_the_total() {
        let calls = [
            call(Kind::Step, 1000, Some((10, 20))),
            call(Kind::Step, 3000, None),
            call(Kind::Step, 2000, Some((30, 40))),
            call(Kind::State, 5000, Some((100, 50))),
            call(Kind::Digest, 700, None),
        ];
        let (rows, all) = split(&calls, 600.0);
        assert_eq!(rows.iter().map(|r| r.count).sum::<usize>(), calls.len());
        assert_eq!(all.count, calls.len());
        assert_eq!(all.traced, 3);
        for r in rows.iter().chain([&all]) {
            let parts = r.codec_ns + r.write_ns + r.quantum_ns + r.wait_ns;
            assert!((parts - r.latency_ns).abs() < 1e-6, "{r:?}");
        }
        let step = rows.iter().find(|r| r.name == "step").unwrap();
        assert_eq!(
            (step.latency_ns, step.quantum_ns, step.p50_ns),
            (1500.0, 600.0, 2000.0)
        );
        assert_eq!(all.quantum_ns, 400.0);
    }

    #[test]
    fn tiny_serve_run_is_correct_untraced_and_traced() {
        for trace in [false, true] {
            let mut o = opts(&format!("serve-{trace}"), trace);
            o.duration = Duration::from_millis(200);
            std::fs::create_dir_all(&o.work_dir).unwrap();
            let r = run(&tiny(), &o).unwrap();
            let _ = std::fs::remove_dir_all(&o.work_dir);
            assert_eq!(r.error_rate(), 0.0, "{}", r.text(&o));
            assert!(r.get("requests").unwrap() >= 40.0);
            r.json_line(trace).unwrap();
            if trace {
                let parts: f64 = ["codec", "write", "quantum", "wait"]
                    .iter()
                    .map(|p| r.get(&format!("serve.{p}_frac")).unwrap())
                    .sum();
                assert!((parts - 1.0).abs() < 1e-9);
                assert_eq!(r.get("serve.quanta_per_step_req"), Some(1.0));
                assert_eq!(r.get("serve.frames_in_per_req"), Some(1.0));
                // Length prefix, 34 header bytes, 4 bytes per cell of 8x8.
                assert_eq!(r.get("serve.state_bytes_per_req"), Some(4.0 + 34.0 + 256.0));
            }
        }
    }
}
