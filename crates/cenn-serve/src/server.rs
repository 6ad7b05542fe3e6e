//! The connection-facing service: frame loop, request dispatch, and the
//! blocking TCP accept loop.
//!
//! The server is transport-agnostic at its core — [`Server::handle_conn`]
//! speaks the frame protocol over any `Read + Write` stream, which is
//! how the integration tests drive a full server over an in-memory
//! [`crate::loopback`] pipe with zero networking. [`Server::serve_tcp`]
//! wraps the same handler in a `TcpListener` accept loop with one thread
//! per connection; a `Shutdown` request (or [`ServerHandle::shutdown`])
//! sets the stop flag and self-connects to unblock the blocking
//! `accept`, the portable way to interrupt it without async machinery.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cenn_obs::STATS_VERSION;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::manager::{ManagerConfig, RecoveryReport, ServeError, SessionManager};
use crate::proto::{ErrorCode, Request, Response, StatsSnapshot};

/// Service configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads stepping sessions.
    pub workers: usize,
    /// Session-manager knobs (quantum, spool, log streams, shed limits).
    pub manager: ManagerConfig,
    /// When set, a connection that sends no frame for this long is
    /// closed; any sessions it submitted are suspended to the spool
    /// first, so a silent client costs a slot, not its progress.
    pub idle_timeout: Option<Duration>,
}

impl ServerConfig {
    /// A config with `workers` threads and the given spool directory.
    pub fn new(workers: usize, spool: impl Into<std::path::PathBuf>) -> Self {
        Self {
            workers: workers.max(1),
            manager: ManagerConfig::new(spool),
            idle_timeout: None,
        }
    }

    /// Sets the load-shedding limits (`max_sessions` live sessions,
    /// `max_pending` total queued steps) past which requests answer
    /// `overloaded`.
    #[must_use]
    pub fn with_limits(mut self, max_sessions: usize, max_pending: u64) -> Self {
        self.manager.max_sessions = max_sessions;
        self.manager.max_pending = max_pending;
        self
    }

    /// Sets the idle read deadline for connections.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }
}

/// A running service: a [`SessionManager`] plus its worker pool.
pub struct Server {
    manager: Arc<SessionManager>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    idle_timeout: Option<Duration>,
}

impl Server {
    fn launch(
        manager: Arc<SessionManager>,
        cfg_workers: usize,
        idle: Option<Duration>,
    ) -> Arc<Self> {
        let workers = (0..cfg_workers.max(1))
            .map(|_| {
                let m = manager.clone();
                std::thread::spawn(move || m.worker_loop())
            })
            .collect();
        Arc::new(Self {
            manager,
            workers: Mutex::new(workers),
            idle_timeout: idle,
        })
    }

    /// Starts the worker pool over a fresh manager.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`] from manager construction (spool dir).
    pub fn start(cfg: ServerConfig) -> Result<Arc<Self>, ServeError> {
        let manager = Arc::new(SessionManager::new(cfg.manager)?);
        Ok(Self::launch(manager, cfg.workers, cfg.idle_timeout))
    }

    /// Starts the worker pool over a manager rebuilt from the spool
    /// manifest — the restart-after-crash entry point. Digest-valid
    /// checkpoints come back as suspended sessions under their original
    /// ids; damaged ones are quarantined (see
    /// [`SessionManager::recover`]).
    ///
    /// # Errors
    ///
    /// Propagates [`ServeError`] from recovery.
    pub fn recover(cfg: ServerConfig) -> Result<(Arc<Self>, RecoveryReport), ServeError> {
        let (manager, report) = SessionManager::recover(cfg.manager)?;
        Ok((
            Self::launch(Arc::new(manager), cfg.workers, cfg.idle_timeout),
            report,
        ))
    }

    /// The session manager (for in-process use and tests).
    pub fn manager(&self) -> &SessionManager {
        &self.manager
    }

    /// Signals shutdown and joins the worker pool (draining queued
    /// steps). Idempotent.
    pub fn shutdown(&self) {
        self.manager.shutdown();
        self.join_workers();
    }

    /// Chaos-harness hard kill: the manager crashes (workers abandon
    /// queued work, blocked requests error, open connections hang up
    /// without replying, nothing is flushed) and the worker pool is
    /// joined. Recovery is [`Server::recover`] over the same spool.
    pub fn crash(&self) {
        self.manager.crash();
        self.join_workers();
    }

    fn join_workers(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    fn dispatch(&self, req_id: u64, req: Request) -> Response {
        // Idempotency: a retried mutation (same nonzero request id)
        // replays its recorded outcome instead of re-executing, so a
        // Step whose ACK was lost cannot double-step the session.
        let mutating = matches!(
            req,
            Request::SubmitSystem { .. }
                | Request::Step { .. }
                | Request::Suspend { .. }
                | Request::Resume { .. }
                | Request::Close { .. }
        );
        if mutating {
            if let Some(prior) = self.manager.dedup_check(req_id) {
                return prior;
            }
        }
        let resp = self.dispatch_fresh(req_id, req);
        if mutating {
            self.manager.dedup_store(req_id, &resp);
        }
        resp
    }

    /// A live telemetry snapshot: the manager's metrics registry plus
    /// the session table. This is the payload of both the `Stats` frame
    /// and the Prometheus endpoint, so the two views always agree.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            version: STATS_VERSION,
            metrics: self.manager.metrics().snapshot(),
            sessions: self.manager.stats_sessions(),
        }
    }

    fn dispatch_fresh(&self, req_id: u64, req: Request) -> Response {
        let as_resp = |r: Result<Response, ServeError>| match r {
            Ok(resp) => resp,
            Err(e) => Response::Error {
                code: e.code,
                message: e.message,
            },
        };
        match req {
            Request::SubmitSystem { system, rows, cols } => as_resp(
                self.manager
                    .submit(&system, rows, cols, req_id)
                    .map(|session| Response::Submitted { session }),
            ),
            Request::Step { session, n } => {
                as_resp(self.manager.step(session, n, req_id).map(|(steps, fired)| {
                    Response::Stepped {
                        session,
                        steps,
                        fired,
                    }
                }))
            }
            Request::StreamState { session, layer } => as_resp(
                self.manager
                    .stream_state(session, layer)
                    .map(|(rows, cols, bits)| Response::State {
                        session,
                        layer,
                        rows,
                        cols,
                        bits,
                    }),
            ),
            Request::Suspend { session } => as_resp(
                self.manager
                    .suspend(session, req_id)
                    .map(|steps| Response::Suspended { session, steps }),
            ),
            Request::Resume { session } => as_resp(
                self.manager
                    .resume(session, req_id)
                    .map(|steps| Response::Resumed { session, steps }),
            ),
            Request::Close { session } => as_resp(
                self.manager
                    .close(session, req_id)
                    .map(|()| Response::Closed { session }),
            ),
            Request::Digest { session } => {
                as_resp(self.manager.digest(session, req_id).map(|(steps, digest)| {
                    Response::Digest {
                        session,
                        steps,
                        digest,
                    }
                }))
            }
            Request::Ping => Response::Pong,
            Request::Shutdown => Response::ShuttingDown,
            Request::Stats => Response::Stats {
                stats: self.stats_snapshot(),
            },
        }
    }

    /// Serves one connection until the peer closes, the transport fails,
    /// the idle deadline expires, or a `Shutdown` request arrives.
    /// Returns `true` when the peer requested shutdown.
    ///
    /// Malformed payloads get a typed `malformed-frame` error response
    /// and the connection is closed — a corrupt frame can never panic or
    /// wedge the server. An idle timeout (the stream's read deadline
    /// expiring between frames) suspends every session this connection
    /// submitted before hanging up, so a silent client's progress lands
    /// in the durable spool. After a [`crash`](Self::crash) the
    /// connection closes without replying, exactly like a killed
    /// process.
    pub fn handle_conn<S: Read + Write>(&self, mut stream: S) -> bool {
        let mut owned: Vec<u64> = Vec::new();
        loop {
            let payload = match read_frame(&mut stream) {
                Ok(Some(p)) => p,
                // Clean EOF between frames: the peer is done.
                Ok(None) => return false,
                // Silent connection: park its sessions durably, hang up.
                Err(FrameError::IdleTimeout) => {
                    for id in owned.drain(..) {
                        let _ = self.manager.suspend(id, 0);
                    }
                    return false;
                }
                // Mid-frame truncation or I/O failure: nothing sane to
                // reply to; drop the connection.
                Err(FrameError::Io(_) | FrameError::Truncated { .. }) => return false,
                Err(e @ FrameError::Oversized { .. }) => {
                    return self.refuse_frame(&mut stream, e.to_string());
                }
                Err(FrameError::Malformed(m)) => {
                    return self.refuse_frame(&mut stream, m);
                }
            };
            self.manager.metrics().inc_name("serve.frames_in_total", 1);
            let (req_id, req) = match Request::decode_with_id(&payload) {
                Ok(r) => r,
                Err(e) => {
                    return self.refuse_frame(&mut stream, e.to_string());
                }
            };
            let stop = matches!(req, Request::Shutdown);
            let resp = self.dispatch(req_id, req);
            if self.manager.is_crashed() {
                // A killed process sends nothing back.
                return false;
            }
            if let Response::Submitted { session } = &resp {
                owned.push(*session);
            }
            // Counted before the write, so a client that has read its
            // reply never observes the hub without it.
            self.manager.metrics().inc_name("serve.frames_out_total", 1);
            if write_frame(&mut stream, &resp.encode_with_id(req_id)).is_err() {
                return stop;
            }
            if stop {
                return true;
            }
        }
    }

    /// Replies `malformed-frame` (best-effort) and signals connection
    /// close. Wire corruption is retryable from the client's side — it
    /// reconnects and re-sends — which is exactly how
    /// [`crate::RetryClient`] treats this code.
    fn refuse_frame<S: Read + Write>(&self, stream: &mut S, message: String) -> bool {
        let resp = Response::Error {
            code: ErrorCode::MalformedFrame,
            message,
        };
        let _ = write_frame(stream, &resp.encode());
        false
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and serves connections, one
    /// thread each, until shutdown. Returns immediately with a handle.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn serve_tcp(self: &Arc<Self>, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let server = self.clone();
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if server.manager.is_shutdown() {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if let Some(idle) = server.idle_timeout {
                    let _ = stream.set_read_timeout(Some(idle));
                }
                let per_conn = server.clone();
                std::thread::spawn(move || {
                    if per_conn.handle_conn(stream) {
                        per_conn.shutdown();
                        // Unblock the accept loop so it can observe the
                        // flag and exit.
                        let _ = TcpStream::connect(local_addr);
                    }
                });
            }
        });
        Ok(ServerHandle {
            server: self.clone(),
            local_addr,
            accept: Mutex::new(Some(accept)),
        })
    }
}

/// A live TCP service.
pub struct ServerHandle {
    server: Arc<Server>,
    local_addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The underlying server.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Stops the service from the hosting process: drains workers, then
    /// unblocks and joins the accept loop.
    pub fn shutdown(&self) {
        self.server.shutdown();
        let _ = TcpStream::connect(self.local_addr);
        self.join();
    }

    /// Waits for the accept loop to exit (after a client-driven
    /// `Shutdown` or [`shutdown`](Self::shutdown)).
    pub fn join(&self) {
        let handle = self.accept.lock().expect("accept handle poisoned").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}
