//! A typed client over any `Read + Write` transport, plus the
//! resilience layer: per-request deadlines, deterministic retry with
//! seeded jittered backoff, and reconnect-after-restart.
//!
//! [`Client`] is the bare request/response codec — one frame out, one
//! frame back. [`RetryClient`] wraps it with everything a client needs
//! to ride out a flaky transport or a crashed-and-recovered server:
//! every mutating request carries a unique id (so a retried `Step`
//! whose ACK was dropped hits the server's idempotency cache instead of
//! double-stepping), transient failures trigger a bounded retry
//! schedule whose jitter is a pure function of the policy seed (no
//! `Instant::now` in any decision — replays are reproducible), and a
//! dead connection is transparently re-dialed through the connect
//! closure. Both implement [`Rpc`], the typed request surface.

use std::io::{Read, Write};
use std::time::Duration;

use cenn_obs::MetricsHub;

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{ErrorCode, Request, Response, StatsSnapshot};

/// Transports that support per-request I/O deadlines. Implemented for
/// `TcpStream` (OS socket timeouts) and [`crate::loopback::Loopback`]
/// (condvar wait timeouts), so deadline behavior is testable without a
/// network.
pub trait Deadlines {
    /// Sets (or clears, with `None`) the read and write deadlines.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    fn set_deadlines(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()>;
}

impl Deadlines for std::net::TcpStream {
    fn set_deadlines(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        self.set_read_timeout(read)?;
        self.set_write_timeout(write)
    }
}

impl Deadlines for crate::loopback::Loopback {
    fn set_deadlines(
        &mut self,
        read: Option<Duration>,
        _write: Option<Duration>,
    ) -> std::io::Result<()> {
        // Loopback writes land in an unbounded in-memory queue and never
        // block, so only the read half has a deadline.
        self.set_read_timeout(read);
        Ok(())
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or codec failure.
    Frame(FrameError),
    /// The server closed the connection where a response was due.
    Disconnected,
    /// The server answered with a typed error.
    Server {
        /// Machine-readable discriminator.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a well-formed but wrong-typed response.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Frame(e) => write!(f, "transport: {e}"),
            Self::Disconnected => write!(f, "server closed the connection"),
            Self::Server { code, message } => write!(f, "server error ({code}): {message}"),
            Self::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

/// The typed request surface: one accessor per operation, each written
/// once over [`call`](Self::call). [`Client`] sends every request with
/// id 0; [`RetryClient`] gives each a fresh id and retries it.
pub trait Rpc {
    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Frame`] on transport/codec failure,
    /// [`ClientError::Disconnected`] if the stream ends first. A typed
    /// server `Error` response is returned as `Ok(Response::Error { .. })`
    /// here; the typed accessors convert it to [`ClientError::Server`].
    fn call(&mut self, req: &Request) -> Result<Response, ClientError>;

    /// Sends `req` and unwraps the response kind `pick` accepts: a typed
    /// server error becomes [`ClientError::Server`], any other kind
    /// [`ClientError::Unexpected`].
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn expect<T>(
        &mut self,
        req: &Request,
        pick: impl FnOnce(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        match self.call(req)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => pick(resp).map_err(|r| ClientError::Unexpected(format!("{r:?}"))),
        }
    }

    /// Creates a session; returns its id.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn submit(&mut self, system: &str, rows: u32, cols: u32) -> Result<u64, ClientError> {
        self.expect(
            &Request::SubmitSystem {
                system: system.into(),
                rows,
                cols,
            },
            |r| match r {
                Response::Submitted { session } => Ok(session),
                other => Err(other),
            },
        )
    }

    /// Runs `n` steps; returns `(total steps, fired this batch)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn step(&mut self, session: u64, n: u64) -> Result<(u64, u64), ClientError> {
        self.expect(&Request::Step { session, n }, |r| match r {
            Response::Stepped { steps, fired, .. } => Ok((steps, fired)),
            other => Err(other),
        })
    }

    /// Streams one layer's raw Q16.16 state; returns `(rows, cols, bits)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn stream_state(
        &mut self,
        session: u64,
        layer: u32,
    ) -> Result<(u32, u32, Vec<i32>), ClientError> {
        self.expect(&Request::StreamState { session, layer }, |r| match r {
            Response::State {
                rows, cols, bits, ..
            } => Ok((rows, cols, bits)),
            other => Err(other),
        })
    }

    /// Suspends the session to the server's spool; returns its step count.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn suspend(&mut self, session: u64) -> Result<u64, ClientError> {
        self.expect(&Request::Suspend { session }, |r| match r {
            Response::Suspended { steps, .. } => Ok(steps),
            other => Err(other),
        })
    }

    /// Resumes a suspended session; returns its restored step count.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn resume(&mut self, session: u64) -> Result<u64, ClientError> {
        self.expect(&Request::Resume { session }, |r| match r {
            Response::Resumed { steps, .. } => Ok(steps),
            other => Err(other),
        })
    }

    /// Closes the session.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn close(&mut self, session: u64) -> Result<(), ClientError> {
        self.expect(&Request::Close { session }, |r| match r {
            Response::Closed { .. } => Ok(()),
            other => Err(other),
        })
    }

    /// The session's deterministic digest; returns `(steps, digest)`.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn digest(&mut self, session: u64) -> Result<(u64, u64), ClientError> {
        self.expect(&Request::Digest { session }, |r| match r {
            Response::Digest { steps, digest, .. } => Ok((steps, digest)),
            other => Err(other),
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn ping(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Ping, |r| match r {
            Response::Pong => Ok(()),
            other => Err(other),
        })
    }

    /// Asks the server to shut down (drain and stop accepting).
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn shutdown(&mut self) -> Result<(), ClientError> {
        self.expect(&Request::Shutdown, |r| match r {
            Response::ShuttingDown => Ok(()),
            other => Err(other),
        })
    }

    /// Fetches the server's live telemetry snapshot.
    ///
    /// # Errors
    ///
    /// [`ClientError`] as in [`call`](Self::call).
    fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.expect(&Request::Stats, |r| match r {
            Response::Stats { stats } => Ok(stats),
            other => Err(other),
        })
    }
}

/// A session-service client: one request in flight at a time, each sent
/// with request id 0 (no dedup).
pub struct Client<S: Read + Write> {
    stream: S,
}

impl Client<std::net::TcpStream> {
    /// Connects over TCP (with `TCP_NODELAY`, since the protocol is
    /// strictly request/response).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect_tcp(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Self> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::new(stream))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn new(stream: S) -> Self {
        Self { stream }
    }

    /// Sends one request carrying `req_id` and reads its response,
    /// checking that the server echoed the same id (a mismatch means the
    /// stream is desynchronized and is reported as
    /// [`ClientError::Unexpected`]).
    ///
    /// # Errors
    ///
    /// As in [`Rpc::call`].
    pub fn call_with_id(&mut self, req_id: u64, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &req.encode_with_id(req_id))?;
        let payload = read_frame(&mut self.stream)?.ok_or(ClientError::Disconnected)?;
        let (echo, resp) = Response::decode_with_id(&payload)?;
        if echo != req_id {
            return Err(ClientError::Unexpected(format!(
                "response echoes request id {echo}, expected {req_id}"
            )));
        }
        Ok(resp)
    }
}

impl<S: Read + Write> Rpc for Client<S> {
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.call_with_id(0, req)
    }
}

// --- retry layer --------------------------------------------------------

/// Bounded-retry schedule with deterministic seeded jitter.
///
/// The delay before retry `k` (1-based) is exponential —
/// `base_ms << (k-1)`, capped at `cap_ms` — jittered into the upper half
/// of that window, `[delay/2, delay]`. The jitter is a pure hash of
/// `(seed, k)`: no clock reads, no RNG state, so the full schedule for a
/// given policy is a constant, inspectable via [`schedule`](Self::schedule)
/// and stable across reruns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (clamped to at least 1).
    pub attempts: u32,
    /// Base backoff in milliseconds (doubled each retry).
    pub base_ms: u64,
    /// Ceiling on any single backoff delay, in milliseconds.
    pub cap_ms: u64,
    /// Jitter seed; same seed, same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 6,
            base_ms: 25,
            cap_ms: 1000,
            seed: 0x5EED,
        }
    }
}

/// The finalizer step of SplitMix64 — the stateless hash behind the
/// jitter (no RNG object, no clock).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A policy sized to ride out a server kill-and-restart (a dozen
    /// attempts spanning roughly 10 s of cumulative backoff).
    pub fn crash_tolerant(seed: u64) -> Self {
        Self {
            attempts: 12,
            base_ms: 50,
            cap_ms: 2000,
            seed,
        }
    }

    /// The jittered delay in milliseconds before retry `retry`
    /// (1-based; retry 0 — the first attempt — has no delay).
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        if retry == 0 {
            return 0;
        }
        let shift = (retry - 1).min(20);
        let exp = self
            .base_ms
            .saturating_mul(1u64 << shift)
            .min(self.cap_ms.max(self.base_ms));
        let lo = exp / 2;
        let h = splitmix64(self.seed ^ u64::from(retry).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        lo + h % (exp - lo + 1)
    }

    /// The full delay schedule: one entry per retry, in order. A pure
    /// function of the policy fields.
    pub fn schedule(&self) -> Vec<u64> {
        (1..self.attempts.max(1))
            .map(|r| self.backoff_ms(r))
            .collect()
    }
}

/// `true` for failures worth retrying: the transport died, timed out, or
/// desynchronized — anything where re-sending on a fresh connection can
/// succeed. Typed server errors other than the retryable codes are
/// deterministic rejections and are surfaced immediately.
fn transient(e: &ClientError) -> bool {
    match e {
        ClientError::Disconnected | ClientError::Unexpected(_) => true,
        ClientError::Frame(f) => matches!(
            f,
            FrameError::Io(_)
                | FrameError::Truncated { .. }
                | FrameError::IdleTimeout
                | FrameError::Malformed(_)
        ),
        ClientError::Server { .. } => false,
    }
}

/// A resilient client: [`Client`] plus request ids, deadlines, bounded
/// retry, and reconnection through a connect closure.
///
/// Each `RetryClient` owns a 32-bit nonce; request ids are
/// `(nonce << 32) | counter`, so concurrent clients with distinct nonces
/// never collide in the server's idempotency cache.
pub struct RetryClient<S, F>
where
    S: Read + Write + Deadlines,
    F: FnMut() -> std::io::Result<S>,
{
    connect: F,
    policy: RetryPolicy,
    deadline: Option<Duration>,
    nonce: u32,
    counter: u32,
    conn: Option<Client<S>>,
    metrics: Option<MetricsHub>,
}

impl<S, F> RetryClient<S, F>
where
    S: Read + Write + Deadlines,
    F: FnMut() -> std::io::Result<S>,
{
    /// Builds a client that dials through `connect` (lazily, on first
    /// use) and identifies its requests with `nonce`.
    pub fn new(connect: F, policy: RetryPolicy, nonce: u32) -> Self {
        Self {
            connect,
            policy,
            deadline: None,
            nonce,
            counter: 0,
            conn: None,
            metrics: None,
        }
    }

    /// Sets the per-request I/O deadline applied to every connection.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Accounts retries and reconnects into `hub`
    /// (`client.retries_total`, `client.reconnects_total`).
    #[must_use]
    pub fn with_metrics(mut self, hub: MetricsHub) -> Self {
        self.metrics = Some(hub);
        self
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn next_req_id(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        (u64::from(self.nonce) << 32) | u64::from(self.counter)
    }

    /// Drops any current connection and dials a fresh one — the
    /// restart-recovery path: after a server crash, reconnect and
    /// resume suspended sessions by id.
    ///
    /// # Errors
    ///
    /// Propagates connect and deadline errors.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.conn = None;
        let mut stream = (self.connect)()?;
        stream.set_deadlines(self.deadline, self.deadline)?;
        self.conn = Some(Client::new(stream));
        if let Some(hub) = &self.metrics {
            hub.inc_name("client.reconnects_total", 1);
        }
        Ok(())
    }

    fn ensure_conn(&mut self) -> Result<&mut Client<S>, ClientError> {
        if self.conn.is_none() {
            self.reconnect()
                .map_err(|e| ClientError::Frame(FrameError::Io(e)))?;
        }
        Ok(self.conn.as_mut().expect("reconnect just set it"))
    }
}

impl<S, F> Rpc for RetryClient<S, F>
where
    S: Read + Write + Deadlines,
    F: FnMut() -> std::io::Result<S>,
{
    /// Sends `req` with a fresh request id, retrying transient failures
    /// (dead transport, timeouts, `overloaded`, `malformed-frame`) on
    /// the policy's backoff schedule. Typed server errors pass through
    /// as `Ok(Response::Error { .. })` for the caller to interpret.
    ///
    /// # Errors
    ///
    /// The last transient error once attempts are exhausted, or the
    /// first non-retryable failure.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let req_id = self.next_req_id();
        let mut last = None;
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                if let Some(hub) = &self.metrics {
                    hub.inc_name("client.retries_total", 1);
                }
                std::thread::sleep(Duration::from_millis(self.policy.backoff_ms(attempt)));
            }
            let client = match self.ensure_conn() {
                Ok(c) => c,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            match client.call_with_id(req_id, req) {
                Ok(Response::Error { code, message })
                    if matches!(code, ErrorCode::Overloaded | ErrorCode::MalformedFrame) =>
                {
                    if code == ErrorCode::MalformedFrame {
                        // The server closes after a malformed frame; the
                        // fresh connection re-sends an intact copy.
                        self.conn = None;
                    }
                    last = Some(ClientError::Server { code, message });
                }
                Ok(resp) => return Ok(resp),
                Err(e) if transient(&e) => {
                    self.conn = None;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_seed_deterministic_bounded_and_capped() {
        let p = RetryPolicy {
            attempts: 8,
            base_ms: 20,
            cap_ms: 300,
            seed: 42,
        };
        let a = p.schedule();
        assert_eq!(a, p.schedule(), "schedule is a pure function");
        assert_eq!(a.len(), 7);
        for (i, &d) in a.iter().enumerate() {
            let exp = (20u64 << i).min(300);
            assert!(
                d >= exp / 2 && d <= exp,
                "retry {}: {d} not in [{}, {exp}]",
                i + 1,
                exp / 2
            );
        }
        let other = RetryPolicy { seed: 43, ..p };
        assert_ne!(a, other.schedule(), "different seed, different jitter");
        // Degenerate settings stay sane.
        assert_eq!(
            RetryPolicy { attempts: 1, ..p }.schedule(),
            Vec::<u64>::new()
        );
        let zero = RetryPolicy {
            attempts: 3,
            base_ms: 0,
            cap_ms: 0,
            seed: 1,
        };
        assert_eq!(zero.schedule(), vec![0, 0]);
    }

    #[test]
    fn retry_client_ids_are_nonce_prefixed_and_unique() {
        let mut rc = RetryClient::new(
            || -> std::io::Result<crate::loopback::Loopback> { Err(std::io::Error::other("nope")) },
            RetryPolicy::default(),
            7,
        );
        let a = rc.next_req_id();
        let b = rc.next_req_id();
        assert_ne!(a, b);
        assert_eq!(a >> 32, 7);
        assert_eq!(b >> 32, 7);
        assert_eq!(a & 0xFFFF_FFFF, 1);
    }
}
