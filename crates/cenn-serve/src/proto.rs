//! Typed request/response messages and their binary wire form.
//!
//! Every payload starts with the protocol version byte, then a `u64`
//! request id, then a message tag, then little-endian fields. Strings
//! are `u16` length + UTF-8 bytes; state words are `u32` count + raw
//! Q16.16 `i32` bits. Decoding is strict: unknown versions, unknown
//! tags, bad UTF-8, and leftover bytes are all typed
//! [`FrameError::Malformed`] errors — a bit-flipped frame can never
//! panic the server or silently alias another message.
//!
//! The request id is the idempotency envelope: the server echoes it in
//! the response, and remembers the outcome of mutating requests with a
//! nonzero id, so a client that retries a `Step` after a dropped ACK
//! gets the original outcome instead of double-stepping the session. Id
//! `0` means "no dedup" and is what the plain [`crate::Client`] sends;
//! [`crate::RetryClient`] allocates real ids.

use cenn_obs::{HistogramSnapshot, MetricsSnapshot, STATS_VERSION};

use crate::frame::FrameError;

/// Wire protocol version; bump on any message-layout change.
/// Version 2 added the `u64` request-id envelope after the version byte.
/// The `Stats` request/response pair is an additive tag within version 2;
/// its payload layout is versioned separately by
/// [`cenn_obs::STATS_VERSION`].
pub const PROTO_VERSION: u8 = 2;

/// One live session's row in a [`Response::Stats`] snapshot — what
/// `cenn top` renders per session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStat {
    /// Session id.
    pub session: u64,
    /// System name the session is running.
    pub system: String,
    /// `"active"` or `"suspended"`.
    pub state: String,
    /// Cumulative executed steps.
    pub steps: u64,
    /// Queued (unexecuted) steps.
    pub pending: u64,
}

/// The typed payload of [`Response::Stats`]: a point-in-time metrics
/// snapshot plus the live session table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Snapshot layout version ([`cenn_obs::STATS_VERSION`]).
    pub version: u16,
    /// Counters, gauges, and histogram summaries, names sorted.
    pub metrics: MetricsSnapshot,
    /// One row per live session, ascending by id.
    pub sessions: Vec<SessionStat>,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Creates a session running the named `cenn-equations` system on a
    /// `rows × cols` grid. Replies [`Response::Submitted`].
    SubmitSystem {
        /// System name, e.g. `"fisher"` or `"gray-scott"`.
        system: String,
        /// Grid rows.
        rows: u32,
        /// Grid cols.
        cols: u32,
    },
    /// Advances the session `n` steps (scheduled onto the worker pool in
    /// fair round-robin quanta). Replies [`Response::Stepped`] when every
    /// requested step has executed.
    Step {
        /// Target session.
        session: u64,
        /// Steps to run.
        n: u64,
    },
    /// Streams one layer's current state as raw Q16.16 bits. Replies
    /// [`Response::State`].
    StreamState {
        /// Target session.
        session: u64,
        /// Layer index.
        layer: u32,
    },
    /// Suspends an idle session to a `CENNCKPT` file in the server's
    /// spool directory and frees its in-memory solver. Replies
    /// [`Response::Suspended`].
    Suspend {
        /// Target session.
        session: u64,
    },
    /// Rebuilds a suspended session from its checkpoint, bit-identically.
    /// Replies [`Response::Resumed`].
    Resume {
        /// Target session.
        session: u64,
    },
    /// Closes the session and deletes any spooled checkpoint. Replies
    /// [`Response::Closed`].
    Close {
        /// Target session.
        session: u64,
    },
    /// Requests the session's deterministic end-state digest. Replies
    /// [`Response::Digest`].
    Digest {
        /// Target session.
        session: u64,
    },
    /// Liveness probe. Replies [`Response::Pong`].
    Ping,
    /// Asks the server to stop accepting connections and drain. Replies
    /// [`Response::ShuttingDown`].
    Shutdown,
    /// Requests a live telemetry snapshot (metrics registry + session
    /// table). Replies [`Response::Stats`]. Read-only: never deduped.
    Stats,
}

/// Stable error discriminators carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The submitted system name is not in the benchmark registry.
    UnknownSystem,
    /// No session with that id exists.
    NoSuchSession,
    /// The operation needs an active session but it is suspended.
    SessionSuspended,
    /// The operation needs a suspended session but it is active, or the
    /// session is busy (pending steps).
    SessionBusy,
    /// The request itself is invalid (layer out of range, zero grid, …).
    BadRequest,
    /// Server-side failure (I/O on the spool, model build error, …).
    Internal,
    /// The server is shutting down.
    ShuttingDown,
    /// The server is load-shedding: the `max_sessions` or `max_pending`
    /// limit is reached. Retry with backoff.
    Overloaded,
    /// A spooled checkpoint is missing, truncated, or fails its digest;
    /// the session cannot resume from it.
    CorruptCheckpoint,
    /// The frame or payload arrived damaged on the wire (corruption in
    /// transit, as opposed to a well-formed but invalid request).
    MalformedFrame,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            Self::UnknownSystem => 1,
            Self::NoSuchSession => 2,
            Self::SessionSuspended => 3,
            Self::SessionBusy => 4,
            Self::BadRequest => 5,
            Self::Internal => 6,
            Self::ShuttingDown => 7,
            Self::Overloaded => 8,
            Self::CorruptCheckpoint => 9,
            Self::MalformedFrame => 10,
        }
    }

    fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => Self::UnknownSystem,
            2 => Self::NoSuchSession,
            3 => Self::SessionSuspended,
            4 => Self::SessionBusy,
            5 => Self::BadRequest,
            6 => Self::Internal,
            7 => Self::ShuttingDown,
            8 => Self::Overloaded,
            9 => Self::CorruptCheckpoint,
            10 => Self::MalformedFrame,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::UnknownSystem => "unknown-system",
            Self::NoSuchSession => "no-such-session",
            Self::SessionSuspended => "session-suspended",
            Self::SessionBusy => "session-busy",
            Self::BadRequest => "bad-request",
            Self::Internal => "internal",
            Self::ShuttingDown => "shutting-down",
            Self::Overloaded => "overloaded",
            Self::CorruptCheckpoint => "corrupt-checkpoint",
            Self::MalformedFrame => "malformed-frame",
        };
        f.write_str(name)
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session created.
    Submitted {
        /// Server-assigned session id.
        session: u64,
    },
    /// The requested step batch completed.
    Stepped {
        /// Target session.
        session: u64,
        /// The session's cumulative step counter.
        steps: u64,
        /// Post-step-rule firings (spikes) in this batch.
        fired: u64,
    },
    /// One layer's raw state.
    State {
        /// Target session.
        session: u64,
        /// Layer index.
        layer: u32,
        /// Grid rows.
        rows: u32,
        /// Grid cols.
        cols: u32,
        /// Raw Q16.16 bits, row-major.
        bits: Vec<i32>,
    },
    /// Session suspended to the spool.
    Suspended {
        /// Target session.
        session: u64,
        /// Step counter at suspension.
        steps: u64,
    },
    /// Session restored from its checkpoint.
    Resumed {
        /// Target session.
        session: u64,
        /// Step counter after restore (equals the suspension counter).
        steps: u64,
    },
    /// Session closed.
    Closed {
        /// Target session.
        session: u64,
    },
    /// Deterministic end-state digest (FNV-1a over steps, simulated time
    /// bits, and every layer's raw state words).
    Digest {
        /// Target session.
        session: u64,
        /// Step counter at digest time.
        steps: u64,
        /// The digest value.
        digest: u64,
    },
    /// Liveness reply.
    Pong,
    /// Shutdown acknowledged; the connection closes after this frame.
    ShuttingDown,
    /// The live telemetry snapshot.
    Stats {
        /// Snapshot payload (versioned by its `version` field).
        stats: StatsSnapshot,
    },
    /// The request failed.
    Error {
        /// Machine-readable discriminator.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// --- encoding -----------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new(req_id: u64, tag: u8) -> Self {
        let mut buf = vec![PROTO_VERSION];
        buf.extend_from_slice(&req_id.to_le_bytes());
        buf.push(tag);
        Self(buf)
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len() as u16);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn words(&mut self, bits: &[i32]) {
        self.u32(bits.len() as u32);
        for b in bits {
            self.0.extend_from_slice(&b.to_le_bytes());
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Result<(Self, u64, u8), FrameError> {
        let mut d = Self { buf, pos: 0 };
        let version = d.u8()?;
        if version != PROTO_VERSION {
            return Err(FrameError::Malformed(format!(
                "protocol version {version} (expected {PROTO_VERSION})"
            )));
        }
        let req_id = d.u64()?;
        let tag = d.u8()?;
        Ok((d, req_id, tag))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.pos + n > self.buf.len() {
            return Err(FrameError::Malformed(format!(
                "message needs {n} more bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn i64(&mut self) -> Result<i64, FrameError> {
        self.u64().map(|v| v as i64)
    }
    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Malformed("string is not UTF-8".into()))
    }
    fn words(&mut self) -> Result<Vec<i32>, FrameError> {
        let len = self.u32()? as usize;
        // A word count past the remaining payload is corruption; check
        // before allocating.
        if len
            .checked_mul(4)
            .is_none_or(|b| self.pos + b > self.buf.len())
        {
            return Err(FrameError::Malformed(format!(
                "word count {len} exceeds payload"
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let b = self.take(4)?;
            out.push(i32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        }
        Ok(out)
    }
    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// --- stats snapshot layout (STATS_VERSION 1) ----------------------------

fn enc_stats(e: &mut Enc, s: &StatsSnapshot) {
    e.u16(s.version);
    e.u32(s.metrics.counters.len() as u32);
    for (name, v) in &s.metrics.counters {
        e.string(name);
        e.u64(*v);
    }
    e.u32(s.metrics.gauges.len() as u32);
    for (name, v) in &s.metrics.gauges {
        e.string(name);
        e.i64(*v);
    }
    e.u32(s.metrics.hists.len() as u32);
    for (name, h) in &s.metrics.hists {
        e.string(name);
        e.u64(h.count);
        e.u64(h.sum_nanos);
        e.u64(h.p50_nanos);
        e.u64(h.p90_nanos);
        e.u64(h.p99_nanos);
        e.u64(h.max_nanos);
    }
    e.u32(s.sessions.len() as u32);
    for row in &s.sessions {
        e.u64(row.session);
        e.string(&row.system);
        e.string(&row.state);
        e.u64(row.steps);
        e.u64(row.pending);
    }
}

fn dec_stats(d: &mut Dec<'_>) -> Result<StatsSnapshot, FrameError> {
    let version = d.u16()?;
    if version != STATS_VERSION {
        return Err(FrameError::Malformed(format!(
            "stats snapshot version {version} (expected {STATS_VERSION})"
        )));
    }
    let mut metrics = MetricsSnapshot::default();
    // Element counts are bounds-checked as elements decode (each element
    // consumes bytes, so a corrupt count fails fast) — no pre-allocation
    // from an untrusted length.
    for _ in 0..d.u32()? {
        let name = d.string()?;
        metrics.counters.push((name, d.u64()?));
    }
    for _ in 0..d.u32()? {
        let name = d.string()?;
        metrics.gauges.push((name, d.i64()?));
    }
    for _ in 0..d.u32()? {
        let name = d.string()?;
        metrics.hists.push((
            name,
            HistogramSnapshot {
                count: d.u64()?,
                sum_nanos: d.u64()?,
                p50_nanos: d.u64()?,
                p90_nanos: d.u64()?,
                p99_nanos: d.u64()?,
                max_nanos: d.u64()?,
            },
        ));
    }
    let mut sessions = Vec::new();
    for _ in 0..d.u32()? {
        sessions.push(SessionStat {
            session: d.u64()?,
            system: d.string()?,
            state: d.string()?,
            steps: d.u64()?,
            pending: d.u64()?,
        });
    }
    Ok(StatsSnapshot {
        version,
        metrics,
        sessions,
    })
}

impl Request {
    /// Serializes to a frame payload carrying `req_id` in the
    /// idempotency envelope.
    pub fn encode_with_id(&self, req_id: u64) -> Vec<u8> {
        let mut e;
        match self {
            Self::SubmitSystem { system, rows, cols } => {
                e = Enc::new(req_id, 1);
                e.string(system);
                e.u32(*rows);
                e.u32(*cols);
            }
            Self::Step { session, n } => {
                e = Enc::new(req_id, 2);
                e.u64(*session);
                e.u64(*n);
            }
            Self::StreamState { session, layer } => {
                e = Enc::new(req_id, 3);
                e.u64(*session);
                e.u32(*layer);
            }
            Self::Suspend { session } => {
                e = Enc::new(req_id, 4);
                e.u64(*session);
            }
            Self::Resume { session } => {
                e = Enc::new(req_id, 5);
                e.u64(*session);
            }
            Self::Close { session } => {
                e = Enc::new(req_id, 6);
                e.u64(*session);
            }
            Self::Digest { session } => {
                e = Enc::new(req_id, 7);
                e.u64(*session);
            }
            Self::Ping => e = Enc::new(req_id, 8),
            Self::Shutdown => e = Enc::new(req_id, 9),
            Self::Stats => e = Enc::new(req_id, 10),
        }
        e.0
    }

    /// Parses a frame payload, returning the request id alongside.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on any deviation from the wire format.
    pub fn decode_with_id(payload: &[u8]) -> Result<(u64, Self), FrameError> {
        let (mut d, req_id, tag) = Dec::new(payload)?;
        let req = match tag {
            1 => Self::SubmitSystem {
                system: d.string()?,
                rows: d.u32()?,
                cols: d.u32()?,
            },
            2 => Self::Step {
                session: d.u64()?,
                n: d.u64()?,
            },
            3 => Self::StreamState {
                session: d.u64()?,
                layer: d.u32()?,
            },
            4 => Self::Suspend { session: d.u64()? },
            5 => Self::Resume { session: d.u64()? },
            6 => Self::Close { session: d.u64()? },
            7 => Self::Digest { session: d.u64()? },
            8 => Self::Ping,
            9 => Self::Shutdown,
            10 => Self::Stats,
            t => return Err(FrameError::Malformed(format!("unknown request tag {t}"))),
        };
        d.finish()?;
        Ok((req_id, req))
    }
}

impl Response {
    /// Serializes to a frame payload echoing `req_id`.
    pub fn encode_with_id(&self, req_id: u64) -> Vec<u8> {
        let mut e;
        match self {
            Self::Submitted { session } => {
                e = Enc::new(req_id, 1);
                e.u64(*session);
            }
            Self::Stepped {
                session,
                steps,
                fired,
            } => {
                e = Enc::new(req_id, 2);
                e.u64(*session);
                e.u64(*steps);
                e.u64(*fired);
            }
            Self::State {
                session,
                layer,
                rows,
                cols,
                bits,
            } => {
                e = Enc::new(req_id, 3);
                e.u64(*session);
                e.u32(*layer);
                e.u32(*rows);
                e.u32(*cols);
                e.words(bits);
            }
            Self::Suspended { session, steps } => {
                e = Enc::new(req_id, 4);
                e.u64(*session);
                e.u64(*steps);
            }
            Self::Resumed { session, steps } => {
                e = Enc::new(req_id, 5);
                e.u64(*session);
                e.u64(*steps);
            }
            Self::Closed { session } => {
                e = Enc::new(req_id, 6);
                e.u64(*session);
            }
            Self::Digest {
                session,
                steps,
                digest,
            } => {
                e = Enc::new(req_id, 7);
                e.u64(*session);
                e.u64(*steps);
                e.u64(*digest);
            }
            Self::Pong => e = Enc::new(req_id, 8),
            Self::ShuttingDown => e = Enc::new(req_id, 9),
            Self::Error { code, message } => {
                e = Enc::new(req_id, 10);
                e.u16(code.to_u16());
                e.string(message);
            }
            Self::Stats { stats } => {
                e = Enc::new(req_id, 11);
                enc_stats(&mut e, stats);
            }
        }
        e.0
    }

    /// Parses a frame payload, returning the echoed request id alongside.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] on any deviation from the wire format.
    pub fn decode_with_id(payload: &[u8]) -> Result<(u64, Self), FrameError> {
        let (mut d, req_id, tag) = Dec::new(payload)?;
        let resp = match tag {
            1 => Self::Submitted { session: d.u64()? },
            2 => Self::Stepped {
                session: d.u64()?,
                steps: d.u64()?,
                fired: d.u64()?,
            },
            3 => Self::State {
                session: d.u64()?,
                layer: d.u32()?,
                rows: d.u32()?,
                cols: d.u32()?,
                bits: d.words()?,
            },
            4 => Self::Suspended {
                session: d.u64()?,
                steps: d.u64()?,
            },
            5 => Self::Resumed {
                session: d.u64()?,
                steps: d.u64()?,
            },
            6 => Self::Closed { session: d.u64()? },
            7 => Self::Digest {
                session: d.u64()?,
                steps: d.u64()?,
                digest: d.u64()?,
            },
            8 => Self::Pong,
            9 => Self::ShuttingDown,
            10 => {
                let raw = d.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| FrameError::Malformed(format!("unknown error code {raw}")))?;
                Self::Error {
                    code,
                    message: d.string()?,
                }
            }
            11 => Self::Stats {
                stats: dec_stats(&mut d)?,
            },
            t => return Err(FrameError::Malformed(format!("unknown response tag {t}"))),
        };
        d.finish()?;
        Ok((req_id, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::SubmitSystem {
                system: "gray-scott".into(),
                rows: 16,
                cols: 24,
            },
            Request::Step { session: 7, n: 100 },
            Request::StreamState {
                session: 7,
                layer: 1,
            },
            Request::Suspend { session: 7 },
            Request::Resume { session: 7 },
            Request::Close { session: 7 },
            Request::Digest { session: 7 },
            Request::Ping,
            Request::Shutdown,
            Request::Stats,
        ]
    }

    fn sample_stats() -> StatsSnapshot {
        StatsSnapshot {
            version: STATS_VERSION,
            metrics: MetricsSnapshot {
                counters: vec![("serve.frames_in_total".into(), 42)],
                gauges: vec![("serve.queue_depth".into(), -3)],
                hists: vec![(
                    "serve.quantum_nanos".into(),
                    HistogramSnapshot {
                        count: 9,
                        sum_nanos: 9000,
                        p50_nanos: 1024,
                        p90_nanos: 2048,
                        p99_nanos: 2048,
                        max_nanos: 1999,
                    },
                )],
            },
            sessions: vec![SessionStat {
                session: 3,
                system: "gray-scott".into(),
                state: "active".into(),
                steps: 120,
                pending: 8,
            }],
        }
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Submitted { session: 1 },
            Response::Stepped {
                session: 1,
                steps: 20,
                fired: 3,
            },
            Response::State {
                session: 1,
                layer: 0,
                rows: 2,
                cols: 2,
                bits: vec![i32::MIN, -1, 0, i32::MAX],
            },
            Response::Suspended {
                session: 1,
                steps: 20,
            },
            Response::Resumed {
                session: 1,
                steps: 20,
            },
            Response::Closed { session: 1 },
            Response::Digest {
                session: 1,
                steps: 20,
                digest: 0xDEAD_BEEF_CAFE_F00D,
            },
            Response::Pong,
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::NoSuchSession,
                message: "session 9 does not exist".into(),
            },
            Response::Stats {
                stats: sample_stats(),
            },
            Response::Stats {
                stats: StatsSnapshot {
                    version: STATS_VERSION,
                    ..StatsSnapshot::default()
                },
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for req in requests() {
            assert_eq!(
                Request::decode_with_id(&req.encode_with_id(0)).unwrap(),
                (0, req)
            );
        }
        for resp in responses() {
            assert_eq!(
                Response::decode_with_id(&resp.encode_with_id(0)).unwrap(),
                (0, resp)
            );
        }
    }

    #[test]
    fn request_ids_ride_the_envelope() {
        for (i, req) in requests().into_iter().enumerate() {
            let id = (i as u64 + 1) << 32 | 0xBEEF;
            let (echo, back) = Request::decode_with_id(&req.encode_with_id(id)).unwrap();
            assert_eq!((echo, back), (id, req));
        }
        for resp in responses() {
            let (echo, back) = Response::decode_with_id(&resp.encode_with_id(42)).unwrap();
            assert_eq!((echo, back), (42, resp));
        }
        // Id 0 is the "no dedup" spelling the plain client uses.
        let (echo, _) = Request::decode_with_id(&Request::Ping.encode_with_id(0)).unwrap();
        assert_eq!(echo, 0);
    }

    #[test]
    fn new_error_codes_round_trip() {
        for (code, name) in [
            (ErrorCode::Overloaded, "overloaded"),
            (ErrorCode::CorruptCheckpoint, "corrupt-checkpoint"),
            (ErrorCode::MalformedFrame, "malformed-frame"),
        ] {
            let resp = Response::Error {
                code,
                message: "x".into(),
            };
            assert_eq!(
                Response::decode_with_id(&resp.encode_with_id(0)).unwrap(),
                (0, resp)
            );
            assert_eq!(code.to_string(), name);
        }
    }

    #[test]
    fn wrong_version_unknown_tag_and_trailing_bytes_are_malformed() {
        let mut bytes = Request::Ping.encode_with_id(0);
        bytes[0] = 99;
        assert!(matches!(
            Request::decode_with_id(&bytes),
            Err(FrameError::Malformed(_))
        ));
        let mut bytes = vec![PROTO_VERSION];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(200);
        assert!(matches!(
            Request::decode_with_id(&bytes),
            Err(FrameError::Malformed(_))
        ));
        let mut bytes = Request::Ping.encode_with_id(0);
        bytes.push(0);
        assert!(matches!(
            Request::decode_with_id(&bytes),
            Err(FrameError::Malformed(_))
        ));
        assert!(Request::decode_with_id(&[]).is_err(), "empty payload");
    }

    #[test]
    fn stats_snapshot_rejects_unknown_versions() {
        let resp = Response::Stats {
            stats: sample_stats(),
        };
        let mut bytes = resp.encode_with_id(0);
        // The u16 snapshot version sits right after version(1)+req_id(8)
        // +tag(1).
        let off = 1 + 8 + 1;
        bytes[off..off + 2].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(
            Response::decode_with_id(&bytes),
            Err(FrameError::Malformed(m)) if m.contains("stats snapshot version")
        ));
    }

    #[test]
    fn corrupt_word_count_is_rejected_before_allocation() {
        let resp = Response::State {
            session: 1,
            layer: 0,
            rows: 1,
            cols: 1,
            bits: vec![42],
        };
        let mut bytes = resp.encode_with_id(0);
        // The word count sits after version(1)+req_id(8)+tag(1)+session(8)
        // +layer(4)+rows(4)+cols(4); blow it up to a value the payload
        // cannot hold.
        let off = 1 + 8 + 1 + 8 + 4 + 4 + 4;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode_with_id(&bytes),
            Err(FrameError::Malformed(_))
        ));
    }
}
