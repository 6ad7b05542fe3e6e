//! Length-prefixed binary framing.
//!
//! Every message on the wire is one *frame*: a 4-byte little-endian
//! payload length followed by exactly that many payload bytes. The codec
//! is deliberately strict — a frame longer than [`MAX_FRAME_LEN`] is
//! rejected before any payload is read (a corrupted or hostile length
//! prefix must never make the server allocate or block unboundedly), a
//! short read anywhere is a typed [`FrameError::Truncated`], and a clean
//! EOF *between* frames is the regular end-of-stream signal
//! (`Ok(None)`), never an error.

use std::fmt;
use std::io::{Read, Write};

/// Hard upper bound on a frame payload (16 MiB). A 1024×1024 four-layer
/// state stream is ~16 MB of raw Q16.16 words, so this bounds every
/// message the protocol can legally produce while still rejecting
/// garbage length prefixes immediately.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// The most [`read_frame`] allocates for a payload before its bytes
/// arrive (64 KiB).
const MAX_UPFRONT_ALLOC: usize = 64 << 10;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The stream ended inside a frame (header or payload).
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The advertised payload length.
        len: usize,
    },
    /// The payload bytes do not decode as a protocol message.
    Malformed(String),
    /// A read deadline expired *between* frames (no header byte had
    /// arrived). Distinguished from [`FrameError::Io`] so servers can
    /// treat it as "peer went quiet" (suspend and close) and clients as
    /// "request timed out" (retry), rather than as transport damage.
    IdleTimeout,
}

/// `true` for the error kinds OS read deadlines surface as.
pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame I/O failed: {e}"),
            Self::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            Self::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            Self::Malformed(m) => write!(f, "malformed frame payload: {m}"),
            Self::IdleTimeout => write!(f, "no frame arrived within the read deadline"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes one frame (length prefix + payload).
///
/// # Errors
///
/// [`FrameError::Oversized`] if the payload exceeds [`MAX_FRAME_LEN`];
/// otherwise propagates I/O errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len: payload.len() });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame payload. Returns `Ok(None)` on a clean EOF *before*
/// the first header byte (the peer closed between messages).
///
/// # Errors
///
/// [`FrameError::Truncated`] when the stream ends mid-frame,
/// [`FrameError::Oversized`] for a length prefix past the cap,
/// [`FrameError::IdleTimeout`] when a read deadline expires before the
/// first header byte (mid-frame deadline expiry stays [`FrameError::Io`]
/// — the stream is desynchronized and unusable), and [`FrameError::Io`]
/// for transport failures.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: header.len(),
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if filled == 0 && is_timeout(&e) => return Err(FrameError::IdleTimeout),
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    // The header's length is only a claim: reserve at most
    // `MAX_UPFRONT_ALLOC` and let the buffer grow as payload bytes
    // arrive, so a lying prefix costs what the peer actually sends.
    let mut payload = Vec::with_capacity(len.min(MAX_UPFRONT_ALLOC));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(FrameError::Truncated {
            expected: len,
            got: payload.len(),
        });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_including_empty() {
        // The last payload outgrows the up-front reservation.
        let big = vec![5u8; 3 * MAX_UPFRONT_ALLOC + 7];
        for payload in [&b""[..], b"x", b"hello frames", &[0u8; 4096], &big] {
            let mut buf = Vec::new();
            write_frame(&mut buf, payload).unwrap();
            let mut cursor = &buf[..];
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), payload);
            assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        }
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut buf = Vec::new();
        for p in [b"one".as_slice(), b"two", b"three"] {
            write_frame(&mut buf, p).unwrap();
        }
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"two");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"three");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncation_is_typed_everywhere() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in [1, 3, 4, 6, buf.len() - 1] {
            let mut cursor = &buf[..cut];
            assert!(
                matches!(read_frame(&mut cursor), Err(FrameError::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn timeout_before_header_is_idle_but_mid_frame_is_io() {
        /// Yields its bytes, then times out like a socket with a
        /// read deadline.
        struct TimesOut(std::collections::VecDeque<u8>);
        impl Read for TimesOut {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "deadline",
                    ));
                }
                let n = out.len().min(self.0.len());
                for slot in out.iter_mut().take(n) {
                    *slot = self.0.pop_front().unwrap();
                }
                Ok(n)
            }
        }
        let mut idle = TimesOut([].into());
        assert!(matches!(
            read_frame(&mut idle),
            Err(FrameError::IdleTimeout)
        ));
        let mut mid_header = TimesOut([7u8, 0].into());
        assert!(matches!(
            read_frame(&mut mid_header),
            Err(FrameError::Io(_))
        ));
        let mut mid_payload = TimesOut([2u8, 0, 0, 0, b'x'].into());
        assert!(matches!(
            read_frame(&mut mid_payload),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Oversized { .. })
        ));
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), &big),
            Err(FrameError::Oversized { .. })
        ));
    }
}
