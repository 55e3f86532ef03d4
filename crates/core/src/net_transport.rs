//! Transport-agnostic, checksummed frame protocol for the sweep control
//! plane.
//!
//! Local worker processes ([`crate::workers`]) and the distributed sweep
//! daemon ([`crate::daemon`]) speak the same protocol: text payloads in
//! length-prefixed, checksummed binary frames. This module owns that layer
//! once — [`FrameTransport`] abstracts *where* the bytes go, with two
//! implementations:
//!
//! * [`PipeTransport`] — the stdin/stdout pipes of a local worker process
//!   (the `--workers N` path);
//! * [`TcpTransport`] — a socket to a remote worker or daemon, with read
//!   deadlines so a silent peer is detected instead of hanging the sweep.
//!
//! ## Wire format
//!
//! ```text
//! u32 LE payload length | u32 LE checksum | payload bytes
//! ```
//!
//! The checksum is the first four bytes of the payload's SHA-256 (the same
//! in-tree SHA-256 the result store keys on, [`crate::store::sha256`]). A
//! frame that is truncated, oversized, or fails its checksum surfaces as a
//! typed [`FrameError`] carrying the peer context — never a panic, never a
//! silent hang, and convertible into [`RunError::Remote`] for the sweep's
//! failure accounting.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::store::sha256;
use crate::supervise::RunError;

/// Reject frames above this size: a corrupted length prefix must not make
/// the reader attempt a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 256 << 20;

/// Bytes of framing overhead per frame (length prefix + checksum).
pub const FRAME_HEADER: usize = 8;

/// The first four bytes of the payload's SHA-256, as the frame checksum.
pub fn frame_checksum(payload: &[u8]) -> u32 {
    let digest = sha256(payload);
    u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]])
}

/// Encodes one payload into its on-wire bytes (header plus payload).
/// Payloads above [`MAX_FRAME`] are a caller bug and are truncated-checked
/// at send time via [`FrameError::Oversized`].
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Why a frame could not be sent or received. Every variant carries the
/// peer `context` (who we were talking to) so a control-plane failure in a
/// many-worker sweep names its connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended inside a frame (mid-header or mid-payload) — the
    /// peer died or the connection was cut while a frame was in flight.
    Truncated {
        /// The peer the frame came from.
        context: String,
        /// What was being read when the stream ended.
        detail: String,
    },
    /// The length prefix exceeds [`MAX_FRAME`] — a corrupt or hostile
    /// header, refused before any allocation.
    Oversized {
        /// The peer the frame came from.
        context: String,
        /// The claimed payload length.
        len: u64,
    },
    /// The payload did not match its checksum — corruption in flight.
    ChecksumMismatch {
        /// The peer the frame came from.
        context: String,
        /// The checksum the header claimed.
        expected: u32,
        /// The checksum the payload actually hashes to.
        found: u32,
    },
    /// A read deadline expired with no frame (and no heartbeat) — the
    /// liveness signal for a silent peer.
    TimedOut {
        /// The peer that went silent.
        context: String,
    },
    /// Any other I/O failure on the transport.
    Io {
        /// The peer involved.
        context: String,
        /// The underlying error, as text.
        message: String,
    },
}

impl FrameError {
    /// Stable lowercase tag for each variant; all are prefixed `frame-` so
    /// control-plane failures are recognizable in sweep failure listings.
    pub fn kind(&self) -> &'static str {
        match self {
            FrameError::Truncated { .. } => "frame-truncated",
            FrameError::Oversized { .. } => "frame-oversized",
            FrameError::ChecksumMismatch { .. } => "frame-checksum",
            FrameError::TimedOut { .. } => "frame-timeout",
            FrameError::Io { .. } => "frame-io",
        }
    }

    /// True when the error is the liveness deadline expiring (the caller
    /// usually requeues the in-flight point and drops the connection).
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::TimedOut { .. })
    }

    /// Converts into the sweep's typed failure: a [`RunError::Remote`]
    /// whose kind is the frame-error tag and whose message carries the
    /// offending frame's context.
    pub fn to_run_error(&self) -> RunError {
        RunError::Remote {
            kind: self.kind().to_string(),
            message: self.to_string(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { context, detail } => {
                write!(f, "{context}: frame truncated ({detail})")
            }
            FrameError::Oversized { context, len } => write!(
                f,
                "{context}: frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
            ),
            FrameError::ChecksumMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "{context}: frame checksum mismatch (header {expected:08x}, \
                 payload hashes to {found:08x})"
            ),
            FrameError::TimedOut { context } => {
                write!(f, "{context}: no frame within the read deadline")
            }
            FrameError::Io { context, message } => write!(f, "{context}: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn map_io(context: &str, e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut {
            context: context.to_string(),
        },
        io::ErrorKind::UnexpectedEof => FrameError::Truncated {
            context: context.to_string(),
            detail: "EOF inside a frame".to_string(),
        },
        _ => FrameError::Io {
            context: context.to_string(),
            message: e.to_string(),
        },
    }
}

// ---------------------------------------------------------------------------
// Raw frame I/O over any Read/Write
// ---------------------------------------------------------------------------

/// Writes one encoded frame and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8], context: &str) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::Oversized {
            context: context.to_string(),
            len: payload.len() as u64,
        });
    }
    let bytes = encode_frame(payload);
    w.write_all(&bytes).map_err(|e| map_io(context, e))?;
    w.flush().map_err(|e| map_io(context, e))
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary (the
/// shutdown signal), a typed [`FrameError`] on truncation mid-frame, an
/// oversized length, a checksum mismatch, or any transport failure.
pub fn read_frame(r: &mut impl Read, context: &str) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; FRAME_HEADER];
    let mut filled = 0;
    while filled < FRAME_HEADER {
        let n = r.read(&mut header[filled..]).map_err(|e| map_io(context, e))?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(FrameError::Truncated {
                context: context.to_string(),
                detail: format!("EOF after {filled} of {FRAME_HEADER} header bytes"),
            });
        }
        filled += n;
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            context: context.to_string(),
            len: len as u64,
        });
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        let n = r
            .read(&mut payload[got..])
            .map_err(|e| map_io(context, e))?;
        if n == 0 {
            return Err(FrameError::Truncated {
                context: context.to_string(),
                detail: format!("EOF after {got} of {len} payload bytes"),
            });
        }
        got += n;
    }
    let found = frame_checksum(&payload);
    if found != expected {
        return Err(FrameError::ChecksumMismatch {
            context: context.to_string(),
            expected,
            found,
        });
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// The transport trait
// ---------------------------------------------------------------------------

/// One end of a frame-protocol connection. Implementations carry the peer
/// label so every error names its connection, and may support read
/// deadlines (the TCP transport does; pipes do not). Not `Send`-bound —
/// the worker's stdio-lock transport is single-threaded; code that moves
/// a transport across threads adds the bound itself.
pub trait FrameTransport {
    /// Writes already-encoded wire bytes (a full frame, or — under chaos
    /// injection — a deliberately mangled one) and flushes.
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), FrameError>;

    /// Reads one frame; `Ok(None)` is a clean EOF at a frame boundary.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, FrameError>;

    /// Sets the read deadline for subsequent [`recv`](Self::recv) calls;
    /// `None` blocks forever. Transports without deadline support (pipes)
    /// accept the call and ignore it.
    fn set_read_deadline(&mut self, deadline: Option<Duration>) -> Result<(), FrameError>;

    /// The peer label used in error context.
    fn peer(&self) -> &str;

    /// Encodes and sends one payload frame.
    fn send(&mut self, payload: &[u8]) -> Result<(), FrameError> {
        if payload.len() > MAX_FRAME {
            return Err(FrameError::Oversized {
                context: self.peer().to_string(),
                len: payload.len() as u64,
            });
        }
        self.send_bytes(&encode_frame(payload))
    }

    /// Sends one UTF-8 text payload.
    fn send_text(&mut self, text: &str) -> Result<(), FrameError> {
        self.send(text.as_bytes())
    }

    /// Receives one frame and decodes it as UTF-8 text; `Ok(None)` on
    /// clean EOF, [`FrameError::Io`] on non-UTF-8 payloads.
    fn recv_text(&mut self) -> Result<Option<String>, FrameError> {
        match self.recv()? {
            None => Ok(None),
            Some(bytes) => String::from_utf8(bytes).map(Some).map_err(|_| FrameError::Io {
                context: self.peer().to_string(),
                message: "non-UTF-8 frame payload".to_string(),
            }),
        }
    }
}

/// The frame protocol over a pair of byte streams — the stdin/stdout pipes
/// between the sweep driver and a local worker process. Read deadlines are
/// not supported (anonymous pipes have no timeout mechanism); local
/// workers rely on process supervision instead.
pub struct PipeTransport<R: Read, W: Write> {
    reader: R,
    writer: W,
    peer: String,
}

impl<R: Read, W: Write> PipeTransport<R, W> {
    /// Wraps a read/write pair under the given peer label.
    pub fn new(reader: R, writer: W, peer: impl Into<String>) -> Self {
        PipeTransport {
            reader,
            writer,
            peer: peer.into(),
        }
    }
}

impl<R: Read, W: Write> FrameTransport for PipeTransport<R, W> {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        self.writer
            .write_all(bytes)
            .and_then(|()| self.writer.flush())
            .map_err(|e| map_io(&self.peer, e))
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        read_frame(&mut self.reader, &self.peer)
    }

    fn set_read_deadline(&mut self, _deadline: Option<Duration>) -> Result<(), FrameError> {
        Ok(())
    }

    fn peer(&self) -> &str {
        &self.peer
    }
}

/// The frame protocol over a TCP connection, with read deadlines mapped to
/// `SO_RCVTIMEO` — the daemon's liveness detection and the workers'
/// partition detection both hang off [`FrameError::TimedOut`].
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
}

impl TcpTransport {
    /// Wraps a connected stream; the peer label defaults to the remote
    /// address (falling back to a placeholder when unavailable).
    pub fn new(stream: TcpStream) -> TcpTransport {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp-peer".to_string());
        TcpTransport { stream, peer }
    }

    /// Overrides the peer label (e.g. `"daemon 127.0.0.1:9000"`).
    pub fn with_peer(mut self, peer: impl Into<String>) -> TcpTransport {
        self.peer = peer.into();
        self
    }
}

impl FrameTransport for TcpTransport {
    fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), FrameError> {
        self.stream
            .write_all(bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| map_io(&self.peer, e))
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        read_frame(&mut self.stream, &self.peer)
    }

    fn set_read_deadline(&mut self, deadline: Option<Duration>) -> Result<(), FrameError> {
        self.stream
            .set_read_timeout(deadline)
            .map_err(|e| map_io(&self.peer, e))
    }

    fn peer(&self) -> &str {
        &self.peer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_with_checksums() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame", "test").expect("write");
        write_frame(&mut buf, b"", "test").expect("write empty");
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, "test").expect("read").as_deref(),
            Some(&b"hello frame"[..])
        );
        assert_eq!(
            read_frame(&mut cursor, "test").expect("read").as_deref(),
            Some(&b""[..])
        );
        assert_eq!(read_frame(&mut cursor, "test").expect("eof").as_deref(), None);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes", "test").expect("write");
        // Cut at every byte boundary inside the frame: header cuts and
        // payload cuts must all surface as Truncated, never hang or panic.
        for cut in 1..buf.len() {
            let mut cursor = Cursor::new(buf[..cut].to_vec());
            let err = read_frame(&mut cursor, "test").expect_err("truncated frame");
            assert_eq!(err.kind(), "frame-truncated", "cut={cut}: {err}");
            assert!(err.to_string().contains("test"), "context kept: {err}");
        }
    }

    #[test]
    fn oversized_lengths_are_refused_before_allocation() {
        let mut huge = (u32::MAX).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 4]);
        huge.extend_from_slice(b"x");
        let err = read_frame(&mut Cursor::new(huge), "test").expect_err("oversized");
        assert_eq!(err.kind(), "frame-oversized");
    }

    #[test]
    fn corrupted_payloads_fail_their_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"corrupt me please", "test").expect("write");
        for flip in FRAME_HEADER..buf.len() {
            let mut bad = buf.clone();
            bad[flip] ^= 0x40;
            let err = read_frame(&mut Cursor::new(bad), "test").expect_err("corrupt");
            assert_eq!(err.kind(), "frame-checksum", "flip={flip}");
        }
        // Flipping a checksum byte itself also fails.
        let mut bad = buf.clone();
        bad[5] ^= 1;
        assert!(read_frame(&mut Cursor::new(bad), "test").is_err());
    }

    #[test]
    fn frame_errors_convert_to_remote_run_errors() {
        let err = FrameError::ChecksumMismatch {
            context: "worker 127.0.0.1:5000".to_string(),
            expected: 0xdead_beef,
            found: 0x1234_5678,
        };
        let run = err.to_run_error();
        assert_eq!(run.kind(), "remote");
        let text = run.to_string();
        assert!(text.contains("127.0.0.1:5000"), "{text}");
        assert!(text.contains("deadbeef"), "{text}");
        match run {
            RunError::Remote { kind, .. } => assert_eq!(kind, "frame-checksum"),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn pipe_transport_round_trips() {
        let mut wire = Vec::new();
        {
            let mut tx = PipeTransport::new(Cursor::new(Vec::new()), &mut wire, "tx");
            tx.send_text("ready 2").expect("send");
            tx.send(b"binary \x00 payload").expect("send");
        }
        let mut rx = PipeTransport::new(Cursor::new(wire), Vec::new(), "rx");
        assert_eq!(rx.recv_text().expect("recv").as_deref(), Some("ready 2"));
        assert_eq!(
            rx.recv().expect("recv").as_deref(),
            Some(&b"binary \x00 payload"[..])
        );
        assert_eq!(rx.recv().expect("eof"), None);
    }

    #[test]
    fn tcp_transport_deadline_times_out_cleanly() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let server = std::thread::spawn(move || {
            // Accept and hold the connection open, sending nothing.
            let (stream, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(400));
            drop(stream);
        });
        let stream = TcpStream::connect(addr).expect("connect loopback");
        let mut t = TcpTransport::new(stream);
        t.set_read_deadline(Some(Duration::from_millis(50)))
            .expect("deadline supported");
        let err = t.recv().expect_err("silent peer times out");
        assert!(err.is_timeout(), "{err}");
        server.join().expect("server thread");
    }
}
