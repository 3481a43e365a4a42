//! Wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message is a **frame**: a 4-byte little-endian payload length
//! followed by the payload. The first payload byte is a frame tag;
//! the rest is a fixed little-endian layout per frame kind:
//!
//! ```text
//! Request  = 0x01 · k:u32 · algo_len:u8 · algo:[u8] · nterms:u16 · terms:[u32]
//! Response = 0x02 · query_tag:u64 · nhits:u16 · hits:[(doc:u32, score:u64)]
//!            · elapsed_ns:u64 · postings_scanned:u64 · heap_updates:u64
//!            · cleaner_passes:u64
//! Error    = 0x03 · code:u8 · msg_len:u16 · msg:[u8]  (UTF-8)
//! ```
//!
//! Decoding is total: truncated, oversized, or garbage input yields a
//! [`ProtocolError`], never a panic, and `decode(encode(f)) == f` for
//! every well-formed frame (the round-trip tests sweep all three
//! kinds). Payloads are bounded by [`MAX_PAYLOAD`] so a hostile length
//! prefix cannot make the server allocate gigabytes.

use std::io::{Read, Write};

/// Upper bound on a frame payload, in bytes (1 MiB). A request with
/// the maximum 65 535 terms is ~256 KiB; a response carrying 65 535
/// hits is ~800 KiB. Anything larger is a corrupt or hostile prefix.
pub const MAX_PAYLOAD: usize = 1 << 20;

const TAG_REQUEST: u8 = 0x01;
const TAG_RESPONSE: u8 = 0x02;
const TAG_ERROR: u8 = 0x03;

/// Why a frame could not be read or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The stream ended inside a frame (prefix or payload).
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The first payload byte is not a known frame tag.
    UnknownTag(u8),
    /// The payload is structurally invalid for its tag.
    Malformed(&'static str),
    /// The transport failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Closed => write!(f, "connection closed"),
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds {MAX_PAYLOAD}")
            }
            ProtocolError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            ProtocolError::Malformed(why) => write!(f, "malformed frame: {why}"),
            ProtocolError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Server-to-client failure codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control rejected the query (budget and queue full).
    Shed = 1,
    /// The request was syntactically valid but semantically not
    /// servable (k = 0, k beyond the server's cap, …).
    BadRequest = 2,
    /// The requested algorithm name is not registered.
    UnknownAlgorithm = 3,
    /// The query panicked or the server failed internally.
    Internal = 4,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::Shed),
            2 => Some(ErrorCode::BadRequest),
            3 => Some(ErrorCode::UnknownAlgorithm),
            4 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// One top-k query as sent by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Result-set size.
    pub k: u32,
    /// Algorithm name as registered in `sparta-core` ("sparta",
    /// "pnra", "pbmw", "pjass", …).
    pub algorithm: String,
    /// Query term ids.
    pub terms: Vec<u32>,
}

/// Per-query execution summary returned alongside the hits, so load
/// harnesses can attribute latency to work without a second channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// The search's execute stage on the scheduler's clock (wall or
    /// logical), in nanoseconds.
    pub elapsed_ns: u64,
    /// Posting-list entries traversed.
    pub postings_scanned: u64,
    /// Successful heap insertions/updates.
    pub heap_updates: u64,
    /// Cleaner passes executed (Sparta only).
    pub cleaner_passes: u64,
}

/// One scored hit on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireHit {
    /// Document id.
    pub doc: u32,
    /// Integer score.
    pub score: u64,
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: run one query.
    Request(QueryRequest),
    /// Server → client: the query's results.
    Response {
        /// Tag the scheduler stamped on the query's job queue.
        query_tag: u64,
        /// Hits in rank order.
        hits: Vec<WireHit>,
        /// Execution summary.
        summary: TraceSummary,
    },
    /// Server → client: the query was not answered.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Little-endian cursor over a payload; every read is bounds-checked.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(ProtocolError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(ProtocolError::Malformed("payload shorter than declared"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes after frame"))
        }
    }
}

impl Frame {
    /// Encodes the frame payload (everything after the length prefix).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Request(req) => {
                out.push(TAG_REQUEST);
                out.extend_from_slice(&req.k.to_le_bytes());
                let name = req.algorithm.as_bytes();
                assert!(name.len() <= u8::MAX as usize, "algorithm name too long");
                out.push(name.len() as u8);
                out.extend_from_slice(name);
                assert!(req.terms.len() <= u16::MAX as usize, "too many terms");
                out.extend_from_slice(&(req.terms.len() as u16).to_le_bytes());
                for t in &req.terms {
                    out.extend_from_slice(&t.to_le_bytes());
                }
            }
            Frame::Response {
                query_tag,
                hits,
                summary,
            } => {
                out.push(TAG_RESPONSE);
                out.extend_from_slice(&query_tag.to_le_bytes());
                assert!(hits.len() <= u16::MAX as usize, "too many hits");
                out.extend_from_slice(&(hits.len() as u16).to_le_bytes());
                for h in hits {
                    out.extend_from_slice(&h.doc.to_le_bytes());
                    out.extend_from_slice(&h.score.to_le_bytes());
                }
                out.extend_from_slice(&summary.elapsed_ns.to_le_bytes());
                out.extend_from_slice(&summary.postings_scanned.to_le_bytes());
                out.extend_from_slice(&summary.heap_updates.to_le_bytes());
                out.extend_from_slice(&summary.cleaner_passes.to_le_bytes());
            }
            Frame::Error { code, message } => {
                out.push(TAG_ERROR);
                out.push(*code as u8);
                let msg = message.as_bytes();
                let len = msg.len().min(u16::MAX as usize);
                out.extend_from_slice(&(len as u16).to_le_bytes());
                out.extend_from_slice(&msg[..len]);
            }
        }
        debug_assert!(out.len() <= MAX_PAYLOAD);
        out
    }

    /// Encodes the full frame: length prefix plus payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(4 + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a frame payload (everything after the length prefix).
    pub fn decode_payload(payload: &[u8]) -> Result<Frame, ProtocolError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(ProtocolError::Oversized(payload.len() as u32));
        }
        let mut r = Reader::new(payload);
        let tag = r
            .u8()
            .map_err(|_| ProtocolError::Malformed("empty payload"))?;
        let frame = match tag {
            TAG_REQUEST => {
                let k = r.u32()?;
                let name_len = r.u8()? as usize;
                let name = r.take(name_len)?;
                let algorithm = std::str::from_utf8(name)
                    .map_err(|_| ProtocolError::Malformed("algorithm name not UTF-8"))?
                    .to_string();
                let nterms = r.u16()? as usize;
                let mut terms = Vec::with_capacity(nterms);
                for _ in 0..nterms {
                    terms.push(r.u32()?);
                }
                Frame::Request(QueryRequest {
                    k,
                    algorithm,
                    terms,
                })
            }
            TAG_RESPONSE => {
                let query_tag = r.u64()?;
                let nhits = r.u16()? as usize;
                let mut hits = Vec::with_capacity(nhits);
                for _ in 0..nhits {
                    let doc = r.u32()?;
                    let score = r.u64()?;
                    hits.push(WireHit { doc, score });
                }
                let summary = TraceSummary {
                    elapsed_ns: r.u64()?,
                    postings_scanned: r.u64()?,
                    heap_updates: r.u64()?,
                    cleaner_passes: r.u64()?,
                };
                Frame::Response {
                    query_tag,
                    hits,
                    summary,
                }
            }
            TAG_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)
                    .ok_or(ProtocolError::Malformed("unknown error code"))?;
                let msg_len = r.u16()? as usize;
                let msg = r.take(msg_len)?;
                let message = std::str::from_utf8(msg)
                    .map_err(|_| ProtocolError::Malformed("error message not UTF-8"))?
                    .to_string();
                Frame::Error { code, message }
            }
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Read timeouts tolerated *inside* a frame before giving up. Once a
/// frame has started arriving, a timeout means a slow peer, not an
/// idle connection, so we retry — but boundedly, so a peer that hangs
/// mid-frame cannot pin a handler thread forever (with the server's
/// 50 ms poll interval this is ~10 s).
const MID_FRAME_TIMEOUT_RETRIES: usize = 200;

/// Reads exactly `buf.len()` bytes. `Closed` if the stream ends before
/// the first byte and `at_start` is set, `Truncated` if it ends later.
/// A timeout before the first byte of a frame surfaces as `Io` (the
/// server's idle-poll tick); mid-frame timeouts retry up to
/// [`MID_FRAME_TIMEOUT_RETRIES`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], at_start: bool) -> Result<(), ProtocolError> {
    let mut filled = 0;
    let mut timeouts = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_start && filled == 0 {
                    ProtocolError::Closed
                } else {
                    ProtocolError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && !(at_start && filled == 0) =>
            {
                timeouts += 1;
                if timeouts > MID_FRAME_TIMEOUT_RETRIES {
                    return Err(ProtocolError::Truncated);
                }
            }
            Err(e) => return Err(ProtocolError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Reads one full frame from `r`.
///
/// Returns [`ProtocolError::Closed`] on clean EOF between frames, and
/// [`ProtocolError::Truncated`] when the stream dies mid-frame. Read
/// timeouts surface as [`ProtocolError::Io`] with `WouldBlock` /
/// `TimedOut`; callers that poll a shutdown flag treat those as
/// retryable **only** when no prefix byte has arrived yet (the server
/// loop does exactly this).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtocolError> {
    let mut prefix = [0u8; 4];
    read_full(r, &mut prefix, true)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized(len as u32));
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, false)?;
    Frame::decode_payload(&payload)
}

/// Writes one full frame to `w` and flushes it.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}
