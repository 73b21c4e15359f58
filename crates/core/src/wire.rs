//! Length-prefixed request/response codec for the serving daemon.
//!
//! `bnnkc serve` speaks a deliberately tiny binary protocol instead of
//! HTTP: every message is one **frame** —
//!
//! ```text
//! +-------+---------+------+-------------+----------+-------------+
//! | magic | version | kind | payload len | payload  | checksum    |
//! | BKWF  | u8 (=1) | u8   | u32 LE      | len bytes| u64 LE      |
//! +-------+---------+------+-------------+----------+-------------+
//! ```
//!
//! The checksum is the folded [`bkh128`](crate::digest) digest of every
//! byte before it (magic, version, kind, length, payload), so any
//! single-byte corruption anywhere in a frame is *detected*, never
//! silently misparsed — the same guarantee the v3 container format gives
//! shipped model files, extended to the serving socket. The payload
//! length is validated against [`MAX_PAYLOAD`] **before** any buffer is
//! sized from it, so a corrupted length field cannot trigger a huge
//! allocation.
//!
//! Decoding is strict: unknown kinds, non-UTF-8 strings, shape/count
//! mismatches, and trailing bytes are all typed [`WireError`]s. The
//! decoder never panics on attacker-controlled bytes (the wire fuzz
//! suite sweeps every single-byte mutation and every truncation).
//!
//! The protocol is versioned by the header byte: a frame from a future
//! incompatible protocol fails with [`WireError::UnsupportedVersion`]
//! instead of misparsing.

use crate::digest::Digest;
use std::fmt;
use std::io::{Read, Write};

/// Frame magic: the first four bytes of every wire frame.
pub const MAGIC: [u8; 4] = *b"BKWF";
/// Current protocol version carried in the frame header.
pub const VERSION: u8 = 1;
/// Hard cap on a frame's payload length (16 MiB). Enforced before any
/// allocation is sized from the length field.
pub const MAX_PAYLOAD: usize = 1 << 24;
/// Fixed frame header size: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 10;
/// Fixed frame trailer size: the u64 checksum.
pub const TRAILER_LEN: usize = 8;

/// Typed decode/validation errors. Every malformed frame maps to one of
/// these — the decoder has no panicking paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header's version byte is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte names no known message (or a response kind arrived
    /// where a request was expected, and vice versa).
    UnknownKind(u8),
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs to be complete.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The length field exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The claimed payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The stored checksum does not match the frame bytes.
    ChecksumMismatch {
        /// Checksum the frame carries.
        stored: u64,
        /// Checksum the bytes actually have.
        computed: u64,
    },
    /// The payload is structurally invalid for its kind.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: payload claims {len} bytes, max {max}")
            }
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Reading a frame from a byte stream: transport failure or a malformed
/// frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The bytes read do not form a valid frame.
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "wire transport error: {e}"),
            FrameError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Typed rejection codes an [`Response::Err`] frame carries. The hot
/// ones ([`ErrorCode::QueueFull`], [`ErrorCode::ShuttingDown`]) are what
/// the daemon's backpressure and drain paths answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The model's request queue is at its configured depth; retry later.
    QueueFull = 1,
    /// No registry entry has the requested name.
    UnknownModel = 2,
    /// The request's input shape does not match the model.
    BadInput = 3,
    /// The daemon is draining; no new requests are accepted.
    ShuttingDown = 4,
    /// A hot-swap container is arch/scale-incompatible with the entry.
    Incompatible = 5,
    /// Any other server-side failure.
    Internal = 6,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::QueueFull,
            2 => ErrorCode::UnknownModel,
            3 => ErrorCode::BadInput,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Incompatible,
            6 => ErrorCode::Internal,
            _ => return Err(WireError::Malformed("unknown error code")),
        })
    }

    /// Stable lowercase name (what `loadgen` prints in rejection counts).
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::BadInput => "bad-input",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Incompatible => "incompatible",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One inference request: a single `[1, c, h, w]` input for a named
/// registry entry. `seq` is an opaque client token echoed back in the
/// matching [`Response::Logits`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Registry entry name.
    pub model: String,
    /// Client-chosen sequence token, echoed in the response.
    pub seq: u64,
    /// Input shape as `[channels, height, width]`.
    pub shape: [u32; 3],
    /// Row-major input data, exactly `c*h*w` values.
    pub data: Vec<f32>,
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Run one input through a registered model.
    Infer(InferRequest),
    /// Fetch daemon counters and the model list.
    Stats,
    /// Hot-swap a registry entry with the container at `path` (a path
    /// visible to the daemon).
    Swap {
        /// Registry entry to replace.
        model: String,
        /// Daemon-side path of the replacement `.bkcm` container.
        path: String,
    },
    /// Drain and stop the daemon.
    Shutdown,
}

/// Per-model registry facts reported by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registry entry name.
    pub name: String,
    /// Monotonic version, bumped by every hot-swap.
    pub version: u32,
    /// Input channels.
    pub channels: u32,
    /// Input image side.
    pub image: u32,
    /// Logit count.
    pub classes: u32,
    /// Requests queued right now.
    pub queued: u32,
    /// Backpressure threshold.
    pub queue_depth: u32,
    /// Coalescing cap the batch worker flushes at.
    pub max_batch: u32,
}

/// Daemon counters and registry contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsReport {
    /// Requests answered with logits.
    pub served: u64,
    /// `forward_batch_into` calls issued.
    pub batches: u64,
    /// Requests rejected by backpressure.
    pub rejected: u64,
    /// Hot-swaps applied.
    pub swaps: u64,
    /// Registered models.
    pub models: Vec<ModelInfo>,
    /// Batch-size histogram as `(size, count)` pairs, ascending by size,
    /// zero counts omitted.
    pub batch_hist: Vec<(u32, u64)>,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Successful inference.
    Logits {
        /// The request's sequence token.
        seq: u64,
        /// Model version that served this request (hot-swap provenance).
        version: u32,
        /// The logits.
        data: Vec<f32>,
    },
    /// Typed rejection.
    Err {
        /// Machine-readable rejection class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// A hot-swap succeeded; the entry now serves `version`.
    Swapped {
        /// The new monotonic version.
        version: u32,
    },
    /// Shutdown acknowledged; the daemon is draining.
    Closing,
}

// Frame kinds. Requests have the high bit clear, responses set, so a
// transplanted response frame can never decode as a request.
const K_PING: u8 = 0x01;
const K_INFER: u8 = 0x02;
const K_STATS: u8 = 0x03;
const K_SWAP: u8 = 0x04;
const K_SHUTDOWN: u8 = 0x05;
const K_PONG: u8 = 0x81;
const K_LOGITS: u8 = 0x82;
const K_ERR: u8 = 0x83;
const K_STATS_REPORT: u8 = 0x84;
const K_SWAPPED: u8 = 0x85;
const K_CLOSING: u8 = 0x86;

/// The frame checksum: the leading 64 bits of the `bkh128` digest of
/// everything before the trailer.
pub fn checksum(frame_body: &[u8]) -> u64 {
    let d = Digest::of(frame_body);
    u64::from_le_bytes(d.as_bytes()[..8].try_into().expect("8 bytes"))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

/// Write one frame: header, payload from `write_payload`, checksum.
/// `out` is cleared first and holds exactly the frame afterwards.
fn encode_frame(kind: u8, out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&[0u8; 4]);
    let start = out.len();
    write_payload(out);
    let len = (out.len() - start) as u32;
    out[6..10].copy_from_slice(&len.to_le_bytes());
    let sum = checksum(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Encode a request into `out` (cleared first).
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Ping => encode_frame(K_PING, out, |_| {}),
        Request::Infer(r) => encode_frame(K_INFER, out, |p| {
            put_str(p, &r.model);
            p.extend_from_slice(&r.seq.to_le_bytes());
            for d in r.shape {
                p.extend_from_slice(&d.to_le_bytes());
            }
            p.extend_from_slice(&(r.data.len() as u32).to_le_bytes());
            for v in &r.data {
                p.extend_from_slice(&v.to_le_bytes());
            }
        }),
        Request::Stats => encode_frame(K_STATS, out, |_| {}),
        Request::Swap { model, path } => encode_frame(K_SWAP, out, |p| {
            put_str(p, model);
            put_str(p, path);
        }),
        Request::Shutdown => encode_frame(K_SHUTDOWN, out, |_| {}),
    }
}

/// Encode a response into `out` (cleared first).
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Pong => encode_frame(K_PONG, out, |_| {}),
        Response::Logits { seq, version, data } => encode_frame(K_LOGITS, out, |p| {
            p.extend_from_slice(&seq.to_le_bytes());
            p.extend_from_slice(&version.to_le_bytes());
            p.extend_from_slice(&(data.len() as u32).to_le_bytes());
            for v in data {
                p.extend_from_slice(&v.to_le_bytes());
            }
        }),
        Response::Err { code, message } => encode_frame(K_ERR, out, |p| {
            p.push(*code as u8);
            put_str(p, message);
        }),
        Response::Stats(s) => encode_frame(K_STATS_REPORT, out, |p| {
            p.extend_from_slice(&s.served.to_le_bytes());
            p.extend_from_slice(&s.batches.to_le_bytes());
            p.extend_from_slice(&s.rejected.to_le_bytes());
            p.extend_from_slice(&s.swaps.to_le_bytes());
            p.extend_from_slice(&(s.models.len() as u16).to_le_bytes());
            for m in &s.models {
                put_str(p, &m.name);
                for v in [
                    m.version,
                    m.channels,
                    m.image,
                    m.classes,
                    m.queued,
                    m.queue_depth,
                    m.max_batch,
                ] {
                    p.extend_from_slice(&v.to_le_bytes());
                }
            }
            p.extend_from_slice(&(s.batch_hist.len() as u16).to_le_bytes());
            for &(size, count) in &s.batch_hist {
                p.extend_from_slice(&size.to_le_bytes());
                p.extend_from_slice(&count.to_le_bytes());
            }
        }),
        Response::Swapped { version } => encode_frame(K_SWAPPED, out, |p| {
            p.extend_from_slice(&version.to_le_bytes());
        }),
        Response::Closing => encode_frame(K_CLOSING, out, |_| {}),
    }
}

/// Strict little-endian payload reader. Every underrun and every
/// leftover byte is a typed error.
struct Rd<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Rd { b, off: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .off
            .checked_add(n)
            .ok_or(WireError::Malformed("length overflow"))?;
        if end > self.b.len() {
            return Err(WireError::Malformed("payload underrun"));
        }
        let s = &self.b[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    /// `count` f32s. The count was validated against the remaining
    /// payload *before* this reserves anything.
    fn f32s(&mut self, count: usize) -> Result<Vec<f32>, WireError> {
        let raw = self.bytes(
            count
                .checked_mul(4)
                .ok_or(WireError::Malformed("f32 count overflow"))?,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.off != self.b.len() {
            return Err(WireError::Malformed("trailing payload bytes"));
        }
        Ok(())
    }
}

/// Validate one complete frame and return `(kind, payload)`. Rejects
/// short buffers, bad magic/version, oversized lengths, checksum
/// mismatches, and trailing bytes — in that order, so the length field
/// is sanity-checked before anything is sized from it.
fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        });
    }
    let magic: [u8; 4] = bytes[..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if bytes[4] != VERSION {
        return Err(WireError::UnsupportedVersion(bytes[4]));
    }
    let kind = bytes[5];
    let len = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    let total = HEADER_LEN + len + TRAILER_LEN;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(WireError::Malformed("trailing bytes after frame"));
    }
    let stored = u64::from_le_bytes(bytes[HEADER_LEN + len..].try_into().expect("8 bytes"));
    let computed = checksum(&bytes[..HEADER_LEN + len]);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    Ok((kind, &bytes[HEADER_LEN..HEADER_LEN + len]))
}

/// Decode a complete request frame.
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let (kind, payload) = decode_frame(bytes)?;
    let mut rd = Rd::new(payload);
    let req = match kind {
        K_PING => Request::Ping,
        K_INFER => {
            let model = rd.str()?.to_string();
            let seq = rd.u64()?;
            let shape = [rd.u32()?, rd.u32()?, rd.u32()?];
            let count = rd.u32()? as usize;
            let elems = (shape[0] as u64) * (shape[1] as u64) * (shape[2] as u64);
            if shape.contains(&0) || elems != count as u64 {
                return Err(WireError::Malformed("shape does not match data count"));
            }
            Request::Infer(InferRequest {
                model,
                seq,
                shape,
                data: rd.f32s(count)?,
            })
        }
        K_STATS => Request::Stats,
        K_SWAP => Request::Swap {
            model: rd.str()?.to_string(),
            path: rd.str()?.to_string(),
        },
        K_SHUTDOWN => Request::Shutdown,
        other => return Err(WireError::UnknownKind(other)),
    };
    rd.finish()?;
    Ok(req)
}

/// Decode a complete response frame.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let (kind, payload) = decode_frame(bytes)?;
    let mut rd = Rd::new(payload);
    let resp = match kind {
        K_PONG => Response::Pong,
        K_LOGITS => {
            let seq = rd.u64()?;
            let version = rd.u32()?;
            let count = rd.u32()? as usize;
            Response::Logits {
                seq,
                version,
                data: rd.f32s(count)?,
            }
        }
        K_ERR => Response::Err {
            code: ErrorCode::from_u8(rd.u8()?)?,
            message: rd.str()?.to_string(),
        },
        K_STATS_REPORT => {
            let mut s = StatsReport {
                served: rd.u64()?,
                batches: rd.u64()?,
                rejected: rd.u64()?,
                swaps: rd.u64()?,
                ..StatsReport::default()
            };
            let models = rd.u16()? as usize;
            for _ in 0..models {
                let name = rd.str()?.to_string();
                let mut v = [0u32; 7];
                for slot in &mut v {
                    *slot = rd.u32()?;
                }
                s.models.push(ModelInfo {
                    name,
                    version: v[0],
                    channels: v[1],
                    image: v[2],
                    classes: v[3],
                    queued: v[4],
                    queue_depth: v[5],
                    max_batch: v[6],
                });
            }
            let hist = rd.u16()? as usize;
            for _ in 0..hist {
                let size = rd.u32()?;
                let count = rd.u64()?;
                s.batch_hist.push((size, count));
            }
            Response::Stats(s)
        }
        K_SWAPPED => Response::Swapped { version: rd.u32()? },
        K_CLOSING => Response::Closing,
        other => return Err(WireError::UnknownKind(other)),
    };
    rd.finish()?;
    Ok(resp)
}

/// Read one complete frame from `r` into `buf` (cleared first).
///
/// Returns `Ok(false)` on a clean EOF at a frame boundary (the peer
/// closed the connection), `Ok(true)` with the raw frame in `buf`
/// otherwise. The header is validated (magic, version, length cap)
/// before the payload buffer is sized, so a corrupt length field cannot
/// force a large allocation.
///
/// # Errors
///
/// [`FrameError::Io`] for transport failures, [`FrameError::Wire`] for
/// malformed headers or mid-frame EOF. The caller still runs
/// [`decode_request`]/[`decode_response`] over `buf`, which re-checks
/// everything including the checksum.
pub fn read_frame<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<bool, FrameError> {
    buf.clear();
    buf.resize(HEADER_LEN, 0);
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r.read(&mut buf[filled..HEADER_LEN])?;
        if n == 0 {
            if filled == 0 {
                return Ok(false);
            }
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                have: filled,
            }
            .into());
        }
        filled += n;
    }
    let magic: [u8; 4] = buf[..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic).into());
    }
    if buf[4] != VERSION {
        return Err(WireError::UnsupportedVersion(buf[4]).into());
    }
    let len = u32::from_le_bytes(buf[6..10].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len,
            max: MAX_PAYLOAD,
        }
        .into());
    }
    let total = HEADER_LEN + len + TRAILER_LEN;
    buf.resize(total, 0);
    let mut at = HEADER_LEN;
    while at < total {
        let n = r.read(&mut buf[at..total])?;
        if n == 0 {
            return Err(WireError::Truncated {
                needed: total,
                have: at,
            }
            .into());
        }
        at += n;
    }
    Ok(true)
}

/// Write one already-encoded frame to `w`.
///
/// # Errors
///
/// Propagates the transport error.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        assert_eq!(decode_request(&buf).expect("decode"), req);
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        assert_eq!(decode_response(&buf).expect("decode"), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Swap {
            model: "default".into(),
            path: "/tmp/new.bkcm".into(),
        });
        roundtrip_request(Request::Infer(InferRequest {
            model: "m".into(),
            seq: 42,
            shape: [2, 3, 3],
            data: (0..18).map(|i| i as f32 * 0.5 - 3.0).collect(),
        }));
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Closing);
        roundtrip_response(Response::Swapped { version: 7 });
        roundtrip_response(Response::Logits {
            seq: 9,
            version: 2,
            data: vec![0.25, -1.5, f32::MIN_POSITIVE],
        });
        roundtrip_response(Response::Err {
            code: ErrorCode::QueueFull,
            message: "queue at depth 256".into(),
        });
        roundtrip_response(Response::Stats(StatsReport {
            served: 100,
            batches: 10,
            rejected: 3,
            swaps: 1,
            models: vec![ModelInfo {
                name: "default".into(),
                version: 2,
                channels: 3,
                image: 16,
                classes: 7,
                queued: 4,
                queue_depth: 256,
                max_batch: 8,
            }],
            batch_hist: vec![(1, 4), (8, 12)],
        }));
    }

    #[test]
    fn request_response_kinds_do_not_cross() {
        let mut buf = Vec::new();
        encode_request(&Request::Ping, &mut buf);
        assert!(matches!(
            decode_response(&buf),
            Err(WireError::UnknownKind(K_PING))
        ));
        encode_response(&Response::Pong, &mut buf);
        assert!(matches!(
            decode_request(&buf),
            Err(WireError::UnknownKind(K_PONG))
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        encode_request(&Request::Ping, &mut buf);
        buf[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&buf),
            Err(WireError::Oversized { .. })
        ));
        // Stream reader: same rejection before the payload buffer is
        // sized from the corrupt length.
        let mut cursor = std::io::Cursor::new(buf);
        let mut frame = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, &mut frame),
            Err(FrameError::Wire(WireError::Oversized { .. }))
        ));
    }

    #[test]
    fn infer_shape_must_match_count() {
        let mut buf = Vec::new();
        encode_request(
            &Request::Infer(InferRequest {
                model: "m".into(),
                seq: 0,
                shape: [1, 2, 2],
                data: vec![0.0; 4],
            }),
            &mut buf,
        );
        // Corrupt a shape dimension and re-checksum: structural check
        // must still catch it (the checksum only proves transport
        // integrity, not sender honesty).
        let h_at = HEADER_LEN + 2 + 1 + 8 + 4; // name len + "m" + seq + c
        buf[h_at..h_at + 4].copy_from_slice(&3u32.to_le_bytes());
        let body_len = buf.len() - TRAILER_LEN;
        let sum = checksum(&buf[..body_len]);
        buf[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode_request(&buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn stream_read_frames_back_to_back() {
        let mut stream = Vec::new();
        let mut f = Vec::new();
        encode_request(&Request::Ping, &mut f);
        stream.extend_from_slice(&f);
        encode_request(&Request::Stats, &mut f);
        stream.extend_from_slice(&f);
        let mut cursor = std::io::Cursor::new(stream);
        let mut buf = Vec::new();
        assert!(read_frame(&mut cursor, &mut buf).expect("frame 1"));
        assert_eq!(decode_request(&buf).expect("ping"), Request::Ping);
        assert!(read_frame(&mut cursor, &mut buf).expect("frame 2"));
        assert_eq!(decode_request(&buf).expect("stats"), Request::Stats);
        assert!(!read_frame(&mut cursor, &mut buf).expect("clean EOF"));
    }
}
