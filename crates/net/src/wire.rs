//! The SESR wire protocol: compact length-prefixed binary frames.
//!
//! Every frame starts with a fixed 12-byte header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SESR" (0x53 0x45 0x53 0x52)
//! 4       1     version (currently 2)
//! 5       1     frame kind (1=request, 2=response, 3=stats, 4=stats reply,
//!               5=reload, 6=reload reply)
//! 6       2     reserved, must be zero
//! 8       4     payload length, u32 LE (bounded by the decoder's max)
//! 12      …     payload
//! ```
//!
//! Integers are little-endian throughout; tensors travel as
//! `rank:u8, dims:u32×rank, data:f32×∏dims`. The decoder is a pure
//! bounds-checked cursor over the input slice: malformed input — bad magic,
//! unsupported version, oversized or short payloads, dimension overflow,
//! non-UTF-8 route labels — is rejected with a typed [`WireError`] and can
//! never panic or read past the buffer. A frame split across TCP segments
//! reports [`FrameDecode::Incomplete`] so a streaming caller knows to wait
//! for more bytes rather than treat the prefix as an error.
//!
//! [`decode`] is [`decode_ref`] plus tensor conversion: `decode_ref` makes
//! every check and leaves a request's image ([`EncodedTensor`]) or a whole
//! response ([`ResponseFrame`]) in its wire encoding, so a tier that only
//! relays them forwards the checked bytes without converting anything.

use sesr_serve::ArtifactId;
use sesr_tensor::{Shape, Tensor};

/// Frame magic: `"SESR"`.
pub const MAGIC: [u8; 4] = *b"SESR";
/// Current protocol version; the only one this build speaks. Version 2
/// changed no frame layout, only the function behind a request's
/// [`content_hash`](WireRequest::content_hash) claim (version 1 claimed a
/// byte-wise FNV-1a 64), so a peer of the other version is refused by name
/// instead of failing every integrity check.
pub const VERSION: u8 = 2;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 12;
/// Default upper bound on a frame payload (16 MiB) — frames claiming more
/// are rejected before any allocation happens.
pub const DEFAULT_MAX_PAYLOAD: usize = 16 * 1024 * 1024;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_STATS_REPLY: u8 = 4;
const KIND_RELOAD: u8 = 5;
const KIND_RELOAD_REPLY: u8 = 6;

/// Response status bytes on the wire.
const STATUS_OK: u8 = 0;
const STATUS_RETRY_AFTER: u8 = 1;
const STATUS_DEADLINE: u8 = 2;
const STATUS_UNKNOWN_ROUTE: u8 = 3;
const STATUS_INVALID: u8 = 4;
const STATUS_PIPELINE: u8 = 5;
const STATUS_CLOSED: u8 = 6;

/// Typed decode failure. Every variant names what was wrong; none of them
/// can be produced by a merely *incomplete* buffer (that is
/// [`FrameDecode::Incomplete`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not `"SESR"`.
    BadMagic([u8; 4]),
    /// The version byte names a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// The frame-kind byte is not one this protocol defines.
    UnknownFrameKind(u8),
    /// The reserved header bytes were non-zero.
    NonZeroReserved,
    /// The header claims a payload larger than the decoder's bound.
    Oversized {
        /// Claimed payload length.
        claimed: usize,
        /// The decoder's configured maximum.
        max: usize,
    },
    /// The payload ended before the structure it claims to carry (the
    /// context names the field being read).
    Truncated(&'static str),
    /// The payload carries trailing bytes past its own structure.
    TrailingBytes(usize),
    /// A structurally invalid field (context explains which).
    Malformed(&'static str),
    /// A route label that is not UTF-8.
    BadLabel,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(bytes) => write!(f, "bad frame magic {bytes:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {VERSION})"
                )
            }
            WireError::UnknownFrameKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::NonZeroReserved => write!(f, "reserved header bytes must be zero"),
            WireError::Oversized { claimed, max } => {
                write!(
                    f,
                    "frame payload of {claimed} bytes exceeds the {max}-byte bound"
                )
            }
            WireError::Truncated(context) => write!(f, "payload truncated while reading {context}"),
            WireError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes past the payload structure")
            }
            WireError::Malformed(context) => write!(f, "malformed field: {context}"),
            WireError::BadLabel => write!(f, "route label is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a request was told to come back later instead of being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryReason {
    /// The route's bounded queue was full, or the route was shed as
    /// Unhealthy by the SLO layer before queueing.
    Overloaded,
    /// The client exhausted its token bucket.
    RateLimited,
    /// The route is Unhealthy and the gateway is shedding its load.
    Unhealthy,
}

impl RetryReason {
    fn as_u8(self) -> u8 {
        match self {
            RetryReason::Overloaded => 0,
            RetryReason::RateLimited => 1,
            RetryReason::Unhealthy => 2,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(RetryReason::Overloaded),
            1 => Some(RetryReason::RateLimited),
            2 => Some(RetryReason::Unhealthy),
            _ => None,
        }
    }
}

/// One request as it travels the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed verbatim in the response —
    /// responses may complete out of order (cache hits, different routes).
    pub id: u64,
    /// Route label (e.g. `"sesr-m2:x2:jpeg75+wavelet2"`); empty means the
    /// gateway's default route.
    pub route: String,
    /// Soft deadline in milliseconds from server receipt; 0 = none. A
    /// request still queued when it expires is answered
    /// `DeadlineExceeded`, never defended late.
    pub deadline_ms: u32,
    /// Bypass the server's output cache for this request.
    pub skip_cache: bool,
    /// 64-bit content hash of the image (shape + data, as
    /// [`sesr_serve::content_hash`] computes it, word at a time). The server
    /// recomputes it once — the same value keys its output cache — and
    /// rejects mismatches, so it doubles as a payload integrity check
    /// against corruption (not against a sender crafting collisions).
    pub content_hash: u64,
    /// The `[1, C, H, W]` image to defend.
    pub image: Tensor,
}

/// What a response says, separated from its correlation id.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// The defense ran (or was served from cache).
    Ok {
        /// Served from the LRU cache without recomputing.
        cache_hit: bool,
        /// Predicted label when the route's workers carry a classifier.
        label: Option<u64>,
        /// The defended image.
        defended: Tensor,
    },
    /// Load was shed; come back after the hinted delay. This is the
    /// structured alternative to dropping the connection.
    RetryAfter {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
        /// Why the request was shed.
        reason: RetryReason,
    },
    /// The deadline passed before a worker reached the request.
    DeadlineExceeded,
    /// The request named a route the server does not serve.
    UnknownRoute(String),
    /// The request was malformed (bad shape, hash mismatch, …).
    InvalidRequest(String),
    /// The defense pipeline failed.
    PipelineError(String),
    /// The serving gateway is shutting down.
    Closed,
}

/// One response frame: the request's correlation id plus the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Echo of [`WireRequest::id`].
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
}

/// Every frame this protocol defines.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A defense request.
    Request(WireRequest),
    /// The answer to a request.
    Response(WireResponse),
    /// Ask the server for its telemetry snapshot.
    Stats {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
    /// The server's telemetry snapshot as JSON text.
    StatsReply {
        /// Echo of the stats request id.
        id: u64,
        /// `TelemetrySnapshot::to_json()` output.
        json: String,
    },
    /// Ask the server to hot-reload a route's model weights from its store.
    /// The cluster supervisor sends this, pinned, to every member when its
    /// promotion policy promotes or rolls back an artifact, so every member
    /// builds exactly the artifact the policy chose.
    ///
    /// Payload: `id:u64, route:string, pinned:u8` (0 or 1), then
    /// `version:u32, digest:u64` when pinned.
    Reload {
        /// Correlation id, echoed in the reply.
        id: u64,
        /// Route label to reload; empty means every reloadable route.
        route: String,
        /// The stored `(version, digest)` to build; `None` builds the
        /// newest. A pin names one route's artifact, so it needs a label.
        pin: Option<ArtifactId>,
    },
    /// The outcome of a [`Frame::Reload`].
    ReloadReply {
        /// Echo of the reload request id.
        id: u64,
        /// Whether the reload (or its scheduling) succeeded.
        ok: bool,
        /// Human-readable detail: what reloaded, or why it failed.
        message: String,
    },
}

/// Outcome of a streaming decode attempt: [`decode`] yields owned
/// [`Frame`]s, [`decode_ref`] yields [`FrameRef`]s borrowing the buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameDecode<F = Frame> {
    /// Not enough bytes for a whole frame yet; `needed` is the total buffer
    /// length at which another attempt can make progress.
    Incomplete {
        /// Total bytes needed (header + claimed payload once known).
        needed: usize,
    },
    /// One whole frame, and how many buffer bytes it consumed.
    Complete {
        /// The decoded frame.
        frame: F,
        /// Bytes consumed from the front of the buffer.
        consumed: usize,
    },
}

/// A tensor in its wire encoding (`rank:u8, dims:u32×rank,
/// data:f32×∏dims`) whose rank, dims and byte length have been checked.
/// A tier that only relays an image forwards these bytes untouched; the
/// tier that runs it converts them once with [`EncodedTensor::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTensor {
    bytes: Vec<u8>,
}

impl EncodedTensor {
    /// Encode `tensor`.
    pub fn encode(tensor: &Tensor) -> EncodedTensor {
        let mut bytes = Vec::with_capacity(tensor_len(tensor));
        push_tensor(&mut bytes, tensor);
        EncodedTensor { bytes }
    }

    /// Convert to a tensor.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] if the tensor library refuses the shape.
    pub fn decode(&self) -> Result<Tensor, WireError> {
        tensor_from_checked(&self.bytes)
    }
}

/// A request frame decoded in place: every check [`decode`] makes, with the
/// route borrowed and the image left in its wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRef<'a> {
    /// See [`WireRequest::id`].
    pub id: u64,
    /// See [`WireRequest::route`].
    pub route: &'a str,
    /// See [`WireRequest::deadline_ms`].
    pub deadline_ms: u32,
    /// See [`WireRequest::skip_cache`].
    pub skip_cache: bool,
    /// The claimed hash, not yet checked against the image: see
    /// [`WireRequest::content_hash`].
    pub content_hash: u64,
    /// The checked tensor encoding.
    image: &'a [u8],
}

impl RequestRef<'_> {
    /// Copy the image out of the buffer, still encoded.
    pub fn image(&self) -> EncodedTensor {
        EncodedTensor {
            bytes: self.image.to_vec(),
        }
    }
}

/// A response frame decoded in place: every check [`decode`] makes, with
/// the whole frame borrowed so it can be relayed byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseRef<'a> {
    /// See [`WireResponse::id`].
    pub id: u64,
    body: BodyRef<'a>,
    frame: &'a [u8],
}

impl ResponseRef<'_> {
    /// Copy the whole frame out of the buffer, still encoded.
    pub fn to_frame(&self) -> ResponseFrame {
        ResponseFrame {
            bytes: self.frame.to_vec(),
        }
    }
}

/// A frame decoded by [`decode_ref`]: requests and responses borrow the
/// buffer and keep their tensors encoded; the small control frames are
/// decoded as [`decode`] decodes them.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameRef<'a> {
    /// A request frame.
    Request(RequestRef<'a>),
    /// A response frame.
    Response(ResponseRef<'a>),
    /// A stats, stats-reply, reload or reload-reply frame.
    Control(Frame),
}

/// One whole Response frame in its wire encoding. A relaying tier receives
/// it from the member that ran the request and forwards it as is, with only
/// the correlation id rewritten ([`ResponseFrame::set_id`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseFrame {
    bytes: Vec<u8>,
}

impl ResponseFrame {
    /// Encode `body` as the response to request `id`.
    pub fn encode(id: u64, body: &ResponseBody) -> ResponseFrame {
        let mut bytes = Vec::with_capacity(HEADER_LEN + response_payload_len(body));
        push_response(&mut bytes, id, body);
        ResponseFrame { bytes }
    }

    /// Rewrite the correlation id; no other byte changes.
    pub fn set_id(&mut self, id: u64) {
        self.bytes[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&id.to_le_bytes());
    }

    /// The frame as it goes on the wire.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The backoff hint, when this is a [`ResponseBody::RetryAfter`].
    pub fn retry_after_ms(&self) -> Option<u32> {
        let at = HEADER_LEN + 8;
        (self.bytes[at] == STATUS_RETRY_AFTER).then(|| {
            u32::from_le_bytes([
                self.bytes[at + 1],
                self.bytes[at + 2],
                self.bytes[at + 3],
                self.bytes[at + 4],
            ])
        })
    }

    /// Whether this is a [`ResponseBody::DeadlineExceeded`].
    pub fn is_deadline_exceeded(&self) -> bool {
        self.bytes[HEADER_LEN + 8] == STATUS_DEADLINE
    }

    /// Decode the whole frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] if the tensor library refuses the shape.
    pub fn decode(&self) -> Result<WireResponse, WireError> {
        let mut cursor = Cursor::new(&self.bytes[HEADER_LEN..]);
        let (id, body) = response_ref(&mut cursor)?;
        Ok(WireResponse {
            id,
            body: body.into_body()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_header(out: &mut Vec<u8>, kind: u8) -> usize {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&[0, 0]);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]); // payload length, patched below
    len_at
}

fn patch_len(out: &mut [u8], len_at: usize) {
    let payload = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&payload.to_le_bytes());
}

/// Encoded size of a tensor: rank byte, dims, f32 data.
fn tensor_len(tensor: &Tensor) -> usize {
    1 + 4 * tensor.shape().dims().len() + 4 * tensor.data().len()
}

fn push_tensor(out: &mut Vec<u8>, tensor: &Tensor) {
    let dims = tensor.shape().dims();
    out.push(dims.len() as u8);
    for dim in dims {
        out.extend_from_slice(&(*dim as u32).to_le_bytes());
    }
    // Size the data once and fill it in place: a per-value
    // `extend_from_slice` re-checks capacity for every f32 and is several
    // times slower on a 48 KiB reply.
    let start = out.len();
    out.resize(start + 4 * tensor.data().len(), 0);
    for (bytes, value) in out[start..].chunks_exact_mut(4).zip(tensor.data()) {
        bytes.copy_from_slice(&value.to_le_bytes());
    }
}

/// Encoded size of a label: u16 length plus at most `u16::MAX` bytes.
fn str_len(text: &str) -> usize {
    2 + text.len().min(u16::MAX as usize)
}

fn push_str(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len().min(u16::MAX as usize) as u16).to_le_bytes());
    out.extend_from_slice(&text.as_bytes()[..text.len().min(u16::MAX as usize)]);
}

/// Request payload size for a route and an image of `image_len` encoded
/// bytes.
fn request_payload_len(route: &str, image_len: usize) -> usize {
    8 + 4 + 1 + str_len(route) + 8 + image_len
}

/// Append a request frame's header and head fields — everything but the
/// image — returning where the payload length goes.
fn push_request_head(
    out: &mut Vec<u8>,
    id: u64,
    route: &str,
    deadline_ms: u32,
    skip_cache: bool,
    content_hash: u64,
) -> usize {
    let len_at = push_header(out, KIND_REQUEST);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    out.push(u8::from(skip_cache));
    push_str(out, route);
    out.extend_from_slice(&content_hash.to_le_bytes());
    len_at
}

/// Append a request frame whose image is already encoded — how a relaying
/// tier forwards an image without converting it.
pub(crate) fn push_encoded_request(
    out: &mut Vec<u8>,
    id: u64,
    route: &str,
    deadline_ms: u32,
    skip_cache: bool,
    content_hash: u64,
    image: &EncodedTensor,
) {
    out.reserve(HEADER_LEN + request_payload_len(route, image.bytes.len()));
    let len_at = push_request_head(out, id, route, deadline_ms, skip_cache, content_hash);
    out.extend_from_slice(&image.bytes);
    patch_len(out, len_at);
}

fn response_payload_len(body: &ResponseBody) -> usize {
    8 + 1
        + match body {
            ResponseBody::Ok { defended, .. } => 1 + 1 + 8 + tensor_len(defended),
            ResponseBody::RetryAfter { .. } => 4 + 1,
            ResponseBody::DeadlineExceeded | ResponseBody::Closed => 0,
            ResponseBody::UnknownRoute(msg)
            | ResponseBody::InvalidRequest(msg)
            | ResponseBody::PipelineError(msg) => str_len(msg),
        }
}

fn push_response(out: &mut Vec<u8>, id: u64, body: &ResponseBody) {
    let len_at = push_header(out, KIND_RESPONSE);
    out.extend_from_slice(&id.to_le_bytes());
    match body {
        ResponseBody::Ok {
            cache_hit,
            label,
            defended,
        } => {
            out.push(STATUS_OK);
            out.push(u8::from(*cache_hit));
            out.push(u8::from(label.is_some()));
            out.extend_from_slice(&label.unwrap_or(0).to_le_bytes());
            push_tensor(out, defended);
        }
        ResponseBody::RetryAfter {
            retry_after_ms,
            reason,
        } => {
            out.push(STATUS_RETRY_AFTER);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
            out.push(reason.as_u8());
        }
        ResponseBody::DeadlineExceeded => out.push(STATUS_DEADLINE),
        ResponseBody::UnknownRoute(msg) => {
            out.push(STATUS_UNKNOWN_ROUTE);
            push_str(out, msg);
        }
        ResponseBody::InvalidRequest(msg) => {
            out.push(STATUS_INVALID);
            push_str(out, msg);
        }
        ResponseBody::PipelineError(msg) => {
            out.push(STATUS_PIPELINE);
            push_str(out, msg);
        }
        ResponseBody::Closed => out.push(STATUS_CLOSED),
    }
    patch_len(out, len_at);
}

/// Payload size of `frame`, so [`encode`] allocates once.
fn payload_len(frame: &Frame) -> usize {
    match frame {
        Frame::Request(request) => request_payload_len(&request.route, tensor_len(&request.image)),
        Frame::Response(response) => response_payload_len(&response.body),
        Frame::Stats { .. } => 8,
        Frame::StatsReply { json, .. } => 8 + 4 + json.len(),
        Frame::Reload { route, pin, .. } => 8 + str_len(route) + 1 + pin.map_or(0, |_| 4 + 8),
        Frame::ReloadReply { message, .. } => 8 + 1 + str_len(message),
    }
}

/// Encode one frame into a fresh byte vector, allocated once at its exact
/// length.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len(frame));
    match frame {
        Frame::Request(request) => {
            let len_at = push_request_head(
                &mut out,
                request.id,
                &request.route,
                request.deadline_ms,
                request.skip_cache,
                request.content_hash,
            );
            push_tensor(&mut out, &request.image);
            patch_len(&mut out, len_at);
        }
        Frame::Response(response) => push_response(&mut out, response.id, &response.body),
        Frame::Stats { id } => {
            let len_at = push_header(&mut out, KIND_STATS);
            out.extend_from_slice(&id.to_le_bytes());
            patch_len(&mut out, len_at);
        }
        Frame::StatsReply { id, json } => {
            let len_at = push_header(&mut out, KIND_STATS_REPLY);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(json.len() as u32).to_le_bytes());
            out.extend_from_slice(json.as_bytes());
            patch_len(&mut out, len_at);
        }
        Frame::Reload { id, route, pin } => {
            let len_at = push_header(&mut out, KIND_RELOAD);
            out.extend_from_slice(&id.to_le_bytes());
            push_str(&mut out, route);
            out.push(u8::from(pin.is_some()));
            if let Some((version, digest)) = pin {
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
            }
            patch_len(&mut out, len_at);
        }
        Frame::ReloadReply { id, ok, message } => {
            let len_at = push_header(&mut out, KIND_RELOAD_REPLY);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(u8::from(*ok));
            push_str(&mut out, message);
            patch_len(&mut out, len_at);
        }
    }
    debug_assert_eq!(out.len(), out.capacity(), "encode sized the frame exactly");
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over a payload slice; every read is explicit about
/// what it was reading so truncation errors are self-describing.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(WireError::Truncated(context))?;
        if end > self.buf.len() {
            return Err(WireError::Truncated(context));
        }
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(b);
        Ok(u64::from_le_bytes(bytes))
    }

    fn str(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        let len = self.u16(context)? as usize;
        let bytes = self.take(len, context)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadLabel)
    }

    fn string(&mut self, context: &'static str) -> Result<String, WireError> {
        self.str(context).map(str::to_string)
    }

    /// The one structural check every tensor on the wire passes, whether
    /// it is converted or relayed: rank 1..=6, non-zero dims whose product
    /// does not overflow, and exactly that many f32s. Returns the checked
    /// encoding, rank byte included.
    fn tensor_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let start = self.at;
        let rank = self.u8("tensor rank")? as usize;
        if rank == 0 || rank > 6 {
            return Err(WireError::Malformed("tensor rank must be 1..=6"));
        }
        let mut elements: usize = 1;
        for _ in 0..rank {
            let d = self.u32("tensor dims")? as usize;
            if d == 0 {
                return Err(WireError::Malformed("zero tensor dimension"));
            }
            elements = elements
                .checked_mul(d)
                .ok_or(WireError::Malformed("tensor element count overflows"))?;
        }
        let byte_len = elements
            .checked_mul(4)
            .ok_or(WireError::Malformed("tensor byte length overflows"))?;
        self.take(byte_len, "tensor data")?;
        Ok(&self.buf[start..self.at])
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at != self.buf.len() {
            return Err(WireError::TrailingBytes(self.buf.len() - self.at));
        }
        Ok(())
    }
}

/// Convert an encoding that [`Cursor::tensor_bytes`] accepted.
fn tensor_from_checked(bytes: &[u8]) -> Result<Tensor, WireError> {
    let rank = usize::from(bytes[0]);
    let (dim_bytes, data_bytes) = bytes[1..].split_at(4 * rank);
    let mut dims = [0usize; 6];
    for (dim, chunk) in dims.iter_mut().zip(dim_bytes.chunks_exact(4)) {
        *dim = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) as usize;
    }
    let data: Vec<f32> = data_bytes
        .chunks_exact(4)
        .map(|chunk| f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
        .collect();
    Tensor::from_vec(Shape::new(&dims[..rank]), data)
        .map_err(|_| WireError::Malformed("tensor shape/data mismatch"))
}

fn request_ref(payload: &[u8]) -> Result<RequestRef<'_>, WireError> {
    let mut cursor = Cursor::new(payload);
    let id = cursor.u64("request id")?;
    let deadline_ms = cursor.u32("deadline")?;
    let flags = cursor.u8("flags")?;
    if flags > 1 {
        return Err(WireError::Malformed("unknown request flag bits"));
    }
    let route = cursor.str("route label")?;
    let content_hash = cursor.u64("content hash")?;
    let image = cursor.tensor_bytes()?;
    cursor.finish()?;
    Ok(RequestRef {
        id,
        route,
        deadline_ms,
        skip_cache: flags & 1 != 0,
        content_hash,
        image,
    })
}

/// A response body with its strings and tensor still in the buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BodyRef<'a> {
    Ok {
        cache_hit: bool,
        label: Option<u64>,
        defended: &'a [u8],
    },
    RetryAfter {
        retry_after_ms: u32,
        reason: RetryReason,
    },
    DeadlineExceeded,
    UnknownRoute(&'a str),
    InvalidRequest(&'a str),
    PipelineError(&'a str),
    Closed,
}

impl BodyRef<'_> {
    fn into_body(self) -> Result<ResponseBody, WireError> {
        Ok(match self {
            BodyRef::Ok {
                cache_hit,
                label,
                defended,
            } => ResponseBody::Ok {
                cache_hit,
                label,
                defended: tensor_from_checked(defended)?,
            },
            BodyRef::RetryAfter {
                retry_after_ms,
                reason,
            } => ResponseBody::RetryAfter {
                retry_after_ms,
                reason,
            },
            BodyRef::DeadlineExceeded => ResponseBody::DeadlineExceeded,
            BodyRef::UnknownRoute(msg) => ResponseBody::UnknownRoute(msg.to_string()),
            BodyRef::InvalidRequest(msg) => ResponseBody::InvalidRequest(msg.to_string()),
            BodyRef::PipelineError(msg) => ResponseBody::PipelineError(msg.to_string()),
            BodyRef::Closed => ResponseBody::Closed,
        })
    }
}

fn response_ref<'a>(cursor: &mut Cursor<'a>) -> Result<(u64, BodyRef<'a>), WireError> {
    let id = cursor.u64("response id")?;
    let status = cursor.u8("status")?;
    let body = match status {
        STATUS_OK => {
            let cache_hit = cursor.u8("cache-hit flag")? != 0;
            let has_label = cursor.u8("label flag")? != 0;
            let label = cursor.u64("label")?;
            let defended = cursor.tensor_bytes()?;
            BodyRef::Ok {
                cache_hit,
                label: has_label.then_some(label),
                defended,
            }
        }
        STATUS_RETRY_AFTER => {
            let retry_after_ms = cursor.u32("retry-after")?;
            let reason = RetryReason::from_u8(cursor.u8("retry reason")?)
                .ok_or(WireError::Malformed("unknown retry reason"))?;
            BodyRef::RetryAfter {
                retry_after_ms,
                reason,
            }
        }
        STATUS_DEADLINE => BodyRef::DeadlineExceeded,
        STATUS_UNKNOWN_ROUTE => BodyRef::UnknownRoute(cursor.str("route message")?),
        STATUS_INVALID => BodyRef::InvalidRequest(cursor.str("error message")?),
        STATUS_PIPELINE => BodyRef::PipelineError(cursor.str("error message")?),
        STATUS_CLOSED => BodyRef::Closed,
        _ => return Err(WireError::Malformed("unknown response status")),
    };
    Ok((id, body))
}

fn decode_stats(payload: &[u8]) -> Result<Frame, WireError> {
    let mut cursor = Cursor::new(payload);
    let id = cursor.u64("stats id")?;
    cursor.finish()?;
    Ok(Frame::Stats { id })
}

fn decode_stats_reply(payload: &[u8]) -> Result<Frame, WireError> {
    let mut cursor = Cursor::new(payload);
    let id = cursor.u64("stats-reply id")?;
    let len = cursor.u32("stats json length")? as usize;
    let bytes = cursor.take(len, "stats json")?;
    let json =
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("stats json utf-8"))?;
    cursor.finish()?;
    Ok(Frame::StatsReply { id, json })
}

fn decode_reload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut cursor = Cursor::new(payload);
    let id = cursor.u64("reload id")?;
    let route = cursor.string("reload route")?;
    let pin = match cursor.u8("reload pin flag")? {
        0 => None,
        1 => Some((
            cursor.u32("reload pin version")?,
            cursor.u64("reload pin digest")?,
        )),
        _ => return Err(WireError::Malformed("reload pin flag must be 0 or 1")),
    };
    cursor.finish()?;
    Ok(Frame::Reload { id, route, pin })
}

fn decode_reload_reply(payload: &[u8]) -> Result<Frame, WireError> {
    let mut cursor = Cursor::new(payload);
    let id = cursor.u64("reload-reply id")?;
    let ok = match cursor.u8("reload-reply flag")? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("reload-reply flag must be 0 or 1")),
    };
    let message = cursor.string("reload-reply message")?;
    cursor.finish()?;
    Ok(Frame::ReloadReply { id, ok, message })
}

/// Try to decode one frame from the front of `buf`.
///
/// Returns [`FrameDecode::Incomplete`] when `buf` holds a valid prefix of a
/// frame that has not fully arrived, and never consumes bytes in that case.
/// The header is validated as soon as it is present, so garbage is rejected
/// without waiting for its claimed payload.
///
/// # Errors
///
/// A typed [`WireError`] for any structurally invalid input; the stream
/// should be considered unsynchronized after one.
pub fn decode(buf: &[u8], max_payload: usize) -> Result<FrameDecode, WireError> {
    Ok(match decode_ref(buf, max_payload)? {
        FrameDecode::Incomplete { needed } => FrameDecode::Incomplete { needed },
        FrameDecode::Complete { frame, consumed } => FrameDecode::Complete {
            frame: frame.into_frame()?,
            consumed,
        },
    })
}

/// [`decode`] without converting tensors: the same checks, in the same
/// order, returning a [`FrameRef`] that borrows `buf`. A tier that relays
/// requests and replies uses this and forwards the checked bytes.
///
/// # Errors
///
/// Exactly those of [`decode`].
pub fn decode_ref(buf: &[u8], max_payload: usize) -> Result<FrameDecode<FrameRef<'_>>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(FrameDecode::Incomplete { needed: HEADER_LEN });
    }
    let magic = [buf[0], buf[1], buf[2], buf[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if buf[4] != VERSION {
        return Err(WireError::UnsupportedVersion(buf[4]));
    }
    let kind = buf[5];
    if !(KIND_REQUEST..=KIND_RELOAD_REPLY).contains(&kind) {
        return Err(WireError::UnknownFrameKind(kind));
    }
    if buf[6] != 0 || buf[7] != 0 {
        return Err(WireError::NonZeroReserved);
    }
    let payload_len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
    if payload_len > max_payload {
        return Err(WireError::Oversized {
            claimed: payload_len,
            max: max_payload,
        });
    }
    let total = HEADER_LEN + payload_len;
    if buf.len() < total {
        return Ok(FrameDecode::Incomplete { needed: total });
    }
    let payload = &buf[HEADER_LEN..total];
    let frame = match kind {
        KIND_REQUEST => FrameRef::Request(request_ref(payload)?),
        KIND_RESPONSE => {
            let mut cursor = Cursor::new(payload);
            let (id, body) = response_ref(&mut cursor)?;
            cursor.finish()?;
            FrameRef::Response(ResponseRef {
                id,
                body,
                frame: &buf[..total],
            })
        }
        KIND_STATS => FrameRef::Control(decode_stats(payload)?),
        KIND_STATS_REPLY => FrameRef::Control(decode_stats_reply(payload)?),
        KIND_RELOAD => FrameRef::Control(decode_reload(payload)?),
        _ => FrameRef::Control(decode_reload_reply(payload)?),
    };
    Ok(FrameDecode::Complete {
        frame,
        consumed: total,
    })
}

impl FrameRef<'_> {
    /// Convert to an owned [`Frame`], decoding any tensor.
    fn into_frame(self) -> Result<Frame, WireError> {
        Ok(match self {
            FrameRef::Request(request) => Frame::Request(WireRequest {
                id: request.id,
                route: request.route.to_string(),
                deadline_ms: request.deadline_ms,
                skip_cache: request.skip_cache,
                content_hash: request.content_hash,
                image: tensor_from_checked(request.image)?,
            }),
            FrameRef::Response(response) => Frame::Response(WireResponse {
                id: response.id,
                body: response.body.into_body()?,
            }),
            FrameRef::Control(frame) => frame,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Tensor {
        Tensor::from_vec(
            Shape::new(&[1, 3, 2, 2]),
            (0..12).map(|i| i as f32 * 0.25).collect(),
        )
        .expect("static shape")
    }

    fn round_trip(frame: Frame) {
        let bytes = encode(&frame);
        match decode(&bytes, DEFAULT_MAX_PAYLOAD).expect("decode") {
            FrameDecode::Complete {
                frame: got,
                consumed,
            } => {
                assert_eq!(got, frame);
                assert_eq!(consumed, bytes.len());
            }
            FrameDecode::Incomplete { .. } => panic!("whole frame must decode"),
        }
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Request(WireRequest {
            id: 42,
            route: "sesr-m2:x2:jpeg75+wavelet2".to_string(),
            deadline_ms: 250,
            skip_cache: true,
            content_hash: 0xDEADBEEF,
            image: image(),
        }));
        round_trip(Frame::Response(WireResponse {
            id: 42,
            body: ResponseBody::Ok {
                cache_hit: true,
                label: Some(7),
                defended: image(),
            },
        }));
        round_trip(Frame::Response(WireResponse {
            id: 1,
            body: ResponseBody::RetryAfter {
                retry_after_ms: 50,
                reason: RetryReason::RateLimited,
            },
        }));
        round_trip(Frame::Response(WireResponse {
            id: 2,
            body: ResponseBody::UnknownRoute("nope:x2:raw".to_string()),
        }));
        round_trip(Frame::Stats { id: 9 });
        round_trip(Frame::StatsReply {
            id: 9,
            json: "{\"schema\":\"sesr-telemetry/v2\"}".to_string(),
        });
        round_trip(Frame::Reload {
            id: 11,
            route: "sesr-m2:x2:jpeg75+wavelet2".to_string(),
            pin: None,
        });
        round_trip(Frame::Reload {
            id: 12,
            route: String::new(),
            pin: None,
        });
        round_trip(Frame::Reload {
            id: 13,
            route: "sesr-m2:x2:raw".to_string(),
            pin: Some((7, 0xDEAD_BEEF_0123_4567)),
        });
        round_trip(Frame::ReloadReply {
            id: 11,
            ok: true,
            message: "reloaded 1 route".to_string(),
        });
        round_trip(Frame::ReloadReply {
            id: 11,
            ok: false,
            message: "no artifact for sesr-m2 x2".to_string(),
        });
    }

    #[test]
    fn relayed_request_is_the_frame_encode_writes() {
        let request = WireRequest {
            id: 5,
            route: "sesr-m2:x2:jpeg75+wavelet2".to_string(),
            deadline_ms: 40,
            skip_cache: true,
            content_hash: 0xFEED,
            image: image(),
        };
        let bytes = encode(&Frame::Request(request.clone()));
        let Ok(FrameDecode::Complete {
            frame: FrameRef::Request(view),
            consumed,
        }) = decode_ref(&bytes, DEFAULT_MAX_PAYLOAD)
        else {
            panic!("a request decodes in place");
        };
        assert_eq!(consumed, bytes.len());
        assert_eq!(view.image(), EncodedTensor::encode(&request.image));
        let mut relayed = Vec::new();
        push_encoded_request(
            &mut relayed,
            request.id,
            view.route,
            view.deadline_ms,
            view.skip_cache,
            view.content_hash,
            &view.image(),
        );
        assert_eq!(relayed, bytes);
    }

    #[test]
    fn relayed_response_changes_only_its_id() {
        let response = WireResponse {
            id: 42,
            body: ResponseBody::Ok {
                cache_hit: false,
                label: Some(3),
                defended: image(),
            },
        };
        let bytes = encode(&Frame::Response(response.clone()));
        assert_eq!(
            ResponseFrame::encode(42, &response.body).as_bytes(),
            &bytes[..]
        );
        let Ok(FrameDecode::Complete {
            frame: FrameRef::Response(view),
            ..
        }) = decode_ref(&bytes, DEFAULT_MAX_PAYLOAD)
        else {
            panic!("a response decodes in place");
        };
        let mut frame = view.to_frame();
        assert_eq!(frame.as_bytes(), &bytes[..]);
        frame.set_id(7);
        assert_eq!(
            frame.as_bytes()[HEADER_LEN..HEADER_LEN + 8],
            7u64.to_le_bytes()
        );
        assert_eq!(frame.as_bytes()[..HEADER_LEN], bytes[..HEADER_LEN]);
        assert_eq!(frame.as_bytes()[HEADER_LEN + 8..], bytes[HEADER_LEN + 8..]);
        assert_eq!(
            frame.decode(),
            Ok(WireResponse {
                id: 7,
                body: response.body
            })
        );
        assert_eq!(frame.retry_after_ms(), None);
        assert!(!frame.is_deadline_exceeded());
    }

    #[test]
    fn shed_replies_are_read_off_the_status_byte() {
        let shed = ResponseFrame::encode(
            1,
            &ResponseBody::RetryAfter {
                retry_after_ms: 25,
                reason: RetryReason::Unhealthy,
            },
        );
        assert_eq!(shed.retry_after_ms(), Some(25));
        assert!(!shed.is_deadline_exceeded());
        let late = ResponseFrame::encode(2, &ResponseBody::DeadlineExceeded);
        assert_eq!(late.retry_after_ms(), None);
        assert!(late.is_deadline_exceeded());
    }

    #[test]
    fn reload_reply_flag_must_be_boolean() {
        let mut bytes = encode(&Frame::ReloadReply {
            id: 1,
            ok: true,
            message: String::new(),
        });
        bytes[HEADER_LEN + 8] = 2;
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn reload_pin_flag_must_be_boolean() {
        let route = "sesr-m2:x2:raw";
        let mut bytes = encode(&Frame::Reload {
            id: 1,
            route: route.to_string(),
            pin: None,
        });
        bytes[HEADER_LEN + 8 + str_len(route)] = 2;
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Malformed("reload pin flag must be 0 or 1"))
        ));
    }

    #[test]
    fn split_frames_report_incomplete_without_consuming() {
        let bytes = encode(&Frame::Stats { id: 3 });
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD) {
                Ok(FrameDecode::Incomplete { needed }) => assert!(needed > cut),
                other => panic!("prefix of {cut} bytes must be incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_garbage_is_typed() {
        let mut bytes = encode(&Frame::Stats { id: 3 });
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));

        let mut bytes = encode(&Frame::Stats { id: 3 });
        bytes[4] = 9;
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnsupportedVersion(9))
        ));

        let mut bytes = encode(&Frame::Stats { id: 3 });
        bytes[5] = 99;
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnknownFrameKind(99))
        ));

        let mut bytes = encode(&Frame::Stats { id: 3 });
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn a_version_1_frame_is_refused_naming_both_versions() {
        let image = Tensor::full(Shape::new(&[1, 3, 4, 4]), 0.5);
        let mut bytes = encode(&Frame::Request(WireRequest {
            id: 5,
            route: String::new(),
            deadline_ms: 0,
            skip_cache: false,
            content_hash: sesr_serve::content_hash(&image, ""),
            image,
        }));
        bytes[4] = 1;
        assert_eq!(
            decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnsupportedVersion(1))
        );
        assert!(matches!(
            decode_ref(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(WireError::UnsupportedVersion(1))
        ));
        assert_eq!(
            WireError::UnsupportedVersion(1).to_string(),
            "unsupported protocol version 1 (this build speaks 2)"
        );
    }
}
