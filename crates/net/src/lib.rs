//! `sesr-net` — the network front-end for the defense gateway.
//!
//! The serving stack (`sesr-serve`) exposes an in-process API: bounded
//! shard queues, batching worker pools, an output cache, SLO
//! health gating. This crate puts a socket in front of it without pulling
//! in an async runtime — everything is `std::net` plus one reactor thread:
//!
//! - [`wire`] — the compact length-prefixed binary protocol: a 12-byte
//!   header (magic, version, kind, payload length) framing requests that
//!   carry a route label, content hash, soft deadline and the image tensor.
//!   Decoding is a pure bounds-checked function that returns typed errors
//!   and never panics or over-reads.
//! - [`admission`] — token buckets with exact integer accounting, one per
//!   connection (client fairness).
//! - [`reactor`] — the non-blocking polling loop: accept, read round-robin
//!   under a fairness budget, check each frame's structure in place, admit
//!   (token bucket → route resolution), submit to the backend, poll
//!   in-flight replies, flush.
//!   Overload and rate-limit sheds become structured retry-after replies;
//!   wire deadlines propagate into the shard queue.
//! - [`backend`] — where admitted requests go: the reactor is generic over
//!   a [`Backend`], with [`LocalBackend`] submitting to an in-process
//!   gateway that verifies the content hash, and `sesr-cluster` providing a
//!   consistent-hash router that forwards encoded requests and replies
//!   between clients and worker processes.
//! - [`client`] — a small blocking client used by the traffic generator,
//!   the cluster supervisor's health probes, the tests and examples; it
//!   types connection loss and reconnects with backoff.
//! - [`metrics`] — the `net.*` metric namespace registered into the same
//!   telemetry hub the gateway snapshots.
//! - [`recv_buf`] — the read buffer every socket reader here uses: one
//!   syscall per read, straight into the buffer, up to the caller's limit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod backend;
pub mod client;
pub mod metrics;
pub mod reactor;
pub mod recv_buf;
pub mod wire;

pub use admission::{RateLimit, TokenBucket};
pub use backend::{Backend, BackendRequest, LocalBackend, Submit, OVERLOAD_RETRY_AFTER_MS};
pub use client::{NetClient, NetError, ReconnectPolicy, RequestOptions};
pub use metrics::NetMetrics;
pub use reactor::{NetConfig, NetServer, MAX_CONNECTIONS};
pub use recv_buf::{RecvBuf, READ_CHUNK};
pub use wire::{
    EncodedTensor, Frame, FrameDecode, ResponseBody, ResponseFrame, RetryReason, WireError,
    WireRequest, WireResponse,
};
