//! A small blocking client for the SESR wire protocol.
//!
//! [`NetClient`] owns one TCP connection and a reassembly buffer. Sending is
//! fire-and-forget ([`NetClient::send_request`] / [`NetClient::send_stats`]);
//! receiving is pull-based ([`NetClient::recv`] with a timeout), so a caller
//! can pipeline many requests and collect the out-of-order replies — exactly
//! what the open-loop traffic generator needs. [`NetClient::defend`] wraps
//! the common one-request / wait-for-its-reply case.
//!
//! **Connection loss is typed, and recovery is built in.** Socket-level
//! resets surface as [`NetError::ConnectionLost`] (never a raw `io::Error`
//! the caller has to pattern-match on kind), the client remembers its peer
//! address so [`NetClient::reconnect`] can re-dial it with exponential
//! backoff, and [`NetClient::defend_with_retry`] folds the whole loop —
//! reconnect on loss, honor `RetryAfter` backoff hints — into one call.
//! The cluster supervisor's health probes and the examples use these
//! instead of hand-rolling retry loops.

use crate::recv_buf::{RecvBuf, READ_CHUNK};
use crate::wire::{self, Frame, FrameDecode, WireError, WireRequest, WireResponse};
use sesr_serve::{content_hash, ArtifactId};
use sesr_tensor::Tensor;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side failure talking to a [`NetServer`](crate::NetServer).
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure that is not a lost connection (address errors,
    /// permission errors, …).
    Io(std::io::Error),
    /// The transport dropped mid-conversation (reset, broken pipe,
    /// refused re-dial) — the typed signal that a
    /// [`NetClient::reconnect`] is worth attempting.
    ConnectionLost(String),
    /// The server sent bytes that do not decode as a frame.
    Wire(WireError),
    /// The server closed the connection cleanly (EOF).
    Disconnected,
    /// No frame arrived within the allowed wait.
    TimedOut,
}

impl NetError {
    /// True when the connection is gone (cleanly or not) and a reconnect
    /// could help; false for timeouts, protocol garbage and other I/O.
    pub fn is_connection_lost(&self) -> bool {
        matches!(self, NetError::ConnectionLost(_) | NetError::Disconnected)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(err) => write!(f, "socket error: {err}"),
            NetError::ConnectionLost(detail) => write!(f, "connection lost: {detail}"),
            NetError::Wire(err) => write!(f, "protocol error: {err}"),
            NetError::Disconnected => write!(f, "server closed the connection"),
            NetError::TimedOut => write!(f, "timed out waiting for a frame"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(err: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match err.kind() {
            ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionRefused
            | ErrorKind::NotConnected
            | ErrorKind::UnexpectedEof => NetError::ConnectionLost(err.to_string()),
            _ => NetError::Io(err),
        }
    }
}

impl From<WireError> for NetError {
    fn from(err: WireError) -> Self {
        NetError::Wire(err)
    }
}

/// Exponential-backoff schedule for dialing (and re-dialing) a server.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Connection attempts before giving up (default 5).
    pub max_attempts: u32,
    /// Wait after the first failure (default 50 ms); doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling (default 1 s).
    pub max_backoff: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl ReconnectPolicy {
    /// The wait before attempt `attempt` (0-based): exponential from
    /// [`ReconnectPolicy::initial_backoff`], capped at
    /// [`ReconnectPolicy::max_backoff`]. Attempt 0 waits nothing.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(16);
        self.initial_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
    }
}

/// Options for building a [`WireRequest`] without spelling the struct out.
#[derive(Debug, Clone, Default)]
pub struct RequestOptions {
    /// Route label; empty = the server's default route.
    pub route: String,
    /// Soft deadline in ms from server receipt; 0 = none.
    pub deadline_ms: u32,
    /// Bypass the server's output cache.
    pub skip_cache: bool,
}

/// One blocking connection to a network front-end.
pub struct NetClient {
    stream: TcpStream,
    peer: SocketAddr,
    read_buf: RecvBuf,
    pending: VecDeque<Frame>,
    max_payload: usize,
    next_id: u64,
}

impl NetClient {
    /// Connect to `addr`.
    ///
    /// # Errors
    ///
    /// Any I/O error connecting or configuring the socket.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(NetClient {
            stream,
            peer,
            read_buf: RecvBuf::new(),
            pending: VecDeque::new(),
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
            next_id: 1,
        })
    }

    /// Connect to `addr`, retrying with `policy`'s exponential backoff —
    /// for dialing a server that is still starting (or restarting).
    ///
    /// # Errors
    ///
    /// The last attempt's error once `policy.max_attempts` is exhausted.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        policy: &ReconnectPolicy,
    ) -> Result<NetClient, NetError> {
        let mut last: Option<NetError> = None;
        for attempt in 0..policy.max_attempts.max(1) {
            std::thread::sleep(policy.backoff(attempt));
            match NetClient::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(err) => last = Some(err.into()),
            }
        }
        Err(last.unwrap_or(NetError::TimedOut))
    }

    /// The address this client dialed (and re-dials on
    /// [`NetClient::reconnect`]).
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Drop the broken transport and re-dial the remembered peer address
    /// with `policy`'s backoff. Buffered partial frames and unclaimed
    /// replies are discarded (they belonged to the dead connection);
    /// correlation ids keep counting, so replies cannot alias across the
    /// reconnect.
    ///
    /// # Errors
    ///
    /// The last attempt's error once `policy.max_attempts` is exhausted;
    /// the client keeps its old (dead) transport in that case.
    pub fn reconnect(&mut self, policy: &ReconnectPolicy) -> Result<(), NetError> {
        let fresh = NetClient::connect_with_retry(self.peer, policy)?;
        self.stream = fresh.stream;
        self.read_buf.clear();
        self.pending.clear();
        Ok(())
    }

    /// Build a request for `image` with a fresh correlation id; the content
    /// hash is computed here so the server's integrity check passes.
    pub fn make_request(&mut self, image: Tensor, options: &RequestOptions) -> WireRequest {
        let id = self.next_id;
        self.next_id += 1;
        WireRequest {
            id,
            route: options.route.clone(),
            deadline_ms: options.deadline_ms,
            skip_cache: options.skip_cache,
            content_hash: content_hash(&image, ""),
            image,
        }
    }

    /// Write one request frame; replies arrive via [`NetClient::recv`].
    ///
    /// # Errors
    ///
    /// Socket-level write failure ([`NetError::ConnectionLost`] when the
    /// transport dropped).
    pub fn send_request(&mut self, request: &WireRequest) -> Result<(), NetError> {
        let mut bytes = Vec::new();
        wire::push_request(&mut bytes, request);
        self.stream.write_all(&bytes)?;
        Ok(())
    }

    /// Ask for the server's telemetry snapshot; returns the correlation id
    /// the eventual [`Frame::StatsReply`] will echo.
    ///
    /// # Errors
    ///
    /// Socket-level write failure.
    pub fn send_stats(&mut self) -> Result<u64, NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&wire::encode(&Frame::Stats { id }))?;
        Ok(id)
    }

    /// Receive the next frame, waiting at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`NetError::TimedOut`] if no whole frame arrives in time,
    /// [`NetError::Disconnected`] on EOF, [`NetError::Wire`] on garbage.
    pub fn recv(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        if let Some(frame) = self.pending.pop_front() {
            return Ok(frame);
        }
        self.recv_from_socket(Instant::now() + timeout)
    }

    /// Receive the next frame from the socket itself, bypassing the reorder
    /// buffer. The selective receivers ([`NetClient::recv_response`],
    /// [`NetClient::stats`]) must use this: pulling from the reorder buffer
    /// while also pushing non-matching frames back into it would cycle the
    /// buffer forever without ever reading the wire.
    ///
    /// The socket's read timeout is set only when the buffered bytes hold
    /// no whole frame, once per read: full-size reads make that about once
    /// per reply, and none for replies that arrived with an earlier one.
    fn recv_from_socket(&mut self, deadline: Instant) -> Result<Frame, NetError> {
        loop {
            match wire::decode(self.read_buf.bytes(), self.max_payload)? {
                FrameDecode::Complete { frame, consumed } => {
                    self.read_buf.consume(consumed);
                    return Ok(frame);
                }
                FrameDecode::Incomplete { .. } => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::TimedOut);
            }
            self.stream.set_read_timeout(Some(deadline - now))?;
            match self.read_buf.read_from(&mut self.stream, READ_CHUNK) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(NetError::TimedOut);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Receive until the response with `id` arrives (other frames are
    /// buffered for later [`NetClient::recv`] calls), within `timeout`
    /// overall.
    ///
    /// # Errors
    ///
    /// As [`NetClient::recv`].
    pub fn recv_response(&mut self, id: u64, timeout: Duration) -> Result<WireResponse, NetError> {
        // Serve from the reorder buffer first.
        if let Some(at) = self
            .pending
            .iter()
            .position(|frame| matches!(frame, Frame::Response(response) if response.id == id))
        {
            if let Some(Frame::Response(response)) = self.pending.remove(at) {
                return Ok(response);
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            if Instant::now() >= deadline {
                return Err(NetError::TimedOut);
            }
            match self.recv_from_socket(deadline)? {
                Frame::Response(response) if response.id == id => return Ok(response),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Send one request for `image` and block for its reply.
    ///
    /// # Errors
    ///
    /// As [`NetClient::recv`].
    pub fn defend(
        &mut self,
        image: Tensor,
        options: &RequestOptions,
        timeout: Duration,
    ) -> Result<WireResponse, NetError> {
        let request = self.make_request(image, options);
        self.send_request(&request)?;
        self.recv_response(request.id, timeout)
    }

    /// [`NetClient::defend`] with recovery: a lost connection triggers a
    /// backoff reconnect and a resend, and a
    /// [`RetryAfter`](crate::ResponseBody::RetryAfter) reply sleeps its
    /// hinted delay (capped at `policy.max_backoff`) and resends. At most
    /// `policy.max_attempts` sends in total.
    ///
    /// # Errors
    ///
    /// The terminal error (or the last `RetryAfter` response is returned
    /// as `Ok` once attempts run out — the caller sees the structured shed
    /// rather than a synthetic failure).
    pub fn defend_with_retry(
        &mut self,
        image: Tensor,
        options: &RequestOptions,
        timeout: Duration,
        policy: &ReconnectPolicy,
    ) -> Result<WireResponse, NetError> {
        let mut last_err: Option<NetError> = None;
        for _attempt in 0..policy.max_attempts.max(1) {
            match self.defend(image.clone(), options, timeout) {
                Ok(response) => match response.body {
                    wire::ResponseBody::RetryAfter { retry_after_ms, .. } => {
                        last_err = None;
                        std::thread::sleep(
                            Duration::from_millis(u64::from(retry_after_ms))
                                .min(policy.max_backoff),
                        );
                        // Fall through to the next attempt; the final
                        // attempt's shed is returned below.
                        if _attempt + 1 == policy.max_attempts.max(1) {
                            return Ok(response);
                        }
                    }
                    _ => return Ok(response),
                },
                Err(err) if err.is_connection_lost() => {
                    last_err = Some(err);
                    self.reconnect(policy)?;
                }
                Err(err) => return Err(err),
            }
        }
        // Attempts exhausted with the connection repeatedly lost.
        match self.defend(image, options, timeout) {
            Ok(response) => Ok(response),
            Err(err) => Err(last_err.unwrap_or(err)),
        }
    }

    /// Fetch the server's telemetry snapshot JSON.
    ///
    /// # Errors
    ///
    /// As [`NetClient::recv`].
    pub fn stats(&mut self, timeout: Duration) -> Result<String, NetError> {
        let want = self.send_stats()?;
        let deadline = Instant::now() + timeout;
        loop {
            if Instant::now() >= deadline {
                return Err(NetError::TimedOut);
            }
            match self.recv_from_socket(deadline)? {
                Frame::StatsReply { id, json } if id == want => return Ok(json),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Ask the server to hot-reload `route` (empty = every reloadable
    /// route) from the stored artifact `pin` names, or from the newest when
    /// `pin` is `None`, and block for the outcome: `(ok, message)`. The
    /// cluster supervisor's pinned reload fan-out is built on this.
    ///
    /// # Errors
    ///
    /// As [`NetClient::recv`].
    pub fn reload(
        &mut self,
        route: &str,
        pin: Option<ArtifactId>,
        timeout: Duration,
    ) -> Result<(bool, String), NetError> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&wire::encode(&Frame::Reload {
            id,
            route: route.to_string(),
            pin,
        }))?;
        let deadline = Instant::now() + timeout;
        loop {
            if Instant::now() >= deadline {
                return Err(NetError::TimedOut);
            }
            match self.recv_from_socket(deadline)? {
                Frame::ReloadReply {
                    id: got,
                    ok,
                    message,
                } if got == id => return Ok((ok, message)),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Write raw bytes to the socket — for tests that need to speak
    /// malformed protocol on purpose.
    ///
    /// # Errors
    ///
    /// Socket-level write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_classify_connection_loss() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::BrokenPipe,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::ConnectionRefused,
            ErrorKind::NotConnected,
            ErrorKind::UnexpectedEof,
        ] {
            let err: NetError = Error::new(kind, "boom").into();
            assert!(
                matches!(err, NetError::ConnectionLost(_)),
                "{kind:?} must classify as ConnectionLost"
            );
            assert!(err.is_connection_lost());
        }
        let err: NetError = Error::new(ErrorKind::PermissionDenied, "boom").into();
        assert!(matches!(err, NetError::Io(_)));
        assert!(!err.is_connection_lost());
        assert!(NetError::Disconnected.is_connection_lost());
        assert!(!NetError::TimedOut.is_connection_lost());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = ReconnectPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(300),
        };
        assert_eq!(policy.backoff(0), Duration::ZERO);
        assert_eq!(policy.backoff(1), Duration::from_millis(50));
        assert_eq!(policy.backoff(2), Duration::from_millis(100));
        assert_eq!(policy.backoff(3), Duration::from_millis(200));
        assert_eq!(policy.backoff(4), Duration::from_millis(300));
        assert_eq!(policy.backoff(31), Duration::from_millis(300));
    }

    #[test]
    fn connect_with_retry_reports_the_last_error() {
        // A port nothing listens on: every attempt must fail fast with a
        // typed connection error, not a raw io::Error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
        let addr = listener.local_addr().expect("probe addr");
        drop(listener);
        let policy = ReconnectPolicy {
            max_attempts: 2,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
        };
        match NetClient::connect_with_retry(addr, &policy) {
            Err(NetError::ConnectionLost(_)) | Err(NetError::Io(_)) => {}
            Err(other) => panic!("expected a connect failure, got {other:?}"),
            Ok(_) => panic!("nothing listens on the probe port"),
        }
    }
}
