//! The network front-end: a hand-rolled non-blocking reactor over
//! `std::net` that multiplexes wire connections onto a [`Backend`].
//!
//! One reactor thread owns the listener and every connection. All sockets
//! are in non-blocking mode; each sweep the reactor
//!
//! 1. accepts new connections (refusing with a retry-after frame past
//!    [`MAX_CONNECTIONS`]),
//! 2. reads from every connection round-robin, at most [`READ_CHUNK`] bytes
//!    per sweep (per-client fairness: one firehose client cannot monopolize
//!    a sweep),
//! 3. parses complete frames in place — every structural check
//!    [`wire::decode`] makes, without converting the image — runs
//!    **admission control** (the connection's token bucket, route
//!    existence) and submits admitted requests to the backend without
//!    blocking,
//! 4. polls every in-flight ticket (the backend answers when ready),
//!    pumps the backend's own I/O once,
//! 5. flushes response bytes, again without blocking.
//!
//! A connection stops being parsed while it has
//! [`NetConfig::max_inflight_per_conn`] requests in flight or
//! [`wire::DEFAULT_MAX_PAYLOAD`] reply bytes unsent, and stops being read
//! once a whole frame waits behind that: a client that pipelines without
//! reading its replies is held back by TCP flow control, not buffered
//! without bound.
//!
//! The backend decides what "executing a request" means:
//! [`LocalBackend`] decodes the image and submits it with its content-hash
//! claim to an in-process gateway, which checks the claim while keying its
//! cache and queues the image on a bounded shard (this is
//! [`NetServer::bind`]); the `sesr-cluster` router backend forwards the
//! encoded image to the worker process owning the request's hash arc
//! ([`NetServer::bind_with_backend`]) and relays the member's reply frame
//! with only its id rewritten. Either way, nothing in the loop ever
//! parks on a peer: a stalled client, a half-written frame or a dead
//! cluster member can delay only its own connection's buffers, never the
//! reactor.
//!
//! **Load shedding is structured, not silent.** A full shard queue, an
//! SLO-Unhealthy route, an exhausted token bucket or a degraded cluster arc
//! all produce a [`ResponseBody::RetryAfter`] reply carrying a backoff
//! hint — the connection stays open and the client decides when to come
//! back, instead of being dropped mid-stream.
//!
//! **Deadlines propagate from the wire.** A request's `deadline_ms` becomes
//! the gateway deadline; a job that expires while still queued is answered
//! [`ResponseBody::DeadlineExceeded`] without ever being handed to a
//! worker.

use crate::admission::TokenBucket;
use crate::backend::{Backend, BackendRequest, LocalBackend, Submit, OVERLOAD_RETRY_AFTER_MS};
use crate::metrics::NetMetrics;
use crate::recv_buf::{RecvBuf, READ_CHUNK};
use crate::wire::{
    self, Frame, FrameDecode, FrameRef, RequestRef, ResponseBody, ResponseFrame, RetryReason,
    WireResponse,
};
use sesr_serve::GatewayClient;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection-table bound; a connection past it is answered with one
/// retry-after frame (id 0, [`RetryReason::Overloaded`]) and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// Sleep when a sweep made no progress at all.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Admission settings for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-connection token bucket; `None` disables per-client limiting
    /// (default 256-token burst, 512/s sustained).
    pub per_client_limit: Option<crate::admission::RateLimit>,
    /// In-flight requests per connection before the reactor stops parsing
    /// (and, buffers permitting, reading) that connection — admission-side
    /// backpressure (default 32).
    pub max_inflight_per_conn: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            per_client_limit: Some(crate::admission::RateLimit::new(256, 512)),
            max_inflight_per_conn: 32,
        }
    }
}

/// One request admitted to the backend and awaiting its reply.
struct Inflight {
    id: u64,
    ticket: u64,
    started: Instant,
}

/// Per-connection state owned by the reactor.
struct Conn {
    stream: TcpStream,
    read_buf: RecvBuf,
    /// Reply bytes not yet written to the socket.
    write_buf: Vec<u8>,
    inflight: Vec<Inflight>,
    bucket: Option<TokenBucket>,
    /// Protocol violation seen: close once the error reply is flushed.
    broken: bool,
    /// Remove this connection at the end of the sweep.
    dead: bool,
}

struct Reactor<B: Backend> {
    backend: B,
    config: NetConfig,
    metrics: NetMetrics,
}

/// The running network front-end; owns the reactor thread.
///
/// When backed by a local gateway it holds a [`GatewayClient`] clone, so —
/// like a [`ReloadWatcher`](sesr_serve::ReloadWatcher) — call
/// [`NetServer::stop`] before `DefenseGateway::shutdown`, or the shutdown
/// join will wait. Dropping the handle without stopping also ends the
/// reactor (it notices the closed stop channel on its next sweep), but does
/// not wait for it.
pub struct NetServer {
    stop_tx: mpsc::Sender<()>,
    thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl NetServer {
    /// Bind `addr` (use port 0 to let the OS pick) and start the reactor
    /// serving `client`'s gateway through a [`LocalBackend`].
    ///
    /// # Errors
    ///
    /// Any I/O error binding or configuring the listener.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: NetConfig,
        client: GatewayClient,
    ) -> std::io::Result<NetServer> {
        let backend = LocalBackend::new(client);
        NetServer::bind_with_backend(addr, config, backend)
    }

    /// Bind `addr` and start the reactor serving an arbitrary [`Backend`] —
    /// this is how the cluster router tier embeds itself in the reactor.
    ///
    /// # Errors
    ///
    /// Any I/O error binding or configuring the listener.
    pub fn bind_with_backend(
        addr: impl ToSocketAddrs,
        config: NetConfig,
        backend: impl Backend,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics = NetMetrics::register(&backend.telemetry());
        let mut reactor = Reactor {
            backend,
            config,
            metrics,
        };
        let (stop_tx, stop_rx) = mpsc::channel();
        let thread = std::thread::spawn(move || reactor.run(&listener, &stop_rx));
        Ok(NetServer {
            stop_tx,
            thread: Some(thread),
            local_addr,
        })
    }

    /// The bound address — what clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// True when the reactor thread has exited. A healthy server returns
    /// false until [`NetServer::stop`]; supervisors (like `sesr-netd`) poll
    /// this so a dead reactor becomes a visible failure instead of a
    /// listener that never answers.
    pub fn is_finished(&self) -> bool {
        self.thread
            .as_ref()
            .is_none_or(|thread| thread.is_finished())
    }

    /// Stop the reactor and join its thread. Connections are closed;
    /// replies still in flight are discarded.
    pub fn stop(mut self) {
        let _ = self.stop_tx.send(());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl<B: Backend> Reactor<B> {
    fn run(&mut self, listener: &TcpListener, stop_rx: &mpsc::Receiver<()>) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut sweep: usize = 0;
        loop {
            match stop_rx.try_recv() {
                Ok(()) | Err(mpsc::TryRecvError::Disconnected) => break,
                Err(mpsc::TryRecvError::Empty) => {}
            }
            let mut progress = false;

            // 1. Accept.
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        progress = true;
                        self.accept(stream, &mut conns);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }

            // 2–3. Read + parse, round-robin from a rotating start so no
            // connection is structurally first in line every sweep.
            let count = conns.len();
            for k in 0..count {
                let conn = &mut conns[(sweep + k) % count];
                progress |= self.service_read(conn);
                progress |= self.parse_frames(conn);
            }

            // 4. Give the backend one I/O turn (a cluster router flushes
            // and reads its member connections here; a local gateway is a
            // no-op), then poll in-flight replies and flush.
            progress |= self.backend.pump();
            for conn in conns.iter_mut() {
                progress |= self.poll_inflight(conn);
                progress |= self.flush(conn);
            }

            // Reap.
            let mut i = 0;
            while i < conns.len() {
                if conns[i].dead {
                    let conn = conns.swap_remove(i);
                    self.metrics.closed.incr();
                    self.metrics.connections.add(-1);
                    self.metrics.inflight.add(-(conn.inflight.len() as i64));
                    for inflight in &conn.inflight {
                        self.backend.forget(inflight.ticket);
                    }
                    progress = true;
                } else {
                    i += 1;
                }
            }

            sweep = sweep.wrapping_add(1);
            if !progress {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        // Stop path: account for the connections being dropped so the
        // gauges return to zero and `net.closed` stays an honest total.
        for conn in conns {
            self.metrics.closed.incr();
            self.metrics.connections.add(-1);
            self.metrics.inflight.add(-(conn.inflight.len() as i64));
            for inflight in &conn.inflight {
                self.backend.forget(inflight.ticket);
            }
        }
    }

    fn accept(&mut self, stream: TcpStream, conns: &mut Vec<Conn>) {
        if conns.len() >= MAX_CONNECTIONS {
            // Best-effort structured refusal: one retry-after frame, then
            // the connection is closed. A client that sees it knows the
            // listener (not its route) is saturated.
            self.metrics.conn_rejected.incr();
            let refusal = wire::encode(&Frame::Response(WireResponse {
                id: 0,
                body: ResponseBody::RetryAfter {
                    retry_after_ms: OVERLOAD_RETRY_AFTER_MS,
                    reason: RetryReason::Overloaded,
                },
            }));
            let mut stream = stream;
            let _ = stream.write(&refusal);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        self.metrics.accepted.incr();
        self.metrics.connections.add(1);
        self.metrics.accept_probe.observe(0, Duration::ZERO);
        conns.push(Conn {
            stream,
            read_buf: RecvBuf::new(),
            write_buf: Vec::new(),
            inflight: Vec::new(),
            bucket: self
                .config
                .per_client_limit
                .map(|limit| TokenBucket::new(limit, Instant::now())),
            broken: false,
            dead: false,
        });
    }

    /// Read under the fairness budget, each syscall asking for all of what
    /// is left of it; backpressure a connection that may not be parsed
    /// *and* already has a frame's worth of bytes queued by leaving further
    /// bytes in the kernel buffer (TCP flow control does the rest).
    fn service_read(&mut self, conn: &mut Conn) -> bool {
        if conn.dead || conn.broken {
            return false;
        }
        let mut read_total = 0usize;
        while read_total < READ_CHUNK {
            if !self.may_parse(conn)
                && conn.read_buf.len() >= wire::HEADER_LEN + wire::DEFAULT_MAX_PAYLOAD
            {
                break;
            }
            let want = READ_CHUNK - read_total;
            match conn.read_buf.read_from(&mut conn.stream, want) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    read_total += n;
                    // A short read emptied the socket: asking again would
                    // only return WouldBlock.
                    if n < want {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if read_total > 0 {
            self.metrics.bytes_rx.add(read_total as u64);
        }
        read_total > 0
    }

    /// Whether `conn` may have another frame parsed: it is below its
    /// in-flight cap and has fewer than [`wire::DEFAULT_MAX_PAYLOAD`] reply
    /// bytes unsent.
    fn may_parse(&self, conn: &Conn) -> bool {
        conn.inflight.len() < self.config.max_inflight_per_conn
            && conn.write_buf.len() < wire::DEFAULT_MAX_PAYLOAD
    }

    /// Parse and handle whole frames from the front of the read buffer,
    /// then drop the consumed bytes in one move.
    fn parse_frames(&mut self, conn: &mut Conn) -> bool {
        let mut buf = std::mem::take(&mut conn.read_buf);
        let mut at = 0;
        while !conn.broken && self.may_parse(conn) {
            match wire::decode_ref(&buf.bytes()[at..], wire::DEFAULT_MAX_PAYLOAD) {
                Ok(FrameDecode::Incomplete { .. }) => break,
                Ok(FrameDecode::Complete { frame, consumed }) => {
                    at += consumed;
                    self.metrics.frames_rx.incr();
                    self.handle_frame(conn, frame);
                }
                Err(err) => {
                    // The stream is unsynchronized: answer with a typed
                    // error frame, then close once it is flushed. This is
                    // deliberate — resynchronizing a length-prefixed stream
                    // after garbage is guesswork.
                    self.metrics.decode_errors.incr();
                    self.metrics.decode_probe.observe(0, Duration::ZERO);
                    self.queue_response(
                        conn,
                        WireResponse {
                            id: 0,
                            body: ResponseBody::InvalidRequest(err.to_string()),
                        },
                    );
                    conn.broken = true;
                    at = buf.len();
                }
            }
        }
        buf.consume(at);
        conn.read_buf = buf;
        at > 0
    }

    fn handle_frame(&mut self, conn: &mut Conn, frame: FrameRef<'_>) {
        match frame {
            FrameRef::Request(request) => self.handle_request(conn, request),
            FrameRef::Control(Frame::Stats { id }) => {
                let json = self.backend.stats_json();
                conn.write_buf
                    .extend_from_slice(&wire::encode(&Frame::StatsReply { id, json }));
                self.metrics.frames_tx.incr();
            }
            FrameRef::Control(Frame::Reload { id, route, pin }) => {
                let (ok, message) = match self.backend.reload(&route, pin) {
                    Ok(message) => (true, message),
                    Err(message) => (false, message),
                };
                conn.write_buf
                    .extend_from_slice(&wire::encode(&Frame::ReloadReply { id, ok, message }));
                self.metrics.frames_tx.incr();
            }
            FrameRef::Response(_) | FrameRef::Control(_) => {
                // Server-to-client frames arriving at the server are a
                // protocol violation.
                self.metrics.decode_errors.incr();
                self.queue_response(
                    conn,
                    WireResponse {
                        id: 0,
                        body: ResponseBody::InvalidRequest(
                            "client sent a server-side frame kind".to_string(),
                        ),
                    },
                );
                conn.broken = true;
            }
        }
    }

    fn handle_request(&mut self, conn: &mut Conn, request: RequestRef<'_>) {
        let id = request.id;

        let now = Instant::now();
        let denied = conn
            .bucket
            .as_ref()
            .and_then(|bucket| bucket.try_acquire_at(now).err());
        if let Some(wait) = denied {
            self.metrics.shed_rate_limit.incr();
            self.metrics.shed_probe.observe(id, wait);
            self.queue_response(
                conn,
                WireResponse {
                    id,
                    body: ResponseBody::RetryAfter {
                        retry_after_ms: u32::try_from(wait.as_millis().max(1)).unwrap_or(u32::MAX),
                        reason: RetryReason::RateLimited,
                    },
                },
            );
            return;
        }

        // Route existence: empty label = the backend's default.
        if !request.route.is_empty() && !self.backend.has_route(request.route) {
            self.queue_response(
                conn,
                WireResponse {
                    id,
                    body: ResponseBody::UnknownRoute(request.route.to_string()),
                },
            );
            return;
        }

        // The image goes on encoded; the backend that decodes it verifies
        // the content hash.
        match self.backend.submit(BackendRequest {
            route: request.route.to_string(),
            deadline_ms: request.deadline_ms,
            skip_cache: request.skip_cache,
            content_hash: request.content_hash,
            image: request.image(),
        }) {
            Submit::Ticket(ticket) => {
                self.metrics.admitted.incr();
                self.metrics.inflight.add(1);
                conn.inflight.push(Inflight {
                    id,
                    ticket,
                    started: now,
                });
            }
            Submit::Reply(body) => self.relay(conn, id, ResponseFrame::encode(id, &body)),
        }
    }

    /// Queue a backend's reply under the client's id. Overload sheds
    /// (whatever their origin — full queue, Unhealthy route, degraded
    /// cluster arc) and relayed deadline misses keep the same `net.*`
    /// counters the gateway-backed reactor always had; they are read off
    /// the status byte, so a relayed frame is never decoded.
    fn relay(&mut self, conn: &mut Conn, id: u64, mut frame: ResponseFrame) {
        if let Some(retry_after_ms) = frame.retry_after_ms() {
            self.metrics.shed_overload.incr();
            self.metrics
                .shed_probe
                .observe(id, Duration::from_millis(u64::from(retry_after_ms)));
        } else if frame.is_deadline_exceeded() {
            self.metrics.deadline_exceeded.incr();
        }
        frame.set_id(id);
        conn.write_buf.extend_from_slice(frame.as_bytes());
        self.metrics.frames_tx.incr();
    }

    fn poll_inflight(&mut self, conn: &mut Conn) -> bool {
        let mut progressed = false;
        let mut i = 0;
        while i < conn.inflight.len() {
            match self.backend.poll(conn.inflight[i].ticket) {
                Some(frame) => {
                    let inflight = conn.inflight.swap_remove(i);
                    self.metrics
                        .request_probe
                        .observe(inflight.id, inflight.started.elapsed());
                    self.metrics.inflight.add(-1);
                    self.relay(conn, inflight.id, frame);
                    progressed = true;
                }
                None => i += 1,
            }
        }
        progressed
    }

    fn queue_response(&mut self, conn: &mut Conn, response: WireResponse) {
        conn.write_buf
            .extend_from_slice(&wire::encode(&Frame::Response(response)));
        self.metrics.frames_tx.incr();
    }

    /// Write what the socket takes without blocking, then drop the sent
    /// prefix; a connection with a protocol violation dies once its error
    /// reply is out.
    fn flush(&mut self, conn: &mut Conn) -> bool {
        let mut sent = 0usize;
        while sent < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[sent..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        conn.write_buf.drain(..sent);
        if conn.broken && conn.write_buf.is_empty() {
            conn.dead = true;
        }
        if sent > 0 {
            self.metrics.bytes_tx.add(sent as u64);
        }
        sent > 0
    }
}
