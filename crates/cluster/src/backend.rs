//! The router tier: a [`sesr_net::Backend`] that forwards each admitted
//! request to the worker process owning it on the consistent-hash ring.
//!
//! [`ClusterBackend`] plugs into the same reactor loop `sesr-netd` runs, so
//! the front tier inherits every admission control the single-process
//! server has (frame structure, token buckets, connection caps) and adds
//! one responsibility: *placement*. On submit it hashes
//! `(route, content_hash)` onto the ring and appends the request to the
//! owning member's link buffer — a fresh header and wire id in front of
//! the image bytes, copied untouched. The reactor's per-sweep
//! [`pump`](sesr_net::Backend::pump) call flushes writes, reads reply
//! frames and hands them back to their tickets still encoded — all
//! non-blocking, so a dead member can never stall the front. The front
//! never converts a tensor: the member decodes the image and verifies its
//! content hash, once.
//!
//! Degradation is *arc-local by construction*: a `Down` member keeps its
//! ring identity (no remap), and requests hashing onto its arcs are
//! answered `RetryAfter` immediately while every other arc keeps serving.
//! Membership changes arrive as [`Control`] messages from the supervisor,
//! and none of them remaps an arc.

use crate::ring::HashRing;
use crate::supervisor::{probe_policy, Command, Control};
use crate::MemberId;
use sesr_net::wire::{self, FrameDecode, FrameRef};
use sesr_net::{Backend, BackendRequest, ResponseBody, ResponseFrame, RetryReason, Submit};
use sesr_serve::ArtifactId;
use sesr_telemetry::{merge_snapshots, prefix_snapshot, Telemetry, TelemetrySnapshot};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One forwarded request awaiting its member's reply.
struct Forward {
    ticket: u64,
    started: Instant,
}

/// The router's connection to one member: a non-blocking stream plus
/// buffered bytes in both directions and the wire-id → ticket map.
struct Link {
    addr: SocketAddr,
    /// The supervisor's verdict: false after `MemberDown`, true after
    /// `MemberUp`. A link may only re-dial while `up` — when the router
    /// lost its TCP connection but the member process is (as far as the
    /// supervisor knows) alive. A member declared down sheds until the
    /// supervisor announces its restart.
    up: bool,
    stream: Option<TcpStream>,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    inflight: HashMap<u64, Forward>,
    next_wire_id: u64,
}

impl Link {
    fn new(addr: SocketAddr) -> Link {
        Link {
            addr,
            up: true,
            stream: None,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            inflight: HashMap::new(),
            next_wire_id: 1,
        }
    }

    /// Dial the member (blocking connect on loopback, then switched to
    /// non-blocking for the reactor's sweep).
    fn connect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        self.stream = Some(stream);
        self.read_buf.clear();
        self.write_buf.clear();
        Ok(())
    }
}

/// A consistent-hash router over the fleet, embedded in the front reactor.
pub struct ClusterBackend {
    telemetry: Arc<Telemetry>,
    ring: HashRing,
    routes: HashSet<String>,
    links: HashMap<MemberId, Link>,
    control: Receiver<Control>,
    commands: Sender<Command>,
    /// Replies ready for [`Backend::poll`], keyed by ticket.
    done: HashMap<u64, ResponseFrame>,
    next_ticket: u64,
    retry_after: Duration,
    snapshots: Arc<Mutex<HashMap<MemberId, TelemetrySnapshot>>>,
}

impl ClusterBackend {
    /// Build a router for `member_count` members (ids `0..n`, all initially
    /// down until the supervisor announces them) serving `route_labels`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        telemetry: Arc<Telemetry>,
        member_count: u32,
        vnodes: u32,
        route_labels: impl IntoIterator<Item = String>,
        control: Receiver<Control>,
        commands: Sender<Command>,
        retry_after: Duration,
        snapshots: Arc<Mutex<HashMap<MemberId, TelemetrySnapshot>>>,
    ) -> ClusterBackend {
        ClusterBackend {
            telemetry,
            ring: HashRing::with_members(member_count, vnodes),
            routes: route_labels.into_iter().collect(),
            links: HashMap::new(),
            control,
            commands,
            done: HashMap::new(),
            next_ticket: 1,
            retry_after,
            snapshots,
        }
    }

    /// The structured shed for an arc whose member is down.
    fn member_down_body(&self) -> ResponseBody {
        self.telemetry
            .metrics()
            .counter("cluster.shed.member_down")
            .incr();
        ResponseBody::RetryAfter {
            retry_after_ms: u32::try_from(self.retry_after.as_millis().max(1)).unwrap_or(u32::MAX),
            reason: RetryReason::Unhealthy,
        }
    }

    /// Apply one membership change from the supervisor.
    fn apply_control(&mut self, message: Control) {
        match message {
            Control::MemberUp { id, addr } => {
                let link = self.links.entry(id).or_insert_with(|| Link::new(addr));
                link.addr = addr;
                self.fail_link_inflight(id);
                let link = match self.links.get_mut(&id) {
                    Some(link) => link,
                    None => return,
                };
                link.up = true;
                if link.connect().is_err() {
                    link.stream = None;
                }
            }
            Control::MemberDown { id } => {
                self.fail_link_inflight(id);
                if let Some(link) = self.links.get_mut(&id) {
                    link.up = false;
                    link.stream = None;
                }
            }
        }
    }

    /// Apply every membership change the supervisor has sent so far.
    /// Returns true when there was one.
    fn apply_pending_control(&mut self) -> bool {
        let mut progress = false;
        while let Ok(message) = self.control.try_recv() {
            self.apply_control(message);
            progress = true;
        }
        progress
    }

    /// Answer every request in flight on `id`'s link with a retry-after —
    /// the member is gone and its replies will never come.
    fn fail_link_inflight(&mut self, id: MemberId) {
        let Some(link) = self.links.get_mut(&id) else {
            return;
        };
        let orphans: Vec<Forward> = link.inflight.drain().map(|(_, fwd)| fwd).collect();
        link.read_buf.clear();
        link.write_buf.clear();
        for orphan in orphans {
            let frame = ResponseFrame::encode(orphan.ticket, &self.member_down_body());
            self.done.insert(orphan.ticket, frame);
        }
    }

    /// The link lost its transport mid-conversation: count it, shed its
    /// in-flight requests, drop the stream. The supervisor's health probe
    /// notices a dead *process*; this path also covers a dropped TCP
    /// connection under a live process, which the next submit re-dials.
    fn member_lost(&mut self, id: MemberId) {
        self.telemetry
            .metrics()
            .counter("cluster.member_lost")
            .incr();
        self.fail_link_inflight(id);
        if let Some(link) = self.links.get_mut(&id) {
            link.stream = None;
        }
    }

    /// Flush buffered writes and drain readable replies on every link.
    /// Returns true when any byte moved or any reply completed.
    fn pump_links(&mut self) -> bool {
        let mut progress = false;
        let mut lost: Vec<MemberId> = Vec::new();
        let ids: Vec<MemberId> = self.links.keys().copied().collect();
        let mut finished: Vec<(u64, ResponseFrame, MemberId, Duration)> = Vec::new();
        for id in ids {
            let Some(link) = self.links.get_mut(&id) else {
                continue;
            };
            let Some(stream) = link.stream.as_mut() else {
                continue;
            };
            // Write side.
            while !link.write_buf.is_empty() {
                match stream.write(&link.write_buf) {
                    Ok(0) => {
                        lost.push(id);
                        break;
                    }
                    Ok(n) => {
                        link.write_buf.drain(..n);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        lost.push(id);
                        break;
                    }
                }
            }
            if lost.contains(&id) {
                continue;
            }
            // Read side.
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        lost.push(id);
                        break;
                    }
                    Ok(n) => {
                        link.read_buf.extend_from_slice(&chunk[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        lost.push(id);
                        break;
                    }
                }
            }
            if lost.contains(&id) {
                continue;
            }
            // Take every whole reply frame through a read offset; the
            // consumed prefix is dropped once, after the burst.
            let mut at = 0;
            loop {
                match wire::decode_ref(&link.read_buf[at..], wire::DEFAULT_MAX_PAYLOAD) {
                    Ok(FrameDecode::Complete { frame, consumed }) => {
                        at += consumed;
                        progress = true;
                        if let FrameRef::Response(response) = frame {
                            if let Some(forward) = link.inflight.remove(&response.id) {
                                finished.push((
                                    forward.ticket,
                                    response.to_frame(),
                                    id,
                                    forward.started.elapsed(),
                                ));
                            }
                        }
                        // Anything else on a forward link (stats or reload
                        // replies are never requested here) is ignored.
                    }
                    Ok(FrameDecode::Incomplete { .. }) => break,
                    Err(_) => {
                        // A member speaking garbage is as good as gone.
                        lost.push(id);
                        break;
                    }
                }
            }
            link.read_buf.drain(..at);
        }
        for (ticket, frame, member, elapsed) in finished {
            self.telemetry
                .metrics()
                .histogram(&format!("cluster.member.{member}.forward_ns"))
                .record_duration(elapsed);
            self.done.insert(ticket, frame);
        }
        for id in lost {
            self.member_lost(id);
            progress = true;
        }
        progress
    }
}

impl Backend for ClusterBackend {
    fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    fn has_route(&self, label: &str) -> bool {
        self.routes.contains(label)
    }

    fn submit(&mut self, request: BackendRequest) -> Submit {
        let Some(owner) = self.ring.owner(&request.route, request.content_hash) else {
            // An empty ring (a zero-member fleet): nothing owns the arc.
            return Submit::Reply(self.member_down_body());
        };
        if !self.links.get(&owner).is_some_and(|link| link.up) {
            // The reactor parses frames before it pumps the backend, so the
            // first request after `Cluster::wait_ready` can get here ahead
            // of the queued `MemberUp`: apply what the supervisor has
            // already announced before calling the arc down.
            self.apply_pending_control();
        }
        let disconnected = match self.links.get(&owner) {
            // Declared down by the supervisor: shed until its restart is
            // announced — no re-dial, even if something still listens.
            Some(link) if !link.up => return Submit::Reply(self.member_down_body()),
            Some(link) => link.stream.is_none(),
            // The supervisor has not announced this member yet.
            None => return Submit::Reply(self.member_down_body()),
        };
        if disconnected {
            // The member may be fine with only our TCP connection dead —
            // one cheap re-dial before shedding the arc.
            let redialed = self
                .links
                .get_mut(&owner)
                .is_some_and(|link| link.connect().is_ok());
            if !redialed {
                return Submit::Reply(self.member_down_body());
            }
            self.telemetry
                .metrics()
                .counter("cluster.reconnects")
                .incr();
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if let Some(link) = self.links.get_mut(&owner) {
            let wire_id = link.next_wire_id;
            link.next_wire_id += 1;
            request.encode_into(wire_id, &mut link.write_buf);
            link.inflight.insert(
                wire_id,
                Forward {
                    ticket,
                    started: Instant::now(),
                },
            );
        }
        self.telemetry.metrics().counter("cluster.forwarded").incr();
        Submit::Ticket(ticket)
    }

    fn poll(&mut self, ticket: u64) -> Option<ResponseFrame> {
        self.done.remove(&ticket)
    }

    fn forget(&mut self, ticket: u64) {
        if self.done.remove(&ticket).is_some() {
            return;
        }
        for link in self.links.values_mut() {
            if let Some(wire_id) = link
                .inflight
                .iter()
                .find(|(_, fwd)| fwd.ticket == ticket)
                .map(|(&wire_id, _)| wire_id)
            {
                link.inflight.remove(&wire_id);
                return;
            }
        }
    }

    fn pump(&mut self) -> bool {
        self.apply_pending_control() | self.pump_links()
    }

    fn reload(&mut self, route: &str, pin: Option<ArtifactId>) -> Result<String, String> {
        if route.is_empty() && pin.is_some() {
            return Err("a pinned reload names one route".to_string());
        }
        if !route.is_empty() && !self.has_route(route) {
            return Err(format!("unknown route {route}"));
        }
        // Reload is a fleet operation: hand it to the supervisor, which
        // resolves the artifact once and owns the pinned fan-out (and its
        // exactly-once accounting). The wire reply acknowledges
        // scheduling, not completion.
        self.commands
            .send(Command::Reload {
                route: route.to_string(),
                pin,
            })
            .map_err(|_| "supervisor is gone".to_string())?;
        Ok("reload scheduled for fleet fan-out".to_string())
    }

    fn stats_json(&self) -> String {
        stats_snapshot(&self.telemetry, &self.snapshots).to_json()
    }
}

/// The front's full stats view: its own hub (admission + `cluster.*`
/// routing metrics) extended with the health probes' member snapshots
/// merged into one fleet rollup under `cluster.fleet.*`. Shared by the
/// wire Stats frame and [`Cluster::stats_snapshot`](crate::Cluster).
pub(crate) fn stats_snapshot(
    telemetry: &Telemetry,
    snapshots: &Mutex<HashMap<MemberId, TelemetrySnapshot>>,
) -> TelemetrySnapshot {
    let mut snapshot = telemetry.snapshot();
    let fleet = {
        let members = lock(snapshots);
        let parts: Vec<&TelemetrySnapshot> = members.values().collect();
        prefix_snapshot(merge_snapshots(parts), "cluster.fleet.")
    };
    snapshot.counters.extend(fleet.counters);
    snapshot.gauges.extend(fleet.gauges);
    snapshot.histograms.extend(fleet.histograms);
    snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot
}

/// Poison-tolerant lock (same rationale as the supervisor's).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The reconnect policy exposed for cluster-internal clients (re-exported
/// so the worker bin and tests share one schedule).
pub fn reconnect_policy() -> sesr_net::ReconnectPolicy {
    probe_policy()
}
