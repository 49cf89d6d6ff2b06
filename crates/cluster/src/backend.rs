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
//! Membership comes from the supervisor's [`Members`] table: one atomic
//! load per submit and pump tells the router whether it changed, and none
//! of the changes remaps an arc.

use crate::members::{MemberState, Members};
use crate::ring::HashRing;
use crate::supervisor::Command;
use crate::MemberId;
use sesr_net::wire::{self, FrameDecode, FrameRef};
use sesr_net::{
    Backend, BackendRequest, RecvBuf, ResponseBody, ResponseFrame, RetryReason, Submit,
};
use sesr_serve::ArtifactId;
use sesr_telemetry::{Histogram, Telemetry};
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most bytes one read from a member asks for (the reactor's default read
/// budget).
const LINK_READ: usize = 64 * 1024;

/// One forwarded request awaiting its member's reply.
struct Forward {
    ticket: u64,
    started: Instant,
}

/// The router's connection to one `Up` member incarnation: a non-blocking
/// stream plus buffered bytes in both directions and the wire-id → ticket
/// map. Only `Up` members have a link, so a link may re-dial — the router
/// lost its TCP connection but the member process is (as far as the
/// supervisor knows) alive — and a member without one sheds.
struct Link {
    addr: SocketAddr,
    /// The incarnation dialled: a restarted member has a new pid.
    pid: Option<u32>,
    stream: Option<TcpStream>,
    read_buf: RecvBuf,
    write_buf: Vec<u8>,
    inflight: HashMap<u64, Forward>,
    next_wire_id: u64,
    /// `cluster.member.<id>.forward_ns`, resolved at the first reply so a
    /// histogram exists only for a member that answered.
    forward_ns: Option<Arc<Histogram>>,
}

impl Link {
    /// A link to the member incarnation at `addr`, dialled at once; a failed
    /// dial leaves it disconnected for the next submit to re-dial.
    fn open(addr: SocketAddr, pid: Option<u32>) -> Link {
        let mut link = Link {
            addr,
            pid,
            stream: None,
            read_buf: RecvBuf::new(),
            write_buf: Vec::new(),
            inflight: HashMap::new(),
            next_wire_id: 1,
            forward_ns: None,
        };
        let _ = link.connect();
        link
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

    /// Move bytes both ways without blocking: flush the write buffer
    /// through an offset (the sent prefix is dropped once, after the
    /// writes), then drain what is readable into the read buffer. True when
    /// a byte moved; an error means the transport is gone. A link without a
    /// stream moves nothing.
    fn transfer(&mut self) -> std::io::Result<bool> {
        let Some(stream) = self.stream.as_mut() else {
            return Ok(false);
        };
        let mut sent = 0;
        while sent < self.write_buf.len() {
            match stream.write(&self.write_buf[sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.write_buf.drain(..sent);
        let mut moved = sent > 0;
        loop {
            match self.read_buf.read_from(stream, LINK_READ) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    moved = true;
                    // A short read emptied the socket.
                    if n < LINK_READ {
                        return Ok(moved);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(moved),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// A consistent-hash router over the fleet, embedded in the front reactor.
pub struct ClusterBackend {
    telemetry: Arc<Telemetry>,
    ring: HashRing,
    routes: HashSet<String>,
    members: Arc<Members>,
    /// The table generation the links were last brought in line with.
    generation: u64,
    links: HashMap<MemberId, Link>,
    commands: Sender<Command>,
    /// Replies ready for [`Backend::poll`], keyed by ticket.
    done: HashMap<u64, ResponseFrame>,
    next_ticket: u64,
    retry_after: Duration,
}

impl ClusterBackend {
    /// Build a router over `members` (ids `0..n`; each routable while the
    /// table says `Up`) serving `route_labels`.
    pub fn new(
        telemetry: Arc<Telemetry>,
        members: Arc<Members>,
        vnodes: u32,
        route_labels: impl IntoIterator<Item = String>,
        commands: Sender<Command>,
        retry_after: Duration,
    ) -> ClusterBackend {
        ClusterBackend {
            telemetry,
            ring: HashRing::with_members(members.view().len() as u32, vnodes),
            routes: route_labels.into_iter().collect(),
            members,
            generation: 0,
            links: HashMap::new(),
            commands,
            done: HashMap::new(),
            next_ticket: 1,
            retry_after,
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

    /// Bring the links in line with the member table if its generation
    /// moved (otherwise this is one atomic load). A link whose member is no
    /// longer `Up`, or is `Up` at another address or as another process,
    /// fails its in-flight requests and goes; an `Up` member without a link
    /// is dialled. Returns true when the table had moved.
    fn sync(&mut self) -> bool {
        let generation = self.members.generation();
        if generation == self.generation {
            return false;
        }
        self.generation = generation;
        for info in self.members.view() {
            let up = info.state == MemberState::Up;
            let serving = info.addr.filter(|_| up).map(|addr| (addr, info.pid));
            let linked = self.links.get(&info.id).map(|link| (link.addr, link.pid));
            if linked == serving {
                continue;
            }
            self.fail_link_inflight(info.id);
            self.links.remove(&info.id);
            if let Some((addr, pid)) = serving {
                self.links.insert(info.id, Link::open(addr, pid));
            }
        }
        true
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

    /// Flush buffered writes and drain readable replies on every link.
    /// Returns true when any byte moved or any reply completed.
    fn pump_links(&mut self) -> bool {
        let mut progress = false;
        let mut lost: Vec<MemberId> = Vec::new();
        for (&id, link) in self.links.iter_mut() {
            match link.transfer() {
                Ok(moved) => progress |= moved,
                Err(_) => {
                    lost.push(id);
                    continue;
                }
            }
            // Take every whole reply frame through a read offset; the
            // consumed prefix is dropped once, after the burst.
            let mut at = 0;
            loop {
                match wire::decode_ref(&link.read_buf.bytes()[at..], wire::DEFAULT_MAX_PAYLOAD) {
                    Ok(FrameDecode::Complete { frame, consumed }) => {
                        at += consumed;
                        progress = true;
                        if let FrameRef::Response(response) = frame {
                            if let Some(forward) = link.inflight.remove(&response.id) {
                                link.forward_ns
                                    .get_or_insert_with(|| {
                                        self.telemetry
                                            .metrics()
                                            .histogram(&format!("cluster.member.{id}.forward_ns"))
                                    })
                                    .record_duration(forward.started.elapsed());
                                self.done.insert(forward.ticket, response.to_frame());
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
            link.read_buf.consume(at);
        }
        // A lost transport sheds its in-flight requests and drops the
        // stream. The supervisor's health probe notices a dead *process*;
        // this also covers a dropped TCP connection under a live process,
        // which the next submit re-dials.
        for id in lost {
            self.telemetry
                .metrics()
                .counter("cluster.member_lost")
                .incr();
            self.fail_link_inflight(id);
            if let Some(link) = self.links.get_mut(&id) {
                link.stream = None;
            }
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
        // A member published `Up` is routable on the very next submit.
        self.sync();
        let Some(owner) = self.ring.owner(&request.route, request.content_hash) else {
            // An empty ring (a zero-member fleet): nothing owns the arc.
            return Submit::Reply(self.member_down_body());
        };
        // No link: the supervisor has not published this member `Up` (or
        // declared it down) — shed until it does, no re-dial even if
        // something still listens.
        let Some(link) = self.links.get_mut(&owner) else {
            return Submit::Reply(self.member_down_body());
        };
        if link.stream.is_none() {
            // The member may be fine with only our TCP connection dead —
            // one cheap re-dial before shedding the arc.
            if link.connect().is_err() {
                return Submit::Reply(self.member_down_body());
            }
            self.telemetry
                .metrics()
                .counter("cluster.reconnects")
                .incr();
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
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
        self.sync() | self.pump_links()
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
        self.members.stats_snapshot(&self.telemetry).to_json()
    }
}
