//! Integration test for the router tier against *real* members — three
//! in-process `sesr-net` servers, each a full gateway — driven through the
//! raw [`Backend`] contract the reactor uses (submit / pump / poll). No
//! supervisor here: membership changes are written to the [`Members`]
//! table through its one write path, exactly as the supervisor writes them.

use sesr_cluster::{ClusterBackend, HashRing, MemberState, Members};
use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_net::{
    Backend, BackendRequest, EncodedTensor, NetConfig, NetServer, ResponseBody, Submit,
};
use sesr_serve::{content_hash, GatewayBuilder, RouteKey};
use sesr_telemetry::Telemetry;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The router's vnodes per member, to reconstruct its placement.
const VNODES: u32 = HashRing::DEFAULT_VNODES;

fn image(tag: u32) -> sesr_tensor::Tensor {
    let side = 8usize;
    let data: Vec<f32> = (0..3 * side * side)
        .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(tag * 977) % 251) as f32 / 251.0)
        .collect();
    sesr_tensor::Tensor::from_vec(sesr_tensor::Shape::new(&[1, 3, side, side]), data)
        .expect("static shape")
}

fn request_for(route: &str, tag: u32, skip_cache: bool) -> BackendRequest {
    let image = image(tag);
    BackendRequest {
        route: route.to_string(),
        deadline_ms: 0,
        skip_cache,
        content_hash: content_hash(&image, ""),
        image: EncodedTensor::encode(&image),
    }
}

/// Pump the backend until `ticket` answers (or the deadline passes), and
/// decode the relayed reply frame.
fn poll_until(backend: &mut ClusterBackend, ticket: u64, timeout: Duration) -> ResponseBody {
    let deadline = Instant::now() + timeout;
    loop {
        backend.pump();
        if let Some(frame) = backend.poll(ticket) {
            return frame.decode().expect("relayed reply decodes").body;
        }
        assert!(
            Instant::now() < deadline,
            "ticket {ticket} never answered within {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Publish member `id` `Up` at `addr`, as the supervisor does.
fn publish_up(members: &Members, id: u32, addr: SocketAddr) {
    members.update(id, |info| {
        info.state = MemberState::Up;
        info.addr = Some(addr);
    });
}

struct Fixture {
    backend: ClusterBackend,
    table: Arc<Members>,
    members: Vec<(NetServer, sesr_serve::DefenseGateway)>,
    route: RouteKey,
    // What ClusterBackend::reload hands the supervisor.
    commands: std::sync::mpsc::Receiver<sesr_cluster::supervisor::Command>,
}

fn start_fixture(member_count: u32) -> Fixture {
    let route = RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none());
    let mut members = Vec::new();
    let table = Arc::new(Members::new(member_count));
    let (command_tx, command_rx) = std::sync::mpsc::channel();
    let backend = ClusterBackend::new(
        Arc::new(Telemetry::new()),
        Arc::clone(&table),
        [route.label()],
        command_tx,
    );
    for id in 0..member_count {
        let gateway = GatewayBuilder::new()
            .route(route)
            .build()
            .expect("member gateway");
        let server = NetServer::bind("127.0.0.1:0", NetConfig::default(), gateway.client())
            .expect("bind member");
        publish_up(&table, id, server.local_addr());
        members.push((server, gateway));
    }
    Fixture {
        backend,
        table,
        members,
        route,
        commands: command_rx,
    }
}

impl Fixture {
    fn shutdown(self) {
        drop(self.backend);
        for (server, gateway) in self.members {
            server.stop();
            gateway.shutdown();
        }
    }
}

#[test]
fn forwards_across_the_fleet_and_keeps_cache_affinity() {
    let mut fixture = start_fixture(3);
    let label = fixture.route.label();
    fixture.backend.pump(); // dial the published members

    // A spread of requests: all must answer Ok through some member.
    let tickets: Vec<u64> = (0..24u32)
        .map(
            |tag| match fixture.backend.submit(request_for(&label, tag, false)) {
                Submit::Ticket(ticket) => ticket,
                Submit::Reply(body) => panic!("request {tag} shed at submit: {body:?}"),
            },
        )
        .collect();
    for ticket in tickets {
        let body = poll_until(&mut fixture.backend, ticket, Duration::from_secs(30));
        assert!(matches!(body, ResponseBody::Ok { .. }), "got {body:?}");
    }

    // Affinity: a repeat of request 7 must land on the same member and hit
    // that member's output cache — the whole point of content-hash routing.
    let Submit::Ticket(repeat) = fixture.backend.submit(request_for(&label, 7, false)) else {
        panic!("repeat shed at submit");
    };
    match poll_until(&mut fixture.backend, repeat, Duration::from_secs(30)) {
        ResponseBody::Ok { cache_hit, .. } => {
            assert!(cache_hit, "repeat must hit the owning member's cache")
        }
        other => panic!("repeat failed: {other:?}"),
    }

    // The routing metric counted every forward.
    let snapshot = fixture.backend.telemetry().snapshot();
    assert_eq!(snapshot.counter("cluster.forwarded"), Some(25));
    fixture.shutdown();
}

#[test]
fn down_member_sheds_only_its_arc() {
    let mut fixture = start_fixture(3);
    let label = fixture.route.label();
    fixture.backend.pump();

    // Reconstruct placement with an identical ring (determinism is proved
    // in the ring proptests) to find keys on each side of the failure.
    let ring = HashRing::with_members(3, VNODES);
    let owned_by = |member: u32| {
        (0..200u32).find(|&tag| {
            let request = request_for(&label, tag, true);
            ring.owner(&request.route, request.content_hash) == Some(member)
        })
    };
    let on_victim = owned_by(1).expect("some key lands on member 1");
    let on_survivor = owned_by(0).expect("some key lands on member 0");

    fixture.table.update(1, |info| {
        info.state = MemberState::Down;
        info.addr = None;
    });
    fixture.backend.pump();

    // The victim's arc sheds with a structured retry-after...
    match fixture.backend.submit(request_for(&label, on_victim, true)) {
        Submit::Reply(ResponseBody::RetryAfter { retry_after_ms, .. }) => {
            assert!(retry_after_ms >= 1)
        }
        other => panic!("victim arc must shed at submit, got {other:?}"),
    }
    // ...while the survivors' arcs keep serving.
    let Submit::Ticket(ticket) = fixture
        .backend
        .submit(request_for(&label, on_survivor, true))
    else {
        panic!("survivor arc shed");
    };
    let body = poll_until(&mut fixture.backend, ticket, Duration::from_secs(30));
    assert!(matches!(body, ResponseBody::Ok { .. }), "got {body:?}");

    let snapshot = fixture.backend.telemetry().snapshot();
    assert!(
        snapshot.counter("cluster.shed.member_down").unwrap_or(0) >= 1,
        "the shed must be counted"
    );
    fixture.shutdown();
}

#[test]
fn restarted_member_is_routable_again_without_a_pump() {
    let mut fixture = start_fixture(2);
    let label = fixture.route.label();
    let ring = HashRing::with_members(2, VNODES);
    let on_victim = (0..200u32)
        .find(|&tag| {
            let request = request_for(&label, tag, true);
            ring.owner(&request.route, request.content_hash) == Some(1)
        })
        .expect("some key lands on member 1");
    let victim = fixture.members[1].0.local_addr();

    fixture.table.update(1, |info| {
        info.state = MemberState::Down;
        info.addr = None;
    });
    assert!(matches!(
        fixture.backend.submit(request_for(&label, on_victim, true)),
        Submit::Reply(ResponseBody::RetryAfter { .. })
    ));
    // The supervisor's restart: a new incarnation published `Up`.
    fixture.table.update(1, |info| {
        info.state = MemberState::Up;
        info.addr = Some(victim);
        info.pid = Some(2);
    });
    let Submit::Ticket(ticket) = fixture.backend.submit(request_for(&label, on_victim, true))
    else {
        panic!("a member published Up again must be routable on the next submit");
    };
    let body = poll_until(&mut fixture.backend, ticket, Duration::from_secs(30));
    assert!(matches!(body, ResponseBody::Ok { .. }), "got {body:?}");
    fixture.shutdown();
}

#[test]
fn announced_members_are_routable_before_the_first_pump() {
    // The reactor parses frames (→ submit) before it pumps the backend, so
    // a request can arrive before any pump since the members were published
    // `Up`: it must be forwarded, not shed as "member down".
    let mut fixture = start_fixture(2);
    let label = fixture.route.label();
    for tag in 0..8u32 {
        match fixture.backend.submit(request_for(&label, tag, false)) {
            Submit::Ticket(ticket) => {
                let body = poll_until(&mut fixture.backend, ticket, Duration::from_secs(30));
                assert!(matches!(body, ResponseBody::Ok { .. }), "got {body:?}");
            }
            Submit::Reply(body) => panic!("request {tag} shed before the first pump: {body:?}"),
        }
    }
    let snapshot = fixture.backend.telemetry().snapshot();
    assert_eq!(snapshot.counter("cluster.shed.member_down").unwrap_or(0), 0);
    fixture.shutdown();
}

#[test]
fn unknown_members_and_empty_rings_shed_instead_of_blocking() {
    // No member is ever published `Up`: every submit sheds immediately —
    // the front must never block on a member that is not there.
    let route = RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none());
    let (command_tx, _command_rx) = std::sync::mpsc::channel();
    let mut backend = ClusterBackend::new(
        Arc::new(Telemetry::new()),
        Arc::new(Members::new(2)),
        [route.label()],
        command_tx,
    );
    assert!(backend.has_route(&route.label()));
    assert!(!backend.has_route("nope:x2:raw"));
    let started = Instant::now();
    match backend.submit(request_for(&route.label(), 1, false)) {
        Submit::Reply(ResponseBody::RetryAfter { .. }) => {}
        other => panic!("must shed with retry-after, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shedding must not block"
    );
}

#[test]
fn reload_of_an_unknown_route_is_rejected_at_the_front() {
    let mut fixture = start_fixture(1);
    let label = fixture.route.label();
    assert_eq!(
        fixture.backend.reload("nope:x2:raw", None),
        Err("unknown route nope:x2:raw".to_string()),
        "the front answers an unknown route as a single gateway does"
    );
    assert!(
        fixture.backend.reload("", Some((1, 0xab))).is_err(),
        "a pin names one route"
    );
    assert!(
        fixture.commands.try_recv().is_err(),
        "nothing reached the supervisor"
    );

    assert!(fixture.backend.reload(&label, None).is_ok());
    match fixture.commands.try_recv() {
        Ok(sesr_cluster::supervisor::Command::Reload { route, pin }) => {
            assert_eq!((route, pin), (label, None));
        }
        other => panic!("a known route is handed to the supervisor, got {other:?}"),
    }
    fixture.shutdown();
}
