//! The cluster front relays what it does not run: a request's image goes to
//! its member still encoded, the member's reply comes back byte for byte
//! with only the correlation id rewritten, and the content hash is checked
//! once, by the member that decodes the image. Structural checks stay at
//! the front, so malformed input never reaches a member link.
//!
//! One in-process member (a full `sesr-net` server over a gateway) behind a
//! real front reactor running a `ClusterBackend`; the member is published
//! `Up` in the [`Members`] table as the supervisor would publish it.

use sesr_cluster::supervisor::Command;
use sesr_cluster::{ClusterBackend, MemberState, Members};
use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_net::wire::{self, HEADER_LEN};
use sesr_net::{Frame, NetClient, NetConfig, NetServer, RequestOptions, ResponseBody, WireRequest};
use sesr_serve::{content_hash, DefenseGateway, GatewayBuilder, RouteKey};
use sesr_telemetry::{Telemetry, TelemetrySnapshot};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

const RECV: Duration = Duration::from_secs(30);

fn image(tag: u32) -> sesr_tensor::Tensor {
    let side = 8usize;
    let data: Vec<f32> = (0..3 * side * side)
        .map(|i| ((i as u32).wrapping_mul(37).wrapping_add(tag * 613) % 241) as f32 / 241.0)
        .collect();
    sesr_tensor::Tensor::from_vec(sesr_tensor::Shape::new(&[1, 3, side, side]), data)
        .expect("static shape")
}

struct Front {
    server: NetServer,
    telemetry: Arc<Telemetry>,
    member: NetServer,
    gateway: DefenseGateway,
    // Held so ClusterBackend::reload has a live receiver.
    _commands: Receiver<Command>,
}

fn start() -> Front {
    let route = RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .route(route)
        .build()
        .expect("member gateway");
    let member = NetServer::bind("127.0.0.1:0", NetConfig::default(), gateway.client())
        .expect("bind member");
    let telemetry = Arc::new(Telemetry::new());
    let (command_tx, command_rx) = std::sync::mpsc::channel();
    let members = Arc::new(Members::new(1));
    let backend = ClusterBackend::new(
        Arc::clone(&telemetry),
        Arc::clone(&members),
        [route.label()],
        command_tx,
    );
    members.update(0, |info| {
        info.state = MemberState::Up;
        info.addr = Some(member.local_addr());
    });
    let server = NetServer::bind_with_backend("127.0.0.1:0", NetConfig::default(), backend)
        .expect("bind front");
    Front {
        server,
        telemetry,
        member,
        gateway,
        _commands: command_rx,
    }
}

impl Front {
    fn member_snapshot(&self) -> TelemetrySnapshot {
        self.gateway.client().telemetry_snapshot()
    }

    fn shutdown(self) {
        self.server.stop();
        self.member.stop();
        self.gateway.shutdown();
    }
}

/// Read one whole frame, header included, off a blocking stream.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; HEADER_LEN];
    stream.read_exact(&mut frame).expect("frame header");
    let len = u32::from_le_bytes([frame[8], frame[9], frame[10], frame[11]]) as usize;
    frame.resize(HEADER_LEN + len, 0);
    stream
        .read_exact(&mut frame[HEADER_LEN..])
        .expect("frame payload");
    frame
}

/// Send `request` on a fresh raw connection to `addr` and return the reply
/// frame's bytes exactly as they arrived.
fn raw_round_trip(addr: SocketAddr, request: &WireRequest) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(RECV)).expect("timeout");
    stream
        .write_all(&wire::encode(&Frame::Request(request.clone())))
        .expect("send");
    read_frame(&mut stream)
}

#[test]
fn hash_mismatch_is_answered_by_the_member_not_the_front() {
    let front = start();
    let mut client = NetClient::connect(front.server.local_addr()).expect("connect");
    let mut request = client.make_request(image(1), &RequestOptions::default());
    request.content_hash ^= 0xFFFF;
    client.send_request(&request).expect("send corrupted");
    let reply = client.recv_response(request.id, RECV).expect("answered");
    assert!(
        matches!(reply.body, ResponseBody::InvalidRequest(_)),
        "a wrong content hash is an integrity failure, got {:?}",
        reply.body
    );

    let front_snapshot = front.telemetry.snapshot();
    assert_eq!(front_snapshot.counter("cluster.forwarded"), Some(1));
    assert_eq!(front_snapshot.counter("net.hash_mismatch").unwrap_or(0), 0);
    assert_eq!(
        front.member_snapshot().counter("net.hash_mismatch"),
        Some(1)
    );

    // The front's connection stays open: the same client is served next.
    let reply = client
        .defend(image(1), &RequestOptions::default(), RECV)
        .expect("same connection still serves");
    assert!(matches!(reply.body, ResponseBody::Ok { .. }));
    front.shutdown();
}

#[test]
fn malformed_tensor_is_refused_at_the_front() {
    let front = start();
    let image = image(2);
    let mut bytes = wire::encode(&Frame::Request(WireRequest {
        id: 9,
        route: String::new(),
        deadline_ms: 0,
        skip_cache: false,
        content_hash: content_hash(&image, ""),
        image,
    }));
    // The last dim of the `[1, 3, 8, 8]` image sits just before the f32
    // data; claiming 9 makes the dims product disagree with the bytes.
    let last_dim = bytes.len() - 3 * 8 * 8 * 4 - 4;
    assert_eq!(bytes[last_dim..last_dim + 4], 8u32.to_le_bytes());
    bytes[last_dim..last_dim + 4].copy_from_slice(&9u32.to_le_bytes());

    let mut client = NetClient::connect(front.server.local_addr()).expect("connect");
    client.send_raw(&bytes).expect("send malformed");
    match client.recv(RECV).expect("refusal") {
        Frame::Response(response) => assert!(
            matches!(response.body, ResponseBody::InvalidRequest(_)),
            "got {:?}",
            response.body
        ),
        other => panic!("expected a refusal, got {other:?}"),
    }

    let front_snapshot = front.telemetry.snapshot();
    assert_eq!(front_snapshot.counter("net.decode_errors"), Some(1));
    assert_eq!(front_snapshot.counter("cluster.forwarded").unwrap_or(0), 0);
    assert_eq!(
        front_snapshot.counter("cluster.member_lost").unwrap_or(0),
        0
    );
    assert_eq!(
        front
            .member_snapshot()
            .counter("net.frames_rx")
            .unwrap_or(0),
        0,
        "nothing malformed may reach the member"
    );
    front.shutdown();
}

#[test]
fn relayed_ok_reply_differs_from_the_members_only_in_its_id() {
    let front = start();
    let image = image(3);
    let request = |id: u64| WireRequest {
        id,
        route: String::new(),
        deadline_ms: 0,
        // Both runs miss the member's cache, so the replies agree on it.
        skip_cache: true,
        content_hash: content_hash(&image, ""),
        image: image.clone(),
    };
    let direct = raw_round_trip(front.member.local_addr(), &request(7));
    let relayed = raw_round_trip(front.server.local_addr(), &request(8));

    match wire::decode(&relayed, wire::DEFAULT_MAX_PAYLOAD).expect("relayed reply decodes") {
        wire::FrameDecode::Complete {
            frame: Frame::Response(response),
            ..
        } => {
            assert_eq!(response.id, 8);
            assert!(matches!(response.body, ResponseBody::Ok { .. }));
        }
        other => panic!("expected an Ok response, got {other:?}"),
    }
    assert_eq!(direct.len(), relayed.len());
    let id = HEADER_LEN..HEADER_LEN + 8;
    assert_eq!(direct[id.clone()], 7u64.to_le_bytes());
    assert_eq!(direct[..id.start], relayed[..id.start]);
    assert_eq!(direct[id.end..], relayed[id.end..]);
    front.shutdown();
}
