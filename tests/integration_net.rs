//! End-to-end tests of the network front-end over real loopback sockets:
//! request/response round-trips into the gateway's shard queues, wire-level
//! deadline propagation (a request that expires in the queue is answered —
//! never computed — and does not wedge the reactor), structured retry-after
//! replies for overload and rate-limit sheds, protocol-violation handling,
//! the connection cap, reply buffering bounded for a client that does not
//! read, and `net.*` metrics visibility through the wire-level stats frame.

use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_net::wire::{self, DEFAULT_MAX_PAYLOAD};
use sesr_net::{
    Frame, FrameDecode, NetClient, NetConfig, NetError, NetServer, RateLimit, RecvBuf,
    RequestOptions, ResponseBody, RetryReason, WireRequest, WireResponse, MAX_CONNECTIONS,
    OVERLOAD_RETRY_AFTER_MS, READ_CHUNK,
};
use sesr_serve::{content_hash, DefenseGateway, GatewayBuilder, RouteConfig, RouteKey};
use sesr_telemetry::TelemetrySnapshot;
use sesr_tensor::{Shape, Tensor};
use std::collections::HashSet;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const RECV: Duration = Duration::from_secs(30);

/// A deterministic unique image; `tag` differentiates content (and thus the
/// server-side cache key). Dims stay divisible by 4 for the wavelet stage.
fn image(tag: u32, side: usize) -> Tensor {
    let data: Vec<f32> = (0..3 * side * side)
        .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(tag * 7919) % 251) as f32 / 251.0)
        .collect();
    Tensor::from_vec(Shape::new(&[1, 3, side, side]), data).expect("static shape")
}

fn fast_route() -> RouteKey {
    RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none())
}

/// The paper's full preprocessing — JPEG + wavelet — which is slow enough
/// (on CI-sized images) to make queues observable.
fn slow_route() -> RouteKey {
    RouteKey::paper(SrModelKind::NearestNeighbor, 2)
}

fn serve(route_config: RouteConfig, net_config: NetConfig) -> (DefenseGateway, NetServer) {
    let gateway = GatewayBuilder::new()
        .route_with(fast_route(), route_config.clone())
        .route_with(slow_route(), route_config)
        .default_route(fast_route())
        .cache_capacity(64)
        .build()
        .expect("gateway builds");
    let server = NetServer::bind("127.0.0.1:0", net_config, gateway.client())
        .expect("loopback bind succeeds");
    (gateway, server)
}

fn no_rate_limit() -> NetConfig {
    NetConfig {
        per_client_limit: None,
        ..NetConfig::default()
    }
}

fn shutdown(server: NetServer, gateway: DefenseGateway) {
    server.stop();
    gateway.shutdown();
}

/// One counter of the server's telemetry, read over a Stats frame.
fn counter(client: &mut NetClient, name: &str) -> u64 {
    let json = client.stats(RECV).expect("stats");
    let snapshot = TelemetrySnapshot::from_json(&json).expect("parses");
    snapshot.counter(name).unwrap_or(0)
}

#[test]
fn round_trip_reaches_the_gateway_and_its_cache() {
    let (gateway, server) = serve(RouteConfig::default(), no_rate_limit());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let options = RequestOptions::default(); // default route, no deadline
    let first = client
        .defend(image(1, 8), &options, RECV)
        .expect("first reply");
    let ResponseBody::Ok {
        cache_hit,
        defended,
        ..
    } = first.body
    else {
        panic!("first request must defend, got {:?}", first.body);
    };
    assert!(!cache_hit, "a novel image cannot hit the cache");
    assert_eq!(
        defended.shape().dims(),
        &[1, 3, 16, 16],
        "nearest-neighbor x2 doubles both planes"
    );

    let second = client
        .defend(image(1, 8), &options, RECV)
        .expect("second reply");
    let ResponseBody::Ok { cache_hit, .. } = second.body else {
        panic!("second request must defend, got {:?}", second.body);
    };
    assert!(cache_hit, "identical content must be served from the LRU");

    shutdown(server, gateway);
}

#[test]
fn deadline_expiring_in_queue_is_answered_not_computed_and_reactor_survives() {
    // One worker, no batching, a deep-enough queue that nothing is shed:
    // the deadlined request waits behind slow jobs and must expire *in the
    // queue*, answered at pop without ever being defended.
    let route_config = RouteConfig {
        num_workers: 1,
        max_batch: 1,
        max_linger: Duration::ZERO,
        queue_capacity: 16,
    };
    let (gateway, server) = serve(route_config, no_rate_limit());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // Jam the slow route with unique, cache-bypassing work.
    let jam = 4u32;
    let mut jam_ids = Vec::new();
    for tag in 0..jam {
        let request = client.make_request(
            image(100 + tag, 96),
            &RequestOptions {
                route: slow_route().label(),
                deadline_ms: 0,
                skip_cache: true,
            },
        );
        client.send_request(&request).expect("send jam");
        jam_ids.push(request.id);
    }

    // Behind them: a 1ms deadline that cannot possibly be met.
    let doomed = client.make_request(
        image(999, 96),
        &RequestOptions {
            route: slow_route().label(),
            deadline_ms: 1,
            skip_cache: false,
        },
    );
    client.send_request(&doomed).expect("send doomed");

    let reply = client.recv_response(doomed.id, RECV).expect("doomed reply");
    assert_eq!(
        reply.body,
        ResponseBody::DeadlineExceeded,
        "an in-queue expiry must be answered as such"
    );
    for id in jam_ids {
        let reply = client.recv_response(id, RECV).expect("jam reply");
        assert!(
            matches!(reply.body, ResponseBody::Ok { .. }),
            "jam jobs had no deadline and must complete, got {:?}",
            reply.body
        );
    }

    // The same connection keeps working: one expiry must not wedge the
    // reactor or the stream.
    let after = client
        .defend(image(555, 8), &RequestOptions::default(), RECV)
        .expect("post-expiry request");
    assert!(matches!(after.body, ResponseBody::Ok { .. }));

    // "Never handed to a worker": exactly the 4 jam images plus the one
    // follow-up were computed; the expired request shows up only in
    // `gateway.expired`.
    let snapshot_json = client.stats(RECV).expect("stats over the wire");
    let snapshot = TelemetrySnapshot::from_json(&snapshot_json).expect("snapshot parses");
    assert_eq!(snapshot.counter("gateway.expired"), Some(1));
    assert_eq!(
        snapshot.counter("gateway.computed_images"),
        Some(u64::from(jam) + 1)
    );
    assert_eq!(snapshot.counter("net.deadline_exceeded"), Some(1));

    shutdown(server, gateway);
}

#[test]
fn overload_is_shed_as_structured_retry_after() {
    // A queue of one and a single worker: a pipelined burst must overflow
    // and the overflow must come back as RetryAfter — the connection stays
    // open and every single request is answered.
    let route_config = RouteConfig {
        num_workers: 1,
        max_batch: 1,
        max_linger: Duration::ZERO,
        queue_capacity: 1,
    };
    let (gateway, server) = serve(route_config, no_rate_limit());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let burst = 12u32;
    let mut ids = Vec::new();
    for tag in 0..burst {
        let request = client.make_request(
            image(tag, 96),
            &RequestOptions {
                route: slow_route().label(),
                deadline_ms: 0,
                skip_cache: true,
            },
        );
        client.send_request(&request).expect("send burst");
        ids.push(request.id);
    }

    let mut ok = 0u32;
    let mut shed = 0u32;
    for id in ids {
        let reply = client
            .recv_response(id, RECV)
            .expect("every request answered");
        match reply.body {
            ResponseBody::Ok { .. } => ok += 1,
            ResponseBody::RetryAfter {
                retry_after_ms,
                reason,
            } => {
                assert!(retry_after_ms >= 1, "the backoff hint must be usable");
                assert!(
                    matches!(reason, RetryReason::Overloaded | RetryReason::Unhealthy),
                    "a queue-full shed is not a rate-limit shed"
                );
                shed += 1;
            }
            other => panic!("unexpected reply to a burst request: {other:?}"),
        }
    }
    assert_eq!(ok + shed, burst, "zero dropped requests");
    assert!(ok >= 1, "the queue serves what it admitted");
    assert!(shed >= 1, "a 12-deep burst into a queue of 1 must shed");

    // The shed connection is still a working connection.
    let after = client
        .defend(image(7777, 8), &RequestOptions::default(), RECV)
        .expect("post-shed request");
    assert!(matches!(after.body, ResponseBody::Ok { .. }));

    shutdown(server, gateway);
}

#[test]
fn token_bucket_sheds_with_rate_limited_reason_and_exact_hint() {
    let net_config = NetConfig {
        // Two-token burst refilled at 10/s: a six-request burst admits two.
        per_client_limit: Some(RateLimit::new(2, 10)),
        ..NetConfig::default()
    };
    let (gateway, server) = serve(RouteConfig::default(), net_config);
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut ids = Vec::new();
    for tag in 0..6u32 {
        let request = client.make_request(image(tag, 8), &RequestOptions::default());
        client.send_request(&request).expect("send");
        ids.push(request.id);
    }
    let mut ok = 0u32;
    let mut rate_limited = 0u32;
    for id in ids {
        let reply = client.recv_response(id, RECV).expect("answered");
        match reply.body {
            ResponseBody::Ok { .. } => ok += 1,
            ResponseBody::RetryAfter {
                retry_after_ms,
                reason,
            } => {
                assert_eq!(reason, RetryReason::RateLimited);
                // One token at 10/s is 100ms away at most; the hint is the
                // bucket's exact wait, rounded up to a whole millisecond.
                assert!(
                    (1..=100).contains(&retry_after_ms),
                    "hint {retry_after_ms}ms out of range"
                );
                rate_limited += 1;
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(ok, 2, "exactly the burst is admitted");
    assert_eq!(rate_limited, 4, "everything past the burst is shed");

    shutdown(server, gateway);
}

#[test]
fn protocol_garbage_gets_typed_reply_and_close_but_server_survives() {
    let (gateway, server) = serve(RouteConfig::default(), no_rate_limit());
    let mut vandal = NetClient::connect(server.local_addr()).expect("connect");

    vandal
        .send_raw(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
        .expect("raw send");
    let reply = vandal.recv(RECV).expect("typed refusal before close");
    let Frame::Response(WireResponse { id, body }) = reply else {
        panic!("expected a response frame, got {reply:?}");
    };
    assert_eq!(id, 0, "no request id exists for stream garbage");
    assert!(
        matches!(body, ResponseBody::InvalidRequest(_)),
        "garbage must be named, got {body:?}"
    );
    // After the refusal the stream is closed — it cannot be resynchronized.
    assert!(matches!(vandal.recv(RECV), Err(NetError::Disconnected)));

    // The reactor itself is unharmed: a fresh connection works.
    let mut client = NetClient::connect(server.local_addr()).expect("reconnect");
    let reply = client
        .defend(image(3, 8), &RequestOptions::default(), RECV)
        .expect("server survives a vandal");
    assert!(matches!(reply.body, ResponseBody::Ok { .. }));

    shutdown(server, gateway);
}

#[test]
fn hash_mismatch_is_rejected_without_closing_the_connection() {
    let (gateway, server) = serve(RouteConfig::default(), no_rate_limit());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut request = client.make_request(image(4, 8), &RequestOptions::default());
    request.content_hash ^= 0xFFFF;
    client.send_request(&request).expect("send corrupted");
    let reply = client.recv_response(request.id, RECV).expect("answered");
    assert!(
        matches!(reply.body, ResponseBody::InvalidRequest(_)),
        "a wrong content hash is an integrity failure, got {:?}",
        reply.body
    );

    // A well-formed frame with a bad hash is the client's data problem, not
    // a protocol violation — the connection must stay open.
    let reply = client
        .defend(image(4, 8), &RequestOptions::default(), RECV)
        .expect("same connection still serves");
    assert!(matches!(reply.body, ResponseBody::Ok { .. }));

    shutdown(server, gateway);
}

#[test]
fn unknown_route_is_a_typed_reply() {
    let (gateway, server) = serve(RouteConfig::default(), no_rate_limit());
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let reply = client
        .defend(
            image(5, 8),
            &RequestOptions {
                route: "edsr:x9:raw".to_string(),
                deadline_ms: 0,
                skip_cache: false,
            },
            RECV,
        )
        .expect("answered");
    assert_eq!(
        reply.body,
        ResponseBody::UnknownRoute("edsr:x9:raw".to_string())
    );
    shutdown(server, gateway);
}

#[test]
fn concurrent_connections_multiplex_and_net_metrics_are_visible() {
    let (gateway, server) = serve(RouteConfig::default(), no_rate_limit());
    let addr = server.local_addr();
    let per_conn = 20u32;

    // Two connections, each pipelining its requests from its own thread.
    // (std::thread::scope, not thread::spawn: the workspace spawn lint keeps
    // raw spawns to the crates that own long-lived threads.)
    let answered: Vec<u32> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u32)
            .map(|conn_idx| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect");
                    let mut ids = Vec::new();
                    for tag in 0..per_conn {
                        let request = client.make_request(
                            image(conn_idx * 1000 + tag, 8),
                            &RequestOptions::default(),
                        );
                        client.send_request(&request).expect("send");
                        ids.push(request.id);
                    }
                    let mut got = 0u32;
                    for id in ids {
                        let reply = client.recv_response(id, RECV).expect("answered");
                        assert!(
                            matches!(
                                reply.body,
                                ResponseBody::Ok { .. } | ResponseBody::RetryAfter { .. }
                            ),
                            "unexpected reply {:?}",
                            reply.body
                        );
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("no client panics"))
            .collect()
    });
    assert_eq!(
        answered,
        vec![per_conn; 2],
        "every pipelined request answered"
    );

    // The wire-level stats frame exposes the same telemetry hub the gateway
    // snapshots — with the `net.*` namespace populated.
    let mut client = NetClient::connect(addr).expect("stats connection");
    let snapshot_json = client.stats(RECV).expect("stats");
    let snapshot = TelemetrySnapshot::from_json(&snapshot_json).expect("parses");
    assert!(snapshot.counter("net.accepted").unwrap_or(0) >= 3);
    assert!(snapshot.counter("net.admitted").unwrap_or(0) >= u64::from(per_conn) * 2);
    assert!(snapshot.counter("net.frames_rx").unwrap_or(0) >= u64::from(per_conn) * 2);
    assert_eq!(snapshot.counter("net.decode_errors"), Some(0));
    assert!(
        snapshot
            .gauges
            .iter()
            .any(|(name, _)| name == "net.connections"),
        "the live-connection gauge must be registered"
    );
    // The gateway-side counters agree that the traffic went through the
    // shard path (cache hits + computed = completed).
    assert!(snapshot.counter("gateway.completed").unwrap_or(0) >= u64::from(per_conn) * 2);

    shutdown(server, gateway);
}

#[test]
fn two_connections_overlap_their_service() {
    // A parallel-speedup claim, guarded: on a single-core runner the two
    // client threads, the reactor and the workers all share one core, so
    // wall-clock comparisons say nothing — assert only the zero-drop
    // behavior there.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let route_config = RouteConfig {
        num_workers: 2,
        ..RouteConfig::default()
    };
    let (gateway, server) = serve(route_config, no_rate_limit());
    let addr = server.local_addr();
    let n = 24u32;

    let serial_start = std::time::Instant::now();
    {
        let mut client = NetClient::connect(addr).expect("connect");
        for tag in 0..n {
            let reply = client
                .defend(
                    image(50_000 + tag, 16),
                    &RequestOptions {
                        route: String::new(),
                        deadline_ms: 0,
                        skip_cache: true,
                    },
                    RECV,
                )
                .expect("serial reply");
            assert!(matches!(
                reply.body,
                ResponseBody::Ok { .. } | ResponseBody::RetryAfter { .. }
            ));
        }
    }
    let serial = serial_start.elapsed();

    let parallel_start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for conn_idx in 0..2u32 {
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for tag in 0..n {
                    let reply = client
                        .defend(
                            image(60_000 + conn_idx * 1000 + tag, 16),
                            &RequestOptions {
                                route: String::new(),
                                deadline_ms: 0,
                                skip_cache: true,
                            },
                            RECV,
                        )
                        .expect("parallel reply");
                    assert!(matches!(
                        reply.body,
                        ResponseBody::Ok { .. } | ResponseBody::RetryAfter { .. }
                    ));
                }
            });
        }
    });
    let parallel = parallel_start.elapsed();

    if cores > 1 {
        // Twice the total work over two connections must not take twice as
        // long as the serial run — the reactor genuinely multiplexes.
        assert!(
            parallel < serial * 2,
            "two connections served strictly serially: {parallel:?} for 2x{n} \
             vs {serial:?} for {n}"
        );
    } else {
        println!("single core: skipping the multiplexing-speedup assertion");
    }

    shutdown(server, gateway);
}

#[test]
fn connection_past_the_cap_is_refused_once_and_closed() {
    let (gateway, server) = serve(RouteConfig::default(), no_rate_limit());
    let addr = server.local_addr();
    let mut clients: Vec<NetClient> = (0..MAX_CONNECTIONS)
        .map(|_| NetClient::connect(addr).expect("connect under the cap"))
        .collect();

    // Connections are accepted in arrival order, so the table is full when
    // this one comes: one structured refusal, then EOF.
    let mut refused = NetClient::connect(addr).expect("the kernel completes the handshake");
    let reply = refused.recv(RECV).expect("a refusal before the close");
    assert_eq!(
        reply,
        Frame::Response(WireResponse {
            id: 0,
            body: ResponseBody::RetryAfter {
                retry_after_ms: OVERLOAD_RETRY_AFTER_MS,
                reason: RetryReason::Overloaded,
            },
        })
    );
    assert!(matches!(refused.recv(RECV), Err(NetError::Disconnected)));

    // Every connection under the cap is still served.
    for (tag, client) in clients.iter_mut().enumerate() {
        let reply = client
            .defend(
                image(70_000 + tag as u32, 8),
                &RequestOptions::default(),
                RECV,
            )
            .expect("served under the cap");
        assert!(
            matches!(reply.body, ResponseBody::Ok { .. }),
            "{:?}",
            reply.body
        );
    }
    assert_eq!(counter(&mut clients[0], "net.conn_rejected"), 1);

    drop(clients);
    shutdown(server, gateway);
}

#[test]
fn a_client_that_reads_no_replies_is_held_back_not_buffered_without_bound() {
    // 4 000 cache hits of 16×16 on the nearest-neighbour route: ~12 KiB per
    // reply, ~49 MiB in all, far more than the reactor's 16 MiB of unsent
    // replies plus the socket buffers can hold.
    const SENT: u64 = 4_000;
    let (gateway, server) = serve(RouteConfig::default(), no_rate_limit());
    let addr = server.local_addr();
    let hot = image(9, 16);
    let mut frames = Vec::new();
    for id in 1..=SENT {
        frames.extend(wire::encode(&Frame::Request(WireRequest {
            id,
            route: String::new(),
            deadline_ms: 0,
            skip_cache: false,
            content_hash: content_hash(&hot, ""),
            image: hot.clone(),
        })));
    }
    let mut reader = TcpStream::connect(addr).expect("connect");
    reader.set_read_timeout(Some(RECV)).expect("read timeout");
    let mut writer = reader.try_clone().expect("second handle");
    let mut stats = NetClient::connect(addr).expect("stats connection");

    let answered = std::thread::scope(|scope| {
        let writing = scope.spawn(move || writer.write_all(&frames));

        // Wait for admission to stop moving while no reply is read.
        let mut admitted = counter(&mut stats, "net.admitted");
        let mut unchanged = 0;
        while unchanged < 5 {
            std::thread::sleep(Duration::from_millis(100));
            let now = counter(&mut stats, "net.admitted");
            unchanged = if now == admitted { unchanged + 1 } else { 0 };
            admitted = now;
        }
        assert!(
            admitted < SENT,
            "all {SENT} requests were admitted with their replies unread"
        );

        // Reading the replies lets the rest through, each answered once.
        let mut buf = RecvBuf::new();
        let mut answered = HashSet::new();
        while answered.len() < SENT as usize {
            match wire::decode(buf.bytes(), DEFAULT_MAX_PAYLOAD).expect("a valid reply") {
                FrameDecode::Complete { frame, consumed } => {
                    buf.consume(consumed);
                    let Frame::Response(response) = frame else {
                        panic!("expected a response, got {frame:?}");
                    };
                    assert!(
                        matches!(response.body, ResponseBody::Ok { .. }),
                        "{:?}",
                        response.body
                    );
                    assert!(
                        answered.insert(response.id),
                        "id {} answered twice",
                        response.id
                    );
                }
                FrameDecode::Incomplete { .. } => {
                    let n = buf
                        .read_from(&mut reader, READ_CHUNK)
                        .expect("replies arrive");
                    assert!(n > 0, "closed with {} of {SENT} answered", answered.len());
                }
            }
        }
        writing
            .join()
            .expect("writer thread")
            .expect("every request written");
        answered
    });
    assert_eq!(answered, (1..=SENT).collect::<HashSet<u64>>());

    shutdown(server, gateway);
}
