//! Demonstrates the `sesr-net` network front-end end to end on a loopback
//! socket: a defense gateway behind the wire protocol, a client defending an
//! image over TCP (then hitting the server-side cache on the repeat), a
//! deliberately hopeless 1 ms deadline answered `DeadlineExceeded` from the
//! queue, a rate-limit shed with its structured retry-after hint, and the
//! `net.*` telemetry counters fetched through the wire-level stats frame.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example net_frontend
//! ```

#![forbid(unsafe_code)]

use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_net::{
    NetClient, NetConfig, NetServer, RateLimit, ReconnectPolicy, RequestOptions, ResponseBody,
};
use sesr_serve::{GatewayBuilder, RouteKey};
use sesr_telemetry::TelemetrySnapshot;
use sesr_tensor::{Shape, Tensor};
use std::time::Duration;

const RECV: Duration = Duration::from_secs(10);

fn image(tag: u32) -> Tensor {
    let side = 16usize;
    let data: Vec<f32> = (0..3 * side * side)
        .map(|i| ((i as u32).wrapping_mul(37).wrapping_add(tag * 101) % 253) as f32 / 253.0)
        .collect();
    Tensor::from_vec(Shape::new(&[1, 3, side, side]), data).expect("static shape")
}

fn main() {
    // A gateway with the paper's nearest-neighbor x2 route, behind a
    // front-end with a deliberately small per-client budget so the demo can
    // show a rate-limit shed.
    let route = RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .route(route)
        .default_route(route)
        .cache_capacity(64)
        .build()
        .expect("gateway builds");
    let config = NetConfig {
        per_client_limit: Some(RateLimit::new(8, 16)),
        ..NetConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0", config, gateway.client()).expect("bind loopback");
    println!("server listening on {}", server.local_addr());

    let policy = ReconnectPolicy::default();
    let mut client =
        NetClient::connect_with_retry(server.local_addr(), &policy).expect("connect with retry");

    // 1. A round trip, then the same image again: the repeat is answered
    //    from the gateway's content-hash LRU without recomputing.
    for attempt in ["cold", "repeat"] {
        let reply = client
            .defend(image(1), &RequestOptions::default(), RECV)
            .expect("reply");
        let ResponseBody::Ok {
            cache_hit,
            defended,
            ..
        } = reply.body
        else {
            panic!("expected a defended image, got {:?}", reply.body);
        };
        println!(
            "{attempt:>6}: defended {:?} -> {:?}, cache_hit={cache_hit}",
            [1usize, 3, 16, 16],
            defended.shape().dims()
        );
    }

    // 2. A 1 ms deadline the queue cannot meet: the worker that pops it
    //    answers `DeadlineExceeded` instead of defending it.
    let doomed = client
        .defend(
            image(2),
            &RequestOptions {
                route: String::new(),
                deadline_ms: 1,
                skip_cache: true,
            },
            RECV,
        )
        .expect("reply");
    println!("1ms deadline: {:?}", doomed.body);

    // 3. Burst past the 8-token bucket: the overflow comes back as a
    //    structured retry-after, not a dropped connection.
    let mut ids = Vec::new();
    for tag in 10..30u32 {
        let request = client.make_request(
            image(tag),
            &RequestOptions {
                route: String::new(),
                deadline_ms: 0,
                skip_cache: true,
            },
        );
        client.send_request(&request).expect("send");
        ids.push(request.id);
    }
    let (mut served, mut shed) = (0u32, 0u32);
    let mut sample_hint = None;
    for id in ids {
        match client.recv_response(id, RECV).expect("answered").body {
            ResponseBody::Ok { .. } | ResponseBody::DeadlineExceeded => served += 1,
            ResponseBody::RetryAfter { retry_after_ms, .. } => {
                shed += 1;
                sample_hint.get_or_insert(retry_after_ms);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    println!(
        "burst of 20: {served} served, {shed} rate-limited (retry hint {} ms)",
        sample_hint.unwrap_or(0)
    );
    assert!(
        shed >= 1,
        "a 20-deep burst into an 8-token bucket must shed"
    );

    // 4. The client-side answer to a shed: `defend_with_retry` honours the
    //    retry-after hint (and reconnects on connection loss) instead of a
    //    hand-rolled loop, so the very next request rides through the same
    //    empty bucket that just shed the burst.
    let reply = client
        .defend_with_retry(
            image(99),
            &RequestOptions {
                route: String::new(),
                deadline_ms: 0,
                skip_cache: true,
            },
            RECV,
            &policy,
        )
        .expect("retried reply");
    println!("after backoff: {:?}", std::mem::discriminant(&reply.body));
    assert!(
        matches!(reply.body, ResponseBody::Ok { .. }),
        "the retry policy must wait out the bucket, got {:?}",
        reply.body
    );

    // 5. The same telemetry hub the gateway exports, fetched over the wire.
    let snapshot =
        TelemetrySnapshot::from_json(&client.stats(RECV).expect("stats")).expect("snapshot parses");
    println!("net.* counters over the stats frame:");
    for (name, value) in snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("net."))
    {
        println!("  {name:<24} {value}");
    }

    server.stop();
    gateway.shutdown();
    println!("clean shutdown");
}
