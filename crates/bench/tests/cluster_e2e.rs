//! End-to-end federation acceptance: real `sesr-clusterd --worker`
//! processes under the real [`Cluster`] supervisor, driven over the wire
//! from the outside like any client.
//!
//! Four scenarios:
//!
//! 1. A 3-worker cluster answers bit-for-bit identically to a
//!    single-process gateway serving the same routes — federation is a
//!    scaling decision, never a semantic one — and its telemetry export
//!    parses back with the same counts.
//! 2. `kill -9` on one member mid-load sheds only that member's arc (with
//!    structured `RetryAfter`, never a drop), every other arc keeps
//!    serving, and the supervisor restarts the member until its arc
//!    recovers — with the `cluster.*` counters recording each transition.
//! 3. A model-store promotion fans out to the fleet exactly once.
//! 4. A member restarted by `kill -9` after a promotion is pinned to the
//!    promoted artifact before it serves, and answers bit for bit like a
//!    gateway built from that artifact.
//!
//! No parallel-speedup assertion is made anywhere here on purpose: CI may
//! run single-core, where a 3-process fleet is slower than one process.

use sesr_cluster::{
    Cluster, ClusterConfig, HashRing, MemberState, SupervisorConfig, WorkerCommand,
};
use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_net::{NetClient, RequestOptions, ResponseBody};
use sesr_serve::{content_hash, GatewayBuilder, RouteKey};
use sesr_store::{Checkpoint, ModelStore};
use sesr_telemetry::TelemetrySnapshot;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The same worker binary the production front spawns.
fn worker_command(store: Option<&PathBuf>) -> WorkerCommand {
    let mut args = vec!["--worker".to_string()];
    if let Some(dir) = store {
        args.push("--store".to_string());
        args.push(dir.display().to_string());
    }
    WorkerCommand {
        program: PathBuf::from(env!("CARGO_BIN_EXE_sesr-clusterd")),
        args,
    }
}

/// The interpolation routes every worker serves (mirrors the binary's
/// fleet; cheap enough that the test measures the federation, not SR math).
fn fleet_routes() -> Vec<RouteKey> {
    vec![
        RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none()),
        RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none()),
        RouteKey::paper(SrModelKind::NearestNeighbor, 2),
    ]
}

/// A deterministic test image, distinct per `tag`.
fn image(tag: u32) -> sesr_tensor::Tensor {
    let side = 8usize;
    let data: Vec<f32> = (0..3 * side * side)
        .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(tag * 977) % 251) as f32 / 251.0)
        .collect();
    sesr_tensor::Tensor::from_vec(sesr_tensor::Shape::new(&[1, 3, side, side]), data)
        .expect("static shape")
}

/// One request/reply round trip, failing the test on anything but a frame.
fn defend(client: &mut NetClient, route: &str, tag: u32) -> ResponseBody {
    let options = RequestOptions {
        route: route.to_string(),
        ..RequestOptions::default()
    };
    client
        .defend(image(tag), &options, Duration::from_secs(30))
        .expect("wire round trip")
        .body
}

/// Bit-exact pixels: compare the raw f32 bit patterns, not float equality.
fn pixel_bits(tensor: &sesr_tensor::Tensor) -> Vec<u32> {
    tensor.data().iter().map(|v| v.to_bits()).collect()
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

#[test]
fn cluster_is_bit_identical_to_a_single_process_gateway() {
    let routes = fleet_routes();

    // Reference: one in-process gateway behind one reactor.
    let mut builder = GatewayBuilder::new();
    for route in &routes {
        builder = builder.route(*route);
    }
    let gateway = builder
        .default_route(routes[0])
        .build()
        .expect("reference gateway");
    let reference = sesr_net::NetServer::bind(
        "127.0.0.1:0",
        sesr_net::NetConfig::default(),
        gateway.client(),
    )
    .expect("bind reference");
    let mut ref_client = NetClient::connect(reference.local_addr()).expect("dial reference");

    // Candidate: three shared-nothing worker processes behind the front.
    let config = ClusterConfig {
        routes: routes.clone(),
        ..ClusterConfig::new(3, worker_command(None))
    };
    let cluster = Cluster::start("127.0.0.1:0", config).expect("start cluster");
    assert!(cluster.wait_ready(Duration::from_secs(60)), "fleet came up");
    let mut fleet_client = NetClient::connect(cluster.local_addr()).expect("dial front");

    let mut compared = 0u64;
    for route in &routes {
        let label = route.label();
        for tag in 0..8u32 {
            let expected = match defend(&mut ref_client, &label, tag) {
                ResponseBody::Ok {
                    defended, label, ..
                } => (pixel_bits(&defended), label),
                other => panic!("reference failed on {label} tag {tag}: {other:?}"),
            };
            let got = match defend(&mut fleet_client, &label, tag) {
                ResponseBody::Ok {
                    defended, label, ..
                } => (pixel_bits(&defended), label),
                other => panic!("cluster failed on {label} tag {tag}: {other:?}"),
            };
            assert_eq!(
                got, expected,
                "route {label} tag {tag} must be bit-identical"
            );
            compared += 1;
        }
    }

    // Every cluster-side request went through the ring, none were shed.
    let snapshot = cluster.stats_snapshot();
    assert_eq!(counter(&snapshot, "cluster.forwarded"), compared);
    assert_eq!(counter(&snapshot, "cluster.shed.member_down"), 0);

    // The exporter writes the same view once at spawn and once on stop.
    let path = std::env::temp_dir().join(format!(
        "sesr_cluster_e2e_telemetry_{}.json",
        std::process::id()
    ));
    let exporter = cluster
        .export_telemetry(&path, Duration::from_secs(3600))
        .expect("export telemetry");
    exporter.stop().expect("every export write succeeded");
    let exported = std::fs::read_to_string(&path).expect("exported file");
    std::fs::remove_file(&path).ok();
    let exported = TelemetrySnapshot::from_json(&exported).expect("exported snapshot parses");
    assert_eq!(counter(&exported, "cluster.forwarded"), compared);
    assert_eq!(counter(&exported, "telemetry.export.errors"), 0);

    drop(ref_client);
    reference.stop();
    gateway.shutdown();
    cluster.shutdown();
}

#[test]
fn kill_dash_nine_sheds_only_the_victims_arc_until_the_supervisor_restarts_it() {
    let routes = fleet_routes();
    let label = routes[0].label();
    let config = ClusterConfig {
        routes: routes.clone(),
        supervisor: SupervisorConfig {
            // Widen the Down window so the shed phase is observable even on
            // a fast machine; recovery still lands well inside the test.
            restart_backoff: Duration::from_millis(750),
            ..SupervisorConfig::default()
        },
        ..ClusterConfig::new(3, worker_command(None))
    };
    let cluster = Cluster::start("127.0.0.1:0", config).expect("start cluster");
    assert!(cluster.wait_ready(Duration::from_secs(60)), "fleet came up");
    let mut client = NetClient::connect(cluster.local_addr()).expect("dial front");

    // Reconstruct placement with an identical ring (the ring is pure data;
    // determinism is proved by the ring proptests) to pick keys on the
    // victim's arc and on each survivor's arc.
    let ring = HashRing::with_members(3, HashRing::DEFAULT_VNODES);
    let owner_of = |tag: u32| {
        ring.owner(&label, content_hash(&image(tag), ""))
            .expect("3-member ring owns every key")
    };
    let victim: u32 = 1;
    let victim_tags: Vec<u32> = (0..500u32).filter(|&t| owner_of(t) == victim).collect();
    let survivor_tags: Vec<u32> = (0..500u32).filter(|&t| owner_of(t) != victim).collect();
    assert!(victim_tags.len() >= 8, "vnodes spread keys onto the victim");
    assert!(survivor_tags.len() >= 8, "and onto the survivors");

    // Baseline: both sides of the ring serve.
    for &tag in &[victim_tags[0], survivor_tags[0]] {
        match defend(&mut client, &label, tag) {
            ResponseBody::Ok { .. } => {}
            other => panic!("baseline tag {tag} failed: {other:?}"),
        }
    }

    let pid = cluster.members()[victim as usize]
        .pid
        .expect("an Up member has a pid");
    let killed = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {pid} must succeed");

    // Downtime window: the victim's arc must shed with a structured
    // RetryAfter (never a dropped connection), while every survivor-arc
    // request keeps answering Ok — zero drops elsewhere.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut shed_seen = false;
    let mut survivor_round = 0usize;
    while !shed_seen {
        assert!(
            Instant::now() < deadline,
            "victim arc never shed after kill -9"
        );
        match defend(&mut client, &label, victim_tags[0]) {
            ResponseBody::RetryAfter { retry_after_ms, .. } => {
                assert!(retry_after_ms >= 1, "the shed must carry a backoff hint");
                shed_seen = true;
            }
            ResponseBody::Ok { .. } => {} // kill not yet observed; retry
            other => panic!("victim arc must shed or serve, got {other:?}"),
        }
        let tag = survivor_tags[survivor_round % survivor_tags.len()];
        survivor_round += 1;
        match defend(&mut client, &label, tag) {
            ResponseBody::Ok { .. } => {}
            other => panic!("survivor arc dropped during the outage: {other:?}"),
        }
    }
    // Keep load on the survivors through the rest of the outage.
    for round in 0..8usize {
        let tag = survivor_tags[round % survivor_tags.len()];
        match defend(&mut client, &label, tag) {
            ResponseBody::Ok { .. } => {}
            other => panic!("survivor arc dropped during the outage: {other:?}"),
        }
    }

    // The supervisor restarts the member (same id, new port, new pid) …
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let info = cluster.members()[victim as usize].clone();
        if info.state == MemberState::Up && info.restarts >= 1 {
            assert_ne!(info.pid, Some(pid), "the restart is a new process");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor never restarted the victim (state {:?})",
            info.state
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // … and the arc recovers on the same keys it shed.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match defend(&mut client, &label, victim_tags[0]) {
            ResponseBody::Ok { .. } => break,
            ResponseBody::RetryAfter { .. } => {
                assert!(
                    Instant::now() < deadline,
                    "victim arc never recovered after the restart"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("recovery failed: {other:?}"),
        }
    }

    // The counters recorded every transition.
    let snapshot = cluster.stats_snapshot();
    assert!(counter(&snapshot, "cluster.shed.member_down") >= 1);
    assert!(counter(&snapshot, "cluster.supervisor.restarts") >= 1);
    assert!(counter(&snapshot, &format!("cluster.member.{victim}.restarts")) >= 1);
    assert!(counter(&snapshot, "cluster.forwarded") >= 1);
    let members_up = snapshot
        .gauges
        .iter()
        .find(|(name, _)| name == "cluster.members_up")
        .map(|&(_, value)| value);
    assert_eq!(members_up, Some(3), "the fleet is whole again");

    cluster.shutdown();
}

#[test]
fn store_promotion_fans_out_to_the_fleet_exactly_once() {
    use rand::{rngs::StdRng, SeedableRng};
    let dir = std::env::temp_dir().join(format!(
        "sesr_cluster_e2e_store_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("store dir");
    let store = ModelStore::open(&dir).expect("open store");
    let mut rng = StdRng::seed_from_u64(11);
    let network = SrModelKind::SesrM2
        .build_local_network(&mut rng)
        .expect("build SESR-M2");
    // v0 exists before the cluster starts: pre-existing artifacts seed the
    // watcher's baseline, they are not promotions.
    store
        .save(&Checkpoint::from_layer("SESR-M2", 2, 0, network.as_ref()))
        .expect("save v0");

    let mut routes = fleet_routes();
    routes.push(RouteKey::new(
        SrModelKind::SesrM2,
        2,
        PreprocessConfig::none(),
    ));
    let config = ClusterConfig {
        routes: routes.clone(),
        store_dir: Some(dir.clone()),
        supervisor: SupervisorConfig {
            // Reloading four routes rebuilds four shards; give the fan-out
            // acks headroom beyond the default probe timeout.
            health_timeout: Duration::from_secs(10),
            ..SupervisorConfig::default()
        },
        ..ClusterConfig::new(3, worker_command(Some(&dir)))
    };
    let cluster = Cluster::start("127.0.0.1:0", config).expect("start cluster");
    assert!(cluster.wait_ready(Duration::from_secs(60)), "fleet came up");

    // The store-backed route serves before the promotion.
    let mut client = NetClient::connect(cluster.local_addr()).expect("dial front");
    let m2 = routes[3].label();
    match defend(&mut client, &m2, 1) {
        ResponseBody::Ok { .. } => {}
        other => panic!("store-backed route must serve: {other:?}"),
    }
    let before = cluster.stats_snapshot();
    assert_eq!(counter(&before, "cluster.reload.promotions"), 0);
    assert_eq!(counter(&before, "cluster.reload.fanout_sent"), 0);

    // Promote: v1 lands in the shared store; the one watcher must
    // broadcast exactly one reload to all three members.
    store
        .save(&Checkpoint::from_layer("SESR-M2", 2, 1, network.as_ref()))
        .expect("save v1");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snapshot = cluster.stats_snapshot();
        if counter(&snapshot, "cluster.reload.promotions") == 1
            && counter(&snapshot, "cluster.reload.fanout_sent") == 3
            && counter(&snapshot, "cluster.reload.fanout_acked") == 3
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "promotion never fanned out: promotions={} sent={} acked={} failed={}",
            counter(&snapshot, "cluster.reload.promotions"),
            counter(&snapshot, "cluster.reload.fanout_sent"),
            counter(&snapshot, "cluster.reload.fanout_acked"),
            counter(&snapshot, "cluster.reload.fanout_failed"),
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Exactly once: several watch intervals later, nothing re-fired.
    std::thread::sleep(Duration::from_millis(800));
    let after = cluster.stats_snapshot();
    assert_eq!(counter(&after, "cluster.reload.promotions"), 1);
    assert_eq!(counter(&after, "cluster.reload.fanout_sent"), 3);
    assert_eq!(counter(&after, "cluster.reload.fanout_acked"), 3);
    assert_eq!(counter(&after, "cluster.reload.fanout_failed"), 0);

    // The fleet still serves the route on the promoted weights.
    match defend(&mut client, &m2, 2) {
        ResponseBody::Ok { .. } => {}
        other => panic!("route must serve after the promotion: {other:?}"),
    }

    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn member_restarted_after_a_promotion_serves_the_promoted_artifact() {
    use rand::{rngs::StdRng, SeedableRng};
    let dir = std::env::temp_dir().join(format!(
        "sesr_cluster_e2e_restart_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("store dir");
    let store = ModelStore::open(&dir).expect("open store");
    let save = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = SrModelKind::SesrM2
            .build_local_network(&mut rng)
            .expect("build SESR-M2");
        let artifact = store
            .save(&Checkpoint::from_layer("SESR-M2", 2, 0, network.as_ref()))
            .expect("save artifact");
        (artifact.version, artifact.digest)
    };
    save(11);

    let m2_route = RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none());
    let mut routes = fleet_routes();
    routes.push(m2_route);
    let config = ClusterConfig {
        routes: routes.clone(),
        store_dir: Some(dir.clone()),
        supervisor: SupervisorConfig {
            health_timeout: Duration::from_secs(10),
            ..SupervisorConfig::default()
        },
        ..ClusterConfig::new(2, worker_command(Some(&dir)))
    };
    let cluster = Cluster::start("127.0.0.1:0", config).expect("start cluster");
    assert!(cluster.wait_ready(Duration::from_secs(60)), "fleet came up");

    // Promote: a retrained generation lands in the shared store.
    let promoted = save(12);
    let deadline = Instant::now() + Duration::from_secs(60);
    while counter(&cluster.stats_snapshot(), "cluster.reload.fanout_acked") < 2 {
        assert!(Instant::now() < deadline, "promotion never fanned out");
        std::thread::sleep(Duration::from_millis(50));
    }

    // The reference: one in-process gateway built from the promoted artifact.
    let reference = GatewayBuilder::new()
        .with_store(store.clone())
        .route(m2_route)
        .build()
        .expect("reference gateway");
    let ref_client = reference.client();
    ref_client
        .reload(&m2_route, Some(promoted))
        .expect("reference builds the promoted artifact");
    let label = m2_route.label();
    let ring = HashRing::with_members(2, HashRing::DEFAULT_VNODES);
    let victim: u32 = 1;
    let victim_tags: Vec<u32> = (0..200u32)
        .filter(|&tag| ring.owner(&label, content_hash(&image(tag), "")) == Some(victim))
        .take(4)
        .collect();
    assert_eq!(victim_tags.len(), 4, "vnodes spread keys onto the victim");

    let pid = cluster.members()[victim as usize]
        .pid
        .expect("an Up member has a pid");
    let killed = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {pid} must succeed");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let info = cluster.members()[victim as usize].clone();
        if info.state == MemberState::Up && info.restarts >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor never restarted the victim (state {:?})",
            info.state
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The restarted member was sent the pinned reload before it went Up.
    let snapshot = cluster.stats_snapshot();
    assert_eq!(counter(&snapshot, "cluster.reload.promotions"), 1);
    assert_eq!(counter(&snapshot, "cluster.reload.fanout_sent"), 3);
    assert_eq!(counter(&snapshot, "cluster.reload.fanout_acked"), 3);
    assert_eq!(counter(&snapshot, "cluster.reload.fanout_failed"), 0);

    let mut client = NetClient::connect(cluster.local_addr()).expect("dial front");
    for &tag in &victim_tags {
        let expected = ref_client
            .defend_blocking(sesr_serve::DefenseRequest::new(image(tag)).on(m2_route))
            .expect("reference serves")
            .defended;
        let deadline = Instant::now() + Duration::from_secs(30);
        let got = loop {
            match defend(&mut client, &label, tag) {
                ResponseBody::Ok { defended, .. } => break defended,
                ResponseBody::RetryAfter { .. } if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("restarted member failed on tag {tag}: {other:?}"),
            }
        };
        assert_eq!(
            pixel_bits(&got),
            pixel_bits(&expected),
            "tag {tag}: the restarted member must serve the promoted weights"
        );
    }

    drop(ref_client);
    reference.shutdown();
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
