//! End-to-end integration of the SLO engine with the serving stack — the
//! acceptance loop for the health-gated gateway:
//!
//! (a) a route pushed past its latency SLO walks Healthy → Degraded →
//!     Unhealthy as burn-rate alerts fire,
//! (b) while Unhealthy, new submissions are shed with a typed
//!     `ServeError::Overloaded` *before* queueing (the shed is counted
//!     separately and never pollutes the error budget),
//! (c) a pending store promotion is refused by the `ReloadWatcher` while the
//!     route is not Healthy, and applied once it recovers,
//! (d) a promotion that tanks the route inside its probation window is
//!     demoted back to the pinned prior artifact — and when that prior
//!     artifact is gone, the failed rollback is counted and journaled like
//!     a failed reload,
//! (e) the whole story is visible as typed alerts + health in the exported
//!     v2 snapshot; the same document in v1 form (status keys stripped) is
//!     refused.
//!
//! Burn history is compressed onto a logical millisecond axis via
//! `SloRuntime::tick_at`, so none of this depends on wall-clock pacing;
//! only the watcher polls in real time.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::SrModelKind;
use sesr_serve::{
    DefenseGateway, DefenseRequest, GatewayBuilder, GatewayClient, RouteConfig, RouteKey,
    ServeError, SloPolicy, SloRuntime,
};
use sesr_store::{Checkpoint, ModelStore, StoredArtifact};
use sesr_telemetry::{
    AlertSeverity, BurnRateRule, HealthPolicy, HealthState, Level, TelemetrySnapshot,
};
use sesr_tensor::{init, Shape, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static TEST_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sesr_it_slo_{tag}_{}_{}",
        std::process::id(),
        TEST_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn image() -> Tensor {
    let mut rng = StdRng::seed_from_u64(7);
    init::uniform(Shape::new(&[1, 3, 8, 8]), 0.0, 1.0, &mut rng)
}

fn save_generation(store: &ModelStore, seed: u64) -> StoredArtifact {
    let mut rng = StdRng::seed_from_u64(seed);
    let network = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
    store
        .save(&Checkpoint::from_layer(
            "SESR-M2",
            2,
            seed,
            network.as_ref(),
        ))
        .unwrap()
}

/// A gateway-wide counter from a fresh telemetry snapshot (0 if absent).
fn counter(gateway: &DefenseGateway, name: &str) -> u64 {
    gateway.telemetry_snapshot().counter(name).unwrap_or(0)
}

/// A policy under which *every* request breaches (1ns latency objective) so
/// the regression is deterministic, with compressed burn windows and
/// single-observation hysteresis.
fn breach_everything_policy() -> SloPolicy {
    SloPolicy {
        latency_threshold: Duration::from_nanos(1),
        latency_allowed_milli: 10,
        error_budget_milli: 100,
        rules: vec![BurnRateRule {
            long_ms: 500,
            short_ms: 100,
            max_burn_milli: 1_000,
            severity: AlertSeverity::Page,
        }],
        health: HealthPolicy {
            degrade_after: 1,
            unhealthy_after: 1,
            recover_after: 2,
        },
        window_frames: 64,
    }
}

fn drive(client: &GatewayClient, route: RouteKey, n: usize) {
    let probe = image();
    for _ in 0..n {
        client
            .defend_blocking(DefenseRequest::new(probe.clone()).on(route))
            .unwrap();
    }
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn slo_breach_gates_serving_and_reload_until_recovery() {
    let dir = temp_dir("gate");
    let store = ModelStore::open(&dir).unwrap();
    save_generation(&store, 100);

    let route = RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .cache_capacity(0)
        .seed(0)
        .with_store(store.clone())
        .route_with(
            route,
            RouteConfig {
                num_workers: 1,
                queue_capacity: 16,
                ..RouteConfig::default()
            },
        )
        .build()
        .unwrap();
    let client = gateway.client();
    let mut slo = SloRuntime::new(client.clone(), breach_everything_policy());

    // (a) Breaching traffic walks the route down, one level per tick.
    slo.tick_at(0); // baseline frame
    assert_eq!(client.route_health(&route).unwrap(), HealthState::Healthy);
    drive(&client, route, 6);
    slo.tick_at(200);
    assert_eq!(client.route_health(&route).unwrap(), HealthState::Degraded);
    drive(&client, route, 6);
    slo.tick_at(400);
    assert_eq!(client.route_health(&route).unwrap(), HealthState::Unhealthy);

    // (b) Unhealthy routes shed before queueing: typed Overloaded, counted
    // as a shed, NOT as a queue rejection (which would eat the error budget
    // and lock the route out of its own recovery).
    match client.submit(DefenseRequest::new(image()).on(route)) {
        Err(ServeError::Overloaded) => {}
        Ok(_) => panic!("an Unhealthy route must shed new submissions"),
        Err(other) => panic!("expected Overloaded, got {other}"),
    }
    let peak = gateway.telemetry_snapshot();
    assert_eq!(peak.counter("gateway.shed"), Some(1));
    assert_eq!(
        peak.counter(&format!("route.{}.shed", route.label())),
        Some(1)
    );
    assert_eq!(
        peak.counter(&format!("route.{}.rejected", route.label())),
        Some(0),
        "a shed is not a queue rejection"
    );

    // (e, firing half) The peak snapshot carries the typed alert + health.
    assert!(
        peak.alerts
            .iter()
            .any(|alert| alert.route == route.label() && alert.severity == AlertSeverity::Page),
        "the firing page must be visible in the exported snapshot"
    );
    assert!(peak
        .health
        .iter()
        .any(|(label, state)| label == &route.label() && *state == HealthState::Unhealthy));
    let round_trip = TelemetrySnapshot::from_json(&peak.to_json()).unwrap();
    assert_eq!(round_trip.alerts, peak.alerts);
    assert_eq!(round_trip.health, peak.health);

    // (c) A newer artifact appears while the route is Unhealthy: the watcher
    // must refuse to promote it (and keep retrying, not forget it). The
    // watcher starts from the artifact each route's workers were built
    // from, so the new generation is a candidate once it lands.
    let watcher = client.watch_store(Duration::from_millis(10)).unwrap();
    save_generation(&store, 200);
    wait_for("a refused promotion", || {
        counter(&gateway, "gateway.reload_refused") >= 1
    });
    assert_eq!(
        counter(&gateway, "gateway.reloads"),
        0,
        "no promotion may land on an Unhealthy route"
    );

    // Load drops: quiet ticks drain the burn windows, the alert resolves and
    // the hysteresis walks the route back up to Healthy.
    for now_ms in [600, 800, 1000, 1200] {
        slo.tick_at(now_ms);
    }
    assert_eq!(client.route_health(&route).unwrap(), HealthState::Healthy);

    // ... and the pending promotion is applied on the next poll.
    wait_for("the deferred promotion", || {
        counter(&gateway, "gateway.reloads") >= 1
    });
    let served = client
        .defend_blocking(DefenseRequest::new(image()).on(route))
        .unwrap();
    let registry = sesr_store::ModelRegistry::new(store);
    let newest = DefensePipeline::new(
        PreprocessConfig::none(),
        SrModelKind::SesrM2
            .build_from_store(2, &registry, 0)
            .unwrap(),
    )
    .defend(&image())
    .unwrap();
    assert_eq!(
        served.defended, newest,
        "after recovery the route must serve the promoted artifact"
    );

    // (e, journal half) Every lifecycle edge left a typed journal event.
    let snapshot = gateway.telemetry_snapshot();
    for name in [
        "slo.page",
        "route.health_changed",
        "gateway.shed",
        "gateway.reload_refused",
        "gateway.reload",
    ] {
        assert!(
            snapshot.events.iter().any(|event| event.name == name),
            "journal must record {name}"
        );
    }
    assert!(snapshot.counter("gateway.reload_refused").unwrap_or(0) >= 1);
    assert!(snapshot.counter("telemetry.slo.alerts_fired").unwrap_or(0) >= 1);
    assert!(
        snapshot
            .counter("telemetry.slo.alerts_resolved")
            .unwrap_or(0)
            >= 1
    );
    assert!(snapshot
        .health
        .iter()
        .any(|(label, state)| label == &route.label() && *state == HealthState::Healthy));

    // A v1 document is refused: strip the status keys and roll the schema
    // marker back, and the parser must reject it instead of reading it as a
    // snapshot with no alerts and no tracked routes.
    let clean = TelemetrySnapshot {
        alerts: Vec::new(),
        health: Vec::new(),
        ..snapshot.clone()
    };
    let v1_text = clean
        .to_json()
        .replace("\"alerts\":[],", "")
        .replace("\"health\":{},", "")
        .replace(sesr_telemetry::SCHEMA, "sesr-telemetry/v1");
    let err = TelemetrySnapshot::from_json(&v1_text).unwrap_err();
    assert!(err.message.contains("unsupported schema"), "{err:?}");

    watcher.stop();
    drop(slo); // the runtime holds a client clone; shutdown drains clients
    drop(client);
    gateway.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn promotion_that_tanks_the_route_is_demoted_within_probation() {
    probation_collapse("demote", false);
}

#[test]
fn failed_rollback_is_counted_and_journaled_as_a_reload_failure() {
    probation_collapse("rollback_fails", true);
}

/// v1 serves, v2 is promoted, then the route collapses inside probation.
/// With v1 still stored the watcher demotes back to it. With v1 deleted
/// (`prior_removed`) the rollback fails, the route keeps serving v2, and
/// the failure shows as `gateway.reload_failures` plus a Warn
/// `gateway.reload_failed` event.
fn probation_collapse(tag: &str, prior_removed: bool) {
    let dir = temp_dir(tag);
    let store = ModelStore::open(&dir).unwrap();
    let v1 = save_generation(&store, 100);

    let route = RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .cache_capacity(0)
        .seed(0)
        .with_store(store.clone())
        .route_with(
            route,
            RouteConfig {
                num_workers: 1,
                queue_capacity: 16,
                ..RouteConfig::default()
            },
        )
        .build()
        .unwrap();
    let client = gateway.client();
    let mut slo = SloRuntime::new(client.clone(), breach_everything_policy());
    slo.tick_at(0);

    // Remember what the pinned (v1) weights serve, for the rollback check.
    let v1_output = client
        .defend_blocking(DefenseRequest::new(image()).on(route))
        .unwrap()
        .defended;

    // A healthy route promotes the new generation immediately (the watcher
    // baselines to the newest artifact at spawn, so it starts first).
    let watcher = client.watch_store(Duration::from_millis(10)).unwrap();
    save_generation(&store, 200);
    wait_for("the initial promotion", || {
        counter(&gateway, "gateway.reloads") == 1
    });
    let v2_output = client
        .defend_blocking(DefenseRequest::new(image()).on(route))
        .unwrap()
        .defended;
    assert_ne!(
        v1_output, v2_output,
        "the new generation must actually serve"
    );
    if prior_removed {
        std::fs::remove_file(&v1.path).unwrap();
    }

    // The "regression": inside the probation window the route collapses to
    // Unhealthy (every request breaches the 1ns objective).
    drive(&client, route, 6);
    slo.tick_at(200);
    drive(&client, route, 6);
    slo.tick_at(400);
    assert_eq!(client.route_health(&route).unwrap(), HealthState::Unhealthy);

    // The watcher tries to demote back to the pinned prior artifact...
    let (outcome, event) = if prior_removed {
        ("gateway.reload_failures", "gateway.reload_failed")
    } else {
        ("gateway.reload_demoted", "gateway.reload_demoted")
    };
    wait_for(outcome, || counter(&gateway, outcome) == 1);
    let snapshot = gateway.telemetry_snapshot();
    assert!(
        snapshot
            .events
            .iter()
            .any(|e| e.name == event && e.level == Level::Warn),
        "journal must record {event} at Warn"
    );

    // ... and once the route recovers, the bad newest version is NOT
    // re-promoted.
    for now_ms in [600, 800, 1000, 1200] {
        slo.tick_at(now_ms);
    }
    assert_eq!(client.route_health(&route).unwrap(), HealthState::Healthy);
    std::thread::sleep(Duration::from_millis(50)); // several watcher polls
    assert_eq!(
        counter(&gateway, "gateway.reloads"),
        1,
        "the demoted version must not be promoted again"
    );
    let restored = client
        .defend_blocking(DefenseRequest::new(image()).on(route))
        .unwrap()
        .defended;
    if prior_removed {
        assert_eq!(counter(&gateway, "gateway.reload_demoted"), 0);
        assert_eq!(
            restored, v2_output,
            "a failed rollback leaves the promoted weights serving"
        );
    } else {
        assert_eq!(
            restored, v1_output,
            "demotion must restore the pinned prior weights"
        );
    }

    watcher.stop();
    drop(slo);
    drop(client);
    gateway.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
