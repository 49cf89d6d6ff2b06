//! Integration tests for the multi-model `DefenseGateway`, proving the
//! contracts the api redesign promises:
//!
//! (a) one gateway concurrently serves ≥ 3 distinct `(SrModelKind, scale)`
//!     routes, each bitwise-identical to its direct single-pipeline defense,
//! (b) routes are isolated: saturating route A's bounded queue sheds load on
//!     A only, while route B keeps serving at full capacity,
//! (c) an unserved route is a typed `ServeError::UnknownRoute`,
//! (d) hot reload under load answers every accepted in-flight request (zero
//!     drops) and swaps to the newest stored artifact,
//! (e) the output cache is keyed by `(RouteKey, content-hash)`, so routes
//!     can never serve each other's defended outputs (cache-poisoning
//!     regression).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::{SrModelKind, Upscaler};
use sesr_serve::{DefenseRequest, GatewayBuilder, RouteConfig, RouteKey, ServeError, WorkerAssets};
use sesr_store::{Checkpoint, ModelStore};
use sesr_telemetry::TelemetrySnapshot;
use sesr_tensor::{init, Shape, Tensor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static TEST_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sesr_it_gateway_{tag}_{}_{}",
        std::process::id(),
        TEST_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One of `route`'s counters (`route.<label>.<metric>`) in `snapshot`.
fn route_counter(snapshot: &TelemetrySnapshot, route: &RouteKey, metric: &str) -> u64 {
    snapshot
        .counter(&format!("route.{}.{metric}", route.label()))
        .unwrap_or(0)
}

fn images(count: usize, size: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..count)
        .map(|_| init::uniform(Shape::new(&[1, 3, size, size]), 0.0, 1.0, &mut rng))
        .collect()
}

#[test]
fn one_gateway_serves_three_routes_bitwise_identically() {
    // Three distinct (SrModelKind, scale-role) routes in one gateway: the
    // learned SESR-M2 (seeded), nearest-neighbor with paper preprocessing,
    // and bicubic without preprocessing.
    let sesr = RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none());
    let nearest = RouteKey::paper(SrModelKind::NearestNeighbor, 2);
    let bicubic = RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .cache_capacity(0) // isolate the routing + batching path
        .seed(9)
        .route(sesr)
        .route(nearest)
        .route(bicubic)
        .build()
        .unwrap();
    let client = gateway.client();

    let direct = |route: &RouteKey| -> DefensePipeline {
        DefensePipeline::new(
            route.preprocess,
            route.model.build_seeded_upscaler(route.scale, 9).unwrap(),
        )
    };

    // Interleave submissions across all three routes before waiting, so the
    // shards genuinely serve concurrently.
    let inputs = images(12, 16);
    let routes = [sesr, nearest, bicubic];
    let pending: Vec<_> = inputs
        .iter()
        .enumerate()
        .map(|(i, image)| {
            let route = routes[i % routes.len()];
            (
                route,
                image.clone(),
                client
                    .submit(DefenseRequest::new(image.clone()).on(route))
                    .unwrap(),
            )
        })
        .collect();
    for (route, image, pending) in pending {
        let served = pending.wait().unwrap();
        let expected = direct(&route).defend(&image).unwrap();
        assert_eq!(
            served.defended, expected,
            "route {route} must serve its own defense bitwise"
        );
    }

    let snapshot = gateway.telemetry_snapshot();
    assert_eq!(snapshot.counter("gateway.completed"), Some(12));
    for route in &routes {
        assert_eq!(route_counter(&snapshot, route, "completed"), 4);
    }
    drop(client);
    gateway.shutdown();
}

/// An upscaler that sleeps per call, making queue saturation deterministic.
struct SlowUpscaler {
    delay: Duration,
    inner: Box<dyn Upscaler>,
}

impl Upscaler for SlowUpscaler {
    fn name(&self) -> &str {
        "slow"
    }

    fn scale(&self) -> usize {
        self.inner.scale()
    }

    fn upscale(&self, input: &Tensor) -> sesr_tensor::Result<Tensor> {
        std::thread::sleep(self.delay);
        self.inner.upscale(input)
    }
}

#[test]
fn saturating_one_route_leaves_the_other_at_full_capacity() {
    let slow = RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none());
    let fast = RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none());
    let tight = RouteConfig {
        num_workers: 1,
        max_batch: 1,
        max_linger: Duration::ZERO,
        queue_capacity: 2,
    };
    let gateway = GatewayBuilder::new()
        .cache_capacity(0)
        .route_with_factory(slow, tight.clone(), |_| {
            Ok(WorkerAssets::new(DefensePipeline::new(
                PreprocessConfig::none(),
                Box::new(SlowUpscaler {
                    delay: Duration::from_millis(30),
                    inner: SrModelKind::NearestNeighbor.build_interpolation(2).unwrap(),
                }),
            )))
        })
        .route_with(fast, tight)
        .build()
        .unwrap();
    let client = gateway.client();

    // Saturate the slow route until its 2-deep queue sheds load.
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for image in images(40, 8) {
        match client.submit(DefenseRequest::new(image).on(slow)) {
            Ok(pending) => accepted.push(pending),
            Err(ServeError::Overloaded) => rejected += 1,
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    assert!(
        rejected > 0,
        "a 2-deep queue behind a 30ms worker must shed part of a 40-image burst"
    );

    // While the slow route is still chewing through its queue, the fast
    // route must accept and answer everything instantly.
    for image in images(10, 8) {
        let response = client
            .defend_blocking(DefenseRequest::new(image).on(fast))
            .unwrap();
        assert_eq!(response.defended.shape().dims(), &[1, 3, 16, 16]);
    }

    // Accepted slow-route requests still complete; nothing silently dropped.
    for pending in accepted {
        pending.wait().unwrap();
    }
    let snapshot = gateway.telemetry_snapshot();
    let slow_rejected = route_counter(&snapshot, &slow, "rejected");
    assert_eq!(slow_rejected, rejected as u64);
    assert_eq!(
        route_counter(&snapshot, &slow, "completed") + slow_rejected,
        40
    );
    assert_eq!(route_counter(&snapshot, &fast, "completed"), 10);
    assert_eq!(
        route_counter(&snapshot, &fast, "rejected"),
        0,
        "route B must be untouched by route A's overload"
    );
    drop(client);
    gateway.shutdown();
}

#[test]
fn unknown_route_is_a_typed_error() {
    let nearest = RouteKey::paper(SrModelKind::NearestNeighbor, 2);
    let gateway = GatewayBuilder::new().route(nearest).build().unwrap();
    let client = gateway.client();
    let undeclared = RouteKey::paper(SrModelKind::Edsr, 2);
    match client.submit(DefenseRequest::new(images(1, 8).remove(0)).on(undeclared)) {
        Err(ServeError::UnknownRoute(label)) => {
            assert_eq!(label, undeclared.label());
            assert!(label.contains("edsr"), "label must name the route: {label}");
        }
        Err(other) => panic!("expected UnknownRoute, got {other}"),
        Ok(_) => panic!("an undeclared route must not serve"),
    }
    // The failure is per-request: the declared route still serves.
    client
        .defend_blocking(DefenseRequest::new(images(1, 8).remove(0)).on(nearest))
        .unwrap();
    drop(client);
    gateway.shutdown();
}

#[test]
fn hot_reload_under_load_answers_every_in_flight_request() {
    let dir = temp_dir("reload");
    let store = ModelStore::open(&dir).unwrap();
    let save_generation = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
        store
            .save(&Checkpoint::from_layer(
                "SESR-M2",
                2,
                seed,
                network.as_ref(),
            ))
            .unwrap();
    };
    save_generation(100);

    let route = RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .cache_capacity(64)
        .seed(0)
        .with_store(store.clone())
        .route_with(
            route,
            RouteConfig {
                num_workers: 2,
                queue_capacity: 16,
                ..RouteConfig::default()
            },
        )
        .build()
        .unwrap();
    let client = gateway.client();

    let image = images(1, 8).remove(0);
    let before = client
        .defend_blocking(DefenseRequest::new(image.clone()).skip_cache())
        .unwrap();
    // Seed a cache entry under the old weights; the reload must purge it.
    let cached_before = client
        .defend_blocking(DefenseRequest::new(image.clone()))
        .unwrap();
    assert_eq!(cached_before.defended, before.defended);

    // Hammer the route from two threads while reloading twice.
    save_generation(200);
    let mut hammers = Vec::new();
    for thread in 0..2 {
        let hammer_client = client.clone();
        let hammer_image = image.clone();
        hammers.push(std::thread::spawn(move || -> (usize, usize) {
            let mut answered = 0;
            let mut shed = 0;
            for i in 0..30 {
                let request = DefenseRequest::new(hammer_image.clone()).skip_cache();
                match hammer_client.submit(request) {
                    Ok(pending) => {
                        // Accepted requests MUST be answered, reload or not.
                        pending.wait().unwrap_or_else(|err| {
                            panic!("thread {thread} request {i} dropped: {err}")
                        });
                        answered += 1;
                    }
                    Err(ServeError::Overloaded) => shed += 1,
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
            (answered, shed)
        }));
    }
    client.reload(&route, None).unwrap();
    client.reload(&route, None).unwrap(); // idempotent: same newest artifact
    let mut total_answered = 0;
    for hammer in hammers {
        let (answered, shed) = hammer.join().expect("hammer thread panicked");
        assert_eq!(answered + shed, 30, "every submit is answered or shed");
        total_answered += answered;
    }
    assert!(total_answered > 0, "load must overlap the reload");

    // New weights serve now — and the pre-reload cache entry is gone, so
    // even a cacheable request gets the fresh defense.
    let after = client
        .defend_blocking(DefenseRequest::new(image.clone()))
        .unwrap();
    assert!(
        !after.cache_hit,
        "reload must purge the route's stale cache"
    );
    assert_ne!(
        before.defended, after.defended,
        "reload must swap to the newest artifact's weights"
    );
    let registry = sesr_store::ModelRegistry::new(store);
    let direct = DefensePipeline::new(
        PreprocessConfig::none(),
        SrModelKind::SesrM2
            .build_from_store(2, &registry, 0)
            .unwrap(),
    )
    .defend(&image)
    .unwrap();
    assert_eq!(after.defended, direct);

    assert_eq!(
        gateway
            .telemetry_snapshot()
            .counter("gateway.completed")
            .unwrap_or(0),
        2 + total_answered as u64 + 1,
        "every accepted request across the reloads is accounted for"
    );
    drop(client);
    gateway.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_is_keyed_per_route_no_poisoning() {
    // Regression: with a content-hash-only key, the second route would have
    // returned the first route's defended output for the same input image.
    let nearest = RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none());
    let bicubic = RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .cache_capacity(64)
        .route(nearest)
        .route(bicubic)
        .build()
        .unwrap();
    let client = gateway.client();

    let image = images(1, 8).remove(0);
    // Warm the nearest route's cache entry for this exact image.
    let warm = client
        .defend_blocking(DefenseRequest::new(image.clone()).on(nearest))
        .unwrap();
    assert!(!warm.cache_hit);

    // The same image on the other route must MISS and compute its own
    // defense, not replay the nearest-neighbor output.
    let other = client
        .defend_blocking(DefenseRequest::new(image.clone()).on(bicubic))
        .unwrap();
    assert!(
        !other.cache_hit,
        "a different route must never hit another route's entry"
    );
    assert_ne!(
        other.defended, warm.defended,
        "cache poisoning: bicubic served the nearest-neighbor output"
    );

    // Each route hits its own entry on resubmission, with its own output.
    let warm_again = client
        .defend_blocking(DefenseRequest::new(image.clone()).on(nearest))
        .unwrap();
    assert!(warm_again.cache_hit);
    assert_eq!(warm_again.defended, warm.defended);
    let other_again = client
        .defend_blocking(DefenseRequest::new(image).on(bicubic))
        .unwrap();
    assert!(other_again.cache_hit);
    assert_eq!(other_again.defended, other.defended);

    let snapshot = gateway.telemetry_snapshot();
    assert_eq!(route_counter(&snapshot, &nearest, "cache_hits"), 1);
    assert_eq!(route_counter(&snapshot, &bicubic, "cache_hits"), 1);
    drop(client);
    gateway.shutdown();
}
