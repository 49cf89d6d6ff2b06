//! Integration tests for the `sesr-serve` subsystem, proving the three
//! properties the serving layer promises on top of the defense:
//!
//! (a) batched-parallel serving is *bitwise equivalent* to sequential
//!     `DefensePipeline::defend` for the interpolation upscalers,
//! (b) the bounded submission queue rejects with `Overloaded` instead of
//!     blocking forever, and
//! (c) LRU cache hits skip recomputation entirely.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::{SrModelKind, Upscaler};
use sesr_serve::{DefenseRequest, GatewayBuilder, RouteConfig, RouteKey, ServeError, WorkerAssets};
use sesr_tensor::{init, Shape, Tensor};
use std::time::Duration;

fn images(count: usize, size: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..count)
        .map(|_| init::uniform(Shape::new(&[1, 3, size, size]), 0.0, 1.0, &mut rng))
        .collect()
}

#[test]
fn batched_parallel_serving_is_bitwise_equivalent_to_sequential() {
    for kind in [SrModelKind::NearestNeighbor, SrModelKind::Bicubic] {
        let sequential = DefensePipeline::new(
            PreprocessConfig::paper(),
            kind.build_interpolation(2).unwrap(),
        );
        let config = RouteConfig {
            num_workers: 4,
            max_batch: 8,
            max_linger: Duration::from_millis(5),
            queue_capacity: 64,
        };
        let gateway = GatewayBuilder::new()
            .cache_capacity(0) // isolate the batching path
            .route_with(RouteKey::paper(kind, 2), config)
            .build()
            .unwrap();
        let client = gateway.client();

        let inputs = images(24, 16);
        // Submit everything up front so the workers actually coalesce.
        let pending: Vec<_> = inputs
            .iter()
            .map(|image| client.submit(DefenseRequest::new(image.clone())).unwrap())
            .collect();
        for (image, pending) in inputs.iter().zip(pending) {
            let served = pending.wait().unwrap();
            let direct = sequential.defend(image).unwrap();
            assert_eq!(
                served.defended, direct,
                "served output must be bitwise identical for {kind}"
            );
        }

        let snapshot = gateway.telemetry_snapshot();
        assert_eq!(snapshot.counter("gateway.completed"), Some(24));
        let largest_batch = snapshot.gauge("gateway.largest_batch").unwrap_or(0);
        assert!(
            largest_batch > 1,
            "a 24-image burst should produce at least one multi-image batch, got {largest_batch}"
        );
        drop(client);
        gateway.shutdown();
    }
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
fn bounded_queue_rejects_with_overloaded_instead_of_blocking() {
    let config = RouteConfig {
        num_workers: 1,
        max_batch: 1,
        max_linger: Duration::ZERO,
        queue_capacity: 2,
    };
    let route = RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none());
    let gateway = GatewayBuilder::new()
        .cache_capacity(0)
        .route_with_factory(route, config, |_| {
            Ok(WorkerAssets::new(DefensePipeline::new(
                PreprocessConfig::none(),
                Box::new(SlowUpscaler {
                    delay: Duration::from_millis(30),
                    inner: SrModelKind::NearestNeighbor.build_interpolation(2).unwrap(),
                }),
            )))
        })
        .build()
        .unwrap();
    let client = gateway.client();

    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for image in images(40, 8) {
        match client.submit(DefenseRequest::new(image)) {
            Ok(pending) => accepted.push(pending),
            Err(ServeError::Overloaded) => rejected += 1,
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    assert!(
        rejected > 0,
        "a 2-deep queue behind a 30ms worker must shed part of a 40-image burst"
    );
    // Accepted requests still complete; nothing was silently dropped.
    for pending in accepted {
        pending.wait().unwrap();
    }
    let snapshot = gateway.telemetry_snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    assert_eq!(counter("gateway.rejected"), rejected as u64);
    assert_eq!(
        counter("gateway.completed") + counter("gateway.rejected"),
        40
    );
    drop(client);
    gateway.shutdown();
}

#[test]
fn cache_hits_skip_recomputation() {
    let gateway = GatewayBuilder::new()
        .route(RouteKey::paper(SrModelKind::NearestNeighbor, 2))
        .build()
        .unwrap();
    let client = gateway.client();

    let unique = images(6, 16);
    for image in &unique {
        let response = client
            .defend_blocking(DefenseRequest::new(image.clone()))
            .unwrap();
        assert!(!response.cache_hit);
    }
    let computed = || {
        gateway
            .telemetry_snapshot()
            .counter("gateway.computed_images")
            .unwrap_or(0)
    };
    let computed_after_first_pass = computed();
    assert_eq!(computed_after_first_pass, 6);

    // Replaying the same traffic is answered from cache: no new computation.
    for image in &unique {
        let response = client
            .defend_blocking(DefenseRequest::new(image.clone()))
            .unwrap();
        assert!(
            response.cache_hit,
            "identical resubmission must hit the cache"
        );
    }
    assert_eq!(computed(), computed_after_first_pass);
    let snapshot = gateway.telemetry_snapshot();
    assert_eq!(snapshot.counter("gateway.cache_hits"), Some(6));
    assert_eq!(snapshot.counter("gateway.completed"), Some(12));
    drop(client);
    gateway.shutdown();
}

#[test]
fn seeded_upscaler_construction_is_deterministic_across_instances() {
    // The worker-pool contract: two upscalers built from the same
    // (kind, scale, seed) triple compute the same function, including for
    // learned kinds with freshly initialised weights.
    let a = SrModelKind::SesrM2.build_seeded_upscaler(2, 7).unwrap();
    let b = SrModelKind::SesrM2.build_seeded_upscaler(2, 7).unwrap();
    let c = SrModelKind::SesrM2.build_seeded_upscaler(2, 8).unwrap();
    let image = &images(1, 8)[0];
    let out_a = a.upscale(image).unwrap();
    let out_b = b.upscale(image).unwrap();
    let out_c = c.upscale(image).unwrap();
    assert_eq!(out_a, out_b, "same seed must give identical upscalers");
    assert_ne!(out_a, out_c, "different seeds must give different weights");

    // Learned kinds refuse non-×2 scales instead of failing at runtime.
    assert!(SrModelKind::SesrM2.build_seeded_upscaler(3, 0).is_err());
    assert!(SrModelKind::NearestNeighbor
        .build_seeded_upscaler(3, 0)
        .is_ok());
}
