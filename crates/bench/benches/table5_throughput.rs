//! Table V (extension) bench: serving throughput of the defense pipeline.
//!
//! Compares defending a fixed burst of images sequentially on the caller's
//! thread against pushing the same burst through the `sesr-serve` engine
//! (4 workers, dynamic batches of up to 8 images). The serve path should
//! finish the burst substantially faster; its internal latency percentiles
//! are printed alongside the timings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sesr_bench::bench_image;
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::SrModelKind;
use sesr_serve::{
    DefenseGateway, DefenseRequest, GatewayBuilder, RouteConfig, RouteKey, ServeError,
};
use sesr_tensor::Tensor;
use std::time::Duration;

const BURST: usize = 32;
const IMAGE_SIZE: usize = 24;

fn burst_images() -> Vec<Tensor> {
    // Distinct images (perturb a base image deterministically) so the serve
    // path cannot win through caching.
    let base = bench_image(IMAGE_SIZE);
    (0..BURST)
        .map(|i| base.add_scalar(i as f32 * 1e-3).clamp(0.0, 1.0))
        .collect()
}

/// Completions and latency percentiles of one metric scope (`gateway` or
/// `route.<label>`), read from the gateway's telemetry snapshot.
fn served_line(gateway: &DefenseGateway, scope: &str) -> String {
    let snapshot = gateway.telemetry_snapshot();
    let completed = snapshot.counter(&format!("{scope}.completed")).unwrap_or(0);
    let latency = |q: f64| {
        snapshot
            .histogram(&format!("{scope}.latency_ns"))
            .map_or(Duration::ZERO, |h| h.quantile_duration(q))
    };
    format!(
        "{scope}: served {completed}, latency p50 {:?} p95 {:?} p99 {:?}",
        latency(0.50),
        latency(0.95),
        latency(0.99)
    )
}

fn sequential_burst(c: &mut Criterion) {
    let images = burst_images();
    let pipeline = DefensePipeline::new(
        PreprocessConfig::paper(),
        SrModelKind::NearestNeighbor.build_interpolation(2).unwrap(),
    );
    let mut group = c.benchmark_group("table5_throughput_32x24px");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function(BenchmarkId::new("sequential", "1thread"), |b| {
        b.iter(|| {
            for image in &images {
                pipeline.defend(image).expect("defend");
            }
        });
    });
    group.finish();
}

fn served_burst(c: &mut Criterion) {
    let images = burst_images();
    let config = RouteConfig {
        num_workers: 4,
        max_batch: 8,
        max_linger: Duration::from_millis(1),
        queue_capacity: 64,
    };
    let gateway = GatewayBuilder::new()
        .cache_capacity(0)
        .route_with(RouteKey::paper(SrModelKind::NearestNeighbor, 2), config)
        .build()
        .expect("start gateway");
    let client = gateway.client();

    let mut group = c.benchmark_group("table5_throughput_32x24px");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function(BenchmarkId::new("served", "4workers_batch8"), |b| {
        b.iter(|| {
            let pending: Vec<_> = images
                .iter()
                .map(|image| loop {
                    match client.submit(DefenseRequest::new(image.clone())) {
                        Ok(p) => break p,
                        Err(ServeError::Overloaded) => {
                            std::thread::sleep(Duration::from_micros(50))
                        }
                        Err(other) => panic!("submit failed: {other}"),
                    }
                })
                .collect();
            for p in pending {
                p.wait().expect("response");
            }
        });
    });
    group.finish();

    eprintln!("[table5] {}", served_line(&gateway, "gateway"));
    drop(client);
    gateway.shutdown();
}

/// The same burst spread across three gateway routes: measures the
/// multi-model overhead of routed submission + shard-per-route dispatch.
fn gateway_burst(c: &mut Criterion) {
    let images = burst_images();
    let routes = [
        RouteKey::paper(SrModelKind::NearestNeighbor, 2),
        RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none()),
        RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none()),
    ];
    let config = RouteConfig {
        num_workers: 2,
        max_batch: 8,
        max_linger: Duration::from_millis(1),
        queue_capacity: 64,
    };
    let gateway = GatewayBuilder::new()
        .cache_capacity(0)
        .default_route_config(config)
        .route(routes[0])
        .route(routes[1])
        .route(routes[2])
        .build()
        .expect("start gateway");
    let client = gateway.client();

    let mut group = c.benchmark_group("table5_throughput_32x24px");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function(BenchmarkId::new("gateway", "3routes_2workers"), |b| {
        b.iter(|| {
            let pending: Vec<_> = images
                .iter()
                .enumerate()
                .map(|(i, image)| loop {
                    let request = DefenseRequest::new(image.clone()).on(routes[i % routes.len()]);
                    match client.submit(request) {
                        Ok(p) => break p,
                        Err(ServeError::Overloaded) => {
                            std::thread::sleep(Duration::from_micros(50))
                        }
                        Err(other) => panic!("submit failed: {other}"),
                    }
                })
                .collect();
            for p in pending {
                p.wait().expect("response");
            }
        });
    });
    group.finish();

    for route in &routes {
        let scope = format!("route.{}", route.label());
        eprintln!("[table5] {}", served_line(&gateway, &scope));
    }
    drop(client);
    gateway.shutdown();
}

criterion_group!(table5, sequential_burst, served_burst, gateway_burst);
criterion_main!(table5);
