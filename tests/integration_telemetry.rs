//! The observability acceptance test: one gateway request leaves a complete,
//! machine-readable trace.
//!
//! (a) a single request produces a span trace covering queue-wait,
//!     batch-dwell, preprocess, SR-forward and classify, all tagged with the
//!     same request id,
//! (b) the snapshot carries a per-route histogram for every stage,
//! (c) the JSON export round-trips exactly under the stable
//!     `sesr-telemetry/v2` schema,
//! (d) the snapshot-file exporter produces the same schema on disk.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::SrModelKind;
use sesr_serve::{DefenseRequest, GatewayBuilder, RouteConfig, RouteKey, WorkerAssets};
use sesr_telemetry::{TelemetrySnapshot, SCHEMA};
use sesr_tensor::{init, Shape, Tensor};
use std::time::Duration;

const STAGES: [&str; 5] = [
    "queue_wait",
    "batch_dwell",
    "preprocess",
    "sr_forward",
    "classify",
];

fn image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    init::uniform(Shape::new(&[1, 3, 16, 16]), 0.0, 1.0, &mut rng)
}

#[test]
fn one_request_produces_a_full_stage_trace() {
    let route = RouteKey::paper(SrModelKind::SesrM2, 2);
    let gateway = GatewayBuilder::new()
        .cache_capacity(8)
        .route_with_factory(
            route,
            RouteConfig {
                num_workers: 1,
                max_batch: 1,
                max_linger: Duration::ZERO,
                queue_capacity: 8,
            },
            |_| {
                let mut rng = StdRng::seed_from_u64(3);
                Ok(WorkerAssets::with_classifier(
                    DefensePipeline::new(
                        PreprocessConfig::paper(),
                        SrModelKind::SesrM2.build_seeded_upscaler(2, 9)?,
                    ),
                    sesr_classifiers::ClassifierKind::MobileNetV2.build_local(4, &mut rng),
                ))
            },
        )
        .build()
        .unwrap();
    let client = gateway.client();

    let response = client
        .defend_blocking(DefenseRequest::new(image(1)).on(route))
        .unwrap();
    assert!(response.label.is_some(), "the route carries a classifier");

    let snapshot = gateway.telemetry_snapshot();
    let label = route.label();

    // (b) every stage has its own per-route histogram with exactly the one
    // recorded request.
    for stage in STAGES {
        let name = format!("route.{label}.stage.{stage}_ns");
        let hist = snapshot.histogram(&name).unwrap_or_else(|| {
            panic!(
                "missing {name}; histograms: {:?}",
                snapshot
                    .histograms
                    .iter()
                    .map(|(n, _)| n)
                    .collect::<Vec<_>>()
            )
        });
        assert_eq!(hist.count, 1, "{name} must hold exactly one request");
        assert!(hist.max > 0, "{name} must record a real duration");
    }

    // (a) the journal holds one span event per stage, all tagged with the
    // same request id.
    let mut request_ids = Vec::new();
    for stage in STAGES {
        let event_name = format!("stage.{stage}");
        let event = snapshot
            .events
            .iter()
            .find(|e| e.name == event_name)
            .unwrap_or_else(|| panic!("no journal event {event_name}"));
        request_ids.push(event.request);
    }
    assert!(
        request_ids.iter().all(|&id| id == request_ids[0]),
        "all five stages must belong to the one submitted request, got {request_ids:?}"
    );
    assert!(request_ids[0] > 0, "request ids start at 1");

    // (c) the stable schema round-trips exactly.
    let json = snapshot.to_json();
    assert!(
        json.contains(SCHEMA),
        "export must be stamped with the {SCHEMA} schema"
    );
    let parsed = TelemetrySnapshot::from_json(&json).unwrap();
    assert_eq!(parsed, snapshot, "from_json must invert to_json");

    // (d) the background exporter writes the same schema to disk.
    let path = std::env::temp_dir().join(format!(
        "sesr_it_telemetry_{}_{}.json",
        std::process::id(),
        request_ids[0]
    ));
    let exporter = client
        .export_telemetry(&path, Duration::from_secs(3600))
        .unwrap();
    exporter.stop().unwrap();
    let on_disk = TelemetrySnapshot::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(on_disk.counter("gateway.completed"), Some(1));
    for stage in STAGES {
        assert!(
            on_disk
                .histogram(&format!("route.{label}.stage.{stage}_ns"))
                .is_some(),
            "exported snapshot must keep the per-stage histograms"
        );
    }
    std::fs::remove_file(&path).ok();

    drop(client);
    gateway.shutdown();
}
