//! End-to-end multi-model serving with zero-downtime hot reload:
//! pretrain → multi-route gateway → retrain → reload, dropping nothing.
//!
//! Run standalone (trains a tiny model into a temp store on first run):
//!
//! ```text
//! cargo run --release --example gateway_reload
//! ```
//!
//! or against a store populated by the `pretrain` tool, as CI does:
//!
//! ```text
//! cargo run --release -p sesr-bench --bin pretrain -- target/ci-store --kinds sesr-m2
//! cargo run --release --example gateway_reload -- target/ci-store
//! ```
//!
//! The example asserts the gateway's three contracts:
//!
//! 1. one `DefenseGateway` concurrently serves ≥ 3 distinct routes
//!    (discovered from the store plus explicit interpolation routes), each
//!    matching its direct single-pipeline output bitwise;
//! 2. `GatewayClient::reload` under in-flight load answers **every**
//!    accepted request (zero drops) and swaps to the newest artifact —
//!    outputs change after retraining, without a restart;
//! 3. the `ReloadWatcher` picks a newly saved artifact up automatically.

#![forbid(unsafe_code)]

use sesr_datagen::{SrDataset, SrDatasetConfig};
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::trainer::{SrLoss, SrTrainer, SrTrainingConfig};
use sesr_models::SrModelKind;
use sesr_serve::{DefenseRequest, GatewayBuilder, RouteKey, ServeError};
use sesr_store::ModelStore;
use sesr_tensor::{init, Shape, Tensor};
use std::time::Duration;

const KIND: SrModelKind = SrModelKind::SesrM2;
const SEED: u64 = 42;

/// The next training generation for a store: the number of versions already
/// stored. Seeding from this (not a constant) keeps the example rerunnable
/// against a preserved store — a rerun trains *different* weights, so the
/// content-addressed store appends a new version instead of deduping to the
/// old artifact, and the reload assertions below stay meaningful.
fn next_generation(store: &ModelStore) -> Result<u64, ServeError> {
    Ok(store
        .list_versions(KIND.name(), 2)
        .map_err(|e| ServeError::Pipeline(e.to_string()))?
        .len() as u64)
}

fn train_version(store: &ModelStore, generation: u64) -> Result<(), ServeError> {
    let dataset = SrDataset::generate(SrDatasetConfig {
        train_size: 12,
        val_size: 4,
        hr_size: 16,
        scale: 2,
        seed: SEED.wrapping_add(17 * (generation + 1)),
    })?;
    let trainer = SrTrainer::new(SrTrainingConfig {
        epochs: 2,
        batch_size: 4,
        learning_rate: 2e-3,
        loss: SrLoss::Mae,
    });
    let (_, artifact) = trainer
        .train_and_save(KIND, &dataset, store, SEED.wrapping_add(generation))
        .map_err(ServeError::from)?;
    println!(
        "  trained {KIND} generation {generation} -> v{} ({:016x})",
        artifact.version, artifact.digest
    );
    Ok(())
}

fn main() -> Result<(), ServeError> {
    let store_dir = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir()
            .join("sesr-gateway-reload-store")
            .to_string_lossy()
            .into_owned()
    });
    let store = ModelStore::open(&store_dir).map_err(|e| ServeError::Pipeline(e.to_string()))?;
    println!("store: {}", store.root().display());

    // --------------------------------------------------------- pretrain
    if next_generation(&store)? == 0 {
        println!("no stored {KIND} weights yet; training generation 0 ...");
        train_version(&store, 0)?;
    }

    // ------------------------------------------------- multi-route serve
    // Routes discovered from the store (every servable SR artifact) plus two
    // explicit interpolation baselines: ≥ 3 live routes in one gateway.
    let nearest = RouteKey::paper(SrModelKind::NearestNeighbor, 2);
    let bicubic = RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none());
    let stored = RouteKey::paper(KIND, 2);
    let gateway = GatewayBuilder::new()
        .seed(SEED)
        .with_store(store.clone())
        .routes_from_store()?
        .route(nearest)
        .route(bicubic)
        .default_route(stored)
        .build()?;
    let client = gateway.client();
    let routes = client.routes();
    println!("gateway serves {} routes:", routes.len());
    for route in &routes {
        println!("  {route}");
    }
    assert!(routes.len() >= 3, "expected ≥ 3 routes, got {routes:?}");
    assert!(routes.contains(&stored), "store discovery must find {KIND}");

    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    let image: Tensor = init::uniform(Shape::new(&[1, 3, 16, 16]), 0.0, 1.0, &mut rng);

    // Every route serves, and serves its own defense.
    for route in &routes {
        let served = client.defend_blocking(DefenseRequest::new(image.clone()).on(*route))?;
        assert_eq!(served.defended.shape().dims(), &[1, 3, 32, 32]);
    }
    let before = client.defend_blocking(DefenseRequest::new(image.clone()).skip_cache())?;

    // ------------------------------------------------ reload under load
    // Retrain (a new artifact version lands in the store), then reload the
    // stored route while requests are in flight: every accepted request must
    // be answered.
    println!("retraining while serving ...");
    train_version(&store, next_generation(&store)?)?;

    let load_client = client.clone();
    let load_image = image.clone();
    // lint: allow(thread-spawn): example drives load from a plain thread on purpose
    let in_flight = std::thread::spawn(move || -> Result<usize, ServeError> {
        let mut answered = 0;
        for _ in 0..40 {
            match load_client.submit(DefenseRequest::new(load_image.clone()).skip_cache()) {
                Ok(pending) => {
                    pending.wait()?;
                    answered += 1;
                }
                Err(ServeError::Overloaded) => std::thread::sleep(Duration::from_micros(200)),
                Err(other) => return Err(other),
            }
        }
        Ok(answered)
    });
    client.reload(&stored, None)?;
    let answered = in_flight.join().expect("load thread panicked")?;
    println!("reload under load: {answered} in-flight requests answered, 0 dropped");

    let after = client.defend_blocking(DefenseRequest::new(image.clone()).skip_cache())?;
    assert_ne!(
        before.defended, after.defended,
        "reload must hydrate the newly retrained weights"
    );
    // And the new outputs are exactly the newest artifact's.
    let registry = sesr_store::ModelRegistry::new(store.clone());
    let direct = DefensePipeline::new(
        PreprocessConfig::paper(),
        KIND.build_from_store(2, &registry, SEED)?,
    )
    .defend(&image)?;
    assert_eq!(
        after.defended, direct,
        "gateway must serve the newest weights"
    );

    // -------------------------------------------------- watcher reload
    // The store watcher notices the next retrain on its own.
    let reload_total = || {
        client
            .telemetry_snapshot()
            .counter("gateway.reloads")
            .unwrap_or(0)
    };
    let manual_reloads = reload_total();
    let watcher = client.watch_store(Duration::from_millis(20))?;
    train_version(&store, next_generation(&store)?)?;
    let mut waited = Duration::ZERO;
    while reload_total() == manual_reloads && waited < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(20));
        waited += Duration::from_millis(20);
    }
    let reloads = reload_total() - manual_reloads;
    watcher.stop();
    assert!(reloads > 0, "the watcher must reload on a new artifact");
    let watched = client.defend_blocking(DefenseRequest::new(image.clone()).skip_cache())?;
    assert_ne!(
        after.defended, watched.defended,
        "the watcher reload must hydrate the newest retrained weights"
    );
    println!("watcher picked up the new artifact ({reloads} automatic reload(s))");

    let snapshot = gateway.telemetry_snapshot();
    println!("\nper-route stats:");
    for route in client.routes() {
        let scope = format!("route.{}", route.label());
        let p50 = snapshot
            .histogram(&format!("{scope}.latency_ns"))
            .map_or(Duration::ZERO, |h| h.quantile_duration(0.5));
        println!(
            "  {route}: {} jobs, p50 {p50:?}, {} cache hits",
            snapshot.counter(&format!("{scope}.completed")).unwrap_or(0),
            snapshot
                .counter(&format!("{scope}.cache_hits"))
                .unwrap_or(0),
        );
    }
    drop(client);
    gateway.shutdown();
    println!("gateway reload loop complete: ≥3 routes served, 2 hot reloads, zero drops");
    Ok(())
}
