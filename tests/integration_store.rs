//! Integration tests for the trained-weight store: the full
//! train → save → restart → hydrate → serve loop, plus end-to-end rejection
//! of damaged artifacts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_datagen::{SrDataset, SrDatasetConfig};
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::trainer::{evaluate_upscaler_psnr, SrLoss, SrTrainer, SrTrainingConfig};
use sesr_models::SrModelKind;
use sesr_serve::{DefenseRequest, GatewayBuilder, RouteConfig, RouteKey, ServeError};
use sesr_store::{Checkpoint, ModelRegistry, ModelStore, StoreError, CHECKPOINT_FORMAT_VERSION};
use sesr_tensor::{init, Shape, Tensor};
use std::path::PathBuf;

const KIND: SrModelKind = SrModelKind::SesrM2;
const SCALE: usize = 2;
const NUM_WORKERS: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sesr_int_store_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn train_into(dir: &PathBuf) -> f32 {
    let store = ModelStore::open(dir).unwrap();
    let dataset = SrDataset::generate(SrDatasetConfig {
        train_size: 16,
        val_size: 4,
        hr_size: 16,
        scale: SCALE,
        seed: 3,
    })
    .unwrap();
    let trainer = SrTrainer::new(SrTrainingConfig {
        epochs: 6,
        batch_size: 4,
        learning_rate: 2e-3,
        loss: SrLoss::Mae,
    });
    let (report, artifact) = trainer.train_and_save(KIND, &dataset, &store, 11).unwrap();
    assert_eq!(artifact.version, 1);
    report.val_psnr
}

fn test_image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    init::uniform(Shape::new(&[1, 3, 16, 16]), 0.0, 1.0, &mut rng)
}

/// The acceptance loop: train a small SESR model, save it, restart into a
/// fresh `DefenseGateway` hydrating from the store, and check that (a) all
/// workers produce bitwise-identical defended outputs and (b) the stored
/// weights beat the seeded-random baseline on held-out PSNR.
#[test]
fn full_train_save_restart_serve_loop() {
    let dir = temp_dir("full_loop");
    train_into(&dir);

    // "Restart": everything below uses only the store directory.
    let registry = ModelRegistry::new(ModelStore::open(&dir).unwrap());

    // (a1) Worker determinism, directly: building each worker's pipeline from
    // the store must yield bitwise-identical defends for every worker index.
    let image = test_image(1);
    let reference = DefensePipeline::new(
        PreprocessConfig::paper(),
        KIND.build_from_store(SCALE, &registry, 0).unwrap(),
    )
    .defend(&image)
    .unwrap();
    for worker in 0..NUM_WORKERS {
        let defended = DefensePipeline::new(
            PreprocessConfig::paper(),
            KIND.build_from_store(SCALE, &registry, 0).unwrap(),
        )
        .defend(&image)
        .unwrap();
        assert_eq!(
            reference, defended,
            "worker {worker} hydrated different weights"
        );
    }

    // (a2) Worker determinism through the running gateway: repeated submits of
    // one image land on arbitrary workers; with the cache disabled every one
    // recomputes, so equality proves the pool serves identical weights.
    let gateway = GatewayBuilder::new()
        .cache_capacity(0)
        .open_store(&dir)
        .unwrap()
        .route_with(
            RouteKey::paper(KIND, SCALE),
            RouteConfig {
                num_workers: NUM_WORKERS,
                ..RouteConfig::default()
            },
        )
        .build()
        .unwrap();
    let client = gateway.client();
    for _ in 0..3 * NUM_WORKERS {
        let response = client
            .defend_blocking(DefenseRequest::new(image.clone()))
            .unwrap();
        assert!(!response.cache_hit);
        assert_eq!(response.defended, reference);
    }
    let snapshot = gateway.telemetry_snapshot();
    assert_eq!(
        snapshot.counter("gateway.completed"),
        Some(3 * NUM_WORKERS as u64)
    );
    assert_eq!(
        snapshot.counter("gateway.computed_images"),
        Some(3 * NUM_WORKERS as u64)
    );
    drop(client);
    gateway.shutdown();

    // (b) Stored weights beat the seeded-random fallback on held-out data.
    let heldout = SrDataset::generate(SrDatasetConfig {
        train_size: 1,
        val_size: 8,
        hr_size: 16,
        scale: SCALE,
        seed: 77,
    })
    .unwrap();
    let hydrated = KIND.build_from_store(SCALE, &registry, 0).unwrap();
    let random = KIND.build_seeded_upscaler(SCALE, 0).unwrap();
    let hydrated_psnr = evaluate_upscaler_psnr(hydrated.as_ref(), &heldout).unwrap();
    let random_psnr = evaluate_upscaler_psnr(random.as_ref(), &heldout).unwrap();
    assert!(
        hydrated_psnr > random_psnr,
        "stored weights ({hydrated_psnr:.2} dB) must beat seeded-random ({random_psnr:.2} dB)"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted and version-mismatched artifacts are rejected with typed errors
/// at every level: the store, the zoo hydration path, and gateway startup.
#[test]
fn damaged_artifacts_are_rejected_never_silently_loaded() {
    let dir = temp_dir("damaged");
    train_into(&dir);
    let store = ModelStore::open(&dir).unwrap();
    let artifact = store.resolve(KIND.name(), SCALE).unwrap();
    let good_bytes = std::fs::read(&artifact.path).unwrap();

    // Flip one payload bit: checksum mismatch.
    let mut corrupt = good_bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    std::fs::write(&artifact.path, &corrupt).unwrap();
    assert!(matches!(
        store.load(&artifact).unwrap_err(),
        StoreError::ChecksumMismatch { .. }
    ));
    let registry = ModelRegistry::new(ModelStore::open(&dir).unwrap());
    assert!(
        KIND.build_from_store(SCALE, &registry, 0).is_err(),
        "hydration must fail loudly on corruption, not fall back"
    );
    assert!(matches!(
        GatewayBuilder::new()
            .open_store(&dir)
            .unwrap()
            .route(RouteKey::paper(KIND, SCALE))
            .build(),
        Err(ServeError::Pipeline(_))
    ));

    // Bump the format version (and fix up nothing else): version mismatch is
    // reported as such, before any checksum or payload work.
    let mut future = good_bytes.clone();
    future[8..12].copy_from_slice(&(CHECKPOINT_FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&artifact.path, &future).unwrap();
    // The file digest changed, so the content-address check fires first when
    // going through the store; decode the bytes directly to see the version
    // error itself.
    assert!(matches!(
        Checkpoint::from_bytes(&future).unwrap_err(),
        StoreError::FormatVersionMismatch { .. }
    ));
    assert!(KIND.build_from_store(SCALE, &registry, 1).is_err());

    // Restoring the original bytes restores service.
    std::fs::write(&artifact.path, &good_bytes).unwrap();
    let fresh = ModelRegistry::new(ModelStore::open(&dir).unwrap());
    assert!(KIND.build_from_store(SCALE, &fresh, 0).is_ok());

    std::fs::remove_dir_all(&dir).ok();
}

/// An empty store serves the seeded-random fallback and a later `pretrain`
/// is picked up by new registries — the workflow CI exercises.
#[test]
fn empty_store_falls_back_then_picks_up_training() {
    let dir = temp_dir("fallback");
    let registry = ModelRegistry::new(ModelStore::open(&dir).unwrap());
    let image = test_image(2);

    let fallback = KIND.build_from_store(SCALE, &registry, 5).unwrap();
    let seeded = KIND.build_seeded_upscaler(SCALE, 5).unwrap();
    assert_eq!(
        fallback.upscale(&image).unwrap(),
        seeded.upscale(&image).unwrap(),
        "an empty store must degrade to exactly the seeded construction"
    );

    train_into(&dir);
    // NotFound was not memoized: the same registry now hydrates.
    let hydrated = KIND.build_from_store(SCALE, &registry, 5).unwrap();
    assert_ne!(
        hydrated.upscale(&image).unwrap(),
        seeded.upscale(&image).unwrap(),
        "after training, hydration must serve the stored weights"
    );
    std::fs::remove_dir_all(&dir).ok();
}
