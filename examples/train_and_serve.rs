//! End-to-end *train once, deploy many*: train a small SESR model (or reuse
//! one already in the store), persist it as a content-addressed artifact, and
//! hydrate a multi-worker `DefenseGateway` route from the store.
//!
//! Run standalone (trains into a temp store on first run):
//!
//! ```text
//! cargo run --release --example train_and_serve
//! ```
//!
//! or against a store populated by the `pretrain` tool, as CI does:
//!
//! ```text
//! cargo run --release -p sesr-bench --bin pretrain -- target/ci-store --kinds sesr-m2
//! cargo run --release --example train_and_serve -- target/ci-store
//! ```
//!
//! The example asserts the two properties that make stored weights worth
//! serving: every hydrated worker computes bitwise-identical defended
//! outputs, and the stored weights beat the seeded-random fallback on a
//! held-out PSNR evaluation.

#![forbid(unsafe_code)]

use sesr_datagen::{SrDataset, SrDatasetConfig};
use sesr_models::trainer::{evaluate_upscaler_psnr, SrLoss, SrTrainer, SrTrainingConfig};
use sesr_models::SrModelKind;
use sesr_serve::{DefenseRequest, GatewayBuilder, RouteConfig, RouteKey, ServeError};
use sesr_store::{ModelRegistry, ModelStore};
use sesr_tensor::{init, Shape, Tensor};

const KIND: SrModelKind = SrModelKind::SesrM2;
const SCALE: usize = 2;
const SEED: u64 = 42;
const NUM_WORKERS: usize = 3;

fn main() -> Result<(), ServeError> {
    let store_dir = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir()
            .join("sesr-train-and-serve-store")
            .to_string_lossy()
            .into_owned()
    });
    let store = ModelStore::open(&store_dir).map_err(|e| ServeError::Pipeline(e.to_string()))?;
    println!("store: {}", store.root().display());

    // ---------------------------------------------------------- train once
    match store.resolve(KIND.name(), SCALE) {
        Ok(artifact) => println!(
            "reusing stored artifact v{} ({:016x}) — run `pretrain` to retrain",
            artifact.version, artifact.digest
        ),
        Err(err) if err.is_not_found() => {
            println!("no stored {KIND} weights yet; training a small model ...");
            let dataset = SrDataset::generate(SrDatasetConfig {
                train_size: 24,
                val_size: 8,
                hr_size: 16,
                scale: SCALE,
                seed: SEED.wrapping_add(17),
            })?;
            let trainer = SrTrainer::new(SrTrainingConfig {
                epochs: 8,
                batch_size: 4,
                learning_rate: 2e-3,
                loss: SrLoss::Mae,
            });
            let (report, artifact) = trainer
                .train_and_save(KIND, &dataset, &store, SEED)
                .map_err(ServeError::from)?;
            println!(
                "trained {KIND}: val PSNR {:.2} dB (bicubic floor {:.2} dB) -> v{}",
                report.val_psnr, report.bicubic_psnr, artifact.version
            );
        }
        Err(err) => return Err(ServeError::Pipeline(err.to_string())),
    }

    // ------------------------------------------- stored weights are better
    // Held-out evaluation: a dataset the training loop never saw (different
    // generator seed). The stored weights must beat the seeded-random
    // fallback that an empty store would serve.
    let heldout = SrDataset::generate(SrDatasetConfig {
        train_size: 1,
        val_size: 10,
        hr_size: 16,
        scale: SCALE,
        seed: 9000,
    })?;
    let registry = ModelRegistry::new(store.clone());
    let hydrated = KIND.build_from_store(SCALE, &registry, SEED)?;
    let random = KIND.build_seeded_upscaler(SCALE, SEED)?;
    let hydrated_psnr = evaluate_upscaler_psnr(hydrated.as_ref(), &heldout)?;
    let random_psnr = evaluate_upscaler_psnr(random.as_ref(), &heldout)?;
    println!(
        "held-out PSNR: stored weights {hydrated_psnr:.2} dB vs seeded-random \
         {random_psnr:.2} dB"
    );
    assert!(
        hydrated_psnr > random_psnr,
        "stored weights ({hydrated_psnr:.2} dB) must beat the random fallback \
         ({random_psnr:.2} dB)"
    );

    // ------------------------------------------------------- deploy many
    // One store-backed route: the gateway resolves the newest artifact once
    // and hydrates every worker of the pool from that validated checkpoint.
    let gateway = GatewayBuilder::new()
        .cache_capacity(0) // every request must exercise a worker
        .seed(SEED)
        .with_store(store)
        .route_with(
            RouteKey::paper(KIND, SCALE),
            RouteConfig {
                num_workers: NUM_WORKERS,
                ..RouteConfig::default()
            },
        )
        .build()?;
    let client = gateway.client();

    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    let image: Tensor = init::uniform(Shape::new(&[1, 3, 16, 16]), 0.0, 1.0, &mut rng);
    let first = client.defend_blocking(DefenseRequest::new(image.clone()))?;
    for _ in 0..3 * NUM_WORKERS {
        let next = client.defend_blocking(DefenseRequest::new(image.clone()))?;
        assert_eq!(
            first.defended, next.defended,
            "all store-hydrated workers must produce bitwise-identical outputs"
        );
    }
    println!(
        "served {} requests across {NUM_WORKERS} store-hydrated workers, all bitwise \
         identical",
        1 + 3 * NUM_WORKERS
    );
    let snapshot = gateway.telemetry_snapshot();
    println!(
        "stats: {} served, {} computed",
        snapshot.counter("gateway.completed").unwrap_or(0),
        snapshot.counter("gateway.computed_images").unwrap_or(0),
    );
    drop(client);
    gateway.shutdown();
    println!("train-and-serve loop complete: artifact stored, pool hydrated, outputs identical");
    Ok(())
}
