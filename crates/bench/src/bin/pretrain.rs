//! Populate a trained-weight artifact store: the *train once* entry point of
//! the train-once / deploy-many workflow.
//!
//! ```text
//! cargo run --release -p sesr-bench --bin pretrain -- <store-dir> [options]
//!
//!   --list                   list every stored artifact (model ids, scales,
//!                            full version history) and exit without training
//!   --kinds a,b,c            SR kinds to train; "none" skips SR (default:
//!                            sesr-m2, or none when --classifiers is given)
//!                            (sesr-m2|sesr-m3|sesr-m5|sesr-xl|fsrcnn|edsr|edsr-base)
//!   --epochs N               SR training epochs           (default 8)
//!   --train-size N           SR training pairs            (default 48)
//!   --val-size N             SR validation pairs          (default 12)
//!   --hr-size N              HR patch size                (default 32)
//!   --classifiers a,b        classifier kinds to train    (default: none)
//!                            (mobilenet-v2|resnet-50|inception-v3)
//!   --classes N              classifier class count       (default 3)
//!   --classifier-epochs N    classifier training epochs   (default 6)
//!   --seed N                 master seed                  (default 0)
//! ```
//!
//! Every trained model lands in the store as a content-addressed, versioned
//! artifact; `sesr-serve` then hydrates whole worker pools from the same
//! directory (see `examples/train_and_serve.rs`).

#![forbid(unsafe_code)]

use sesr_bench::cli::Cli;
use sesr_classifiers::{ClassifierKind, ClassifierTrainer, ClassifierTrainingConfig};
use sesr_datagen::{ClassificationDataset, DatasetConfig, SrDataset, SrDatasetConfig};
use sesr_models::trainer::{SrLoss, SrTrainer, SrTrainingConfig};
use sesr_models::SrModelKind;
use sesr_store::ModelStore;
use std::process::exit;

struct Args {
    store_dir: String,
    list: bool,
    kinds: Option<Vec<SrModelKind>>,
    epochs: usize,
    train_size: usize,
    val_size: usize,
    hr_size: usize,
    classifiers: Vec<ClassifierKind>,
    classes: usize,
    classifier_epochs: usize,
    seed: u64,
}

const USAGE: &str =
    "usage: pretrain <store-dir> [--list] [--kinds a,b] [--epochs N] [--train-size N] \
     [--val-size N] [--hr-size N] [--classifiers a,b] [--classes N] \
     [--classifier-epochs N] [--seed N]";

/// A trainable SR kind: any zoo name/slug the registry parses, minus the
/// interpolation baselines (which have no weights to train or store).
fn parse_sr_kind(name: &str) -> Option<SrModelKind> {
    SrModelKind::parse(name).filter(SrModelKind::is_learned)
}

fn parse_classifier_kind(name: &str) -> Option<ClassifierKind> {
    match name {
        "mobilenet-v2" => Some(ClassifierKind::MobileNetV2),
        "resnet-50" => Some(ClassifierKind::ResNet50),
        "inception-v3" => Some(ClassifierKind::InceptionV3),
        _ => None,
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        store_dir: String::new(),
        list: false,
        kinds: None,
        epochs: 8,
        train_size: 48,
        val_size: 12,
        hr_size: 32,
        classifiers: Vec::new(),
        classes: 3,
        classifier_epochs: 6,
        seed: 0,
    };
    let mut cli = Cli::from_env(USAGE);
    match cli.next_arg() {
        Some(store_dir) if !store_dir.starts_with("--") => args.store_dir = store_dir,
        _ => cli.fail("the first argument must be <store-dir>"),
    }
    let integer = "an integer";
    while let Some(flag) = cli.next_arg() {
        match flag.as_str() {
            "--list" => args.list = true,
            "--kinds" => {
                args.kinds = Some(
                    cli.value(&flag)
                        .split(',')
                        .filter(|name| !name.is_empty() && *name != "none")
                        .map(|name| {
                            parse_sr_kind(name)
                                .unwrap_or_else(|| cli.fail(&format!("unknown SR kind {name:?}")))
                        })
                        .collect(),
                );
            }
            "--classifiers" => {
                args.classifiers = cli
                    .value(&flag)
                    .split(',')
                    .map(|name| {
                        parse_classifier_kind(name).unwrap_or_else(|| {
                            cli.fail(&format!("unknown classifier kind {name:?}"))
                        })
                    })
                    .collect();
            }
            "--epochs" => args.epochs = cli.parsed(&flag, integer),
            "--train-size" => args.train_size = cli.parsed(&flag, integer),
            "--val-size" => args.val_size = cli.parsed(&flag, integer),
            "--hr-size" => args.hr_size = cli.parsed(&flag, integer),
            "--classes" => args.classes = cli.parsed(&flag, integer),
            "--classifier-epochs" => args.classifier_epochs = cli.parsed(&flag, integer),
            "--seed" => args.seed = cli.parsed(&flag, integer),
            _ => cli.unknown(&flag),
        }
    }
    args
}

/// `--list`: enumerate every stored model with its full version history,
/// via the store's `list_model_ids`/`list_versions` helpers (the same
/// enumeration the serving gateway uses to declare routes).
fn list_store(store: &ModelStore) {
    let model_ids = store.list_model_ids().unwrap_or_else(|err| {
        eprintln!("cannot list store: {err}");
        exit(1);
    });
    if model_ids.is_empty() {
        println!("store is empty");
        return;
    }
    let artifacts = store.list().unwrap_or_else(|err| {
        eprintln!("cannot list store: {err}");
        exit(1);
    });
    println!("{} model(s) stored:", model_ids.len());
    for model_id in &model_ids {
        let servable = SrModelKind::parse(model_id).map_or("", |_| " [SR route]");
        println!("  {model_id}{servable}");
        let mut scales: Vec<usize> = artifacts
            .iter()
            .filter(|a| &a.model_id == model_id)
            .map(|a| a.scale)
            .collect();
        scales.dedup();
        for scale in scales {
            let versions = store.list_versions(model_id, scale).unwrap_or_else(|err| {
                eprintln!("cannot list versions: {err}");
                exit(1);
            });
            // list_versions sorts ascending by (version, digest), so the last
            // entry is exactly what resolve() hydrates — including the
            // digest tie-break between concurrent same-version saves.
            for (index, artifact) in versions.iter().enumerate() {
                let newest = if index + 1 == versions.len() {
                    "  <- newest"
                } else {
                    ""
                };
                println!(
                    "    x{} v{:04} {:016x}{newest}",
                    artifact.scale, artifact.version, artifact.digest
                );
            }
        }
    }
}

fn main() {
    let args = parse_args();
    // With no --kinds flag, default to SESR-M2 — unless the invocation is
    // classifier-only, in which case no SR model is trained.
    let kinds = args.kinds.clone().unwrap_or_else(|| {
        if args.classifiers.is_empty() {
            vec![SrModelKind::SesrM2]
        } else {
            Vec::new()
        }
    });
    let store = match ModelStore::open(&args.store_dir) {
        Ok(store) => store,
        Err(err) => {
            eprintln!("cannot open store: {err}");
            exit(1);
        }
    };
    println!("store: {}", store.root().display());

    if args.list {
        list_store(&store);
        return;
    }

    if !kinds.is_empty() {
        let dataset = SrDataset::generate(SrDatasetConfig {
            train_size: args.train_size,
            val_size: args.val_size,
            hr_size: args.hr_size,
            scale: 2,
            seed: args.seed.wrapping_add(17),
        })
        .unwrap_or_else(|err| {
            eprintln!("dataset generation failed: {err}");
            exit(1);
        });
        let trainer = SrTrainer::new(SrTrainingConfig {
            epochs: args.epochs,
            batch_size: 4,
            learning_rate: 1e-3,
            loss: SrLoss::Mae,
        });
        for kind in &kinds {
            let seed = args.seed.wrapping_add(1000 + *kind as u64);
            match trainer.train_and_save(*kind, &dataset, &store, seed) {
                Ok((report, artifact)) => println!(
                    "  {kind}: val PSNR {:.2} dB (bicubic floor {:.2} dB) -> {} (v{}, \
                     digest {:016x})",
                    report.val_psnr,
                    report.bicubic_psnr,
                    artifact.path.display(),
                    artifact.version,
                    artifact.digest
                ),
                Err(err) => {
                    eprintln!("  {kind}: training failed: {err}");
                    exit(1);
                }
            }
        }
    }

    if !args.classifiers.is_empty() {
        let dataset = ClassificationDataset::generate(DatasetConfig {
            num_classes: args.classes,
            train_size: args.train_size,
            val_size: args.val_size.max(args.classes),
            height: args.hr_size,
            width: args.hr_size,
            seed: args.seed,
        })
        .unwrap_or_else(|err| {
            eprintln!("classification dataset generation failed: {err}");
            exit(1);
        });
        let trainer = ClassifierTrainer::new(ClassifierTrainingConfig {
            epochs: args.classifier_epochs,
            batch_size: 12,
            learning_rate: 3e-3,
        });
        for kind in &args.classifiers {
            let seed = args.seed.wrapping_add(3000 + *kind as u64);
            match trainer.train_and_save(*kind, &dataset, &store, seed) {
                Ok((report, artifact)) => println!(
                    "  {kind}: val accuracy {:.2} -> {} (v{}, digest {:016x})",
                    report.val_accuracy,
                    artifact.path.display(),
                    artifact.version,
                    artifact.digest
                ),
                Err(err) => {
                    eprintln!("  {kind}: training failed: {err}");
                    exit(1);
                }
            }
        }
    }

    match store.list() {
        Ok(artifacts) => {
            println!("store now holds {} artifact(s):", artifacts.len());
            for artifact in artifacts {
                println!(
                    "  {} x{} v{} {:016x}",
                    artifact.model_id, artifact.scale, artifact.version, artifact.digest
                );
            }
        }
        Err(err) => {
            eprintln!("cannot list store: {err}");
            exit(1);
        }
    }
}
