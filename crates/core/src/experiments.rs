//! The shared experiment configuration and the in-memory SR training
//! helpers behind the quickstart examples.
//!
//! The paper's tables are [`EvalPlan`](crate::eval::EvalPlan)s
//! (`EvalPlan::table1`..`table4`); run them against a persistent
//! [`ModelBank`](crate::eval::ModelBank) so training happens once:
//!
//! ```no_run
//! use sesr_defense::eval::{EvalPlan, ModelBank};
//! use sesr_defense::experiments::ExperimentConfig;
//!
//! let config = ExperimentConfig::quick();
//! let bank = ModelBank::open("eval-store", config.clone())?;
//! let report = EvalPlan::table2(&config).run(&bank)?;
//! assert!(report.ok());
//! # Ok::<(), sesr_tensor::TensorError>(())
//! ```

use crate::pipeline::{DefensePipeline, PreprocessConfig};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_attacks::{AttackConfig, AttackKind};
use sesr_classifiers::ClassifierKind;
use sesr_datagen::{SrDataset, SrDatasetConfig};
use sesr_models::trainer::{evaluate_network_psnr, SrLoss, SrTrainer, SrTrainingConfig};
use sesr_models::SrModelKind;
use sesr_nn::Layer;
use sesr_tensor::{Tensor, TensorError};

/// Sizes and hyperparameters shared by the experiment drivers.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of synthetic classes.
    pub num_classes: usize,
    /// Classification training-set size.
    pub train_size: usize,
    /// Classification validation-set size (the pool the clean-correct
    /// evaluation subset is drawn from).
    pub val_size: usize,
    /// Classification image size (square).
    pub image_size: usize,
    /// SR training-pair count.
    pub sr_train_size: usize,
    /// SR validation-pair count.
    pub sr_val_size: usize,
    /// SR HR patch size (square).
    pub sr_hr_size: usize,
    /// Classifier training epochs.
    pub classifier_epochs: usize,
    /// SR training epochs.
    pub sr_epochs: usize,
    /// Maximum number of evaluation images per classifier.
    pub eval_images: usize,
    /// Attack configuration (ε, steps).
    pub attack: AttackConfig,
    /// Attacks to evaluate (Table II columns).
    pub attacks: Vec<AttackKind>,
    /// SR models to evaluate (Table I / II rows).
    pub sr_kinds: Vec<SrModelKind>,
    /// Classifiers to evaluate (Table II sections).
    pub classifiers: Vec<ClassifierKind>,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A minutes-scale configuration used by tests and the quickstart example.
    pub fn quick() -> Self {
        ExperimentConfig {
            num_classes: 3,
            train_size: 36,
            val_size: 18,
            image_size: 16,
            sr_train_size: 10,
            sr_val_size: 4,
            sr_hr_size: 16,
            classifier_epochs: 6,
            sr_epochs: 4,
            eval_images: 5,
            attack: AttackConfig::paper().with_steps(3),
            attacks: vec![AttackKind::Fgsm],
            sr_kinds: vec![SrModelKind::NearestNeighbor, SrModelKind::SesrM2],
            classifiers: vec![ClassifierKind::MobileNetV2],
            seed: 0,
        }
    }

    /// The configuration used by the benchmark harness: every classifier,
    /// every attack and every SR model from the paper, at a scale that runs
    /// in tens of minutes on a laptop.
    pub fn full() -> Self {
        ExperimentConfig {
            num_classes: 6,
            train_size: 240,
            val_size: 90,
            image_size: 32,
            sr_train_size: 48,
            sr_val_size: 12,
            sr_hr_size: 32,
            classifier_epochs: 12,
            sr_epochs: 10,
            eval_images: 25,
            attack: AttackConfig::paper(),
            attacks: AttackKind::all(),
            sr_kinds: SrModelKind::all().to_vec(),
            classifiers: ClassifierKind::all(),
            seed: 0,
        }
    }
}

/// A trained SR model paired with its kind, ready to be cloned into defenses.
pub struct TrainedSrModel {
    /// Which zoo entry this is.
    pub kind: SrModelKind,
    /// The trained network (training-time form for SESR).
    pub network: Box<dyn Layer>,
    /// Validation PSNR achieved on the synthetic set.
    pub val_psnr: f32,
}

/// Copy parameter values and non-learnable buffers from one network into
/// another with an identical architecture (used to hand trained SR weights
/// to per-thread defenses).
///
/// # Errors
///
/// Returns an error if the parameter/buffer lists differ in length or shape.
pub fn copy_weights(source: &dyn Layer, target: &mut dyn Layer) -> Result<()> {
    let mut tensors: Vec<&Tensor> = source.params().iter().map(|p| &p.value).collect();
    tensors.extend(source.buffers());
    let num_params = target.params().len();
    let num_buffers = target.buffers().len();
    if num_params + num_buffers != tensors.len() {
        return Err(TensorError::invalid_argument(format!(
            "cannot copy weights: {} source tensors vs {num_params} target parameters + \
             {num_buffers} buffers",
            tensors.len(),
        )));
    }
    // Check every shape before writing anything, so a mismatch leaves the
    // target untouched.
    let target_params = target.params();
    let current = target_params.iter().map(|p| &p.value);
    for (have, new) in current.chain(target.buffers()).zip(&tensors) {
        if have.shape() != new.shape() {
            return Err(TensorError::ShapeMismatch {
                left: have.shape().dims().to_vec(),
                right: new.shape().dims().to_vec(),
            });
        }
    }
    let (param_tensors, buffer_tensors) = tensors.split_at(num_params);
    for (param, tensor) in target.params_mut().iter_mut().zip(param_tensors) {
        param.value = (*tensor).clone();
    }
    for (buffer, tensor) in target.buffers_mut().iter_mut().zip(buffer_tensors) {
        **buffer = (*tensor).clone();
    }
    Ok(())
}

/// Train every learned SR model in the config on a shared synthetic dataset.
///
/// This is the in-memory training path used by the quickstart examples; plan
/// runs train through [`ModelBank`](crate::eval::ModelBank) instead, which
/// persists and reuses the weights.
///
/// # Errors
///
/// Returns an error if dataset generation or training fails.
pub fn train_sr_models(config: &ExperimentConfig) -> Result<Vec<TrainedSrModel>> {
    let dataset = SrDataset::generate(SrDatasetConfig {
        train_size: config.sr_train_size,
        val_size: config.sr_val_size,
        hr_size: config.sr_hr_size,
        scale: 2,
        seed: config.seed.wrapping_add(17),
    })?;
    let trainer = SrTrainer::new(SrTrainingConfig {
        epochs: config.sr_epochs,
        batch_size: 4,
        learning_rate: 1e-3,
        loss: SrLoss::Mae,
    });
    let mut out = Vec::new();
    for kind in config.sr_kinds.iter().filter(|k| k.is_learned()) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1000 + *kind as u64));
        let mut network = kind
            .build_local_network(&mut rng)
            .ok_or_else(|| TensorError::invalid_argument("learned kind must build a network"))?;
        trainer.train(network.as_mut(), &dataset)?;
        let val_psnr = evaluate_network_psnr(network.as_mut(), &dataset)?;
        out.push(TrainedSrModel {
            kind: *kind,
            network,
            val_psnr,
        });
    }
    Ok(out)
}

/// Build a defense pipeline for `kind`, cloning trained weights when the kind
/// is a learned model; the clone is deployed through
/// [`SrModelKind::wrap_network`], so a SESR pipeline runs the collapsed
/// network while `trained` keeps the trainable one.
///
/// # Errors
///
/// Returns an error if `kind` is learned but absent from `trained`.
pub fn build_defense(
    kind: SrModelKind,
    preprocess: PreprocessConfig,
    trained: &[TrainedSrModel],
    seed: u64,
) -> Result<DefensePipeline> {
    if let Some(upscaler) = kind.build_interpolation(2) {
        return Ok(DefensePipeline::new(preprocess, upscaler));
    }
    let source = trained
        .iter()
        .find(|m| m.kind == kind)
        .ok_or_else(|| TensorError::invalid_argument(format!("{kind} has not been trained")))?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2000 + kind as u64));
    let mut network = kind
        .build_local_network(&mut rng)
        .ok_or_else(|| TensorError::invalid_argument("learned kind must build a network"))?;
    copy_weights(source.network.as_ref(), network.as_mut())?;
    Ok(DefensePipeline::new(
        preprocess,
        kind.wrap_network(2, network)?,
    ))
}

/// The SR models reported in Table IV, in the paper's row order.
pub fn table4_sr_models() -> Vec<SrModelKind> {
    vec![
        SrModelKind::Fsrcnn,
        SrModelKind::SesrM5,
        SrModelKind::SesrM3,
        SrModelKind::SesrM2,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{EvalPlan, ModelBank};
    use sesr_npu::NpuConfig;

    #[test]
    fn copy_weights_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let source = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
        let mut rng2 = StdRng::seed_from_u64(99);
        let mut target = SrModelKind::SesrM2.build_local_network(&mut rng2).unwrap();
        assert_ne!(
            source.params()[0].value,
            target.params()[0].value,
            "different seeds should differ before copying"
        );
        copy_weights(source.as_ref(), target.as_mut()).unwrap();
        assert_eq!(source.params().len(), target.params().len());
        for (a, b) in source.params().iter().zip(target.params()) {
            assert!(a.value.max_abs_diff(&b.value).unwrap() < 1e-6);
        }
    }

    #[test]
    fn copy_weights_rejects_architecture_mismatch() {
        let mut rng = StdRng::seed_from_u64(0);
        let source = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
        let mut target = SrModelKind::SesrM3.build_local_network(&mut rng).unwrap();
        assert!(copy_weights(source.as_ref(), target.as_mut()).is_err());
    }

    #[test]
    fn copy_weights_carries_batchnorm_buffers() {
        let mut rng = StdRng::seed_from_u64(0);
        let source = ClassifierKind::MobileNetV2.build_local(3, &mut rng);
        let mut target = ClassifierKind::MobileNetV2.build_local(3, &mut rng);
        assert!(
            !source.buffers().is_empty(),
            "MobileNet-V2 has batch-norm buffers"
        );
        copy_weights(source.as_ref(), target.as_mut()).unwrap();
        for (a, b) in source.buffers().iter().zip(target.buffers()) {
            assert_eq!(*a, b);
        }
    }

    #[test]
    fn table4_is_analytic_and_ordered() {
        // Table IV is analytic: no training, so the ephemeral store stays empty.
        let bank = ModelBank::ephemeral(ExperimentConfig::quick()).unwrap();
        let report = EvalPlan::table4(&NpuConfig::ethos_u55_256())
            .run(&bank)
            .unwrap();
        assert!(report.ok());
        assert_eq!(bank.train_counts().total(), 0);
        let rows: Vec<_> = report.records().collect();
        assert_eq!(rows.len(), 4);
        let ms = |row: usize, key: &str| rows[row].get_float(key).unwrap();
        // Classification latency is the same for every row (same enlarged classifier).
        for row in 0..rows.len() {
            assert!((ms(row, "classification_ms") - ms(0, "classification_ms")).abs() < 1e-9);
            let stages = ms(row, "sr_ms") + ms(row, "classification_ms");
            assert!((ms(row, "total_ms") - stages).abs() < 1e-9);
        }
        // FSRCNN is the slowest, SESR-M2 the fastest (Table IV ordering).
        assert_eq!(rows[0].get_text("sr_model"), Some("FSRCNN"));
        assert_eq!(rows[3].get_text("sr_model"), Some("SESR-M2"));
        assert!(ms(0, "total_ms") > ms(3, "total_ms"));
        let fps_ratio = ms(3, "fps") / ms(0, "fps");
        assert!(
            (1.8..6.0).contains(&fps_ratio),
            "FPS ratio {fps_ratio} outside expected band"
        );
    }

    #[test]
    fn build_defense_requires_trained_weights_for_learned_kinds() {
        let err = build_defense(SrModelKind::SesrM2, PreprocessConfig::paper(), &[], 0);
        assert!(err.is_err());
        let ok = build_defense(
            SrModelKind::NearestNeighbor,
            PreprocessConfig::paper(),
            &[],
            0,
        );
        assert!(ok.is_ok());
    }
}
