//! The shared experiment configuration.
//!
//! An [`ExperimentConfig`] sizes the datasets, training runs and grids of an
//! experiment. The paper's tables are [`EvalPlan`](crate::eval::EvalPlan)s
//! (`EvalPlan::table1`..`table4`); run them against a persistent
//! [`ModelBank`](crate::eval::ModelBank), which trains every model the plan
//! needs exactly once:
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

use sesr_attacks::{AttackConfig, AttackKind};
use sesr_classifiers::ClassifierKind;
use sesr_models::SrModelKind;

/// Sizes and hyperparameters shared by every scenario of a plan.
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
    /// Maximum number of evaluation images per classifier; may not exceed
    /// `val_size`, the pool they are drawn from.
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
}
