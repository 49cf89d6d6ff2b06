//! The train-once model provider backing every plan run.

// lint: allow-file(atomic-ordering): train-count/ephemeral-id counters; all Relaxed, no data guarded

use crate::eval::scenario::DefenseSpec;
use crate::experiments::ExperimentConfig;
use crate::pipeline::DefensePipeline;
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_classifiers::{ClassifierKind, ClassifierTrainer, ClassifierTrainingConfig};
use sesr_datagen::{ClassificationDataset, DatasetConfig, SrDataset, SrDatasetConfig};
use sesr_models::trainer::{SrLoss, SrTrainer, SrTrainingConfig};
use sesr_models::SrModelKind;
use sesr_nn::Layer;
use sesr_store::{fnv1a64, Checkpoint, ModelRegistry, ModelStore};
use sesr_tensor::TensorError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lifetime training counters of a [`ModelBank`]; the proof object for
/// train-once semantics (a warm-store re-run reports all zeros).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainCounts {
    /// Number of SR training runs the bank performed.
    pub sr_models: u64,
    /// Number of classifier training runs the bank performed.
    pub classifiers: u64,
}

impl TrainCounts {
    /// Total training runs.
    pub fn total(&self) -> u64 {
        self.sr_models + self.classifiers
    }
}

/// Store-backed provider of every trained model an evaluation plan needs.
///
/// All model access funnels through `sesr-store`: the bank derives a
/// config-digested artifact identity per `(kind, ExperimentConfig)` pair,
/// hydrates it through a memoizing [`ModelRegistry`], and trains **only** on
/// [`NotFound`](sesr_store::StoreError::NotFound) — at most once per pair,
/// even under concurrent scenarios (the registry serialises producers per
/// pair). Identical experiment configs therefore share trained weights
/// across scenarios, across plans and across processes, while a changed
/// config (different epochs, dataset size, seed, …) gets a fresh identity
/// and never silently reuses stale weights.
///
/// Training uses exactly the seed derivations of the reference drivers in
/// `tests/eval_shim_parity.rs`, which holds plan-based tables to those
/// numbers bit for bit.
pub struct ModelBank {
    registry: ModelRegistry,
    config: ExperimentConfig,
    sr_trainings: AtomicU64,
    classifier_trainings: AtomicU64,
    sr_dataset: Mutex<Option<Arc<SrDataset>>>,
    classification_dataset: Mutex<Option<Arc<ClassificationDataset>>>,
    /// Set only by [`ModelBank::ephemeral`]; removed on drop.
    owned_root: Option<PathBuf>,
}

static EPHEMERAL_COUNTER: AtomicU64 = AtomicU64::new(0);

impl ModelBank {
    /// Wrap an existing store.
    pub fn new(store: ModelStore, config: ExperimentConfig) -> Self {
        ModelBank {
            registry: ModelRegistry::new(store),
            config,
            sr_trainings: AtomicU64::new(0),
            classifier_trainings: AtomicU64::new(0),
            sr_dataset: Mutex::new(None),
            classification_dataset: Mutex::new(None),
            owned_root: None,
        }
    }

    /// Open (or create) the store rooted at `root` and wrap it.
    ///
    /// # Errors
    ///
    /// Returns an error if the store root cannot be created.
    pub fn open(root: impl Into<PathBuf>, config: ExperimentConfig) -> Result<Self> {
        let store = ModelStore::open(root).map_err(TensorError::from)?;
        Ok(ModelBank::new(store, config))
    }

    /// A bank over a fresh process-unique temporary store, removed when the
    /// bank is dropped — for tests and one-shot runs that must train from
    /// scratch rather than reuse a store.
    ///
    /// # Errors
    ///
    /// Returns an error if the temporary directory cannot be created.
    pub fn ephemeral(config: ExperimentConfig) -> Result<Self> {
        let root = std::env::temp_dir().join(format!(
            "sesr_eval_bank_{}_{}",
            std::process::id(),
            EPHEMERAL_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut bank = ModelBank::open(&root, config)?;
        bank.owned_root = Some(root);
        Ok(bank)
    }

    /// The experiment configuration every scenario of the plan shares.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The underlying memoizing registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The underlying artifact store.
    pub fn store(&self) -> &ModelStore {
        self.registry.store()
    }

    /// How many training runs this bank has performed so far.
    pub fn train_counts(&self) -> TrainCounts {
        TrainCounts {
            sr_models: self.sr_trainings.load(Ordering::Relaxed),
            classifiers: self.classifier_trainings.load(Ordering::Relaxed),
        }
    }

    /// The shared synthetic SR dataset (generated once, memoized).
    ///
    /// # Errors
    ///
    /// Returns an error if dataset generation fails.
    pub fn sr_dataset(&self) -> Result<Arc<SrDataset>> {
        let mut slot = self.sr_dataset.lock().expect("sr dataset mutex poisoned");
        if let Some(dataset) = slot.as_ref() {
            return Ok(Arc::clone(dataset));
        }
        let dataset = Arc::new(SrDataset::generate(SrDatasetConfig {
            train_size: self.config.sr_train_size,
            val_size: self.config.sr_val_size,
            hr_size: self.config.sr_hr_size,
            scale: 2,
            seed: self.config.seed.wrapping_add(17),
        })?);
        *slot = Some(Arc::clone(&dataset));
        Ok(dataset)
    }

    /// The shared synthetic classification dataset (generated once,
    /// memoized).
    ///
    /// # Errors
    ///
    /// Returns an error if dataset generation fails.
    pub fn classification_dataset(&self) -> Result<Arc<ClassificationDataset>> {
        let mut slot = self
            .classification_dataset
            .lock()
            .expect("classification dataset mutex poisoned");
        if let Some(dataset) = slot.as_ref() {
            return Ok(Arc::clone(dataset));
        }
        let dataset = Arc::new(ClassificationDataset::generate(DatasetConfig {
            num_classes: self.config.num_classes,
            train_size: self.config.train_size,
            val_size: self.config.val_size,
            height: self.config.image_size,
            width: self.config.image_size,
            seed: self.config.seed,
        })?);
        *slot = Some(Arc::clone(&dataset));
        Ok(dataset)
    }

    fn sr_trainer(&self) -> SrTrainer {
        SrTrainer::new(SrTrainingConfig {
            epochs: self.config.sr_epochs,
            batch_size: 4,
            learning_rate: 1e-3,
            loss: SrLoss::Mae,
        })
    }

    fn classifier_trainer(&self) -> ClassifierTrainer {
        ClassifierTrainer::new(ClassifierTrainingConfig {
            epochs: self.config.classifier_epochs,
            batch_size: 12,
            learning_rate: 3e-3,
        })
    }

    /// Digest of everything that shapes SR training under this config.
    fn sr_config_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(48);
        for field in [
            self.config.sr_train_size as u64,
            self.config.sr_val_size as u64,
            self.config.sr_hr_size as u64,
            self.config.sr_epochs as u64,
            self.config.seed,
            self.sr_trainer().config().digest(),
        ] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        fnv1a64(&bytes)
    }

    /// Digest of everything that shapes classifier training under this
    /// config.
    fn classifier_config_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(56);
        for field in [
            self.config.num_classes as u64,
            self.config.train_size as u64,
            self.config.val_size as u64,
            self.config.image_size as u64,
            self.config.classifier_epochs as u64,
            self.config.seed,
            self.classifier_trainer().config().digest(),
        ] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        fnv1a64(&bytes)
    }

    /// The store identity of `kind`'s trained weights under this experiment
    /// configuration. The config digest is part of the identity, so a warm
    /// store only satisfies plans that would train the exact same weights.
    pub fn sr_model_id(&self, kind: SrModelKind) -> String {
        format!("eval-{}-{:016x}", kind.slug(), self.sr_config_digest())
    }

    /// The store identity of `kind`'s trained classifier under this
    /// experiment configuration.
    pub fn classifier_model_id(&self, kind: ClassifierKind) -> String {
        format!(
            "eval-{}-{:016x}",
            kind.slug(),
            self.classifier_config_digest()
        )
    }

    fn train_sr_checkpoint(&self, kind: SrModelKind) -> Result<Checkpoint> {
        let dataset = self.sr_dataset()?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(1000 + kind as u64));
        let mut network = kind
            .build_local_network(&mut rng)
            .ok_or_else(|| TensorError::invalid_argument("learned kind must build a network"))?;
        let trainer = self.sr_trainer();
        trainer.train(network.as_mut(), &dataset)?;
        self.sr_trainings.fetch_add(1, Ordering::Relaxed);
        Ok(Checkpoint::from_layer(
            self.sr_model_id(kind),
            2,
            trainer.config().digest(),
            network.as_ref(),
        ))
    }

    fn train_classifier_checkpoint(&self, kind: ClassifierKind) -> Result<Checkpoint> {
        let dataset = self.classification_dataset()?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(3000 + kind as u64));
        let mut network = kind.build_local(self.config.num_classes, &mut rng);
        let trainer = self.classifier_trainer();
        trainer.train(network.as_mut(), &dataset)?;
        self.classifier_trainings.fetch_add(1, Ordering::Relaxed);
        Ok(Checkpoint::from_layer(
            self.classifier_model_id(kind),
            1,
            trainer.config().digest(),
            network.as_ref(),
        ))
    }

    /// The trained ×2 checkpoint of a learned SR `kind`: hydrated from the
    /// store, trained first (exactly once bank-wide) when the store is cold.
    ///
    /// # Errors
    ///
    /// Returns an error if `kind` is an interpolation baseline, or if
    /// training/hydration fails.
    pub fn sr_checkpoint(&self, kind: SrModelKind) -> Result<Arc<Checkpoint>> {
        if !kind.is_learned() {
            return Err(TensorError::invalid_argument(format!(
                "{kind} is an interpolation baseline and has no trained network"
            )));
        }
        let model_id = self.sr_model_id(kind);
        let (checkpoint, _trained) =
            self.registry
                .hydrate_or_insert::<TensorError>(&model_id, 2, || {
                    self.train_sr_checkpoint(kind)
                })?;
        Ok(checkpoint)
    }

    /// A trained SR network for a learned `kind`, built from
    /// [`ModelBank::sr_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns an error if `kind` is an interpolation baseline, or if
    /// training/hydration fails.
    pub fn sr_network(&self, kind: SrModelKind) -> Result<Box<dyn Layer>> {
        let checkpoint = self.sr_checkpoint(kind)?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(2000 + kind as u64));
        let mut network = kind
            .build_local_network(&mut rng)
            .ok_or_else(|| TensorError::invalid_argument("learned kind must build a network"))?;
        checkpoint
            .apply_to(network.as_mut())
            .map_err(TensorError::from)?;
        Ok(network)
    }

    /// A defense pipeline for `spec`: `Ok(None)` for the no-defense spec,
    /// interpolation built directly, learned models hydrated/trained through
    /// the store and deployed through `SrModelKind::wrap_network` — the
    /// robustness rows attack and measure the network that ships (SESR
    /// collapsed), not the training form [`ModelBank::sr_network`] returns.
    ///
    /// Every call builds an independent pipeline (share-nothing), so
    /// parallel scenarios and per-worker serving assets never contend.
    ///
    /// # Errors
    ///
    /// Returns an error if a learned model is requested at a scale other
    /// than ×2, or if training/hydration fails.
    pub fn defense(&self, spec: &DefenseSpec) -> Result<Option<DefensePipeline>> {
        let Some(kind) = spec.model else {
            return Ok(None);
        };
        if let Some(upscaler) = kind.build_interpolation(spec.scale) {
            return Ok(Some(DefensePipeline::new(spec.preprocess, upscaler)));
        }
        if spec.scale != 2 {
            return Err(TensorError::invalid_argument(format!(
                "learned local SR networks are x2-only, requested x{}",
                spec.scale
            )));
        }
        let network = self.sr_network(kind)?;
        Ok(Some(DefensePipeline::new(
            spec.preprocess,
            kind.wrap_network(2, network)?,
        )))
    }

    /// A trained classifier for `kind`: hydrated from the store, trained
    /// first (exactly once bank-wide) when the store is cold. Each call
    /// returns an independent instance.
    ///
    /// # Errors
    ///
    /// Returns an error if training or hydration fails.
    pub fn classifier(&self, kind: ClassifierKind) -> Result<Box<dyn Layer>> {
        let model_id = self.classifier_model_id(kind);
        let (checkpoint, _trained) =
            self.registry
                .hydrate_or_insert::<TensorError>(&model_id, 1, || {
                    self.train_classifier_checkpoint(kind)
                })?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(3000 + kind as u64));
        let mut network = kind.build_local(self.config.num_classes, &mut rng);
        checkpoint
            .apply_to(network.as_mut())
            .map_err(TensorError::from)?;
        Ok(network)
    }
}

impl Drop for ModelBank {
    fn drop(&mut self) {
        if let Some(root) = &self.owned_root {
            std::fs::remove_dir_all(root).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PreprocessConfig;

    fn tiny_config() -> ExperimentConfig {
        let mut config = ExperimentConfig::quick();
        config.sr_epochs = 1;
        config.classifier_epochs = 1;
        config.sr_train_size = 4;
        config.sr_val_size = 2;
        config.train_size = 12;
        config.val_size = 6;
        config
    }

    #[test]
    fn model_ids_separate_configs_and_kinds() {
        let bank = ModelBank::ephemeral(tiny_config()).unwrap();
        let mut other_config = tiny_config();
        other_config.sr_epochs += 1;
        other_config.classifier_epochs += 1;
        let other = ModelBank::ephemeral(other_config).unwrap();
        assert_ne!(
            bank.sr_model_id(SrModelKind::SesrM2),
            bank.sr_model_id(SrModelKind::SesrM3)
        );
        assert_ne!(
            bank.sr_model_id(SrModelKind::SesrM2),
            other.sr_model_id(SrModelKind::SesrM2),
            "a changed training config must change the artifact identity"
        );
        assert_ne!(
            bank.classifier_model_id(ClassifierKind::MobileNetV2),
            other.classifier_model_id(ClassifierKind::MobileNetV2)
        );
    }

    #[test]
    fn sr_network_trains_once_and_is_deterministic() {
        let bank = ModelBank::ephemeral(tiny_config()).unwrap();
        assert_eq!(bank.train_counts().total(), 0);
        let a = bank.sr_network(SrModelKind::SesrM2).unwrap();
        assert_eq!(bank.train_counts().sr_models, 1);
        let b = bank.sr_network(SrModelKind::SesrM2).unwrap();
        assert_eq!(
            bank.train_counts().sr_models,
            1,
            "second build must hydrate"
        );
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.value, pb.value);
        }
        assert!(bank.sr_network(SrModelKind::Bicubic).is_err());
    }

    #[test]
    fn defense_covers_every_spec_shape() {
        let bank = ModelBank::ephemeral(tiny_config()).unwrap();
        assert!(bank.defense(&DefenseSpec::none()).unwrap().is_none());
        let nearest = bank
            .defense(&DefenseSpec::new(
                SrModelKind::NearestNeighbor,
                3,
                PreprocessConfig::none(),
            ))
            .unwrap()
            .unwrap();
        assert_eq!(nearest.scale(), 3, "interpolation defenses honour scale");
        assert!(
            bank.defense(&DefenseSpec::new(
                SrModelKind::SesrM2,
                3,
                PreprocessConfig::paper()
            ))
            .is_err(),
            "learned kinds are x2-only"
        );
        let learned = bank
            .defense(&DefenseSpec::paper(SrModelKind::SesrM2))
            .unwrap()
            .unwrap();
        assert_eq!(learned.upscaler_name(), "SESR-M2");
        assert_eq!(bank.train_counts().sr_models, 1);
    }

    #[test]
    fn classifier_hydration_matches_trained_instance() {
        use sesr_datagen::ClassificationDataset;
        let bank = ModelBank::ephemeral(tiny_config()).unwrap();
        let mut first = bank.classifier(ClassifierKind::MobileNetV2).unwrap();
        assert_eq!(bank.train_counts().classifiers, 1);
        let mut second = bank.classifier(ClassifierKind::MobileNetV2).unwrap();
        assert_eq!(bank.train_counts().classifiers, 1);
        let dataset: Arc<ClassificationDataset> = bank.classification_dataset().unwrap();
        let image = &dataset.val_images()[0];
        assert_eq!(
            first.forward(image, false).unwrap(),
            second.forward(image, false).unwrap(),
            "hydrated instances must agree bit for bit (params and buffers)"
        );
    }

    #[test]
    fn ephemeral_root_is_removed_on_drop() {
        let bank = ModelBank::ephemeral(tiny_config()).unwrap();
        let root = bank.store().root().to_path_buf();
        assert!(root.exists());
        drop(bank);
        assert!(!root.exists());
    }
}
