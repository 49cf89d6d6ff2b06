//! Plan-parity proof: `EvalPlan::table1` / `EvalPlan::table2`, run against a
//! throw-away [`ModelBank`], must produce **exactly** the numbers of the
//! pre-redesign drivers on the `quick` configuration — whole records compared
//! for equality, so every `f32` must match exactly.
//!
//! The `legacy` module below is a faithful reimplementation of the original
//! monolithic drivers (train in-memory on every invocation, hand weights to
//! defenses via `Checkpoint::from_layer(..).apply_to(..)`, evaluate with the
//! just-trained classifier instance) built only on public API. It is the one
//! place outside `ModelBank` that spells out the training recipes, on
//! purpose: it is the oracle. If the plan-based path diverges in a single
//! bit — a changed seed derivation, a lossy weight round-trip, a dropped
//! batch-norm buffer — these tests fail.

use sesr_defense::eval::{EvalPlan, EvalRecord, ModelBank};
use sesr_defense::experiments::ExperimentConfig;

mod legacy {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesr_classifiers::{ClassifierKind, ClassifierTrainer, ClassifierTrainingConfig};
    use sesr_datagen::{ClassificationDataset, DatasetConfig, SrDataset, SrDatasetConfig};
    use sesr_defense::eval::EvalRecord;
    use sesr_defense::experiments::ExperimentConfig;
    use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
    use sesr_defense::robustness::RobustnessEvaluator;
    use sesr_models::cost::{paper_cost, paper_reported, paper_reported_psnr};
    use sesr_models::trainer::{evaluate_network_psnr, SrLoss, SrTrainer, SrTrainingConfig};
    use sesr_models::SrModelKind;
    use sesr_nn::Layer;
    use sesr_store::Checkpoint;

    /// A trained SR network with its kind and validation PSNR.
    struct TrainedSrModel {
        kind: SrModelKind,
        network: Box<dyn Layer>,
        val_psnr: f32,
    }

    /// Train every learned SR model in the config on one shared dataset.
    fn train_sr_models(config: &ExperimentConfig) -> Vec<TrainedSrModel> {
        let dataset = SrDataset::generate(SrDatasetConfig {
            train_size: config.sr_train_size,
            val_size: config.sr_val_size,
            hr_size: config.sr_hr_size,
            scale: 2,
            seed: config.seed.wrapping_add(17),
        })
        .expect("legacy SR dataset");
        let trainer = SrTrainer::new(SrTrainingConfig {
            epochs: config.sr_epochs,
            batch_size: 4,
            learning_rate: 1e-3,
            loss: SrLoss::Mae,
        });
        let mut out = Vec::new();
        for kind in config.sr_kinds.iter().filter(|k| k.is_learned()) {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1000 + *kind as u64));
            let mut network = kind.build_local_network(&mut rng).expect("learned kind");
            trainer
                .train(network.as_mut(), &dataset)
                .expect("legacy SR training");
            let val_psnr = evaluate_network_psnr(network.as_mut(), &dataset).unwrap();
            out.push(TrainedSrModel {
                kind: *kind,
                network,
                val_psnr,
            });
        }
        out
    }

    /// A defense for `kind`: interpolation built directly, a learned model
    /// rebuilt from a fresh seed, given the trained weights, then deployed
    /// through `wrap_network`.
    fn build_defense(
        kind: SrModelKind,
        trained: &[TrainedSrModel],
        config: &ExperimentConfig,
    ) -> DefensePipeline {
        let preprocess = PreprocessConfig::paper();
        if let Some(upscaler) = kind.build_interpolation(2) {
            return DefensePipeline::new(preprocess, upscaler);
        }
        let source = trained
            .iter()
            .find(|m| m.kind == kind)
            .expect("learned kind was trained");
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(2000 + kind as u64));
        let mut network = kind.build_local_network(&mut rng).expect("learned kind");
        Checkpoint::from_layer("legacy", 2, 0, source.network.as_ref())
            .apply_to(network.as_mut())
            .expect("identical architecture");
        DefensePipeline::new(preprocess, kind.wrap_network(2, network).unwrap())
    }

    /// Table I: one record per learned SR model.
    pub fn table1(config: &ExperimentConfig) -> Vec<EvalRecord> {
        let trained = train_sr_models(config);
        let mut rows = Vec::new();
        for model in &trained {
            let cost = paper_cost(model.kind).unwrap().expect("learned cost");
            let reported = paper_reported(model.kind);
            rows.push(
                EvalRecord::new()
                    .text("model", model.kind.name())
                    .int("params", cost.params)
                    .int("macs", cost.macs)
                    .float("measured_psnr", f64::from(model.val_psnr))
                    .maybe_float("paper_psnr", paper_reported_psnr(model.kind).map(f64::from))
                    .maybe_int("paper_params", reported.map(|r| r.params))
                    .maybe_int("paper_macs", reported.map(|r| r.macs)),
            );
        }
        rows
    }

    fn train_classifier(
        kind: ClassifierKind,
        dataset: &ClassificationDataset,
        config: &ExperimentConfig,
    ) -> Box<dyn Layer> {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(3000 + kind as u64));
        let mut classifier = kind.build_local(config.num_classes, &mut rng);
        ClassifierTrainer::new(ClassifierTrainingConfig {
            epochs: config.classifier_epochs,
            batch_size: 12,
            learning_rate: 3e-3,
        })
        .train(classifier.as_mut(), dataset)
        .expect("legacy classifier training");
        classifier
    }

    /// One classifier's Table II cells, defense-major then attack, "No
    /// Defense" first.
    fn table2_section(
        classifier_kind: ClassifierKind,
        dataset: &ClassificationDataset,
        trained_sr: &[TrainedSrModel],
        config: &ExperimentConfig,
    ) -> Vec<EvalRecord> {
        let classifier = train_classifier(classifier_kind, dataset, config);
        let mut evaluator = RobustnessEvaluator::new(
            classifier,
            dataset.val_images(),
            dataset.val_labels(),
            config.eval_images,
        )
        .expect("legacy evaluator");
        let clean_accuracy = evaluator.clean_accuracy().unwrap();

        let mut cells = Vec::new();
        let mut defenses: Vec<Option<SrModelKind>> = vec![None];
        defenses.extend(config.sr_kinds.iter().copied().map(Some));

        for defense_kind in defenses {
            let defense_name = defense_kind
                .map(|k| k.name().to_string())
                .unwrap_or_else(|| "No Defense".to_string());
            for attack_kind in &config.attacks {
                let attack = attack_kind.build(config.attack);
                let mut rng = StdRng::seed_from_u64(
                    config
                        .seed
                        .wrapping_add(4000 + *attack_kind as u64 * 17 + classifier_kind as u64),
                );
                let adversarial = evaluator
                    .craft_adversarial(attack.as_ref(), &mut rng)
                    .unwrap();
                let accuracy = match defense_kind {
                    None => evaluator.defended_accuracy(&adversarial, None).unwrap(),
                    Some(kind) => {
                        let pipeline = build_defense(kind, trained_sr, config);
                        evaluator
                            .defended_accuracy(&adversarial, Some(&pipeline))
                            .unwrap()
                    }
                };
                cells.push(
                    EvalRecord::new()
                        .text("classifier", classifier_kind.name())
                        .text("defense", defense_name.as_str())
                        .text("attack", attack_kind.name())
                        .float("epsilon", f64::from(config.attack.epsilon))
                        .float("clean_accuracy", f64::from(clean_accuracy))
                        .float("robust_accuracy", f64::from(accuracy))
                        .int("num_images", adversarial.len() as u64),
                );
            }
        }
        cells
    }

    pub fn table2(config: &ExperimentConfig) -> Vec<EvalRecord> {
        let dataset = ClassificationDataset::generate(DatasetConfig {
            num_classes: config.num_classes,
            train_size: config.train_size,
            val_size: config.val_size,
            height: config.image_size,
            width: config.image_size,
            seed: config.seed,
        })
        .expect("legacy dataset");
        let trained_sr = train_sr_models(config);
        config
            .classifiers
            .iter()
            .flat_map(|kind| table2_section(*kind, &dataset, &trained_sr, config))
            .collect()
    }
}

/// Run `plan` the way the pre-redesign drivers ran: train everything from
/// scratch in a store nothing else has written to.
fn plan_records(plan: EvalPlan, config: &ExperimentConfig) -> Vec<EvalRecord> {
    let bank = ModelBank::ephemeral(config.clone()).expect("ephemeral bank");
    let report = plan.run(&bank).expect("plan run");
    assert!(report.ok(), "failed scenarios: {:?}", report.failures());
    report.records().cloned().collect()
}

#[test]
fn plan_backed_table1_is_byte_identical_to_legacy() {
    let config = ExperimentConfig::quick();
    assert_eq!(
        plan_records(EvalPlan::table1(&config), &config),
        legacy::table1(&config),
        "plan-backed Table I must equal the pre-redesign driver exactly"
    );
}

#[test]
fn plan_backed_table2_is_byte_identical_to_legacy() {
    let config = ExperimentConfig::quick();
    assert_eq!(
        plan_records(EvalPlan::table2(&config), &config),
        legacy::table2(&config),
        "plan-backed Table II must equal the pre-redesign driver exactly"
    );
}
