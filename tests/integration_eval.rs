//! End-to-end tests of the evaluation-plan API: store-backed train-once
//! semantics (cold run trains each config exactly once, warm re-run trains
//! nothing and reproduces identical rows), and the two scenarios the legacy
//! API could not express (transfer attacks and gateway-served evaluation).

use sesr_attacks::AttackKind;
use sesr_classifiers::ClassifierKind;
use sesr_defense::eval::{EvalPlan, EvalRecord, ModelBank};
use sesr_defense::experiments::ExperimentConfig;
use sesr_models::SrModelKind;
use sesr_serve::GatewayScenario;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static TEST_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_store(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sesr_eval_it_{tag}_{}_{}",
        std::process::id(),
        TEST_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn two_classifier_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.classifiers = vec![ClassifierKind::MobileNetV2, ClassifierKind::ResNet50];
    config
}

/// The full quick plan: every table plus the transfer and gateway scenarios.
fn full_quick_plan(config: &ExperimentConfig) -> EvalPlan {
    let mut gateway = EvalPlan::new("gateway");
    for classifier in &config.classifiers {
        gateway = gateway.custom(
            format!("gateway/{}", classifier.slug()),
            Arc::new(GatewayScenario::paper(
                *classifier,
                config.sr_kinds.iter().copied(),
                config.attacks.clone(),
            )),
        );
    }
    EvalPlan::new("quick-all")
        .extend(EvalPlan::table1(config))
        .extend(EvalPlan::table2(config))
        .extend(EvalPlan::table3(config))
        .extend(EvalPlan::transfer(config))
        .extend(gateway)
}

fn all_records(plan_report: &sesr_defense::eval::PlanReport) -> Vec<EvalRecord> {
    plan_report.records().cloned().collect()
}

#[test]
fn cold_run_trains_each_config_once_and_warm_rerun_trains_zero() {
    let root = temp_store("train_once");
    let config = two_classifier_config();
    let plan = full_quick_plan(&config);

    // Cold run: the store is empty, so every (kind, config) pair trains —
    // exactly once each, even though table1, table2, table3, the transfer
    // grid and the gateway scenarios all need the same SESR-M2 weights and
    // the same two classifiers.
    let cold_bank = ModelBank::open(&root, config.clone()).unwrap();
    let cold_report = plan.run(&cold_bank).unwrap();
    assert!(
        cold_report.ok(),
        "cold run failed: {:?}",
        cold_report.failures()
    );
    let cold_counts = cold_bank.train_counts();
    let learned = config.sr_kinds.iter().filter(|k| k.is_learned()).count() as u64;
    assert_eq!(
        cold_counts.sr_models, learned,
        "each learned SR kind must train exactly once across all scenarios"
    );
    assert_eq!(
        cold_counts.classifiers,
        config.classifiers.len() as u64,
        "each classifier must train exactly once across all scenarios"
    );

    // Warm re-run over the same store with a fresh bank: zero training, and
    // every record identical to the cold run.
    let warm_bank = ModelBank::open(&root, config.clone()).unwrap();
    let warm_report = plan.run(&warm_bank).unwrap();
    assert!(warm_report.ok());
    assert_eq!(
        warm_bank.train_counts().total(),
        0,
        "a warm store must satisfy the whole plan without training"
    );
    assert_eq!(
        all_records(&cold_report),
        all_records(&warm_report),
        "warm-store rows must be identical to the cold-run rows"
    );

    // A different training configuration must NOT reuse the warm artifacts.
    let mut other_config = config.clone();
    other_config.sr_epochs += 1;
    let other_bank = ModelBank::open(&root, other_config.clone()).unwrap();
    other_bank.sr_network(SrModelKind::SesrM2).unwrap();
    assert_eq!(
        other_bank.train_counts().sr_models,
        1,
        "a changed config gets a fresh artifact identity and retrains"
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn transfer_scenario_produces_cross_model_rows() {
    let config = two_classifier_config();
    let bank = ModelBank::ephemeral(config.clone()).unwrap();
    let report = EvalPlan::transfer(&config).run(&bank).unwrap();
    assert!(report.ok(), "{:?}", report.failures());
    assert_eq!(report.scenarios.len(), 2, "both ordered pairs");

    let scenario = report
        .scenario("transfer/mobilenet-v2-to-resnet-50")
        .expect("transfer scenario present");
    // One row per (attack, defense): 1 attack x (No Defense + 2 SR kinds).
    assert_eq!(scenario.records.len(), 3);
    for record in &scenario.records {
        assert_eq!(record.get_text("surrogate"), Some("MobileNet-V2"));
        assert_eq!(record.get_text("classifier"), Some("ResNet-50"));
        let accuracy = record.get_float("robust_accuracy").unwrap();
        assert!((0.0..=1.0).contains(&accuracy));
        assert!(record.get_int("num_images").unwrap() > 0);
    }

    // The transfer grid is genuinely cross-model: the two directions use
    // different surrogates, so their row sets must not be element-wise equal
    // (same defenses, same attack, different gradients).
    let reverse = report
        .scenario("transfer/resnet-50-to-mobilenet-v2")
        .unwrap();
    assert_eq!(reverse.records.len(), 3);
    assert_ne!(scenario.records, reverse.records);
}

#[test]
fn gateway_scenarios_run_inside_a_plan_with_non_empty_records() {
    let config = ExperimentConfig::quick();
    let bank = ModelBank::ephemeral(config.clone()).unwrap();
    let plan = EvalPlan::new("gateway-only").custom(
        "gateway/mobilenet-v2",
        Arc::new(GatewayScenario::paper(
            ClassifierKind::MobileNetV2,
            config.sr_kinds.iter().copied(),
            vec![AttackKind::Fgsm],
        )),
    );
    let report = plan.run(&bank).unwrap();
    assert!(report.ok(), "{:?}", report.failures());
    let scenario = report.scenario("gateway/mobilenet-v2").unwrap();
    assert_eq!(scenario.meta.kind, "gateway");
    assert_eq!(scenario.records.len(), config.sr_kinds.len());
    for record in &scenario.records {
        assert!(
            record.get_int("served").unwrap() >= record.get_int("num_images").unwrap(),
            "every adversarial image must have travelled the serving stack"
        );
        assert!(record.get_text("route").is_some());
    }
}
