//! Evaluation plans end to end: declare a grid, run it against a
//! store-backed model bank, re-run it warm (zero training), and stream the
//! results through the text and JSON sinks.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example eval_plan [store-dir]
//! ```
//!
//! Passing a store directory persists the trained weights, so a second
//! invocation trains nothing at all.

#![forbid(unsafe_code)]

use sesr_attacks::AttackKind;
use sesr_defense::eval::{
    DefenseSpec, EvalPlan, EvalSink, JsonSink, ModelBank, ScenarioSpec, TextTableSink,
};
use sesr_defense::experiments::ExperimentConfig;
use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_serve::GatewayScenario;
use std::sync::Arc;

fn main() -> sesr_tensor::Result<()> {
    let config = ExperimentConfig::quick();
    let bank = match std::env::args().nth(1) {
        Some(root) => ModelBank::open(root, config.clone())?,
        None => ModelBank::ephemeral(config.clone())?,
    };

    // A plan is just data: the paper's Table I and II grids, plus two
    // scenarios the legacy drivers could not express — an ε sweep and a
    // gateway-served evaluation.
    let plan = EvalPlan::new("demo")
        .extend(EvalPlan::table1(&config))
        .extend(EvalPlan::table2(&config))
        .scenario(
            "epsilon-sweep/mobilenet-v2",
            ScenarioSpec::Robustness {
                classifier: sesr_classifiers::ClassifierKind::MobileNetV2,
                surrogate: None,
                defenses: vec![
                    DefenseSpec::none(),
                    DefenseSpec::paper(SrModelKind::SesrM2),
                    DefenseSpec::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none()),
                ],
                attacks: vec![AttackKind::Fgsm],
                epsilons: vec![4.0 / 255.0, 8.0 / 255.0, 16.0 / 255.0],
            },
        )
        .custom(
            "gateway/mobilenet-v2",
            Arc::new(GatewayScenario::paper(
                sesr_classifiers::ClassifierKind::MobileNetV2,
                config.sr_kinds.iter().copied(),
                vec![AttackKind::Fgsm],
            )),
        );

    // First run: trains whatever the store does not hold yet, streaming
    // human-readable tables and a JSON artifact.
    let mut text = TextTableSink::new(std::io::stdout());
    let mut json = JsonSink::new();
    let mut sinks: Vec<&mut dyn EvalSink> = vec![&mut text, &mut json];
    let report = plan.run_with_sinks(&bank, &mut sinks)?;
    assert!(report.ok(), "demo plan must complete");
    let first_counts = bank.train_counts();
    println!(
        "\nfirst run trained {} SR model(s) and {} classifier(s); JSON artifact: {} bytes",
        first_counts.sr_models,
        first_counts.classifiers,
        json.rendered().len()
    );

    // Second run against the same (now warm) bank: everything hydrates, and
    // the rows come out identical.
    let rerun = plan.run(&bank)?;
    assert!(rerun.ok());
    assert_eq!(
        bank.train_counts(),
        first_counts,
        "a warm store must satisfy the whole plan without further training"
    );
    let first_rows: Vec<_> = report.records().collect();
    let rerun_rows: Vec<_> = rerun.records().collect();
    assert_eq!(first_rows, rerun_rows, "warm rows must be identical");
    println!(
        "warm re-run: 0 additional training runs, {} identical row(s)",
        rerun.record_count()
    );
    Ok(())
}
