//! Quickstart: train a tiny SESR-M2 and classifier on the synthetic data,
//! attack the classifier with FGSM, and show how the SR-based defense
//! pipeline recovers accuracy — one evaluation plan on a throw-away model
//! bank.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]

use sesr_attacks::AttackKind;
use sesr_classifiers::ClassifierKind;
use sesr_defense::eval::{DefenseSpec, EvalPlan, EvalSink, ModelBank, ScenarioSpec, TextTableSink};
use sesr_defense::experiments::ExperimentConfig;
use sesr_models::SrModelKind;

fn main() -> sesr_tensor::Result<()> {
    let config = ExperimentConfig::quick();
    let bank = ModelBank::ephemeral(config.clone())?;

    // Table I (SR quality of the learned models), then the gray-box
    // robustness of a MobileNet-V2 with no defense, nearest-neighbour
    // upscaling and SESR-M2 behind JPEG + wavelet preprocessing.
    let plan = EvalPlan::new("quickstart")
        .extend(EvalPlan::table1(&config))
        .scenario(
            "robustness/mobilenet-v2",
            ScenarioSpec::Robustness {
                classifier: ClassifierKind::MobileNetV2,
                surrogate: None,
                defenses: vec![
                    DefenseSpec::none(),
                    DefenseSpec::paper(SrModelKind::NearestNeighbor),
                    DefenseSpec::paper(SrModelKind::SesrM2),
                ],
                attacks: vec![AttackKind::Fgsm],
                epsilons: vec![8.0 / 255.0],
            },
        );

    let mut text = TextTableSink::new(std::io::stdout());
    let mut sinks: [&mut dyn EvalSink; 1] = [&mut text];
    let report = plan.run_with_sinks(&bank, &mut sinks)?;
    assert!(report.ok(), "failed scenarios: {:?}", report.failures());
    Ok(())
}
