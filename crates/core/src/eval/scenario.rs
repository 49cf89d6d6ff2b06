//! Scenario declarations and their share-nothing executors.

use crate::eval::bank::ModelBank;
use crate::eval::record::EvalRecord;
use crate::pipeline::PreprocessConfig;
use crate::robustness::RobustnessEvaluator;
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_attacks::AttackKind;
use sesr_classifiers::ClassifierKind;
use sesr_models::cost::{paper_cost, paper_reported, paper_reported_psnr};
use sesr_models::trainer::evaluate_network_psnr;
use sesr_models::SrModelKind;
use sesr_npu::{estimate_pipeline, NpuConfig, PipelineLatency};
use sesr_tensor::{Tensor, TensorError};
use std::sync::Arc;

/// One point of the defense grid: which upscaler (or none), at which scale,
/// behind which preprocessing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseSpec {
    /// The SR model defending this point, or `None` for the undefended
    /// baseline row.
    pub model: Option<SrModelKind>,
    /// Upscaling factor (learned local networks are ×2-only; interpolation
    /// baselines accept any factor).
    pub scale: usize,
    /// The non-learned preprocessing stages.
    pub preprocess: PreprocessConfig,
}

impl DefenseSpec {
    /// The undefended baseline ("No Defense" row).
    pub fn none() -> Self {
        DefenseSpec {
            model: None,
            scale: 1,
            preprocess: PreprocessConfig::none(),
        }
    }

    /// An explicit grid point.
    pub fn new(model: SrModelKind, scale: usize, preprocess: PreprocessConfig) -> Self {
        DefenseSpec {
            model: Some(model),
            scale,
            preprocess,
        }
    }

    /// The paper's configuration for `model`: ×2 with JPEG + wavelet
    /// preprocessing.
    pub fn paper(model: SrModelKind) -> Self {
        DefenseSpec::new(model, 2, PreprocessConfig::paper())
    }

    /// Display name used in result rows (`"No Defense"` or the model name).
    pub fn name(&self) -> String {
        match self.model {
            Some(kind) => kind.name().to_string(),
            None => "No Defense".to_string(),
        }
    }

    /// Compact identity label, e.g. `"sesr-m2:x2:jpeg75+wavelet2"` or
    /// `"none"`.
    pub fn label(&self) -> String {
        match self.model {
            Some(kind) => format!(
                "{}:x{}:{}",
                kind.slug(),
                self.scale,
                self.preprocess.label()
            ),
            None => "none".to_string(),
        }
    }
}

/// A scenario implemented outside this crate (e.g. `sesr-serve`'s gateway
/// evaluation). The implementation pulls every trained model it needs from
/// the [`ModelBank`], so it inherits train-once semantics for free.
pub trait CustomScenario: Send + Sync {
    /// Short scenario-kind tag shown in reports (e.g. `"gateway"`).
    fn kind(&self) -> &'static str {
        "custom"
    }

    /// Execute the scenario against the shared model bank.
    ///
    /// # Errors
    ///
    /// Implementation-defined; a failure marks this scenario failed without
    /// aborting the rest of the plan.
    fn run(&self, bank: &ModelBank) -> Result<Vec<EvalRecord>>;
}

/// What one scenario evaluates.
#[derive(Clone)]
pub enum ScenarioSpec {
    /// Table I row: train/hydrate one learned SR model, measure PSNR on the
    /// shared validation set, report analytic paper-scale cost.
    SrQuality {
        /// The learned SR model.
        sr: SrModelKind,
    },
    /// Table II section generalised: one classifier against a defense grid
    /// × attack grid × ε grid (the legacy driver could only express a single
    /// ε).
    Robustness {
        /// The classifier under attack.
        classifier: ClassifierKind,
        /// Defense grid (row order).
        defenses: Vec<DefenseSpec>,
        /// Attack grid (column order).
        attacks: Vec<AttackKind>,
        /// Perturbation budgets; each produces one row set.
        epsilons: Vec<f32>,
    },
    /// Table III rows for one classifier: robustness with and without the
    /// JPEG stage, per learned defense and attack.
    JpegAblation {
        /// The classifier under attack.
        classifier: ClassifierKind,
        /// Learned SR models to ablate.
        defenses: Vec<SrModelKind>,
        /// Attacks to evaluate.
        attacks: Vec<AttackKind>,
    },
    /// Table IV row: analytic end-to-end latency of the enlarged
    /// MobileNet-V2 plus one SR model on a micro-NPU.
    NpuLatency {
        /// The SR model.
        sr: SrModelKind,
        /// The NPU configuration to estimate on.
        npu: NpuConfig,
    },
    /// Cross-model transfer attack: adversarial examples crafted against
    /// `source` are defended and evaluated on `target` — the black-box
    /// transferability protocol the legacy API could not express.
    TransferAttack {
        /// The surrogate classifier the attacker has gradients for.
        source: ClassifierKind,
        /// The deployed classifier actually being evaluated.
        target: ClassifierKind,
        /// Defense grid.
        defenses: Vec<DefenseSpec>,
        /// Attacks to evaluate.
        attacks: Vec<AttackKind>,
    },
    /// An externally implemented scenario.
    Custom(Arc<dyn CustomScenario>),
}

impl ScenarioSpec {
    /// Short kind tag shown in reports and sinks.
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioSpec::SrQuality { .. } => "sr-quality",
            ScenarioSpec::Robustness { .. } => "robustness",
            ScenarioSpec::JpegAblation { .. } => "jpeg-ablation",
            ScenarioSpec::NpuLatency { .. } => "npu-latency",
            ScenarioSpec::TransferAttack { .. } => "transfer-attack",
            ScenarioSpec::Custom(custom) => custom.kind(),
        }
    }
}

impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind())
    }
}

/// One named scenario of a plan.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique name within the plan, e.g. `"table2/mobilenet-v2"`; the handle
    /// `--filter` and reports use.
    pub name: String,
    /// What to evaluate.
    pub spec: ScenarioSpec,
}

/// Execute one scenario against the bank, producing its result rows.
pub(crate) fn execute(scenario: &Scenario, bank: &ModelBank) -> Result<Vec<EvalRecord>> {
    match &scenario.spec {
        ScenarioSpec::SrQuality { sr } => run_sr_quality(*sr, bank),
        ScenarioSpec::Robustness {
            classifier,
            defenses,
            attacks,
            epsilons,
        } => run_robustness(*classifier, defenses, attacks, epsilons, bank),
        ScenarioSpec::JpegAblation {
            classifier,
            defenses,
            attacks,
        } => run_jpeg_ablation(*classifier, defenses, attacks, bank),
        ScenarioSpec::NpuLatency { sr, npu } => run_npu_latency(*sr, npu),
        ScenarioSpec::TransferAttack {
            source,
            target,
            defenses,
            attacks,
        } => run_transfer(*source, *target, defenses, attacks, bank),
        ScenarioSpec::Custom(custom) => custom.run(bank),
    }
}

fn run_sr_quality(kind: SrModelKind, bank: &ModelBank) -> Result<Vec<EvalRecord>> {
    let mut network = bank.sr_network(kind)?;
    let dataset = bank.sr_dataset()?;
    let measured_psnr = evaluate_network_psnr(network.as_mut(), &dataset)?;
    let cost = paper_cost(kind)?
        .ok_or_else(|| TensorError::invalid_argument("learned kind must have a cost"))?;
    let reported = paper_reported(kind);
    Ok(vec![EvalRecord::new()
        .text("model", kind.name())
        .int("params", cost.params)
        .int("macs", cost.macs)
        .float("measured_psnr", f64::from(measured_psnr))
        .maybe_float("paper_psnr", paper_reported_psnr(kind).map(f64::from))
        .maybe_int("paper_params", reported.map(|r| r.params))
        .maybe_int("paper_macs", reported.map(|r| r.macs))])
}

fn evaluator_for(
    classifier: ClassifierKind,
    bank: &ModelBank,
) -> Result<(RobustnessEvaluator, f32)> {
    let dataset = bank.classification_dataset()?;
    let network = bank.classifier(classifier)?;
    let mut evaluator = RobustnessEvaluator::new(
        network,
        dataset.val_images(),
        dataset.val_labels(),
        bank.config().eval_images,
    )?;
    let clean_accuracy = evaluator.clean_accuracy()?;
    Ok((evaluator, clean_accuracy))
}

fn run_robustness(
    classifier: ClassifierKind,
    defenses: &[DefenseSpec],
    attacks: &[AttackKind],
    epsilons: &[f32],
    bank: &ModelBank,
) -> Result<Vec<EvalRecord>> {
    let (mut evaluator, clean_accuracy) = evaluator_for(classifier, bank)?;

    // Crafting is deterministic per (classifier, attack, ε) — the RNG is
    // re-seeded per cell with the legacy seed derivation — so each
    // adversarial set is computed once and shared across the defense grid
    // (the legacy driver re-crafted it per defense row).
    let mut crafted: Vec<Vec<Tensor>> = Vec::with_capacity(attacks.len() * epsilons.len());
    for attack_kind in attacks {
        for &epsilon in epsilons {
            let attack = attack_kind.build(bank.config().attack.with_epsilon(epsilon));
            let mut rng = StdRng::seed_from_u64(
                bank.config()
                    .seed
                    .wrapping_add(4000 + *attack_kind as u64 * 17 + classifier as u64),
            );
            crafted.push(evaluator.craft_adversarial(attack.as_ref(), &mut rng)?);
        }
    }

    let mut records = Vec::new();
    for spec in defenses {
        let pipeline = bank.defense(spec)?;
        for (attack_index, attack_kind) in attacks.iter().enumerate() {
            for (epsilon_index, &epsilon) in epsilons.iter().enumerate() {
                let adversarial = &crafted[attack_index * epsilons.len() + epsilon_index];
                let robust_accuracy =
                    evaluator.defended_accuracy(adversarial, pipeline.as_ref())?;
                records.push(
                    EvalRecord::new()
                        .text("classifier", classifier.name())
                        .text("defense", spec.name())
                        .text("attack", attack_kind.name())
                        .float("epsilon", f64::from(epsilon))
                        .float("clean_accuracy", f64::from(clean_accuracy))
                        .float("robust_accuracy", f64::from(robust_accuracy))
                        .int("num_images", adversarial.len() as u64),
                );
            }
        }
    }
    Ok(records)
}

fn run_jpeg_ablation(
    classifier: ClassifierKind,
    defenses: &[SrModelKind],
    attacks: &[AttackKind],
    bank: &ModelBank,
) -> Result<Vec<EvalRecord>> {
    let (mut evaluator, _clean) = evaluator_for(classifier, bank)?;
    let mut records = Vec::new();
    for attack_kind in attacks {
        let attack = attack_kind.build(bank.config().attack);
        let mut rng = StdRng::seed_from_u64(
            bank.config()
                .seed
                .wrapping_add(5000 + *attack_kind as u64 * 13 + classifier as u64),
        );
        let adversarial = evaluator.craft_adversarial(attack.as_ref(), &mut rng)?;
        for kind in defenses.iter().filter(|k| k.is_learned()) {
            let with_jpeg = bank.defense(&DefenseSpec::paper(*kind))?;
            let without_jpeg = bank.defense(&DefenseSpec::new(
                *kind,
                2,
                PreprocessConfig::without_jpeg(),
            ))?;
            let jpeg_accuracy = evaluator.defended_accuracy(&adversarial, with_jpeg.as_ref())?;
            let no_jpeg_accuracy =
                evaluator.defended_accuracy(&adversarial, without_jpeg.as_ref())?;
            records.push(
                EvalRecord::new()
                    .text("classifier", classifier.name())
                    .text("defense", kind.name())
                    .text("attack", attack_kind.name())
                    .float("no_jpeg_accuracy", f64::from(no_jpeg_accuracy))
                    .float("jpeg_accuracy", f64::from(jpeg_accuracy)),
            );
        }
    }
    Ok(records)
}

fn run_npu_latency(kind: SrModelKind, npu: &NpuConfig) -> Result<Vec<EvalRecord>> {
    let classifier_spec = sesr_classifiers::cost::mobilenet_v2_paper_spec();
    let sr_spec = kind
        .paper_spec()
        .ok_or_else(|| TensorError::invalid_argument("NPU latency needs a learned SR model"))?;
    let PipelineLatency {
        sr_ms,
        classification_ms,
        total_ms,
        fps,
    } = estimate_pipeline(&sr_spec, &classifier_spec, (3, 299, 299), 2, npu)?;
    Ok(vec![EvalRecord::new()
        .text("sr_model", kind.name())
        .text("npu", &npu.name)
        .float("classification_ms", classification_ms)
        .float("sr_ms", sr_ms)
        .float("total_ms", total_ms)
        .float("fps", fps)])
}

fn run_transfer(
    source: ClassifierKind,
    target: ClassifierKind,
    defenses: &[DefenseSpec],
    attacks: &[AttackKind],
    bank: &ModelBank,
) -> Result<Vec<EvalRecord>> {
    let mut surrogate = bank.classifier(source)?;
    let (mut evaluator, clean_accuracy) = evaluator_for(target, bank)?;

    let mut records = Vec::new();
    for attack_kind in attacks {
        let attack = attack_kind.build(bank.config().attack);
        let mut rng = StdRng::seed_from_u64(bank.config().seed.wrapping_add(
            6000 + *attack_kind as u64 * 19 + source as u64 * 31 + target as u64 * 7,
        ));
        // Gradients come from the surrogate; the evaluation subset (and the
        // final verdict) belong to the target.
        let adversarial =
            evaluator.craft_adversarial_against(attack.as_ref(), surrogate.as_mut(), &mut rng)?;
        for spec in defenses {
            let pipeline = bank.defense(spec)?;
            let robust_accuracy = evaluator.defended_accuracy(&adversarial, pipeline.as_ref())?;
            records.push(
                EvalRecord::new()
                    .text("source", source.name())
                    .text("target", target.name())
                    .text("defense", spec.name())
                    .text("attack", attack_kind.name())
                    .float("clean_accuracy", f64::from(clean_accuracy))
                    .float("robust_accuracy", f64::from(robust_accuracy))
                    .int("num_images", adversarial.len() as u64),
            );
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_spec_names_and_labels() {
        assert_eq!(DefenseSpec::none().name(), "No Defense");
        assert_eq!(DefenseSpec::none().label(), "none");
        let spec = DefenseSpec::paper(SrModelKind::SesrM2);
        assert_eq!(spec.name(), "SESR-M2");
        assert_eq!(spec.label(), "sesr-m2:x2:jpeg75+wavelet2");
        let raw = DefenseSpec::new(SrModelKind::Bicubic, 4, PreprocessConfig::none());
        assert_eq!(raw.label(), "bicubic:x4:raw");
    }

    #[test]
    fn scenario_kinds_are_stable() {
        assert_eq!(
            ScenarioSpec::SrQuality {
                sr: SrModelKind::SesrM2
            }
            .kind(),
            "sr-quality"
        );
        assert_eq!(
            ScenarioSpec::NpuLatency {
                sr: SrModelKind::SesrM2,
                npu: NpuConfig::ethos_u55_256()
            }
            .kind(),
            "npu-latency"
        );
    }
}
