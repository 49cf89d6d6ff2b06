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
use sesr_nn::Layer;
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

    /// Display name used in result rows: `"No Defense"`, the model name for
    /// the paper configuration, and otherwise the model name with its
    /// preprocess and any scale other than ×2, e.g. `"SESR-M2 (wavelet2)"`
    /// or `"Bicubic (x4, raw)"`, so every point of a grid is distinct.
    pub fn name(&self) -> String {
        match self.model {
            None => "No Defense".to_string(),
            Some(kind) if *self == DefenseSpec::paper(kind) => kind.name().to_string(),
            Some(kind) => {
                let scale = match self.scale {
                    2 => String::new(),
                    scale => format!("x{scale}, "),
                };
                format!("{} ({scale}{})", kind.name(), self.preprocess.label())
            }
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
    /// Robust accuracy of one classifier over a defense grid × attack grid
    /// × ε grid: a Table II section, Table III's JPEG ablation (two
    /// preprocess rows per model) or, with a `surrogate`, the transfer
    /// grid. Every defense row of an (attack, ε) cell is measured on the
    /// same adversarial set (see [`adversarial_sets`]).
    Robustness {
        /// The classifier under attack: it picks the clean-correct subset
        /// and judges every defended image.
        classifier: ClassifierKind,
        /// The classifier the attacker has gradients for: `None` crafts
        /// against `classifier` itself (gray-box), `Some` crafts against
        /// this surrogate (the black-box transfer protocol).
        surrogate: Option<ClassifierKind>,
        /// Defense grid (row order).
        defenses: Vec<DefenseSpec>,
        /// Attack grid (column order).
        attacks: Vec<AttackKind>,
        /// Perturbation budgets; each produces one row set.
        epsilons: Vec<f32>,
    },
    /// Table IV row: analytic end-to-end latency of the enlarged
    /// MobileNet-V2 plus one SR model on a micro-NPU.
    NpuLatency {
        /// The SR model.
        sr: SrModelKind,
        /// The NPU configuration to estimate on.
        npu: NpuConfig,
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
            ScenarioSpec::NpuLatency { .. } => "npu-latency",
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
            surrogate,
            defenses,
            attacks,
            epsilons,
        } => run_robustness(*classifier, *surrogate, defenses, attacks, epsilons, bank),
        ScenarioSpec::NpuLatency { sr, npu } => run_npu_latency(*sr, npu),
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

/// One (attack, ε) cell's adversarial images, as [`adversarial_sets`]
/// crafts them.
type AdversarialSet = (AttackKind, f32, Vec<Tensor>);

/// The clean-correct evaluator for `classifier` and one adversarial set per
/// (attack, ε) cell, attack-major, crafted against `surrogate` when given
/// and against `classifier` otherwise.
///
/// This is the one place a crafting seed is derived (`seed + 4000 +
/// 17·attack + attacker`), so every row of a (classifier, attack, ε) cell —
/// each defense of Tables II and III, each gateway route — is measured on
/// the same images.
///
/// # Errors
///
/// Returns an error if `eval_images` exceeds `val_size`, or if training,
/// selection or an attack fails.
pub fn adversarial_sets(
    bank: &ModelBank,
    classifier: ClassifierKind,
    surrogate: Option<ClassifierKind>,
    attacks: &[AttackKind],
    epsilons: &[f32],
) -> Result<(RobustnessEvaluator, Vec<AdversarialSet>)> {
    let config = bank.config();
    if config.eval_images > config.val_size {
        return Err(TensorError::invalid_argument(format!(
            "eval_images = {} exceeds val_size = {}, the pool it is drawn from",
            config.eval_images, config.val_size
        )));
    }
    let dataset = bank.classification_dataset()?;
    let mut evaluator = RobustnessEvaluator::new(
        bank.classifier(classifier)?,
        dataset.val_images(),
        dataset.val_labels(),
        config.eval_images,
    )?;
    let mut surrogate_network = surrogate.map(|kind| bank.classifier(kind)).transpose()?;
    let attacker = surrogate.unwrap_or(classifier);
    let mut sets = Vec::with_capacity(attacks.len() * epsilons.len());
    for attack_kind in attacks {
        for &epsilon in epsilons {
            let attack = attack_kind.build(config.attack.with_epsilon(epsilon));
            let seed = config
                .seed
                .wrapping_add(4000 + *attack_kind as u64 * 17 + attacker as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let surrogate = surrogate_network
                .as_deref_mut()
                .map(|s| s as &mut dyn Layer);
            let set = evaluator.craft(attack.as_ref(), surrogate, &mut rng)?;
            sets.push((*attack_kind, epsilon, set));
        }
    }
    Ok((evaluator, sets))
}

fn run_robustness(
    classifier: ClassifierKind,
    surrogate: Option<ClassifierKind>,
    defenses: &[DefenseSpec],
    attacks: &[AttackKind],
    epsilons: &[f32],
    bank: &ModelBank,
) -> Result<Vec<EvalRecord>> {
    let (mut evaluator, sets) = adversarial_sets(bank, classifier, surrogate, attacks, epsilons)?;
    let clean_accuracy = evaluator.clean_accuracy()?;
    let mut records = Vec::new();
    for spec in defenses {
        let pipeline = bank.defense(spec)?;
        for (attack_kind, epsilon, adversarial) in &sets {
            let robust_accuracy = evaluator.defended_accuracy(adversarial, pipeline.as_ref())?;
            let mut record = EvalRecord::new().text("classifier", classifier.name());
            if let Some(surrogate) = surrogate {
                record = record.text("surrogate", surrogate.name());
            }
            records.push(
                record
                    .text("defense", spec.name())
                    .text("attack", attack_kind.name())
                    .float("epsilon", f64::from(*epsilon))
                    .float("clean_accuracy", f64::from(clean_accuracy))
                    .float("robust_accuracy", f64::from(robust_accuracy))
                    .int("num_images", adversarial.len() as u64),
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
        // Off the paper configuration the name carries what differs, so the
        // two Table III rows of one model are distinct.
        assert_eq!(raw.name(), "Bicubic (x4, raw)");
        let no_jpeg = DefenseSpec::new(SrModelKind::SesrM2, 2, PreprocessConfig::without_jpeg());
        assert_eq!(no_jpeg.name(), "SESR-M2 (wavelet2)");
    }

    #[test]
    fn an_eval_set_larger_than_the_validation_pool_is_rejected() {
        let mut config = crate::experiments::ExperimentConfig::quick();
        config.val_size = 48;
        config.eval_images = 384;
        let bank = ModelBank::ephemeral(config).unwrap();
        let classifier = ClassifierKind::MobileNetV2;
        let error = adversarial_sets(&bank, classifier, None, &[AttackKind::Fgsm], &[0.1])
            .err()
            .expect("384 evaluation images cannot come from a pool of 48")
            .to_string();
        assert!(error.contains("384") && error.contains("48"), "{error}");
        assert_eq!(bank.train_counts().total(), 0, "rejected before training");
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
