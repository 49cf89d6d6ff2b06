//! Gray-box robustness evaluation harness.
//!
//! The paper's protocol (Section IV-A):
//!
//! 1. pick an evaluation subset on which the classifier is 100 % correct on
//!    clean images (there is no point defending images that were already
//!    misclassified);
//! 2. craft adversarial examples **against the bare classifier** at its
//!    native resolution — the attacker knows the classifier (white-box access
//!    to gradients) but not the preprocessing defense (gray-box overall);
//! 3. pass the adversarial images through a defense pipeline (or no defense)
//!    and measure the classifier's accuracy on the result.
//!
//! The transfer threat model differs only in step 2: the gradients come from
//! a *surrogate* classifier. Plans craft through
//! [`adversarial_sets`](crate::eval::adversarial_sets): one set per (attack,
//! ε) cell, shared by every defense row of that cell.

use crate::pipeline::DefensePipeline;
use crate::Result;
use rand::rngs::StdRng;
use sesr_attacks::Attack;
use sesr_nn::Layer;
use sesr_tensor::{Tensor, TensorError};

/// The evaluation harness: a trained classifier plus its clean-correct
/// evaluation subset.
pub struct RobustnessEvaluator {
    classifier: Box<dyn Layer>,
    eval_images: Vec<Tensor>,
    eval_labels: Vec<usize>,
}

impl RobustnessEvaluator {
    /// Build an evaluator from a trained classifier and a candidate pool of
    /// images, keeping the first `max_images` that the classifier gets right
    /// — the paper's "choose 5000 images with 100 % top-1 accuracy".
    ///
    /// # Errors
    ///
    /// Returns an error if the image and label counts differ, inference
    /// fails, or the resulting subset is empty.
    pub fn new(
        mut classifier: Box<dyn Layer>,
        images: &[Tensor],
        labels: &[usize],
        max_images: usize,
    ) -> Result<Self> {
        if images.len() != labels.len() {
            return Err(TensorError::invalid_argument(format!(
                "{} images but {} labels",
                images.len(),
                labels.len()
            )));
        }
        let (mut eval_images, mut eval_labels) = (Vec::new(), Vec::new());
        for (image, &label) in images.iter().zip(labels) {
            if eval_images.len() >= max_images {
                break;
            }
            if classifier.forward(image, false)?.argmax()? == label {
                eval_images.push(image.clone());
                eval_labels.push(label);
            }
        }
        if eval_images.is_empty() {
            return Err(TensorError::invalid_argument(
                "the classifier does not classify any candidate image correctly",
            ));
        }
        Ok(RobustnessEvaluator {
            classifier,
            eval_images,
            eval_labels,
        })
    }

    /// Accuracy of the classifier on the clean evaluation subset (1.0 by
    /// construction; exposed for sanity checks).
    ///
    /// # Errors
    ///
    /// Returns an error if inference fails.
    pub fn clean_accuracy(&mut self) -> Result<f32> {
        let mut correct = 0usize;
        for (image, &label) in self.eval_images.iter().zip(&self.eval_labels) {
            if self.classifier.forward(image, false)?.argmax()? == label {
                correct += 1;
            }
        }
        Ok(correct as f32 / self.eval_images.len() as f32)
    }

    /// Craft adversarial versions of the evaluation subset with `attack`,
    /// against the bare classifier (gray-box threat model).
    ///
    /// # Errors
    ///
    /// Returns an error if the attack fails on any image.
    pub fn craft_adversarial(
        &mut self,
        attack: &dyn Attack,
        rng: &mut StdRng,
    ) -> Result<Vec<Tensor>> {
        self.craft(attack, None, rng)
    }

    /// Craft adversarial versions of the evaluation subset with `attack`,
    /// taking gradients from `surrogate` when given (the transfer threat
    /// model: the attacker knows another classifier, and this evaluator's
    /// classifier judges the result) and from the evaluator's own
    /// classifier otherwise.
    pub(crate) fn craft(
        &mut self,
        attack: &dyn Attack,
        surrogate: Option<&mut dyn Layer>,
        rng: &mut StdRng,
    ) -> Result<Vec<Tensor>> {
        let attacker = match surrogate {
            Some(surrogate) => surrogate,
            None => self.classifier.as_mut(),
        };
        let mut adversarial = Vec::with_capacity(self.eval_images.len());
        for (image, &label) in self.eval_images.iter().zip(&self.eval_labels) {
            adversarial.push(attack.perturb(attacker, image, &[label], rng)?);
        }
        Ok(adversarial)
    }

    /// Accuracy of the classifier on a list of (possibly adversarial) images
    /// after applying `defense` (or no defense).
    ///
    /// # Errors
    ///
    /// Returns an error if the image count differs from the subset or any
    /// stage fails.
    pub fn defended_accuracy(
        &mut self,
        images: &[Tensor],
        defense: Option<&DefensePipeline>,
    ) -> Result<f32> {
        if images.len() != self.eval_labels.len() {
            return Err(TensorError::invalid_argument(format!(
                "expected {} images, got {}",
                self.eval_labels.len(),
                images.len()
            )));
        }
        let mut correct = 0usize;
        for (image, &label) in images.iter().zip(&self.eval_labels) {
            let input = match defense {
                Some(pipeline) => pipeline.defend(image)?,
                None => image.clone(),
            };
            if self.classifier.forward(&input, false)?.argmax()? == label {
                correct += 1;
            }
        }
        Ok(correct as f32 / images.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PreprocessConfig;
    use rand::SeedableRng;
    use sesr_attacks::{AttackConfig, FgsmAttack};
    use sesr_classifiers::{ClassifierKind, ClassifierTrainer, ClassifierTrainingConfig};
    use sesr_datagen::{ClassificationDataset, DatasetConfig};
    use sesr_models::SrModelKind;

    fn trained_setup() -> (Box<dyn Layer>, ClassificationDataset) {
        let dataset = ClassificationDataset::generate(DatasetConfig {
            num_classes: 3,
            train_size: 36,
            val_size: 18,
            height: 16,
            width: 16,
            seed: 5,
        })
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut classifier = ClassifierKind::MobileNetV2.build_local(3, &mut rng);
        ClassifierTrainer::new(ClassifierTrainingConfig {
            epochs: 6,
            batch_size: 12,
            learning_rate: 3e-3,
        })
        .train(classifier.as_mut(), &dataset)
        .unwrap();
        (classifier, dataset)
    }

    #[test]
    fn subset_selection_keeps_only_correct_images() {
        let (classifier, dataset) = trained_setup();
        let mut evaluator =
            RobustnessEvaluator::new(classifier, dataset.val_images(), dataset.val_labels(), 10)
                .unwrap();
        assert_eq!(evaluator.eval_images.len(), evaluator.eval_labels.len());
        assert!(evaluator.eval_images.len() <= 10);
        for (image, &label) in evaluator.eval_images.iter().zip(&evaluator.eval_labels) {
            let logits = evaluator.classifier.forward(image, false).unwrap();
            assert_eq!(logits.argmax().unwrap(), label);
        }
    }

    #[test]
    fn clean_accuracy_is_one_on_the_subset() {
        let (classifier, dataset) = trained_setup();
        let mut evaluator =
            RobustnessEvaluator::new(classifier, dataset.val_images(), dataset.val_labels(), 8)
                .unwrap();
        assert!((evaluator.clean_accuracy().unwrap() - 1.0).abs() < 1e-6);
        assert!(!evaluator.eval_images.is_empty());
        assert_eq!(evaluator.eval_images.len(), evaluator.eval_labels.len());
    }

    #[test]
    fn attack_reduces_accuracy_and_defense_changes_it() {
        let (classifier, dataset) = trained_setup();
        let mut evaluator =
            RobustnessEvaluator::new(classifier, dataset.val_images(), dataset.val_labels(), 6)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        // Use a large epsilon so even the tiny test model reliably misclassifies.
        let attack = FgsmAttack::new(AttackConfig::paper().with_epsilon(0.2));
        let adversarial = evaluator.craft_adversarial(&attack, &mut rng).unwrap();
        assert_eq!(adversarial.len(), evaluator.eval_images.len());
        let no_defense = evaluator.defended_accuracy(&adversarial, None).unwrap();
        assert!((0.0..=1.0).contains(&no_defense));

        let defense = DefensePipeline::new(
            PreprocessConfig::paper(),
            SrModelKind::NearestNeighbor.build_interpolation(2).unwrap(),
        );
        let defended = evaluator
            .defended_accuracy(&adversarial, Some(&defense))
            .unwrap();
        assert!((0.0..=1.0).contains(&defended));
    }

    #[test]
    fn mismatched_image_count_is_rejected() {
        let (classifier, dataset) = trained_setup();
        let mut evaluator =
            RobustnessEvaluator::new(classifier, dataset.val_images(), dataset.val_labels(), 4)
                .unwrap();
        // One image more than the subset holds, whatever size it came out.
        let wrong = &dataset.val_images()[..evaluator.eval_images.len() + 1];
        assert!(evaluator.defended_accuracy(wrong, None).is_err());
    }
}
