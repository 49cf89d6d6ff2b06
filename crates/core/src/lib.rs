//! **sesr-defense** — the core library of the reproduction of
//! *Super-Efficient Super Resolution for Fast Adversarial Defense at the
//! Edge* (DATE 2022).
//!
//! The paper's contribution is a training-free, model-agnostic defense for
//! image classifiers deployed on constrained edge devices: preprocess the
//! (possibly adversarial) input with JPEG compression, wavelet denoising and
//! ×2 super resolution before classification, and show that **tiny SR
//! networks (SESR, FSRCNN) retain the robustness of huge ones (EDSR)** while
//! being orders of magnitude cheaper — which is what makes the defense
//! deployable on a micro-NPU.
//!
//! This crate wires the substrates together:
//!
//! * [`pipeline`] — the [`DefensePipeline`] (JPEG → wavelet → SR), generic
//!   over any [`Upscaler`](sesr_models::Upscaler).
//! * [`robustness`] — the evaluation harness: select a clean-correct
//!   evaluation subset, craft attacks against the bare classifier (gray-box)
//!   or a surrogate (transfer), measure robust accuracy with and without
//!   each defense.
//! * [`eval`] — the composable evaluation-plan API: declarative
//!   [`EvalPlan`](eval::EvalPlan)s over model × scale × preprocess × attack
//!   × ε × classifier grids, executed on a share-nothing worker pool with
//!   store-backed train-once model provisioning
//!   ([`ModelBank`](eval::ModelBank)) and streaming result sinks. This is
//!   the one way to train models for an experiment and evaluate them.
//!   Tables II and III and the transfer grid are all `Robustness` grids.
//! * [`experiments`] — the shared [`ExperimentConfig`](experiments::ExperimentConfig)
//!   every plan and bank is sized by.
//!
//! # Quickstart
//!
//! ```
//! use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
//! use sesr_models::SrModelKind;
//! use sesr_tensor::{Shape, Tensor};
//!
//! // A defense with nearest-neighbour upscaling (no training needed).
//! let upscaler = SrModelKind::NearestNeighbor.build_interpolation(2).unwrap();
//! let mut defense = DefensePipeline::new(PreprocessConfig::paper(), upscaler);
//! let image = Tensor::full(Shape::new(&[1, 3, 32, 32]), 0.5);
//! let defended = defense.defend(&image)?;
//! assert_eq!(defended.shape().dims(), &[1, 3, 64, 64]);
//! # Ok::<(), sesr_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod experiments;
pub mod pipeline;
pub mod robustness;

pub use pipeline::{DefendTrace, DefensePipeline, PreprocessConfig};
pub use robustness::RobustnessEvaluator;

/// Result alias re-exported from the tensor crate.
pub type Result<T> = sesr_tensor::Result<T>;
