//! Super-resolution model zoo for the SESR adversarial-defense reproduction.
//!
//! This crate provides every upscaler compared in the paper:
//!
//! * [`sesr`] — **Super-Efficient Super Resolution** with Collapsible Linear
//!   Blocks: the training-time over-parameterised network, the analytic
//!   collapse, and the SESR-M2 / M3 / M5 / XL configurations.
//! * [`fsrcnn`] — the FSRCNN baseline (shrink → map → expand → deconvolution).
//! * [`edsr`] — EDSR and EDSR-base (deep residual SR with 0.1 residual
//!   scaling), runnable at reduced width/depth with paper-scale analytic
//!   cost models.
//! * [`upscaler`] — the [`Upscaler`] trait shared by all of the above plus
//!   interpolation baselines (nearest neighbour, bicubic).
//! * [`zoo`] — the [`SrModelKind`] enumeration used by the experiments, which
//!   maps one-to-one onto the rows of Tables I, II and IV.
//! * [`trainer`] — training on synthetic DIV2K-like data with MAE/MSE losses.
//! * [`cost`] — paper-scale parameter and MAC accounting (Table I).
//!
//! # Training form and deployed form
//!
//! A network is trained, checkpointed and stored in the form
//! [`SrModelKind::build_local_network`] returns (SESR: the expanded
//! [`Sesr`]) and deployed in its
//! [`Layer::inference_form`](sesr_nn::Layer::inference_form) (SESR: the
//! collapsed network; FSRCNN and EDSR unchanged). Lowering happens in one
//! place, [`SrModelKind::wrap_network`], which every upscaler constructor
//! ends in: *build network → load or copy weights → `wrap_network`*. No
//! switch serves the expanded form. The collapsed network rejects `backward`
//! with a typed error; nothing differentiates through an [`Upscaler`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod edsr;
pub mod fsrcnn;
pub mod sesr;
pub mod trainer;
pub mod upscaler;
pub mod zoo;

pub use cost::paper_cost;
pub use edsr::{Edsr, EdsrConfig};
pub use fsrcnn::{Fsrcnn, FsrcnnConfig};
pub use sesr::{CollapsibleLinearBlock, Sesr, SesrConfig};
pub use trainer::{SrTrainer, SrTrainingConfig, SrTrainingReport};
pub use upscaler::{InterpolationUpscaler, NetworkUpscaler, Upscaler};
pub use zoo::SrModelKind;

// Serving-oriented re-export: pipelines downstream thread a `ScratchSpace`
// through `Upscaler::upscale_scratch` without depending on `sesr-nn`.
pub use sesr_nn::ScratchSpace;

/// Result alias re-exported from the tensor crate.
pub type Result<T> = sesr_tensor::Result<T>;
