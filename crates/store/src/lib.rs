//! **sesr-store** — trained-weight artifact store and model registry.
//!
//! The paper's edge-deployment pitch is *train once, deploy many*: the SR
//! defense network is trained offline, then identical weights are served in
//! front of every classifier invocation. This crate makes that workflow
//! first-class:
//!
//! ```text
//!  SrTrainer::train_and_save          SrModelKind::build_from_store
//!            │                                      ▲
//!            ▼                                      │ hydrate (memoized)
//!      ┌───────────┐   save / load / resolve  ┌───────────────┐
//!      │ Checkpoint│ ◄───────────────────────►│ ModelRegistry │
//!      └───────────┘                          └───────────────┘
//!            ▲                                      ▲
//!            │ header + checksum + f32 payload      │ one validated load per
//!            ▼                                      │ (model, scale) pair
//!  <root>/<model>/x<scale>/v0001-<digest>.sesrckpt ─┘
//! ```
//!
//! * [`Checkpoint`] wraps the `sesr_nn::serialize` compact binary f32 tensor
//!   format in a self-validating container: magic, format version, metadata
//!   header (model id, scale, tensor count, training-config digest, encoding
//!   name) and a trailing FNV-1a 64 checksum.
//! * [`ModelStore`] is the on-disk side: content-addressed, versioned
//!   artifact files under a store root, written atomically (temp file +
//!   rename), with every corruption mode surfaced as a typed [`StoreError`].
//! * [`ModelRegistry`] is the in-process side: it memoizes validated
//!   checkpoints so a whole worker pool hydrates from one load.
//!
//! Downstream wiring: `sesr_models::SrModelKind::build_from_store` and
//! `sesr_classifiers::ClassifierKind::build_from_store` hydrate networks
//! (falling back to seeded-random **only** when nothing is stored), the
//! trainers gain `train_and_save`, and `sesr-serve` builds whole worker pools
//! from a store path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod registry;
pub mod store;

pub use checkpoint::{
    fnv1a64, Checkpoint, CheckpointMeta, Fnv1a64, CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MAGIC,
};
pub use error::{Result, StoreError};
pub use registry::ModelRegistry;
pub use store::{slugify, ModelStore, StoredArtifact, ARTIFACT_EXTENSION};
