//! The composable evaluation-plan API.
//!
//! The paper's evidence is a grid of scenarios — SR model × scale ×
//! preprocessing × attack × ε × classifier — and this module makes that grid
//! a first-class, declarative object instead of a set of hard-coded table
//! drivers:
//!
//! * [`EvalPlan`] declares an ordered list of named [`Scenario`]s (grids are
//!   just constructors that fan a config out into scenarios) and executes
//!   them on a share-nothing worker pool, one scenario per worker at a time.
//! * [`ModelBank`] is the *train-once* model provider: every trained model a
//!   scenario needs is hydrated through `sesr-store`'s
//!   [`ModelRegistry`](sesr_store::ModelRegistry), and a missing artifact is
//!   trained exactly once per `(kind, experiment-config)` pair — concurrent
//!   scenarios wait on the first trainer instead of re-training, and a
//!   second plan run over a warm store trains nothing at all.
//! * [`EvalSink`] streams results out as they complete (in declaration
//!   order, so output is deterministic): [`TextTableSink`] for humans,
//!   [`JsonSink`] for machine-readable artifacts, [`CsvSink`] for
//!   spreadsheets.
//! * [`CustomScenario`] is the extension point for scenarios that need
//!   machinery above this crate — e.g. `sesr-serve`'s gateway evaluation,
//!   which pushes attacked images through `DefenseGateway` routes instead of
//!   calling the pipeline directly.
//!
//! The paper's tables are the plan constructors [`EvalPlan::table1`] ..
//! [`EvalPlan::table4`]; [`TextTableSink`] renders their records.
//!
//! # Example
//!
//! ```no_run
//! use sesr_defense::eval::{EvalPlan, ModelBank};
//! use sesr_defense::experiments::ExperimentConfig;
//!
//! let config = ExperimentConfig::quick();
//! let bank = ModelBank::open("/tmp/eval-store", config.clone())?;
//! let report = EvalPlan::table1(&config)
//!     .extend(EvalPlan::table2(&config))
//!     .run(&bank)?;
//! assert!(report.ok());
//! // A second run over the same store hydrates everything and trains nothing.
//! # Ok::<(), sesr_tensor::TensorError>(())
//! ```

mod bank;
mod plan;
mod record;
mod scenario;
mod sink;

pub use bank::{ModelBank, TrainCounts};
pub use plan::{EvalPlan, PlanReport, ScenarioMeta, ScenarioReport, ScenarioStatus};
pub use record::{EvalRecord, FieldValue};
pub use scenario::{adversarial_sets, CustomScenario, DefenseSpec, Scenario, ScenarioSpec};
pub use sink::{CsvSink, EvalSink, JsonSink, TextTableSink};
