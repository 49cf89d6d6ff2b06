//! The plan object: an ordered set of scenarios, a parallel executor, and
//! the report it produces.

use crate::eval::bank::ModelBank;
use crate::eval::record::EvalRecord;
use crate::eval::scenario::{execute, CustomScenario, DefenseSpec, Scenario, ScenarioSpec};
use crate::eval::sink::EvalSink;
use crate::experiments::ExperimentConfig;
use crate::pipeline::PreprocessConfig;
use crate::Result;
use sesr_npu::NpuConfig;
use sesr_telemetry::{Counter, Level, Probe, Telemetry};
use sesr_tensor::TensorError;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identity of one scenario inside a plan run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioMeta {
    /// Position in the plan's declaration order.
    pub index: usize,
    /// The scenario's unique name.
    pub name: String,
    /// Short kind tag (`"robustness"`, `"gateway"`, …).
    pub kind: &'static str,
}

/// How one scenario ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioStatus {
    /// The scenario ran to completion.
    Completed {
        /// Number of result records it produced.
        records: usize,
    },
    /// The scenario failed; the rest of the plan still ran.
    Failed {
        /// The error message.
        error: String,
    },
}

impl ScenarioStatus {
    /// `true` for [`ScenarioStatus::Completed`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ScenarioStatus::Completed { .. })
    }
}

/// One scenario's full outcome.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Which scenario this is.
    pub meta: ScenarioMeta,
    /// Completion status.
    pub status: ScenarioStatus,
    /// Wall-clock execution time.
    pub duration: Duration,
    /// The result rows (empty when failed).
    pub records: Vec<EvalRecord>,
}

/// The outcome of a whole plan run, in declaration order.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The plan's name.
    pub plan: String,
    /// Per-scenario outcomes in declaration order.
    pub scenarios: Vec<ScenarioReport>,
    /// Errors from sinks that failed mid-run. A failing sink is disabled
    /// and recorded here; the scenarios (and the other sinks) carry on, so
    /// results are never lost to a broken output channel.
    pub sink_errors: Vec<String>,
}

impl PlanReport {
    /// `true` when every scenario completed (sink failures are reported
    /// separately in [`PlanReport::sink_errors`]).
    pub fn ok(&self) -> bool {
        self.scenarios.iter().all(|s| s.status.is_ok())
    }

    /// The scenarios that failed.
    pub fn failures(&self) -> Vec<&ScenarioReport> {
        self.scenarios
            .iter()
            .filter(|s| !s.status.is_ok())
            .collect()
    }

    /// Look a scenario up by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.meta.name == name)
    }

    /// Every record of every scenario, in declaration order.
    pub fn records(&self) -> impl Iterator<Item = &EvalRecord> {
        self.scenarios.iter().flat_map(|s| s.records.iter())
    }

    /// Total number of records across scenarios.
    pub fn record_count(&self) -> usize {
        self.scenarios.iter().map(|s| s.records.len()).sum()
    }
}

/// Telemetry hooks of an instrumented plan: per-scenario durations and
/// completion/failure counts.
#[derive(Debug, Clone)]
struct PlanTelemetry {
    /// Journals `eval.scenario` per completed scenario (request = the
    /// scenario's declaration index) and feeds `eval.scenario_ns`.
    scenario: Probe,
    /// Journals `eval.scenario_failed` at Warn for failed scenarios.
    scenario_failed: Probe,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
}

/// A declarative, ordered set of named scenarios, executed in parallel on a
/// share-nothing worker pool and streamed to sinks in declaration order.
#[derive(Debug, Clone)]
pub struct EvalPlan {
    name: String,
    scenarios: Vec<Scenario>,
    workers: Option<usize>,
    telemetry: Option<PlanTelemetry>,
}

impl EvalPlan {
    /// An empty plan.
    pub fn new(name: impl Into<String>) -> Self {
        EvalPlan {
            name: name.into(),
            scenarios: Vec::new(),
            workers: None,
            telemetry: None,
        }
    }

    /// Record execution telemetry into `hub`: each completed scenario's
    /// wall-clock duration lands in the `eval.scenario_ns` histogram and an
    /// `eval.scenario` journal event (tagged with the scenario's declaration
    /// index); completions and failures are counted as
    /// `eval.scenarios_completed` / `eval.scenarios_failed`.
    pub fn with_telemetry(mut self, hub: &Telemetry) -> Self {
        self.telemetry = Some(PlanTelemetry {
            scenario: hub.probe("eval.scenario", Level::Info, Some("eval.scenario_ns")),
            scenario_failed: hub.probe("eval.scenario_failed", Level::Warn, None),
            completed: hub.metrics().counter("eval.scenarios_completed"),
            failed: hub.metrics().counter("eval.scenarios_failed"),
        });
        self
    }

    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Append a scenario.
    pub fn scenario(mut self, name: impl Into<String>, spec: ScenarioSpec) -> Self {
        self.scenarios.push(Scenario {
            name: name.into(),
            spec,
        });
        self
    }

    /// Append an externally implemented scenario (e.g. `sesr-serve`'s
    /// gateway evaluation).
    pub fn custom(self, name: impl Into<String>, custom: Arc<dyn CustomScenario>) -> Self {
        self.scenario(name, ScenarioSpec::Custom(custom))
    }

    /// Append every scenario of `other` (names must stay unique).
    pub fn extend(mut self, other: EvalPlan) -> Self {
        self.scenarios.extend(other.scenarios);
        self
    }

    /// Keep only scenarios whose name contains at least one of `needles`
    /// (an empty needle list keeps everything).
    pub fn filter(mut self, needles: &[String]) -> Self {
        if !needles.is_empty() {
            self.scenarios.retain(|s| {
                needles
                    .iter()
                    .any(|needle| s.name.contains(needle.as_str()))
            });
        }
        self
    }

    /// Cap the worker pool (default: available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when the plan has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The scenario names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name.as_str()).collect()
    }

    /// The scenarios in declaration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The Table I plan: one [`ScenarioSpec::SrQuality`] scenario per
    /// learned SR model in the config.
    pub fn table1(config: &ExperimentConfig) -> EvalPlan {
        let mut plan = EvalPlan::new("table1");
        for kind in config.sr_kinds.iter().filter(|k| k.is_learned()) {
            plan = plan.scenario(
                format!("table1/{}", kind.slug()),
                ScenarioSpec::SrQuality { sr: *kind },
            );
        }
        plan
    }

    /// The Table II plan: one [`ScenarioSpec::Robustness`] section per
    /// classifier — "No Defense" plus every configured SR model, against
    /// every configured attack at the config's ε.
    pub fn table2(config: &ExperimentConfig) -> EvalPlan {
        let mut defenses = vec![DefenseSpec::none()];
        defenses.extend(config.sr_kinds.iter().map(|k| DefenseSpec::paper(*k)));
        robustness_grid("table2", config, defenses)
    }

    /// The Table III plan: one [`ScenarioSpec::Robustness`] section per
    /// classifier with two rows per learned SR model — the paper
    /// configuration and the same model without the JPEG stage. The JPEG
    /// row is the Table II row of the same classifier, attack and model.
    pub fn table3(config: &ExperimentConfig) -> EvalPlan {
        let defenses = config
            .sr_kinds
            .iter()
            .filter(|k| k.is_learned())
            .flat_map(|k| {
                [
                    DefenseSpec::paper(*k),
                    DefenseSpec::new(*k, 2, PreprocessConfig::without_jpeg()),
                ]
            })
            .collect();
        robustness_grid("table3", config, defenses)
    }

    /// The Table IV plan: one [`ScenarioSpec::NpuLatency`] scenario per SR
    /// model of the paper's Table IV row order.
    pub fn table4(npu: &NpuConfig) -> EvalPlan {
        let mut plan = EvalPlan::new("table4");
        for kind in crate::experiments::table4_sr_models() {
            plan = plan.scenario(
                format!("table4/{}", kind.slug()),
                ScenarioSpec::NpuLatency {
                    sr: kind,
                    npu: npu.clone(),
                },
            );
        }
        plan
    }

    /// The transfer-attack plan: one [`ScenarioSpec::Robustness`] scenario
    /// with a `surrogate` per ordered pair of distinct configured
    /// classifiers, over "No Defense" plus the configured SR models.
    pub fn transfer(config: &ExperimentConfig) -> EvalPlan {
        let mut defenses = vec![DefenseSpec::none()];
        defenses.extend(config.sr_kinds.iter().map(|k| DefenseSpec::paper(*k)));
        let mut plan = EvalPlan::new("transfer");
        for source in &config.classifiers {
            for target in config.classifiers.iter().filter(|t| *t != source) {
                plan = plan.scenario(
                    format!("transfer/{}-to-{}", source.slug(), target.slug()),
                    ScenarioSpec::Robustness {
                        classifier: *target,
                        surrogate: Some(*source),
                        defenses: defenses.clone(),
                        attacks: config.attacks.clone(),
                        epsilons: vec![config.attack.epsilon],
                    },
                );
            }
        }
        plan
    }

    /// Execute the plan without sinks; results live in the returned report.
    ///
    /// # Errors
    ///
    /// Returns an error only for plan-level failures (duplicate scenario
    /// names). Individual scenario failures are recorded in the report —
    /// check [`PlanReport::ok`].
    pub fn run(&self, bank: &ModelBank) -> Result<PlanReport> {
        self.run_with_sinks(bank, &mut [])
    }

    /// Execute the plan, streaming results to `sinks`.
    ///
    /// Scenarios run share-nothing on a pool of up to
    /// [`EvalPlan::workers`] threads (default: available parallelism, capped
    /// by the scenario count). Completed scenarios are emitted to the sinks
    /// in **declaration order** as soon as their prefix is complete, so sink
    /// output is deterministic regardless of scheduling.
    ///
    /// A sink that fails (e.g. stdout closed behind a `| head`) is disabled
    /// for the rest of the run and its error recorded in
    /// [`PlanReport::sink_errors`]; the other sinks keep streaming and the
    /// computed results are never lost.
    ///
    /// # Errors
    ///
    /// Returns an error for duplicate scenario names. Individual scenario
    /// failures (an error or a panic) are recorded in the report instead —
    /// check [`PlanReport::ok`] — and sink failures in
    /// [`PlanReport::sink_errors`].
    pub fn run_with_sinks(
        &self,
        bank: &ModelBank,
        sinks: &mut [&mut dyn EvalSink],
    ) -> Result<PlanReport> {
        for (i, scenario) in self.scenarios.iter().enumerate() {
            if self.scenarios[..i].iter().any(|s| s.name == scenario.name) {
                return Err(TensorError::invalid_argument(format!(
                    "scenario {:?} is declared twice",
                    scenario.name
                )));
            }
        }
        let total = self.scenarios.len();
        let mut sink_alive: Vec<bool> = vec![true; sinks.len()];
        let mut sink_errors: Vec<String> = Vec::new();
        for (index, sink) in sinks.iter_mut().enumerate() {
            if let Err(err) = sink.begin_plan(&self.name, total) {
                sink_alive[index] = false;
                sink_errors.push(err.to_string());
            }
        }

        let worker_count = self
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, total.max(1));

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Duration, Result<Vec<EvalRecord>>)>();
        let scenarios = &self.scenarios;
        let mut slots: Vec<Option<ScenarioReport>> = (0..total).map(|_| None).collect();

        std::thread::scope(|scope| {
            for _ in 0..worker_count {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    // lint: allow(atomic-ordering): work-stealing index; Relaxed suffices, no data published through it
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let started = Instant::now();
                    // A panicking scenario fails alone: its worker lives on
                    // to run the rest of the plan.
                    let result =
                        catch_unwind(AssertUnwindSafe(|| execute(&scenarios[index], bank)))
                            .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())));
                    if tx.send((index, started.elapsed(), result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // Stream completed scenarios to the sinks in declaration order.
            let mut emitted = 0usize;
            while let Ok((index, duration, result)) = rx.recv() {
                let meta = ScenarioMeta {
                    index,
                    name: scenarios[index].name.clone(),
                    kind: scenarios[index].spec.kind(),
                };
                let (status, records) = match result {
                    Ok(records) => (
                        ScenarioStatus::Completed {
                            records: records.len(),
                        },
                        records,
                    ),
                    Err(err) => (
                        ScenarioStatus::Failed {
                            error: err.to_string(),
                        },
                        Vec::new(),
                    ),
                };
                if let Some(telemetry) = &self.telemetry {
                    if status.is_ok() {
                        telemetry.completed.incr();
                        telemetry.scenario.observe(index as u64, duration);
                    } else {
                        telemetry.failed.incr();
                        telemetry.scenario_failed.observe(index as u64, duration);
                    }
                }
                slots[index] = Some(ScenarioReport {
                    meta,
                    status,
                    duration,
                    records,
                });
                while emitted < total {
                    let Some(report) = &slots[emitted] else { break };
                    emit_scenario(sinks, &mut sink_alive, &mut sink_errors, report);
                    emitted += 1;
                }
            }
        });

        let mut report = PlanReport {
            plan: self.name.clone(),
            scenarios: slots.into_iter().flatten().collect(),
            sink_errors: Vec::new(),
        };
        for (index, sink) in sinks.iter_mut().enumerate() {
            if !sink_alive[index] {
                continue;
            }
            if let Err(err) = sink.end_plan(&report) {
                sink_errors.push(err.to_string());
            }
        }
        report.sink_errors = sink_errors;
        Ok(report)
    }
}

/// One gray-box [`ScenarioSpec::Robustness`] section per configured
/// classifier, named `<plan>/<classifier>`, over `defenses` × the config's
/// attacks at its ε.
fn robustness_grid(plan: &str, config: &ExperimentConfig, defenses: Vec<DefenseSpec>) -> EvalPlan {
    let mut grid = EvalPlan::new(plan);
    for classifier in &config.classifiers {
        grid = grid.scenario(
            format!("{plan}/{}", classifier.slug()),
            ScenarioSpec::Robustness {
                classifier: *classifier,
                surrogate: None,
                defenses: defenses.clone(),
                attacks: config.attacks.clone(),
                epsilons: vec![config.attack.epsilon],
            },
        );
    }
    grid
}

/// The error a scenario that panicked is reported with.
fn panic_error(payload: &(dyn Any + Send)) -> TensorError {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    TensorError::invalid_argument(format!("scenario panicked: {message}"))
}

/// Emit one scenario to every still-healthy sink, disabling (and recording)
/// any sink that fails so the remaining sinks keep their artifacts.
fn emit_scenario(
    sinks: &mut [&mut dyn EvalSink],
    sink_alive: &mut [bool],
    sink_errors: &mut Vec<String>,
    report: &ScenarioReport,
) {
    for (index, sink) in sinks.iter_mut().enumerate() {
        if !sink_alive[index] {
            continue;
        }
        let result = sink.begin_scenario(&report.meta).and_then(|()| {
            for record in &report.records {
                sink.record(&report.meta, record)?;
            }
            sink.end_scenario(&report.meta, &report.status, report.duration)
        });
        if let Err(err) = result {
            sink_alive[index] = false;
            sink_errors.push(err.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_models::SrModelKind;

    fn npu_plan() -> EvalPlan {
        EvalPlan::table4(&NpuConfig::ethos_u55_256())
    }

    fn tiny_bank() -> ModelBank {
        ModelBank::ephemeral(ExperimentConfig::quick()).unwrap()
    }

    #[test]
    fn plan_builders_cover_the_config() {
        let config = ExperimentConfig::quick();
        assert_eq!(EvalPlan::table1(&config).len(), 1, "one learned kind");
        assert_eq!(EvalPlan::table2(&config).len(), config.classifiers.len());
        assert_eq!(EvalPlan::table3(&config).len(), config.classifiers.len());
        assert_eq!(npu_plan().len(), 4);
        // One classifier -> no transfer pairs; two -> both ordered pairs.
        assert!(EvalPlan::transfer(&config).is_empty());
        let mut two = config.clone();
        two.classifiers = sesr_classifiers::ClassifierKind::all();
        assert_eq!(EvalPlan::transfer(&two).len(), 6);
    }

    #[test]
    fn filter_selects_by_substring() {
        let plan = npu_plan();
        assert_eq!(
            plan.clone()
                .filter(&["sesr-m2".to_string(), "fsrcnn".to_string()])
                .names(),
            vec!["table4/fsrcnn", "table4/sesr-m2"]
        );
        assert_eq!(plan.clone().filter(&[]).len(), 4, "empty filter keeps all");
        assert!(plan.filter(&["nonexistent".to_string()]).is_empty());
    }

    #[test]
    fn run_executes_in_declaration_order_and_reports() {
        let bank = tiny_bank();
        let report = npu_plan().workers(3).run(&bank).unwrap();
        assert!(report.ok());
        assert_eq!(report.scenarios.len(), 4);
        let names: Vec<_> = report.scenarios.iter().map(|s| &s.meta.name).collect();
        assert_eq!(
            names,
            vec![
                "table4/fsrcnn",
                "table4/sesr-m5",
                "table4/sesr-m3",
                "table4/sesr-m2"
            ]
        );
        assert_eq!(report.record_count(), 4);
        assert_eq!(
            report.scenario("table4/sesr-m2").unwrap().records[0].get_text("sr_model"),
            Some("SESR-M2")
        );
        assert_eq!(bank.train_counts().total(), 0, "table 4 is analytic");
    }

    #[test]
    fn failed_scenarios_are_reported_not_fatal() {
        struct Failing;
        impl CustomScenario for Failing {
            fn run(&self, _bank: &ModelBank) -> Result<Vec<EvalRecord>> {
                Err(TensorError::invalid_argument("boom"))
            }
        }
        struct Panicking;
        impl CustomScenario for Panicking {
            fn run(&self, _bank: &ModelBank) -> Result<Vec<EvalRecord>> {
                panic!("kaboom")
            }
        }
        let failing: [(&str, Arc<dyn CustomScenario>); 2] =
            [("boom", Arc::new(Failing)), ("kaboom", Arc::new(Panicking))];
        for (message, scenario) in failing {
            let bank = tiny_bank();
            // One worker: the scenario after the failing one must run on the
            // same thread.
            let plan = EvalPlan::new("mixed")
                .custom("will-fail", scenario)
                .scenario(
                    "will-pass",
                    ScenarioSpec::NpuLatency {
                        sr: SrModelKind::SesrM2,
                        npu: NpuConfig::ethos_u55_256(),
                    },
                )
                .workers(1);
            let report = plan.run(&bank).unwrap();
            assert!(!report.ok());
            assert_eq!(report.failures().len(), 1);
            assert_eq!(report.failures()[0].meta.name, "will-fail");
            assert!(matches!(
                &report.failures()[0].status,
                ScenarioStatus::Failed { error } if error.contains(message)
            ));
            assert!(report.scenario("will-pass").unwrap().status.is_ok());
        }
    }

    #[test]
    fn instrumented_plans_time_every_scenario() {
        let bank = tiny_bank();
        let hub = Telemetry::new();
        struct Failing;
        impl CustomScenario for Failing {
            fn run(&self, _bank: &ModelBank) -> Result<Vec<EvalRecord>> {
                Err(TensorError::invalid_argument("boom"))
            }
        }
        let plan = npu_plan()
            .custom("will-fail", Arc::new(Failing))
            .with_telemetry(&hub);
        let report = plan.run(&bank).unwrap();
        assert_eq!(report.scenarios.len(), 5);

        let snapshot = hub.snapshot();
        assert_eq!(snapshot.counter("eval.scenarios_completed"), Some(4));
        assert_eq!(snapshot.counter("eval.scenarios_failed"), Some(1));
        assert_eq!(snapshot.histogram("eval.scenario_ns").unwrap().count, 4);
        let failed: Vec<_> = snapshot
            .events
            .iter()
            .filter(|e| e.name == "eval.scenario_failed")
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(
            failed[0].request, 4,
            "the failure event carries the scenario's declaration index"
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let bank = tiny_bank();
        let plan = npu_plan().extend(npu_plan());
        assert!(plan.run(&bank).is_err());
    }

    #[test]
    fn a_failing_sink_is_disabled_without_losing_results() {
        use crate::eval::sink::JsonSink;

        /// A sink whose output channel breaks on the first record (think
        /// `| head` closing stdout).
        struct BrokenPipe {
            records_before_failure: usize,
        }
        impl EvalSink for BrokenPipe {
            fn record(&mut self, _meta: &ScenarioMeta, _record: &EvalRecord) -> Result<()> {
                self.records_before_failure += 1;
                Err(TensorError::invalid_argument("broken pipe"))
            }
        }

        let bank = tiny_bank();
        let mut broken = BrokenPipe {
            records_before_failure: 0,
        };
        let mut json = JsonSink::new();
        let mut sinks: Vec<&mut dyn EvalSink> = vec![&mut broken, &mut json];
        let report = npu_plan().run_with_sinks(&bank, &mut sinks).unwrap();

        assert!(report.ok(), "scenarios themselves all succeeded");
        assert_eq!(report.record_count(), 4, "no result was lost");
        assert_eq!(report.sink_errors.len(), 1);
        assert!(report.sink_errors[0].contains("broken pipe"));
        assert_eq!(
            broken.records_before_failure, 1,
            "the failing sink must be disabled after its first error"
        );
        assert!(
            json.rendered().contains("\"sr_model\": \"SESR-M2\""),
            "the healthy sink still produced its full artifact"
        );
    }
}
