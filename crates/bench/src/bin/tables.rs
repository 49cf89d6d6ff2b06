//! The evaluation-plan runner (formerly the hard-coded table regenerator).
//!
//! ```text
//! tables [selection] [scale] [flags]
//!
//!   selection   all | table1 | table2 | table3 | table4 | transfer | gateway
//!               (default: all)
//!   scale       smoke | quick | full          (default: quick)
//!
//!   --list             print the selected scenario names and exit
//!   --filter A,B,..    keep scenarios whose name contains any substring
//!   --attacks a,b,..   override the attack grid (fgsm, pgd, apgd, di2fgsm)
//!   --json PATH        write the machine-readable JSON artifact
//!   --csv PATH         write the results as CSV
//!   --store DIR        persistent model store (default: throw-away temp dir);
//!                      a warm store skips every training run it already holds
//!   --workers N        cap the scenario worker pool
//!   --telemetry PATH   write a TelemetrySnapshot JSON (per-scenario timings,
//!                      store hydrate/publish metrics) after the run; the
//!                      file is schema v2 and feeds `sesr-top PATH --check`
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release -p sesr-bench --bin tables -- all quick
//! cargo run --release -p sesr-bench --bin tables -- table2 full --store eval-store
//! cargo run --release -p sesr-bench --bin tables -- all smoke \
//!     --filter transfer/mobilenet-v2-to-resnet-50,gateway/mobilenet-v2,table2/mobilenet-v2 \
//!     --attacks fgsm,pgd --json BENCH_eval_smoke.json
//! ```
//!
//! The process exits non-zero when any selected scenario fails, so CI can
//! gate on it.

#![forbid(unsafe_code)]

use sesr_attacks::AttackKind;
use sesr_bench::cli::{exit_usage, Cli};
use sesr_classifiers::ClassifierKind;
use sesr_defense::eval::{CsvSink, EvalPlan, EvalSink, JsonSink, ModelBank, TextTableSink};
use sesr_defense::experiments::ExperimentConfig;
use sesr_models::SrModelKind;
use sesr_npu::NpuConfig;
use sesr_serve::GatewayScenario;
use sesr_store::ModelStore;
use sesr_telemetry::Telemetry;
use std::sync::Arc;

const USAGE: &str =
    "usage: tables [all|table1|table2|table3|table4|transfer|gateway] [smoke|quick|full]\n\
     \x20      [--list] [--filter A,B] [--attacks a,b] [--json PATH] [--csv PATH]\n\
     \x20      [--store DIR] [--workers N] [--telemetry PATH]";

fn config_for_scale(scale: &str) -> ExperimentConfig {
    match scale {
        // The test-scale grid (seconds): two classifiers so the transfer and
        // gateway scenarios are expressible, everything else minimal.
        "smoke" => {
            let mut config = ExperimentConfig::quick();
            config.classifiers = vec![ClassifierKind::MobileNetV2, ClassifierKind::ResNet50];
            config
        }
        "quick" => {
            // A configuration that exercises every code path in a few minutes:
            // two classifiers, two attacks, and a representative SR subset.
            //
            // Note on epsilon: the synthetic 24x24 task has a wider decision
            // margin than ImageNet at 299x299, so the attack budget is raised
            // (0.12 instead of 8/255) to obtain attack success rates in the
            // same regime as the paper's Table II.
            let mut config = ExperimentConfig::quick();
            config.num_classes = 6;
            config.train_size = 96;
            config.val_size = 48;
            config.image_size = 24;
            config.eval_images = 12;
            config.classifier_epochs = 10;
            config.sr_epochs = 20;
            config.sr_train_size = 24;
            config.sr_val_size = 8;
            config.sr_hr_size = 24;
            config.attack = sesr_attacks::AttackConfig::paper()
                .with_epsilon(0.12)
                .with_steps(8);
            config.attacks = vec![AttackKind::Fgsm, AttackKind::Pgd];
            config.sr_kinds = vec![
                SrModelKind::NearestNeighbor,
                SrModelKind::Fsrcnn,
                SrModelKind::SesrM2,
            ];
            config.classifiers = vec![ClassifierKind::MobileNetV2, ClassifierKind::ResNet50];
            config
        }
        "full" => ExperimentConfig::full(),
        _ => exit_usage(USAGE),
    }
}

fn table3_config(base: &ExperimentConfig, attacks_overridden: bool) -> ExperimentConfig {
    // Table III uses the larger classifiers and PGD/APGD; `EvalPlan::table3`
    // keeps the learned SR models.
    let mut config = base.clone();
    config.classifiers = base
        .classifiers
        .iter()
        .copied()
        .filter(|k| *k != ClassifierKind::MobileNetV2)
        .collect();
    if config.classifiers.is_empty() {
        config.classifiers = vec![ClassifierKind::ResNet50];
    }
    // An explicit --attacks list wins over the paper's PGD/APGD default —
    // silently substituting PGD for a user-requested grid would misattribute
    // the rows.
    if !attacks_overridden {
        config.attacks = base
            .attacks
            .iter()
            .copied()
            .filter(|a| matches!(a, AttackKind::Pgd | AttackKind::Apgd))
            .collect();
        if config.attacks.is_empty() {
            config.attacks = vec![AttackKind::Pgd];
        }
    }
    config
}

/// The gateway plan: one serving-stack evaluation per classifier, routing
/// every configured SR model.
fn gateway_plan(config: &ExperimentConfig) -> EvalPlan {
    let mut plan = EvalPlan::new("gateway");
    for classifier in &config.classifiers {
        plan = plan.custom(
            format!("gateway/{}", classifier.slug()),
            Arc::new(GatewayScenario::paper(
                *classifier,
                config.sr_kinds.iter().copied(),
                config.attacks.clone(),
            )),
        );
    }
    plan
}

fn plan_for_selection(
    selection: &str,
    config: &ExperimentConfig,
    attacks_overridden: bool,
) -> EvalPlan {
    match selection {
        "all" => EvalPlan::new("all")
            .extend(EvalPlan::table1(config))
            .extend(EvalPlan::table2(config))
            .extend(EvalPlan::table3(&table3_config(config, attacks_overridden)))
            .extend(EvalPlan::table4(&NpuConfig::ethos_u55_256()))
            .extend(EvalPlan::transfer(config))
            .extend(gateway_plan(config)),
        "table1" => EvalPlan::table1(config),
        "table2" => EvalPlan::table2(config),
        "table3" => EvalPlan::table3(&table3_config(config, attacks_overridden)),
        "table4" => EvalPlan::table4(&NpuConfig::ethos_u55_256()),
        "transfer" => EvalPlan::transfer(config),
        "gateway" => gateway_plan(config),
        _ => exit_usage(USAGE),
    }
}

struct Args {
    selection: String,
    scale: String,
    list: bool,
    filter: Vec<String>,
    attacks: Option<Vec<AttackKind>>,
    json: Option<String>,
    csv: Option<String>,
    store: Option<String>,
    workers: Option<usize>,
    telemetry: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        selection: "all".to_string(),
        scale: "quick".to_string(),
        list: false,
        filter: Vec::new(),
        attacks: None,
        json: None,
        csv: None,
        store: None,
        workers: None,
        telemetry: None,
    };
    let mut positional = 0usize;
    let mut cli = Cli::from_env(USAGE);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--list" => args.list = true,
            "--filter" => {
                args.filter = cli
                    .value(&arg)
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--attacks" => {
                let parsed: Option<Vec<AttackKind>> = cli
                    .value(&arg)
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(AttackKind::parse)
                    .collect();
                match parsed {
                    Some(kinds) if !kinds.is_empty() => args.attacks = Some(kinds),
                    _ => cli.fail("--attacks: unknown attack name"),
                }
            }
            "--json" => args.json = Some(cli.value(&arg)),
            "--csv" => args.csv = Some(cli.value(&arg)),
            "--store" => args.store = Some(cli.value(&arg)),
            "--telemetry" => args.telemetry = Some(cli.value(&arg)),
            "--workers" => args.workers = Some(cli.positive(&arg)),
            flag if flag.starts_with("--") => cli.unknown(flag),
            _ => {
                match positional {
                    0 => args.selection = arg,
                    1 => args.scale = arg,
                    _ => cli.fail(&format!("unexpected argument {arg}")),
                }
                positional += 1;
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut config = config_for_scale(&args.scale);
    if let Some(attacks) = &args.attacks {
        config.attacks = attacks.clone();
    }

    let telemetry = args.telemetry.as_ref().map(|_| Arc::new(Telemetry::new()));

    let mut plan =
        plan_for_selection(&args.selection, &config, args.attacks.is_some()).filter(&args.filter);
    if let Some(workers) = args.workers {
        plan = plan.workers(workers);
    }
    if let Some(hub) = &telemetry {
        plan = plan.with_telemetry(hub);
    }
    if args.list {
        for name in plan.names() {
            println!("{name}");
        }
        return;
    }
    if plan.is_empty() {
        eprintln!(
            "no scenarios selected (selection {:?}, filter {:?})",
            args.selection, args.filter
        );
        std::process::exit(2);
    }

    // One bank for the whole run: scenarios (and tables) sharing a trained
    // model train it once. With --store the reuse also spans invocations.
    // A persistent store joins the telemetry hub so the snapshot also carries
    // hydrate/publish timings; the ephemeral bank owns its throw-away store,
    // so there the snapshot covers per-scenario timings only.
    let bank = match (&args.store, &telemetry) {
        (Some(root), Some(hub)) => ModelStore::open(root)
            .map_err(sesr_tensor::TensorError::from)
            .map(|store| ModelBank::new(store.with_telemetry(Arc::clone(hub)), config.clone())),
        (Some(root), None) => ModelBank::open(root, config.clone()),
        (None, _) => ModelBank::ephemeral(config.clone()),
    };
    let bank = match bank {
        Ok(bank) => bank,
        Err(err) => {
            eprintln!("cannot open model store: {err}");
            std::process::exit(1);
        }
    };

    println!(
        "running {} scenario(s) at {} scale (store: {})",
        plan.len(),
        args.scale,
        bank.store().root().display()
    );

    let mut text = TextTableSink::new(std::io::stdout());
    let mut json = args.json.as_ref().map(JsonSink::to_path);
    let mut csv_file = match &args.csv {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(CsvSink::new(file)),
            Err(err) => {
                eprintln!("cannot create {path}: {err}");
                std::process::exit(1);
            }
        },
        None => None,
    };
    let mut sinks: Vec<&mut dyn EvalSink> = vec![&mut text];
    if let Some(sink) = json.as_mut() {
        sinks.push(sink);
    }
    if let Some(sink) = csv_file.as_mut() {
        sinks.push(sink);
    }

    let report = match plan.run_with_sinks(&bank, &mut sinks) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("plan failed: {err}");
            std::process::exit(1);
        }
    };

    let counts = bank.train_counts();
    println!(
        "trained {} SR model(s) and {} classifier(s) this run; registry {} hit(s) / {} miss(es)",
        counts.sr_models,
        counts.classifiers,
        bank.registry().hit_counts().0,
        bank.registry().hit_counts().1,
    );
    // The snapshot is written even when scenarios failed: the timings and the
    // `eval.scenario_failed` journal entries are most useful exactly then.
    if let (Some(path), Some(hub)) = (&args.telemetry, &telemetry) {
        if let Err(err) = sesr_serve::write_snapshot_atomic(path.as_ref(), &hub.snapshot()) {
            eprintln!("cannot write telemetry snapshot {path}: {err}");
            std::process::exit(1);
        }
        println!("telemetry snapshot written to {path}");
    }

    let failures = report.failures();
    if !failures.is_empty() || !report.sink_errors.is_empty() {
        for failure in &failures {
            eprintln!("scenario {} failed", failure.meta.name);
        }
        for sink_error in &report.sink_errors {
            eprintln!("sink failed: {sink_error}");
        }
        std::process::exit(1);
    }
    if let Some(path) = &args.json {
        println!("JSON artifact written to {path}");
    }
}
