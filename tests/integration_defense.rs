//! End-to-end integration test: the complete Table I–III machinery — data
//! generation, SR training, classifier training, gray-box attacks, defense
//! pipelines — run as evaluation plans at a minutes-scale configuration.

use sesr_attacks::AttackKind;
use sesr_classifiers::ClassifierKind;
use sesr_defense::eval::{EvalPlan, EvalRecord, ModelBank};
use sesr_defense::experiments::ExperimentConfig;
use sesr_models::SrModelKind;

fn quick_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.sr_kinds = vec![SrModelKind::NearestNeighbor, SrModelKind::SesrM2];
    config.attacks = vec![AttackKind::Fgsm];
    config.classifiers = vec![ClassifierKind::MobileNetV2];
    config
}

/// Run `plan` from scratch (fresh store) and return its records; a failed
/// scenario fails the test.
fn run(plan: EvalPlan, config: &ExperimentConfig) -> Vec<EvalRecord> {
    let bank = ModelBank::ephemeral(config.clone()).expect("ephemeral bank");
    let report = plan.run(&bank).expect("plan run");
    assert!(report.ok(), "failed scenarios: {:?}", report.failures());
    report.records().cloned().collect()
}

#[test]
fn table1_pipeline_produces_complete_rows() {
    let mut config = quick_config();
    config.sr_kinds = vec![SrModelKind::SesrM2, SrModelKind::Fsrcnn];
    let rows = run(EvalPlan::table1(&config), &config);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert!(row.get_int("params").unwrap() > 0);
        assert!(row.get_int("macs").unwrap() > 0);
        assert!(row.get_float("measured_psnr").unwrap().is_finite());
        assert!(row.get_float("paper_psnr").is_some());
    }
    // SESR-M2 must be the cheaper of the two at paper scale.
    let macs = |model: &str| {
        rows.iter()
            .find(|r| r.get_text("model") == Some(model))
            .and_then(|r| r.get_int("macs"))
            .unwrap()
    };
    assert!(macs("SESR-M2") < macs("FSRCNN"));
}

#[test]
fn table2_pipeline_produces_structured_sections() {
    let config = quick_config();
    let cells = run(EvalPlan::table2(&config), &config);
    // One section (classifier); per section one row for "No Defense" plus one
    // per SR kind, each holding one cell per attack.
    assert_eq!(
        cells.len(),
        (1 + config.sr_kinds.len()) * config.attacks.len()
    );
    assert_eq!(cells[0].get_text("defense"), Some("No Defense"));
    for cell in &cells {
        assert_eq!(cell.get_text("classifier"), Some("MobileNet-V2"));
        // Evaluation subset is clean-correct by construction.
        assert!((cell.get_float("clean_accuracy").unwrap() - 1.0).abs() < 1e-6);
        assert_eq!(cell.get_text("attack"), Some("FGSM"));
        let accuracy = cell.get_float("robust_accuracy").unwrap();
        assert!((0.0..=1.0).contains(&accuracy), "{accuracy} out of range");
    }
    let mut defenses: Vec<&str> = cells.iter().filter_map(|c| c.get_text("defense")).collect();
    defenses.dedup();
    assert_eq!(defenses, ["No Defense", "Nearest Neighbor", "SESR-M2"]);
}

#[test]
fn table3_pipeline_reports_both_jpeg_settings() {
    let mut config = quick_config();
    config.sr_kinds = vec![SrModelKind::SesrM2];
    config.attacks = vec![AttackKind::Fgsm, AttackKind::Pgd];
    let bank = ModelBank::ephemeral(config.clone()).expect("ephemeral bank");
    let records = |plan: EvalPlan| {
        let report = plan.run(&bank).expect("plan run");
        assert!(report.ok(), "failed scenarios: {:?}", report.failures());
        report.records().cloned().collect::<Vec<_>>()
    };
    let rows = records(EvalPlan::table3(&config));
    let table2 = records(EvalPlan::table2(&config));
    // Two rows per (model, attack): with and without the JPEG stage.
    assert_eq!(rows.len(), 2 * config.attacks.len());
    let defense = |row: &EvalRecord| row.get_text("defense").map(str::to_string);
    let mut defenses: Vec<_> = rows.iter().filter_map(defense).collect();
    defenses.dedup();
    assert_eq!(defenses, ["SESR-M2", "SESR-M2 (wavelet2)"]);
    for row in &rows {
        assert!((0.0..=1.0).contains(&row.get_float("robust_accuracy").unwrap()));
    }
    // The JPEG row is measured on the same adversarial set as Table II, so
    // it is the Table II row, bit for bit, for FGSM and for PGD.
    for row in rows
        .iter()
        .filter(|r| r.get_text("defense") == Some("SESR-M2"))
    {
        let same_cell = |other: &&EvalRecord| {
            ["classifier", "attack", "defense"]
                .iter()
                .all(|key| other.get_text(key) == row.get_text(key))
        };
        assert_eq!(table2.iter().find(same_cell), Some(row));
    }
}
