//! Cross-crate integration tests on the analytic cost models and the NPU
//! estimator: the quantities behind Table I and Table IV.

use sesr_classifiers::cost::mobilenet_v2_paper_spec;
use sesr_defense::eval::{EvalPlan, ModelBank};
use sesr_defense::experiments::{table4_sr_models, ExperimentConfig};
use sesr_models::cost::{paper_cost, paper_reported, PAPER_INPUT};
use sesr_models::SrModelKind;
use sesr_npu::{estimate_network, estimate_pipeline, NpuConfig};

#[test]
fn every_learned_sr_model_cost_is_within_2x_of_the_paper() {
    for kind in SrModelKind::learned() {
        let computed = paper_cost(kind).unwrap().unwrap();
        let reported = paper_reported(kind).unwrap();
        let params_ratio = computed.params as f64 / reported.params as f64;
        let macs_ratio = computed.macs as f64 / reported.macs as f64;
        assert!(
            (0.5..2.0).contains(&params_ratio) && (0.5..2.0).contains(&macs_ratio),
            "{kind}: params ratio {params_ratio:.2}, macs ratio {macs_ratio:.2}"
        );
    }
}

#[test]
fn sesr_m2_is_roughly_6x_cheaper_than_fsrcnn_and_100x_cheaper_than_edsr_base() {
    let macs = |kind: SrModelKind| paper_cost(kind).unwrap().unwrap().macs as f64;
    let m2 = macs(SrModelKind::SesrM2);
    assert!((4.0..9.0).contains(&(macs(SrModelKind::Fsrcnn) / m2)));
    assert!(macs(SrModelKind::EdsrBase) / m2 > 50.0);
    assert!(macs(SrModelKind::Edsr) / m2 > 1000.0);
}

#[test]
fn enlarged_classifier_is_cheaper_than_fsrcnn_but_not_than_sesr() {
    // Section IV-E: the enlarged MobileNet-V2 costs ~2.1B MACs, which is less
    // than FSRCNN's 5.82B but more than any SESR-M variant.
    let classifier = mobilenet_v2_paper_spec().total_macs((3, 598, 598)).unwrap() as f64;
    let fsrcnn = paper_cost(SrModelKind::Fsrcnn).unwrap().unwrap().macs as f64;
    let sesr_m5 = paper_cost(SrModelKind::SesrM5).unwrap().unwrap().macs as f64;
    assert!(classifier < fsrcnn);
    assert!(classifier > sesr_m5);
}

#[test]
fn table4_reproduces_the_paper_orderings_and_fps_ratio() {
    let bank = ModelBank::ephemeral(ExperimentConfig::quick()).unwrap();
    let report = EvalPlan::table4(&NpuConfig::ethos_u55_256())
        .run(&bank)
        .unwrap();
    assert!(report.ok(), "failed scenarios: {:?}", report.failures());
    let rows: Vec<_> = report.records().collect();
    let names: Vec<&str> = rows.iter().filter_map(|r| r.get_text("sr_model")).collect();
    assert_eq!(names, vec!["FSRCNN", "SESR-M5", "SESR-M3", "SESR-M2"]);
    // Total latency strictly decreases down the table (Table IV shape).
    for pair in rows.windows(2) {
        assert!(pair[0].get_float("total_ms").unwrap() > pair[1].get_float("total_ms").unwrap());
    }
    // End-to-end FPS advantage of SESR-M2 over FSRCNN is roughly 3x in the
    // paper (15.06 vs 5.26); accept a generous band around it.
    let ratio = rows[3].get_float("fps").unwrap() / rows[0].get_float("fps").unwrap();
    assert!((1.8..6.0).contains(&ratio), "fps ratio {ratio}");
}

#[test]
fn npu_estimator_is_monotone_in_model_cost() {
    let npu = NpuConfig::ethos_u55_256();
    let mut latencies: Vec<(u64, f64)> = SrModelKind::learned()
        .into_iter()
        .map(|kind| {
            let spec = kind.paper_spec().unwrap();
            let macs = spec.total_macs(PAPER_INPUT).unwrap();
            let ms = estimate_network(&spec, PAPER_INPUT, &npu).unwrap().total_ms;
            (macs, ms)
        })
        .collect();
    latencies.sort_by_key(|(macs, _)| *macs);
    for pair in latencies.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1 + 1e-9,
            "latency should grow with MACs: {pair:?}"
        );
    }
}

#[test]
fn pipeline_estimate_decomposes_into_stages() {
    let npu = NpuConfig::ethos_u55_256();
    let classifier = mobilenet_v2_paper_spec();
    for kind in table4_sr_models() {
        let sr_spec = kind.paper_spec().unwrap();
        let pipeline = estimate_pipeline(&sr_spec, &classifier, (3, 299, 299), 2, &npu).unwrap();
        assert!((pipeline.total_ms - (pipeline.sr_ms + pipeline.classification_ms)).abs() < 1e-9);
        assert!(pipeline.fps > 0.0);
    }
}
