//! Table IV bench: the analytic Ethos-U55-class latency estimation itself
//! (spec construction + roofline evaluation for every SR model and the
//! enlarged MobileNet-V2), across NPU configurations. The estimated
//! millisecond/FPS rows are printed by
//! `cargo run -p sesr-bench --bin tables -- table4` and by this bench's
//! setup output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sesr_classifiers::cost::mobilenet_v2_paper_spec;
use sesr_defense::eval::{EvalPlan, EvalSink, ModelBank, TextTableSink};
use sesr_defense::experiments::{table4_sr_models, ExperimentConfig};
use sesr_npu::{estimate_network, estimate_pipeline, NpuConfig};
use std::time::Duration;

fn print_table4_rows() {
    let npu = NpuConfig::ethos_u55_256();
    let Ok(bank) = ModelBank::ephemeral(ExperimentConfig::quick()) else {
        return;
    };
    eprintln!("Table IV — end-to-end latency on {}", npu.name);
    let mut table = TextTableSink::new(std::io::stderr());
    let mut sinks: [&mut dyn EvalSink; 1] = [&mut table];
    // Setup output only: a failed print must not fail the bench.
    let _ = EvalPlan::table4(&npu).run_with_sinks(&bank, &mut sinks);
}

fn npu_estimation(c: &mut Criterion) {
    print_table4_rows();
    let classifier = mobilenet_v2_paper_spec();
    let mut group = c.benchmark_group("table4_npu_estimation");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));

    for kind in table4_sr_models() {
        let sr_spec = kind.paper_spec().expect("learned model");
        let npu = NpuConfig::ethos_u55_256();
        group.bench_with_input(
            BenchmarkId::new("pipeline_estimate", kind.name()),
            &kind,
            |b, _| {
                b.iter(|| {
                    estimate_pipeline(&sr_spec, &classifier, (3, 299, 299), 2, &npu)
                        .expect("estimate")
                });
            },
        );
    }
    group.finish();
}

fn npu_config_sweep(c: &mut Criterion) {
    let spec = sesr_models::SrModelKind::SesrM2
        .paper_spec()
        .expect("learned model");
    let mut group = c.benchmark_group("table4_npu_config_sweep");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    for npu in [
        NpuConfig::ethos_u55_128(),
        NpuConfig::ethos_u55_256(),
        NpuConfig::ethos_n78_like(),
    ] {
        group.bench_with_input(
            BenchmarkId::new("sesr_m2_estimate", npu.name.clone()),
            &npu,
            |b, npu| {
                b.iter(|| estimate_network(&spec, (3, 299, 299), npu).expect("estimate"));
            },
        );
    }
    group.finish();
}

criterion_group!(table4, npu_estimation, npu_config_sweep);
criterion_main!(table4);
