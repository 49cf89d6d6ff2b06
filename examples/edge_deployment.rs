//! Edge-deployment planning: estimate the end-to-end latency of the defense
//! pipeline (enlarged MobileNet-V2 + each SR model) on micro-NPU
//! configurations, reproducing the shape of Table IV and sweeping the NPU
//! configuration as an extension.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example edge_deployment
//! ```

#![forbid(unsafe_code)]

use sesr_defense::eval::{EvalPlan, EvalSink, ModelBank, TextTableSink};
use sesr_defense::experiments::ExperimentConfig;
use sesr_models::SrModelKind;
use sesr_npu::{estimate_network, NpuConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Edge deployment latency planning ==\n");

    // Table IV reproduction on the default Ethos-U55-256-class configuration.
    // The plan is analytic, so the throw-away bank never trains anything.
    let u55 = NpuConfig::ethos_u55_256();
    println!("Table IV — end-to-end latency on {}", u55.name);
    let bank = ModelBank::ephemeral(ExperimentConfig::quick())?;
    let mut table = TextTableSink::new(std::io::stdout());
    let mut sinks: [&mut dyn EvalSink; 1] = [&mut table];
    let report = EvalPlan::table4(&u55).run_with_sinks(&bank, &mut sinks)?;
    assert!(report.ok(), "table IV plan must complete");

    // Extension: how does the picture change across NPU configurations?
    println!("\nNPU configuration sweep (SR-only latency for 299x299 -> 598x598):");
    println!(
        "{:<14} {:>16} {:>16} {:>16}",
        "SR Model", "U55-128 (ms)", "U55-256 (ms)", "N78-class (ms)"
    );
    let configs = [
        NpuConfig::ethos_u55_128(),
        NpuConfig::ethos_u55_256(),
        NpuConfig::ethos_n78_like(),
    ];
    for kind in [
        SrModelKind::SesrM2,
        SrModelKind::SesrM3,
        SrModelKind::SesrM5,
        SrModelKind::SesrXl,
        SrModelKind::Fsrcnn,
        SrModelKind::EdsrBase,
    ] {
        let spec = kind.paper_spec().expect("learned model");
        let mut cells = Vec::new();
        for config in &configs {
            let latency = estimate_network(&spec, (3, 299, 299), config)?;
            cells.push(format!("{:>16.2}", latency.total_ms));
        }
        println!("{:<14} {}", kind.name(), cells.join(" "));
    }

    println!("\nInterpretation: the SESR variants are the only SR models whose");
    println!("latency stays within the budget of a microcontroller-class NPU;");
    println!("EDSR-class models are two orders of magnitude away.");
    Ok(())
}
