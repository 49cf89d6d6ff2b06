//! Demonstrates the Collapsible Linear Block mechanism at the heart of SESR
//! (Fig. 2 of the paper): the over-parameterised training network collapses
//! analytically into a tiny inference network that computes the same function.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example sesr_collapse
//! ```

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_models::cost::{paper_cost, paper_reported};
use sesr_models::{NetworkUpscaler, Sesr, SesrConfig, SrModelKind, Upscaler};
use sesr_nn::Layer;
use sesr_tensor::{init, Shape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== SESR collapsible linear blocks ==");
    let mut rng = StdRng::seed_from_u64(0);

    for (name, config) in [
        ("SESR-M2", SesrConfig::m2()),
        ("SESR-M5", SesrConfig::m5()),
        ("SESR-XL", SesrConfig::xl()),
    ] {
        let network = Sesr::new(config, &mut rng);
        let collapsed = network.collapse()?;
        println!(
            "{name}: training-time parameters {:>8}, collapsed parameters {:>8}",
            network.num_parameters(),
            collapsed.num_parameters()
        );
    }

    // Verify numerically that collapse preserves the function.
    let mut network = Sesr::new(SesrConfig::m2(), &mut rng);
    let mut collapsed = network.collapse()?;
    let input = init::uniform(Shape::new(&[1, 3, 16, 16]), 0.0, 1.0, &mut rng);
    let full = network.forward(&input, false)?;
    let fast = collapsed.forward(&input, false)?;
    println!(
        "max |expanded - collapsed| on a random input: {:.3e}",
        full.max_abs_diff(&fast)?
    );

    // What is served is that collapsed network: every upscaler constructor
    // ends in `SrModelKind::wrap_network`, which lowers a SESR to its
    // inference form after the weights are in place.
    let served = SrModelKind::SesrM2.build_seeded_upscaler(2, 7)?;
    let local_m2 = SesrConfig::m2().with_expansion(32);
    let explicit = Sesr::new(local_m2, &mut StdRng::seed_from_u64(7)).collapse()?;
    let explicit = NetworkUpscaler::new("explicit collapse", 2, explicit);
    assert_eq!(
        served.upscale(&input)?,
        explicit.upscale(&input)?,
        "the served SESR must be bit-identical to the explicit collapse"
    );
    println!("served SESR-M2 == explicit collapse of the same weights: bit-identical");

    // Paper-scale cost accounting (Table I rows).
    println!("\nPaper-scale costs (299x299 -> 598x598, RGB):");
    for kind in [
        SrModelKind::SesrM2,
        SrModelKind::SesrM5,
        SrModelKind::SesrXl,
        SrModelKind::Fsrcnn,
        SrModelKind::EdsrBase,
    ] {
        let computed = paper_cost(kind)?.expect("learned model");
        let reported = paper_reported(kind).expect("learned model");
        println!(
            "{:<10} computed: {:>10} params / {:>14} MACs   paper: {:>10} params / {:>14} MACs",
            kind.name(),
            computed.params,
            computed.macs,
            reported.params,
            reported.macs
        );
    }
    Ok(())
}
