//! Shared helpers for the benchmark harness and the workspace binaries:
//! small pre-built inputs and models so every Criterion bench measures the
//! same, comparable workloads, plus the flag parser ([`cli`]) and demo route
//! list ([`demo_routes`]) the daemons and the load generator agree on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod lint;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_classifiers::ClassifierKind;
use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_nn::Layer;
use sesr_serve::RouteKey;
use sesr_tensor::{init, Shape, Tensor};

/// A deterministic `[1, 3, size, size]` test image with values in `[0, 1]`.
pub fn bench_image(size: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(42);
    init::uniform(Shape::new(&[1, 3, size, size]), 0.0, 1.0, &mut rng)
}

/// Build the laptop-scale network for an SR model kind with a fixed seed.
///
/// # Panics
///
/// Panics if `kind` is not a learned model (benchmarks only pass learned kinds).
pub fn bench_sr_network(kind: SrModelKind) -> Box<dyn Layer> {
    let mut rng = StdRng::seed_from_u64(7);
    kind.build_local_network(&mut rng)
        .expect("bench_sr_network expects a learned SR kind")
}

/// Build a laptop-scale classifier with a fixed seed.
pub fn bench_classifier(kind: ClassifierKind, num_classes: usize) -> Box<dyn Layer> {
    let mut rng = StdRng::seed_from_u64(11);
    kind.build_local(num_classes, &mut rng)
}

/// The three interpolation routes `sesr-netd` and every `sesr-clusterd`
/// member serve and `traffic-gen` drives — cheap enough that a loopback
/// driver exercises the front-end, not the SR math. The first is the
/// default route; the last runs the full paper preprocessing.
pub fn demo_routes() -> [RouteKey; 3] {
    [
        RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none()),
        RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none()),
        RouteKey::paper(SrModelKind::NearestNeighbor, 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_inputs_are_deterministic() {
        assert_eq!(bench_image(16), bench_image(16));
        assert_eq!(bench_image(16).shape().dims(), &[1, 3, 16, 16]);
    }

    #[test]
    fn bench_models_build() {
        let mut sr = bench_sr_network(SrModelKind::SesrM2);
        let out = sr.forward(&bench_image(8), false).unwrap();
        assert_eq!(out.shape().dims(), &[1, 3, 16, 16]);
        let mut classifier = bench_classifier(ClassifierKind::MobileNetV2, 4);
        let logits = classifier.forward(&bench_image(16), false).unwrap();
        assert_eq!(logits.shape().dims(), &[1, 4]);
    }
}
