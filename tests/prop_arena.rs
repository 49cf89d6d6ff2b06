//! Property-based tests for the cross-request tensor arena: the arena-backed
//! forward/defense/classifier paths must be bitwise identical to the
//! allocating paths for arbitrary shapes and batch sizes, and the arena's
//! working set must
//! stay bounded under sustained traffic (no leak across requests).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_classifiers::ClassifierKind;
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::{ScratchSpace, Sesr, SesrConfig, SrModelKind};
use sesr_nn::Layer;
use sesr_tensor::{init, Shape, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The expanded and collapsed SESR networks compute bitwise-identical
    /// outputs through `forward_scratch` for random shapes and batch sizes.
    #[test]
    fn sesr_scratch_forward_is_bitwise_identical(
        seed in 0u64..1000,
        batch in 1usize..4,
        height in 4usize..11,
        width in 4usize..11,
        blocks in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SesrConfig::m(blocks).with_expansion(8);
        let mut net = Sesr::new(cfg, &mut rng);
        let mut collapsed = net.collapse().unwrap();
        let x = init::uniform(Shape::new(&[batch, 3, height, width]), 0.0, 1.0, &mut rng);

        let mut scratch = ScratchSpace::new();
        let expected = net.forward(&x, false).unwrap();
        let got = net.forward_scratch(&x, false, &mut scratch).unwrap();
        prop_assert_eq!(&got, &expected);
        scratch.recycle(got);

        let expected = collapsed.forward(&x, false).unwrap();
        let got = collapsed.forward_scratch(&x, false, &mut scratch).unwrap();
        prop_assert_eq!(&got, &expected);
        scratch.recycle(got);
    }

    /// The full defense (`defend_scratch`) matches `defend` bit for bit for
    /// random inputs, preprocessing configurations and batch sizes — and a
    /// shared scratch space across all cases never changes the results.
    #[test]
    fn defend_scratch_is_bitwise_identical(
        seed in 0u64..1000,
        batch in 1usize..4,
        quarter_size in 2usize..6,
        with_jpeg in 0usize..2,
        learned in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // The level-2 wavelet stage needs planes divisible by 4.
        let size = quarter_size * 4;
        let x = init::uniform(Shape::new(&[batch, 3, size, size]), 0.0, 1.0, &mut rng);
        let preprocess = if with_jpeg == 1 {
            PreprocessConfig::paper()
        } else {
            PreprocessConfig::without_jpeg()
        };
        let kind = if learned == 1 {
            SrModelKind::SesrM2
        } else {
            SrModelKind::NearestNeighbor
        };
        let pipeline = DefensePipeline::new(
            preprocess,
            kind.build_seeded_upscaler(2, seed).unwrap(),
        );

        let mut scratch = ScratchSpace::new();
        let expected = pipeline.defend(&x).unwrap();
        let got = pipeline.defend_scratch(&x, &mut scratch).unwrap();
        prop_assert_eq!(&got, &expected);
        scratch.recycle(got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every classifier's `forward_scratch` equals its evaluation-mode
    /// `forward` bit for bit, with batch-norm running statistics away from
    /// their defaults, for random batch and spatial sizes; one scratch space
    /// serves all three networks, twice, so recycled buffers are exercised.
    #[test]
    fn classifier_scratch_forward_is_bitwise_identical(
        seed in 0u64..1000,
        batch in 1usize..4,
        height in 8usize..17,
        width in 8usize..17,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = init::uniform(Shape::new(&[batch, 3, height, width]), 0.0, 1.0, &mut rng);
        let mut scratch = ScratchSpace::new();
        for kind in ClassifierKind::all() {
            let mut net = kind.build_local(5, &mut rng);
            // A training-mode pass moves every running mean/var off (0, 1).
            let warm = init::normal(Shape::new(&[2, 3, height, width]), 0.5, 2.0, &mut rng);
            net.forward(&warm, true).unwrap();
            let expected = net.forward(&x, false).unwrap();
            for _ in 0..2 {
                let got = net.forward_scratch(&x, false, &mut scratch).unwrap();
                prop_assert_eq!(got.shape(), expected.shape());
                prop_assert!(
                    got.data().iter().zip(expected.data()).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kind}: forward_scratch {:?} != forward {:?}",
                    got.data(),
                    expected.data()
                );
                scratch.recycle(got);
            }
        }
    }
}

/// Leak check: a worker's arena high-water mark plateaus after it has seen
/// each request shape once — repeated `defend_scratch` calls reuse the same
/// working set instead of growing it.
#[test]
fn arena_high_water_is_bounded_across_requests() {
    let mut rng = StdRng::seed_from_u64(7);
    let pipeline = DefensePipeline::new(
        PreprocessConfig::none(),
        SrModelKind::SesrM2.build_seeded_upscaler(2, 0).unwrap(),
    );
    let sizes = [8usize, 16, 12];
    let images: Vec<Tensor> = sizes
        .iter()
        .map(|&s| init::uniform(Shape::new(&[1, 3, s, s]), 0.0, 1.0, &mut rng))
        .collect();

    let mut scratch = ScratchSpace::new();
    // One full cycle over every shape establishes the working set.
    for image in &images {
        let out = pipeline.defend_scratch(image, &mut scratch).unwrap();
        scratch.recycle(out);
    }
    let plateau = scratch.stats().high_water_bytes;
    assert!(plateau > 0);

    for round in 0..20 {
        for image in &images {
            let out = pipeline.defend_scratch(image, &mut scratch).unwrap();
            scratch.recycle(out);
        }
        assert_eq!(
            scratch.stats().high_water_bytes,
            plateau,
            "arena high-water mark grew on round {round}: the worker would \
             accumulate memory across requests"
        );
    }
    assert_eq!(
        scratch.stats().in_use_bytes,
        0,
        "every request must return all of its buffers"
    );
}
