//! Allocation-tracking harness for the serving hot path.
//!
//! The shared [`CountingAllocator`] wraps the system allocator and proves the
//! headline property of the cross-request tensor arena: once a worker's
//! [`ScratchSpace`] is warm, the SR defense forward pass (`defend_scratch`
//! with no JPEG/wavelet preprocessing) and the MobileNet-V2 classifier
//! forward behind it (`forward_scratch`) perform **zero heap allocations
//! per request**, while the classic allocating path (`defend`) pays dozens
//! of allocations for the same work.
//!
//! This file deliberately contains a single `#[test]` so no sibling test can
//! allocate concurrently inside a counting window.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_classifiers::ClassifierKind;
use sesr_defense::pipeline::{DefensePipeline, PreprocessConfig};
use sesr_models::{ScratchSpace, SrModelKind};
use sesr_nn::Layer;
use sesr_testkit::{count_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn sr_forward_path_allocates_zero_after_warmup() {
    const WARMUP: usize = 3;
    const REQUESTS: u64 = 16;

    // The worker configuration of the zero-alloc claim: a learned SESR
    // network (real convolutions, PReLUs, pixel shuffle and both long
    // residuals) with the preprocessing stages disabled.
    let pipeline = DefensePipeline::new(
        PreprocessConfig::none(),
        SrModelKind::SesrM2.build_seeded_upscaler(2, 0).unwrap(),
    );
    let image = sesr_bench::bench_image(16);
    let expected = pipeline.defend(&image).unwrap();

    // Contrast: the allocating path pays for every intermediate, every call.
    let allocating = count_allocations(|| {
        let out = pipeline.defend(&image).unwrap();
        assert_eq!(out, expected);
    });
    assert!(
        allocating > 10,
        "the allocating defense path is expected to allocate per intermediate, \
         measured {allocating}"
    );

    // Warm the worker's scratch space: the first pass populates the arena's
    // size-class pools with the working set of this (shape, model) pair.
    let mut scratch = ScratchSpace::new();
    for _ in 0..WARMUP {
        let out = pipeline.defend_scratch(&image, &mut scratch).unwrap();
        assert_eq!(out, expected);
        scratch.recycle(out);
    }

    // Steady state: every buffer of every request comes from the arena.
    let steady = count_allocations(|| {
        for _ in 0..REQUESTS {
            let out = pipeline.defend_scratch(&image, &mut scratch).unwrap();
            scratch.recycle(out);
        }
    });
    assert_eq!(
        steady, 0,
        "a warmed-up arena must serve the SR forward pass with zero heap \
         allocations ({REQUESTS} requests performed {steady} allocations; \
         baseline allocating path: {allocating} per request)"
    );

    let stats = scratch.stats();
    assert_eq!(stats.in_use_bytes, 0, "every buffer was recycled");
    assert!(
        stats.hit_rate() > 0.5,
        "steady-state traffic must be pool hits (hit rate {:.2})",
        stats.hit_rate()
    );
    // The SR working set, before the classifier adds its own: no
    // convolution pools a column matrix, so the arena holds little more
    // than the activations themselves.
    let sr_high_water_kib = stats.high_water_bytes / 1024;
    assert!(
        sr_high_water_kib <= 256,
        "the SR forward on a 16x16 image must fit a 256 KiB arena \
         (high water {sr_high_water_kib} KiB)"
    );

    // The classifier a worker runs behind the defense: MobileNet-V2 (stem,
    // inverted residuals with depthwise convs and batch norm, pooling head)
    // on the same warmed scratch space.
    let mut rng = StdRng::seed_from_u64(3);
    let mut classifier = ClassifierKind::MobileNetV2.build_local(10, &mut rng);
    let frame = sesr_bench::bench_image(32);
    let expected_logits = classifier.forward(&frame, false).unwrap();
    for _ in 0..WARMUP {
        let logits = classifier
            .forward_scratch(&frame, false, &mut scratch)
            .unwrap();
        assert_eq!(logits, expected_logits);
        scratch.recycle(logits);
    }
    let classify = count_allocations(|| {
        for _ in 0..REQUESTS {
            let logits = classifier
                .forward_scratch(&frame, false, &mut scratch)
                .unwrap();
            scratch.recycle(logits);
        }
    });
    assert_eq!(
        classify, 0,
        "a warmed-up arena must serve the MobileNet-V2 forward pass with zero \
         heap allocations ({REQUESTS} frames performed {classify} allocations)"
    );
    assert_eq!(scratch.stats().in_use_bytes, 0, "every buffer was recycled");

    // Visible with `cargo test -p sesr-bench --test alloc_tracking -- --nocapture`.
    println!(
        "allocating defend: {allocating} allocations/request | arena defend_scratch: \
         {steady} allocations over {REQUESTS} requests | MobileNet-V2 forward_scratch: \
         {classify} allocations over {REQUESTS} frames | SR arena high water \
         {sr_high_water_kib} KiB | arena high water {} KiB, \
         hit rate {:.0}%",
        scratch.stats().high_water_bytes / 1024,
        scratch.stats().hit_rate() * 100.0
    );
}
