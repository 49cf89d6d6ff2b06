//! Per-layer numbers of the traced run: calls into each layer's public
//! functions at the workload's own shapes, each timed on its own.
//!
//! The kernel shapes are those of the *collapsed* SESR-M2 (5×5 3→16, two
//! 3×3 16→16, 5×5 16→12, depth-to-space ×2) — what the paper deploys — so
//! `sr.kernel_residual_ratio` says how much of the collapsed forward pass
//! the kernels leave unexplained, and `sr.collapse_ratio` how far the
//! served (uncollapsed) network is from it.

use crate::stats::median;
use crate::sut;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_cluster::HashRing;
use sesr_imaging::{jpeg_compress, wavelet_denoise};
use sesr_models::{ScratchSpace, Sesr, SesrConfig};
use sesr_net::wire::{decode, encode, DEFAULT_MAX_PAYLOAD};
use sesr_net::{Frame, ResponseBody, WireRequest, WireResponse};
use sesr_nn::{Conv2d, Layer, PRelu};
use sesr_serve::content_hash;
use sesr_store::{ModelRegistry, ModelStore};
use sesr_tensor::conv::{conv2d_arena, im2col, Conv2dConfig};
use sesr_tensor::resample::depth_to_space_arena;
use sesr_tensor::{init, Shape, Tensor, TensorArena};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

/// Median duration of `f` in microseconds: two calls to warm caches and
/// arenas, then calls until `budget` is spent (at least 5, at most 400).
pub fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 400) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// A fixed arithmetic loop that touches no memory and calls nothing: its
/// time moves with the machine (frequency, a noisy neighbour), never with
/// the code under test. Timed before and after a run to tell drift from
/// change.
pub fn ref_kernel_us() -> f64 {
    time_us(Duration::from_millis(40), || {
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        let mut acc = 0.0f64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += (x >> 11) as f64 * 1e-16;
        }
        black_box(acc);
    })
}

fn uniform(dims: &[usize], rng: &mut StdRng) -> Tensor {
    init::uniform(Shape::new(dims), 0.0, 1.0, rng)
}

fn weights(dims: &[usize], rng: &mut StdRng) -> Tensor {
    init::uniform(Shape::new(dims), -0.1, 0.1, rng)
}

/// `tensor.*`, `nn.*` and `sr.*` for a `[n, 3, h, w]` input.
pub fn sr_stack(n: usize, h: usize, w: usize, budget: Duration, out: &mut Values) {
    let mut rng = StdRng::seed_from_u64(17);
    let features = SesrConfig::m2().features;
    let image = uniform(&[n, 3, h, w], &mut rng);
    let fmap = uniform(&[n, features, h, w], &mut rng);
    let subpixels = uniform(&[n, 12, h, w], &mut rng);
    let mut arena = TensorArena::new();

    let mut conv = |name, input: &Tensor, c_out: usize, kernel: usize| {
        let c_in = input.shape().dims()[1];
        let weight = weights(&[c_out, c_in, kernel, kernel], &mut rng);
        let bias = weights(&[c_out], &mut rng);
        let cfg = Conv2dConfig::same(kernel);
        let us = time_us(budget, || {
            let y = conv2d_arena(input, &weight, Some(&bias), cfg, &mut arena).expect("conv");
            arena.recycle(black_box(y));
        });
        out.insert(name, us);
        (weight, bias)
    };
    conv("tensor.conv_first_us", &image, features, 5);
    let (body_weight, body_bias) = conv("tensor.conv_body_us", &fmap, features, 3);
    conv("tensor.conv_last_us", &fmap, 12, 5);

    let body_cfg = Conv2dConfig::same(3);
    out.insert(
        "tensor.im2col_us",
        time_us(budget, || {
            black_box(im2col(&fmap, body_cfg).expect("im2col"));
        }),
    );
    let lhs = body_weight
        .reshape(Shape::new(&[features, features * 9]))
        .expect("weight matrix");
    let cols = im2col(&fmap, body_cfg).expect("im2col");
    out.insert(
        "tensor.matmul_us",
        time_us(budget, || {
            black_box(lhs.matmul(&cols).expect("matmul"));
        }),
    );
    out.insert(
        "tensor.depth_to_space_us",
        time_us(budget, || {
            let y = depth_to_space_arena(&subpixels, 2, &mut arena).expect("d2s");
            arena.recycle(black_box(y));
        }),
    );
    let body_macs = (n * h * w * features * features * 9) as f64;
    out.insert(
        "tensor.conv_macs_per_us",
        body_macs / out["tensor.conv_body_us"],
    );

    let mut scratch = ScratchSpace::new();
    let mut prelu = PRelu::new(features);
    out.insert(
        "nn.prelu_us",
        time_us(budget, || {
            let y = prelu
                .forward_scratch(&fmap, false, &mut scratch)
                .expect("prelu");
            scratch.recycle(black_box(y));
        }),
    );
    let mut layer = Conv2d::from_weights(body_weight, Some(body_bias), 1, 1).expect("conv layer");
    let layer_us = time_us(budget, || {
        let y = layer
            .forward_scratch(&fmap, false, &mut scratch)
            .expect("conv layer");
        scratch.recycle(black_box(y));
    });
    out.insert(
        "nn.layer_overhead_us",
        layer_us - out["tensor.conv_body_us"],
    );

    let served = sut::MODEL
        .build_seeded_upscaler(2, sut::WEIGHT_SEED)
        .expect("served upscaler");
    let served_us = time_us(budget, || {
        let y = served
            .upscale_scratch(&image, &mut scratch)
            .expect("served forward");
        scratch.recycle(black_box(y));
    });
    let mut collapsed = Sesr::new(SesrConfig::m2().with_expansion(32), &mut rng)
        .collapse()
        .expect("collapse");
    let collapsed_us = time_us(budget, || {
        let y = collapsed
            .forward_scratch(&image, false, &mut scratch)
            .expect("collapsed forward");
        scratch.recycle(black_box(y));
    });
    out.insert("sr.forward_served_ms", served_us / 1e3);
    out.insert("sr.forward_collapsed_ms", collapsed_us / 1e3);
    out.insert("sr.collapse_ratio", served_us / collapsed_us);
    let blocks = SesrConfig::m2().num_blocks as f64;
    let kernels_us = out["tensor.conv_first_us"]
        + blocks * out["tensor.conv_body_us"]
        + out["tensor.conv_last_us"]
        + (blocks + 1.0) * out["nn.prelu_us"]
        + out["tensor.depth_to_space_us"];
    out.insert("sr.kernel_residual_ratio", 1.0 - kernels_us / collapsed_us);
}

/// `imaging.*`, `classifiers.*` and `core.*` of the edge route for one
/// `[1, 3, h, w]` frame. Needs `sr.forward_served_ms` in `out`.
pub fn edge_stack(h: usize, w: usize, budget: Duration, out: &mut Values) {
    let mut rng = StdRng::seed_from_u64(18);
    let image = uniform(&[1, 3, h, w], &mut rng);
    let pipeline = sut::edge_pipeline().expect("edge pipeline");
    let preprocess = pipeline.preprocess_config();
    let jpeg = preprocess.jpeg.expect("paper preprocessing has JPEG");
    let wavelet = preprocess.wavelet.expect("paper preprocessing has wavelet");
    let jpeg_us = time_us(budget, || {
        black_box(jpeg_compress(&image, jpeg).expect("jpeg"));
    });
    let wavelet_us = time_us(budget, || {
        black_box(wavelet_denoise(&image, wavelet).expect("wavelet"));
    });
    out.insert("imaging.jpeg_ms", jpeg_us / 1e3);
    out.insert("imaging.wavelet_ms", wavelet_us / 1e3);

    let mut classifier = sut::edge_classifier();
    let defended = uniform(&[1, 3, 2 * h, 2 * w], &mut rng);
    out.insert(
        "classifiers.forward_ms",
        time_us(budget, || {
            black_box(classifier.forward(&defended, false).expect("classifier"));
        }) / 1e3,
    );
    defend(&pipeline, &image, jpeg_us + wavelet_us, budget, out);
}

/// Median time in µs of one arena-backed `defend_scratch` of `image`.
pub fn defend_us(
    pipeline: &sesr_defense::DefensePipeline,
    image: &Tensor,
    budget: Duration,
) -> f64 {
    let mut scratch = ScratchSpace::new();
    time_us(budget, || {
        let y = pipeline
            .defend_scratch(image, &mut scratch)
            .expect("defend");
        scratch.recycle(black_box(y));
    })
}

/// `core.defend_ms` and how much of it the stages — preprocessing plus the
/// `sr.forward_served_ms` already in `out` — leave unexplained.
pub fn defend(
    pipeline: &sesr_defense::DefensePipeline,
    image: &Tensor,
    preprocess_us: f64,
    budget: Duration,
    out: &mut Values,
) {
    let defend_us = defend_us(pipeline, image, budget);
    let stages_us = preprocess_us + out["sr.forward_served_ms"] * 1e3;
    out.insert("core.defend_ms", defend_us / 1e3);
    out.insert("core.defend_residual_ratio", 1.0 - stages_us / defend_us);
}

/// `net.*` codec and hashing costs for a `[1, 3, h, w]` request and its
/// `[1, 3, 2h, 2w]` reply.
pub fn codec(h: usize, w: usize, route: &str, budget: Duration, out: &mut Values) {
    let mut rng = StdRng::seed_from_u64(19);
    let image = uniform(&[1, 3, h, w], &mut rng);
    let request = Frame::Request(WireRequest {
        id: 1,
        route: route.to_string(),
        deadline_ms: 0,
        skip_cache: false,
        content_hash: content_hash(&image, ""),
        image: image.clone(),
    });
    let response = Frame::Response(WireResponse {
        id: 1,
        body: ResponseBody::Ok {
            cache_hit: true,
            label: None,
            defended: uniform(&[1, 3, 2 * h, 2 * w], &mut rng),
        },
    });
    for (frame, encode_name, decode_name) in [
        (&request, "net.encode_request_us", "net.decode_request_us"),
        (
            &response,
            "net.encode_response_us",
            "net.decode_response_us",
        ),
    ] {
        out.insert(
            encode_name,
            time_us(budget, || {
                black_box(encode(frame));
            }),
        );
        let bytes = encode(frame);
        out.insert(
            decode_name,
            time_us(budget, || {
                black_box(decode(&bytes, DEFAULT_MAX_PAYLOAD).expect("decode"));
            }),
        );
    }
    out.insert(
        "net.content_hash_us",
        time_us(budget, || {
            black_box(content_hash(&image, ""));
        }),
    );
}

/// `cluster.ring_owner_ns`: one consistent-hash lookup on the fleet's ring.
pub fn ring(route: &str, budget: Duration, out: &mut Values) {
    let ring = HashRing::with_members(sut::MEMBERS, HashRing::DEFAULT_VNODES);
    // One lookup is tens of nanoseconds, below the clock's resolution, so
    // time a thousand and divide.
    let mut hash = 0u64;
    let us = time_us(budget, || {
        for _ in 0..1000 {
            hash = hash.wrapping_add(0x9e37_79b9_7f4a_7c15);
            black_box(ring.owner(route, hash));
        }
    });
    out.insert("cluster.ring_owner_ns", us);
}

/// `store.hydrate_ms`: open the store and read, validate and decode the
/// newest artifact — what every gateway start pays once.
pub fn hydrate(store_dir: &Path, budget: Duration, out: &mut Values) {
    let us = time_us(budget, || {
        let store = ModelStore::open(store_dir).expect("open store");
        let registry = ModelRegistry::new(store);
        black_box(registry.hydrate(sut::MODEL.name(), 2).expect("hydrate"));
    });
    out.insert("store.hydrate_ms", us / 1e3);
}
