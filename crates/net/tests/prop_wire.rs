//! Property tests for the wire protocol: encode/decode round-trips over
//! arbitrary frames, and a malformed-frame corpus (truncations, bad magic,
//! wrong version, oversized claims, bit flips, random garbage) that must be
//! rejected with typed errors — never a panic, never an over-read, never a
//! bogus `Complete`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sesr_net::wire::{self, FrameDecode, HEADER_LEN};
use sesr_net::{Frame, ResponseBody, RetryReason, WireError, WireRequest, WireResponse};
use sesr_tensor::{Shape, Tensor};

fn tensor_from(seed: u64, rank: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims: Vec<usize> = (0..rank).map(|_| rng.gen_range(1usize..5)).collect();
    let len: usize = dims.iter().product();
    let data: Vec<f32> = (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    Tensor::from_vec(Shape::new(&dims), data).expect("generated dims are valid")
}

fn assert_round_trip(frame: &Frame) {
    let bytes = wire::encode(frame);
    match wire::decode(&bytes, wire::DEFAULT_MAX_PAYLOAD) {
        Ok(FrameDecode::Complete {
            frame: got,
            consumed,
        }) => {
            assert_eq!(&got, frame, "decode must invert encode");
            assert_eq!(
                consumed,
                bytes.len(),
                "a lone frame consumes exactly itself"
            );
        }
        other => panic!("whole valid frame must decode, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary requests survive the wire byte-for-byte, alone and
    /// back-to-back in one buffer (streaming reassembly).
    #[test]
    fn requests_round_trip(
        seed in 0u64..10_000,
        id in 0u64..u64::MAX,
        deadline_ms in 0u32..100_000,
        skip in 0usize..2,
        rank in 1usize..5,
        route_pick in 0usize..4,
    ) {
        let routes = ["", "sesr-m2:x2:jpeg75+wavelet2", "bicubic:x2:raw", "nearest-neighbor:x2:raw"];
        let image = tensor_from(seed, rank);
        let frame = Frame::Request(WireRequest {
            id,
            route: routes[route_pick].to_string(),
            deadline_ms,
            skip_cache: skip == 1,
            content_hash: sesr_serve::content_hash(&image, ""),
            image,
        });
        assert_round_trip(&frame);

        // Two frames concatenated: the first decodes, its `consumed` lands
        // exactly on the second, which then decodes too.
        let first = wire::encode(&frame);
        let second_frame = Frame::Stats { id };
        let mut stream = first.clone();
        stream.extend_from_slice(&wire::encode(&second_frame));
        let Ok(FrameDecode::Complete { consumed, .. }) =
            wire::decode(&stream, wire::DEFAULT_MAX_PAYLOAD)
        else {
            panic!("first frame of the pair must decode");
        };
        prop_assert_eq!(consumed, first.len());
        let Ok(FrameDecode::Complete { frame: got, .. }) =
            wire::decode(&stream[consumed..], wire::DEFAULT_MAX_PAYLOAD)
        else {
            panic!("second frame of the pair must decode");
        };
        prop_assert_eq!(got, second_frame);
    }

    /// Arbitrary responses of every status survive the wire.
    #[test]
    fn responses_round_trip(
        seed in 0u64..10_000,
        id in 0u64..u64::MAX,
        status in 0usize..7,
        retry_ms in 0u32..60_000,
        reason in 0usize..3,
        label in 0u64..1000,
    ) {
        let reasons = [RetryReason::Overloaded, RetryReason::RateLimited, RetryReason::Unhealthy];
        let body = match status {
            0 => ResponseBody::Ok {
                cache_hit: seed % 2 == 0,
                label: (seed % 3 == 0).then_some(label),
                defended: tensor_from(seed, 4),
            },
            1 => ResponseBody::RetryAfter { retry_after_ms: retry_ms, reason: reasons[reason] },
            2 => ResponseBody::DeadlineExceeded,
            3 => ResponseBody::UnknownRoute(format!("route-{seed}")),
            4 => ResponseBody::InvalidRequest(format!("invalid-{seed}")),
            5 => ResponseBody::PipelineError(format!("pipeline-{seed}")),
            _ => ResponseBody::Closed,
        };
        assert_round_trip(&Frame::Response(WireResponse { id, body }));
    }

    /// Reload frames survive the wire, with and without a pinned artifact.
    #[test]
    fn reloads_round_trip(
        id in 0u64..u64::MAX,
        route_pick in 0usize..3,
        pinned in 0usize..2,
        version in 0u32..u32::MAX,
        digest in 0u64..u64::MAX,
    ) {
        let routes = ["", "sesr-m2:x2:raw", "bicubic:x2:raw"];
        assert_round_trip(&Frame::Reload {
            id,
            route: routes[route_pick].to_string(),
            pin: (pinned == 1).then_some((version, digest)),
        });
    }

    /// Every strict prefix of a valid frame is `Incomplete` — with a
    /// `needed` hint beyond the prefix — and never an error or a `Complete`.
    #[test]
    fn truncations_are_incomplete_not_errors(seed in 0u64..10_000) {
        let image = tensor_from(seed, 3);
        let bytes = wire::encode(&Frame::Request(WireRequest {
            id: seed,
            route: "bicubic:x2:raw".to_string(),
            deadline_ms: 5,
            skip_cache: false,
            content_hash: sesr_serve::content_hash(&image, ""),
            image,
        }));
        for cut in 0..bytes.len() {
            match wire::decode(&bytes[..cut], wire::DEFAULT_MAX_PAYLOAD) {
                Ok(FrameDecode::Incomplete { needed }) => prop_assert!(needed > cut),
                other => {
                    return Err(format!(
                        "prefix of {cut}/{} bytes must be Incomplete, got {other:?}",
                        bytes.len()
                    ));
                }
            }
        }
    }

    /// Single-byte corruption anywhere in a frame either still decodes (the
    /// byte was slack, e.g. inside f32 data), reports Incomplete (a length
    /// field shrank/grew), or fails with a typed error. It never panics and
    /// never reads past the buffer.
    #[test]
    fn bit_flips_never_panic(seed in 0u64..10_000, flip_seed in 0u64..10_000) {
        let image = tensor_from(seed, 2);
        let mut bytes = wire::encode(&Frame::Request(WireRequest {
            id: seed,
            route: "r".to_string(),
            deadline_ms: 1,
            skip_cache: true,
            content_hash: 7,
            image,
        }));
        let mut rng = StdRng::seed_from_u64(flip_seed);
        let at = rng.gen_range(0usize..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0usize..8);
        // The outcome just has to be *a* defined outcome.
        let _ = wire::decode(&bytes, wire::DEFAULT_MAX_PAYLOAD);
    }

    /// Pure garbage never panics; with a full header's worth of it the
    /// decoder must reject rather than wait for more bytes.
    #[test]
    fn garbage_never_panics(seed in 0u64..10_000, len in 0usize..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        match wire::decode(&bytes, wire::DEFAULT_MAX_PAYLOAD) {
            Ok(FrameDecode::Incomplete { .. }) => {
                // Tolerable only while the header is not yet complete, or if
                // the garbage happened to spell a valid header (then the
                // claimed payload is legitimately awaited).
                prop_assert!(len < HEADER_LEN || bytes[..4] == wire::MAGIC);
            }
            Ok(FrameDecode::Complete { .. }) => {
                // Vanishingly unlikely but defined: garbage spelled a frame.
                prop_assert!(bytes[..4] == wire::MAGIC);
            }
            Err(_) => {}
        }
    }
}

/// The named corpus: each malformed shape maps to its specific typed error.
#[test]
fn malformed_corpus_is_rejected_with_typed_errors() {
    let valid = wire::encode(&Frame::Stats { id: 77 });

    let mut bad_magic = valid.clone();
    bad_magic[..4].copy_from_slice(b"HTTP");
    assert!(matches!(
        wire::decode(&bad_magic, wire::DEFAULT_MAX_PAYLOAD),
        Err(WireError::BadMagic(_))
    ));

    let mut wrong_version = valid.clone();
    wrong_version[4] = wire::VERSION + 1;
    assert_eq!(
        wire::decode(&wrong_version, wire::DEFAULT_MAX_PAYLOAD),
        Err(WireError::UnsupportedVersion(wire::VERSION + 1))
    );

    let mut unknown_kind = valid.clone();
    unknown_kind[5] = 0;
    assert!(matches!(
        wire::decode(&unknown_kind, wire::DEFAULT_MAX_PAYLOAD),
        Err(WireError::UnknownFrameKind(0))
    ));

    let mut reserved = valid.clone();
    reserved[6] = 1;
    assert!(matches!(
        wire::decode(&reserved, wire::DEFAULT_MAX_PAYLOAD),
        Err(WireError::NonZeroReserved)
    ));

    // An oversized length claim is rejected from the header alone — no
    // waiting for (or allocating) 4 GiB.
    let mut oversized = valid.clone();
    oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        wire::decode(&oversized, wire::DEFAULT_MAX_PAYLOAD),
        Err(WireError::Oversized { .. })
    ));

    // Trailing bytes *inside* the claimed payload are structural garbage.
    let mut padded = valid.clone();
    padded.push(0xAB);
    let claimed = u32::from_le_bytes([padded[8], padded[9], padded[10], padded[11]]) + 1;
    padded[8..12].copy_from_slice(&claimed.to_le_bytes());
    assert!(matches!(
        wire::decode(&padded, wire::DEFAULT_MAX_PAYLOAD),
        Err(WireError::TrailingBytes(1))
    ));

    // A payload shorter than its structure claims: typed truncation.
    let mut shortened = valid;
    let claimed =
        u32::from_le_bytes([shortened[8], shortened[9], shortened[10], shortened[11]]) - 1;
    shortened[8..12].copy_from_slice(&claimed.to_le_bytes());
    shortened.pop();
    assert!(matches!(
        wire::decode(&shortened, wire::DEFAULT_MAX_PAYLOAD),
        Err(WireError::Truncated(_))
    ));

    // A request whose tensor rank byte is absurd.
    let image = Tensor::from_vec(Shape::new(&[1, 1, 2, 2]), vec![0.0; 4]).expect("static");
    let mut request = wire::encode(&Frame::Request(WireRequest {
        id: 1,
        route: String::new(),
        deadline_ms: 0,
        skip_cache: false,
        content_hash: 0,
        image,
    }));
    // rank byte sits right after id(8) + deadline(4) + flags(1) + route len
    // prefix(2) + hash(8) in the payload.
    let rank_at = HEADER_LEN + 8 + 4 + 1 + 2 + 8;
    request[rank_at] = 7;
    assert!(matches!(
        wire::decode(&request, wire::DEFAULT_MAX_PAYLOAD),
        Err(WireError::Malformed(_))
    ));
}
