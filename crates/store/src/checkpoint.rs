//! The checkpoint container: trained weights plus a metadata header, encoded
//! as one self-validating byte blob.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..8)            magic  b"SESRCKPT"
//! [8..12)           format version (u32, currently 1)
//! [12..16)          header length in bytes (u32)
//! [16..16+hlen)     UTF-8 header, one `key=value` per line:
//!                     model=<model id, e.g. "SESR-M2">
//!                     scale=<integer upscaling factor; 1 for classifiers>
//!                     tensors=<tensor count (parameters + buffers)>
//!                     config_digest=<16-hex-digit training-config digest>
//!                     encoding=binary
//! [16+hlen..len-8)  weight payload in the `sesr_nn::serialize` binary
//!                   encoding
//! [len-8..len)      FNV-1a 64 checksum of header + payload
//! ```
//!
//! The trailing checksum means bit rot anywhere in the header or payload is
//! detected before any tensor is handed to a network, and the version field
//! means future layout changes fail loudly instead of misparsing.

use crate::error::{Result, StoreError};
use sesr_nn::serialize::{tensors_from_bytes, tensors_to_bytes};
use sesr_nn::Layer;
use sesr_tensor::Tensor;

/// The 8-byte magic opening every artifact file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"SESRCKPT";

/// The container format version this build reads and writes.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// Cap on the metadata header size; anything larger is corruption, not a
/// plausible header.
const MAX_HEADER_LEN: usize = 64 * 1024;

/// Streaming 64-bit FNV-1a, the workspace's one FNV-1a: feed bytes in any
/// number of [`Fnv1a64::write`] runs, and [`Fnv1a64::finish`] equals
/// [`fnv1a64`] over their concatenation. Store checksums and content
/// addresses and the cluster ring's placement are built on it; the image
/// content hash the serving cache and the wire use is not (it folds whole
/// words, see `sesr_serve::content_hash`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    /// A hasher over no bytes yet (the FNV-1a 64 offset basis).
    #[inline]
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Fold `bytes` into the hash, one byte at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over a byte slice; used for payload checksums, content
/// addresses and config digests throughout the store.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::default();
    hash.write(bytes);
    hash.finish()
}

/// Murmur3's 64-bit finalizer (`fmix64`): a bijection whose every output
/// bit depends on every input bit. A hash that folds its input cheaply
/// (FNV-1a, a word-at-a-time multiply) ends with it so structured inputs
/// still spread across all 64 bits.
pub const fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// The only payload encoding format version 1 carries; the header names it
/// so a reader refuses anything else instead of misparsing the payload.
const PAYLOAD_ENCODING: &str = "binary";

/// The metadata header carried alongside the weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Model identity, e.g. `"SESR-M2"` or `"MobileNet-V2-c6"`. This is the
    /// store's primary key together with `scale`.
    pub model_id: String,
    /// Integer upscaling factor for SR models; 1 for classifiers.
    pub scale: usize,
    /// Number of tensors in the payload (parameters plus buffers).
    pub tensor_count: usize,
    /// Digest of the training configuration that produced the weights, for
    /// provenance (see e.g. `SrTrainingConfig::digest`).
    pub config_digest: u64,
}

/// Trained weights plus their metadata, ready to be stored or applied to a
/// freshly built network.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The metadata header.
    pub meta: CheckpointMeta,
    /// Parameter tensors in `Layer::params()` order, followed by the
    /// non-learnable buffers in `Layer::buffers()` order (e.g. batch-norm
    /// running statistics).
    pub tensors: Vec<Tensor>,
}

impl Checkpoint {
    /// Snapshot a layer's parameters (in `params()` order) and non-learnable
    /// buffers (in `buffers()` order, appended after the parameters) into a
    /// checkpoint.
    ///
    /// Capturing the buffers is what makes a restored classifier evaluate
    /// identically to the trained instance: batch-norm running statistics
    /// drive evaluation-mode normalisation but are invisible to optimizers,
    /// so a params-only snapshot would silently revert them to their init
    /// values on hydration.
    pub fn from_layer(
        model_id: impl Into<String>,
        scale: usize,
        config_digest: u64,
        layer: &dyn Layer,
    ) -> Self {
        let mut tensors: Vec<Tensor> = layer.params().iter().map(|p| p.value.clone()).collect();
        tensors.extend(layer.buffers().iter().map(|b| (*b).clone()));
        Checkpoint {
            meta: CheckpointMeta {
                model_id: model_id.into(),
                scale,
                tensor_count: tensors.len(),
                config_digest,
            },
            tensors,
        }
    }

    /// Copy this checkpoint's tensors into `layer`'s parameters and
    /// non-learnable buffers (parameters first, buffers after, matching
    /// [`Checkpoint::from_layer`]).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::ArchitectureMismatch`] if the tensor count or
    /// any shape differs from the layer's parameters + buffers; the layer is
    /// left untouched in that case.
    pub fn apply_to(&self, layer: &mut dyn Layer) -> Result<()> {
        let num_params = layer.params().len();
        let num_buffers = layer.buffers().len();
        if num_params + num_buffers != self.tensors.len() {
            return Err(StoreError::ArchitectureMismatch {
                reason: format!(
                    "checkpoint {} has {} tensors but the network has \
                     {num_params} parameters + {num_buffers} buffers",
                    self.meta.model_id,
                    self.tensors.len(),
                ),
            });
        }
        let (param_tensors, buffer_tensors) = self.tensors.split_at(num_params);
        for (index, (param, tensor)) in layer.params().iter().zip(param_tensors).enumerate() {
            if param.value.shape() != tensor.shape() {
                return Err(StoreError::ArchitectureMismatch {
                    reason: format!(
                        "parameter {index}: checkpoint shape {:?} vs network shape {:?}",
                        tensor.shape().dims(),
                        param.value.shape().dims()
                    ),
                });
            }
        }
        for (index, (buffer, tensor)) in layer.buffers().iter().zip(buffer_tensors).enumerate() {
            if buffer.shape() != tensor.shape() {
                return Err(StoreError::ArchitectureMismatch {
                    reason: format!(
                        "buffer {index}: checkpoint shape {:?} vs network shape {:?}",
                        tensor.shape().dims(),
                        buffer.shape().dims()
                    ),
                });
            }
        }
        for (param, tensor) in layer.params_mut().iter_mut().zip(param_tensors) {
            param.value = tensor.clone();
        }
        for (buffer, tensor) in layer.buffers_mut().iter_mut().zip(buffer_tensors) {
            **buffer = tensor.clone();
        }
        Ok(())
    }

    /// Encode the checkpoint as one self-validating byte blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = format!(
            "model={}\nscale={}\ntensors={}\nconfig_digest={:016x}\nencoding={PAYLOAD_ENCODING}\n",
            self.meta.model_id, self.meta.scale, self.meta.tensor_count, self.meta.config_digest,
        );
        let refs: Vec<&Tensor> = self.tensors.iter().collect();
        let payload = tensors_to_bytes(&refs);
        let mut out =
            Vec::with_capacity(16 + header.len() + payload.len() + std::mem::size_of::<u64>());
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(&payload);
        let checksum = fnv1a64(&out[16..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decode and validate a byte blob written by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// * [`StoreError::Corrupt`] — bad magic, truncation, unparsable header,
    ///   payload/tensor-count mismatch, a payload encoding other than
    ///   `binary`;
    /// * [`StoreError::FormatVersionMismatch`] — written by a different
    ///   container version;
    /// * [`StoreError::ChecksumMismatch`] — any bit flip in header or
    ///   payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        // Length is validated up front, so fixed-width fields read with
        // explicit byte indexing rather than fallible slice conversions.
        let read_u32_le = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        if bytes.len() < 16 + 8 {
            return Err(StoreError::corrupt(format!(
                "artifact is {} bytes, smaller than the fixed container framing",
                bytes.len()
            )));
        }
        if &bytes[0..8] != CHECKPOINT_MAGIC {
            return Err(StoreError::corrupt("bad magic (not a SESR checkpoint)"));
        }
        let version = read_u32_le(8);
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(StoreError::FormatVersionMismatch {
                found: version,
                supported: CHECKPOINT_FORMAT_VERSION,
            });
        }
        let header_len = read_u32_le(12) as usize;
        if header_len > MAX_HEADER_LEN || 16 + header_len + 8 > bytes.len() {
            return Err(StoreError::corrupt(format!(
                "header length {header_len} does not fit in a {}-byte artifact",
                bytes.len()
            )));
        }
        let body = &bytes[16..bytes.len() - 8];
        let tail = bytes.len() - 8;
        let stored = u64::from(read_u32_le(tail)) | (u64::from(read_u32_le(tail + 4)) << 32);
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { stored, computed });
        }
        let header = std::str::from_utf8(&body[..header_len])
            .map_err(|_| StoreError::corrupt("header is not valid UTF-8"))?;
        let meta = parse_header(header)?;
        let payload = &body[header_len..];
        let tensors = tensors_from_bytes(payload)
            .map_err(|e| StoreError::corrupt(format!("payload decode failed: {e}")))?;
        if tensors.len() != meta.tensor_count {
            return Err(StoreError::corrupt(format!(
                "header declares {} tensors but the payload holds {}",
                meta.tensor_count,
                tensors.len()
            )));
        }
        Ok(Checkpoint { meta, tensors })
    }

    /// Content address of this checkpoint: the FNV-1a 64 digest of its full
    /// encoded bytes. Identical weights + metadata always hash identically.
    pub fn content_digest(&self) -> u64 {
        fnv1a64(&self.to_bytes())
    }
}

fn parse_header(header: &str) -> Result<CheckpointMeta> {
    let mut model_id = None;
    let mut scale = None;
    let mut tensor_count = None;
    let mut config_digest = None;
    let mut encoding = None;
    for line in header.lines() {
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| StoreError::corrupt(format!("header line without '=': {line:?}")))?;
        // A repeated known key means the header was tampered with or a value
        // smuggled a newline in; refusing beats silently letting the second
        // occurrence win.
        let duplicate = matches!(
            key,
            "model" if model_id.is_some()
        ) || matches!(key, "scale" if scale.is_some())
            || matches!(key, "tensors" if tensor_count.is_some())
            || matches!(key, "config_digest" if config_digest.is_some())
            || matches!(key, "encoding" if encoding.is_some());
        if duplicate {
            return Err(StoreError::corrupt(format!("duplicate header key {key:?}")));
        }
        match key {
            "model" => model_id = Some(value.to_string()),
            "scale" => {
                scale = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| StoreError::corrupt(format!("unparsable scale {value:?}")))?,
                );
            }
            "tensors" => {
                tensor_count = Some(value.parse::<usize>().map_err(|_| {
                    StoreError::corrupt(format!("unparsable tensor count {value:?}"))
                })?);
            }
            "config_digest" => {
                config_digest = Some(u64::from_str_radix(value, 16).map_err(|_| {
                    StoreError::corrupt(format!("unparsable config digest {value:?}"))
                })?);
            }
            "encoding" => {
                if value != PAYLOAD_ENCODING {
                    return Err(StoreError::corrupt(format!(
                        "unknown weight encoding {value:?}"
                    )));
                }
                encoding = Some(());
            }
            // Unknown keys are tolerated so minor-version writers can add
            // fields without breaking this reader.
            _ => {}
        }
    }
    let missing = |what: &str| StoreError::corrupt(format!("header is missing {what}"));
    encoding.ok_or_else(|| missing("encoding"))?;
    Ok(CheckpointMeta {
        model_id: model_id.ok_or_else(|| missing("model"))?,
        scale: scale.ok_or_else(|| missing("scale"))?,
        tensor_count: tensor_count.ok_or_else(|| missing("tensors"))?,
        config_digest: config_digest.ok_or_else(|| missing("config_digest"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesr_nn::{BatchNorm2d, Conv2d, Sequential};
    use sesr_tensor::{init, Shape};

    fn test_layer(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new("ckpt_test");
        net.push(Conv2d::new(3, 4, 3, 1, 1, &mut rng));
        net.push(Conv2d::new(4, 3, 3, 1, 1, &mut rng));
        net
    }

    #[test]
    fn roundtrip_preserves_meta_and_weights_bitwise() {
        let net = test_layer(1);
        let ckpt = Checkpoint::from_layer("SESR-M2", 2, 0xdead_beef, &net);
        let decoded = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(decoded.meta, ckpt.meta);
        assert_eq!(decoded.tensors.len(), 4); // 2 convs x (weight, bias)
        for (a, b) in decoded.tensors.iter().zip(&ckpt.tensors) {
            assert_eq!(a, b, "roundtrip must be bit-exact");
        }
    }

    #[test]
    fn apply_to_hydrates_an_identical_architecture() {
        let source = test_layer(1);
        let mut target = test_layer(2);
        assert_ne!(source.params()[0].value, target.params()[0].value);
        let ckpt = Checkpoint::from_layer("m", 2, 0, &source);
        ckpt.apply_to(&mut target).unwrap();
        for (a, b) in source.params().iter().zip(target.params()) {
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn apply_to_rejects_architecture_mismatch_without_touching_the_target() {
        let source = test_layer(1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut wider = Sequential::new("wider");
        wider.push(Conv2d::new(3, 8, 3, 1, 1, &mut rng));
        wider.push(Conv2d::new(8, 3, 3, 1, 1, &mut rng));
        let before: Vec<Tensor> = wider.params().iter().map(|p| p.value.clone()).collect();
        let err = Checkpoint::from_layer("m", 2, 0, &source)
            .apply_to(&mut wider)
            .unwrap_err();
        assert!(matches!(err, StoreError::ArchitectureMismatch { .. }));
        for (a, b) in before.iter().zip(wider.params()) {
            assert_eq!(a, &b.value, "a failed apply must not partially hydrate");
        }
    }

    #[test]
    fn apply_to_carries_batchnorm_running_statistics() {
        let mut rng = StdRng::seed_from_u64(4);
        let build = |rng: &mut StdRng| {
            let mut net = Sequential::new("bn_test");
            net.push(Conv2d::new(3, 4, 3, 1, 1, rng));
            net.push(BatchNorm2d::new(4));
            net
        };
        let mut source = build(&mut rng);
        let mut target = build(&mut rng);
        // Training-mode passes move the running statistics off their init
        // values; the optimizer never sees them.
        for _ in 0..3 {
            let batch = init::normal(Shape::new(&[2, 3, 6, 6]), 2.0, 1.0, &mut rng);
            source.forward(&batch, true).unwrap();
        }
        assert_eq!(source.buffers().len(), 2, "running mean + running var");
        for (trained, fresh) in source.buffers().iter().zip(target.buffers()) {
            assert_ne!(*trained, fresh, "training must move the running stats");
        }
        Checkpoint::from_layer("m", 1, 0, &source)
            .apply_to(&mut target)
            .unwrap();
        for (a, b) in source.buffers().iter().zip(target.buffers()) {
            assert_eq!(*a, b);
        }
        let probe = init::normal(Shape::new(&[1, 3, 6, 6]), 2.0, 1.0, &mut rng);
        assert_eq!(
            source.forward(&probe, false).unwrap(),
            target.forward(&probe, false).unwrap(),
            "a hydrated copy must evaluate bit for bit like the trained net"
        );
    }

    #[test]
    fn corruption_rejection_matrix() {
        let net = test_layer(1);
        let good = Checkpoint::from_layer("SESR-M2", 2, 7, &net).to_bytes();
        assert!(Checkpoint::from_bytes(&good).is_ok());

        // Truncations at every structural boundary.
        for cut in [0, 4, 12, 15, 40, good.len() - 9, good.len() - 1] {
            assert!(
                matches!(
                    Checkpoint::from_bytes(&good[..cut]),
                    Err(StoreError::Corrupt { .. }) | Err(StoreError::ChecksumMismatch { .. })
                ),
                "truncation at {cut} must be a typed corruption error"
            );
        }

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(StoreError::Corrupt { .. })
        ));

        // Future format version.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&future),
            Err(StoreError::FormatVersionMismatch {
                found: 99,
                supported: CHECKPOINT_FORMAT_VERSION
            })
        ));

        // A single flipped payload bit trips the checksum.
        let mut flipped = good.clone();
        let mid = good.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            Checkpoint::from_bytes(&flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn text_encoding_header_is_refused() {
        // A well-formed container (valid framing and checksum) whose header
        // names the retired text encoding must be a typed error, never an
        // attempt to read the payload as binary.
        let good = Checkpoint::from_layer("m", 2, 0, &test_layer(1)).to_bytes();
        let header_len = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize;
        let header = std::str::from_utf8(&good[16..16 + header_len]).unwrap();
        let header = header.replace("encoding=binary", "encoding=text");
        let mut bytes = good[..12].to_vec();
        bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(&good[16 + header_len..good.len() - 8]);
        let checksum = fnv1a64(&bytes[16..]);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        match Checkpoint::from_bytes(&bytes) {
            Err(StoreError::Corrupt { reason }) => {
                assert!(reason.contains("unknown weight encoding"), "{reason}");
            }
            other => panic!("expected a typed corruption error, got {other:?}"),
        }
    }

    #[test]
    fn header_injection_via_model_id_is_rejected() {
        // A newline in the model id would smuggle a second `model=` line into
        // the header; the duplicate-key check refuses to parse it, so the id
        // can never be silently rewritten.
        let net = test_layer(1);
        let evil = Checkpoint::from_layer("m\nmodel=other", 2, 0, &net);
        let err = Checkpoint::from_bytes(&evil.to_bytes()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }

    #[test]
    fn header_tensor_count_must_match_payload() {
        let net = test_layer(1);
        let mut ckpt = Checkpoint::from_layer("m", 2, 0, &net);
        ckpt.meta.tensor_count += 1; // lie in the header
        let err = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }

    #[test]
    fn content_digest_is_deterministic_and_weight_sensitive() {
        let a = Checkpoint::from_layer("m", 2, 0, &test_layer(1));
        let b = Checkpoint::from_layer("m", 2, 0, &test_layer(1));
        let c = Checkpoint::from_layer("m", 2, 0, &test_layer(2));
        assert_eq!(a.content_digest(), b.content_digest());
        assert_ne!(a.content_digest(), c.content_digest());
    }
}
