//! Weight serialization for caching trained models between runs.
//!
//! One encoding: a **compact binary** format (little-endian length-prefixed
//! shapes and raw `f32` bit patterns), bit-exact by construction for every
//! `f32` bit pattern including negative zero and subnormals. `sesr-store`
//! wraps it in its self-validating checkpoint container.

use crate::Result;
use sesr_tensor::{Shape, Tensor, TensorError};

/// Serialise a list of tensors to the compact little-endian binary format:
/// `u32` tensor count, then per tensor a `u32` rank, `u64` dims, a `u64`
/// element count and the raw `f32` bit patterns.
pub fn tensors_to_bytes(tensors: &[&Tensor]) -> Vec<u8> {
    let payload: usize = tensors
        .iter()
        .map(|t| 4 + 8 * t.shape().dims().len() + 8 + 4 * t.data().len())
        .sum();
    let mut out = Vec::with_capacity(4 + payload);
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        let dims = t.shape().dims();
        out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for dim in dims {
            out.extend_from_slice(&(*dim as u64).to_le_bytes());
        }
        out.extend_from_slice(&(t.data().len() as u64).to_le_bytes());
        for value in t.data() {
            out.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }
    out
}

/// Bounded little-endian reader over a byte slice, so every truncation is a
/// typed error instead of a panic.
struct ByteReader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, offset: 0 }
    }

    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .offset
            .checked_add(len)
            .filter(|e| *e <= self.bytes.len());
        match end {
            Some(end) => {
                let slice = &self.bytes[self.offset..end];
                self.offset = end;
                Ok(slice)
            }
            None => Err(TensorError::invalid_argument(format!(
                "truncated binary checkpoint: unexpected end of input while reading {what}"
            ))),
        }
    }

    fn read_u32(&mut self, what: &str) -> Result<u32> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    fn read_u64(&mut self, what: &str) -> Result<u64> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }
}

/// Parse the binary checkpoint format written by [`tensors_to_bytes`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on truncation, trailing garbage,
/// or an element count inconsistent with the shape.
pub fn tensors_from_bytes(bytes: &[u8]) -> Result<Vec<Tensor>> {
    let mut reader = ByteReader::new(bytes);
    let count = reader.read_u32("tensor count")? as usize;
    let mut tensors = Vec::with_capacity(count.min(1024));
    for index in 0..count {
        let rank = reader.read_u32("tensor rank")? as usize;
        if rank > sesr_tensor::MAX_RANK {
            return Err(TensorError::invalid_argument(format!(
                "binary checkpoint tensor {index} claims rank {rank} (max {})",
                sesr_tensor::MAX_RANK
            )));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(reader.read_u64("shape dimension")? as usize);
        }
        let len = reader.read_u64("element count")? as usize;
        let expected = dims
            .iter()
            .try_fold(1usize, |acc, d| acc.checked_mul(*d))
            .ok_or_else(|| {
                TensorError::invalid_argument(format!(
                    "binary checkpoint tensor {index} shape {dims:?} overflows usize"
                ))
            })?;
        if len != expected {
            return Err(TensorError::invalid_argument(format!(
                "binary checkpoint tensor {index} stores {len} values but shape {dims:?} \
                 implies {expected}"
            )));
        }
        let byte_len = len.checked_mul(4).ok_or_else(|| {
            TensorError::invalid_argument(format!(
                "binary checkpoint tensor {index} element count {len} overflows usize"
            ))
        })?;
        let raw = reader.take(byte_len, "tensor data")?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
            .collect();
        tensors.push(Tensor::from_vec(Shape::new(&dims), data)?);
    }
    if reader.remaining() != 0 {
        return Err(TensorError::invalid_argument(format!(
            "binary checkpoint has {} trailing bytes after the last tensor",
            reader.remaining()
        )));
    }
    Ok(tensors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Layer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesr_tensor::Shape;

    /// Bit-exact round-trip through the binary encoding.
    fn roundtrip_bitwise(tensor: &Tensor) {
        let parsed = tensors_from_bytes(&tensors_to_bytes(&[tensor])).unwrap();
        assert_eq!(parsed[0].shape(), tensor.shape());
        for (a, b) in parsed[0].data().iter().zip(tensor.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b} bitwise");
        }
    }

    #[test]
    fn scalar_and_empty_shapes_roundtrip() {
        roundtrip_bitwise(&Tensor::scalar(-3.75));
        roundtrip_bitwise(&Tensor::zeros(Shape::new(&[0])));
        roundtrip_bitwise(&Tensor::zeros(Shape::new(&[2, 0, 3])));
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let t = Tensor::from_vec(Shape::new(&[2]), vec![-0.0, 0.0]).unwrap();
        roundtrip_bitwise(&t);
    }

    #[test]
    fn subnormals_roundtrip_bitwise() {
        let t = Tensor::from_vec(
            Shape::new(&[4]),
            vec![
                f32::MIN_POSITIVE / 2.0,      // largest-ish subnormal region
                f32::from_bits(1),            // smallest positive subnormal
                -f32::from_bits(0x0000_0fff), // negative subnormal
                f32::MIN_POSITIVE,            // smallest normal, for contrast
            ],
        )
        .unwrap();
        assert!(t.data()[..3].iter().all(|v| v.is_subnormal()));
        roundtrip_bitwise(&t);
    }

    #[test]
    fn extreme_normals_roundtrip_bitwise() {
        let t = Tensor::from_vec(Shape::new(&[3]), vec![f32::MAX, f32::MIN, f32::EPSILON]).unwrap();
        roundtrip_bitwise(&t);
    }

    #[test]
    fn malformed_binary_checkpoint_rejection_matrix() {
        let a = Tensor::from_vec(Shape::new(&[2, 2]), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let good = tensors_to_bytes(&[&a]);
        assert!(tensors_from_bytes(&good).is_ok());

        // Truncated header: cut inside the count / rank / dims / data.
        for cut in [0, 2, 5, 9, 17, good.len() - 1] {
            assert!(
                tensors_from_bytes(&good[..cut]).is_err(),
                "truncation at byte {cut} must be rejected"
            );
        }

        // Trailing garbage after a well-formed tensor list.
        let mut padded = good.clone();
        padded.extend_from_slice(&[0xAB; 3]);
        assert!(tensors_from_bytes(&padded).is_err());

        // Element count inconsistent with the declared shape.
        let mut mismatched = good.clone();
        let len_offset = 4 + 4 + 16; // count + rank + two u64 dims
        mismatched[len_offset..len_offset + 8].copy_from_slice(&3u64.to_le_bytes());
        assert!(tensors_from_bytes(&mismatched).is_err());

        // Absurd rank is rejected before allocating.
        let mut bad_rank = good;
        bad_rank[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(tensors_from_bytes(&bad_rank).is_err());

        // Rank just above Shape's inline maximum is a typed error, not a
        // panic — a crafted artifact must never abort a serving process.
        let mut rank7 = Vec::new();
        rank7.extend_from_slice(&1u32.to_le_bytes()); // count
        rank7.extend_from_slice(&7u32.to_le_bytes()); // rank 7 > MAX_RANK
        for _ in 0..7 {
            rank7.extend_from_slice(&1u64.to_le_bytes());
        }
        rank7.extend_from_slice(&1u64.to_le_bytes()); // len
        rank7.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(tensors_from_bytes(&rank7).is_err());

        // Shape products that overflow usize are corruption, not a panic
        // (and in release must not wrap around to a "valid" small product).
        let mut overflowing = Vec::new();
        overflowing.extend_from_slice(&1u32.to_le_bytes()); // count
        overflowing.extend_from_slice(&2u32.to_le_bytes()); // rank
        overflowing.extend_from_slice(&(1u64 << 33).to_le_bytes());
        overflowing.extend_from_slice(&(1u64 << 33).to_le_bytes());
        overflowing.extend_from_slice(&0u64.to_le_bytes()); // len
        assert!(tensors_from_bytes(&overflowing).is_err());
    }

    #[test]
    fn binary_roundtrip_matches_text_for_a_layer() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let tensors: Vec<&Tensor> = net.params().iter().map(|p| &p.value).collect();
        let via_bytes = tensors_from_bytes(&tensors_to_bytes(&tensors)).unwrap();
        assert_eq!(via_bytes.len(), tensors.len());
        for (parsed, original) in via_bytes.iter().zip(&tensors) {
            assert_eq!(&parsed, original);
        }
    }
}
