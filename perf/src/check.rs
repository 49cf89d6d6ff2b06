//! Output checking: the oracle subset, the per-reply sanity pass and the
//! seed-stable output digest.
//!
//! * The first [`ORACLE`] timed replies must be bit-identical to a direct
//!   `DefensePipeline::defend` (+ classifier label) computed outside the
//!   clock.
//! * Every reply is checked for shape and finite values; on a hot workload
//!   it must also equal the first reply seen for the same content and, once
//!   warm, be a cache hit (on the other workloads never).
//! * `output_digest` folds the reply digests of the warm-up and the oracle
//!   subset in request order — a fixed number of requests, so the same seed
//!   gives the same digest however many requests a run completes.

use crate::inputs::Inputs;
use crate::link::Reply;
use sesr_defense::pipeline::DefensePipeline;
use sesr_nn::Layer;
use sesr_tensor::Tensor;
use std::collections::HashMap;

/// Size of the bit-identity subset.
pub const ORACLE: u64 = 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over the reply's shape, f32 bit patterns and label (one word per
/// step, so checking costs far less than producing the reply), and whether
/// every value is finite.
pub fn reply_digest(defended: &Tensor, label: Option<u64>) -> (u64, bool) {
    let mut hash = FNV_OFFSET;
    for dim in defended.shape().dims() {
        hash = fold(hash, *dim as u64);
    }
    let mut exponent_all_ones = false;
    for value in defended.data() {
        let bits = value.to_bits();
        exponent_all_ones |= bits & 0x7f80_0000 == 0x7f80_0000;
        hash = fold(hash, u64::from(bits));
    }
    hash = fold(hash, label.map_or(u64::MAX, |l| l));
    (hash, !exponent_all_ones)
}

/// What a direct call into the pipeline (and classifier) answers for
/// `image`.
pub fn direct(
    pipeline: &DefensePipeline,
    classifier: Option<&mut Box<dyn Layer>>,
    image: &Tensor,
) -> Result<(Tensor, Option<u64>), String> {
    let defended = pipeline.defend(image).map_err(|e| e.to_string())?;
    let label = match classifier {
        Some(classifier) => {
            // One row of logits; `argmax` keeps the first maximum, as the
            // serving worker does.
            let logits = classifier
                .forward(&defended, false)
                .map_err(|e| e.to_string())?;
            Some(logits.argmax().map_err(|e| e.to_string())? as u64)
        }
        None => None,
    };
    Ok((defended, label))
}

/// Checks every reply of one run.
pub struct Checker {
    warmup: u64,
    hot: bool,
    out_dims: [usize; 4],
    oracle: Vec<(Tensor, Option<u64>)>,
    prefix: Vec<Option<u64>>,
    first_by_content: HashMap<u64, u64>,
    /// Replies that failed a check, and the first reason.
    pub problems: u64,
    pub first_problem: Option<String>,
}

impl Checker {
    /// Compute the oracle for requests `warmup..warmup + ORACLE` of `inputs`
    /// by calling the pipeline directly. `out_dims` is the shape every reply
    /// must have.
    pub fn new(
        inputs: &Inputs,
        warmup: u64,
        out_dims: [usize; 4],
        pipeline: &DefensePipeline,
        mut classifier: Option<Box<dyn Layer>>,
    ) -> Result<Checker, String> {
        let oracle = (warmup..warmup + ORACLE)
            .map(|seq| direct(pipeline, classifier.as_mut(), &inputs.image(seq)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checker {
            warmup,
            hot: inputs.hot_set() > 0,
            out_dims,
            oracle,
            prefix: vec![None; (warmup + ORACLE) as usize],
            first_by_content: HashMap::new(),
            problems: 0,
            first_problem: None,
        })
    }

    fn problem(&mut self, seq: u64, what: &str) {
        self.problems += 1;
        self.first_problem
            .get_or_insert_with(|| format!("request {seq}: {what}"));
    }

    /// Check the reply to request `seq`, which carried content `content`.
    pub fn check(&mut self, seq: u64, content: u64, reply: &Reply) {
        if reply.defended.shape().dims() != self.out_dims {
            return self.problem(seq, "wrong output shape");
        }
        let (digest, finite) = reply_digest(&reply.defended, reply.label);
        if !finite {
            self.problem(seq, "non-finite output");
        }
        if reply.cache_hit != (self.hot && seq >= self.warmup) {
            self.problem(seq, "unexpected cache_hit flag");
        }
        if self.hot && *self.first_by_content.entry(content).or_insert(digest) != digest {
            self.problem(seq, "differs from the first reply for the same content");
        }
        if let Some(slot) = self.prefix.get_mut(seq as usize) {
            *slot = Some(digest);
        }
        if let Some((defended, label)) = seq
            .checked_sub(self.warmup)
            .and_then(|i| self.oracle.get(i as usize))
        {
            let same_bits = defended
                .data()
                .iter()
                .zip(reply.defended.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same_bits || *label != reply.label {
                self.problem(seq, "not bit-identical to a direct defend");
            }
        }
    }

    /// The output digest, or `None` while a warm-up or oracle reply is
    /// still missing.
    pub fn digest(&self) -> Option<u64> {
        self.prefix
            .iter()
            .try_fold(FNV_OFFSET, |hash, digest| Some(fold(hash, (*digest)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_tensor::Shape;

    #[test]
    fn digest_sees_every_bit_the_shape_and_the_label() {
        let a = Tensor::from_vec(Shape::new(&[1, 1, 2, 2]), vec![0.0, 0.5, 1.0, 0.25]).unwrap();
        let mut b = a.clone();
        b.data_mut()[3] = f32::from_bits(0.25f32.to_bits() + 1);
        let reshaped = a.reshape(Shape::new(&[1, 1, 4, 1])).unwrap();
        let (da, finite) = reply_digest(&a, None);
        assert!(finite);
        assert_eq!(da, reply_digest(&a.clone(), None).0);
        assert_ne!(da, reply_digest(&b, None).0);
        assert_ne!(da, reply_digest(&reshaped, None).0);
        assert_ne!(da, reply_digest(&a, Some(0)).0);
        assert_ne!(reply_digest(&a, Some(0)).0, reply_digest(&a, Some(1)).0);
    }

    #[test]
    fn digest_flags_nan_and_infinity() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let t = Tensor::from_vec(Shape::new(&[1, 1, 1, 2]), vec![0.5, bad]).unwrap();
            assert!(!reply_digest(&t, None).1, "{bad} must be flagged");
        }
    }
}
