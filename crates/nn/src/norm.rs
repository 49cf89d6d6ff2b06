//! Batch normalisation over NCHW feature maps.

use crate::param::Param;
use crate::scratch::ScratchSpace;
use crate::{Layer, Result};
use sesr_tensor::{Shape, Tensor, TensorError};

/// 2-D batch normalisation with learnable scale (`gamma`) and shift (`beta`).
///
/// In training mode the layer normalises with batch statistics and maintains
/// exponential running averages; in evaluation mode it uses the running
/// statistics, matching the standard deployment behaviour of MobileNet-V2,
/// ResNet and Inception.
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    cache: Option<BnCache>,
}

struct BnCache {
    normalized: Tensor,
    std_inv: Vec<f32>,
    input_shape: Shape,
    /// Whether the forward normalised with batch statistics (`true`) or with
    /// the running statistics, which are constants to the backward pass.
    train: bool,
}

impl BatchNorm2d {
    /// Create a batch-norm layer over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::ones(Shape::new(&[channels]))),
            beta: Param::zeros(Shape::new(&[channels])),
            running_mean: Tensor::zeros(Shape::new(&[channels])),
            running_var: Tensor::ones(Shape::new(&[channels])),
            cache: None,
        }
    }

    /// Number of channels this layer normalises.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The running mean currently tracked (used in evaluation mode).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// The running variance currently tracked (used in evaluation mode).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// `(n, c, h, w)` of an input this layer can normalise.
    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize, usize)> {
        let (n, c, h, w) = input.shape().as_nchw()?;
        if c != self.channels {
            return Err(TensorError::invalid_argument(format!(
                "batchnorm configured for {} channels, got {c}",
                self.channels
            )));
        }
        Ok((n, c, h, w))
    }

    /// `out = gamma * (x - mean) / sqrt(var + eps) + beta` over an input of
    /// the checked `dims`, the one loop both forward paths run. `train`
    /// normalises with the batch statistics and updates the running ones;
    /// otherwise the running statistics are used. `cache`, when given,
    /// receives the normalised input and each channel's
    /// `1 / sqrt(var + eps)` for `backward`.
    fn normalize_into(
        &mut self,
        data: &[f32],
        (n, c, h, w): (usize, usize, usize, usize),
        train: bool,
        out: &mut [f32],
        mut cache: Option<(&mut [f32], &mut [f32])>,
    ) {
        let spatial = h * w;
        let count = (n * spatial) as f32;
        for ci in 0..c {
            let (mean, var) = if train {
                let mut mean = 0.0f32;
                for b in 0..n {
                    let base = (b * c + ci) * spatial;
                    mean += data[base..base + spatial].iter().sum::<f32>();
                }
                mean /= count;
                let mut var = 0.0f32;
                for b in 0..n {
                    let base = (b * c + ci) * spatial;
                    var += data[base..base + spatial]
                        .iter()
                        .map(|&v| (v - mean) * (v - mean))
                        .sum::<f32>();
                }
                var /= count;
                // Update running statistics.
                let rm = self.running_mean.data_mut();
                rm[ci] = (1.0 - self.momentum) * rm[ci] + self.momentum * mean;
                let rv = self.running_var.data_mut();
                rv[ci] = (1.0 - self.momentum) * rv[ci] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean.data()[ci], self.running_var.data()[ci])
            };
            let inv = 1.0 / (var + self.eps).sqrt();
            let (g, beta) = (self.gamma.value.data()[ci], self.beta.value.data()[ci]);
            if let Some((_, std_inv)) = &mut cache {
                std_inv[ci] = inv;
            }
            for b in 0..n {
                let base = (b * c + ci) * spatial;
                for i in base..base + spatial {
                    let xn = (data[i] - mean) * inv;
                    if let Some((normalized, _)) = &mut cache {
                        normalized[i] = xn;
                    }
                    out[i] = g * xn + beta;
                }
            }
        }
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        "batchnorm2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let dims = self.check_input(input)?;
        let mut out = vec![0.0f32; input.len()];
        let mut normalized = vec![0.0f32; input.len()];
        let mut std_inv = vec![0.0f32; self.channels];
        let cache = Some((normalized.as_mut_slice(), std_inv.as_mut_slice()));
        self.normalize_into(input.data(), dims, train, &mut out, cache);
        self.cache = Some(BnCache {
            normalized: Tensor::from_vec(input.shape().clone(), normalized)?,
            std_inv,
            input_shape: input.shape().clone(),
            train,
        });
        Tensor::from_vec(input.shape().clone(), out)
    }

    /// Evaluation mode runs [`Layer::forward`]'s loop into an arena buffer,
    /// without the backward cache. Training mode needs the cache and updates
    /// the running statistics, so it takes the allocating path.
    fn forward_scratch(
        &mut self,
        input: &Tensor,
        train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        if train {
            return self.forward(input, train);
        }
        let dims = self.check_input(input)?;
        let mut out = scratch.arena().alloc(input.len());
        self.normalize_into(input.data(), dims, false, &mut out, None);
        Tensor::from_vec(input.shape().clone(), out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self.cache.take().ok_or_else(|| {
            TensorError::invalid_argument("backward before forward in BatchNorm2d")
        })?;
        if grad_output.shape() != &cache.input_shape {
            return Err(TensorError::ShapeMismatch {
                left: cache.input_shape.dims().to_vec(),
                right: grad_output.shape().dims().to_vec(),
            });
        }
        let (n, c, h, w) = cache.input_shape.as_nchw()?;
        let spatial = h * w;
        let count = (n * spatial) as f32;
        let go = grad_output.data();
        let xn = cache.normalized.data();
        let gamma = self.gamma.value.data();

        let mut grad_gamma = vec![0.0f32; c];
        let mut grad_beta = vec![0.0f32; c];
        let mut grad_input = vec![0.0f32; grad_output.len()];

        for ci in 0..c {
            // Sum over batch and spatial positions for this channel.
            let mut sum_go = 0.0f32;
            let mut sum_go_xn = 0.0f32;
            for b in 0..n {
                let base = (b * c + ci) * spatial;
                for i in base..base + spatial {
                    sum_go += go[i];
                    sum_go_xn += go[i] * xn[i];
                }
            }
            grad_beta[ci] = sum_go;
            grad_gamma[ci] = sum_go_xn;
            let g = gamma[ci];
            let inv = cache.std_inv[ci];
            for b in 0..n {
                let base = (b * c + ci) * spatial;
                for i in base..base + spatial {
                    grad_input[i] = if cache.train {
                        // Through the batch statistics, which depend on x.
                        g * inv / count * (count * go[i] - sum_go - xn[i] * sum_go_xn)
                    } else {
                        // Running statistics are constants: the layer is
                        // the affine map gamma * inv * (x - mean) + beta.
                        g * inv * go[i]
                    };
                }
            }
        }

        self.gamma
            .accumulate_grad(&Tensor::from_vec(Shape::new(&[c]), grad_gamma)?);
        self.beta
            .accumulate_grad(&Tensor::from_vec(Shape::new(&[c]), grad_beta)?);
        Tensor::from_vec(cache.input_shape.clone(), grad_input)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn buffers(&self) -> Vec<&Tensor> {
        vec![&self.running_mean, &self.running_var]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesr_tensor::init;

    #[test]
    fn training_mode_normalises_batch() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm2d::new(3);
        let x = init::normal(Shape::new(&[4, 3, 5, 5]), 3.0, 2.0, &mut rng);
        let y = bn.forward(&x, true).unwrap();
        // Per-channel output should be ~zero-mean unit-variance (gamma=1, beta=0).
        for ci in 0..3 {
            let mut vals = Vec::new();
            for b in 0..4 {
                for i in 0..25 {
                    vals.push(y.data()[(b * 3 + ci) * 25 + i]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean={mean}");
            assert!((var - 1.0).abs() < 1e-2, "var={var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm2d::new(2);
        // Run several training batches so running stats converge toward the data stats.
        for _ in 0..200 {
            let x = init::normal(Shape::new(&[8, 2, 4, 4]), 5.0, 1.0, &mut rng);
            bn.forward(&x, true).unwrap();
        }
        assert!((bn.running_mean().data()[0] - 5.0).abs() < 0.3);
        let x = Tensor::full(Shape::new(&[1, 2, 2, 2]), 5.0);
        let y = bn.forward(&x, false).unwrap();
        // At the running mean the eval output should be near beta = 0.
        assert!(y.data().iter().all(|&v| v.abs() < 0.5));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = init::normal(Shape::new(&[2, 2, 3, 3]), 0.0, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        // Make gamma/beta non-trivial.
        bn.params_mut()[0].value = Tensor::from_slice(&[1.5, 0.7]);
        bn.params_mut()[1].value = Tensor::from_slice(&[0.2, -0.3]);
        let y = bn.forward(&x, true).unwrap();
        let gi = bn.backward(&Tensor::ones(y.shape().clone())).unwrap();

        let eps = 1e-2;
        let loss = |input: &Tensor| -> f32 {
            let mut bn2 = BatchNorm2d::new(2);
            bn2.params_mut()[0].value = Tensor::from_slice(&[1.5, 0.7]);
            bn2.params_mut()[1].value = Tensor::from_slice(&[0.2, -0.3]);
            bn2.forward(input, true).unwrap().sum()
        };
        for &idx in &[0usize, 7, 20, 35] {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (num - gi.data()[idx]).abs() < 5e-2,
                "fd={num} got={}",
                gi.data()[idx]
            );
        }
    }

    /// Eval-mode batch norm with non-trivial running statistics, the state
    /// every gradient attack differentiates through.
    fn eval_bn() -> BatchNorm2d {
        let mut bn = BatchNorm2d::new(2);
        bn.params_mut()[0].value = Tensor::from_slice(&[1.5, 0.7]);
        bn.params_mut()[1].value = Tensor::from_slice(&[0.2, -0.3]);
        *bn.buffers_mut()[0] = Tensor::from_slice(&[0.4, -0.1]);
        *bn.buffers_mut()[1] = Tensor::from_slice(&[2.0, 0.5]);
        bn
    }

    #[test]
    fn eval_mode_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = init::normal(Shape::new(&[1, 2, 3, 3]), 0.0, 1.0, &mut rng);
        // A non-uniform upstream gradient: loss = Σ y ⊙ r.
        let r = init::normal(x.shape().clone(), 0.0, 1.0, &mut rng);
        let mut bn = eval_bn();
        bn.forward(&x, false).unwrap();
        let gi = bn.backward(&r).unwrap();

        let eps = 1e-2;
        let loss = |input: &Tensor| -> f32 {
            let y = eval_bn().forward(input, false).unwrap();
            y.mul(&r).unwrap().sum()
        };
        for idx in 0..x.len() {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (num - gi.data()[idx]).abs() < 1e-2,
                "index {idx}: fd={num} got={}",
                gi.data()[idx]
            );
        }
    }

    #[test]
    fn eval_forward_scratch_is_bitwise_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = init::normal(Shape::new(&[3, 2, 4, 5]), 0.5, 2.0, &mut rng);
        let mut bn = eval_bn();
        let expected = bn.forward(&x, false).unwrap();
        let mut scratch = ScratchSpace::new();
        for _ in 0..2 {
            let got = bn.forward_scratch(&x, false, &mut scratch).unwrap();
            assert_eq!(got, expected);
            scratch.recycle(got);
        }
        assert!(bn
            .forward_scratch(
                &Tensor::zeros(Shape::new(&[1, 3, 2, 2])),
                false,
                &mut scratch
            )
            .is_err());
    }

    #[test]
    fn channel_mismatch_is_error() {
        let mut bn = BatchNorm2d::new(4);
        let x = Tensor::zeros(Shape::new(&[1, 3, 2, 2]));
        assert!(bn.forward(&x, true).is_err());
    }

    #[test]
    fn param_count() {
        let bn = BatchNorm2d::new(16);
        assert_eq!(bn.num_parameters(), 32);
        assert_eq!(bn.channels(), 16);
    }
}
