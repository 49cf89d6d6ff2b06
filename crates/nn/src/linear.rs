//! Fully-connected head layers: [`Flatten`] and [`Linear`].

use crate::param::Param;
use crate::scratch::ScratchSpace;
use crate::{Layer, Result};
use rand::Rng;
use sesr_tensor::{init, Shape, Tensor, TensorError};

/// Flatten an NCHW tensor into a `[N, C*H*W]` matrix (classifier head input).
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Create a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let flat = flat_shape(input.shape())?;
        self.cached_shape = Some(input.shape().clone());
        input.reshape(flat)
    }

    fn forward_scratch(
        &mut self,
        input: &Tensor,
        _train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        let flat = flat_shape(input.shape())?;
        let copy = scratch.arena().alloc_copy(input);
        Tensor::from_vec(flat, copy.into_vec())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .take()
            .ok_or_else(|| TensorError::invalid_argument("backward before forward in Flatten"))?;
        grad_output.reshape(shape)
    }
}

/// `[N, rest...]` as the `[N, product(rest)]` matrix a classifier head takes.
fn flat_shape(shape: &Shape) -> Result<Shape> {
    let dims = shape.dims();
    if dims.is_empty() {
        return Err(TensorError::invalid_argument("cannot flatten a scalar"));
    }
    Ok(Shape::new(&[dims[0], dims[1..].iter().product()]))
}

/// Fully-connected layer `y = x W^T + b` over `[N, in]` inputs.
pub struct Linear {
    name: String,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Create a linear layer with Kaiming-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = init::kaiming_normal(Shape::new(&[out_features, in_features]), rng);
        Linear {
            name: format!("linear_{in_features}->{out_features}"),
            weight: Param::new(weight),
            bias: Param::zeros(Shape::new(&[out_features])),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape().dim(1)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape().dim(0)
    }

    /// Batch size of an input this layer accepts.
    fn check_input(&self, input: &Tensor) -> Result<usize> {
        let (n, in_f) = input.shape().as_matrix()?;
        if in_f != self.in_features() {
            return Err(TensorError::invalid_argument(format!(
                "linear layer expects {} input features, got {in_f}",
                self.in_features()
            )));
        }
        Ok(n)
    }

    /// `out = x W^T + b` for a checked `[n, in]` input, the one loop both
    /// forward paths run. Each logit sums `x[p] * W[o, p]` over ascending
    /// `p`, skipping zero inputs, then adds the bias: the order of
    /// `x.matmul(&W.transpose())` followed by a bias add, without the
    /// transposed weight copy.
    fn affine_into(&self, input: &Tensor, n: usize, out: &mut [f32]) {
        let (in_f, out_f) = (self.in_features(), self.out_features());
        let weight = self.weight.value.data();
        let bias = self.bias.value.data();
        for row in 0..n {
            let x = &input.data()[row * in_f..(row + 1) * in_f];
            for o in 0..out_f {
                let w_row = &weight[o * in_f..(o + 1) * in_f];
                let mut acc = 0.0f32;
                for (&x_p, &w_p) in x.iter().zip(w_row) {
                    if x_p != 0.0 {
                        acc += x_p * w_p;
                    }
                }
                out[row * out_f + o] = acc + bias[o];
            }
        }
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let n = self.check_input(input)?;
        self.cached_input = Some(input.clone());
        let mut out = vec![0.0f32; n * self.out_features()];
        self.affine_into(input, n, &mut out);
        Tensor::from_vec(Shape::new(&[n, self.out_features()]), out)
    }

    /// [`Layer::forward`] into an arena buffer, without the input cache.
    fn forward_scratch(
        &mut self,
        input: &Tensor,
        _train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        let n = self.check_input(input)?;
        let mut out = scratch.arena().alloc(n * self.out_features());
        self.affine_into(input, n, &mut out);
        Tensor::from_vec(Shape::new(&[n, self.out_features()]), out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| TensorError::invalid_argument("backward before forward in Linear"))?;
        let (n, _) = input.shape().as_matrix()?;
        let (gn, gout) = grad_output.shape().as_matrix()?;
        if gn != n || gout != self.out_features() {
            return Err(TensorError::ShapeMismatch {
                left: vec![n, self.out_features()],
                right: vec![gn, gout],
            });
        }
        // grad_weight = grad_output^T x input
        let go_t = grad_output.transpose()?;
        let grad_weight = go_t.matmul(&input)?;
        self.weight.accumulate_grad(&grad_weight);
        // grad_bias = column sums of grad_output
        let mut grad_bias = vec![0.0f32; self.out_features()];
        for b in 0..n {
            let row = &grad_output.data()[b * self.out_features()..(b + 1) * self.out_features()];
            for (gb, g) in grad_bias.iter_mut().zip(row) {
                *gb += g;
            }
        }
        self.bias.accumulate_grad(&Tensor::from_vec(
            Shape::new(&[self.out_features()]),
            grad_bias,
        )?);
        // grad_input = grad_output x W
        grad_output.matmul(&self.weight.value)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let x = Tensor::from_vec(
            Shape::new(&[2, 1, 2, 2]),
            (0..8).map(|i| i as f32).collect(),
        )
        .unwrap();
        let y = fl.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 4]);
        let g = fl.backward(&y).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn linear_forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lin = Linear::new(2, 3, &mut rng);
        // Overwrite with known weights.
        lin.params_mut()[0].value =
            Tensor::from_vec(Shape::new(&[3, 2]), vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        lin.params_mut()[1].value = Tensor::from_slice(&[0.0, 0.0, 10.0]);
        let x = Tensor::from_vec(Shape::new(&[1, 2]), vec![2.0, 3.0]).unwrap();
        let y = lin.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[2.0, 3.0, 15.0]);
    }

    #[test]
    fn linear_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lin = Linear::new(3, 2, &mut rng);
        let x = init::normal(Shape::new(&[2, 3]), 0.0, 1.0, &mut rng);
        let y = lin.forward(&x, true).unwrap();
        let gi = lin.backward(&Tensor::ones(y.shape().clone())).unwrap();
        // Finite difference on one input element.
        let eps = 1e-3;
        for idx in 0..x.len() {
            let mut plus = x.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = x.clone();
            minus.data_mut()[idx] -= eps;
            let mut l2 = Linear::new(3, 2, &mut StdRng::seed_from_u64(1));
            l2.params_mut()[0].value = lin.params()[0].value.clone();
            l2.params_mut()[1].value = lin.params()[1].value.clone();
            let fp = l2.forward(&plus, true).unwrap().sum();
            let fm = l2.forward(&minus, true).unwrap().sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - gi.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn head_forward_scratch_is_bitwise_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut flat = Flatten::new();
        let mut lin = Linear::new(6, 4, &mut rng);
        lin.params_mut()[1].value = Tensor::from_slice(&[0.5, -0.25, 0.0, 2.0]);
        let mut x = init::normal(Shape::new(&[3, 6, 1, 1]), 0.0, 1.0, &mut rng);
        // Zero features take the GEMM's skip branch.
        x.data_mut()[1] = 0.0;
        x.data_mut()[8] = 0.0;
        let flat_x = flat.forward(&x, false).unwrap();
        let expected = lin.forward(&flat_x, false).unwrap();
        // Both paths keep the GEMM's order: x W^T, then the bias.
        let weight_t = lin.params()[0].value.transpose().unwrap();
        let mut gemm = flat_x.matmul(&weight_t).unwrap();
        for (i, v) in gemm.data_mut().iter_mut().enumerate() {
            *v += lin.params()[1].value.data()[i % 4];
        }
        assert_eq!(expected, gemm);
        let mut scratch = ScratchSpace::new();
        let features = flat.forward_scratch(&x, false, &mut scratch).unwrap();
        assert_eq!(features.shape().dims(), &[3, 6]);
        let got = lin.forward_scratch(&features, false, &mut scratch).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn linear_input_feature_mismatch() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lin = Linear::new(4, 2, &mut rng);
        let x = Tensor::zeros(Shape::new(&[1, 3]));
        assert!(lin.forward(&x, true).is_err());
    }

    #[test]
    fn linear_param_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let lin = Linear::new(10, 5, &mut rng);
        assert_eq!(lin.num_parameters(), 10 * 5 + 5);
        assert_eq!(lin.in_features(), 10);
        assert_eq!(lin.out_features(), 5);
    }
}
