//! Shared building blocks: inverted residual (MobileNet-V2), basic residual
//! with projection shortcut (ResNet) and multi-branch inception blocks.

use crate::Result;
use rand::Rng;
use sesr_nn::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Layer, MaxPool2d, Param, ReLU, Relu6, ScratchSpace,
    Sequential,
};
use sesr_tensor::ops::{concat_channels, split_channels};
use sesr_tensor::{Shape, Tensor, TensorError};

/// MobileNet-V2 inverted residual block: 1×1 expansion → depthwise 3×3 →
/// 1×1 linear projection, with a residual connection when the stride is 1 and
/// the channel count is unchanged.
pub struct InvertedResidual {
    use_residual: bool,
    body: Sequential,
    /// Set by `forward`, taken by `backward`: the residual's gradient needs
    /// no activation, only the proof that a forward ran.
    forwarded: bool,
}

impl InvertedResidual {
    /// Create a block with the given expansion ratio `t` and stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        expansion: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let hidden = in_channels * expansion;
        let mut body = Sequential::new("inverted_residual");
        if expansion != 1 {
            body.push(Conv2d::new(in_channels, hidden, 1, 1, 0, rng));
            body.push(BatchNorm2d::new(hidden));
            body.push(Relu6::new());
        }
        body.push(DepthwiseConv2d::new(hidden, 3, stride, 1, rng));
        body.push(BatchNorm2d::new(hidden));
        body.push(Relu6::new());
        body.push(Conv2d::new(hidden, out_channels, 1, 1, 0, rng));
        body.push(BatchNorm2d::new(out_channels));
        InvertedResidual {
            use_residual: stride == 1 && in_channels == out_channels,
            body,
            forwarded: false,
        }
    }

    /// Whether this block adds its input to its output.
    pub fn has_residual(&self) -> bool {
        self.use_residual
    }
}

impl Layer for InvertedResidual {
    fn name(&self) -> &str {
        "inverted_residual"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.forwarded = true;
        let out = self.body.forward(input, train)?;
        if self.use_residual {
            out.add(input)
        } else {
            Ok(out)
        }
    }

    fn forward_scratch(
        &mut self,
        input: &Tensor,
        train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        let mut out = self.body.forward_scratch(input, train, scratch)?;
        if self.use_residual {
            // Adding `1.0 * x` is exact, so this is bitwise `out.add(input)`.
            out.add_scaled_inplace(input, 1.0)?;
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if !std::mem::take(&mut self.forwarded) {
            return Err(TensorError::invalid_argument(
                "backward before forward in InvertedResidual",
            ));
        }
        let grad_body = self.body.backward(grad_output)?;
        if self.use_residual {
            grad_body.add(grad_output)
        } else {
            Ok(grad_body)
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.body.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.body.params()
    }

    fn buffers(&self) -> Vec<&Tensor> {
        self.body.buffers()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.body.buffers_mut()
    }
}

/// ResNet basic residual block (two 3×3 convolutions with batch norm), with a
/// 1×1 projection shortcut when the stride or channel count changes.
pub struct ResidualBlock {
    body: Sequential,
    shortcut: Option<Sequential>,
    relu_out: ReLU,
    /// Set by `forward`, taken by `backward` (see [`InvertedResidual`]).
    forwarded: bool,
}

impl ResidualBlock {
    /// Create a block mapping `in_channels` to `out_channels` at the given stride.
    pub fn new(in_channels: usize, out_channels: usize, stride: usize, rng: &mut impl Rng) -> Self {
        let mut body = Sequential::new("resnet_block_body");
        body.push(Conv2d::new(in_channels, out_channels, 3, stride, 1, rng));
        body.push(BatchNorm2d::new(out_channels));
        body.push(ReLU::new());
        body.push(Conv2d::new(out_channels, out_channels, 3, 1, 1, rng));
        body.push(BatchNorm2d::new(out_channels));
        let shortcut = if stride != 1 || in_channels != out_channels {
            let mut s = Sequential::new("resnet_block_shortcut");
            s.push(Conv2d::new(in_channels, out_channels, 1, stride, 0, rng));
            s.push(BatchNorm2d::new(out_channels));
            Some(s)
        } else {
            None
        };
        ResidualBlock {
            body,
            shortcut,
            relu_out: ReLU::new(),
            forwarded: false,
        }
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &str {
        "resnet_block"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.forwarded = true;
        let body_out = self.body.forward(input, train)?;
        let shortcut_out = match &mut self.shortcut {
            Some(s) => s.forward(input, train)?,
            None => input.clone(),
        };
        let sum = body_out.add(&shortcut_out)?;
        self.relu_out.forward(&sum, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if !std::mem::take(&mut self.forwarded) {
            return Err(TensorError::invalid_argument(
                "backward before forward in ResidualBlock",
            ));
        }
        let grad_sum = self.relu_out.backward(grad_output)?;
        let grad_body = self.body.backward(&grad_sum)?;
        let grad_shortcut = match &mut self.shortcut {
            Some(s) => s.backward(&grad_sum)?,
            None => grad_sum,
        };
        grad_body.add(&grad_shortcut)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.body.params_mut();
        if let Some(s) = &mut self.shortcut {
            out.extend(s.params_mut());
        }
        out
    }

    fn params(&self) -> Vec<&Param> {
        let mut out = self.body.params();
        if let Some(s) = &self.shortcut {
            out.extend(s.params());
        }
        out
    }

    fn buffers(&self) -> Vec<&Tensor> {
        let mut out = self.body.buffers();
        if let Some(s) = &self.shortcut {
            out.extend(s.buffers());
        }
        out
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out = self.body.buffers_mut();
        if let Some(s) = &mut self.shortcut {
            out.extend(s.buffers_mut());
        }
        out
    }
}

/// Inception block with four parallel branches (1×1, 1×1→3×3, 1×1→5×5,
/// 3×3 max-pool→1×1) whose outputs are concatenated along the channel axis.
pub struct InceptionBlock {
    branches: Vec<Sequential>,
    branch_channels: Vec<usize>,
    /// Shape of the last `forward` input, taken by `backward`.
    input_shape: Option<Shape>,
}

impl InceptionBlock {
    /// Create a block with the given per-branch output widths.
    ///
    /// `b1` is the width of the 1×1 branch, `b3` of the 3×3 branch, `b5` of
    /// the 5×5 branch and `bp` of the pooling branch; the block output has
    /// `b1 + b3 + b5 + bp` channels.
    pub fn new(
        in_channels: usize,
        b1: usize,
        b3: usize,
        b5: usize,
        bp: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut branch1 = Sequential::new("inception_1x1");
        branch1.push(Conv2d::new(in_channels, b1, 1, 1, 0, rng));
        branch1.push(BatchNorm2d::new(b1));
        branch1.push(ReLU::new());

        let reduce3 = (b3 / 2).max(1);
        let mut branch3 = Sequential::new("inception_3x3");
        branch3.push(Conv2d::new(in_channels, reduce3, 1, 1, 0, rng));
        branch3.push(BatchNorm2d::new(reduce3));
        branch3.push(ReLU::new());
        branch3.push(Conv2d::new(reduce3, b3, 3, 1, 1, rng));
        branch3.push(BatchNorm2d::new(b3));
        branch3.push(ReLU::new());

        let reduce5 = (b5 / 2).max(1);
        let mut branch5 = Sequential::new("inception_5x5");
        branch5.push(Conv2d::new(in_channels, reduce5, 1, 1, 0, rng));
        branch5.push(BatchNorm2d::new(reduce5));
        branch5.push(ReLU::new());
        branch5.push(Conv2d::new(reduce5, b5, 5, 1, 2, rng));
        branch5.push(BatchNorm2d::new(b5));
        branch5.push(ReLU::new());

        let mut branch_pool = Sequential::new("inception_pool");
        branch_pool.push(MaxPool2d::new(3, 1, 1));
        branch_pool.push(Conv2d::new(in_channels, bp, 1, 1, 0, rng));
        branch_pool.push(BatchNorm2d::new(bp));
        branch_pool.push(ReLU::new());

        InceptionBlock {
            branches: vec![branch1, branch3, branch5, branch_pool],
            branch_channels: vec![b1, b3, b5, bp],
            input_shape: None,
        }
    }

    /// Total output channels of the block.
    pub fn out_channels(&self) -> usize {
        self.branch_channels.iter().sum()
    }
}

impl Layer for InceptionBlock {
    fn name(&self) -> &str {
        "inception_block"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.input_shape = Some(input.shape().clone());
        let mut outputs = Vec::with_capacity(self.branches.len());
        for branch in &mut self.branches {
            outputs.push(branch.forward(input, train)?);
        }
        let refs: Vec<&Tensor> = outputs.iter().collect();
        concat_channels(&refs)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input_shape = self.input_shape.take().ok_or_else(|| {
            TensorError::invalid_argument("backward before forward in InceptionBlock")
        })?;
        let grads = split_channels(grad_output, &self.branch_channels)?;
        let mut grad_input = Tensor::zeros(input_shape);
        for (branch, grad) in self.branches.iter_mut().zip(grads) {
            let g = branch.backward(&grad)?;
            grad_input.add_scaled_inplace(&g, 1.0)?;
        }
        Ok(grad_input)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.branches.iter().flat_map(|b| b.params()).collect()
    }

    fn buffers(&self) -> Vec<&Tensor> {
        self.branches.iter().flat_map(|b| b.buffers()).collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.buffers_mut())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesr_tensor::{init, Shape};

    #[test]
    fn inverted_residual_shapes_and_residual_flag() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut same = InvertedResidual::new(8, 8, 1, 2, &mut rng);
        assert!(same.has_residual());
        let x = init::normal(Shape::new(&[1, 8, 8, 8]), 0.0, 1.0, &mut rng);
        let y = same.forward(&x, true).unwrap();
        assert_eq!(y.shape(), x.shape());
        let g = same.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.shape(), x.shape());

        let mut strided = InvertedResidual::new(8, 16, 2, 2, &mut rng);
        assert!(!strided.has_residual());
        let y = strided.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 16, 4, 4]);
    }

    #[test]
    fn resnet_block_with_and_without_projection() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = init::normal(Shape::new(&[1, 8, 8, 8]), 0.0, 1.0, &mut rng);
        let mut plain = ResidualBlock::new(8, 8, 1, &mut rng);
        let y = plain.forward(&x, true).unwrap();
        assert_eq!(y.shape(), x.shape());
        let g = plain.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.shape(), x.shape());

        let mut proj = ResidualBlock::new(8, 16, 2, &mut rng);
        let y = proj.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 16, 4, 4]);
        let g = proj.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn inception_block_concatenates_branches() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut block = InceptionBlock::new(8, 4, 6, 2, 4, &mut rng);
        assert_eq!(block.out_channels(), 16);
        let x = init::normal(Shape::new(&[2, 8, 6, 6]), 0.0, 1.0, &mut rng);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[2, 16, 6, 6]);
        let g = block.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.shape(), x.shape());
        assert!(g.norm() > 0.0);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Tensor::zeros(Shape::new(&[1, 8, 4, 4]));
        assert!(InvertedResidual::new(8, 8, 1, 2, &mut rng)
            .backward(&g)
            .is_err());
        assert!(ResidualBlock::new(8, 8, 1, &mut rng).backward(&g).is_err());
        assert!(InceptionBlock::new(8, 2, 2, 2, 2, &mut rng)
            .backward(&g)
            .is_err());
    }
}
