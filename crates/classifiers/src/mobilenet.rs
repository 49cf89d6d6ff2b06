//! MobileNet-V2-style classifier (Sandler et al.): a stem convolution,
//! a stack of inverted residual blocks with depthwise convolutions, a 1×1
//! head convolution, global average pooling and a linear classifier.
//!
//! The laptop-scale configuration keeps the architectural signature of
//! MobileNet-V2 — linear bottlenecks, ReLU6, depthwise separable convolutions,
//! stride-2 downsampling inside blocks — at a width/depth that trains on the
//! synthetic dataset in seconds.

use crate::blocks::InvertedResidual;
use crate::Result;
use rand::Rng;
use sesr_nn::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Layer, Linear, Param, Relu6, ScratchSpace,
    Sequential,
};
use sesr_tensor::Tensor;

/// Configuration of the laptop-scale MobileNet-V2-style classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MobileNetV2Config {
    /// Stem output channels.
    pub stem_channels: usize,
    /// Inverted residual blocks as `(out_channels, stride, expansion)`.
    pub blocks: Vec<(usize, usize, usize)>,
    /// Channels of the 1×1 head convolution.
    pub head_channels: usize,
    /// Number of output classes.
    pub num_classes: usize,
}

impl MobileNetV2Config {
    /// Default laptop-scale configuration for `num_classes` classes.
    pub fn local(num_classes: usize) -> Self {
        MobileNetV2Config {
            stem_channels: 12,
            blocks: vec![(12, 1, 1), (16, 2, 2), (16, 1, 2), (24, 2, 2), (24, 1, 2)],
            head_channels: 48,
            num_classes,
        }
    }
}

/// A runnable MobileNet-V2-style classifier producing `[N, num_classes]` logits.
pub struct MobileNetV2 {
    config: MobileNetV2Config,
    network: Sequential,
}

impl MobileNetV2 {
    /// Build the classifier from a configuration.
    pub fn new(config: MobileNetV2Config, rng: &mut impl Rng) -> Self {
        let mut net = Sequential::new("mobilenet_v2");
        net.push(Conv2d::new(3, config.stem_channels, 3, 1, 1, rng));
        net.push(BatchNorm2d::new(config.stem_channels));
        net.push(Relu6::new());
        let mut in_ch = config.stem_channels;
        for &(out_ch, stride, expansion) in &config.blocks {
            net.push(InvertedResidual::new(in_ch, out_ch, stride, expansion, rng));
            in_ch = out_ch;
        }
        net.push(Conv2d::new(in_ch, config.head_channels, 1, 1, 0, rng));
        net.push(BatchNorm2d::new(config.head_channels));
        net.push(Relu6::new());
        net.push(GlobalAvgPool::new());
        net.push(Flatten::new());
        net.push(Linear::new(config.head_channels, config.num_classes, rng));
        MobileNetV2 {
            config,
            network: net,
        }
    }

    /// The configuration used to build this classifier.
    pub fn config(&self) -> &MobileNetV2Config {
        &self.config
    }
}

impl Layer for MobileNetV2 {
    fn name(&self) -> &str {
        "mobilenet_v2"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.network.forward(input, train)
    }

    fn forward_scratch(
        &mut self,
        input: &Tensor,
        train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        self.network.forward_scratch(input, train, scratch)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.network.backward(grad_output)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.network.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.network.params()
    }

    fn buffers(&self) -> Vec<&Tensor> {
        self.network.buffers()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.network.buffers_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesr_tensor::{init, Shape};

    #[test]
    fn logits_shape_matches_classes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = MobileNetV2::new(MobileNetV2Config::local(8), &mut rng);
        let x = init::uniform(Shape::new(&[2, 3, 32, 32]), 0.0, 1.0, &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape().dims(), &[2, 8]);
    }

    #[test]
    fn accepts_larger_inputs_thanks_to_global_pooling() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = MobileNetV2::new(MobileNetV2Config::local(4), &mut rng);
        let small = init::uniform(Shape::new(&[1, 3, 32, 32]), 0.0, 1.0, &mut rng);
        let large = init::uniform(Shape::new(&[1, 3, 64, 64]), 0.0, 1.0, &mut rng);
        assert_eq!(net.forward(&small, false).unwrap().shape().dims(), &[1, 4]);
        assert_eq!(net.forward(&large, false).unwrap().shape().dims(), &[1, 4]);
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = MobileNetV2::new(MobileNetV2Config::local(4), &mut rng);
        let x = init::uniform(Shape::new(&[1, 3, 16, 16]), 0.0, 1.0, &mut rng);
        let y = net.forward(&x, false).unwrap();
        let g = net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.shape(), x.shape());
        assert!(g.norm() > 0.0);
    }
}
