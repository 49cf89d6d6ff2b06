//! Pooling layers wrapping the tensor-level pooling kernels.

use crate::scratch::ScratchSpace;
use crate::{Layer, Result};
use sesr_tensor::pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool_backward, max_pool2d, max_pool2d_backward,
    MaxPoolOutput, PoolConfig,
};
use sesr_tensor::{Shape, Tensor, TensorError};

/// Max-pooling layer.
pub struct MaxPool2d {
    cfg: PoolConfig,
    cache: Option<(Shape, MaxPoolOutput)>,
}

impl MaxPool2d {
    /// Create a max-pooling layer with the given window, stride and padding.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        MaxPool2d {
            cfg: PoolConfig::new(kernel, stride, padding),
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let pooled = max_pool2d(input, self.cfg)?;
        let output = pooled.output.clone();
        self.cache = Some((input.shape().clone(), pooled));
        Ok(output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (input_shape, pooled) = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid_argument("backward before forward in MaxPool2d"))?;
        max_pool2d_backward(&input_shape, &pooled, grad_output)
    }
}

/// Average-pooling layer.
pub struct AvgPool2d {
    cfg: PoolConfig,
    cached_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Create an average-pooling layer with the given window, stride and padding.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        AvgPool2d {
            cfg: PoolConfig::new(kernel, stride, padding),
            cached_shape: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        "avgpool2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        self.cached_shape = Some(input.shape().clone());
        avg_pool2d(input, self.cfg)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .take()
            .ok_or_else(|| TensorError::invalid_argument("backward before forward in AvgPool2d"))?;
        avg_pool2d_backward(&shape, grad_output, self.cfg)
    }
}

/// Global average pooling producing a `[N, C]` feature vector, used before
/// every classifier head in the paper's models.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Create a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        "global_avg_pool"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let (n, c, h, w) = input.shape().as_nchw()?;
        self.cached_shape = Some(input.shape().clone());
        let mut out = vec![0.0f32; n * c];
        plane_means_into(input.data(), h * w, &mut out);
        Tensor::from_vec(Shape::new(&[n, c]), out)
    }

    /// [`Layer::forward`] into an arena buffer, without the shape cache.
    fn forward_scratch(
        &mut self,
        input: &Tensor,
        _train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        let (n, c, h, w) = input.shape().as_nchw()?;
        let mut out = scratch.arena().alloc(n * c);
        plane_means_into(input.data(), h * w, &mut out);
        Tensor::from_vec(Shape::new(&[n, c]), out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self.cached_shape.take().ok_or_else(|| {
            TensorError::invalid_argument("backward before forward in GlobalAvgPool")
        })?;
        global_avg_pool_backward(&shape, grad_output)
    }
}

/// The mean of each `spatial`-long plane of `data`, into `out`: the one loop
/// both [`GlobalAvgPool`] forward paths run. Each plane is summed front to
/// back, then divided by its size, the order of
/// [`global_avg_pool`](sesr_tensor::pool::global_avg_pool).
fn plane_means_into(data: &[f32], spatial: usize, out: &mut [f32]) {
    for (plane, mean) in out.iter_mut().enumerate() {
        let sum: f32 = data[plane * spatial..(plane + 1) * spatial].iter().sum();
        *mean = sum / spatial as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_layer_roundtrip() {
        let mut pool = MaxPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(Shape::new(&[1, 1, 2, 2]), vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[9.0]);
        let g = pool.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn avg_pool_layer_roundtrip() {
        let mut pool = AvgPool2d::new(2, 2, 0);
        let x = Tensor::from_vec(Shape::new(&[1, 1, 2, 2]), vec![2.0, 4.0, 6.0, 8.0]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[5.0]);
        let g = pool.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.data(), &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn global_avg_pool_layer_roundtrip() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            Shape::new(&[1, 2, 2, 2]),
            vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0],
        )
        .unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.data(), &[1.0, 2.0]);
        let g = pool
            .backward(&Tensor::from_vec(Shape::new(&[1, 2]), vec![4.0, 8.0]).unwrap())
            .unwrap();
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn global_avg_pool_paths_are_bitwise_the_kernel() {
        // Values whose sum depends on the summation order.
        let x = Tensor::from_vec(
            Shape::new(&[2, 3, 3, 5]),
            (0..90).map(|i| (i as f32 * 0.37).sin() * 1e3).collect(),
        )
        .unwrap();
        let expected = sesr_tensor::pool::global_avg_pool(&x).unwrap();
        let mut pool = GlobalAvgPool::new();
        assert_eq!(pool.forward(&x, false).unwrap(), expected);
        let mut scratch = ScratchSpace::new();
        assert_eq!(
            pool.forward_scratch(&x, false, &mut scratch).unwrap(),
            expected
        );
    }

    #[test]
    fn backward_without_forward_errors() {
        let g = Tensor::zeros(Shape::new(&[1, 1, 1, 1]));
        assert!(MaxPool2d::new(2, 2, 0).backward(&g).is_err());
        assert!(AvgPool2d::new(2, 2, 0).backward(&g).is_err());
        assert!(GlobalAvgPool::new().backward(&g).is_err());
    }
}
