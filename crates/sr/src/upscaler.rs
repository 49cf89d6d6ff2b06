//! The [`Upscaler`] trait shared by deep-learning SR models and the
//! interpolation baselines, matching the role of the "SR method" column in
//! Tables I, II and IV of the paper.

use crate::Result;
use sesr_nn::{Layer, ScratchSpace};
use sesr_tensor::resample::{upscale, upscale_arena, Interpolation};
use sesr_tensor::{Tensor, TensorError};
use std::sync::Mutex;

/// Anything that can upscale an NCHW image batch by a fixed integer factor.
///
/// The defense pipeline is generic over this trait so that Nearest Neighbour,
/// FSRCNN, EDSR and the SESR variants are interchangeable, exactly as in the
/// paper's comparison.
///
/// `upscale` takes `&self` so a pipeline can be shared across evaluation and
/// serving threads; implementations that need mutable state for their forward
/// pass (e.g. [`NetworkUpscaler`]'s activation caches) use interior
/// mutability. The `Send + Sync` bound is what lets `sesr-serve` hand one
/// upscaler per worker thread, or share a single one behind an `Arc`.
pub trait Upscaler: Send + Sync {
    /// Human-readable model name used in reports and tables.
    fn name(&self) -> &str;

    /// The integer upscaling factor (the paper uses ×2 everywhere).
    fn scale(&self) -> usize;

    /// Upscale a `[N, C, H, W]` batch to `[N, C, H*scale, W*scale]`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input is not rank 4 or is incompatible with
    /// the model (e.g. wrong channel count).
    fn upscale(&self, input: &Tensor) -> Result<Tensor>;

    /// Arena-backed [`Upscaler::upscale`]: intermediates and the returned
    /// tensor are drawn from `scratch`, so a serving worker that recycles
    /// the output after use runs the SR forward pass without heap
    /// allocations once the scratch space is warm. The result is bitwise
    /// identical to `upscale`.
    ///
    /// The default implementation falls back to the allocating path, so
    /// custom upscalers keep working unchanged.
    ///
    /// # Errors
    ///
    /// Everything [`Upscaler::upscale`] can return.
    fn upscale_scratch(&self, input: &Tensor, scratch: &mut ScratchSpace) -> Result<Tensor> {
        let _ = scratch;
        self.upscale(input)
    }
}

/// Interpolation-based upscaler (the paper's "Nearest Neighbor" baseline and
/// an additional bicubic baseline).
#[derive(Debug, Clone)]
pub struct InterpolationUpscaler {
    name: String,
    method: Interpolation,
    scale: usize,
}

impl InterpolationUpscaler {
    /// Nearest-neighbour upscaling by `scale`.
    pub fn nearest(scale: usize) -> Self {
        InterpolationUpscaler {
            name: "nearest-neighbor".to_string(),
            method: Interpolation::Nearest,
            scale,
        }
    }

    /// Bicubic upscaling by `scale`.
    pub fn bicubic(scale: usize) -> Self {
        InterpolationUpscaler {
            name: "bicubic".to_string(),
            method: Interpolation::Bicubic,
            scale,
        }
    }

    /// Bilinear upscaling by `scale`.
    pub fn bilinear(scale: usize) -> Self {
        InterpolationUpscaler {
            name: "bilinear".to_string(),
            method: Interpolation::Bilinear,
            scale,
        }
    }
}

impl Upscaler for InterpolationUpscaler {
    fn name(&self) -> &str {
        &self.name
    }

    fn scale(&self) -> usize {
        self.scale
    }

    fn upscale(&self, input: &Tensor) -> Result<Tensor> {
        let out = upscale(input, self.scale, self.method)?;
        Ok(out.clamp(0.0, 1.0))
    }

    fn upscale_scratch(&self, input: &Tensor, scratch: &mut ScratchSpace) -> Result<Tensor> {
        let mut out = upscale_arena(input, self.scale, self.method, scratch.arena())?;
        out.map_inplace(|v| v.clamp(0.0, 1.0));
        Ok(out)
    }
}

/// Adapter wrapping any [`Layer`] network whose forward pass maps
/// `[N, 3, H, W]` to `[N, 3, H*scale, W*scale]` into an [`Upscaler`].
///
/// The wrapped network is kept behind a mutex because [`Layer::forward`]
/// mutates activation caches; inference through the adapter therefore
/// serialises per upscaler instance. Concurrent serving gets parallelism by
/// giving each worker its own `NetworkUpscaler` (see `sesr-serve`), not by
/// sharing one.
///
/// The adapter runs exactly the network it is given. Deployed upscalers come
/// from [`SrModelKind::wrap_network`](crate::SrModelKind::wrap_network),
/// which lowers the network to its [`Layer::inference_form`] first (SESR:
/// the collapsed net, which takes neither training nor an expanded
/// network's weights); `new` by hand is for tests that want a specific form.
pub struct NetworkUpscaler<L: Layer> {
    name: String,
    scale: usize,
    network: Mutex<L>,
}

impl<L: Layer> NetworkUpscaler<L> {
    /// Wrap a network with its name and scale factor.
    pub fn new(name: impl Into<String>, scale: usize, network: L) -> Self {
        NetworkUpscaler {
            name: name.into(),
            scale,
            network: Mutex::new(network),
        }
    }

    /// Unwrap into the inner network.
    pub fn into_inner(self) -> L {
        self.network
            .into_inner()
            .expect("network upscaler mutex poisoned")
    }
}

impl<L: Layer> Upscaler for NetworkUpscaler<L> {
    fn name(&self) -> &str {
        &self.name
    }

    fn scale(&self) -> usize {
        self.scale
    }

    fn upscale(&self, input: &Tensor) -> Result<Tensor> {
        let (_, _, h, w) = input.shape().as_nchw()?;
        let out = self
            .network
            .lock()
            .expect("network upscaler mutex poisoned")
            .forward(input, false)?;
        let (_, _, oh, ow) = out.shape().as_nchw()?;
        if oh != h * self.scale || ow != w * self.scale {
            return Err(TensorError::invalid_argument(format!(
                "network produced {oh}x{ow}, expected {}x{}",
                h * self.scale,
                w * self.scale
            )));
        }
        Ok(out.clamp(0.0, 1.0))
    }

    fn upscale_scratch(&self, input: &Tensor, scratch: &mut ScratchSpace) -> Result<Tensor> {
        let (_, _, h, w) = input.shape().as_nchw()?;
        let mut out = self
            .network
            .lock()
            .expect("network upscaler mutex poisoned")
            .forward_scratch(input, false, scratch)?;
        let (_, _, oh, ow) = out.shape().as_nchw()?;
        if oh != h * self.scale || ow != w * self.scale {
            return Err(TensorError::invalid_argument(format!(
                "network produced {oh}x{ow}, expected {}x{}",
                h * self.scale,
                w * self.scale
            )));
        }
        // The output is owned by the scratch arena, so clamping is in place.
        out.map_inplace(|v| v.clamp(0.0, 1.0));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_nn::{Identity, PixelShuffle, Sequential};
    use sesr_tensor::Shape;

    #[test]
    fn nearest_upscaler_doubles_size() {
        let up = InterpolationUpscaler::nearest(2);
        assert_eq!(up.name(), "nearest-neighbor");
        assert_eq!(up.scale(), 2);
        let x = Tensor::full(Shape::new(&[1, 3, 4, 4]), 0.5);
        let y = up.upscale(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 3, 8, 8]);
    }

    #[test]
    fn bicubic_output_is_clamped() {
        let up = InterpolationUpscaler::bicubic(2);
        let x = Tensor::from_vec(Shape::new(&[1, 1, 2, 2]), vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let y = up.upscale(&x).unwrap();
        assert!(y.min() >= 0.0 && y.max() <= 1.0);
    }

    #[test]
    fn network_upscaler_validates_output_size() {
        // An identity network does not upscale, so the adapter must reject it.
        let bad = NetworkUpscaler::new("identity", 2, Identity::new());
        let x = Tensor::zeros(Shape::new(&[1, 3, 4, 4]));
        assert!(bad.upscale(&x).is_err());

        // A pixel-shuffle network with 12 -> 3 channels does upscale by 2.
        let mut net = Sequential::new("shuffle_only");
        net.push(PixelShuffle::new(2));
        let good = NetworkUpscaler::new("shuffle", 2, net);
        let x = Tensor::zeros(Shape::new(&[1, 12, 4, 4]));
        let y = good.upscale(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 3, 8, 8]);
    }

    #[test]
    fn upscale_scratch_matches_upscale() {
        let mut scratch = ScratchSpace::new();
        let x = Tensor::full(Shape::new(&[1, 3, 4, 4]), 0.25);
        for up in [
            InterpolationUpscaler::nearest(2),
            InterpolationUpscaler::bicubic(2),
            InterpolationUpscaler::bilinear(2),
        ] {
            let expected = up.upscale(&x).unwrap();
            let out = up.upscale_scratch(&x, &mut scratch).unwrap();
            assert_eq!(out, expected);
            scratch.recycle(out);
        }

        let mut net = Sequential::new("shuffle_only");
        net.push(PixelShuffle::new(2));
        let network = NetworkUpscaler::new("shuffle", 2, net);
        let x = Tensor::full(Shape::new(&[1, 12, 4, 4]), 0.5);
        let expected = network.upscale(&x).unwrap();
        let out = network.upscale_scratch(&x, &mut scratch).unwrap();
        assert_eq!(out, expected);
        scratch.recycle(out);

        // And the size validation still fires on the scratch path.
        let bad = NetworkUpscaler::new("identity", 2, Identity::new());
        let x = Tensor::zeros(Shape::new(&[1, 3, 4, 4]));
        assert!(bad.upscale_scratch(&x, &mut scratch).is_err());
    }

    #[test]
    fn upscalers_are_shareable_across_threads() {
        // &self upscaling from several threads must agree with sequential use.
        let up = InterpolationUpscaler::bicubic(2);
        let x = Tensor::full(Shape::new(&[1, 3, 4, 4]), 0.25);
        let expected = up.upscale(&x).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let up = &up;
                let x = &x;
                let expected = &expected;
                scope.spawn(move || {
                    assert_eq!(&up.upscale(x).unwrap(), expected);
                });
            }
        });
    }
}
