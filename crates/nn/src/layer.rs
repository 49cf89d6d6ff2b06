//! The [`Layer`] trait and generic containers ([`Sequential`], [`Identity`]).

use crate::param::Param;
use crate::scratch::ScratchSpace;
use crate::Result;
use sesr_tensor::Tensor;

/// A differentiable network layer.
///
/// A layer owns its parameters and any activation caches needed by the
/// backward pass. The calling convention is strict:
///
/// 1. `forward(input, train)` computes the output and caches whatever the
///    backward pass will need.
/// 2. `backward(grad_output)` consumes those caches, **accumulates** parameter
///    gradients into the layer's [`Param`]s, and returns the gradient with
///    respect to the layer input.
///
/// `backward` must be called at most once per `forward` call, in reverse
/// order of the forward calls (the usual backprop discipline enforced by
/// [`Sequential`]).
///
/// Layers are `Send + Sync` (they hold only owned data), which lets the
/// experiment drivers share trained models across evaluation threads.
pub trait Layer: Send + Sync {
    /// Human-readable layer name used in summaries and cost reports.
    fn name(&self) -> &str;

    /// Run the forward pass. `train` selects training behaviour for layers
    /// that have one (e.g. batch statistics in [`BatchNorm2d`](crate::BatchNorm2d)).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Run the backward pass for the most recent `forward` call.
    ///
    /// # Errors
    ///
    /// Returns an error if no forward pass has been cached or the gradient
    /// shape is inconsistent.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Arena-backed inference forward: intermediates (and the returned
    /// output) are drawn from `scratch`, and the caller may recycle the
    /// output back into the same scratch space once it is consumed.
    ///
    /// This is the serving hot path. Two contract differences from
    /// [`Layer::forward`]:
    ///
    /// * **Inference-only.** Overriding layers skip the activation caches
    ///   the backward pass needs; do not call [`Layer::backward`] after
    ///   `forward_scratch`.
    /// * **Identical numerics.** The output must be bitwise identical to
    ///   `forward(input, train)` — the arena changes where buffers live, not
    ///   what is computed.
    ///
    /// The default implementation falls back to the allocating
    /// [`Layer::forward`], so every layer supports the scratch calling
    /// convention; only the served layers override it. In this crate: the
    /// convolutions, every activation, [`PixelShuffle`](crate::PixelShuffle),
    /// [`NearestUpsample`](crate::NearestUpsample),
    /// [`BatchNorm2d`](crate::BatchNorm2d) (evaluation mode only),
    /// [`GlobalAvgPool`](crate::GlobalAvgPool), [`Flatten`](crate::Flatten),
    /// [`Linear`](crate::Linear), [`Identity`] and [`Sequential`]. The
    /// collapsed SESR and the served MobileNet-V2 (with its inverted
    /// residual block) override it in their own crates. ResNet, Inception,
    /// `MaxPool2d` and `AvgPool2d` fall back: no workload serves them.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_scratch(
        &mut self,
        input: &Tensor,
        train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        let _ = scratch;
        self.forward(input, train)
    }

    /// The network this layer should be *deployed* as, when that differs
    /// from the form it is trained in: `Ok(None)` (the default) means the
    /// layer already is its own inference form.
    ///
    /// A layer whose training-time structure folds into a cheaper equivalent
    /// network (SESR's collapsible linear blocks → plain convolutions)
    /// returns that network here, built from its **current** weights — so
    /// call the hook after weights are hydrated or copied, not before. The
    /// result computes the same function up to floating-point
    /// re-association and need not support [`Layer::backward`].
    ///
    /// # Errors
    ///
    /// Returns an error if the lowered network cannot be constructed.
    fn inference_form(&self) -> Result<Option<Box<dyn Layer>>> {
        Ok(None)
    }

    /// The layer's learnable parameters, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Immutable view of the learnable parameters, in the same order as
    /// [`Layer::params_mut`].
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Non-learnable state tensors, in a stable order (e.g. the running
    /// batch statistics of [`BatchNorm2d`](crate::BatchNorm2d)).
    ///
    /// Buffers are part of a trained model's behaviour in evaluation mode
    /// but are never visited by optimizers; checkpointing captures them
    /// alongside the parameters so a persisted model evaluates identically
    /// to the instance that was trained.
    fn buffers(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable view of the non-learnable state tensors, in the same order as
    /// [`Layer::buffers`].
    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Reset all accumulated gradients to zero.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of learnable scalars in this layer.
    fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.num_elements()).sum()
    }
}

impl Layer for Box<dyn Layer> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.as_mut().forward(input, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.as_mut().backward(grad_output)
    }

    fn forward_scratch(
        &mut self,
        input: &Tensor,
        train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        self.as_mut().forward_scratch(input, train, scratch)
    }

    // Forwarded, not inherited: the trait default on the `Box` itself would
    // answer `None` for every boxed network.
    fn inference_form(&self) -> Result<Option<Box<dyn Layer>>> {
        self.as_ref().inference_form()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.as_mut().params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.as_ref().params()
    }

    fn buffers(&self) -> Vec<&Tensor> {
        self.as_ref().buffers()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.as_mut().buffers_mut()
    }
}

/// A layer that returns its input unchanged (useful as a skip-connection
/// placeholder and in tests).
#[derive(Debug, Default, Clone)]
pub struct Identity;

impl Identity {
    /// Create an identity layer.
    pub fn new() -> Self {
        Identity
    }
}

impl Layer for Identity {
    fn name(&self) -> &str {
        "identity"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        Ok(input.clone())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        Ok(grad_output.clone())
    }

    fn forward_scratch(
        &mut self,
        input: &Tensor,
        _train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        Ok(scratch.arena().alloc_copy(input))
    }
}

/// An ordered container of layers applied one after another.
///
/// `Sequential` is itself a [`Layer`], so networks compose recursively
/// (e.g. a residual block holds a `Sequential` body plus a skip connection).
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Create an empty sequential container with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Append a layer to the end of the pipeline.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterate over the child layers.
    pub fn iter(&self) -> impl Iterator<Item = &Box<dyn Layer>> {
        self.layers.iter()
    }
}

impl Layer for Sequential {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    fn forward_scratch(
        &mut self,
        input: &Tensor,
        train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        // Each intermediate is recycled as soon as the next layer has
        // consumed it, so the container adds no live buffers of its own.
        let mut x: Option<Tensor> = None;
        for layer in &mut self.layers {
            let y = layer.forward_scratch(x.as_ref().unwrap_or(input), train, scratch)?;
            if let Some(prev) = x.take() {
                scratch.recycle(prev);
            }
            x = Some(y);
        }
        match x {
            Some(out) => Ok(out),
            None => Ok(scratch.arena().alloc_copy(input)),
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn buffers(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.buffers_mut())
            .collect()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({}, {} layers)", self.name, self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_tensor::Shape;

    /// A toy layer computing y = 2x for container tests.
    struct Double;
    impl Layer for Double {
        fn name(&self) -> &str {
            "double"
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
            Ok(input.scale(2.0))
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.scale(2.0))
        }
    }

    #[test]
    fn identity_passes_through() {
        let mut id = Identity::new();
        let x = Tensor::from_slice(&[1.0, 2.0]);
        assert_eq!(id.forward(&x, true).unwrap(), x);
        assert_eq!(id.backward(&x).unwrap(), x);
        assert_eq!(id.num_parameters(), 0);
    }

    #[test]
    fn sequential_composes_forward_and_backward() {
        let mut seq = Sequential::new("test");
        seq.push(Double).push(Double).push(Identity::new());
        assert_eq!(seq.len(), 3);
        let x = Tensor::from_slice(&[1.0, -1.0]);
        let y = seq.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[4.0, -4.0]);
        let g = seq.backward(&Tensor::from_slice(&[1.0, 1.0])).unwrap();
        assert_eq!(g.data(), &[4.0, 4.0]);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut seq = Sequential::new("empty");
        assert!(seq.is_empty());
        let x = Tensor::zeros(Shape::new(&[2, 2]));
        assert_eq!(seq.forward(&x, true).unwrap(), x);
    }
}
