//! Scratch-memory threading for the inference hot path.
//!
//! A [`ScratchSpace`] wraps a [`TensorArena`] and travels through
//! [`Layer::forward_scratch`](crate::Layer::forward_scratch) calls: every
//! intermediate activation a network produces is drawn from the arena and
//! recycled as soon as the next layer has consumed it, so a warmed-up
//! scratch space serves an entire forward pass with **zero heap
//! allocations**. This is the mechanism behind per-worker arenas in
//! `sesr-serve` — each serving worker owns one `ScratchSpace` and reuses it
//! across requests.
//!
//! The scratch path is inference-only: layers that override
//! `forward_scratch` skip the activation caches their backward pass would
//! need. Train with [`Layer::forward`](crate::Layer::forward), serve with
//! `forward_scratch`.
//!
//! Every layer a served network is built from overrides it — convolutions,
//! activations, upsampling, evaluation-mode batch norm and the classifier
//! head (`GlobalAvgPool`, `Flatten`, `Linear`) — so both the SR networks and
//! the served MobileNet-V2 run allocation-free on a warm scratch space. The
//! [`Layer::forward_scratch`](crate::Layer::forward_scratch) docs list the
//! layers that fall back to the allocating `forward`.
//!
//! # Example: arena-backed forward equals the allocating forward
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sesr_nn::{Conv2d, Layer, ReLU, ScratchSpace, Sequential};
//! use sesr_tensor::{Shape, Tensor};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Sequential::new("tiny");
//! net.push(Conv2d::same(3, 8, 3, &mut rng));
//! net.push(ReLU::new());
//!
//! let x = Tensor::full(Shape::new(&[1, 3, 8, 8]), 0.5);
//! let expected = net.forward(&x, false)?;
//!
//! let mut scratch = ScratchSpace::new();
//! for _ in 0..3 {
//!     let y = net.forward_scratch(&x, false, &mut scratch)?;
//!     assert_eq!(y, expected); // bitwise-identical to the allocating path
//!     scratch.recycle(y);     // hand the output back for the next request
//! }
//! assert!(scratch.stats().hits > 0); // later passes reused pooled buffers
//! # Ok::<(), sesr_tensor::TensorError>(())
//! ```

use sesr_tensor::{ArenaStats, Tensor, TensorArena};

/// Reusable scratch memory for arena-backed layer forwards.
///
/// One `ScratchSpace` per inference thread: the type is `Send` but not
/// `Sync`, and all methods take `&mut self`, keeping the hot path free of
/// locks.
#[derive(Debug, Default)]
pub struct ScratchSpace {
    arena: TensorArena,
}

impl ScratchSpace {
    /// Create an empty scratch space.
    pub fn new() -> Self {
        ScratchSpace {
            arena: TensorArena::new(),
        }
    }

    /// The underlying arena, for calling arena-based tensor kernels directly.
    pub fn arena(&mut self) -> &mut TensorArena {
        &mut self.arena
    }

    /// Return a no-longer-needed tensor's buffer for reuse. Any owned tensor
    /// can be recycled, not just arena-born ones.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.arena.recycle(tensor);
    }

    /// Counters of the underlying arena (hits, misses, high-water mark, …).
    pub fn stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Drop all pooled buffers and reset the counters.
    pub fn reset(&mut self) {
        self.arena.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_tensor::Shape;

    #[test]
    fn recycle_feeds_the_arena() {
        let mut scratch = ScratchSpace::new();
        // 32 elements: a power-of-two capacity, so the donated buffer lands
        // in the exact class a same-shape request draws from.
        let t = Tensor::zeros(Shape::new(&[1, 2, 4, 4]));
        scratch.recycle(t);
        assert_eq!(scratch.stats().recycled, 1);
        let reused = scratch.arena().alloc_tensor(Shape::new(&[1, 2, 4, 4]));
        assert_eq!(scratch.stats().hits, 1);
        scratch.recycle(reused);
        scratch.reset();
        assert_eq!(scratch.stats().hits, 0);
    }

    #[test]
    fn scratch_space_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ScratchSpace>();
    }
}
