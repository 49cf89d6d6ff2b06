//! Reusable scratch memory for the inference hot path.
//!
//! Every convolution, activation and resampling kernel in this crate needs
//! one or more intermediate `f32` buffers. The plain allocating APIs create
//! and drop those buffers on every call, which is fine for experiments but
//! wasteful for a serving worker answering millions of requests: the same
//! buffer sizes recur on every forward pass. A [`TensorArena`] closes that
//! loop — buffers are drawn from per-size-class free lists and recycled back
//! after use, so a warmed-up arena satisfies an entire SR forward pass
//! without touching the global allocator.
//!
//! The arena is deliberately *not* thread-safe (`&mut self` everywhere): the
//! intended deployment is one arena per serving worker (see `sesr-serve`),
//! which keeps the fast path free of locks and atomics. Buffers recycled into
//! an arena do not have to originate from it; any owned [`Tensor`] can be
//! donated to the pool.
//!
//! The concurrent variant of the acquire/recycle accounting — an atomic
//! in-use counter with a `fetch_max` high-water mark, as a shared arena
//! would need — is model-checked in `sesr-verify` (`models::arena`), which
//! also demonstrates why a naive load-then-store counter miscounts under
//! contention. The single-threaded design here is what makes that whole
//! class of bug unrepresentable on the hot path.
//!
//! # Example: reuse round-trip
//!
//! ```
//! use sesr_tensor::{Shape, TensorArena};
//!
//! let mut arena = TensorArena::new();
//! let first = arena.alloc_tensor(Shape::new(&[1, 3, 8, 8]));   // miss: fresh buffer
//! arena.recycle(first);                                        // back to the pool
//! let again = arena.alloc_tensor(Shape::new(&[1, 3, 8, 8]));   // hit: same buffer
//! assert_eq!(arena.stats().misses, 1);
//! assert_eq!(arena.stats().hits, 1);
//! arena.recycle(again);
//! assert_eq!(arena.stats().in_use_bytes, 0);
//! ```

use crate::{Shape, Tensor};

/// Buffers per size class kept for reuse; recycling beyond this cap drops the
/// buffer instead, bounding how much memory an arena can pin.
const MAX_POOLED_PER_CLASS: usize = 32;

/// Number of power-of-two size classes (covers buffers up to `2^(CLASSES-1)`
/// elements, i.e. far beyond any image batch this workspace processes).
const NUM_CLASSES: usize = usize::BITS as usize;

/// Counters describing an arena's behaviour; see [`TensorArena::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Allocations satisfied from a free list (no heap traffic).
    pub hits: u64,
    /// Allocations that had to create a fresh buffer.
    pub misses: u64,
    /// Buffers handed back via recycle.
    pub recycled: u64,
    /// Bytes currently handed out and not yet recycled.
    pub in_use_bytes: usize,
    /// Highest `in_use_bytes` ever observed (the arena's working-set bound).
    pub high_water_bytes: usize,
    /// Buffers currently waiting in the free lists.
    pub pooled_buffers: usize,
    /// Total capacity of the pooled (idle) buffers, in bytes.
    pub pooled_bytes: usize,
}

impl ArenaStats {
    /// Fraction of allocations served without heap traffic (0 when the arena
    /// has never allocated).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A pooled scratch-buffer allocator with power-of-two size classes.
///
/// `alloc` rounds the requested length up to the next power of two and pops a
/// pooled buffer of that class when one is available; `recycle` returns a
/// buffer to its class. All returned buffers are zero-filled to the requested
/// length, so arena-backed kernels behave exactly like their allocating
/// counterparts (which start from `vec![0.0; n]`).
///
/// The allocating tensor APIs are thin wrappers over this path: calling them
/// is equivalent to using a fresh arena and never recycling.
#[derive(Debug)]
pub struct TensorArena {
    /// `free[c]` holds idle buffers whose capacity is at least `1 << c`.
    /// An array, so that making an arena allocates nothing: every plain
    /// allocating tensor API makes a throwaway [`TensorArena::exact`] per
    /// call, and a small heap block per call fragments the heap enough to
    /// raise a server's peak RSS by megabytes.
    free: [Vec<Vec<f32>>; NUM_CLASSES],
    stats: ArenaStats,
    /// Fresh (miss) buffers get exactly the requested capacity instead of
    /// the class-rounded one; see [`TensorArena::exact`].
    exact: bool,
}

impl TensorArena {
    /// Create an empty arena. Fresh buffers are sized up to their power-of-
    /// two class so recycled buffers can serve any nearby request size —
    /// the right trade for a long-lived, pooled arena.
    pub fn new() -> Self {
        TensorArena {
            free: std::array::from_fn(|_| Vec::new()),
            stats: ArenaStats::default(),
            exact: false,
        }
    }

    /// Create an arena whose fresh buffers have **exactly** the requested
    /// capacity. This is the throwaway arena behind the plain allocating
    /// APIs: their results outlive the call (cached activations, serving
    /// responses), so rounding capacities up to a power of two would pin up
    /// to 2× the needed memory for the tensor's whole lifetime. Recycled
    /// buffers are still pooled and reused by capacity class.
    pub fn exact() -> Self {
        TensorArena {
            exact: true,
            ..TensorArena::new()
        }
    }

    /// The size class of a requested length: index of the smallest power of
    /// two that holds `len` elements.
    fn class_of(len: usize) -> usize {
        len.next_power_of_two().trailing_zeros() as usize
    }

    /// Take a zero-filled buffer of exactly `len` elements.
    ///
    /// The buffer's capacity is the rounded-up size class, so recycling it
    /// later serves any request of a similar size.
    pub fn alloc(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let class = Self::class_of(len);
        let buf = match self.free[class].pop() {
            Some(mut buf) => {
                self.stats.hits += 1;
                self.stats.pooled_buffers -= 1;
                self.stats.pooled_bytes -= buf.capacity() * std::mem::size_of::<f32>();
                buf.clear();
                buf.resize(len, 0.0); // capacity >= class >= len: no realloc
                buf
            }
            None => {
                self.stats.misses += 1;
                if self.exact {
                    vec![0.0; len]
                } else {
                    let mut fresh = Vec::with_capacity(1usize << class);
                    fresh.resize(len, 0.0);
                    fresh
                }
            }
        };
        self.stats.in_use_bytes += buf.capacity() * std::mem::size_of::<f32>();
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.stats.in_use_bytes);
        buf
    }

    /// Take a zero-filled tensor of the given shape.
    pub fn alloc_tensor(&mut self, shape: Shape) -> Tensor {
        let data = self.alloc(shape.num_elements());
        Tensor::from_vec(shape, data).expect("arena buffer length matches shape")
    }

    /// Take a tensor with the same shape and contents as `src`.
    pub fn alloc_copy(&mut self, src: &Tensor) -> Tensor {
        let mut data = self.alloc(src.len());
        data.copy_from_slice(src.data());
        Tensor::from_vec(src.shape().clone(), data).expect("arena buffer length matches shape")
    }

    /// Return a tensor's buffer to the pool.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.recycle_vec(tensor.into_vec());
    }

    /// Return a raw buffer to the pool. Buffers that did not come from this
    /// arena are welcome; undersized or surplus ones are simply dropped.
    pub fn recycle_vec(&mut self, buf: Vec<f32>) {
        let capacity = buf.capacity();
        if capacity == 0 {
            return;
        }
        self.stats.recycled += 1;
        let capacity_bytes = capacity * std::mem::size_of::<f32>();
        self.stats.in_use_bytes = self.stats.in_use_bytes.saturating_sub(capacity_bytes);
        // Class by the largest power of two the capacity can serve, so a
        // pooled buffer always satisfies the class it sits in.
        let class = (usize::BITS - 1 - capacity.leading_zeros()) as usize;
        if self.free[class].len() < MAX_POOLED_PER_CLASS {
            self.stats.pooled_buffers += 1;
            self.stats.pooled_bytes += capacity_bytes;
            self.free[class].push(buf);
        }
    }

    /// Current counters (hits, misses, bytes in use, high-water mark, …).
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Drop every pooled buffer and reset the counters.
    pub fn reset(&mut self) {
        for class in &mut self.free {
            class.clear();
        }
        self.stats = ArenaStats::default();
    }
}

impl Default for TensorArena {
    fn default() -> Self {
        TensorArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_zero_filled_and_sized() {
        let mut arena = TensorArena::new();
        let buf = arena.alloc(100);
        assert_eq!(buf.len(), 100);
        assert!(buf.capacity() >= 128, "capacity rounds up to the class");
        assert!(buf.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn recycle_then_alloc_reuses_the_buffer() {
        let mut arena = TensorArena::new();
        let mut buf = arena.alloc(64);
        buf[0] = 42.0;
        let ptr = buf.as_ptr();
        arena.recycle_vec(buf);
        let again = arena.alloc(64);
        assert_eq!(again.as_ptr(), ptr, "same buffer must come back");
        assert_eq!(again[0], 0.0, "reused buffers are re-zeroed");
        assert_eq!(arena.stats().hits, 1);
        assert_eq!(arena.stats().misses, 1);
    }

    #[test]
    fn smaller_requests_reuse_larger_class_members() {
        let mut arena = TensorArena::new();
        // 100 rounds up to 128; a later request for 120 shares the class.
        let buf = arena.alloc(100);
        arena.recycle_vec(buf);
        let reused = arena.alloc(120);
        assert_eq!(reused.len(), 120);
        assert_eq!(arena.stats().hits, 1);
    }

    #[test]
    fn stats_track_in_use_and_high_water() {
        let mut arena = TensorArena::new();
        let a = arena.alloc(16); // class 16 -> 64 bytes
        let b = arena.alloc(16);
        assert_eq!(arena.stats().in_use_bytes, 128);
        assert_eq!(arena.stats().high_water_bytes, 128);
        arena.recycle_vec(a);
        arena.recycle_vec(b);
        assert_eq!(arena.stats().in_use_bytes, 0);
        assert_eq!(arena.stats().high_water_bytes, 128, "high water persists");
        assert_eq!(arena.stats().pooled_buffers, 2);
    }

    #[test]
    fn pool_is_bounded_per_class() {
        let mut arena = TensorArena::new();
        let buffers: Vec<_> = (0..MAX_POOLED_PER_CLASS + 10)
            .map(|_| arena.alloc(32))
            .collect();
        for buf in buffers {
            arena.recycle_vec(buf);
        }
        assert_eq!(arena.stats().pooled_buffers, MAX_POOLED_PER_CLASS);
    }

    #[test]
    fn exact_arena_allocates_exact_capacity_and_still_pools() {
        let mut arena = TensorArena::exact();
        let buf = arena.alloc(100);
        assert_eq!(buf.len(), 100);
        assert_eq!(buf.capacity(), 100, "no power-of-two rounding");
        // The 100-capacity buffer lands in class 64 and serves a 60-element
        // request: exact arenas still reuse what they are given back.
        arena.recycle_vec(buf);
        let again = arena.alloc(60);
        assert_eq!(arena.stats().hits, 1);
        assert!(again.capacity() >= 60);
        arena.recycle_vec(again);
        assert_eq!(arena.stats().in_use_bytes, 0, "capacity-based accounting");
    }

    #[test]
    fn tensor_round_trip() {
        let mut arena = TensorArena::new();
        let t = arena.alloc_tensor(Shape::new(&[2, 3, 4, 4]));
        assert_eq!(t.shape().dims(), &[2, 3, 4, 4]);
        assert_eq!(t.len(), 96);
        arena.recycle(t);
        let u = arena.alloc_tensor(Shape::new(&[2, 3, 4, 4]));
        assert_eq!(arena.stats().hits, 1);
        arena.recycle(u);
    }

    #[test]
    fn alloc_copy_duplicates_contents() {
        let mut arena = TensorArena::new();
        let src = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let copy = arena.alloc_copy(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn zero_length_allocs_are_free() {
        let mut arena = TensorArena::new();
        let buf = arena.alloc(0);
        assert!(buf.is_empty());
        assert_eq!(arena.stats().misses, 0);
        arena.recycle_vec(buf);
        assert_eq!(arena.stats().recycled, 0);
    }

    #[test]
    fn reset_clears_pools_and_counters() {
        let mut arena = TensorArena::new();
        let buf = arena.alloc(64);
        arena.recycle_vec(buf);
        arena.reset();
        assert_eq!(arena.stats(), ArenaStats::default());
    }

    #[test]
    fn hit_rate_reflects_reuse() {
        let mut arena = TensorArena::new();
        assert_eq!(arena.stats().hit_rate(), 0.0);
        let buf = arena.alloc(8);
        arena.recycle_vec(buf);
        let buf = arena.alloc(8);
        arena.recycle_vec(buf);
        assert_eq!(arena.stats().hit_rate(), 0.5);
    }

    #[test]
    fn arena_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TensorArena>();
    }
}
