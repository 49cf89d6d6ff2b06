//! Seeded request streams: the only thing `--seed` changes.
//!
//! A stream is a pure function from the request's sequence number to its
//! image, so the same seed gives the same inputs however fast the system
//! answers. Two shapes of stream exist: every image distinct (the cache is
//! bypassed or only ever missed), and images drawn from a small hot set
//! (after one pass every request is a cache hit).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_tensor::{init, Shape, Tensor};

/// SplitMix64 finalizer: a stateless, well-mixed hash of one word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The request stream of one run.
pub struct Inputs {
    seed: u64,
    dims: [usize; 3],
    /// The pre-built hot images; empty when every image is distinct.
    hot: Vec<Tensor>,
}

impl Inputs {
    /// A stream of `[1, c, h, w]` images. With `hot_set == 0` every request
    /// carries a distinct image; otherwise requests `0..hot_set` walk the hot
    /// set once in order (the warm-up that fills the cache) and every later
    /// request draws from it uniformly.
    pub fn new(seed: u64, dims: [usize; 3], hot_set: usize) -> Inputs {
        let mut inputs = Inputs {
            seed,
            dims,
            hot: Vec::new(),
        };
        inputs.hot = (0..hot_set as u64).map(|id| inputs.generate(id)).collect();
        inputs
    }

    /// Which content request `seq` carries. Two requests with the same
    /// content id carry bit-identical images.
    pub fn content_id(&self, seq: u64) -> u64 {
        let hot = self.hot.len() as u64;
        if hot == 0 || seq < hot {
            seq
        } else {
            mix(self.seed ^ mix(seq)) % hot
        }
    }

    /// The image of request `seq`.
    pub fn image(&self, seq: u64) -> Tensor {
        let id = self.content_id(seq);
        match self.hot.get(id as usize) {
            Some(image) => image.clone(),
            None => self.generate(id),
        }
    }

    /// Number of distinct images in the hot set (0 = all distinct).
    pub fn hot_set(&self) -> usize {
        self.hot.len()
    }

    fn generate(&self, content: u64) -> Tensor {
        let [c, h, w] = self.dims;
        let mut rng = StdRng::seed_from_u64(mix(self.seed) ^ mix(content.wrapping_add(1) << 1));
        init::uniform(Shape::new(&[1, c, h, w]), 0.0, 1.0, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = Inputs::new(7, [3, 8, 8], 0);
        let b = Inputs::new(7, [3, 8, 8], 0);
        let c = Inputs::new(8, [3, 8, 8], 0);
        for seq in [0, 1, 63, 64, 5000] {
            assert_eq!(a.image(seq), b.image(seq));
            assert_ne!(a.image(seq), c.image(seq));
        }
        assert_eq!(a.image(3).shape().dims(), &[1, 3, 8, 8]);
    }

    #[test]
    fn unique_stream_never_repeats() {
        let inputs = Inputs::new(1, [3, 4, 4], 0);
        let mut seen = HashSet::new();
        for seq in 0..500 {
            assert_eq!(inputs.content_id(seq), seq);
            let bits: Vec<u32> = inputs
                .image(seq)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert!(seen.insert(bits), "request {seq} repeats an earlier image");
        }
    }

    #[test]
    fn hot_stream_walks_the_set_once_then_stays_inside_it() {
        let inputs = Inputs::new(3, [3, 4, 4], 64);
        assert_eq!(inputs.hot_set(), 64);
        for seq in 0..64 {
            assert_eq!(inputs.content_id(seq), seq);
        }
        let drawn: HashSet<u64> = (64..4000).map(|seq| inputs.content_id(seq)).collect();
        assert_eq!(drawn.len(), 64, "every hot image is drawn");
        assert!(drawn.iter().all(|id| *id < 64));
        // Same content id, same bits.
        let seq = (64..4000).find(|s| inputs.content_id(*s) == 5).unwrap();
        assert_eq!(inputs.image(seq), inputs.image(5));
    }

    #[test]
    fn hot_draws_depend_on_the_seed() {
        let a = Inputs::new(1, [3, 4, 4], 64);
        let b = Inputs::new(2, [3, 4, 4], 64);
        let same = (64..1064)
            .filter(|s| a.content_id(*s) == b.content_id(*s))
            .count();
        assert!(same < 100, "{same} of 1000 draws agree");
    }
}
