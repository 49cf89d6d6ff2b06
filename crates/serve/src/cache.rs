//! Keyed LRU cache of defended outputs.
//!
//! The gateway keys the cache by `(RouteKey, content-hash)` — the route
//! identifies *which* defense produced the output, the 64-bit
//! [`content_hash`] identifies the input image — so two routes serving
//! different models can never return each other's defended outputs. The
//! same hash is the wire protocol's integrity claim, and the gateway
//! computes it once per request for both jobs.
//!
//! The hash is unkeyed and not cryptographic. Against corruption and
//! accidental repeats it is enough: for a bounded cache of image tensors
//! the collision probability is negligible (~n²/2⁶⁵), and a collision only
//! ever returns a *previously defended* output of the same route, never
//! corrupts state. It does **not** resist a chosen collision, and neither
//! did the byte-wise FNV-1a of wire protocol version 1: anyone who can send
//! images can craft two that share a hash. It is an integrity check against
//! corruption, not an authenticator.

use sesr_store::mix64;
use sesr_tensor::Tensor;
use std::collections::HashMap;
use std::hash::Hash;

/// Starting state of [`content_hash`] (the first 64 fractional bits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Odd multiplier of [`content_hash`]'s per-word step (2⁶⁴ / φ).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of [`content_hash`]: xor the word in, multiply, fold the high
/// half down. For a fixed state the step is a bijection of the word, and for
/// a fixed word a bijection of the state, so two word sequences of the same
/// length that differ in exactly one word always hash apart.
#[inline]
fn fold(state: u64, word: u64) -> u64 {
    let state = (state ^ word).wrapping_mul(MULTIPLIER);
    state ^ (state >> 32)
}

/// 64-bit content hash of an image tensor's shape and exact f32 bit
/// patterns, salted with `salt` (empty when the cache key already carries the
/// route identity).
///
/// One 64-bit word at a time: the salt's length and its bytes in 8-byte
/// words, the rank, each dim, then the f32 bit patterns two to a word
/// (element `2i` in the low half, `2i + 1` in the high half, an odd last
/// element alone) pass through a multiply and a shift-xor, and Murmur3's
/// finalizer ([`mix64`]) ends it. Two values per word halve the serial
/// multiply chain that bounds the hash's speed. Every length is folded
/// before what it counts, so distinct inputs are distinct word sequences;
/// and as each step is a bijection of its word, two sequences of one length
/// that differ in a single word (one flipped bit of the salt or of a value,
/// say) never collide. The value is part of the wire protocol (a request's
/// claim), so changing this function changes the protocol version.
pub fn content_hash(image: &Tensor, salt: &str) -> u64 {
    hash_parts(salt.as_bytes(), image.shape().dims(), image.data())
}

fn hash_parts(salt: &[u8], dims: &[usize], data: &[f32]) -> u64 {
    let mut state = fold(SEED, salt.len() as u64);
    for chunk in salt.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state = fold(state, u64::from_le_bytes(word));
    }
    state = fold(state, dims.len() as u64);
    for &dim in dims {
        state = fold(state, dim as u64);
    }
    let mut pairs = data.chunks_exact(2);
    for pair in &mut pairs {
        let word = u64::from(pair[0].to_bits()) | (u64::from(pair[1].to_bits()) << 32);
        state = fold(state, word);
    }
    for value in pairs.remainder() {
        state = fold(state, u64::from(value.to_bits()));
    }
    mix64(state)
}

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache with O(1) get/insert, generic
/// over the key type (the serving gateway uses `(RouteKey, u64)` composite
/// keys; plain `u64` works too).
///
/// Implemented as a slab-backed doubly linked recency list plus a key → slot
/// index map; no unsafe code and no external dependencies. Capacity 0 turns
/// the cache into a no-op (every lookup misses, inserts are dropped), which
/// is how `sesr-serve` disables caching.
pub struct LruCache<K, V> {
    capacity: usize,
    nodes: Vec<Node<K, V>>,
    index: HashMap<K, usize>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            nodes: Vec::with_capacity(capacity.min(1024)),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifetime count of capacity evictions (entries displaced by `insert`
    /// when the cache was full; `retain` purges are not evictions).
    pub fn eviction_count(&self) -> u64 {
        self.evictions
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.index.get(key).copied()?;
        self.detach(slot);
        self.push_front(slot);
        Some(&self.nodes[slot].value)
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry if
    /// the cache is full. With capacity 0 this is a no-op.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(slot) = self.index.get(&key).copied() {
            self.nodes[slot].value = value;
            self.detach(slot);
            self.push_front(slot);
            return;
        }
        if self.index.len() >= self.capacity {
            let victim = self.tail;
            self.detach(victim);
            self.index.remove(&self.nodes[victim].key);
            self.free.push(victim);
            self.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot].key = key.clone();
                self.nodes[slot].value = value;
                slot
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.push_front(slot);
    }

    /// Drop every entry whose key fails `keep`, preserving the recency order
    /// of the survivors. O(len); used by hot reload to purge one route's
    /// now-stale outputs without touching other routes. Purged values are
    /// dropped immediately (defended tensors are large; they must not linger
    /// in dead slab slots waiting for reuse), so the slab is rebuilt from
    /// the survivors.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        // Recency order, most to least recent, before tearing the slab down.
        let mut order = Vec::with_capacity(self.index.len());
        let mut slot = self.head;
        while slot != NIL {
            order.push(slot);
            slot = self.nodes[slot].next;
        }
        let mut old_nodes: Vec<Option<Node<K, V>>> = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(Some)
            .collect();
        self.index.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        // Reinsert survivors least-recent first so insert()'s push-front
        // rebuilds the same recency order; victims drop with `old_nodes`.
        for slot in order.into_iter().rev() {
            // Every slot on the recency list holds a node; a vacant one
            // would mean the list and arena disagree — skip it.
            let Some(node) = old_nodes[slot].take() else {
                continue;
            };
            if keep(&node.key) {
                self.insert(node.key, node.value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sesr_tensor::Shape;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache: LruCache<u64, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.get(&1), Some(&10)); // 1 is now most recent.
        cache.insert(3, 30); // evicts 2.
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(&10));
        assert_eq!(cache.get(&3), Some(&30));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_refreshes_value_and_recency() {
        let mut cache: LruCache<u64, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11); // refresh 1, making 2 the LRU entry.
        cache.insert(3, 30); // evicts 2.
        assert_eq!(cache.get(&1), Some(&11));
        assert_eq!(cache.get(&2), None);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut cache: LruCache<u64, u32> = LruCache::new(0);
        cache.insert(1, 10);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&1), None);
    }

    #[test]
    fn eviction_counter_tracks_capacity_displacements() {
        let mut cache: LruCache<u64, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.eviction_count(), 0);
        cache.insert(1, 11); // refresh, not an eviction
        assert_eq!(cache.eviction_count(), 0);
        cache.insert(3, 30); // evicts 2
        cache.insert(4, 40); // evicts 1
        assert_eq!(cache.eviction_count(), 2);
        cache.retain(|_| false); // purges are not evictions
        assert_eq!(cache.eviction_count(), 2);
    }

    #[test]
    fn heavy_churn_keeps_len_bounded() {
        let mut cache: LruCache<u64, u64> = LruCache::new(8);
        for key in 0..1000u64 {
            cache.insert(key, key * 2);
            assert!(cache.len() <= 8);
        }
        // The eight most recent keys survive.
        for key in 992..1000 {
            assert_eq!(cache.get(&key), Some(&(key * 2)));
        }
    }

    #[test]
    fn composite_keys_separate_identical_hashes() {
        // The cache-poisoning regression at the data-structure level: the
        // same content hash under two different route components must be two
        // distinct entries.
        let mut cache: LruCache<(&str, u64), u32> = LruCache::new(4);
        cache.insert(("sesr-m2", 42), 1);
        cache.insert(("bicubic", 42), 2);
        assert_eq!(cache.get(&("sesr-m2", 42)), Some(&1));
        assert_eq!(cache.get(&("bicubic", 42)), Some(&2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn retain_purges_selectively_and_keeps_recency_order() {
        let mut cache: LruCache<(u8, u64), u32> = LruCache::new(8);
        for i in 0..4u64 {
            cache.insert((0, i), i as u32);
            cache.insert((1, i), 100 + i as u32);
        }
        cache.retain(|(route, _)| *route != 0);
        assert_eq!(cache.len(), 4);
        for i in 0..4u64 {
            assert_eq!(cache.get(&(0, i)), None, "route 0 must be purged");
            assert_eq!(cache.get(&(1, i)), Some(&(100 + i as u32)));
        }
        // The slab stays bounded after a purge.
        for i in 0..8u64 {
            cache.insert((2, i), i as u32);
        }
        assert_eq!(cache.len(), 8);
        assert!(cache.nodes.len() <= 8, "slab must not grow past capacity");
        // Survivors kept their recency: (2, 0..8) filled the cache, so the
        // route-1 entries (older) are gone and the newest survive in order.
        assert_eq!(cache.get(&(1, 0)), None);
        assert_eq!(cache.get(&(2, 7)), Some(&7));
    }

    #[test]
    fn retain_drops_purged_values_immediately() {
        use std::sync::Arc;
        let mut cache: LruCache<u8, Arc<()>> = LruCache::new(8);
        let purged = Arc::new(());
        let kept = Arc::new(());
        cache.insert(0, Arc::clone(&purged));
        cache.insert(1, Arc::clone(&kept));
        cache.retain(|key| *key != 0);
        assert_eq!(
            Arc::strong_count(&purged),
            1,
            "a purged value must be dropped by retain, not parked in a dead slot"
        );
        assert_eq!(Arc::strong_count(&kept), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn content_hash_separates_values_shapes_and_salts() {
        let a = Tensor::full(Shape::new(&[1, 3, 4, 4]), 0.5);
        let b = Tensor::full(Shape::new(&[1, 3, 4, 4]), 0.25);
        let c = Tensor::full(Shape::new(&[1, 3, 2, 8]), 0.5);
        assert_eq!(content_hash(&a, "s"), content_hash(&a, "s"));
        assert_ne!(content_hash(&a, "s"), content_hash(&b, "s"));
        assert_ne!(content_hash(&a, "s"), content_hash(&c, "s"));
        assert_ne!(content_hash(&a, "nearest"), content_hash(&a, "bicubic"));
    }

    /// The hash is part of the wire protocol: this pins its value. A change
    /// here is a protocol change and needs a new wire version.
    #[test]
    fn content_hash_matches_its_reference_vector() {
        let data: Vec<f32> = (0..48).map(|i| i as f32 * 0.125 - 1.0).collect();
        let image = Tensor::from_vec(Shape::new(&[1, 3, 4, 4]), data).expect("48 values");
        assert_eq!(content_hash(&image, "sesr-m2:x2:raw"), REFERENCE);
        assert_eq!(content_hash(&image, ""), REFERENCE_UNSALTED);
    }

    const REFERENCE: u64 = 0x7a0b_ba4e_716f_f1d2;
    const REFERENCE_UNSALTED: u64 = 0xe8be_fcaa_fd86_2de8;

    /// splitmix64: a cheap, seedable stream of test words.
    fn next_word(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(*state)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Flipping any one bit of any value, any dim or the salt changes
        /// the hash.
        #[test]
        fn any_single_bit_flip_changes_the_hash(
            seed in 0u64..u64::MAX,
            part in 0usize..3,
            index in 0usize..48,
            bit in 0u32..64,
            salt_len in 0usize..20,
        ) {
            let mut state = seed;
            let dims = [1usize, 3, 4, 4];
            let data: Vec<f32> = (0..48)
                .map(|_| f32::from_bits(next_word(&mut state) as u32))
                .collect();
            let salt: Vec<u8> = (0..salt_len).map(|_| next_word(&mut state) as u8).collect();
            let original = hash_parts(&salt, &dims, &data);
            let (mut salt2, mut dims2, mut data2) = (salt.clone(), dims, data.clone());
            match part {
                0 => data2[index] = f32::from_bits(data[index].to_bits() ^ (1 << (bit % 32))),
                1 => dims2[index % 4] ^= 1 << (bit % usize::BITS),
                _ if salt_len > 0 => salt2[index % salt_len] ^= 1 << (bit % 8),
                _ => salt2.push(0),
            }
            prop_assert!(hash_parts(&salt2, &dims2, &data2) != original);
        }
    }

    /// No two of 100 000 random `[1, 3, 32, 32]` images share a hash, and
    /// neither does any image and its neighbour one ulp away in one element.
    #[test]
    fn random_images_and_their_one_ulp_neighbours_never_collide() {
        let dims = [1usize, 3, 32, 32];
        let mut data = vec![0f32; 3 * 32 * 32];
        let mut seen = std::collections::HashSet::new();
        let mut state = 42u64;
        for image in 0..100_000 {
            for value in data.iter_mut() {
                *value = (next_word(&mut state) >> 40) as f32 / (1u64 << 24) as f32;
            }
            assert!(
                seen.insert(hash_parts(b"", &dims, &data)),
                "image {image} collided"
            );
            if image % 100 == 0 {
                let at = (next_word(&mut state) % data.len() as u64) as usize;
                data[at] = f32::from_bits(data[at].to_bits() + 1);
                let neighbour = hash_parts(b"", &dims, &data);
                assert!(seen.insert(neighbour), "image {image}'s neighbour collided");
            }
        }
    }
}
