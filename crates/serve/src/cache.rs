//! Keyed LRU cache of defended outputs.
//!
//! The gateway keys the cache by `(RouteKey, content-hash)` — the route
//! identifies *which* defense produced the output, the 64-bit FNV-1a content
//! hash identifies the input image — so two routes serving different models
//! can never return each other's defended outputs. A 64-bit digest is not
//! collision-proof in the cryptographic sense, but for a bounded cache of
//! image tensors the collision probability is negligible (~n²/2⁶⁵) and a
//! collision only ever returns a *previously defended* output of the same
//! route, never corrupts state.

use sesr_store::Fnv1a64;
use sesr_tensor::Tensor;
use std::collections::HashMap;
use std::hash::Hash;

/// 64-bit FNV-1a content hash of an image tensor's shape and exact f32 bit
/// patterns, salted with `salt` (empty when the cache key already carries the
/// route identity).
pub fn content_hash(image: &Tensor, salt: &str) -> u64 {
    let mut hash = Fnv1a64::default();
    hash.write(salt.as_bytes());
    for dim in image.shape().dims() {
        hash.write(&(*dim as u64).to_le_bytes());
    }
    for value in image.data() {
        hash.write(&value.to_bits().to_le_bytes());
    }
    hash.finish()
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
}
