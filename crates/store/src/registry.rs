//! In-process registry that memoizes loaded checkpoints.
//!
//! A serving pool hydrates every worker from the same `(model, scale)`
//! artifact; without memoization each worker would re-read and re-validate
//! the file. The registry loads each pair once, hands out `Arc<Checkpoint>`
//! clones, and keeps hit/miss counters so the serving layer can report
//! hydration behaviour.

use crate::checkpoint::Checkpoint;
use crate::error::Result;
use crate::store::ModelStore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One lock per `(model, scale)` pair, serialising producers in
/// [`ModelRegistry::hydrate_or_insert`] so concurrent callers racing on a
/// missing artifact produce (train) it exactly once.
type ProducerLocks = Mutex<HashMap<(String, usize), Arc<Mutex<()>>>>;

/// A memoizing front-end over a [`ModelStore`].
pub struct ModelRegistry {
    store: ModelStore,
    cache: Mutex<RegistryInner>,
    producers: ProducerLocks,
}

#[derive(Default)]
struct RegistryInner {
    loaded: HashMap<(String, usize), Arc<Checkpoint>>,
    hits: u64,
    misses: u64,
}

impl ModelRegistry {
    /// Wrap a store in a fresh (empty) registry.
    pub fn new(store: ModelStore) -> Self {
        ModelRegistry {
            store,
            cache: Mutex::new(RegistryInner::default()),
            producers: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// Load the newest checkpoint for `(model_id, scale)`, memoized.
    ///
    /// The first call per pair reads and validates the artifact; later calls
    /// clone the cached `Arc`. A memoized entry pins the artifact version
    /// that was current at first load for the registry's lifetime.
    ///
    /// # Errors
    ///
    /// Everything [`ModelStore::load_latest`] can return; failures are not
    /// cached, so a store populated after a `NotFound` is retried.
    pub fn hydrate(&self, model_id: &str, scale: usize) -> Result<Arc<Checkpoint>> {
        let key = (model_id.to_string(), scale);
        {
            let mut inner = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(checkpoint) = inner.loaded.get(&key).map(Arc::clone) {
                inner.hits += 1;
                return Ok(checkpoint);
            }
            inner.misses += 1;
        }
        // Load outside the lock: validating a large artifact must not block
        // other models' hydration.
        let checkpoint = Arc::new(self.store.load_latest(model_id, scale)?);
        let mut inner = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = inner
            .loaded
            .entry(key)
            .or_insert_with(|| Arc::clone(&checkpoint));
        Ok(Arc::clone(entry))
    }

    /// Hydrate `(model_id, scale)`, producing and saving the artifact first
    /// when nothing is stored yet: the *train-once* primitive.
    ///
    /// Returns the hydrated checkpoint and whether `produce` ran. Producers
    /// for the same pair are serialised on a per-pair lock, so concurrent
    /// callers racing on a cold store run `produce` exactly once — later
    /// callers hydrate what the first one saved. Distinct pairs stay
    /// concurrent.
    ///
    /// `produce` is only invoked for
    /// [`StoreError::NotFound`](crate::StoreError::NotFound); a corrupt or
    /// mismatched artifact is still a hard error, never silently re-produced.
    ///
    /// # Errors
    ///
    /// Everything [`ModelRegistry::hydrate`] or [`ModelStore::save`] can
    /// return, plus whatever `produce` itself fails with.
    pub fn hydrate_or_insert<E: From<crate::StoreError>>(
        &self,
        model_id: &str,
        scale: usize,
        produce: impl FnOnce() -> std::result::Result<Checkpoint, E>,
    ) -> std::result::Result<(Arc<Checkpoint>, bool), E> {
        let pair_lock = {
            let mut producers = self
                .producers
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            Arc::clone(
                producers
                    .entry((model_id.to_string(), scale))
                    .or_insert_with(|| Arc::new(Mutex::new(()))),
            )
        };
        let _guard = pair_lock.lock().unwrap_or_else(PoisonError::into_inner);
        match self.hydrate(model_id, scale) {
            Ok(checkpoint) => Ok((checkpoint, false)),
            Err(err) if err.is_not_found() => {
                let checkpoint = produce()?;
                self.store.save(&checkpoint)?;
                Ok((self.hydrate(model_id, scale)?, true))
            }
            Err(err) => Err(err.into()),
        }
    }

    /// Number of distinct `(model, scale)` pairs currently memoized.
    pub fn len(&self) -> usize {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .loaded
            .len()
    }

    /// `true` when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime `(hits, misses)` counters of the memoization cache.
    pub fn hit_counts(&self) -> (u64, u64) {
        let inner = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        (inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesr_nn::{Conv2d, Sequential};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_registry() -> (PathBuf, ModelRegistry) {
        let dir = std::env::temp_dir().join(format!(
            "sesr_registry_test_{}_{}",
            std::process::id(),
            TEST_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = ModelStore::open(&dir).unwrap();
        (dir, ModelRegistry::new(store))
    }

    fn save_checkpoint(registry: &ModelRegistry, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new("registry_test");
        net.push(Conv2d::new(3, 4, 3, 1, 1, &mut rng));
        registry
            .store()
            .save(&Checkpoint::from_layer("SESR-M2", 2, seed, &net))
            .unwrap();
    }

    #[test]
    fn hydrate_memoizes_and_counts() {
        let (dir, registry) = temp_registry();
        save_checkpoint(&registry, 1);
        let a = registry.hydrate("SESR-M2", 2).unwrap();
        let b = registry.hydrate("SESR-M2", 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second hydrate must reuse the Arc");
        assert_eq!(registry.hit_counts(), (1, 1));
        assert_eq!(registry.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn not_found_is_not_cached() {
        let (dir, registry) = temp_registry();
        assert!(registry.hydrate("SESR-M2", 2).unwrap_err().is_not_found());
        save_checkpoint(&registry, 1);
        assert!(registry.hydrate("SESR-M2", 2).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_survives_a_poisoned_lock() {
        let (dir, registry) = temp_registry();
        save_checkpoint(&registry, 1);
        let registry = Arc::new(registry);
        let warm = registry.hydrate("SESR-M2", 2).unwrap();
        let poisoner = Arc::clone(&registry);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.cache.lock().unwrap();
            panic!("poison the registry cache on purpose");
        });
        assert!(handle.join().is_err());
        assert!(registry.cache.is_poisoned());
        // Hydration recovers the lock: cached entries are still served and
        // hit counting keeps working.
        let again = registry.hydrate("SESR-M2", 2).unwrap();
        assert!(Arc::ptr_eq(&warm, &again), "memoized entry survives poison");
        assert_eq!(registry.hit_counts(), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
