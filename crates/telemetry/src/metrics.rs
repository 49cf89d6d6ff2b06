//! Named metric handles and the registry that owns them.
//!
//! A [`MetricsRegistry`] is a lazily-populated map from metric name to a
//! shared handle ([`Counter`], [`Gauge`] or
//! [`Histogram`]). Handles are `Arc`s: callers register
//! once at setup time (the only place a lock is taken) and then record
//! through the handle with plain atomic operations — the registry map is
//! never touched on the hot path.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (pool sizes, byte counts, watermarks).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is larger than the current value.
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct RegistryMap {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Map from metric name to shared handle.
///
/// Registration (`counter` / `gauge` / `histogram`) is idempotent: the first
/// call for a name creates the metric, later calls return the same handle,
/// so independent subsystems can safely share names. The internal mutex is
/// held only during registration and snapshotting; recording through a
/// handle never touches it. A poisoned map lock is recovered, not
/// propagated — the maps only ever grow, so a panicking registrant cannot
/// leave them in a broken state.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryMap>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, RegistryMap> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.lock();
        if let Some(existing) = map.counters.get(name) {
            return Arc::clone(existing);
        }
        let fresh = Arc::new(Counter::new());
        map.counters.insert(name.to_string(), Arc::clone(&fresh));
        fresh
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.lock();
        if let Some(existing) = map.gauges.get(name) {
            return Arc::clone(existing);
        }
        let fresh = Arc::new(Gauge::new());
        map.gauges.insert(name.to_string(), Arc::clone(&fresh));
        fresh
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.lock();
        if let Some(existing) = map.histograms.get(name) {
            return Arc::clone(existing);
        }
        let fresh = Arc::new(Histogram::new());
        map.histograms.insert(name.to_string(), Arc::clone(&fresh));
        fresh
    }

    /// Snapshot every metric, sorted by name within each kind.
    pub fn collect(&self) -> MetricsDump {
        let map = self.lock();
        MetricsDump {
            counters: map
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: map
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: map
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.lock();
        f.debug_struct("MetricsRegistry")
            .field("counters", &map.counters.len())
            .field("gauges", &map.gauges.len())
            .field("histograms", &map.histograms.len())
            .finish()
    }
}

/// Owned values of every metric in a registry at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsDump {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_map_survives_a_poisoned_lock() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("poison.survivor");
        counter.add(5);
        let poisoner = Arc::clone(&registry);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the metric map on purpose");
        });
        assert!(handle.join().is_err());
        assert!(registry.inner.is_poisoned());
        // Registration and snapshotting recover instead of propagating.
        let same = registry.counter("poison.survivor");
        same.add(2);
        assert_eq!(counter.get(), 7, "handle identity survives poison");
        let fresh = registry.gauge("poison.after");
        fresh.set(1);
        let dump = registry.collect();
        assert!(
            dump.counters.contains(&("poison.survivor".to_string(), 7)),
            "collect must read through the recovered lock: {dump:?}"
        );
    }

    #[test]
    fn registration_is_idempotent() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("requests");
        let b = registry.counter("requests");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(
            &registry.histogram("lat"),
            &registry.histogram("lat")
        ));
    }

    #[test]
    fn gauge_operations() {
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
        g.add(-4);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn collect_is_sorted_and_complete() {
        let registry = MetricsRegistry::new();
        registry.counter("b.count").add(2);
        registry.counter("a.count").add(1);
        registry.gauge("z.gauge").set(-5);
        registry.histogram("m.hist").record(42);
        let dump = registry.collect();
        assert_eq!(
            dump.counters,
            vec![("a.count".to_string(), 1), ("b.count".to_string(), 2)]
        );
        assert_eq!(dump.gauges, vec![("z.gauge".to_string(), -5)]);
        assert_eq!(dump.histograms.len(), 1);
        assert_eq!(dump.histograms[0].0, "m.hist");
        assert_eq!(dump.histograms[0].1.count, 1);
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let poisoner = std::sync::Arc::clone(&registry);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the registry lock");
        })
        .join();
        // Registration and collection still work afterwards.
        registry.counter("after.poison").incr();
        assert_eq!(registry.collect().counters[0].1, 1);
    }
}
