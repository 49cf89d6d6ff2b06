//! Recording handles for the serving subsystem's counters.
//!
//! A [`StatsRecorder`] writes one stream of serving events into a
//! [`MetricsRegistry`] under a scoped name (`gateway.completed`,
//! `route.<label>.completed`, …); latency goes into a log-bucketed
//! [`Histogram`] covering the gateway's whole lifetime. The gateway keeps one
//! recorder per route plus a global one and records every event on both.
//! Recording is a handful of relaxed atomic adds: no lock, no allocation.
//! The numbers are read only through the gateway's telemetry snapshot.

use sesr_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Thread-safe recorder fed by the client (rejections, cache hits) and the
/// workers (completions, batch sizes).
pub(crate) struct StatsRecorder {
    latency_ns: Arc<Histogram>,
    completed: Arc<Counter>,
    computed_images: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    rejected: Arc<Counter>,
    errors: Arc<Counter>,
    expired: Arc<Counter>,
    batches: Arc<Counter>,
    batched_images: Arc<Counter>,
    largest_batch: Arc<Gauge>,
}

impl StatsRecorder {
    /// A recorder whose metrics live in `registry` under `scope.<metric>`
    /// names (e.g. `gateway.completed`,
    /// `route.sesr-m2:x2:jpeg75+wavelet2.latency_ns`). Registration is
    /// idempotent: two recorders built with the same registry and scope
    /// share the same underlying metrics.
    pub(crate) fn registered(registry: &MetricsRegistry, scope: &str) -> Self {
        let counter = |metric: &str| registry.counter(&format!("{scope}.{metric}"));
        StatsRecorder {
            latency_ns: registry.histogram(&format!("{scope}.latency_ns")),
            completed: counter("completed"),
            computed_images: counter("computed_images"),
            cache_hits: counter("cache_hits"),
            cache_misses: counter("cache_misses"),
            rejected: counter("rejected"),
            errors: counter("errors"),
            expired: counter("expired"),
            batches: counter("batches"),
            batched_images: counter("batched_images"),
            largest_batch: registry.gauge(&format!("{scope}.largest_batch")),
        }
    }

    /// Record one finished request with its end-to-end latency.
    pub(crate) fn record_completion(&self, latency: Duration, cache_hit: bool) {
        self.completed.incr();
        if cache_hit {
            self.cache_hits.incr();
        }
        self.latency_ns.record_duration(latency);
    }

    /// Record images that actually went through the defense pipeline (as
    /// opposed to being served from cache).
    pub(crate) fn record_computed(&self, images: usize) {
        self.computed_images.add(images as u64);
    }

    /// Record a cache miss whose request was accepted onto a queue (hits
    /// are counted by [`StatsRecorder::record_completion`]).
    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.incr();
    }

    /// Record a submission rejected with `Overloaded`.
    pub(crate) fn record_rejection(&self) {
        self.rejected.incr();
    }

    /// Record a request that failed inside the pipeline.
    pub(crate) fn record_error(&self) {
        self.errors.incr();
    }

    /// Record a request whose per-request deadline passed before a worker
    /// reached it (answered with `DeadlineExceeded`, never defended).
    pub(crate) fn record_expired(&self) {
        self.expired.incr();
    }

    /// Record one dispatched batch of `size` images.
    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.incr();
        self.batched_images.add(size as u64);
        self.largest_batch
            .set_max(i64::try_from(size).unwrap_or(i64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
        let dump = registry.collect();
        dump.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    fn latency(registry: &MetricsRegistry) -> sesr_telemetry::HistogramSnapshot {
        let dump = registry.collect();
        dump.histograms
            .into_iter()
            .find(|(n, _)| n == "serve.latency_ns")
            .map(|(_, h)| h)
            .expect("the recorder registers its latency histogram")
    }

    /// Assert `got_ns` is within 2% of `want` (the histogram's error bound).
    fn assert_close(got_ns: u64, want: Duration) {
        let (got, want) = (got_ns as f64, want.as_nanos() as f64);
        assert!(
            (got - want).abs() <= want * 0.02,
            "expected {want}ns ± 2%, got {got}ns"
        );
    }

    #[test]
    fn percentiles_track_order_statistics_within_error_bound() {
        let registry = MetricsRegistry::new();
        let recorder = StatsRecorder::registered(&registry, "serve");
        for ms in 1..=100u64 {
            recorder.record_completion(Duration::from_millis(ms), false);
        }
        let hist = latency(&registry);
        assert_eq!(hist.count, 100);
        assert_close(hist.quantile(0.50), Duration::from_millis(50));
        assert_close(hist.quantile(0.95), Duration::from_millis(95));
        assert_close(hist.quantile(0.99), Duration::from_millis(99));
        // The mean is exact (sum/count), not bucketed.
        assert_eq!(hist.mean_duration(), Duration::from_micros(50_500));
    }

    #[test]
    fn latency_covers_whole_lifetime() {
        let registry = MetricsRegistry::new();
        let recorder = StatsRecorder::registered(&registry, "serve");
        // A sliding window of 8192 samples would forget the first half; the
        // histogram covers the entire lifetime, so early traffic still shows
        // up in the percentiles.
        for _ in 0..8192 {
            recorder.record_completion(Duration::from_millis(1), false);
        }
        for _ in 0..8192 {
            recorder.record_completion(Duration::from_millis(2), false);
        }
        let hist = latency(&registry);
        assert_eq!(hist.count, 2 * 8192);
        assert_close(hist.quantile(0.50), Duration::from_millis(1));
        assert_close(hist.quantile(0.99), Duration::from_millis(2));
        assert_close(hist.mean() as u64, Duration::from_micros(1_500));
    }

    /// The recorder is lock-free: a thread that panics while recording must
    /// leave it fully usable for every other thread.
    #[test]
    fn panicking_recorder_thread_does_not_cascade() {
        let registry = MetricsRegistry::new();
        let recorder = Arc::new(StatsRecorder::registered(&registry, "serve"));
        let poisoner = Arc::clone(&recorder);
        let result = std::thread::spawn(move || {
            poisoner.record_completion(Duration::from_millis(1), false);
            poisoner.record_batch(4);
            panic!("worker dies mid-flight");
        })
        .join();
        assert!(result.is_err(), "the thread must actually have panicked");
        recorder.record_completion(Duration::from_millis(2), true);
        recorder.record_rejection();
        assert_eq!(counter(&registry, "serve.completed"), 2);
        assert_eq!(counter(&registry, "serve.cache_hits"), 1);
        assert_eq!(counter(&registry, "serve.rejected"), 1);
        assert!(registry
            .collect()
            .gauges
            .contains(&("serve.largest_batch".to_string(), 4)));
    }

    #[test]
    fn registered_recorders_share_scoped_metrics() {
        let registry = MetricsRegistry::new();
        let a = StatsRecorder::registered(&registry, "gateway");
        let b = StatsRecorder::registered(&registry, "gateway");
        a.record_completion(Duration::from_millis(5), false);
        b.record_rejection();
        // Both recorders write the same underlying metrics, under scoped
        // names.
        assert_eq!(counter(&registry, "gateway.completed"), 1);
        assert_eq!(counter(&registry, "gateway.rejected"), 1);
        assert!(registry
            .collect()
            .histograms
            .iter()
            .any(|(name, h)| name == "gateway.latency_ns" && h.count == 1));
    }

    #[test]
    fn counters_accumulate() {
        let registry = MetricsRegistry::new();
        let recorder = StatsRecorder::registered(&registry, "serve");
        recorder.record_rejection();
        recorder.record_error();
        recorder.record_expired();
        recorder.record_batch(3);
        recorder.record_batch(5);
        recorder.record_computed(8);
        recorder.record_cache_miss();
        recorder.record_completion(Duration::from_millis(1), true);
        for (name, want) in [
            ("serve.rejected", 1),
            ("serve.errors", 1),
            ("serve.expired", 1),
            ("serve.batches", 2),
            ("serve.batched_images", 8),
            ("serve.computed_images", 8),
            ("serve.cache_hits", 1),
            ("serve.cache_misses", 1),
            ("serve.completed", 1),
        ] {
            assert_eq!(counter(&registry, name), want, "{name}");
        }
        assert!(registry
            .collect()
            .gauges
            .contains(&("serve.largest_batch".to_string(), 5)));
    }
}
