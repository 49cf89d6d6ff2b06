//! Recording handles for the serving subsystem's counters.
//!
//! A [`StatsRecorder`] writes one route's serving events into a
//! [`MetricsRegistry`] under a scoped name (`route.<label>.completed`, …);
//! latency goes into a log-bucketed [`Histogram`] covering the gateway's
//! whole lifetime. Each event is recorded once, on its route: the
//! gateway-wide `gateway.*` figures are derived from the routes' at
//! snapshot time by [`add_gateway_totals`]. Recording is a handful of
//! relaxed atomic adds: no lock, no allocation. The numbers are read only
//! through the gateway's telemetry snapshot.

use sesr_telemetry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, TelemetrySnapshot,
};
use std::sync::Arc;
use std::time::Duration;

/// One serving counter of a route, registered as `<scope>.<name>` with
/// the name at its index in [`COUNTERS`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stat {
    /// Requests answered, from the cache or computed.
    Completed,
    /// Images that went through the defense pipeline.
    ComputedImages,
    /// Requests answered from the cache.
    CacheHits,
    /// Cache misses whose request was accepted onto the queue.
    CacheMisses,
    /// Submissions rejected with `Overloaded` (queue full).
    Rejected,
    /// Requests that failed inside the pipeline.
    Errors,
    /// Requests whose deadline passed before a worker reached them.
    Expired,
    /// Batches dispatched.
    Batches,
    /// Images across all dispatched batches.
    BatchedImages,
    /// Submissions shed at admission because the route was Unhealthy — kept
    /// apart from `rejected`: a shed is the health machine's own output,
    /// not an error-budget event.
    Shed,
}

/// Every counter a [`StatsRecorder`] registers, in [`Stat`] order.
const COUNTERS: [&str; 10] = [
    "completed",
    "computed_images",
    "cache_hits",
    "cache_misses",
    "rejected",
    "errors",
    "expired",
    "batches",
    "batched_images",
    "shed",
];
/// The recorder's one gauge: the largest batch it has seen.
const LARGEST_BATCH: &str = "largest_batch";
/// The recorder's one histogram: end-to-end request latency.
const LATENCY_NS: &str = "latency_ns";

/// Thread-safe recorder fed by the client (rejections, sheds, cache hits)
/// and the workers (completions, batch sizes).
pub(crate) struct StatsRecorder {
    counters: [Arc<Counter>; COUNTERS.len()],
    largest_batch: Arc<Gauge>,
    latency_ns: Arc<Histogram>,
}

impl StatsRecorder {
    /// A recorder whose metrics live in `registry` under `scope.<metric>`
    /// names (e.g. `route.sesr-m2:x2:jpeg75+wavelet2.completed`,
    /// `route.sesr-m2:x2:jpeg75+wavelet2.latency_ns`). Registration is
    /// idempotent: two recorders built with the same registry and scope
    /// share the same underlying metrics.
    pub(crate) fn registered(registry: &MetricsRegistry, scope: &str) -> Self {
        StatsRecorder {
            counters: COUNTERS.map(|metric| registry.counter(&format!("{scope}.{metric}"))),
            largest_batch: registry.gauge(&format!("{scope}.{LARGEST_BATCH}")),
            latency_ns: registry.histogram(&format!("{scope}.{LATENCY_NS}")),
        }
    }

    /// Add `n` to one counter.
    pub(crate) fn add(&self, stat: Stat, n: usize) {
        self.counters[stat as usize].add(n as u64);
    }

    /// Record one finished request with its end-to-end latency.
    pub(crate) fn record_completion(&self, latency: Duration, cache_hit: bool) {
        self.add(Stat::Completed, 1);
        if cache_hit {
            self.add(Stat::CacheHits, 1);
        }
        self.latency_ns.record_duration(latency);
    }

    /// Record one dispatched batch of `size` images.
    pub(crate) fn record_batch(&self, size: usize) {
        self.add(Stat::Batches, 1);
        self.add(Stat::BatchedImages, size);
        self.largest_batch
            .set_max(i64::try_from(size).unwrap_or(i64::MAX));
    }
}

/// Add the gateway-wide `gateway.*` serving figures to `snapshot`, derived
/// from the `route.<label>.*` figures of the routes labelled `labels`: each
/// counter is the sum over routes, `largest_batch` the maximum, and
/// `latency_ns` the merge of the route histograms. Reading them out of the
/// same snapshot keeps every total exactly the sum of its parts.
pub(crate) fn add_gateway_totals(snapshot: &mut TelemetrySnapshot, labels: &[String]) {
    let per_route = |metric: &str| -> Vec<String> {
        let name = |label: &String| format!("route.{label}.{metric}");
        labels.iter().map(name).collect()
    };
    for metric in COUNTERS {
        let parts = per_route(metric);
        let total = parts.iter().filter_map(|name| snapshot.counter(name)).sum();
        snapshot.counters.push((format!("gateway.{metric}"), total));
    }
    let parts = per_route(LARGEST_BATCH);
    let largest = parts.iter().filter_map(|name| snapshot.gauge(name)).max();
    let largest = (format!("gateway.{LARGEST_BATCH}"), largest.unwrap_or(0));
    snapshot.gauges.push(largest);
    let mut latency = HistogramSnapshot::default();
    for name in per_route(LATENCY_NS) {
        if let Some(histogram) = snapshot.histogram(&name) {
            latency.merge(histogram);
        }
    }
    snapshot
        .histograms
        .push((format!("gateway.{LATENCY_NS}"), latency));
    // The snapshot lists every metric kind sorted by name.
    snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
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
        recorder.add(Stat::Rejected, 1);
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
        let a = StatsRecorder::registered(&registry, "route.a");
        let b = StatsRecorder::registered(&registry, "route.a");
        a.record_completion(Duration::from_millis(5), false);
        b.add(Stat::Rejected, 1);
        // Both recorders write the same underlying metrics, under scoped
        // names.
        assert_eq!(counter(&registry, "route.a.completed"), 1);
        assert_eq!(counter(&registry, "route.a.rejected"), 1);
        assert!(registry
            .collect()
            .histograms
            .iter()
            .any(|(name, h)| name == "route.a.latency_ns" && h.count == 1));
    }

    #[test]
    fn counters_accumulate() {
        let registry = MetricsRegistry::new();
        let recorder = StatsRecorder::registered(&registry, "serve");
        for stat in [
            Stat::Rejected,
            Stat::Errors,
            Stat::Expired,
            Stat::CacheMisses,
            Stat::Shed,
        ] {
            recorder.add(stat, 1);
        }
        recorder.record_batch(3);
        recorder.record_batch(5);
        recorder.add(Stat::ComputedImages, 8);
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
            ("serve.shed", 1),
        ] {
            assert_eq!(counter(&registry, name), want, "{name}");
        }
        assert!(registry
            .collect()
            .gauges
            .contains(&("serve.largest_batch".to_string(), 5)));
    }
}
