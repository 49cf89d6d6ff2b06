//! Cross-process snapshot aggregation: merge many [`TelemetrySnapshot`]s
//! into one fleet rollup.
//!
//! A federated gateway is N shared-nothing worker processes, each with its
//! own telemetry hub. The cluster router probes every member for its
//! snapshot and needs a *fleet* view: counters summed, gauges summed,
//! histograms merged bucket-wise — so a fleet p99 is computed over the
//! union of every member's samples, not averaged per member (averaging
//! quantiles is how tail latencies get laundered). [`merge_snapshots`]
//! does exactly that, and [`prefix_snapshot`] re-namespaces the result
//! (e.g. under `cluster.fleet.`) so it can ride along in the router's own
//! snapshot without colliding with the router's `net.*` metrics.
//!
//! Events, alerts and health verdicts are deliberately *not* merged: they
//! are per-process narratives (a journal interleaved across processes with
//! unsynchronized clocks is noise), and each member's own snapshot remains
//! the place to read them.

use crate::histogram::HistogramSnapshot;
use crate::snapshot::TelemetrySnapshot;
use std::collections::BTreeMap;

impl HistogramSnapshot {
    /// Fold `other` into `self`, bucket-wise. Both sides use the same
    /// log-bucket layout (bucket lower bounds are value-determined, not
    /// instance-determined), so merging is exact: the merged histogram is
    /// what one histogram would have recorded had it seen both sample
    /// streams. Quantiles of the merge are therefore true union quantiles
    /// (within bucket resolution).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut buckets: BTreeMap<u64, u64> = self.buckets.iter().copied().collect();
        for &(lower, n) in &other.buckets {
            *buckets.entry(lower).or_insert(0) += n;
        }
        self.buckets = buckets.into_iter().collect();
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Merge many snapshots into one: counters and gauges summed by name,
/// histograms merged bucket-wise by name. Journal events, alerts, health
/// and `dropped_events` are left empty — they are per-process state (see
/// the module docs).
pub fn merge_snapshots<'a>(
    parts: impl IntoIterator<Item = &'a TelemetrySnapshot>,
) -> TelemetrySnapshot {
    let mut counters: BTreeMap<&'a str, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<&'a str, i64> = BTreeMap::new();
    let mut histograms: BTreeMap<&'a str, HistogramSnapshot> = BTreeMap::new();
    for part in parts {
        for (name, value) in &part.counters {
            *counters.entry(name).or_insert(0) += value;
        }
        for (name, value) in &part.gauges {
            *gauges.entry(name).or_insert(0) += value;
        }
        for (name, histogram) in &part.histograms {
            histograms.entry(name).or_default().merge(histogram);
        }
    }
    TelemetrySnapshot {
        counters: counters
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        gauges: gauges
            .into_iter()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        histograms: histograms
            .into_iter()
            .map(|(name, h)| (name.to_string(), h))
            .collect(),
        events: Vec::new(),
        alerts: Vec::new(),
        health: Vec::new(),
        dropped_events: 0,
    }
}

/// Rename every metric in `snapshot` under `prefix` (plain concatenation:
/// pass a trailing `.`), preserving sorted order — prefixing every name
/// with the same string preserves lexicographic order.
pub fn prefix_snapshot(mut snapshot: TelemetrySnapshot, prefix: &str) -> TelemetrySnapshot {
    for (name, _) in &mut snapshot.counters {
        *name = format!("{prefix}{name}");
    }
    for (name, _) in &mut snapshot.gauges {
        *name = format!("{prefix}{name}");
    }
    for (name, _) in &mut snapshot.histograms {
        *name = format!("{prefix}{name}");
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::Telemetry;
    use std::time::Duration;

    fn snapshot_with(counter: u64, gauge: i64, micros: &[u64]) -> TelemetrySnapshot {
        let hub = Telemetry::new();
        hub.metrics().counter("requests").add(counter);
        hub.metrics().gauge("inflight").add(gauge);
        let histogram = hub.metrics().histogram("latency_ns");
        for &us in micros {
            histogram.record_duration(Duration::from_micros(us));
        }
        hub.snapshot()
    }

    #[test]
    fn merge_sums_counters_and_gauges_by_name() {
        let a = snapshot_with(3, 2, &[]);
        let b = snapshot_with(5, -1, &[]);
        let merged = merge_snapshots([&a, &b]);
        assert_eq!(merged.counter("requests"), Some(8));
        assert_eq!(merged.gauge("inflight"), Some(1));
        assert!(merged.events.is_empty());
    }

    #[test]
    fn merged_histogram_is_the_union_of_samples() {
        let a = snapshot_with(0, 0, &[100, 100, 100, 100]);
        let b = snapshot_with(0, 0, &[100_000]);
        let merged = merge_snapshots([&a, &b]);
        let got = merged.histogram("latency_ns").expect("merged histogram");

        // The union recorded directly must agree exactly.
        let direct = Histogram::new();
        for us in [100u64, 100, 100, 100, 100_000] {
            direct.record_duration(Duration::from_micros(us));
        }
        let direct = direct.snapshot();
        assert_eq!(got, &direct);
        assert_eq!(got.count, 5);
        // The tail sample survives the merge: a per-member average would
        // have hidden it.
        assert_eq!(got.quantile(1.0), direct.quantile(1.0));
        assert!(got.quantile(1.0) >= Duration::from_micros(90_000).as_nanos() as u64);
    }

    #[test]
    fn merge_with_empty_histogram_is_identity() {
        let mut empty = HistogramSnapshot::default();
        let a = snapshot_with(0, 0, &[250, 500]);
        let histogram = a.histogram("latency_ns").expect("recorded");
        empty.merge(histogram);
        assert_eq!(&empty, histogram);
        let mut merged = histogram.clone();
        merged.merge(&HistogramSnapshot::default());
        assert_eq!(&merged, histogram);
    }

    #[test]
    fn prefix_renames_every_metric_and_keeps_order() {
        let a = snapshot_with(1, 1, &[100]);
        let prefixed = prefix_snapshot(a, "cluster.fleet.");
        assert_eq!(prefixed.counter("cluster.fleet.requests"), Some(1));
        assert_eq!(prefixed.gauge("cluster.fleet.inflight"), Some(1));
        assert!(prefixed.histogram("cluster.fleet.latency_ns").is_some());
        let mut sorted = prefixed.counters.clone();
        sorted.sort();
        assert_eq!(prefixed.counters, sorted);
    }
}
