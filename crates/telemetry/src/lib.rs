//! Hand-rolled observability primitives for the SESR serving stack.
//!
//! The paper's central claim is a latency/robustness trade-off, so the
//! reproduction needs to *attribute* time, not just total it: queue wait
//! vs. batch dwell vs. preprocess vs. SR forward vs. classify, per route.
//! This crate provides the pieces, with no dependencies beyond `std`:
//!
//! - [`Histogram`] — log-bucketed (HDR-style) latency histogram with
//!   lock-striped shards: recording is a few relaxed atomic adds (~1%
//!   relative error from bucket midpoints), snapshots are an O(buckets)
//!   merge with no sorting.
//! - [`Counter`] / [`Gauge`] / [`MetricsRegistry`] — named metric handles;
//!   the registry lock is touched only at registration and snapshot time.
//! - [`EventRing`] / [`Span`] / [`Probe`] — span tracing into a bounded
//!   structured-event journal (seqlock slots, no locks, no allocation on
//!   record) with per-thread span stacks for parent attribution.
//! - [`TelemetrySnapshot`] — the export surface: a deterministic text dump
//!   and a stable JSON schema that round-trips ([`snapshot::SCHEMA`]).
//! - [`merge_snapshots`] / [`prefix_snapshot`] — fleet rollups: sum
//!   counters and merge histograms bucket-wise across process snapshots,
//!   so a cluster router can quote true union quantiles.
//!
//! [`Telemetry`] bundles one registry with one journal — the serving
//! gateway, model store, and evaluation plans all share a single hub.
//!
//! # Example
//!
//! ```
//! use sesr_telemetry::{Level, Telemetry, TelemetrySnapshot};
//! use std::time::Duration;
//!
//! let telemetry = Telemetry::new();
//! let requests = telemetry.metrics().counter("gateway.requests");
//! let probe = telemetry.probe("stage.classify", Level::Debug, Some("classify_ns"));
//!
//! requests.incr();
//! {
//!     let _span = probe.span(1); // records duration + journal event on drop
//! }
//! probe.observe(2, Duration::from_micros(250)); // cross-thread interval
//!
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counter("gateway.requests"), Some(1));
//! assert_eq!(snapshot.histogram("classify_ns").unwrap().count, 2);
//! let reparsed = TelemetrySnapshot::from_json(&snapshot.to_json()).unwrap();
//! assert_eq!(reparsed, snapshot);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod health;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod slo;
pub mod snapshot;
pub mod window;

pub use aggregate::{merge_snapshots, prefix_snapshot};
pub use health::{HealthMachine, HealthPolicy, HealthState, HealthTransition};
pub use histogram::{Histogram, HistogramSnapshot};
pub use journal::{EventCode, EventRecord, EventRing, Level, Probe, Span};
pub use metrics::{Counter, Gauge, MetricsDump, MetricsRegistry};
pub use slo::{
    Alert, AlertSeverity, BurnRateRule, SloEngine, SloEvaluation, SloObjective, SloSpec,
    SloTransition, StatusBoard,
};
pub use snapshot::{TelemetrySnapshot, SCHEMA};
pub use window::{Frame, WindowDelta, WindowedStore};

use std::sync::Arc;

/// Default journal capacity for a [`Telemetry`] hub.
const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// One metrics registry plus one event journal: the shared telemetry hub a
/// process threads through its subsystems.
pub struct Telemetry {
    metrics: MetricsRegistry,
    journal: Arc<EventRing>,
    status: StatusBoard,
}

impl Telemetry {
    /// A hub with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A hub whose journal keeps the most recent `capacity` events.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Telemetry {
            metrics: MetricsRegistry::new(),
            journal: Arc::new(EventRing::new(capacity)),
            status: StatusBoard::new(),
        }
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The event journal.
    pub fn journal(&self) -> &Arc<EventRing> {
        &self.journal
    }

    /// The status board an SLO runtime publishes alerts and health to;
    /// [`Telemetry::snapshot`] folds its contents into every export.
    pub fn status(&self) -> &StatusBoard {
        &self.status
    }

    /// Build a [`Probe`] for `event` at `level`, optionally mirroring
    /// durations into the histogram named `histogram`.
    pub fn probe(&self, event: &'static str, level: Level, histogram: Option<&str>) -> Probe {
        let code = self.journal.register(event);
        let probe = Probe::new(Arc::clone(&self.journal), code, level);
        match histogram {
            Some(name) => probe.with_histogram(self.metrics.histogram(name)),
            None => probe,
        }
    }

    /// Snapshot every metric, the current journal contents, and whatever
    /// status (alerts, route health) has been published to the board.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::new(
            self.metrics.collect(),
            self.journal.events(),
            self.journal.dropped(),
        )
        .with_status(self.status.alerts(), self.status.health())
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("metrics", &self.metrics)
            .field("journal", &self.journal)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn hub_snapshot_combines_metrics_and_journal() {
        let telemetry = Telemetry::with_journal_capacity(32);
        telemetry.metrics().counter("a").add(5);
        telemetry.metrics().gauge("b").set(-1);
        let probe = telemetry.probe("evt", Level::Info, Some("h"));
        probe.observe(11, Duration::from_nanos(99));
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("a"), Some(5));
        assert_eq!(snapshot.gauge("b"), Some(-1));
        assert_eq!(snapshot.histogram("h").unwrap().count, 1);
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.events[0].name, "evt");
        assert_eq!(snapshot.events[0].request, 11);
        assert_eq!(snapshot.dropped_events, 0);
    }

    #[test]
    fn probe_without_histogram_only_journals() {
        let telemetry = Telemetry::new();
        let probe = telemetry.probe("bare", Level::Warn, None);
        probe.observe(0, Duration::from_nanos(1));
        let snapshot = telemetry.snapshot();
        assert!(snapshot.histograms.is_empty());
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.events[0].level, Level::Warn);
    }
}
