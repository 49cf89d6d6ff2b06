//! The `net.*` metric namespace: counters, gauges and journal probes the
//! reactor publishes into the gateway's shared [`Telemetry`] hub, so wire
//! activity lands in the same snapshot as the per-route serving stages and
//! `sesr-top` renders both.

use sesr_telemetry::{Counter, Gauge, Level, Probe, Telemetry};
use std::sync::Arc;

/// Handles to every `net.*` metric the reactor records. Registered once at
/// server start; recording is lock-free.
pub struct NetMetrics {
    /// Connections accepted (`net.accepted`).
    pub accepted: Arc<Counter>,
    /// Connections closed, by either side (`net.closed`).
    pub closed: Arc<Counter>,
    /// Connections refused because the table was full (`net.conn_rejected`).
    pub conn_rejected: Arc<Counter>,
    /// Live connections right now (`net.connections`).
    pub connections: Arc<Gauge>,
    /// Requests in flight between admission and reply (`net.inflight`).
    pub inflight: Arc<Gauge>,
    /// Whole frames parsed off the wire (`net.frames_rx`).
    pub frames_rx: Arc<Counter>,
    /// Frames written to the wire (`net.frames_tx`).
    pub frames_tx: Arc<Counter>,
    /// Bytes read (`net.bytes_rx`) and written (`net.bytes_tx`).
    pub bytes_rx: Arc<Counter>,
    /// See [`NetMetrics::bytes_rx`].
    pub bytes_tx: Arc<Counter>,
    /// Requests admitted to a shard queue (`net.admitted`).
    pub admitted: Arc<Counter>,
    /// Retry-after replies for exhausted token buckets
    /// (`net.shed.rate_limit`).
    pub shed_rate_limit: Arc<Counter>,
    /// Retry-after replies for full queues / Unhealthy routes
    /// (`net.shed.overload`).
    pub shed_overload: Arc<Counter>,
    /// `DeadlineExceeded` replies relayed to the wire
    /// (`net.deadline_exceeded`).
    pub deadline_exceeded: Arc<Counter>,
    /// Protocol violations that unsynchronized a connection
    /// (`net.decode_errors`).
    pub decode_errors: Arc<Counter>,
    /// Journal probe per accepted connection (`net.accept`).
    pub accept_probe: Probe,
    /// Journal probe per shed request (`net.shed`), value = wire id.
    pub shed_probe: Probe,
    /// Journal probe per decode error (`net.decode_error`).
    pub decode_probe: Probe,
    /// Wire-level request latency, admission → reply written
    /// (`net.request`, histogram `net.request_ns`).
    pub request_probe: Probe,
}

impl NetMetrics {
    /// Register every `net.*` metric in `telemetry`. Idempotent: the same
    /// names resolve to the same handles.
    pub fn register(telemetry: &Telemetry) -> Self {
        let metrics = telemetry.metrics();
        NetMetrics {
            accepted: metrics.counter("net.accepted"),
            closed: metrics.counter("net.closed"),
            conn_rejected: metrics.counter("net.conn_rejected"),
            connections: metrics.gauge("net.connections"),
            inflight: metrics.gauge("net.inflight"),
            frames_rx: metrics.counter("net.frames_rx"),
            frames_tx: metrics.counter("net.frames_tx"),
            bytes_rx: metrics.counter("net.bytes_rx"),
            bytes_tx: metrics.counter("net.bytes_tx"),
            admitted: metrics.counter("net.admitted"),
            shed_rate_limit: metrics.counter("net.shed.rate_limit"),
            shed_overload: metrics.counter("net.shed.overload"),
            deadline_exceeded: metrics.counter("net.deadline_exceeded"),
            decode_errors: metrics.counter("net.decode_errors"),
            accept_probe: telemetry.probe("net.accept", Level::Info, None),
            shed_probe: telemetry.probe("net.shed", Level::Warn, None),
            decode_probe: telemetry.probe("net.decode_error", Level::Warn, None),
            request_probe: telemetry.probe("net.request", Level::Debug, Some("net.request_ns")),
        }
    }
}
