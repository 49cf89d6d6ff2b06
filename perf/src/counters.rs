//! The program's own telemetry, read before and after the traced loops:
//! where `serve.*`, `net.*`, `cluster.*`, the arena gauges and the stage
//! budget come from.

use crate::layers::Values;
use crate::sut::{self, Kind, Sut, PATIENCE};
use crate::workloads::Workload;
use sesr_telemetry::{merge_snapshots, TelemetrySnapshot};
use std::time::Instant;

/// The program's own telemetry at one instant: the front's hub, and the
/// gateways' — the same hub on a single-process system, the exact merge of
/// every member's hub on a cluster (each asked directly, so no probe
/// interval of staleness).
pub struct Telemetry {
    front: TelemetrySnapshot,
    members: Vec<TelemetrySnapshot>,
    /// The members' hubs merged; `None` on a single-process system.
    merged: Option<TelemetrySnapshot>,
    /// How long the front took to answer the stats request.
    stats_ms: f64,
}

fn parse_snapshot(json: &str) -> Result<TelemetrySnapshot, String> {
    TelemetrySnapshot::from_json(json).map_err(|e| format!("telemetry snapshot: {e:?}"))
}

pub fn telemetry(sut: &Sut) -> Result<Telemetry, String> {
    let started = Instant::now();
    let json = sut.stats_json()?;
    let stats_ms = started.elapsed().as_secs_f64() * 1e3;
    let front = parse_snapshot(&json)?;
    let members = sut
        .members()
        .into_iter()
        .map(|(_, addr)| {
            let json = sut::dial(addr)?
                .stats(PATIENCE)
                .map_err(|e| e.to_string())?;
            parse_snapshot(&json)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let merged = (!members.is_empty()).then(|| merge_snapshots(&members));
    Ok(Telemetry {
        front,
        members,
        merged,
        stats_ms,
    })
}

impl Telemetry {
    /// The hub the gateways record into.
    fn serve(&self) -> &TelemetrySnapshot {
        self.merged.as_ref().unwrap_or(&self.front)
    }
}

fn counter_delta(after: &TelemetrySnapshot, before: &TelemetrySnapshot, name: &str) -> f64 {
    after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
}

fn gauge_delta(after: &TelemetrySnapshot, before: &TelemetrySnapshot, name: &str) -> f64 {
    (after.gauge(name).unwrap_or(0) - before.gauge(name).unwrap_or(0)) as f64
}

/// Median, in µs, of what histogram `name` recorded between two snapshots.
fn p50_delta_us(after: &TelemetrySnapshot, before: &TelemetrySnapshot, name: &str) -> f64 {
    match (after.histogram(name), before.histogram(name)) {
        (Some(after), Some(before)) => after.delta_since(before).quantile(0.5) as f64 / 1e3,
        (Some(after), None) => after.quantile(0.5) as f64 / 1e3,
        _ => 0.0,
    }
}

pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// `serve.*`, `net.*`, `cluster.*`, `tensor.arena_*` and `telemetry.*` from
/// the program's own counters over the interval `before..after`.
pub fn from_telemetry(
    workload: &Workload,
    before: &Telemetry,
    after: &Telemetry,
    out: &mut Values,
) -> f64 {
    let label = workload.route().label();
    let (b, a) = (before.serve(), after.serve());
    let stage = |name: &str| p50_delta_us(a, b, &format!("route.{label}.stage.{name}_ns"));
    let completed = counter_delta(a, b, "gateway.completed");
    out.insert("serve.queue_wait_p50_us", stage("queue_wait"));
    out.insert("serve.batch_dwell_p50_us", stage("batch_dwell"));
    out.insert(
        "serve.batch_size_mean",
        ratio(
            counter_delta(a, b, "gateway.batched_images"),
            counter_delta(a, b, "gateway.batches"),
        ),
    );
    out.insert(
        "serve.cache_hit_ratio",
        ratio(counter_delta(a, b, "gateway.cache_hits"), completed),
    );
    out.insert(
        "serve.cache_evictions",
        gauge_delta(a, b, "gateway.cache.evictions"),
    );
    out.insert(
        "serve.shed",
        counter_delta(a, b, "gateway.shed") + counter_delta(a, b, "gateway.rejected"),
    );
    out.insert("serve.expired", counter_delta(a, b, "gateway.expired"));
    let arena = |field: &str| {
        a.gauge(&format!("route.{label}.arena.w0.{field}"))
            .unwrap_or(0) as f64
    };
    // Members' gauges are summed by the merge; hits and misses sum cleanly,
    // the high-water mark is then the fleet's total.
    out.insert(
        "tensor.arena_hit_ratio",
        ratio(arena("hits"), arena("hits") + arena("misses")),
    );
    out.insert(
        "tensor.arena_high_water_kb",
        arena("high_water_bytes") / 1024.0,
    );
    out.insert("telemetry.stats_frame_ms", after.stats_ms);
    out.insert(
        "telemetry.journal_dropped",
        after.front.dropped_events as f64
            + after
                .members
                .iter()
                .map(|m| m.dropped_events as f64)
                .sum::<f64>(),
    );

    if workload.kind != Kind::Edge {
        let (b, a) = (&before.front, &after.front);
        out.insert(
            "net.bytes_per_request",
            ratio(
                counter_delta(a, b, "net.bytes_rx") + counter_delta(a, b, "net.bytes_tx"),
                counter_delta(a, b, "net.admitted"),
            ),
        );
        out.insert(
            "net.shed",
            counter_delta(a, b, "net.shed.rate_limit") + counter_delta(a, b, "net.shed.overload"),
        );
        out.insert(
            "net.decode_errors",
            counter_delta(a, b, "net.decode_errors"),
        );
    }
    if workload.kind == Kind::Cluster {
        let (b, a) = (&before.front, &after.front);
        let shares: Vec<f64> = before
            .members
            .iter()
            .zip(&after.members)
            .map(|(b, a)| counter_delta(a, b, "gateway.completed"))
            .collect();
        out.insert(
            "cluster.member_share_max",
            ratio(shares.iter().cloned().fold(0.0, f64::max), completed),
        );
        out.insert(
            "cluster.fleet_cache_hit_ratio",
            out["serve.cache_hit_ratio"],
        );
        // Forward latency is kept per member; weigh each member's median by
        // the forwards it carried.
        let mut weighted = 0.0;
        let mut forwards = 0.0;
        for member in 0..sut::MEMBERS {
            let name = format!("cluster.member.{member}.forward_ns");
            let count = match (a.histogram(&name), b.histogram(&name)) {
                (Some(a), Some(b)) => a.count.saturating_sub(b.count) as f64,
                (Some(a), None) => a.count as f64,
                _ => 0.0,
            };
            weighted += count * p50_delta_us(a, b, &name);
            forwards += count;
        }
        out.insert("cluster.forward_p50_us", ratio(weighted, forwards));
        out.insert(
            "cluster.shed_member_down",
            counter_delta(a, b, "cluster.shed.member_down"),
        );
        out.insert(
            "cluster.reconnects",
            counter_delta(a, b, "cluster.reconnects"),
        );
        out.insert(
            "cluster.restarts",
            counter_delta(a, b, "cluster.supervisor.restarts"),
        );
    }
    // What the program's own stage spans add up to per request, for the
    // budget check against the driver's end-to-end median.
    [
        "queue_wait",
        "batch_dwell",
        "preprocess",
        "sr_forward",
        "classify",
    ]
    .iter()
    .map(|name| stage(name))
    .sum()
}
