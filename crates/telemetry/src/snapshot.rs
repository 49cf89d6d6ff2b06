//! Point-in-time export of a [`Telemetry`](crate::Telemetry) hub: a stable
//! JSON schema plus a deterministic text rendering.

use crate::health::HealthState;
use crate::histogram::HistogramSnapshot;
use crate::journal::{EventRecord, Level};
use crate::json::{self, JsonError, Value};
use crate::metrics::MetricsDump;
use crate::slo::{Alert, AlertSeverity};
use std::fmt::Write as _;

/// Schema identifier stamped into every JSON export; bump on breaking
/// changes to the layout.
pub const SCHEMA: &str = "sesr-telemetry/v2";

/// Everything a telemetry hub knows at one instant.
///
/// The JSON layout (see [`TelemetrySnapshot::to_json`]) is a stable,
/// machine-readable schema: top-level `schema`, `counters`, `gauges`,
/// `histograms`, `events`, `alerts`, `health` and `dropped_events` keys,
/// with metric maps keyed by name in sorted order. `from_json` inverts
/// `to_json` exactly, which the schema-validation test in `tests/` asserts;
/// every key is required and any other schema identifier is refused.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Journal events, oldest first.
    pub events: Vec<EventRecord>,
    /// Alerts firing when the snapshot was taken, in spec order.
    pub alerts: Vec<Alert>,
    /// Per-route health, sorted by route.
    pub health: Vec<(String, HealthState)>,
    /// How many journal events were overwritten before this snapshot.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// Assemble a snapshot from a metrics dump plus journal state, with no
    /// interpreted status (no alerts, no tracked routes).
    pub fn new(metrics: MetricsDump, events: Vec<EventRecord>, dropped_events: u64) -> Self {
        TelemetrySnapshot {
            counters: metrics.counters,
            gauges: metrics.gauges,
            histograms: metrics.histograms,
            events,
            alerts: Vec::new(),
            health: Vec::new(),
            dropped_events,
        }
    }

    /// The same snapshot carrying interpreted status from an SLO runtime.
    pub fn with_status(mut self, alerts: Vec<Alert>, health: Vec<(String, HealthState)>) -> Self {
        self.alerts = alerts;
        self.health = health;
        self
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Serialise to the stable JSON schema (compact, single line).
    ///
    /// Histogram entries carry the raw sparse buckets (enough to recompute
    /// any quantile) plus derived `p50`/`p95`/`p99`/`mean` fields for
    /// convenience; [`TelemetrySnapshot::from_json`] recomputes the derived
    /// fields from the buckets, so they are informational only.
    pub fn to_json(&self) -> String {
        let counters = Value::Object(
            self.counters
                .iter()
                .map(|(name, v)| (name.clone(), Value::Int(i128::from(*v))))
                .collect(),
        );
        let gauges = Value::Object(
            self.gauges
                .iter()
                .map(|(name, v)| (name.clone(), Value::Int(i128::from(*v))))
                .collect(),
        );
        let histograms = Value::Object(
            self.histograms
                .iter()
                .map(|(name, h)| {
                    let buckets = Value::Array(
                        h.buckets
                            .iter()
                            .map(|&(lower, n)| {
                                Value::Array(vec![
                                    Value::Int(i128::from(lower)),
                                    Value::Int(i128::from(n)),
                                ])
                            })
                            .collect(),
                    );
                    let fields = vec![
                        ("count".to_string(), Value::Int(i128::from(h.count))),
                        ("sum".to_string(), Value::Int(i128::from(h.sum))),
                        ("min".to_string(), Value::Int(i128::from(h.min))),
                        ("max".to_string(), Value::Int(i128::from(h.max))),
                        ("mean".to_string(), Value::Float(h.mean())),
                        ("p50".to_string(), Value::Int(i128::from(h.quantile(0.50)))),
                        ("p95".to_string(), Value::Int(i128::from(h.quantile(0.95)))),
                        ("p99".to_string(), Value::Int(i128::from(h.quantile(0.99)))),
                        ("buckets".to_string(), buckets),
                    ];
                    (name.clone(), Value::Object(fields))
                })
                .collect(),
        );
        let events = Value::Array(
            self.events
                .iter()
                .map(|event| {
                    Value::Object(vec![
                        ("seq".to_string(), Value::Int(i128::from(event.seq))),
                        ("us".to_string(), Value::Int(i128::from(event.micros))),
                        (
                            "level".to_string(),
                            Value::Str(event.level.as_str().to_string()),
                        ),
                        ("name".to_string(), Value::Str(event.name.clone())),
                        ("request".to_string(), Value::Int(i128::from(event.request))),
                        ("value".to_string(), Value::Int(i128::from(event.value))),
                        (
                            "parent".to_string(),
                            match &event.parent {
                                Some(name) => Value::Str(name.clone()),
                                None => Value::Null,
                            },
                        ),
                    ])
                })
                .collect(),
        );
        let alerts = Value::Array(
            self.alerts
                .iter()
                .map(|alert| {
                    Value::Object(vec![
                        ("slo".to_string(), Value::Str(alert.slo.clone())),
                        ("route".to_string(), Value::Str(alert.route.clone())),
                        (
                            "severity".to_string(),
                            Value::Str(alert.severity.as_str().to_string()),
                        ),
                        (
                            "burn_milli".to_string(),
                            Value::Int(i128::from(alert.burn_milli)),
                        ),
                        (
                            "long_window_ms".to_string(),
                            Value::Int(i128::from(alert.long_window_ms)),
                        ),
                        (
                            "short_window_ms".to_string(),
                            Value::Int(i128::from(alert.short_window_ms)),
                        ),
                        (
                            "since_ms".to_string(),
                            Value::Int(i128::from(alert.since_ms)),
                        ),
                    ])
                })
                .collect(),
        );
        let health = Value::Object(
            self.health
                .iter()
                .map(|(route, state)| (route.clone(), Value::Str(state.as_str().to_string())))
                .collect(),
        );
        Value::Object(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("counters".to_string(), counters),
            ("gauges".to_string(), gauges),
            ("histograms".to_string(), histograms),
            ("events".to_string(), events),
            ("alerts".to_string(), alerts),
            ("health".to_string(), health),
            (
                "dropped_events".to_string(),
                Value::Int(i128::from(self.dropped_events)),
            ),
        ])
        .render()
    }

    /// Parse a snapshot previously produced by [`TelemetrySnapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let root = json::parse(text)?;
        let fail = |message: &str| JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let schema = root
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing schema"))?;
        if schema != SCHEMA {
            return Err(fail(&format!("unsupported schema '{schema}'")));
        }
        let counters = root
            .get("counters")
            .and_then(Value::as_object)
            .ok_or_else(|| fail("missing counters"))?
            .iter()
            .map(|(name, v)| {
                v.as_u64()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| fail(&format!("counter '{name}' is not a u64")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let gauges = root
            .get("gauges")
            .and_then(Value::as_object)
            .ok_or_else(|| fail("missing gauges"))?
            .iter()
            .map(|(name, v)| {
                v.as_i64()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| fail(&format!("gauge '{name}' is not an i64")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let histograms = root
            .get("histograms")
            .and_then(Value::as_object)
            .ok_or_else(|| fail("missing histograms"))?
            .iter()
            .map(|(name, h)| {
                let field = |key: &str| {
                    h.get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| fail(&format!("histogram '{name}' missing u64 '{key}'")))
                };
                let buckets = h
                    .get("buckets")
                    .and_then(Value::as_array)
                    .ok_or_else(|| fail(&format!("histogram '{name}' missing buckets")))?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_array().unwrap_or(&[]);
                        match (
                            pair.first().and_then(Value::as_u64),
                            pair.get(1).and_then(Value::as_u64),
                        ) {
                            (Some(lower), Some(n)) => Ok((lower, n)),
                            _ => Err(fail(&format!("histogram '{name}' has a bad bucket"))),
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((
                    name.clone(),
                    HistogramSnapshot {
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                        buckets,
                    },
                ))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let events = root
            .get("events")
            .and_then(Value::as_array)
            .ok_or_else(|| fail("missing events"))?
            .iter()
            .map(|event| {
                let field = |key: &str| {
                    event
                        .get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| fail(&format!("event missing u64 '{key}'")))
                };
                let level = event
                    .get("level")
                    .and_then(Value::as_str)
                    .and_then(Level::parse)
                    .ok_or_else(|| fail("event missing level"))?;
                let name = event
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| fail("event missing name"))?
                    .to_string();
                let parent = match event.get("parent") {
                    Some(Value::Str(parent)) => Some(parent.clone()),
                    _ => None,
                };
                Ok(EventRecord {
                    seq: field("seq")?,
                    micros: field("us")?,
                    level,
                    name,
                    request: field("request")?,
                    value: field("value")?,
                    parent,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let alerts = root
            .get("alerts")
            .and_then(Value::as_array)
            .ok_or_else(|| fail("missing alerts"))?
            .iter()
            .map(|alert| {
                let field = |key: &str| {
                    alert
                        .get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| fail(&format!("alert missing u64 '{key}'")))
                };
                let text = |key: &str| {
                    alert
                        .get(key)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| fail(&format!("alert missing string '{key}'")))
                };
                let severity = alert
                    .get("severity")
                    .and_then(Value::as_str)
                    .and_then(AlertSeverity::parse)
                    .ok_or_else(|| fail("alert missing severity"))?;
                Ok(Alert {
                    slo: text("slo")?,
                    route: text("route")?,
                    severity,
                    burn_milli: field("burn_milli")?,
                    long_window_ms: field("long_window_ms")?,
                    short_window_ms: field("short_window_ms")?,
                    since_ms: field("since_ms")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let health = root
            .get("health")
            .and_then(Value::as_object)
            .ok_or_else(|| fail("missing health"))?
            .iter()
            .map(|(route, state)| {
                state
                    .as_str()
                    .and_then(HealthState::parse)
                    .map(|state| (route.clone(), state))
                    .ok_or_else(|| fail(&format!("route '{route}' has a bad health state")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let dropped_events = root
            .get("dropped_events")
            .and_then(Value::as_u64)
            .ok_or_else(|| fail("missing dropped_events"))?;
        Ok(TelemetrySnapshot {
            counters,
            gauges,
            histograms,
            events,
            alerts,
            health,
            dropped_events,
        })
    }

    /// Deterministic human-readable rendering: metrics sorted by name, then
    /// the journal in sequence order. Timestamps inside histogram/event
    /// payloads vary run to run, but the *layout* (sections, ordering,
    /// columns) is fixed, so dumps diff cleanly.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# telemetry snapshot ({SCHEMA})");
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\n[counters]");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name} = {value}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\n[gauges]");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "{name} = {value}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\n[histograms]");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name}: count={} mean={:.1} p50={} p95={} p99={} max={}",
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.max,
                );
            }
        }
        if !self.health.is_empty() {
            let _ = writeln!(out, "\n[health]");
            for (route, state) in &self.health {
                let _ = writeln!(out, "{route} = {state}");
            }
        }
        if !self.alerts.is_empty() {
            let _ = writeln!(out, "\n[alerts]");
            for alert in &self.alerts {
                let _ = writeln!(out, "{alert}");
            }
        }
        let _ = writeln!(
            out,
            "\n[journal] {} events ({} dropped)",
            self.events.len(),
            self.dropped_events
        );
        for event in &self.events {
            let parent = event.parent.as_deref().unwrap_or("-");
            let _ = writeln!(
                out,
                "#{:<6} +{:>10}us {:<5} {:<28} parent={:<24} request={:<6} value={}",
                event.seq,
                event.micros,
                event.level.as_str(),
                event.name,
                parent,
                event.request,
                event.value,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut dump = MetricsDump::default();
        dump.counters.push(("gateway.completed".to_string(), 42));
        dump.gauges.push(("arena.in_use_bytes".to_string(), -3));
        let mut snap = HistogramSnapshot {
            count: 3,
            sum: 300,
            min: 50,
            max: 150,
            buckets: vec![(50, 1), (100, 1), (148, 1)],
        };
        snap.buckets.sort_unstable();
        dump.histograms.push(("lat_ns".to_string(), snap));
        let events = vec![EventRecord {
            seq: 0,
            micros: 17,
            level: Level::Info,
            name: "stage.classify".to_string(),
            request: 9,
            value: 1234,
            parent: Some("worker.batch".to_string()),
        }];
        TelemetrySnapshot::new(dump, events, 5).with_status(
            vec![Alert {
                slo: "route.a/latency".to_string(),
                route: "a".to_string(),
                severity: AlertSeverity::Page,
                burn_milli: 14_500,
                long_window_ms: 3_600_000,
                short_window_ms: 300_000,
                since_ms: 120_000,
            }],
            vec![
                ("a".to_string(), HealthState::Unhealthy),
                ("b".to_string(), HealthState::Healthy),
            ],
        )
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let snapshot = sample();
        let json = snapshot.to_json();
        let reparsed = TelemetrySnapshot::from_json(&json).unwrap();
        assert_eq!(reparsed, snapshot);
        // And a second generation is byte-identical.
        assert_eq!(reparsed.to_json(), json);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let json = sample().to_json().replace(SCHEMA, "sesr-telemetry/v0");
        let err = TelemetrySnapshot::from_json(&json).unwrap_err();
        assert!(err.message.contains("unsupported schema"));
        assert!(TelemetrySnapshot::from_json("{}").is_err());
        assert!(TelemetrySnapshot::from_json("not json").is_err());
    }

    #[test]
    fn v1_documents_are_refused() {
        // What PR 6's exporter wrote: the v1 identifier and no status keys.
        let mut snapshot = sample();
        snapshot.alerts.clear();
        snapshot.health.clear();
        let v2 = snapshot.to_json();
        let v1 = v2
            .replace(SCHEMA, "sesr-telemetry/v1")
            .replace("\"alerts\":[],", "")
            .replace("\"health\":{},", "");
        assert!(!v1.contains("alerts"), "fixture must be a true v1 doc");
        let err = TelemetrySnapshot::from_json(&v1).unwrap_err();
        assert!(err.message.contains("unsupported schema"), "{err:?}");
        // The status keys are required even under the current identifier.
        let err = TelemetrySnapshot::from_json(&v2.replace("\"health\":{},", "")).unwrap_err();
        assert!(err.message.contains("missing health"), "{err:?}");
    }

    #[test]
    fn lookups_find_metrics() {
        let snapshot = sample();
        assert_eq!(snapshot.counter("gateway.completed"), Some(42));
        assert_eq!(snapshot.counter("missing"), None);
        assert_eq!(snapshot.gauge("arena.in_use_bytes"), Some(-3));
        assert_eq!(snapshot.histogram("lat_ns").unwrap().count, 3);
    }

    #[test]
    fn text_rendering_is_deterministic_and_sectioned() {
        let snapshot = sample();
        let text = snapshot.render_text();
        assert_eq!(text, snapshot.render_text());
        for needle in [
            "[counters]",
            "[gauges]",
            "[histograms]",
            "[health]",
            "a = unhealthy",
            "[alerts]",
            "[page] route.a/latency burn 14.5x",
            "[journal] 1 events (5 dropped)",
            "gateway.completed = 42",
            "stage.classify",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
