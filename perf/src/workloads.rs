//! The four workloads and the metric tables, the single source both
//! `BENCHMARK.json` and the binary's output are checked against.

use crate::sut::Kind;

/// One traffic mix. Every workload is a closed loop from one driver thread
/// with a fixed in-flight window; `--seed` picks the images only.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers it stresses, which it bypasses.
    pub why: &'static str,
    pub kind: Kind,
    /// Request image `[c, h, w]`.
    pub dims: [usize; 3],
    /// Distinct images the stream draws from; 0 = every image distinct.
    pub hot_set: usize,
    /// Requests in flight at once. Wide enough on the wire workloads to
    /// keep the server saturated: a half-idle pipeline settles into one of
    /// several rhythms (who sleeps, who batches with whom) and the numbers
    /// follow the rhythm, not the code.
    pub window: usize,
    /// Requests answered before the timed phase; a count, not a time, so
    /// set-up does the same work on every run.
    pub warmup: u64,
    /// Fixed open-loop rates (requests/s) of the traced run's ladder.
    pub ladder_rps: [f64; 4],
    /// A ladder step passes when its p90 stays under this.
    pub ladder_p90_limit_ms: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "edge-frame",
        why: "in-process paper pipeline on unique 64x64 frames: imaging, sr/nn/tensor and classifiers do all the work; net and cluster none",
        kind: Kind::Edge,
        dims: [3, 64, 64],
        hot_set: 0,
        window: 1,
        warmup: 8,
        ladder_rps: [8.0, 12.0, 16.0, 20.0],
        ladder_p90_limit_ms: 150.0,
    },
    Workload {
        name: "wire-unique",
        why: "loopback TCP, every 32x32 image unique: the write side of serve (miss, insert, evict, batches of up to 2) plus full-payload codec and hashing",
        kind: Kind::Wire,
        dims: [3, 32, 32],
        hot_set: 0,
        window: 4,
        warmup: 64,
        ladder_rps: [50.0, 100.0, 150.0, 200.0],
        ladder_p90_limit_ms: 60.0,
    },
    Workload {
        name: "wire-hot",
        why: "same server, 64 hot images under cache capacity: every reply a hit, so net codec/hash/reactor and the serve hit path do all the work, SR none",
        kind: Kind::Wire,
        dims: [3, 32, 32],
        hot_set: 64,
        window: 32,
        warmup: 64,
        ladder_rps: [1000.0, 2000.0, 4000.0, 8000.0],
        ladder_p90_limit_ms: 10.0,
    },
    Workload {
        name: "cluster-hot",
        why: "wire-hot traffic through a 2-member cluster front: adds ring lookup, forward hop and a second reactor; affinity must keep the fleet hit ratio at 1",
        kind: Kind::Cluster,
        dims: [3, 32, 32],
        hot_set: 64,
        window: 32,
        warmup: 64,
        ladder_rps: [1000.0, 2000.0, 4000.0, 8000.0],
        ladder_p90_limit_ms: 10.0,
    },
];

impl Workload {
    /// The route the workload's requests name.
    pub fn route(&self) -> sesr_serve::RouteKey {
        match self.kind {
            Kind::Edge => crate::sut::edge_route(),
            Kind::Wire | Kind::Cluster => crate::sut::wire_route(),
        }
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric's name, unit and which direction is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees; reported by the untraced run, the same
/// five on every workload. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("latency_p50_ms", "ms"),
    higher("throughput_ips", "images/s"),
    lower("cpu_ms_per_image", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// Single-layer numbers, `layer.metric`; reported by the traced run. A
/// layer the workload does not touch reports 0.
pub const PER_LAYER: [MetricDef; 58] = [
    lower("tensor.conv_first_us", "us"),
    lower("tensor.conv_body_us", "us"),
    lower("tensor.conv_last_us", "us"),
    lower("tensor.im2col_us", "us"),
    lower("tensor.matmul_us", "us"),
    lower("tensor.depth_to_space_us", "us"),
    higher("tensor.conv_macs_per_us", "MAC/us"),
    higher("tensor.arena_hit_ratio", "ratio"),
    lower("tensor.arena_high_water_kb", "KiB"),
    lower("nn.prelu_us", "us"),
    lower("nn.layer_overhead_us", "us"),
    lower("sr.forward_served_ms", "ms"),
    lower("sr.forward_collapsed_ms", "ms"),
    lower("sr.collapse_ratio", "ratio"),
    lower("sr.kernel_residual_ratio", "ratio"),
    lower("imaging.jpeg_ms", "ms"),
    lower("imaging.wavelet_ms", "ms"),
    lower("classifiers.forward_ms", "ms"),
    lower("core.defend_ms", "ms"),
    lower("core.defend_residual_ratio", "ratio"),
    lower("serve.hit_us", "us"),
    lower("serve.miss_overhead_us", "us"),
    lower("serve.queue_wait_p50_us", "us"),
    lower("serve.batch_dwell_p50_us", "us"),
    higher("serve.batch_size_mean", "images"),
    higher("serve.cache_hit_ratio", "ratio"),
    lower("serve.cache_evictions", "count"),
    lower("serve.shed", "count"),
    lower("serve.expired", "count"),
    lower("net.encode_request_us", "us"),
    lower("net.decode_request_us", "us"),
    lower("net.encode_response_us", "us"),
    lower("net.decode_response_us", "us"),
    lower("net.content_hash_us", "us"),
    lower("net.hop_overhead_us", "us"),
    lower("net.bytes_per_request", "bytes"),
    lower("net.shed", "count"),
    lower("net.decode_errors", "count"),
    lower("cluster.hop_overhead_us", "us"),
    lower("cluster.ring_owner_ns", "ns"),
    lower("cluster.forward_p50_us", "us"),
    lower("cluster.member_share_max", "ratio"),
    higher("cluster.fleet_cache_hit_ratio", "ratio"),
    lower("cluster.shed_member_down", "count"),
    lower("cluster.reconnects", "count"),
    lower("cluster.restarts", "count"),
    lower("store.hydrate_ms", "ms"),
    lower("telemetry.stats_frame_ms", "ms"),
    lower("telemetry.journal_dropped", "count"),
    lower("client.latency_p50_ms", "ms"),
    lower("client.latency_p90_ms", "ms"),
    lower("client.latency_p99_ms", "ms"),
    higher("client.samples", "count"),
    higher("client.ladder_max_rate_rps", "req/s"),
    lower("client.send_lag_p90_ms", "ms"),
    lower("client.ref_kernel_us", "us"),
    lower("client.trace_overhead_ratio", "ratio"),
    lower("client.budget_residual_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_telemetry::json::{parse, Value};
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_use_the_allowed_charset_and_are_unique() {
        let mut seen = HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(def.name), "bad metric name {:?}", def.name);
            assert!(unit_ok(def.unit), "bad unit {:?}", def.unit);
            assert!(matches!(def.better, "lower" | "higher"));
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
        }
        for workload in &WORKLOADS {
            assert!(name_ok(workload.name));
            assert!(seen.insert(workload.name));
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        assert!(!name_ok("bad name") && !name_ok(".x") && !name_ok(""));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn per_layer_names_carry_their_layer() {
        const LAYERS: [&str; 11] = [
            "tensor",
            "nn",
            "sr",
            "imaging",
            "classifiers",
            "core",
            "serve",
            "net",
            "cluster",
            "store",
            "telemetry",
        ];
        for def in &PER_LAYER {
            let layer = def.name.split('.').next().unwrap();
            assert!(
                LAYERS.contains(&layer) || layer == "client",
                "{} names no layer",
                def.name
            );
        }
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry.get(key).and_then(Value::as_str).unwrap_or_default()
    }

    /// Every name in `BENCHMARK.json` is emitted by the binary and the other
    /// way round, with the same unit and direction.
    #[test]
    fn benchmark_json_and_the_binary_agree() {
        let manifest = manifest();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = manifest.get(key).and_then(Value::as_array).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(field(entry, "name"), def.name);
                assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(entry, "better"), def.better, "{}", def.name);
            }
        }
        let listed = manifest.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, workload) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), workload.name);
            assert_eq!(field(entry, "why"), workload.why);
        }
    }

    /// The acceptance contract's own limits: a bound is at most a quarter,
    /// `setup_s` is there and no bound is larger than its, and all the runs
    /// the acceptance check makes fit the time it allows.
    #[test]
    fn bounds_and_run_length_are_within_the_contract() {
        let manifest = manifest();
        let listed = manifest
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap();
        let bound = |entry: &Value| entry.get("bound").and_then(Value::as_f64).unwrap();
        let setup = listed
            .iter()
            .find(|e| field(e, "name") == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!(
            (field(setup, "unit"), field(setup, "better")),
            ("s", "lower")
        );
        for entry in listed {
            let name = field(entry, "name");
            assert!(bound(entry) > 0.0 && bound(entry) <= 0.25, "{name}");
            assert!(
                bound(entry) <= bound(setup),
                "{name} is bounded wider than setup_s"
            );
        }
        let seconds = manifest.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
        // 4 + 22 per workload runs, each the timed phase plus up to 4 s of
        // oracle, set-ups and teardown, and two builds of a minute at most.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(
            runs * (seconds + 4) + 2 * 60 <= 3420,
            "{runs} runs of {seconds} s"
        );
    }
}
