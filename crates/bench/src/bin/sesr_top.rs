//! A terminal dashboard over a gateway telemetry snapshot file.
//!
//! ```text
//! sesr-top <snapshot.json> [flags]
//!
//!   --once             render one frame and exit (exit 1 if unreadable)
//!   --check            CI gate: read once, print health + alerts, exit 3
//!                      if any alert is firing (1 if unreadable)
//!   --interval-ms N    poll interval between frames (default 1000)
//!   --ticks N          render N frames, then exit
//!   --route SUBSTR     only show routes whose label contains SUBSTR
//! ```
//!
//! The snapshot file is whatever a running process exports — a gateway's
//! [`TelemetryExporter`](sesr_serve::TelemetryExporter), the
//! `serve_throughput` example, or `tables --telemetry PATH`. Each frame
//! re-reads and re-parses the file, so the dashboard follows a live exporter
//! without holding any connection to the process that writes it. In live
//! mode successive frames are kept in a [`WindowedStore`], from which
//! per-route throughput sparklines are diffed; the snapshot's ALERTS and
//! HEALTH panes render the SLO engine's verdicts.
//!
//! Per-route stage latencies are recovered purely from the metric naming
//! scheme (`route.<label>.stage.<stage>_ns`), so the dashboard needs no
//! coordination with the serving process beyond the JSON schema.
//!
//! Every flag may be given at most once; duplicate, conflicting or unknown
//! flags are a usage error (exit 2) rather than a silent last-one-wins.

#![forbid(unsafe_code)]

use sesr_bench::cli::Cli;
use sesr_telemetry::{HealthState, HistogramSnapshot, TelemetrySnapshot, WindowedStore};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: sesr-top <snapshot.json> [--once | --check | --ticks N] \
     [--interval-ms N] [--route SUBSTR]";

struct Args {
    path: String,
    interval: Duration,
    ticks: Option<u64>,
    route: Option<String>,
    check: bool,
}

fn parse_args() -> Args {
    let mut path = None;
    let mut interval = Duration::from_millis(1000);
    let mut ticks = None;
    let mut route = None;
    let mut check = false;
    let mut cli = Cli::from_env(USAGE);
    while let Some(arg) = cli.next_arg() {
        // One mode flag: --once, --check and --ticks all decide how many
        // frames run, so any pair of them conflicts.
        if matches!(arg.as_str(), "--once" | "--check" | "--ticks") && (ticks.is_some() || check) {
            cli.fail(&format!(
                "{arg} conflicts with an earlier --once/--check/--ticks"
            ));
        }
        match arg.as_str() {
            "--once" => ticks = Some(1),
            "--check" => check = true,
            "--ticks" => ticks = Some(cli.positive(&arg)),
            "--interval-ms" => interval = Duration::from_millis(cli.parsed(&arg, "an integer")),
            "--route" => route = Some(cli.value(&arg)),
            flag if flag.starts_with("--") => cli.unknown(flag),
            _ if path.is_none() => path = Some(arg),
            _ => cli.fail(&format!("unexpected argument {arg}")),
        }
    }
    let Some(path) = path else {
        cli.fail("missing <snapshot.json>")
    };
    Args {
        path,
        interval,
        ticks,
        route,
        check,
    }
}

/// Render a nanosecond quantity at a human scale.
fn nanos(value: u64) -> String {
    if value >= 1_000_000_000 {
        format!("{:.2}s", value as f64 / 1e9)
    } else if value >= 1_000_000 {
        format!("{:.2}ms", value as f64 / 1e6)
    } else if value >= 1_000 {
        format!("{:.1}us", value as f64 / 1e3)
    } else {
        format!("{value}ns")
    }
}

/// Split `route.<label>.stage.<stage>_ns` into `(label, stage)`.
fn stage_key(name: &str) -> Option<(&str, &str)> {
    let rest = name.strip_prefix("route.")?;
    let (label, stage) = rest.split_once(".stage.")?;
    Some((label, stage.strip_suffix("_ns").unwrap_or(stage)))
}

/// The route label of a `route.<label>.<metric>` name, if it has one.
fn route_label_of(name: &str) -> Option<&str> {
    name.strip_prefix("route.")?.split('.').next()
}

/// True when `name` survives the `--route` filter: non-route metrics always
/// do; route-scoped ones only when their label contains the substring.
fn route_matches(name: &str, filter: Option<&str>) -> bool {
    match (route_label_of(name), filter) {
        (Some(label), Some(substr)) => label.contains(substr),
        _ => true,
    }
}

fn stage_row(out: &mut String, name: &str, hist: &HistogramSnapshot) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "  {name:<24} {count:>8} {p50:>10} {p95:>10} {p99:>10} {max:>10}",
        count = hist.count,
        p50 = nanos(hist.quantile(0.50)),
        p95 = nanos(hist.quantile(0.95)),
        p99 = nanos(hist.quantile(0.99)),
        max = nanos(hist.max),
    );
}

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Per-interval deltas of a cumulative counter series, as a sparkline
/// scaled to the series' own maximum.
fn sparkline(series: &[(u64, u64)], width: usize) -> String {
    let deltas: Vec<u64> = series
        .windows(2)
        .map(|pair| pair[1].1.saturating_sub(pair[0].1))
        .collect();
    let tail = &deltas[deltas.len().saturating_sub(width)..];
    let max = tail.iter().copied().max().unwrap_or(0);
    tail.iter()
        .map(|&delta| {
            if max == 0 {
                SPARK[0]
            } else {
                SPARK[(delta as usize * (SPARK.len() - 1))
                    .div_ceil(max as usize)
                    .min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// The HEALTH and ALERTS panes (shared by live and `--check` rendering).
fn render_status(snapshot: &TelemetrySnapshot, filter: Option<&str>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let health: Vec<_> = snapshot
        .health
        .iter()
        .filter(|(route, _)| filter.is_none_or(|substr| route.contains(substr)))
        .collect();
    if !health.is_empty() {
        let _ = writeln!(out, "health");
        for (route, state) in health {
            let marker = match state {
                HealthState::Healthy => "+",
                HealthState::Degraded => "~",
                HealthState::Unhealthy => "!",
            };
            let _ = writeln!(out, "  [{marker}] {route:<40} {state}");
        }
    }
    let alerts: Vec<_> = snapshot
        .alerts
        .iter()
        .filter(|alert| filter.is_none_or(|substr| alert.route.contains(substr)))
        .collect();
    if !alerts.is_empty() {
        let _ = writeln!(out, "ALERTS ({} firing)", alerts.len());
        for alert in alerts {
            let _ = writeln!(out, "  {alert}");
        }
    }
    out
}

/// A `cluster.member.<id>.forward_ns` histogram name → member id.
fn member_row_of(name: &str) -> Option<&str> {
    name.strip_prefix("cluster.member.")?
        .strip_suffix(".forward_ns")
}

/// The CLUSTER pane: membership, routing counters and a per-member
/// forwarding-latency table. Empty (no pane) unless the snapshot came from
/// a cluster front — a plain gateway has no `cluster.*` namespace.
fn render_cluster(snapshot: &TelemetrySnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let members_up = snapshot
        .gauges
        .iter()
        .find(|(name, _)| name == "cluster.members_up")
        .map(|(_, value)| *value);
    let rows: Vec<(&str, &HistogramSnapshot)> = snapshot
        .histograms
        .iter()
        .filter_map(|(name, hist)| Some((member_row_of(name)?, hist)))
        .collect();
    if members_up.is_none() && rows.is_empty() {
        return out;
    }
    let _ = writeln!(out, "cluster");
    if let Some(up) = members_up {
        let _ = writeln!(out, "  members up: {up}");
    }
    for counter in [
        "cluster.forwarded",
        "cluster.shed.member_down",
        "cluster.member_lost",
        "cluster.reconnects",
        "cluster.supervisor.restarts",
        "cluster.reload.promotions",
        "cluster.reload.rollbacks",
        "cluster.reload.refused",
    ] {
        if let Some(value) = snapshot.counter(counter) {
            let _ = writeln!(out, "  {counter:<40} {value:>12}");
        }
    }
    if !rows.is_empty() {
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "member forward", "count", "p50", "p95", "p99", "max"
        );
        for (member, hist) in rows {
            stage_row(&mut out, member, hist);
        }
    }
    out
}

fn render(snapshot: &TelemetrySnapshot, history: &WindowedStore, filter: Option<&str>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();

    out.push_str(&render_status(snapshot, filter));
    out.push_str(&render_cluster(snapshot));

    // Throughput sparklines: one per route, diffed from the retained frame
    // history (needs at least two frames, so they appear from tick 2 on).
    if history.len() >= 2 {
        let routes: Vec<&str> = snapshot
            .counters
            .iter()
            .filter_map(|(name, _)| {
                let label = route_label_of(name)?;
                name.ends_with(".completed").then_some(label)
            })
            .filter(|label| filter.is_none_or(|substr| label.contains(substr)))
            .collect();
        if !routes.is_empty() {
            let _ = writeln!(out, "throughput (completed/interval)");
            for label in routes {
                let series = history.counter_series(&format!("route.{label}.completed"));
                let _ = writeln!(out, "  {label:<40} {}", sparkline(&series, 30));
            }
        }
    }

    let counters: Vec<_> = snapshot
        .counters
        .iter()
        .filter(|(name, _)| route_matches(name, filter))
        .collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "counters");
        for (name, value) in counters {
            let _ = writeln!(out, "  {name:<40} {value:>12}");
        }
    }
    let gauges: Vec<_> = snapshot
        .gauges
        .iter()
        .filter(|(name, _)| route_matches(name, filter))
        .collect();
    if !gauges.is_empty() {
        let _ = writeln!(out, "gauges");
        for (name, value) in gauges {
            let _ = writeln!(out, "  {name:<40} {value:>12}");
        }
    }

    // Per-route stage tables, recovered from the naming scheme. Histograms
    // arrive sorted by name, so each route's stages are already contiguous.
    let mut current_route: Option<&str> = None;
    let mut other = Vec::new();
    for (name, hist) in &snapshot.histograms {
        if !route_matches(name, filter) {
            continue;
        }
        // Member forwarding rows already have their own table in the
        // CLUSTER pane.
        if member_row_of(name).is_some() {
            continue;
        }
        match stage_key(name) {
            Some((label, stage)) => {
                if current_route != Some(label) {
                    current_route = Some(label);
                    let _ = writeln!(out, "route {label}");
                    let _ = writeln!(
                        out,
                        "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
                        "stage", "count", "p50", "p95", "p99", "max"
                    );
                }
                stage_row(&mut out, stage, hist);
            }
            None => other.push((name, hist)),
        }
    }
    if !other.is_empty() {
        let _ = writeln!(out, "histograms");
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "name", "count", "p50", "p95", "p99", "max"
        );
        for (name, hist) in other {
            stage_row(&mut out, name, hist);
        }
    }

    let recent = snapshot.events.iter().rev().take(10).collect::<Vec<_>>();
    if !recent.is_empty() {
        let _ = writeln!(
            out,
            "events (last {}, {} dropped)",
            recent.len(),
            snapshot.dropped_events
        );
        for event in recent.into_iter().rev() {
            let _ = writeln!(
                out,
                "  #{:<6} +{:<10} {:<5} {:<28} req={:<6} {}",
                event.seq,
                format!("{}us", event.micros),
                event.level.as_str(),
                event.name,
                event.request,
                nanos(event.value),
            );
        }
    }
    out
}

fn read_frame(path: &str) -> Result<TelemetrySnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    TelemetrySnapshot::from_json(&text).map_err(|err| format!("cannot parse {path}: {err}"))
}

/// `--check`: the CI gate. Prints the status panes and exits 3 when any
/// alert is firing, 1 when the snapshot cannot be read, 0 otherwise.
fn run_check(args: &Args) -> ! {
    let snapshot = match read_frame(&args.path) {
        Ok(snapshot) => snapshot,
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(1);
        }
    };
    let filter = args.route.as_deref();
    let status = render_status(&snapshot, filter);
    if status.is_empty() {
        println!("{}: no health or alert data (no SLO runtime)", args.path);
    } else {
        print!("{status}");
    }
    let firing = snapshot
        .alerts
        .iter()
        .filter(|alert| filter.is_none_or(|substr| alert.route.contains(substr)))
        .count();
    if firing > 0 {
        eprintln!("{}: {firing} alert(s) firing", args.path);
        std::process::exit(3);
    }
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if args.check {
        run_check(&args);
    }
    let epoch = Instant::now();
    let mut history = WindowedStore::new(64);
    let mut tick = 0u64;
    loop {
        match read_frame(&args.path) {
            Ok(snapshot) => {
                let at_ms = u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
                history.push(at_ms, snapshot.clone());
                println!("== {} ==", args.path);
                print!("{}", render(&snapshot, &history, args.route.as_deref()));
            }
            Err(err) if args.ticks == Some(1) => {
                eprintln!("{err}");
                std::process::exit(1);
            }
            // A live exporter may not have produced its first write yet (or
            // we raced the atomic rename on a filesystem without one); keep
            // polling rather than dying mid-session.
            Err(err) => println!("waiting: {err}"),
        }
        tick += 1;
        if args.ticks.is_some_and(|limit| tick >= limit) {
            return;
        }
        std::thread::sleep(args.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_telemetry::{Alert, AlertSeverity};

    #[test]
    fn sparkline_scales_deltas_to_the_glyph_range() {
        // Cumulative 0, 4, 8, 16 → deltas 4, 4, 8; max 8 → half, half, full
        // (half of the 0..=7 glyph range rounds up to index 4).
        let series = vec![(0, 0), (100, 4), (200, 8), (300, 16)];
        assert_eq!(sparkline(&series, 30), "▅▅█");
        // Flat series renders the floor glyph rather than dividing by zero.
        assert_eq!(sparkline(&[(0, 5), (100, 5)], 30), "▁");
        // The width cap keeps only the most recent deltas.
        assert_eq!(sparkline(&series, 2).chars().count(), 2);
    }

    #[test]
    fn route_filter_keeps_global_metrics_and_matching_routes() {
        assert!(route_matches("gateway.completed", Some("m2")));
        assert!(route_matches("route.sesr-m2:x2:raw.completed", Some("m2")));
        assert!(!route_matches("route.bicubic:x2:raw.completed", Some("m2")));
        assert!(route_matches("route.bicubic:x2:raw.completed", None));
        assert_eq!(
            stage_key("route.sesr-m2:x2:raw.stage.infer_ns"),
            Some(("sesr-m2:x2:raw", "infer"))
        );
    }

    #[test]
    fn cluster_pane_appears_only_for_cluster_snapshots() {
        let plain = TelemetrySnapshot::new(Default::default(), vec![], 0);
        assert!(render_cluster(&plain).is_empty());

        let mut snapshot = TelemetrySnapshot::new(Default::default(), vec![], 0);
        snapshot.gauges.push(("cluster.members_up".to_string(), 3));
        snapshot
            .counters
            .push(("cluster.forwarded".to_string(), 42));
        snapshot.histograms.push((
            "cluster.member.0.forward_ns".to_string(),
            HistogramSnapshot {
                count: 10,
                sum: 10_000,
                min: 500,
                max: 2_000,
                buckets: vec![(500, 10)],
            },
        ));
        let pane = render_cluster(&snapshot);
        assert!(pane.contains("members up: 3"));
        assert!(pane.contains("cluster.forwarded"));
        assert!(pane.contains("42"));
        // The member row renders under its id, and the generic histogram
        // pane in render() skips it (it has its own table here).
        assert!(pane.contains("  0 "));
        assert_eq!(member_row_of("cluster.member.0.forward_ns"), Some("0"));
        assert_eq!(member_row_of("cluster.member.0.restarts"), None);
        assert_eq!(member_row_of("route.a.stage.infer_ns"), None);
    }

    #[test]
    fn status_panes_render_health_and_alerts_under_the_filter() {
        let alert = Alert {
            slo: "route.sesr-m2:x2:raw/latency".to_string(),
            route: "sesr-m2:x2:raw".to_string(),
            severity: AlertSeverity::Page,
            burn_milli: 14_500,
            long_window_ms: 3_600_000,
            short_window_ms: 300_000,
            since_ms: 1_000,
        };
        let snapshot = TelemetrySnapshot::new(Default::default(), vec![], 0).with_status(
            vec![alert],
            vec![
                ("sesr-m2:x2:raw".to_string(), HealthState::Unhealthy),
                ("bicubic:x2:raw".to_string(), HealthState::Healthy),
            ],
        );
        let all = render_status(&snapshot, None);
        assert!(all.contains("ALERTS (1 firing)"));
        assert!(all.contains("[!] sesr-m2:x2:raw"));
        assert!(all.contains("[+] bicubic:x2:raw"));
        let filtered = render_status(&snapshot, Some("bicubic"));
        assert!(filtered.contains("bicubic"));
        assert!(!filtered.contains("ALERTS"));
        assert!(!filtered.contains("sesr-m2"));
    }
}
