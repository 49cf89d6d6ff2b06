//! `traffic-gen` — open-loop load generator for the network front-end.
//!
//! ```text
//! traffic-gen --addr HOST:PORT [flags]
//!
//!   --rates R1,R2,...     offered load steps in requests/sec
//!                         (default 100,300,800)
//!   --step-ms N           duration of each rate step (default 1000)
//!   --connections N       client connections, each its own thread
//!                         (default 2)
//!   --unique-images N     distinct images in the content pool (default 64)
//!   --zipf-s S            zipf skew for content popularity (default 1.1)
//!   --deadline-ms N       per-request soft deadline; 0 = none (default 250)
//!   --seed N              RNG seed (default 42)
//!   --out PATH            where to write the latency-under-load report
//!                         (default BENCH_net_frontend.json)
//!   --cluster             the target is a `sesr-clusterd` front: after the
//!                         run, require the `cluster.*` namespace, print a
//!                         per-member + fleet forwarding-latency table and
//!                         fold it into the report
//! ```
//!
//! Arrivals are **open-loop Poisson**: each connection draws exponential
//! interarrival gaps for its share of the offered rate and sends on
//! schedule whether or not earlier replies have come back — offered load is
//! independent of server latency, which is what makes the measured
//! latency-under-load curve honest. Content popularity is zipf over a small
//! image pool (so the server's LRU output cache sees a realistic hot set)
//! and route popularity is zipf over the three routes `sesr-netd` serves.
//!
//! Every send is accounted for: a request must come back as OK, a
//! structured retry-after, deadline-exceeded, or a typed error. A reply
//! that never arrives, or a connection the server drops, fails the run —
//! this is the "zero dropped connections" gate CI runs on loopback. At the
//! end the generator fetches the server's telemetry snapshot over the wire
//! (a Stats frame) and checks the `net.*` namespace is populated before
//! folding a few of its counters into the report.
//!
//! Throughput-scaling assertions (higher offered load ⇒ more completed
//! work) are only made when `available_parallelism() > 1`: on a single-core
//! runner the client threads and the server share one core and the claim is
//! not meaningful.

#![forbid(unsafe_code)]

use rand::{rngs::StdRng, Rng, SeedableRng};
use sesr_bench::cli::Cli;
use sesr_bench::demo_routes;
use sesr_net::{Frame, NetClient, NetError, RequestOptions, ResponseBody, RetryReason};
use sesr_telemetry::TelemetrySnapshot;
use sesr_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: traffic-gen --addr HOST:PORT [--rates R1,R2,...] [--step-ms N] \
     [--connections N] [--unique-images N] [--zipf-s S] [--deadline-ms N] \
     [--seed N] [--out PATH] [--cluster]";

struct Args {
    addr: String,
    rates: Vec<f64>,
    step: Duration,
    connections: usize,
    unique_images: usize,
    zipf_s: f64,
    deadline_ms: u32,
    seed: u64,
    out: String,
    cluster: bool,
}

fn parse_args() -> Args {
    let mut addr = None;
    let mut args = Args {
        addr: String::new(),
        rates: vec![100.0, 300.0, 800.0],
        step: Duration::from_millis(1000),
        connections: 2,
        unique_images: 64,
        zipf_s: 1.1,
        deadline_ms: 250,
        seed: 42,
        out: "BENCH_net_frontend.json".to_string(),
        cluster: false,
    };
    let mut cli = Cli::from_env(USAGE);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--addr" => addr = Some(cli.value(&arg)),
            "--rates" => {
                args.rates = cli
                    .value(&arg)
                    .split(',')
                    .map(|r| match r.trim().parse::<f64>() {
                        Ok(rate) if rate > 0.0 => rate,
                        _ => cli.fail("--rates needs positive numbers"),
                    })
                    .collect();
            }
            "--step-ms" => args.step = Duration::from_millis(cli.positive(&arg)),
            "--connections" => args.connections = cli.positive(&arg),
            "--unique-images" => args.unique_images = cli.positive(&arg),
            "--zipf-s" => match cli.parsed::<f64>(&arg, "a number") {
                s if s >= 0.0 => args.zipf_s = s,
                _ => cli.fail("--zipf-s needs a non-negative number"),
            },
            "--deadline-ms" => args.deadline_ms = cli.parsed(&arg, "an integer"),
            "--seed" => args.seed = cli.parsed(&arg, "an integer"),
            "--out" => args.out = cli.value(&arg),
            "--cluster" => args.cluster = true,
            _ => cli.unknown(&arg),
        }
    }
    match addr {
        Some(addr) => Args { addr, ..args },
        None => cli.fail("--addr is required"),
    }
}

/// Zipf sampler over ranks `0..n`: weight of rank k is `1/(k+1)^s`,
/// sampled by binary search over the precomputed CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[derive(Default, Clone)]
struct StepStats {
    sent: u64,
    ok: u64,
    cache_hits: u64,
    shed_rate_limit: u64,
    shed_overload: u64,
    shed_unhealthy: u64,
    deadline_exceeded: u64,
    typed_errors: u64,
    undelivered: u64,
    latencies_ns: Vec<u64>,
}

impl StepStats {
    fn merge(&mut self, other: StepStats) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.cache_hits += other.cache_hits;
        self.shed_rate_limit += other.shed_rate_limit;
        self.shed_overload += other.shed_overload;
        self.shed_unhealthy += other.shed_unhealthy;
        self.deadline_exceeded += other.deadline_exceeded;
        self.typed_errors += other.typed_errors;
        self.undelivered += other.undelivered;
        self.latencies_ns.extend(other.latencies_ns);
    }

    fn replies(&self) -> u64 {
        self.ok
            + self.shed_rate_limit
            + self.shed_overload
            + self.shed_unhealthy
            + self.deadline_exceeded
            + self.typed_errors
    }
}

fn record(stats: &mut StepStats, outstanding: &mut HashMap<u64, Instant>, frame: Frame) {
    let Frame::Response(response) = frame else {
        return; // stats replies are handled separately at the end
    };
    if let Some(sent_at) = outstanding.remove(&response.id) {
        stats
            .latencies_ns
            .push(u64::try_from(sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    match response.body {
        ResponseBody::Ok { cache_hit, .. } => {
            stats.ok += 1;
            stats.cache_hits += u64::from(cache_hit);
        }
        ResponseBody::RetryAfter { reason, .. } => match reason {
            RetryReason::RateLimited => stats.shed_rate_limit += 1,
            RetryReason::Overloaded => stats.shed_overload += 1,
            RetryReason::Unhealthy => stats.shed_unhealthy += 1,
        },
        ResponseBody::DeadlineExceeded => stats.deadline_exceeded += 1,
        ResponseBody::UnknownRoute(_)
        | ResponseBody::InvalidRequest(_)
        | ResponseBody::PipelineError(_)
        | ResponseBody::Closed => stats.typed_errors += 1,
    }
}

/// One connection's share of one rate step: open-loop sends on a Poisson
/// schedule, replies drained in the gaps, everything drained at the end.
#[allow(clippy::too_many_arguments)]
fn run_step(
    client: &mut NetClient,
    images: &[Tensor],
    content: &Zipf,
    route: &Zipf,
    rate: f64,
    step: Duration,
    deadline_ms: u32,
    rng: &mut StdRng,
) -> Result<StepStats, String> {
    let mut stats = StepStats::default();
    let mut outstanding: HashMap<u64, Instant> = HashMap::new();
    let start = Instant::now();
    let end = start + step;
    // First arrival is a full exponential gap in, like every later one.
    let mut next_send = start + exp_gap(rng, rate);
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        if now >= next_send {
            let options = RequestOptions {
                // The default route goes by the empty label, the others by name.
                route: match route.sample(rng) {
                    0 => String::new(),
                    rank => demo_routes()[rank].label(),
                },
                deadline_ms,
                skip_cache: false,
            };
            let request = client.make_request(images[content.sample(rng)].clone(), &options);
            client
                .send_request(&request)
                .map_err(|err| format!("send failed mid-step: {err}"))?;
            outstanding.insert(request.id, Instant::now());
            stats.sent += 1;
            next_send += exp_gap(rng, rate);
            continue;
        }
        // Ahead of schedule: spend the gap draining replies.
        let gap = next_send.min(end).saturating_duration_since(now);
        match client.recv(gap.max(Duration::from_micros(50))) {
            Ok(frame) => record(&mut stats, &mut outstanding, frame),
            Err(NetError::TimedOut) => {}
            Err(err) => return Err(format!("receive failed mid-step: {err}")),
        }
    }
    // Drain: every outstanding request must be answered one way or another.
    while !outstanding.is_empty() {
        match client.recv(Duration::from_secs(5)) {
            Ok(frame) => record(&mut stats, &mut outstanding, frame),
            Err(NetError::TimedOut) => {
                stats.undelivered += outstanding.len() as u64;
                outstanding.clear();
            }
            Err(err) => return Err(format!("receive failed in drain: {err}")),
        }
    }
    Ok(stats)
}

fn exp_gap(rng: &mut StdRng, rate: f64) -> Duration {
    let u: f64 = rng.gen();
    Duration::from_secs_f64(-(1.0 - u).ln() / rate)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let at = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[at.min(sorted.len() - 1)]
}

fn main() {
    let args = parse_args();
    if let Err(err) = run(&args) {
        eprintln!("traffic-gen: {err}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "traffic-gen: {} connections -> {} ({} cores)",
        args.connections, args.addr, cores
    );

    // Shared content pool: small [1, 3, 8, 8] images so the front-end, not
    // the SR math, dominates what the curve measures.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let images: Vec<Tensor> = (0..args.unique_images)
        .map(|_| {
            let data: Vec<f32> = (0..3 * 8 * 8).map(|_| rng.gen::<f32>()).collect();
            Tensor::from_vec(Shape::new(&[1, 3, 8, 8]), data).expect("static shape")
        })
        .collect();
    let content = Zipf::new(args.unique_images, args.zipf_s);
    let route = Zipf::new(demo_routes().len(), 1.2);

    let mut clients: Vec<NetClient> = Vec::new();
    for _ in 0..args.connections {
        clients.push(
            NetClient::connect(&args.addr)
                .map_err(|err| format!("cannot connect to {}: {err}", args.addr))?,
        );
    }

    let mut steps: Vec<(f64, StepStats, f64)> = Vec::new();
    for (step_idx, &rate) in args.rates.iter().enumerate() {
        let per_conn = rate / args.connections as f64;
        let started = Instant::now();
        let results: Vec<Result<StepStats, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(conn_idx, client)| {
                    let images = &images;
                    let content = &content;
                    let route = &route;
                    let mut rng = StdRng::seed_from_u64(
                        args.seed
                            ^ (step_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (conn_idx as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9),
                    );
                    scope.spawn(move || {
                        run_step(
                            client,
                            images,
                            content,
                            route,
                            per_conn,
                            args.step,
                            args.deadline_ms,
                            &mut rng,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|_| Err("worker panicked".into()))
                })
                .collect()
        });
        let elapsed = started.elapsed().as_secs_f64();
        let mut merged = StepStats::default();
        for result in results {
            merged.merge(result?);
        }
        merged.latencies_ns.sort_unstable();
        let achieved = merged.ok as f64 / elapsed;
        println!(
            "  rate {rate:>7.0}/s: sent {:>6}  ok {:>6} ({} cached)  shed {:>4} rate / {:>4} load  \
             deadline {:>4}  p50 {:.2}ms p99 {:.2}ms",
            merged.sent,
            merged.ok,
            merged.cache_hits,
            merged.shed_rate_limit,
            merged.shed_overload + merged.shed_unhealthy,
            merged.deadline_exceeded,
            quantile(&merged.latencies_ns, 0.50) as f64 / 1e6,
            quantile(&merged.latencies_ns, 0.99) as f64 / 1e6,
        );
        steps.push((rate, merged, achieved));
    }

    // The zero-drop gate: every request sent was answered with *something*
    // — a result, a structured shed, or a typed error. Unconditional.
    let mut dropped = 0u64;
    for (rate, stats, _) in &steps {
        if stats.undelivered > 0 || stats.replies() != stats.sent {
            eprintln!(
                "rate {rate}/s: {} sent but {} answered ({} undelivered)",
                stats.sent,
                stats.replies(),
                stats.undelivered
            );
            dropped += stats.undelivered + stats.sent.saturating_sub(stats.replies());
        }
    }
    if dropped > 0 {
        return Err(format!("{dropped} requests were never answered"));
    }
    println!("  zero-drop gate: every request was answered");

    // Load-scaling claim, only meaningful with real parallelism: with the
    // client threads and the server sharing one core, higher offered load
    // can legitimately complete *less*.
    if cores > 1 && steps.len() >= 2 {
        let (first_rate, _, first_achieved) = &steps[0];
        let best = steps
            .iter()
            .map(|(_, _, achieved)| *achieved)
            .fold(f64::MIN, f64::max);
        if best <= *first_achieved * 0.5 {
            return Err(format!(
                "completed throughput never rose above the lowest step \
                 ({first_achieved:.0}/s at {first_rate}/s offered)"
            ));
        }
    } else {
        println!("  single core: skipping the load-scaling assertion");
    }

    // Fetch the server's telemetry over the wire and require the `net.*`
    // namespace to be populated — the loopback run's metrics-visibility gate.
    let snapshot_json = clients[0]
        .stats(Duration::from_secs(5))
        .map_err(|err| format!("stats fetch failed: {err}"))?;
    let snapshot = TelemetrySnapshot::from_json(&snapshot_json)
        .map_err(|err| format!("stats reply did not parse: {err}"))?;
    let net_counters: Vec<(String, u64)> = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("net."))
        .map(|(name, value)| (name.clone(), *value))
        .collect();
    if net_counters.is_empty() {
        return Err("server snapshot has no net.* metrics".to_string());
    }
    let admitted = snapshot.counter("net.admitted").unwrap_or(0);
    if admitted == 0 {
        return Err("server snapshot shows zero admitted requests".to_string());
    }
    println!(
        "  telemetry: {} net.* counters, net.admitted={admitted}",
        net_counters.len()
    );

    // In cluster mode the snapshot must also expose the federation: the
    // routing counters and one forwarding-latency histogram per member.
    let fleet = if args.cluster {
        Some(cluster_table(&snapshot)?)
    } else {
        None
    };

    write_report(args, &steps, &net_counters, fleet.as_ref())?;
    println!("  report: {}", args.out);
    Ok(())
}

/// Ceiling on the supervisor's per-member health probe (stats fetch +
/// parse) at the median, checked by the `--cluster` gate. On a 2-vCPU box
/// the loopback smoke reads 2–3.5 ms; a parse that rescans the rest of the
/// document per character reads 10–31 ms there, and ~160 ms per probe at
/// `perf`'s traffic rates.
const PROBE_P50_MAX_MS: f64 = 10.0;

/// One member's forwarding-latency row in the cluster table.
struct MemberRow {
    member: String,
    hist: sesr_telemetry::HistogramSnapshot,
}

/// The extracted cluster section: `cluster.*` routing counters plus the
/// per-member (and fleet) latency rows.
type ClusterSection = (Vec<(String, u64)>, Vec<MemberRow>);

/// The cluster section: routing counters plus per-member and fleet
/// latency rows, extracted from the front's snapshot (and printed).
fn cluster_table(snapshot: &TelemetrySnapshot) -> Result<ClusterSection, String> {
    let counters: Vec<(String, u64)> = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("cluster.") && !name.starts_with("cluster.fleet."))
        .map(|(name, value)| (name.clone(), *value))
        .collect();
    let forwarded = snapshot.counter("cluster.forwarded").unwrap_or(0);
    if forwarded == 0 {
        return Err("--cluster: the front forwarded nothing (cluster.forwarded=0)".to_string());
    }
    let members_up = snapshot
        .gauges
        .iter()
        .find(|(name, _)| name == "cluster.members_up")
        .map_or(0, |(_, value)| *value);
    if members_up <= 0 {
        return Err("--cluster: no members up (cluster.members_up=0)".to_string());
    }
    // The supervisor's health probe runs on the loop that reaps and
    // restarts members; one that takes tens of ms per member eats the
    // front's CPU and slows recovery.
    let probe = snapshot
        .histogram("cluster.supervisor.probe_ns")
        .filter(|hist| hist.count > 0)
        .ok_or("--cluster: no cluster.supervisor.probe_ns samples")?;
    let probe_p50_ms = probe.quantile(0.50) as f64 / 1e6;
    if probe_p50_ms > PROBE_P50_MAX_MS {
        return Err(format!(
            "--cluster: health probe p50 {probe_p50_ms:.1} ms exceeds {PROBE_P50_MAX_MS} ms"
        ));
    }
    let mut rows: Vec<MemberRow> = snapshot
        .histograms
        .iter()
        .filter_map(|(name, hist)| {
            let id = name
                .strip_prefix("cluster.member.")?
                .strip_suffix(".forward_ns")?;
            Some(MemberRow {
                member: id.to_string(),
                hist: hist.clone(),
            })
        })
        .collect();
    if rows.is_empty() {
        return Err("--cluster: no cluster.member.<id>.forward_ns histograms".to_string());
    }
    // The fleet row is the exact bucket union of the member rows.
    let mut fleet = sesr_telemetry::HistogramSnapshot::default();
    for row in &rows {
        fleet.merge(&row.hist);
    }
    rows.push(MemberRow {
        member: "fleet".to_string(),
        hist: fleet,
    });
    println!(
        "  cluster: {members_up} members up, {forwarded} forwarded, probe p50 {probe_p50_ms:.2} ms"
    );
    println!(
        "    {:<8} {:>8} {:>12} {:>12} {:>12}",
        "member", "count", "p50_ms", "p99_ms", "max_ms"
    );
    for row in &rows {
        println!(
            "    {:<8} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            row.member,
            row.hist.count,
            row.hist.quantile(0.50) as f64 / 1e6,
            row.hist.quantile(0.99) as f64 / 1e6,
            row.hist.max as f64 / 1e6,
        );
    }
    Ok((counters, rows))
}

fn write_report(
    args: &Args,
    steps: &[(f64, StepStats, f64)],
    net_counters: &[(String, u64)],
    fleet: Option<&ClusterSection>,
) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    if fleet.is_some() {
        let _ = writeln!(json, "  \"schema\": \"sesr-cluster/v1\",");
    } else {
        let _ = writeln!(json, "  \"schema\": \"sesr-net-frontend/v1\",");
    }
    let _ = writeln!(json, "  \"connections\": {},", args.connections);
    let _ = writeln!(json, "  \"step_ms\": {},", args.step.as_millis());
    let _ = writeln!(json, "  \"deadline_ms\": {},", args.deadline_ms);
    let _ = writeln!(json, "  \"zipf_s\": {},", args.zipf_s);
    let _ = writeln!(json, "  \"steps\": [");
    for (at, (rate, stats, achieved)) in steps.iter().enumerate() {
        let comma = if at + 1 < steps.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"offered_per_sec\": {rate}, \"sent\": {}, \"ok\": {}, \
             \"cache_hits\": {}, \"shed_rate_limit\": {}, \"shed_overload\": {}, \
             \"shed_unhealthy\": {}, \"deadline_exceeded\": {}, \"typed_errors\": {}, \
             \"achieved_per_sec\": {achieved:.1}, \
             \"latency_ns\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}}}{comma}",
            stats.sent,
            stats.ok,
            stats.cache_hits,
            stats.shed_rate_limit,
            stats.shed_overload,
            stats.shed_unhealthy,
            stats.deadline_exceeded,
            stats.typed_errors,
            quantile(&stats.latencies_ns, 0.50),
            quantile(&stats.latencies_ns, 0.95),
            quantile(&stats.latencies_ns, 0.99),
            stats.latencies_ns.last().copied().unwrap_or(0),
        );
    }
    let _ = writeln!(json, "  ],");
    let section_end = if fleet.is_some() { "," } else { "" };
    let _ = writeln!(json, "  \"net_counters\": {{");
    for (at, (name, value)) in net_counters.iter().enumerate() {
        let comma = if at + 1 < net_counters.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {value}{comma}");
    }
    let _ = writeln!(json, "  }}{section_end}");
    if let Some((counters, rows)) = fleet {
        let _ = writeln!(json, "  \"cluster_counters\": {{");
        for (at, (name, value)) in counters.iter().enumerate() {
            let comma = if at + 1 < counters.len() { "," } else { "" };
            let _ = writeln!(json, "    \"{name}\": {value}{comma}");
        }
        let _ = writeln!(json, "  }},");
        let _ = writeln!(json, "  \"members\": [");
        for (at, row) in rows.iter().enumerate() {
            let comma = if at + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    {{\"member\": \"{}\", \"count\": {}, \"forward_ns\": \
                 {{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}}}{comma}",
                row.member,
                row.hist.count,
                row.hist.quantile(0.50),
                row.hist.quantile(0.95),
                row.hist.quantile(0.99),
                row.hist.max,
            );
        }
        let _ = writeln!(json, "  ]");
    }
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, json).map_err(|err| format!("cannot write {}: {err}", args.out))
}
