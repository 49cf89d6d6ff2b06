//! The traced run: reports the per-layer metrics.

use crate::check::ORACLE;
use crate::counters::{from_telemetry, ratio, telemetry};
use crate::drive::{closed_loop, open_loop_step, Stop};
use crate::layers::{self, ref_kernel_us, Values};
use crate::link::Link;
use crate::report::Report;
use crate::run::{checker_notes, ref_kernel_notes, Plan};
use crate::stats::{median, percentile};
use crate::sut::{self, Kind, Sut};
use crate::trace::Tracer;
use crate::workloads::PER_LAYER;
use sesr_models::ScratchSpace;
use sesr_nn::Layer as _;
use sesr_serve::{DefenseRequest, GatewayClient};
use sesr_tensor::Tensor;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median latency in µs of `count` requests of the plan's stream sent one
/// at a time over `link`, starting at `first_seq`.
fn solo_p50_us(plan: &Plan, link: &mut Link, first_seq: u64, count: u64) -> f64 {
    let drive = closed_loop(
        link,
        &plan.inputs,
        first_seq,
        1,
        Stop::Count(count),
        None,
        &mut Tracer::off(),
        &[],
    );
    median(&drive.latencies_ms()) * 1e3
}

/// Median latency in µs of `count` blocking calls straight into `client`.
fn in_process_p50_us(
    client: &GatewayClient,
    count: u64,
    request: impl Fn(u64) -> DefenseRequest,
) -> f64 {
    let samples: Vec<f64> = (0..count)
        .filter_map(|i| {
            let request = request(i);
            let started = Instant::now();
            client.defend_blocking(request).ok()?;
            Some(started.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    median(&samples)
}

/// Hop costs, each measured on one request at a time, back to back:
/// `serve.hit_us`, `serve.miss_overhead_us`, `net.hop_overhead_us` and
/// `cluster.hop_overhead_us`. Requests are numbered from `first_seq`.
fn hops(
    plan: &Plan,
    sut: &Sut,
    link: &mut Link,
    first_seq: u64,
    budget: Duration,
    out: &mut Values,
) -> Result<(), String> {
    let workload = plan.workload;
    let route = workload.route();
    let fresh = |i: u64| plan.inputs.image(first_seq + i);
    if workload.kind == Kind::Edge {
        // skip_cache traffic never hits. What serving adds to a miss is the
        // blocking call minus the same pipeline and classifier called
        // directly.
        let client = sut.gateway_client().ok_or("edge system has a gateway")?;
        let miss_us = in_process_p50_us(&client, 20, |i| {
            DefenseRequest::new(fresh(i)).on(route).skip_cache()
        });
        let pipeline = sut::edge_pipeline().map_err(|e| e.to_string())?;
        let mut classifier = sut::edge_classifier();
        let mut scratch = ScratchSpace::new();
        let image = plan.inputs.image(0);
        let direct_us = layers::time_us(budget, || {
            let defended = pipeline
                .defend_scratch(&image, &mut scratch)
                .expect("direct defend");
            black_box(classifier.forward(&defended, false).expect("classify"));
            scratch.recycle(defended);
        });
        out.insert("serve.miss_overhead_us", miss_us - direct_us);
        return Ok(());
    }

    let count = if workload.hot_set == 0 { 60 } else { 200 };
    let wire_us = solo_p50_us(plan, link, first_seq, count);
    // The same gateway without the wire: this process's own on a wire
    // system, one built like a member's on a cluster.
    let local = match sut.gateway_client() {
        Some(_) => None,
        None => Some(sut::wire_gateway(plan.store_dir())?),
    };
    let client = match &local {
        Some(gateway) => gateway.client(),
        None => sut.gateway_client().ok_or("wire system has a gateway")?,
    };
    let hot_image = plan.inputs.image(0);
    let hot = |_| DefenseRequest::new(hot_image.clone()).on(route);
    client.defend_blocking(hot(0)).map_err(|e| e.to_string())?;
    let hit_us = in_process_p50_us(&client, 200, hot);
    out.insert("serve.hit_us", hit_us);
    let mut in_process_us = hit_us;
    if workload.hot_set == 0 {
        // Misses: fresh images, numbered past the ones the wire loop sent.
        in_process_us = in_process_p50_us(&client, count, |i| {
            DefenseRequest::new(fresh(count + i)).on(route)
        });
        let pipeline = sut::wire_pipeline(plan.store_dir())?;
        let direct_us = layers::defend_us(&pipeline, &hot_image, budget);
        out.insert("serve.miss_overhead_us", in_process_us - direct_us);
    }
    if workload.kind == Kind::Cluster {
        // Front vs straight to a member, same traffic; one pass first fills
        // the member's cache with the images it does not own.
        let (_, member_addr) = *sut.members().first().ok_or("cluster has members")?;
        let mut direct = Link::wire(sut::dial(member_addr)?, route);
        solo_p50_us(plan, &mut direct, 0, workload.hot_set as u64);
        let direct_us = solo_p50_us(plan, &mut direct, first_seq, count);
        out.insert("cluster.hop_overhead_us", wire_us - direct_us);
        out.insert("net.hop_overhead_us", direct_us - hit_us);
    } else {
        out.insert("net.hop_overhead_us", wire_us - in_process_us);
    }
    drop(client);
    if let Some(gateway) = local {
        gateway.shutdown();
    }
    Ok(())
}

/// The per-layer calls for the layers the workload touches, at its shapes.
fn layer_calls(plan: &Plan, budget: Duration, out: &mut Values) -> Result<(), String> {
    let workload = plan.workload;
    let [_, h, w] = workload.dims;
    let label = workload.route().label();
    match workload.kind {
        Kind::Edge => {
            layers::sr_stack(1, h, w, budget, out);
            layers::edge_stack(h, w, budget, out);
        }
        Kind::Wire | Kind::Cluster => {
            if workload.hot_set == 0 {
                // The SR stack at the largest batch the route serves.
                layers::sr_stack(sut::WIRE_MAX_BATCH, h, w, budget, out);
                let images: Vec<_> = (0..sut::WIRE_MAX_BATCH as u64)
                    .map(|i| plan.inputs.image(i))
                    .collect();
                let batch = Tensor::concat_batch(images.iter()).map_err(|e| e.to_string())?;
                let pipeline = sut::wire_pipeline(plan.store_dir())?;
                layers::defend(&pipeline, &batch, 0.0, budget, out);
            }
            layers::codec(h, w, &label, budget, out);
            layers::hydrate(plan.store_dir(), budget, out);
            if workload.kind == Kind::Cluster {
                layers::ring(&label, budget, out);
            }
        }
    }
    Ok(())
}

/// The open-loop ladder: a few fixed rates, lowest first. The answer is the
/// highest whose p90 met the limit with nothing failed and no growing
/// backlog — no more left unanswered when its schedule ended than the rate
/// keeps in flight at the limit latency. Returns the requests sent.
fn ladder(
    plan: &Plan,
    link: &mut Link,
    first_seq: u64,
    step_seconds: f64,
    out: &mut Values,
    notes: &mut Vec<(String, String)>,
) -> u64 {
    let limit_ms = plan.workload.ladder_p90_limit_ms;
    let mut sent = 0;
    let mut max_rate = 0.0;
    let mut lag_ms: f64 = 0.0;
    for rate in plan.workload.ladder_rps {
        // What the rate keeps in flight at the limit latency (Little's law).
        let in_flight_at_limit = (rate * limit_ms / 1e3).ceil();
        let step = open_loop_step(
            link,
            &plan.inputs,
            first_seq + sent,
            rate,
            step_seconds,
            4 * in_flight_at_limit as usize,
        );
        sent += step.sent;
        let pass = step.failed == 0
            && step.p90_ms <= limit_ms
            && step.backlog as f64 <= in_flight_at_limit;
        if pass {
            max_rate = rate;
        }
        lag_ms = lag_ms.max(step.send_lag_p90_ms);
        notes.push((
            format!("ladder {rate} req/s"),
            format!(
                "sent {} answered {} failed {} backlog {} p90 {:.3} ms (limit {limit_ms} ms) {}",
                step.sent,
                step.answered,
                step.failed,
                step.backlog,
                step.p90_ms,
                if pass { "pass" } else { "FAIL" }
            ),
        ));
    }
    out.insert("client.ladder_max_rate_rps", max_rate);
    out.insert("client.send_lag_p90_ms", lag_ms);
    sent
}

/// The traced run: one set-up, an untraced reference loop and a traced loop
/// back to back, the program's telemetry over both, the open-loop ladder,
/// the hop measurements and the per-layer calls. `seconds` is split between
/// them so a traced run takes about as long as an untraced one.
pub fn traced(plan: &Plan) -> Result<Report, String> {
    let workload = plan.workload;
    let budget = plan.seconds as f64;
    // Some twenty per-layer calls share three tenths of the budget.
    let per_call = Duration::from_secs_f64(budget * 0.3 / 20.0);
    let mut checker = plan.checker()?;
    let mut out = Values::new();
    let mut notes = Vec::new();
    let ref_before = ref_kernel_us();

    let (sut, mut link, warm, _) = plan.set_up(Some(&mut checker))?;
    let before = telemetry(&sut)?;
    let mut next_seq = workload.warmup;
    let mut tracer = Tracer::on();
    let mut loops = Vec::new();
    for tracer in [&mut Tracer::off(), &mut tracer] {
        let drive = closed_loop(
            &mut link,
            &plan.inputs,
            next_seq,
            workload.window,
            Stop::Time {
                seconds: budget * 0.2,
                min: ORACLE,
            },
            Some(&mut checker),
            tracer,
            &[],
        );
        next_seq += drive.attempted;
        loops.push(drive);
    }
    let (reference, traced) = (&loops[0], &loops[1]);
    let (reference_ms, traced_ms) = (reference.latencies_ms(), traced.latencies_ms());
    let after = telemetry(&sut)?;
    let stages_us = from_telemetry(workload, &before, &after, &mut out);

    let p50_ms = median(&traced_ms);
    let latency = |p| percentile(&traced_ms, p);
    out.insert("client.latency_p50_ms", p50_ms);
    out.insert("client.latency_p90_ms", latency(90.0));
    out.insert("client.latency_p99_ms", latency(99.0));
    out.insert("client.samples", traced_ms.len() as f64);
    out.insert(
        "client.trace_overhead_ratio",
        ratio(p50_ms, median(&reference_ms)),
    );
    if workload.kind == Kind::Edge {
        out.insert(
            "client.budget_residual_ratio",
            1.0 - ratio(stages_us / 1e3, p50_ms),
        );
    }

    next_seq += ladder(
        plan,
        &mut link,
        next_seq,
        budget * 0.05,
        &mut out,
        &mut notes,
    );
    hops(plan, &sut, &mut link, next_seq, per_call, &mut out)?;
    drop(link);
    sut.shutdown();
    // The per-layer calls run with the system stopped, so nothing of it
    // competes for the two cores.
    layer_calls(plan, per_call, &mut out)?;
    let ref_after = ref_kernel_us();
    out.insert("client.ref_kernel_us", (ref_before + ref_after) / 2.0);

    let spans_path = plan.out_dir.join(format!("{}-spans.jsonl", workload.name));
    tracer
        .write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    notes.push((
        "spans".to_string(),
        format!(
            "{} written to {}",
            tracer.spans().len(),
            spans_path.display()
        ),
    ));
    for (name, us) in tracer.medians_us() {
        notes.push((format!("span {name} p50"), format!("{us:.1} us")));
    }
    notes.push((
        "reference loop p50".to_string(),
        format!(
            "{:.4} ms over {} samples",
            median(&reference_ms),
            reference_ms.len()
        ),
    ));
    checker_notes(&checker, &mut notes);
    ref_kernel_notes(ref_before, ref_after, &mut notes);

    Ok(Report {
        workload,
        traced: true,
        seed: plan.seed,
        seconds: plan.seconds,
        correct: checker.problems == 0 && checker.digest().is_some(),
        attempted: warm.attempted + reference.attempted + traced.attempted,
        failed: reference.failed + traced.failed,
        metrics: PER_LAYER
            .iter()
            .map(|def| (def, out.get(def.name).copied().unwrap_or(0.0)))
            .collect(),
        notes,
    })
}
