//! The load loops: the closed loop every gated number comes from, and the
//! open-loop rate ladder the traced run reports as information.

use crate::check::Checker;
use crate::inputs::Inputs;
use crate::link::Link;
use crate::procstat;
use crate::stats::{median, percentile};
use crate::sut::PATIENCE;
use crate::trace::{Tracer, ROOT};
use std::time::{Duration, Instant};

/// Length of one slice of the timed phase. The slices go into the run's
/// sidecar file as diagnostics — they show when within a run the machine or
/// the system stalled — and into no metric.
const SLICE: Duration = Duration::from_secs(1);

/// Latency samples a timed loop has room for before its buffer grows. The
/// buffer is allocated and touched before the clock starts, so the driver's
/// own memory — `peak_rss_mb` counts this process — does not grow with the
/// system's throughput. 2^20 `f32`s are 4 MiB: 30 s at 35 000 replies/s.
const SAMPLE_ROOM: usize = 1 << 20;

/// A point on the timed phase's clock: images answered and CPU spent so far.
struct Mark {
    at: Instant,
    ok: u64,
    cpu_ms: u64,
}

/// What one slice of the timed phase measured.
pub struct Slice {
    pub ips: f64,
    pub cpu_ms_per_image: f64,
    pub latency_p50_ms: f64,
}

/// When a closed loop stops submitting.
pub enum Stop {
    /// After this many requests (warm-up).
    Count(u64),
    /// After this long, and not before `min` requests completed.
    Time { seconds: f64, min: u64 },
}

/// What one loop measured.
#[derive(Default)]
pub struct Drive {
    /// Send-to-last-byte latency of every answered request, in ms.
    latencies_ms: Vec<f32>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    marks: Vec<Mark>,
}

impl Drive {
    /// A loop with room for `samples` latencies. Every page of the buffer
    /// is written here, which is what makes it resident.
    fn with_room(samples: usize) -> Drive {
        let mut latencies_ms = vec![1.0; samples];
        std::hint::black_box(&mut latencies_ms).clear();
        Drive {
            latencies_ms,
            ..Drive::default()
        }
    }

    fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.first_failure.get_or_insert(why);
    }

    /// The latency of every answered request, in ms, in completion order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latencies_ms.iter().map(|ms| f64::from(*ms)).collect()
    }

    /// Every slice between consecutive marks.
    pub fn slices(&self) -> Vec<Slice> {
        let latencies_ms = self.latencies_ms();
        let mut slices: Vec<&[Mark]> = self.marks.windows(2).collect();
        // The last slice is whatever was left of the phase; keep it only if
        // it is long enough to carry a rate.
        if slices.len() > 1 && slices.last().is_some_and(|s| s[1].at - s[0].at < SLICE / 2) {
            slices.pop();
        }
        slices
            .into_iter()
            .filter(|slice| slice[1].ok > slice[0].ok)
            .map(|slice| {
                let images = (slice[1].ok - slice[0].ok) as f64;
                Slice {
                    ips: images / (slice[1].at - slice[0].at).as_secs_f64(),
                    cpu_ms_per_image: slice[1].cpu_ms.saturating_sub(slice[0].cpu_ms) as f64
                        / images,
                    // Answered requests and latency samples are the same
                    // sequence, so the marks' counts index the samples.
                    latency_p50_ms: median(
                        &latencies_ms[slice[0].ok as usize..slice[1].ok as usize],
                    ),
                }
            })
            .collect()
    }

    /// `(images/s, CPU ms per image)` over the whole timed phase: images
    /// answered between its first and last mark over the seconds between
    /// them, and the CPU spent between the same two marks per image. Every
    /// stall inside the phase counts. `(0, 0)` when nothing was answered.
    pub fn rates(&self) -> (f64, f64) {
        let (Some(first), Some(last)) = (self.marks.first(), self.marks.last()) else {
            return (0.0, 0.0);
        };
        if last.ok == first.ok {
            return (0.0, 0.0);
        }
        let images = (last.ok - first.ok) as f64;
        (
            images / (last.at - first.at).as_secs_f64(),
            last.cpu_ms.saturating_sub(first.cpu_ms) as f64 / images,
        )
    }
}

/// User + system CPU of every process in `pids`, in ms.
fn cpu_total_ms(pids: &[u32]) -> u64 {
    pids.iter().filter_map(|pid| procstat::cpu_ms(*pid)).sum()
}

/// Run a closed loop: keep `window` requests in flight from this one
/// thread, starting at request `first_seq` of `inputs`, until `stop`.
/// Latency is timed from just before the request is handed to the link to
/// just after its decoded reply is back. CPU of `pids` is sampled at the
/// phase's edges and at every slice edge in between.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    link: &mut Link,
    inputs: &Inputs,
    first_seq: u64,
    window: usize,
    stop: Stop,
    mut checker: Option<&mut Checker>,
    tracer: &mut Tracer,
    pids: &[u32],
) -> Drive {
    let mut drive = Drive::with_room(match stop {
        Stop::Count(count) => count as usize,
        Stop::Time { .. } => SAMPLE_ROOM,
    });
    let mut inflight: Vec<(u64, Instant)> = Vec::with_capacity(window);
    let mut next_seq = first_seq;
    let mut ok = 0u64;
    let mut submitting = true;
    let start = Instant::now();
    let mut next_mark = start + SLICE;
    drive.marks.push(Mark {
        at: start,
        ok,
        cpu_ms: cpu_total_ms(pids),
    });
    loop {
        while submitting && inflight.len() < window {
            if matches!(stop, Stop::Count(count) if drive.attempted >= count) {
                submitting = false;
                break;
            }
            let image = inputs.image(next_seq);
            inflight.push((next_seq, Instant::now()));
            link.submit(next_seq, image, tracer);
            drive.attempted += 1;
            next_seq += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let waiting_since = Instant::now();
        let completion = link.wait();
        let now = Instant::now();
        let position = completion
            .as_ref()
            .and_then(|(seq, _)| inflight.iter().position(|(s, _)| s == seq));
        let (Some((seq, outcome)), Some(position)) = (completion, position) else {
            // No answer in time, or the link itself failed: everything in
            // flight is lost and the loop cannot go on.
            drive.fail(inflight.len() as u64, "link lost or timed out".to_string());
            break;
        };
        let (_, sent) = inflight.swap_remove(position);
        tracer.record(seq, "client.wait", waiting_since, now);
        tracer.record(seq, ROOT, sent, now);
        match outcome {
            Ok(reply) => {
                ok += 1;
                drive.latencies_ms.push((now - sent).as_secs_f32() * 1e3);
                if let Some(checker) = checker.as_deref_mut() {
                    let span = tracer.begin();
                    checker.check(seq, inputs.content_id(seq), &reply);
                    tracer.end(span, seq, "client.verify");
                }
            }
            Err(why) => drive.fail(1, why),
        }
        if !submitting {
            continue; // draining what is still in flight
        }
        let phase_over = match stop {
            Stop::Count(_) => false,
            Stop::Time { seconds, min } => {
                (now - start).as_secs_f64() >= seconds && ok + drive.failed >= min
            }
        };
        if phase_over || now >= next_mark {
            drive.marks.push(Mark {
                at: now,
                ok,
                cpu_ms: cpu_total_ms(pids),
            });
            next_mark = now + SLICE;
            submitting = !phase_over;
        }
    }
    drive
}

/// One step of the open-loop ladder.
#[derive(Default)]
pub struct Step {
    pub sent: u64,
    pub answered: u64,
    pub failed: u64,
    /// Requests still unanswered when the step's schedule ended.
    pub backlog: u64,
    pub p90_ms: f64,
    /// How late the generator sent, p90, in ms.
    pub send_lag_p90_ms: f64,
    /// `(seq, when it was due)` of every request not yet answered.
    due_at: Vec<(u64, Instant)>,
    latencies_ms: Vec<f64>,
}

impl Step {
    fn settle(&mut self, (seq, outcome): crate::link::Completion) {
        let Some(position) = self.due_at.iter().position(|(s, _)| *s == seq) else {
            // The link failed: nothing in flight will be answered.
            self.failed += self.due_at.len() as u64;
            self.due_at.clear();
            return;
        };
        let (_, due) = self.due_at.swap_remove(position);
        match outcome {
            Ok(_) => {
                self.answered += 1;
                self.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// Send on a fixed schedule — one request every `1 / rate` seconds for
/// `seconds`, whatever the system does — and time each request from when it
/// was *due*, so a stall counts against every request it delays. A step
/// whose backlog passes `give_up_at` is cut short: it has failed, and
/// every further unanswered reply would only pile up in the server.
pub fn open_loop_step(
    link: &mut Link,
    inputs: &Inputs,
    first_seq: u64,
    rate_rps: f64,
    seconds: f64,
    give_up_at: usize,
) -> Step {
    let interval = Duration::from_secs_f64(1.0 / rate_rps);
    let total = ((rate_rps * seconds) as u64).max(1);
    let mut tracer = Tracer::off();
    let mut lags_ms = Vec::new();
    let mut step = Step::default();
    let start = Instant::now();
    while step.sent < total && step.due_at.len() < give_up_at {
        let due = start + interval.mul_f64(step.sent as f64);
        let now = Instant::now();
        if now < due {
            if let Some(completion) = link.poll(due - now) {
                step.settle(completion);
            }
            continue;
        }
        lags_ms.push((now - due).as_secs_f64() * 1e3);
        let seq = first_seq + step.sent;
        step.due_at.push((seq, due));
        link.submit(seq, inputs.image(seq), &mut tracer);
        step.sent += 1;
    }
    step.backlog = step.due_at.len() as u64;
    // Drain so the next step starts from an idle system; what arrives late
    // still counts towards this step's percentiles.
    let drain_deadline = Instant::now() + PATIENCE;
    while !step.due_at.is_empty() && Instant::now() < drain_deadline {
        if let Some(completion) = link.poll(Duration::from_millis(100)) {
            step.settle(completion);
        }
    }
    step.failed += step.due_at.len() as u64;
    step.p90_ms = percentile(&step.latencies_ms, 90.0);
    step.send_lag_p90_ms = percentile(&lags_ms, 90.0);
    step
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(at: Instant, ok: u64, cpu_ms: u64) -> Mark {
        Mark { at, ok, cpu_ms }
    }

    #[test]
    fn rates_cover_the_whole_phase_and_slices_drop_a_short_tail() {
        let t0 = Instant::now();
        let s = Duration::from_secs;
        let drive = Drive {
            latencies_ms: vec![2.0; 251],
            marks: vec![
                mark(t0, 0, 0),
                mark(t0 + s(1), 100, 1000),
                mark(t0 + s(2), 150, 1500), // a stalled second: it counts
                mark(t0 + s(3), 250, 2500),
                mark(t0 + s(3) + Duration::from_millis(125), 251, 2510), // short tail
            ],
            ..Drive::default()
        };
        let (ips, cpu) = drive.rates();
        assert_eq!(ips, 251.0 / 3.125);
        assert_eq!(cpu, 10.0);
        let slices = drive.slices();
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[1].ips, 50.0);
        assert_eq!(slices[1].latency_p50_ms, 2.0);
    }

    #[test]
    fn a_loop_that_answered_nothing_has_no_rates() {
        let t0 = Instant::now();
        let drive = Drive {
            marks: vec![mark(t0, 0, 0)],
            ..Drive::default()
        };
        assert_eq!(drive.rates(), (0.0, 0.0));
        assert_eq!(Drive::default().rates(), (0.0, 0.0));
    }

    #[test]
    fn the_sample_buffer_is_sized_before_the_loop_and_starts_empty() {
        let drive = Drive::with_room(1000);
        assert!(drive.latencies_ms.capacity() >= 1000);
        assert!(drive.latencies_ms().is_empty());
    }
}
