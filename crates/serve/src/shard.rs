//! Per-route serving shard: one bounded submission queue drained by a
//! private worker pool, each worker forming its own batch at pickup.
//!
//! A [`DefenseGateway`](crate::gateway::DefenseGateway) owns one shard per
//! [`RouteKey`](crate::route::RouteKey). Shards share nothing but the
//! gateway-wide output cache, so a saturated
//! route rejects its own traffic without slowing any other route. Retiring a
//! shard (shutdown or hot reload) is drain-based: dropping every submission
//! sender lets the workers finish the queue and exit — in-flight jobs always
//! get their response.

use crate::cache::LruCache;
use crate::route::{RouteConfig, RouteKey};
use crate::server::{DefenseResponse, ServeError, WorkerAssets};
use crate::stats::{Stat, StatsRecorder};
use crate::telemetry::{ArenaGauges, StageProbes};
use sesr_defense::DefendTrace;
use sesr_tensor::Tensor;
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub(crate) type JobResult = Result<DefenseResponse, ServeError>;

/// Cache key: which route defended the image, and what the image was.
pub(crate) type CacheKey = (RouteKey, u64);

pub(crate) type SharedCache = Arc<Mutex<LruCache<CacheKey, (Tensor, Option<usize>)>>>;

pub(crate) struct Job {
    pub image: Tensor,
    /// Gateway-wide request id, tagged onto every journal event this job
    /// produces so a trace can be reassembled per request.
    pub request_id: u64,
    pub enqueued: Instant,
    pub deadline: Option<Instant>,
    pub responder: Sender<JobResult>,
    pub cache_key: Option<CacheKey>,
    /// Stamped by the worker that pops the job off the submission queue;
    /// `enqueued..dequeued` is the queue-wait stage, `dequeued..batch start`
    /// the batch-dwell stage.
    pub dequeued: Option<Instant>,
}

/// Spawn a shard: one bounded queue drained by one thread per `assets`
/// entry, recording into the route's `stats` and `stages`. The caller keeps
/// the returned sender for submissions and the join handles for retirement:
/// dropping every sender lets the workers drain the queue and exit.
pub(crate) fn spawn_shard(
    config: &RouteConfig,
    assets: Vec<WorkerAssets>,
    cache: &SharedCache,
    stats: &Arc<StatsRecorder>,
    stages: &Arc<StageProbes>,
    arenas: &[ArenaGauges],
) -> (SyncSender<Job>, Vec<JoinHandle<()>>) {
    let (submit_tx, submit_rx) = mpsc::sync_channel::<Job>(config.queue_capacity);
    let queue = Arc::new(Mutex::new(submit_rx));
    let (max_batch, max_linger) = (config.max_batch, config.max_linger);
    let workers = assets
        .into_iter()
        .enumerate()
        .map(|(index, mut worker_assets)| {
            let queue = Arc::clone(&queue);
            let cache = Arc::clone(cache);
            let (stats, stages) = (Arc::clone(stats), Arc::clone(stages));
            let arena_gauges = arenas.get(index).cloned();
            std::thread::spawn(move || {
                while let Some(jobs) = next_batch(&queue, max_batch, max_linger, &stats, &stages) {
                    for group in group_by_shape(jobs) {
                        stats.record_batch(group.len());
                        process_batch(
                            &mut worker_assets,
                            group,
                            &cache,
                            &stats,
                            &stages,
                            arena_gauges.as_ref(),
                        );
                    }
                }
            })
        })
        .collect();
    (submit_tx, workers)
}

/// Take the next batch off the shard queue: block for the first live job,
/// then keep taking until `max_batch` jobs or `max_linger` after the first.
/// `None` means every sender dropped and the queue is drained.
fn next_batch(
    queue: &Mutex<Receiver<Job>>,
    max_batch: usize,
    max_linger: Duration,
    stats: &StatsRecorder,
    stages: &StageProbes,
) -> Option<Vec<Job>> {
    // Each pop ends the job's queue-wait stage: it stamps `dequeued` and
    // reports submission → pop to the route's queue_wait probe. A job whose
    // deadline passed while it sat in the queue is answered right here — it
    // is never batched and never defended late; this is the wire deadline's
    // first enforcement point (`process_batch` keeps its own check for
    // deadlines that expire during the linger window).
    let pop = |mut job: Job| -> Option<Job> {
        let now = Instant::now();
        stages
            .queue_wait
            .observe(job.request_id, now.duration_since(job.enqueued));
        if job.deadline.is_some_and(|deadline| now >= deadline) {
            stats.add(Stat::Expired, 1);
            let _ = job.responder.send(Err(ServeError::DeadlineExceeded));
            return None;
        }
        job.dequeued = Some(now);
        Some(job)
    };
    // The lock is held until the batch is formed, so concurrent workers
    // never split a burst between them. A poisoned mutex just means another
    // worker panicked mid-pickup; the receiver itself is still valid, so
    // keep serving instead of cascading the panic across the whole pool.
    let receiver = queue.lock().unwrap_or_else(PoisonError::into_inner);
    let first = loop {
        if let Some(job) = pop(receiver.recv().ok()?) {
            break job;
        }
    };
    let mut jobs = vec![first];
    let linger_until = Instant::now() + max_linger;
    while jobs.len() < max_batch {
        // A zero timeout still takes a job that is already queued.
        match receiver.recv_timeout(linger_until.saturating_duration_since(Instant::now())) {
            Ok(job) => jobs.extend(pop(job)),
            Err(_) => break,
        }
    }
    Some(jobs)
}

/// Split a pickup into shape-homogeneous batches: a batch must be one shape
/// to concat.
fn group_by_shape(jobs: Vec<Job>) -> Vec<Vec<Job>> {
    let mut groups: Vec<Vec<Job>> = Vec::new();
    for job in jobs {
        let dims = job.image.shape().dims();
        match groups
            .iter_mut()
            .find(|g| g[0].image.shape().dims() == dims)
        {
            Some(group) => group.push(job),
            None => groups.push(vec![job]),
        }
    }
    groups
}

fn process_batch(
    assets: &mut WorkerAssets,
    jobs: Vec<Job>,
    cache: &SharedCache,
    stats: &StatsRecorder,
    stages: &StageProbes,
    arena_gauges: Option<&ArenaGauges>,
) {
    // Answer expired jobs before paying for the defense: a deadline request
    // prefers a fast typed error over a late response.
    let now = Instant::now();
    let (live, expired): (Vec<Job>, Vec<Job>) = jobs
        .into_iter()
        .partition(|job| job.deadline.is_none_or(|deadline| now < deadline));
    for job in expired {
        stats.add(Stat::Expired, 1);
        let _ = job.responder.send(Err(ServeError::DeadlineExceeded));
    }
    if live.is_empty() {
        return;
    }

    // The batch-dwell stage ends here, at batch start: each live job reports
    // pop → batch start. Batch-level spans below are tagged with the first job's
    // request id (a batch of one — the acceptance-test shape — therefore
    // carries every stage under a single id).
    for job in &live {
        stages.batch_dwell.observe(
            job.request_id,
            now.duration_since(job.dequeued.unwrap_or(job.enqueued)),
        );
    }
    let lead_request = live[0].request_id;

    // The worker's private arena serves the whole defense and the
    // classifier: the merged batch, every SR and classifier intermediate
    // and the logits are recycled after use, so at steady state only the
    // per-job response tensors (which escape to the clients) are
    // heap-allocated.
    let WorkerAssets {
        pipeline,
        classifier,
        scratch,
    } = assets;
    let trace = DefendTrace {
        preprocess: &stages.preprocess,
        sr_forward: &stages.sr_forward,
        request: lead_request,
    };
    let outcome = Tensor::concat_batch_arena(live.iter().map(|job| &job.image), scratch.arena())
        .and_then(|merged| {
            let defended = pipeline.defend_scratch_traced(&merged, scratch, &trace);
            scratch.recycle(merged);
            defended
        })
        .and_then(|defended| {
            // The batch tensor is recycled even when classification or the
            // split fails, keeping the arena's in-use accounting exact.
            let outcome = (|| {
                let labels = match classifier.as_mut() {
                    Some(classifier) => {
                        let span = stages.classify.span(lead_request);
                        let logits = classifier.forward_scratch(&defended, false, scratch)?;
                        let labels = row_argmax(&logits);
                        scratch.recycle(logits);
                        drop(span);
                        Some(labels?)
                    }
                    None => None,
                };
                // Responses leave the worker thread, so they are plain owned
                // tensors, not arena buffers.
                let parts = defended.split_batch(1)?;
                Ok((parts, labels))
            })();
            scratch.recycle(defended);
            outcome
        });

    // Published before any reply goes out, on the success and the error
    // path alike: a client that snapshots telemetry right after its reply
    // must find this batch's arena use in the gauges.
    if let Some(gauges) = arena_gauges {
        gauges.publish(&scratch.stats());
    }

    match outcome {
        Ok((parts, labels)) => {
            stats.add(Stat::ComputedImages, parts.len());
            for (index, (job, part)) in live.into_iter().zip(parts).enumerate() {
                let label = labels.as_ref().map(|l| l[index]);
                if let Some(key) = job.cache_key {
                    // A poisoned guard means some other holder panicked, not
                    // that this worker did: recover it rather than cascade
                    // the panic across every worker that caches.
                    cache
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(key, (part.clone(), label));
                }
                stats.record_completion(job.enqueued.elapsed(), false);
                let _ = job.responder.send(Ok(DefenseResponse {
                    defended: part,
                    label,
                    cache_hit: false,
                }));
            }
        }
        Err(err) => {
            let message = err.to_string();
            for job in live {
                stats.add(Stat::Errors, 1);
                let _ = job
                    .responder
                    .send(Err(ServeError::Pipeline(message.clone())));
            }
        }
    }
}

/// Per-row argmax of a `[N, K]` logits tensor.
fn row_argmax(logits: &Tensor) -> sesr_tensor::Result<Vec<usize>> {
    let (rows, cols) = logits.shape().as_matrix()?;
    let data = logits.data();
    let mut labels = Vec::with_capacity(rows);
    for row in 0..rows {
        let slice = &data[row * cols..(row + 1) * cols];
        let mut best = 0usize;
        for (i, v) in slice.iter().enumerate() {
            if *v > slice[best] {
                best = i;
            }
        }
        labels.push(best);
    }
    Ok(labels)
}
