//! The types every serving layer shares: the client-facing [`ServeError`],
//! the per-worker [`WorkerAssets`], and the [`DefenseResponse`] /
//! [`PendingResponse`] pair a submission resolves to. The engine itself is
//! the [`DefenseGateway`](crate::gateway::DefenseGateway).

use crate::shard::JobResult;
use sesr_defense::pipeline::DefensePipeline;
use sesr_nn::Layer;
use sesr_tensor::{Tensor, TensorError};
use std::sync::mpsc::Receiver;

/// Errors surfaced to serving clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded submission queue is full; the caller should shed load or
    /// retry later.
    Overloaded,
    /// The server has shut down (or a worker disappeared mid-request).
    Closed,
    /// The request named a route the gateway does not serve (the payload is
    /// the route's label).
    UnknownRoute(String),
    /// The request's per-request deadline passed while it was still queued;
    /// it was answered without being defended.
    DeadlineExceeded,
    /// The request was malformed (wrong rank or batch dimension).
    InvalidRequest(String),
    /// The content hash the request claimed does not match its image.
    HashMismatch,
    /// A pipeline stage failed while processing the request.
    Pipeline(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "submission queue is full (overloaded)"),
            ServeError::Closed => write!(f, "defense server is shut down"),
            ServeError::UnknownRoute(route) => write!(f, "no such route: {route}"),
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before a worker reached it")
            }
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::HashMismatch => {
                write!(f, "content hash does not match the image payload")
            }
            ServeError::Pipeline(msg) => write!(f, "defense pipeline failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TensorError> for ServeError {
    fn from(err: TensorError) -> Self {
        ServeError::Pipeline(err.to_string())
    }
}

/// Everything one worker owns: a defense pipeline, an optional classifier
/// run on the defended output to produce labels, and a private
/// [`ScratchSpace`](sesr_models::ScratchSpace) whose arena is reused across
/// requests — after the first few batches the SR forward pass performs zero
/// heap allocations.
pub struct WorkerAssets {
    pub(crate) pipeline: DefensePipeline,
    pub(crate) classifier: Option<Box<dyn Layer>>,
    pub(crate) scratch: sesr_models::ScratchSpace,
}

impl WorkerAssets {
    /// A defend-only worker.
    pub fn new(pipeline: DefensePipeline) -> Self {
        WorkerAssets {
            pipeline,
            classifier: None,
            scratch: sesr_models::ScratchSpace::new(),
        }
    }

    /// A defend-then-classify worker; responses carry the predicted label.
    pub fn with_classifier(pipeline: DefensePipeline, classifier: Box<dyn Layer>) -> Self {
        WorkerAssets {
            pipeline,
            classifier: Some(classifier),
            scratch: sesr_models::ScratchSpace::new(),
        }
    }
}

/// The answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseResponse {
    /// The defended `[1, 3, H*scale, W*scale]` image.
    pub defended: Tensor,
    /// Predicted label, when the workers carry a classifier.
    pub label: Option<usize>,
    /// `true` when the response was served from the LRU cache.
    pub cache_hit: bool,
}

/// A response that may already be resolved (cache hit) or still in flight.
pub struct PendingResponse {
    inner: PendingInner,
}

enum PendingInner {
    Ready(Box<DefenseResponse>),
    Waiting(Receiver<JobResult>),
    /// The result was already taken by [`PendingResponse::try_wait`].
    Taken,
}

impl PendingResponse {
    pub(crate) fn ready(response: DefenseResponse) -> Self {
        PendingResponse {
            inner: PendingInner::Ready(Box::new(response)),
        }
    }

    pub(crate) fn waiting(receiver: Receiver<JobResult>) -> Self {
        PendingResponse {
            inner: PendingInner::Waiting(receiver),
        }
    }

    /// Block until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server shut down before
    /// answering (or the result was already taken by
    /// [`PendingResponse::try_wait`]), or the pipeline error for this
    /// request.
    pub fn wait(self) -> JobResult {
        match self.inner {
            PendingInner::Ready(response) => Ok(*response),
            PendingInner::Waiting(receiver) => receiver.recv().map_err(|_| ServeError::Closed)?,
            PendingInner::Taken => Err(ServeError::Closed),
        }
    }

    /// Poll for the response without blocking: `Some` exactly once when the
    /// result is available (a cache hit resolves on the first poll), `None`
    /// while the request is still in flight. This is what lets a
    /// single-threaded event loop (the `sesr-net` reactor) multiplex many
    /// in-flight requests without parking a thread per request.
    ///
    /// Once the result has been taken, further polls (and
    /// [`PendingResponse::wait`]) report [`ServeError::Closed`].
    pub fn try_wait(&mut self) -> Option<JobResult> {
        match std::mem::replace(&mut self.inner, PendingInner::Taken) {
            PendingInner::Ready(response) => Some(Ok(*response)),
            PendingInner::Waiting(receiver) => match receiver.try_recv() {
                Ok(result) => Some(result),
                Err(std::sync::mpsc::TryRecvError::Empty) => {
                    self.inner = PendingInner::Waiting(receiver);
                    None
                }
                Err(std::sync::mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
            },
            PendingInner::Taken => Some(Err(ServeError::Closed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DefenseGateway, DefenseRequest, GatewayBuilder, RouteConfig, RouteKey};
    use sesr_defense::pipeline::PreprocessConfig;
    use sesr_models::{SrModelKind, Upscaler};
    use sesr_tensor::{init, Shape};
    use std::time::Duration;

    fn nearest_route() -> RouteKey {
        RouteKey::paper(SrModelKind::NearestNeighbor, 2)
    }

    fn nearest_gateway(config: RouteConfig) -> DefenseGateway {
        GatewayBuilder::new()
            .route_with(nearest_route(), config)
            .build()
            .unwrap()
    }

    fn test_image(seed: u64, size: usize) -> Tensor {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        init::uniform(Shape::new(&[1, 3, size, size]), 0.0, 1.0, &mut rng)
    }

    #[test]
    fn round_trip_matches_direct_defend() {
        let gateway = nearest_gateway(RouteConfig::default());
        let client = gateway.client();
        let image = test_image(1, 16);
        let response = client
            .defend_blocking(DefenseRequest::new(image.clone()))
            .unwrap();
        assert_eq!(response.defended.shape().dims(), &[1, 3, 32, 32]);
        assert!(!response.cache_hit);

        let direct = DefensePipeline::new(
            PreprocessConfig::paper(),
            SrModelKind::NearestNeighbor.build_interpolation(2).unwrap(),
        )
        .defend(&image)
        .unwrap();
        assert_eq!(response.defended, direct);
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn mixed_shapes_are_batched_separately() {
        let gateway = nearest_gateway(RouteConfig {
            max_linger: Duration::from_millis(20),
            ..RouteConfig::default()
        });
        let client = gateway.client();
        let pending: Vec<_> = (0..8)
            .map(|i| {
                let size = if i % 2 == 0 { 8 } else { 16 };
                client
                    .submit(DefenseRequest::new(test_image(i, size)))
                    .unwrap()
            })
            .collect();
        for (i, pending) in pending.into_iter().enumerate() {
            let response = pending.wait().unwrap();
            let expected = if i % 2 == 0 { 16 } else { 32 };
            assert_eq!(
                response.defended.shape().dims(),
                &[1, 3, expected, expected]
            );
        }
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn invalid_requests_are_rejected_synchronously() {
        let gateway = nearest_gateway(RouteConfig::default());
        let client = gateway.client();
        let rank2 = Tensor::zeros(Shape::new(&[4, 4]));
        assert!(matches!(
            client.submit(DefenseRequest::new(rank2)),
            Err(ServeError::InvalidRequest(_))
        ));
        let multi = Tensor::zeros(Shape::new(&[2, 3, 8, 8]));
        assert!(matches!(
            client.submit(DefenseRequest::new(multi)),
            Err(ServeError::InvalidRequest(_))
        ));
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn labels_come_from_the_worker_classifier() {
        use rand::{rngs::StdRng, SeedableRng};
        let gateway = GatewayBuilder::new()
            .route_with_factory(nearest_route(), RouteConfig::default(), |_| {
                let mut rng = StdRng::seed_from_u64(3);
                let classifier =
                    sesr_classifiers::ClassifierKind::MobileNetV2.build_local(4, &mut rng);
                Ok(WorkerAssets::with_classifier(
                    DefensePipeline::new(
                        PreprocessConfig::paper(),
                        SrModelKind::NearestNeighbor.build_seeded_upscaler(2, 0)?,
                    ),
                    classifier,
                ))
            })
            .build()
            .unwrap();
        let client = gateway.client();
        let response = client
            .defend_blocking(DefenseRequest::new(test_image(5, 16)))
            .unwrap();
        assert!(response.label.is_some());
        assert!(response.label.unwrap() < 4);
        drop(client);
        gateway.shutdown();
    }

    /// An upscaler that sleeps, to make backpressure deterministic in tests.
    struct SlowUpscaler {
        delay: Duration,
        inner: Box<dyn Upscaler>,
    }

    impl Upscaler for SlowUpscaler {
        fn name(&self) -> &str {
            "slow"
        }
        fn scale(&self) -> usize {
            self.inner.scale()
        }
        fn upscale(&self, input: &Tensor) -> sesr_tensor::Result<Tensor> {
            std::thread::sleep(self.delay);
            self.inner.upscale(input)
        }
    }

    /// A cache-less gateway whose one route sleeps `delay_ms` per batch.
    fn slow_gateway(config: RouteConfig, delay_ms: u64) -> DefenseGateway {
        GatewayBuilder::new()
            .cache_capacity(0)
            .route_with_factory(nearest_route(), config, move |_| {
                Ok(WorkerAssets::new(DefensePipeline::new(
                    PreprocessConfig::none(),
                    Box::new(SlowUpscaler {
                        delay: Duration::from_millis(delay_ms),
                        inner: SrModelKind::NearestNeighbor.build_interpolation(2).unwrap(),
                    }),
                )))
            })
            .build()
            .unwrap()
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let config = RouteConfig {
            num_workers: 1,
            max_batch: 1,
            max_linger: Duration::ZERO,
            queue_capacity: 2,
        };
        let gateway = slow_gateway(config, 40);
        let client = gateway.client();
        let mut pending = Vec::new();
        let mut rejected = 0usize;
        for seed in 0..32 {
            match client.submit(DefenseRequest::new(test_image(seed, 8))) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded) => rejected += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(
            rejected > 0,
            "a 2-slot queue behind a 40ms/image worker must reject a 32-image burst"
        );
        assert_eq!(
            gateway.telemetry_snapshot().counter("gateway.rejected"),
            Some(rejected as u64)
        );
        for p in pending {
            p.wait().unwrap();
        }
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn a_worker_coalesces_what_queued_while_it_was_busy() {
        let config = RouteConfig {
            num_workers: 1,
            max_batch: 4,
            max_linger: Duration::ZERO,
            queue_capacity: 8,
        };
        let gateway = slow_gateway(config, 200);
        let client = gateway.client();
        let pending: Vec<_> = (0..4)
            .map(|seed| {
                client
                    .submit(DefenseRequest::new(test_image(seed, 8)))
                    .unwrap()
            })
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        // The first job may be picked up alone; the other three queue behind
        // its 200 ms defense and must leave in one batch, linger or not.
        let snapshot = gateway.telemetry_snapshot();
        let batches = snapshot.counter("gateway.batches").unwrap_or(0);
        assert!(batches <= 2, "took {batches} batches");
        assert_eq!(snapshot.counter("gateway.computed_images"), Some(4));
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn accepted_jobs_are_bounded_by_queue_plus_one_batch_per_worker() {
        let config = RouteConfig {
            num_workers: 1,
            max_batch: 1,
            max_linger: Duration::ZERO,
            queue_capacity: 2,
        };
        let bound = config.queue_capacity + config.num_workers * config.max_batch;
        let gateway = slow_gateway(config, 200);
        let client = gateway.client();
        let mut pending = Vec::new();
        // 16 submissions 2 ms apart all land inside the first 200 ms defense.
        for seed in 0..16 {
            match client.submit(DefenseRequest::new(test_image(seed, 8))) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            pending.len() <= bound,
            "accepted {} > bound {bound}",
            pending.len()
        );
        for p in pending {
            p.wait().unwrap();
        }
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn cache_hits_skip_recomputation() {
        let gateway = nearest_gateway(RouteConfig::default());
        let client = gateway.client();
        let image = test_image(9, 16);
        let first = client
            .defend_blocking(DefenseRequest::new(image.clone()))
            .unwrap();
        assert!(!first.cache_hit);
        let second = client.defend_blocking(DefenseRequest::new(image)).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.defended, second.defended);
        let snapshot = gateway.telemetry_snapshot();
        assert_eq!(snapshot.counter("gateway.completed"), Some(2));
        assert_eq!(snapshot.counter("gateway.cache_hits"), Some(1));
        assert_eq!(
            snapshot.counter("gateway.cache_misses"),
            Some(1),
            "the first lookup was a miss"
        );
        assert_eq!(
            snapshot.counter("gateway.computed_images"),
            Some(1),
            "the second request must not recompute"
        );
        drop(client);
        gateway.shutdown();
    }

    /// A store holding one (random but fixed) SESR-M2 trained-weight
    /// stand-in; returns its root and the saved artifact.
    fn seeded_store(tag: &str, seed: u64) -> (std::path::PathBuf, sesr_store::StoredArtifact) {
        use rand::{rngs::StdRng, SeedableRng};
        use sesr_store::{Checkpoint, ModelStore};
        let dir = std::env::temp_dir().join(format!("sesr_serve_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut rng = StdRng::seed_from_u64(seed);
        let network = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
        let artifact = ModelStore::open(&dir)
            .unwrap()
            .save(&Checkpoint::from_layer("SESR-M2", 2, 0, network.as_ref()))
            .unwrap();
        (dir, artifact)
    }

    fn sesr_route() -> RouteKey {
        RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none())
    }

    #[test]
    fn start_from_store_hydrates_identical_workers() {
        let (dir, _) = seeded_store("store", 77);
        let gateway = GatewayBuilder::new()
            .cache_capacity(0) // force every request through a worker
            .open_store(&dir)
            .unwrap()
            .route_with(sesr_route(), RouteConfig::default())
            .build()
            .unwrap();
        let client = gateway.client();
        let image = test_image(4, 8);
        // Sequential submissions land on whichever worker is free; identical
        // outputs prove the pool hydrated identical weights.
        let first = client
            .defend_blocking(DefenseRequest::new(image.clone()))
            .unwrap();
        for _ in 0..6 {
            let next = client
                .defend_blocking(DefenseRequest::new(image.clone()))
                .unwrap();
            assert_eq!(first.defended, next.defended);
        }
        // And those outputs are the stored network's, not the seeded fallback.
        let fallback = DefensePipeline::new(
            PreprocessConfig::none(),
            SrModelKind::SesrM2.build_seeded_upscaler(2, 0).unwrap(),
        )
        .defend(&image)
        .unwrap();
        assert_ne!(first.defended, fallback);
        drop(client);
        gateway.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn start_from_store_rejects_a_corrupt_artifact() {
        let (dir, artifact) = seeded_store("corrupt", 1);
        let mut bytes = std::fs::read(&artifact.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&artifact.path, &bytes).unwrap();
        let result = GatewayBuilder::new()
            .open_store(&dir)
            .unwrap()
            .route(sesr_route())
            .build();
        assert!(
            matches!(result, Err(ServeError::Pipeline(_))),
            "a corrupt artifact must abort startup, not serve damaged weights"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_joins_cleanly_and_closes_the_queue() {
        let gateway = nearest_gateway(RouteConfig::default());
        let client = gateway.client();
        client
            .defend_blocking(DefenseRequest::new(test_image(2, 8)))
            .unwrap();
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn zero_worker_config_is_rejected() {
        let config = RouteConfig {
            num_workers: 0,
            ..RouteConfig::default()
        };
        assert!(matches!(
            GatewayBuilder::new()
                .route_with(nearest_route(), config)
                .build(),
            Err(ServeError::InvalidRequest(_))
        ));
    }
}
