//! Routed-request types: which defense a request wants, and how it wants it
//! served.
//!
//! A [`RouteKey`] names one deployed defense variant — SR model, upscaling
//! factor and preprocessing — and is the unit of isolation in the gateway:
//! every key gets its own bounded queue and worker shard, and the
//! output cache is keyed by `(RouteKey, content-hash)`. A [`DefenseRequest`]
//! bundles an image with an optional route (falling back to the gateway's
//! default) and per-request options (`skip_cache`, a soft deadline).

use sesr_defense::pipeline::PreprocessConfig;
use sesr_models::SrModelKind;
use sesr_tensor::Tensor;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Identity of one deployed defense variant: `(model, scale, preprocess)`.
///
/// Equality and hashing are bit-exact over the configuration (f32 fields
/// compare by bit pattern), so a key round-trips through a `HashMap` exactly
/// and two keys are the same route if and only if they would compute the same
/// defense.
#[derive(Debug, Clone, Copy)]
pub struct RouteKey {
    /// The SR network (or interpolation baseline) defending this route.
    pub model: SrModelKind,
    /// Upscaling factor (the paper uses ×2 everywhere; learned local
    /// networks are ×2-only).
    pub scale: usize,
    /// The non-learned preprocessing stages run before upscaling.
    pub preprocess: PreprocessConfig,
}

impl RouteKey {
    /// A route with an explicit preprocessing configuration.
    pub fn new(model: SrModelKind, scale: usize, preprocess: PreprocessConfig) -> Self {
        RouteKey {
            model,
            scale,
            preprocess,
        }
    }

    /// A route running the paper's full JPEG + wavelet preprocessing.
    pub fn paper(model: SrModelKind, scale: usize) -> Self {
        RouteKey::new(model, scale, PreprocessConfig::paper())
    }

    /// Compact stable identity string, e.g. `"sesr-m2:x2:jpeg75+wavelet2"`;
    /// used in error messages, stats breakdowns and logs.
    pub fn label(&self) -> String {
        format!(
            "{}:x{}:{}",
            self.model.slug(),
            self.scale,
            self.preprocess.label()
        )
    }

    /// Parse a label produced by [`RouteKey::label`] back into a key — the
    /// exact inverse, so `RouteKey::parse(&key.label()) == Some(key)`.
    /// Returns `None` for labels no route can emit. This is how cluster
    /// tooling (worker bins, traffic generators) turns the wire's string
    /// route names back into typed keys.
    pub fn parse(label: &str) -> Option<RouteKey> {
        let mut parts = label.splitn(3, ':');
        let model = SrModelKind::parse(parts.next()?)?;
        let scale = parts.next()?.strip_prefix('x')?.parse().ok()?;
        let preprocess = PreprocessConfig::parse_label(parts.next()?)?;
        Some(RouteKey {
            model,
            scale,
            preprocess,
        })
    }

    /// The fields that define route identity, with f32s reduced to bit
    /// patterns so `Eq`/`Hash` agree and stay total.
    fn identity(&self) -> (SrModelKind, usize, Option<u8>, Option<(usize, u32)>) {
        (
            self.model,
            self.scale,
            self.preprocess.jpeg.map(|j| j.quality),
            self.preprocess
                .wavelet
                .map(|w| (w.levels, w.threshold_scale.to_bits())),
        )
    }
}

impl PartialEq for RouteKey {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for RouteKey {}

impl Hash for RouteKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

impl std::fmt::Display for RouteKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Per-route tuning knobs: each route owns an independent copy of the
/// queue → workers shard, so a hot model saturates its own queue without
/// starving the others.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Worker threads for this route, each owning a private pipeline
    /// (default 2).
    pub num_workers: usize,
    /// Maximum images coalesced into one defend call (default 8).
    pub max_batch: usize,
    /// Longest a worker waits for more jobs after taking the first;
    /// already-queued jobs join regardless (default 1 ms; `Duration::ZERO`
    /// batches only what is already queued).
    pub max_linger: Duration,
    /// Bounded submission-queue capacity; submissions beyond it are rejected
    /// with `ServeError::Overloaded` (default 64). A route's shard therefore
    /// holds at most `queue_capacity + num_workers × max_batch` accepted,
    /// unanswered jobs.
    pub queue_capacity: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            num_workers: 2,
            max_batch: 8,
            max_linger: Duration::from_millis(1),
            queue_capacity: 64,
        }
    }
}

impl RouteConfig {
    pub(crate) fn validate(&self) -> Result<(), crate::server::ServeError> {
        if self.num_workers == 0 || self.max_batch == 0 || self.queue_capacity == 0 {
            return Err(crate::server::ServeError::InvalidRequest(
                "num_workers, max_batch and queue_capacity must all be positive".to_string(),
            ));
        }
        Ok(())
    }
}

/// One routed request: an image, the route that should defend it, and
/// per-request serving options.
#[derive(Debug, Clone)]
pub struct DefenseRequest {
    pub(crate) image: Tensor,
    pub(crate) route: Option<RouteKey>,
    pub(crate) skip_cache: bool,
    pub(crate) deadline: Option<Duration>,
    pub(crate) claimed_hash: Option<u64>,
}

impl DefenseRequest {
    /// A request for the gateway's default route with default options.
    pub fn new(image: Tensor) -> Self {
        DefenseRequest {
            image,
            route: None,
            skip_cache: false,
            deadline: None,
            claimed_hash: None,
        }
    }

    /// Route the request to a specific defense variant instead of the
    /// gateway default.
    pub fn on(mut self, route: RouteKey) -> Self {
        self.route = Some(route);
        self
    }

    /// Bypass the output cache for this request (both lookup and insert):
    /// the defense always recomputes, e.g. for freshness probes.
    pub fn skip_cache(mut self) -> Self {
        self.skip_cache = true;
        self
    }

    /// Give the request a soft deadline measured from submission: a job
    /// still waiting in the queue when the deadline passes is answered with
    /// `ServeError::DeadlineExceeded` instead of being defended late. A
    /// deadline too far away to represent as an `Instant` means no deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach the [`content_hash`](crate::content_hash) the sender claims
    /// for the image (a wire request carries one). Submission checks the
    /// claim against the hash it computes anyway for the cache key, so the
    /// image is hashed once, and refuses a mismatch with
    /// `ServeError::HashMismatch` before anything is queued.
    pub fn claiming_hash(mut self, content_hash: u64) -> Self {
        self.claimed_hash = Some(content_hash);
        self
    }

    /// The image to defend.
    pub fn image(&self) -> &Tensor {
        &self.image
    }

    /// The explicit route, if any (`None` = gateway default).
    pub fn route(&self) -> Option<RouteKey> {
        self.route
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_tensor::Shape;
    use std::collections::HashMap;

    #[test]
    fn route_keys_hash_by_full_identity() {
        let mut map: HashMap<RouteKey, u32> = HashMap::new();
        map.insert(RouteKey::paper(SrModelKind::SesrM2, 2), 1);
        map.insert(RouteKey::paper(SrModelKind::SesrM3, 2), 2);
        map.insert(RouteKey::paper(SrModelKind::SesrM2, 4), 3);
        map.insert(
            RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none()),
            4,
        );
        assert_eq!(map.len(), 4, "model, scale and preprocess all distinguish");
        assert_eq!(map[&RouteKey::paper(SrModelKind::SesrM2, 2)], 1);
    }

    #[test]
    fn labels_are_compact_and_stable() {
        assert_eq!(
            RouteKey::paper(SrModelKind::SesrM2, 2).label(),
            "sesr-m2:x2:jpeg75+wavelet2"
        );
        assert_eq!(
            RouteKey::new(SrModelKind::Bicubic, 4, PreprocessConfig::none()).to_string(),
            "bicubic:x4:raw"
        );
    }

    #[test]
    fn parse_round_trips_every_label_shape() {
        let mut tuned = PreprocessConfig::without_jpeg();
        tuned.wavelet.as_mut().unwrap().threshold_scale = 1.5;
        let keys = [
            RouteKey::paper(SrModelKind::SesrM2, 2),
            RouteKey::new(SrModelKind::Bicubic, 4, PreprocessConfig::none()),
            RouteKey::new(
                SrModelKind::NearestNeighbor,
                2,
                PreprocessConfig::without_jpeg(),
            ),
            RouteKey::new(SrModelKind::SesrM5, 2, tuned),
        ];
        for key in keys {
            assert_eq!(RouteKey::parse(&key.label()), Some(key), "{}", key.label());
        }
    }

    #[test]
    fn parse_rejects_malformed_labels() {
        for bad in [
            "",
            "sesr-m2",
            "sesr-m2:x2",
            "sesr-m2:2:raw",        // missing the 'x' scale prefix
            "sesr-m2:xtwo:raw",     // non-numeric scale
            "not-a-model:x2:raw",   // unknown model
            "sesr-m2:x2:jpg75",     // unknown preprocess stage
            "sesr-m2:x2:raw:extra", // trailing segment folds into preprocess
        ] {
            assert_eq!(RouteKey::parse(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn request_builder_sets_options() {
        let image = Tensor::zeros(Shape::new(&[1, 3, 4, 4]));
        let route = RouteKey::paper(SrModelKind::Fsrcnn, 2);
        let request = DefenseRequest::new(image)
            .on(route)
            .skip_cache()
            .with_deadline(Duration::from_millis(5));
        assert_eq!(request.route(), Some(route));
        assert!(request.skip_cache);
        assert_eq!(request.deadline, Some(Duration::from_millis(5)));
        assert_eq!(request.image().shape().dims(), &[1, 3, 4, 4]);
    }
}
