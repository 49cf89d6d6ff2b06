//! Where admitted requests go: the reactor is generic over a [`Backend`].
//!
//! The reactor owns sockets, framing and admission control; a backend owns
//! everything after admission — route resolution, execution and replies.
//! Two implementations exist:
//!
//! - [`LocalBackend`] (here): submits to an in-process
//!   [`DefenseGateway`](sesr_serve::DefenseGateway) through a
//!   [`GatewayClient`]. This is what [`NetServer::bind`](crate::NetServer::bind)
//!   wires up, and what a cluster *worker* process runs.
//! - `ClusterBackend` (in `sesr-cluster`): consistent-hashes each request to
//!   an owning worker process and forwards it over this same wire protocol.
//!
//! Images cross this boundary still in their wire encoding
//! ([`EncodedTensor`]) and replies leave it as encoded frames
//! ([`ResponseFrame`]), so a tier that only relays never converts a tensor.
//! The content hash is verified once, by the tier that decodes the image:
//! [`LocalBackend`] hands the claim to the gateway with the request, the
//! gateway checks it against the hash it computes for the cache key anyway
//! (one hash per request), and the backend counts failures in
//! `net.hash_mismatch`; a cluster front forwards the claim untouched and
//! its member checks it.
//!
//! The contract is poll-driven to match the reactor's non-blocking sweep:
//! [`Backend::submit`] never blocks (it returns a ticket or an immediate
//! shed reply), [`Backend::poll`] is called every sweep per in-flight
//! ticket, and [`Backend::pump`] gives the backend one chance per sweep to
//! drive its own I/O (a local gateway needs none; a cluster router flushes
//! and reads member connections there).

use crate::wire::{self, EncodedTensor, ResponseBody, ResponseFrame, RetryReason};
use sesr_serve::{ArtifactId, DefenseRequest, GatewayClient, PendingResponse, RouteKey};
use sesr_telemetry::{Counter, HealthState, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// One admitted request, after the reactor's structural and rate-limit
/// checks, before route resolution.
#[derive(Debug, Clone)]
pub struct BackendRequest {
    /// Route label; empty means the backend's default route.
    pub route: String,
    /// Soft deadline in ms from receipt; 0 = none.
    pub deadline_ms: u32,
    /// Bypass output caches.
    pub skip_cache: bool,
    /// The [`content_hash`](sesr_serve::content_hash) the client claims for
    /// `image`. It is verified once, where the image is decoded and hashed
    /// ([`LocalBackend`]'s gateway); a cluster router forwards it unchecked
    /// and hashes `(route, content_hash)` onto its ring so cache affinity
    /// survives scale-out.
    pub content_hash: u64,
    /// The image to defend, still in its wire encoding.
    pub image: EncodedTensor,
}

impl BackendRequest {
    /// Append this request to `out` as a wire request frame with
    /// correlation id `id`: a fresh header and head fields in front of the
    /// image bytes, copied untouched.
    pub fn encode_into(&self, id: u64, out: &mut Vec<u8>) {
        wire::push_encoded_request(
            out,
            id,
            &self.route,
            self.deadline_ms,
            self.skip_cache,
            self.content_hash,
            &self.image,
        );
    }
}

/// What [`Backend::submit`] did with a request.
#[derive(Debug)]
pub enum Submit {
    /// Accepted; poll [`Backend::poll`] with this ticket until it answers.
    Ticket(u64),
    /// Answered immediately (shed, unknown route, …).
    Reply(ResponseBody),
}

/// The execution side of a [`NetServer`](crate::NetServer): resolves and
/// runs admitted requests, answers stats and reload frames.
///
/// All methods are called from the reactor thread only, so implementations
/// need no internal locking for per-request state.
pub trait Backend: Send + 'static {
    /// The telemetry hub `net.*` metrics register into and stats frames
    /// snapshot from.
    fn telemetry(&self) -> Arc<Telemetry>;

    /// Whether `label` names a route this backend serves. The reactor
    /// answers `UnknownRoute` for anything else before submitting.
    fn has_route(&self, label: &str) -> bool;

    /// Submit one admitted request without blocking.
    fn submit(&mut self, request: BackendRequest) -> Submit;

    /// Poll one in-flight ticket; `Some` exactly once, when the reply is
    /// ready. The ticket is dead afterwards. The frame's id is the
    /// backend's own; the reactor rewrites it to the client's.
    fn poll(&mut self, ticket: u64) -> Option<ResponseFrame>;

    /// Drop an in-flight ticket whose connection died; the eventual result
    /// is discarded.
    fn forget(&mut self, ticket: u64);

    /// Drive backend-side I/O once per sweep; returns true if any progress
    /// was made (used for the reactor's idle backoff).
    fn pump(&mut self) -> bool {
        false
    }

    /// Handle a wire reload frame: hot-reload `route` (empty = every
    /// reloadable route) from the stored artifact `pin` names, or from the
    /// newest when `pin` is `None`. Returns a human-readable success
    /// message.
    ///
    /// # Errors
    ///
    /// A human-readable reason when nothing could be reloaded: an unknown
    /// route, a pin without a route, or a failed rebuild.
    fn reload(&mut self, route: &str, pin: Option<ArtifactId>) -> Result<String, String>;

    /// The stats-frame payload: a telemetry snapshot as JSON.
    fn stats_json(&self) -> String;
}

/// In-flight bookkeeping for [`LocalBackend`]: the pending reply plus the
/// route it was submitted on (for health-aware shed reasons).
struct LocalInflight {
    pending: PendingResponse,
    route: Option<RouteKey>,
}

/// A [`Backend`] that executes requests on an in-process gateway.
pub struct LocalBackend {
    client: GatewayClient,
    routes: HashMap<String, RouteKey>,
    inflight: HashMap<u64, LocalInflight>,
    next_ticket: u64,
    overload_retry_after: Duration,
    hash_mismatch: Arc<Counter>,
}

impl LocalBackend {
    /// Wrap `client`; `overload_retry_after` is the backoff hint attached
    /// to overload sheds (mirrors
    /// [`NetConfig::overload_retry_after`](crate::NetConfig)).
    pub fn new(client: GatewayClient, overload_retry_after: Duration) -> LocalBackend {
        let routes = client
            .routes()
            .into_iter()
            .map(|key| (key.label(), key))
            .collect();
        let hash_mismatch = client.telemetry().metrics().counter("net.hash_mismatch");
        LocalBackend {
            client,
            routes,
            inflight: HashMap::new(),
            next_ticket: 1,
            overload_retry_after,
            hash_mismatch,
        }
    }

    /// Map a submit- or poll-time [`ServeError`](sesr_serve::ServeError) to
    /// its wire reply. `Overloaded` — whether from a full queue or an SLO
    /// health shed — becomes a structured retry-after instead of a dropped
    /// connection; a wrong content-hash claim is counted in
    /// `net.hash_mismatch` and answered `InvalidRequest`.
    fn shed_body(&self, route: Option<RouteKey>, err: sesr_serve::ServeError) -> ResponseBody {
        use sesr_serve::ServeError;
        match err {
            ServeError::Overloaded => {
                let route = route.unwrap_or_else(|| self.client.default_route());
                let reason = match self.client.route_health(&route) {
                    Ok(HealthState::Unhealthy) => RetryReason::Unhealthy,
                    _ => RetryReason::Overloaded,
                };
                ResponseBody::RetryAfter {
                    retry_after_ms: u32::try_from(self.overload_retry_after.as_millis().max(1))
                        .unwrap_or(u32::MAX),
                    reason,
                }
            }
            ServeError::DeadlineExceeded => ResponseBody::DeadlineExceeded,
            ServeError::UnknownRoute(label) => ResponseBody::UnknownRoute(label),
            ServeError::InvalidRequest(msg) => ResponseBody::InvalidRequest(msg),
            ServeError::HashMismatch => {
                self.hash_mismatch.incr();
                ResponseBody::InvalidRequest(ServeError::HashMismatch.to_string())
            }
            ServeError::Pipeline(msg) => ResponseBody::PipelineError(msg),
            ServeError::Closed => ResponseBody::Closed,
        }
    }
}

impl Backend for LocalBackend {
    fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(self.client.telemetry())
    }

    fn has_route(&self, label: &str) -> bool {
        self.routes.contains_key(label)
    }

    fn submit(&mut self, request: BackendRequest) -> Submit {
        let route_key = if request.route.is_empty() {
            None
        } else {
            match self.routes.get(&request.route) {
                Some(key) => Some(*key),
                None => return Submit::Reply(ResponseBody::UnknownRoute(request.route)),
            }
        };
        let image = match request.image.decode() {
            Ok(image) => image,
            Err(err) => return Submit::Reply(ResponseBody::InvalidRequest(err.to_string())),
        };
        // Integrity: the gateway refuses a claim that does not match the
        // payload. This catches corruption *and* keeps the cache keys (and
        // a cluster front's ring placement, made from the claim) honest.
        let mut defense = DefenseRequest::new(image).claiming_hash(request.content_hash);
        if let Some(key) = route_key {
            defense = defense.on(key);
        }
        if request.skip_cache {
            defense = defense.skip_cache();
        }
        if request.deadline_ms > 0 {
            defense = defense.with_deadline(Duration::from_millis(u64::from(request.deadline_ms)));
        }
        match self.client.submit(defense) {
            Ok(pending) => {
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                self.inflight.insert(
                    ticket,
                    LocalInflight {
                        pending,
                        route: route_key,
                    },
                );
                Submit::Ticket(ticket)
            }
            Err(err) => Submit::Reply(self.shed_body(route_key, err)),
        }
    }

    fn poll(&mut self, ticket: u64) -> Option<ResponseFrame> {
        let entry = self.inflight.get_mut(&ticket)?;
        let result = entry.pending.try_wait()?;
        let route = entry.route;
        self.inflight.remove(&ticket);
        let body = match result {
            Ok(response) => ResponseBody::Ok {
                cache_hit: response.cache_hit,
                label: response.label.map(|l| l as u64),
                defended: response.defended,
            },
            Err(err) => self.shed_body(route, err),
        };
        Some(ResponseFrame::encode(ticket, &body))
    }

    fn forget(&mut self, ticket: u64) {
        self.inflight.remove(&ticket);
    }

    fn reload(&mut self, route: &str, pin: Option<ArtifactId>) -> Result<String, String> {
        let targets: Vec<RouteKey> = if route.is_empty() {
            if pin.is_some() {
                return Err("a pinned reload names one route".to_string());
            }
            self.routes.values().copied().collect()
        } else {
            match self.routes.get(route) {
                Some(key) => vec![*key],
                None => return Err(format!("unknown route {route}")),
            }
        };
        let mut reloaded = 0usize;
        let mut errors: Vec<String> = Vec::new();
        for key in targets {
            match self.client.reload(&key, pin) {
                Ok(()) => reloaded += 1,
                Err(err) => errors.push(format!("{}: {err}", key.label())),
            }
        }
        if errors.is_empty() {
            Ok(format!("reloaded {reloaded} route(s)"))
        } else {
            Err(errors.join("; "))
        }
    }

    fn stats_json(&self) -> String {
        self.client.telemetry_snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_serve::GatewayBuilder;

    #[test]
    fn local_backend_resolves_routes_and_answers() {
        let gateway = GatewayBuilder::new()
            .route(RouteKey::new(
                sesr_models::SrModelKind::NearestNeighbor,
                2,
                sesr_defense::pipeline::PreprocessConfig::none(),
            ))
            .build()
            .expect("interpolation gateway");
        let client = gateway.client();
        let default_label = client.routes()[0].label();
        let mut backend = LocalBackend::new(client, Duration::from_millis(25));
        assert!(backend.has_route(&default_label));
        assert!(!backend.has_route("nope:x2:raw"));

        let image = sesr_tensor::Tensor::full(sesr_tensor::Shape::new(&[1, 3, 6, 6]), 0.25);
        let request = BackendRequest {
            route: String::new(),
            deadline_ms: 0,
            skip_cache: false,
            content_hash: sesr_serve::content_hash(&image, ""),
            image: EncodedTensor::encode(&image),
        };
        let ticket = match backend.submit(request) {
            Submit::Ticket(ticket) => ticket,
            Submit::Reply(body) => panic!("default route must admit, got {body:?}"),
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let body = loop {
            if let Some(frame) = backend.poll(ticket) {
                break frame.decode().expect("a backend encodes valid frames").body;
            }
            assert!(std::time::Instant::now() < deadline, "reply never arrived");
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(matches!(body, ResponseBody::Ok { .. }));
        // The ticket is dead after answering.
        assert!(backend.poll(ticket).is_none());

        assert!(backend.reload("nope:x2:raw", None).is_err());
        // The backend holds a GatewayClient clone; release it before
        // shutdown or the join below waits forever.
        drop(backend);
        gateway.shutdown();
    }
}
