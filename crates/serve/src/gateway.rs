//! The multi-model defense gateway: routed requests, per-model worker
//! shards, health-gated admission and the builder that declares routes.
//!
//! One [`DefenseGateway`] serves the whole model zoo at once. Each declared
//! [`RouteKey`] — `(SR model, scale, preprocess)` — owns a private shard
//! (bounded queue → batching worker pool), so a hot route saturates
//! its own queue and sheds its own load while every other route keeps its
//! full capacity. Clients submit typed [`DefenseRequest`]s through a
//! cloneable [`GatewayClient`]; requests without an explicit route go to the
//! gateway's default route.
//!
//! ```text
//!                         ┌────────────────── DefenseGateway ──────────────────┐
//!                         │                 ┌─ shard sesr-m2:x2 ─────────────┐ │
//! DefenseRequest ─────────┼─► route table ──┤ queue → workers                │ │
//! { image, RouteKey,      │   (HashMap)     └────────────────────────────────┘ │
//!   skip_cache, deadline }│                 ┌─ shard fsrcnn:x2 ──────────────┐ │
//!                         │            ├────┤ queue → workers                │ │
//!        UnknownRoute ◄───┤ miss       │    └────────────────────────────────┘ │
//!                         │            └──► ... one shard per declared route   │
//!                         │                                                    │
//!                         │   shared LRU cache keyed by (RouteKey, hash)       │
//!                         │   route.* metrics; gateway.* derived at snapshot   │
//!                         └────────────────────────────────────────────────────┘
//! ```
//!
//! A route's workers come from one of two sources. A **store-hydrated**
//! route ([`GatewayBuilder::route`], [`GatewayBuilder::route_with`],
//! [`GatewayBuilder::routes_from_store`]) builds every worker from one
//! resolved artifact of the attached store, or from the builder's seed when
//! nothing is stored. A **factory-built** route
//! ([`GatewayBuilder::route_with_factory`]) calls its factory once per
//! worker; the store never reaches it. Both are hot-reloadable: the
//! `reload` module rebuilds, swaps and drains a route, and holds the
//! [`ReloadWatcher`].
//!
//! Every serving event is recorded once, on its route
//! (`route.<label>.*`); [`GatewayClient::telemetry_snapshot`] derives the
//! gateway-wide `gateway.*` totals from them.

// lint: allow-file(atomic-ordering): request ids; the swap/drain protocol these back is modeled in sesr-verify (models::swap)

use crate::promotion::ArtifactId;
pub use crate::reload::ReloadWatcher;
use crate::reload::{reload_route, RouteSource};
use crate::route::{DefenseRequest, RouteConfig, RouteKey};
use crate::server::{PendingResponse, ServeError, WorkerAssets};
use crate::shard::{spawn_shard, CacheKey, Job, SharedCache};
use crate::stats::{add_gateway_totals, Stat, StatsRecorder};
use crate::telemetry::{ArenaGauges, StageProbes, TelemetryExporter};
use crate::{content_hash, LruCache};
use sesr_models::SrModelKind;
use sesr_store::ModelStore;
use sesr_telemetry::{Counter, Gauge, HealthState, Level, Probe, Telemetry, TelemetrySnapshot};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-worker asset factory: called with the worker index at build and
/// reload time.
pub type WorkerFactory = Box<dyn FnMut(usize) -> sesr_tensor::Result<WorkerAssets> + Send>;

/// One declared route: its immutable configuration, the source that
/// (re)builds its workers, and the currently active shard.
pub(crate) struct RouteEntry {
    pub(crate) config: RouteConfig,
    /// How the route's workers are (re)built. Held across a whole rebuild,
    /// so rebuilds of one route run one at a time.
    pub(crate) source: Mutex<RouteSource>,
    /// The route's serving stats — the only place its serving events are
    /// recorded; survives reloads so the figures cover the route's whole
    /// lifetime.
    pub(crate) stats: Arc<StatsRecorder>,
    /// Per-route stage probes (`route.<label>.stage.*_ns`); like the stats,
    /// they survive reloads.
    pub(crate) stages: Arc<StageProbes>,
    /// Per-worker arena gauges (`route.<label>.arena.w<i>.*`), handed to
    /// every shard the route spawns.
    pub(crate) arenas: Vec<ArenaGauges>,
    /// The live shard's submission sender; hot reload swaps it under a brief
    /// write lock. The queue closes when the last clone drops, which is what
    /// lets a retired shard drain instead of dropping in-flight jobs.
    pub(crate) active: RwLock<SyncSender<Job>>,
    /// Worker join handles of the active shard (taken on retire/shutdown).
    pub(crate) threads: Mutex<Option<Vec<JoinHandle<()>>>>,
    /// The route's serving health as set by an SLO runtime
    /// ([`crate::slo::SloRuntime`]): the `route.<label>.health` gauge,
    /// holding a [`HealthState`] discriminant, so admission reads it with
    /// one relaxed load.
    health: Arc<Gauge>,
}

impl RouteEntry {
    /// The route's current serving health.
    fn health(&self) -> HealthState {
        HealthState::from_u8(u8::try_from(self.health.get()).unwrap_or(u8::MAX))
    }
}

/// Journal probes and counters for gateway lifecycle events (hot reloads,
/// health-driven sheds and promotion gating).
pub(crate) struct LifecycleProbes {
    /// Successful route promotion; duration = whole rebuild-swap-drain cycle,
    /// mirrored into the `gateway.reload_ns` histogram.
    pub(crate) reload: Probe,
    /// Failed reload attempt (the old shard keeps serving).
    pub(crate) reload_failed: Probe,
    /// Promotion refused because the target route was not Healthy.
    pub(crate) reload_refused: Probe,
    /// Post-promotion rollback: health collapsed inside the probation
    /// window, so the watcher re-pinned the prior artifact.
    pub(crate) reload_demoted: Probe,
    /// Submission shed at admission because its route was Unhealthy.
    shed: Probe,
    pub(crate) reloads: Arc<Counter>,
    pub(crate) reload_failures: Arc<Counter>,
    pub(crate) reload_refusals: Arc<Counter>,
    pub(crate) reload_demotions: Arc<Counter>,
}

pub(crate) struct GatewayShared {
    pub(crate) routes: HashMap<RouteKey, Arc<RouteEntry>>,
    /// Declaration order, for stable stats/iteration output.
    pub(crate) order: Vec<RouteKey>,
    default_route: RouteKey,
    pub(crate) cache: SharedCache,
    pub(crate) cache_enabled: bool,
    /// The attached artifact store, reporting into this gateway's hub.
    pub(crate) store: Option<ModelStore>,
    /// The hub every metric and journal event of this gateway lands in.
    telemetry: Arc<Telemetry>,
    /// Monotonic request-id source; ids tag journal events end to end.
    request_ids: AtomicU64,
    pub(crate) lifecycle: LifecycleProbes,
}

/// The running multi-model serving engine; owns every route shard.
pub struct DefenseGateway {
    shared: Arc<GatewayShared>,
}

/// Cloneable submission/administration handle to a running
/// [`DefenseGateway`].
#[derive(Clone)]
pub struct GatewayClient {
    pub(crate) shared: Arc<GatewayShared>,
}

pub(crate) fn entry_for<'a>(
    shared: &'a GatewayShared,
    route: &RouteKey,
) -> Result<&'a RouteEntry, ServeError> {
    shared
        .routes
        .get(route)
        .map(Arc::as_ref)
        .ok_or_else(|| ServeError::UnknownRoute(route.label()))
}

fn submit_to(
    shared: &GatewayShared,
    request: DefenseRequest,
) -> Result<PendingResponse, ServeError> {
    let started = Instant::now();
    let DefenseRequest {
        image,
        route,
        skip_cache,
        deadline,
        claimed_hash,
    } = request;
    // One hash per request serves both the claim check and the cache key.
    let use_cache = shared.cache_enabled && !skip_cache;
    let hash = (use_cache || claimed_hash.is_some()).then(|| content_hash(&image, ""));
    if claimed_hash.is_some() && claimed_hash != hash {
        return Err(ServeError::HashMismatch);
    }
    let (n, _, _, _) = image
        .shape()
        .as_nchw()
        .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
    if n != 1 {
        return Err(ServeError::InvalidRequest(format!(
            "submit expects a single-image [1, C, H, W] batch, got batch size {n}"
        )));
    }

    let route = route.unwrap_or(shared.default_route);
    let entry = entry_for(shared, &route)?;
    let request_id = shared.request_ids.fetch_add(1, Ordering::Relaxed);

    // Health-gated admission: an Unhealthy route sheds load *before* the
    // cache lookup and queue, so a melting-down shard is not kept warm by
    // fresh traffic. Sheds are journaled and counted separately from queue
    // rejections — they are a policy decision, not an error-budget event —
    // which is what lets the route look clean and recover once the SLO
    // engine sees load drop.
    if entry.health() == HealthState::Unhealthy {
        entry.stats.add(Stat::Shed, 1);
        shared.lifecycle.shed.observe(request_id, started.elapsed());
        return Err(ServeError::Overloaded);
    }

    let cache_key: Option<CacheKey> = if let Some(hash) = hash.filter(|_| use_cache) {
        let key = (route, hash);
        // The cache-lookup stage covers hashing's sibling cost: the lock plus
        // the LRU probe. A poisoned guard means some other holder panicked;
        // recover it rather than cascade the panic into every submitter.
        let lookup_started = Instant::now();
        let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let cached = cache
            .get(&key)
            .map(|(defended, label)| (defended.clone(), *label));
        drop(cache);
        entry
            .stages
            .cache_lookup
            .observe(request_id, lookup_started.elapsed());
        if let Some((defended, label)) = cached {
            let response = crate::server::DefenseResponse {
                defended,
                label,
                cache_hit: true,
            };
            entry.stats.record_completion(started.elapsed(), true);
            return Ok(PendingResponse::ready(response));
        }
        Some(key)
    } else {
        None
    };

    let (responder, receiver) = mpsc::channel();
    let job = Job {
        image,
        request_id,
        enqueued: started,
        // A deadline too far away to represent is no deadline.
        deadline: deadline.and_then(|d| started.checked_add(d)),
        responder,
        cache_key,
        dequeued: None,
    };
    // Clone the live sender under a brief read lock, then send outside it so
    // a concurrent reload is never blocked behind a full queue.
    let sender = SyncSender::clone(&entry.active.read().unwrap_or_else(PoisonError::into_inner));
    match sender.try_send(job) {
        Ok(()) => {
            // Counted only once the request is actually on its way to the
            // pipeline; a rejected submission is not a cache miss.
            if cache_key.is_some() {
                entry.stats.add(Stat::CacheMisses, 1);
            }
            Ok(PendingResponse::waiting(receiver))
        }
        Err(TrySendError::Full(_)) => {
            entry.stats.add(Stat::Rejected, 1);
            Err(ServeError::Overloaded)
        }
        Err(TrySendError::Disconnected(_)) => Err(ServeError::Closed),
    }
}

/// Refresh the gateway-level cache gauges, snapshot the whole hub, then
/// derive the gateway-wide serving totals from the routes' figures. The
/// LRU's eviction count and size live behind the cache mutex, so they are
/// mirrored into gauges here — at snapshot time, off the hot path — rather
/// than on every insert.
fn telemetry_snapshot(shared: &GatewayShared) -> TelemetrySnapshot {
    if shared.cache_enabled {
        let (evictions, entries) = {
            let cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
            (cache.eviction_count(), cache.len() as u64)
        };
        let metrics = shared.telemetry.metrics();
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        metrics
            .gauge("gateway.cache.evictions")
            .set(clamp(evictions));
        metrics.gauge("gateway.cache.entries").set(clamp(entries));
    }
    let mut snapshot = shared.telemetry.snapshot();
    let labels: Vec<String> = shared.order.iter().map(RouteKey::label).collect();
    add_gateway_totals(&mut snapshot, &labels);
    snapshot
}

impl GatewayClient {
    /// Submit one routed request without blocking.
    ///
    /// On an LRU hit the returned [`PendingResponse`] is already resolved;
    /// on a miss the request is enqueued on its route's shard.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRoute`] when the request names a route the
    /// gateway does not serve, [`ServeError::Overloaded`] when that route's
    /// queue is full, [`ServeError::InvalidRequest`] for non-`[1, C, H, W]`
    /// inputs, [`ServeError::HashMismatch`] when a
    /// [claimed hash](DefenseRequest::claiming_hash) is wrong,
    /// [`ServeError::Closed`] when the gateway is gone.
    pub fn submit(&self, request: DefenseRequest) -> Result<PendingResponse, ServeError> {
        submit_to(&self.shared, request)
    }

    /// Submit and wait: the convenience path for synchronous callers.
    ///
    /// # Errors
    ///
    /// Propagates every [`ServeError`] that [`GatewayClient::submit`] or
    /// [`PendingResponse::wait`] can produce.
    pub fn defend_blocking(
        &self,
        request: DefenseRequest,
    ) -> Result<crate::server::DefenseResponse, ServeError> {
        self.submit(request)?.wait()
    }

    /// Every route the gateway serves, in declaration order.
    pub fn routes(&self) -> Vec<RouteKey> {
        self.shared.order.clone()
    }

    /// The route requests go to when they name none.
    pub fn default_route(&self) -> RouteKey {
        self.shared.default_route
    }

    /// Hot-reload one route with zero downtime and zero dropped jobs.
    ///
    /// Rebuilds the route's workers — a store-hydrated route from exactly
    /// the stored artifact `pin` names, or from the newest when `pin` is
    /// `None`, resolved once; a factory-built route through its factory —
    /// swaps the fresh shard in for new submissions, then drains and
    /// retires the old shard: every job it had already accepted still gets
    /// its response. The route's now-stale cache entries are purged; other
    /// routes are untouched throughout.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRoute`] for an unserved route and
    /// [`ServeError::Pipeline`] when rebuilding the workers fails (e.g. a
    /// corrupt artifact, or a pin no stored artifact matches — the old
    /// shard keeps serving in that case).
    pub fn reload(&self, route: &RouteKey, pin: Option<ArtifactId>) -> Result<(), ServeError> {
        reload_route(&self.shared, route, pin).map(|_| ())
    }

    /// Spawn a [`ReloadWatcher`] polling the attached store every `interval`
    /// and reloading any store-hydrated route whose newest artifact changed.
    /// If a route's health collapses to Unhealthy within
    /// [`ReloadWatcher::DEFAULT_PROBATION`] of a promotion, the watcher rolls
    /// it back to the artifact it served before.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] when the gateway was built without a
    /// store.
    pub fn watch_store(&self, interval: Duration) -> Result<ReloadWatcher, ServeError> {
        ReloadWatcher::spawn(self.clone(), interval)
    }

    /// The gateway's telemetry hub (per-route counters, gauges and stage
    /// histograms, and the event journal). Read numbers through
    /// [`GatewayClient::telemetry_snapshot`], which also carries the derived
    /// `gateway.*` totals.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Snapshot every metric and the journal, including the freshly mirrored
    /// cache gauges (`gateway.cache.*`). This is the one way to read the
    /// gateway's numbers: per-route figures (`route.<label>.*`), the
    /// gateway-wide serving totals derived from them (`gateway.completed`,
    /// `gateway.cache_hits`, `gateway.latency_ns`, …), lifecycle counters
    /// (`gateway.reloads`, …), stage histograms and the journal. Its JSON
    /// form is what `sesr-top` renders.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        telemetry_snapshot(&self.shared)
    }

    /// Spawn a background thread writing [`GatewayClient::telemetry_snapshot`]
    /// as JSON to `path` atomically — once immediately, then every
    /// `interval`, and once more on [`TelemetryExporter::stop`]. This is the
    /// polling surface `sesr-top` watches for a live view of the gateway.
    ///
    /// The exporter holds a gateway handle; like a [`ReloadWatcher`], stop it
    /// before [`DefenseGateway::shutdown`] or the shutdown join will wait.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the first snapshot (e.g. an unwritable path).
    pub fn export_telemetry(
        &self,
        path: impl Into<PathBuf>,
        interval: Duration,
    ) -> std::io::Result<TelemetryExporter> {
        let shared = Arc::clone(&self.shared);
        let errors = shared
            .telemetry
            .metrics()
            .counter("telemetry.export.errors");
        TelemetryExporter::spawn(path.into(), interval, Some(errors), move || {
            telemetry_snapshot(&shared)
        })
    }

    /// One route's current serving health, as last set by an SLO runtime
    /// ([`crate::slo::SloRuntime`]). Routes start [`HealthState::Healthy`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRoute`] when the gateway does not serve `route`.
    pub fn route_health(&self, route: &RouteKey) -> Result<HealthState, ServeError> {
        let entry = entry_for(&self.shared, route)?;
        Ok(entry.health())
    }

    /// Set one route's health (SLO runtime only): the `route.<label>.health`
    /// gauge admission reads.
    pub(crate) fn set_route_health(
        &self,
        route: &RouteKey,
        state: HealthState,
    ) -> Result<(), ServeError> {
        let entry = entry_for(&self.shared, route)?;
        entry.health.set(i64::from(state.as_u8()));
        Ok(())
    }

    /// The position of `route` in declaration order — the stable integer
    /// journal events use as their `request` field to identify a route
    /// (journal event names must be `'static`, so labels cannot be used).
    pub(crate) fn route_index(&self, route: &RouteKey) -> Option<u64> {
        self.shared
            .order
            .iter()
            .position(|key| key == route)
            .map(|index| index as u64)
    }
}

impl DefenseGateway {
    /// A cloneable submission/administration handle.
    pub fn client(&self) -> GatewayClient {
        GatewayClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshot every metric and the journal; see
    /// [`GatewayClient::telemetry_snapshot`].
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        telemetry_snapshot(&self.shared)
    }

    /// Stop every shard and join all threads.
    ///
    /// Drop every outstanding [`GatewayClient`] clone (and stop any
    /// [`ReloadWatcher`]) first, otherwise the submission channels stay open
    /// and the join blocks.
    pub fn shutdown(self) {
        let DefenseGateway { shared } = self;
        let workers: Vec<JoinHandle<()>> = shared
            .order
            .iter()
            .filter_map(|key| {
                shared.routes[key]
                    .threads
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
            })
            .flatten()
            .collect();
        // Dropping the last strong reference releases every shard's
        // submission sender; the workers then drain and exit.
        drop(shared);
        for worker in workers {
            let _ = worker.join();
        }
    }
}

struct RouteDecl {
    key: RouteKey,
    config: RouteConfig,
    /// `None` for a store-hydrated route.
    factory: Option<WorkerFactory>,
}

/// Declarative constructor for a [`DefenseGateway`]: routes (explicit, or
/// everything servable in a [`ModelStore`]), per-route worker counts and
/// queue depths, the default route, cache capacity and the weight seed.
pub struct GatewayBuilder {
    routes: Vec<RouteDecl>,
    default_route: Option<RouteKey>,
    cache_capacity: usize,
    seed: u64,
    store: Option<ModelStore>,
}

impl Default for GatewayBuilder {
    fn default() -> Self {
        GatewayBuilder::new()
    }
}

impl GatewayBuilder {
    /// An empty builder: no routes, a 256-entry cache, seed 0, no store.
    pub fn new() -> Self {
        GatewayBuilder {
            routes: Vec::new(),
            default_route: None,
            cache_capacity: 256,
            seed: 0,
            store: None,
        }
    }

    /// Shared LRU capacity in defended images across all routes; 0 disables
    /// caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Seed for deterministic worker construction (the fallback weights of
    /// store-hydrated learned routes with nothing stored).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a trained-weight store: store-hydrated routes build their
    /// workers from its artifacts (one validated read per build),
    /// [`GatewayBuilder::routes_from_store`] enumerates it, and hot reload
    /// re-resolves artifacts in it.
    pub fn with_store(mut self, store: ModelStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Open and attach the store rooted at `path`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Pipeline`] when the store root cannot be created.
    pub fn open_store(self, path: impl AsRef<Path>) -> Result<Self, ServeError> {
        let store = ModelStore::open(path.as_ref().to_path_buf())
            .map_err(|e| ServeError::Pipeline(e.to_string()))?;
        Ok(self.with_store(store))
    }

    /// Declare a store-hydrated route with the default [`RouteConfig`].
    pub fn route(self, key: RouteKey) -> Self {
        self.route_with(key, RouteConfig::default())
    }

    /// Declare a store-hydrated route with an explicit per-route
    /// configuration.
    pub fn route_with(mut self, key: RouteKey, config: RouteConfig) -> Self {
        self.routes.push(RouteDecl {
            key,
            config,
            factory: None,
        });
        self
    }

    /// Declare a route whose workers come from `factory(worker_index)` —
    /// the escape hatch for custom pipelines (wrapped upscalers, classifier
    /// stages, weights from elsewhere). The factory is retained, so the
    /// route stays reloadable; the store never reaches it.
    pub fn route_with_factory(
        mut self,
        key: RouteKey,
        config: RouteConfig,
        factory: impl FnMut(usize) -> sesr_tensor::Result<WorkerAssets> + Send + 'static,
    ) -> Self {
        self.routes.push(RouteDecl {
            key,
            config,
            factory: Some(Box::new(factory)),
        });
        self
    }

    /// Declare one route (default config, paper preprocessing, ×2) for every
    /// servable SR model in the attached store: every stored model id that
    /// parses as an [`SrModelKind`] and has at least one ×2 artifact.
    /// Classifier artifacts and already-declared routes are skipped.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] when no store is attached,
    /// [`ServeError::Pipeline`] on store-scan failure.
    pub fn routes_from_store(mut self) -> Result<Self, ServeError> {
        let store = self.store.as_ref().ok_or_else(|| {
            ServeError::InvalidRequest(
                "routes_from_store requires a store (GatewayBuilder::with_store)".to_string(),
            )
        })?;
        let mut discovered = Vec::new();
        for model_id in store
            .list_model_ids()
            .map_err(|e| ServeError::Pipeline(e.to_string()))?
        {
            let Some(model) = SrModelKind::parse(&model_id) else {
                continue; // not an SR artifact (e.g. a stored classifier)
            };
            let versions = store
                .list_versions(&model_id, 2)
                .map_err(|e| ServeError::Pipeline(e.to_string()))?;
            if !versions.is_empty() {
                discovered.push(RouteKey::paper(model, 2));
            }
        }
        for key in discovered {
            if !self.routes.iter().any(|decl| decl.key == key) {
                self = self.route(key);
            }
        }
        Ok(self)
    }

    /// The route used by requests that name none. Defaults to the first
    /// declared route.
    pub fn default_route(mut self, key: RouteKey) -> Self {
        self.default_route = Some(key);
        self
    }

    /// Build every shard and start the gateway.
    ///
    /// Workers are built on the calling thread, so a failure (corrupt
    /// artifact, unsupported scale) aborts startup with a typed error before
    /// any traffic is accepted.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for an empty/duplicate route set, an
    /// unknown default route or an invalid [`RouteConfig`];
    /// [`ServeError::Pipeline`] when building a route's workers fails.
    pub fn build(self) -> Result<DefenseGateway, ServeError> {
        let GatewayBuilder {
            routes,
            default_route,
            cache_capacity,
            seed,
            store,
        } = self;
        if routes.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a gateway needs at least one route".to_string(),
            ));
        }
        let order: Vec<RouteKey> = routes.iter().map(|decl| decl.key).collect();
        for (i, key) in order.iter().enumerate() {
            if order[..i].contains(key) {
                return Err(ServeError::InvalidRequest(format!(
                    "route {key} is declared twice"
                )));
            }
        }
        let default_route = default_route.unwrap_or(order[0]);
        if !order.contains(&default_route) {
            return Err(ServeError::UnknownRoute(default_route.label()));
        }

        let telemetry = Arc::new(Telemetry::new());
        // The store shares the gateway's hub, so hydrate/publish timings land
        // in the same snapshot as the serving metrics.
        let store = store.map(|store| store.with_telemetry(Arc::clone(&telemetry)));
        let cache: SharedCache = Arc::new(Mutex::new(LruCache::new(cache_capacity)));
        let lifecycle = LifecycleProbes {
            reload: telemetry.probe("gateway.reload", Level::Info, Some("gateway.reload_ns")),
            reload_failed: telemetry.probe("gateway.reload_failed", Level::Warn, None),
            reload_refused: telemetry.probe("gateway.reload_refused", Level::Warn, None),
            reload_demoted: telemetry.probe("gateway.reload_demoted", Level::Warn, None),
            shed: telemetry.probe("gateway.shed", Level::Warn, None),
            reloads: telemetry.metrics().counter("gateway.reloads"),
            reload_failures: telemetry.metrics().counter("gateway.reload_failures"),
            reload_refusals: telemetry.metrics().counter("gateway.reload_refused"),
            reload_demotions: telemetry.metrics().counter("gateway.reload_demoted"),
        };

        let mut table = HashMap::with_capacity(routes.len());
        for decl in routes {
            decl.config.validate()?;
            let RouteDecl {
                key,
                config,
                factory,
            } = decl;
            let mut source = match factory {
                Some(factory) => RouteSource::Factory(factory),
                None => RouteSource::Store {
                    seed,
                    serving: None,
                },
            };
            let (assets, _) = source.build(store.as_ref(), &key, config.num_workers, None)?;
            let label = key.label();
            let stats = Arc::new(StatsRecorder::registered(
                telemetry.metrics(),
                &format!("route.{label}"),
            ));
            let stages = Arc::new(StageProbes::for_route(&telemetry, &label));
            let arenas: Vec<ArenaGauges> = (0..config.num_workers)
                .map(|worker| ArenaGauges::for_worker(&telemetry, &label, worker))
                .collect();
            let (sender, threads) = spawn_shard(&config, assets, &cache, &stats, &stages, &arenas);
            let health = telemetry.metrics().gauge(&format!("route.{label}.health"));
            health.set(i64::from(HealthState::Healthy.as_u8()));
            table.insert(
                key,
                Arc::new(RouteEntry {
                    config,
                    source: Mutex::new(source),
                    stats,
                    stages,
                    arenas,
                    active: RwLock::new(sender),
                    threads: Mutex::new(Some(threads)),
                    health,
                }),
            );
        }

        Ok(DefenseGateway {
            shared: Arc::new(GatewayShared {
                routes: table,
                order,
                default_route,
                cache,
                cache_enabled: cache_capacity > 0,
                store,
                telemetry,
                request_ids: AtomicU64::new(1),
                lifecycle,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_defense::pipeline::DefensePipeline;
    use sesr_defense::pipeline::PreprocessConfig;
    use sesr_models::Upscaler;
    use sesr_store::Checkpoint;
    use sesr_tensor::{init, Shape, Tensor};
    use std::sync::atomic::AtomicU64;

    static TEST_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "sesr_gateway_{tag}_{}_{}",
            std::process::id(),
            TEST_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn test_image(seed: u64, size: usize) -> Tensor {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        init::uniform(Shape::new(&[1, 3, size, size]), 0.0, 1.0, &mut rng)
    }

    fn nearest_route() -> RouteKey {
        RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::none())
    }

    fn bicubic_route() -> RouteKey {
        RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none())
    }

    #[test]
    fn builder_rejects_empty_duplicate_and_unknown_default() {
        assert!(matches!(
            GatewayBuilder::new().build(),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            GatewayBuilder::new()
                .route(nearest_route())
                .route(nearest_route())
                .build(),
            Err(ServeError::InvalidRequest(_))
        ));
        assert!(matches!(
            GatewayBuilder::new()
                .route(nearest_route())
                .default_route(bicubic_route())
                .build(),
            Err(ServeError::UnknownRoute(_))
        ));
    }

    #[test]
    fn requests_route_explicitly_or_by_default() {
        let gateway = GatewayBuilder::new()
            .route(nearest_route())
            .route(bicubic_route())
            .build()
            .unwrap();
        let client = gateway.client();
        assert_eq!(client.default_route(), nearest_route());
        assert_eq!(client.routes(), vec![nearest_route(), bicubic_route()]);

        let image = test_image(1, 8);
        let defaulted = client
            .defend_blocking(DefenseRequest::new(image.clone()))
            .unwrap();
        let nearest = client
            .defend_blocking(DefenseRequest::new(image.clone()).on(nearest_route()))
            .unwrap();
        let bicubic = client
            .defend_blocking(DefenseRequest::new(image).on(bicubic_route()))
            .unwrap();
        assert_eq!(
            defaulted.defended, nearest.defended,
            "no route means the default route"
        );
        assert_ne!(nearest.defended, bicubic.defended);

        let snapshot = gateway.telemetry_snapshot();
        assert_eq!(snapshot.counter("gateway.completed"), Some(3));
        let bicubic_completed = format!("route.{}.completed", bicubic_route().label());
        assert_eq!(snapshot.counter(&bicubic_completed), Some(1));
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn unknown_routes_fail_fast_with_their_label() {
        let gateway = GatewayBuilder::new()
            .route(nearest_route())
            .build()
            .unwrap();
        let client = gateway.client();
        let missing = RouteKey::paper(SrModelKind::SesrXl, 2);
        match client.submit(DefenseRequest::new(test_image(0, 8)).on(missing)) {
            Err(ServeError::UnknownRoute(label)) => assert_eq!(label, missing.label()),
            Err(other) => panic!("expected UnknownRoute, got {other}"),
            Ok(_) => panic!("expected UnknownRoute, got a pending response"),
        }
        assert!(matches!(
            client.reload(&missing, None),
            Err(ServeError::UnknownRoute(_))
        ));
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn skip_cache_bypasses_lookup_and_insert() {
        let gateway = GatewayBuilder::new()
            .route(nearest_route())
            .build()
            .unwrap();
        let client = gateway.client();
        let image = test_image(3, 8);
        for _ in 0..2 {
            let response = client
                .defend_blocking(DefenseRequest::new(image.clone()).skip_cache())
                .unwrap();
            assert!(!response.cache_hit, "skip_cache must never hit");
        }
        let snapshot = client.telemetry_snapshot();
        assert_eq!(
            snapshot.counter("gateway.computed_images"),
            Some(2),
            "skip_cache must recompute"
        );
        assert_eq!(
            snapshot.counter("gateway.cache_hits"),
            Some(0),
            "no lookups"
        );
        assert_eq!(snapshot.counter("gateway.cache_misses"), Some(0));
        // And the bypassing requests inserted nothing: a normal request
        // still misses.
        assert!(
            !client
                .defend_blocking(DefenseRequest::new(image))
                .unwrap()
                .cache_hit
        );
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn a_claimed_hash_is_checked_with_or_without_the_cache() {
        let gateway = GatewayBuilder::new()
            .route(nearest_route())
            .build()
            .unwrap();
        let client = gateway.client();
        let image = test_image(4, 8);
        let hash = content_hash(&image, "");
        for skip in [false, true] {
            let request = |claim| {
                let request = DefenseRequest::new(image.clone()).claiming_hash(claim);
                if skip {
                    request.skip_cache()
                } else {
                    request
                }
            };
            assert!(matches!(
                client.submit(request(hash ^ 1)),
                Err(ServeError::HashMismatch)
            ));
            assert!(client.defend_blocking(request(hash)).is_ok());
        }
        // The refused claims queued nothing: only the two good ones ran.
        let snapshot = client.telemetry_snapshot();
        assert_eq!(snapshot.counter("gateway.cache_hits"), Some(0));
        assert_eq!(snapshot.counter("gateway.computed_images"), Some(2));
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn telemetry_traces_stages_and_exports_snapshots() {
        let gateway = GatewayBuilder::new()
            .route(nearest_route())
            .build()
            .unwrap();
        let client = gateway.client();
        let label = nearest_route().label();
        let image = test_image(5, 8);
        client
            .defend_blocking(DefenseRequest::new(image.clone()))
            .unwrap();
        // Same image again: served from the cache, timing only cache_lookup.
        assert!(
            client
                .defend_blocking(DefenseRequest::new(image))
                .unwrap()
                .cache_hit
        );

        let snapshot = client.telemetry_snapshot();
        for stage in ["queue_wait", "batch_dwell", "preprocess", "sr_forward"] {
            let name = format!("route.{label}.stage.{stage}_ns");
            let hist = snapshot.histogram(&name).unwrap_or_else(|| {
                panic!("snapshot must carry a {name} histogram");
            });
            assert_eq!(hist.count, 1, "{name} must time the one computed request");
        }
        assert_eq!(
            snapshot
                .histogram(&format!("route.{label}.stage.cache_lookup_ns"))
                .unwrap()
                .count,
            2,
            "both requests probe the cache"
        );
        // The computed request's journal trace hangs together under one id.
        let computed_id = snapshot
            .events
            .iter()
            .find(|e| e.name == "stage.queue_wait")
            .expect("queue_wait event")
            .request;
        for stage in ["stage.batch_dwell", "stage.preprocess", "stage.sr_forward"] {
            assert!(
                snapshot
                    .events
                    .iter()
                    .any(|e| e.name == stage && e.request == computed_id),
                "{stage} must be journaled under request {computed_id}"
            );
        }
        // One miss then one hit, counted once each; the cache size is
        // mirrored into a gauge at snapshot time.
        assert_eq!(snapshot.counter("gateway.cache_hits"), Some(1));
        assert_eq!(snapshot.counter("gateway.cache_misses"), Some(1));
        assert_eq!(snapshot.gauge("gateway.cache.entries"), Some(1));
        // The worker that served the batch published its arena gauges
        // after it (either of the route's two workers may have taken it).
        assert!(
            (0..2)
                .filter_map(|worker| {
                    snapshot.gauge(&format!("route.{label}.arena.w{worker}.high_water_bytes"))
                })
                .any(|bytes| bytes > 0),
            "the serving worker must publish its arena high-water mark"
        );
        // Both requests are counted on their route and gateway-wide.
        assert_eq!(
            snapshot.counter(&format!("route.{label}.completed")),
            Some(2)
        );
        assert_eq!(snapshot.counter("gateway.completed"), Some(2));

        // The exporter round-trips the same snapshot shape through disk.
        let dir = temp_dir("telemetry_export");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.json");
        let exporter = client
            .export_telemetry(&path, Duration::from_secs(3600))
            .unwrap();
        exporter.stop().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = sesr_telemetry::TelemetrySnapshot::from_json(&text).unwrap();
        assert_eq!(parsed.counter("gateway.completed"), Some(2));
        std::fs::remove_dir_all(&dir).ok();

        drop(client);
        gateway.shutdown();
    }

    /// An upscaler that sleeps, to make queueing deterministic in tests.
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

    fn slow_factory(delay: Duration) -> impl FnMut(usize) -> sesr_tensor::Result<WorkerAssets> {
        move |_| {
            Ok(WorkerAssets::new(DefensePipeline::new(
                PreprocessConfig::none(),
                Box::new(SlowUpscaler {
                    delay,
                    inner: SrModelKind::NearestNeighbor.build_interpolation(2).unwrap(),
                }),
            )))
        }
    }

    #[test]
    fn expired_deadlines_get_a_typed_answer_without_compute() {
        let config = RouteConfig {
            num_workers: 1,
            max_batch: 1,
            max_linger: Duration::ZERO,
            queue_capacity: 8,
        };
        let gateway = GatewayBuilder::new()
            .cache_capacity(0)
            .route_with_factory(
                nearest_route(),
                config,
                slow_factory(Duration::from_millis(30)),
            )
            .build()
            .unwrap();
        let client = gateway.client();
        // First request occupies the worker for 30ms; the queued ones with a
        // tiny deadline expire behind it.
        let blocker = client
            .submit(DefenseRequest::new(test_image(0, 8)))
            .unwrap();
        let doomed: Vec<_> = (1..4)
            .map(|seed| {
                client
                    .submit(
                        DefenseRequest::new(test_image(seed, 8))
                            .with_deadline(Duration::from_millis(1)),
                    )
                    .unwrap()
            })
            .collect();
        assert!(blocker.wait().is_ok());
        for pending in doomed {
            assert_eq!(pending.wait().unwrap_err(), ServeError::DeadlineExceeded);
        }
        let snapshot = client.telemetry_snapshot();
        assert_eq!(snapshot.counter("gateway.expired"), Some(3));
        assert_eq!(
            snapshot.counter("gateway.computed_images"),
            Some(1),
            "expired jobs are never defended"
        );
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn unrepresentable_deadlines_mean_no_deadline() {
        let gateway = GatewayBuilder::new()
            .route(nearest_route())
            .build()
            .unwrap();
        let client = gateway.client();
        let response = client
            .defend_blocking(DefenseRequest::new(test_image(7, 8)).with_deadline(Duration::MAX))
            .unwrap();
        assert_eq!(response.defended.shape().dims(), &[1, 3, 16, 16]);
        assert_eq!(
            client.telemetry_snapshot().counter("gateway.expired"),
            Some(0)
        );
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn routes_from_store_enumerates_servable_sr_models_only() {
        use rand::{rngs::StdRng, SeedableRng};
        let dir = temp_dir("enumerate");
        let store = ModelStore::open(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let network = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
        store
            .save(&Checkpoint::from_layer("SESR-M2", 2, 0, network.as_ref()))
            .unwrap();
        // A classifier artifact in the same store must not become a route.
        store
            .save(&Checkpoint::from_layer(
                "MobileNet-V2",
                1,
                0,
                network.as_ref(),
            ))
            .unwrap();

        let gateway = GatewayBuilder::new()
            .with_store(store)
            .routes_from_store()
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(
            gateway.client().routes(),
            vec![RouteKey::paper(SrModelKind::SesrM2, 2)]
        );
        gateway.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn routes_from_store_requires_a_store() {
        assert!(matches!(
            GatewayBuilder::new().routes_from_store(),
            Err(ServeError::InvalidRequest(_))
        ));
    }

    #[test]
    fn factory_and_store_routes_reload_and_serve_the_rebuilt_workers() {
        let built = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&built);
        let nearest = move |_| {
            counted.fetch_add(1, Ordering::Relaxed);
            let upscaler = SrModelKind::NearestNeighbor.build_seeded_upscaler(2, 0)?;
            Ok(WorkerAssets::new(DefensePipeline::new(
                PreprocessConfig::none(),
                upscaler,
            )))
        };
        let gateway = GatewayBuilder::new()
            .route_with_factory(nearest_route(), RouteConfig::default(), nearest)
            .route(bicubic_route())
            .build()
            .unwrap();
        let client = gateway.client();
        client.reload(&nearest_route(), None).unwrap();
        let rebuilt = built.load(Ordering::Relaxed);
        assert_eq!(rebuilt, 4, "a reload calls the factory once per worker");
        client.reload(&bicubic_route(), None).unwrap();
        // The reloaded routes still serve correctly.
        let image = test_image(2, 8);
        for (route, kind) in [
            (nearest_route(), SrModelKind::NearestNeighbor),
            (bicubic_route(), SrModelKind::Bicubic),
        ] {
            let request = DefenseRequest::new(image.clone()).on(route);
            let served = client.defend_blocking(request).unwrap();
            let direct = DefensePipeline::new(
                PreprocessConfig::none(),
                kind.build_interpolation(2).unwrap(),
            );
            assert_eq!(served.defended, direct.defend(&image).unwrap(), "{route}");
        }
        let reloads = client.telemetry_snapshot().counter("gateway.reloads");
        assert_eq!(reloads, Some(2));
        drop(client);
        gateway.shutdown();
    }

    fn save_sesr_m2(store: &ModelStore, seed: u64) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let network = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
        store
            .save(&Checkpoint::from_layer(
                "SESR-M2",
                2,
                seed,
                network.as_ref(),
            ))
            .unwrap();
    }

    #[test]
    fn watcher_leaves_factory_routes_alone_when_their_model_gains_an_artifact() {
        let dir = temp_dir("watch_factory");
        let store = ModelStore::open(&dir).unwrap();
        save_sesr_m2(&store, 1);
        let route = RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none());
        let gateway = GatewayBuilder::new()
            .with_store(store.clone())
            .route_with_factory(route, RouteConfig::default(), |_| {
                Ok(WorkerAssets::new(DefensePipeline::new(
                    PreprocessConfig::none(),
                    SrModelKind::SesrM2.build_seeded_upscaler(2, 0)?,
                )))
            })
            .build()
            .unwrap();
        let client = gateway.client();
        let watcher = client.watch_store(Duration::from_millis(5)).unwrap();
        save_sesr_m2(&store, 2);
        // Many polls see the new version; none may touch the factory route,
        // whose factory ignores the store.
        std::thread::sleep(Duration::from_millis(150));
        watcher.stop();
        let snapshot = client.telemetry_snapshot();
        assert_eq!(snapshot.counter("gateway.reloads"), Some(0));
        assert_eq!(snapshot.counter("gateway.reload_failures"), Some(0));
        drop(client);
        gateway.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gateway_totals_are_derived_from_the_routes() {
        // Nearest and bicubic see misses and a hit; the slow one-slot route
        // sees a blocker, then doomed requests until one overflows its queue
        // and one expires in it behind the blocker.
        let slow = RouteKey::new(SrModelKind::NearestNeighbor, 2, PreprocessConfig::paper());
        let one_slot = RouteConfig {
            num_workers: 1,
            max_batch: 1,
            max_linger: Duration::ZERO,
            queue_capacity: 1,
        };
        let gateway = GatewayBuilder::new()
            .route(nearest_route())
            .route(bicubic_route())
            .route_with_factory(slow, one_slot, slow_factory(Duration::from_millis(30)))
            .build()
            .unwrap();
        let client = gateway.client();
        for route in [nearest_route(), bicubic_route(), nearest_route()] {
            let request = DefenseRequest::new(test_image(1, 8)).on(route);
            client.defend_blocking(request).unwrap();
        }
        let blocker = client
            .submit(DefenseRequest::new(test_image(2, 8)).on(slow))
            .unwrap();
        let (mut doomed, mut rejected) = (Vec::new(), 0);
        let give_up = Instant::now() + Duration::from_secs(10);
        while (doomed.is_empty() || rejected == 0) && Instant::now() < give_up {
            let request = DefenseRequest::new(test_image(3, 8)).on(slow);
            match client.submit(request.with_deadline(Duration::from_millis(1))) {
                Ok(pending) => doomed.push(pending),
                Err(err) => {
                    assert_eq!(err, ServeError::Overloaded);
                    rejected += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        blocker.wait().unwrap();
        for pending in doomed {
            assert_eq!(pending.wait().unwrap_err(), ServeError::DeadlineExceeded);
        }

        let snapshot = client.telemetry_snapshot();
        let routes = client.routes();
        let per_route = |metric: &str| -> Vec<String> {
            let name = |key: &RouteKey| format!("route.{}.{metric}", key.label());
            routes.iter().map(name).collect()
        };
        for counter in [
            "completed",
            "computed_images",
            "cache_hits",
            "cache_misses",
            "rejected",
            "errors",
            "expired",
            "batches",
            "batched_images",
            "shed",
        ] {
            let sum: u64 = per_route(counter)
                .iter()
                .map(|n| snapshot.counter(n).unwrap())
                .sum();
            let total = snapshot.counter(&format!("gateway.{counter}"));
            assert_eq!(total, Some(sum), "gateway.{counter}");
        }
        for counter in ["cache_hits", "cache_misses", "rejected", "expired"] {
            let total = snapshot.counter(&format!("gateway.{counter}"));
            assert!(total > Some(0), "the traffic must exercise {counter}");
        }
        let largest = per_route("largest_batch")
            .iter()
            .map(|n| snapshot.gauge(n).unwrap())
            .max();
        assert_eq!(snapshot.gauge("gateway.largest_batch"), largest);
        let latency: u64 = per_route("latency_ns")
            .iter()
            .map(|n| snapshot.histogram(n).unwrap().count)
            .sum();
        let total = snapshot.histogram("gateway.latency_ns").unwrap().count;
        assert_eq!(total, latency);
        drop(client);
        gateway.shutdown();
    }

    #[test]
    fn watcher_counts_failed_reloads_and_keeps_serving_old_weights() {
        use rand::{rngs::StdRng, SeedableRng};
        let dir = temp_dir("watch_fail");
        let store = ModelStore::open(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let network = SrModelKind::SesrM2.build_local_network(&mut rng).unwrap();
        store
            .save(&Checkpoint::from_layer("SESR-M2", 2, 0, network.as_ref()))
            .unwrap();

        let route = RouteKey::new(SrModelKind::SesrM2, 2, PreprocessConfig::none());
        let gateway = GatewayBuilder::new()
            .with_store(store)
            .route(route)
            .build()
            .unwrap();
        let client = gateway.client();
        let image = test_image(1, 8);
        let before = client
            .defend_blocking(DefenseRequest::new(image.clone()).skip_cache())
            .unwrap();

        let watcher = client.watch_store(Duration::from_millis(5)).unwrap();
        // A newer artifact version appears, but its bytes are garbage: every
        // reload attempt must fail (counted), be retried, and leave the old
        // weights serving.
        std::fs::write(
            dir.join("sesr-m2")
                .join("x2")
                .join("v0002-00000000000000ff.sesrckpt"),
            b"not a checkpoint",
        )
        .unwrap();
        let failures = || {
            client
                .telemetry_snapshot()
                .counter("gateway.reload_failures")
                .unwrap_or(0)
        };
        let mut waited = Duration::ZERO;
        while failures() < 2 && waited < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
            waited += Duration::from_millis(5);
        }
        assert!(
            failures() >= 2,
            "an unservable newest artifact must be counted and retried"
        );
        assert_eq!(
            client.telemetry_snapshot().counter("gateway.reloads"),
            Some(0)
        );
        let after = client
            .defend_blocking(DefenseRequest::new(image).skip_cache())
            .unwrap();
        assert_eq!(
            before.defended, after.defended,
            "the route must keep serving the last good weights"
        );
        watcher.stop();
        drop(client);
        gateway.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_store_requires_a_store() {
        let gateway = GatewayBuilder::new()
            .route(nearest_route())
            .build()
            .unwrap();
        let client = gateway.client();
        assert!(matches!(
            client.watch_store(Duration::from_millis(10)),
            Err(ServeError::InvalidRequest(_))
        ));
        drop(client);
        gateway.shutdown();
    }
}
