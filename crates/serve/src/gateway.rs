//! The multi-model defense gateway: routed requests, per-model worker
//! shards, zero-downtime hot reload.
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
//!                         │   route.* + gateway.* metrics, one registry        │
//!                         └────────────────────────────────────────────────────┘
//! ```
//!
//! **Hot reload** ([`GatewayClient::reload`]) rebuilds one route's workers
//! with freshly hydrated weights (after
//! [`ModelRegistry::invalidate`](sesr_store::ModelRegistry::invalidate), so a
//! retrained artifact version is picked up), atomically swaps the new shard
//! into the route table, then retires the old shard by letting it drain:
//! every job already accepted is still answered, so a reload under load
//! drops nothing. [`ReloadWatcher`] automates this by polling the artifact
//! store and reloading any route whose newest artifact changed.

// lint: allow-file(atomic-ordering): request ids + route health; the swap/drain protocol these back is modeled in sesr-verify (models::swap)

use crate::route::{DefenseRequest, RouteConfig, RouteKey};
use crate::server::{PendingResponse, ServeError, WorkerAssets};
use crate::shard::{spawn_shard, CacheKey, Job, SharedCache, StatsPair};
use crate::stats::StatsRecorder;
use crate::telemetry::{ArenaGauges, StageProbes, TelemetryExporter};
use crate::{content_hash, LruCache};
use sesr_defense::pipeline::DefensePipeline;
use sesr_models::SrModelKind;
use sesr_store::{ModelRegistry, ModelStore};
use sesr_telemetry::{Counter, Gauge, HealthState, Level, Probe, Telemetry, TelemetrySnapshot};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-worker asset factory: called with the worker index at build and
/// reload time.
pub type WorkerFactory = Box<dyn FnMut(usize) -> sesr_tensor::Result<WorkerAssets> + Send>;

/// One declared route: its immutable configuration, the factory that
/// (re)builds its workers, and the currently active shard.
struct RouteEntry {
    config: RouteConfig,
    /// `None` for routes built from pre-built assets, which cannot be
    /// reloaded.
    factory: Mutex<Option<WorkerFactory>>,
    /// Per-route stats; survives reloads so the breakdown covers the route's
    /// whole lifetime.
    stats: Arc<StatsRecorder>,
    /// Per-route stage probes (`route.<label>.stage.*_ns`); like the stats,
    /// they survive reloads.
    stages: Arc<StageProbes>,
    /// The live shard's submission sender; hot reload swaps it under a brief
    /// write lock. The queue closes when the last clone drops, which is what
    /// lets a retired shard drain instead of dropping in-flight jobs.
    active: RwLock<SyncSender<Job>>,
    /// Worker join handles of the active shard (taken on retire/shutdown).
    threads: Mutex<Option<Vec<JoinHandle<()>>>>,
    /// The route's serving health as set by an SLO runtime
    /// ([`crate::slo::SloRuntime`]); stored as a [`HealthState`]
    /// discriminant so admission reads it with one relaxed load.
    health: AtomicU8,
    /// Mirror of `health` in the metrics namespace (`route.<label>.health`).
    health_gauge: Arc<Gauge>,
    /// Submissions shed because the route was Unhealthy
    /// (`route.<label>.shed`). Deliberately separate from `rejected`: shed
    /// load must not feed back into the error budget, or an Unhealthy route
    /// could never look clean enough to recover.
    shed: Arc<Counter>,
    /// True for store-hydrated auto routes, which are the only ones the
    /// watcher knows how to roll back to a pinned artifact version.
    auto: bool,
}

/// Journal probes and counters for gateway lifecycle events (hot reloads,
/// health-driven sheds and promotion gating).
struct LifecycleProbes {
    /// Successful route promotion; duration = whole rebuild-swap-drain cycle,
    /// mirrored into the `gateway.reload_ns` histogram.
    reload: Probe,
    /// Failed reload attempt (the old shard keeps serving).
    reload_failed: Probe,
    /// Promotion refused because the target route was not Healthy.
    reload_refused: Probe,
    /// Post-promotion rollback: health collapsed inside the probation
    /// window, so the watcher re-pinned the prior artifact.
    reload_demoted: Probe,
    /// Submission shed at admission because its route was Unhealthy.
    shed: Probe,
    reloads: Arc<Counter>,
    reload_failures: Arc<Counter>,
    reload_refusals: Arc<Counter>,
    reload_demotions: Arc<Counter>,
    sheds: Arc<Counter>,
}

struct GatewayShared {
    routes: HashMap<RouteKey, Arc<RouteEntry>>,
    /// Declaration order, for stable stats/iteration output.
    order: Vec<RouteKey>,
    default_route: RouteKey,
    cache: SharedCache,
    cache_enabled: bool,
    stats: Arc<StatsRecorder>,
    registry: Option<Arc<ModelRegistry>>,
    /// The hub every metric and journal event of this gateway lands in.
    telemetry: Arc<Telemetry>,
    /// Monotonic request-id source; ids tag journal events end to end.
    request_ids: AtomicU64,
    lifecycle: LifecycleProbes,
    /// The builder's weight seed, kept so a pinned rollback rebuilds the
    /// same network shape the original auto factory did.
    seed: u64,
}

/// The running multi-model serving engine; owns every route shard.
pub struct DefenseGateway {
    shared: Arc<GatewayShared>,
}

/// Cloneable submission/administration handle to a running
/// [`DefenseGateway`].
#[derive(Clone)]
pub struct GatewayClient {
    shared: Arc<GatewayShared>,
}

fn entry_for<'a>(
    shared: &'a GatewayShared,
    route: &RouteKey,
) -> Result<&'a Arc<RouteEntry>, ServeError> {
    shared
        .routes
        .get(route)
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
    } = request;
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
    if HealthState::from_u8(entry.health.load(Ordering::Relaxed)) == HealthState::Unhealthy {
        shared.lifecycle.sheds.incr();
        entry.shed.incr();
        shared.lifecycle.shed.observe(request_id, started.elapsed());
        return Err(ServeError::Overloaded);
    }

    let stats = StatsPair {
        global: Arc::clone(&shared.stats),
        route: Arc::clone(&entry.stats),
        stages: Arc::clone(&entry.stages),
    };

    let cache_key: Option<CacheKey> = if shared.cache_enabled && !skip_cache {
        let key = (route, content_hash(&image, ""));
        // The cache-lookup stage covers hashing's sibling cost: the lock plus
        // the LRU probe. A poisoned guard means some other holder panicked;
        // recover it rather than cascade the panic into every submitter.
        let lookup_started = Instant::now();
        let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let cached = cache
            .get(&key)
            .map(|(defended, label)| (defended.clone(), *label));
        drop(cache);
        stats
            .stages
            .cache_lookup
            .observe(request_id, lookup_started.elapsed());
        if let Some((defended, label)) = cached {
            let response = crate::server::DefenseResponse {
                defended,
                label,
                cache_hit: true,
            };
            stats.record_completion(started.elapsed(), true);
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
                stats.record_cache_miss();
            }
            Ok(PendingResponse::waiting(receiver))
        }
        Err(TrySendError::Full(_)) => {
            stats.record_rejection();
            Err(ServeError::Overloaded)
        }
        Err(TrySendError::Disconnected(_)) => Err(ServeError::Closed),
    }
}

/// Build one worker's assets for an auto-declared route: hydrated from the
/// registry when a store is attached, seeded-random otherwise.
fn build_auto_assets(
    registry: Option<&ModelRegistry>,
    key: &RouteKey,
    seed: u64,
) -> sesr_tensor::Result<WorkerAssets> {
    let upscaler = match registry {
        Some(registry) => key.model.build_from_store(key.scale, registry, seed)?,
        None => key.model.build_seeded_upscaler(key.scale, seed)?,
    };
    Ok(WorkerAssets::new(DefensePipeline::new(
        key.preprocess,
        upscaler,
    )))
}

fn reload_route(shared: &GatewayShared, route: &RouteKey) -> Result<(), ServeError> {
    // Every promotion attempt lands in the journal: successes with the full
    // rebuild-swap-drain duration (also mirrored into `gateway.reload_ns`),
    // failures at Warn so `sesr-top` surfaces a route stuck on old weights.
    let started = Instant::now();
    let result = reload_route_inner(shared, route);
    match &result {
        Ok(()) => {
            shared.lifecycle.reloads.incr();
            shared.lifecycle.reload.observe(0, started.elapsed());
        }
        Err(_) => {
            shared.lifecycle.reload_failures.incr();
            shared.lifecycle.reload_failed.observe(0, started.elapsed());
        }
    }
    result
}

fn reload_route_inner(shared: &GatewayShared, route: &RouteKey) -> Result<(), ServeError> {
    let entry = Arc::clone(entry_for(shared, route)?);
    // One reload at a time per route: the factory lock is held across the
    // rebuild, but submissions keep flowing to the old shard meanwhile.
    let mut factory_guard = entry.factory.lock().unwrap_or_else(PoisonError::into_inner);
    let factory = factory_guard.as_mut().ok_or_else(|| {
        ServeError::InvalidRequest(format!(
            "route {route} was built from pre-built worker assets and cannot be reloaded"
        ))
    })?;

    // Forget the memoized checkpoint so the factory re-resolves the newest
    // artifact version from disk.
    if let Some(registry) = &shared.registry {
        registry.invalidate(route.model.name(), route.scale);
    }
    let mut assets = Vec::with_capacity(entry.config.num_workers);
    for worker in 0..entry.config.num_workers {
        assets.push(factory(worker).map_err(|e| ServeError::Pipeline(e.to_string()))?);
    }
    swap_in_assets(shared, &entry, route, assets);
    Ok(())
}

/// The common tail of every reload: spawn a fresh shard from `assets`, swap
/// it live, drain and retire the old shard, purge the route's stale cache
/// entries. Infallible — by this point the new workers are already built.
fn swap_in_assets(
    shared: &GatewayShared,
    entry: &RouteEntry,
    route: &RouteKey,
    assets: Vec<WorkerAssets>,
) {
    let stats = StatsPair {
        global: Arc::clone(&shared.stats),
        route: Arc::clone(&entry.stats),
        stages: Arc::clone(&entry.stages),
    };
    let arenas = arena_gauges(&shared.telemetry, route, entry.config.num_workers);
    let (sender, threads) = spawn_shard(&entry.config, assets, &shared.cache, &stats, arenas);

    // Swap the live shard; new submissions land on the fresh workers from
    // here on.
    let old_sender = {
        let mut active = entry.active.write().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *active, sender)
    };
    let old_threads = entry
        .threads
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .replace(threads);

    // Retire the old shard: dropping its sender closes the queue (in-flight
    // submit calls hold transient clones, which drop as soon as their
    // try_send returns), so the workers drain every accepted job and exit,
    // and the join below returns only once all in-flight responses are
    // delivered.
    drop(old_sender);
    for worker in old_threads.into_iter().flatten() {
        let _ = worker.join();
    }

    // The old weights' outputs are stale now that the drain is complete;
    // purge this route's cache entries without touching other routes.
    if shared.cache_enabled {
        shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(cached_route, _)| cached_route != route);
    }
}

/// Rebuild an auto route's workers from one *specific* stored artifact
/// version instead of the newest — the watcher's rollback path when a
/// just-promoted artifact tanks the route's health. Follows the same
/// swap-drain-purge discipline as a forward reload.
fn reload_route_pinned(
    shared: &GatewayShared,
    route: &RouteKey,
    pinned: (u32, u64),
) -> Result<(), ServeError> {
    let entry = Arc::clone(entry_for(shared, route)?);
    if !entry.auto {
        return Err(ServeError::InvalidRequest(format!(
            "route {route} is not store-hydrated and cannot be pinned to an artifact version"
        )));
    }
    let registry = shared.registry.as_ref().ok_or_else(|| {
        ServeError::InvalidRequest(
            "pinned reload requires a gateway built with a store".to_string(),
        )
    })?;
    // Same per-route serialization as a forward reload.
    let _factory_guard = entry.factory.lock().unwrap_or_else(PoisonError::into_inner);

    let (version, digest) = pinned;
    let artifact = registry
        .store()
        .list_versions(route.model.name(), route.scale)
        .map_err(|e| ServeError::Pipeline(e.to_string()))?
        .into_iter()
        .find(|artifact| artifact.version == version && artifact.digest == digest)
        .ok_or_else(|| {
            ServeError::Pipeline(format!(
                "route {route} has no stored artifact v{version:04} to roll back to"
            ))
        })?;
    let checkpoint = registry
        .store()
        .load(&artifact)
        .map_err(|e| ServeError::Pipeline(e.to_string()))?;
    let mut assets = Vec::with_capacity(entry.config.num_workers);
    for _worker in 0..entry.config.num_workers {
        let upscaler = route
            .model
            .build_from_checkpoint(route.scale, &checkpoint, shared.seed)
            .map_err(|e| ServeError::Pipeline(e.to_string()))?;
        assets.push(WorkerAssets::new(DefensePipeline::new(
            route.preprocess,
            upscaler,
        )));
    }
    // The registry's memo still points at the newest artifact; forget it so
    // a later explicit hydrate re-reads disk rather than reviving it.
    registry.invalidate(route.model.name(), route.scale);
    swap_in_assets(shared, &entry, route, assets);
    Ok(())
}

/// Register the per-worker arena gauges for `route` (idempotent across
/// reloads: the same names resolve to the same gauges).
fn arena_gauges(telemetry: &Telemetry, route: &RouteKey, num_workers: usize) -> Vec<ArenaGauges> {
    let label = route.label();
    (0..num_workers)
        .map(|worker| ArenaGauges::for_worker(telemetry, &label, worker))
        .collect()
}

/// Refresh the gateway-level cache gauges, then snapshot the whole hub. The
/// LRU's eviction count and size live behind the cache mutex, so they are
/// mirrored into gauges here — at snapshot time, off the hot path — rather
/// than on every insert. Hits and misses are the `gateway.cache_hits` /
/// `gateway.cache_misses` counters.
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
    shared.telemetry.snapshot()
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
    /// inputs, [`ServeError::Closed`] when the gateway is gone.
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
    /// Rebuilds the route's workers through its factory — for store-backed
    /// routes the registry entry is invalidated first, so a newly saved
    /// artifact version is hydrated — swaps the fresh shard in for new
    /// submissions, then drains and retires the old shard: every job it had
    /// already accepted still gets its response. The route's now-stale cache
    /// entries are purged; other routes are untouched throughout.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRoute`] for an unserved route,
    /// [`ServeError::Pipeline`] when rebuilding the workers fails (e.g. a
    /// corrupt artifact — the old shard keeps serving in that case), and
    /// [`ServeError::InvalidRequest`] for routes built from pre-built assets.
    pub fn reload(&self, route: &RouteKey) -> Result<(), ServeError> {
        reload_route(&self.shared, route)
    }

    /// Spawn a [`ReloadWatcher`] polling the attached store every `interval`
    /// and reloading any route whose newest artifact changed.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] when the gateway was built without a
    /// store.
    pub fn watch_store(&self, interval: Duration) -> Result<ReloadWatcher, ServeError> {
        ReloadWatcher::spawn(self.clone(), interval, ReloadWatcher::DEFAULT_PROBATION)
    }

    /// Like [`GatewayClient::watch_store`], with an explicit post-promotion
    /// probation window: if a route's health collapses to Unhealthy within
    /// `probation` after a promotion, the watcher rolls the route back to
    /// the previously served artifact version.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] when the gateway was built without a
    /// store.
    pub fn watch_store_with_probation(
        &self,
        interval: Duration,
        probation: Duration,
    ) -> Result<ReloadWatcher, ServeError> {
        ReloadWatcher::spawn(self.clone(), interval, probation)
    }

    /// The gateway's telemetry hub (counters, gauges, per-route stage
    /// histograms and the event journal).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Snapshot every metric and the journal, including the freshly mirrored
    /// cache gauges (`gateway.cache.*`). This is the one way to read the
    /// gateway's numbers: gateway-wide counters (`gateway.completed`,
    /// `gateway.cache_hits`, `gateway.reloads`, …), their per-route twins
    /// (`route.<label>.*`), latency and stage histograms, and the journal.
    /// Its JSON form is what `sesr-top` renders.
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
        Ok(HealthState::from_u8(entry.health.load(Ordering::Relaxed)))
    }

    /// Set one route's health (SLO runtime only): updates the admission
    /// atomic and mirrors the state into the `route.<label>.health` gauge.
    pub(crate) fn set_route_health(
        &self,
        route: &RouteKey,
        state: HealthState,
    ) -> Result<(), ServeError> {
        let entry = entry_for(&self.shared, route)?;
        entry.health.store(state.as_u8(), Ordering::Relaxed);
        entry.health_gauge.set(i64::from(state.as_u8()));
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
    /// Start declaring routes. Alias for [`GatewayBuilder::new`].
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder::new()
    }

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

/// How one route's workers come to be.
enum RouteSource {
    /// Built by the gateway: store-hydrated when a store is attached,
    /// seeded-random otherwise. Reloadable.
    Auto,
    /// Built by a caller-supplied factory. Reloadable.
    Factory(WorkerFactory),
    /// Pre-built assets handed over as-is. Not reloadable.
    Prebuilt(Vec<WorkerAssets>),
}

struct RouteDecl {
    key: RouteKey,
    config: RouteConfig,
    source: RouteSource,
}

/// Declarative constructor for a [`DefenseGateway`]: routes (explicit, or
/// everything servable in a [`ModelStore`]), per-route worker counts and
/// queue depths, the default route, cache capacity and the weight seed.
pub struct GatewayBuilder {
    routes: Vec<RouteDecl>,
    default_route: Option<RouteKey>,
    default_config: RouteConfig,
    cache_capacity: usize,
    seed: u64,
    store: Option<ModelStore>,
    telemetry: Option<Arc<Telemetry>>,
}

impl Default for GatewayBuilder {
    fn default() -> Self {
        GatewayBuilder::new()
    }
}

impl GatewayBuilder {
    /// An empty builder: no routes, paper-default route config, a 256-entry
    /// cache, seed 0, no store.
    pub fn new() -> Self {
        GatewayBuilder {
            routes: Vec::new(),
            default_route: None,
            default_config: RouteConfig::default(),
            cache_capacity: 256,
            seed: 0,
            store: None,
            telemetry: None,
        }
    }

    /// Share an existing telemetry hub instead of creating a private one —
    /// e.g. so the gateway, its model store and an evaluation plan all land
    /// in one [`TelemetrySnapshot`].
    pub fn telemetry(mut self, hub: Arc<Telemetry>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Shared LRU capacity in defended images across all routes; 0 disables
    /// caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Seed for deterministic worker construction (and the fallback weights
    /// of store-less learned routes).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The [`RouteConfig`] used by routes declared without an explicit one.
    pub fn default_route_config(mut self, config: RouteConfig) -> Self {
        self.default_config = config;
        self
    }

    /// Attach a trained-weight store: auto routes hydrate from it (one
    /// validated read per `(model, scale)`, memoized by a shared
    /// [`ModelRegistry`]), [`GatewayBuilder::routes_from_store`] enumerates
    /// it, and hot reload re-resolves artifacts in it.
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

    /// Declare a route with the default [`RouteConfig`].
    pub fn route(self, key: RouteKey) -> Self {
        let config = self.default_config.clone();
        self.route_with(key, config)
    }

    /// Declare a route with an explicit per-route configuration.
    pub fn route_with(mut self, key: RouteKey, config: RouteConfig) -> Self {
        self.routes.push(RouteDecl {
            key,
            config,
            source: RouteSource::Auto,
        });
        self
    }

    /// Declare a route whose workers come from `factory(worker_index)` —
    /// the escape hatch for custom pipelines (wrapped upscalers, classifier
    /// stages). The factory is retained, so the route stays reloadable.
    pub fn route_with_factory(
        mut self,
        key: RouteKey,
        config: RouteConfig,
        factory: impl FnMut(usize) -> sesr_tensor::Result<WorkerAssets> + Send + 'static,
    ) -> Self {
        self.routes.push(RouteDecl {
            key,
            config,
            source: RouteSource::Factory(Box::new(factory)),
        });
        self
    }

    /// Declare a route from pre-built worker assets (one per worker), for
    /// builders that are neither `Send` nor `'static` (the gateway evaluation
    /// scenario hands over bank-hydrated pipelines this way); such a route
    /// cannot be hot-reloaded.
    pub fn route_with_assets(
        mut self,
        key: RouteKey,
        config: RouteConfig,
        assets: Vec<WorkerAssets>,
    ) -> Self {
        self.routes.push(RouteDecl {
            key,
            config,
            source: RouteSource::Prebuilt(assets),
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
    /// Worker factories run on the calling thread, so a failure (corrupt
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
            default_config: _,
            cache_capacity,
            seed,
            store,
            telemetry,
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

        let telemetry = telemetry.unwrap_or_else(|| Arc::new(Telemetry::new()));
        let registry = store.map(|store| {
            // The store shares the gateway's hub, so hydrate/publish timings
            // land in the same snapshot as the serving metrics.
            Arc::new(ModelRegistry::new(
                store.with_telemetry(Arc::clone(&telemetry)),
            ))
        });
        let cache: SharedCache = Arc::new(Mutex::new(LruCache::new(cache_capacity)));
        let global_stats = Arc::new(StatsRecorder::registered(telemetry.metrics(), "gateway"));
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
            sheds: telemetry.metrics().counter("gateway.shed"),
        };

        let mut table = HashMap::with_capacity(routes.len());
        for decl in routes {
            decl.config.validate()?;
            let RouteDecl {
                key,
                config,
                source,
            } = decl;
            let auto = matches!(source, RouteSource::Auto);
            let (assets, factory): (Vec<WorkerAssets>, Option<WorkerFactory>) = match source {
                RouteSource::Auto => {
                    let registry = registry.clone();
                    let mut factory: WorkerFactory =
                        Box::new(move |_worker| build_auto_assets(registry.as_deref(), &key, seed));
                    let assets = build_with(&mut factory, config.num_workers)?;
                    (assets, Some(factory))
                }
                RouteSource::Factory(mut factory) => {
                    let assets = build_with(&mut factory, config.num_workers)?;
                    (assets, Some(factory))
                }
                RouteSource::Prebuilt(assets) => {
                    if assets.len() != config.num_workers {
                        return Err(ServeError::InvalidRequest(format!(
                            "route {key} declares {} workers but {} pre-built assets",
                            config.num_workers,
                            assets.len()
                        )));
                    }
                    (assets, None)
                }
            };
            let label = key.label();
            let route_recorder = Arc::new(StatsRecorder::registered(
                telemetry.metrics(),
                &format!("route.{label}"),
            ));
            let route_stages = Arc::new(StageProbes::for_route(&telemetry, &label));
            let stats = StatsPair {
                global: Arc::clone(&global_stats),
                route: Arc::clone(&route_recorder),
                stages: Arc::clone(&route_stages),
            };
            let arenas = arena_gauges(&telemetry, &key, config.num_workers);
            let (sender, threads) = spawn_shard(&config, assets, &cache, &stats, arenas);
            let health_gauge = telemetry.metrics().gauge(&format!("route.{label}.health"));
            health_gauge.set(i64::from(HealthState::Healthy.as_u8()));
            table.insert(
                key,
                Arc::new(RouteEntry {
                    config,
                    factory: Mutex::new(factory),
                    stats: route_recorder,
                    stages: route_stages,
                    active: RwLock::new(sender),
                    threads: Mutex::new(Some(threads)),
                    health: AtomicU8::new(HealthState::Healthy.as_u8()),
                    health_gauge,
                    shed: telemetry.metrics().counter(&format!("route.{label}.shed")),
                    auto,
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
                stats: global_stats,
                registry,
                telemetry,
                request_ids: AtomicU64::new(1),
                lifecycle,
                seed,
            }),
        })
    }
}

fn build_with(
    factory: &mut WorkerFactory,
    num_workers: usize,
) -> Result<Vec<WorkerAssets>, ServeError> {
    let mut assets = Vec::with_capacity(num_workers);
    for worker in 0..num_workers {
        assets.push(factory(worker).map_err(|e| ServeError::Pipeline(e.to_string()))?);
    }
    Ok(assets)
}

/// Background thread that polls the gateway's store and hot-reloads any
/// route whose newest artifact `(version, digest)` changed — the
/// "save a retrained model, serving picks it up" loop with no restarts.
///
/// Promotion is **health-gated**: a new artifact is only promoted while its
/// route is [`HealthState::Healthy`]; otherwise the attempt is refused
/// (journaled as `gateway.reload_refused`) and retried on every poll until
/// the route recovers. After a promotion the route is on probation: if its
/// health collapses to Unhealthy inside the probation window, the watcher
/// rolls back to the previously served artifact version
/// (`gateway.reload_demoted`) — the stepping stone to a full canary gate.
///
/// The watcher keeps no counts of its own. Read them from
/// [`GatewayClient::telemetry_snapshot`]: the registry counters
/// `gateway.reloads` (promotions, and any other successful reload),
/// `gateway.reload_failures` (failed reloads *and* failed rollbacks, each
/// also a Warn `gateway.reload_failed` event), `gateway.reload_refused` and
/// `gateway.reload_demoted`.
///
/// The watcher holds a [`GatewayClient`]; call [`ReloadWatcher::stop`]
/// before [`DefenseGateway::shutdown`] or the shutdown join will wait on it.
pub struct ReloadWatcher {
    stop_tx: mpsc::Sender<()>,
    thread: JoinHandle<()>,
}

/// Per-route watcher state: the artifact being served, plus probation
/// bookkeeping for the most recent promotion.
struct RouteWatch {
    /// The `(version, digest)` the route currently serves (as far as the
    /// watcher knows); `None` when nothing is stored yet.
    known: Option<(u32, u64)>,
    /// Set while the route is on post-promotion probation.
    promoted: Option<Promotion>,
}

struct Promotion {
    at: Instant,
    /// What was serving before the promotion — the rollback target.
    prior: Option<(u32, u64)>,
}

impl ReloadWatcher {
    /// Default post-promotion probation window.
    pub const DEFAULT_PROBATION: Duration = Duration::from_secs(30);

    fn spawn(
        client: GatewayClient,
        interval: Duration,
        probation: Duration,
    ) -> Result<ReloadWatcher, ServeError> {
        let registry = client.shared.registry.clone().ok_or_else(|| {
            ServeError::InvalidRequest(
                "watch_store requires a gateway built with a store".to_string(),
            )
        })?;
        // Only reloadable routes are worth polling: a pre-built-assets route
        // has no factory, so reloading it can never succeed.
        let routes: Vec<RouteKey> = client
            .routes()
            .into_iter()
            .filter(|key| {
                client.shared.routes[key]
                    .factory
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some()
            })
            .collect();
        // Baseline before the first poll: the shards were just built from
        // whatever is newest now, so only *changes* from here on reload.
        let mut watches: HashMap<RouteKey, RouteWatch> = routes
            .iter()
            .map(|key| {
                (
                    *key,
                    RouteWatch {
                        known: current_artifact(&registry, key),
                        promoted: None,
                    },
                )
            })
            .collect();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || loop {
            match stop_rx.recv_timeout(interval) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
            for key in &routes {
                let health = client.route_health(key).unwrap_or(HealthState::Unhealthy);
                let route_index = client.route_index(key).unwrap_or(u64::MAX);
                let Some(watch) = watches.get_mut(key) else {
                    continue; // watcher routes are fixed at startup
                };

                // Probation first: a just-promoted artifact that tanked the
                // route gets rolled back before any further promotion.
                if let Some(promotion) = watch.promoted.take() {
                    if promotion.at.elapsed() >= probation {
                        // Survived probation: stays cleared.
                    } else if health == HealthState::Unhealthy {
                        if let Some(prior) = promotion.prior {
                            let lifecycle = &client.shared.lifecycle;
                            let started = Instant::now();
                            match reload_route_pinned(&client.shared, key, prior) {
                                Ok(()) => {
                                    lifecycle.reload_demotions.incr();
                                    lifecycle
                                        .reload_demoted
                                        .observe(route_index, promotion.at.elapsed());
                                    // `known` stays at the newest (bad)
                                    // version so it is not re-promoted; a
                                    // future artifact will still differ and
                                    // go through the gate normally.
                                    continue;
                                }
                                Err(_) => {
                                    // The route keeps serving the artifact
                                    // that tanked it: as loud as a failed
                                    // forward reload.
                                    lifecycle.reload_failures.incr();
                                    lifecycle
                                        .reload_failed
                                        .observe(route_index, started.elapsed());
                                }
                            }
                        }
                    } else {
                        // Healthy and still on probation: keep watching.
                        watch.promoted = Some(promotion);
                    }
                }

                let newest = current_artifact(&registry, key);
                if newest.is_some() && newest != watch.known {
                    // The promotion gate: never swap weights under a route
                    // that is already missing its SLOs — a reload there
                    // destroys the evidence and risks stacking regressions.
                    if health != HealthState::Healthy {
                        let lifecycle = &client.shared.lifecycle;
                        lifecycle.reload_refusals.incr();
                        lifecycle
                            .reload_refused
                            .observe(route_index, Duration::ZERO);
                        // `known` is deliberately not updated: the promotion
                        // is retried on every poll until the route is
                        // Healthy again.
                        continue;
                    }
                    // Mark the version seen only once it is actually being
                    // served; a failed reload (e.g. a corrupt artifact or
                    // transient I/O) is counted by `reload_route` and
                    // retried on every poll until it succeeds.
                    if client.reload(key).is_ok() {
                        watch.promoted = Some(Promotion {
                            at: Instant::now(),
                            prior: watch.known,
                        });
                        watch.known = newest;
                    }
                }
            }
        });
        Ok(ReloadWatcher { stop_tx, thread })
    }

    /// Stop polling and join the watcher thread (releases its client).
    pub fn stop(self) {
        let _ = self.stop_tx.send(());
        let _ = self.thread.join();
    }
}

fn current_artifact(registry: &ModelRegistry, key: &RouteKey) -> Option<(u32, u64)> {
    registry
        .store()
        .resolve(key.model.name(), key.scale)
        .ok()
        .map(|artifact| (artifact.version, artifact.digest))
}

#[cfg(test)]
mod tests {
    use super::*;
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
            client.reload(&missing),
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
        // Worker arena gauges were published after the batch.
        assert!(
            snapshot
                .gauge(&format!("route.{label}.arena.w0.high_water_bytes"))
                .is_some_and(|bytes| bytes > 0),
            "worker 0 must publish its arena high-water mark"
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
    fn prebuilt_routes_cannot_reload_but_factory_routes_can() {
        let assets = vec![
            WorkerAssets::new(DefensePipeline::new(
                PreprocessConfig::none(),
                SrModelKind::NearestNeighbor
                    .build_seeded_upscaler(2, 0)
                    .unwrap(),
            )),
            WorkerAssets::new(DefensePipeline::new(
                PreprocessConfig::none(),
                SrModelKind::NearestNeighbor
                    .build_seeded_upscaler(2, 0)
                    .unwrap(),
            )),
        ];
        let gateway = GatewayBuilder::new()
            .route_with_assets(
                nearest_route(),
                RouteConfig {
                    num_workers: 2,
                    ..RouteConfig::default()
                },
                assets,
            )
            .route(bicubic_route())
            .build()
            .unwrap();
        let client = gateway.client();
        assert!(matches!(
            client.reload(&nearest_route()),
            Err(ServeError::InvalidRequest(_))
        ));
        client.reload(&bicubic_route()).unwrap();
        // The reloaded route still serves correctly.
        let image = test_image(2, 8);
        let served = client
            .defend_blocking(DefenseRequest::new(image.clone()).on(bicubic_route()))
            .unwrap();
        let direct = DefensePipeline::new(
            PreprocessConfig::none(),
            SrModelKind::Bicubic.build_interpolation(2).unwrap(),
        )
        .defend(&image)
        .unwrap();
        assert_eq!(served.defended, direct);
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
