//! **Hot reload** ([`GatewayClient::reload`]) rebuilds one route's workers
//! — a store-hydrated route from exactly one resolved artifact version, the
//! pinned one when the caller names it —
//! atomically swaps the new shard into the route table, then retires the old
//! shard by letting it drain: every job already accepted is still answered,
//! so a reload under load drops nothing. [`ReloadWatcher`] automates this:
//! it runs the one [`PromotionPolicy`] (health gate, probation, rollback)
//! for every store-hydrated route and executes each action it returns.

#[cfg(doc)]
use crate::gateway::DefenseGateway;
use crate::gateway::{entry_for, GatewayClient, GatewayShared, RouteEntry, WorkerFactory};
use crate::promotion::{Action, ArtifactId, Observation, PromotionPolicy};
use crate::route::RouteKey;
use crate::server::{ServeError, WorkerAssets};
use crate::shard::spawn_shard;
use sesr_defense::pipeline::DefensePipeline;
use sesr_store::{Checkpoint, ModelStore};
use sesr_telemetry::HealthState;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::PoisonError;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How one route's workers come to be.
pub(crate) enum RouteSource {
    /// Hydrated from the gateway's store: every worker from one resolved
    /// artifact, or from `seed` when no store is attached or nothing is
    /// stored for the route. `serving` is the artifact the live workers were
    /// built from.
    Store {
        seed: u64,
        serving: Option<ArtifactId>,
    },
    /// Built by a caller-supplied factory; the store never reaches it.
    Factory(WorkerFactory),
}

impl RouteSource {
    /// Build `num_workers` workers for `key`, and return them with the
    /// artifact the route served until now.
    ///
    /// This is the one place a store-hydrated route's workers are built —
    /// gateway build, reload and probation rollback all come through here.
    /// The artifact is resolved once (`pin` when given, else the newest
    /// stored), every worker is built from exactly that checkpoint, and it
    /// becomes the route's `serving` artifact. A factory-built route has no
    /// artifact and ignores `pin`.
    pub(crate) fn build(
        &mut self,
        store: Option<&ModelStore>,
        key: &RouteKey,
        num_workers: usize,
        pin: Option<ArtifactId>,
    ) -> Result<(Vec<WorkerAssets>, Option<ArtifactId>), ServeError> {
        let pipeline = |e: &dyn std::fmt::Display| ServeError::Pipeline(e.to_string());
        match self {
            RouteSource::Factory(factory) => {
                let assets = (0..num_workers)
                    .map(|worker| factory(worker).map_err(|e| pipeline(&e)))
                    .collect::<Result<_, _>>()?;
                Ok((assets, None))
            }
            RouteSource::Store { seed, serving } => {
                let hydrated = hydrate(store, key, pin)?;
                let mut assets = Vec::with_capacity(num_workers);
                for _ in 0..num_workers {
                    let upscaler = match &hydrated {
                        Some((_, checkpoint)) => key
                            .model
                            .build_from_checkpoint(key.scale, checkpoint, *seed),
                        None => key.model.build_seeded_upscaler(key.scale, *seed),
                    }
                    .map_err(|e| pipeline(&e))?;
                    assets.push(WorkerAssets::new(DefensePipeline::new(
                        key.preprocess,
                        upscaler,
                    )));
                }
                let replaced = std::mem::replace(serving, hydrated.map(|(artifact, _)| artifact));
                Ok((assets, replaced))
            }
        }
    }
}

/// Resolve a store-hydrated route's artifact — `pin` when given, else the
/// newest stored — and load exactly that one. `None` when no store is
/// attached or nothing is stored for the route; a pin that names no
/// stored artifact is an error.
fn hydrate(
    store: Option<&ModelStore>,
    key: &RouteKey,
    pin: Option<ArtifactId>,
) -> Result<Option<(ArtifactId, Checkpoint)>, ServeError> {
    let pipeline = |e: sesr_store::StoreError| ServeError::Pipeline(e.to_string());
    let Some(store) = store else {
        return Ok(None);
    };
    let versions = store
        .list_versions(key.model.name(), key.scale)
        .map_err(pipeline)?;
    let artifact = match pin {
        None => versions.last(),
        Some((version, digest)) => Some(
            versions
                .iter()
                .find(|artifact| artifact.version == version && artifact.digest == digest)
                .ok_or_else(|| {
                    ServeError::Pipeline(format!(
                        "route {key} has no stored artifact v{version:04}-{digest:016x}"
                    ))
                })?,
        ),
    };
    let Some(artifact) = artifact else {
        return Ok(None);
    };
    let checkpoint = store.load(artifact).map_err(pipeline)?;
    Ok(Some(((artifact.version, artifact.digest), checkpoint)))
}

/// Rebuild one route with the lifecycle accounting of a promotion: success
/// counts `gateway.reloads` and journals `gateway.reload` with the whole
/// rebuild-swap-drain duration (mirrored into `gateway.reload_ns`); failure
/// counts `gateway.reload_failures` and journals a Warn
/// `gateway.reload_failed`, so `sesr-top` surfaces a route stuck on old
/// weights. Returns the artifact the route served before.
pub(crate) fn reload_route(
    shared: &GatewayShared,
    route: &RouteKey,
    pin: Option<ArtifactId>,
) -> Result<Option<ArtifactId>, ServeError> {
    let started = Instant::now();
    let result = rebuild(shared, route, pin);
    match &result {
        Ok(_) => {
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

/// The one rebuild behind every reload and rollback: build the route's
/// workers from its source (a store-hydrated route from exactly the
/// artifact `pin` names, or the newest), then swap them in live. Returns
/// the artifact the route served before.
fn rebuild(
    shared: &GatewayShared,
    route: &RouteKey,
    pin: Option<ArtifactId>,
) -> Result<Option<ArtifactId>, ServeError> {
    let entry = entry_for(shared, route)?;
    // One rebuild at a time per route: the source lock is held across it,
    // but submissions keep flowing to the old shard meanwhile.
    let mut source = entry.source.lock().unwrap_or_else(PoisonError::into_inner);
    let (assets, replaced) =
        source.build(shared.store.as_ref(), route, entry.config.num_workers, pin)?;
    swap_in(shared, entry, route, assets);
    Ok(replaced)
}

/// The common tail of every rebuild: spawn a fresh shard from `assets`, swap
/// it live, drain and retire the old shard, purge the route's stale cache
/// entries. Infallible — by this point the new workers are already built.
fn swap_in(
    shared: &GatewayShared,
    entry: &RouteEntry,
    route: &RouteKey,
    assets: Vec<WorkerAssets>,
) {
    let (sender, threads) = spawn_shard(
        &entry.config,
        assets,
        &shared.cache,
        &entry.stats,
        &entry.stages,
        &entry.arenas,
    );

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

/// Background thread that runs the [`PromotionPolicy`] for every
/// store-hydrated route: each poll it observes the route (newest stored
/// artifact, health, probation), steps the route's policy and executes the
/// action — the "save a retrained model, serving picks it up" loop with no
/// restarts. Factory-built routes are not watched: their factories ignore
/// the store.
///
/// Each route's policy starts from the artifact its workers were built
/// from, and every promotion and rollback builds exactly the artifact the
/// policy named. Promotion is **health-gated**: a refusal is journaled as
/// `gateway.reload_refused`. A rollback inside the probation window is
/// journaled as `gateway.reload_demoted`.
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

impl ReloadWatcher {
    /// Default post-promotion probation window.
    pub const DEFAULT_PROBATION: Duration = Duration::from_secs(30);

    pub(crate) fn spawn(
        client: GatewayClient,
        interval: Duration,
    ) -> Result<ReloadWatcher, ServeError> {
        let store = client.shared.store.clone().ok_or_else(|| {
            ServeError::InvalidRequest(
                "watch_store requires a gateway built with a store".to_string(),
            )
        })?;
        // Only store-hydrated routes follow the store, each from the
        // artifact its workers were built from. Per route: the policy, when
        // its last promotion succeeded, and whether its last action did.
        let mut watches: Vec<(RouteKey, PromotionPolicy, Option<Instant>, bool)> = client
            .shared
            .order
            .iter()
            .filter_map(|key| {
                let source = client.shared.routes[key]
                    .source
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                match &*source {
                    RouteSource::Store { serving, .. } => {
                        Some((*key, PromotionPolicy::new(*serving), None, true))
                    }
                    RouteSource::Factory(_) => None,
                }
            })
            .collect();
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || loop {
            match stop_rx.recv_timeout(interval) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
            let lifecycle = &client.shared.lifecycle;
            for (key, policy, promoted_at, ok) in &mut watches {
                let action = policy.step(Observation {
                    newest: newest_artifact(&store, key),
                    health: client.route_health(key).unwrap_or(HealthState::Unhealthy),
                    probation_elapsed: promoted_at
                        .is_none_or(|at| at.elapsed() >= ReloadWatcher::DEFAULT_PROBATION),
                    previous_ok: *ok,
                });
                let route_index = client.route_index(key).unwrap_or(u64::MAX);
                *ok = match action {
                    Action::Hold => true,
                    Action::Refuse => {
                        lifecycle.reload_refusals.incr();
                        lifecycle
                            .reload_refused
                            .observe(route_index, Duration::ZERO);
                        true
                    }
                    // A failed promotion (e.g. a corrupt artifact or
                    // transient I/O) is counted by `reload_route`.
                    Action::Promote(artifact) => {
                        let promoted = reload_route(&client.shared, key, Some(artifact)).is_ok();
                        if promoted {
                            *promoted_at = Some(Instant::now());
                        }
                        promoted
                    }
                    Action::Rollback(artifact) => {
                        let started = Instant::now();
                        match rebuild(&client.shared, key, Some(artifact)) {
                            Ok(_) => {
                                lifecycle.reload_demotions.incr();
                                let on_probation =
                                    promoted_at.map_or(Duration::ZERO, |at| at.elapsed());
                                lifecycle.reload_demoted.observe(route_index, on_probation);
                                true
                            }
                            Err(_) => {
                                // The route keeps serving the artifact that
                                // tanked it: as loud as a failed promotion.
                                lifecycle.reload_failures.incr();
                                lifecycle
                                    .reload_failed
                                    .observe(route_index, started.elapsed());
                                false
                            }
                        }
                    }
                };
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

/// The newest artifact `store` holds for `key`'s model and scale, as the
/// `(version, digest)` a [`PromotionPolicy`] observes — what the reload
/// watcher and the cluster supervisor both poll.
pub fn newest_artifact(store: &ModelStore, key: &RouteKey) -> Option<ArtifactId> {
    store
        .resolve(key.model.name(), key.scale)
        .ok()
        .map(|artifact| (artifact.version, artifact.digest))
}
