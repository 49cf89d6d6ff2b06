//! Wiring: one call that stands up the whole federation.
//!
//! [`Cluster::start`] builds the three tiers and what joins them:
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!   clients ──TCP──▶ │ front reactor (sesr-net) + ClusterBackend  │
//!                    └───────┬────────────────────────▲───────────┘
//!              forwards over │ wire             reads │ Members table
//!                    ┌───────▼───────┐        ┌───────┴───────┐
//!                    │ worker 0..n   │◀─wire──│  Supervisor   │
//!                    │ (gateways)    │ probes │  thread       │
//!                    └───────────────┘        └───────▲───────┘
//!                                              Command│ (reload, shutdown)
//!                                 wire Reload / Cluster::shutdown
//! ```
//!
//! The front and the supervisor share one piece of state, the
//! [`Members`] table: each member's state, address and last probe snapshot.
//! The supervisor writes it; the router, [`Cluster::members`], readiness
//! and the `cluster.fleet.*` rollup in the front's stats frame read it.

use crate::backend::ClusterBackend;
use crate::members::{MemberInfo, MemberState, Members};
use crate::supervisor::{Command, Supervisor, SupervisorConfig, WorkerCommand};
use sesr_net::{NetConfig, NetServer};
use sesr_serve::{RouteKey, TelemetryExporter};
use sesr_store::ModelStore;
use sesr_telemetry::{Telemetry, TelemetrySnapshot};
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything needed to stand up a federation.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker-process count (member ids `0..members`), each placed on the
    /// hash ring with [`HashRing::DEFAULT_VNODES`](crate::HashRing::DEFAULT_VNODES).
    pub members: u32,
    /// Routes the fleet serves; the front answers `UnknownRoute` for
    /// anything else, and the supervisor runs one promotion policy per
    /// route.
    pub routes: Vec<RouteKey>,
    /// Shared model-store directory the promotion policies watch (`None`:
    /// nothing is promoted; wire-initiated reloads still fan out).
    pub store_dir: Option<PathBuf>,
    /// How to spawn one worker.
    pub worker: WorkerCommand,
    /// Front-reactor admission (per-client token bucket, in-flight cap).
    pub net: NetConfig,
    /// Supervision tunables.
    pub supervisor: SupervisorConfig,
}

impl ClusterConfig {
    /// A config for `members` workers spawned by `worker`, with default
    /// tunables and no routes (add them with the struct-update syntax).
    pub fn new(members: u32, worker: WorkerCommand) -> ClusterConfig {
        ClusterConfig {
            members,
            routes: Vec::new(),
            store_dir: None,
            worker,
            net: NetConfig::default(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// A running federation: the front server plus the supervisor thread.
pub struct Cluster {
    server: Option<NetServer>,
    supervisor: Option<JoinHandle<()>>,
    commands: Sender<Command>,
    members: Arc<Members>,
    telemetry: Arc<Telemetry>,
}

impl Cluster {
    /// Bind the front tier on `addr`, spawn the workers, start supervising.
    ///
    /// Returns as soon as the front socket is bound — workers come up
    /// asynchronously; gate traffic on [`Cluster::wait_ready`].
    ///
    /// # Errors
    ///
    /// Binding the front socket, opening the store, or spawning the
    /// supervisor thread.
    pub fn start(addr: impl ToSocketAddrs, config: ClusterConfig) -> std::io::Result<Cluster> {
        let telemetry = Arc::new(Telemetry::new());
        let (command_tx, command_rx) = std::sync::mpsc::channel::<Command>();
        let members = Arc::new(Members::new(config.members));
        let store = match &config.store_dir {
            Some(dir) => Some(ModelStore::open(dir).map_err(std::io::Error::other)?),
            None => None,
        };
        let backend = ClusterBackend::new(
            Arc::clone(&telemetry),
            Arc::clone(&members),
            config.routes.iter().map(|key| key.label()),
            command_tx.clone(),
        );
        let server = NetServer::bind_with_backend(addr, config.net.clone(), backend)?;
        let supervisor = Supervisor::new(
            &config,
            Arc::clone(&telemetry),
            command_rx,
            Arc::clone(&members),
            store,
        );
        let handle = std::thread::Builder::new()
            .name("sesr-cluster-supervisor".to_string())
            .spawn(move || supervisor.run())?;
        Ok(Cluster {
            server: Some(server),
            supervisor: Some(handle),
            commands: command_tx,
            members,
            telemetry,
        })
    }

    /// The front tier's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .map(NetServer::local_addr)
            .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// The front hub — `net.*` admission metrics plus every `cluster.*`
    /// counter the router and supervisor maintain.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Current member states (id, state, address, pid, restart count).
    pub fn members(&self) -> Vec<MemberInfo> {
        self.members.view()
    }

    /// The same snapshot the front answers a wire Stats frame with: the
    /// front hub plus the `cluster.fleet.*` rollup of every `Up` member's
    /// probed telemetry. This is what [`Cluster::export_telemetry`] writes.
    pub fn stats_snapshot(&self) -> TelemetrySnapshot {
        self.members.stats_snapshot(&self.telemetry)
    }

    /// Spawn a background thread writing [`Cluster::stats_snapshot`] as JSON
    /// to `path` atomically — once immediately, then every `interval`, and
    /// once more on [`TelemetryExporter::stop`]. A failed periodic write
    /// counts in the front hub's `telemetry.export.errors`. This is the
    /// polling surface `sesr-top` watches for a live view of the fleet.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the first snapshot (e.g. an unwritable path).
    pub fn export_telemetry(
        &self,
        path: impl Into<PathBuf>,
        interval: Duration,
    ) -> std::io::Result<TelemetryExporter> {
        let telemetry = Arc::clone(&self.telemetry);
        let members = Arc::clone(&self.members);
        let errors = telemetry.metrics().counter("telemetry.export.errors");
        TelemetryExporter::spawn(path.into(), interval, Some(errors), move || {
            members.stats_snapshot(&telemetry)
        })
    }

    /// Block until every member is `Up` (true), or `timeout` elapses
    /// (false).
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let view = self.members();
            if !view.is_empty() && view.iter().all(|info| info.state == MemberState::Up) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stop everything: front reactor first (no new forwards), then the
    /// supervisor drains the workers.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let _ = self.commands.send(Command::Shutdown);
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop_inner();
    }
}
