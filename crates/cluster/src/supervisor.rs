//! Worker-process supervision: spawn, health-check, restart.
//!
//! The supervisor owns the fleet's lifecycle so the router never has to.
//! Each member is one OS process (a `sesr-clusterd --worker`, i.e. a full
//! gateway behind the wire protocol) spawned with stdout and stdin piped:
//!
//! - **stdout** carries the startup contract — exactly one
//!   `listening on ADDR` line once the worker's socket is bound (the same
//!   contract `sesr-netd` prints for CI). A reader thread per child streams
//!   lines into the supervisor loop, which publishes the member `Up` at
//!   that address in the [`Members`] table the router reads.
//! - **stdin** is the orphan tether. The worker exits when its stdin hits
//!   EOF, so a supervisor that dies — even by `kill -9`, where atexit
//!   handlers never run — takes its workers with it instead of leaking
//!   port-squatting processes.
//!
//! [`serve_member`] is the worker's half of both.
//!
//! Health is probed over the wire itself: a stats frame every
//! `HEALTH_INTERVAL` (150 ms), answered with the member's full telemetry
//! snapshot, kept in the member's seat. One probe does double duty —
//! liveness signal and the raw material for the fleet rollup
//! (`cluster.fleet.*`). A member that misses `UNHEALTHY_AFTER` (3)
//! consecutive probes, or whose process exits, goes `Down`: the router sheds
//! its arc with `RetryAfter` while the supervisor restarts it under
//! exponential backoff, from [`SupervisorConfig::restart_backoff`] up to
//! `MAX_RESTART_BACKOFF` (2 s). The member keeps its id across restarts, so
//! recovery is not a remap.
//!
//! The supervisor is also where **promotion** converges. Every
//! `WATCH_INTERVAL` (250 ms) it steps the same [`PromotionPolicy`] as the
//! in-process [`ReloadWatcher`], one per route, fed with the shared
//! [`ModelStore`]'s newest artifact and the route's
//! fleet health (the worst `route.<label>.health` across the `Up` members'
//! probe snapshots). Each promotion or probation rollback the policy returns
//! goes out as one wire `Reload` pinned to the chosen `(version, digest)`,
//! sent to every `Up` member — N workers, one policy, one broadcast per
//! action, and every member builds exactly that artifact. A member that
//! comes `Up` after a promotion or rollback gets the same pinned `Reload`
//! before it is published `Up`.

use crate::members::{MemberInfo, MemberState, Members};
use crate::ring::MemberId;
use crate::ClusterConfig;
use sesr_net::{NetClient, NetConfig, NetServer, ReconnectPolicy};
use sesr_serve::{
    newest_artifact, Action, ArtifactId, DefenseGateway, Observation, PromotionPolicy,
    ReloadWatcher, RouteKey,
};
use sesr_store::ModelStore;
use sesr_telemetry::{HealthState, Telemetry, TelemetrySnapshot};
use std::io::{BufRead, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to start one worker process. The same command is used for every
/// member (shared-nothing workers bind port 0 and report back), and for
/// every restart.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable to spawn (typically `std::env::current_exe()` re-executed
    /// with a `--worker` flag).
    pub program: PathBuf,
    /// Arguments passed verbatim.
    pub args: Vec<String>,
}

/// Wire health-probe period.
const HEALTH_INTERVAL: Duration = Duration::from_millis(150);
/// Consecutive probe failures before a member is declared wedged and
/// restarted.
const UNHEALTHY_AFTER: u32 = 3;
/// Restart-delay ceiling.
const MAX_RESTART_BACKOFF: Duration = Duration::from_secs(2);
/// How long a spawned worker may take to print its `listening on` line
/// before being treated as wedged (a worker hydrates models from the store
/// on startup).
const STARTUP_TIMEOUT: Duration = Duration::from_secs(30);
/// How often each route's promotion policy observes the store and the
/// fleet's health and steps. Its probation window is
/// [`ReloadWatcher::DEFAULT_PROBATION`].
const WATCH_INTERVAL: Duration = Duration::from_millis(250);

/// Tunables for the supervision loop.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-probe timeout, also the wait for each member's reload reply
    /// (default 1 s).
    pub health_timeout: Duration,
    /// First restart delay (default 100 ms); doubles per consecutive
    /// restart of the same member, up to 2 s.
    pub restart_backoff: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            health_timeout: Duration::from_secs(1),
            restart_backoff: Duration::from_millis(100),
        }
    }
}

/// Requests into the supervisor loop: wire `Reload` frames received by the
/// router, and [`Cluster`](crate::Cluster) shutdown.
#[derive(Debug, Clone)]
pub enum Command {
    /// Reload `route` (empty = every route) on every `Up` member, each
    /// route pinned to `pin` or else to its newest stored artifact,
    /// resolved once here.
    Reload {
        /// A label the fleet serves, or empty for every route.
        route: String,
        /// The stored `(version, digest)` to build; needs a route label.
        pin: Option<ArtifactId>,
    },
    /// Drain every member and exit the loop.
    Shutdown,
}

/// One supervised worker process.
#[derive(Default)]
struct Member {
    child: Option<Child>,
    /// Held open for the life of the child: dropping it is the shutdown/orphan
    /// signal (worker exits on stdin EOF).
    stdin: Option<ChildStdin>,
    probe: Option<NetClient>,
    health_failures: u32,
    restart_at: Option<Instant>,
    spawned_at: Option<Instant>,
}

/// One route's [`PromotionPolicy`] plus what executing its actions needs.
struct RoutePolicy {
    key: RouteKey,
    policy: PromotionPolicy,
    /// When the last promotion reached the fleet: the probation clock.
    promoted_at: Option<Instant>,
    /// Whether the last action reached every `Up` member.
    ok: bool,
    /// The artifact every member must build, once a promotion, rollback or
    /// explicit reload chose one; restarted members are pinned to it.
    pinned: Option<ArtifactId>,
}

/// Everything the supervisor loop needs, bundled so [`run`] stays readable.
pub(crate) struct Supervisor {
    worker: WorkerCommand,
    config: SupervisorConfig,
    telemetry: Arc<Telemetry>,
    commands: Receiver<Command>,
    /// The member table, written only here.
    table: Arc<Members>,
    /// Lines from the workers' stdout reader threads.
    stdout_tx: Sender<(MemberId, String)>,
    stdout_rx: Receiver<(MemberId, String)>,
    members: Vec<Member>,
    store: Option<ModelStore>,
    policies: Vec<RoutePolicy>,
    last_probe: Instant,
    last_watch: Instant,
}

impl Supervisor {
    /// Build a supervisor for `config`'s fleet, writing membership and
    /// probe snapshots to `table`.
    pub(crate) fn new(
        config: &ClusterConfig,
        telemetry: Arc<Telemetry>,
        commands: Receiver<Command>,
        table: Arc<Members>,
        store: Option<ModelStore>,
    ) -> Supervisor {
        let (stdout_tx, stdout_rx) = std::sync::mpsc::channel();
        // Members hydrate the newest artifact at startup, so that is what
        // each route's policy starts from.
        let policies = config
            .routes
            .iter()
            .map(|key| RoutePolicy {
                key: *key,
                policy: PromotionPolicy::new(
                    store.as_ref().and_then(|store| newest_artifact(store, key)),
                ),
                promoted_at: None,
                ok: true,
                pinned: None,
            })
            .collect();
        Supervisor {
            worker: config.worker.clone(),
            config: config.supervisor.clone(),
            telemetry,
            commands,
            table,
            stdout_tx,
            stdout_rx,
            members: (0..config.members).map(|_| Member::default()).collect(),
            store,
            policies,
            last_probe: Instant::now(),
            last_watch: Instant::now(),
        }
    }

    /// Run the supervision loop until [`Command::Shutdown`] (or every
    /// command sender hangs up).
    pub(crate) fn run(mut self) {
        for id in 0..self.members.len() as u32 {
            self.spawn(id);
        }
        loop {
            self.drain_stdout();
            self.reap_exits();
            self.check_startup_timeouts();
            self.restart_due();
            if self.last_probe.elapsed() >= HEALTH_INTERVAL {
                self.last_probe = Instant::now();
                self.probe_health();
            }
            if self.last_watch.elapsed() >= WATCH_INTERVAL {
                self.last_watch = Instant::now();
                self.step_policies();
            }
            match self.commands.try_recv() {
                Ok(Command::Reload { route, pin }) => self.reload(&route, pin),
                Ok(Command::Shutdown) | Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {}
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shutdown_all();
    }

    /// Update member `id` in the table and keep the `cluster.members_up`
    /// gauge in step.
    fn set_member(&self, id: MemberId, update: impl FnOnce(&mut MemberInfo)) {
        let up = self.table.update(id, update) as i64;
        self.telemetry.metrics().gauge("cluster.members_up").set(up);
    }

    /// Spawn (or respawn) member `id`'s process.
    fn spawn(&mut self, id: MemberId) {
        let spawned = std::process::Command::new(&self.worker.program)
            .args(&self.worker.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        let member = &mut self.members[id as usize];
        member.spawned_at = Some(Instant::now());
        member.health_failures = 0;
        member.restart_at = None;
        member.probe = None;
        match spawned {
            Ok(mut child) => {
                self.telemetry
                    .metrics()
                    .counter("cluster.supervisor.spawned")
                    .incr();
                member.stdin = child.stdin.take();
                if let Some(stdout) = child.stdout.take() {
                    let tx = self.stdout_tx.clone();
                    // EOF alone is not a failure (a worker closes stdout on
                    // the way out): process exit handles the state change.
                    std::thread::spawn(move || {
                        let lines = std::io::BufReader::new(stdout).lines();
                        for line in lines.map_while(Result::ok) {
                            if tx.send((id, line)).is_err() {
                                return;
                            }
                        }
                    });
                }
                let pid = child.id();
                member.child = Some(child);
                self.set_member(id, |info| {
                    info.state = MemberState::Starting;
                    info.addr = None;
                    info.pid = Some(pid);
                });
            }
            Err(err) => {
                eprintln!("cluster: cannot spawn member {id}: {err}");
                self.mark_down(id);
            }
        }
    }

    /// Handle `listening on ADDR` lines: publish each `Starting` member
    /// `Up` at its address.
    fn drain_stdout(&mut self) {
        while let Ok((id, line)) = self.stdout_rx.try_recv() {
            let Some(addr) = line
                .strip_prefix("listening on ")
                .and_then(|rest| rest.trim().parse::<SocketAddr>().ok())
            else {
                continue;
            };
            if self.table.get(id).state != MemberState::Starting {
                continue;
            }
            // A member that cannot build the artifacts the fleet was pinned
            // to must not serve.
            if !self.pin_member(addr) {
                self.kill(id);
                self.mark_down(id);
                continue;
            }
            self.set_member(id, |info| {
                info.state = MemberState::Up;
                info.addr = Some(addr);
            });
        }
    }

    /// Reap exited children: each exit marks the member down and schedules
    /// its restart.
    fn reap_exits(&mut self) {
        for id in 0..self.members.len() as u32 {
            let member = &mut self.members[id as usize];
            let exited = member
                .child
                .as_mut()
                .is_some_and(|child| matches!(child.try_wait(), Ok(Some(_)) | Err(_)));
            if exited {
                member.child = None;
                member.stdin = None;
                self.mark_down(id);
            }
        }
    }

    /// A worker that never printed its address within the startup budget is
    /// wedged: kill and reschedule.
    fn check_startup_timeouts(&mut self) {
        for id in 0..self.members.len() as u32 {
            let member = &self.members[id as usize];
            let late = member
                .spawned_at
                .is_some_and(|at| at.elapsed() > STARTUP_TIMEOUT);
            if late && member.child.is_some() && self.table.get(id).state == MemberState::Starting {
                self.kill(id);
                self.mark_down(id);
            }
        }
    }

    /// Transition `id` to `Down` (which drops its probe snapshot from the
    /// fleet view) and schedule the backed-off respawn.
    fn mark_down(&mut self, id: MemberId) {
        if matches!(self.table.get(id).state, MemberState::Down) {
            return;
        }
        self.set_member(id, |info| {
            info.state = MemberState::Down;
            info.addr = None;
        });
        // The n-th restart waits as long as a client's (n + 1)-th redial.
        let restarts = u32::try_from(self.table.get(id).restarts).unwrap_or(u32::MAX);
        let backoff = ReconnectPolicy {
            initial_backoff: self.config.restart_backoff,
            max_backoff: MAX_RESTART_BACKOFF,
            ..ReconnectPolicy::default()
        }
        .backoff(restarts.saturating_add(1));
        let member = &mut self.members[id as usize];
        member.probe = None;
        member.restart_at = Some(Instant::now() + backoff);
    }

    /// Respawn members whose restart backoff has elapsed.
    fn restart_due(&mut self) {
        for id in 0..self.members.len() as u32 {
            let due = self.members[id as usize]
                .restart_at
                .is_some_and(|at| Instant::now() >= at);
            if due && self.table.get(id).state == MemberState::Down {
                let metrics = self.telemetry.metrics();
                metrics.counter("cluster.supervisor.restarts").incr();
                metrics
                    .counter(&format!("cluster.member.{id}.restarts"))
                    .incr();
                self.set_member(id, |info| info.restarts += 1);
                self.spawn(id);
            }
        }
    }

    /// Probe every `Up` member over the wire; a reply refreshes its fleet
    /// snapshot, repeated silence restarts it.
    fn probe_health(&mut self) {
        for id in 0..self.members.len() as u32 {
            let info = self.table.get(id);
            let (MemberState::Up, Some(addr)) = (info.state, info.addr) else {
                continue;
            };
            let timeout = self.config.health_timeout;
            let member = &mut self.members[id as usize];
            if member.probe.is_none() {
                member.probe = NetClient::connect(addr).ok();
            }
            // The probe runs on this loop's thread, so its cost (stats
            // fetch + parse) is how long reaping, restarts and reload
            // fan-out wait: `cluster.supervisor.probe_ns`.
            let started = Instant::now();
            let json = member
                .probe
                .as_mut()
                .and_then(|probe| probe.stats(timeout).ok());
            let parsed = json.and_then(|json| TelemetrySnapshot::from_json(&json).ok());
            self.telemetry
                .metrics()
                .histogram("cluster.supervisor.probe_ns")
                .record_duration(started.elapsed());
            match parsed {
                Some(snapshot) => {
                    member.health_failures = 0;
                    self.table.record_probe(id, snapshot);
                }
                None => {
                    member.probe = None;
                    member.health_failures += 1;
                    self.telemetry
                        .metrics()
                        .counter("cluster.supervisor.health_failures")
                        .incr();
                    if member.health_failures >= UNHEALTHY_AFTER {
                        self.kill(id);
                        self.mark_down(id);
                    }
                }
            }
        }
    }

    /// One poll of every route's [`PromotionPolicy`]: observe the store and
    /// the fleet's health, step, and send a promotion or rollback to the
    /// fleet pinned to the artifact the policy chose.
    fn step_policies(&mut self) {
        if self.store.is_none() {
            return;
        }
        // A member published `Up` since the last probe has no snapshot yet
        // and would read Unhealthy: probe it first, or a restart inside
        // probation would roll back a good promotion.
        if self.table.read_up(|snapshots| snapshots.contains(&None)) {
            self.probe_health();
        }
        let metrics = self.telemetry.metrics();
        for index in 0..self.policies.len() {
            let route = &mut self.policies[index];
            let label = route.key.label();
            let action = route.policy.step(Observation {
                newest: self
                    .store
                    .as_ref()
                    .and_then(|store| newest_artifact(store, &route.key)),
                health: fleet_health(&label, &self.table),
                probation_elapsed: route
                    .promoted_at
                    .is_none_or(|at| at.elapsed() >= ReloadWatcher::DEFAULT_PROBATION),
                previous_ok: route.ok,
            });
            let ok = match action {
                Action::Hold => true,
                Action::Refuse => {
                    metrics.counter("cluster.reload.refused").incr();
                    true
                }
                Action::Promote(artifact) | Action::Rollback(artifact) => {
                    self.fan_out_reload(&label, Some(artifact))
                }
            };
            let route = &mut self.policies[index];
            route.ok = ok;
            match action {
                Action::Promote(artifact) if ok => {
                    metrics.counter("cluster.reload.promotions").incr();
                    route.promoted_at = Some(Instant::now());
                    route.pinned = Some(artifact);
                }
                Action::Rollback(artifact) if ok => {
                    metrics.counter("cluster.reload.rollbacks").incr();
                    route.pinned = Some(artifact);
                }
                _ => {}
            }
        }
    }

    /// An explicit reload of `route` (empty = every route): resolve each
    /// route's artifact once — `pin`, or the newest stored — and send it to
    /// the fleet pinned. The policy records what the fleet now serves.
    fn reload(&mut self, route: &str, pin: Option<ArtifactId>) {
        for index in 0..self.policies.len() {
            let key = self.policies[index].key;
            let label = key.label();
            if !route.is_empty() && label != route {
                continue;
            }
            let pin = pin.or_else(|| {
                self.store
                    .as_ref()
                    .and_then(|store| newest_artifact(store, &key))
            });
            if let (true, Some(artifact)) = (self.fan_out_reload(&label, pin), pin) {
                let route = &mut self.policies[index];
                route.policy.served(artifact);
                route.pinned = Some(artifact);
            }
        }
    }

    /// Send every route's pinned artifact to the member at `addr` before it
    /// is published `Up`. Nothing is sent before the first promotion,
    /// rollback or explicit reload, so a cluster without a store sends
    /// nothing. True when the member built every pinned artifact.
    fn pin_member(&self, addr: SocketAddr) -> bool {
        self.policies.iter().all(|route| {
            route
                .pinned
                .is_none_or(|artifact| self.send_reload(addr, &route.key.label(), Some(artifact)))
        })
    }

    /// Send a wire `Reload` of `route` pinned to `pin` to every `Up`
    /// member. True when every one of them acknowledged success.
    fn fan_out_reload(&self, route: &str, pin: Option<ArtifactId>) -> bool {
        let targets: Vec<SocketAddr> = self
            .table
            .view()
            .iter()
            .filter(|info| info.state == MemberState::Up)
            .filter_map(|info| info.addr)
            .collect();
        // Every member is sent the reload, even after one fails.
        let acked = targets
            .iter()
            .filter(|&&addr| self.send_reload(addr, route, pin))
            .count();
        acked == targets.len()
    }

    /// Send one wire `Reload` to the member at `addr` and wait for its
    /// reply, counting the send and its outcome.
    fn send_reload(&self, addr: SocketAddr, route: &str, pin: Option<ArtifactId>) -> bool {
        let metrics = self.telemetry.metrics();
        metrics.counter("cluster.reload.fanout_sent").incr();
        // A dedicated connection per reload keeps the health probe's frame
        // stream untangled from reload replies.
        let outcome = NetClient::connect(addr)
            .map_err(sesr_net::NetError::from)
            .and_then(|mut client| client.reload(route, pin, self.config.health_timeout));
        let error = match outcome {
            Ok((true, _)) => {
                metrics.counter("cluster.reload.fanout_acked").incr();
                return true;
            }
            Ok((false, message)) => message,
            Err(err) => err.to_string(),
        };
        eprintln!("cluster: member at {addr} failed to reload {route}: {error}");
        metrics.counter("cluster.reload.fanout_failed").incr();
        false
    }

    /// Kill member `id`'s process outright (wedged or shutting down).
    fn kill(&mut self, id: MemberId) {
        let member = &mut self.members[id as usize];
        member.stdin = None;
        if let Some(child) = member.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        member.child = None;
    }

    /// Drain every member: stdin EOF first for a clean exit, hard kill
    /// after a grace period.
    fn shutdown_all(&mut self) {
        for member in &mut self.members {
            member.stdin = None;
        }
        let grace = Instant::now() + Duration::from_secs(2);
        while Instant::now() < grace
            && self.members.iter_mut().any(|member| {
                member
                    .child
                    .as_mut()
                    .is_some_and(|child| matches!(child.try_wait(), Ok(None)))
            })
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        for id in 0..self.members.len() as u32 {
            self.kill(id);
        }
    }
}

/// A route's fleet health: the worst `route.<label>.health` gauge across
/// the probe snapshots of the `Up` members. A missing snapshot or gauge,
/// or no `Up` member at all, reads as Unhealthy.
fn fleet_health(label: &str, table: &Members) -> HealthState {
    let gauge = format!("route.{label}.health");
    table.read_up(|snapshots| {
        snapshots
            .iter()
            .map(|snapshot| {
                snapshot
                    .and_then(|snapshot| snapshot.gauge(&gauge))
                    .map_or(HealthState::Unhealthy, |value| {
                        HealthState::from_u8(u8::try_from(value).unwrap_or(u8::MAX))
                    })
            })
            .max()
            .unwrap_or(HealthState::Unhealthy)
    })
}

/// The member side of the contract in the module docs — the whole worker
/// role of a `--worker` process once it has built its gateway. Serves
/// `gateway` on an OS-chosen loopback port, prints the one
/// `listening on ADDR` line the supervisor waits for, blocks until stdin
/// hits EOF (the front shut down, or died), then stops the reactor and
/// shuts the gateway down. Crash restarts are the supervisor's job.
///
/// Any worker main can end in this one call (`sesr-clusterd --worker` does;
/// `perf --worker` carries its own copy of the same steps and can be
/// replaced by it).
///
/// # Errors
///
/// Binding the socket or spawning the tether thread failed, or the reactor
/// exited while the supervisor still held stdin open.
pub fn serve_member(gateway: DefenseGateway) -> std::io::Result<()> {
    // The front is this member's only client, carrying the whole arc's
    // traffic over one connection: per-client token buckets would shed the
    // internal link, so admission control stays at the front tier.
    let config = NetConfig {
        per_client_limit: None,
        max_inflight_per_conn: 256,
    };
    let server = NetServer::bind("127.0.0.1:0", config, gateway.client())?;
    // Exactly one line, flushed before any traffic can arrive.
    println!("listening on {}", server.local_addr());

    // The tether reads on its own thread so the loop below can also notice a
    // dead reactor; blocked in `read`, it is never joined.
    let (eof_tx, eof_rx) = std::sync::mpsc::channel();
    std::thread::Builder::new()
        .name("stdin-tether".to_string())
        .spawn(move || {
            let mut sink = [0u8; 64];
            let mut stdin = std::io::stdin().lock();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            let _ = eof_tx.send(());
        })?;
    while let Err(RecvTimeoutError::Timeout) = eof_rx.recv_timeout(Duration::from_millis(25)) {
        if server.is_finished() {
            return Err(std::io::Error::other("worker reactor exited unexpectedly"));
        }
    }
    server.stop();
    gateway.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Members `0..states.len()` in `states`, each probed while `Up` with a
    /// snapshot whose `route.r.health` gauge is `gauges[id]` (`None`: no
    /// gauge; no entry: never probed).
    fn fleet(states: &[MemberState], gauges: &[Option<HealthState>]) -> Members {
        let table = Members::new(states.len() as u32);
        for (id, &state) in states.iter().enumerate() {
            let id = id as MemberId;
            table.update(id, |info| info.state = MemberState::Up);
            if let Some(gauge) = gauges.get(id as usize) {
                let snapshot = TelemetrySnapshot {
                    gauges: gauge
                        .iter()
                        .map(|state| ("route.r.health".to_string(), i64::from(state.as_u8())))
                        .collect(),
                    ..TelemetrySnapshot::default()
                };
                table.record_probe(id, snapshot);
            }
            table.update(id, |info| info.state = state);
        }
        table
    }

    #[test]
    fn fleet_health_is_the_worst_up_member() {
        use HealthState::{Degraded, Healthy, Unhealthy};
        use MemberState::{Down, Up};
        let health = |states: &[MemberState], gauges: &[Option<HealthState>]| {
            fleet_health("r", &fleet(states, gauges))
        };
        assert_eq!(health(&[Up, Up], &[Some(Healthy), Some(Healthy)]), Healthy);
        assert_eq!(
            health(&[Up, Up], &[Some(Healthy), Some(Degraded)]),
            Degraded
        );
        assert_eq!(
            health(&[Up, Up], &[Some(Healthy), None]),
            Unhealthy,
            "a snapshot without the gauge reads Unhealthy"
        );
        assert_eq!(
            health(&[Up, Up], &[Some(Healthy)]),
            Unhealthy,
            "an Up member with no snapshot reads Unhealthy"
        );
        assert_eq!(
            health(&[Up, Down], &[Some(Healthy), Some(Unhealthy)]),
            Healthy,
            "a Down member is ignored"
        );
        assert_eq!(health(&[Down], &[Some(Healthy)]), Unhealthy, "no Up member");
    }

    #[test]
    fn defaults_are_sane() {
        let config = SupervisorConfig::default();
        assert!(HEALTH_INTERVAL < config.health_timeout);
        assert!(config.restart_backoff < MAX_RESTART_BACKOFF);
        assert_ne!(UNHEALTHY_AFTER, 0);
    }
}
