//! The member table: one seat per member, holding its [`MemberInfo`] and
//! its last health-probe snapshot. The supervisor is its only writer; the
//! router, [`Cluster::members`](crate::Cluster::members) and `wait_ready`,
//! the promotion gate and the `cluster.fleet.*` rollup read it. A
//! generation, bumped whenever a member's state, address or pid changes,
//! lets the router see a change with one atomic load per call. Only an
//! `Up` member has a snapshot, so a `Down` one leaves the fleet rollup.

use crate::ring::MemberId;
use sesr_telemetry::{merge_snapshots, prefix_snapshot, Telemetry, TelemetrySnapshot};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lifecycle state of one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Process spawned, waiting for its `listening on` line.
    Starting,
    /// Serving; owns its ring arcs.
    Up,
    /// Process dead or wedged; its arcs shed until the restart lands.
    Down,
}

/// Supervisor-side view of one member, exposed through
/// [`Cluster::members`](crate::Cluster::members).
#[derive(Debug, Clone)]
pub struct MemberInfo {
    /// Stable member id (also its ring identity).
    pub id: MemberId,
    /// Current lifecycle state.
    pub state: MemberState,
    /// Wire address, once the worker reported it.
    pub addr: Option<SocketAddr>,
    /// OS process id of the current incarnation.
    pub pid: Option<u32>,
    /// Times this member has been restarted after a crash or failed health
    /// check (the initial spawn is not a restart).
    pub restarts: u64,
}

/// One member's record and its last probe snapshot.
struct Seat {
    info: MemberInfo,
    snapshot: Option<TelemetrySnapshot>,
}

/// The fleet's member table (see the module docs).
pub struct Members {
    seats: Mutex<Vec<Seat>>,
    generation: AtomicU64,
}

impl Members {
    /// A table of `count` members (ids `0..count`), all `Starting`. It
    /// starts at generation 1, so a reader that has seen nothing (0) reads
    /// it on its first look.
    pub fn new(count: u32) -> Members {
        let seats = (0..count)
            .map(|id| Seat {
                info: MemberInfo {
                    id,
                    state: MemberState::Starting,
                    addr: None,
                    pid: None,
                    restarts: 0,
                },
                snapshot: None,
            })
            .collect();
        Members {
            seats: Mutex::new(seats),
            generation: AtomicU64::new(1),
        }
    }

    /// The one write path for membership: apply `update` to member `id`'s
    /// record. A member left in any state but `Up` loses its snapshot; a
    /// changed state, address or pid bumps the generation. Returns how many
    /// members are `Up` afterwards. Panics if `id` is not in the table.
    pub fn update(&self, id: MemberId, update: impl FnOnce(&mut MemberInfo)) -> usize {
        let mut seats = lock(&self.seats);
        let seat = &mut seats[id as usize];
        let before = (seat.info.state, seat.info.addr, seat.info.pid);
        update(&mut seat.info);
        if seat.info.state != MemberState::Up {
            seat.snapshot = None;
        }
        if (seat.info.state, seat.info.addr, seat.info.pid) != before {
            // lint: allow(atomic-ordering): bumped under the table's lock, which orders the seats a reader then locks to read
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        seats
            .iter()
            .filter(|seat| seat.info.state == MemberState::Up)
            .count()
    }

    /// Store member `id`'s probe snapshot, if it is still `Up`.
    pub(crate) fn record_probe(&self, id: MemberId, snapshot: TelemetrySnapshot) {
        let mut seats = lock(&self.seats);
        let seat = &mut seats[id as usize];
        if seat.info.state == MemberState::Up {
            seat.snapshot = Some(snapshot);
        }
    }

    /// The membership generation.
    pub(crate) fn generation(&self) -> u64 {
        // lint: allow(atomic-ordering): a hint to re-read; the seats themselves are read under the lock
        self.generation.load(Ordering::Relaxed)
    }

    /// Member `id`'s record.
    pub(crate) fn get(&self, id: MemberId) -> MemberInfo {
        lock(&self.seats)[id as usize].info.clone()
    }

    /// Every member's record, in id order.
    pub(crate) fn view(&self) -> Vec<MemberInfo> {
        lock(&self.seats)
            .iter()
            .map(|seat| seat.info.clone())
            .collect()
    }

    /// Run `read` over the `Up` members' last probe snapshots (`None`: not
    /// probed since it came up), under the table's lock.
    pub(crate) fn read_up<R>(&self, read: impl FnOnce(&[Option<&TelemetrySnapshot>]) -> R) -> R {
        let seats = lock(&self.seats);
        let up: Vec<Option<&TelemetrySnapshot>> = seats
            .iter()
            .filter(|seat| seat.info.state == MemberState::Up)
            .map(|seat| seat.snapshot.as_ref())
            .collect();
        read(&up)
    }

    /// The front's full stats view: its own hub (admission and `cluster.*`
    /// routing metrics) extended with the `Up` members' probe snapshots
    /// merged into one fleet rollup under `cluster.fleet.*`. Shared by the
    /// wire Stats frame, [`Cluster::stats_snapshot`](crate::Cluster) and
    /// its exporter.
    pub(crate) fn stats_snapshot(&self, telemetry: &Telemetry) -> TelemetrySnapshot {
        let mut snapshot = telemetry.snapshot();
        let fleet = self.read_up(|snapshots| {
            prefix_snapshot(
                merge_snapshots(snapshots.iter().flatten().copied()),
                "cluster.fleet.",
            )
        });
        snapshot.counters.extend(fleet.counters);
        snapshot.gauges.extend(fleet.gauges);
        snapshot.histograms.extend(fleet.histograms);
        snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot
    }
}

/// Lock a mutex, recovering from poisoning: a panicked holder leaves the
/// table readable, and supervision and routing must keep going.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probed(served: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![("served".to_string(), served)],
            ..TelemetrySnapshot::default()
        }
    }

    fn set(members: &Members, id: MemberId, state: MemberState) -> usize {
        members.update(id, |info| {
            info.state = state;
            info.addr =
                (state == MemberState::Up).then(|| SocketAddr::from(([127, 0, 0, 1], 9000)));
        })
    }

    #[test]
    fn down_members_leave_the_fleet_rollup() {
        let (members, hub) = (Members::new(2), Telemetry::new());
        let fleet = |members: &Members| {
            let snapshot = members.stats_snapshot(&hub);
            snapshot.counter("cluster.fleet.served").unwrap_or(0)
        };
        for (id, served) in [(0, 5), (1, 7)] {
            set(&members, id, MemberState::Up);
            members.record_probe(id, probed(served));
        }
        assert_eq!(fleet(&members), 12);
        set(&members, 1, MemberState::Down);
        assert_eq!(fleet(&members), 5, "a Down member's figures are gone");
        members.record_probe(1, probed(7));
        assert_eq!(fleet(&members), 5, "a Down member takes no probe");
        // The restart's reset counters replace the old figures, never
        // subtract from a sum that still holds them.
        set(&members, 1, MemberState::Up);
        members.record_probe(1, probed(1));
        assert_eq!(fleet(&members), 6);
    }

    #[test]
    fn generation_moves_only_with_state_address_or_pid() {
        let members = Members::new(1);
        let seen = members.generation();
        members.update(0, |info| info.restarts += 1);
        assert_eq!(members.generation(), seen, "restarts is not membership");
        members.update(0, |info| info.pid = Some(42));
        assert_eq!(set(&members, 0, MemberState::Up), 1, "one member Up");
        members.record_probe(0, probed(1));
        assert_eq!(members.generation(), seen + 2);
    }
}
