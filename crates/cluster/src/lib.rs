//! `sesr-cluster` — multi-process gateway federation.
//!
//! One `sesr-serve` gateway scales to the cores one process can hold; this
//! crate federates N of them — shared-nothing worker processes, each a full
//! gateway behind the wire protocol — behind a single front tier:
//!
//! - [`ring`] — a consistent-hash ring over `(route, content_hash)` with
//!   virtual nodes. Content-addressed placement keeps each worker's output
//!   cache hot, and membership changes remap only the affected arcs.
//! - [`backend`] — [`ClusterBackend`], a [`sesr_net::Backend`] embedded in
//!   the front reactor: hashes each admitted request to its owning member
//!   and forwards it over the existing wire protocol, entirely
//!   non-blocking. A down member's arc sheds with `RetryAfter`; every
//!   other arc keeps serving.
//! - [`members`] — [`Members`], the one member table (state, address, last
//!   probe snapshot) the supervisor writes and everything else reads.
//! - [`supervisor`] — spawns the worker processes, health-checks them over
//!   the wire, restarts crashes and wedges under exponential backoff
//!   (members keep their ring identity, so restart ≠ remap), and runs the
//!   shared [`sesr_serve::PromotionPolicy`] per route on fleet health,
//!   sending each promotion or rollback to every member as one wire
//!   `Reload` pinned to the chosen artifact.
//! - [`cluster`] — [`Cluster::start`], the one-call wiring of all three,
//!   plus aggregated observability: the front's stats frame carries every
//!   `cluster.*` router/supervisor metric and a `cluster.fleet.*` rollup
//!   merged from the members' own snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cluster;
pub mod members;
pub mod ring;
pub mod supervisor;

pub use backend::ClusterBackend;
pub use cluster::{Cluster, ClusterConfig};
pub use members::{MemberInfo, MemberState, Members};
pub use ring::{key_hash, HashRing, MemberId};
pub use supervisor::{serve_member, SupervisorConfig, WorkerCommand};
