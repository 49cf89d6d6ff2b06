//! **sesr-serve** — a multi-model, batched, multi-worker serving subsystem
//! for the SESR adversarial defense.
//!
//! The paper's pitch is that the JPEG → wavelet → ×2-SR defense is cheap
//! enough to sit *in front of every classifier invocation* on edge hardware —
//! and that many tiny SESR variants (XXS→L, ×2/×4) can each play that role.
//! This crate serves the whole zoo at once: a [`DefenseGateway`] hosts one
//! isolated worker shard per route, where a route is a
//! [`RouteKey`]` = (SR model, scale, preprocess)` picked **per request**
//! rather than per deployment.
//!
//! ```text
//!                      ┌───────────────────── DefenseGateway ─────────────────────┐
//!                      │                                                          │
//! DefenseRequest ──────┼─► route table ─┬─► shard sesr-m2:x2:jpeg75+wavelet2      │
//! { image, RouteKey,   │   (UnknownRoute│     queue → worker pool                 │
//!   skip_cache,        │    on miss)    ├─► shard fsrcnn:x2:jpeg75+wavelet2       │
//!   deadline }         │                │     queue → worker pool                 │
//!       │              │                └─► shard bicubic:x2:raw   ...            │
//!       │   hit?       │   ┌──────────────────────────┐      │                    │
//!       ├─────────────►│   │ shared LRU cache, keyed  │◄─────┤ insert defended    │
//!       ▼              │   │ by (RouteKey, hash)      │      ▼                    │
//! PendingResponse ◄────┼── per-request response channels ◄── split batch          │
//!                      │                                                          │
//!                      │   route.* per route; gateway.* derived at snapshot time  │
//!                      └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Design points:
//!
//! * **Shard-per-route isolation.** Every declared route owns a bounded
//!   submission queue and `num_workers` private pipelines. A hot model
//!   fills *its own* queue and sheds *its own* load
//!   ([`ServeError::Overloaded`]); other routes keep their full capacity.
//! * **Typed routing.** Requests are [`DefenseRequest`]s: an image, an
//!   optional [`RouteKey`] (default route otherwise) and per-request options
//!   (`skip_cache`, a soft deadline answered with
//!   [`ServeError::DeadlineExceeded`]). Unserved routes fail fast with
//!   [`ServeError::UnknownRoute`].
//! * **Two route sources.** A store-hydrated route
//!   ([`GatewayBuilder::route`], [`GatewayBuilder::routes_from_store`])
//!   builds every worker from one resolved artifact of the attached store;
//!   a factory-built route ([`GatewayBuilder::route_with_factory`]) calls
//!   its factory per worker and never sees the store.
//! * **Zero-downtime hot reload.** [`GatewayClient::reload`] rebuilds one
//!   route's workers — a store-hydrated route from the pinned or else the
//!   newest stored `(version, digest)`, resolved once — swaps the fresh
//!   shard in, then drains and retires the old one: every accepted job
//!   still gets its response. [`ReloadWatcher`] automates the loop for
//!   store-hydrated routes by running the pure [`PromotionPolicy`] (health
//!   gate, probation, rollback to the previously served artifact) — the
//!   same policy the cluster supervisor runs for a fleet.
//! * **Route-keyed caching.** Defended outputs are cached under
//!   `(RouteKey, content-hash)`, so two routes serving different models can
//!   never return each other's outputs; a reload purges only its own
//!   route's entries.
//! * **Per-route observability.** [`GatewayClient::telemetry_snapshot`] is
//!   the one way to read a gateway. Every serving event is recorded once,
//!   on its route (`route.<label>.*`: jobs, latency histogram, cache hits,
//!   rejections, sheds, stage timings); the snapshot derives the
//!   gateway-wide `gateway.*` totals from them, next to the lifecycle
//!   counters and the event journal.
//! * **Dynamic batching** (per shard): each worker forms its batch at
//!   pickup, grouped by shape, and workers **share nothing**.
//! * **Cross-request tensor arena reuse.** Every worker owns a
//!   [`ScratchSpace`](sesr_models::ScratchSpace) and defends through
//!   `DefensePipeline::defend_scratch`, so batch merging and the whole SR
//!   forward pass draw their buffers from a per-worker arena that is warm
//!   after the first few requests — zero steady-state heap allocations in
//!   the SR hot path (proven by the counting-allocator harness in
//!   `crates/bench/tests/alloc_tracking.rs`). Only the response tensors,
//!   which escape the worker thread, are plain allocations.
//!
//! # Quickstart
//!
//! ```
//! use sesr_serve::{DefenseRequest, GatewayBuilder, RouteKey};
//! use sesr_defense::pipeline::PreprocessConfig;
//! use sesr_models::SrModelKind;
//! use sesr_tensor::{Shape, Tensor};
//!
//! let nearest = RouteKey::paper(SrModelKind::NearestNeighbor, 2);
//! let bicubic = RouteKey::new(SrModelKind::Bicubic, 2, PreprocessConfig::none());
//! let gateway = GatewayBuilder::new()
//!     .route(nearest)
//!     .route(bicubic)
//!     .default_route(nearest)
//!     .build()?;
//! let client = gateway.client();
//!
//! let image = Tensor::full(Shape::new(&[1, 3, 16, 16]), 0.5);
//! // Explicitly routed request:
//! let response = client.defend_blocking(DefenseRequest::new(image.clone()).on(bicubic))?;
//! assert_eq!(response.defended.shape().dims(), &[1, 3, 32, 32]);
//! // Default route:
//! client.defend_blocking(DefenseRequest::new(image))?;
//! let snapshot = gateway.telemetry_snapshot();
//! assert_eq!(snapshot.counter("gateway.completed"), Some(2));
//! assert_eq!(snapshot.counter(&format!("route.{}.completed", bicubic.label())), Some(1));
//! println!("{}", snapshot.render_text());
//! drop(client); // client clones keep the submission queues open
//! gateway.shutdown();
//! # Ok::<(), sesr_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod eval;
pub mod gateway;
pub mod promotion;
mod reload;
pub mod route;
pub mod server;
mod shard;
pub mod slo;
mod stats;
pub mod telemetry;

pub use cache::{content_hash, LruCache};
pub use eval::GatewayScenario;
pub use gateway::{DefenseGateway, GatewayBuilder, GatewayClient, ReloadWatcher, WorkerFactory};
pub use promotion::{Action, ArtifactId, Observation, PromotionPolicy};
pub use reload::newest_artifact;
pub use route::{DefenseRequest, RouteConfig, RouteKey};
pub use server::{DefenseResponse, PendingResponse, ServeError, WorkerAssets};
pub use slo::{SloMonitor, SloPolicy, SloRuntime};
pub use telemetry::{write_snapshot_atomic, TelemetryExporter};
