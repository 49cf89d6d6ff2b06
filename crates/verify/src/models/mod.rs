//! Faithful models of the serving stack's concurrency protocols, plus
//! deliberately broken mutants proving the checker catches each bug class.
//!
//! Each module models one protocol from the real codebase:
//!
//! | module | protocol | source |
//! |---|---|---|
//! | [`seqlock`] | event-ring slot claim/stamp/read | `crates/telemetry/src/journal.rs` |
//! | [`queue`] | bounded submission queue push / batched worker pickup / close | `crates/serve/src/shard.rs` |
//! | [`swap`] | hot-reload swap + drain-retire | `crates/serve/src/shard.rs` + `crates/serve/src/reload.rs` (`swap_in`) |
//! | [`arena`] | arena acquire/recycle in-use accounting | `crates/tensor/src/arena.rs` |
//!
//! Every model takes a *variant* enum selecting the correct protocol or a
//! mutant; the test suite checks the correct variant exhaustively and
//! asserts each mutant is rejected with a reproducible trace.

pub mod arena;
pub mod queue;
pub mod seqlock;
pub mod swap;
