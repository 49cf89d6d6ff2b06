//! `sesr-lint`: a workspace source lint for invariants rustc and clippy
//! cannot express — where atomics, threads, `unsafe`, and panicking
//! accessors are allowed to live in this repo.
//!
//! The heart is a small hand-rolled lexer ([`code_view`]) that blanks out
//! comments and string/char-literal *contents* (keeping delimiters and
//! newlines) so the rules below match real code, never prose or test
//! fixtures embedded in strings. No crates.io dependencies.
//!
//! # Rules
//!
//! | rule | invariant |
//! |---|---|
//! | `atomic-ordering` | `Ordering::{Relaxed,…,SeqCst}` literals only in the telemetry/verify cores, test code, or under an annotation |
//! | `thread-spawn` | `thread::spawn` confined to shard/serve/verify infrastructure |
//! | `process-spawn` | `Command::new` (child processes) confined to the cluster supervisor and binaries |
//! | `forbid-unsafe` | every crate root opts into `#![forbid(unsafe_code)]` |
//! | `no-unwrap` | no `.unwrap()` / `.expect("…")` in non-test serve/telemetry/store code |
//! | `no-deprecated` | no `#[deprecated]` items and no `allow(deprecated)`, test code included |
//!
//! # Annotations
//!
//! A violation is silenced by an annotation **with a justification**:
//!
//! ```text
//! // lint: allow(atomic-ordering): hot-path counter, Relaxed is documented
//! some_atomic.store(1, Ordering::Relaxed);
//! ```
//!
//! Line annotations apply to their own line and the line below. A file
//! is opted out of one rule wholesale with an `allow-file(rule): why`
//! comment (same `lint:` marker) anywhere in the file. Annotations
//! without a justification are themselves violations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lint;

pub use lint::{code_view, collect_sources, explain, lint_file, lint_workspace, Finding, RULES};
