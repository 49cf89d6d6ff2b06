//! End-to-end test of the `sesr-lint` binary: a fixture tree containing a
//! violation of every rule must produce a nonzero exit and `file:line`
//! diagnostics, and `--explain` must document every rule.

use std::path::PathBuf;
use std::process::Command;

fn lint_bin() -> &'static str {
    env!("CARGO_BIN_EXE_sesr-lint")
}

/// Build a fake workspace in a fresh temp dir and return its root.
fn write_fixture() -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "sesr_lint_fixture_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let src = root.join("crates/serve/src");
    std::fs::create_dir_all(&src).unwrap();

    // One file violating every rule:
    //  line 1: crate root without #![forbid(unsafe_code)]  -> forbid-unsafe
    //  line 2: Ordering literal outside allowed modules    -> atomic-ordering
    //  line 3: ad-hoc thread                               -> thread-spawn
    //  line 4: panicking accessor in the serve crate       -> no-unwrap
    //  line 5: ad-hoc child process                        -> process-spawn
    //  line 6: parked compatibility shim                   -> no-deprecated
    //  line 8: annotation without a justification          -> annotation
    std::fs::write(
        src.join("lib.rs"),
        "use std::sync::atomic::{AtomicU64, Ordering};\n\
         pub fn bad(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n\
         pub fn worker() { std::thread::spawn(|| {}).join().unwrap(); }\n\
         pub fn get(v: Option<u32>) -> u32 { v.expect(\"present\") }\n\
         pub fn child() { let _ = std::process::Command::new(\"ls\").spawn(); }\n\
         #[deprecated] pub fn old() {}\n\
         \n\
         // lint: allow(atomic-ordering):\n\
         pub const X: u32 = 0;\n",
    )
    .unwrap();

    // Strings and comments must NOT trip the rules.
    std::fs::write(
        src.join("prose.rs"),
        "#![forbid(unsafe_code)]\n\
         // thread::spawn and .unwrap() in a comment are fine\n\
         pub const DOC: &str = \"Ordering::SeqCst in a string is fine\";\n\
         pub const WHY: &str = \"#[deprecated] in a string is fine\";\n",
    )
    .unwrap();

    // The thread-spawn allowlist is per-file, not per-crate: the net
    // reactor may spawn its event-loop thread, but a sibling module in the
    // same crate may not, with `thread::spawn` or a named `thread::Builder`.
    let net = root.join("crates/net/src");
    std::fs::create_dir_all(&net).unwrap();
    std::fs::write(
        net.join("reactor.rs"),
        "pub fn start() { std::thread::spawn(|| {}); }\n",
    )
    .unwrap();
    std::fs::write(
        net.join("sidecar.rs"),
        "pub fn sneaky() { std::thread::spawn(|| {}); }\n\
         pub fn named() { let _ = std::thread::Builder::new().name(\"n\".into()).spawn(|| {}); }\n",
    )
    .unwrap();

    // The process-spawn allowlist covers the cluster supervisor sources.
    let cluster = root.join("crates/cluster/src");
    std::fs::create_dir_all(&cluster).unwrap();
    std::fs::write(
        cluster.join("supervisor.rs"),
        "pub fn respawn() { let _ = std::process::Command::new(\"worker\").spawn(); }\n",
    )
    .unwrap();

    root
}

#[test]
fn fixture_violations_produce_nonzero_exit_with_file_line_diagnostics() {
    let root = write_fixture();
    let output = Command::new(lint_bin()).arg(&root).output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    std::fs::remove_dir_all(&root).ok();

    assert_eq!(
        output.status.code(),
        Some(1),
        "violations must exit 1; stdout:\n{stdout}"
    );
    let bad = "crates/serve/src/lib.rs";
    for expected in [
        &format!("{bad}:1: [forbid-unsafe]") as &str,
        &format!("{bad}:2: [atomic-ordering]"),
        &format!("{bad}:3: [thread-spawn]"),
        &format!("{bad}:3: [no-unwrap]"),
        &format!("{bad}:4: [no-unwrap]"),
        &format!("{bad}:5: [process-spawn]"),
        &format!("{bad}:6: [no-deprecated]"),
        &format!("{bad}:8: [annotation]"),
    ] {
        assert!(
            stdout.contains(expected),
            "missing `{expected}` in:\n{stdout}"
        );
    }
    assert!(
        !stdout.contains("prose.rs"),
        "comments/strings must not be flagged:\n{stdout}"
    );
    assert!(
        !stdout.contains("crates/net/src/reactor.rs"),
        "the net reactor is on the thread-spawn allowlist:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/net/src/sidecar.rs:1: [thread-spawn]"),
        "the allowlist must not blanket the net crate:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/net/src/sidecar.rs:2: [thread-spawn]"),
        "a `thread::Builder` spawn is held to the same rule:\n{stdout}"
    );
    assert!(
        !stdout.contains("crates/cluster/src/supervisor.rs"),
        "the cluster supervisor may spawn worker processes:\n{stdout}"
    );
}

#[test]
fn explain_documents_every_rule_and_rejects_unknown_ones() {
    for rule in sesr_lint::RULES {
        let output = Command::new(lint_bin())
            .args(["--explain", rule])
            .output()
            .unwrap();
        assert!(output.status.success(), "--explain {rule} must succeed");
        let text = String::from_utf8_lossy(&output.stdout);
        assert!(text.contains(rule), "--explain {rule} must name the rule");
    }
    let output = Command::new(lint_bin())
        .args(["--explain", "no-such-rule"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = Command::new(lint_bin()).arg(&root).output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "sesr-lint must pass on the workspace:\n{stdout}"
    );
}
